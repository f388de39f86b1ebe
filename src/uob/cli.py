"""Command line interface: check, basis, verify, channel, entropy.

Exit codes: 0 success, 1 a mathematical condition failed, 2 bad input,
3 no known construction applies to the spec.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import catalog
from .bases import METHODS, construct
from .errors import InputError, NoKnownConstruction, UobError
from .expectation import markov_expectation, mixed_unitary_channel
from .inclusion import InclusionSpec, check_spectral_condition
from .io import load_basis, load_spec, save_basis
from .verify import RECON_TOL, all_passed, verify_basis

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NO_CONSTRUCTION = 3


def _resolve_spec(token: str) -> InclusionSpec:
    if token in catalog._CATALOG:
        return catalog.catalog_spec(token)
    try:
        return load_spec(token)
    except (OSError, ValueError):
        # a directory or an unreadable file is itself the error; a path that
        # names nothing (missing, a broken symlink, an embedded NUL) is not a file
        if os.path.exists(token):
            raise
    raise FileNotFoundError(f"'{token}' is neither a catalog name nor a file")


def cmd_check(args) -> int:
    # exit 0 iff the spec itself is valid; a failing spectral condition is a
    # legitimate finding, not an error
    spec = _resolve_spec(args.spec)
    report = check_spectral_condition(spec)
    print(json.dumps(report.to_dict(), indent=1))
    return EXIT_OK


def cmd_entropy(args) -> int:
    spec = _resolve_spec(args.spec)
    report = check_spectral_condition(spec)
    if not report.holds:
        print("spectral condition fails; conditional entropy is not ln d", file=sys.stderr)
        return EXIT_FAILED
    print(f"{report.entropy_value:.12f}")
    return EXIT_OK


def cmd_basis(args) -> int:
    spec = _resolve_spec(args.spec)
    try:
        basis = construct(spec, args.method)
    except NoKnownConstruction as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONSTRUCTION if args.method == "auto" else EXIT_FAILED
    reports = verify_basis(basis, seed=args.seed, recon_tol=args.tol)
    for r in reports:
        print(r)
    if args.out:
        save_basis(args.out, basis, args.spec)
        print(f"wrote {basis.d} elements to {args.out}")
    return EXIT_OK if all_passed(reports) else EXIT_FAILED


def cmd_verify(args) -> int:
    basis = load_basis(args.basis)
    reports = verify_basis(basis, seed=args.seed, recon_tol=args.tol)
    for r in reports:
        print(r)
    return EXIT_OK if all_passed(reports) else EXIT_FAILED


def cmd_channel(args) -> int:
    spec = _resolve_spec(args.spec)
    dec = mixed_unitary_channel(spec)
    E = markov_expectation(spec)
    rng = np.random.default_rng(args.seed)
    Xs = [spec.super_algebra.random(rng) for _ in range(5)]
    # one pass over the unitaries for all five operands; np.max keeps a NaN
    got = dec.apply(np.stack([X.to_dense() for X in Xs]))
    want = np.stack([E(X).to_dense() for X in Xs])
    worst = float(np.max(np.abs(got - want)))
    doc = {
        "unitary_count": dec.unitary_count,
        "column_counts": dec.column_counts,
        "k_phases": {str(lbl): str(x) for lbl, x in dec.k_phases},
        "cycles": dec.cycles,
        "agreement_residual": worst,
    }
    print(json.dumps(doc))
    return EXIT_OK if worst <= args.tol else EXIT_FAILED


def _tolerance(text: str) -> float:
    """A finite, non-negative float: a NaN, infinite or negative --tol would
    pass or fail every residual."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}: need a finite number >= 0")
    return tol


def _seed(text: str) -> int:
    """A non-negative integer, as numpy's random generators take."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}: need an integer >= 0")
    return seed


class _Parser(argparse.ArgumentParser):
    """Bad arguments are bad input: one stderr line and exit 2, no usage block."""

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


# The argument parser is built once per process. A call that names a command
# is parsed by that command's own parser (``_parse``), into a fresh namespace,
# so no option carries over; any other call goes to the top-level parser.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; shared, so do not modify it."""
    p = _Parser(prog="uob", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tol", type=_tolerance, default=RECON_TOL)
        sp.add_argument("--seed", type=_seed, default=0)

    sp = sub.add_parser("check", help="test the integer spectral condition")
    sp.add_argument("spec", help="catalog name or spec JSON path")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("entropy", help="conditional entropy ln d")
    sp.add_argument("spec")
    sp.set_defaults(func=cmd_entropy)

    sp = sub.add_parser("basis", help="construct and verify a unitary orthonormal basis")
    sp.add_argument("spec")
    sp.add_argument("--method", choices=METHODS, default="auto")
    sp.add_argument("--out", help="write the basis as JSON")
    common(sp)
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("verify", help="re-verify a basis JSON file")
    sp.add_argument("basis", help="basis JSON path")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("channel", help="mixed unitary form of the expectation")
    sp.add_argument("spec")
    common(sp)
    sp.set_defaults(func=cmd_channel)
    p.commands = sub.choices  # command name -> its parser, for main's dispatch
    return p


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, but a known command's arguments are parsed
    by that command's own parser: the top-level parser would only hand them
    on to it, at twice the cost."""
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (OSError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except UobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
