"""JSON serialization for inclusion specs and bases."""

from __future__ import annotations

import itertools
import json

import numpy as np

from .algebra import MultiMatrixAlgebra
from .bases import UnitaryBasis
from .errors import DimensionMismatch
from .inclusion import InclusionSpec, _int_rows, _ints


def spec_to_dict(spec: InclusionSpec, name: str = "") -> dict:
    out = {
        "inclusion_matrix": [list(row) for row in spec.inclusion_matrix],
        "sub_dims": list(spec.sub_dims),
        "super_dims": list(spec.super_dims),
    }
    if name:
        out["name"] = name
    return out


def spec_from_dict(doc: dict) -> InclusionSpec:
    try:
        mat = doc["inclusion_matrix"]
        sub = doc["sub_dims"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"missing field in spec document: {exc}")
    mat, sub = _int_rows(mat), _ints(sub, "sub_dims")
    sup = tuple(sum(a * m for a, m in zip(row, sub)) for row in mat)
    if "super_dims" in doc and _ints(doc["super_dims"], "super_dims") != sup:
        raise DimensionMismatch("super_dims inconsistent with inclusion_matrix @ sub_dims")
    return InclusionSpec(mat, sub, sup)


def _stack_to_json(stack: np.ndarray) -> list:
    """Per element, the flat row-major list of [re, im] pairs of its block."""
    pairs = np.stack((stack.real, stack.imag), axis=-1)
    return pairs.reshape(len(stack), stack.shape[1] ** 2, 2).tolist()


def _block_from_json(entries, n: int) -> np.ndarray:
    try:
        # complex(true, false) would be 1: a JSON boolean is no number
        if bool in set(map(type, itertools.chain.from_iterable(entries))):
            raise TypeError("a boolean is not a number")
        flat = np.array([complex(re, im) for re, im in entries])
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"block entries must be [re, im] number pairs: {exc}") from None
    if flat.size != n * n:
        raise DimensionMismatch(f"block has {flat.size} entries, expected {n * n}")
    return flat.reshape(n, n)


def basis_to_dict(basis: UnitaryBasis, name: str = "") -> dict:
    out = {
        "d": basis.d,
        "provenance": basis.provenance,
        "elements": [list(W) for W in zip(*map(_stack_to_json, basis.stacks))],
    }
    if basis.spec is not None:
        out["spec"] = spec_to_dict(basis.spec)
    else:
        out["spec"] = None
        out["block_dims"] = list(basis.algebra.blocks)
    if name:
        out["name"] = name
    return out


def basis_from_dict(doc: dict) -> UnitaryBasis:
    if not isinstance(doc, dict):
        raise DimensionMismatch("a basis document must be a JSON object")
    spec = spec_from_dict(doc["spec"]) if doc.get("spec") is not None else None
    if spec is not None:
        alg = spec.super_algebra
    else:
        try:
            alg = MultiMatrixAlgebra(tuple(doc["block_dims"]))
        except (TypeError, ValueError) as exc:
            raise DimensionMismatch(f"block_dims: {exc}") from None
    elements = doc["elements"]
    if not isinstance(elements, list) or not all(isinstance(W, list) for W in elements):
        raise DimensionMismatch("elements must be a list of lists of blocks")
    d = doc.get("d")
    if d != len(elements):
        raise DimensionMismatch(f"document says d = {d} but holds {len(elements)} elements")
    if any(len(W) != alg.num_blocks for W in elements):
        raise DimensionMismatch("element block count does not match algebra")
    stacks = tuple(
        np.array([_block_from_json(W[i], n) for W in elements]).reshape(-1, n, n)
        for i, n in enumerate(alg.blocks)
    )
    return UnitaryBasis(spec, stacks, doc.get("provenance", "loaded"))


def save_spec(path, spec: InclusionSpec, name: str = ""):
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec, name), fh, indent=1)
        fh.write("\n")


def load_spec(path) -> InclusionSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


def save_basis(path, basis: UnitaryBasis, name: str = ""):
    """Write the same bytes as json.dump, one element per json.dumps call.

    json.dumps runs the C encoder, which json.dump does not; encoding element
    by element keeps the whole document from being held as one string.
    """
    doc = basis_to_dict(basis, name)
    with open(path, "w") as fh:
        for k, (key, value) in enumerate(doc.items()):
            fh.write(("{" if k == 0 else ", ") + json.dumps(key) + ": ")
            if key != "elements":
                fh.write(json.dumps(value))
                continue
            fh.write("[")
            for e, element in enumerate(value):
                fh.write((", " if e else "") + json.dumps(element))
            fh.write("]")
        fh.write("}\n")


def load_basis(path) -> UnitaryBasis:
    with open(path) as fh:
        return basis_from_dict(json.load(fh))
