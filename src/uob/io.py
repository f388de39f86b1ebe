"""JSON serialization for inclusion specs and bases."""

from __future__ import annotations

import itertools
import json

import numpy as np

from .algebra import MultiMatrixAlgebra, exact_index
from .bases import UnitaryBasis
from .errors import DimensionMismatch, InputError, InvariantViolated
from .inclusion import InclusionSpec, _ints


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
    # built first, so a row longer than sub_dims gets the column-count error
    spec = InclusionSpec.from_matrix(mat, sub)
    if "super_dims" in doc and _ints(doc["super_dims"], "super_dims") != spec.super_dims:
        raise DimensionMismatch("super_dims inconsistent with inclusion_matrix @ sub_dims")
    return spec


def _pairs(stack: np.ndarray) -> np.ndarray:
    """Per element, the row-major [re, im] pairs of its block: a C-contiguous
    ``(d, n², 2)`` float array (complex128 is two float64s)."""
    return np.ascontiguousarray(stack).view(np.float64).reshape(len(stack), stack.shape[1] ** 2, 2)


def _block_from_json(entries, n: int) -> np.ndarray:
    try:
        # complex(true, false) would be 1: a JSON boolean is no number
        if bool in set(map(type, itertools.chain.from_iterable(entries))):
            raise TypeError("a boolean is not a number")
        flat = np.array([complex(re, im) for re, im in entries])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(f"block entries must be [re, im] number pairs: {exc}") from None
    if flat.size != n * n:
        raise DimensionMismatch(f"block has {flat.size} entries, expected {n * n}")
    return flat.reshape(n, n)


def basis_to_dict(basis: UnitaryBasis, name: str = "") -> dict:
    return _basis_fields(basis, name, [list(W) for W in zip(*(_pairs(s).tolist() for s in basis.stacks))])


def _basis_fields(basis: UnitaryBasis, name: str, elements) -> dict:
    """The basis document with ``elements`` as given, its fields in file order."""
    out = {"d": basis.d, "provenance": basis.provenance, "elements": elements}
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
    try:
        d = exact_index(doc.get("d"))
    except TypeError as exc:
        raise DimensionMismatch(f"d must be an integer: {exc}") from None
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


def _read_json(path):
    """The file's JSON document; anything json refuses, even a 5000-digit int, is an InputError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputError(exc) from None


def load_spec(path) -> InclusionSpec:
    return spec_from_dict(_read_json(path))


def save_basis(path, basis: UnitaryBasis, name: str = ""):
    """Write the basis document in json.dump's layout and field order, each
    entry an [re, im] pair of numbers.

    orjson encodes the whole element list in one call, straight from one
    C-contiguous ``(d, n_i², 2)`` array per block, so no entry becomes a
    Python float. Its numbers have the shortest digits that read back to the
    same double, as ``repr`` does; only the exponent can be spelt otherwise
    (``1e-05`` is ``0.00001``, ``2.5e-07`` is ``2.5e-7``, ``1e+16`` is
    ``1e16``), and every value loads back bit for bit. The other fields go
    through ``json.dumps``, as the name may hold any text, and the parts go
    out in one ``writelines`` call: joining them first would copy the element
    text once more, which measured slower on a 750 KB file. orjson would
    write NaN or Inf as ``null``, so a non-finite entry raises
    InvariantViolated before the file is opened.
    """
    import orjson  # imported here: it adds about 7 ms to ``import uob``

    if not all(np.isfinite(s).all() for s in basis.stacks):
        raise InvariantViolated("basis has a NaN or infinite entry; JSON cannot hold it")
    elements = [list(W) for W in zip(*map(_pairs, basis.stacks))]
    elements = orjson.dumps(elements, option=orjson.OPT_SERIALIZE_NUMPY).replace(b",", b", ")
    parts = []
    for key, value in _basis_fields(basis, name, None).items():
        text = elements if key == "elements" else json.dumps(value).encode()
        parts += [b", " if parts else b"{", json.dumps(key).encode(), b": ", text]
    with open(path, "wb") as fh:
        fh.writelines(parts + [b"}\n"])


def load_basis(path) -> UnitaryBasis:
    return basis_from_dict(_read_json(path))
