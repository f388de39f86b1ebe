"""JSON serialization for inclusion specs and bases."""

from __future__ import annotations

import itertools
import json

import numpy as np

from .algebra import exact_index, refuse_over_budget
from .bases import UnitaryBasis
from .errors import DimensionMismatch, InputError, InvariantViolated, UobError
from .inclusion import InclusionSpec, _ints, spectral_d


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
    if not isinstance(doc, dict):
        raise DimensionMismatch("a spec document must be a JSON object")
    try:
        mat = doc["inclusion_matrix"]
        sub = doc["sub_dims"]
    except KeyError as exc:
        raise DimensionMismatch(f"missing field in spec document: {exc}")
    # built first, so a row longer than sub_dims gets the column-count error;
    # a spec derives its super_dims, so a stated one is checked here alone
    spec = InclusionSpec(mat, sub)
    if "super_dims" in doc and _ints(doc["super_dims"], "super_dims") != spec.super_dims:
        raise DimensionMismatch("super_dims inconsistent with inclusion_matrix @ sub_dims")
    return spec


def _pairs(stack: np.ndarray) -> np.ndarray:
    """Per element, the row-major [re, im] pairs of its block: a C-contiguous
    ``(d, n², 2)`` float array (complex128 is two float64s)."""
    return np.ascontiguousarray(stack).view(np.float64).reshape(len(stack), stack.shape[1] ** 2, 2)


def _stack_from_json(blocks, n: int) -> np.ndarray:
    """The ``(d, n, n)`` stack of one block of every element, from that
    block's list of ``[re, im]`` pairs in each element.

    Every number goes into one flat float array, viewed as complex, when each
    block holds n² entries, each entry is a pair and each number an int or a
    float (a bool is neither). Anything else, and an int past the range of a
    float, goes through ``_block_from_json`` entry by entry, which names what
    is wrong; it gives the same numbers, so the two agree wherever both accept.
    """
    try:
        entries = list(itertools.chain.from_iterable(blocks))
        if set(map(len, blocks)) <= {n * n} and set(map(len, entries)) <= {2}:
            flat = list(itertools.chain.from_iterable(entries))
            if set(map(type, flat)) <= {int, float}:
                return np.fromiter(flat, float, len(flat)).view(complex).reshape(-1, n, n)
    except (TypeError, OverflowError):
        pass
    return np.array([_block_from_json(W, n) for W in blocks]).reshape(-1, n, n)


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
    """The basis document with ``elements`` as given, its fields in file order.
    A basis without a spec has none: no reader could verify it."""
    if basis.spec is None:
        raise DimensionMismatch("a basis without a spec has no document form")
    out = {"d": basis.d, "provenance": basis.provenance, "elements": elements}
    out["spec"] = spec_to_dict(basis.spec)
    if name:
        out["name"] = name
    return out


def basis_from_dict(doc: dict) -> UnitaryBasis:
    if not isinstance(doc, dict):
        raise DimensionMismatch("a basis document must be a JSON object")
    for key in ("d", "elements", "spec"):
        if doc.get(key) is None:
            raise DimensionMismatch(f"basis document has no {key}")
    spec = spec_from_dict(doc["spec"])
    # d = 1 where the condition fails: the document's blocks are allocated whatever d is
    refuse_over_budget((spectral_d(spec) or 1) * spec.super_algebra.vector_dim, "a basis")
    alg = spec.super_algebra
    elements = doc["elements"]
    if not isinstance(elements, list) or not all(isinstance(W, list) for W in elements):
        raise DimensionMismatch("elements must be a list of lists of blocks")
    try:
        d = exact_index(doc["d"])
    except TypeError as exc:
        raise DimensionMismatch(f"d must be an integer: {exc}") from None
    if d != len(elements):
        raise DimensionMismatch(f"document says d = {d} but holds {len(elements)} elements")
    if any(len(W) != alg.num_blocks for W in elements):
        raise DimensionMismatch("element block count does not match algebra")
    provenance = doc.get("provenance", "loaded")
    if not isinstance(provenance, str):
        raise DimensionMismatch("provenance must be a string")
    stacks = tuple(_stack_from_json([W[i] for W in elements], n) for i, n in enumerate(alg.blocks))
    return UnitaryBasis(spec, stacks, provenance)


def save_spec(path, spec: InclusionSpec, name: str = ""):
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec, name), fh, indent=1)
        fh.write("\n")


def _read_json(path):
    """The file's UTF-8 JSON document; anything json refuses, even a 5000-digit
    int, is an InputError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputError(exc) from None


def load_spec(path) -> InclusionSpec:
    return spec_from_dict(_read_json(path))


def save_basis(path, basis: UnitaryBasis, name: str = ""):
    """Write the basis document, compact and UTF-8, in one orjson call.

    Each element is a list of the ``(n_i², 2)`` [re, im] pair arrays of its
    blocks, views into one C-contiguous array per block, so no entry becomes a
    Python float; each number has the shortest digits that read back to the
    same double. orjson would write NaN or Inf as ``null``, so a non-finite
    entry raises InvariantViolated, and a basis without a spec raises
    DimensionMismatch, before the file is opened. A name that is no valid
    text (a lone surrogate from an undecodable path) is written with
    backslash escapes.
    """
    import orjson  # imported here: it adds about 7 ms to ``import uob``

    if not all(np.isfinite(s).all() for s in basis.stacks):
        raise InvariantViolated("basis has a NaN or infinite entry; JSON cannot hold it")
    elements = [list(W) for W in zip(*map(_pairs, basis.stacks))]
    doc = _basis_fields(basis, name.encode(errors="backslashreplace").decode(), elements)
    data = orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)
    with open(path, "wb") as fh:
        fh.write(data)


# the fields save_basis writes. basis_from_dict checks each of them but the
# name; a field it does not check could hold nesting that orjson reads and
# json.load refuses (past the recursion limit)
_BASIS_FIELDS = frozenset({"d", "provenance", "elements", "spec", "name"})
_SPEC_FIELDS = frozenset({"inclusion_matrix", "sub_dims", "super_dims"})


def _written_fields_only(doc) -> bool:
    """True when the document holds only fields save_basis writes, and its name is a string."""
    return (
        isinstance(doc, dict)
        and doc.keys() <= _BASIS_FIELDS
        and isinstance(doc.get("name", ""), str)
        and isinstance(doc.get("spec"), dict)
        and doc["spec"].keys() <= _SPEC_FIELDS
    )


def load_basis(path) -> UnitaryBasis:
    """The basis in the document at ``path``, read with orjson.

    A document orjson refuses (NaN or Infinity, a number past a double, a BOM,
    bad UTF-8, a lone surrogate), one ``basis_from_dict`` refuses as orjson
    reads it (orjson reads an int past 64 bits as a float), and one with a
    field ``save_basis`` does not write is read again with ``json.load``: so
    every document loads, or is refused, as ``json.load`` reads it.
    """
    import orjson  # imported here, as in save_basis

    try:
        with open(path, "rb") as fh:
            doc = orjson.loads(fh.read())  # the bytes are freed once parsed, as in json.load
        if _written_fields_only(doc):
            return basis_from_dict(doc)
    except (orjson.JSONDecodeError, UobError):
        pass
    return basis_from_dict(_read_json(path))
