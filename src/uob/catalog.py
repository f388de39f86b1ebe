"""Named example inclusions shipped with the package."""

from __future__ import annotations

from .inclusion import InclusionSpec

# name -> (inclusion_matrix, sub_dims); every spec except c2_in_m3 satisfies
# the integer spectral condition.
_CATALOG = {
    "c_in_m2": ([[2]], [1]),
    "c_in_m3": ([[3]], [1]),
    "c_in_m5": ([[5]], [1]),
    "c_in_m1_plus_m2": ([[1], [2]], [1]),
    "c_in_m1_m1_m2": ([[1], [1], [2]], [1]),
    "c2_in_m2": ([[1, 1]], [1, 1]),
    "c2_in_m4": ([[2, 2]], [1, 1]),
    "c2_in_m2_plus_m2": ([[1, 1], [1, 1]], [1, 1]),
    "c3_in_m3": ([[1, 1, 1]], [1, 1, 1]),
    "m2_in_m2_plus_m4": ([[1], [2]], [2]),
    "m2_in_m4": ([[2]], [2]),
    "c2_in_m3": ([[1, 2]], [1, 1]),
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog_spec(name: str) -> InclusionSpec:
    mat, sub = _CATALOG[name]
    return InclusionSpec(mat, sub)
