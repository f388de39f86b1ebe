"""Named example inclusions shipped with the package, plus a random-spec generator."""

from __future__ import annotations

import numpy as np

from .inclusion import InclusionSpec, spectral_d

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


def random_abelian_specs(count: int, seed: int, max_d: int = 36) -> list[InclusionSpec]:
    """Random abelian inclusions satisfying the integer spectral condition.

    Draws small integer matrices with all m_j = 1, keeps those where the
    column sums of n_i a_ij are constant (that constant is d) and d <= max_d.
    """
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        s = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        mat = rng.integers(0, 3, size=(s, r))
        # no zero column, no zero row
        if np.any(mat.sum(axis=0) == 0) or np.any(mat.sum(axis=1) == 0):
            continue
        spec = InclusionSpec(mat.tolist(), [1] * r)
        d = spectral_d(spec)
        if d is not None and d <= max_d:
            found.append(spec)
    return found

