"""Independent references that the tests compare the library against.

``composed_expectation`` is E1 o E0 written with ``embed`` and ``unembed``;
``tensor_block_perms`` and ``concat_block_perms`` each build the layout map
of one combinator on their own, with the copy numbering written out.
``CONCAT`` lists composed pairs whose nested and canonical layouts differ.
"""

import numpy as np

from uob.algebra import BlockOperator
from uob.expectation import markov_expectation
from uob.inclusion import InclusionSpec, embed, unembed

# (inner spec, method, outer spec, method): the composed spec has several sub
# blocks, and in the first two m_j = 2, so nested and canonical layouts differ
CONCAT = [
    (([[1, 1]], [4, 4]), "auto", ([[1, 1], [1, 1]], [2, 2]), "tensor"),
    (([[1, 1], [1, 1]], [4, 4]), "tensor", ([[1, 1], [1, 1]], [2, 2]), "tensor"),
    (([[1], [2]], [2]), "auto", ([[1, 1]], [1, 1]), "auto"),
]


def composed_expectation(inner_spec: InclusionSpec, outer_spec: InclusionSpec):
    """E1 o E0 for a two-step inclusion, as an embedded-form callable on A0."""
    E0 = markov_expectation(inner_spec)
    E1 = markov_expectation(outer_spec)

    def E(X: BlockOperator) -> BlockOperator:
        return embed(inner_spec, E1(unembed(inner_spec, E0(X))))

    return E


def tensor_block_perms(s1, s2, prod):
    """perms[I][c] is the Kronecker basis index at canonical position c of the
    product's block I = i1 * s2.s + i2; copy (k1, k2) is copy k1 a2(i2, j2) + k2."""
    starts = {(i, j, k): start for i, j, k, start in prod.copies}
    perms = [np.empty(n, dtype=int) for n in prod.super_dims]
    for i1, j1, k1, a in s1.copies:
        rows = (a + np.arange(s1.sub_dims[j1]))[:, None]
        for i2, j2, k2, b in s2.copies:
            I = i1 * s2.s + i2
            c = starts[I, j1 * s2.r + j2, k1 * s2.a(i2, j2) + k2]
            block = rows * s2.super_dims[i2] + b + np.arange(s2.sub_dims[j2])
            perms[I][c : c + block.size] = block.ravel()
    return perms


def concat_block_perms(s0, s1, spec):
    """perms[i][c] is the nested position at canonical position c of block i
    of the composed spec; copy k of sub block l in block i is the k-th copy
    of l that the nested layout meets."""
    starts = {(i, l, k): start for i, l, k, start in spec.copies}
    met = {}
    perms = [np.empty(n, dtype=int) for n in spec.super_dims]
    for i, j, _, a in s0.copies:
        for j1, l, _, b in s1.copies:
            if j1 == j:
                k = met[i, l] = met.get((i, l), -1) + 1
                c, m = starts[i, l, k], spec.sub_dims[l]
                perms[i][c : c + m] = a + b + np.arange(m)
    return perms
