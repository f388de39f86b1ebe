"""Independent references that the tests compare the library against.

``composed_expectation`` is E1 o E0 on block stacks, written with
``embed_batch`` and a first-copy read of each sub block;
``tensor_block_perms`` and ``concat_block_perms`` each build the layout map
of one combinator on their own, with the copy numbering written out.
``CONCAT`` lists composed pairs whose nested and canonical layouts differ.
``fourier_matrix`` is the unitary the circulant tests conjugate with,
``random_abelian_specs`` draws abelian specs that meet the spectral
condition, ``connected_by_adjacency`` is the former connectivity test, a
search over a two-way adjacency list of super and sub blocks, and
``per_block_unit_batches`` the former matrix-unit batches, which end at
every block boundary.
"""

import numpy as np

from uob.algebra import roots
from uob.expectation import markov_expectation
from uob.inclusion import InclusionSpec, embed_batch, spectral_d

# (inner spec, method, outer spec, method): the composed spec has several sub
# blocks, and in the first two m_j = 2, so nested and canonical layouts differ
CONCAT = [
    (([[1, 1]], [4, 4]), "auto", ([[1, 1], [1, 1]], [2, 2]), "tensor"),
    (([[1, 1], [1, 1]], [4, 4]), "tensor", ([[1, 1], [1, 1]], [2, 2]), "tensor"),
    (([[1], [2]], [2]), "auto", ([[1, 1]], [1, 1]), "auto"),
]


def composed_expectation(inner_spec: InclusionSpec, outer_spec: InclusionSpec):
    """E1 o E0 for a two-step inclusion, as an embedded-form callable on
    (K, n_i, n_i) block stacks of A0: E0, then each sub block read off its
    first copy, then E1, embedded back."""
    E0 = markov_expectation(inner_spec)
    E1 = markov_expectation(outer_spec)
    first = {}  # sub block j -> (super block, start, m_j) of its first copy
    for i, j, _, s in inner_spec.copies:
        first.setdefault(j, (i, s, inner_spec.sub_dims[j]))

    def E(X):
        Y = E0(X)
        B = [Y[i][:, s : s + m, s : s + m] for i, s, m in map(first.get, range(inner_spec.r))]
        return embed_batch(inner_spec, E1(B))

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


def fourier_matrix(n: int) -> np.ndarray:
    """The n x n finite Fourier matrix (1/sqrt(n)) [epsilon(jk/n)]."""
    k = np.arange(n)
    return roots(n)[np.outer(k, k) % n] / np.sqrt(n)


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


def connected_by_adjacency(spec: InclusionSpec) -> bool:
    """Connectivity of the Bratteli diagram as a bipartite graph: nodes 0..s-1
    are the super blocks, s..s+r-1 the sub blocks, searched from node 0."""
    nodes = spec.s + spec.r
    adj = [[] for _ in range(nodes)]
    for i in range(spec.s):
        for j in range(spec.r):
            if spec.inclusion_matrix[i][j] > 0:
                adj[i].append(spec.s + j)
                adj[spec.s + j].append(i)
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == nodes


def per_block_unit_batches(alg, size: int, diagonal: bool = False):
    """The matrix units of ``alg`` as (K, n_i, n_i) stacks, block by block:
    K <= size, and each batch holds the units of one block only."""
    for i, n in enumerate(alg.blocks):
        flat = np.arange(n) * (n + 1) if diagonal else np.arange(n * n)
        for lo in range(0, len(flat), size):
            t = flat[lo : lo + size]
            X = [np.zeros((len(t), n2, n2), dtype=complex) for n2 in alg.blocks]
            X[i].reshape(len(t), n * n)[np.arange(len(t)), t] = 1
            yield X
