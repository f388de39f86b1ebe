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
every block boundary.  ``_GramProjector(phi, family)`` is the phi-orthogonal
projection onto the span of a family, formed from its Gram matrix: onto B's
embedded matrix units it is the conditional expectation, and onto the tower's
left multiplications the dual expectation E_1, so it is the reference that
both compiled forms are tested against; a numerically degenerate family
raises ``SingularGram``.  ``per_column_orthonormality``,
``per_operator_reconstruction`` and ``all_units_markov_preservation`` are the
per-operand reference for verify's compiled checks: they call any E on block
stacks (one call per column of pairs, per test operator, or per batch of all
matrix units) and assume no linearity, so a plain callable, such as a
composed E1 o E0 or the dual expectation in a lambda, is checked too;
``reference_basis`` is ``verify_basis`` with those three in place of its
compiled checks.
"""

import numpy as np

from uob.algebra import BlockOperator, TracialState, roots
from uob.errors import AlgebraMismatch, UobError
from uob.expectation import markov_expectation
from uob.inclusion import InclusionSpec, embed_batch, markov_trace, spectral_d
from uob.verify import (
    N_RANDOM,
    ORTHO_TOL,
    RECON_TOL,
    TRACE_TOL,
    _cardinality_report,
    _entry_max,
    _report,
    _worst,
    verify_trace_conditions,
    verify_unitary,
)

GRAM_COND_LIMIT = 1e12

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


class SingularGram(UobError):
    """Gram matrix of the projection basis is numerically degenerate."""


class _GramProjector:
    """Orthogonal projection onto the span of a fixed operator family.

    Compiled once: the family is flattened into the rows of one (k, N) array
    S, N = sum n_i^2, and phi's inner product becomes the per-entry weight w
    (p_i / weight on every entry of block i), so <X, Y> = sum conj(x) w y and
    the Gram matrix is G = conj(S) diag(w) S^T.  The projector keeps S on its
    support only (the columns where some member is nonzero), drops the dense
    S, and forms G and P = G^-1 conj(S) diag(w) on the support, P a (k, N)
    array zero off it.  ``apply`` takes a list of (K, n_i, n_i) block stacks
    and answers with the same shapes; each operand x (a row of the stacked,
    flattened blocks) gets two matrix-vector products, the coefficients
    c = P x over all N entries and then c S over the support only, scattered
    into zeros.  Both are stacked mat-vecs (``P @ x[..., None]``, then
    ``c[..., None, :] @ S``), so every operand gets the bits it gets alone;
    one (K, N) @ P^T product would sum in another order.  ``__call__`` is
    ``apply`` on one ``BlockOperator``.  Each kept entry is the length-k dot
    product of the dense c S; BLAS may sum it in another order for another
    column count, but where each support column holds a single 1, as for the
    tower's left multiplications, it is exact either way.  P is zero off the
    support, so a NaN or Inf anywhere in x makes every c non-finite, and with
    it the output on the support.
    """

    def __init__(self, phi: TracialState, basis):
        self.algebra = phi.algebra
        S = _rows(basis, self.algebra.vector_dim)
        self._support = np.flatnonzero(S.any(axis=0))
        self._S = S.take(self._support, axis=1)  # C-ordered like S, so c @ S takes the same BLAS kernel
        del S  # so the family and P are never alive at once
        sizes = [n * n for n in self.algebra.blocks]
        w = np.repeat([float(p / phi.weight) for p in phi.trace_vector], sizes)[self._support]
        T = self._S * w
        G = np.conj(T, out=T) @ self._S.T
        if np.linalg.cond(G) > GRAM_COND_LIMIT:
            raise SingularGram("projection basis is numerically degenerate")
        self._P = np.zeros((len(G), self.algebra.vector_dim), dtype=complex)
        self._P[:, self._support] = np.linalg.inv(G) @ T
        ends = np.cumsum(sizes)
        self._cuts = [(e - n * n, e, n) for e, n in zip(ends, self.algebra.blocks)]

    def apply(self, blocks) -> list[np.ndarray]:
        """The projection of every operand of a batch: ``blocks[i]`` is a
        (K, n_i, n_i) stack, and so is block i of the answer."""
        self.algebra.check_stacks(blocks)
        K, N = len(blocks[0]), self._P.shape[1]
        rows = [b.reshape(K, b.shape[-1] ** 2) for b in blocks]
        # contiguous, so matmul takes BLAS's gemv for every operand
        x = np.ascontiguousarray(rows[0] if len(rows) == 1 else np.concatenate(rows, axis=1)).reshape(K, N, 1)
        c = (self._P @ x)[..., None, :, 0]
        flat = np.zeros((K, N), dtype=complex)
        flat[:, self._support] = (c @ self._S)[:, 0]
        return [flat[:, lo:hi].reshape(K, n, n) for lo, hi, n in self._cuts]

    def __call__(self, X: BlockOperator) -> BlockOperator:
        if X.algebra != self.algebra:
            raise AlgebraMismatch("operand does not belong to the projector's algebra")
        return BlockOperator(self.algebra, tuple(y[0] for y in self.apply([b[None] for b in X.data])))


def _rows(family, N: int) -> np.ndarray:
    """The members of ``family`` flattened into the rows of one (k, N) array,
    one at a time: a list of them, each maybe a view of its whole batch, would
    hold the family twice."""
    return np.fromiter(map(_flatten, family), dtype=np.dtype((complex, N)))


def _flatten(X: BlockOperator) -> np.ndarray:
    """The blocks of X, each row-major, one after another: N = sum n_i^2 entries."""
    if len(X.data) == 1:
        return X.data[0].ravel()
    return np.concatenate([b.ravel() for b in X.data])


def _adjoints(basis) -> list[np.ndarray]:
    """Every W_c* of each block, laid out once as the rows of one (d n, n) array:
    conjugated straight into one C-ordered (d, n, n) stack, then viewed."""
    adj = (np.conjugate(Ws.swapaxes(-1, -2), order="C") for Ws in basis.stacks)
    return [H.reshape(-1, H.shape[-1]) for H in adj]


def _expected(E, operands) -> list[np.ndarray]:
    """E of a list of (K, n_i, n_i) block stacks, in one call.  An output that
    is not a list of stacks of the operands' shapes is refused, so a block of
    the wrong size never lands (or broadcasts) in a residual."""
    out = E(operands)
    shapes = [getattr(o, "shape", None) for o in out] if isinstance(out, (list, tuple)) else None
    if shapes != [p.shape for p in operands]:
        raise AlgebraMismatch("expectation output is not a list of stacks of the operands' shapes")
    return out


def _conjugated_one(E, basis, adj, X) -> list[np.ndarray]:
    """E(W_c* X) for every c of one operator X, in one E call on d operands."""
    return _expected(E, [(H @ x).reshape(Ws.shape) for H, Ws, x in zip(adj, basis.stacks, X)])


def per_column_orthonormality(basis, E):
    """verify_orthonormality's generic path, one E call per column k."""
    d, stacks = basis.d, basis.stacks
    adj, resid = _adjoints(basis), np.empty((d, d))
    for k in range(d):  # column k: E(W_j* W_k) for every j
        out = _conjugated_one(E, basis, adj, [Ws[k] for Ws in stacks])
        r = np.array([_entry_max(o) for o in out])
        r[:, k] = [_entry_max(o[k] - np.eye(len(o[k]))) for o in out]
        resid[:, k] = r.max(axis=0)
    return _worst("orthonormality", resid, ORTHO_TOL, lambda t: f"pair {divmod(t, d)}")


def per_operator_reconstruction(basis, E, tol=RECON_TOL, seed=0, sampler=None):
    """verify_reconstruction's generic path, one E call per test operator."""
    alg, rng = basis.algebra, np.random.default_rng(seed)
    if sampler is None:
        samples = [(f"unit {lbl}", X) for lbl, X in alg.matrix_units()]
        samples += [(f"random {t}", alg.random(rng)) for t in range(N_RANDOM)]
    else:
        samples = list(sampler(rng))
    if not samples:
        return _report("reconstruction", np.inf, tol, "no test operators", seed=seed)
    adj, resid = _adjoints(basis), np.empty(len(samples))
    for t, (_, X) in enumerate(samples):
        blocks = zip(basis.stacks, _conjugated_one(E, basis, adj, X.data), X.data)
        resid[t] = np.max([np.abs((Ws @ o).sum(axis=0) - x).max() for Ws, o, x in blocks])
    return _worst("reconstruction", resid, tol, lambda k: samples[k][0], seed=seed)


def all_units_markov_preservation(spec, E):
    """verify_trace_conditions' Markov preservation on all sum n_i^2 matrix
    units, one E call per batch of them."""
    alg, phi = spec.super_algebra, markov_trace(spec)
    units = alg.unit_batches(alg.batch_size)
    resid = np.concatenate([np.abs(phi.batch(_expected(E, X)) - phi.batch(X)) for X in units])
    return _report("markov_preservation", np.max(resid), TRACE_TOL)


def reference_basis(basis, E, seed=0, recon_tol=RECON_TOL):
    """``verify_basis`` with orthonormality, reconstruction and Markov
    preservation on the per-operand reference: the same reports, in order."""
    with np.errstate(invalid="ignore", over="ignore"):
        reports = [
            verify_unitary(basis),
            per_column_orthonormality(basis, E),
            per_operator_reconstruction(basis, E, tol=recon_tol, seed=seed),
        ]
    integer = verify_trace_conditions(basis.spec)[0]  # exact, and E plays no part in it
    return reports + [integer, all_units_markov_preservation(basis.spec, E), _cardinality_report(basis.spec, basis)]
