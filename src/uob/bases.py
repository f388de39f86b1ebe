"""Constructions of unitary orthonormal bases and the combinators over them."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algebra import BlockOperator, MultiMatrixAlgebra, circulant, epsilon, refuse_over_budget, roots
from .errors import (
    AlgebraMismatch,
    CardinalityMismatch,
    DimensionMismatch,
    InvariantViolated,
    MiddleAlgebraMismatch,
    NoKnownConstruction,
    NotAbelian,
    PartitionOfUnityFailed,
    ShapeMismatch,
    SpectralConditionFailed,
    TooLarge,
    UobError,
)
from .inclusion import InclusionSpec, embed_batch, spectral_d

METHODS = ("auto", "abelian", "weyl", "tensor", "full_matrix_sub", "full_matrix_super", "basic")
PARTITION_TOL = 1e-8  # the largest |sum_k U_k e_1 U_k* - I| that ``twisted_stack`` accepts


@dataclass(frozen=True)
class UnitaryBasis:
    """An ordered family {W_0, ..., W_{d-1}} of unitaries with E(W_j* W_k) = delta_jk.

    Stored as one (d, n_i, n_i) stack per block: stacks[i][j] is block i of
    W_j.  The first element is always the identity.  ``spec`` is None for bases
    that live in a concrete basic-construction model without a canonical
    multi-matrix identification.
    """

    spec: InclusionSpec | None
    stacks: tuple[np.ndarray, ...]
    provenance: str

    def __post_init__(self):
        stacks = tuple(np.asarray(s, dtype=complex) for s in self.stacks)
        if any(s.ndim != 3 or s.shape != stacks[0].shape[:1] + s.shape[2:] * 2 for s in stacks):
            raise AlgebraMismatch("block stacks must have shapes (d, n_i, n_i) with one d")
        if self.spec is not None and tuple(s.shape[2] for s in stacks) != self.spec.super_dims:
            raise AlgebraMismatch("block stacks do not match the spec's super-algebra")
        object.__setattr__(self, "stacks", stacks)

    @classmethod
    def from_elements(cls, spec: InclusionSpec | None, elements, provenance: str) -> "UnitaryBasis":
        """The basis of a list of block operators; an empty list takes its blocks from spec."""
        elements = tuple(elements)
        if len({W.algebra for W in elements}) > 1:
            raise AlgebraMismatch("elements belong to different algebras")
        if elements:
            stacks = tuple(np.stack(blocks) for blocks in zip(*(W.data for W in elements)))
        else:
            dims = () if spec is None else spec.super_dims
            stacks = tuple(np.zeros((0, n, n), dtype=complex) for n in dims)
        return cls(spec, stacks, provenance)

    @property
    def d(self) -> int:
        return len(self.stacks[0]) if self.stacks else 0

    @cached_property
    def algebra(self) -> MultiMatrixAlgebra:
        if not self.stacks:
            raise DimensionMismatch("a basis with neither a spec nor elements has no block dims")
        return MultiMatrixAlgebra(tuple(s.shape[2] for s in self.stacks))

    @cached_property
    def elements(self) -> tuple[BlockOperator, ...]:
        """W_0, ..., W_{d-1} as block operators whose blocks are views into the stacks."""
        return tuple(
            BlockOperator(self.algebra, tuple(s[j] for s in self.stacks)) for j in range(self.d)
        )


def identity_basis(m: int) -> UnitaryBasis:
    """The trivial basis {I} for (M_m inside M_m, identity map)."""
    spec = InclusionSpec(((1,),), (m,))
    return UnitaryBasis(spec, (np.eye(m, dtype=complex)[None],), "identity")


def _abelian_d(spec: InclusionSpec) -> int:
    """The d of an abelian spec that meets the spectral condition."""
    if any(m != 1 for m in spec.sub_dims):
        raise NotAbelian("construction requires all sub blocks of size 1")
    d = spectral_d(spec)
    if d is None:
        raise SpectralConditionFailed("A^t n is not an integer multiple of m")
    return d


def _diagonal_phases(spec: InclusionSpec, i: int, weights, step: int) -> list[int]:
    """Phase numerators sum_{x<i} w_x a_xj + k * step at position (i, j, k) of an abelian spec."""
    offs = [sum(weights[x] * spec.a(x, j) for x in range(i)) for j in range(spec.r)]
    return [offs[j] + k * step for j in range(spec.r) for k in range(spec.a(i, j))]


def abelian_basis(spec: InclusionSpec) -> UnitaryBasis:
    """The quasi-circulant basis {V^t U^t : 0 <= t < d} for abelian sub-algebras.

    V is blockwise circulant with d-th roots of unity as eigenvalues; U is
    diagonal with entry epsilon((sum_{x<i} n_x a_xj + k n_i) / d) at position
    (i, j, k).
    """
    d = _abelian_d(spec)
    eps, t = roots(d), np.arange(d)[:, None]
    stacks = []
    for i, n in enumerate(spec.super_dims):
        Vt = circulant(eps[t * np.arange(n) % d])
        u = eps[t * np.array(_diagonal_phases(spec, i, spec.super_dims, n)) % d]
        stacks.append(Vt * u[:, None, :])
    return UnitaryBasis(spec, tuple(stacks), "abelian")


def abelian_basis_entrywise(spec: InclusionSpec) -> UnitaryBasis:
    """Independent entrywise construction of the abelian basis.

    Computes each entry of W(t) directly as a single phase sum with exact
    rational phases; used to cross-check the operator-product path.
    """
    d = _abelian_d(spec)
    # every sub block is 1 x 1, so the copy starts of block i are its positions
    rows = [[s for x, _, _, s in spec.copies if x == i] for i in range(spec.s)]
    phases = [_diagonal_phases(spec, i, spec.super_dims, n) for i, n in enumerate(spec.super_dims)]

    elements = []
    for t in range(d):
        data = []
        for i, n in enumerate(spec.super_dims):
            W = np.empty((n, n), dtype=complex)
            for row in rows[i]:
                for col in rows[i]:
                    acc = 0j
                    for y in range(n):
                        phase = (
                            Fraction(y * t, d)
                            + Fraction(y * (col - row), n)
                            + Fraction(t * phases[i][col], d)
                        )
                        acc += epsilon(phase)
                    W[row, col] = acc / n
            data.append(W)
        elements.append(spec.super_algebra.operator(data))
    return UnitaryBasis.from_elements(spec, elements, "abelian")


def weyl_basis(spec: InclusionSpec) -> UnitaryBasis:
    """Generalized Weyl basis {V^v U^t} for C^r inside s copies of M_n.

    V is the blockwise cyclic shift; U has diagonal entry
    epsilon(t (sum_{x<i} a_xj + k) / q) where q is the common column sum.
    """
    if any(m != 1 for m in spec.sub_dims):
        raise ShapeMismatch("sub-algebra must be abelian for the Weyl construction")
    n = spec.super_dims[0]
    if any(ni != n for ni in spec.super_dims):
        raise ShapeMismatch("all super blocks must have equal size")
    colsums = [sum(spec.a(i, j) for i in range(spec.s)) for j in range(spec.r)]
    q = colsums[0]
    if any(c != q for c in colsums):
        raise ShapeMismatch("column sums of the inclusion matrix must be constant")

    shifts = np.stack([np.roll(np.eye(n, dtype=complex), v, axis=0) for v in range(n)])
    eps, t = roots(q), np.arange(q)[:, None]
    stacks = []
    for i in range(spec.s):
        u = eps[t * np.array(_diagonal_phases(spec, i, [1] * spec.s, 1)) % q]
        # element v * q + t is V^v U^t
        stacks.append((shifts[:, None] * u[None, :, None, :]).reshape(n * q, n, n))
    return UnitaryBasis(spec, tuple(stacks), "weyl")


def _to_layout(spec: InclusionSpec, stacks, placed) -> tuple[np.ndarray, ...]:
    """Each of ``stacks`` gathered into the layout of ``spec.copies``.

    ``placed`` yields ``(i, l, positions)`` for every copy of sub block ``l``
    that block ``i`` of the nested layout holds: the k-th yield for one
    ``(i, l)`` is copy ``k``, and ``positions`` are its ``m_l`` indices in
    ``stacks[i]``, in order.  Block ``i`` of the result is
    ``X[:, p[:, None], p]``, with ``p`` the positions of its copies in
    ``spec.copies`` order.  ``placed`` is read whole before ``stacks`` is, so
    ``stacks`` may be a generator that builds one block at a time.
    """
    copies = defaultdict(list)
    for i, l, positions in placed:
        copies[i, l].append(positions)
    perms = [[] for _ in spec.super_dims]
    for i, l, k, _ in spec.copies:
        perms[i].extend(copies[i, l][k])
    return tuple(X[:, p[:, None], p] for X, p in zip(stacks, map(np.array, perms)))


def concat_basis(inner: UnitaryBasis, outer: UnitaryBasis) -> UnitaryBasis:
    """Products {V_j embed(W_k)} for the composed inclusion A2 in A0.

    ``inner`` is a basis for (A1 in A0, E0), ``outer`` for (A2 in A1, E1).
    In the nested layout, block i of A0 holds each copy of an A1 block, and
    each of those the copies of A2 blocks at offsets a + b.  ``_to_layout``
    moves them into the composed spec's own ``copies`` layout, so the result
    verifies against that spec's Markov expectation, which is E1 o E0 in that
    layout.
    """
    s0, s1 = inner.spec, outer.spec
    if s0 is None or s1 is None or s0.sub_dims != s1.super_dims:
        raise MiddleAlgebraMismatch("inner sub-algebra must equal outer super-algebra")
    mat0 = np.array(s0.inclusion_matrix, dtype=int)
    mat1 = np.array(s1.inclusion_matrix, dtype=int)
    spec = InclusionSpec((mat0 @ mat1).tolist(), s1.sub_dims)
    placed = (
        (i, l, range(a + b, a + b + spec.sub_dims[l]))
        for i, j, _, a in s0.copies
        for j1, l, _, b in s1.copies
        if j1 == j
    )
    # element j d_outer + k is V_j embed(W_k)
    nested = (
        (V[:, None] @ W).reshape(inner.d * outer.d, *V.shape[1:])
        for V, W in zip(inner.stacks, embed_batch(s0, outer.stacks))
    )
    return UnitaryBasis(spec, _to_layout(spec, nested, placed), "concat")


def tensor_spec(s1: InclusionSpec, s2: InclusionSpec) -> InclusionSpec:
    """Tensor-product inclusion: Kronecker matrices and dimension vectors."""
    mat = np.kron(np.array(s1.inclusion_matrix, int), np.array(s2.inclusion_matrix, int))
    sub = np.kron(np.array(s1.sub_dims, int), np.array(s2.sub_dims, int))
    return InclusionSpec(mat.tolist(), sub.tolist())


def tensor_basis(b1: UnitaryBasis, b2: UnitaryBasis) -> UnitaryBasis:
    """Basis {W_j(1) (x) W_k(2)} for the tensor-product inclusion.

    Block I = i1 s2.s + i2 of the Kronecker product holds copy (k1, k2) of
    sub block (j1, j2) at the positions x n2 + y, for rows a <= x < a + m1 and
    columns b <= y < b + m2; the pairs are met in lexicographic order, as the
    tensor spec numbers its copies.  ``_to_layout`` moves them into that
    spec's own ``copies`` layout, so the result verifies against its Markov
    expectation.
    """
    s1, s2 = b1.spec, b2.spec
    if s1 is None or s2 is None:
        raise ShapeMismatch("tensor factors must carry inclusion specs")
    prod = tensor_spec(s1, s2)

    def placed():
        for i1, j1, _, a in s1.copies:
            for i2, j2, _, b in s2.copies:
                rows, cols = range(a, a + s1.sub_dims[j1]), range(b, b + s2.sub_dims[j2])
                yield i1 * s2.s + i2, j1 * s2.r + j2, [x * s2.super_dims[i2] + y for x in rows for y in cols]

    # element (j, k) of the pair is W_j(1) (x) W_k(2): np.kron, stacked
    kron = (
        np.einsum("jac,kbe->jkabce", A, B).reshape(b1.d * b2.d, A.shape[1] * B.shape[1], -1)
        for A in b1.stacks
        for B in b2.stacks
    )
    return UnitaryBasis(prod, _to_layout(prod, kron, placed()), "tensor")


def direct_sum_basis(b1: UnitaryBasis, b2: UnitaryBasis) -> UnitaryBasis:
    """Elementwise direct sums {W_j(1) (+) W_j(2)}; requires d1 == d2."""
    if b1.d != b2.d:
        raise CardinalityMismatch(f"d1 = {b1.d} != d2 = {b2.d}")
    s1, s2 = b1.spec, b2.spec
    if s1 is None or s2 is None:
        raise ShapeMismatch("direct-sum factors must carry inclusion specs")
    mat = [
        list(row) + [0] * s2.r for row in s1.inclusion_matrix
    ] + [
        [0] * s1.r + list(row) for row in s2.inclusion_matrix
    ]
    spec = InclusionSpec(mat, s1.sub_dims + s2.sub_dims)
    return UnitaryBasis(spec, b1.stacks + b2.stacks, "direct_sum")


def full_matrix_sub_basis(spec: InclusionSpec) -> UnitaryBasis:
    """Basis for B = M_m inside a multi-matrix algebra with n_i = m k_i.

    Realized as the tensor of the trivial basis on (M_m in M_m) with the
    abelian basis for (C in (+)_i M_{k_i}), k_i = n_i / m.
    """
    if spec.r != 1:
        raise ShapeMismatch("sub-algebra must be a single full matrix block")
    # a_i m = n_i, so m divides every super block size
    return _split_full_matrix(spec, spec.sub_dims[0], "full_matrix_sub")


def twisted_stack(spec: InclusionSpec, b: UnitaryBasis) -> np.ndarray:
    """W_j = sum_k epsilon(jk/d) U_k e_1 U_k* for a basis {U_k} of ``spec``: one
    (d, D, D) stack on the GNS space of A, D = sum n_i^2, in closed form.

    e_1 projects onto the orthogonal GNS vectors xi(u) of B's embedded units
    (xi as in ``uob.tower.BasicConstruction.coeff``), |xi(u)|^2 = (A^t n)_j / D
    = d m_j / D in sub block j.  So U_k e_1 U_k* = sum_u v v*, v = xi(U_k u) /
    |xi(u)|: column s + c of U_k u is column s + a of U_k for unit (a, c) of sub
    block j at each copy start s.  The v are the D columns of one V, W_j =
    V diag(epsilon(jk/d)) V*, and a W_0 farther than ``PARTITION_TOL`` from the
    identity, or not finite, raises ``PartitionOfUnityFailed``.
    """
    n, m, d, D = spec.super_dims, spec.sub_dims, b.d, spec.super_algebra.vector_dim
    if [U.shape[2] for U in b.stacks] != [*n]:
        raise AlgebraMismatch("basis does not belong to the spec's super-algebra")
    first = [sum(x * x for x in m[:j]) for j in range(len(m) + 1)]  # unit (j, a, c) is first[j] + a m_j + c
    Y = [np.zeros((d, first[-1], x, x), dtype=complex) for x in n]  # block i of v by k, unit, column, row
    for i, j, t, s in spec.copies:
        if t == 0:  # copy t of sub block j in block i starts at s + t m_j
            mj, end, f = m[j], s + spec.a(i, j) * m[j], math.sqrt(n[i] / (d * m[j]))
            X = (f * b.stacks[i][:, :, s:end]).reshape(d, n[i], -1, mj).transpose(0, 3, 2, 1)
            for c in range(mj):  # X by k, a, t, row: f times column s + t m_j + a of U_k
                Y[i][:, first[j] + c : first[j + 1] : mj, s + c : end : mj] = X
    V = np.concatenate([y.reshape(d * first[-1], -1) for y in Y], axis=1).T  # column (k, unit) is v
    W = (V * roots(d)[np.arange(d)[:, None] * np.arange(d).repeat(first[-1]) % d][:, None, :]) @ V.conj().T
    if not (d and np.abs(W[0] - np.eye(D)).max() <= PARTITION_TOL):
        raise PartitionOfUnityFailed("sum of U e1 U* deviates from the identity")
    return W


def basic_model_basis(sub_dims) -> UnitaryBasis:
    """Basis for ((+)_j M_{m_j} in M_D), D = sum_j m_j^2: the basic construction of C in B.

    ``twisted_stack`` of the abelian basis of C in B, d = D: with sub-algebra C,
    U_k e_1 U_k* = v_k v_k* for v_k the GNS vector of U_k.  No GNS model is
    formed; ``uob.tower``'s per-element product is its test reference."""
    spec0 = InclusionSpec([[m] for m in sub_dims], [1])
    refuse_over_budget(spec0.super_algebra.vector_dim**3, "a basis")
    W = twisted_stack(spec0, abelian_basis(spec0))
    return UnitaryBasis(spec0.transpose(), (W,), "basic_construction")


def full_matrix_super_basis(spec: InclusionSpec) -> UnitaryBasis:
    """Basis for B inside a single full matrix algebra M_n.

    Follows the three-factor decomposition: (M_k in M_k, id) tensor
    (C in M_l, trace) tensor the basic-construction model of
    ((+)_j M_{m_j/k} in M_{sum (m_j/k)^2}), where l/k = d/n in lowest terms.
    """
    if spec.s != 1:
        raise ShapeMismatch("super-algebra must be a single full matrix block")
    d = spectral_d(spec)
    if d is None:
        raise SpectralConditionFailed("A^t n is not an integer multiple of m")
    n = spec.super_dims[0]
    l, k = d // math.gcd(d, n), n // math.gcd(d, n)
    # a_j n = d m_j gives a_j k = l m_j with l, k coprime, so k divides every m_j
    m_red = tuple(m // k for m in spec.sub_dims)

    b_trace = weyl_basis(InclusionSpec([[l]], [1]))
    b_model = basic_model_basis(m_red)
    b = tensor_basis(identity_basis(k), tensor_basis(b_trace, b_model))
    return _relabel(b, spec, "full_matrix_super")


def adjoint_basis(b: UnitaryBasis) -> UnitaryBasis:
    """Elementwise adjoints; may turn a right basis into a left basis."""
    return UnitaryBasis(b.spec, tuple(s.conj().swapaxes(1, 2) for s in b.stacks), b.provenance)


def _relabel(b: UnitaryBasis, spec: InclusionSpec, provenance: str) -> UnitaryBasis:
    """``b`` under the name ``provenance``; a combinator must have built ``spec`` itself."""
    if b.spec != spec:
        raise InvariantViolated(f"construction built {b.spec}, expected {spec}")
    return UnitaryBasis(spec, b.stacks, provenance)


def _split_full_matrix(spec: InclusionSpec, g: int, provenance: str) -> UnitaryBasis:
    """(M_g in M_g, id) tensor the ``auto`` basis of the spec with all dimensions over g."""
    inner = InclusionSpec(spec.inclusion_matrix, [m // g for m in spec.sub_dims])
    return _relabel(tensor_basis(identity_basis(g), construct(inner)), spec, provenance)


def construct(spec: InclusionSpec, method: str = "auto") -> UnitaryBasis:
    """A basis for ``spec`` from the named construction in ``METHODS``.

    ``auto`` tries abelian, full_matrix_sub and full_matrix_super in that order
    (weyl applies only where abelian does) and raises ``NoKnownConstruction``
    when none applies.  ``tensor`` splits off the largest common full-matrix
    factor M_g and runs ``auto`` on the rest; ``basic`` is
    ``basic_model_basis``, for M_n containing B with a_j = m_j.  A forced
    construction that does not apply raises its own ``UobError``.  A spec
    whose basis, d stacks of sum n_i^2 entries, is over the memory budget is
    refused with ``TooLarge`` before any builder runs.  The table is built per
    call, so rebound module names are used.
    """
    # d = 0 where the condition fails: no basis is built, so each builder gives its own error
    refuse_over_budget((spectral_d(spec) or 0) * spec.super_algebra.vector_dim, "a basis")
    builders = {
        "abelian": abelian_basis,
        "weyl": weyl_basis,
        "full_matrix_sub": full_matrix_sub_basis,
        "full_matrix_super": full_matrix_super_basis,
    }
    if method in builders:
        return builders[method](spec)
    if method == "auto":
        last = None
        for name in ("abelian", "full_matrix_sub", "full_matrix_super"):
            try:
                return builders[name](spec)
            except TooLarge:
                raise
            except UobError as exc:
                last = exc
        raise NoKnownConstruction(f"no known construction applies: {last}")
    if method == "tensor":
        g = math.gcd(*spec.sub_dims, *spec.super_dims)
        if g == 1:
            raise ShapeMismatch("no common full-matrix tensor factor to split off")
        return _split_full_matrix(spec, g, "tensor")
    if method == "basic":
        if spec.s != 1 or spec.inclusion_matrix[0] != spec.sub_dims:
            raise ShapeMismatch("basic method needs a single super block with a_j = m_j")
        return basic_model_basis(spec.sub_dims)
    raise ValueError(f"unknown construction method {method!r}; choose from {METHODS}")
