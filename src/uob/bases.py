"""Constructions of unitary orthonormal bases and the combinators over them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algebra import BlockOperator, MultiMatrixAlgebra, circulant, epsilon
from .errors import (
    CardinalityMismatch,
    DivisibilityError,
    InvariantViolated,
    MiddleAlgebraMismatch,
    NoKnownConstruction,
    NotAbelian,
    NotMultiple,
    ShapeMismatch,
    SpectralConditionFailed,
    UobError,
)
from .expectation import markov_expectation
from .inclusion import InclusionSpec, embed, spectral_d, unembed

METHODS = ("auto", "abelian", "weyl", "tensor", "full_matrix_sub", "full_matrix_super", "basic")


@dataclass(frozen=True)
class UnitaryBasis:
    """An ordered family {W_0, ..., W_{d-1}} of unitaries with E(W_j* W_k) = delta_jk.

    The first element is always the identity.  ``spec`` is None for bases that
    live in a concrete basic-construction model without a canonical
    multi-matrix identification.
    """

    spec: InclusionSpec | None
    elements: tuple[BlockOperator, ...]
    provenance: str

    @property
    def d(self) -> int:
        return len(self.elements)

    @cached_property
    def stacks(self) -> tuple[np.ndarray, ...]:
        """One (d, n_i, n_i) array per block: stacks[i][j] is block i of W_j.

        Built once, on first use; needs at least one element.
        """
        if not self.elements:
            raise ValueError("an empty basis has no block stacks")
        return tuple(np.stack(blocks) for blocks in zip(*(W.data for W in self.elements)))


def identity_basis(m: int) -> UnitaryBasis:
    """The trivial basis {I} for (M_m inside M_m, identity map)."""
    spec = InclusionSpec(((1,),), (m,), (m,))
    return UnitaryBasis(spec, (spec.super_algebra.identity(),), "identity")


def _abelian_d(spec: InclusionSpec) -> int:
    """The d of a valid abelian spec that meets the spectral condition."""
    spec.validate()
    if any(m != 1 for m in spec.sub_dims):
        raise NotAbelian("construction requires all sub blocks of size 1")
    d = spectral_d(spec)
    if d is None:
        raise SpectralConditionFailed("A^t n is not an integer multiple of m")
    return d


def _column_offsets(spec: InclusionSpec):
    """offsets[i][j] = sum_{x<i} n_x a_{xj}, the phase offsets of the diagonal unitary."""
    n, a = spec.super_dims, spec.a
    return [[sum(n[x] * a(x, j) for x in range(i)) for j in range(spec.r)] for i in range(spec.s)]


def abelian_basis(spec: InclusionSpec) -> UnitaryBasis:
    """The quasi-circulant basis {V^t U^t : 0 <= t < d} for abelian sub-algebras.

    V is blockwise circulant with d-th roots of unity as eigenvalues; U is
    diagonal with entry epsilon((sum_{x<i} n_x a_xj + k n_i) / d) at position
    (i, j, k).
    """
    d = _abelian_d(spec)
    offs = _column_offsets(spec)
    emb = spec.embedding

    elements = []
    for t in range(d):
        data = []
        for i, n in enumerate(spec.super_dims):
            Vt = circulant([epsilon(Fraction(y * t, d)) for y in range(n)])
            u = np.zeros(n, dtype=complex)
            for j in range(spec.r):
                for k in range(spec.a(i, j)):
                    u[emb.position(i, j, k)] = epsilon(Fraction(t * (offs[i][j] + k * n), d))
            data.append(Vt * u[None, :])
        elements.append(spec.super_algebra.operator(data))
    return UnitaryBasis(spec, tuple(elements), "abelian")


def abelian_basis_entrywise(spec: InclusionSpec) -> UnitaryBasis:
    """Independent entrywise construction of the abelian basis.

    Computes each entry of W(t) directly as a single phase sum with exact
    rational phases; used to cross-check the operator-product path.
    """
    d = _abelian_d(spec)
    offs = _column_offsets(spec)
    emb = spec.embedding

    elements = []
    for t in range(d):
        data = []
        for i, n in enumerate(spec.super_dims):
            labels = emb.labels(i)
            W = np.empty((n, n), dtype=complex)
            for (j, k, _) in labels:
                row = emb.position(i, j, k)
                for (j2, k2, _) in labels:
                    col = emb.position(i, j2, k2)
                    acc = 0j
                    for y in range(n):
                        phase = (
                            Fraction(y * t, d)
                            + Fraction(y * (col - row), n)
                            + Fraction(t * (k2 * n + offs[i][j2]), d)
                        )
                        acc += epsilon(phase)
                    W[row, col] = acc / n
            data.append(W)
        elements.append(spec.super_algebra.operator(data))
    return UnitaryBasis(spec, tuple(elements), "abelian")


def weyl_basis(spec: InclusionSpec) -> UnitaryBasis:
    """Generalized Weyl basis {V^v U^t} for C^r inside s copies of M_n.

    V is the blockwise cyclic shift; U has diagonal entry
    epsilon(t (sum_{x<i} a_xj + k) / q) where q is the common column sum.
    """
    spec.validate()
    if any(m != 1 for m in spec.sub_dims):
        raise ShapeMismatch("sub-algebra must be abelian for the Weyl construction")
    n = spec.super_dims[0]
    if any(ni != n for ni in spec.super_dims):
        raise ShapeMismatch("all super blocks must have equal size")
    colsums = [sum(spec.a(i, j) for i in range(spec.s)) for j in range(spec.r)]
    q = colsums[0]
    if any(c != q for c in colsums):
        raise ShapeMismatch("column sums of the inclusion matrix must be constant")

    emb = spec.embedding
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    elements = []
    for v in range(n):
        Vv = np.linalg.matrix_power(shift, v)
        for t in range(q):
            data = []
            for i in range(spec.s):
                u = np.zeros(n, dtype=complex)
                for j in range(spec.r):
                    off = sum(spec.a(x, j) for x in range(i))
                    for k in range(spec.a(i, j)):
                        u[emb.position(i, j, k)] = epsilon(Fraction(t * (off + k), q))
                data.append(Vv * u[None, :])
            elements.append(spec.super_algebra.operator(data))
    return UnitaryBasis(spec, tuple(elements), "weyl")


def concat_basis(inner: UnitaryBasis, outer: UnitaryBasis) -> UnitaryBasis:
    """Products {V_j embed(W_k)} for the composed inclusion A2 in A0.

    ``inner`` is a basis for (A1 in A0, E0), ``outer`` for (A2 in A1, E1); the
    result is orthonormal for the composed expectation E1 o E0.
    """
    s0, s1 = inner.spec, outer.spec
    if s0 is None or s1 is None or s0.sub_dims != s1.super_dims:
        raise MiddleAlgebraMismatch("inner sub-algebra must equal outer super-algebra")
    mat0 = np.array(s0.inclusion_matrix, dtype=int)
    mat1 = np.array(s1.inclusion_matrix, dtype=int)
    spec = InclusionSpec.from_matrix((mat0 @ mat1).tolist(), s1.sub_dims)
    elements = []
    for V in inner.elements:
        for W in outer.elements:
            elements.append(V @ embed(s0, W))
    return UnitaryBasis(spec, tuple(elements), "concat")


def composed_expectation(inner_spec: InclusionSpec, outer_spec: InclusionSpec):
    """E1 o E0 for a two-step inclusion, as an embedded-form callable on A0."""
    E0 = markov_expectation(inner_spec)
    E1 = markov_expectation(outer_spec)

    def E(X: BlockOperator) -> BlockOperator:
        return embed(inner_spec, E1(unembed(inner_spec, E0(X))))

    return E


def tensor_spec(s1: InclusionSpec, s2: InclusionSpec) -> InclusionSpec:
    """Tensor-product inclusion: Kronecker matrices and dimension vectors."""
    mat = np.kron(np.array(s1.inclusion_matrix, int), np.array(s2.inclusion_matrix, int))
    sub = np.kron(np.array(s1.sub_dims, int), np.array(s2.sub_dims, int))
    return InclusionSpec.from_matrix(mat.tolist(), sub.tolist())


def _tensor_block_perm(s1, s2, prod, i1, i2):
    """Map the Kronecker basis order of block (i1, i2) to the canonical layout."""
    e1, e2, ep = s1.embedding, s2.embedding, prod.embedding
    n2 = s2.super_dims[i2]
    I = i1 * s2.s + i2
    perm = np.empty(s1.super_dims[i1] * n2, dtype=int)
    for (j1, k1, l1) in e1.labels(i1):
        p1 = e1.position(i1, j1, k1, l1)
        for (j2, k2, l2) in e2.labels(i2):
            p2 = e2.position(i2, j2, k2, l2)
            J = j1 * s2.r + j2
            K = k1 * s2.a(i2, j2) + k2
            L = l1 * s2.sub_dims[j2] + l2
            perm[p1 * n2 + p2] = ep.position(I, J, K, L)
    return perm


def tensor_basis(b1: UnitaryBasis, b2: UnitaryBasis) -> UnitaryBasis:
    """Basis {W_j(1) (x) W_k(2)} for the tensor-product inclusion.

    Each Kronecker block is conjugated by the permutation that rearranges the
    product basis into the canonical embedding layout of the tensor spec, so
    the result verifies against the tensor spec's own Markov expectation.
    """
    s1, s2 = b1.spec, b2.spec
    if s1 is None or s2 is None:
        raise ShapeMismatch("tensor factors must carry inclusion specs")
    prod = tensor_spec(s1, s2)
    perms = {
        (i1, i2): _tensor_block_perm(s1, s2, prod, i1, i2)
        for i1 in range(s1.s)
        for i2 in range(s2.s)
    }
    elements = []
    for W1 in b1.elements:
        for W2 in b2.elements:
            data = []
            for i1 in range(s1.s):
                for i2 in range(s2.s):
                    Kr = np.kron(W1.data[i1], W2.data[i2])
                    perm = perms[(i1, i2)]
                    B = np.empty_like(Kr)
                    B[np.ix_(perm, perm)] = Kr
                    data.append(B)
            elements.append(prod.super_algebra.operator(data))
    return UnitaryBasis(prod, tuple(elements), "tensor")


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
    spec = InclusionSpec.from_matrix(mat, s1.sub_dims + s2.sub_dims)
    elements = tuple(
        spec.super_algebra.operator(list(W1.data) + list(W2.data))
        for W1, W2 in zip(b1.elements, b2.elements)
    )
    return UnitaryBasis(spec, elements, "direct_sum")


def full_matrix_sub_basis(spec: InclusionSpec) -> UnitaryBasis:
    """Basis for B = M_m inside a multi-matrix algebra with n_i = m k_i.

    Realized as the tensor of the trivial basis on (M_m in M_m) with the
    abelian basis for (C in (+)_i M_{k_i}), k_i = n_i / m.
    """
    spec.validate()
    if spec.r != 1:
        raise ShapeMismatch("sub-algebra must be a single full matrix block")
    m = spec.sub_dims[0]
    if any(n % m != 0 for n in spec.super_dims):
        raise NotMultiple("every super block size must be a multiple of m")
    return _split_full_matrix(spec, m, "full_matrix_sub")


def full_matrix_super_basis(spec: InclusionSpec) -> UnitaryBasis:
    """Basis for B inside a single full matrix algebra M_n.

    Follows the three-factor decomposition: (M_k in M_k, id) tensor
    (C in M_l, trace) tensor the basic-construction model of
    ((+)_j M_{m_j/k} in M_{sum (m_j/k)^2}), where l/k = d/n in lowest terms.
    """
    from .tower import basic_model_basis

    spec.validate()
    if spec.s != 1:
        raise ShapeMismatch("super-algebra must be a single full matrix block")
    d = spectral_d(spec)
    if d is None:
        raise SpectralConditionFailed("A^t n is not an integer multiple of m")
    n = spec.super_dims[0]
    frac = Fraction(d, n)
    l, k = frac.numerator, frac.denominator
    if any(m % k != 0 for m in spec.sub_dims):
        raise DivisibilityError("k does not divide every sub block size")
    m_red = tuple(m // k for m in spec.sub_dims)

    b_trace = weyl_basis(InclusionSpec.from_matrix([[l]], [1]))
    b_model = basic_model_basis(m_red)
    b = tensor_basis(identity_basis(k), tensor_basis(b_trace, b_model))
    return _relabel(b, spec, "full_matrix_super")


def adjoint_basis(b: UnitaryBasis) -> UnitaryBasis:
    """Elementwise adjoints; may turn a right basis into a left basis."""
    return UnitaryBasis(b.spec, tuple(W.adjoint() for W in b.elements), b.provenance)


def _relabel(b: UnitaryBasis, spec: InclusionSpec, provenance: str) -> UnitaryBasis:
    """``b`` under the name ``provenance``; a combinator must have built ``spec`` itself."""
    if b.spec != spec:
        raise InvariantViolated(f"construction built {b.spec}, expected {spec}")
    return UnitaryBasis(spec, b.elements, provenance)


def _split_full_matrix(spec: InclusionSpec, g: int, provenance: str) -> UnitaryBasis:
    """(M_g in M_g, id) tensor the ``auto`` basis of the spec with all dimensions over g."""
    inner = InclusionSpec.from_matrix(spec.inclusion_matrix, [m // g for m in spec.sub_dims])
    return _relabel(tensor_basis(identity_basis(g), construct(inner)), spec, provenance)


def construct(spec: InclusionSpec, method: str = "auto") -> UnitaryBasis:
    """A basis for ``spec`` from the named construction in ``METHODS``.

    ``auto`` tries abelian, weyl, full_matrix_sub and full_matrix_super in that
    order and raises ``NoKnownConstruction`` when none applies.  ``tensor``
    splits off the largest common full-matrix factor M_g and runs ``auto`` on
    the rest; ``basic`` is the basic-construction model, for M_n containing B
    with a_j = m_j.  A forced construction that does not apply raises its own
    ``UobError``.  The table is built per call, so rebound module names are used.
    """
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
        for builder in builders.values():
            try:
                return builder(spec)
            except UobError as exc:
                last = exc
        raise NoKnownConstruction(f"no known construction applies: {last}")
    if method == "tensor":
        g = math.gcd(*spec.sub_dims, *spec.super_dims)
        if g == 1:
            raise ShapeMismatch("no common full-matrix tensor factor to split off")
        return _split_full_matrix(spec, g, "tensor")
    if method == "basic":
        from .tower import basic_model_basis

        if spec.s != 1 or spec.inclusion_matrix[0] != spec.sub_dims:
            raise ShapeMismatch("basic method needs a single super block with a_j = m_j")
        return basic_model_basis(spec.sub_dims)
    raise ValueError(f"unknown construction method {method!r}; choose from {METHODS}")
