"""Concrete Jones basic construction on L^2(A, tau) and its twisted bases.

A_1 = <A, e_1> is represented by operators on the GNS space of the Markov
trace: left multiplication becomes a unital *-homomorphism into M_D with
D = sum n_i^2, and e_1 is the orthogonal projection onto the copy of the
sub-algebra.  The GNS basis is ordered per super block by (column, row), so
left multiplication restricted to block i is I_{n_i} (x) X_i: the embedding
``gns_spec`` of A in M_D, the row (n_0 ... n_{s-1}) with sub dims n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import BlockOperator, MultiMatrixAlgebra, TracialState, roots
from .bases import PARTITION_TOL, UnitaryBasis
from .errors import (
    AlgebraMismatch,
    InvariantViolated,
    PartitionOfUnityFailed,
    SpectralConditionFailed,
    TooLarge,
)
from .expectation import _GramProjector, markov_expectation
from .inclusion import InclusionSpec, embed, embed_batch, spectral_d

JONES_TOL = 1e-9
# largest GNS dimension D = sum n_i^2 that build_basic_construction accepts
MAX_GNS_DIM = 256


@dataclass(frozen=True)
class BasicConstruction:
    """A_1 = <A, e_1> acting on L^2(A, tau) for the Markov trace tau.

    Everything is a function of ``spec``; ``build_basic_construction`` is the
    way in, as it checks the spectral condition and the Jones relation.
    """

    spec: InclusionSpec

    @cached_property
    def tau(self) -> TracialState:
        return TracialState(self.spec.super_algebra, self.spec.super_dims)

    @cached_property
    def gns_dim(self) -> int:
        return self.spec.super_algebra.vector_dim

    @cached_property
    def gns_algebra(self) -> MultiMatrixAlgebra:
        return MultiMatrixAlgebra((self.gns_dim,))

    @cached_property
    def gns_spec(self) -> InclusionSpec:
        """A in M_D by left multiplication: the row n with sub dims n."""
        n = self.spec.super_dims
        return InclusionSpec([list(n)], n)

    @cached_property
    def e1(self) -> np.ndarray:
        """Projection onto the copy of B: the GNS vectors of B's embedded matrix
        units have disjoint supports, so normalizing them makes them orthonormal."""
        spec = self.spec
        cols = np.array([self.coeff(embed(spec, u)) for _, u in spec.sub_algebra.matrix_units()]).T
        Q = cols / np.linalg.norm(cols, axis=0)
        e1 = Q @ Q.conj().T
        e1.flags.writeable = False  # cached and shared: no caller may change it
        return e1

    @cached_property
    def _proj(self) -> _GramProjector:
        """The Gram projector onto left_rep(A), compiled at the first dual_expectation."""
        return _GramProjector(self.tr1_state, (self.gns_algebra.operator([L]) for L in self.unit_reps()))

    def unit_reps(self):
        """``left_rep`` of every matrix unit of A in ``matrix_units`` order, as
        (D, D) arrays formed in batches of ``gns_algebra.batch_size``."""
        for X in self.spec.super_algebra.unit_batches(self.gns_algebra.batch_size):
            yield from self.left_reps(X)

    def left_rep(self, x: BlockOperator) -> BlockOperator:
        """Left multiplication by x in the orthonormal GNS basis."""
        return self.gns_algebra.operator([self.left_reps(x.data)])

    def left_reps(self, blocks) -> np.ndarray:
        """``left_rep`` of every operand of a batch: ``blocks[i]`` is a
        (..., n_i, n_i) stack of block i, the result a (..., D, D) stack."""
        return embed_batch(self.gns_spec, blocks)[0]

    def coeff(self, x: BlockOperator) -> np.ndarray:
        """GNS coordinate vector of x in the orthonormal basis: block i is
        sqrt(n_i / D) x_i read column by column."""
        if x.algebra != self.spec.super_algebra:
            raise AlgebraMismatch("operand does not belong to the super-algebra")
        D = self.gns_dim
        return np.concatenate(
            [np.sqrt(n / D) * X.T.ravel() for n, X in zip(self.spec.super_dims, x.data)]
        )

    def e1_operator(self) -> BlockOperator:
        return self.gns_algebra.operator([self.e1])

    @property
    def tr1_state(self) -> TracialState:
        """The normalized ambient matrix trace on the GNS space."""
        return TracialState(self.gns_algebra, (1,))


def build_basic_construction(spec: InclusionSpec) -> BasicConstruction:
    """Build <A, e_1> on L^2(A, tau); requires the spectral condition.

    Under it the normalized ambient trace on the GNS space restricts to the
    Markov trace on left-multiplication operators, which is validated here
    together with the Jones relation e1 x e1 = embed(E(x)) e1.
    """
    if spectral_d(spec) is None:
        raise SpectralConditionFailed("basic construction requires the spectral condition")
    D = spec.super_algebra.vector_dim
    if D > MAX_GNS_DIM:
        raise TooLarge(f"gns_dim {TooLarge.count(D)} exceeds cap {MAX_GNS_DIM}")
    bc = BasicConstruction(spec)
    # np.max keeps a NaN that Python's max drops, and a NaN fails the test
    worst_jones, worst_trace = (float(np.max(r)) for r in _validation_residuals(bc))
    if not worst_jones <= JONES_TOL:
        raise InvariantViolated(f"Jones relation residual {worst_jones}")
    if not worst_trace <= 1e-10:
        raise InvariantViolated(f"Markov compatibility residual {worst_trace}")
    return bc


def _validation_residuals(bc: BasicConstruction) -> tuple[np.ndarray, np.ndarray]:
    """max |e1 L(u) e1 - L(E(u)) e1| and |tr(L(u)) / D - tau(u)| for every
    matrix unit u of A, in matrix_units() order.

    A batch of ``gns_algebra.batch_size`` units goes through each product, and
    through E as one ``apply`` of the compiled Markov E's slot table.
    """
    alg = bc.spec.super_algebra
    apply = markov_expectation(bc.spec).slots.apply
    e1 = bc.e1
    jones, trace = [], []
    for X in alg.unit_batches(bc.gns_algebra.batch_size):
        L = bc.left_reps(X)
        rhs = bc.left_reps(apply(X)) @ e1
        jones.append(np.abs(e1 @ L @ e1 - rhs).max(axis=(-2, -1)))
        trace.append(np.abs(np.trace(L, axis1=-2, axis2=-1) / bc.gns_dim - bc.tau.batch(X)))
    return np.concatenate(jones), np.concatenate(trace)


def dual_expectation(bc: BasicConstruction, X: BlockOperator) -> BlockOperator:
    """tr1-preserving projection of a GNS-space operator onto left_rep(A)."""
    if isinstance(X, np.ndarray):
        X = bc.gns_algebra.operator([X])
    return bc._proj(X)


def generated_algebra_sampler(bc: BasicConstruction, count: int = 10):
    """Sampler of elements of <A, e1> for reconstruction checks.

    The generated algebra is spanned by L(x) together with L(x) e1 L(y); it is
    a proper subalgebra of the full GNS matrix algebra unless B = C.  The
    family is L(u) for every matrix unit u of A, labelled as ``matrix_units``
    labels it, then ``count`` operators L(a) + L(b) e1 L(c).  The 3 count
    operands come from one ``random_batches`` call, in the order a, b, c of
    each operator, so they are the draws of 3 count ``random`` calls; both
    halves are formed as stacks of at most ``gns_algebra.batch_size`` operators,
    and every operator is bit for bit what one operand at a time gives.
    """
    A, gns, e1 = bc.spec.super_algebra, bc.gns_algebra, bc.e1

    def sampler(rng):
        out = [(f"left unit {A.unit_index(k)}", gns.operator([L])) for k, L in enumerate(bc.unit_reps())]
        randoms = []
        for X in A.random_batches(rng, 3 * count, 3 * gns.batch_size):
            La, Lb, Lc = (bc.left_reps([x[t::3] for x in X]) for t in range(3))
            randoms.extend(La + Lb @ e1 @ Lc)
        return out + [(f"random {t}", gns.operator([X])) for t, X in enumerate(randoms)]

    return sampler


def basic_construction_basis(bc: BasicConstruction, b: UnitaryBasis) -> UnitaryBasis:
    """Fourier-twisted basis W_j = sum_k epsilon(jk/d) U_k e1 U_k* for (A in A_1, E_1)."""
    e1, size = bc.e1, bc.gns_algebra.batch_size
    terms = np.empty((b.d, bc.gns_dim, bc.gns_dim), dtype=complex)
    for lo in range(0, b.d, size):
        L = bc.left_reps([Ws[lo : lo + size] for Ws in b.stacks])
        terms[lo : lo + size] = L @ e1 @ L.conj().swapaxes(-1, -2)
    if np.abs(terms.sum(axis=0) - np.eye(bc.gns_dim)).max() > PARTITION_TOL:
        raise PartitionOfUnityFailed("sum of U e1 U* deviates from the identity")
    j = np.arange(b.d)
    twisted = np.tensordot(roots(b.d)[np.outer(j, j) % b.d], terms, axes=1)

    # When B = C the model A_1 = M_D carries the canonical transpose spec; its
    # one super block is sum_i a_i n_i = sum_i n_i^2 = gns_dim, as n_i = a_i.
    out_spec = None
    if bc.spec.r == 1 and bc.spec.sub_dims == (1,):
        out_spec = bc.spec.transpose()
    return UnitaryBasis(out_spec, (twisted,), "basic_construction")

