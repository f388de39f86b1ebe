"""Trace-preserving conditional expectations: compiled, as a channel, as a projection.

For a faithful trace phi on A with trace vector p, the phi-preserving
expectation onto the embedded sub-algebra B averages, for each sub block j,
its diagonal copies with weights q_ij = p_i / sum_x p_x a_xj and writes the
average back into every copy.  ``conditional_expectation(spec, phi)`` compiles
that map once into a ``SlotTable`` (per sub block j, every copy (super block
i, start, q_ij), read off ``spec.copies``) and returns it as a callable;
``markov_expectation(spec)`` is the one for the Markov trace.  ``batched``
runs any E over (K, n_i, n_i) block stacks.

Two other forms of the same map stay as independent references: the
phi-orthogonal projection onto the span of a family such as the embedded
matrix units of B (``_GramProjector(phi, family)``, compiled once and then
called on each operand; the tower's dual expectation is one), and, when the
preserved trace is the standard one, a mixed unitary channel built from one
diagonal unitary (a phase per copy) and one cyclic permutation of the copies
per sub column, refused over MAX_CHANNEL_ENTRIES before it is built.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import BlockOperator, MultiMatrixAlgebra, TracialState, roots
from .errors import AlgebraMismatch, NonStandardTrace, SingularGram, TooLarge
from .inclusion import InclusionSpec, markov_trace, spectral_d

GRAM_COND_LIMIT = 1e12
# Largest mixed-unitary channel built, in complex entries (see
# ``mixed_unitary_channel``): 2^24, the budget of MAX_BASIS_ENTRIES.
MAX_CHANNEL_ENTRIES = 1 << 24


@dataclass(frozen=True)
class SlotTable:
    """E compiled once: ``slots[j]`` lists every copy (super block i, start, q_ij)
    of sub block j, in the order ``apply`` sums them.

    Works on blocks of any leading batch shape: ``blocks[i]`` has shape
    (..., n_i, n_i).
    """

    sub_dims: tuple[int, ...]
    super_dims: tuple[int, ...]
    slots: tuple[tuple[tuple[int, int, float], ...], ...]

    @classmethod
    def compile(cls, spec: InclusionSpec, trace_vector) -> "SlotTable":
        p = tuple(trace_vector)
        denoms = [sum(p[x] * spec.a(x, j) for x in range(spec.s)) for j in range(spec.r)]
        slots = [[] for _ in range(spec.r)]
        for i, j, _, start in spec.copies:
            slots[j].append((i, start, p[i] / denoms[j]))
        return cls(spec.sub_dims, spec.super_dims, tuple(map(tuple, slots)))

    def apply(self, blocks) -> list[np.ndarray]:
        """E in embedded form: Z_j = sum over copies S of q_ij X_i[S, S], written
        back into every copy of sub block j."""
        out = [np.zeros(blocks[0].shape[:-2] + (n, n), dtype=complex) for n in self.super_dims]
        for m, copies in zip(self.sub_dims, self.slots):
            Z = sum(q * blocks[i][..., s : s + m, s : s + m] for i, s, q in copies)
            for i, s, _ in copies:
                out[i][..., s : s + m, s : s + m] = Z
        return out


def conditional_expectation(spec: InclusionSpec, phi: TracialState):
    """Callable E for the phi-preserving expectation onto B, in embedded form.

    ``E.slots`` holds the compiled ``SlotTable``; the verify checks read it to
    work on whole basis stacks.  ``E.phi`` and ``E.spec`` are the arguments.
    """
    sup = spec.super_algebra
    if phi.algebra != sup:
        raise AlgebraMismatch("trace does not belong to the super-algebra")
    table = SlotTable.compile(spec, phi.trace_vector)

    def E(X: BlockOperator) -> BlockOperator:
        if X.algebra != sup:
            raise AlgebraMismatch("operand does not belong to the super-algebra")
        return sup.operator(table.apply(X.data))

    E.phi = phi
    E.spec = spec
    E.slots = table
    return E


def slot_table(E, alg: MultiMatrixAlgebra) -> SlotTable | None:
    """The compiled table that ``conditional_expectation`` attaches to E, or
    None; read from E's attributes, so it survives wrappers that copy them."""
    table = getattr(E, "slots", None)
    if table is not None and table.super_dims != alg.blocks:
        raise AlgebraMismatch("expectation and basis live on different algebras")
    return table


def apply_each(E, alg: MultiMatrixAlgebra, operands) -> list[np.ndarray]:
    """E on (K, n_i, n_i) block stacks, one call per operand: out[i][c] is block
    i of E(operand c).  An output that is not an operator of ``alg`` is
    refused, so a block of the wrong size never lands (or broadcasts) in a stack.
    """
    out = [np.empty_like(p) for p in operands]
    for c in range(len(operands[0])):
        Y = E(BlockOperator(alg, tuple(p[c] for p in operands)))
        if getattr(Y, "algebra", None) != alg:
            raise AlgebraMismatch("expectation output does not belong to the basis's algebra")
        for o, blk in zip(out, Y.data):
            o[c] = blk
    return out


def batched(E, alg: MultiMatrixAlgebra):
    """E over lists of (K, n_i, n_i) block stacks of ``alg``: the slot table's
    ``apply`` when E carries one, otherwise ``apply_each``, one call per operand."""
    table = slot_table(E, alg)
    return table.apply if table is not None else functools.partial(apply_each, E, alg)


def markov_expectation(spec: InclusionSpec):
    """``conditional_expectation`` for the Markov trace.

    Uses the exact dimension-vector trace when the spectral condition holds
    (works on disconnected direct sums too); otherwise falls back to the
    numerically computed Markov trace.
    """
    if spectral_d(spec) is not None:
        phi = TracialState(spec.super_algebra, spec.super_dims)
    else:
        phi = markov_trace(spec)
    return conditional_expectation(spec, phi)


@dataclass(frozen=True)
class MixedUnitaryDecomposition:
    """E as a uniform average over L^x K^y conjugations on the ambient space.

    K is diagonal with T-th roots of unity; L_j cyclically permutes the T_j
    copies of sub block j.  The unitaries live in the ambient matrix algebra,
    not necessarily in the super-algebra itself.
    """

    spec: InclusionSpec
    K: np.ndarray
    L: tuple[np.ndarray, ...]
    column_counts: tuple[int, ...]
    # phase of K on sub-block (i, j, k) as an exact rational over T, and the
    # (i, k) cycle each L_j runs through
    k_phases: tuple = ()
    cycles: tuple = ()

    @property
    def total_count(self) -> int:
        return sum(self.column_counts)

    @property
    def unitary_count(self) -> int:
        """Number of conjugations in the average: prod_j T_j times T."""
        return math.prod(self.column_counts) * self.total_count

    @property
    def weight(self) -> Fraction:
        return Fraction(1, self.unitary_count)

    def unitaries(self):
        """All L_0^{x_0} ... L_{r-1}^{x_{r-1}} K^y in the average."""
        T = self.total_count
        Lpowers = []
        for Lj, Tj in zip(self.L, self.column_counts):
            powers = [np.eye(Lj.shape[0], dtype=complex)]
            for _ in range(Tj - 1):
                powers.append(Lj @ powers[-1])
            Lpowers.append(powers)
        Kpowers = [np.eye(self.K.shape[0], dtype=complex)]
        for _ in range(T - 1):
            Kpowers.append(self.K @ Kpowers[-1])
        for xs in itertools.product(*(range(Tj) for Tj in self.column_counts)):
            Lprod = Kpowers[0]
            for powers, x in zip(Lpowers, xs):
                Lprod = Lprod @ powers[x]
            for y in range(T):
                yield Lprod @ Kpowers[y]

    def apply(self, X) -> np.ndarray:
        """Average the unitary conjugations over a dense ambient matrix, or over
        a stack of them with any leading batch shape (..., N, N)."""
        if isinstance(X, BlockOperator):
            X = X.to_dense()
        X = np.asarray(X, dtype=complex)
        out = np.zeros_like(X)
        for U in self.unitaries():
            out += U @ X @ U.conj().T
        return out * float(self.weight)


def mixed_unitary_channel(spec: InclusionSpec) -> MixedUnitaryDecomposition:
    """Mixed-unitary form of E for the standard trace (all Markov weights equal)."""
    p = markov_trace(spec).trace_vector
    if any(abs(v - p[0]) > 1e-12 for v in p):
        raise NonStandardTrace("mixed-unitary form requires equal trace weights")

    # T, the number of copies, from the column sums: the copy table itself
    # holds T tuples, so it is built only under the cap
    column_counts = tuple(map(sum, zip(*spec.inclusion_matrix)))
    T, N = sum(column_counts), spec.super_algebra.ambient_dim
    # a conjugation per unitary, and every dense N x N array: K, the identity,
    # each L_j, the 2T powers ``unitaries`` keeps, and the twenty stacked
    # operands, results, E's results and sums of the ``uob channel`` check
    entries = (math.prod(column_counts) * T + 2 + spec.r + 2 * T + 20) * N * N
    if entries > MAX_CHANNEL_ENTRIES:
        raise TooLarge(
            f"the channel would take {entries} entries, over the cap of {MAX_CHANNEL_ENTRIES}"
        )

    # K: epsilon(t / T) on the t-th copy; L_j: cyclic permutation of the copies
    # of sub block j, fixing l
    copies = spec.copies
    offsets = spec.super_algebra.block_offsets()
    K = np.diag(np.repeat(roots(T), [spec.sub_dims[j] for _, j, _, _ in copies]))
    k_phases = tuple(((i, j, k), Fraction(t, T)) for t, (i, j, k, _) in enumerate(copies))
    eye = np.eye(N, dtype=complex)
    Ls, cycles = [], []
    for j, m in enumerate(spec.sub_dims):
        mine = [(i, k, offsets[i] + s) for i, jj, k, s in copies if jj == j]
        cycles.append(tuple((i, k) for i, k, _ in mine))
        at = np.array([s for _, _, s in mine])[:, None] + np.arange(m)
        perm = np.arange(N)
        perm[at] = np.roll(at, 1, axis=0)
        Ls.append(eye[perm])
    return MixedUnitaryDecomposition(
        spec, K, tuple(Ls), column_counts, k_phases, tuple(cycles)
    )


class _GramProjector:
    """Orthogonal projection onto the span of a fixed operator family.

    Compiled once: the family is flattened into the rows of one (k, N) array
    S, N = sum n_i^2, and phi's inner product becomes the per-entry weight w
    (p_i / weight on every entry of block i), so <X, Y> = sum conj(x) w y and
    the Gram matrix is G = conj(S) diag(w) S^T.  The projector keeps
    P = G^-1 conj(S) diag(w), a (k, N) array, so a call is two matrix-vector
    products: the coefficients c = P x, then c S.
    """

    def __init__(self, phi: TracialState, basis):
        self.algebra = phi.algebra
        self._S = np.stack([_flatten(X) for X in basis])
        sizes = [n * n for n in self.algebra.blocks]
        w = np.repeat([float(p / phi.weight) for p in phi.trace_vector], sizes)
        T = self._S * w
        G = np.conj(T, out=T) @ self._S.T
        if np.linalg.cond(G) > GRAM_COND_LIMIT:
            raise SingularGram("projection basis is numerically degenerate")
        self._P = np.linalg.inv(G) @ T
        ends = np.cumsum(sizes)
        self._cuts = [(e - n * n, e, n) for e, n in zip(ends, self.algebra.blocks)]

    def __call__(self, X: BlockOperator) -> BlockOperator:
        if X.algebra != self.algebra:
            raise AlgebraMismatch("operand does not belong to the projector's algebra")
        flat = (self._P @ _flatten(X)) @ self._S
        return self.algebra.operator([flat[lo:hi].reshape(n, n) for lo, hi, n in self._cuts])


def _flatten(X: BlockOperator) -> np.ndarray:
    """The blocks of X, each row-major, one after another: N = sum n_i^2 entries."""
    return np.concatenate([b.ravel() for b in X.data])
