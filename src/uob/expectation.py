"""Trace-preserving conditional expectations: compiled, as a channel, as a projection.

For a faithful trace phi on A with trace vector p, the phi-preserving
expectation onto the embedded sub-algebra B averages, for each sub block j,
its diagonal copies with weights q_ij = p_i / sum_x p_x a_xj and writes the
average back into every copy.  ``conditional_expectation(spec, phi)`` compiles
that map once into a ``SlotTable`` (per sub block j, every copy (super block
i, start, q_ij), read off ``spec.copies``) and returns it as a callable;
``markov_expectation(spec)`` is the one for the Markov trace.

Two other forms of the same map stay as independent references: the
phi-orthogonal projection onto the span of a family such as the embedded
matrix units of B (``_GramProjector(phi, family)``, compiled once and then
called on each operand; the tower's dual expectation is one), and, when the
preserved trace is the standard one, a mixed unitary channel.  Its unitaries
are permutations of the copies (a cycle per sub block) times a phase per
copy, read off ``spec.copies`` and kept as index arrays, so a conjugation is
a gather and a product; a channel over MAX_CHANNEL_ENTRIES is refused first.
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
from .inclusion import InclusionSpec, embed_batch, markov_trace, spectral_d

GRAM_COND_LIMIT = 1e12
# Largest mixed-unitary channel, in N x N entries per conjugation and stacked
# operand (see ``mixed_unitary_channel``): 2^24, the budget of MAX_BASIS_ENTRIES.
MAX_CHANNEL_ENTRIES = 1 << 24


@dataclass(frozen=True)
class SlotTable:
    """E compiled once: ``slots[j]`` lists every copy (super block i, start, q_ij)
    of sub block j of ``spec``, in the order ``apply`` sums them.

    Works on blocks of any leading batch shape: ``blocks[i]`` has shape
    (..., n_i, n_i).
    """

    spec: InclusionSpec
    slots: tuple[tuple[tuple[int, int, float], ...], ...]

    @classmethod
    def compile(cls, spec: InclusionSpec, trace_vector) -> "SlotTable":
        p = tuple(trace_vector)
        denoms = [sum(p[x] * spec.a(x, j) for x in range(spec.s)) for j in range(spec.r)]
        slots = [[] for _ in range(spec.r)]
        for i, j, _, start in spec.copies:
            slots[j].append((i, start, p[i] / denoms[j]))
        return cls(spec, tuple(map(tuple, slots)))

    def apply(self, blocks) -> list[np.ndarray]:
        """E in embedded form: the ``embed_batch`` of Z_j = sum over copies S of
        q_ij X_i[S, S]."""
        Z = [
            sum(q * blocks[i][..., s : s + m, s : s + m] for i, s, q in copies)
            for m, copies in zip(self.spec.sub_dims, self.slots)
        ]
        return embed_batch(self.spec, Z)


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
    if table is not None and table.spec.super_dims != alg.blocks:
        raise AlgebraMismatch("expectation and basis live on different algebras")
    return table


def apply_each(E, alg: MultiMatrixAlgebra, operands) -> list[np.ndarray]:
    """E on (K, n_i, n_i) block stacks, one call per operand: out[i][c] is block
    i of E(operand c).  An output that is not an operator of ``alg`` is
    refused, so a block of the wrong size never lands (or broadcasts) in a stack.
    """
    out = [np.empty_like(p) for p in operands]
    for c, blocks in enumerate(zip(*operands)):
        Y = E(BlockOperator(alg, blocks))
        if getattr(Y, "algebra", None) != alg:
            raise AlgebraMismatch("expectation output does not belong to the basis's algebra")
        for o, blk in zip(out, Y.data):
            o[c] = blk
    return out


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
    """E as the uniform average of the conjugations by L_0^{x_0} ... L_{r-1}^{x_{r-1}} K^y.

    Every unitary is a permutation times phases, read off ``spec.copies`` and
    kept as index arrays: K multiplies the t-th of the T copies by
    epsilon(t / T), and L_j cyclically permutes the T_j copies of sub block j.
    The unitaries act on the ambient space, not necessarily in the super-algebra.
    """

    spec: InclusionSpec

    @functools.cached_property
    def column_counts(self) -> tuple[int, ...]:
        """T_j, the copies of sub block j: the column sums of A."""
        return tuple(map(sum, zip(*self.spec.inclusion_matrix)))

    @functools.cached_property
    def unitary_count(self) -> int:
        """Number of conjugations in the average: prod_j T_j times T."""
        return math.prod(self.column_counts) * sum(self.column_counts)

    @functools.cached_property
    def k_phases(self) -> tuple:
        """The phase of K on each copy (i, j, k), exact over T."""
        T = len(self.spec.copies)
        return tuple(((i, j, k), Fraction(t, T)) for t, (i, j, k, _) in enumerate(self.spec.copies))

    @functools.cached_property
    def cycles(self) -> tuple:
        """The (i, k) copies that each L_j runs through."""
        copies = self.spec.copies
        return tuple(tuple((i, k) for i, jj, k, _ in copies if jj == j) for j in range(self.spec.r))

    @functools.cached_property
    def copy_index(self) -> np.ndarray:
        """The copy t at each ambient position, where K's phase is t / T."""
        sizes = [self.spec.sub_dims[j] for _, j, _, _ in self.spec.copies]
        return np.repeat(np.arange(len(sizes)), sizes)

    @functools.cached_property
    def shifts(self) -> tuple[np.ndarray, ...]:
        """Row x of table j is L_j^x as an index array p: (L_j^x X L_j^-x)[a, b]
        = X[p[a], p[b]], and p sends each copy of sub block j to the one x before it."""
        copies, offsets, out = self.spec.copies, self.spec.super_algebra.block_offsets(), []
        for j, m in enumerate(self.spec.sub_dims):
            at = np.add.outer([offsets[i] + s for i, jj, _, s in copies if jj == j], np.arange(m))
            out.append(np.tile(np.arange(self.spec.super_algebra.ambient_dim), (len(at), 1)))
            for x, row in enumerate(out[-1]):
                row[at] = np.roll(at, x, axis=0)
        return tuple(out)

    def apply(self, X) -> np.ndarray:
        """The average over a dense ambient matrix or an (..., N, N) stack of them.
        With p the L product's index array and t the copy index, each conjugation is
        a gather and exact phases: U X U* is roots(T)[y (t[pa] - t[pb]) mod T] X[pa, pb]."""
        X = np.asarray(X.to_dense() if isinstance(X, BlockOperator) else X, dtype=complex)
        phase, out = roots(len(self.spec.copies)), np.zeros_like(X)
        for ps in itertools.product(*self.shifts):
            p = functools.reduce(lambda a, b: a[b], ps)
            step = self.copy_index[p][:, None] - self.copy_index[p]
            G = X[..., p[:, None], p]
            for y in range(len(phase)):
                out += phase[y * step % len(phase)] * G
        return out * (1 / self.unitary_count)


def mixed_unitary_channel(spec: InclusionSpec) -> MixedUnitaryDecomposition:
    """Mixed-unitary form of E for the standard trace (all Markov weights equal)."""
    p = markov_trace(spec).trace_vector
    if any(abs(v - p[0]) > 1e-12 for v in p):
        raise NonStandardTrace("mixed-unitary form requires equal trace weights")
    # N x N entries per conjugation and per stacked operand of ``uob channel``, which stacks
    # twenty; read off the column sums, so the T copies are listed only under the cap
    dec, N = MixedUnitaryDecomposition(spec), spec.super_algebra.ambient_dim
    entries = (dec.unitary_count + 20) * N * N
    if entries > MAX_CHANNEL_ENTRIES:
        raise TooLarge(
            f"the channel would take {TooLarge.count(entries)} entries,"
            f" over the cap of {MAX_CHANNEL_ENTRIES}"
        )
    return dec


class _GramProjector:
    """Orthogonal projection onto the span of a fixed operator family.

    Compiled once: the family is flattened into the rows of one (k, N) array
    S, N = sum n_i^2, and phi's inner product becomes the per-entry weight w
    (p_i / weight on every entry of block i), so <X, Y> = sum conj(x) w y and
    the Gram matrix is G = conj(S) diag(w) S^T.  The projector keeps
    P = G^-1 conj(S) diag(w), a (k, N) array, and S on its support only: the
    columns where some member of the family is nonzero.  So a call is two
    matrix-vector products, the coefficients c = P x over all N entries and
    then c S over the support only, scattered into zeros.  Each kept entry is
    the length-k dot product of the dense c S; BLAS may sum it in another
    order for another column count, but where each support column holds a
    single 1, as for the tower's left multiplications, it is exact either
    way.  P is zero off the support, so a NaN or Inf anywhere in x makes
    every c non-finite, and with it the output on the support.
    """

    def __init__(self, phi: TracialState, basis):
        self.algebra = phi.algebra
        S = _rows(basis, self.algebra.vector_dim)
        sizes = [n * n for n in self.algebra.blocks]
        w = np.repeat([float(p / phi.weight) for p in phi.trace_vector], sizes)
        T = S * w
        G = np.conj(T, out=T) @ S.T
        self._support = np.flatnonzero(S.any(axis=0))
        self._S = S.take(self._support, axis=1)  # C-ordered like S, so c @ S takes the same BLAS kernel
        del S  # so the dense S, T and P are never all alive at once
        if np.linalg.cond(G) > GRAM_COND_LIMIT:
            raise SingularGram("projection basis is numerically degenerate")
        self._P = np.linalg.inv(G) @ T
        ends = np.cumsum(sizes)
        self._cuts = [(e - n * n, e, n) for e, n in zip(ends, self.algebra.blocks)]

    def __call__(self, X: BlockOperator) -> BlockOperator:
        if X.algebra != self.algebra:
            raise AlgebraMismatch("operand does not belong to the projector's algebra")
        flat = np.zeros(self._P.shape[1], dtype=complex)
        flat[self._support] = (self._P @ _flatten(X)) @ self._S
        if len(self._cuts) == 1:
            return BlockOperator(self.algebra, (flat.reshape(self._cuts[0][2], -1),))
        return BlockOperator(self.algebra, tuple(flat[lo:hi].reshape(n, n) for lo, hi, n in self._cuts))


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
