"""Trace-preserving conditional expectations: compiled, and as a channel.

For a faithful trace phi on A with trace vector p, the phi-preserving
expectation onto the embedded sub-algebra B averages, for each sub block j,
its diagonal copies with weights q_ij = p_i / sum_x p_x a_xj and writes the
average back into every copy.  ``conditional_expectation(spec, phi)`` compiles
that map once into a ``SlotTable`` (per sub block j, every copy (super block
i, start, q_ij), read off ``spec.copies``) and returns it as a callable;
``markov_expectation(spec)`` is the one for the Markov trace, and the tower's
dual expectation is the one of its GNS layout (``uob.tower``).

When the preserved trace is the standard one, the same map stays as an
independent reference in a second form, a mixed unitary channel.  Its unitaries
are permutations of the copies (a cycle per sub block) times a phase per
copy, read off ``spec.copies`` and kept as index arrays, so a conjugation is
a gather and a product; a channel over the memory budget
(``uob.algebra.MAX_ENTRIES``) is refused before any copy is listed.  The
third form, the phi-orthogonal projection onto the span of B's embedded
matrix units, is a test reference (``tests/reference.py``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import BlockOperator, TracialState, refuse_over_budget, roots
from .errors import AlgebraMismatch, DisconnectedDiagram, NonStandardTrace
from .inclusion import InclusionSpec, embed_batch, markov_trace


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
    """Callable E for the phi-preserving expectation onto B, in embedded form,
    on one ``BlockOperator`` or on a list of (K, n_i, n_i) block stacks.

    ``E.slots`` holds the compiled ``SlotTable``, which the verify checks read
    (``uob.verify._slot_table``, which also survives wrappers that copy E's
    attributes) to work on whole basis stacks.  ``E.phi`` and ``E.spec`` are
    the arguments.
    """
    sup = spec.super_algebra
    if phi.algebra != sup:
        raise AlgebraMismatch("trace does not belong to the super-algebra")
    table = SlotTable.compile(spec, phi.trace_vector)

    def E(X):
        """E of one operator of the super-algebra, or of block stacks: a list
        with one (K, n_i, n_i) stack per block, answered the same way."""
        if not isinstance(X, BlockOperator):
            sup.check_stacks(X)
            return table.apply(X)
        if X.algebra != sup:
            raise AlgebraMismatch("operand does not belong to the super-algebra")
        return sup.operator(table.apply(X.data))

    E.phi = phi
    E.spec = spec
    E.slots = table
    return E


def markov_expectation(spec: InclusionSpec):
    """``conditional_expectation`` for ``markov_trace(spec)``, or its DisconnectedDiagram."""
    return conditional_expectation(spec, markov_trace(spec))


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
    """Mixed-unitary form of E for the standard trace: connected, all Markov weights equal."""
    if not spec.is_connected():
        raise DisconnectedDiagram("Markov trace is not unique on a disconnected diagram")
    p = markov_trace(spec).trace_vector
    if any(abs(v - p[0]) > 1e-12 for v in p):
        raise NonStandardTrace("mixed-unitary form requires equal trace weights")
    # N x N entries per conjugation and per stacked operand of ``uob channel``, which stacks
    # twenty; read off the column sums, so the T copies are listed only under the cap
    dec, N = MixedUnitaryDecomposition(spec), spec.super_algebra.ambient_dim
    refuse_over_budget((dec.unitary_count + 20) * N * N, "the channel")
    return dec

