"""Inclusion specifications, the spectral condition, Markov traces, embeddings.

The embedding layout is one table, ``InclusionSpec.copies``: every copy
(i, j, k, start) of sub block j in super block i, whose basis vectors u_{ijkl}
sit at start + l.  Every reader of the layout iterates that table, and
``embed_batch`` is the one code that writes blocks into it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import BlockOperator, MultiMatrixAlgebra, TracialState, exact_index
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    DisconnectedDiagram,
    EmptyColumn,
    InvariantViolated,
    TooLarge,
)

SPECTRAL_TOL = 1e-9


def _ints(values, what: str, item=exact_index) -> tuple:
    """Exact ints, ``item`` applied to each value; a float, a bool, a string
    or a non-list is a DimensionMismatch, never truncated or coerced."""
    try:
        return tuple(item(v) for v in values)
    except TypeError as exc:
        raise DimensionMismatch(f"{what} must hold integers: {exc}") from None


@dataclass(frozen=True)
class InclusionSpec:
    """The inclusion (A, m): inclusion matrix and the sub-algebra's dimension vector.

    inclusion_matrix is s x r with non-negative integer entries a_{ij}; block
    j of the sub-algebra appears a_{ij} times inside block i of the
    super-algebra.  Dimension counting forces super_dims = A @ sub_dims, so it
    is derived, never stated.  Construction converts A and m to exact ints once
    and checks them, row by row, so every spec that exists is valid.
    """

    inclusion_matrix: tuple[tuple[int, ...], ...]
    sub_dims: tuple[int, ...]
    super_dims: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        A = _ints(self.inclusion_matrix, "inclusion matrix", lambda row: tuple(map(exact_index, row)))
        m = _ints(self.sub_dims, "sub_dims")
        if not A or not m:
            raise DimensionMismatch("inclusion matrix needs at least one row and one column")
        for row in A:
            if len(row) != len(m):
                raise DimensionMismatch("inclusion matrix column count does not match sub_dims")
            if any(a < 0 for a in row):
                raise DimensionMismatch("inclusion matrix entries must be non-negative")
        n = tuple(sum(a * mj for a, mj in zip(row, m)) for row in A)
        if any(mj < 1 for mj in m) or any(ni < 1 for ni in n):
            raise DimensionMismatch("dimension vectors must be positive")
        for j, column in enumerate(zip(*A)):
            if not any(column):
                raise EmptyColumn(f"column {j} of the inclusion matrix is zero")
        object.__setattr__(self, "inclusion_matrix", A)
        object.__setattr__(self, "sub_dims", m)
        object.__setattr__(self, "super_dims", n)

    @classmethod
    def from_matrix(cls, inclusion_matrix, sub_dims) -> "InclusionSpec":
        """``InclusionSpec(inclusion_matrix, sub_dims)``, by its older name."""
        return cls(inclusion_matrix, sub_dims)

    @property
    def s(self) -> int:
        return len(self.super_dims)

    @property
    def r(self) -> int:
        return len(self.sub_dims)

    @cached_property
    def sub_algebra(self) -> MultiMatrixAlgebra:
        return MultiMatrixAlgebra(self.sub_dims)

    @cached_property
    def super_algebra(self) -> MultiMatrixAlgebra:
        return MultiMatrixAlgebra(self.super_dims)

    def a(self, i: int, j: int) -> int:
        return self.inclusion_matrix[i][j]

    @cached_property
    def copies(self) -> tuple[tuple[int, int, int, int], ...]:
        """Every copy (i, j, k, start) of sub block j in super block i, 0 <= k < a_ij,
        in layout order: by i, then by start = sum_{v<j} a_iv m_v + k m_j."""
        out = []
        for i, row in enumerate(self.inclusion_matrix):
            start = 0
            for j, (a, m) in enumerate(zip(row, self.sub_dims)):
                for k in range(a):
                    out.append((i, j, k, start))
                    start += m
        return tuple(out)

    def is_connected(self) -> bool:
        """Connectivity of the Bratteli diagram viewed as a bipartite graph.

        One search over the sub blocks: each round takes the super blocks
        that hold a newly reached sub block and reaches every sub block they
        hold.  Every super block holds some sub block (n_i >= 1), so the
        diagram is connected when every sub block is reached.
        """
        rows = [{j for j, a in enumerate(row) if a} for row in self.inclusion_matrix]
        reached, new = set(), {0}
        while new:
            reached |= new
            hit = [row for row in rows if not row.isdisjoint(new)]
            rows = [row for row in rows if row.isdisjoint(new)]
            new = set().union(*hit) - reached
        return len(reached) == self.r

    def transpose(self) -> "InclusionSpec":
        """Spec of the basic-construction inclusion: matrix A^t, sub dims = n."""
        return InclusionSpec(tuple(zip(*self.inclusion_matrix)), self.super_dims)


@dataclass(frozen=True)
class SpectralReport:
    """Outcome of the necessary spectral/trace conditions."""

    holds: bool
    d: int | None
    markov_trace: TracialState | None
    entropy_value: float | None
    norm_sq: float
    connected: bool

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "d": self.d,
            "markov_trace_vector": list(self.markov_trace.trace_vector)
            if self.markov_trace is not None
            else None,
            "entropy_value": self.entropy_value,
            "norm_sq": self.norm_sq,
            "connected": self.connected,
        }


def _atn(spec: InclusionSpec) -> list[int]:
    """A^t n, in exact integers: entry j is sum_i a_ij n_i."""
    A, n = spec.inclusion_matrix, spec.super_dims
    return [sum(A[i][j] * n[i] for i in range(spec.s)) for j in range(spec.r)]


def spectral_d(spec: InclusionSpec) -> int | None:
    """The integer d with A^t n = d m, decided in exact integer arithmetic; None if none."""
    Atn, m = _atn(spec), spec.sub_dims
    d = Atn[0] // m[0]
    return d if all(t == d * mj for t, mj in zip(Atn, m)) else None


def check_spectral_condition(spec: InclusionSpec) -> SpectralReport:
    """d from ``spectral_d``, cross-checked against ||A||^2 from one thin SVD that
    also gives the Perron vector for ``markov_trace(spec)`` (None where that is a
    DisconnectedDiagram).  A^t A m = d m, A A^t n = d n and sum n_i^2 = d sum m_j^2
    follow exactly from n = A m and A^t n = d m; ``spectral_d`` and ``is_connected``
    run once each."""
    d = spectral_d(spec)
    connected = spec.is_connected()
    with np.errstate(over="ignore"):
        sigma, u = _svd(spec, d is None and connected)
        norm_sq = float(sigma**2)
    if not norm_sq < math.inf or (d is not None and d > sys.float_info.max):
        raise TooLarge("||A||^2 is past the range of a float")
    if d is not None and abs(norm_sq - d) > SPECTRAL_TOL:
        raise InvariantViolated(f"numerical ||A||^2 = {norm_sq} disagrees with d = {d}")
    entropy = math.log(d) if d is not None else None
    return SpectralReport(d is not None, d, _markov_trace(spec, d, connected, u), entropy, norm_sq, connected)


def markov_trace(spec: InclusionSpec) -> TracialState:
    """The Markov trace, the one that E, the spectral report and the trace
    check read: n wherever A^t n = d m, on any diagram; otherwise the Perron
    eigenvector of A A^t, unique on a connected diagram only, so a
    disconnected diagram without d is a DisconnectedDiagram."""
    d = spectral_d(spec)
    trace = _markov_trace(spec, d, d is not None or spec.is_connected())
    if trace is None:
        raise DisconnectedDiagram("Markov trace is not unique on a disconnected diagram")
    return trace


def _markov_trace(spec: InclusionSpec, d: int | None, connected: bool, u=None) -> TracialState | None:
    """``markov_trace`` given d and connectivity, or None.  The Perron vector
    is A's first left singular vector u, from a thin SVD here unless given, so
    no s x s matrix is formed; it is strictly positive on a connected diagram,
    so a component at or below 1e-12 is float resolution failing."""
    if d is not None:
        return TracialState(spec.super_algebra, spec.super_dims)
    if not connected:
        return None
    v = _svd(spec, True)[1] if u is None else u
    v = v * np.sign(v[np.argmax(np.abs(v))])
    if np.any(v <= 1e-12):
        raise InvariantViolated("Perron eigenvector of a connected diagram is not strictly positive in floats")
    v = v / v.min()
    return TracialState(spec.super_algebra, tuple(float(x) for x in v))


def _svd(spec: InclusionSpec, vectors: bool):
    """sigma_1 of A and, if ``vectors``, A's first left singular vector (else
    None), from one thin SVD; an entry past a float's range is TooLarge."""
    try:
        A = np.array(spec.inclusion_matrix, dtype=float)
    except OverflowError:
        raise TooLarge("an inclusion matrix entry is past the range of a float") from None
    if not vectors:
        return np.linalg.svd(A, compute_uv=False)[0], None
    U, S, _ = np.linalg.svd(A, full_matrices=False)
    return S[0], U[:, 0]


def embed_batch(spec: InclusionSpec, blocks) -> list[np.ndarray]:
    """``embed`` on stacks: ``blocks[j]`` is a (..., m_j, m_j) stack, all with
    one leading shape, and block i of the result is the (..., n_i, n_i) stack
    with Y_j on every copy of block j.  The one writer of copy positions; a
    stack of another shape is refused, so nothing broadcasts into a copy."""
    lead = blocks[0].shape[:-2] if len(blocks) == spec.r else None
    if lead is None or any(Y.shape != lead + (m, m) for Y, m in zip(blocks, spec.sub_dims)):
        raise AlgebraMismatch("operand does not belong to the sub-algebra")
    out = [np.zeros(lead + (n, n), dtype=complex) for n in spec.super_dims]
    for i, j, _, s in spec.copies:
        m = spec.sub_dims[j]
        out[i][..., s : s + m, s : s + m] = blocks[j]
    return out


def embed(spec: InclusionSpec, Y: BlockOperator) -> BlockOperator:
    """Block-diagonal image of a sub-algebra element: Y_j on every copy of block j."""
    return spec.super_algebra.operator(embed_batch(spec, Y.data))


def unembed(spec: InclusionSpec, X: BlockOperator) -> BlockOperator:
    """Read a sub-algebra element back from its embedded image (first copy per column)."""
    if X.algebra != spec.super_algebra:
        raise AlgebraMismatch("operand does not belong to the super-algebra")
    data = [None] * spec.r
    for i, j, _, s in spec.copies:
        if data[j] is None:
            m = spec.sub_dims[j]
            data[j] = X.data[i][s : s + m, s : s + m]
    return spec.sub_algebra.operator(data)
