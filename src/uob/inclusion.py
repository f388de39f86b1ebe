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
        """Connectivity of the Bratteli diagram viewed as a bipartite graph."""
        nodes = self.s + self.r
        adj = [[] for _ in range(nodes)]
        for i in range(self.s):
            for j in range(self.r):
                if self.inclusion_matrix[i][j] > 0:
                    adj[i].append(self.s + j)
                    adj[self.s + j].append(i)
        seen, stack = {0}, [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == nodes

    def transpose(self) -> "InclusionSpec":
        """Spec of the basic-construction inclusion: matrix A^t, sub dims = n."""
        return InclusionSpec(tuple(zip(*self.inclusion_matrix)), self.super_dims)


@dataclass(frozen=True)
class SpectralReport:
    """Outcome of the necessary spectral/trace conditions."""

    holds: bool
    d: int | None
    markov_trace: TracialState | None
    quadratic_holds: bool
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
            "quadratic_holds": self.quadratic_holds,
            "entropy_value": self.entropy_value,
            "norm_sq": self.norm_sq,
            "connected": self.connected,
        }


def spectral_d(spec: InclusionSpec) -> int | None:
    """The integer d with A^t n = d m, decided in exact integer arithmetic; None if none."""
    A, m, n = spec.inclusion_matrix, spec.sub_dims, spec.super_dims
    d = None
    for j in range(spec.r):
        t = sum(A[i][j] * n[i] for i in range(spec.s))
        if t % m[j] != 0 or (d is not None and t // m[j] != d):
            return None
        d = t // m[j]
    return d


def check_spectral_condition(spec: InclusionSpec) -> SpectralReport:
    """The spectral report: d from ``spectral_d``, cross-checked against ||A||^2.

    A^t A m = d m and A A^t n = d n need no check: they follow exactly from
    n = A m, which is how every spec derives n, and A^t n = d m.
    """
    d = spectral_d(spec)
    m, n = spec.sub_dims, spec.super_dims
    with np.errstate(over="ignore"):
        norm_sq = float(np.linalg.norm(_float_matrix(spec), ord=2) ** 2)
    if not norm_sq < math.inf or (d is not None and d > sys.float_info.max):
        raise TooLarge("||A||^2 is past the range of a float")
    connected = spec.is_connected()
    if d is not None:
        if abs(norm_sq - d) > SPECTRAL_TOL:
            raise InvariantViolated(f"numerical ||A||^2 = {norm_sq} disagrees with d = {d}")
        quadratic = sum(ni * ni for ni in n) == d * sum(mj * mj for mj in m)
        trace = TracialState(spec.super_algebra, n)
        entropy = math.log(d)
    else:
        quadratic, entropy = False, None
        # on a connected diagram the Perron vector is strictly positive
        trace = markov_trace(spec) if connected else None
    return SpectralReport(d is not None, d, trace, quadratic, entropy, norm_sq, connected)


def markov_trace(spec: InclusionSpec) -> TracialState:
    """The tracial state whose trace vector is the Perron eigenvector of A A^t.

    When the spectral condition holds the vector is returned exactly as the
    dimension vector n; otherwise it is computed numerically.  Disconnected
    diagrams are rejected because uniqueness fails.
    """
    if not spec.is_connected():
        raise DisconnectedDiagram("Markov trace is not unique on a disconnected diagram")
    if spectral_d(spec) is not None:
        return TracialState(spec.super_algebra, spec.super_dims)
    A = _float_matrix(spec)
    M = A @ A.T
    vals, vecs = np.linalg.eigh(M)
    v = vecs[:, -1]
    v = v * np.sign(v[np.argmax(np.abs(v))])
    if np.any(v <= 1e-12):
        raise DisconnectedDiagram("Perron eigenvector is not strictly positive")
    v = v / v.min()
    return TracialState(spec.super_algebra, tuple(float(x) for x in v))


def _float_matrix(spec: InclusionSpec) -> np.ndarray:
    """The inclusion matrix as floats; an entry past their range is TooLarge."""
    try:
        return np.array(spec.inclusion_matrix, dtype=float)
    except OverflowError:
        raise TooLarge("an inclusion matrix entry is past the range of a float") from None


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
