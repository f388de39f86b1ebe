"""Multi-matrix algebras, block operators, exact phases, and circulants.

A phase k/n is kept exact as an integer numerator mod n and exponentiated by
indexing ``roots(n)``, the table of n-th roots of unity, so long phase sums
cancel without drift.  ``epsilon`` does the same for a single rational
(``fractions.Fraction``, understood mod 1).  Circulant matrices are
parametrized by their eigenvalues and built from the entrywise formula, never
by conjugating with Fourier matrices (the tests conjugate with one, as an
independent reference).  Batched work runs on
lists of (K, n_i, n_i) block stacks: the matrix units come that way
(``unit_batches``), and a tracial state evaluates a batch (``batch``).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import AlgebraMismatch, TooLarge

DEFAULT_TOL = 1e-9
# complex entries (64 KiB) per batch of operators; larger batches were no
# faster and raised the peak resident memory
CHUNK_ENTRIES = 1 << 12
# the memory budget in complex entries (256 MiB); ``refuse_over_budget`` checks it
MAX_ENTRIES = 1 << 24


def exact_index(value) -> int:
    """``operator.index``, but a bool is a TypeError: JSON ``true`` is no integer."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a boolean, not an integer")
    return operator.index(value)


def refuse_over_budget(entries: int, what: str) -> None:
    """TooLarge when ``what`` would hold over MAX_ENTRIES entries; the cap is read at each call."""
    if entries > MAX_ENTRIES:
        raise TooLarge(f"{what} would hold {TooLarge.count(entries)} entries, over the cap of {MAX_ENTRIES}")


def epsilon(x) -> complex:
    """e^{2 pi i x} for a rational phase x. Unit modulus by construction."""
    x = Fraction(x) % 1
    return complex(np.exp(2j * np.pi * (x.numerator / x.denominator)))


def roots(n: int) -> np.ndarray:
    """The n-th roots of unity: roots(n)[k] = epsilon(k / n), bit for bit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.exp(2j * np.pi * (np.arange(n) / n))


def circulant(eigenvalues) -> np.ndarray:
    """Circulant matrix C(b_0, ..., b_{n-1}) parametrized by its eigenvalues.

    Entry (j, k) is (1/n) sum_y b_y epsilon(y (k - j) / n); the diagonal is
    constant, equal to the mean of the eigenvalues.  A (..., n) batch of
    eigenvalue lists gives a (..., n, n) stack of circulants.
    """
    b = np.asarray(eigenvalues, dtype=complex)
    if b.ndim == 0 or b.shape[-1] == 0:
        raise ValueError("eigenvalue list must be non-empty")
    # f[t] = sum_y b_y epsilon(y t / n); entry (j,k) is f[(k-j) mod n] / n.
    # This is C = F* D(b) F, so F C F* = D(b) and the eigenvector of b_y is
    # (epsilon(-jy/n))_j.
    n = b.shape[-1]
    k = np.arange(n)
    f = b @ roots(n)[np.outer(k, k) % n]
    return f[..., (k[None, :] - k[:, None]) % n] / n


@dataclass(frozen=True)
class MultiMatrixAlgebra:
    """A finite direct sum of full complex matrix algebras M_{n_0} + ... + M_{n_{s-1}}."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(exact_index(n) for n in self.blocks)
        if not blocks or any(n < 1 for n in blocks):
            raise ValueError("block dimensions must be a non-empty list of positive integers")
        object.__setattr__(self, "blocks", blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def ambient_dim(self) -> int:
        return sum(self.blocks)

    @property
    def vector_dim(self) -> int:
        """Dimension of the algebra as a vector space, sum of n_i^2."""
        return sum(n * n for n in self.blocks)

    def block_offsets(self) -> list[int]:
        offs, acc = [], 0
        for n in self.blocks:
            offs.append(acc)
            acc += n
        return offs

    def check_stacks(self, blocks) -> None:
        """AlgebraMismatch unless ``blocks`` is a list of one (K, n_i, n_i)
        stack per block of this algebra, all with one K."""
        ok = isinstance(blocks, (list, tuple)) and len(blocks) == self.num_blocks
        lead = getattr(blocks[0], "shape", ())[:1] if ok else ()
        if not ok or any(getattr(b, "shape", None) != lead + (n, n) for b, n in zip(blocks, self.blocks)):
            raise AlgebraMismatch("operand stacks do not belong to the algebra")

    def operator(self, data) -> "BlockOperator":
        return BlockOperator(self, tuple(np.asarray(d, dtype=complex) for d in data))

    def identity(self) -> "BlockOperator":
        return self.operator([np.eye(n) for n in self.blocks])

    def zero(self) -> "BlockOperator":
        return self.operator([np.zeros((n, n)) for n in self.blocks])

    def random(self, rng: np.random.Generator) -> "BlockOperator":
        """A random operator: per block, standard normal real parts, then imaginary parts."""
        return BlockOperator(self, tuple(self._blocks_of(rng.standard_normal(2 * self.vector_dim))))

    def random_batches(self, rng: np.random.Generator, count: int, size: int):
        """``count`` operators drawn as by ``random``, as (K, n_i, n_i) block
        stacks with K <= size, from one generator call: the draws are those of
        ``count`` calls of ``random`` bit for bit, and the generator ends in the
        same state."""
        draws = rng.standard_normal((count, 2 * self.vector_dim))
        for lo in range(0, count, size):
            yield self._blocks_of(draws[lo : lo + size])

    def _blocks_of(self, draws: np.ndarray) -> list[np.ndarray]:
        """Complex blocks from (..., 2 vector_dim) real draws: per block, the
        real parts and then the imaginary parts, each read row-major."""
        out, off, lead = [], 0, draws.shape[:-1]
        for n in self.blocks:
            re = draws[..., off : off + n * n].reshape(lead + (n, n))
            im = draws[..., off + n * n : off + 2 * n * n].reshape(lead + (n, n))
            out.append(re + 1j * im)
            off += 2 * n * n
        return out

    @property
    def batch_size(self) -> int:
        """Operators per batch: at most CHUNK_ENTRIES entries, and at least one."""
        return max(1, CHUNK_ENTRIES // self.vector_dim)

    def unit_batches(self, size: int, diagonal: bool = False):
        """Every matrix unit (i, a, b), by block then row-major, as (K, n_i, n_i)
        block stacks with K <= size; only the units (i, a, a) when ``diagonal``.
        A batch runs on across block boundaries, so only the last is short."""
        units = (
            (i, t) for i, n in enumerate(self.blocks) for t in range(0, n * n, n + 1 if diagonal else 1)
        )
        while batch := list(itertools.islice(units, size)):
            X = [np.zeros((len(batch), n, n), dtype=complex) for n in self.blocks]
            for row, (i, t) in enumerate(batch):
                X[i].reshape(len(batch), -1)[row, t] = 1
            yield X

    def unit_index(self, k: int) -> tuple[int, int, int]:
        """The matrix unit (i, a, b) at position k of the ``unit_batches`` order."""
        for i, n in enumerate(self.blocks):
            if 0 <= k < n * n:
                return (i, *divmod(k, n))
            k -= n * n
        raise IndexError("matrix unit index out of range")

    def matrix_units(self):
        """Yield ((i, a, b), E) over all matrix units of every block."""
        for k, X in enumerate(self.unit_batches(1)):
            yield self.unit_index(k), self.operator([x[0] for x in X])


@dataclass(frozen=True)
class BlockOperator:
    """An element of a multi-matrix algebra as a list of dense complex blocks."""

    algebra: MultiMatrixAlgebra
    data: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        blocks = self.algebra.blocks
        if len(self.data) != len(blocks):
            raise AlgebraMismatch("block count does not match algebra")
        for n, d in zip(blocks, self.data):
            if d.shape != (n, n):
                raise AlgebraMismatch(f"block shape {d.shape} does not match size {n}")

    def _check(self, other: "BlockOperator"):
        if self.algebra != other.algebra:
            raise AlgebraMismatch("operands belong to different algebras")

    def __add__(self, other):
        self._check(other)
        return self.algebra.operator([a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        self._check(other)
        return self.algebra.operator([a - b for a, b in zip(self.data, other.data)])

    def __neg__(self):
        return self.algebra.operator([-a for a in self.data])

    def __mul__(self, scalar):
        return self.algebra.operator([complex(scalar) * a for a in self.data])

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        return self.algebra.operator([a @ b for a, b in zip(self.data, other.data)])

    def adjoint(self) -> "BlockOperator":
        return self.algebra.operator([a.conj().T for a in self.data])

    def to_dense(self) -> np.ndarray:
        N = self.algebra.ambient_dim
        M = np.zeros((N, N), dtype=complex)
        for n, o, d in zip(self.algebra.blocks, self.algebra.block_offsets(), self.data):
            M[o : o + n, o : o + n] = d
        return M

    def norm_inf(self) -> float:
        """Largest absolute entry across all blocks; NaN if any entry is NaN."""
        return float(np.max([np.abs(d).max() for d in self.data]))

    def allclose(self, other: "BlockOperator", tol: float = DEFAULT_TOL) -> bool:
        self._check(other)
        return (self - other).norm_inf() <= tol


@dataclass(frozen=True)
class TracialState:
    """A faithful tracial state given by a positive trace vector, stored up to scale.

    phi(X) = (sum_i p_i trace(X_i)) / (sum_i p_i n_i); normalization happens on
    evaluation so integer vectors stay exact.
    """

    algebra: MultiMatrixAlgebra
    trace_vector: tuple

    def __post_init__(self):
        p = tuple(self.trace_vector)
        if len(p) != self.algebra.num_blocks:
            raise AlgebraMismatch("trace vector length does not match algebra")
        if any(not (v > 0) for v in p):
            raise ValueError("trace vector entries must be strictly positive")
        object.__setattr__(self, "trace_vector", p)

    @property
    def weight(self):
        """Normalization sum_i p_i n_i."""
        return sum(p * n for p, n in zip(self.trace_vector, self.algebra.blocks))

    def __call__(self, X: BlockOperator) -> complex:
        if X.algebra != self.algebra:
            raise AlgebraMismatch("operator does not belong to the state's algebra")
        return complex(self.batch([d[None] for d in X.data])[0])

    def batch(self, blocks) -> np.ndarray:
        """phi on every operator of a batch: ``blocks[i]`` is a (K, n_i, n_i) stack."""
        total = sum(p * np.trace(b, axis1=-2, axis2=-1) for p, b in zip(self.trace_vector, blocks))
        return total / float(self.weight)
