"""Independent numerical checks for bases, expectations, and the trace conditions.

Every checker takes an expectation as a plain callable E mapping a block
operator to a block operator of the same algebra (embedded form), so the
same code verifies both multi-matrix inclusions and concrete
basic-construction models.  All checks work on the basis's per-block
(d, n_i, n_i) stacks; unitarity forms its products in chunks of each block's
own size.  When E carries the compiled slot table of ``markov_expectation``,
E itself is applied as matrix products over the stacks, and one sweep of the
sub blocks gives every reconstruction residual.  Any other E (the tower's
Gram projector, a plain callable) goes through one helper, ``_conjugated``:
E(W_c* X) for every c, one call per operand through ``apply_each``.
Orthonormality takes X = W_k for each k (d^2 calls), reconstruction each
test operator (d calls each), and trace preservation calls E once per matrix
unit.  No linearity of E is assumed on that path, the reference the compiled
checks are tested against; a reconstruction check given its own test family
(a ``sampler``) always takes it.  A compiled E preserves the trace on every
off-diagonal matrix unit exactly (both traces are 0.0), so trace
preservation runs it on the sum n_i diagonal units only.  A residual that is
NaN or infinite fails.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .algebra import CHUNK_ENTRIES, TracialState
from .bases import UnitaryBasis
from .errors import AlgebraMismatch, NoExpectation
from .expectation import apply_each, markov_expectation, slot_table
from .inclusion import InclusionSpec, spectral_d

UNITARY_TOL = 1e-9
ORTHO_TOL = 1e-9
RECON_TOL = 1e-8
POSITIVITY_FLOOR = -1e-9
TRACE_TOL = 1e-10
N_RANDOM = 10


@dataclass
class VerificationReport:
    """One named check with its worst residual against a fixed tolerance."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    witness: str = ""
    seed: int | None = field(default=None)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "tolerance": self.tolerance,
        }
        if self.witness:
            out["witness"] = self.witness
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        msg = f"[{status}] {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.0e})"
        if self.witness and not self.passed:
            msg += f" at {self.witness}"
        return msg


def _report(name, residual, tol, witness="", seed=None) -> VerificationReport:
    """A residual passes only if it is finite and within tolerance."""
    residual = float(residual)
    passed = bool(np.isfinite(residual)) and residual <= tol
    return VerificationReport(name, passed, residual, tol, witness, seed)


def _worst(name, residuals, tol, label, seed=None) -> VerificationReport:
    """Report the largest residual, witnessed by ``label(k)`` of its index k.

    A NaN counts as the largest and the first of the largest wins; all-zero
    residuals carry no witness.
    """
    r = np.asarray(residuals, dtype=float).ravel()
    k = int(np.argmax(r))  # argmax returns the first NaN, if any
    return _report(name, r[k], tol, label(k) if r[k] != 0 else "", seed)


def _entry_max(stack: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each matrix in a (..., n, n) stack."""
    return np.abs(stack).max(axis=(-2, -1))


def _weighted_columns(basis: UnitaryBasis, table):
    """Per sub block j: (m_j, copies, L, R) with L @ R the Gram matrix of E.

    R stacks the column slices W[:, :, S] of every copy S of block j along
    rows x, with columns (b, l); L is the conjugate transpose of the same
    stack weighted by q_ij. So (L @ R)[(a, k), (b, l)] is entry (k, l) of
    block j of E(W_a* W_b).
    """
    d, stacks = basis.d, basis.stacks
    for m, copies in zip(table.spec.sub_dims, table.slots):
        cols = [stacks[i][:, :, start : start + m] for i, start, _ in copies]
        R = np.concatenate(cols, axis=1).transpose(1, 0, 2).reshape(-1, d * m)
        L = np.concatenate([q * c for c, (_, _, q) in zip(cols, copies)], axis=1)
        L = L.conj().transpose(0, 2, 1).reshape(d * m, -1)
        yield m, copies, L, R


def verify_unitary(basis: UnitaryBasis, tol: float = UNITARY_TOL) -> VerificationReport:
    """Every element satisfies W W* = W* W = I: products in chunks of each block's own size."""
    if not basis.d:
        return _report("unitary", np.inf, tol, "empty basis")
    resid = np.zeros(basis.d)
    for Ws in basis.stacks:
        n = Ws.shape[-1]
        I, size = np.eye(n), max(1, CHUNK_ENTRIES // (n * n))
        for lo in range(0, basis.d, size):
            W = Ws[lo : lo + size]
            Wh = W.conj().swapaxes(-1, -2)
            r = np.maximum(_entry_max(W @ Wh - I), _entry_max(Wh @ W - I))
            resid[lo : lo + size] = np.maximum(resid[lo : lo + size], r)
    return _worst("unitary", resid, tol, lambda j: f"element {j}")


def _adjoints(basis: UnitaryBasis) -> list[np.ndarray]:
    """Every W_c* of each block, laid out once as the rows of one (d n, n) array:
    conjugated straight into one C-ordered (d, n, n) stack, then viewed."""
    adj = (np.conjugate(Ws.swapaxes(-1, -2), order="C") for Ws in basis.stacks)
    return [H.reshape(-1, H.shape[-1]) for H in adj]


def _conjugated(E, basis: UnitaryBasis, adj, X) -> list[np.ndarray]:
    """E(W_c* X) for every c, one E call per c through ``apply_each``: out[i][c]
    is block i.  With ``adj`` the ``_adjoints`` and ``X`` the blocks of one
    operator, all W_c* X of a block are one (d n, n) @ (n, n) product."""
    operands = [(H @ x).reshape(Ws.shape) for H, Ws, x in zip(adj, basis.stacks, X)]
    return apply_each(E, basis.algebra, operands)


def verify_orthonormality(basis: UnitaryBasis, E, tol: float = ORTHO_TOL) -> VerificationReport:
    """E(W_j* W_k) = delta_jk I for the given expectation."""
    if not basis.d:
        return _report("orthonormality", np.inf, tol, "empty basis")
    d, stacks = basis.d, basis.stacks
    table = slot_table(E, basis.algebra)
    if table is not None:
        resid = 0.0
        for m, _, L, R in _weighted_columns(basis, table):
            G = L @ R
            G[np.diag_indices(d * m)] -= 1
            resid = np.maximum(resid, np.abs(G).reshape(d, m, d, m).max(axis=(1, 3)))
    else:
        adj, resid = _adjoints(basis), np.empty((d, d))
        for k in range(d):  # column k: E(W_j* W_k) for every j
            out = _conjugated(E, basis, adj, [Ws[k] for Ws in stacks])
            for o in out:
                o[k] -= np.eye(o.shape[-1])
            resid[:, k] = np.max([_entry_max(o) for o in out], axis=0)
    return _worst("orthonormality", resid, tol, lambda t: f"pair {divmod(t, d)}")


def verify_reconstruction(
    basis: UnitaryBasis, E, tol: float = RECON_TOL, seed: int = 0, sampler=None
) -> VerificationReport:
    """X = sum_j W_j E(W_j* X) on all matrix units and random operators.

    ``sampler(rng)`` may supply the (label, X) test family instead, for bases
    of a proper subalgebra of the ambient block algebra.  With a compiled E
    and no sampler, one ``_compiled_reconstruction`` sweep gives every
    residual, the random operators drawn in one generator call and streamed
    in batches of at most ``uob.algebra.CHUNK_ENTRIES`` entries.  Otherwise
    each X takes one E call per W_c* X, and sum_c W_c E(W_c* X) is a batched
    matmul summed over c in the per-element loop's order (numpy reorders it
    only on 1 x 1 blocks); one (n, d n) @ (d n, n) product would reorder it
    on every block, which moved tower residuals by 1.2e-15.
    """
    if not basis.d:
        return _report("reconstruction", np.inf, tol, "empty basis", seed=seed)
    alg = basis.algebra
    rng = np.random.default_rng(seed)
    table = slot_table(E, alg)
    if table is not None and sampler is None:
        resid = _compiled_reconstruction(basis, table, alg.random_batches(rng, N_RANDOM, alg.batch_size))
        D = alg.vector_dim  # the matrix units first, then the random draws
        label = lambda k: f"unit {alg.unit_index(k)}" if k < D else f"random {k - D}"
        return _worst("reconstruction", resid, tol, label, seed=seed)
    if sampler is None:
        samples = [(f"unit {lbl}", X) for lbl, X in alg.matrix_units()]
        samples += [(f"random {t}", alg.random(rng)) for t in range(N_RANDOM)]
    else:
        samples = list(sampler(rng))
    if not samples:
        return _report("reconstruction", np.inf, tol, "no test operators", seed=seed)
    adj, resid = _adjoints(basis), np.empty(len(samples))
    for t, (_, X) in enumerate(samples):
        if X.algebra != alg:
            raise AlgebraMismatch("test operator does not belong to the basis's algebra")
        blocks = zip(basis.stacks, _conjugated(E, basis, adj, X.data), X.data)
        resid[t] = np.max([np.abs((Ws @ o).sum(axis=0) - x).max() for Ws, o, x in blocks])  # keeps a NaN
    return _worst("reconstruction", resid, tol, lambda k: samples[k][0], seed=seed)


def _compiled_reconstruction(basis: UnitaryBasis, table, batches) -> np.ndarray:
    """max |sum_c W_c E(W_c* X) - X| for every matrix unit X (matrix_units()
    order), then every X of every (K, n_i, n_i) batch: one ``_weighted_columns`` sweep.

    For the unit e at row a, column s + l of copy (i, s) of sub block j, the
    sum is column x of R @ L (x the row of (i, a) in R) written into column
    s + l of block i.  So every unit (i, a, s..s+m) has the residual
    max_x' |(R @ L - I)[x', x]|.  A non-finite entry anywhere in the basis
    makes every unit residual NaN, as it does in the batched products, where
    it meets the zeros of every unit.  A batch compares each copy's column
    slice of the sum with that slice of X, where it is formed; the copies tile
    every super block's columns, so each entry of X is compared once.
    """
    batches = list(batches)
    units = [np.empty((n, n)) for n in basis.algebra.blocks]
    worst = [[] for _ in batches]
    for m, copies, L, R in _weighted_columns(basis, table):
        F = R @ L
        F[np.diag_indices(len(F))] -= 1
        col, x = np.abs(F).max(axis=0), 0
        for i, s, _ in copies:
            n = len(units[i])
            units[i][:, s : s + m] = col[x : x + n, None]
            x += n
        for w, X in zip(worst, batches):
            # Xcols[(x, a), k, b] = X_k[a, s + b] over the copies (i, s) of the
            # sub block; L @ Xcols gives block j of every E(W_c* X_k), and R @
            # that the column slices of sum_c W_c E(W_c* X_k), copy after copy.
            Xcols = np.concatenate([X[i][:, :, s : s + m] for i, s, _ in copies], axis=1)
            Xcols = Xcols.transpose(1, 0, 2)
            out = (R @ (L @ Xcols.reshape(-1, len(X[0]) * m))).reshape(Xcols.shape)
            w.append(np.abs(out - Xcols).max(axis=(0, 2)))
    if not all(np.isfinite(Ws).all() for Ws in basis.stacks):
        units = [np.full(n * n, np.nan) for n in basis.algebra.blocks]
    return np.concatenate([u.ravel() for u in units] + [np.max(w, axis=0) for w in worst])


def verify_expectation_axioms(
    E, phi: TracialState, tol: float = ORTHO_TOL, seed: int = 0
) -> list[VerificationReport]:
    """Idempotence, unitality, positivity, phi-preservation, and the bimodule law.

    Residuals are folded with numpy, so a NaN or infinite one from any call
    reaches its report and fails it.
    """
    alg = phi.algebra
    rng = np.random.default_rng(seed)
    Xs = [alg.random(rng) for _ in range(N_RANDOM)]

    reports = []
    worst = np.max([(E(E(X)) - E(X)).norm_inf() for X in Xs])
    reports.append(_report("idempotence", worst, tol, seed=seed))

    reports.append(_report("unitality", (E(alg.identity()) - alg.identity()).norm_inf(), tol))

    # E(X* X) must stay positive semidefinite, up to a small negative floor.
    lows = [
        np.min(np.linalg.eigvalsh((blk + blk.conj().T) / 2))
        for X in Xs
        for blk in E(X.adjoint() @ X).data
    ]
    worst_neg = np.minimum(0.0, np.min(lows))
    reports.append(_report("positivity", -worst_neg, -POSITIVITY_FLOOR, seed=seed))

    worst = np.max([abs(phi(E(X)) - phi(X)) for X in Xs])
    reports.append(_report("trace_preservation", worst, TRACE_TOL, seed=seed))

    # E(E(X) Y E(Z)) = E(X) E(Y) E(Z): the range acts as a bimodule.
    worst = 0.0
    for t in range(N_RANDOM):
        X, Y, Z = (alg.random(rng) for _ in range(3))
        lhs = E(E(X) @ Y @ E(Z))
        rhs = E(X) @ E(Y) @ E(Z)
        worst = np.maximum(worst, (lhs - rhs).norm_inf())
    reports.append(_report("bimodule", worst, tol, seed=seed))
    return reports


def verify_trace_conditions(
    spec: InclusionSpec, E=None, tol: float = TRACE_TOL
) -> list[VerificationReport]:
    """Exact integer trace conditions plus trace preservation of E.

    Checks A^t n = d m and sum n_i^2 = d sum m_j^2 in integer arithmetic, and
    that E preserves the tracial state with trace vector n on matrix units,
    batch by batch: on the sum n_i diagonal units through the slot table of a
    compiled E, otherwise on all sum n_i^2 units with one E call per unit.
    """
    A, m, n = spec.inclusion_matrix, spec.sub_dims, spec.super_dims
    d = spectral_d(spec)
    ok = d is not None
    Atn = [sum(A[i][j] * n[i] for i in range(spec.s)) for j in range(spec.r)]
    reports = [_report("integer_eigenvector", 0.0 if ok else 1.0, 0.5, f"A^t n = {Atn}")]

    quad = ok and sum(x * x for x in n) == d * sum(x * x for x in m)
    reports.append(_report("quadratic_identity", 0.0 if quad else 1.0, 0.5))

    if E is None:
        E = markov_expectation(spec)
    alg = spec.super_algebra
    phi = TracialState(alg, n)
    table = slot_table(E, alg)
    # SlotTable.apply copies square slots X_i[S, S] onto square slots, so it
    # maps an off-diagonal unit to an operator whose diagonal entries are all
    # exactly 0 (a finite q times 0, summed).  Both traces are then exactly
    # 0.0, and so is that unit's residual: the diagonal units alone give the
    # same maximum, bit for bit.  Any other E is tested on every unit.
    apply = table.apply if table is not None else functools.partial(apply_each, E, alg)
    units = alg.unit_batches(alg.batch_size, diagonal=table is not None)
    resid = np.concatenate([np.abs(phi.batch(apply(X)) - phi.batch(X)) for X in units])
    reports.append(_report("markov_preservation", np.max(resid), tol))
    return reports


def verify_necessary_conditions(
    basis: UnitaryBasis, E=None, tol: float = ORTHO_TOL
) -> list[VerificationReport]:
    """Necessary conditions a unitary orthonormal basis forces on its inclusion.

    Checks that the family really is orthonormal under E, that its size equals
    the integer eigenvalue d from A^t n = d m, the exact quadratic identity
    sum n_i^2 = d sum m_j^2, and that E preserves the trace with vector n.
    """
    spec = basis.spec
    if spec is None:
        raise NoExpectation("necessary-condition checks need an inclusion spec")
    if E is None:
        E = markov_expectation(spec)
    reports = [verify_unitary(basis), verify_orthonormality(basis, E, tol)]
    reports.extend(verify_trace_conditions(spec, E))
    reports.append(_cardinality_report(spec, basis))
    return reports


def _cardinality_report(spec: InclusionSpec, basis: UnitaryBasis) -> VerificationReport:
    """Basis size must equal the integer d with A^t n = d m."""
    d = spectral_d(spec)
    mismatch = 0.0 if d is not None and basis.d == d else 1.0
    return _report("cardinality", mismatch, 0.5, f"d = {basis.d}, expected {d}")


def verify_basis(
    basis: UnitaryBasis, E=None, seed: int = 0, recon_tol: float = RECON_TOL
) -> list[VerificationReport]:
    """Full certificate for a basis: structural checks plus the trace conditions.

    NaN or infinite entries give non-finite residuals, which fail; numpy's
    warnings about them are silenced here.
    """
    if E is None:
        if basis.spec is None:
            raise NoExpectation("no expectation given and the basis carries no spec")
        E = markov_expectation(basis.spec)
    with np.errstate(invalid="ignore", over="ignore"):
        reports = [
            verify_unitary(basis),
            verify_orthonormality(basis, E),
            verify_reconstruction(basis, E, tol=recon_tol, seed=seed),
        ]
    if basis.spec is not None:
        reports.extend(verify_trace_conditions(basis.spec, E))
        reports.append(_cardinality_report(basis.spec, basis))
    return reports


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
