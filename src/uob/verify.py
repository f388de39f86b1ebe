"""Independent numerical checks for bases, expectations, and the trace conditions.

Every checker takes an expectation as a plain callable E mapping a block
operator to a block operator of the same algebra (embedded form), so the
same code verifies both multi-matrix inclusions and concrete
basic-construction models.  All checks work on the basis's per-block
(d, n_i, n_i) stacks.  When E carries the compiled slot table of
``markov_expectation``, E itself is applied as matrix products over the
stacks; any other E (the tower's Gram projector, a plain callable) goes
through ``uob.expectation.apply_each``, which calls it exactly once per
operand: d^2 times for orthonormality, d times per test operator for
reconstruction and once per matrix unit for trace preservation, with every
product around those calls formed as a batched matmul; reconstruction forms
all W_c* X of a block as one product against the adjoint stack, laid out
once per call.  No linearity of E is assumed on that path, which is the
reference the compiled checks are tested against.  A reconstruction check
given its own test family (a ``sampler``) always takes it.  A compiled E
preserves the trace on every off-diagonal matrix unit exactly (both traces
are 0.0), so trace preservation runs it on the sum n_i diagonal units only.
A residual that is NaN or infinite fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import TracialState
from .bases import UnitaryBasis
from .errors import AlgebraMismatch, NoExpectation
from .expectation import apply_each, batched, markov_expectation, slot_table
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
    for m, copies in zip(table.sub_dims, table.slots):
        cols = [stacks[i][:, :, start : start + m] for i, start, _ in copies]
        R = np.concatenate(cols, axis=1).transpose(1, 0, 2).reshape(-1, d * m)
        L = np.concatenate([q * c for c, (_, _, q) in zip(cols, copies)], axis=1)
        L = L.conj().transpose(0, 2, 1).reshape(d * m, -1)
        yield m, copies, L, R


def verify_unitary(basis: UnitaryBasis, tol: float = UNITARY_TOL) -> VerificationReport:
    """Every element satisfies W W* = W* W = I."""
    if not basis.d:
        return _report("unitary", np.inf, tol, "empty basis")
    size = basis.algebra.batch_size
    resid = np.zeros(basis.d)
    for Ws in basis.stacks:
        I = np.eye(Ws.shape[-1])
        for lo in range(0, basis.d, size):
            W = Ws[lo : lo + size]
            Wh = W.conj().swapaxes(-1, -2)
            r = np.maximum(_entry_max(W @ Wh - I), _entry_max(Wh @ W - I))
            resid[lo : lo + size] = np.maximum(resid[lo : lo + size], r)
    return _worst("unitary", resid, tol, lambda j: f"element {j}")


def verify_orthonormality(basis: UnitaryBasis, E, tol: float = ORTHO_TOL) -> VerificationReport:
    """E(W_j* W_k) = delta_jk I for the given expectation."""
    if not basis.d:
        return _report("orthonormality", np.inf, tol, "empty basis")
    d, alg, stacks = basis.d, basis.algebra, basis.stacks
    table = slot_table(E, alg)
    if table is not None:
        resid = 0.0
        for m, _, L, R in _weighted_columns(basis, table):
            G = L @ R
            G[np.diag_indices(d * m)] -= 1
            resid = np.maximum(resid, np.abs(G).reshape(d, m, d, m).max(axis=(1, 3)))
    else:
        resid = np.empty((d, d))
        for j in range(d):
            # every W_j* W_k in one batched matmul per block, then E on each
            out = apply_each(E, alg, [Ws[j].conj().T @ Ws for Ws in stacks])
            row = 0.0
            for o in out:
                o[j] -= np.eye(o.shape[-1])
                row = np.maximum(row, _entry_max(o))
            resid[j] = row
    return _worst("orthonormality", resid, tol, lambda t: f"pair {divmod(t, d)}")


def verify_reconstruction(
    basis: UnitaryBasis, E, tol: float = RECON_TOL, seed: int = 0, sampler=None
) -> VerificationReport:
    """X = sum_j W_j E(W_j* X) on all matrix units and random operators.

    ``sampler(rng)`` may supply the (label, X) test family instead, for bases
    of a proper subalgebra of the ambient block algebra; it is checked with
    one E call per W_c* X.  Otherwise, with a compiled E, the matrix units are
    read off one product per sub block (see ``_unit_residuals``) and the
    random operators, drawn in one generator call, are streamed in batches of
    at most ``uob.algebra.CHUNK_ENTRIES`` entries.
    """
    if not basis.d:
        return _report("reconstruction", np.inf, tol, "empty basis", seed=seed)
    alg = basis.algebra
    rng = np.random.default_rng(seed)
    table = slot_table(E, alg)
    if sampler is not None:
        samples = list(sampler(rng))
    elif table is None:
        samples = [(f"unit {lbl}", X) for lbl, X in alg.matrix_units()]
        samples += [(f"random {t}", alg.random(rng)) for t in range(N_RANDOM)]
    else:
        parts = list(_weighted_columns(basis, table))
        randoms = alg.random_batches(rng, N_RANDOM, alg.batch_size)
        resid = np.concatenate([_unit_residuals(basis, parts), _stacked_reconstruction(parts, randoms)])
        D = alg.vector_dim  # the matrix units first, then the random draws
        label = lambda k: f"unit {alg.unit_index(k)}" if k < D else f"random {k - D}"
        return _worst("reconstruction", resid, tol, label, seed=seed)
    resid = _generic_reconstruction(basis, E, [X for _, X in samples])
    return _worst("reconstruction", resid, tol, lambda k: samples[k][0], seed=seed)


def _generic_reconstruction(basis: UnitaryBasis, E, Xs) -> np.ndarray:
    """max |sum_c W_c E(W_c* X) - X| for every X, one E call per W_c* X.

    Every W_c* of a block is laid out once, as the rows of one (d n, n) array,
    so all W_c* X of a block are one (d n, n) @ (n, n) product.  The
    W_c E(W_c* X) are one batched matmul per block, summed over c in the order
    the per-element loop adds them (numpy reorders it only on 1 x 1 blocks).
    One (n, d n) @ (d n, n) product for that sum would be faster but reorders
    it on every block, which moved tower residuals by 1.2e-15.
    """
    alg, stacks = basis.algebra, basis.stacks
    adj = []
    for Ws in stacks:
        H = np.empty(Ws.shape, dtype=complex)  # conjugated straight into the layout: one stack
        np.conjugate(Ws.swapaxes(-1, -2), out=H)
        adj.append(H.reshape(-1, H.shape[-1]))
    resid = np.empty(len(Xs))
    for t, X in enumerate(Xs):
        if X.algebra != alg:
            raise AlgebraMismatch("test operator does not belong to the basis's algebra")
        out = apply_each(E, alg, [(H @ x).reshape(Ws.shape) for H, Ws, x in zip(adj, stacks, X.data)])
        r = 0.0
        for Ws, o, x in zip(stacks, out, X.data):
            r = np.maximum(r, np.abs((Ws @ o).sum(axis=0) - x).max())
        resid[t] = r
    return resid


def _unit_residuals(basis: UnitaryBasis, parts) -> np.ndarray:
    """max |sum_c W_c E(W_c* e) - e| for every matrix unit e, in matrix_units() order.

    For the unit e at row a, column s + l of copy (i, s) of sub block j, the
    sum is column x of R @ L (x the row of (i, a) in R) written into column
    s + l of block i.  So every unit (i, a, s..s+m) has the residual
    max_x' |(R @ L - I)[x', x]|.  A non-finite entry anywhere in the basis
    makes every residual NaN, as it does in the batched products, where it
    meets the zeros of every unit.
    """
    if not all(np.isfinite(Ws).all() for Ws in basis.stacks):
        return np.full(basis.algebra.vector_dim, np.nan)
    out = [np.empty((n, n)) for n in basis.algebra.blocks]
    for m, copies, L, R in parts:
        F = R @ L
        F[np.diag_indices(len(F))] -= 1
        col = np.abs(F).max(axis=0)
        x = 0
        for i, s, _ in copies:
            n = len(out[i])
            out[i][:, s : s + m] = col[x : x + n, None]
            x += n
    return np.concatenate([o.ravel() for o in out])


def _stacked_reconstruction(parts, batches) -> np.ndarray:
    """max |sum_c W_c E(W_c* X) - X| for every X of every (K, n_i, n_i) batch,
    with ``parts`` the sub blocks' ``_weighted_columns``.

    Each copy's column slice of the sum is compared with the same slice of X
    where it is formed; the copies tile the columns of every super block, so
    every entry of X is compared exactly once.
    """
    resid = []
    for X in batches:
        K, worst = len(X[0]), []
        for m, copies, L, R in parts:
            # Xcols[(x, a), k, b] = X_k[a, s + b] over the copies (i, s) of the
            # sub block; L @ Xcols gives block j of every E(W_c* X_k), and R @
            # that the column slices of sum_c W_c E(W_c* X_k), copy after copy.
            Xcols = np.concatenate([X[i][:, :, s : s + m] for i, s, _ in copies], axis=1)
            Xcols = Xcols.transpose(1, 0, 2)
            out = (R @ (L @ Xcols.reshape(-1, K * m))).reshape(Xcols.shape)
            worst.append(np.abs(out - Xcols).max(axis=(0, 2)))
        resid.append(np.max(worst, axis=0))
    return np.concatenate(resid)


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
    apply = batched(E, alg)
    # SlotTable.apply copies square slots X_i[S, S] onto square slots, so it
    # maps an off-diagonal unit to an operator whose diagonal entries are all
    # exactly 0 (a finite q times 0, summed).  Both traces are then exactly
    # 0.0, and so is that unit's residual: the diagonal units alone give the
    # same maximum, bit for bit.  Any other E is tested on every unit.
    units = alg.unit_batches(alg.batch_size, diagonal=slot_table(E, alg) is not None)
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
