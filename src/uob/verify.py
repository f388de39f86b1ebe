"""Independent numerical checks for bases, expectations, and the trace conditions.

Every check of a basis takes a compiled expectation E: one that carries the
``SlotTable`` of ``conditional_expectation`` (``E.slots``), or the tower's
``partial(dual_expectation, bc)``, read as the compiled Markov E of
``bc.gns_spec`` that it calls.  An E without a table (a plain callable) is a
``NoExpectation``, raised before E is called; a table on another algebra is
an ``AlgebraMismatch``.  ``verify_expectation_axioms`` alone calls E, on one
block operator at a time.  All checks work on the basis's per-block
(d, n_i, n_i) stacks: unitarity forms its products in chunks of each block's
own size, E is applied as matrix products over the stacks, and one sweep of
the sub blocks gives every reconstruction residual, a sampler's test
operators included.  A compiled E preserves the trace on every off-diagonal
matrix unit exactly (both traces are 0.0), so trace preservation runs it on
the sum n_i diagonal units only.  A residual that is NaN or infinite fails.
Every check holds its residual to a pinned constant below; reconstruction
alone takes a tolerance from its caller (``--tol``,
``verify_basis(recon_tol=)``).  The per-operand reference that calls E once
per column or test operator is in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .algebra import CHUNK_ENTRIES, TracialState
from .bases import UnitaryBasis
from .errors import AlgebraMismatch, NoExpectation
from .expectation import conditional_expectation, markov_expectation
from .inclusion import InclusionSpec, _atn, markov_trace, spectral_d
from .tower import dual_expectation

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


def _slot_table(E, alg):
    """The compiled ``SlotTable`` that E applies: ``E.slots`` (read from E's
    attributes, so it survives wrappers that copy them), where
    ``partial(dual_expectation, bc)`` is read as the compiled Markov E of
    ``bc.gns_spec`` that it calls (``bc._E``).  No table is a
    ``NoExpectation`` and a table on another algebra an ``AlgebraMismatch``;
    E is never called."""
    if isinstance(E, partial) and E.func is dual_expectation and len(E.args) == 1 and not E.keywords:
        E = E.args[0]._E
    table = getattr(E, "slots", None)
    if table is None:
        raise NoExpectation("the expectation carries no compiled slot table: use conditional_expectation, "
                            "markov_expectation or partial(dual_expectation, bc)")
    if table.spec.super_dims != alg.blocks:
        raise AlgebraMismatch("expectation and basis live on different algebras")
    return table


def _entry_max(stack: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each matrix in a (..., n, n) stack."""
    return np.abs(stack).max(axis=(-2, -1))


def _weighted_columns(basis: UnitaryBasis, table):
    """Per sub block j: (m_j, copies, L, R) with L @ R the Gram matrix of E.

    R stacks the column slices W[:, :, S] of every copy S of block j along
    rows x, with columns (b, l); L is the conjugate transpose of R with each
    row weighted by the q_ij of its copy. So (L @ R)[(a, k), (b, l)] is entry
    (k, l) of block j of E(W_a* W_b).
    """
    d, stacks = basis.d, basis.stacks
    for m, copies in zip(table.spec.sub_dims, table.slots):
        # two arrays of the basis's size at the peak: each slice is concatenated
        # as (rows, d, m), so R's reshape is a view, and L is conjugated in place
        R = np.concatenate([stacks[i][:, :, s : s + m].transpose(1, 0, 2) for i, s, _ in copies])
        R = R.reshape(-1, d * m)
        q_rows = np.repeat([q for _, _, q in copies], [stacks[i].shape[-1] for i, _, _ in copies])
        L = q_rows[:, None] * R
        L = np.conj(L, out=L).T
        yield m, copies, L, R


def verify_unitary(basis: UnitaryBasis) -> VerificationReport:
    """Every element satisfies W W* = W* W = I within ``UNITARY_TOL``: products
    in chunks of each block's own size."""
    if not basis.d:
        return _report("unitary", np.inf, UNITARY_TOL, "empty basis")
    resid = np.zeros(basis.d)
    for Ws in basis.stacks:
        n = Ws.shape[-1]
        I, size = np.eye(n), max(1, CHUNK_ENTRIES // (n * n))
        for lo in range(0, basis.d, size):
            W = Ws[lo : lo + size]
            Wh = W.conj().swapaxes(-1, -2)
            r = np.maximum(_entry_max(W @ Wh - I), _entry_max(Wh @ W - I))
            resid[lo : lo + size] = np.maximum(resid[lo : lo + size], r)
    return _worst("unitary", resid, UNITARY_TOL, lambda j: f"element {j}")


def verify_orthonormality(basis: UnitaryBasis, E) -> VerificationReport:
    """E(W_j* W_k) = delta_jk I for the given expectation, within ``ORTHO_TOL``.

    The residual is the largest entry of any E(W_j* W_k) - delta_jk I, so a
    defect spread over many basis directions moves it little: W_0 -> W_0
    exp(i delta H), H a random Hermitian of norm 1, moves it by only about
    0.05 delta on the tower basis of C in M_5 (d = 25)."""
    if not basis.d:
        return _report("orthonormality", np.inf, ORTHO_TOL, "empty basis")
    d, resid = basis.d, 0.0
    for m, _, L, R in _weighted_columns(basis, _slot_table(E, basis.algebra)):
        G = L @ R
        G[np.diag_indices(d * m)] -= 1
        # the m x m pair axes led, so the max runs over whole (d, d) planes
        pairs = np.abs(G).reshape(d, m, d, m).transpose(1, 3, 0, 2).reshape(m * m, d, d)
        resid = np.maximum(resid, pairs.max(axis=0))
    return _worst("orthonormality", resid, ORTHO_TOL, lambda t: f"pair {divmod(t, d)}")


def verify_reconstruction(
    basis: UnitaryBasis, E, tol: float = RECON_TOL, seed: int = 0, sampler=None
) -> VerificationReport:
    """X = sum_j W_j E(W_j* X) on all matrix units and random operators.

    ``sampler(rng)`` may supply the (label, X) test family instead, for bases
    of a proper subalgebra of the ambient block algebra.  Without a sampler,
    one ``_compiled_reconstruction`` sweep gives every residual, the random
    operators drawn in one generator call and streamed in batches of at most
    ``uob.algebra.CHUNK_ENTRIES`` entries.  With one, every test operator's
    algebra is checked first, and the operators then go through that sweep's
    batch half (the ambient matrix units may lie outside the algebra the
    sampler spans), each batch of at most ``batch_size`` operators stacked
    only when it is checked.
    """
    if not basis.d:
        return _report("reconstruction", np.inf, tol, "empty basis", seed=seed)
    alg = basis.algebra
    rng = np.random.default_rng(seed)
    table = _slot_table(E, alg)
    if sampler is None:
        resid = _compiled_reconstruction(basis, table, alg.random_batches(rng, N_RANDOM, alg.batch_size))
        D = alg.vector_dim  # the matrix units first, then the random draws
        label = lambda k: f"unit {alg.unit_index(k)}" if k < D else f"random {k - D}"
        return _worst("reconstruction", resid, tol, label, seed=seed)
    samples = list(sampler(rng))
    if not samples:
        return _report("reconstruction", np.inf, tol, "no test operators", seed=seed)
    if any(X.algebra != alg for _, X in samples):
        raise AlgebraMismatch("test operator does not belong to the basis's algebra")
    size, columns = alg.batch_size, list(_weighted_columns(basis, table))
    resid = np.empty(len(samples))
    for lo in range(0, len(samples), size):
        ops = [X.data for _, X in samples[lo : lo + size]]
        resid[lo : lo + len(ops)] = _batch_residuals(columns, [np.stack(b) for b in zip(*ops)])
    return _worst("reconstruction", resid, tol, lambda k: samples[k][0], seed=seed)


def _compiled_reconstruction(basis: UnitaryBasis, table, batches) -> np.ndarray:
    """max |sum_c W_c E(W_c* X) - X| for every matrix unit X (matrix_units()
    order), then every X of every (K, n_i, n_i) batch: one ``_weighted_columns``
    sweep, the batches read one at a time by ``_batch_residuals``.

    For the unit e at row a, column s + l of copy (i, s) of sub block j, the
    sum is column x of R @ L (x the row of (i, a) in R) written into column
    s + l of block i.  So every unit (i, a, s..s+m) has the residual
    max_x' |(R @ L - I)[x', x]|.  A non-finite entry anywhere in the basis
    makes every unit residual NaN, as it does in the batched products, where
    it meets the zeros of every unit.
    """
    columns = list(_weighted_columns(basis, table))
    units = [np.empty((n, n)) for n in basis.algebra.blocks]
    for m, copies, L, R in columns:
        F = R @ L
        F[np.diag_indices(len(F))] -= 1
        col, x = np.abs(F).max(axis=0), 0
        for i, s, _ in copies:
            n = len(units[i])
            units[i][:, s : s + m] = col[x : x + n, None]
            x += n
    if not all(np.isfinite(Ws).all() for Ws in basis.stacks):
        units = [np.full(n * n, np.nan) for n in basis.algebra.blocks]
    return np.concatenate([u.ravel() for u in units] + [_batch_residuals(columns, X) for X in batches])


def _batch_residuals(columns, X) -> np.ndarray:
    """max |sum_c W_c E(W_c* X_k) - X_k| for every X_k of one batch, X[i] the
    (K, n_i, n_i) stack of block i and ``columns`` the ``_weighted_columns``.

    Each copy's column slice of the sum is compared with that slice of X,
    where it is formed; the copies tile every super block's columns, so each
    entry of X is compared once.
    """
    worst = []
    for m, copies, L, R in columns:
        # Xcols[(x, a), k, b] = X_k[a, s + b] over the copies (i, s) of the
        # sub block; L @ Xcols gives block j of every E(W_c* X_k), and R @
        # that the column slices of sum_c W_c E(W_c* X_k), copy after copy.
        Xcols = np.concatenate([X[i][:, :, s : s + m] for i, s, _ in copies], axis=1)
        Xcols = Xcols.transpose(1, 0, 2)
        out = (R @ (L @ Xcols.reshape(-1, len(X[0]) * m))).reshape(Xcols.shape)
        out -= Xcols
        worst.append(np.abs(out).max(axis=0).max(axis=1))
    return np.max(worst, axis=0)  # keeps a NaN


def verify_expectation_axioms(E, phi: TracialState, seed: int = 0) -> list[VerificationReport]:
    """Idempotence, unitality, positivity, phi-preservation, and the bimodule law.

    Positivity is held to ``POSITIVITY_FLOOR``, phi-preservation to
    ``TRACE_TOL`` and the other three to ``ORTHO_TOL``.

    Residuals are folded with numpy, so a NaN or infinite one from any call
    reaches its report and fails it.
    """
    alg = phi.algebra
    rng = np.random.default_rng(seed)
    Xs = [alg.random(rng) for _ in range(N_RANDOM)]

    reports = []
    worst = np.max([(E(E(X)) - E(X)).norm_inf() for X in Xs])
    reports.append(_report("idempotence", worst, ORTHO_TOL, seed=seed))

    reports.append(_report("unitality", (E(alg.identity()) - alg.identity()).norm_inf(), ORTHO_TOL))

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
    reports.append(_report("bimodule", worst, ORTHO_TOL, seed=seed))
    return reports


def verify_trace_conditions(spec: InclusionSpec, E=None) -> list[VerificationReport]:
    """The exact integer condition plus trace preservation of E.

    Checks A^t n = d m in integer arithmetic (sum n_i^2 = d sum m_j^2
    follows from it, as n = A m), and that E (by default the Markov E) preserves
    ``markov_trace(spec)`` on matrix units within ``TRACE_TOL``, batch by batch:
    on the sum n_i diagonal units through the slot table of the compiled E.
    """
    ok = spectral_d(spec) is not None
    reports = [_report("integer_eigenvector", 0.0 if ok else 1.0, 0.5, f"A^t n = {_atn(spec)}")]

    alg, phi = spec.super_algebra, markov_trace(spec)
    table = _slot_table(conditional_expectation(spec, phi) if E is None else E, alg)
    # SlotTable.apply copies square slots X_i[S, S] onto square slots, so it
    # maps an off-diagonal unit to an operator whose diagonal entries are all
    # exactly 0 (a finite q times 0, summed).  Both traces are then exactly
    # 0.0, and so is that unit's residual: the diagonal units alone give the
    # maximum over all units, bit for bit.
    units = alg.unit_batches(alg.batch_size, diagonal=True)
    resid = np.concatenate([np.abs(phi.batch(table.apply(X)) - phi.batch(X)) for X in units])
    reports.append(_report("markov_preservation", np.max(resid), TRACE_TOL))
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

    ``recon_tol`` moves the reconstruction tolerance; every other check keeps
    its pinned constant.  NaN or infinite entries give non-finite residuals, which fail; numpy's
    warnings about them are silenced here.  A basis without a spec, which has
    no trace conditions and needs its own test family, raises ``NoExpectation``.
    """
    if basis.spec is None:
        raise NoExpectation("a basis without a spec gets no certificate: use verify_unitary, "
                            "verify_orthonormality and verify_reconstruction(sampler=)")
    E = markov_expectation(basis.spec) if E is None else E
    with np.errstate(invalid="ignore", over="ignore"):
        reports = [
            verify_unitary(basis),
            verify_orthonormality(basis, E),
            verify_reconstruction(basis, E, tol=recon_tol, seed=seed),
        ]
    return reports + verify_trace_conditions(basis.spec, E) + [_cardinality_report(basis.spec, basis)]


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
