"""A sensitivity gauge for the verifier: equivalence moves pass, small defects fail.

A unitary orthonormal basis of B in A stays one under W_k -> u W_sigma(k) b_k,
for u a unitary of A, b_k unitaries of B (embedded) and sigma a permutation,
since E is B-bimodular: E(b_j* W_j* u* u W_k b_k) = b_j* E(W_j* W_k) b_k.
Those moves must pass every check, with every residual at most 1e-13.  Two
defects ten times the pinned tolerances must fail: W_0 -> W_0 exp(i delta H),
with H a seeded Hermitian element of A of norm 1 not in B, keeps W_0 unitary
and must fail orthonormality; one seeded entry moved by delta must fail
unitarity.  A compiled E with one slot weight q_ij scaled by 1 + delta is no
longer a trace-preserving expectation: each catalog basis must fail
orthonormality, reconstruction and Markov preservation against it, and each
tower basis orthonormality and the sampled reconstruction.

The catalog bases, the benchmark ladder's inclusions under every method that
builds them, and C in C^100 run under their compiled Markov E.  The
benchmark's tower bases (A in A_1) run against the dual expectation and the
generated-algebra sampler, with A_1 in the role of A and left_rep(A) in that
of B, as ``partial(dual_expectation, bc)``, which verify reads as its
compiled Markov E.  A random H of norm 1 spreads over all d directions: on
C in M_10 and C in C^100 (d = 100) it moves the residual by only 0.06 to 0.13
delta, so the ladder, C in C^100 and the tower rotate along one basis
direction instead.
"""

import functools

import numpy as np
import pytest

from uob.bases import METHODS, UnitaryBasis, construct
from uob.catalog import catalog_names, catalog_spec
from uob.errors import UobError
from uob.expectation import SlotTable, markov_expectation
from uob.inclusion import InclusionSpec, embed_batch
from uob.tower import basic_construction_basis, build_basic_construction, dual_expectation, generated_algebra_sampler
from uob.verify import (
    verify_basis,
    verify_orthonormality,
    verify_reconstruction,
    verify_unitary,
)

MOVE_TOL = 1e-13
# ten times the pinned ORTHO_TOL and UNITARY_TOL (1e-9), written out, so that a
# loosened tolerance fails the gauge instead of moving the defects with it
ROTATION = 1e-8
ENTRY_MOVE = 1e-8
# one slot weight q_ij scaled by 1 + 1e-8, ten times ORTHO_TOL, written out too
SLOT_WEIGHT = 1e-8

# the inclusions whose basic construction the benchmark's tower workload builds
TOWER = {
    "c_in_m5": ([[5]], [1]),
    "c_in_m2_plus_m3": ([[2], [3]], [1]),
    "c_in_m1_m1_m2": ([[1], [1], [2]], [1]),
    "c2_in_m2_plus_m2": ([[1, 1], [1, 1]], [1, 1]),
    "c3_in_m3": ([[1, 1, 1]], [1, 1, 1]),
}


def _catalog_cases():
    for name in catalog_names():
        try:
            yield name, construct(catalog_spec(name), "auto")
        except UobError:
            pass


CATALOG = dict(_catalog_cases())

# the benchmark ladder's inclusions
LADDER = {
    "c_in_m6": ([[6]], [1]),
    "c_in_m8": ([[8]], [1]),
    "c_in_m10": ([[10]], [1]),
    "m3_in_m6_plus_m9": ([[2], [3]], [3]),
    "m1_m2_m3_in_m14": ([[1, 2, 3]], [1, 2, 3]),
    "m2_m2_in_m4_m4": ([[1, 1], [1, 1]], [2, 2]),
    "m3_m4_in_m25": ([[3, 4]], [3, 4]),
}


def _ladder_cases():
    for name, (A, m) in LADDER.items():
        for method in METHODS:
            try:
                yield f"{name}-{method}", construct(InclusionSpec.from_matrix(A, m), method)
            except UobError:
                pass


LADDER_BASES = dict(_ladder_cases())


def _unitaries(blocks, rng, count):
    """``count`` random unitaries of the algebra with these blocks, as one
    (count, n, n) stack per block: the Q of a complex Gaussian's QR."""
    return [
        np.linalg.qr(rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))[0]
        for n in blocks
    ]


def _unit_norm_hermitian(X):
    """The Hermitian part of the block stacks X, scaled to operator norm 1."""
    H = [(x + x.conj().swapaxes(-1, -2)) / 2 for x in X]
    return [h / max(np.abs(np.linalg.eigvalsh(h)).max() for h in H) for h in H]


def _moved(basis, u, b, sigma):
    """W_k -> u W_sigma(k) b_k on every block: u one unitary, b a stack of d."""
    stacks = tuple(ui @ Ws[sigma] @ bi for ui, Ws, bi in zip(u, basis.stacks, b))
    return UnitaryBasis(basis.spec, stacks, "moved")


def _rotated(basis, H, delta):
    """W_0 -> W_0 exp(i delta H), exp taken blockwise through H's eigenvectors."""
    stacks = [Ws.copy() for Ws in basis.stacks]
    for Ws, h in zip(stacks, H):
        lam, V = np.linalg.eigh(h)
        Ws[0] = Ws[0] @ (V * np.exp(1j * delta * lam)) @ V.conj().T
    return UnitaryBasis(basis.spec, tuple(stacks), "rotated")


def _entry_moved(basis, rng, delta):
    """One seeded entry w moved by delta, radially (by delta when w = 0)."""
    stacks = [Ws.copy() for Ws in basis.stacks]
    i = int(rng.integers(len(stacks)))
    j, a, c = (int(rng.integers(k)) for k in stacks[i].shape)
    w = stacks[i][j, a, c]
    stacks[i][j, a, c] = w + delta * (w / abs(w) if w else 1)
    return UnitaryBasis(basis.spec, tuple(stacks), "entry")


def _catalog_moves(spec, d, rng):
    """u in U(A), b_k in U(B) embedded, sigma: the equivalence move's parts."""
    u = [U[0] for U in _unitaries(spec.super_dims, rng, 1)]
    b = embed_batch(spec, _unitaries(spec.sub_dims, rng, d))
    return u, b, rng.permutation(d)


def _directed_hermitian(basis, rng):
    """A Hermitian element of A of norm 1, along one basis direction: the
    Hermitian part of W_0* W_s b for a seeded s != 0 and a random unitary b of
    B, embedded, so that W_0 H has a part of order 1 along W_s b."""
    s = int(rng.integers(1, basis.d))
    b = embed_batch(basis.spec, _unitaries(basis.spec.sub_dims, rng, 1))
    return _unit_norm_hermitian([Ws[0].conj().T @ Ws[s] @ bi[0] for Ws, bi in zip(basis.stacks, b)])


def _assert_moves_pass(name, basis, E, rounds):
    rng = np.random.default_rng(1)
    for _ in range(rounds):
        moved = _moved(basis, *_catalog_moves(basis.spec, basis.d, rng))
        for r in verify_basis(moved, E, seed=2):
            assert r.passed and r.residual <= MOVE_TOL, (name, r)


def _assert_directed_defects_fail(name, basis, E, rounds):
    rng = np.random.default_rng(3)
    for _ in range(rounds):
        rotated = _rotated(basis, _directed_hermitian(basis, rng), ROTATION)
        assert verify_unitary(rotated).passed, name
        assert not verify_orthonormality(rotated, E).passed, name
        assert not verify_unitary(_entry_moved(basis, rng, ENTRY_MOVE)).passed, name


def _tower(name):
    """bc, its basis, the dual expectation and the sampler."""
    bc = build_basic_construction(InclusionSpec.from_matrix(*TOWER[name]))
    b1 = basic_construction_basis(bc, construct(bc.spec, "auto"))
    return bc, b1, functools.partial(dual_expectation, bc), generated_algebra_sampler(bc)


def _tower_unitary(bc, rng):
    """A unitary of A_1 = <L(A), e1>: L(v) times I + (z - 1) e1, |z| = 1."""
    v = bc.left_reps(_unitaries(bc.spec.super_dims, rng, 1))[0]
    z = np.exp(2j * np.pi * rng.random())
    return v @ (np.eye(bc.gns_dim) + (z - 1) * bc.e1)


def _tower_hermitian(bc, b1, rng):
    """A Hermitian element of A_1 of norm 1, off L(A): the Hermitian part of
    W_s L(v) for a seeded s != 0 and a random unitary v of A.  It lies along
    one basis direction, so its rotation moves some E(W_0* W_k) by order
    delta; a fully random H of norm 1 spreads over all d directions of M_D,
    and on C in M_5 (D = 25) moves the residual by only 0.05 delta."""
    s = int(rng.integers(1, b1.d))
    v = bc.left_reps(_unitaries(bc.spec.super_dims, rng, 1))[0]
    return _unit_norm_hermitian([b1.stacks[0][s] @ v])


def _tower_reports(b, E, sampler, seed):
    return [
        verify_unitary(b),
        verify_orthonormality(b, E),
        verify_reconstruction(b, E, seed=seed, sampler=sampler),
    ]


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_equivalence_moves_pass(name):
    _assert_moves_pass(name, CATALOG[name], None, rounds=3)


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_small_defects_fail(name):
    basis = CATALOG[name]
    rng = np.random.default_rng(3)
    for _ in range(3):
        H = _unit_norm_hermitian(basis.algebra.random(rng).data)
        rotated = _rotated(basis, H, ROTATION)
        assert verify_unitary(rotated).passed, name
        assert not verify_orthonormality(rotated, markov_expectation(basis.spec)).passed, name
        assert not verify_unitary(_entry_moved(basis, rng, ENTRY_MOVE)).passed, name


@pytest.mark.parametrize("name", LADDER_BASES)
def test_ladder_equivalence_moves_pass(name):
    _assert_moves_pass(name, LADDER_BASES[name], None, rounds=3)


@pytest.mark.parametrize("name", LADDER_BASES)
def test_ladder_small_defects_fail(name):
    basis = LADDER_BASES[name]
    _assert_directed_defects_fail(name, basis, markov_expectation(basis.spec), rounds=3)


def _wide():
    basis = construct(InclusionSpec.from_matrix([[1]] * 100, [1]), "auto")
    return basis, markov_expectation(basis.spec)


def test_wide_equivalence_moves_pass():
    _assert_moves_pass("c_in_c100", *_wide(), rounds=2)


def test_wide_small_defects_fail():
    _assert_directed_defects_fail("c_in_c100", *_wide(), rounds=2)


@pytest.mark.parametrize("name", TOWER)
def test_tower_equivalence_moves_pass(name):
    bc, b1, E1, sampler = _tower(name)
    rng = np.random.default_rng(4)
    for _ in range(2):
        u = [_tower_unitary(bc, rng)]
        b = [bc.left_reps(_unitaries(bc.spec.super_dims, rng, b1.d))]
        moved = _moved(b1, u, b, rng.permutation(b1.d))
        for r in _tower_reports(moved, E1, sampler, seed=5):
            assert r.passed and r.residual <= MOVE_TOL, (name, r)


@pytest.mark.parametrize("name", TOWER)
def test_tower_small_defects_fail(name):
    bc, b1, E1, _ = _tower(name)
    rng = np.random.default_rng(6)
    for _ in range(2):
        rotated = _rotated(b1, _tower_hermitian(bc, b1, rng), ROTATION)
        assert verify_unitary(rotated).passed, name
        assert not verify_orthonormality(rotated, E1).passed, name
        assert not verify_unitary(_entry_moved(b1, rng, ENTRY_MOVE)).passed, name


def _weight_moved(spec, j, c, delta):
    """The compiled Markov E of ``spec`` with the weight q_ij of copy c of sub
    block j scaled by 1 + delta, as an E on block stacks that carries its table."""
    slots = [list(copies) for copies in markov_expectation(spec).slots.slots]
    i, start, q = slots[j][c]
    slots[j][c] = (i, start, q * (1 + delta))
    table = SlotTable(spec, tuple(map(tuple, slots)))

    def E(X):
        return table.apply(X)

    E.slots = table
    return E


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_slot_weight_defects_fail(name):
    # every copy's weight in turn: E(W_j* W_j) moves off I by q_ij delta on that
    # copy, sum_c W_c E(W_c* X) off X, and phi(E(X)) off phi(X)
    basis = CATALOG[name]
    for j, copies in enumerate(markov_expectation(basis.spec).slots.slots):
        for c in range(len(copies)):
            E = _weight_moved(basis.spec, j, c, SLOT_WEIGHT)
            reports = {r.name: r for r in verify_basis(basis, E, seed=2)}
            for check in ("orthonormality", "reconstruction", "markov_preservation"):
                assert not reports[check].passed, (name, j, c, reports[check])


@pytest.mark.parametrize("name", TOWER)
def test_tower_slot_weight_defects_fail(name, monkeypatch):
    # the partial is read as bc._E's table: with one weight of the compiled
    # Markov E of bc.gns_spec scaled, every copy in turn, orthonormality and
    # the sampled reconstruction fail
    bc, b1, E1, sampler = _tower(name)
    for j, copies in enumerate(markov_expectation(bc.gns_spec).slots.slots):
        for c in range(len(copies)):
            monkeypatch.setitem(vars(bc), "_E", _weight_moved(bc.gns_spec, j, c, SLOT_WEIGHT))
            assert not verify_orthonormality(b1, E1).passed, (name, j, c)
            assert not verify_reconstruction(b1, E1, seed=5, sampler=sampler).passed, (name, j, c)
