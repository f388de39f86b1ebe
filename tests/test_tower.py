"""Concrete basic construction, dual expectation, and twisted bases."""

import functools
import tracemalloc
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import numpy as np
import pytest

from uob.bases import (
    UnitaryBasis,
    _to_layout,
    abelian_basis,
    basic_model_basis,
    construct,
    full_matrix_super_basis,
    weyl_basis,
)
from uob.catalog import catalog_spec
from uob import tower
from uob.algebra import MultiMatrixAlgebra, roots
from uob.errors import (
    AlgebraMismatch,
    InvariantViolated,
    SingularGram,
    SpectralConditionFailed,
    TooLarge,
)
from uob.expectation import _GramProjector, _rows, markov_expectation, slot_table
from uob.inclusion import InclusionSpec, check_spectral_condition, embed
from uob.tower import (
    basic_construction_basis,
    build_basic_construction,
    dual_expectation,
    generated_algebra_sampler,
)
from uob.verify import (
    all_passed,
    verify_basis,
    verify_orthonormality,
    verify_reconstruction,
    verify_unitary,
)

TOWER_SPECS = ["c_in_m2", "c_in_m1_plus_m2", "c2_in_m2", "c2_in_m2_plus_m2", "m2_in_m4"]
# the inclusions whose basic construction the benchmark's tower workload builds
BENCH_TOWER = {
    "c_in_m5": ([[5]], [1]),
    "c_in_m2_plus_m3": ([[2], [3]], [1]),
    "c_in_m1_m1_m2": ([[1], [1], [2]], [1]),
    "c2_in_m2_plus_m2": ([[1, 1], [1, 1]], [1, 1]),
    "c3_in_m3": ([[1, 1, 1]], [1, 1, 1]),
}
ALL_TOWER = {name: catalog_spec(name) for name in TOWER_SPECS} | {
    name: InclusionSpec.from_matrix(A, m) for name, (A, m) in BENCH_TOWER.items()
}
# and the basic construction that --method basic builds for [[3, 4]] / [3, 4]
# (the benchmark ladder's D = 25 job): C in M_3 + M_4
STACKED = ALL_TOWER | {"c_in_m3_plus_m4": InclusionSpec.from_matrix([[3], [4]], [1])}


def test_left_rep_is_a_homomorphism():
    spec = catalog_spec("c2_in_m2_plus_m2")
    bc = build_basic_construction(spec)
    rng = np.random.default_rng(0)
    X, Y = spec.super_algebra.random(rng), spec.super_algebra.random(rng)
    assert bc.left_rep(X @ Y).allclose(bc.left_rep(X) @ bc.left_rep(Y), 1e-10)
    assert bc.left_rep(X.adjoint()).allclose(bc.left_rep(X).adjoint(), 1e-12)
    I = spec.super_algebra.identity()
    assert bc.left_rep(I).allclose(bc.gns_algebra.identity(), 1e-12)


def test_gns_coefficients_reproduce_the_trace_inner_product():
    spec = catalog_spec("m2_in_m4")
    bc = build_basic_construction(spec)
    rng = np.random.default_rng(1)
    X, Y = spec.super_algebra.random(rng), spec.super_algebra.random(rng)
    assert abs(np.vdot(bc.coeff(X), bc.coeff(Y)) - bc.tau(X.adjoint() @ Y)) < 1e-10


def test_left_action_on_coefficient_vectors():
    spec = catalog_spec("c_in_m1_plus_m2")
    bc = build_basic_construction(spec)
    rng = np.random.default_rng(2)
    X, Y = spec.super_algebra.random(rng), spec.super_algebra.random(rng)
    assert np.allclose(bc.left_rep(X).data[0] @ bc.coeff(Y), bc.coeff(X @ Y), atol=1e-10)


@pytest.mark.parametrize("name", sorted(ALL_TOWER))
def test_coefficients_of_a_matrix_unit_are_a_scaled_standard_basis_vector(name):
    # the GNS basis runs per block i over (column b, row a): e_ab of block i
    # sits at position (i, b, a) with weight sqrt(n_i / D)
    bc = build_basic_construction(ALL_TOWER[name])
    D = bc.gns_dim
    offsets = np.cumsum([0] + [n * n for n in bc.spec.super_dims])
    for (i, a, b), unit in bc.spec.super_algebra.matrix_units():
        n = bc.spec.super_dims[i]
        want = np.zeros(D, dtype=complex)
        want[offsets[i] + b * n + a] = np.sqrt(n / D)
        assert np.array_equal(bc.coeff(unit), want), (name, i, a, b)


def test_e1_is_a_projection_with_trace_one_over_d():
    for name in TOWER_SPECS:
        spec = catalog_spec(name)
        d = check_spectral_condition(spec).d
        bc = build_basic_construction(spec)
        assert np.allclose(bc.e1 @ bc.e1, bc.e1, atol=1e-10)
        assert np.allclose(bc.e1, bc.e1.conj().T, atol=1e-10)
        assert abs(bc.tr1_state(bc.e1_operator()) - 1 / d) < 1e-10


def test_e1_fixes_embedded_subalgebra_vectors():
    spec = catalog_spec("c2_in_m2_plus_m2")
    bc = build_basic_construction(spec)
    rng = np.random.default_rng(3)
    y = bc.coeff(embed(spec, spec.sub_algebra.random(rng)))
    assert np.allclose(bc.e1 @ y, y, atol=1e-10)


def test_trivial_inclusion_has_identity_e1():
    spec = InclusionSpec.from_matrix([[1]], [2])  # B = A = M_2
    bc = build_basic_construction(spec)
    assert np.allclose(bc.e1, np.eye(bc.gns_dim), atol=1e-10)


def test_build_requires_spectral_condition():
    with pytest.raises(SpectralConditionFailed):
        build_basic_construction(catalog_spec("c2_in_m3"))


def test_failed_jones_relation_is_a_uob_error(monkeypatch):
    monkeypatch.setattr(tower, "JONES_TOL", -1.0)
    with pytest.raises(InvariantViolated):
        build_basic_construction(catalog_spec("c_in_m2"))


def test_a_nan_expectation_fails_the_jones_relation(monkeypatch):
    # Python's max(0.0, nan) is 0.0: the fold must keep the NaN.  The Jones
    # check applies the compiled E's slot table to each chunk of units; this
    # one is exact but on the last unit of a chunk, so a NaN follows finite residuals.
    def nan_expectation(spec):
        table = markov_expectation(spec).slots

        def apply(blocks):
            out = table.apply(blocks)
            out[-1][-1] = np.nan
            return out

        return SimpleNamespace(slots=SimpleNamespace(apply=apply))

    monkeypatch.setattr(tower, "markov_expectation", nan_expectation)
    with pytest.raises(InvariantViolated, match="Jones"):
        build_basic_construction(InclusionSpec.from_matrix([[2]], [1]))


def test_dual_expectation_of_e1():
    # E_1(e_1) = I / d, the hallmark of the dual expectation
    for name in TOWER_SPECS:
        spec = catalog_spec(name)
        d = check_spectral_condition(spec).d
        bc = build_basic_construction(spec)
        out = dual_expectation(bc, bc.e1_operator())
        target = (1 / d) * bc.gns_algebra.identity()
        assert out.allclose(target, 1e-9), name


def test_dual_expectation_fixes_left_rep():
    spec = catalog_spec("c_in_m1_plus_m2")
    bc = build_basic_construction(spec)
    rng = np.random.default_rng(4)
    L = bc.left_rep(spec.super_algebra.random(rng))
    assert dual_expectation(bc, L).allclose(L, 1e-9)


def test_basic_construction_basis_is_verified():
    for name in TOWER_SPECS:
        spec = catalog_spec(name)
        bc = build_basic_construction(spec)
        b0 = abelian_basis(spec) if all(m == 1 for m in spec.sub_dims) else None
        if b0 is None:
            from uob.bases import full_matrix_sub_basis

            b0 = full_matrix_sub_basis(spec)
        b1 = basic_construction_basis(bc, b0)
        E1 = lambda X: dual_expectation(bc, X)
        assert verify_unitary(b1).passed
        assert verify_orthonormality(b1, E1).passed
        sampler = generated_algebra_sampler(bc)
        assert verify_reconstruction(b1, E1, seed=5, sampler=sampler).passed


def test_basic_model_basis_carries_canonical_spec():
    b = basic_model_basis((1, 2))
    assert b.spec.sub_dims == (1, 2)
    assert b.spec.super_dims == (5,)
    assert all_passed(verify_basis(b, seed=6))


@pytest.mark.parametrize("sub_dims", [(1,), (2,), (1, 1), (1, 2), (2, 2), (3, 4), (1, 2, 3)])
def test_closed_form_basic_model_basis_equals_the_gns_model(sub_dims):
    # the closed form v_k v_k* against U_k e1 U_k* on the GNS model of C in B
    spec0 = InclusionSpec.from_matrix([[m] for m in sub_dims], [1])
    ref = basic_construction_basis(build_basic_construction(spec0), abelian_basis(spec0))
    b = basic_model_basis(sub_dims)
    assert (b.spec, b.provenance) == (ref.spec, ref.provenance)
    assert np.abs(b.stacks[0] - ref.stacks[0]).max() <= 1e-15
    assert all_passed(verify_basis(b, seed=2))


def test_basic_model_basis_is_refused_over_the_basis_budget():
    # C in M_17 has D = 289 > 256, so d * D^2 = 289^3 > MAX_BASIS_ENTRIES
    with pytest.raises(TooLarge, match="over the cap"):
        basic_model_basis((17,))


def test_tower_iteration_two_steps():
    # C in M_2 has basic construction M_2 in M_4 with transposed inclusion
    spec = catalog_spec("c_in_m2")
    bc = build_basic_construction(spec)
    b1 = basic_construction_basis(bc, abelian_basis(spec))
    assert b1.spec == spec.transpose()
    assert all_passed(verify_basis(b1, seed=7))
    # iterate: the next floor M_2 in M_4 also carries a verified basis
    b2 = full_matrix_super_basis(b1.spec)
    assert all_passed(verify_basis(b2, seed=7))


def test_entropy_value_is_log_index():
    import math

    for name in TOWER_SPECS:
        report = check_spectral_condition(catalog_spec(name))
        assert abs(report.entropy_value - math.log(report.norm_sq)) < 1e-9


def test_gns_dimension_over_the_cap_is_too_large():
    # C in M_17: D = 17^2 = 289 > 256
    with pytest.raises(TooLarge):
        build_basic_construction(InclusionSpec.from_matrix([[17]], [1]))


def test_gns_cap_is_the_module_constant(monkeypatch):
    monkeypatch.setattr(tower, "MAX_GNS_DIM", 4)
    assert build_basic_construction(catalog_spec("c_in_m2")).gns_dim == 4
    with pytest.raises(TooLarge, match="^gns_dim 5 exceeds cap 4$"):
        build_basic_construction(catalog_spec("c_in_m1_plus_m2"))


@pytest.mark.parametrize("name", ALL_TOWER)
def test_e1_is_the_projection_onto_the_embedded_sub_algebra(name):
    # the closed form Q Q* against the least-squares projector C C^+
    spec = ALL_TOWER[name]
    bc = build_basic_construction(spec)
    C = np.array([bc.coeff(embed(spec, u)) for _, u in spec.sub_algebra.matrix_units()]).T
    assert np.abs(bc.e1 - C @ np.linalg.pinv(C)).max() < 1e-14


def test_basic_construction_is_frozen():
    bc = build_basic_construction(catalog_spec("c_in_m2"))
    with pytest.raises(FrozenInstanceError):
        bc.e1 = np.zeros((bc.gns_dim, bc.gns_dim))
    with pytest.raises(FrozenInstanceError):
        bc.spec = catalog_spec("c_in_m3")
    assert bc == tower.BasicConstruction(catalog_spec("c_in_m2"))


def test_e1_is_read_only():
    bc = build_basic_construction(catalog_spec("c_in_m2"))
    with pytest.raises(ValueError):
        bc.e1[:] = 0
    assert bc.tr1_state(bc.e1_operator()) == pytest.approx(1 / 4, abs=1e-15)


@pytest.mark.parametrize("name", ALL_TOWER)
def test_left_rep_equals_the_kron_form(name):
    # I_n (x) X_i written as copies equals np.kron(I_n, X_i) entry for entry
    spec = ALL_TOWER[name]
    bc = build_basic_construction(spec)
    rng = np.random.default_rng(9)
    xs = [u for _, u in spec.super_algebra.matrix_units()] + [spec.super_algebra.random(rng)]
    for x in xs:
        M = np.zeros((bc.gns_dim, bc.gns_dim), dtype=complex)
        off = 0
        for n, X in zip(spec.super_dims, x.data):
            M[off : off + n * n, off : off + n * n] = np.kron(np.eye(n, dtype=complex), X)
            off += n * n
        assert np.array_equal(bc.left_rep(x).data[0], M)


@pytest.mark.parametrize("name", ALL_TOWER)
def test_dual_expectation_is_the_markov_expectation_of_the_gns_layout(name):
    # left_rep puts block i of x on the diagonal as I_{n_i} (x) x_i, which is
    # the embedding layout of the inclusion [n] with sub dims n
    spec = ALL_TOWER[name]
    n = spec.super_dims
    bc = build_basic_construction(spec)
    E = markov_expectation(InclusionSpec.from_matrix([list(n)], n))
    rng = np.random.default_rng(10)
    for _ in range(3):
        X = bc.gns_algebra.random(rng)
        assert dual_expectation(bc, X).allclose(E(X), 1e-14)


def test_dual_expectation_compiles_its_projector_once(monkeypatch):
    built = []

    class Counting(_GramProjector):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(tower, "_GramProjector", Counting)
    bc = build_basic_construction(catalog_spec("c_in_m1_plus_m2"))
    rng = np.random.default_rng(11)
    for _ in range(4):
        dual_expectation(bc, bc.gns_algebra.random(rng))
    dual_expectation(bc, bc.e1)
    assert len(built) == 1
    assert isinstance(bc._proj, Counting)


@pytest.mark.parametrize("blocks", [(1, 2, 7), (1,)])
@pytest.mark.parametrize("method", ["left_rep", "coeff"])
def test_left_rep_and_coeff_refuse_an_operand_of_another_algebra(method, blocks):
    # the spec's super-algebra is M_1 + M_2; zipping its blocks with the
    # operand's would drop the extra block, or leave block 1 out
    bc = build_basic_construction(catalog_spec("c_in_m1_plus_m2"))
    with pytest.raises(AlgebraMismatch):
        getattr(bc, method)(MultiMatrixAlgebra(blocks).identity())


def test_degenerate_tower_family_is_a_singular_gram():
    bc = build_basic_construction(catalog_spec("c_in_m2"))
    L = bc.left_rep(bc.spec.super_algebra.identity())
    with pytest.raises(SingularGram):
        _GramProjector(bc.tr1_state, [L, bc.e1_operator(), L])


def _tower_basis(name):
    spec = ALL_TOWER[name]
    bc = build_basic_construction(spec)
    return bc, basic_construction_basis(bc, construct(spec, "auto"))


@pytest.mark.parametrize("name", ALL_TOWER)
def test_generic_checks_call_the_dual_expectation_once_per_operand(name):
    bc, b1 = _tower_basis(name)
    calls = []

    def E1(X):
        calls.append(1)
        return dual_expectation(bc, X)

    assert verify_orthonormality(b1, E1).passed
    assert len(calls) == b1.d**2
    calls.clear()
    samples = generated_algebra_sampler(bc)(np.random.default_rng(5))
    assert verify_reconstruction(b1, E1, seed=5, sampler=generated_algebra_sampler(bc)).passed
    assert len(calls) == b1.d * len(samples)


@pytest.mark.parametrize("name", ALL_TOWER)
def test_generic_checks_match_the_per_element_loop(name):
    # the loop the stacked generic path replaced: one block operator per
    # product, W_j* W_k and W E(W* X) formed and summed element by element
    bc, b1 = _tower_basis(name)
    E1 = lambda X: dual_expectation(bc, X)  # noqa: E731
    I, zero = bc.gns_algebra.identity(), bc.gns_algebra.zero()
    ortho = [
        (E1(Wj.adjoint() @ Wk) - (I if j == k else zero)).norm_inf()
        for j, Wj in enumerate(b1.elements)
        for k, Wk in enumerate(b1.elements)
    ]
    samples = generated_algebra_sampler(bc)(np.random.default_rng(5))
    recon = []
    for _, X in samples:
        acc = zero
        for W in b1.elements:
            acc = acc + W @ E1(W.adjoint() @ X)
        recon.append((acc - X).norm_inf())
    fast = verify_orthonormality(b1, E1)
    assert abs(fast.residual - max(ortho)) <= 1e-15
    fast = verify_reconstruction(b1, E1, seed=5, sampler=generated_algebra_sampler(bc))
    assert abs(fast.residual - max(recon)) <= 1e-15
    assert fast.witness == samples[int(np.argmax(recon))][0]


# the benchmark's tower inclusions with B = C: their twisted bases carry the
# transposed spec, whose compiled Markov E is the dual expectation
B_IS_C = [name for name, (_, m) in BENCH_TOWER.items() if m == [1]]


@pytest.mark.parametrize("name", B_IS_C)
def test_the_tower_basis_verifies_alike_against_the_projector_and_the_compiled_E(name):
    bc, b1 = _tower_basis(name)
    assert b1.spec == ALL_TOWER[name].transpose()
    W = b1.stacks[0].copy()
    W[-1, 0, 0] += 1e-6
    generic = functools.partial(dual_expectation, bc)
    compiled = markov_expectation(b1.spec)
    assert slot_table(generic, b1.algebra) is None and slot_table(compiled, b1.algebra) is not None
    for b in (b1, UnitaryBasis(b1.spec, (W,), "perturbed")):
        g, c = verify_basis(b, generic, seed=3), verify_basis(b, compiled, seed=3)
        assert [r.name for r in g] == [r.name for r in c]
        assert [r.passed for r in g] == [r.passed for r in c], (name, b.provenance)
        assert g[1].name == "orthonormality" and abs(g[1].residual - c[1].residual) <= 1e-15, (g[1], c[1])
        assert all_passed(g) == (b is b1)


def _canonical_stacks(spec, W):
    """The GNS-frame stack W of a tower basis in the canonical frame of
    ``spec.transpose()``: GNS entry (a, c) of block i is vector off_i + c n_i + a,
    and block j is copy l = 0 of block j of A_1, its rows (i, k, a) at the
    columns c = start of the copies (i, j, k, start), in ``spec.copies`` order."""
    n = spec.super_dims
    off = np.cumsum([0] + [x * x for x in n])
    rows = [[] for _ in range(spec.r)]
    for i, j, _, start in spec.copies:
        rows[j].extend(off[i] + start * n[i] + np.arange(n[i]))
    return tuple(W[:, r][:, :, r] for r in map(np.array, rows))


@pytest.mark.parametrize("name", ALL_TOWER)
def test_the_layout_map_gives_the_canonical_frame_of_the_tower_basis(name):
    # bases._to_layout with one W per block of the transpose: a compression, not
    # a permutation, that must agree with the reference gather above
    spec = ALL_TOWER[name]
    W = _tower_basis(name)[1].stacks[0]
    n = spec.super_dims
    off = np.cumsum([0] + [x * x for x in n])
    placed = ((j, i, off[i] + start * n[i] + np.arange(n[i])) for i, j, _, start in spec.copies)
    got = _to_layout(spec.transpose(), [W] * spec.r, placed)
    want = _canonical_stacks(spec, W)
    assert len(got) == len(want) == spec.r
    for X, Y in zip(got, want):
        assert X.shape == Y.shape and X.tobytes() == Y.tobytes()


@pytest.mark.parametrize("name", ALL_TOWER)
def test_the_tower_basis_verifies_in_the_canonical_frame_of_the_transpose(name):
    # the paper's basis for A in A_1, checked against the compiled Markov E of
    # (A^t, n) as well as the Gram projector; for B = C the map is the identity
    spec = ALL_TOWER[name]
    bc, b1 = _tower_basis(name)
    E1, sampler = functools.partial(dual_expectation, bc), generated_algebra_sampler(bc)
    E = markov_expectation(spec.transpose())
    bad = b1.stacks[0].copy()
    bad[-1, 0, 0] += 1e-6  # GNS vector 0 is row 0 of the first copy, so both frames see it
    for W, good in ((b1.stacks[0], True), (bad, False)):
        gns = UnitaryBasis(None, (W,), "gns")
        canonical = UnitaryBasis(spec.transpose(), _canonical_stacks(spec, W), "canonical")
        if spec.sub_dims == (1,):
            assert canonical.stacks[0].tobytes() == W.tobytes()
        gns_reports = [
            verify_unitary(gns),
            verify_orthonormality(gns, E1),
            verify_reconstruction(gns, E1, seed=3, sampler=sampler),
        ]
        canonical_reports = verify_basis(canonical, E, seed=3)
        assert all_passed(gns_reports) == all_passed(canonical_reports) == good, name


def _sampler_reference(bc, count):
    """The sampler as a per-operand loop: ``left_rep`` of each matrix unit, then
    per operator three ``random`` calls a, b, c and L(a) + L(b) e1 L(c)."""
    e1, A = bc.e1_operator(), bc.spec.super_algebra

    def sampler(rng):
        out = [(f"left unit {lbl}", bc.left_rep(u)) for lbl, u in A.matrix_units()]
        for t in range(count):
            X = bc.left_rep(A.random(rng))
            X = X + bc.left_rep(A.random(rng)) @ e1 @ bc.left_rep(A.random(rng))
            out.append((f"random {t}", X))
        return out

    return sampler


@pytest.mark.parametrize("count", [0, 1, 10])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ALL_TOWER)
def test_sampler_matches_the_per_operand_loop(name, seed, count):
    bc = build_basic_construction(ALL_TOWER[name])
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generated_algebra_sampler(bc, count)(rng)
    want = _sampler_reference(bc, count)(ref_rng)
    assert [label for label, _ in got] == [label for label, _ in want]
    for (_, X), (_, Y) in zip(got, want):
        assert X.algebra == Y.algebra and np.array_equal(X.data[0], Y.data[0])
    # the generator ends in the same state
    assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("entry", [(0, 0, 0), (5, 2, 11), (12, 12, 0)])
def test_a_nan_in_a_tower_basis_fails_the_generic_checks(entry):
    # one NaN entry (element, row, column) of the twisted basis: the Gram
    # projector's output is NaN on its support, so both checks report NaN
    bc, b1 = _tower_basis("c_in_m2_plus_m3")
    W = b1.stacks[0].copy()
    W[entry] = np.nan
    bad = UnitaryBasis(b1.spec, (W,), b1.provenance)
    E1 = functools.partial(dual_expectation, bc)
    assert slot_table(E1, bad.algebra) is None  # the generic path
    ortho = verify_orthonormality(bad, E1)
    recon = verify_reconstruction(bad, E1, seed=5, sampler=generated_algebra_sampler(bc))
    for report in (ortho, recon):
        assert not report.passed and np.isnan(report.residual), report


def _tamper_one(sampler, k, entry, bad):
    """``sampler`` with one entry (block, row, column) of its k-th operator set to ``bad``."""

    def tampered(rng):
        samples = list(sampler(rng))
        label, X = samples[k]
        blocks = [b.copy() for b in X.data]
        blocks[entry[0]][entry[1:]] = bad
        samples[k] = (label, X.algebra.operator(blocks))
        return samples

    return tampered


def _catalog_sampler(alg):
    def sampler(rng):
        return [(f"unit {lbl}", X) for lbl, X in alg.matrix_units()] + [
            (f"random {t}", alg.random(rng)) for t in range(4)
        ]

    return sampler


def _generic_cases():
    """(name, basis, E, sampler, (k, entry)s): the tower's C in M_5 basis (one
    block) against its Gram projector, and a multi-block catalog basis under a
    plain-lambda Markov E; each k a left or matrix unit and a random operator."""
    bc, b1 = _tower_basis("c_in_m5")
    yield "c_in_m5", b1, functools.partial(dual_expectation, bc), generated_algebra_sampler(bc), [
        (7, (0, 3, 11)),
        (30, (0, 24, 0)),
    ]
    spec = catalog_spec("m2_in_m2_plus_m4")
    b = construct(spec, "auto")
    E = markov_expectation(spec)
    yield "m2_in_m2_plus_m4", b, lambda X: E(X), _catalog_sampler(b.algebra), [
        (2, (0, 1, 0)),
        (21, (1, 2, 3)),
    ]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("case", list(_generic_cases()), ids=lambda c: c[0])
def test_a_bad_entry_in_one_test_operator_fails_with_its_label(case, bad):
    # each W_c* X of a block is one product over the whole adjoint stack; a NaN
    # or Inf in one X must still fail the check on the generic path, with that X
    # as the witness
    name, basis, E, sampler, spots = case
    assert slot_table(E, basis.algebra) is None
    labels = [label for label, _ in sampler(np.random.default_rng(5))]
    assert verify_reconstruction(basis, E, seed=5, sampler=sampler).passed
    for k, entry in spots:
        with np.errstate(invalid="ignore", over="ignore"):
            report = verify_reconstruction(basis, E, seed=5, sampler=_tamper_one(sampler, k, entry, bad))
        assert not report.passed and not np.isfinite(report.residual), (name, k, report)
        assert report.witness == labels[k], (name, k, report)


def _stack(ops):
    return [np.stack(blocks) for blocks in zip(*(X.data for X in ops))]


@pytest.mark.parametrize("name", STACKED)
def test_stacked_left_rep_equals_the_per_operand_one(name):
    bc = build_basic_construction(STACKED[name])
    A = bc.spec.super_algebra
    rng = np.random.default_rng(12)
    ops = [u for _, u in A.matrix_units()] + [A.random(rng) for _ in range(3)]
    got = bc.left_reps(_stack(ops))
    assert got.shape == (len(ops), bc.gns_dim, bc.gns_dim)
    for L, X in zip(got, ops):
        assert np.array_equal(L, bc.left_rep(X).data[0])


def _per_element_twist(bc, b0):
    """The twisted basis stack as the loop the chunked, batched products replaced."""
    terms = np.empty((b0.d, bc.gns_dim, bc.gns_dim), dtype=complex)
    for k, U in enumerate(b0.elements):
        L = bc.left_rep(U).data[0]
        terms[k] = L @ bc.e1 @ L.conj().T
    j = np.arange(b0.d)
    return np.tensordot(roots(b0.d)[np.outer(j, j) % b0.d], terms, axes=1)


@pytest.mark.parametrize("name", STACKED)
def test_basic_construction_basis_equals_the_per_element_loop(name):
    spec = STACKED[name]
    bc = build_basic_construction(spec)
    b0 = construct(spec, "auto")
    assert np.array_equal(basic_construction_basis(bc, b0).stacks[0], _per_element_twist(bc, b0))


def _per_unit_residuals(bc):
    """The Jones and Markov-compatibility residuals, one matrix unit at a time."""
    E = markov_expectation(bc.spec)
    jones, trace = [], []
    for _, unit in bc.spec.super_algebra.matrix_units():
        L = bc.left_rep(unit).data[0]
        rhs = bc.left_rep(E(unit)).data[0] @ bc.e1
        jones.append(np.max(np.abs(bc.e1 @ L @ bc.e1 - rhs)))
        trace.append(abs(np.trace(L) / bc.gns_dim - bc.tau(unit)))
    return np.array(jones), np.array(trace)


@pytest.mark.parametrize("name", STACKED)
def test_batched_validation_matches_the_per_unit_loop(name):
    bc = build_basic_construction(STACKED[name])
    for got, want in zip(tower._validation_residuals(bc), _per_unit_residuals(bc)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15


def test_a_compiled_expectation_is_applied_to_whole_chunks(monkeypatch):
    # the slot table takes each chunk of units in one call; E itself is not called
    calls = []

    def counted(spec):
        E = markov_expectation(spec)

        def wrapped(X):
            calls.append(1)
            return E(X)

        wrapped.slots = E.slots
        return wrapped

    monkeypatch.setattr(tower, "markov_expectation", counted)
    build_basic_construction(InclusionSpec.from_matrix([[3], [4]], [1]))
    assert calls == []


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunked_products_keep_the_peak_of_the_per_element_loops():
    # C in M_10, D = 100: stacking every unit or element at once would hold
    # D^3 entries per array; the chunks keep the peak at the loops' own, which
    # the twisted basis and its terms dominate (2 d D^2 entries)
    spec = InclusionSpec.from_matrix([[10]], [1])
    b0 = abelian_basis(spec)
    build_basic_construction(spec)  # warm the caches outside the traced runs

    def batched():
        basic_construction_basis(build_basic_construction(spec), b0)

    def per_element():
        bc = tower.BasicConstruction(spec)
        _per_unit_residuals(bc)
        _per_element_twist(bc, b0)

    assert _traced_peak(batched) <= 1.1 * _traced_peak(per_element)


def test_the_projector_reads_its_family_once_without_a_second_copy():
    # C in M_10, D = 100: the family is D members of D^2 entries, each a view
    # of its own (1, D, D) batch of ``unit_reps``. Read row by row, the rows
    # and one batch are alive; a list of the views stacked would hold the
    # family twice (measured: 32.0 MB against 21.3 MB for the 16 MB family).
    bc = build_basic_construction(InclusionSpec.from_matrix([[10]], [1]))
    family = lambda: (bc.gns_algebra.operator([L]) for L in bc.unit_reps())
    list(family())  # warm the caches outside the traced run
    rows = []
    peak = _traced_peak(lambda: rows.append(_rows(family(), bc.gns_dim**2)))
    assert rows[0].shape == (bc.gns_dim, bc.gns_dim**2)
    assert peak <= 1.5 * rows[0].nbytes
    ref = np.stack([X.data[0].ravel() for X in family()])
    assert rows[0].view(np.int64).tolist() == ref.view(np.int64).tolist()
