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
    METHODS,
    abelian_basis,
    basic_model_basis,
    construct,
    full_matrix_super_basis,
    weyl_basis,
)
from uob.catalog import catalog_spec
from uob import algebra, tower, verify
from uob.algebra import MultiMatrixAlgebra, roots
from uob.errors import (
    AlgebraMismatch,
    InvariantViolated,
    NoExpectation,
    PartitionOfUnityFailed,
    SpectralConditionFailed,
    TooLarge,
    UobError,
)
from uob.expectation import markov_expectation, mixed_unitary_channel
from uob.inclusion import InclusionSpec, check_spectral_condition, embed
from uob.io import basis_from_dict
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

from reference import (
    SingularGram,
    _GramProjector,
    _rows,
    per_column_orthonormality,
    per_operator_reconstruction,
    reference_basis,
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
        E1, sampler = functools.partial(dual_expectation, bc), generated_algebra_sampler(bc)
        assert verify_unitary(b1).passed
        # compiled, and on the reference, which calls the dual expectation itself
        plain = lambda X: dual_expectation(bc, X)  # noqa: E731
        for ortho, recon, E in (
            (verify_orthonormality, verify_reconstruction, E1),
            (per_column_orthonormality, per_operator_reconstruction, plain),
        ):
            assert ortho(b1, E).passed
            assert recon(b1, E, seed=5, sampler=sampler).passed


def test_basic_model_basis_carries_canonical_spec():
    b = basic_model_basis((1, 2))
    assert b.spec.sub_dims == (1, 2)
    assert b.spec.super_dims == (5,)
    assert all_passed(verify_basis(b, seed=6))


@pytest.mark.parametrize("sub_dims", [(1,), (2,), (1, 1), (1, 2), (2, 2), (3, 4), (1, 2, 3)])
def test_closed_form_basic_model_basis_equals_the_gns_model(sub_dims):
    # the closed form v_k v_k* against U_k e1 U_k* on the GNS model of C in B
    spec0 = InclusionSpec.from_matrix([[m] for m in sub_dims], [1])
    ref = _per_element_twist(build_basic_construction(spec0), abelian_basis(spec0))
    b = basic_model_basis(sub_dims)
    assert (b.spec, b.provenance) == (spec0.transpose(), "basic_construction")
    assert np.abs(b.stacks[0] - ref).max() <= 1e-15
    assert all_passed(verify_basis(b, seed=2))


def test_basic_model_basis_is_refused_over_the_basis_budget():
    # C in M_17 has D = 289 > 256, so d * D^2 = 289^3 > MAX_ENTRIES
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


@pytest.mark.parametrize(
    "build, arg, entries, what",
    [
        # M_2 in M_4: d * sum n_i^2 = 4 * 16
        (construct, InclusionSpec([[2]], [2]), 64, "a basis"),
        # D = 1 + 4, D^3 entries
        (basic_model_basis, (1, 2), 125, "a basis"),
        # no integer d (8 / 3), so d counts as 1: 1 * 8^2
        (basis_from_dict, {"d": 0, "elements": [], "spec": {"inclusion_matrix": [[1, 1]], "sub_dims": [3, 5]}},
         64, "a basis"),
        # C in M_2: (T_0 * T + 20) * N^2 = (2 * 2 + 20) * 4
        (mixed_unitary_channel, catalog_spec("c_in_m2"), 96, "the channel"),
        # C in M_2: D = 4, D^3 entries
        (build_basic_construction, catalog_spec("c_in_m2"), 64, "the basic construction"),
    ],
    ids=["construct", "basic_model_basis", "basis_from_dict", "mixed_unitary_channel", "build_basic_construction"],
)
def test_every_size_cap_is_the_one_memory_budget(monkeypatch, build, arg, entries, what):
    # a count equal to the cap is accepted, one above it refused with the shared message
    monkeypatch.setattr(algebra, "MAX_ENTRIES", entries)
    build(arg)
    monkeypatch.setattr(algebra, "MAX_ENTRIES", entries - 1)
    with pytest.raises(TooLarge) as err:
        build(arg)
    assert str(err.value) == f"{what} would hold {entries} entries, over the cap of {entries - 1}"


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


def _reference_projector(bc):
    """The tr1-orthogonal projection onto the span of left_rep(A), formed from the
    Gram matrix of the left multiplications of A's matrix units."""
    return _GramProjector(bc.tr1_state, (bc.gns_algebra.operator([L]) for L in bc.unit_reps()))


@pytest.mark.parametrize("name", ALL_TOWER)
def test_dual_expectation_is_the_projector_onto_the_left_multiplications(name):
    # dual_expectation is the compiled Markov E of the GNS layout, where left_rep
    # puts block i of x on the diagonal as I_{n_i} (x) x_i; the reference projects
    # with the Gram matrix: on one operand, on stacks, and on an empty stack
    bc = build_basic_construction(ALL_TOWER[name])
    P, D = _reference_projector(bc), bc.gns_dim
    rng = np.random.default_rng(10)
    for _ in range(3):
        X = bc.gns_algebra.random(rng)
        assert dual_expectation(bc, X).allclose(P(X), 1e-14)
        assert dual_expectation(bc, X.data[0]).allclose(P(X), 1e-14)
    for K in (0, 1, 4):
        X = [rng.standard_normal((K, D, D)) + 1j * rng.standard_normal((K, D, D))]
        got, want = dual_expectation(bc, X), P.apply(X)
        assert len(got) == 1 and got[0].shape == want[0].shape == (K, D, D)
        assert np.abs(got[0] - want[0]).max(initial=0) <= 1e-14


def test_dual_expectation_builds_its_compiled_expectation_once(monkeypatch):
    built = []

    def counting(spec):
        built.append(spec)
        return markov_expectation(spec)

    bc = build_basic_construction(catalog_spec("c_in_m1_plus_m2"))
    monkeypatch.setattr(tower, "markov_expectation", counting)
    rng = np.random.default_rng(11)
    for _ in range(4):
        dual_expectation(bc, bc.gns_algebra.random(rng))
    dual_expectation(bc, bc.e1)
    dual_expectation(bc, [np.zeros((3, bc.gns_dim, bc.gns_dim))])
    assert built == [bc.gns_spec]


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
def test_the_reference_checks_match_the_per_element_loop(name):
    # the per-operand reference against one block operator per product,
    # W_j* W_k and W E(W* X) formed and summed element by element
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
    ref = per_column_orthonormality(b1, E1)
    assert abs(ref.residual - max(ortho)) <= 1e-15
    ref = per_operator_reconstruction(b1, E1, seed=5, sampler=generated_algebra_sampler(bc))
    assert abs(ref.residual - max(recon)) <= 1e-15
    assert ref.witness == samples[int(np.argmax(recon))][0]



@pytest.mark.parametrize("name", ALL_TOWER)
def test_the_reference_passes_each_operand_to_the_dual_expectation_once(name):
    # one E1 call per column of pairs and per test operator, each on the d
    # operands W_c* X, so the summed lengths are d^2 and d (D + 10)
    bc, b1 = _tower_basis(name)
    d, sizes = b1.d, []

    def E1(X):
        sizes.append(len(X[0]))
        return dual_expectation(bc, X)

    assert per_column_orthonormality(b1, E1).passed
    assert sizes == [d] * d
    sizes.clear()
    assert per_operator_reconstruction(b1, E1, seed=5, sampler=generated_algebra_sampler(bc)).passed
    assert sizes == [d] * (bc.gns_dim + 10)

def _bits(report):
    return report.passed, report.residual.hex(), report.witness


def _bad_copies(basis, rng):
    """The basis, a copy with one seeded entry moved by 1e-6 and a copy with
    two seeded NaN entries, as (kind, basis) pairs."""
    yield "basis", basis
    for kind, spots in (("moved", 1), ("nan", 2)):
        stacks = [Ws.copy() for Ws in basis.stacks]
        for _ in range(spots):
            i = int(rng.integers(len(stacks)))
            entry = tuple(int(rng.integers(k)) for k in stacks[i].shape)
            stacks[i][entry] = stacks[i][entry] + 1e-6 if kind == "moved" else np.nan
        yield kind, UnitaryBasis(basis.spec, tuple(stacks), kind)


# the benchmark's tower inclusions with B = C: their twisted bases carry the
# transposed spec, whose compiled Markov E is the dual expectation
B_IS_C = [name for name, (_, m) in BENCH_TOWER.items() if m == [1]]


@pytest.mark.parametrize("name", B_IS_C)
def test_the_tower_basis_verifies_alike_compiled_and_on_the_reference(name):
    # the compiled Markov E of the transposed spec against the reference run
    # on the dual expectation itself, which verify refuses: it has no slot table
    bc, b1 = _tower_basis(name)
    assert b1.spec == ALL_TOWER[name].transpose()
    W = b1.stacks[0].copy()
    W[-1, 0, 0] += 1e-6
    generic = lambda X: dual_expectation(bc, X)  # noqa: E731
    compiled = markov_expectation(b1.spec)
    with pytest.raises(NoExpectation):
        verify_basis(b1, generic)
    for b in (b1, UnitaryBasis(b1.spec, (W,), "perturbed")):
        g, c = reference_basis(b, generic, seed=3), verify_basis(b, compiled, seed=3)
        assert [r.name for r in g] == [r.name for r in c]
        assert [r.passed for r in g] == [r.passed for r in c], (name, b.provenance)
        assert g[1].name == "orthonormality" and abs(g[1].residual - c[1].residual) <= 1e-15, (g[1], c[1])
        assert all_passed(g) == (b is b1)


def _never_called(*args):
    raise AssertionError("called")


@pytest.mark.parametrize("name", ALL_TOWER)
def test_the_partial_dual_expectation_never_calls_E_in_verify(name, monkeypatch):
    # partial(dual_expectation, bc) is read as the compiled Markov E of
    # bc.gns_spec: orthonormality, reconstruction with the sampler and, where
    # the basis has a spec (B = C), the whole certificate run on its slot table,
    # with that E replaced by one that keeps the table and fails when called
    bc, b1 = _tower_basis(name)
    E1 = functools.partial(dual_expectation, bc)
    monkeypatch.setitem(vars(bc), "_E", functools.wraps(markov_expectation(bc.gns_spec))(_never_called))
    sampler = generated_algebra_sampler(bc)
    reports = [verify_orthonormality(b1, E1), verify_reconstruction(b1, E1, seed=5, sampler=sampler)]
    if b1.spec is not None:
        reports += verify_basis(b1, E1, seed=5)
    assert all_passed(reports), reports


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("name", ALL_TOWER)
def test_the_partial_dual_expectation_gives_the_reports_of_its_compiled_E(name, seed):
    # bit for bit the reports of markov_expectation(bc.gns_spec), and the
    # reference's verdicts with residuals within 2e-15 of its own, on the
    # basis, a copy with one entry moved by 1e-6 and a copy with NaN entries
    bc, b1 = _tower_basis(name)
    sampler = generated_algebra_sampler(bc)
    partial, compiled = functools.partial(dual_expectation, bc), markov_expectation(bc.gns_spec)
    plain = lambda X: dual_expectation(bc, X)  # noqa: E731
    for kind, b in _bad_copies(b1, np.random.default_rng(seed)):
        with np.errstate(invalid="ignore"):
            got = {
                E: [verify_orthonormality(b, E), verify_reconstruction(b, E, seed=seed, sampler=sampler)]
                for E in (partial, compiled)
            }
            ref = [per_column_orthonormality(b, plain), per_operator_reconstruction(b, plain, seed=seed, sampler=sampler)]
        assert list(map(_bits, got[partial])) == list(map(_bits, got[compiled])), kind
        for fast, want in zip(got[partial], ref):
            assert fast.passed == want.passed, (kind, fast, want)
            assert np.isnan(fast.residual) == np.isnan(want.residual), (kind, fast, want)
            assert np.isnan(want.residual) or abs(fast.residual - want.residual) <= 2e-15, (kind, fast, want)
        ortho, recon = got[partial]
        if kind != "moved":  # E1 reads only its diagonal copies, so a moved entry may pass either check
            assert ortho.passed == recon.passed == (kind == "basis"), (kind, ortho, recon)
            assert np.isnan(ortho.residual) == np.isnan(recon.residual) == (kind == "nan"), (kind, ortho, recon)


@pytest.mark.parametrize("extra_block", [False, True])
def test_a_sampled_operator_of_another_algebra_is_refused_before_the_compiled_sweep(extra_block, monkeypatch):
    # M_{D - 1}, or M_D plus one more block, which zip would drop: refused
    # before the basis's weighted columns are formed
    bc, b1 = _tower_basis("c3_in_m3")
    D = bc.gns_dim
    other = MultiMatrixAlgebra((D, 1) if extra_block else (D - 1,))
    sampler = generated_algebra_sampler(bc)
    with_other = lambda rng: [*sampler(rng), ("other", other.identity())]  # noqa: E731
    monkeypatch.setattr(verify, "_weighted_columns", _never_called)
    with pytest.raises(AlgebraMismatch):
        verify_reconstruction(b1, functools.partial(dual_expectation, bc), sampler=with_other)


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
    # (A^t, n) as well as the dual expectation; for B = C the map is the identity
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
def test_a_nan_in_a_tower_basis_fails_compiled_and_on_the_reference(entry):
    # one NaN entry (element, row, column) of the twisted basis: it fills a row
    # of W* W and W* X, and with it a diagonal copy that E_1 reads, so both
    # checks report NaN
    bc, b1 = _tower_basis("c_in_m2_plus_m3")
    W = b1.stacks[0].copy()
    W[entry] = np.nan
    bad = UnitaryBasis(b1.spec, (W,), b1.provenance)
    sampler = generated_algebra_sampler(bc)
    plain = lambda X: dual_expectation(bc, X)  # noqa: E731
    for ortho, recon, E1 in (
        (verify_orthonormality, verify_reconstruction, functools.partial(dual_expectation, bc)),
        (per_column_orthonormality, per_operator_reconstruction, plain),
    ):
        with np.errstate(invalid="ignore"):
            reports = [ortho(bad, E1), recon(bad, E1, seed=5, sampler=sampler)]
        for report in reports:
            assert not report.passed and np.isnan(report.residual), report


def _on_copies(bc):
    """Mask of the (D, D) entries that lie on a diagonal copy of ``bc.gns_spec``,
    the only entries that the compiled E_1 reads."""
    on = np.zeros((bc.gns_dim, bc.gns_dim), dtype=bool)
    for _, j, _, start in bc.gns_spec.copies:
        end = start + bc.gns_spec.sub_dims[j]
        on[start:end, start:end] = True
    return on


@pytest.mark.parametrize("on_copy", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ALL_TOWER)
def test_a_nan_on_or_off_the_diagonal_copies_fails_every_tower_check(name, seed, on_copy):
    # E_1 ignores entries off its diagonal copies, yet a NaN anywhere in W_j
    # fills a whole row of W_j* W_k and of W_j* X, which crosses a copy: the
    # unitarity, orthonormality and reconstruction checks all fail
    bc, b1 = _tower_basis(name)
    rng = np.random.default_rng(seed)
    on = _on_copies(bc)
    assert on.any() and not on.all()
    rows, cols = np.nonzero(on if on_copy else ~on)
    t = rng.integers(len(rows))
    W = b1.stacks[0].copy()
    W[rng.integers(b1.d), rows[t], cols[t]] = np.nan
    bad = UnitaryBasis(b1.spec, (W,), b1.provenance)
    E1 = functools.partial(dual_expectation, bc)
    reports = [
        verify_unitary(bad),
        verify_orthonormality(bad, E1),
        verify_reconstruction(bad, E1, seed=5, sampler=generated_algebra_sampler(bc)),
    ]
    assert not any(r.passed for r in reports), reports


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


def _bad_entry_cases():
    """(name, basis, E, sampler, (k, entry)s): the tower's C in M_5 basis (one
    block) against its dual expectation, and a multi-block catalog basis under a
    Markov E; each k a left or matrix unit and a random operator."""
    bc, b1 = _tower_basis("c_in_m5")
    yield "c_in_m5", b1, functools.partial(dual_expectation, bc), generated_algebra_sampler(bc), [
        (7, (0, 3, 11)),
        (30, (0, 24, 0)),
    ]
    spec = catalog_spec("m2_in_m2_plus_m4")
    b = construct(spec, "auto")
    yield "m2_in_m2_plus_m4", b, markov_expectation(spec), _catalog_sampler(b.algebra), [
        (2, (0, 1, 0)),
        (21, (1, 2, 3)),
    ]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("case", list(_bad_entry_cases()), ids=lambda c: c[0])
@pytest.mark.parametrize("check", [verify_reconstruction, per_operator_reconstruction], ids=["compiled", "reference"])
def test_a_bad_entry_in_one_test_operator_fails_with_its_label(check, case, bad):
    # each batch of X is one product over the weighted columns, and on the
    # reference each W_c* X one product over the whole adjoint stack; a NaN or
    # Inf in one X must still fail the check, with that X as the witness
    name, basis, E, sampler, spots = case
    labels = [label for label, _ in sampler(np.random.default_rng(5))]
    assert check(basis, E, seed=5, sampler=sampler).passed
    for k, entry in spots:
        with np.errstate(invalid="ignore", over="ignore"):
            report = check(basis, E, seed=5, sampler=_tamper_one(sampler, k, entry, bad))
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
    """The twisted basis stack from U_k e1 U_k* formed element by element on the
    GNS model: the reference for the closed form ``uob.bases.twisted_stack``."""
    terms = np.empty((b0.d, bc.gns_dim, bc.gns_dim), dtype=complex)
    for k, U in enumerate(b0.elements):
        L = bc.left_rep(U).data[0]
        terms[k] = L @ bc.e1 @ L.conj().T
    j = np.arange(b0.d)
    return np.tensordot(roots(b0.d)[np.outer(j, j) % b0.d], terms, axes=1)


@pytest.mark.parametrize("name", STACKED)
def test_basic_construction_basis_equals_the_per_element_loop(name):
    # the closed form against U_k e1 U_k* on the GNS model, for every basis
    # of the spec that ``construct`` builds, B = C or not
    spec = STACKED[name]
    bc = build_basic_construction(spec)
    built = []
    for method in METHODS:
        try:
            b0 = construct(spec, method)
        except UobError:
            continue
        built.append(method)
        got = basic_construction_basis(bc, b0).stacks[0]
        assert np.abs(got - _per_element_twist(bc, b0)).max() <= 1e-15, (name, method)
    assert "auto" in built


def test_a_nan_in_the_basis_fails_the_partition_of_unity():
    # W_0 = sum_k U_k e1 U_k* carries the NaN, and the check refuses it
    spec = catalog_spec("c_in_m2")
    b0 = abelian_basis(spec)
    W = b0.stacks[0].copy()
    W[1, 0, 1] = np.nan
    with pytest.raises(PartitionOfUnityFailed):
        basic_construction_basis(build_basic_construction(spec), UnitaryBasis(spec, (W,), "nan"))


def test_a_basis_of_another_algebra_is_refused():
    bc = build_basic_construction(catalog_spec("c_in_m1_plus_m2"))
    for spec in (catalog_spec("c_in_m2"), catalog_spec("c_in_m5")):
        with pytest.raises(AlgebraMismatch):
            basic_construction_basis(bc, abelian_basis(spec))


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
    # C in M_10, D = 100: stacking every unit at once would hold D^3 entries
    # per array; the validation's chunks and the closed form keep the peak at
    # the loops' own, which the twisted basis and its terms dominate (2 d D^2
    # entries: the phased copy of V and W)
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


def test_the_compiled_tower_checks_keep_their_peaks():
    # the partial on c_in_m5 (d = D = 25), within 1.05 times the peaks of the
    # former one E call per column or test operator (1,029,976 and 1,389,486 B
    # over start).  With the family built beforehand, the peak is the weighted
    # columns' own (R and L, two arrays of the basis's size, L formed from R)
    # plus one batch's products, within one more basis size and a chunk: each
    # batch of sampled operators is stacked only when it is checked, where
    # stacking all 35 of them first read 1,095,856 B, and L formed from its own
    # column stack held four arrays of the basis's size
    bc, b1 = _tower_basis("c_in_m5")
    E1, sampler = functools.partial(dual_expectation, bc), generated_algebra_sampler(bc)
    family = sampler(np.random.default_rng(5))
    ortho = lambda: verify_orthonormality(b1, E1)  # noqa: E731
    recon = lambda: verify_reconstruction(b1, E1, seed=5, sampler=sampler)  # noqa: E731
    prebuilt = lambda: verify_reconstruction(b1, E1, seed=5, sampler=lambda rng: family)  # noqa: E731
    ortho(), recon()  # warm the caches outside the traced runs
    assert _traced_peak(ortho) <= 1.05 * 1_029_976
    assert _traced_peak(recon) <= 1.05 * 1_389_486
    assert _traced_peak(prebuilt) <= 3 * b1.stacks[0].nbytes + algebra.CHUNK_ENTRIES * np.dtype(complex).itemsize


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


def test_the_projector_is_built_on_its_support_within_one_and_a_half_families():
    # C in M_10, D = 100: the family is 16 MB and its support a tenth of it.
    # Dropping the dense family before P is formed keeps S, conj(S) diag(w)
    # and P from being dense together, which would peak at 34.0 MB (2.13x)
    bc = build_basic_construction(InclusionSpec.from_matrix([[10]], [1]))
    family = lambda: (bc.gns_algebra.operator([L]) for L in bc.unit_reps())
    list(family())  # warm the caches outside the traced run
    built = []
    peak = _traced_peak(lambda: built.append(_GramProjector(bc.tr1_state, family())))
    S = _rows(family(), bc.gns_dim**2)
    assert peak <= 1.5 * S.nbytes
    assert built[0]._P.shape == S.shape and not built[0]._P[:, ~S.any(axis=0)].any()


@pytest.mark.parametrize("name", ["c_in_m10", *BENCH_TOWER])
def test_the_projector_on_its_support_is_the_dense_one(name):
    # against G^-1 conj(S) diag(w) with every column formed: G is diagonal, as
    # the units' supports are disjoint, and each entry sums n_i weights 1 / D,
    # which BLAS may add in another order for D^2 columns than for the
    # support's; with OpenBLAS that is one ulp on C in M_10, none on the rest
    spec = InclusionSpec.from_matrix([[10]], [1]) if name == "c_in_m10" else ALL_TOWER[name]
    bc = build_basic_construction(spec)
    S = _rows((bc.gns_algebra.operator([L]) for L in bc.unit_reps()), bc.gns_dim**2)
    T = np.conj(S) * (1 / bc.gns_dim)
    P = np.linalg.inv(T @ S.T) @ T
    assert (np.abs(_reference_projector(bc)._P - P) <= 2 * np.spacing(np.abs(P))).all()
