"""The verify suite must accept genuine bases and reject injected defects."""

import functools

import numpy as np
import pytest

from uob.algebra import TracialState
from uob.bases import UnitaryBasis, abelian_basis, weyl_basis
from uob.catalog import catalog_spec
from uob.errors import AlgebraMismatch, DisconnectedDiagram, NoExpectation
from uob.expectation import SlotTable, conditional_expectation, markov_expectation
from uob.inclusion import InclusionSpec
from uob.tower import basic_construction_basis, build_basic_construction, dual_expectation
from uob.verify import (
    ORTHO_TOL,
    POSITIVITY_FLOOR,
    RECON_TOL,
    TRACE_TOL,
    UNITARY_TOL,
    all_passed,
    verify_basis,
    verify_expectation_axioms,
    verify_orthonormality,
    verify_reconstruction,
    verify_trace_conditions,
    verify_unitary,
)

from reference import (
    all_units_markov_preservation,
    per_column_orthonormality,
    per_operator_reconstruction,
    reference_basis,
)


def test_good_bases_pass_everything():
    for b in (abelian_basis(catalog_spec("c_in_m1_plus_m2")), weyl_basis(catalog_spec("c2_in_m4"))):
        assert all_passed(verify_basis(b, seed=0))


def test_each_check_reports_its_pinned_tolerance():
    # only reconstruction takes a tolerance from its caller; no other check can be loosened
    b = abelian_basis(catalog_spec("c_in_m1_plus_m2"))
    pinned = {
        "unitary": UNITARY_TOL,
        "orthonormality": ORTHO_TOL,
        "reconstruction": RECON_TOL,
        "integer_eigenvector": 0.5,
        "markov_preservation": TRACE_TOL,
        "cardinality": 0.5,
    }
    assert {r.name: r.tolerance for r in verify_basis(b)} == pinned
    loose = {r.name: r.tolerance for r in verify_basis(b, recon_tol=1e-3)}
    assert loose == {**pinned, "reconstruction": 1e-3}
    E = markov_expectation(b.spec)
    assert {r.name: r.tolerance for r in verify_expectation_axioms(E, E.phi)} == {
        "idempotence": ORTHO_TOL,
        "unitality": ORTHO_TOL,
        "positivity": -POSITIVITY_FLOOR,
        "trace_preservation": TRACE_TOL,
        "bimodule": ORTHO_TOL,
    }


@pytest.mark.parametrize(
    "check",
    [verify_unitary, verify_orthonormality, verify_trace_conditions, verify_expectation_axioms],
    ids=lambda check: check.__name__,
)
def test_a_pinned_check_takes_no_tolerance(check):
    b = abelian_basis(catalog_spec("c_in_m1_plus_m2"))
    E = markov_expectation(b.spec)
    args = {
        verify_unitary: (b,),
        verify_orthonormality: (b, E),
        verify_trace_conditions: (b.spec, E),
        verify_expectation_axioms: (E, E.phi),
    }[check]
    with pytest.raises(TypeError, match="tol"):
        check(*args, tol=1.0)


def test_defect_duplicate_element():
    b = abelian_basis(catalog_spec("c_in_m2"))
    bad = UnitaryBasis.from_elements(b.spec, (b.elements[0],) + b.elements[:-1], "defect")
    reports = verify_basis(bad)
    failed = {r.name for r in reports if not r.passed}
    assert "orthonormality" in failed


def test_defect_wrong_cardinality():
    b = abelian_basis(catalog_spec("c_in_m3"))
    bad = UnitaryBasis.from_elements(b.spec, b.elements[:-2], "defect")
    reports = verify_basis(bad)
    failed = {r.name for r in reports if not r.passed}
    assert "cardinality" in failed
    # too few elements also break reconstruction
    E = markov_expectation(b.spec)
    assert not verify_reconstruction(bad, E, seed=1).passed


def test_defect_wrong_trace():
    # an expectation preserving the wrong tracial state fails the trace check
    spec = catalog_spec("m2_in_m2_plus_m4")
    wrong = TracialState(spec.super_algebra, (1, 1))  # Markov vector would be (2, 4)
    E_bad = conditional_expectation(spec, wrong)
    # the stacked check on the diagonal units, and the reference on all units
    reports = verify_trace_conditions(spec, E_bad)
    failed = {r.name for r in reports if not r.passed}
    assert "markov_preservation" in failed
    assert not all_units_markov_preservation(spec, E_bad).passed
    good = verify_trace_conditions(spec)
    assert all_passed(good)


def test_defect_nonunitary_element():
    b = abelian_basis(catalog_spec("c_in_m2"))
    scaled = tuple(W if j else 0.5 * W for j, W in enumerate(b.elements))
    bad = UnitaryBasis.from_elements(b.spec, scaled, "defect")
    assert not verify_unitary(bad).passed


# connected and without d: its Markov trace is the Perron vector of A A^t, not n
NO_D = InclusionSpec([[1, 2], [2, 1], [0, 1]], [1, 2])


def test_markov_preservation_checks_the_perron_trace_where_d_does_not_exist():
    reports = {r.name: r for r in verify_trace_conditions(NO_D, markov_expectation(NO_D))}
    assert not reports["integer_eigenvector"].passed
    assert reports["markov_preservation"].passed
    assert verify_trace_conditions(NO_D)[-1].passed  # E = None: the same Markov E


def test_markov_preservation_fails_for_the_expectation_preserving_n_where_d_does_not_exist():
    n_trace = TracialState(NO_D.super_algebra, NO_D.super_dims)
    report = verify_trace_conditions(NO_D, conditional_expectation(NO_D, n_trace))[-1]
    assert report.name == "markov_preservation" and not report.passed


def test_trace_check_refuses_a_disconnected_spec_without_d():
    # no unique Markov trace to check, whatever E is given
    spec = InclusionSpec([[1, 0], [0, 2]], [1, 1])
    E = conditional_expectation(spec, TracialState(spec.super_algebra, (1, 1)))
    for args in ((spec,), (spec, E)):
        with pytest.raises(DisconnectedDiagram):
            verify_trace_conditions(*args)


def test_spectral_failure_is_reported():
    reports = verify_trace_conditions(catalog_spec("c2_in_m3"))
    failed = {r.name for r in reports if not r.passed}
    assert "integer_eigenvector" in failed


def test_orthonormality_catches_phase_perturbation():
    b = weyl_basis(catalog_spec("c2_in_m2"))
    E = markov_expectation(b.spec)
    rot = tuple(W if j != 1 else np.exp(0.3j) * W for j, W in enumerate(b.elements))
    # a global phase keeps unitarity and orthonormality: both must still pass
    assert verify_unitary(UnitaryBasis.from_elements(b.spec, rot, "phase")).passed
    assert verify_orthonormality(UnitaryBasis.from_elements(b.spec, rot, "phase"), E).passed
    # but replacing an element by another basis element breaks orthonormality
    dup = tuple(W if j != 1 else b.elements[0] for j, W in enumerate(b.elements))
    assert not verify_orthonormality(UnitaryBasis.from_elements(b.spec, dup, "dup"), E).passed


def test_expectation_axiom_reports_have_names():
    spec = catalog_spec("c_in_m2")
    E = markov_expectation(spec)
    reports = verify_expectation_axioms(E, E.phi, seed=3)
    assert {r.name for r in reports} == {
        "idempotence",
        "unitality",
        "positivity",
        "trace_preservation",
        "bimodule",
    }
    assert all_passed(reports)


def test_report_string_shape():
    b = abelian_basis(catalog_spec("c_in_m2"))
    r = verify_unitary(b)
    assert str(r).startswith("[PASS]")
    assert r.to_dict()["name"] == "unitary"


def _nan_basis():
    """C inside C with its only element [[NaN]]: every structural check must fail."""
    spec = InclusionSpec.from_matrix([[1]], [1])
    return UnitaryBasis.from_elements(spec, (spec.super_algebra.operator([[[np.nan]]]),), "nan")


def test_nan_basis_fails_on_both_paths():
    b = _nan_basis()
    E = markov_expectation(b.spec)
    for certify in (verify_basis, reference_basis):
        reports = {r.name: r for r in certify(b, E)}
        for name in ("unitary", "orthonormality", "reconstruction"):
            assert not reports[name].passed, name
            assert np.isnan(reports[name].residual), name


def test_non_finite_residual_fails_the_report():
    b = abelian_basis(catalog_spec("c_in_m2"))
    blk = b.elements[1].data[0].copy()
    blk[0, 0] = np.inf
    inf = (b.elements[0], b.elements[1].algebra.operator([blk])) + b.elements[2:]
    with np.errstate(invalid="ignore"):
        report = verify_unitary(UnitaryBasis.from_elements(b.spec, inf, "inf"))
    assert not report.passed and not np.isfinite(report.residual)
    assert report.witness == "element 1"


def test_orthonormality_keeps_a_nan_behind_finite_residuals():
    # a NaN pair after finite pairs must still decide the verdict
    b = abelian_basis(catalog_spec("c_in_m3"))
    last = b.elements[-1]
    bad = last.algebra.operator([np.where(np.eye(3) > 0, np.nan, blk) for blk in last.data])
    nan_last = UnitaryBasis.from_elements(b.spec, b.elements[:-1] + (bad,), "nan")
    E = markov_expectation(b.spec)
    for check in (verify_orthonormality, per_column_orthonormality):
        report = check(nan_last, E)
        assert not report.passed and report.witness == f"pair (0, {b.d - 1})", check


def test_empty_basis_fails_without_crashing():
    spec = catalog_spec("c_in_m2")
    empty = UnitaryBasis.from_elements(spec, (), "empty")
    reports = verify_basis(empty)
    assert {r.name for r in reports} >= {"unitary", "orthonormality", "reconstruction", "cardinality"}
    for r in reports:
        if r.name in ("unitary", "orthonormality", "reconstruction", "cardinality"):
            assert not r.passed, r.name
    assert not all_passed(reports)


def test_an_empty_test_family_fails_reconstruction():
    # a sampler that draws nothing tests nothing: it must fail, not crash
    b = abelian_basis(catalog_spec("c_in_m2"))
    E = markov_expectation(b.spec)
    for check in (verify_reconstruction, per_operator_reconstruction):
        r = check(b, E, seed=4, sampler=lambda rng: [])
        assert not r.passed and r.residual == np.inf
        assert (r.witness, r.seed) == ("no test operators", 4)


def test_cardinality_uses_every_column():
    # A^t n = (3, 3) is not a multiple of m = (1, 2): no d exists, although
    # column 0 alone would give d = 3
    spec = InclusionSpec.from_matrix([[1, 1]], [1, 2])
    I = spec.super_algebra.identity()
    family = UnitaryBasis.from_elements(spec, (I, I, I), "three")
    reports = {r.name: r for r in verify_basis(family)}
    assert not reports["cardinality"].passed
    assert reports["cardinality"].witness == "d = 3, expected None"


def test_spec_less_basis_without_expectation_is_a_uob_error():
    spec = catalog_spec("c_in_m2")
    b = abelian_basis(spec)
    bare = UnitaryBasis(None, b.stacks, "bare")
    with pytest.raises(NoExpectation):
        verify_basis(bare)


def _identity_sampler(b):
    return lambda rng: [("identity", b.algebra.identity())]


# every check of a basis, as (basis, E) -> reports
BASIS_CHECKS = {
    "orthonormality": lambda b, E: verify_orthonormality(b, E),
    "reconstruction": lambda b, E: verify_reconstruction(b, E),
    "reconstruction(sampler=)": lambda b, E: verify_reconstruction(b, E, sampler=_identity_sampler(b)),
    "trace conditions": lambda b, E: verify_trace_conditions(b.spec, E),
    "verify_basis": lambda b, E: verify_basis(b, E),
}


def test_an_expectation_without_a_slot_table_is_refused_before_it_is_called():
    # every check of a basis reads E's compiled slot table: a plain callable
    # has none, so it is a NoExpectation, and E is never called
    b = abelian_basis(catalog_spec("c_in_m1_plus_m2"))
    compiled, calls = markov_expectation(b.spec), []

    def plain(X):
        calls.append(1)
        return compiled(X)

    for name, check in BASIS_CHECKS.items():
        with pytest.raises(NoExpectation, match="slot table"):
            check(b, plain)
        assert calls == [], name


def _counted(calls, E):
    def counted(X):
        calls.append(1)
        return E(X)

    return counted


def _partial_of_compiled(spec, calls):
    # a partial carries none of the compiled E's attributes, so no table
    return functools.partial(_counted(calls, markov_expectation(spec)))


def _other_algebra(spec, calls):
    # a wrapper that copies the table of the compiled E of another spec
    E = markov_expectation(catalog_spec("c_in_m3"))
    return functools.wraps(E)(_counted(calls, E))


REFUSED = {
    "partial of the compiled E": (NoExpectation, _partial_of_compiled),
    "table of another algebra": (AlgebraMismatch, _other_algebra),
}


@pytest.mark.parametrize("check", BASIS_CHECKS)
@pytest.mark.parametrize("form", REFUSED)
def test_each_check_refuses_an_expectation_without_the_basis_table(form, check):
    # the table is resolved before anything else: the check raises, and E is
    # never called
    b = abelian_basis(catalog_spec("c_in_m1_plus_m2"))
    error, make = REFUSED[form]
    calls = []
    with pytest.raises(error):
        BASIS_CHECKS[check](b, make(b.spec, calls))
    assert calls == []


def _spec_less_cases():
    """(name, basis, E): the tower's spec-less bases with their dual
    expectation, and a spec-less copy of an abelian basis with its Markov E."""
    for A, m in (([[1, 1], [1, 1]], [1, 1]), ([[1, 1, 1]], [1, 1, 1])):
        spec = InclusionSpec(A, m)
        bc = build_basic_construction(spec)
        b1 = basic_construction_basis(bc, abelian_basis(spec))
        yield f"tower {A}", b1, functools.partial(dual_expectation, bc)
    b = abelian_basis(catalog_spec("c_in_m5"))
    yield "bare c_in_m5", UnitaryBasis(None, b.stacks, "bare"), markov_expectation(b.spec)


@pytest.mark.parametrize("case", list(_spec_less_cases()), ids=lambda c: c[0])
def test_a_spec_less_basis_is_refused_also_with_an_expectation(case):
    # the ambient matrix units a tower basis would be tested on lie outside
    # A_1, and a bare basis has no trace or cardinality check: no certificate
    # is given, and the message names the three checks that do apply
    _, basis, E = case
    assert basis.spec is None
    with pytest.raises(NoExpectation) as err:
        verify_basis(basis, E, seed=0)
    for check in ("verify_unitary", "verify_orthonormality", "verify_reconstruction(sampler=)"):
        assert check in str(err.value)


# E is called 30 times for idempotence (E(X), E(E(X)), E(X) per draw), once
# for unitality, 10 times each for positivity and trace preservation, then 60
# times for the bimodule law; one call in the middle of a report returns NaN.
@pytest.mark.parametrize(
    "call,report",
    [(5, "idempotence"), (26, "idempotence"), (36, "positivity"),
     (46, "trace_preservation"), (80, "bimodule")],
)
def test_a_nan_from_one_middle_call_fails_its_axiom_report(call, report):
    E = markov_expectation(catalog_spec("c_in_m2"))
    calls = []

    def poisoned(X):
        calls.append(1)
        Y = E(X)
        if len(calls) == call:
            return X.algebra.operator([np.full(b.shape, np.nan) for b in Y.data])
        return Y

    reports = verify_expectation_axioms(poisoned, E.phi, seed=3)
    assert len(calls) == 111
    assert [r.name for r in reports if not r.passed] == [report]


@pytest.mark.parametrize("N", [1, 40, 41, 100, 300])
def test_the_trace_check_on_c_in_cn_applies_e_once_per_batch(monkeypatch, N):
    # C in C^N: N blocks of size 1, whose N diagonal units fill batches across blocks
    spec = InclusionSpec([[1]] * N, [1])
    calls = []
    apply = SlotTable.apply

    def counting_apply(self, blocks):
        calls.append(len(blocks[0]))
        return apply(self, blocks)

    monkeypatch.setattr(SlotTable, "apply", counting_apply)
    reports = {r.name: r for r in verify_trace_conditions(spec)}
    assert reports["markov_preservation"].passed
    size = spec.super_algebra.batch_size
    assert len(calls) == -(-N // size) and sum(calls) == N
