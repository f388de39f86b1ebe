"""The verify suite must accept genuine bases and reject injected defects."""

import numpy as np
import pytest

from uob.algebra import TracialState
from uob.bases import UnitaryBasis, abelian_basis, weyl_basis
from uob.catalog import catalog_spec
from uob.errors import NoExpectation
from uob.expectation import conditional_expectation, markov_expectation
from uob.inclusion import InclusionSpec
from uob.verify import (
    all_passed,
    verify_basis,
    verify_expectation_axioms,
    verify_necessary_conditions,
    verify_orthonormality,
    verify_reconstruction,
    verify_trace_conditions,
    verify_unitary,
)


def test_good_bases_pass_everything():
    for b in (abelian_basis(catalog_spec("c_in_m1_plus_m2")), weyl_basis(catalog_spec("c2_in_m4"))):
        assert all_passed(verify_basis(b, seed=0))
        assert all_passed(verify_necessary_conditions(b))


def test_defect_duplicate_element():
    b = abelian_basis(catalog_spec("c_in_m2"))
    bad = UnitaryBasis.from_elements(b.spec, (b.elements[0],) + b.elements[:-1], "defect")
    reports = verify_necessary_conditions(bad)
    failed = {r.name for r in reports if not r.passed}
    assert "orthonormality" in failed


def test_defect_wrong_cardinality():
    b = abelian_basis(catalog_spec("c_in_m3"))
    bad = UnitaryBasis.from_elements(b.spec, b.elements[:-2], "defect")
    reports = verify_necessary_conditions(bad)
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
    # the compiled E takes the stacked check, a plain callable the per-element one
    for expectation in (E_bad, lambda X: E_bad(X)):
        reports = verify_trace_conditions(spec, expectation)
        failed = {r.name for r in reports if not r.passed}
        assert "markov_preservation" in failed
    good = verify_trace_conditions(spec)
    assert all_passed(good)


def test_defect_nonunitary_element():
    b = abelian_basis(catalog_spec("c_in_m2"))
    scaled = tuple(W if j else 0.5 * W for j, W in enumerate(b.elements))
    bad = UnitaryBasis.from_elements(b.spec, scaled, "defect")
    assert not verify_unitary(bad).passed


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
    for expectation in (E, lambda X: E(X)):
        reports = {r.name: r for r in verify_basis(b, expectation)}
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


def test_generic_loop_keeps_a_nan_behind_finite_residuals():
    # a NaN pair after finite pairs must still decide the verdict
    b = abelian_basis(catalog_spec("c_in_m3"))
    last = b.elements[-1]
    bad = last.algebra.operator([np.where(np.eye(3) > 0, np.nan, blk) for blk in last.data])
    nan_last = UnitaryBasis.from_elements(b.spec, b.elements[:-1] + (bad,), "nan")
    E = markov_expectation(b.spec)
    report = verify_orthonormality(nan_last, lambda X: E(X))
    assert not report.passed and report.witness == f"pair (0, {b.d - 1})"


def test_empty_basis_fails_without_crashing():
    spec = catalog_spec("c_in_m2")
    empty = UnitaryBasis.from_elements(spec, (), "empty")
    reports = verify_basis(empty)
    assert {r.name for r in reports} >= {"unitary", "orthonormality", "reconstruction", "cardinality"}
    for r in reports:
        if r.name in ("unitary", "orthonormality", "reconstruction", "cardinality"):
            assert not r.passed, r.name
    assert not all_passed(verify_necessary_conditions(empty))


def test_an_empty_test_family_fails_reconstruction():
    # a sampler that draws nothing tests nothing: it must fail, not crash
    b = abelian_basis(catalog_spec("c_in_m2"))
    compiled = markov_expectation(b.spec)
    for E in (compiled, lambda X: compiled(X)):
        r = verify_reconstruction(b, E, seed=4, sampler=lambda rng: [])
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
    with pytest.raises(NoExpectation):
        verify_necessary_conditions(bare)


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
