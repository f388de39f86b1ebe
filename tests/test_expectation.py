"""Conditional expectations: factored form, axioms, channel form, projections."""

from fractions import Fraction

import numpy as np
import pytest

from uob.algebra import MultiMatrixAlgebra, TracialState
from uob.catalog import catalog_names, catalog_spec
from uob.errors import AlgebraMismatch, NonStandardTrace, NotPinched, SingularGram
from uob.expectation import (
    ExpectationWeights,
    average_E2,
    conditional_expectation,
    conditional_expectation_compressed,
    markov_expectation,
    mixed_unitary_channel,
    pinch_E1,
    projection_expectation,
)
from uob.inclusion import embed, markov_trace
from uob.verify import all_passed, verify_expectation_axioms

EQUAL_WEIGHT = [
    name
    for name in catalog_names()
    if len(set(markov_trace(catalog_spec(name)).trace_vector)) == 1
]


def test_weights_sum_to_one_in_each_column():
    spec = catalog_spec("m2_in_m2_plus_m4")
    w = ExpectationWeights(spec, spec.super_dims)
    for j in range(spec.r):
        assert sum(spec.a(i, j) * w.q(i, j) for i in range(spec.s)) == Fraction(1)


def test_pinch_is_idempotent_and_trace_preserving():
    spec = catalog_spec("m2_in_m2_plus_m4")
    rng = np.random.default_rng(0)
    X = spec.super_algebra.random(rng)
    Y = pinch_E1(spec, X)
    assert pinch_E1(spec, Y).allclose(Y, 1e-12)
    assert np.allclose(X.block_traces(), Y.block_traces(), atol=1e-10)


def test_average_rejects_unpinched_input():
    spec = catalog_spec("c_in_m2")
    w = ExpectationWeights(spec, spec.super_dims)
    X = spec.super_algebra.operator([np.array([[0, 1], [0, 0]])])
    with pytest.raises(NotPinched):
        average_E2(w, X)


def test_expectation_fixes_embedded_subalgebra():
    for name in ("c_in_m1_m1_m2", "m2_in_m2_plus_m4", "c2_in_m2_plus_m2"):
        spec = catalog_spec(name)
        E = markov_expectation(spec)
        rng = np.random.default_rng(1)
        Y = spec.sub_algebra.random(rng)
        assert E(embed(spec, Y)).allclose(embed(spec, Y), 1e-10)


def test_expectation_axioms_on_catalog():
    for name in catalog_names():
        spec = catalog_spec(name)
        E = markov_expectation(spec)
        reports = verify_expectation_axioms(E, E.phi, seed=5)
        assert all_passed(reports), (name, [str(r) for r in reports if not r.passed])


def test_compressed_form_matches_embedded_form():
    spec = catalog_spec("m2_in_m4")
    phi = TracialState(spec.super_algebra, spec.super_dims)
    rng = np.random.default_rng(2)
    X = spec.super_algebra.random(rng)
    assert embed(spec, conditional_expectation_compressed(spec, phi, X)).allclose(
        conditional_expectation(spec, phi, X), 1e-12
    )


def test_mixed_unitary_channel_matches_expectation():
    for name in EQUAL_WEIGHT:
        spec = catalog_spec(name)
        dec = mixed_unitary_channel(spec)
        E = markov_expectation(spec)
        rng = np.random.default_rng(7)
        for _ in range(3):
            X = spec.super_algebra.random(rng)
            assert np.max(np.abs(dec.apply(X) - E(X).to_dense())) < 1e-10, name


def test_mixed_unitary_operators_are_unitary():
    spec = catalog_spec("c2_in_m2_plus_m2")
    dec = mixed_unitary_channel(spec)
    count = 0
    for U in dec.unitaries():
        assert np.allclose(U @ U.conj().T, np.eye(U.shape[0]), atol=1e-12)
        count += 1
    prod = 1
    for Tj in dec.column_counts:
        prod *= Tj
    assert count == prod * dec.total_count == dec.unitary_count
    assert dec.weight == Fraction(1, count)


def test_mixed_unitary_requires_equal_weights():
    with pytest.raises(NonStandardTrace):
        mixed_unitary_channel(catalog_spec("m2_in_m2_plus_m4"))


def test_projection_expectation_agrees_with_factored_form():
    spec = catalog_spec("c_in_m1_plus_m2")
    phi = TracialState(spec.super_algebra, spec.super_dims)
    basis = [embed(spec, u) for _, u in spec.sub_algebra.matrix_units()]
    rng = np.random.default_rng(3)
    for _ in range(3):
        X = spec.super_algebra.random(rng)
        assert projection_expectation(phi, basis, X).allclose(
            conditional_expectation(spec, phi, X), 1e-9
        )


def test_projection_expectation_rejects_degenerate_family():
    spec = catalog_spec("c_in_m2")
    phi = TracialState(spec.super_algebra, spec.super_dims)
    I = spec.super_algebra.identity()
    with pytest.raises(SingularGram):
        projection_expectation(phi, [I, I], I)
    # a dependent family on several blocks with a non-uniform trace vector
    alg = MultiMatrixAlgebra((1, 2, 3))
    rng = np.random.default_rng(8)
    X, Y = alg.random(rng), alg.random(rng)
    with pytest.raises(SingularGram):
        projection_expectation(TracialState(alg, (1, 3, 2)), [X, Y, X + 2 * Y], X)


def _projection_reference(phi, family, X):
    """The projection written out: solve G c = (<S_a, X>)_a, then sum c_a S_a."""
    G = np.array([[phi.inner(S, T) for T in family] for S in family])
    c = np.linalg.solve(G, [phi.inner(S, X) for S in family])
    out = phi.algebra.zero()
    for ca, S in zip(c, family):
        out = out + ca * S
    return out


@pytest.mark.parametrize("trace_vector", [(1, 3, 2), (0.7, 1.9, 2.3)])
@pytest.mark.parametrize("k", [1, 6, 14])
def test_compiled_projection_matches_the_written_out_formula(trace_vector, k):
    # random, non-orthogonal families on M_1 + M_2 + M_3 (N = 14) with a
    # non-uniform trace vector; k = 14 spans the whole algebra
    alg = MultiMatrixAlgebra((1, 2, 3))
    phi = TracialState(alg, trace_vector)
    rng = np.random.default_rng(k)
    family = [alg.random(rng) for _ in range(k)]
    for _ in range(3):
        X = alg.random(rng)
        got = projection_expectation(phi, family, X)
        assert got.allclose(_projection_reference(phi, family, X), 1e-12)
    if k == 14:
        assert got.allclose(X, 1e-12)


def test_compiled_projection_rejects_an_operand_of_another_algebra():
    alg = MultiMatrixAlgebra((1, 2))
    phi = TracialState(alg, (1, 2))
    with pytest.raises(AlgebraMismatch):
        projection_expectation(phi, [alg.identity()], MultiMatrixAlgebra((3,)).identity())
