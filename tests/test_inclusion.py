"""Spec validation, the integer spectral condition, Markov traces, embeddings."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given

from uob.bases import construct
from uob import inclusion
from uob.catalog import catalog_names, catalog_spec
from uob.errors import DimensionMismatch, DisconnectedDiagram, EmptyColumn, InvariantViolated
from uob.expectation import markov_expectation
from uob.inclusion import (
    InclusionSpec,
    check_spectral_condition,
    embed,
    markov_trace,
    spectral_d,
    unembed,
)
from uob.verify import all_passed, verify_basis

from reference import connected_by_adjacency, random_abelian_specs
from spec_box import specs

# hand integer arithmetic for the shipped catalog: name -> expected d (None = fails)
EXPECTED_D = {
    "c_in_m2": 4,
    "c_in_m3": 9,
    "c_in_m5": 25,
    "c_in_m1_plus_m2": 5,
    "c_in_m1_m1_m2": 6,
    "c2_in_m2": 2,
    "c2_in_m4": 8,
    "c2_in_m2_plus_m2": 4,
    "c3_in_m3": 3,
    "m2_in_m2_plus_m4": 5,
    "m2_in_m4": 4,
    "c2_in_m3": None,
}


def test_from_matrix_computes_super_dims():
    spec = InclusionSpec.from_matrix([[1], [2]], [2])
    assert spec.super_dims == (2, 4)
    assert InclusionSpec([[1], [2]], [2]) == spec


@pytest.mark.parametrize(
    "fields, error",
    [
        ((((1, 1),), (1,)), DimensionMismatch),  # a row of the wrong length
        ((((2, -1),), (1, 1)), DimensionMismatch),  # a negative entry
        ((((1,),), (0,)), DimensionMismatch),  # a non-positive dimension
        ((((2, -1), (1, 1, 1)), (1, 1)), DimensionMismatch),  # row 0 negative, row 1 too long
        ((((1, 0), (2, 0)), (1, 1)), EmptyColumn),  # a zero column
        (((), ()), DimensionMismatch),  # an empty matrix
        ((((1,), (0,)), (1,)), DimensionMismatch),  # a zero row
        ((((True,),), (1,)), DimensionMismatch),  # a boolean entry
        ((((1,),), ("1",)), DimensionMismatch),  # a string dimension
    ],
)
def test_an_invalid_spec_cannot_be_constructed(fields, error):
    with pytest.raises(error):
        InclusionSpec(*fields)


@pytest.mark.parametrize(
    "fields, message",
    [
        # row by row: row 0's fault is the one reported, whatever row 1 holds
        ((((2, -1), (1, 1, 1)), (1, 1)), "inclusion matrix entries must be non-negative"),
        ((((1, 1), (1, -1)), (1, 1, 1)), "inclusion matrix column count does not match sub_dims"),
        # the row checks come before the dimension check
        ((((1, 0), (1,)), (0, 1)), "inclusion matrix column count does not match sub_dims"),
        # a zero row fails the dimension check before its zero column is seen
        ((((0, 0), (1, 0)), (1, 1)), "dimension vectors must be positive"),
        # both conversions come first, the matrix's before sub_dims'
        ((((1.5,),), (0.5,)), "inclusion matrix must hold integers"),
        ((((-1,),), (0.5,)), "sub_dims must hold integers"),
    ],
)
def test_a_spec_is_checked_in_order(fields, message):
    with pytest.raises(DimensionMismatch, match=message):
        InclusionSpec(*fields)


def test_super_dims_is_derived_not_stated():
    with pytest.raises(TypeError):
        InclusionSpec(((1,),), (2,), (3,))


def test_every_spec_is_validated_once_by_its_constructor(monkeypatch):
    built = []
    post_init = InclusionSpec.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(InclusionSpec, "__post_init__", counting_post_init)
    counts = {}
    for name in ("c_in_m5", "c2_in_m4", "m2_in_m2_plus_m4", "c3_in_m3"):
        spec = catalog_spec(name)
        del built[:]
        assert all_passed(verify_basis(construct(spec, "auto"), seed=7))
        counts[name] = len(built)
    # the checks run in __post_init__ alone: an abelian basis builds no spec of
    # its own, so nothing is checked again; a full_matrix_sub basis builds some
    assert counts["c_in_m5"] == counts["c2_in_m4"] == 0
    assert counts["m2_in_m2_plus_m4"] > 0


def test_from_matrix_rejects_non_integer_entries():
    with pytest.raises(DimensionMismatch):
        InclusionSpec.from_matrix([[2.7]], [1.9])
    with pytest.raises(DimensionMismatch):
        InclusionSpec.from_matrix([[2]], [1.9])
    with pytest.raises(DimensionMismatch):
        InclusionSpec.from_matrix("x", [1])
    with pytest.raises(DimensionMismatch):
        InclusionSpec(((2.0,),), (1,))


def test_validate_rejects_empty_matrix():
    with pytest.raises(DimensionMismatch):
        InclusionSpec.from_matrix([], [])


def test_spectral_d_is_the_report_d():
    for name in catalog_names():
        spec = catalog_spec(name)
        assert spectral_d(spec) == EXPECTED_D[name] == check_spectral_condition(spec).d
    # every column must give the same integer, not just the first
    assert spectral_d(InclusionSpec.from_matrix([[1, 2]], [1, 1])) is None
    assert spectral_d(InclusionSpec.from_matrix([[1, 0], [0, 2]], [1, 1])) is None
    assert spectral_d(InclusionSpec.from_matrix([[1, 0], [0, 1]], [1, 2])) == 1


def test_validate_rejects_empty_column():
    with pytest.raises(EmptyColumn):
        InclusionSpec.from_matrix([[1, 0], [2, 0]], [1, 1])


def test_spectral_condition_catalog():
    for name in catalog_names():
        spec = catalog_spec(name)
        report = check_spectral_condition(spec)
        if EXPECTED_D[name] is None:
            assert not report.holds and report.d is None
        else:
            assert report.holds and report.d == EXPECTED_D[name]
            assert abs(report.norm_sq - report.d) < 1e-9
            n, m = spec.super_dims, spec.sub_dims
            assert sum(x * x for x in n) == report.d * sum(x * x for x in m)
            assert "quadratic_holds" not in report.to_dict()
            assert abs(report.entropy_value - math.log(report.d)) < 1e-12


def test_spectral_condition_on_random_specs():
    for spec in random_abelian_specs(10, seed=11):
        report = check_spectral_condition(spec)
        assert report.holds
        # direct integer recomputation
        A, m, n = spec.inclusion_matrix, spec.sub_dims, spec.super_dims
        for j in range(spec.r):
            assert sum(A[i][j] * n[i] for i in range(spec.s)) == report.d * m[j]


def test_markov_trace_matches_perron_eigenvector():
    spec = catalog_spec("m2_in_m2_plus_m4")
    phi = markov_trace(spec)
    A = np.array(spec.inclusion_matrix, float)
    v = np.array(phi.trace_vector, float)
    assert np.allclose(A @ A.T @ v, (np.linalg.norm(A, 2) ** 2) * v, atol=1e-9)


def test_markov_trace_without_spectral_condition():
    spec = catalog_spec("c2_in_m3")
    phi = markov_trace(spec)
    A = np.array(spec.inclusion_matrix, float)
    v = np.array(phi.trace_vector, float)
    lam = np.linalg.norm(A, 2) ** 2
    assert np.allclose(A @ A.T @ v, lam * v, atol=1e-9)


def test_markov_trace_of_a_tall_spec_forms_no_s_by_s_matrix():
    # s = 2000: A A^t = 2 ones would be 32 MB, and its eigh more; a thin SVD holds O(s r)
    spec = InclusionSpec([[1, 1]] * 2000, [1, 2])
    tracemalloc.start()
    try:
        report = check_spectral_condition(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.holds
    assert peak < 5e6
    assert max(abs(x - 1.0) for x in report.markov_trace.trace_vector) <= 1e-12


@given(specs())
@example(InclusionSpec([[1, 1]] * 2000, [1, 2]))  # tall
@example(InclusionSpec([[1, 0, 0], [0, 1, 1], [0, 0, 1]], [1, 1, 1]))  # sub block 0 alone
@example(InclusionSpec([[0, 1, 1], [0, 0, 1], [1, 1, 0]], [1, 1, 1]))  # a path: three rounds
@example(InclusionSpec([[2**70, 0], [1, 3**50]], [1, 2]))  # huge entries, connected
@example(InclusionSpec([[2**70, 0], [0, 3**50]], [2**40, 1]))  # huge entries, disconnected
def test_connectivity_is_the_adjacency_search(spec):
    assert spec.is_connected() == connected_by_adjacency(spec)


@pytest.mark.parametrize("A, m", [([[1, 2]], [1, 1]), ([[1, 1]] * 2000, [1, 2])])
def test_a_failing_connected_check_decides_d_and_connectivity_once(monkeypatch, A, m):
    calls = {"spectral_d": 0, "is_connected": 0}
    spectral, connected = inclusion.spectral_d, InclusionSpec.is_connected

    def counting_spectral_d(spec):
        calls["spectral_d"] += 1
        return spectral(spec)

    def counting_is_connected(spec):
        calls["is_connected"] += 1
        return connected(spec)

    monkeypatch.setattr(inclusion, "spectral_d", counting_spectral_d)
    monkeypatch.setattr(InclusionSpec, "is_connected", counting_is_connected)
    report = check_spectral_condition(InclusionSpec(A, m))
    assert not report.holds and report.connected and report.markov_trace is not None
    assert calls == {"spectral_d": 1, "is_connected": 1}


def test_markov_trace_rejects_disconnected():
    # disconnected and without d: no unique Markov trace
    spec = InclusionSpec.from_matrix([[1, 0], [0, 2]], [1, 1])
    assert not spec.is_connected() and spectral_d(spec) is None
    with pytest.raises(DisconnectedDiagram):
        markov_trace(spec)


def test_markov_trace_is_n_on_a_disconnected_diagram_with_d():
    # d = 1: n is the trace that E, the report and the trace check all read
    spec = InclusionSpec.from_matrix([[1, 0], [0, 1]], [1, 2])
    assert not spec.is_connected() and spectral_d(spec) == 1
    assert markov_trace(spec).trace_vector == (1, 2)
    assert markov_expectation(spec).phi.trace_vector == (1, 2)
    assert check_spectral_condition(spec).to_dict()["markov_trace_vector"] == [1, 2]


def test_a_connected_diagram_past_float_resolution_is_an_invariant_violation():
    # connected, so Perron-Frobenius makes the vector strictly positive; in
    # floats its second entry (about 2^-60 of the first) is lost
    spec = InclusionSpec([[2**60, 3], [1, 1]], [1, 1])
    assert spec.is_connected() and spectral_d(spec) is None
    for call in (check_spectral_condition, markov_trace):
        with pytest.raises(InvariantViolated, match="not strictly positive"):
            call(spec)


@pytest.mark.parametrize(
    "A, m",
    [([[1, 2], [2, 1], [0, 1]], [1, 2]), ([[2]], [1]), ([[1, 0], [0, 2]], [1, 1]), ([[1, 1]] * 2000, [1, 2])],
    ids=["connected_without_d", "with_d", "disconnected_without_d", "tall"],
)
def test_the_spectral_check_takes_one_svd_and_no_norm(monkeypatch, A, m):
    calls = {"svd": 0, "norm": 0}
    svd, norm = np.linalg.svd, np.linalg.norm

    def counting(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "svd", counting("svd", svd))
    monkeypatch.setattr(np.linalg, "norm", counting("norm", norm))
    report = check_spectral_condition(InclusionSpec(A, m))
    assert calls == {"svd": 1, "norm": 0}
    assert (report.markov_trace is None) == (not report.holds and not report.connected)


@given(specs())
def test_copies_tile_each_super_block_in_layout_order(spec):
    A, m = spec.inclusion_matrix, spec.sub_dims
    assert list(spec.copies) == sorted(spec.copies, key=lambda c: (c[0], c[3]))
    assert {c[:3] for c in spec.copies} == {
        (i, j, k) for i in range(spec.s) for j in range(spec.r) for k in range(A[i][j])
    }
    for i, j, k, start in spec.copies:
        assert start == sum(A[i][v] * m[v] for v in range(j)) + k * m[j]
    for i, n in enumerate(spec.super_dims):
        cells = [p for x, j, _, s in spec.copies if x == i for p in range(s, s + m[j])]
        assert sorted(cells) == list(range(n))


def test_embed_is_a_homomorphism():
    spec = catalog_spec("m2_in_m2_plus_m4")
    rng = np.random.default_rng(3)
    Y, Z = spec.sub_algebra.random(rng), spec.sub_algebra.random(rng)
    assert embed(spec, Y @ Z).allclose(embed(spec, Y) @ embed(spec, Z), 1e-10)
    assert embed(spec, spec.sub_algebra.identity()).allclose(spec.super_algebra.identity())
    assert unembed(spec, embed(spec, Y)).allclose(Y, 1e-12)


def test_transpose_spec():
    spec = catalog_spec("c_in_m1_plus_m2")
    t = spec.transpose()
    assert t.sub_dims == spec.super_dims
    assert t.super_dims == (sum(n * n for n in spec.super_dims),)
    # transpose of a spectral-condition inclusion again satisfies it, same d
    assert check_spectral_condition(t).d == check_spectral_condition(spec).d
