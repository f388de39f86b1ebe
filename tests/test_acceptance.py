"""Acceptance gate: eight end-to-end criteria, one printed pass/fail line each.

Each criterion is a separate test with its tolerances pinned in the body, so a
red line here means the corresponding guarantee of the package is broken.
"""

import json
import math
import time

import numpy as np

from uob.bases import (
    abelian_basis,
    abelian_basis_entrywise,
    concat_basis,
    direct_sum_basis,
    full_matrix_sub_basis,
    full_matrix_super_basis,
    tensor_basis,
    weyl_basis,
)
from uob.bases import UnitaryBasis
from uob.catalog import catalog_names, catalog_spec, random_abelian_specs
from uob.cli import main
from uob.expectation import markov_expectation, mixed_unitary_channel
from uob.inclusion import InclusionSpec, check_spectral_condition, markov_trace
from uob.tower import (
    basic_construction_basis,
    build_basic_construction,
    dual_expectation,
    generated_algebra_sampler,
)
from uob.verify import (
    all_passed,
    verify_basis,
    verify_necessary_conditions,
    verify_orthonormality,
    verify_reconstruction,
    verify_unitary,
)

from reference import composed_expectation

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


def _line(num, label, ok):
    print(f"acceptance {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def _structural_ok(basis, E=None, seed=0):
    if E is None:
        E = markov_expectation(basis.spec)
    return (
        verify_unitary(basis, 1e-9).passed
        and verify_orthonormality(basis, E, 1e-9).passed
        and verify_reconstruction(basis, E, 1e-8, seed=seed).passed
    )


def test_acceptance_1_exact_spectral_decisions():
    ok = True
    worst_time = 0.0
    for name in catalog_names():
        spec = catalog_spec(name)
        t0 = time.perf_counter()
        report = check_spectral_condition(spec)
        worst_time = max(worst_time, time.perf_counter() - t0)
        expected = EXPECTED_D[name]
        if expected is None:
            ok = ok and not report.holds and report.d is None
        else:
            ok = ok and report.holds and report.d == expected
    ok = ok and worst_time < 1e-3
    _line(1, "exact spectral decisions, <1ms per spec", ok)


def test_acceptance_2_abelian_construction():
    t0 = time.perf_counter()
    specs = [catalog_spec("c_in_m1_plus_m2"), catalog_spec("c2_in_m2")]
    specs += random_abelian_specs(5, seed=42, max_d=36)
    ok = True
    for spec in specs:
        b = abelian_basis(spec)
        ok = ok and b.d == check_spectral_condition(spec).d
        ok = ok and _structural_ok(b, seed=2)
        b2 = abelian_basis_entrywise(spec)
        worst = max((x - y).norm_inf() for x, y in zip(b.elements, b2.elements))
        ok = ok and worst <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _line(2, f"abelian bases + entrywise cross-check in {elapsed:.2f}s", ok)


def test_acceptance_3_weyl_construction():
    ok = True
    for n in (2, 3, 5):
        b = weyl_basis(InclusionSpec.from_matrix([[n]], [1]))
        ok = ok and b.d == n * n and _structural_ok(b, seed=3)
    b = weyl_basis(catalog_spec("c2_in_m2_plus_m2"))
    ok = ok and b.d == 4 and _structural_ok(b, seed=3)
    _line(3, "generalized Weyl bases", ok)


def test_acceptance_4_mixed_unitary_channel():
    ok = True
    for name in catalog_names():
        spec = catalog_spec(name)
        if EXPECTED_D[name] is None:
            continue
        if len(set(markov_trace(spec).trace_vector)) != 1:
            continue  # channel form needs equal Markov weights
        dec = mixed_unitary_channel(spec)
        E = markov_expectation(spec)
        rng = np.random.default_rng(4)
        for _ in range(20):
            X = spec.super_algebra.random(rng)
            ok = ok and np.max(np.abs(dec.apply(X) - E(X).to_dense())) <= 1e-10
    _line(4, "mixed unitary channel = conditional expectation", ok)


def test_acceptance_5_basic_construction():
    ok = True
    for name in ("c_in_m2", "c_in_m1_plus_m2", "c2_in_m2_plus_m2"):
        spec = catalog_spec(name)
        d = check_spectral_condition(spec).d
        bc = build_basic_construction(spec)
        b0 = abelian_basis(spec)
        E1 = lambda X: dual_expectation(bc, X)
        # E_1(e_1) = I/d
        resid = (E1(bc.e1_operator()) - (1 / d) * bc.gns_algebra.identity()).norm_inf()
        ok = ok and resid <= 1e-9
        # partition of unity sum U e1 U* = I
        total = bc.gns_algebra.zero()
        for U in b0.elements:
            L = bc.left_rep(U)
            total = total + L @ bc.e1_operator() @ L.adjoint()
        ok = ok and (total - bc.gns_algebra.identity()).norm_inf() <= 1e-8
        b1 = basic_construction_basis(bc, b0)
        sampler = generated_algebra_sampler(bc)
        ok = ok and verify_unitary(b1, 1e-9).passed
        ok = ok and verify_orthonormality(b1, E1, 1e-9).passed
        ok = ok and verify_reconstruction(b1, E1, 1e-8, seed=5, sampler=sampler).passed
        # entropy line: ln d = ln ||A||^2
        report = check_spectral_condition(spec)
        ok = ok and abs(report.entropy_value - math.log(report.norm_sq)) <= 1e-9
    _line(5, "basic construction: dual expectation, e1, entropy", ok)


def test_acceptance_6_necessary_conditions_and_defects():
    good = [
        abelian_basis(catalog_spec("c_in_m1_m1_m2")),
        weyl_basis(catalog_spec("c2_in_m4")),
        full_matrix_sub_basis(catalog_spec("m2_in_m2_plus_m4")),
    ]
    ok = all(all_passed(verify_necessary_conditions(b)) for b in good)

    b = good[0]
    duplicate = UnitaryBasis.from_elements(b.spec, (b.elements[0],) + b.elements[:-1], "defect")
    ok = ok and not all_passed(verify_necessary_conditions(duplicate))

    short = UnitaryBasis.from_elements(b.spec, b.elements[:-1], "defect")
    ok = ok and not all_passed(verify_necessary_conditions(short))

    from uob.algebra import TracialState
    from uob.expectation import conditional_expectation

    spec = catalog_spec("m2_in_m2_plus_m4")
    wrong_phi = TracialState(spec.super_algebra, (1, 1))
    E_bad = conditional_expectation(spec, wrong_phi)
    # rejected on the stacked path and on the per-element path
    for expectation in (E_bad, lambda X: E_bad(X)):
        bad_reports = verify_necessary_conditions(full_matrix_sub_basis(spec), E=expectation)
        ok = ok and not all_passed(bad_reports)
    _line(6, "necessary conditions pass on bases, fail on defects", ok)


def test_acceptance_7_combinators():
    ok = True
    built = []

    built.append(concat_basis(weyl_basis(catalog_spec("c2_in_m2")),
                              abelian_basis(InclusionSpec.from_matrix([[1], [1]], [1]))))
    built.append(concat_basis(abelian_basis(catalog_spec("c_in_m1_plus_m2")),
                              abelian_basis(InclusionSpec.from_matrix([[1]], [1]))))
    # concat results verify against the composed expectation
    for b, (si, so) in zip(built, [
        (catalog_spec("c2_in_m2"), InclusionSpec.from_matrix([[1], [1]], [1])),
        (catalog_spec("c_in_m1_plus_m2"), InclusionSpec.from_matrix([[1]], [1])),
    ]):
        ok = ok and _structural_ok(b, E=composed_expectation(si, so), seed=7)

    pairs = [
        tensor_basis(abelian_basis(catalog_spec("c_in_m2")), abelian_basis(catalog_spec("c_in_m3"))),
        tensor_basis(abelian_basis(catalog_spec("c_in_m1_plus_m2")), weyl_basis(catalog_spec("c2_in_m2"))),
        full_matrix_sub_basis(catalog_spec("m2_in_m4")),
        full_matrix_sub_basis(catalog_spec("m2_in_m2_plus_m4")),
        full_matrix_super_basis(catalog_spec("m2_in_m4")),
        full_matrix_super_basis(InclusionSpec.from_matrix([[1, 2]], [1, 2])),
    ]
    for b in pairs:
        ok = ok and _structural_ok(b, seed=7)
        built.append(b)

    sums = [
        direct_sum_basis(abelian_basis(catalog_spec("c_in_m2")),
                         weyl_basis(catalog_spec("c2_in_m2_plus_m2"))),
        direct_sum_basis(weyl_basis(catalog_spec("c2_in_m2")),
                         abelian_basis(catalog_spec("c2_in_m2"))),
    ]
    for b in sums:
        ok = ok and _structural_ok(b, seed=7)
        built.append(b)

    # exact quadratic identity for every spec produced above
    for b in built:
        if b.spec is None:
            continue
        A, m, n = b.spec.inclusion_matrix, b.spec.sub_dims, b.spec.super_dims
        holds, d = True, None
        for j in range(b.spec.r):
            t = sum(A[i][j] * n[i] for i in range(b.spec.s))
            holds = holds and t % m[j] == 0
            q = t // m[j]
            d = q if d is None else d
            holds = holds and q == d
        ok = ok and holds and sum(x * x for x in n) == d * sum(x * x for x in m)
    _line(7, "combinators produce verified bases, quadratic identity exact", ok)


def test_acceptance_8_end_to_end_cli(tmp_path, capsys):
    ok = True
    for name in catalog_names():
        spec = catalog_spec(name)
        if EXPECTED_D[name] is None:
            continue
        if spec.super_algebra.vector_dim > 256:
            continue
        out = tmp_path / f"{name}.json"
        code = main(["basis", name, "--method", "auto", "--out", str(out)])
        ok = ok and code == 0
        ok = ok and main(["verify", str(out)]) == 0
    capsys.readouterr()
    _line(8, "cli basis --method auto then cli verify exit 0", ok)
