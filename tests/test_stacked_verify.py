"""The compiled E and the stacked verify checks against the per-element reference.

The reference path is the same E wrapped in a plain lambda: it carries no
slot table, so every check calls it once per element, pair or test operator.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uob.algebra import MultiMatrixAlgebra, TracialState
from uob.bases import UnitaryBasis, construct
from uob.catalog import catalog_names, catalog_spec, random_abelian_specs
from uob.errors import AlgebraMismatch, DisconnectedDiagram, UobError
from uob.expectation import _GramProjector, conditional_expectation, markov_expectation
from uob import verify
from uob.inclusion import InclusionSpec, embed
from uob.verify import (
    N_RANDOM,
    RECON_TOL,
    _compiled_reconstruction,
    _weighted_columns,
    _worst,
    all_passed,
    verify_basis,
    verify_orthonormality,
    verify_reconstruction,
    verify_trace_conditions,
    verify_unitary,
)

from spec_box import specs

MATCH_TOL = 1e-15


def _constructible():
    out = []
    for name in catalog_names():
        try:
            out.append((name, construct(catalog_spec(name), "auto")))
        except UobError:
            pass
    for k, spec in enumerate(random_abelian_specs(5, seed=42, max_d=36)):
        out.append((f"random{k}", construct(spec, "auto")))
    return out


BASES = _constructible()


def _unitary_reference(basis):
    """Per-element loop: max over j of |W W* - I| and |W* W - I|."""
    I = basis.elements[0].algebra.identity()
    return max(
        max((W @ W.adjoint() - I).norm_inf(), (W.adjoint() @ W - I).norm_inf())
        for W in basis.elements
    )


def _tampered(basis):
    """The negative controls: each must fail on both paths."""
    els = list(basis.elements)
    alg = els[0].algebra

    def change(j, fn):
        data = [blk.copy() for blk in els[j].data]
        fn(data)
        return tuple(els[:j] + [alg.operator(data)] + els[j + 1 :])

    last = len(els) - 1

    def set_entry(value):
        def fn(data):
            data[-1][0, -1] = value

        return fn

    def off(data):
        data[0][0, 0] += 1e-6

    return {
        "perturb": change(last, off),
        "drop": tuple(els[:-1]),
        "duplicate": tuple(els + [els[last]]),
        "scale": tuple(els[:last] + [(1 + 1e-6) * els[last]]),
        "nan": change(last, set_entry(np.nan)),
        "inf": change(last, set_entry(np.inf)),
    }


def test_constructible_set_is_not_empty():
    assert len(BASES) >= 15


@pytest.mark.parametrize("name,basis", BASES, ids=[n for n, _ in BASES])
def test_stacked_residuals_match_reference(name, basis):
    E = markov_expectation(basis.spec)
    G = lambda X: E(X)  # noqa: E731
    assert abs(verify_unitary(basis).residual - _unitary_reference(basis)) <= MATCH_TOL
    pairs = [
        (verify_orthonormality(basis, E), verify_orthonormality(basis, G)),
        (verify_reconstruction(basis, E, seed=7), verify_reconstruction(basis, G, seed=7)),
        (verify_trace_conditions(basis.spec, E)[-1], verify_trace_conditions(basis.spec, G)[-1]),
    ]
    for fast, ref in pairs:
        assert fast.name == ref.name and fast.passed and ref.passed
        assert abs(fast.residual - ref.residual) <= MATCH_TOL, (name, fast, ref)


@pytest.mark.parametrize("name,basis", BASES, ids=[n for n, _ in BASES])
def test_verdicts_agree_on_tampered_copies(name, basis):
    E = markov_expectation(basis.spec)
    G = lambda X: E(X)  # noqa: E731
    for kind, elements in _tampered(basis).items():
        bad = UnitaryBasis.from_elements(basis.spec, elements, kind)
        fast = verify_basis(bad, E, seed=1)
        ref = verify_basis(bad, G, seed=1)
        assert [r.passed for r in fast] == [r.passed for r in ref], (name, kind)
        assert not all(r.passed for r in fast), (name, kind)


@pytest.mark.parametrize("name", catalog_names())
def test_compiled_E_on_a_batch_matches_pinch_then_average(name):
    # the reference is the phi-orthogonal projection onto the embedded matrix
    # units of B, under the Markov trace and under a trace off it
    spec = catalog_spec(name)
    units = [embed(spec, u) for _, u in spec.sub_algebra.matrix_units()]
    other = TracialState(spec.super_algebra, (0.7, 1.9, 2.3)[: spec.s])
    for phi in (markov_expectation(spec).phi, other):
        E = conditional_expectation(spec, phi)
        project = _GramProjector(phi, units)
        rng = np.random.default_rng(11)
        Xs = [spec.super_algebra.random(rng) for _ in range(4)]
        batch = E.slots.apply([np.stack(blocks) for blocks in zip(*(X.data for X in Xs))])
        for k, X in enumerate(Xs):
            ref = project(X)
            for got, want in zip(batch, ref.data):
                assert np.max(np.abs(got[k] - want)) <= MATCH_TOL
            assert (E(X) - ref).norm_inf() <= MATCH_TOL


def test_fast_path_survives_a_wrapper_that_copies_attributes():
    # wrappers built with functools.wraps copy E's attributes, slot table included
    name, basis = BASES[0]
    E = markov_expectation(basis.spec)
    calls = []

    @functools.wraps(E)
    def wrapped(X):
        calls.append(1)
        return E(X)

    assert verify_orthonormality(basis, wrapped).passed
    assert verify_reconstruction(basis, wrapped).passed
    assert all_passed(verify_trace_conditions(basis.spec, wrapped))
    assert calls == []


CATALOG_BASES = [(name, basis) for name, basis in BASES if not name.startswith("random")]


@pytest.mark.parametrize("name,basis", CATALOG_BASES, ids=[n for n, _ in CATALOG_BASES])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_any_nan_inf_or_moved_entry_fails_on_both_paths(name, basis, data):
    # An entry w moves radially, by 1e-6 along w / |w| (or by 1e-6 when w = 0).
    # A move tangent to |w| = 1 is not a defect: on a monomial element such as
    # the identity it is a phase rotation to first order, and the family stays
    # a unitary orthonormal basis to 1e-12.
    i = data.draw(st.integers(0, len(basis.stacks) - 1), label="block")
    j, a, b = (data.draw(st.integers(0, k - 1)) for k in basis.stacks[i].shape)
    step = data.draw(st.sampled_from([np.nan, np.inf, 1e-6, -1e-6]))
    stacks = [s.copy() for s in basis.stacks]
    w = stacks[i][j, a, b]
    stacks[i][j, a, b] = step if not np.isfinite(step) else w + step * (w / abs(w) if w else 1)
    bad = UnitaryBasis(basis.spec, tuple(stacks), "tampered")
    E = markov_expectation(basis.spec)
    for expectation in (E, lambda X: E(X)):
        assert not all_passed(verify_basis(bad, expectation, seed=3)), (name, step)


# the paper's first special case, complex Hadamard matrices, at width: C in C^100
# (the 100 x 100 Fourier matrix as 100 blocks of size 1) and a wide mixed-size one
WIDE = {
    "c_in_c100": InclusionSpec.from_matrix([[1]] * 100, [1]),
    "c_in_m1_m1_m2_x20": InclusionSpec.from_matrix([[1], [1], [2]] * 20, [1]),
}


@pytest.mark.parametrize("name", WIDE)
def test_a_wide_basis_takes_one_unitary_product_per_block(name, monkeypatch):
    spec = WIDE[name]
    basis = construct(spec, "auto")
    assert all_passed(verify_basis(basis))
    calls, entry_max = [], verify._entry_max

    def counted(stack):
        calls.append(len(stack))
        return entry_max(stack)

    monkeypatch.setattr(verify, "_entry_max", counted)
    report = verify_unitary(basis)
    # chunked by each block's own size, every block is one chunk: W W* and W* W once each
    assert calls == [basis.d] * (2 * spec.s)
    one = lambda j: UnitaryBasis(spec, tuple(Ws[j : j + 1] for Ws in basis.stacks), "one")  # noqa: E731
    per_element = [_unitary_reference(one(j)) for j in range(basis.d)]
    assert report.residual == _unitary_reference(basis) == max(per_element)
    assert report.witness == f"element {int(np.argmax(per_element))}"


@pytest.mark.parametrize("name,basis", CATALOG_BASES, ids=[n for n, _ in CATALOG_BASES])
def test_generic_path_calls_E_once_per_operand(name, basis):
    E = markov_expectation(basis.spec)
    calls = []

    def counted(X):  # no slot table: the generic path
        calls.append(1)
        return E(X)

    assert verify_orthonormality(basis, counted).passed
    assert len(calls) == basis.d**2
    calls.clear()
    assert verify_reconstruction(basis, counted, seed=2).passed
    assert len(calls) == basis.d * (basis.algebra.vector_dim + N_RANDOM)
    calls.clear()
    assert all_passed(verify_trace_conditions(basis.spec, counted))
    assert len(calls) == basis.algebra.vector_dim  # one per matrix unit, sum n_i^2


@pytest.mark.parametrize("name", ["c_in_m2", "m2_in_m2_plus_m4"])
def test_an_output_of_another_algebra_is_an_algebra_mismatch(name):
    # a (1, 1) block must not broadcast into the basis's (n, n) slots
    basis = dict(BASES)[name]
    other = MultiMatrixAlgebra((1,) * basis.algebra.num_blocks)
    E = lambda X: other.identity()  # noqa: E731
    with pytest.raises(AlgebraMismatch):
        verify_orthonormality(basis, E)
    with pytest.raises(AlgebraMismatch):
        verify_reconstruction(basis, E)


def _unit_parity(basis):
    table = markov_expectation(basis.spec).slots
    alg = basis.algebra
    with np.errstate(invalid="ignore", over="ignore"):
        # the closed-form units, then every unit again as a batched test operator
        both = _compiled_reconstruction(basis, table, alg.unit_batches(alg.batch_size))
        fast, batched = np.split(both, [alg.vector_dim])
    np.testing.assert_allclose(fast, batched, rtol=0, atol=MATCH_TOL)
    label = lambda k: f"unit {alg.unit_index(k)}"  # noqa: E731
    a, b = _worst("r", fast, RECON_TOL, label), _worst("r", batched, RECON_TOL, label)
    assert (a.witness, a.passed) == (b.witness, b.passed)


@pytest.mark.parametrize("name,basis", BASES, ids=[n for n, _ in BASES])
def test_unit_residuals_from_one_product_match_the_batched_units(name, basis):
    _unit_parity(basis)
    for kind, elements in _tampered(basis).items():
        _unit_parity(UnitaryBasis.from_elements(basis.spec, elements, kind))


@settings(max_examples=40, deadline=None)
@given(spec=specs(), data=st.data())
def test_a_compiled_E_moves_the_trace_on_diagonal_units_only(spec, data):
    # verify_trace_conditions runs a compiled E on the diagonal units alone,
    # because every off-diagonal unit's residual is exactly 0.0
    alg = spec.super_algebra
    weights = st.floats(0.01, 100, allow_nan=False, allow_infinity=False)
    phis = [TracialState(alg, data.draw(st.lists(weights, min_size=spec.s, max_size=spec.s)))]
    try:
        phis.append(markov_expectation(spec).phi)
    except DisconnectedDiagram:  # no unique Markov trace
        pass
    checked = TracialState(alg, spec.super_dims)  # the trace the check preserves
    for phi in phis:
        E = conditional_expectation(spec, phi)
        for (_, a, b), e in alg.matrix_units():
            if a != b:
                Y = E(e)
                assert checked(Y) - checked(e) == 0.0 and phi(Y) - phi(e) == 0.0
        fast = verify_trace_conditions(spec, E)[-1]
        ref = verify_trace_conditions(spec, lambda X: E(X))[-1]  # all units
        assert np.float64(fast.residual).tobytes() == np.float64(ref.residual).tobytes()
        assert fast.passed == ref.passed


# The forms these primitives had before they moved below ``uob.verify``,
# written out as references: the moved forms must give the same bits, except
# the scalar phi, which moves by at most one ulp (see ``_assert_phi_match``).


def _scatter_reconstruction(parts, batches):
    """The former batch residuals of ``_compiled_reconstruction``: every copy's
    columns scattered into full-size blocks, which are then compared with X."""
    resid = []
    for X in batches:
        K = X[0].shape[0]
        acc = [np.empty_like(Xi) for Xi in X]
        for m, copies, L, R in parts:
            Xcols = np.concatenate([X[i][:, :, s : s + m] for i, s, _ in copies], axis=1)
            Z = L @ Xcols.transpose(1, 0, 2).reshape(-1, K * m)
            out = (R @ Z).reshape(-1, K, m)
            row = 0
            for i, s, _ in copies:
                n = X[i].shape[-1]
                acc[i][:, :, s : s + m] = out[row : row + n].transpose(1, 0, 2)
                row += n
        resid.append(np.max([np.abs(a - x).max(axis=(-2, -1)) for a, x in zip(acc, X)], axis=0))
    return np.concatenate(resid)


def _triple_loop_units(alg):
    """The former ``matrix_units``: one fresh operator per (i, a, b)."""
    for i, n in enumerate(alg.blocks):
        for a in range(n):
            for b in range(n):
                M = np.zeros((n, n), dtype=complex)
                M[a, b] = 1.0
                data = [
                    M if i2 == i else np.zeros((n2, n2), dtype=complex)
                    for i2, n2 in enumerate(alg.blocks)
                ]
                yield (i, a, b), alg.operator(data)


def _phi_batch_before(phi, blocks):
    """The former batched phi of the verify checks."""
    total = sum(p * np.trace(b, axis1=-2, axis2=-1) for p, b in zip(phi.trace_vector, blocks))
    return total / float(phi.weight)


def _phi_through_block_traces(phi, X):
    """The former scalar phi: Python complex arithmetic on the block traces."""
    traces = [complex(np.trace(d)) for d in X.data]
    return complex(sum(p * t for p, t in zip(phi.trace_vector, traces))) / float(phi.weight)


def _with_tampered(basis):
    return [("basis", basis)] + [
        (kind, UnitaryBasis.from_elements(basis.spec, elements, kind))
        for kind, elements in _tampered(basis).items()
    ]


def _assert_units_match(alg):
    new, old = list(alg.matrix_units()), list(_triple_loop_units(alg))
    assert [lbl for lbl, _ in new] == [lbl for lbl, _ in old]
    assert [alg.unit_index(k) for k in range(alg.vector_dim)] == [lbl for lbl, _ in old]
    with pytest.raises(IndexError):
        alg.unit_index(alg.vector_dim)
    for (_, X), (_, Y) in zip(new, old):
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(X.data, Y.data))


def _assert_phi_match(phi, ops):
    """The batched phi keeps the verify checks' bits, and the scalar phi is its
    K = 1 case.  The former scalar phi divided in Python complex arithmetic,
    (a + b 0) / w, where numpy multiplies by 1 / w: the scalar moves by at most
    one unit in the last place, and its NaNs stay where they were."""
    blocks = [np.stack(b) for b in zip(*(X.data for X in ops))]
    batch = phi.batch(blocks)
    assert np.array_equal(batch, _phi_batch_before(phi, blocks), equal_nan=True)
    scalar = np.array([phi(X) for X in ops])
    assert np.array_equal(scalar, batch, equal_nan=True)
    ref = np.array([_phi_through_block_traces(phi, X) for X in ops])
    assert np.array_equal(np.isnan(scalar), np.isnan(ref))
    finite = np.isfinite(ref)
    for part in (np.real, np.imag):
        np.testing.assert_array_max_ulp(part(scalar[finite]), part(ref[finite]), maxulp=1)


@pytest.mark.parametrize("name,basis", BASES, ids=[n for n, _ in BASES])
def test_in_place_reconstruction_gives_the_bits_of_the_scatter_form(name, basis):
    alg = basis.algebra
    table = markov_expectation(basis.spec).slots
    randoms = lambda: alg.random_batches(np.random.default_rng(5), 3, 2)  # noqa: E731
    for kind, b in _with_tampered(basis):
        with np.errstate(invalid="ignore", over="ignore"):
            parts = list(_weighted_columns(b, table))
            for batches in (lambda: alg.unit_batches(alg.batch_size), randoms):
                new = _compiled_reconstruction(b, table, batches())[alg.vector_dim :]
                old = _scatter_reconstruction(parts, batches())
        assert np.array_equal(new, old, equal_nan=True), (name, kind)


@pytest.mark.parametrize("name,basis", BASES, ids=[n for n, _ in BASES])
def test_moved_units_and_phi_give_the_bits_of_the_former_forms(name, basis):
    spec = basis.spec
    _assert_units_match(spec.super_algebra)
    _assert_units_match(spec.sub_algebra)
    E = markov_expectation(spec)
    phis = [E.phi, TracialState(basis.algebra, (0.7, 1.9, 2.3)[: spec.s])]
    with np.errstate(invalid="ignore", over="ignore"):
        for kind, b in _with_tampered(basis):
            ops = list(b.elements) + [W.adjoint() @ W for W in b.elements] + [E(W) for W in b.elements]
            for phi in phis:
                _assert_phi_match(phi, ops)


@settings(max_examples=40, deadline=None)
@given(spec=specs(), data=st.data())
def test_moved_units_and_phi_on_the_spec_box(spec, data):
    weights = st.floats(0.01, 100, allow_nan=False, allow_infinity=False)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    for alg in (spec.super_algebra, spec.sub_algebra):
        _assert_units_match(alg)
        k = alg.num_blocks
        phi = TracialState(alg, data.draw(st.lists(weights, min_size=k, max_size=k)))
        ops = [u for _, u in alg.matrix_units()] + [alg.random(rng) for _ in range(3)]
        _assert_phi_match(phi, ops)
        _assert_phi_match(TracialState(alg, alg.blocks), ops)


def test_a_sampled_operator_of_another_algebra_is_an_algebra_mismatch():
    # one more block than the basis's algebra: zip would drop it unchecked
    basis = construct(catalog_spec("c_in_m1_plus_m2"), "auto")
    other = MultiMatrixAlgebra(basis.algebra.blocks + (1,))
    sampler = lambda rng: [("identity", basis.algebra.identity()), ("other", other.identity())]  # noqa: E731
    with pytest.raises(AlgebraMismatch):
        verify_reconstruction(basis, markov_expectation(basis.spec), sampler=sampler)


def test_a_compiled_expectation_of_another_spec_is_an_algebra_mismatch():
    basis = construct(catalog_spec("c_in_m5"), "auto")
    with pytest.raises(AlgebraMismatch):
        verify_orthonormality(basis, markov_expectation(catalog_spec("c_in_m3")))
