"""Conditional expectations: the compiled form, axioms, channel form, projections."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from reference import SingularGram, _GramProjector
from spec_box import specs

from uob.algebra import MultiMatrixAlgebra, TracialState, epsilon
from uob.catalog import catalog_names, catalog_spec
from uob.errors import AlgebraMismatch, DisconnectedDiagram, NonStandardTrace
from uob.expectation import (
    conditional_expectation,
    markov_expectation,
    mixed_unitary_channel,
)
from uob.inclusion import InclusionSpec, embed, markov_trace
from uob.tower import build_basic_construction
from uob.verify import all_passed, verify_expectation_axioms

EQUAL_WEIGHT = [
    name
    for name in catalog_names()
    if len(set(markov_trace(catalog_spec(name)).trace_vector)) == 1
]
# equal-weight specs with several sub blocks and m_j > 1, which the catalog lacks
EXTRA_EQUAL_WEIGHT = [
    InclusionSpec.from_matrix([[2, 1], [2, 1]], [3, 3]),
    InclusionSpec.from_matrix([[2, 0, 1], [1, 2, 0]], [1, 3, 1]),
]


def _other_trace(spec):
    """(0.7, 1.9, 2.3) cut to s entries: off the Markov trace on every catalog
    spec with more than one super block."""
    return TracialState(spec.super_algebra, (0.7, 1.9, 2.3)[: spec.s])


def test_weights_sum_to_one_in_each_column():
    # sum_i a_ij q_ij = 1: the copies of each sub block carry weights summing to 1
    for name in catalog_names():
        spec = catalog_spec(name)
        for phi in (markov_trace(spec), _other_trace(spec)):
            for copies in conditional_expectation(spec, phi).slots.slots:
                assert abs(sum(q for _, _, q in copies) - 1) <= 1e-15, (name, phi)


def test_conditional_expectation_rejects_a_trace_of_another_algebra():
    spec = catalog_spec("m2_in_m2_plus_m4")
    with pytest.raises(AlgebraMismatch):
        conditional_expectation(spec, TracialState(MultiMatrixAlgebra((2, 3)), (1, 1)))


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


def test_mixed_unitary_channel_matches_expectation():
    # the catalog has no equal-weight spec with several sub blocks and m_j > 1
    specs = [catalog_spec(name) for name in EQUAL_WEIGHT] + [
        InclusionSpec.from_matrix([[2, 1], [2, 1]], [3, 3]),
        InclusionSpec.from_matrix([[2, 0, 1], [1, 2, 0]], [1, 3, 1]),
    ]
    for spec in specs:
        dec = mixed_unitary_channel(spec)
        E = markov_expectation(spec)
        rng = np.random.default_rng(7)
        for _ in range(3):
            X = spec.super_algebra.random(rng)
            assert np.max(np.abs(dec.apply(X) - E(X).to_dense())) < 1e-10, spec
        # K and the L_j list the copies in layout order
        T = len(spec.copies)
        assert dec.k_phases == tuple(
            ((i, j, k), Fraction(t, T)) for t, (i, j, k, _) in enumerate(spec.copies)
        )
        for j, cycle in enumerate(dec.cycles):
            assert cycle == tuple((i, k) for i, jj, k, _ in spec.copies if jj == j)


@pytest.mark.parametrize("name", EQUAL_WEIGHT)
def test_mixed_unitary_apply_on_a_stack_equals_the_single_calls(name):
    spec = catalog_spec(name)
    dec = mixed_unitary_channel(spec)
    rng = np.random.default_rng(7)
    Xs = np.stack([spec.super_algebra.random(rng).to_dense() for _ in range(5)])
    batch = dec.apply(Xs)
    assert batch.shape == Xs.shape
    for X, got in zip(Xs, batch):
        assert np.array_equal(got, dec.apply(X)), name


def _dense_unitaries(spec, dec):
    """Every U = L_0^{x_0} ... L_{r-1}^{x_{r-1}} K^y of the average as a dense
    matrix, from the spec and the public ``k_phases`` and ``cycles``: K is
    epsilon(phase) on each copy, and L_j sends each copy of its cycle to the next."""
    N = spec.super_algebra.ambient_dim
    offsets = spec.super_algebra.block_offsets()
    start = {(i, j, k): offsets[i] + s for i, j, k, s in spec.copies}
    phases = np.zeros(N, dtype=complex)
    for (i, j, k), x in dec.k_phases:
        phases[start[i, j, k] : start[i, j, k] + spec.sub_dims[j]] = epsilon(x)
    K = np.diag(phases)
    Ls = []
    for j, cycle in enumerate(dec.cycles):
        dest = np.arange(N)
        for (i, k), (i2, k2) in zip(cycle, cycle[1:] + cycle[:1]):
            a, b = start[i, j, k], start[i2, j, k2]
            dest[a : a + spec.sub_dims[j]] = np.arange(b, b + spec.sub_dims[j])
        Ls.append(np.eye(N)[:, dest])  # column a is e_{dest[a]}
    for xs in itertools.product(*(range(len(cycle)) for cycle in dec.cycles)):
        P = np.eye(N)
        for L, x in zip(Ls, xs):
            P = P @ np.linalg.matrix_power(L, x)
        for y in range(len(dec.k_phases)):
            yield P @ np.linalg.matrix_power(K, y)


def test_mixed_unitary_operators_are_unitary():
    # the dense average, written out here, is the reference for the index-array
    # conjugations of ``apply``
    for spec in [catalog_spec(name) for name in EQUAL_WEIGHT] + EXTRA_EQUAL_WEIGHT:
        dec = mixed_unitary_channel(spec)
        us = list(_dense_unitaries(spec, dec))
        for U in us:
            assert np.allclose(U @ U.conj().T, np.eye(U.shape[0]), atol=1e-12)
        assert len(us) == dec.unitary_count == math.prod(dec.column_counts) * len(spec.copies)
        rng = np.random.default_rng(11)
        X = spec.super_algebra.random(rng).to_dense()
        want = sum(U @ X @ U.conj().T for U in us) / len(us)
        assert np.max(np.abs(dec.apply(X) - want)) <= 1e-13, spec


@settings(max_examples=60, deadline=None)
@given(spec=specs())
def test_mixed_unitary_channel_is_the_expectation_over_the_spec_box(spec):
    try:
        dec = mixed_unitary_channel(spec)
    except (DisconnectedDiagram, NonStandardTrace):
        return
    # every equal-weight spec of the box is under the cap, so none is TooLarge
    E = markov_expectation(spec)
    rng = np.random.default_rng(13)
    Xs = [spec.super_algebra.random(rng) for _ in range(2)]
    got = dec.apply(np.stack([X.to_dense() for X in Xs]))
    want = np.stack([E(X).to_dense() for X in Xs])
    assert np.max(np.abs(got - want)) <= 1e-10


def test_mixed_unitary_requires_equal_weights():
    with pytest.raises(NonStandardTrace):
        mixed_unitary_channel(catalog_spec("m2_in_m2_plus_m4"))


def test_projection_expectation_agrees_with_factored_form():
    # the compiled E (the fused pinch-and-average) against the phi-orthogonal
    # projection onto the embedded matrix units of B
    for name in catalog_names():
        spec = catalog_spec(name)
        basis = [embed(spec, u) for _, u in spec.sub_algebra.matrix_units()]
        for phi in (markov_trace(spec), _other_trace(spec)):
            E = conditional_expectation(spec, phi)
            rng = np.random.default_rng(3)
            for _ in range(3):
                X = spec.super_algebra.random(rng)
                assert _GramProjector(phi, basis)(X).allclose(E(X), 1e-9), name


def test_projection_expectation_rejects_degenerate_family():
    spec = catalog_spec("c_in_m2")
    phi = TracialState(spec.super_algebra, spec.super_dims)
    I = spec.super_algebra.identity()
    with pytest.raises(SingularGram):
        _GramProjector(phi, [I, I])(I)
    # a dependent family on several blocks with a non-uniform trace vector
    alg = MultiMatrixAlgebra((1, 2, 3))
    rng = np.random.default_rng(8)
    X, Y = alg.random(rng), alg.random(rng)
    with pytest.raises(SingularGram):
        _GramProjector(TracialState(alg, (1, 3, 2)), [X, Y, X + 2 * Y])(X)


def _projection_reference(phi, family, X):
    """The projection written out: solve G c = (<S_a, X>)_a, then sum c_a S_a."""
    G = np.array([[phi(S.adjoint() @ T) for T in family] for S in family])
    c = np.linalg.solve(G, [phi(S.adjoint() @ X) for S in family])
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
        got = _GramProjector(phi, family)(X)
        assert got.allclose(_projection_reference(phi, family, X), 1e-12)
    if k == 14:
        assert got.allclose(X, 1e-12)


def _sparse_family(alg, rng, k):
    """k random operators of ``alg`` that are all zero on block 0 and below
    the diagonal of the last block, so the family has all-zero columns."""
    family = []
    for _ in range(k):
        X = alg.random(rng)
        family.append(alg.operator([np.zeros_like(X.data[0]), *X.data[1:-1], np.triu(X.data[-1])]))
    return family


def _projection_families():
    """(phi, family) pairs: the non-orthogonal families of the written-out
    formula test (every column in the support), one family with all-zero
    columns, and the tower's left-multiplication family, whose support
    columns hold a single 1 each."""
    alg = MultiMatrixAlgebra((1, 2, 3))
    for trace_vector in [(1, 3, 2), (0.7, 1.9, 2.3)]:
        phi = TracialState(alg, trace_vector)
        for k in [1, 6, 14]:
            rng = np.random.default_rng(k)
            yield phi, [alg.random(rng) for _ in range(k)]
    yield TracialState(alg, (0.7, 1.9, 2.3)), _sparse_family(alg, np.random.default_rng(2), 5)
    bc = build_basic_construction(InclusionSpec.from_matrix([[2], [3]], [1]))
    yield bc.tr1_state, [bc.left_rep(u) for _, u in bc.spec.super_algebra.matrix_units()]


def _flat(X):
    return np.concatenate([b.ravel() for b in X.data])


@pytest.mark.parametrize("case", range(8))
def test_compiled_projection_splits_the_dense_product_at_the_support(case):
    # off the support the output is exactly zero, where the dense product
    # (P x) S with the whole (k, N) family S gives +-0.  On it, the output is
    # that product bit for bit when the support is every column, or when each
    # of its columns holds one 1 (the tower); otherwise BLAS sums each length-k
    # dot product in an order that depends on the column count, so the two
    # agree to rounding only
    phi, family = list(_projection_families())[case]
    S = np.stack([_flat(X) for X in family])
    support = S.any(axis=0)
    assert support.all() == (case < 6)
    one_each = (np.count_nonzero(S, axis=0)[support] == 1).all() and (S[S != 0] == 1).all()
    assert one_each == (case == 7)
    proj = _GramProjector(phi, family)
    rng = np.random.default_rng(case)
    for _ in range(3):
        X = phi.algebra.random(rng)
        c = proj._P @ _flat(X)
        got, dense = _flat(proj(X)), c @ S
        assert np.all(got[~support] == 0) and np.all(dense[~support] == 0)
        if support.all() or one_each:
            assert np.array_equal(got[support], dense[support])
        else:
            bound = 4 * len(family) * np.finfo(float).eps * (np.abs(c) @ np.abs(S))
            assert (np.abs(got - dense) <= bound).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("on_support", [True, False])
def test_compiled_projection_fails_closed_on_and_off_its_support(bad, on_support):
    # P is zero off the support, and 0 * NaN or 0 * Inf is NaN: a bad entry
    # anywhere makes every coefficient, so every entry on the support, non-finite
    alg = MultiMatrixAlgebra((1, 2, 3))
    family = _sparse_family(alg, np.random.default_rng(2), 5)
    proj = _GramProjector(TracialState(alg, (0.7, 1.9, 2.3)), family)
    support = np.stack([_flat(X) for X in family]).any(axis=0)
    X = alg.random(np.random.default_rng(4))
    block, entry = (2, (0, 1)) if on_support else (0, (0, 0))
    X.data[block][entry] = bad
    # block 0 is all zero; block 2 starts at entry 1 + 4 and keeps its upper triangle
    assert not support[0] and support[5 + 1]
    with np.errstate(invalid="ignore"):  # Inf * 0 is NaN, as it should be
        out = _flat(proj(X))
    assert not np.isfinite(out[support]).any()


def test_compiled_projection_rejects_an_operand_of_another_algebra():
    alg = MultiMatrixAlgebra((1, 2))
    phi = TracialState(alg, (1, 2))
    with pytest.raises(AlgebraMismatch):
        _GramProjector(phi, [alg.identity()])(MultiMatrixAlgebra((3,)).identity())


@pytest.mark.parametrize("blocks", [(5,), (1, 2, 3)])
def test_an_equal_algebra_built_apart_is_accepted_and_an_unequal_one_refused(blocks):
    # the tower's E answers with operators of bc.gns_algebra, which equals the
    # basis's algebra but is another object: both checks compare by equality
    alg, twin = MultiMatrixAlgebra(blocks), MultiMatrixAlgebra(blocks)
    other = MultiMatrixAlgebra(blocks[:-1] + (blocks[-1] + 1,))
    assert twin == alg and twin is not alg and other != alg
    rng = np.random.default_rng(3)
    proj = _GramProjector(TracialState(twin, range(1, len(blocks) + 1)), [twin.random(rng) for _ in range(3)])
    Xs = [alg.random(rng) for _ in range(2)]
    for X in Xs:
        Y = proj(X)
        assert Y.algebra == alg and np.array_equal(_flat(Y), _flat(proj(twin.operator(X.data))))
    with pytest.raises(AlgebraMismatch):
        proj(other.random(rng))
    # on a stack, each operand gets the bits it gets alone; a stack of another
    # algebra is refused
    stack = lambda ops: [np.stack(blks) for blks in zip(*(X.data for X in ops))]  # noqa: E731
    out = proj.apply(stack(Xs))
    for c, X in enumerate(Xs):
        assert all(o[c].tobytes() == y.tobytes() for o, y in zip(out, proj(X).data))
    with pytest.raises(AlgebraMismatch):
        proj.apply(stack([other.random(rng) for _ in range(2)]))
    empty = [np.zeros((0, n, n), dtype=complex) for n in blocks]
    assert [o.shape for o in proj.apply(empty)] == [e.shape for e in empty]


@pytest.mark.parametrize("name", catalog_names())
def test_the_compiled_E_takes_block_stacks_and_refuses_other_shapes(name):
    # on a list of (K, n_i, n_i) stacks each operand gets the bits of E alone;
    # a stack too few, an unstacked block or a mixed K is refused
    spec = catalog_spec(name)
    E = markov_expectation(spec)
    rng = np.random.default_rng(8)
    Xs = [spec.super_algebra.random(rng) for _ in range(3)]
    stacks = [np.stack(blks) for blks in zip(*(X.data for X in Xs))]
    out = E(stacks)
    for c, X in enumerate(Xs):
        assert all(o[c].tobytes() == y.tobytes() for o, y in zip(out, E(X).data))
    assert [o.shape for o in E([s[:0] for s in stacks])] == [s[:0].shape for s in stacks]
    bad = [stacks[:-1], [s[0] for s in stacks]]
    if len(stacks) > 1:
        bad.append([s[: 1 + (i > 0)] for i, s in enumerate(stacks)])
    for blocks in bad:
        with pytest.raises(AlgebraMismatch):
            E(blocks)
