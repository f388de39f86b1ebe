"""Exact phases, circulants, and block-operator arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uob.algebra import (
    BlockOperator,
    MultiMatrixAlgebra,
    TracialState,
    circulant,
    epsilon,
    roots,
)
from uob.errors import AlgebraMismatch

from reference import fourier_matrix, per_block_unit_batches
from spec_box import specs

fractions = st.fractions(max_denominator=60)


@given(fractions)
def test_epsilon_unit_modulus(x):
    assert abs(abs(epsilon(x)) - 1) < 1e-14


@given(fractions, fractions)
def test_epsilon_is_multiplicative(x, y):
    assert abs(epsilon(x + y) - epsilon(x) * epsilon(y)) < 1e-12


def test_epsilon_special_values():
    assert epsilon(0) == 1
    assert abs(epsilon(Fraction(1, 2)) + 1) < 1e-15
    assert abs(epsilon(Fraction(1, 4)) - 1j) < 1e-15


def test_fourier_matrix_unitary():
    for n in (1, 2, 3, 5, 8):
        F = fourier_matrix(n)
        assert np.allclose(F @ F.conj().T, np.eye(n), atol=1e-12)


@given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False), min_size=1, max_size=8))
def test_circulant_eigenvalues(b):
    # C = F* D(b) F, so conjugating back recovers the prescribed eigenvalues
    n = len(b)
    C = circulant(b)
    F = fourier_matrix(n)
    D = F @ C @ F.conj().T
    assert np.allclose(np.diag(D), b, atol=1e-9)
    assert np.allclose(D - np.diag(np.diag(D)), 0, atol=1e-9)


def test_circulant_shift_example():
    # eigenvalues (1, eps(1/n), ..., eps((n-1)/n)) give the cyclic shift e_j -> e_{j+1}
    n = 4
    C = circulant([epsilon(Fraction(y, n)) for y in range(n)])
    shift = np.roll(np.eye(n), 1, axis=0)
    assert np.allclose(C, shift, atol=1e-12)


def test_circulant_structure():
    C = circulant([1, 1j, -1, -1j])
    for j in range(4):
        for k in range(4):
            assert abs(C[j, k] - C[(j + 1) % 4, (k + 1) % 4]) < 1e-12


def test_circulant_product_multiplies_eigenvalues():
    rng = np.random.default_rng(5)
    for n in (2, 3, 8):
        b1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(circulant(b1) @ circulant(b2), circulant(b1 * b2), atol=1e-10)


def test_circulant_of_unit_eigenvalues_is_unitary():
    rng = np.random.default_rng(6)
    for n in (2, 5, 8):
        b = np.exp(2j * np.pi * rng.random(n))
        C = circulant(b)
        assert np.allclose(C @ C.conj().T, np.eye(n), atol=1e-10)


def test_algebra_dims():
    alg = MultiMatrixAlgebra((2, 3))
    assert alg.ambient_dim == 5
    assert alg.vector_dim == 13
    assert alg.block_offsets() == [0, 2]


def test_block_operator_arithmetic():
    alg = MultiMatrixAlgebra((2, 1))
    rng = np.random.default_rng(0)
    X, Y = alg.random(rng), alg.random(rng)
    assert ((X + Y) - Y).allclose(X, 1e-12)
    assert (2 * X).allclose(X + X, 1e-12)
    assert (X @ Y).adjoint().allclose(Y.adjoint() @ X.adjoint(), 1e-12)
    dense = (X @ Y).to_dense()
    assert np.allclose(dense, X.to_dense() @ Y.to_dense(), atol=1e-12)
    # the diagonal blocks of the dense form read back as the blocks of X @ Y
    for n, o, blk in zip(alg.blocks, alg.block_offsets(), (X @ Y).data):
        assert np.allclose(dense[o : o + n, o : o + n], blk, atol=1e-12)


def test_block_operator_shape_check():
    alg = MultiMatrixAlgebra((2, 3))
    with pytest.raises(AlgebraMismatch):
        BlockOperator(alg, (np.eye(2), np.eye(2)))


def test_mismatched_algebras_refuse_to_combine():
    a1, a2 = MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((3,))
    with pytest.raises(AlgebraMismatch):
        a1.identity() + a2.identity()


def test_matrix_units_span_and_multiply():
    alg = MultiMatrixAlgebra((2, 1))
    units = dict(alg.matrix_units())
    assert len(units) == alg.vector_dim
    # e_ab e_cd = delta_bc e_ad within one block
    prod = units[(0, 0, 1)] @ units[(0, 1, 0)]
    assert prod.allclose(units[(0, 0, 0)], 1e-15)
    assert (units[(0, 0, 1)] @ units[(0, 0, 1)]).norm_inf() < 1e-15


def test_tracial_state_normalization_and_trace_property():
    alg = MultiMatrixAlgebra((2, 3))
    phi = TracialState(alg, (3, 2))  # Markov vector for [[1],[1]] say; any positive works
    assert abs(phi(alg.identity()) - 1) < 1e-14
    rng = np.random.default_rng(2)
    X, Y = alg.random(rng), alg.random(rng)
    assert abs(phi(X @ Y) - phi(Y @ X)) < 1e-10


def test_tracial_state_rejects_nonpositive():
    alg = MultiMatrixAlgebra((2,))
    with pytest.raises(ValueError):
        TracialState(alg, (0,))


def test_norm_inf_propagates_nan_from_any_block():
    alg = MultiMatrixAlgebra((1, 2))
    X = alg.operator([np.ones((1, 1)), np.full((2, 2), np.nan)])
    assert np.isnan(X.norm_inf())


def test_roots_equal_the_exact_phases_bit_for_bit():
    for n in range(1, 257):
        r = roots(n)
        assert all(r[k] == epsilon(Fraction(k, n)) for k in range(n)), n


def test_circulant_of_a_batch_equals_the_row_by_row_calls():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((2, 5, 7)) + 1j * rng.standard_normal((2, 5, 7))
    batch = circulant(b)
    assert batch.shape == (2, 5, 7, 7)
    for rows, Cs in zip(b, batch):
        for row, C in zip(rows, Cs):
            assert np.allclose(circulant(row), C, rtol=0, atol=1e-14)


def _per_block_draws(alg, rng):
    """The former ``random``: two generator calls per block, real part first."""
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in alg.blocks]


@pytest.mark.parametrize("blocks,count,size", [((2, 3, 1), 7, 3), ((2, 3, 1), 4, 4), ((5,), 10, 1)])
def test_random_batches_give_the_draws_of_random_bit_for_bit(blocks, count, size):
    alg = MultiMatrixAlgebra(blocks)
    ref_rng, one_rng, batch_rng = (np.random.default_rng(11) for _ in range(3))
    ref = [_per_block_draws(alg, ref_rng) for _ in range(count)]
    ones = [alg.random(one_rng).data for _ in range(count)]
    batches = list(alg.random_batches(batch_rng, count, size))
    assert [len(X[0]) for X in batches] == [min(size, count - lo) for lo in range(0, count, size)]
    stacked = [np.concatenate(parts) for parts in zip(*batches)]
    for k in range(count):
        for i in range(alg.num_blocks):
            # tobytes compares the bits, the sign of a zero included
            assert ref[k][i].tobytes() == ones[k][i].tobytes() == stacked[i][k].tobytes()
    state = ref_rng.bit_generator.state
    assert one_rng.bit_generator.state == state == batch_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(spec=specs(), size=st.integers(1, 12), diagonal=st.booleans())
def test_unit_batches_run_across_blocks_with_the_per_block_units(spec, size, diagonal):
    for alg in (spec.super_algebra, spec.sub_algebra):
        batches = list(alg.unit_batches(size, diagonal))
        counts = [len(X[0]) for X in batches]
        total = sum(n if diagonal else n * n for n in alg.blocks)
        # every batch but the last is full, so none exceeds size
        assert counts == [min(size, total - lo) for lo in range(0, total, size)]
        ref = list(per_block_unit_batches(alg, size, diagonal))
        for i in range(alg.num_blocks):
            new, old = (np.concatenate([X[i] for X in b]) for b in (batches, ref))
            assert new.dtype == old.dtype and new.shape == old.shape
            assert new.tobytes() == old.tobytes()
