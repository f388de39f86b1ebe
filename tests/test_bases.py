"""Basis constructions and combinators."""

import itertools
import math

import numpy as np
import pytest

from uob.algebra import MAX_ENTRIES
from uob.bases import (
    UnitaryBasis,
    abelian_basis,
    abelian_basis_entrywise,
    adjoint_basis,
    concat_basis,
    construct,
    direct_sum_basis,
    full_matrix_sub_basis,
    full_matrix_super_basis,
    identity_basis,
    tensor_basis,
    tensor_spec,
    weyl_basis,
)
from uob.catalog import catalog_names, catalog_spec
from uob.errors import (
    AlgebraMismatch,
    CardinalityMismatch,
    MiddleAlgebraMismatch,
    NoKnownConstruction,
    NotAbelian,
    ShapeMismatch,
    SpectralConditionFailed,
    TooLarge,
)
from uob.inclusion import InclusionSpec, check_spectral_condition, embed, spectral_d
from uob.bases import basic_model_basis
from uob.verify import (
    all_passed,
    verify_basis,
    verify_orthonormality,
    verify_unitary,
)

from reference import (
    CONCAT,
    composed_expectation,
    concat_block_perms,
    per_column_orthonormality,
    per_operator_reconstruction,
    random_abelian_specs,
    tensor_block_perms,
)

ABELIAN = ["c_in_m2", "c_in_m1_plus_m2", "c_in_m1_m1_m2", "c2_in_m4", "c3_in_m3"]


def _assert_verified(basis, seed=0):
    reports = verify_basis(basis, seed=seed)
    assert all_passed(reports), [str(r) for r in reports if not r.passed]


def test_abelian_basis_on_catalog():
    for name in ABELIAN:
        spec = catalog_spec(name)
        b = abelian_basis(spec)
        assert b.d == check_spectral_condition(spec).d
        assert b.elements[0].allclose(spec.super_algebra.identity(), 1e-12)
        _assert_verified(b, seed=1)


def test_abelian_entrywise_path_matches():
    for name in ABELIAN:
        spec = catalog_spec(name)
        b1, b2 = abelian_basis(spec), abelian_basis_entrywise(spec)
        worst = max((x - y).norm_inf() for x, y in zip(b1.elements, b2.elements))
        assert worst < 1e-10, name


def test_abelian_basis_on_random_specs():
    for spec in random_abelian_specs(4, seed=23, max_d=20):
        _assert_verified(abelian_basis(spec), seed=2)


def test_abelian_basis_rejections():
    with pytest.raises(NotAbelian):
        abelian_basis(catalog_spec("m2_in_m4"))
    with pytest.raises(SpectralConditionFailed):
        abelian_basis(catalog_spec("c2_in_m3"))


def test_weyl_basis_single_block_is_full_error_basis():
    for n in (2, 3, 5):
        spec = InclusionSpec.from_matrix([[n]], [1])
        b = weyl_basis(spec)
        assert b.d == n * n
        _assert_verified(b, seed=3)


def test_weyl_basis_two_blocks():
    b = weyl_basis(catalog_spec("c2_in_m2_plus_m2"))
    assert b.d == 4
    _assert_verified(b, seed=4)


def test_weyl_basis_rejects_uneven_columns():
    with pytest.raises(ShapeMismatch):
        weyl_basis(catalog_spec("c2_in_m3"))
    with pytest.raises(ShapeMismatch):
        weyl_basis(catalog_spec("c_in_m1_plus_m2"))


def test_tensor_basis_and_spec():
    b1 = abelian_basis(catalog_spec("c_in_m2"))
    b2 = weyl_basis(catalog_spec("c2_in_m2"))
    prod = tensor_spec(b1.spec, b2.spec)
    assert prod.super_dims == (4,)
    bt = tensor_basis(b1, b2)
    assert bt.d == b1.d * b2.d
    _assert_verified(bt, seed=5)


def test_tensor_with_multi_block_factors():
    b1 = abelian_basis(catalog_spec("c_in_m1_plus_m2"))
    b2 = abelian_basis(catalog_spec("c2_in_m2_plus_m2"))
    bt = tensor_basis(b1, b2)
    assert bt.d == 20
    _assert_verified(bt, seed=6)


def test_concat_basis_against_composed_expectation():
    inner = weyl_basis(catalog_spec("c2_in_m2"))
    outer = abelian_basis(InclusionSpec.from_matrix([[1], [1]], [1]))
    b = concat_basis(inner, outer)
    assert b.d == inner.d * outer.d
    assert b.spec.inclusion_matrix == ((2,),)
    # E1 o E0 is a plain callable: the per-operand reference checks against it,
    # and the compiled Markov E of the composed spec (the same map) certifies b
    E = composed_expectation(inner.spec, outer.spec)
    assert verify_unitary(b).passed
    assert per_column_orthonormality(b, E).passed
    assert per_operator_reconstruction(b, E, seed=7).passed
    assert all_passed(verify_basis(b, seed=7))


@pytest.mark.parametrize(
    "inner,outer",
    [(([[1], [2]], [2]), "c2_in_m2"), (([[2]], [3]), "c3_in_m3")],
    ids=["m2_in_m2_plus_m4_then_c2_in_m2", "m3_in_m6_then_c3_in_m3"],
)
def test_concat_basis_verifies_against_its_own_spec(inner, outer):
    # the innermost algebra is not C, so the nested layout of the products
    # differs from the composed spec's own copies layout
    b = concat_basis(construct(InclusionSpec.from_matrix(*inner)), construct(catalog_spec(outer)))
    _assert_verified(b, seed=4)


def test_concat_requires_matching_middle_algebra():
    with pytest.raises(MiddleAlgebraMismatch):
        concat_basis(abelian_basis(catalog_spec("c_in_m2")), weyl_basis(catalog_spec("c2_in_m2")))


def test_direct_sum_basis():
    b1 = abelian_basis(catalog_spec("c_in_m2"))
    b2 = weyl_basis(catalog_spec("c2_in_m2_plus_m2"))
    b = direct_sum_basis(b1, b2)
    assert b.d == 4
    assert b.spec.super_dims == (2, 2, 2)
    assert verify_unitary(b).passed


def test_direct_sum_requires_equal_cardinality():
    with pytest.raises(CardinalityMismatch):
        direct_sum_basis(abelian_basis(catalog_spec("c_in_m2")), weyl_basis(catalog_spec("c2_in_m2")))


def test_full_matrix_sub_basis():
    for name in ("m2_in_m4", "m2_in_m2_plus_m4"):
        spec = catalog_spec(name)
        b = full_matrix_sub_basis(spec)
        assert b.spec == spec
        _assert_verified(b, seed=8)


def test_full_matrix_super_basis():
    cases = [
        catalog_spec("m2_in_m4"),
        InclusionSpec.from_matrix([[2, 2]], [2, 2]),  # M_2 + M_2 in M_8
        InclusionSpec.from_matrix([[1, 2]], [1, 2]),  # C + M_2 in M_5
    ]
    for spec in cases:
        b = full_matrix_super_basis(spec)
        assert b.spec == spec
        _assert_verified(b, seed=9)


def test_full_matrix_super_split_divides_every_sub_block():
    # the builder splits off M_k, k = n / gcd(d, n); a_j n = d m_j makes k divide
    # every m_j, checked in integers over the box r <= 3, a_j <= 4, m_j <= 5
    count = 0
    for r in range(1, 4):
        for a in itertools.product(range(1, 5), repeat=r):
            for m in itertools.product(range(1, 6), repeat=r):
                spec = InclusionSpec.from_matrix([list(a)], list(m))
                d = spectral_d(spec)
                if d is None:
                    continue
                count += 1
                k = spec.super_dims[0] // math.gcd(d, spec.super_dims[0])
                assert all(mj % k == 0 for mj in m), (a, m)
    assert count == 148


def test_identity_and_adjoint():
    b = abelian_basis(catalog_spec("c_in_m3"))
    ba = adjoint_basis(b)
    assert verify_unitary(ba).passed
    assert identity_basis(3).d == 1


def test_adjoint_basis_is_orthonormal_the_other_way():
    # verifying the adjoint family checks E(W_j W_k*) = delta_jk
    from uob.expectation import markov_expectation

    b = abelian_basis(catalog_spec("c_in_m1_plus_m2"))
    E = markov_expectation(b.spec)
    assert verify_orthonormality(adjoint_basis(b), E).passed


def test_abelian_basis_telescoping_column_sums():
    # for t != 0 the dimension-weighted diagonal sums over the copies of each
    # sub block cancel: this is why E(W_t) = 0
    from uob.expectation import markov_expectation

    for name in ("c_in_m1_plus_m2", "c_in_m1_m1_m2", "c2_in_m2_plus_m2"):
        spec = catalog_spec(name)
        b = abelian_basis(spec)
        E = markov_expectation(spec)
        zero = spec.super_algebra.zero()
        for t in range(1, b.d):
            W = b.elements[t]
            assert E(W).allclose(zero, 1e-9)
            for j in range(spec.r):
                total = 0j
                for i, jj, _, p in spec.copies:
                    if jj == j:
                        total += spec.super_dims[i] * W.data[i][p, p]
                assert abs(total) < 1e-9


# The r = 1 and the a_j = m_j specs of the benchmark ladder (perfbench/workloads.py).
LADDER_SUB = [([[6]], [1]), ([[8]], [1]), ([[10]], [1]), ([[2], [3]], [3])]
LADDER_BASIC = [([[1, 2, 3]], [1, 2, 3]), ([[3, 4]], [3, 4])]


def _same_entries(b1, b2):
    assert b1.spec == b2.spec and b1.d == b2.d
    for W1, W2 in zip(b1.elements, b2.elements):
        for x, y in zip(W1.data, W2.data):
            assert np.array_equal(x, y)


def _specs(pairs):
    return [InclusionSpec.from_matrix(A, m) for A, m in pairs]


def test_full_matrix_sub_is_the_tensor_split():
    specs = [catalog_spec(name) for name in catalog_names()] + _specs(LADDER_SUB)
    specs = [s for s in specs if s.r == 1 and all(n % s.sub_dims[0] == 0 for n in s.super_dims)]
    assert len(specs) == 11
    for spec in specs:
        sub = construct(spec, "full_matrix_sub")
        assert sub.provenance == "full_matrix_sub"
        if spec.sub_dims[0] == 1:
            # no common factor to split off; M_1 tensor the abelian basis is that basis
            with pytest.raises(ShapeMismatch):
                construct(spec, "tensor")
            _same_entries(sub, abelian_basis(spec))
        else:
            _same_entries(sub, construct(spec, "tensor"))


def test_basic_method_is_the_basic_model():
    specs = [catalog_spec(name) for name in ("c2_in_m2", "c3_in_m3", "m2_in_m4")]
    for spec in specs + _specs(LADDER_BASIC):
        b = construct(spec, "basic")
        assert b.provenance == "basic_construction"
        _same_entries(b, basic_model_basis(spec.sub_dims))
    with pytest.raises(ShapeMismatch):
        construct(catalog_spec("c_in_m1_plus_m2"), "basic")


def test_auto_tries_the_builders_in_order():
    assert construct(catalog_spec("c2_in_m2")).provenance == "abelian"
    assert construct(catalog_spec("m2_in_m4")).provenance == "full_matrix_sub"
    assert construct(InclusionSpec.from_matrix([[1, 2, 3]], [1, 2, 3])).provenance == (
        "full_matrix_super"
    )
    with pytest.raises(NoKnownConstruction):
        construct(catalog_spec("c2_in_m3"))
    with pytest.raises(ValueError):
        construct(catalog_spec("c_in_m2"), "no_such_method")


def test_elements_are_views_into_the_stacks():
    for b in (abelian_basis(catalog_spec("c_in_m1_plus_m2")), construct(catalog_spec("m2_in_m4"))):
        for W in b.elements:
            assert all(np.shares_memory(blk, s) for blk, s in zip(W.data, b.stacks))
        again = UnitaryBasis.from_elements(b.spec, b.elements, b.provenance)
        assert all(np.array_equal(s, t) for s, t in zip(b.stacks, again.stacks))


def test_from_elements_of_nothing_takes_the_blocks_from_the_spec():
    spec = catalog_spec("m2_in_m2_plus_m4")
    b = UnitaryBasis.from_elements(spec, (), "empty")
    assert [s.shape for s in b.stacks] == [(0, n, n) for n in spec.super_dims]
    assert b.d == 0 and b.elements == ()


def test_stacks_must_fit_the_spec_and_share_one_d():
    spec = catalog_spec("c_in_m1_plus_m2")  # super blocks 1 and 2
    with pytest.raises(AlgebraMismatch):
        UnitaryBasis(spec, (np.ones((5, 1, 1)), np.ones((5, 3, 3))), "wrong block")
    with pytest.raises(AlgebraMismatch):
        UnitaryBasis(spec, (np.ones((5, 1, 1)), np.ones((4, 2, 2))), "two d")
    with pytest.raises(AlgebraMismatch):
        UnitaryBasis(None, (np.ones((5, 2, 3)),), "not square")


def test_construct_refuses_a_basis_over_the_entry_cap():
    # C in M_200: d = 40000 elements of 200 x 200, about 25.6 GB of stacks
    spec = InclusionSpec.from_matrix([[200]], [1])
    assert 40000 * 200**2 > MAX_ENTRIES
    for method in ("auto", "abelian", "tensor", "basic"):
        with pytest.raises(TooLarge):
            construct(spec, method)


@pytest.mark.parametrize("combine", [tensor_basis, direct_sum_basis])
def test_a_factor_without_a_spec_is_a_shape_mismatch(combine):
    b = abelian_basis(catalog_spec("c_in_m2"))
    bare = UnitaryBasis(None, b.stacks, "bare")
    for pair in ((bare, b), (b, bare)):
        with pytest.raises(ShapeMismatch):
            combine(*pair)


def _catalog_auto():
    """The ``auto`` basis of every catalog spec that has one."""
    out = {}
    for name in catalog_names():
        try:
            out[name] = construct(catalog_spec(name))
        except NoKnownConstruction:
            pass
    return out


AUTO = _catalog_auto()


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def _assert_in_reference_layout(got, nested, perms):
    """Block i of ``got`` is ``nested[i]`` conjugated by ``perms[i]``, bit for bit,
    and each ``perms[i]`` is a permutation of its block's positions."""
    assert len(got.stacks) == len(nested) == len(perms)
    for X, N, p in zip(got.stacks, nested, perms):
        assert np.array_equal(np.sort(p), np.arange(X.shape[1]))
        assert np.array_equal(_bits(X), _bits(N[:, p[:, None], p]))


@pytest.mark.parametrize("left,right", itertools.product(AUTO, repeat=2))
def test_tensor_basis_is_the_kronecker_stack_in_the_reference_layout(left, right):
    b1, b2 = AUTO[left], AUTO[right]
    got = tensor_basis(b1, b2)
    assert got.spec == tensor_spec(b1.spec, b2.spec)
    # the stacked np.kron, with the multiplications tensor_basis makes: np.kron
    # itself may round an entry differently in its last bit
    kron = [
        np.einsum("jac,kbe->jkabce", A, B).reshape(b1.d * b2.d, A.shape[1] * B.shape[1], -1)
        for A in b1.stacks
        for B in b2.stacks
    ]
    for K, (A, B) in zip(kron, itertools.product(b1.stacks, b2.stacks)):
        assert np.allclose(K, [np.kron(V, W) for V in A for W in B], rtol=0, atol=1e-15)
    _assert_in_reference_layout(got, kron, tensor_block_perms(b1.spec, b2.spec, got.spec))


def _concat_cases():
    """The composable ordered pairs of catalog ``auto`` bases, then ``CONCAT``."""
    cases = [
        pytest.param(AUTO[a], AUTO[b], id=f"{a}-{b}")
        for a, b in itertools.product(AUTO, repeat=2)
        if AUTO[a].spec.sub_dims == AUTO[b].spec.super_dims
    ]
    for k, (inner, inner_method, outer, outer_method) in enumerate(CONCAT):
        b0 = construct(InclusionSpec.from_matrix(*inner), inner_method)
        b1 = construct(InclusionSpec.from_matrix(*outer), outer_method)
        cases.append(pytest.param(b0, b1, id=f"concat{k}"))
    return cases


@pytest.mark.parametrize("inner,outer", _concat_cases())
def test_concat_basis_is_the_nested_product_in_the_reference_layout(inner, outer):
    got = concat_basis(inner, outer)
    nested = [
        np.stack([(V @ embed(inner.spec, W)).data[i] for V in inner.elements for W in outer.elements])
        for i in range(inner.spec.s)
    ]
    _assert_in_reference_layout(got, nested, concat_block_perms(inner.spec, outer.spec, got.spec))
