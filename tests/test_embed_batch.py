"""``embed_batch``, the one writer of copy positions, and the code placed through it."""

import numpy as np
import pytest
from hypothesis import given, settings

from uob import bases
from uob.bases import abelian_basis, concat_basis, construct, weyl_basis
from uob.catalog import catalog_names, catalog_spec
from uob.errors import AlgebraMismatch, ShapeMismatch, UobError
from uob.inclusion import InclusionSpec, embed, embed_batch
from uob.tower import build_basic_construction

from reference import CONCAT, concat_block_perms
from spec_box import specs


def _block_diag(blocks):
    """The dense block-diagonal matrix of ``blocks`` in order: an independent reference."""
    N = sum(len(b) for b in blocks)
    out, at = np.zeros((N, N), dtype=complex), 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


@settings(max_examples=60, deadline=None)
@given(spec=specs())
def test_embed_batch_is_embed_on_every_operand_of_a_stack(spec):
    rng = np.random.default_rng(list(spec.sub_dims) + list(spec.super_dims))
    Ys = [spec.sub_algebra.random(rng) for _ in range(3)]
    for Y in Ys:
        # leading shape (): each copy of block j, in layout order, down the diagonal
        one = embed_batch(spec, Y.data)
        assert all(map(np.array_equal, one, embed(spec, Y).data))
        dense = spec.super_algebra.operator(one).to_dense()
        assert np.array_equal(dense, _block_diag([Y.data[j] for _, j, _, _ in spec.copies]))
    stacked = embed_batch(spec, [np.stack(b) for b in zip(*(Y.data for Y in Ys))])
    assert [s.shape for s in stacked] == [(3, n, n) for n in spec.super_dims]
    for k, Y in enumerate(Ys):
        assert all(np.array_equal(s[k], b) for s, b in zip(stacked, embed(spec, Y).data))


def test_embed_batch_refuses_a_stack_that_would_broadcast_into_a_copy():
    spec = InclusionSpec.from_matrix([[1, 2], [2, 0]], [2, 1])  # n = (4, 4)
    a, b = np.ones((3, 2, 2)), np.ones((3, 1, 1))
    assert [x.shape for x in embed_batch(spec, [a, b])] == [(3, 4, 4), (3, 4, 4)]
    bad = {
        "trailing shape": [a, np.ones((3, 2, 2))],
        "leading shape (1,)": [a, np.ones((1, 1, 1))],
        "no leading shape": [a, np.ones((1, 1))],
        "no leading shape first": [np.ones((2, 2)), b],
        "one block short": [a],
        "one block over": [a, b, b],
    }
    for why, blocks in bad.items():
        with pytest.raises(AlgebraMismatch):
            embed_batch(spec, blocks)
            pytest.fail(why)


@pytest.mark.parametrize("inner,inner_method,outer,outer_method", CONCAT)
def test_concat_basis_is_the_per_pair_product_loop(inner, inner_method, outer, outer_method):
    b0 = construct(InclusionSpec.from_matrix(*inner), inner_method)
    b1 = construct(InclusionSpec.from_matrix(*outer), outer_method)
    got = concat_basis(b0, b1)
    assert got.spec.r > 1
    nested = []
    for V in b0.elements:
        for W in b1.elements:
            nested.append(V @ embed(b0.spec, W))
    assert got.d == len(nested) == b0.d * b1.d
    for i, p in enumerate(concat_block_perms(b0.spec, b1.spec, got.spec)):
        want = np.stack([X.data[i] for X in nested])[:, p[:, None], p]
        assert np.array_equal(got.stacks[i], want)


@pytest.mark.parametrize("name", ["c_in_m1_plus_m2", "c2_in_m2_plus_m2", "m2_in_m2_plus_m4"])
def test_left_multiplication_is_the_embedding_of_the_gns_spec(name):
    spec = catalog_spec(name)
    bc = build_basic_construction(spec)
    n = spec.super_dims
    assert bc.gns_spec == InclusionSpec.from_matrix([list(n)], n)
    assert bc.gns_spec.super_algebra == bc.gns_algebra
    X = spec.super_algebra.random(np.random.default_rng(4))
    assert np.array_equal(bc.left_rep(X).data[0], embed(bc.gns_spec, X).data[0])


def test_auto_does_not_try_weyl(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return weyl_basis(spec)

    monkeypatch.setattr(bases, "weyl_basis", counted)
    for name in catalog_names():
        spec = catalog_spec(name)
        try:
            construct(spec, "auto")
        except UobError:
            pass
        assert spec not in calls, name
    spec = catalog_spec("c2_in_m2_plus_m2")
    assert construct(spec, "auto").provenance == "abelian"
    assert construct(spec, "weyl").provenance == "weyl"


@settings(max_examples=80, deadline=None)
@given(spec=specs())
def test_weyl_applies_only_where_abelian_does(spec):
    # every m_j = 1, equal n_i and constant column sums q give A^t n = n q m
    try:
        w = weyl_basis(spec)
    except ShapeMismatch:
        return
    assert abelian_basis(spec).d == w.d
