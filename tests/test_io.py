"""JSON round-trips for specs and bases."""

import json

import numpy as np
import pytest

from uob import cli
from uob.bases import METHODS, UnitaryBasis, abelian_basis, construct, weyl_basis
from uob.catalog import catalog_names, catalog_spec
from uob.errors import DimensionMismatch, InvariantViolated, TooLarge, UobError
from uob.inclusion import InclusionSpec
from uob.io import (
    basis_from_dict,
    basis_to_dict,
    load_basis,
    load_spec,
    save_basis,
    save_spec,
    spec_from_dict,
    spec_to_dict,
)
from uob.tower import basic_construction_basis, build_basic_construction


def test_spec_round_trip(tmp_path):
    spec = catalog_spec("m2_in_m2_plus_m4")
    path = tmp_path / "spec.json"
    save_spec(path, spec, "example")
    assert load_spec(path) == spec


def test_spec_from_dict_checks_consistency():
    doc = spec_to_dict(catalog_spec("c_in_m2"))
    doc["super_dims"] = [3]
    with pytest.raises(DimensionMismatch):
        spec_from_dict(doc)
    with pytest.raises(DimensionMismatch):
        spec_from_dict({"inclusion_matrix": [[1]]})


@pytest.mark.parametrize("with_super_dims", [False, True])
def test_a_row_longer_than_sub_dims_is_a_column_count_error(with_super_dims):
    doc = {"inclusion_matrix": [[1, 1]], "sub_dims": [1]}
    if with_super_dims:
        doc["super_dims"] = [2]
    with pytest.raises(DimensionMismatch, match="column count does not match sub_dims"):
        spec_from_dict(doc)


def test_load_spec_builds_one_spec(tmp_path, monkeypatch):
    built = []
    post_init = InclusionSpec.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    spec, path = catalog_spec("m2_in_m2_plus_m4"), tmp_path / "spec.json"
    save_spec(path, spec)  # the file holds super_dims
    monkeypatch.setattr(InclusionSpec, "__post_init__", counting_post_init)
    loaded = load_spec(path)
    assert built == [loaded] and loaded == spec


def test_basis_round_trip(tmp_path):
    b = abelian_basis(catalog_spec("c_in_m1_plus_m2"))
    path = tmp_path / "basis.json"
    save_basis(path, b, "example")
    loaded = load_basis(path)
    assert loaded.spec == b.spec
    assert loaded.d == b.d
    for W1, W2 in zip(b.elements, loaded.elements):
        assert W1.allclose(W2, 1e-15)


@pytest.mark.parametrize("write", ["save_basis", "basis_to_dict"])
def test_a_spec_less_basis_is_refused_and_leaves_no_file(tmp_path, write):
    # the tower's GNS-space basis of C^2 in M_2 has no spec, so no file can hold it
    spec = catalog_spec("c2_in_m2")
    b = basic_construction_basis(build_basic_construction(spec), weyl_basis(spec))
    assert b.spec is None
    path = tmp_path / "basis.json"
    with pytest.raises(UobError, match="without a spec"):
        save_basis(path, b) if write == "save_basis" else basis_to_dict(b)
    assert not path.exists()


@pytest.mark.parametrize("key", ["d", "elements", "spec"])
@pytest.mark.parametrize("value", ["absent", None])
def test_basis_from_dict_names_a_missing_field(key, value):
    doc = basis_to_dict(abelian_basis(catalog_spec("c_in_m2")))
    if value == "absent":
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(DimensionMismatch, match=f"basis document has no {key}$"):
        basis_from_dict(doc)


@pytest.mark.parametrize("provenance", [{"a": [1, 2]}, 5, None, True, ["abelian"]])
def test_basis_from_dict_refuses_a_provenance_that_is_no_string(provenance):
    doc = basis_to_dict(abelian_basis(catalog_spec("c_in_m2")))
    doc["provenance"] = provenance
    with pytest.raises(DimensionMismatch, match="provenance must be a string$"):
        basis_from_dict(doc)


def test_basis_from_dict_without_a_provenance_loads_it_as_loaded():
    doc = basis_to_dict(abelian_basis(catalog_spec("c_in_m2")))
    del doc["provenance"]
    assert basis_from_dict(doc).provenance == "loaded"


def test_entries_are_plain_floats():
    doc = basis_to_dict(abelian_basis(catalog_spec("c_in_m2")))
    entry = doc["elements"][1][0][0]
    assert isinstance(entry, list) and len(entry) == 2
    assert all(isinstance(v, float) for v in entry)


def test_basis_from_dict_rejects_wrong_d():
    doc = basis_to_dict(abelian_basis(catalog_spec("c_in_m2")))
    doc["elements"].pop()
    with pytest.raises(DimensionMismatch):
        basis_from_dict(doc)
    del doc["d"]
    with pytest.raises(DimensionMismatch):
        basis_from_dict(doc)


def _json_dump_bytes(doc) -> bytes:
    """What json.dump writes for doc in the compact layout, UTF-8 unescaped, plus a newline."""
    return (json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n").encode()


@pytest.mark.parametrize(
    "matrix, sub_dims", [([[1500]], [1]), ([[4097, 1]], [1, 2])], ids=["d_1500_squared", "no_d"]
)
def test_basis_from_dict_refuses_a_spec_over_the_budget(matrix, sub_dims):
    # construct's budget, d * sum n_i^2 entries, with d = 1 where the spectral
    # condition fails (sum n_i^2 = 4099^2 > 2^24)
    doc = {"d": 0, "elements": [], "spec": {"inclusion_matrix": matrix, "sub_dims": sub_dims}}
    with pytest.raises(TooLarge, match="over the cap"):
        basis_from_dict(doc)


def test_basis_from_dict_loads_a_spec_at_the_budget():
    # M_4096 in M_4096: d * sum n_i^2 = 2^24, exactly MAX_BASIS_ENTRIES
    doc = {"d": 0, "elements": [], "spec": {"inclusion_matrix": [[1]], "sub_dims": [4096]}}
    assert basis_from_dict(doc).stacks[0].shape == (0, 4096, 4096)


def test_save_basis_writes_the_bytes_of_json_dump(tmp_path):
    # the B = C tower basis carries spec.transpose(); its entries are computed sums
    spec = catalog_spec("c_in_m2")
    tower_basis = basic_construction_basis(build_basic_construction(spec), abelian_basis(spec))
    for b in (abelian_basis(catalog_spec("c_in_m1_plus_m2")), tower_basis):
        path = tmp_path / "basis.json"
        save_basis(path, b, "example")
        assert path.read_bytes() == _json_dump_bytes(basis_to_dict(b, "example"))


@pytest.mark.parametrize("name", ["a, b: c", "Jones ⊂ tower", 'quote " and \\ slash'])
def test_save_basis_writes_json_dump_bytes_for_a_name_of_any_text(tmp_path, name):
    # orjson escapes a name as json.dump does with ensure_ascii=False: ⊂ goes out as UTF-8
    b = abelian_basis(catalog_spec("c_in_m1_plus_m2"))
    path = tmp_path / "basis.json"
    save_basis(path, b, name)
    assert path.read_bytes() == _json_dump_bytes(basis_to_dict(b, name))
    assert load_basis(path).provenance == b.provenance
    assert json.loads(path.read_bytes())["name"] == name


def _constructible_bases():
    for name in catalog_names():
        for method in METHODS:
            try:
                basis = construct(catalog_spec(name), method)
            except UobError:
                continue
            yield pytest.param(f"{name}-{method}", basis, id=f"{name}-{method}")


@pytest.mark.parametrize("label,basis", _constructible_bases())
def test_save_basis_writes_json_dump_bytes_for_every_catalog_basis(tmp_path, label, basis):
    # full_matrix_sub, full_matrix_super and tensor build stacks that are not C-contiguous;
    # no catalog entry has a one-digit exponent, the one spelling orjson and repr differ in
    path = tmp_path / "basis.json"
    save_basis(path, basis, label)
    assert path.read_bytes() == _json_dump_bytes(basis_to_dict(basis, label))


def test_save_basis_round_trips_every_float_bit_for_bit(tmp_path):
    # values whose exponent orjson spells otherwise than repr, and the extremes
    values = [1e-5, 2.5e-7, 1e16, -0.0, 5e-324, 1.7976931348623157e308, -1e-5, 0.1]
    stack = np.array(values).view(complex).reshape(1, 2, 2)
    path = tmp_path / "basis.json"
    save_basis(path, UnitaryBasis(catalog_spec("c_in_m2"), (stack,), "hand"))
    loaded = load_basis(path)
    assert loaded.stacks[0].view(np.int64).tolist() == stack.view(np.int64).tolist()


def _c_in_m2_basis_with(entry) -> UnitaryBasis:
    """The abelian basis of C in M_2 with one off-diagonal entry replaced."""
    b = abelian_basis(catalog_spec("c_in_m2"))
    stack = b.stacks[0].copy()
    stack[1, 0, 1] = entry
    return UnitaryBasis(b.spec, (stack,), "tampered")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_save_basis_refuses_a_non_finite_entry_and_writes_no_file(tmp_path, bad):
    path = tmp_path / "basis.json"
    with pytest.raises(InvariantViolated):
        save_basis(path, _c_in_m2_basis_with(complex(0.5, bad)))
    assert not path.exists()


def test_basis_out_with_a_nan_basis_exits_1_and_writes_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "construct", lambda spec, method: _c_in_m2_basis_with(np.nan))
    out = tmp_path / "basis.json"
    assert cli.main(["basis", "c_in_m2", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_basis_to_dict_rejects_empty_spec_less_basis():
    with pytest.raises(DimensionMismatch):
        basis_to_dict(UnitaryBasis.from_elements(None, (), "empty"))


@pytest.mark.parametrize("entry", [[1.0], [1.0, 0.0, 0.0], 1.0, None, ["1", "0"]])
def test_basis_from_dict_rejects_entries_that_are_not_pairs(entry):
    doc = basis_to_dict(abelian_basis(catalog_spec("c_in_m2")))
    doc["elements"][1][0][2] = entry
    with pytest.raises(DimensionMismatch):
        basis_from_dict(doc)


C_IN_C = {"inclusion_matrix": [[1]], "sub_dims": [1]}


@pytest.mark.parametrize(
    "doc",
    [
        {"d": 1, "spec": C_IN_C, "elements": 5},
        {"d": 1, "spec": C_IN_C, "elements": [7]},
        [1, 2],
        {"d": True, "spec": C_IN_C, "elements": [[[[1.0, 0.0]]]]},
        {"d": 1.0, "spec": C_IN_C, "elements": [[[[1.0, 0.0]]]]},
    ],
    ids=[
        "elements_not_a_list",
        "element_not_a_list",
        "document_not_an_object",
        "d_a_boolean",
        "d_a_float",
    ],
)
def test_basis_from_dict_rejects_malformed_structure(doc):
    with pytest.raises(DimensionMismatch):
        basis_from_dict(doc)
