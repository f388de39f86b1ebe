"""CLI contract: subcommands, output formats, and exit codes."""

import json
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from uob import cli
from uob.bases import METHODS
from uob.catalog import catalog_spec
from uob.cli import build_parser, main
from uob.expectation import MixedUnitaryDecomposition
from uob.inclusion import InclusionSpec
from uob.io import load_basis, save_spec


def test_check_passing_spec(capsys):
    assert main(["check", "c_in_m1_plus_m2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] and doc["d"] == 5
    assert doc["markov_trace_vector"] == [1, 2]


def test_check_failing_spectral_condition_still_exits_0(capsys):
    # the spec is valid; the failed condition is the reported finding
    assert main(["check", "c2_in_m3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not doc["holds"] and doc["d"] is None


def test_check_invalid_spec_exits_1(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"inclusion_matrix": [[1]], "sub_dims": [2], "super_dims": [3]}))
    assert main(["check", str(path)]) == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"inclusion_matrix": "x", "sub_dims": [1]},
        {"inclusion_matrix": [], "sub_dims": []},
        {"inclusion_matrix": [[2.7]], "sub_dims": [1.9]},
    ],
)
def test_check_malformed_spec_exits_1_with_one_line(tmp_path, capsys, doc):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"inclusion_matrix": [[True, True]], "sub_dims": [1, 1]},
        {"inclusion_matrix": [[1, 1]], "sub_dims": [1, True]},
        {"inclusion_matrix": [[1]], "sub_dims": [1], "super_dims": [True]},
    ],
    ids=["inclusion_matrix", "sub_dims", "super_dims"],
)
def test_check_boolean_spec_field_exits_1_with_one_line(tmp_path, capsys, doc):
    # JSON true is not the integer 1: int(True) == 1 must not let it through
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "boolean" in err


@pytest.mark.parametrize("command", ["check", "entropy"])
@pytest.mark.parametrize(
    "A, m",
    [
        ([[10**400]], [1]),  # the entry itself is past the range of a float
        ([[10**400, 1]], [1, 1]),  # and with no integer d
        ([[10**200]], [1]),  # a float entry, but ||A||^2 = 10^400 is not
    ],
)
def test_an_entry_past_the_float_range_exits_1_with_one_line(tmp_path, capsys, command, A, m):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"inclusion_matrix": A, "sub_dims": m}))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "range of a float" in err


def test_check_spec_from_file(tmp_path, capsys):
    path = tmp_path / "s.json"
    save_spec(path, catalog_spec("c_in_m3"))
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 9


def test_unknown_spec_is_bad_input(capsys):
    assert main(["check", "no_such_spec"]) == 2


@pytest.mark.parametrize("kind", ["missing", "broken_symlink", "under_a_file"])
def test_a_spec_path_that_names_no_file_is_neither_a_catalog_name_nor_a_file(tmp_path, capsys, kind):
    path = tmp_path / "s.json"
    if kind == "broken_symlink":
        path.symlink_to(tmp_path / "gone.json")
    elif kind == "under_a_file":
        save_spec(path, catalog_spec("c_in_m2"))
        path = path / "s.json"
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: '{path}' is neither a catalog name nor a file\n"


def test_malformed_json_is_bad_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2


def _one_line(err):
    return err.count("\n") == 1 and "Traceback" not in err


def test_directory_as_spec_is_bad_input(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and _one_line(err)


def test_spec_file_that_is_not_utf8_is_bad_input(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and _one_line(err)


def test_bad_tol_env_is_bad_input(monkeypatch, capsys):
    monkeypatch.setenv("UOB_TOL", "abc")
    assert main(["basis", "c_in_m2"]) == 2
    err = capsys.readouterr().err
    assert "--tol" in err and "'abc'" in err and _one_line(err)


def test_parser_is_built_once_per_tol_value(monkeypatch):
    monkeypatch.delenv("UOB_TOL", raising=False)
    parser = build_parser()
    assert build_parser() is parser
    monkeypatch.setenv("UOB_TOL", "1e-6")
    other = build_parser()
    assert other is not parser and build_parser() is other
    assert other.parse_args(["verify", "b.json"]).tol == 1e-6
    assert parser.parse_args(["verify", "b.json"]).tol == 1e-8


def test_tol_flag_does_not_carry_over_to_the_next_call(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["basis", "c_in_m2", "--out", str(out)]) == 0
    assert main(["verify", str(out), "--tol", "1e-30"]) == 1
    assert main(["verify", str(out)]) == 0


def test_method_does_not_carry_over_to_the_next_call(tmp_path, capsys):
    out = tmp_path / "b.json"
    # no full-matrix factor to split off: tensor fails, auto builds a basis
    assert main(["basis", "c_in_m1_plus_m2", "--method", "tensor"]) == 1
    assert main(["basis", "c_in_m1_plus_m2", "--out", str(out)]) == 0
    assert load_basis(out).provenance == "abelian"
    assert build_parser().parse_args(["basis", "c_in_m1_plus_m2"]).method == "auto"


def test_bad_tol_env_after_a_good_one_is_bad_input(monkeypatch, capsys):
    monkeypatch.setenv("UOB_TOL", "1e-8")
    assert main(["basis", "c_in_m2"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("UOB_TOL", "abc")
    assert main(["basis", "c_in_m2"]) == 2
    err = capsys.readouterr().err
    assert "--tol" in err and "'abc'" in err and _one_line(err)


SEEDED = {
    "basis": ["basis", "c_in_m2"],
    "verify": ["verify", "b.json"],  # refused before the file is read
    "channel": ["channel", "c2_in_m2_plus_m2"],
}


@pytest.mark.parametrize("command", SEEDED)
@pytest.mark.parametrize("seed", ["-1", "-5", "abc", "1.5"])
def test_bad_seed_is_bad_input_with_one_line(command, seed, capsys):
    # numpy refuses a negative seed with a ValueError traceback
    assert main(SEEDED[command] + ["--seed", seed]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and repr(seed) in err and _one_line(err)


@pytest.mark.parametrize("command", ["basis", "channel"])
def test_a_non_negative_seed_is_accepted(command, capsys):
    assert main(SEEDED[command] + ["--seed", "0"]) == 0
    assert main(SEEDED[command] + ["--seed", "12345678901234567890"]) == 0


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1", "-1e-8", "1e999"])
def test_non_finite_or_negative_tol_is_bad_input(tol, capsys):
    # inf would pass every finite residual; nan and negatives are no tolerance.
    # --tol=VALUE, as argparse takes "--tol -inf" for a missing value
    assert main(["basis", "c_in_m2", f"--tol={tol}"]) == 2
    err = capsys.readouterr().err
    assert "--tol" in err and repr(tol) in err and _one_line(err)


@pytest.mark.parametrize("tol", ["inf", "nan", "-1e-8"])
def test_non_finite_or_negative_tol_env_is_bad_input(tol, monkeypatch, capsys):
    monkeypatch.setenv("UOB_TOL", tol)
    assert main(["channel", "c2_in_m2_plus_m2"]) == 2
    err = capsys.readouterr().err
    assert "--tol" in err and repr(tol) in err and _one_line(err)


def test_zero_and_tiny_tol_are_accepted(tmp_path, monkeypatch, capsys):
    out = tmp_path / "b.json"
    assert main(["basis", "c_in_m2", "--out", str(out)]) == 0
    for tol in ("0", "1e-30"):
        assert build_parser().parse_args(["verify", str(out), "--tol", tol]).tol == float(tol)
        assert main(["verify", str(out), "--tol", tol]) == 1
    monkeypatch.setenv("UOB_TOL", "0")
    assert build_parser().parse_args(["verify", str(out)]).tol == 0.0
    assert main(["verify", str(out)]) == 1
    capsys.readouterr()


def test_bad_subcommand_is_bad_input():
    assert main(["frobnicate"]) == 2


COMMANDS = ["check", "entropy", "basis", "verify", "channel"]
PARSE_PROBES = [
    ([], {}),
    (["-h"], {}),
    (["--help"], {}),
    (["frobnicate"], {}),
    *(([command, "-h"], {}) for command in COMMANDS),
    (["check"], {}),
    (["check", "c_in_m2", "--bogus"], {}),
    (["basis", "c_in_m2", "extra", "--bogus"], {}),
    (["basis", "c_in_m2", "--meth", "tensor"], {}),
    (["basis", "c_in_m2", "--seed", "-1"], {}),
    (["channel", "c2_in_m2_plus_m2", "--seed", "abc"], {}),
    (["basis", "c_in_m2", "--tol=nan"], {}),
    (["verify", "b.json", "--tol", "x"], {}),
    (["basis", "c_in_m2"], {"UOB_TOL": "abc"}),
    (["check", "c_in_m2"], {"UOB_TOL": "-1"}),
]


@pytest.mark.parametrize(
    "argv, env", PARSE_PROBES, ids=[" ".join(a + [f"{k}={v}" for k, v in e.items()]) or "none" for a, e in PARSE_PROBES]
)
def test_main_parses_as_the_top_level_parser_does(monkeypatch, capsys, argv, env):
    # the reference is the top-level parser's parse_args on the whole command line
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code = main(argv)
    got = capsys.readouterr()
    monkeypatch.setattr(cli, "_parse", lambda parser, argv: parser.parse_args(argv))
    assert main(argv) == code
    assert capsys.readouterr() == got


def test_help_describes_commands_and_exit_codes_only(capsys):
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    assert "Exit codes" in out and "``" not in out


def test_a_key_error_inside_a_command_is_not_bad_input(monkeypatch):
    # no input path raises KeyError, so one is a programming error and propagates
    def broken(spec, method):
        raise KeyError("slot")

    monkeypatch.setattr(cli, "construct", broken)
    with pytest.raises(KeyError):
        main(["basis", "c_in_m2"])


def test_unrecognized_arguments_are_reported_by_the_top_level_parser(capsys):
    assert main(["basis", "c_in_m2", "extra", "--bogus"]) == 2
    assert capsys.readouterr() == ("", "uob: error: unrecognized arguments: extra --bogus\n")


def test_a_command_is_parsed_by_its_own_parser(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a command line")

    monkeypatch.setattr(build_parser(), "parse_args", refuse)
    assert main(["check", "c_in_m2"]) == 0
    with pytest.raises(AssertionError):
        main(["frobnicate"])


def test_entropy(capsys):
    import math

    assert main(["entropy", "c_in_m5"]) == 0
    assert abs(float(capsys.readouterr().out) - math.log(25)) < 1e-9
    assert main(["entropy", "c2_in_m3"]) == 1


def test_basis_auto_writes_verified_output(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["basis", "c_in_m1_plus_m2", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "[PASS] orthonormality" in text
    loaded = load_basis(out)
    assert loaded.d == 5


def test_basis_no_construction_exits_3():
    assert main(["basis", "c2_in_m3"]) == 3


def test_basis_tensor_without_inner_construction_exits_1(tmp_path, capsys):
    # M_2 splits off, but nothing builds the inner A=[[1,2]], m=[1,1]: a forced
    # method that does not apply is 1, and only auto gives 3
    path = tmp_path / "s.json"
    save_spec(path, InclusionSpec.from_matrix([[1, 2]], [2, 2]))
    assert main(["basis", str(path), "--method", "tensor"]) == 1
    assert main(["basis", str(path)]) == 3
    assert "no known construction applies" in capsys.readouterr().err


def test_basis_method_choices_are_the_planners():
    for method in METHODS:
        assert build_parser().parse_args(["basis", "c_in_m2", "--method", method]).method == method
    assert main(["basis", "c_in_m2", "--method", "no_such_method"]) == 2


def test_basis_explicit_method_mismatch_exits_1():
    # abelian construction cannot apply to a non-abelian sub-algebra
    assert main(["basis", "m2_in_m4", "--method", "abelian"]) == 1


def test_basis_method_basic(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["basis", "m2_in_m4", "--method", "basic", "--out", str(out)]) == 0
    assert load_basis(out).provenance == "basic_construction"
    # basic method needs a single super block with row equal to the sub dims
    assert main(["basis", "c_in_m1_plus_m2", "--method", "basic"]) == 1


def test_basis_method_tensor(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["basis", "m2_in_m4", "--method", "tensor", "--out", str(out)]) == 0
    assert load_basis(out).d == 4
    # no common full-matrix factor to split off
    assert main(["basis", "c_in_m1_plus_m2", "--method", "tensor"]) == 1


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "b.json"
    main(["basis", "c2_in_m4", "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    assert "[PASS] reconstruction" in capsys.readouterr().out


def test_verify_rejects_tampered_basis(tmp_path, capsys):
    out = tmp_path / "b.json"
    main(["basis", "c_in_m2", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["elements"][1][0][1] = [0.9, 0.1]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1


def test_channel(capsys):
    assert main(["channel", "c2_in_m2_plus_m2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreement_residual"] < 1e-10
    assert doc["unitary_count"] == 16
    assert doc["k_phases"]["(0, 0, 0)"] == "0"
    assert doc["k_phases"]["(1, 1, 0)"] == "3/4"
    assert doc["cycles"] == [[[0, 0], [1, 0]], [[0, 0], [1, 0]]]
    assert main(["channel", "m2_in_m2_plus_m4"]) == 1


@pytest.mark.parametrize(
    "A, m",
    [
        ([[12] * 6], [1] * 6),  # N = 72 but 214,990,848 conjugations
        ([[1]], [20000]),  # one conjugation, but N x N arrays of 6.4 GB each
        ([[200000]], [1]),  # refused before its 200,000 copies are listed
    ],
)
def test_channel_over_the_size_cap_exits_1_with_one_line(tmp_path, capsys, A, m):
    path = tmp_path / "s.json"
    save_spec(path, InclusionSpec.from_matrix(A, m))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code = main(["channel", str(path)])
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and seconds < 5 and peak < 1 << 20
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "over the cap" in err


def test_channel_on_the_largest_census_channel_spec(tmp_path, capsys):
    # 3888 conjugations at N = 48: the largest channel of any equal-n spec of the census box
    path = tmp_path / "s.json"
    save_spec(path, InclusionSpec.from_matrix([[2, 2, 2]] * 3, [2, 3, 3]))
    assert main(["channel", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["unitary_count"] == 3888 and doc["agreement_residual"] <= 1e-10


def test_channel_with_a_nan_operand_exits_1(monkeypatch, capsys):
    # the third of the five random operands comes back NaN from the channel
    real = MixedUnitaryDecomposition.apply
    calls = []

    def poisoned(self, X):
        out = real(self, X)
        if out.ndim == 3:
            out[2] = np.nan
        else:
            calls.append(X)
            if len(calls) == 3:
                out[:] = np.nan
        return out

    monkeypatch.setattr(MixedUnitaryDecomposition, "apply", poisoned)
    assert main(["channel", "c2_in_m2_plus_m2"]) == 1
    assert math.isnan(json.loads(capsys.readouterr().out)["agreement_residual"])


def test_tol_flag_can_force_failure(tmp_path, capsys):
    out = tmp_path / "b.json"
    main(["basis", "c_in_m2", "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", str(out), "--tol", "1e-30"]) == 1


def test_tol_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UOB_TOL", "1e-30")
    out = tmp_path / "b.json"
    main(["basis", "c_in_m2", "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1


def test_basis_out_from_a_spec_path_with_an_undecodable_byte_writes_a_loadable_file(tmp_path, capsys):
    # the path's byte 0xff reaches argv as a lone surrogate, the name the file records
    spec_path = os.path.join(os.fsencode(tmp_path), b"spec\xff.json")
    save_spec(spec_path, catalog_spec("c_in_m2"))
    out = tmp_path / "b.json"
    assert main(["basis", os.fsdecode(spec_path), "--out", str(out)]) == 0
    assert json.loads(out.read_bytes())["name"].endswith("spec\\udcff.json")
    assert load_basis(out).spec == catalog_spec("c_in_m2")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0


C_IN_C = {"inclusion_matrix": [[1]], "sub_dims": [1]}


def _write_basis_doc(path, elements, d=None, **extra):
    doc = {
        "d": len(elements) if d is None else d,
        "provenance": "hand-written",
        "spec": C_IN_C,
        "elements": elements,
        **extra,
    }
    path.write_text(json.dumps(doc))  # NaN is written as the literal NaN
    return str(path)


def test_verify_nan_entry_exits_1_without_traceback(tmp_path, capsys):
    path = _write_basis_doc(tmp_path / "nan.json", [[[[float("nan"), 0.0]]]])
    assert main(["verify", path]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] unitary" in captured.out
    assert "[FAIL] orthonormality" in captured.out
    assert "Traceback" not in captured.err and "Warning" not in captured.err


def test_verify_entry_past_the_float_range_exits_1_with_one_line(tmp_path, capsys):
    path = _write_basis_doc(tmp_path / "big.json", [[[[10**400, 0]]]])
    assert main(["verify", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "too large" in err


def test_verify_empty_basis_exits_1(tmp_path, capsys):
    path = _write_basis_doc(tmp_path / "empty.json", [])
    assert main(["verify", path]) == 1
    assert "[FAIL] unitary" in capsys.readouterr().out


def test_verify_wrong_d_field_exits_1(tmp_path, capsys):
    path = _write_basis_doc(tmp_path / "d.json", [[[[1.0, 0.0]]]], d=2)
    assert main(["verify", path]) == 1
    assert "holds 1 elements" in capsys.readouterr().err


@pytest.mark.parametrize(
    "elements, extra",
    [
        ([[[[1.0, 0.0]]]], {"spec": [1]}),
        ([[[[1.0, 0.0]]]], {"spec": {"inclusion_matrix": [[1], [1]], "sub_dims": [1]}}),
        ([[[[1.0]]]], {}),
    ],
)
def test_verify_malformed_basis_exits_1_with_one_line(tmp_path, capsys, elements, extra):
    path = _write_basis_doc(tmp_path / "b.json", elements, **extra)
    assert main(["verify", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("provenance", [{"a": [1, 2]}, 5])
def test_verify_a_provenance_that_is_no_string_exits_1_with_one_line(tmp_path, capsys, provenance):
    path = _write_basis_doc(tmp_path / "b.json", [[[[1.0, 0.0]]]], provenance=provenance)
    assert main(["verify", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: provenance must be a string\n"


@pytest.mark.parametrize(
    "elements, extra",
    [
        ([[[[1.0, 0.0]]]], {"spec": {"inclusion_matrix": [[1]], "sub_dims": [True]}}),
        ([[[[True, False]]]], {}),
    ],
    ids=["spec_sub_dims", "entry_pair"],
)
def test_verify_boolean_basis_field_exits_1_with_one_line(tmp_path, capsys, elements, extra):
    # complex(True, False) == 1: a boolean entry must not load as a number
    path = _write_basis_doc(tmp_path / "b.json", elements, **extra)
    assert main(["verify", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "boolean" in err


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"d": 1, "spec": C_IN_C, "elements": 5}),
        json.dumps({"d": 1, "spec": C_IN_C, "elements": [7]}),
        "[1, 2]",
    ],
    ids=["elements_not_a_list", "element_not_a_list", "document_not_an_object"],
)
def test_verify_malformed_structure_exits_1_with_one_line(tmp_path, capsys, text):
    path = tmp_path / "b.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_spec_less_basis_exits_1_with_one_line(tmp_path, capsys):
    # without a spec there is no expectation to verify against: a null spec
    # and a missing one are refused alike
    path = tmp_path / "b.json"
    for doc in ({"d": 1, "spec": None, "elements": [[[[1.0, 0.0]]]]}, {"d": 1, "elements": [[[[1.0, 0.0]]]]}):
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "no spec" in err


@pytest.mark.parametrize("key", ["d", "elements"])
def test_verify_basis_without_a_field_exits_1_naming_it(tmp_path, capsys, key):
    path = tmp_path / "b.json"
    doc = {"d": 1, "spec": C_IN_C, "elements": [[[[1.0, 0.0]]]]}
    del doc[key]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: basis document has no {key}\n"


@pytest.mark.parametrize("method", ["auto", "basic"])
def test_basis_over_the_size_cap_exits_1_with_one_line(tmp_path, capsys, method):
    # d * sum n_i^2 = 288^3: refused before the GNS cap of the basic model is reached
    path = tmp_path / "s.json"
    save_spec(path, InclusionSpec.from_matrix([[12, 12]], [12, 12]))
    assert main(["basis", str(path), "--method", method]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "over the cap" in err


def test_basis_c_in_m200_is_refused_quickly_without_allocating(tmp_path, capsys):
    # d = 40000 elements of 200 x 200 would be about 25.6 GB of stacks
    path = tmp_path / "s.json"
    save_spec(path, InclusionSpec.from_matrix([[200]], [1]))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code = main(["basis", str(path)])
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and "over the cap" in capsys.readouterr().err
    assert seconds < 5 and peak < 1 << 20


def test_verify_a_document_over_the_size_cap_exits_1_quickly_without_allocating(tmp_path, capsys):
    # 82 bytes: the empty basis costs nothing, but the trace check of its spec
    # would run E on every diagonal unit of M_1500 (d * sum n_i^2 = 1500^4)
    path = tmp_path / "b.json"
    path.write_text('{"d": 0, "elements": [], "spec": {"inclusion_matrix": [[1500]], "sub_dims": [1]}}\n')
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code = main(["verify", str(path)])
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "over the cap" in err
    assert seconds < 5 and peak < 1 << 20


# Python refuses to convert an int of over 4300 digits to or from a string
HUGE = "1" + "0" * 5000


@pytest.mark.parametrize(
    "command, text",
    [
        ("check", f'{{"inclusion_matrix": [[{HUGE}]], "sub_dims": [1]}}'),
        ("verify", f'{{"d": {HUGE}, "spec": null, "block_dims": [1], "elements": []}}'),
        ("check", "[" * 100000 + "]" * 100000),  # nested past the recursion limit
    ],
    ids=["check", "verify", "check_nested"],
)
def test_a_document_json_cannot_read_is_bad_input(tmp_path, capsys, command, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and _one_line(err)


@pytest.mark.parametrize("command", ["channel", "basis"])
def test_a_size_of_thousands_of_digits_is_refused_with_one_line(tmp_path, capsys, command):
    # A = [[10^2000]]: the size over the cap has about 8000 digits
    path = tmp_path / "s.json"
    save_spec(path, InclusionSpec.from_matrix([[10**2000]], [1]))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and _one_line(err) and "over the cap" in err


@pytest.mark.parametrize("change", ["one_pair_over", "one_pair_short", "one_block_over", "one_block_short"])
def test_a_basis_file_with_a_misshapen_element_fails_with_one_line(tmp_path, capsys, change):
    # c_in_m1_plus_m2 has blocks (1, 2): element 1 holds one pair, then n^2 = 4
    path = tmp_path / "b.json"
    assert main(["basis", "c_in_m1_plus_m2", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    W = doc["elements"][1]
    if change == "one_pair_over":
        W[1].append([0.0, 0.0])
    elif change == "one_pair_short":
        W[1].pop()
    elif change == "one_block_over":
        W.append([[1.0, 0.0]])
    else:
        W.pop()
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and _one_line(err)
