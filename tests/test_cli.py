import copy
import json
import os
import shutil
import subprocess
import sys
import time
from functools import reduce
from operator import getitem

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cybe import (
    PrimeField,
    abelian,
    cli,
    enumerate_solutions,
    exhaustive,
    family_ii,
    family_iii,
    family_vi,
    scan_solution_ids,
    solvable_table,
)
from cybe.cli import run
from cybe.problems import SCALAR_CAP
from cybe.scalars import RationalField
from cybe.exhaustive import decode_ids
from cybe.problems import tensor_obj, tensor_objs
from conftest import decoded_tensors

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLES = os.path.join(ROOT, "problems")
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "data", "golden")
WITNESSES = os.path.join(HERE, "data", "witnesses")
# every problem file in WITNESSES, each with a golden report per verb
WITNESS_STEMS = sorted(name.removesuffix(".json")
                       for name in os.listdir(WITNESSES)
                       if name.endswith(".json")
                       and not name.endswith(".golden.json"))


def sample(name):
    return os.path.join(SAMPLES, name)


def write_problem(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


# the shipped sample problems, each through its natural verb


def test_sample_sl2_strong_check(capsys):
    code, rep = run_json(capsys, ["check", "-i", sample("sl2_strong_check.json")])
    assert code == 0 and rep["ok"]
    assert rep["jacobi_ok"]
    res = rep["results"][0]
    assert res["is_solution"] and res["covered"]
    assert "strongly-symmetric" in res["labels"]
    assert res["symmetry"]["strongly_symmetric"]


def test_sample_sl2_skew_bialgebra(capsys):
    code, rep = run_json(capsys,
                         ["bialgebra", "-i", sample("sl2_skew_bialgebra.json")])
    assert code == 0 and rep["ok"]
    assert len(rep["results"]) == 2
    for res in rep["results"]:
        assert res["is_coboundary"] and res["is_triangular"]
        assert res["closed_form"]["applicable"]
        assert res["closed_form"]["agrees"]
        assert "witnesses" not in res


def test_sample_enumerations(capsys):
    code, rep = run_json(capsys,
                         ["enumerate", "-i",
                          sample("family_vi_enumerate_f5.json")])
    assert code == 0 and rep["confirmed"] and rep["ok"]
    assert rep["solution_count"] == 29
    assert rep["label_counts"] == {"skew-symmetric": 5,
                                   "strongly-symmetric": 25}
    code, rep = run_json(capsys,
                         ["enumerate", "-i",
                          sample("family_ii_enumerate_f3.json")])
    assert code == 0 and rep["solution_count"] == 59
    assert rep["label_counts"] == {"alpha-beta-skew": 33,
                                   "strongly-symmetric": 27}


def test_sample_generate(capsys):
    code, rep = run_json(capsys,
                         ["generate", "-i", sample("heisenberg_generate.json")])
    assert code == 0 and rep["self_check"] and rep["ok"]
    assert rep["case"] == "heisenberg-1"
    assert rep["tensor"]["entries"] == [[1, 1, "1"], [1, 2, "1"],
                                        [2, 1, "1"], [2, 2, "1"]]


def test_sample_custom_algebra(capsys):
    code, rep = run_json(capsys,
                         ["check", "-i", sample("custom_algebra_check.json")])
    assert code == 0 and rep["ok"]
    assert rep["algebra"]["label"] == "custom"


SAMPLE_VERBS = {
    "sl2_strong_check.json": "check",
    "sl2_skew_bialgebra.json": "bialgebra",
    "family_vi_enumerate_f5.json": "enumerate",
    "family_ii_enumerate_f3.json": "enumerate",
    "heisenberg_generate.json": "generate",
    "custom_algebra_check.json": "check",
}


def test_every_sample_is_valid_for_its_verb(capsys):
    assert sorted(SAMPLE_VERBS) == sorted(os.listdir(SAMPLES))
    for name, verb in SAMPLE_VERBS.items():
        code, rep = run_json(capsys, [verb, "-i", sample(name)])
        assert code == 0 and rep["ok"], name


def test_reports_match_golden_snapshots(capsys):
    # each sample's report under its verb, `families`, and each enumerate
    # sample's --list-solutions report, byte for byte as recorded in
    # tests/data/golden (same file name; families.json; <stem>.list.json)
    runs = [(name, [verb, "-i", sample(name)])
            for name, verb in SAMPLE_VERBS.items()]
    runs.append(("families.json", ["families"]))
    runs += [(name.replace(".json", ".list.json"),
              [verb, "-i", sample(name), "--list-solutions"])
             for name, verb in SAMPLE_VERBS.items() if verb == "enumerate"]
    for name, argv in runs:
        assert run(argv) == 0, name
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read(), name


def test_every_witness_fixture_has_its_goldens():
    # the goldens are exactly a check and a bialgebra report per fixture
    assert WITNESS_STEMS
    want = {f"{stem}.{verb}.golden.json" for stem in WITNESS_STEMS
            for verb in ("check", "bialgebra")}
    have = {name for name in os.listdir(WITNESSES)
            if name.endswith(".golden.json")}
    assert have == want


@pytest.mark.parametrize("verb", ["check", "bialgebra"])
@pytest.mark.parametrize("stem", WITNESS_STEMS)
def test_witness_reports_match_golden_snapshots(capsys, stem, verb):
    # random, skew and strongly symmetric tensors, so residual, co-Jacobi
    # and coantisymmetry witnesses, and on ii_q (alpha = 1/4, beta = -1)
    # alpha,beta-skew ones, byte for byte as recorded in
    # tests/data/witnesses (<stem>.<verb>.golden.json); the abelian and VI
    # regimes, sl2 with a central e4 (dim 4, past the compiled forms), and
    # IV(beta=-1, delta=-2) over Q (iv_q, whose labels and triangular
    # closed form are uncovered), too.  Every tensor solves on the abelian
    # table, so there both verbs exit 0: the exit code is the one the
    # golden report's "ok" gives.
    code = run([verb, "-i", os.path.join(WITNESSES, stem + ".json")])
    golden = os.path.join(WITNESSES, f"{stem}.{verb}.golden.json")
    with open(golden, encoding="utf-8") as fh:
        want = fh.read()
    assert capsys.readouterr().out == want
    assert code == (0 if json.loads(want)["ok"] else 1)


@pytest.mark.parametrize("verb", ["check", "bialgebra"])
@pytest.mark.parametrize("stem", ["sl2_q", "ii_f101"])
def test_witness_values_are_written_without_field_scalars(
        capsys, monkeypatch, stem, verb):
    # every residual and witness value is written straight from the
    # kernel's ints (the fields' render): with unlift refused, the reports
    # are still their goldens
    def refuse(field, v, scale):
        raise AssertionError(f"unlift({v}, {scale}) over {field!r}")

    monkeypatch.setattr(RationalField, "unlift", refuse)
    monkeypatch.setattr(PrimeField, "unlift", refuse)
    code = run([verb, "-i", os.path.join(WITNESSES, stem + ".json")])
    golden = os.path.join(WITNESSES, f"{stem}.{verb}.golden.json")
    with open(golden, encoding="utf-8") as fh:
        want = fh.read()
    assert capsys.readouterr().out == want
    assert code == (0 if json.loads(want)["ok"] else 1)


# exit codes


def test_check_non_solution_exits_1(capsys, tmp_path):
    doc = {
        "field": {"kind": "rational"},
        "algebra": {"family": "VI"},
        "tensor": {"named": {"x": "1", "y": "1"}},
    }
    code, rep = run_json(capsys, ["check", "-i", write_problem(tmp_path, doc)])
    assert code == 1 and not rep["ok"]
    res = rep["results"][0]
    assert not res["is_solution"]
    assert res["residual_entries"]
    cell, value = res["residual_entries"][0]
    assert len(cell) == 3 and isinstance(value, str)


def test_check_jacobi_failure_exits_1(capsys, tmp_path):
    doc = {
        "field": {"kind": "rational"},
        "algebra": {"dim": 3, "brackets": [[1, 2, ["0", "1", "0"]],
                                           [2, 3, ["1", "0", "0"]]]},
        "tensor": {},
    }
    code, rep = run_json(capsys, ["check", "-i", write_problem(tmp_path, doc)])
    assert code == 1 and not rep["ok"]
    assert rep["jacobi_ok"] is False
    assert rep["jacobi_violations"][0]["triple"] == [1, 2, 3]
    assert rep["results"] == []


# the table of test_check_jacobi_failure_exits_1, and the verb-specific
# parts of a problem on it that each algebra command would accept
NON_LIE = {"dim": 3, "brackets": [[1, 2, ["0", "1", "0"]],
                                  [2, 3, ["1", "0", "0"]]]}
GATED = {
    "check": ({"kind": "rational"}, {"tensor": {}}),
    "bialgebra": ({"kind": "rational"}, {"tensor": {}}),
    "enumerate": ({"kind": "prime", "p": 5}, {}),
    "generate": ({"kind": "rational"},
                 {"options": {"case": "strong-z",
                              "params": {"s": "1", "u": "1", "z": "1"}}}),
}


@pytest.mark.parametrize("verb", sorted(GATED))
def test_every_algebra_command_stops_at_the_jacobi_gate(capsys, tmp_path,
                                                        verb):
    field, rest = GATED[verb]
    doc = {"field": field, "algebra": NON_LIE, **rest}
    code, rep = run_json(capsys, [verb, "-i", write_problem(tmp_path, doc)])
    assert code == 1 and rep["ok"] is False and rep["jacobi_ok"] is False
    assert rep["jacobi_violations"] == [
        {"triple": [1, 2, 3], "residual": ["1", "0", "0"]}]
    head = ["command", "field", "algebra", "jacobi_ok", "jacobi_violations"]
    tail = ["results", "ok"] if verb in ("check", "bialgebra") else ["ok"]
    assert list(rep) == head + tail
    assert rep.get("results", []) == []


@pytest.mark.parametrize("verb, rest", [
    ("enumerate", {"options": {"budget": "1000"}}),
    ("generate", {"options": {"case": ["strong-z"]}}),
    ("check", {}),
])
def test_input_checks_run_before_the_jacobi_gate(capsys, tmp_path, verb,
                                                  rest):
    doc = {"field": GATED[verb][0], "algebra": NON_LIE, **rest}
    code = run([verb, "-i", write_problem(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith("error: ")


def test_bialgebra_failure_has_witnesses(capsys, tmp_path):
    doc = {
        "field": {"kind": "rational"},
        "algebra": {"family": "IV", "params": {"beta": "0", "delta": "2"}},
        "tensor": {"named": {"s": "1", "t": "-1", "u": "1", "v": "-1"}},
    }
    code, rep = run_json(capsys,
                         ["bialgebra", "-i", write_problem(tmp_path, doc)])
    assert code == 1 and not rep["ok"]
    res = rep["results"][0]
    assert not res["is_coboundary"]
    assert res["witnesses"]
    cf = res["closed_form"]
    assert cf["applicable"] and cf["coboundary"] is False and cf["agrees"]


def test_enumerate_budget_exceeded(capsys, tmp_path):
    doc = {
        "field": {"kind": "prime", "p": 5},
        "algebra": {"family": "III"},
    }
    path = write_problem(tmp_path, doc)
    code, rep = run_json(capsys,
                         ["enumerate", "-i", path, "--budget", "1000"])
    assert code == 1 and not rep["ok"]
    assert "exceed" in rep["error"] and rep["partial"] is False


def test_enumerate_uncovered_regime_is_unconfirmed(capsys, tmp_path):
    doc = {
        "field": {"kind": "prime", "p": 3},
        "algebra": {"family": "IV", "params": {"beta": "1", "delta": "2"}},
    }
    code, rep = run_json(capsys,
                         ["enumerate", "-i", write_problem(tmp_path, doc)])
    assert code == 1 and not rep["ok"]
    assert rep["empirical_only"] and not rep["confirmed"]
    assert rep["false_positives"] == []


@pytest.mark.parametrize("key", ["budget"])
@pytest.mark.parametrize("value", ["1000", True, False, None, 0, -3, 2.5])
def test_enumerate_rejects_bad_count_options(capsys, tmp_path, key, value):
    doc = {"field": {"kind": "prime", "p": 3}, "algebra": {"family": "VI"},
           "options": {key: value}}
    code = run(["enumerate", "-i", write_problem(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert f"{key} (options.{key} or --{key}) must be an integer >= 1" \
        in captured.err


@pytest.mark.parametrize("key", ["budget"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_enumerate_rejects_bad_count_flags(capsys, tmp_path, key, value):
    doc = {"field": {"kind": "prime", "p": 3}, "algebra": {"family": "VI"}}
    code = run(["enumerate", "-i", write_problem(tmp_path, doc),
                f"--{key}", value])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "must be an integer >= 1" in captured.err
    # argparse itself rejects a flag value that is not an integer
    with pytest.raises(SystemExit) as exc:
        run(["enumerate", "-i", write_problem(tmp_path, doc),
             f"--{key}", "1.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("key", ["timing", "list_solutions"])
@pytest.mark.parametrize("value", ["no", "true", [1], 1, 0, None])
def test_enumerate_rejects_non_bool_flag_options(capsys, tmp_path, key,
                                                 value):
    doc = {"field": {"kind": "prime", "p": 5}, "algebra": {"family": "VI"},
           "options": {key: value}}
    code = run(["enumerate", "-i", write_problem(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert f"options.{key} must be true or false" in captured.err


def test_enumerate_bool_flag_options(capsys, tmp_path):
    doc = {"field": {"kind": "prime", "p": 5}, "algebra": {"family": "VI"},
           "options": {"timing": False, "list_solutions": False}}
    code, rep = run_json(capsys,
                         ["enumerate", "-i", write_problem(tmp_path, doc)])
    assert code == 0 and "solutions" not in rep
    assert rep["wall_time_ms"] is None
    doc["options"] = {"timing": True, "list_solutions": True}
    code, rep = run_json(capsys,
                         ["enumerate", "-i", write_problem(tmp_path, doc)])
    assert code == 0 and len(rep["solutions"]) == rep["solution_count"] == 29
    assert rep["wall_time_ms"] is not None


@pytest.mark.parametrize("brackets", [2, 2.5, None, True])
@pytest.mark.parametrize("verb", ["check", "bialgebra", "enumerate",
                                  "generate"])
def test_non_list_brackets_exit_2(capsys, tmp_path, verb, brackets):
    doc = {"field": {"kind": "rational"},
           "algebra": {"dim": 3, "brackets": brackets},
           "tensor": {"named": {"p": "1"}}}
    code = run([verb, "-i", write_problem(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert '"algebra.brackets" must be a list' in captured.err


def test_enumerate_rejects_ids_past_int64(capsys, tmp_path):
    # 131^9 >= 2^63: refused up front as unusable input, whatever the budget
    doc = {"field": {"kind": "prime", "p": 131},
           "algebra": {"family": "I", "params": {"dim": 3}}}
    code = run(["enumerate", "-i", write_problem(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "int64" in captured.err


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_bialgebra_zero_tensor_on_abelian_tables(capsys, tmp_path, dim):
    doc = {"field": {"kind": "rational"},
           "algebra": {"family": "I", "params": {"dim": dim}},
           "tensor": {"entries": []}}
    code, rep = run_json(capsys,
                         ["bialgebra", "-i", write_problem(tmp_path, doc)])
    assert code == 0 and rep["ok"]
    res = rep["results"][0]
    assert res["is_triangular"] and res["closed_form"]["applicable"]
    assert res["closed_form"]["covered"] is False


@pytest.mark.parametrize("doc", [
    {"algebra": {"family": "I", "params": {"dim": True}}, "tensor": {}},
    {"algebra": {"dim": True, "brackets": []}, "tensor": {}},
    {"algebra": {"dim": 2, "brackets": [[True, 2, ["1", "0"]]]},
     "tensor": {}},
    {"algebra": {"dim": 2, "brackets": [[1, 2, ["1", "0"]]]},
     "tensor": {"entries": [[True, 1, "1"]]}},
    {"algebra": {"family": "VI"}, "tensor": {"entries": [[1, True, "1"]]}},
], ids=["family-dim", "custom-dim", "bracket-index", "tensor-row",
        "tensor-column"])
def test_json_booleans_are_not_integers(capsys, tmp_path, doc):
    doc = {"field": {"kind": "rational"}, **doc}
    code = run(["check", "-i", write_problem(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "error:" in captured.err


def test_enumerate_rejects_rational_field(capsys, tmp_path):
    doc = {"field": {"kind": "rational"}, "algebra": {"family": "VI"}}
    code = run(["enumerate", "-i", write_problem(tmp_path, doc)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_generate_side_condition_exits_2(capsys, tmp_path):
    doc = {
        "field": {"kind": "rational"},
        "algebra": {"family": "sl2"},
        "options": {"case": "strong-z", "params": {"s": "1"}},
    }
    code = run(["generate", "-i", write_problem(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2 and "z != 0" in captured.err and not captured.out


def test_generate_case_override(capsys, tmp_path):
    # y is a parameter of strong-y only, so the file's own case refuses it
    doc = {
        "field": {"kind": "rational"},
        "algebra": {"family": "sl2"},
        "options": {"case": "strong-z", "params": {"y": "2"}},
    }
    path = write_problem(tmp_path, doc)
    code, rep = run_json(capsys, ["generate", "-i", path,
                                  "--case", "strong-y"])
    assert code == 0 and rep["case"] == "strong-y"
    assert rep["tensor"]["entries"] == [[2, 2, "2"]]
    assert run(["generate", "-i", path]) == 2
    assert "strong-z has no parameter y" in capsys.readouterr().err


@pytest.mark.parametrize("params", [{"s": "1", "U": "2", "z": "3"},
                                    {"s": "1", "x": "5", "z": "3"}])
def test_generate_unknown_parameter_exits_2(capsys, tmp_path, params):
    doc = {
        "field": {"kind": "rational"},
        "algebra": {"family": "sl2"},
        "options": {"case": "strong-z", "params": params},
    }
    code = run(["generate", "-i", write_problem(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith("error: strong-z has no parameter ")
    assert captured.err.count("\n") == 1
    assert "(its parameters: s, u, z)" in captured.err


def test_generate_without_case_exits_2(capsys, tmp_path):
    doc = {"field": {"kind": "rational"}, "algebra": {"family": "sl2"}}
    code = run(["generate", "-i", write_problem(tmp_path, doc)])
    assert code == 2
    assert "needs a case" in capsys.readouterr().err


def test_missing_and_malformed_inputs_exit_2(capsys, tmp_path):
    code = run(["check", "-i", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code = run(["check", "-i", str(bad)])
    assert code == 2 and "not valid JSON" in capsys.readouterr().err
    noalg = write_problem(tmp_path, {"field": {"kind": "rational"}})
    code = run(["check", "-i", noalg])
    assert code == 2 and "needs an algebra" in capsys.readouterr().err
    notensor = write_problem(
        tmp_path, {"field": {"kind": "rational"},
                   "algebra": {"family": "sl2"}}, "nt.json")
    code = run(["check", "-i", notensor])
    assert code == 2 and "needs a tensor" in capsys.readouterr().err
    for verb, doc, err in (
            ("generate", {"options": {"case": "strong-y", "params": []}},
             '"options.params" must be an object'),
            ("check", {"tensor": {"entries": {}}}, '"entries" must be a list')):
        doc = {"field": {"kind": "rational"}, "algebra": {"family": "sl2"},
               **doc}
        code = run([verb, "-i", write_problem(tmp_path, doc, "o.json")])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err == f"error: {err}\n"


# output handling


def test_output_file_and_stdout_silence(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = run(["check", "-i", sample("sl2_strong_check.json"),
                "-o", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text())
    assert rep["command"] == "check" and rep["ok"]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_exits_2(capsys, tmp_path, where, fmt):
    out = tmp_path / "missing" / "x.json" if where != "directory" else tmp_path
    code = run(["families", "-o", str(out), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_deeply_nested_problem_exits_2(capsys, tmp_path, depth):
    # valid JSON nested past json.load's recursion limit; before Python 3.12
    # that limit is sys.getrecursionlimit(), from 3.12 a fixed C limit
    # (1,500 levels in 3.12, 10,000 in 3.13), so there 1,000 levels parse
    # and are refused as a "field" that is no object
    path = tmp_path / "deep.json"
    path.write_text('{"field": ' + "[" * depth + "]" * depth + "}")
    code = run(["check", "-i", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    if depth > 10_000 or sys.version_info < (3, 12):
        assert captured.err == f"error: {path} nests too deeply\n"


@pytest.mark.parametrize("doc", [
    {"field": {"kind": "prime", "p": 5}, "algebra": {"family": "VI"},
     "tensor": {"entries": [[1, 2, "1"] + ["x"] * 100_000]}},
    {"field": {"kind": "prime", "p": 5}, "algebra": {
        "dim": 3, "brackets": [[1, 2, ["0", "0", "1"]] + ["0"] * 50_000]}},
    {"field": {"kind": "rational"}, "algebra": {"family": "VI"},
     "tensor": {"named": {"x": "1/" + "2" * 100_000 + "x" * 100_000}}},
], ids=["tensor-entry", "bracket-entry", "named-rational"])
def test_oversized_malformed_values_make_one_short_error_line(
        capsys, tmp_path, doc):
    # the message echoes the head of the offending value and its length,
    # not the whole value
    code = run(["check", "-i", write_problem(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and len(captured.err) < 200
    assert "characters)" in captured.err


SL2_Q = {"field": {"kind": "rational"},
         "algebra": {"family": "II", "params": {"alpha": "4", "beta": "-4"}}}


@pytest.mark.parametrize("verb", ["check", "bialgebra"])
@pytest.mark.parametrize("over", [0, 1])
def test_scalar_cap_of_a_tensor(capsys, tmp_path, monkeypatch, verb, over):
    # at SCALAR_CAP characters the report is written: its longest value
    # (co-Jacobi, about twice the tensor's digits) is far within the
    # 4,300 digits str() of an int allows; one character more is refused
    # with one error line naming the cap, before any table is checked
    digits = SCALAR_CAP - 3 - 498 + over
    doc = dict(SL2_Q, tensor={"entries": [
        [1, 2, "7" * 498], [2, 3, "1/3"], [3, 3, "7" * digits]]})
    path = write_problem(tmp_path, doc)
    if over:
        monkeypatch.setattr(cli, "check_jacobi", None)
    code = run([verb, "-i", path])
    captured = capsys.readouterr()
    if over:
        assert code == 2 and not captured.out
        assert captured.err.startswith("error: tensor entry (3, 3): ")
        assert captured.err.count("\n") == 1
        assert f"cap of {SCALAR_CAP} characters" in captured.err
        return
    rep = json.loads(captured.out)
    assert code == 1 and not captured.err
    values = [text for _, text in rep["results"][0].get(
        "residual_entries", [])] + [
        text for w in rep["results"][0].get("witnesses", {}).get(
            "cojacobi", []) for _, text in w["entries"]]
    assert values and max(map(len, values)) < 4300


@pytest.mark.parametrize("doc, verb, where", [
    ({"field": {"kind": "rational"}, "algebra": {
        "family": "II", "params": {"alpha": "5" * 600, "beta": "3" * 401}},
      "tensor": {"entries": []}}, "check", "algebra param beta"),
    ({"field": {"kind": "prime", "p": 7}, "algebra": {"dim": 2, "brackets": [
        [1, 2, ["1" * 999, "12"]]]}}, "enumerate", "bracket [1, 2]"),
    ({"field": {"kind": "rational"}, "algebra": {"family": "sl2"},
      "tensor": {"named": {"x": "1/" + "3" * 999}}}, "check",
     "coefficient x"),
    (dict(SL2_Q, options={"case": "strong-z", "params": {
        "s": "2" * 500, "u": "1", "z": "1/" + "3" * 498}}), "generate",
     "parameter z"),
])
def test_scalar_cap_of_each_group(capsys, tmp_path, doc, verb, where):
    # the algebra's brackets or family parameters, each tensor, and the
    # generator parameters each have SCALAR_CAP characters of nonzero
    # scalars
    code = run([verb, "-i", write_problem(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith(f"error: {where}: ")
    assert f"cap of {SCALAR_CAP} characters" in captured.err


def test_scalar_cap_counts_nonzero_scalars_of_each_tensor(capsys, tmp_path):
    # zeros take no room, and each tensor has a room of its own
    zeros = [[i, j, "0" * 20] for i in range(1, 4) for j in range(1, 4)]
    doc = dict(SL2_Q, tensors=[
        {"entries": zeros[:-1] + [[3, 3, "7" * (SCALAR_CAP - 10)]]},
        {"entries": [[1, 1, "9" * SCALAR_CAP]]}])
    code, rep = run_json(capsys, ["check", "-i",
                                  write_problem(tmp_path, doc)])
    assert code == 0 and len(rep["results"]) == 2


def test_reports_are_byte_identical_across_runs(capsys, tmp_path):
    texts = []
    for _ in range(2):
        assert run(["enumerate", "-i",
                    sample("family_vi_enumerate_f5.json")]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    for _ in range(2):
        assert run(["check", "-i", sample("sl2_strong_check.json")]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[2] == texts[3]


def test_text_format(capsys):
    code = run(["check", "-i", sample("sl2_strong_check.json"),
                "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("command: check")
    assert "algebra: sl2 (dim 3)" in out
    assert "ok: True" in out
    code = run(["enumerate", "-i", sample("family_vi_enumerate_f5.json"),
                "--format", "text"])
    out = capsys.readouterr().out
    assert "solutions:        29" in out and "confirmed: True" in out
    code = run(["bialgebra", "-i", sample("sl2_skew_bialgebra.json"),
                "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("command: bialgebra")
    for key in ("coantisymmetry_ok", "cojacobi_ok", "compatibility_ok",
                "cybe_solution", "is_coboundary", "is_triangular"):
        assert out.count(f"\n  {key}: True\n") == 2, key
    assert out.count("\n  closed form: coboundary=True triangular=True "
                     "agrees=True\n") == 2
    code = run(["generate", "-i", sample("heisenberg_generate.json"),
                "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0 and "\njacobi:  ok\ncase: heisenberg-1 " in out
    assert "self check: True" in out
    code = run(["families", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0 and "generator cases:" in out


QQ_SPEC, F3_SPEC = {"kind": "rational"}, {"kind": "prime", "p": 3}


@pytest.mark.parametrize("verb, doc, extra, want, code", [
    ("check", {"field": QQ_SPEC, "algebra": {"family": "sl2"},
               "tensor": {"entries": [[1, 2, "1"]]}}, [],
     ["  solution: False", "  nonzero residual at: [(1, 3, 2)]",
      "  labels: (none)"], 1),
    ("check", {"field": QQ_SPEC, "algebra": {
        "family": "IV", "params": {"beta": "1", "delta": "2"}},
        "tensor": {"entries": [[1, 2, "1"]]}}, [],
     ["  labels: uncovered regime (solvable table with beta=1, delta=2 is "
      "outside the classified regimes (need beta=0, or beta!=0 with "
      "delta=1))"], 0),
    ("bialgebra", {"field": QQ_SPEC, "algebra": {"family": "I"},
                   "tensors": [{"entries": [[1, 1, "1"]]},
                               {"entries": [[1, 2, "1"], [2, 1, "-1"]]}]}, [],
     ["  closed form: n/a (tensor not skew)",
      "  closed form: uncovered (no closed form for table 'abelian')"], 0),
    ("enumerate", {"field": F3_SPEC, "algebra": {"family": "VI"}},
     ["--budget", "1"],
     ["error: a search level of 3 rows exceeds the budget of 1"], 1),
    ("check", {"field": QQ_SPEC, "algebra": {"dim": 3, "brackets": [
        [1, 2, ["1", "0", "0"]], [1, 3, ["0", "1", "0"]],
        [2, 3, ["1", "0", "0"]]]}, "tensor": {"entries": []}}, [],
     ["jacobi:  VIOLATED", "  triple (1, 2, 3): residual ['0', '1', '0']"],
     1),
], ids=["residual", "uncovered-labels", "closed-form", "budget", "jacobi"])
def test_text_format_failure_lines(capsys, tmp_path, verb, doc, extra, want,
                                   code):
    # the lines the text summary gives where a verdict fails or a regime is
    # not covered, each as a line of its own
    got = run([verb, "-i", write_problem(tmp_path, doc), "--format", "text",
               *extra])
    out = capsys.readouterr()
    assert got == code and not out.err
    lines = out.out.splitlines()
    for line in want:
        assert line in lines, line
    assert lines[-1] == f"ok: {code == 0}"


def test_families_report(capsys):
    code, rep = run_json(capsys, ["families"])
    assert code == 0 and rep["ok"]
    names = [f["name"] for f in rep["families"]]
    assert names == ["I", "II", "III", "IV", "V", "VI", "sl2"]
    cases = [c["name"] for c in rep["generator_cases"]]
    assert len(cases) == 11 and "alpha-beta-skew" in cases


def test_list_solutions_flag(capsys, tmp_path):
    doc = {"field": {"kind": "prime", "p": 3}, "algebra": {"family": "VI"}}
    path = write_problem(tmp_path, doc)
    code, rep = run_json(capsys, ["enumerate", "-i", path,
                                  "--list-solutions"])
    assert code == 0 and len(rep["solutions"]) == 11
    # the zero tensor leads the list (id order)
    assert rep["solutions"][0] == {"entries": []}


def test_list_solutions_runs_one_scan(capsys, tmp_path, monkeypatch):
    L = family_iii(PrimeField(3))
    want = [tensor_obj(r) for r in enumerate_solutions(L)]
    calls = []
    scan = exhaustive.scan_solution_ids

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(exhaustive, "scan_solution_ids", counted)
    doc = {"field": {"kind": "prime", "p": 3}, "algebra": {"family": "III"}}
    code, rep = run_json(capsys, ["enumerate", "-i",
                                  write_problem(tmp_path, doc),
                                  "--list-solutions"])
    assert code == 0 and len(calls) == 1
    assert rep["solution_count"] == len(want) == 315
    assert rep["solutions"] == want


F3 = PrimeField(3)
LISTED_TABLES = (
    [abelian(n, F3) for n in (1, 2, 3)] + [family_vi(F3)]
    + [family_ii(a, b, F3, strict=False) for a in range(3) for b in range(3)]
    + [solvable_table(b, d, F3) for b in range(3) for d in range(3)]
    + [family_vi(PrimeField(5)), family_vi(PrimeField(7))])


@pytest.mark.parametrize("L", LISTED_TABLES, ids=lambda L: L.label)
def test_listed_solutions_match_decoded_tensors(L):
    # --list-solutions writes each id from its digit row; the reference
    # decodes each id to a Tensor2 of ModP and echoes it.  The listing's
    # entries are tuples and the reference's lists, which json writes
    # alike, so the two are compared as JSON values.
    ids, _ = scan_solution_ids(L)
    want = [tensor_obj(r) for r in decoded_tensors(ids, L.n, L.field)]
    p = L.field.p
    got = list(tensor_objs(decode_ids(ids, L.n, p), L.n, p))
    assert json.loads(json.dumps(got)) == want
    # equal (cell, digit) entries are one tuple, whose text dumps_report
    # writes once; every table has a solution with the top digit p - 1
    entries = [e for sol in got for e in sol["entries"]]
    assert all(type(e) is tuple for e in entries)
    assert len(set(map(id, entries))) == len(set(entries))
    assert str(p - 1) in {e[2] for e in entries}


# the peak RSS of this process in KiB: VmHWM, as ru_maxrss counts the RSS
# of the process that started it
LISTING_MEMORY = """
import sys
from cybe.cli import run

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))

base = peak()
code = run(sys.argv[1:])
sys.stderr.write(f"{code} {peak() - base}")
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc")
def test_listing_memory_is_flat(tmp_path):
    # 28,561 solutions, 7.6 MB of JSON: the listing is written one solution
    # at a time, so the peak grows by about the text and not by a report
    # object per solution (75 MB when each was held until the end)
    doc = {"field": {"kind": "prime", "p": 13},
           "algebra": {"family": "I", "params": {"dim": 2}}}
    proc = subprocess.run(
        [sys.executable, "-c", LISTING_MEMORY, "enumerate", "-i",
         write_problem(tmp_path, doc), "--list-solutions"],
        capture_output=True, text=True, env=checkout_env())
    code, grown_kib = map(int, proc.stderr.split())
    assert code == 0
    assert len(json.loads(proc.stdout)["solutions"]) == 28561
    assert grown_kib <= 40 * 1024


def test_list_solutions_cap(capsys, tmp_path, monkeypatch):
    def no_decode(*args):
        raise AssertionError("decoded ids over the cap")

    doc = {"field": {"kind": "prime", "p": 3}, "algebra": {"family": "VI"}}
    path = write_problem(tmp_path, doc)
    monkeypatch.setattr(cli, "LIST_SOLUTIONS_CAP", 11)
    code, rep = run_json(capsys, ["enumerate", "-i", path,
                                  "--list-solutions"])
    assert code == 0 and len(rep["solutions"]) == 11
    monkeypatch.setattr(cli, "LIST_SOLUTIONS_CAP", 10)
    monkeypatch.setattr(cli, "decode_ids", no_decode)
    code, rep = run_json(capsys, ["enumerate", "-i", path,
                                  "--list-solutions"])
    assert code == 1 and rep["ok"] is False and "solutions" not in rep
    assert "cap of 10 listed" in rep["error"]
    assert rep["solution_count"] == 11 and rep["confirmed"] is True
    # without the flag the same table is not affected by the cap
    code, rep = run_json(capsys, ["enumerate", "-i", path])
    assert code == 0 and rep["ok"] and "error" not in rep


def test_enumerate_options_from_problem_file(capsys, tmp_path):
    doc = {
        "field": {"kind": "prime", "p": 3},
        "algebra": {"family": "VI"},
        "options": {"timing": True, "list_solutions": True},
    }
    code, rep = run_json(capsys,
                         ["enumerate", "-i", write_problem(tmp_path, doc)])
    assert code == 0
    assert rep["backend"] == "frontier" and "workers" not in rep
    assert rep["wall_time_ms"] is not None
    assert len(rep["solutions"]) == 11


# the entry points


def checkout_env():
    """os.environ with this checkout's src first on PYTHONPATH, so that
    subprocesses import it wherever pytest was started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_entry_point(target, args):
    """Run `module:attr` in a fresh interpreter the way the wrapper that pip
    generates for a console script does."""
    module, _, attr = target.partition(":")
    code = (f"import sys\nfrom {module} import {attr}\n"
            f"sys.argv[0] = 'cybe'\nsys.exit({attr}())\n")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=checkout_env())


def test_console_script_and_module_invocation():
    # (a) the console-script wiring declared in pyproject.toml
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"cybe": "cybe.cli:main"}
    proc = run_entry_point(scripts["cybe"], ["families"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "families"
    proc = run_entry_point(scripts["cybe"], [])
    assert proc.returncode == 2
    assert "usage: cybe" in proc.stderr
    # (b) module invocation
    proc = subprocess.run(
        [sys.executable, "-m", "cybe.cli", "check", "-i",
         sample("sl2_strong_check.json")],
        capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
    proc = subprocess.run([sys.executable, "-m", "cybe", "families"],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "families"


@pytest.mark.skipif(shutil.which("cybe") is None,
                    reason="the cybe console script is not installed")
def test_installed_console_script():
    proc = subprocess.run(["cybe", "families"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "families"


def test_unknown_command_usage_error(capsys):
    # the parser is built once per process; each call still errs alike
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "frobnicate" in err


# the input contract: for any JSON input every verb exits 0, 1 or 2


@pytest.mark.parametrize("case", [["strong-y"], {"strong-y": 1}])
def test_generate_non_string_case_exits_2(capsys, tmp_path, case):
    doc = {"field": {"kind": "rational"}, "algebra": {"family": "sl2"},
           "options": {"case": case}}
    code = run(["generate", "-i", write_problem(tmp_path, doc)])
    assert code == 2
    assert "options.case" in capsys.readouterr().err


@pytest.mark.parametrize("algebra", [
    {"family": "I", "params": {"dim": 10 ** 30}},
    {"family": "I", "params": {"dim": -10 ** 30}},
    {"family": "I", "params": {"dim": 0}},
    {"family": "I", "params": {"dim": -1}},
    {"dim": 10 ** 30, "brackets": []},
])
def test_out_of_range_dim_exits_2(capsys, tmp_path, algebra):
    doc = {"field": {"kind": "rational"}, "algebra": algebra, "tensor": {}}
    code = run(["check", "-i", write_problem(tmp_path, doc)])
    assert code == 2
    assert 'dim" must be' in capsys.readouterr().err


@pytest.mark.parametrize("dim, want", [(16, 0), (17, 2), (80, 2)])
@pytest.mark.parametrize("family", [True, False])
def test_dim_cap_is_checked_before_any_table(capsys, tmp_path, dim, want,
                                             family):
    algebra = ({"family": "I", "params": {"dim": dim}} if family
               else {"dim": dim, "brackets": []})
    doc = {"field": {"kind": "rational"}, "algebra": algebra,
           "tensor": {"entries": [[1, 1, "1"]]}}
    t0 = time.perf_counter()
    code = run(["check", "-i", write_problem(tmp_path, doc)])
    assert code == want
    if want == 2:
        assert 'dim" must be' in capsys.readouterr().err
        # check on the abelian dim-80 table took 144 s before the cap
        assert time.perf_counter() - t0 < 1.0


def _sample_docs():
    docs = {}
    for name in sorted(os.listdir(SAMPLES)):
        with open(sample(name), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    return docs


SAMPLE_DOCS = _sample_docs()
FUZZ_VERBS = [["check"], ["bialgebra"], ["enumerate", "--budget", "20000"],
              ["generate"]]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=4)),
    max_leaves=10)
# values near the edges of what the schema accepts, drawn as often as the rest
edge_values = st.sampled_from(
    ["0", "1", "-1", "1/2", "1/0", "2.5", "x", "strong-y", 0, 1, -1, 3, 17,
     10 ** 30, -10 ** 30, 2 ** 64, 2.5, True, None, [], {}, [1], ["1"]])


def _paths(node, path=()):
    """Every path below node to a dict value or list item."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_samples(draw):
    """A problems/ sample with one value replaced or one key deleted."""
    doc = copy.deepcopy(SAMPLE_DOCS[draw(st.sampled_from(list(SAMPLE_DOCS)))])
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = reduce(getitem, path[:-1], doc)
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(edge_values | json_values)
    return doc


@settings(derandomize=True, deadline=None, database=None, max_examples=500,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.integers(0, 3).flatmap(
           lambda i: mutated_samples() if i else json_values),
       verb=st.sampled_from(FUZZ_VERBS))
def test_cli_exits_0_1_or_2_on_any_json(tmp_path, doc, verb):
    path = write_problem(tmp_path, doc)
    out = str(tmp_path / "report.json")
    assert run([verb[0], "-i", path, "-o", out, *verb[1:]]) in (0, 1, 2)
