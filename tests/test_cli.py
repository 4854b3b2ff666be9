import json
import math
import pathlib
import re

import numpy as np
import pytest

from credalmeet import cli, solver
from credalmeet.cli import main
from credalmeet.selfcheck import CHECKS

MODEL = """
states: [a, b]
rows:
  a:
    vertices:
      - [0.5, 0.5]
      - [0.9, 0.1]
  b:
    vertices:
      - [0, 1]
"""

PRECISE = """
states: [a, b]
rows:
  a:
    vertices:
      - [0.5, 0.5]
  b:
    vertices:
      - [0.5, 0.5]
"""


@pytest.fixture
def model_file(tmp_path):
    p = tmp_path / "model.yaml"
    p.write_text(MODEL)
    return str(p)


@pytest.fixture
def precise_file(tmp_path):
    p = tmp_path / "precise.yaml"
    p.write_text(PRECISE)
    return str(p)


def test_validate_ok(model_file, capsys):
    assert main(["validate", model_file]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_failure_lists_violations(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MODEL.replace("[0.5, 0.5]", "[0.5, 0.6]"))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "'a'" in out and "sum" in out


def test_validate_rejects_labels_with_commas(tmp_path, capsys):
    bad = tmp_path / "commas.yaml"
    bad.write_text(MODEL.replace("states: [a, b]", 'states: ["a,b", b]').replace("  a:", '  "a,b":'))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "'a,b'" in out


@pytest.mark.parametrize("entry", ["abc", "[0.5]", "true"])
def test_non_numeric_entry_is_an_invalid_model(tmp_path, capsys, entry):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MODEL.replace("[0.9, 0.1]", f"[0.9, {entry}]"))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "row 'a' vertex 1: entry 1 is not a number" in out
    assert main(["hit", str(bad), "--target", "b", "--sense", "upper"]) == 1
    assert main(["meet", str(bad), "--sense", "upper"]) == 1
    assert "row 'a' vertex 1" in capsys.readouterr().err


def test_missing_model_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/model.yaml"]) == 3


@pytest.mark.parametrize("argv", [
    pytest.param(["hit", "builtin:five-state", "--target", "5", "--sense", "upper",
                  "--json", "{tmp}/no/such/dir/x.json"], id="json-in-a-missing-directory"),
    pytest.param(["validate", "{tmp}"], id="directory-as-model"),
])
def test_a_file_that_cannot_be_opened_is_a_usage_error(argv, tmp_path, capsys):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 3
    assert main(["hit"]) == 3


def test_unknown_label_is_usage_error(model_file, capsys):
    assert main(["hit", model_file, "--target", "zz", "--sense", "upper"]) == 3
    assert capsys.readouterr().err == "error: unknown state label 'zz'\n"


def test_validate_lists_one_violation_per_format_problem(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MODEL.replace("[0.9, 0.1]", "[0.9, x]").replace("[0, 1]", "[y, 1]"))
    out = tmp_path / "v.json"
    assert main(["validate", str(bad), "--json", str(out)]) == 1
    violations = [
        "row 'a' vertex 1: entry 1 is not a number ('x')",
        "row 'b' vertex 0: entry 0 is not a number ('y')",
    ]
    assert json.loads(out.read_text())["violations"] == violations
    assert capsys.readouterr().out == f"{bad}: INVALID\n" + "".join(f"  - {v}\n" for v in violations)


def test_non_finite_and_huge_entries_are_invalid_models(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    for entry, message in ((".inf", "entry 1 exceeds 1 (inf)"), ("1" + "0" * 400, "entry 1 is too large")):
        bad.write_text(MODEL.replace("[0.9, 0.1]", f"[0.9, {entry}]"))
        assert main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and f"row 'a' vertex 1: {message}" in out
        assert main(["hit", str(bad), "--target", "b", "--sense", "upper"]) == 1
        assert main(["meet", str(bad), "--sense", "upper"]) == 1
        assert f"row 'a' vertex 1: {message}" in capsys.readouterr().err


def test_hit_golden_values(model_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main([
        "hit", model_file, "--target", "b", "--sense", "upper", "--json", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["values"]["a"] == pytest.approx(10.0, abs=1e-9)
    assert doc["values"]["b"] == 0.0
    assert doc["selection"]["a"] == 1
    assert doc["diagnostics"]["converged"] is True
    text = capsys.readouterr().out
    assert "10" in text


def test_hit_reports_infinity_as_string(tmp_path):
    p = tmp_path / "iso.yaml"
    p.write_text(
        "states: [a, b]\nrows:\n  a:\n    vertices: [[1, 0]]\n  b:\n    vertices: [[0, 1]]\n"
    )
    out = tmp_path / "r.json"
    assert main(["hit", str(p), "--target", "b", "--sense", "upper", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["values"]["a"] == "inf"
    assert doc["classification"]["absorbing"] == ["a"]


def test_repeated_target_labels_name_one_target(precise_file, tmp_path, capsys):
    out = tmp_path / "hit.json"
    args = ["builtin:five-state", "--target", "1,1", "--sense", "upper"]
    assert main(["hit", *args, "--json", str(out)]) == 0
    assert "upper expected hitting times of {1}\n" in capsys.readouterr().out
    assert json.loads(out.read_text())["parameters"]["target"] == ["1"]
    assert main(["classify", *args, "--json", str(out)]) == 0
    assert json.loads(out.read_text())["parameters"]["target"] == ["1"]
    assert main([
        "simulate", precise_file, "--target", "b,b", "--start", "a",
        "--trials", "10", "--json", str(out),
    ]) == 0
    assert json.loads(out.read_text())["parameters"]["target"] == ["b"]


def test_hit_non_convergence_exit_code(model_file):
    code = main([
        "hit", model_file, "--target", "b", "--sense", "upper",
        "--method", "value", "--max-iter", "2",
    ])
    assert code == 2


def test_hit_json_reports_the_error_bound(model_file, tmp_path):
    out = tmp_path / "r.json"
    hit = ["hit", model_file, "--target", "b", "--sense", "upper", "--json", str(out)]
    for method in ("value", "policy"):
        assert main([*hit, "--method", method]) == 0
        assert 0.0 < json.loads(out.read_text())["diagnostics"]["error_bound"] <= 1e-10
    # one application of F, from zero, bounds the values from below only
    assert main([*hit, "--method", "value", "--max-iter", "1"]) == 2
    assert json.loads(out.read_text())["diagnostics"]["error_bound"] == "inf"


@pytest.mark.parametrize("method", ["value", "policy"])
def test_hit_with_nothing_to_solve_converges_at_any_budget(tmp_path, method):
    # a never leaves itself, so it is infinite and no state is left to solve
    path = tmp_path / "stuck.yaml"
    path.write_text(PRECISE.replace("[0.5, 0.5]", "[1, 0]", 1).replace("[0.5, 0.5]", "[0, 1]"))
    out = tmp_path / "out.json"
    assert main(["hit", str(path), "--target", "b", "--sense", "upper", "--method", method,
                 "--max-iter", "0", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["values"] == {"a": "inf", "b": 0.0}
    assert payload["diagnostics"]["iterations"] == 0 and payload["diagnostics"]["converged"]


@pytest.mark.parametrize("argv, name", [
    pytest.param(["hit", "builtin:five-state", "--target", "5", "--sense", "upper",
                  "--method", "value", "--tol", "nan"], "tol", id="hit-value-nan-tol"),
    pytest.param(["hit", "builtin:five-state", "--target", "5", "--sense", "lower",
                  "--tol", "-1"], "tol", id="hit-policy-negative-tol"),
    pytest.param(["meet", "builtin:five-state", "--max-iter", "-3"], "max_iter",
                 id="meet-negative-max_iter"),
])
def test_a_nan_or_negative_budget_is_a_usage_error(argv, name, capsys):
    assert main(argv) == 3
    assert f"error: {name} must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["hit", "--target", "b", "--sense", "upper", "--method", "policy"], id="hit-policy"),
    pytest.param(["hit", "--target", "b", "--sense", "upper", "--method", "value"], id="hit-value"),
    pytest.param(["meet"], id="meet"),
])
@pytest.mark.parametrize("tol", ["inf", "1e400"])
def test_an_infinite_tol_is_written_by_the_inf_rule(argv, tol, model_file, tmp_path, capsys):
    # argparse reads 1e400 as inf too; the library accepts an infinite tol,
    # and the result file writes it as the schema's "inf"
    out = tmp_path / "r.json"
    assert main([argv[0], model_file, *argv[1:], "--tol", tol, "--json", str(out)]) == 0
    assert json.loads(out.read_text())["parameters"]["tol"] == "inf"


def test_classify_five_state_pairs(capsys):
    # the output is the README's, line for line: the five lines under the command
    command = "$ credalmeet classify builtin:five-state --agents 2 --sense upper"
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
    shown = readme[readme.index(command) + 1 :][:5]
    assert main(command.split()[2:]) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_classify_target_and_agents_conflict(capsys):
    code = main([
        "classify", "builtin:five-state", "--agents", "2", "--target", "4",
        "--sense", "upper",
    ])
    assert code == 3


def test_meet_quotient_matches_precise_meeting(precise_file, tmp_path):
    out = tmp_path / "meet.json"
    code = main([
        "meet", precise_file, "--agents", "2", "--belief", "vacuous",
        "--sense", "upper", "--mode", "quotient", "--json", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    # both walkers mix uniformly, so each step meets with probability 1/2
    assert doc["values"]["(a,b)"] == pytest.approx(2.0, abs=1e-9)
    assert doc["values"]["(a,a)"] == 0.0


def test_meet_mixture_epsilon_zero_equals_degenerate(model_file, tmp_path):
    deg_out = tmp_path / "deg.json"
    mix_out = tmp_path / "mix.json"
    assert main([
        "meet", model_file, "--belief", "degenerate", "--json", str(deg_out),
    ]) == 0
    assert main([
        "meet", model_file, "--belief", "mixture", "--epsilon", "0",
        "--sense", "upper", "--json", str(mix_out),
    ]) == 0
    deg = json.loads(deg_out.read_text())["values"]
    mix = json.loads(mix_out.read_text())["values"]
    assert deg == mix


def test_meet_selection_file(model_file, tmp_path):
    sel = tmp_path / "sel.yaml"
    sel.write_text('"a,b": [1, 0]\n')
    out = tmp_path / "r.json"
    code = main([
        "meet", model_file, "--belief", "degenerate", "--mode", "quotient",
        "--selection", str(sel), "--json", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["selections"]["(a,b)"] == [1, 0]


def test_meet_bad_epsilon_is_usage_error(model_file):
    assert main(["meet", model_file, "--belief", "mixture", "--epsilon", "2"]) == 3


def test_meet_refuses_an_unsorted_quotient_key(model_file, tmp_path, capsys):
    sel = tmp_path / "sel.yaml"
    sel.write_text('"b,a": [0, 1]\n')
    assert main(["meet", model_file, "--belief", "degenerate", "--selection", str(sel)]) == 3
    assert "selection key (1, 0) of state (a,b) is not sorted" in capsys.readouterr().err
    assert main(["meet", model_file, "--belief", "degenerate", "--mode", "full",
                 "--selection", str(sel)]) == 0


@pytest.mark.parametrize("argv, option", [
    (["--epsilon", "0.5"], "--epsilon"),
    (["--belief", "vacuous", "--epsilon", "0.5"], "--epsilon"),
    (["--belief", "degenerate", "--epsilon", "0.5"], "--epsilon"),
    (["--belief", "vacuous", "--selection", "SEL"], "--selection"),
    (["--belief", "degenerate", "--sense", "lower"], "--sense"),
    (["--belief", "degenerate", "--sense", "upper"], "--sense"),
])
def test_meet_refuses_an_option_its_belief_does_not_read(model_file, tmp_path, capsys, argv, option):
    sel = tmp_path / "sel.yaml"
    sel.write_text('"a,b": [1, 0]\n')
    argv = [str(sel) if a == "SEL" else a for a in argv]
    assert main(["meet", model_file, *argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} applies only to --belief")
    # a later --belief and --epsilon win: mixture reads both options
    assert main(["meet", model_file, *argv, "--belief", "mixture", "--epsilon", "0.5"]) == 0


def test_the_parser_is_built_once(monkeypatch, capsys):
    assert main(["validate", "builtin:five-state"]) == 0
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert main(["validate", "builtin:five-state"]) == 0
    assert main(["validate", "nonexistent.yaml", "--bogus"]) == 3
    assert built == []


def test_simulate_deterministic_and_reproducible(precise_file, tmp_path, capsys):
    args = [
        "simulate", precise_file, "--target", "b", "--start", "a",
        "--trials", "200", "--seed", "9",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_simulate_rejects_credal_models(model_file, capsys):
    code = main([
        "simulate", model_file, "--target", "b", "--start", "a", "--trials", "10",
    ])
    assert code == 3
    assert "'a'" in capsys.readouterr().err


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_every_selfcheck_flag_is_a_python_bool(name, check):
    ok, _ = check()
    assert type(ok) is bool and ok


@pytest.mark.parametrize("argv", [
    ["validate", "builtin:five-state"],
    ["classify", "builtin:five-state", "--target", "5", "--sense", "upper"],
    ["hit", "builtin:five-state", "--target", "5", "--sense", "lower"],
    ["meet", "builtin:five-state"],
    ["simulate", "PRECISE", "--target", "b", "--start", "a", "--trials", "20"],
    ["selfcheck"],
], ids=lambda argv: argv[0])
def test_every_subcommand_writes_its_json_file(argv, precise_file, tmp_path, capsys):
    out = tmp_path / "result.json"
    argv = [precise_file if a == "PRECISE" else a for a in argv]
    assert main([*argv, "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert list(payload)[:2] == ["schema_version", "command"]
    assert payload["schema_version"] == 1 and payload["command"] == argv[0]
    if argv[0] == "selfcheck":
        assert payload == {"schema_version": 1, "command": "selfcheck", "passed": True}


@pytest.mark.parametrize("entry, shown",
                         [("1.7", "1.7"), ("true", "True"), ("x", "'x'"), ("1.0", "1.0")])
def test_meet_rejects_a_selection_entry_that_is_not_an_integer(model_file, tmp_path, capsys,
                                                               entry, shown):
    sel = tmp_path / "sel.yaml"
    sel.write_text(f'"a,b": [{entry}, 0]\n')
    assert main(["meet", model_file, "--belief", "degenerate", "--selection", str(sel)]) == 3
    err = capsys.readouterr().err
    assert f"selection for 'a,b': entry 0 is not an integer ({shown})" in err


@pytest.mark.parametrize("argv, selection, message", [
    (["hit", "MODEL", "--target", ",", "--sense", "upper"], None, "the target list is empty"),
    (["classify", "MODEL", "--sense", "upper"], None, "--target is required unless --agents is given"),
    (["meet", "MODEL", "--belief", "degenerate", "--selection", "SEL"], None,
     "cannot read selection file SEL: [Errno 2] No such file or directory: 'SEL'"),
    (["meet", "MODEL", "--belief", "degenerate", "--selection", "SEL"], "- [1, 0]\n",
     "the selection file must map joint states to vertex indices"),
    (["meet", "MODEL", "--belief", "degenerate", "--selection", "SEL"], '"a,b": 1\n',
     "selection for 'a,b' must be a list of vertex indices"),
], ids=["empty-target-list", "classify-without-target", "missing-selection-file", "selection-not-a-mapping",
        "selection-entry-not-a-list"])
def test_a_refused_argument_is_a_usage_error_naming_it(argv, selection, message, model_file, tmp_path, capsys):
    sel = tmp_path / "sel.yaml"
    if selection is not None:
        sel.write_text(selection)
    spell = lambda text: text.replace("MODEL", model_file).replace("SEL", str(sel))
    assert main([spell(a) for a in argv]) == 3
    assert capsys.readouterr().err == f"error: {spell(message)}\n"


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

GOLDEN_RUNS = {
    "meet-agents2-upper": ["meet", "builtin:five-state", "--agents", "2"],
    "meet-agents2-lower": ["meet", "builtin:five-state", "--agents", "2", "--sense", "lower"],
    "meet-agents3-lower": ["meet", "builtin:five-state", "--agents", "3", "--sense", "lower"],
    "hit-upper": ["hit", "builtin:five-state", "--target", "5", "--sense", "upper"],
    "hit-lower": ["hit", "builtin:five-state", "--target", "5", "--sense", "lower"],
}


RESIDUAL = re.compile(r"residual [^,]*,")


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_tables_print_the_golden_bytes(name, capsys, tmp_path):
    # the 2-agent matrix, the m-agent list and the hitting table, byte for
    # byte as they were printed one row per call; the residual's last bits
    # come from the BLAS kernel, so it is held to the backward-error bound
    out = tmp_path / "result.json"
    assert main([*GOLDEN_RUNS[name], "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert RESIDUAL.sub("residual R,", printed) == RESIDUAL.sub(
        "residual R,", (GOLDEN / f"{name}.txt").read_text())
    payload = json.loads(out.read_text())
    residual = payload["diagnostics"]["residual"]
    assert f"residual {residual:.3e}," in printed
    finite = payload["classification"]["finite"]
    hmax = max((payload["values"][lab] for lab in finite), default=0.0)
    assert 0.0 <= residual <= solver._residual_bound(len(finite), hmax)


@pytest.mark.parametrize("argv", [
    ["meet", "builtin:five-state", "--agents", "3"],
    ["meet", "builtin:five-state", "--agents", "2", "--mode", "full"],
    ["hit", "builtin:five-state", "--target", "5", "--sense", "upper"],
], ids=["meet-agents3", "meet-agents2-full", "hit"])
def test_json_files_hold_the_bytes_of_json_dumps(argv, tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main([*argv, "--json", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n"
