import json
import math

import numpy as np
import pytest

from credalmeet.cli import main

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


def test_missing_model_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/model.yaml"]) == 3


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 3
    assert main(["hit"]) == 3


def test_unknown_label_is_usage_error(model_file, capsys):
    assert main(["hit", model_file, "--target", "zz", "--sense", "upper"]) == 3
    assert "zz" in capsys.readouterr().err


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


def test_hit_non_convergence_exit_code(model_file):
    code = main([
        "hit", model_file, "--target", "b", "--sense", "upper",
        "--method", "value", "--max-iter", "2",
    ])
    assert code == 2


def test_classify_five_state_pairs(capsys):
    assert main(["classify", "builtin:five-state", "--agents", "2", "--sense", "upper"]) == 0
    out = capsys.readouterr().out
    assert "absorbing: (1,2)" in out
    assert "(2,3)" in out.split("unsafe:")[1].split("\n")[0]


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
