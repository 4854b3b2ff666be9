import json
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from credalmeet import (
    CredalMatrix,
    ModelFormatError,
    ModelValidationError,
    dump_model,
    interval_vertices,
    load_model,
    model_digest,
    parse_model,
)
from credalmeet.modelio import decode_value, encode_value, write_result

VERTEX_DOC = """
name: demo
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


def test_parse_vertex_form():
    m = parse_model(VERTEX_DOC)
    assert m.space.labels == ("a", "b")
    assert m.vertex_count(0) == 2 and m.vertex_count(1) == 1
    assert np.allclose(m.vertices(0)[1], [0.9, 0.1])


def test_parse_interval_form_two_states():
    doc = """
states: [a, b]
rows:
  a:
    lower: [0, 0]
    upper: [1, 1]
  b:
    vertices:
      - [0, 1]
"""
    m = parse_model(doc)
    assert np.array_equal(m.vertices(0), [[0.0, 1.0], [1.0, 0.0]])


def test_interval_vertices_against_linear_programs():
    rng = np.random.default_rng(97)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        mid = rng.dirichlet(np.ones(n))
        spread = rng.uniform(0, 0.5, n)
        lo = np.clip(mid - spread, 0, 1)
        hi = np.clip(mid + spread, 0, 1)
        verts = interval_vertices(lo, hi)
        assert len(verts) > 0
        for v in verts:
            assert v.sum() == pytest.approx(1.0, abs=1e-9)
            assert (v >= lo - 1e-9).all() and (v <= hi + 1e-9).all()
        for _ in range(10):
            c = rng.normal(size=n)
            lp = linprog(
                -c, A_eq=np.ones((1, n)), b_eq=[1.0], bounds=list(zip(lo, hi)),
                method="highs",
            )
            assert lp.success
            best = max(float(c @ v) for v in verts)
            assert best == pytest.approx(-lp.fun, abs=1e-8)


def test_interval_infeasible_rows_are_reported():
    doc = """
states: [a, b]
rows:
  a:
    lower: [0.7, 0.7]
    upper: [1, 1]
  b:
    vertices: [[0, 1]]
"""
    with pytest.raises(ModelFormatError, match="lower bounds sum"):
        parse_model(doc)
    doc2 = doc.replace("[0.7, 0.7]", "[0, 0]").replace("upper: [1, 1]", "upper: [0.2, 0.3]")
    with pytest.raises(ModelFormatError, match="upper bounds sum"):
        parse_model(doc2)
    doc3 = doc.replace("lower: [0.7, 0.7]", "lower: [0.5, 0.2]").replace(
        "upper: [1, 1]", "upper: [0.4, 1]"
    )
    with pytest.raises(ModelFormatError, match="exceeds its upper"):
        parse_model(doc3)


def test_interval_form_refused_beyond_eight_states():
    labels = [f"s{i}" for i in range(9)]
    rows = "\n".join(
        f"  {lab}:\n    vertices: [[{', '.join('1' if j == i else '0' for j in range(9))}]]"
        for i, lab in enumerate(labels[1:], start=1)
    )
    doc = (
        f"states: [{', '.join(labels)}]\nrows:\n  s0:\n"
        f"    lower: [{', '.join('0' for _ in labels)}]\n"
        f"    upper: [{', '.join('1' for _ in labels)}]\n" + rows
    )
    with pytest.raises(ModelFormatError, match="at most 8"):
        parse_model(doc)


def test_roundoff_tolerance_on_load():
    ok = VERTEX_DOC.replace("[0.5, 0.5]", "[0.5, 0.5000000001]")
    m = parse_model(ok)
    assert m.vertices(0)[0].sum() == 1.0
    bad = VERTEX_DOC.replace("[0.5, 0.5]", "[0.5, 0.6]")
    with pytest.raises(ModelValidationError):
        parse_model(bad)


def test_parse_error_reports_position():
    with pytest.raises(ModelFormatError, match="line"):
        parse_model("states: [a, b\nrows: {}")


def test_structural_errors_name_states():
    doc = """
states: [a, b]
rows:
  a:
    vertices: [[1, 0]]
  c:
    vertices: [[0, 1]]
"""
    with pytest.raises(ModelFormatError) as err:
        parse_model(doc)
    msg = str(err.value)
    assert "'c'" in msg and "'b'" in msg


COMMA_DOC = """
states: ["a,b", c]
rows:
  "a,b":
    vertices: [[1, 0]]
  c:
    vertices: [[0, 1]]
"""


def test_labels_with_commas_are_a_format_error():
    with pytest.raises(ModelFormatError, match="a,b"):
        parse_model(COMMA_DOC)


def test_dump_then_parse_round_trip():
    m = parse_model(VERTEX_DOC)
    again = parse_model(dump_model(m, name="demo"))
    assert again.space.labels == m.space.labels
    for i in range(m.size):
        assert np.array_equal(again.vertices(i), m.vertices(i))
    assert model_digest(again) == model_digest(m)


def test_digest_tracks_content():
    a = parse_model(VERTEX_DOC)
    b = parse_model(VERTEX_DOC.replace("[0.9, 0.1]", "[0.8, 0.2]"))
    assert model_digest(a) != model_digest(b)


def test_load_model_from_disk(tmp_path):
    p = tmp_path / "m.yaml"
    p.write_text(VERTEX_DOC)
    m = load_model(p)
    assert m.space.labels == ("a", "b")


def test_infinity_encoding(tmp_path):
    assert encode_value(math.inf) == "inf"
    assert encode_value(2.5) == 2.5
    assert math.isinf(decode_value("inf"))
    out = tmp_path / "r.json"
    write_result(out, {"values": {"a": encode_value(math.inf), "b": encode_value(1.0)}})
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["values"]["a"] == "inf" and doc["values"]["b"] == 1.0


def test_from_rows_reports_all_violations_at_once():
    with pytest.raises(ModelValidationError) as err:
        CredalMatrix.from_rows(["a", "b"], [[[0.5, 0.6], [-0.1, 1.1]], []])
    joined = "\n".join(err.value.violations)
    assert "sum" in joined and "negative" in joined and "no vertices" in joined
