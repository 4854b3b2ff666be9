import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
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
from credalmeet import modelio
from credalmeet.modelio import MAX_INTERVAL_STATES, decode_value, encode_value, write_result
from credalmeet.modelio import _int_rows
from credalmeet.selfcheck import bundled_model_path

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


@pytest.mark.parametrize("lower, upper", [
    ([0.1, 0.2, 0.3], [0.5, 0.6, 0.7, 0.9]),  # an extra upper bound
    ([0.1, 0.2, 0.3, 0.1], [0.5, 0.6, 0.7]),  # an extra lower bound
    ([[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6], [0.7, 0.8]]),
    (0.5, 0.5),
])
def test_interval_vertices_refuses_bounds_of_other_shapes(lower, upper):
    with pytest.raises(ValueError, match="vectors of equal length"):
        interval_vertices(lower, upper)


def test_interval_vertices_refuses_more_than_the_state_limit():
    n = MAX_INTERVAL_STATES
    assert np.array_equal(interval_vertices(np.zeros(n), np.ones(n)), np.eye(n)[::-1])
    with pytest.raises(ValueError, match=rf"at most {n} states, got shapes \({n + 1},\)"):
        interval_vertices(np.zeros(n + 1), np.ones(n + 1))


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



def test_interval_bound_sums_print_plain_floats():
    doc = """
states: [a, b]
rows:
  a: {lower: [0.7, 0.7], upper: [1, 1]}
  b: {lower: [0, 0], upper: [0.25, 0.5]}
"""
    with pytest.raises(ModelFormatError) as err:
        parse_model(doc)
    assert err.value.violations == [
        "row 'a': lower bounds sum to 1.4 > 1, infeasible",
        "row 'b': upper bounds sum to 0.75 < 1, infeasible",
    ]


@pytest.mark.parametrize("row, violations", [
    # once accepted, with the vertices of lower [0, 0]
    ("{lower: [-0.5, 0.0], upper: [1.0, 1.0]}",
     ["row 'a': lower entry 0 is outside [0, 1] (-0.5)"]),
    # once accepted, with the vertices of upper [1, 1]
    ("{lower: [0.0, 0.0], upper: [.inf, .inf]}",
     ["row 'a': upper entry 0 is outside [0, 1] (inf)",
      "row 'a': upper entry 1 is outside [0, 1] (inf)"]),
    # once reported against the vertices [-0.5, 1.5] and [1.5, -0.5]
    ("{lower: [-0.5, -0.5], upper: [2.0, 2.0]}",
     ["row 'a': lower entry 0 is outside [0, 1] (-0.5)",
      "row 'a': lower entry 1 is outside [0, 1] (-0.5)",
      "row 'a': upper entry 0 is outside [0, 1] (2.0)",
      "row 'a': upper entry 1 is outside [0, 1] (2.0)"]),
], ids=["negative-lower", "infinite-upper", "both-outside"])
def test_an_interval_bound_outside_the_unit_interval_is_named(row, violations):
    doc = f"states: [a, b]\nrows:\n  a: {row}\n  b: {{vertices: [[0, 1]]}}\n"
    with pytest.raises(ModelFormatError) as err:
        parse_model(doc)
    assert err.value.violations == violations


@pytest.mark.parametrize("doc, message", [
    ("- a\n- b\n", "the document must be a mapping"),
    ("states: [a]\nrows: {}\n", "'states' must list at least two labels"),
    ("states: [a, b, a]\nrows: {}\n", "state labels must be unique"),
    ("states: [a, b]\nrows: [{vertices: [[1, 0]]}]\n", "'rows' must map state labels to row specs"),
], ids=["not-a-mapping", "one-label", "repeated-label", "rows-not-a-mapping"])
def test_a_document_of_the_wrong_shape_is_refused(doc, message):
    with pytest.raises(ModelFormatError) as err:
        parse_model(doc)
    assert err.value.violations == [f"<string>: {message}"]


@pytest.mark.parametrize("row, violation", [
    ("[[1, 0]]", "expected a mapping, found list"),
    ("{vertices: [[1, 0]], lower: [0, 0], upper: [1, 1]}", "give either vertices or an interval, not both"),
    ("{vertices: [1, 0]}", "vertices must be a list of lists"),
    ("{lower: [0, 0]}", "needs vertices, or both lower and upper"),
    ("{lower: [0, 0, 0], upper: [1, 1, 1]}", "lower and upper must be lists of 2 numbers"),
    ("{lower: 0, upper: 1}", "lower and upper must be lists of 2 numbers"),
], ids=["row-not-a-mapping", "vertices-and-interval", "vertices-not-lists", "lower-alone", "bounds-too-long",
        "bounds-not-lists"])
def test_a_row_of_the_wrong_shape_is_named(row, violation):
    doc = f"states: [a, b]\nrows:\n  a: {row}\n  b: {{vertices: [[0, 1]]}}\n"
    with pytest.raises(ModelFormatError) as err:
        parse_model(doc)
    assert err.value.violations == [f"row 'a': {violation}"]


def test_integers_too_large_for_a_float_are_format_errors():
    huge = "1" + "0" * 400
    doc = f"""
states: [a, b]
rows:
  a:
    vertices: [[0.5, 0.5], [-{huge}, 1]]
  b:
    lower: [0, {huge}]
    upper: [1, 1]
"""
    with pytest.raises(ModelFormatError) as err:
        parse_model(doc)
    assert err.value.violations == [
        "row 'a' vertex 1: entry 0 is too large for a float",
        "row 'b': lower entry 1 is too large for a float",
    ]


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


NON_NUMERIC_DOC = """
states: [a, b]
rows:
  a:
    vertices:
      - [0.5, abc]
      - [0.5, [0.5]]
      - [true, 0]
  b:
    lower: [0, x]
    upper: [1, [1]]
"""


def test_non_numeric_entries_are_format_errors_naming_their_place():
    with pytest.raises(ModelFormatError) as err:
        parse_model(NON_NUMERIC_DOC)
    lines = str(err.value).splitlines()[1:]
    assert lines == [
        "  - row 'a' vertex 0: entry 1 is not a number ('abc')",
        "  - row 'a' vertex 1: entry 1 is not a number ([0.5])",
        "  - row 'a' vertex 2: entry 0 is not a number (True)",
        "  - row 'b': lower entry 1 is not a number ('x')",
        "  - row 'b': upper entry 1 is not a number ([1])",
    ]


def test_a_nan_interval_bound_is_named_as_the_user_wrote_it():
    doc = "states: [a, b]\nrows:\n  a: {lower: [.nan, 0.0], upper: [1.0, .nan]}\n  b: {vertices: [[.nan, 1.0]]}\n"
    with pytest.raises(ModelFormatError) as err:
        parse_model(doc)
    assert str(err.value).splitlines()[1:] == [
        "  - row 'a': lower entry 0 is not a number (nan)",
        "  - row 'a': upper entry 1 is not a number (nan)",
    ]
    # a NaN vertex entry is left to the model's validation, as before
    with pytest.raises(ModelValidationError, match=r"row 'b' vertex 0: entry 0 is not a number$"):
        parse_model(doc.replace("{lower: [.nan, 0.0], upper: [1.0, .nan]}", "{vertices: [[1.0, 0.0]]}"))


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


def test_a_negative_zero_entry_is_written_and_digested_as_zero():
    a = CredalMatrix.from_rows(["a", "b"], [[[1.0, -0.0]], [[0.5, 0.5]]])
    b = CredalMatrix.from_rows(["a", "b"], [[[1.0, 0.0]], [[0.5, 0.5]]])
    assert math.copysign(1.0, a.vertices(0)[0, 1]) == -1.0
    assert model_digest(a) == model_digest(b)
    assert dump_model(a) == dump_model(b) and "-0.0" not in dump_model(a)


def test_digest_of_the_bundled_model_is_pinned():
    # the digest names a model in every JSON result; its bytes must not drift
    model = load_model(bundled_model_path("five-state"))
    assert model_digest(model) == "62aa03fe35ad90e5dcfac5b3368386986405dc0daf2e5b885d77726c64491747"


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


# -------------------------------------------------------------- result files

# strings with non-ASCII, quote, backslash and control characters, and the
# numbers at the edges of what JSON writes
_LEAVES = st.one_of(
    st.text(), st.sampled_from(["é☃𝄞", '"', "\\", "\x00\x1f\n\t\x7f", ""]),
    st.booleans(), st.none(), st.integers(), st.integers(2**63, 2**90),
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_KEYS = st.one_of(st.text(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                  st.booleans(), st.none())
_TREES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.lists(st.integers(), max_size=4), st.lists(st.booleans(), max_size=3),
    st.dictionaries(st.text(), kids, max_size=4), st.dictionaries(_KEYS, kids, max_size=4),
), max_leaves=30)


def _stdlib_text(payload: dict) -> str:
    return json.dumps({"schema_version": 1, **payload}, indent=2, allow_nan=False) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), _TREES, max_size=5) | st.dictionaries(_KEYS, _TREES, max_size=5))
def test_result_files_hold_the_bytes_of_json_dumps(tmp_path_factory, payload):
    out = tmp_path_factory.mktemp("write") / "r.json"
    write_result(out, payload)
    assert out.read_bytes() == _stdlib_text(payload).encode()


@pytest.mark.parametrize("payload", [
    {"values": [1.0, math.nan]},
    {"values": {"a": 1.0, "b": -math.inf}},
    {"nested": {"a": [{"b": [0, 1]}, {"c": math.inf}]}},
    {"keys": {math.nan: 1}},
    {"keys": {"a": [1], math.inf: [2]}},
    {"other": [1, object()]},
    {"other": {(1, 2): 3}},
])
def test_a_refused_payload_raises_what_json_dumps_raises(tmp_path, payload):
    out = tmp_path / "r.json"
    with pytest.raises((ValueError, TypeError)) as want:
        _stdlib_text(payload)
    with pytest.raises(want.type) as got:
        write_result(out, payload)
    assert str(got.value) == str(want.value)
    assert not out.exists()


class _Int(int):
    """An int subclass with a repr of its own, which json.dumps ignores."""

    def __repr__(self):
        return f"_Int({int(self)})"


@pytest.mark.parametrize("payload, width", [
    ({"selections": {"(a,b)": [0, 1], "(a,c)": [1, 0], "(b,c)": [2, 2]}}, 2),
    ({"rows": [[2**63, -1, 0], [-(2**70), 2**64 + 1, -0]]}, 3),
    ({"rows": [[True, 1], [0, 1]]}, 0),
    ({"rows": {"a": [_Int(3), 1], "b": [1, 2]}}, 0),
    ({"rows": [[1, 2], [3]]}, 0),
    ({"rows": [[], []]}, 0),
    ({"rows": [[1], []]}, 0),
    ({"rows": [(1, 2), (3, 4)]}, 0),
    ({"rows": [[1, 2], (3, 4)]}, 0),
    ({"rows": ([1, 2], [3, 4])}, 2),
    ({"rows": [[1.0, 2], [3, 4]]}, 0),
    ({"rows": [[1, 2], 3]}, 0),
])
def test_lists_of_ints_write_the_bytes_of_json_dumps(tmp_path, payload, width):
    # a container whose members are non-empty lists of exact ints, all of one
    # length, is written with one template; bools, int subclasses, tuples,
    # empty and unequal lists go the general way, to the same bytes
    out = tmp_path / "r.json"
    write_result(out, payload)
    assert out.read_bytes() == _stdlib_text(payload).encode()
    (container,) = payload.values()
    assert _int_rows(container.values() if isinstance(container, dict) else container) == width


def test_a_nan_is_named_in_the_message(tmp_path):
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant: nan$"):
        write_result(tmp_path / "r.json", {"values": {"a": 1.0, "b": math.nan}})


def test_a_circular_payload_is_refused_as_json_dumps_refuses_it(tmp_path):
    loop = {"a": [1]}
    loop["a"].append({"b": loop})
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        write_result(tmp_path / "r.json", {"loop": loop})


# --------------------------------------------------------------- the loader

def _torus_doc(rng, rows: int, cols: int) -> str:
    """A uniform and a lazy 5-point step per cell of a torus, dumped as YAML."""
    labels = [f"c{r}_{c}" for r in range(rows) for c in range(cols)]
    doc = {"states": labels, "rows": {}}
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c
            hood = [((r + dr) % rows) * cols + (c + dc) % cols
                    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))]
            uniform, lazy = np.zeros(len(labels)), np.zeros(len(labels))
            uniform[[here, *hood]] = 0.2
            stay = rng.uniform(0.4, 0.8)
            lazy[here], lazy[hood] = stay, (1 - stay) / 4
            doc["rows"][labels[here]] = {"vertices": [uniform.tolist(), lazy.tolist()]}
    return yaml.safe_dump(doc, sort_keys=False)


def _spelled(*vertices: str) -> str:
    """A 3-state model whose row ``a`` has the given vertex lists."""
    return (f"states: [a, b, c]\nrows:\n  a: {{vertices: [{', '.join(vertices)}]}}\n"
            "  b: {vertices: [[0, 1, 0]]}\n  c:\n    vertices:\n    - - 0.0\n      - 0.0\n      - 1.0\n")


SPELLED = {
    "signed-and-bare": _spelled("[+0.5, .5, -0.0]"),
    "exponent": _spelled("[1.5E+3, 0, 0]"),
    "small-exponent-and-tag": _spelled("[2.5e-1, 7.5E-1, 0.0]", '[!!float "0.5", 0.5, 0.0]'),
    "underscore": _spelled("[1_000.5e-3, 0, 0]"),
    "anchor-and-alias": _spelled("[&h 0.5, *h, 0.0]", "[*h, 0.25, 0.25]"),
    "inf": _spelled("[.inf, 0, 0]"),
    "minus-INF": _spelled("[-.INF, 1, 1]"),
    "NaN": _spelled("[.NaN, 1, 0]", '[!!float "-nan", 0, 1]'),
    "tagged-base-60": _spelled("[!!float 1:30, 0, 0]"),
}
REFUSED = {"exponent", "tagged-base-60", "underscore", "inf", "minus-INF", "NaN"}


def _parsed(text: str, loader, monkeypatch):
    """What ``parse_model`` makes of ``text`` when it reads with ``loader``:
    the labels and the bytes of the stack and offsets, or the error."""
    monkeypatch.setattr(modelio, "_LOADER", loader)
    try:
        m = parse_model(text)
    except (ModelFormatError, ModelValidationError) as exc:
        return type(exc).__name__, str(exc)
    return m.space.labels, m.stack.tobytes(), m.offsets.tobytes()


def _bits(node):
    """The loaded document with every float replaced by its bytes."""
    if isinstance(node, float):
        return struct.pack("<d", node)
    if isinstance(node, list):
        return [_bits(x) for x in node]
    if isinstance(node, dict):
        return {k: _bits(v) for k, v in node.items()}
    return node


@pytest.mark.parametrize("name", ["five-state", "torus", *SPELLED])
def test_the_loader_reads_what_the_pure_python_safe_loader_reads(name, monkeypatch):
    if name == "five-state":
        text = Path(bundled_model_path("five-state")).read_text()
    elif name == "torus":
        text = _torus_doc(np.random.default_rng(0), 4, 5)
    else:
        text = SPELLED[name]
    assert _bits(yaml.load(text, Loader=modelio._LOADER)) == _bits(yaml.load(text, Loader=yaml.SafeLoader))
    got = _parsed(text, modelio._LOADER, monkeypatch)
    assert got == _parsed(text, yaml.SafeLoader, monkeypatch)
    assert (got[0] == "ModelValidationError") == (name in REFUSED), got


def test_the_spelled_floats_are_read_as_written(monkeypatch):
    rows = yaml.load(SPELLED["signed-and-bare"], Loader=modelio._LOADER)["rows"]
    assert _bits(rows["a"]["vertices"]) == _bits([[0.5, 0.5, -0.0]])
    assert _parsed(SPELLED["inf"], modelio._LOADER, monkeypatch)[1].splitlines()[1:] == [
        "  - row 'a' vertex 0: entry 0 exceeds 1 (inf)",
        "  - row 'a' vertex 0: entries sum to inf, not 1",
    ]
    assert _parsed(SPELLED["NaN"], modelio._LOADER, monkeypatch)[1].splitlines()[1:] == [
        "  - row 'a' vertex 0: entry 0 is not a number",
        "  - row 'a' vertex 1: entry 0 is not a number",
    ]
    assert "entry 0 exceeds 1 (90.0)" in _parsed(SPELLED["tagged-base-60"], modelio._LOADER, monkeypatch)[1]
