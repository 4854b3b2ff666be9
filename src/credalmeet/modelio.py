"""Model files, result files and the interval-to-vertex expansion.

A model file is a single YAML document::

    name: optional short name
    description: optional free text
    states: [s0, s1]          # unique labels, at least two
    rows:
      s0:
        vertices:             # explicit extreme points, one list per vertex
          - [0.5, 0.5]
          - [0.9, 0.1]
      s1:                     # or a probability interval per entry,
        lower: [0.0, 0.2]     # expanded to the polytope's vertices on load
        upper: [0.8, 1.0]

Every row needs either ``vertices`` or both ``lower`` and ``upper``.
Vertex entries must be non-negative and sum to one within ``SUM_TOL``
(they are rescaled to sum to one exactly after validation). Interval bounds
must lie in [0, 1]. Interval rows are accepted for at most eight states;
beyond that the vertex count of the interval polytope explodes and explicit
vertices must be provided.

Result files are JSON with a ``schema_version`` field; infinite values are
serialized as the string ``"inf"`` since JSON has no infinity literal. Their
bytes are those of ``json.dumps(payload, indent=2, allow_nan=False)`` and a
newline.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from .core import CredalMatrix, ModelValidationError

RESULT_SCHEMA_VERSION = 1

#: Interval rows are expanded by enumerating bound patterns, 2**n of them.
MAX_INTERVAL_STATES = 8

_FLOAT_TAG = "tag:yaml.org,2002:float"

#: Last characters of float text that cannot spell ``inf``, ``infinity`` or ``nan``.
_DECIMAL_ENDS = frozenset("0123456789.")


class _LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's safe loader, on the libyaml parser where PyYAML was built
    with it, that reads the float entries of a list with one ``float`` call.

    PyYAML's ``construct_yaml_float`` drops underscores and one leading sign
    and calls ``float`` on the rest, except on the ``inf`` and ``nan``
    spellings and on base-60 text. So where the text ends in a digit or a
    point and ``float`` reads it, ``float`` gives PyYAML's value. Every other
    entry goes through ``construct_object``.
    """

    def construct_sequence(self, node, deep=False):
        items = []
        for child in node.value:
            if child.tag == _FLOAT_TAG and child.value[-1:] in _DECIMAL_ENDS:
                try:
                    items.append(float(child.value))
                    continue
                except ValueError:  # say "1:30" or "- 1", which PyYAML reads
                    pass
            items.append(self.construct_object(child, deep=deep))
        return items


class ModelFormatError(ValueError):
    """The model file could not be parsed or has the wrong structure.

    ``violations`` lists every problem found, one message each; an error
    raised with a message alone is its own single violation.
    """

    def __init__(self, message: str, violations: Sequence[str] = ()):
        self.violations = list(violations) or [message]
        super().__init__("\n".join([message, *(f"  - {v}" for v in violations)]))


def interval_vertices(lower, upper) -> np.ndarray:
    """Vertices of the probability polytope { p : lower <= p <= upper, sum p = 1 }.

    At a vertex all coordinates but at most one sit at a bound, so the
    enumeration walks every bound pattern with zero or one free coordinate
    and keeps the feasible, distinct ones. Returned rows are sorted
    lexicographically. Bounds of other shapes are refused with a ``ValueError``.
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape or lo.size > MAX_INTERVAL_STATES:
        raise ValueError(f"lower and upper bounds must be vectors of equal length, at most "
                         f"{MAX_INTERVAL_STATES} states, got shapes {lo.shape} and {hi.shape}")
    n = lo.size
    found = {}
    for free in (None, *range(n)):
        others = [k for k in range(n) if k != free]
        for bits in itertools.product((0, 1), repeat=len(others)):
            p = np.empty(n)
            for k, bit in zip(others, bits):
                p[k] = hi[k] if bit else lo[k]
            if free is None:
                if abs(p.sum() - 1.0) > 1e-9:
                    continue
            else:
                rest = p[others].sum()
                p[free] = 1.0 - rest
                if not (lo[free] - 1e-12 <= p[free] <= hi[free] + 1e-12):
                    continue
            found.setdefault(tuple(np.round(p, 12)), p)
    return np.array([found[k] for k in sorted(found)])


def _numeric(where: str, entries: list, problems: list[str], bound: bool = False) -> bool:
    """Whether every entry is a number a float can hold, and a probability in
    [0, 1] if it is a ``bound`` (NaN is then no number); reports the rest."""
    bad = []
    for k, x in enumerate(entries):
        if isinstance(x, bool) or not isinstance(x, (int, float)) or (bound and x != x):
            bad.append(f"{where} entry {k} is not a number ({x!r})")
            continue
        try:
            float(x)
        except OverflowError:
            bad.append(f"{where} entry {k} is too large for a float")
            continue
        if bound and not 0 <= x <= 1:
            bad.append(f"{where} entry {k} is outside [0, 1] ({x!r})")
    problems.extend(bad)
    return not bad


def _row_from_spec(label: str, spec, n: int, problems: list[str]):
    if not isinstance(spec, dict):
        problems.append(f"row {label!r}: expected a mapping, found {type(spec).__name__}")
        return None
    has_vertices = "vertices" in spec
    has_interval = "lower" in spec or "upper" in spec
    if has_vertices and has_interval:
        problems.append(f"row {label!r}: give either vertices or an interval, not both")
        return None
    if has_vertices:
        verts = spec["vertices"]
        if not isinstance(verts, list) or not all(isinstance(v, list) for v in verts):
            problems.append(f"row {label!r}: vertices must be a list of lists")
            return None
        numeric = [_numeric(f"row {label!r} vertex {j}:", v, problems) for j, v in enumerate(verts)]
        if not all(numeric):
            return None
        return verts
    if not ("lower" in spec and "upper" in spec):
        problems.append(f"row {label!r}: needs vertices, or both lower and upper")
        return None
    lo, hi = spec["lower"], spec["upper"]
    if not (isinstance(lo, list) and isinstance(hi, list) and len(lo) == n and len(hi) == n):
        problems.append(f"row {label!r}: lower and upper must be lists of {n} numbers")
        return None
    # a NaN bound or one outside [0, 1] would reach the vertices, named
    # against entries never written, or pass unseen
    numeric = [_numeric(f"row {label!r}: {key}", spec[key], problems, bound=True)
               for key in ("lower", "upper")]
    if not all(numeric):
        return None
    if n > MAX_INTERVAL_STATES:
        problems.append(
            f"row {label!r}: interval form is supported for at most "
            f"{MAX_INTERVAL_STATES} states, this model has {n}; list the "
            "vertices explicitly"
        )
        return None
    lo_arr, hi_arr = np.asarray(lo, float), np.asarray(hi, float)
    if (lo_arr > hi_arr).any():
        problems.append(f"row {label!r}: a lower bound exceeds its upper bound")
        return None
    if lo_arr.sum() > 1.0 + 1e-12:
        problems.append(f"row {label!r}: lower bounds sum to {float(lo_arr.sum())!r} > 1, infeasible")
        return None
    if hi_arr.sum() < 1.0 - 1e-12:
        problems.append(f"row {label!r}: upper bounds sum to {float(hi_arr.sum())!r} < 1, infeasible")
        return None
    verts = interval_vertices(lo_arr, hi_arr)
    if verts.size == 0:
        problems.append(f"row {label!r}: the interval polytope is empty")
        return None
    return verts


def parse_model(text: str, source: str = "<string>") -> CredalMatrix:
    """Parse a YAML model document; raises with every problem it can find."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1} column {mark.column + 1}" if mark else "unknown position"
        raise ModelFormatError(f"{source}: parse error at {where}: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{source}: the document must be a mapping")
    states = doc.get("states")
    if not isinstance(states, list) or len(states) < 2:
        raise ModelFormatError(f"{source}: 'states' must list at least two labels")
    labels = [str(s) for s in states]
    known = set(labels)
    if len(known) != len(labels):
        raise ModelFormatError(f"{source}: state labels must be unique")
    commas = [s for s in labels if "," in s]
    if commas:
        raise ModelFormatError(f"{source}: state labels must not contain ',': {commas}")
    rows_doc = doc.get("rows")
    if not isinstance(rows_doc, dict):
        raise ModelFormatError(f"{source}: 'rows' must map state labels to row specs")
    problems = [f"row {k!r} does not match any state label" for k in rows_doc if str(k) not in known]
    # built from the last key back, so the first of two keys with one label wins
    specs = {str(k): spec for k, spec in reversed(rows_doc.items())}
    rows = []
    for label in labels:
        if label in specs:
            rows.append(_row_from_spec(label, specs[label], len(labels), problems))
        else:
            problems.append(f"state {label!r} has no row")
    if problems:
        raise ModelFormatError(f"{source}: malformed model:", problems)
    try:
        return CredalMatrix.from_rows(labels, rows)
    except ModelValidationError as exc:
        raise ModelValidationError(exc.violations) from None


def load_model(path) -> CredalMatrix:
    """Load, validate and normalize a model file."""
    p = Path(path)
    return parse_model(p.read_text(), source=str(p))


def dump_model(model: CredalMatrix, name: str | None = None, description: str | None = None) -> str:
    """Serialize a model back to the YAML document format."""
    doc: dict = {}
    if name:
        doc["name"] = name
    if description:
        doc["description"] = description
    doc["states"] = list(model.space.labels)
    doc["rows"] = {
        label: {"vertices": (model.vertices(i) + 0.0).tolist()}  # + 0.0 writes -0.0 as 0.0
        for i, label in enumerate(model.space.labels)
    }
    return yaml.safe_dump(doc, sort_keys=False)


def model_digest(model: CredalMatrix) -> str:
    """Stable hex digest of the normalized model content."""
    payload = {
        "states": list(model.space.labels),
        "rows": [
            [list(map(repr, v)) for v in (model.vertices(i) + 0.0).tolist()]  # + 0.0: -0.0 is 0.0
            for i in range(model.size)
        ],
    }
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def encode_value(value: float):
    """JSON-safe scalar; infinity becomes the string ``"inf"``."""
    v = float(value)
    return "inf" if math.isinf(v) else v


def decode_value(value) -> float:
    if value == "inf":
        return math.inf
    return float(value)


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _flat_encode(depth: int):
    """``encode`` of a stdlib encoder, C where the stdlib has it, for a
    container of scalars whose members sit ``depth`` levels deep: the newline
    and indentation of ``indent=2`` ride on its item separator."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "), allow_nan=False).encode


def _int_rows(members) -> int:
    """The length of every one of ``members`` when they are all non-empty
    lists of exact ints (not bools or other subclasses), all of one length;
    otherwise 0. Each test runs over all of them in one C loop."""
    if set(map(type, members)) != {list}:
        return 0
    widths = set(map(len, members))
    if len(widths) != 1 or set(map(type, itertools.chain.from_iterable(members))) != {int}:
        return 0
    return widths.pop()


def _indented(obj, depth: int, open_ids: set) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` of the dict, list or
    tuple ``obj`` nested ``depth`` levels deep, with ``depth`` levels of
    indentation after each newline. ``open_ids`` holds the containers that
    enclose ``obj``, for the circular-reference check."""
    is_dict = isinstance(obj, dict)
    if not obj:
        return "{}" if is_dict else "[]"
    members = obj.values() if is_dict else obj
    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth + ("}" if is_dict else "]")
    if not any(isinstance(x, _CONTAINERS) for x in members):
        text = _flat_encode(depth + 1)(obj)
        return text[0] + inner + text[1:-1] + close
    if is_dict and not all(isinstance(key, str) for key in obj):
        raise TypeError("keys other than str are left to json.dumps")
    if id(obj) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(obj))
    encode = _flat_encode(depth + 1)
    width = _int_rows(members)
    if width:  # say a joint selections map: one "%d" template for every member
        deeper = inner + "  "
        row = "[" + deeper + ("," + deeper).join(["%d"] * width) + inner + "]"
        parts = list(map(row.__mod__, map(tuple, members)))
    else:
        parts = [_indented(x, depth + 1, open_ids) if isinstance(x, _CONTAINERS) else encode(x) for x in members]
    open_ids.remove(id(obj))
    if is_dict:
        parts = [encode_basestring_ascii(key) + ": " + part for key, part in zip(obj, parts)]
    return ("{" if is_dict else "[") + inner + ("," + inner).join(parts) + close


def write_result(path, payload: dict) -> None:
    """Write a result payload as stable, indented JSON: the bytes of
    ``json.dumps(payload, indent=2, allow_nan=False)`` and a newline."""
    payload = {"schema_version": RESULT_SCHEMA_VERSION, **payload}
    try:
        text = _indented(payload, 0, set())
    except (TypeError, ValueError):
        # json.dumps writes what the fast path leaves, or raises its own
        # error: the C encoder's message for a NaN omits the value
        text = json.dumps(payload, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")
