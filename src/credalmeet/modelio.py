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
(they are rescaled to sum to one exactly after validation). Interval rows
are accepted for at most eight states; beyond that the vertex count of the
interval polytope explodes and explicit vertices must be provided.

Result files are JSON with a ``schema_version`` field; infinite values are
serialized as the string ``"inf"`` since JSON has no infinity literal.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import yaml

from .core import CredalMatrix, ModelValidationError

RESULT_SCHEMA_VERSION = 1

#: Interval rows are expanded by enumerating bound patterns, 2**n of them.
MAX_INTERVAL_STATES = 8

#: The libyaml parser where PyYAML was built with it, else the pure-Python one.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ModelFormatError(ValueError):
    """The model file could not be parsed or has the wrong structure."""


def interval_vertices(lower, upper) -> np.ndarray:
    """Vertices of the probability polytope { p : lower <= p <= upper, sum p = 1 }.

    At a vertex all coordinates but at most one sit at a bound, so the
    enumeration walks every bound pattern with zero or one free coordinate
    and keeps the feasible, distinct ones. Returned rows are sorted
    lexicographically.
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
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
        return verts
    if not ("lower" in spec and "upper" in spec):
        problems.append(f"row {label!r}: needs vertices, or both lower and upper")
        return None
    lo, hi = spec["lower"], spec["upper"]
    if not (isinstance(lo, list) and isinstance(hi, list) and len(lo) == n and len(hi) == n):
        problems.append(f"row {label!r}: lower and upper must be lists of {n} numbers")
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
        problems.append(f"row {label!r}: lower bounds sum to {lo_arr.sum()!r} > 1, infeasible")
        return None
    if hi_arr.sum() < 1.0 - 1e-12:
        problems.append(f"row {label!r}: upper bounds sum to {hi_arr.sum()!r} < 1, infeasible")
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
        raise ModelFormatError(
            f"{source}: malformed model:\n" + "\n".join(f"  - {p}" for p in problems)
        )
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
        label: {"vertices": [[float(x) for x in v] for v in model.vertices(i)]}
        for i, label in enumerate(model.space.labels)
    }
    return yaml.safe_dump(doc, sort_keys=False)


def model_digest(model: CredalMatrix) -> str:
    """Stable hex digest of the normalized model content."""
    payload = {
        "states": list(model.space.labels),
        "rows": [
            [[repr(float(x)) for x in v] for v in model.vertices(i)]
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


def write_result(path, payload: dict) -> None:
    """Write a result payload as stable, indented JSON."""
    payload = {"schema_version": RESULT_SCHEMA_VERSION, **payload}
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
