"""Core types and exact transition operators for credal transition models.

A credal transition model assigns to each state a finite list of candidate
probability rows. These are the extreme points of a convex set of transition
matrices whose rows vary independently of each other, so every optimisation
used here (a best or worst expectation of a value vector, row by row) is a
finite maximisation over the stored vertices.

Value vectors may contain ``numpy.inf`` to mark states with no finite
expectation. All dot products follow the convention that a zero-probability
entry contributes nothing even when paired with an infinite value. They all
go through one row-dot kernel, :func:`choice_values`, so identical inputs
give identical bits on one machine; :func:`ext_dot` stays the left-to-right
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Largest accepted deviation of a probability row sum from one. Rows inside
#: the tolerance are rescaled to sum to one exactly; rows outside are rejected.
SUM_TOL = 1e-8

_SENSES = ("upper", "lower")


class ModelValidationError(ValueError):
    """A credal model violated a structural invariant.

    ``violations`` lists every failed check, each naming the offending state
    label and vertex position.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid credal model:\n"
            + "\n".join(f"  - {v}" for v in self.violations)
        )


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite state space with unique string labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        if len(self.labels) < 2:
            raise ValueError("a state space needs at least two states")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be unique")
        if any("," in s for s in self.labels):
            raise ValueError("state labels must not contain ',', the joint-label separator")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise KeyError(f"unknown state label {label!r}") from None

    def indices(self, labels: Iterable[str]) -> list[int]:
        return [self.index(x) for x in labels]


@dataclass(frozen=True)
class CredalRow:
    """Extreme points of one state's set of transition rows, shape (k, n)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim == 1:
            v = v.reshape(1, -1)
        object.__setattr__(self, "vertices", v)

    @property
    def count(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class CredalMatrix:
    """Per-state credal rows over a shared state space.

    All vertices live in one ``(K, n)`` array in which state ``i`` owns rows
    ``offsets[i]:offsets[i + 1]`` (see :meth:`stacked`). In a model built by
    :meth:`from_rows` every ``vertices(i)`` is a view into that array; for a
    model built through the constructor the array is assembled on first use.
    """

    space: StateSpace
    rows: tuple[CredalRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "_stack", None)

    @property
    def size(self) -> int:
        return self.space.size

    def vertices(self, state: int) -> np.ndarray:
        return self.rows[state].vertices

    def vertex_count(self, state: int) -> int:
        return self.rows[state].count

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """All vertices as one ``(K, n)`` array, and the ``n + 1`` state offsets."""
        if self._stack is None:
            offsets = segment_bounds([row.count for row in self.rows])
            stack = np.concatenate([row.vertices for row in self.rows])
            object.__setattr__(self, "_stack", (stack, offsets))
        return self._stack

    @classmethod
    def from_rows(cls, labels: Iterable[str], row_vertices) -> "CredalMatrix":
        """Validate, renormalize and wrap raw per-state vertex lists.

        Raises :class:`ModelValidationError` listing every violation when the
        data is malformed; otherwise every vertex is rescaled to sum to one
        exactly.
        """
        space = StateSpace(tuple(labels))
        raw = [[np.asarray(v, dtype=float).ravel() for v in verts] for verts in row_vertices]
        if all(raw) and all(a.size == space.size for arr in raw for a in arr):
            stack = np.stack([a for arr in raw for a in arr])
            offsets = segment_bounds([len(arr) for arr in raw])
            model = cls(space, [CredalRow(stack[a:b]) for a, b in zip(offsets[:-1], offsets[1:])])
            object.__setattr__(model, "_stack", (stack, offsets))
        else:
            model = cls(space, [_ragged_row(arr, space.size) for arr in raw])
        problems = validate(model)
        if problems:
            raise ModelValidationError(problems)
        # well-formed rows are views into the stack: rescale them in place
        stack, _ = model.stacked()
        stack /= stack.sum(axis=1, keepdims=True)
        return model

    @classmethod
    def precise(cls, labels: Iterable[str], matrix) -> "CredalMatrix":
        """Wrap a single transition matrix as singleton credal rows."""
        m = np.asarray(matrix, dtype=float)
        return cls.from_rows(labels, [[row] for row in m])


def _ragged_row(arr: list[np.ndarray], n: int) -> CredalRow:
    """A malformed row kept for validation; short vertices are NaN-padded so
    that validation can still name the coordinates."""
    padded = np.full((len(arr), max((a.size for a in arr), default=n)), np.nan)
    for i, a in enumerate(arr):
        padded[i, : a.size] = a
    return CredalRow(padded)


def validate(model: CredalMatrix) -> list[str]:
    """Check every structural invariant of ``model``.

    Returns one message per violation (empty list when the model is well
    formed). Violations are reported as data rather than raised so callers
    can collect and display all of them at once.
    """
    problems: list[str] = []
    n = model.space.size
    if len(model.rows) != n:
        problems.append(f"model has {len(model.rows)} rows for {n} states")
    for i, row in enumerate(model.rows):
        label = model.space.labels[i] if i < n else f"#{i}"
        verts = row.vertices
        if verts.shape[0] == 0:
            problems.append(f"row {label!r}: no vertices")
            continue
        if verts.shape[1] != n:
            problems.append(
                f"row {label!r}: vertices have {verts.shape[1]} entries, expected {n}"
            )
            continue
        normalized = []
        for j, v in enumerate(verts):
            nan = np.isnan(v)
            for k in np.flatnonzero(nan | (v < 0) | (v > 1)).tolist():
                what = "is not a number" if nan[k] else (
                    f"is negative ({v[k]!r})" if v[k] < 0 else f"exceeds 1 ({v[k]!r})"
                )
                problems.append(f"row {label!r} vertex {j}: entry {k} {what}")
            if nan.any():
                normalized.append(None)
                continue
            total = float(v.sum())
            if abs(total - 1.0) > SUM_TOL:
                problems.append(f"row {label!r} vertex {j}: entries sum to {total!r}, not 1")
            normalized.append(v / total if total > 0 else None)
        for j in range(len(normalized)):
            for k in range(j + 1, len(normalized)):
                a, b = normalized[j], normalized[k]
                if a is not None and b is not None and np.array_equal(a, b):
                    problems.append(f"row {label!r}: vertices {j} and {k} coincide")
    return problems


def ext_dot(weights, values) -> float:
    """Dot product with the 0 * inf = 0 convention, summed left to right."""
    total = 0.0
    for w, v in zip(weights, values):
        if w > 0.0:
            if v == math.inf:
                return math.inf
            total += w * v
    return total


def choice_values(vertices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Expectation of ``values`` under every row of ``vertices``, with 0 * inf = 0.

    ``values`` may have one axis per agent, each contracted in turn with the
    rows: entry ``[a, b, ...]`` of the result is the joint choice of row ``a``
    for the first agent, row ``b`` for the second, and so on. A second
    contraction, against the inf mask, sets to inf every choice with positive
    mass on an infinite entry. Two-operand ``einsum``, unlike BLAS, gives a
    row the same bits whichever other rows are evaluated with it.
    """
    inf = np.isinf(values)
    if inf.any():
        out = choice_values(vertices, np.where(inf, 0.0, values))
        out[choice_values(vertices, inf.astype(float)) > 0.0] = math.inf
        return out
    for _ in range(values.ndim):  # last axis first, the new row axis in front
        values = np.einsum("ij,...j->i...", vertices, values)
    return values


def ext_matvec(matrix, values) -> np.ndarray:
    """Row-wise 0 * inf = 0 product of a dense matrix with a value vector."""
    return choice_values(np.asarray(matrix, dtype=float), np.asarray(values, dtype=float))


def segment_bounds(counts) -> np.ndarray:
    """CSR-style bounds of consecutive segments of the given lengths."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def segment_gather(array: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Entries ``starts[s]`` to ``starts[s] + counts[s] - 1`` of ``array`` for
    every segment ``s``, concatenated in segment order."""
    bounds = segment_bounds(counts)
    return array[np.repeat(starts - bounds[:-1], counts) + np.arange(bounds[-1])]


def segment_optimum(vals: np.ndarray, bounds: np.ndarray, sense: str):
    """Per segment ``bounds[s]:bounds[s + 1]`` of ``vals``, the largest (upper)
    or smallest (lower) entry and the lowest position attaining it, counted
    from the segment start. Every segment must be non-empty.
    """
    starts = bounds[:-1]
    best = (np.maximum if sense == "upper" else np.minimum).reduceat(vals, starts)
    hit = vals == np.repeat(best, bounds[1:] - starts)
    first = np.minimum.reduceat(np.where(hit, np.arange(vals.size), vals.size), starts)
    return best, first - starts


def target_mask(n: int, targets: Iterable[int]) -> np.ndarray:
    """Boolean mask of a non-empty set of state indices."""
    idx = list(targets)
    if not idx:
        raise ValueError("target set is empty")
    mask = np.zeros(n, dtype=bool)
    for t in idx:
        if not 0 <= int(t) < n:
            raise ValueError(f"target index {t} out of range for {n} states")
        mask[int(t)] = True
    return mask


def _require_sense(sense: str) -> None:
    if sense not in _SENSES:
        raise ValueError(f"sense must be 'upper' or 'lower', got {sense!r}")


def _check_values(model: CredalMatrix, values) -> np.ndarray:
    f = np.asarray(values, dtype=float)
    if f.shape != (model.size,):
        raise ValueError(
            f"value vector has shape {f.shape}, expected ({model.size},)"
        )
    if np.isnan(f).any():
        raise ValueError("value vector contains NaN")
    if (f < 0).any():
        raise ValueError("value vector entries must be non-negative")
    return f


def _optimize(model: CredalMatrix, values, sense: str):
    stack, offsets = model.stacked()
    return segment_optimum(choice_values(stack, _check_values(model, values)), offsets, sense)


def apply_upper(model: CredalMatrix, values) -> np.ndarray:
    """Componentwise largest expectation of ``values`` over each state's row set.

    The supremum over each convex row set is attained at a vertex because the
    objective is linear in the row, so a scan of the stored vertices is exact.
    """
    return _optimize(model, values, "upper")[0]


def apply_lower(model: CredalMatrix, values) -> np.ndarray:
    """Componentwise smallest expectation of ``values``; see :func:`apply_upper`."""
    return _optimize(model, values, "lower")[0]


def greedy_selection(model: CredalMatrix, values, sense: str) -> np.ndarray:
    """Per state, the lowest vertex index attaining the upper or lower expectation.

    Assembling the selected vertices with :func:`selection_matrix` and applying
    :func:`ext_matvec` reproduces the output of :func:`apply_upper` (or
    :func:`apply_lower`) exactly: both paths evaluate every vertex through
    :func:`choice_values`, and identical inputs give identical bits on one
    machine; :func:`ext_dot` stays the left-to-right reference.
    """
    _require_sense(sense)
    return _optimize(model, values, sense)[1]


def selection_matrix(model: CredalMatrix, selection) -> np.ndarray:
    """Assemble the transition matrix induced by per-state vertex choices."""
    sel = np.asarray(selection, dtype=int)
    if sel.shape != (model.size,):
        raise ValueError(
            f"selection has shape {sel.shape}, expected ({model.size},)"
        )
    stack, offsets = model.stacked()
    bad = np.flatnonzero((sel < 0) | (sel >= np.diff(offsets)))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"selection index {sel[i]} out of range for row "
            f"{model.space.labels[i]!r} with {model.vertex_count(i)} vertices"
        )
    return stack[offsets[:-1] + sel]
