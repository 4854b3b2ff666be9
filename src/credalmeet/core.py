"""Core types and exact transition operators for credal transition models.

A credal transition model assigns to each state a finite list of candidate
probability rows. These are the extreme points of a convex set of transition
matrices whose rows vary independently of each other, so every optimisation
used here (a best or worst expectation of a value vector, row by row) is a
finite maximisation over the stored vertices.

Value vectors may contain ``numpy.inf`` to mark states with no finite
expectation. All dot products follow the convention that a zero-probability
entry contributes nothing even when paired with an infinite value. They all
go through one of two finite contractions, so identical inputs give
identical bits on one machine; :func:`ext_dot` stays the left-to-right
reference. A value vector is contracted by :func:`contract`, ``np.vecdot``,
one dot per vertex row, which gives a row the same bits in any subset of
rows; the joint walk's value tensor, always contracted whole, by one BLAS
product per agent axis with no transposed operand (:func:`contract_chain`),
the last one straight into a table its caller owns.
Values with infinite entries go through one rule, in the public operators
and every choice view's ``values``: a contraction of the values with their
infs zeroed, and inf on each row that an exact support test finds with mass
on an inf entry; for stored rows it reads their entries in the inf columns
alone. The solvers, which know the inf states once per solve, call a view's
finite contraction on zeroed values directly.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
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
        object.__setattr__(self, "labels", tuple(map(str, self.labels)))
        if len(self.labels) < 2:
            raise ValueError("a state space needs at least two states")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be unique")
        if "," in "".join(self.labels):
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
class CredalMatrix:
    """Per-state credal rows over a shared state space.

    All vertices live in one ``(K, n)`` array, ``stack``, in which state ``i``
    owns rows ``offsets[i]:offsets[i + 1]``; ``vertices(i)`` is a view of that
    slice. Build models with :meth:`from_rows`, which validates and rescales.
    """

    space: StateSpace
    stack: np.ndarray
    offsets: np.ndarray

    @property
    def size(self) -> int:
        return self.space.size

    def vertices(self, state: int) -> np.ndarray:
        return self.stack[self.offsets[state] : self.offsets[state + 1]]

    def vertex_count(self, state: int) -> int:
        return int(self.offsets[state + 1] - self.offsets[state])

    @classmethod
    def from_rows(cls, labels: Iterable[str], row_vertices) -> "CredalMatrix":
        """Validate, renormalize and wrap raw per-state vertex lists.

        Raises :class:`ModelValidationError` listing every violation when the
        data is malformed; otherwise every vertex is rescaled to sum to one
        exactly.
        """
        space = StateSpace(tuple(labels))
        n = space.size
        rows = list(map(list, row_vertices))
        counts = list(map(len, rows))
        try:  # every vertex at once
            stack = np.array(list(itertools.chain.from_iterable(rows)), dtype=float)
        except (ValueError, TypeError):  # ragged: some vertex has another shape
            stack = None
        wrong = {}
        if stack is None or stack.shape != (sum(counts), n):
            # a row whose vertices are not all vectors of n entries is kept out of the stack
            rows = [[np.asarray(v, dtype=float) for v in row] for row in rows]
            wrong = {i: _misfits(row, n) for i, row in enumerate(rows) if any(a.shape != (n,) for a in row)}
            counts = [0 if i in wrong else c for i, c in enumerate(counts)]
            kept = [a for i, row in enumerate(rows) if i not in wrong for a in row]
            stack = np.array(kept, dtype=float).reshape(-1, n)
        model = cls(space, stack, segment_bounds(counts))
        problems = _problems(model, wrong)
        if problems:
            raise ModelValidationError(problems)
        stack /= stack.sum(axis=1, keepdims=True)
        return model

    @classmethod
    def precise(cls, labels: Iterable[str], matrix) -> "CredalMatrix":
        """Wrap a single transition matrix as singleton credal rows."""
        labels, m = tuple(labels), np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            n = len(labels)
            raise ModelValidationError([f"matrix has shape {m.shape}, expected ({n}, {n})"])
        return cls.from_rows(labels, [[row] for row in m])


def validate(model: CredalMatrix) -> list[str]:
    """Check every structural invariant of ``model``.

    Returns one message per violation (empty list when the model is well
    formed), in state order. Violations are reported as data rather than
    raised so callers can collect and display all of them at once.

    Vertices are screened by their smallest and largest entry and their sum,
    and duplicates by one weighted sum each; messages are formatted, and
    duplicates confirmed exactly, only for the states that fail a screen.
    Offsets that do not bound the stack, which only a model built through
    the constructor can have, are reported alone.
    """
    stack, offsets = model.stack, model.offsets
    if offsets[:1].tolist() != [0] or offsets[-1] != len(stack) or (np.diff(offsets) < 0).any():
        return [f"offsets {offsets.tolist()} must start at 0, never decrease and end at "
                f"{len(stack)}, the number of stacked vertices"]
    return _problems(model, {})


def _misfits(row: list[np.ndarray], n: int) -> list[str]:
    """Violations, each to follow the row's name, of a row's vertices that are
    not vectors of ``n`` entries: the first wrong length, each other shape."""
    width = [f": vertices have {a.size} entries, expected {n}" for a in row if a.ndim == 1 and a.size != n]
    shape = [f" vertex {j}: has shape {a.shape}, expected ({n},)" for j, a in enumerate(row) if a.ndim != 1]
    return width[:1] + shape


@functools.lru_cache(maxsize=16)
def _screen_weights(n: int) -> np.ndarray:
    """Fixed weights in [1, 2) of the duplicate screen of :func:`_problems`."""
    weights = np.random.default_rng(0).uniform(1.0, 2.0, n)
    weights.flags.writeable = False  # shared by every model of n states
    return weights


@np.errstate(all="ignore")  # non-finite entries are reported, not warned about
def _problems(model: CredalMatrix, misfits: dict[int, list[str]]) -> list[str]:
    """:func:`validate`, where each state in ``misfits`` has those violations
    (:func:`_misfits`) and its vertices kept out of the stack. Only states
    with a violation are named, so a valid model takes no per-state step."""
    stack, offsets = model.stack, model.offsets
    n = model.size
    counts = np.diff(offsets)
    if stack.shape[1] != n:  # every vertex has the stack's width: report it per state
        misfits = dict.fromkeys(np.flatnonzero(counts).tolist(), _misfits([np.empty(stack.shape[1])], n))
        return _problems(CredalMatrix(model.space, np.empty((0, n)), 0 * offsets), misfits)
    labels = model.space.labels

    def row(i: int) -> str:
        return f"row {labels[i]!r}" if i < n else f"row '#{i}'"

    problems = {i: [f"{row(i)}: no vertices"] for i in np.flatnonzero(counts == 0).tolist()}
    for i, found in misfits.items():
        problems[i] = [row(i) + p for p in found]
    owner = np.repeat(np.arange(counts.size), counts)
    sums = stack.sum(axis=1)
    # an entry above 1 by no more than the sum tolerance is rescaled like its row
    top = 1 + SUM_TOL
    ok = (stack.min(axis=1) >= 0) & (stack.max(axis=1) <= top) & (abs(sums - 1.0) <= SUM_TOL)
    bad = np.flatnonzero(~ok)
    for r in bad.tolist():
        i, v = int(owner[r]), stack[r]
        nan = np.isnan(v)
        for k in np.flatnonzero(nan | (v < 0) | (v > top)).tolist():
            x = float(v[k])
            what = "is not a number" if nan[k] else f"is negative ({x!r})" if x < 0 else f"exceeds 1 ({x!r})"
            problems.setdefault(i, []).append(f"{row(i)} vertex {r - offsets[i]}: entry {k} {what}")
        if not nan.any() and abs(sums[r] - 1.0) > SUM_TOL:
            problems.setdefault(i, []).append(
                f"{row(i)} vertex {r - offsets[i]}: entries sum to {float(sums[r])!r}, not 1")
    # a vertex with entries in [0, 1] is its normalised vertex times its sum,
    # so exact duplicates among them have weighted sums within a few ulps
    weighted = stack @ _screen_weights(n) / sums
    order = np.lexsort((weighted, owner))
    w, o = weighted[order], owner[order]
    close = (o[1:] == o[:-1]) & (abs(w[1:] - w[:-1]) <= 4 * (n + 2) * np.finfo(float).eps * w[1:])
    for i in sorted({*o[1:][close].tolist(), *owner[bad].tolist()}):
        verts, s = model.vertices(i), sums[offsets[i] : offsets[i + 1]]
        keep = [j for j, v in enumerate(verts) if s[j] > 0 and not np.isnan(v).any()]
        for j, k in itertools.combinations(keep, 2):
            if np.array_equal(verts[j] / s[j], verts[k] / s[k]):
                problems.setdefault(i, []).append(f"{row(i)}: vertices {j} and {k} coincide")
    head = [f"model has {counts.size} rows for {n} states"] if counts.size != n else []
    return head + [p for i in sorted(problems) for p in problems[i]]


def ext_dot(weights, values) -> float:
    """Dot product with the 0 * inf = 0 convention, summed left to right."""
    total = 0.0
    for w, v in zip(weights, values):
        if w > 0.0:
            if v == math.inf:
                return math.inf
            total += w * v
    return total


def chain_sizes(k: int, n: int, agents: int) -> tuple[int, int]:
    """Entries of the two flat buffers of :func:`contract_chain` for ``k``
    rows over ``n`` columns and ``agents`` tensor axes. Step ``i`` of the
    chain writes ``n**(agents - i) * k**i`` entries, into the first buffer
    when ``agents - i`` is even, so that the last step writes the
    ``k**agents`` table in the first buffer's head; each buffer holds the
    largest of its steps. When ``k >= n`` the steps grow, so the first
    buffer is the table and the second, the scratch, has
    ``n * k**(agents - 1)`` entries."""
    steps = [n ** (agents - i) * k**i for i in range(1, agents + 1)]
    return max(steps[agents - 1 :: -2]), max(steps[agents - 2 :: -2])


def contract_chain(rows: np.ndarray, rows_t: np.ndarray, values: np.ndarray, buffers) -> np.ndarray:
    """``values``, a tensor of ``m >= 2`` axes of ``n`` entries, contracted
    on every axis with the ``(k, n)`` ``rows``, as the ``(k,) * m`` head of
    ``buffers[0]``. ``rows_t`` is the rows' C-contiguous transpose, and
    ``buffers`` are two flat float arrays at least as long as
    :func:`chain_sizes` gives.

    No product reads a transposed view and none allocates: one right
    product ``values.reshape(-1, n) @ rows_t`` contracts the last axis, and
    then, for ``j = 2..m``, one left product ``rows @ acc``, batched over
    the ``n**(m - j)`` leading axes, contracts axis ``m - j``, its row axis
    in front of those already made. The steps alternate between the two
    buffers, so that none reads what it writes and the last one writes the
    table."""
    (k, n), m = rows.shape, values.ndim
    size = n ** (m - 1) * k
    acc = np.matmul(values.reshape(-1, n), rows_t, out=buffers[(m - 1) % 2][:size].reshape(-1, k))
    for j in range(2, m + 1):
        lead, done = n ** (m - j), k ** (j - 1)
        out = buffers[(m - j) % 2][: lead * k * done].reshape(lead, k, done)
        acc = np.matmul(rows, acc.reshape(lead, n, done), out=out)
    return acc.reshape((k,) * m)


def contract(vertices: np.ndarray, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Expectation of the finite value vector ``values`` under every row of
    ``vertices``, written into ``out`` when given.

    One ``np.vecdot`` call runs numpy's dot loop on each row: unlike a BLAS
    matrix-vector product, it gives a row the same bits whichever other rows
    are evaluated with it and wherever the row sits in memory, so any subset
    of a model's vertex rows reproduces the whole stack's entries; ``out``
    takes the same bits. Like any ufunc it warns on a product past the float
    range. A joint walk's value tensor goes through :func:`contract_chain`
    instead, into buffers its view holds.
    """
    return np.vecdot(vertices, values, out=out)


def _touching(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Whether each stored row has an entry above zero in a column of
    ``mask``, read from those columns alone: exact however small the entry."""
    return (rows[:, mask] > 0.0).any(axis=1)


def _ext_values(values: np.ndarray, finite, touching) -> np.ndarray:
    """The 0 * inf = 0 rule: ``finite`` of the values with their infs zeroed,
    and inf on each row that the exact ``touching(mask)`` finds on them."""
    inf = np.isinf(values)
    if not inf.any():
        return finite(values)
    out = finite(np.where(inf, 0.0, values))
    out[touching(inf)] = math.inf
    return out


def ext_matvec(matrix, values) -> np.ndarray:
    """Row-wise 0 * inf = 0 product of a dense matrix with a value vector:
    row ``i`` is ``ext_dot(matrix[i], values)`` up to rounding, with the same
    ``inf`` entries.

    The matrix must be 2-D with finite, non-negative entries, and the values
    a vector of its column count with non-negative entries, ``inf`` allowed
    and NaN not. Anything else raises ValueError. A row whose products pass
    the float range is ``inf``, with no warning, as in ``ext_dot``.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"matrix has shape {m.shape}, expected two axes")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if (m < 0).any():
        raise ValueError("matrix entries must be non-negative")
    f = _check_values(values, m.shape[1])
    with np.errstate(over="ignore"):  # a row past the float range is inf, as in ext_dot
        return _ext_values(f, functools.partial(contract, m), functools.partial(_touching, m))


def segment_bounds(counts) -> np.ndarray:
    """CSR-style bounds of consecutive segments of the given lengths."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def segment_rows(starts: np.ndarray, counts: np.ndarray):
    """Positions ``starts[s]`` to ``starts[s] + counts[s] - 1`` for every
    segment ``s``, concatenated in segment order; a slice when each segment
    starts where the one before it ends, so that taking them copies nothing."""
    if not starts.size:
        return slice(0, 0)
    if (starts[1:] - starts[:-1] == counts[:-1]).all():
        return slice(int(starts[0]), int(starts[-1] + counts[-1]))
    bounds = segment_bounds(counts)
    return np.repeat(starts - bounds[:-1], counts) + np.arange(bounds[-1])


def _segment_slots(vals: np.ndarray, bounds: np.ndarray) -> list[np.ndarray]:
    """The per-slot views of ``vals`` when every segment ``bounds[s]:bounds[s +
    1]`` has the same length ``V``: view ``j``, ``vals[j::V]`` over the
    segments, holds entry ``j`` of every segment. Empty when the lengths
    differ or there is no segment. The views read ``vals`` itself, so a
    caller that refills one buffer makes them once."""
    counts = bounds[1:] - bounds[:-1]
    if not counts.size or (counts != counts[0]).any():
        return []
    v = int(counts[0])
    return [vals[bounds[0] + j : bounds[-1] : v] for j in range(v)]


def segment_best(vals: np.ndarray, starts: np.ndarray, opt, slots: list[np.ndarray], out=None) -> np.ndarray:
    """Per segment of ``vals`` that starts at ``starts[s]`` and ends where
    the next one starts, or at the end, its largest entry when ``opt`` is
    ``np.maximum`` and its smallest when it is ``np.minimum``, into ``out``
    when given. With ``slots``, the per-slot views of ``vals``
    (:func:`_segment_slots`), ``V - 1`` binary ``opt`` calls over them (for
    ``V = 1`` the slot against itself, which is the slot); without, one
    ``opt.reduceat``. Max and min are exact, so both give the same bits."""
    if not slots:
        return opt.reduceat(vals, starts, out=out)
    best = opt(slots[0], slots[-1], out=out)
    for slot in slots[1:-1]:
        opt(best, slot, out=best)
    return best


def segment_optimum(vals: np.ndarray, bounds: np.ndarray, sense: str, slots: list[np.ndarray] | None = None):
    """Per segment ``bounds[s]:bounds[s + 1]`` of ``vals``, the largest (upper)
    or smallest (lower) entry (:func:`segment_best`) and the lowest position
    attaining it, counted from the segment start. Every segment must be
    non-empty.

    When every segment has the same length ``V``, the position is one
    equality test and masked write per slot, from the last slot down, so
    that the lowest slot that attains the optimum writes last. ``slots``,
    when given, are the per-slot views of ``vals`` (:func:`_segment_slots`,
    empty for unequal lengths), made once by a caller that refills ``vals``
    in place. Otherwise a search of the optimum's hits gives the position.
    ``==`` is exact, so both ways give the same answer.
    """
    slots = _segment_slots(vals, bounds) if slots is None else slots
    starts = bounds[:-1]
    best = segment_best(vals, starts, np.maximum if sense == "upper" else np.minimum, slots)
    if slots:
        pick = np.full(best.size, len(slots) - 1, dtype=np.int64)
        for j in range(len(slots) - 2, -1, -1):
            np.copyto(pick, j, where=slots[j] == best)
        return best, pick
    hits = np.flatnonzero(vals == np.repeat(best, bounds[1:] - starts))
    # every segment attains its optimum, so its first hit is the first at or after its start
    return best, hits[np.searchsorted(hits, starts)] - starts


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer: an index, never a bool
    and never a float, however whole, that ``int()`` would truncate."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real number, never a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def target_mask(n: int, targets: Iterable[int]) -> np.ndarray:
    """Boolean mask of a non-empty set of state indices."""
    idx = list(targets)
    if not idx:
        raise ValueError("target set is empty")
    mask = np.zeros(n, dtype=bool)
    for t in idx:
        if not is_integer(t):
            raise ValueError(f"target index {t!r} is not an integer")
        if not 0 <= t < n:
            raise ValueError(f"target index {t} out of range for {n} states")
        mask[t] = True
    return mask


def _require_sense(sense: str) -> None:
    if sense not in _SENSES:
        raise ValueError(f"sense must be 'upper' or 'lower', got {sense!r}")


def _check_values(values, n: int) -> np.ndarray:
    f = np.asarray(values, dtype=float)
    if f.shape != (n,):
        raise ValueError(
            f"value vector has shape {f.shape}, expected ({n},)"
        )
    if np.isnan(f).any():
        raise ValueError("value vector contains NaN")
    if (f < 0).any():
        raise ValueError("value vector entries must be non-negative")
    return f


def _optimize(model: CredalMatrix, values, sense: str):
    rows, f = model.stack, _check_values(values, model.size)
    vals = _ext_values(f, functools.partial(contract, rows), functools.partial(_touching, rows))
    return segment_optimum(vals, model.offsets, sense)


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
    :func:`apply_lower`) exactly: both paths evaluate every vertex by one
    0 * inf = 0 rule, and identical inputs give identical bits on one
    machine; :func:`ext_dot` stays the left-to-right reference.
    """
    _require_sense(sense)
    return _optimize(model, values, sense)[1]


def selection_matrix(model: CredalMatrix, selection) -> np.ndarray:
    """Assemble the transition matrix induced by per-state vertex choices."""
    sel = np.asarray(selection, dtype=object)  # each entry as given: no bool read as 1
    if sel.shape != (model.size,):
        raise ValueError(
            f"selection has shape {sel.shape}, expected ({model.size},)"
        )
    wrong = [c for c in sel.tolist() if not is_integer(c)]
    if wrong:
        raise ValueError(f"selection index {wrong[0]!r} is not an integer")
    sel = sel.astype(np.int64)
    stack, offsets = model.stack, model.offsets
    bad = np.flatnonzero((sel < 0) | (sel >= np.diff(offsets)))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"selection index {sel[i]} out of range for row "
            f"{model.space.labels[i]!r} with {model.vertex_count(i)} vertices"
        )
    return stack[offsets[:-1] + sel]
