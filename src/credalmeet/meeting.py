"""Joint walks of interchangeable agents and their expected meeting times.

All agents share one credal model. Each observes the current states of the
others and selects a vertex of its own row, so the joint walk over state
tuples is again a credal chain whose rows factor into per-agent choices:
the candidate joint rows are exactly the outer products of per-agent
vertices, enumerated on demand and never stored as an explicit list over
the product alphabet. Meeting is hitting the diagonal of the product space.

Either the full ordered product (``n**m`` states) or its quotient under
agent permutation (multisets, ``C(n+m-1, m)`` states) can be built. Both
let every agent choose its own vertex, co-located or not; the quotient only
aggregates destinations into multisets, which makes it an exact lumping of
the permutation-symmetric full walk. The quotient is the cheaper route;
:func:`quotient_consistency_check` verifies against the full product that
nothing is lost.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import CredalMatrix, StateSpace, _require_sense, contract
from .core import is_integer, is_real, segment_bounds, target_mask
from .reach import ChoiceView, Classification
from .solver import HittingResult, _require_budget, solve_view_policy
from .chain import TransitionMatrix, hitting_times

#: Refusal threshold for the number of joint states.
MAX_PRODUCT_STATES = 1_000_000

#: Refusal threshold for the entries of a joint view's choice-value table,
#: ``K**agents`` for ``K`` stacked vertices: the largest array it allocates.
MAX_TABLE_ENTRIES = 16_000_000

_MODES = ("full", "quotient")
_BELIEFS = ("degenerate", "vacuous", "mixture")


@dataclass(frozen=True)
class ProductSpace:
    """Indexed joint state space of ``agents`` walkers on a shared base space.

    Its states, ordered tuples (full mode) or sorted tuples standing for
    multisets (quotient mode), are enumerated once, on first use, by array
    arithmetic as ``state_array``; ``labels``, :meth:`label`, the joint view
    and ``states`` (tuples, read by no solve) derive from it. The one map
    from ordered agent tuples to product states is ``ordered_index``, read
    by :meth:`index_of`, the diagonal (the meeting target) and the joint
    view. Its quotient form sorts every ordered tuple by a compare-exchange
    network over the agents' rows (:func:`_sorted_rows`), not per tuple.
    """

    base: StateSpace
    agents: int
    mode: str

    @property
    def size(self) -> int:
        n, m = self.base.size, self.agents
        return n**m if self.mode == "full" else math.comb(n + m - 1, m)

    @functools.cached_property
    def state_array(self) -> np.ndarray:
        """The states as a ``(size, agents)`` array, by array arithmetic."""
        n, m = self.base.size, self.agents
        if self.mode == "full":
            return np.indices((n,) * m).reshape(m, -1).T.copy()
        rows = np.arange(n)[:, None]  # the sorted tuples of one agent, then of more
        for _ in range(m - 1):
            # put each a in front of the rows from the first whose lead is a on;
            # in lexicographic order those are exactly the rows with lead >= a
            starts = np.searchsorted(rows[:, 0], np.arange(n))
            counts = len(rows) - starts
            take = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - starts, counts)
            rows = np.column_stack([np.repeat(np.arange(n), counts), rows[take]])
        return rows

    @functools.cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        """``state_array``'s rows as tuples; no solve reads them."""
        return tuple(map(tuple, self.state_array.tolist()))

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """Every state's :meth:`label`, in index order."""
        names = np.array(self.base.labels, dtype=object)[self.state_array.T].tolist()
        return tuple(map(("(" + ",".join(["{}"] * self.agents) + ")").format, *names))

    @functools.cached_property
    def ordered_index(self) -> np.ndarray:
        """Product index of every ordered tuple, ``n**agents`` entries in
        lexicographic order: the identity in full mode, the index of the
        tuple's multiset in quotient mode. Built on first use."""
        if self.mode == "full":
            return np.arange(self.size)
        n, m = self.base.size, self.agents
        if n**m > MAX_TABLE_ENTRIES:
            raise ValueError(f"the ordered-tuple index would have {n**m} entries "
                             f"({n} states, {m} agents), above the {MAX_TABLE_ENTRIES} limit")
        shape = (n,) * m
        lookup = np.empty(n**m, dtype=np.int64)
        lookup[np.ravel_multi_index(self.state_array.T, shape)] = np.arange(self.size)
        # the sorted tuples in the smallest type that holds a state, dropped
        # before the gather: the peak stays at three index-sized arrays
        ordered = _sorted_rows(np.indices(shape, dtype=np.min_scalar_type(n - 1)).reshape(m, -1))
        flat = np.ravel_multi_index(ordered, shape)
        del ordered
        return lookup[flat]

    @functools.cached_property
    def diagonal(self) -> frozenset[int]:
        n = self.base.size
        step = (n**self.agents - 1) // (n - 1)  # ordered position of (1, ..., 1)
        return frozenset(self.ordered_index[np.arange(n) * step].tolist())

    def target_mask(self) -> np.ndarray:
        return target_mask(self.size, self.diagonal)

    def canonical(self, joint: tuple[int, ...]) -> tuple[int, ...]:
        if not all(map(is_integer, joint)):
            raise ValueError(f"joint state {joint!r} must list integer base states")
        if not all(0 <= z < self.base.size for z in joint):
            raise ValueError(f"joint state {joint!r} is out of range for {self.base.size} base states")
        joint = tuple(map(int, joint))
        return tuple(sorted(joint)) if self.mode == "quotient" else joint

    def index_of(self, joint: tuple[int, ...]) -> int:
        key, n = tuple(joint), self.base.size
        if len(key) != self.agents or not all(is_integer(z) and 0 <= z < n for z in key):
            raise KeyError(f"joint state {joint!r} is not in the product space")
        return int(self.ordered_index[np.ravel_multi_index(key, (n,) * self.agents)])

    def label(self, index: int) -> str:
        if not (is_integer(index) and 0 <= index < self.size):
            raise ValueError(f"product state index {index!r} is not an integer in [0, {self.size})")
        return "(" + ",".join(self.base.labels[z] for z in self.state_array[index].tolist()) + ")"


def _sorted_rows(rows) -> list[np.ndarray]:
    """The equally long arrays ``rows`` sorted position by position: array
    ``j`` of the result holds the ``j``-th smallest entry at each position.
    A bubble network of compare-exchanges, one ``np.minimum`` and
    ``np.maximum`` pair each; the inputs are not written."""
    rows = list(rows)
    for top in range(len(rows) - 1, 0, -1):
        for j in range(top):
            rows[j], rows[j + 1] = np.minimum(rows[j], rows[j + 1]), np.maximum(rows[j], rows[j + 1])
    return rows


def build_product_space(space: StateSpace, agents: int, mode: str = "quotient") -> ProductSpace:
    """The joint state space, sized but not yet enumerated.

    Full mode has all ``n**agents`` ordered tuples; quotient mode has the
    ``C(n+agents-1, agents)`` multisets as sorted tuples. Sizes beyond
    ``MAX_PRODUCT_STATES`` are refused before anything is allocated.
    """
    if not is_integer(agents):
        raise ValueError(f"the agent count must be an integer, got {agents!r}")
    if agents < 2:
        raise ValueError("a joint walk needs at least two agents")
    if mode not in _MODES:
        raise ValueError(f"mode must be 'full' or 'quotient', got {mode!r}")
    product = ProductSpace(base=space, agents=int(agents), mode=mode)
    if product.size > MAX_PRODUCT_STATES:
        raise ValueError(f"the {mode} product space would have {product.size} states, "
                         f"above the {MAX_PRODUCT_STATES} limit")
    return product


class JointChoices(ChoiceView):
    """Choice view of the joint walk; every choice value is read from one table.

    A choice assigns one vertex index per agent in both modes; co-located
    agents may pick different vertices, since the set of joint rows induced
    by the walkers' independent decisions contains all such combinations.
    Quotient mode only changes the destinations, which are aggregated into
    multisets, so its values coincide exactly with the full product's (the
    quotient is a lumping of a permutation-symmetric chain). Choice tuples
    are enumerated in lexicographic order, which fixes the greedy tie-break
    to the lowest tuple.

    A choice's cell is its agents' rows in the model's stacked vertex array,
    and its key the cell's position in the table of all cells; cells and
    keys are the view's row arrays. Each evaluation contracts the value
    tensor with that array once per agent
    (:func:`~credalmeet.core.contract`); every choice reads the table entry
    of its key, the sorted cell's in quotient mode (sorted by the network of
    :func:`_sorted_rows` over the agents' columns), where values are
    symmetric in the cell, so that choices that only swap co-located agents'
    vertices tie exactly. Support tests (:meth:`touches`) contract the 0/1
    mask with the 0/1 pattern of the stacked array in place of the array
    itself. A pinned view from :meth:`restrict` (one choice per state: a
    precise joint walk) holds its own cells and keys and reads the same table.
    Values are spread over, and rows summed back from, ordered tuples by
    ``product.ordered_index``, built only after the table size passed its
    guard (the identity in full mode).
    """

    _row_arrays = ("_cells", "_keys")

    def __init__(self, model: CredalMatrix, product: ProductSpace):
        self.model = model
        self.product = product
        self.n = product.size
        m = product.agents
        self._pattern = (model.stack > 0.0).astype(float)
        k = model.stack.shape[0]
        if k**m > MAX_TABLE_ENTRIES:
            raise ValueError(
                f"the joint choice-value table would have {k**m} entries ({k} "
                f"vertices, {m} agents), above the {MAX_TABLE_ENTRIES} limit"
            )
        self._tensor_shape = (model.size,) * m
        self._agg = product.ordered_index
        joint = product.state_array
        agent_counts = np.diff(model.offsets)[joint]
        self._counts = functools.reduce(np.multiply, agent_counts.T)
        bounds = segment_bounds(self._counts)
        self._starts = bounds[:-1]
        # cells in lexicographic tuple order: each state's agents' first rows,
        # plus the digits of the rank in its segment, the last agent's fastest
        cells = np.repeat(model.offsets[joint], self._counts, axis=0)
        rank = np.arange(bounds[-1]) - np.repeat(self._starts, self._counts)
        for j in reversed(range(m)):
            rank, pick = np.divmod(rank, np.repeat(agent_counts[:, j], self._counts))
            cells[:, j] += pick
        keys = _sorted_rows(cells.T) if product.mode == "quotient" else cells.T
        self._cells, self._keys = cells, np.ravel_multi_index(keys, (k,) * m)

    def choice_tuples(self, state: int) -> list[tuple[int, ...]]:
        start = self._starts[state]
        cells = self._cells[start : start + self._counts[state]]
        return list(map(tuple, (cells - self.model.offsets[self.product.state_array[state]]).tolist()))

    def flat_choice(self, state: int, choice_tuple: tuple[int, ...]) -> int:
        joint = self.product.state_array[state].tolist()
        if len(choice_tuple) != len(joint):
            raise ValueError(
                f"joint state {self.product.label(state)} takes "
                f"{len(joint)} vertex choices, one per agent, got {len(choice_tuple)}"
            )
        flat = 0
        for k, (z, c) in enumerate(zip(joint, choice_tuple)):
            if not is_integer(c):
                raise ValueError(f"selection for joint state {self.product.label(state)}: "
                                 f"entry {k} is not an integer ({c!r})")
            count = self.model.vertex_count(z)
            if not 0 <= int(c) < count:
                raise ValueError(
                    f"vertex index {c} out of range for state "
                    f"{self.model.space.labels[z]!r} with {count} vertices"
                )
            flat = flat * count + int(c)
        return flat

    def _contract(self, rows: np.ndarray, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per choice, into ``out`` when given, the entry at its key of the
        table that :func:`contract` makes of ``rows`` (the stack or its 0/1
        pattern) and ``f`` spread over the ordered tuples."""
        table = contract(rows, f[self._agg].reshape(self._tensor_shape))
        return np.take(table.ravel(), self._keys, out=out)

    def finite_values(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Expectation of the finite ``f`` under every choice, laid out as
        ``values(None, f)``, into ``out`` when given."""
        return self._contract(self.model.stack, f, out)

    def _touches(self, mask: np.ndarray) -> np.ndarray:
        # the pattern's entries are 0 or 1, so a table entry counts destination
        # tuples and no product of small masses can underflow
        return self._contract(self._pattern, np.asarray(mask, dtype=float)) > 0.0

    def _block_plan(self, states: np.ndarray):
        """The base states that ``states`` hold, and the pinned cells per chunk
        of :meth:`block`, chosen so that a chunk's products, bin indices and
        sums each take about a quarter of the block at most."""
        k, m = states.size, self.product.agents
        base = np.flatnonzero(np.bincount(self.product.state_array[states].ravel(), minlength=self.model.size))
        return base, max(1, k * k // max(1, 4 * base.size**m))

    def block(self, states: np.ndarray, choice: np.ndarray) -> np.ndarray:
        """Per chunk of the selected cells (:meth:`_block_plan`), the outer
        product of their agents' vertex rows over the ordered tuples of the
        base states in ``states``, summed into the columns ``states`` (and a
        dropped last column for the other tuples) by one ``bincount``."""
        k, m, n = states.size, self.product.agents, self.model.size
        base, step = self._block_plan(states)
        tuples = np.ravel_multi_index(np.ix_(*[base] * m), (n,) * m).ravel()
        column = np.full(self.n, k)
        column[states] = np.arange(k)
        index = ((np.arange(step) * (k + 1))[:, None] + column[self._agg[tuples]]).ravel()
        rows, cells = self.model.stack[:, base], self._cells[self._starts[states] + choice]
        out = np.empty((k, k))
        for lo in range(0, k, step):
            flat = functools.reduce(lambda a, b: (a[:, :, None] * b[:, None, :]).reshape(len(a), -1),
                                    rows[cells[lo : lo + step].T])
            out[lo : lo + len(flat)] = np.bincount(
                index[: flat.size], flat.ravel(), len(flat) * (k + 1)).reshape(-1, k + 1)[:, :k]
            del flat  # before the next chunk's products are allocated
        return out

    def block_bytes(self, states: np.ndarray) -> int:
        """Bytes that :meth:`block` on ``states`` holds at its peak, at most:
        the block; the column map; the selected cells; the ordered tuples and
        two gathers of them; the bin index; the agents' rows over the base
        states; and one chunk's gathered rows, products (two for three agents
        or more) and sums."""
        k, m = states.size, self.product.agents
        base, step = self._block_plan(states)
        b, t = base.size, base.size**m
        return 8 * (k * k + self.n + 2 * k * m + 4 * k + 3 * t + step * t
                    + self.model.stack.shape[0] * b + step * (m * b + 2 * t + k + 1))


def joint_transition_weight(
    model: CredalMatrix,
    product: ProductSpace,
    origin: tuple[int, ...],
    choice: tuple[int, ...],
    destination: tuple[int, ...],
) -> float:
    """Probability that the chosen vertices move ``origin`` to ``destination``.

    ``choice`` holds one vertex index per agent, aligned with the canonical
    form of ``origin`` (sorted in quotient mode). In quotient mode the
    weight sums over every ordered arrangement of the destination multiset.
    For a fixed origin and choice the weights over all destinations sum to
    one.
    """
    origin = product.canonical(origin)
    destination = product.canonical(destination)
    if len(origin) != product.agents or len(destination) != product.agents:
        raise ValueError("joint states must list one base state per agent")
    if len(choice) != product.agents:
        raise ValueError("a joint choice takes one vertex index per agent")
    for k, (z, c) in enumerate(zip(origin, choice)):
        if not (is_integer(c) and 0 <= c < model.vertex_count(z)):
            raise ValueError(f"choice entry {k} ({c!r}) is not a vertex index of row "
                             f"{model.space.labels[z]!r} with {model.vertex_count(z)} vertices")
    rows = [model.vertices(z)[c] for z, c in zip(origin, choice)]
    arrangements = [destination] if product.mode == "full" else set(itertools.permutations(destination))
    return float(sum(math.prod(row[dest] for row, dest in zip(rows, arrangement))
                     for arrangement in arrangements))


@dataclass
class MeetingResult:
    """Expected meeting times of a joint walk plus the optimizing choices.

    ``values`` is indexed by the product space, zero on the diagonal.
    ``selections`` holds per joint state the chosen vertex tuple; it is None
    on the diagonal and a lowest-index placeholder on states whose value is
    infinite, since no choice matters there. For a mixture belief the
    classification and selections describe the vacuous component, whose
    optimizers do not depend on the mixing weight.
    """

    product: ProductSpace
    belief: str
    sense: str | None
    epsilon: float | None
    values: np.ndarray
    selections: tuple[tuple[int, ...] | None, ...]
    classification: Classification
    iterations: int
    residual: float
    converged: bool

    def value_at(self, joint: tuple[int, ...]) -> float:
        return float(self.values[self.product.index_of(joint)])

    def matrix(self) -> np.ndarray:
        """Meeting times as an (n, n) start-pair matrix; two agents only."""
        if self.product.agents != 2:
            raise ValueError("the matrix form exists only for two agents")
        n = self.product.base.size
        return self.values[self.product.ordered_index].reshape(n, n)


def _normalize_selection(
    view: JointChoices,
    selection: Mapping[tuple[int, ...], tuple[int, ...]] | None,
) -> np.ndarray:
    """Resolve a user selection to flat choice indices on every joint state.

    Unspecified joint states fall back to vertex 0 for every agent. Keys are
    joint state tuples, values are vertex-index tuples. In quotient mode a
    key must be its state, sorted, since the indices align with it: an
    unsorted key is refused rather than read with its indices out of order.
    """
    product = view.product
    fixed = np.zeros(product.size, dtype=np.int64)
    if selection is not None:
        for joint, tup in selection.items():
            i = product.index_of(tuple(joint))
            key = tuple(map(int, joint))
            if product.mode == "quotient" and key != tuple(sorted(key)):
                raise ValueError(f"selection key {key} of state {product.label(i)} is not sorted: in quotient "
                                 f"mode the key is {tuple(sorted(key))}, and the indices align with it")
            fixed[i] = view.flat_choice(i, tuple(tup))
    return fixed


def _selection_tuples(view: JointChoices, flat: np.ndarray) -> tuple:
    """The vertex tuple of every state's flat choice, None on the diagonal."""
    cells = view._cells[view._starts + flat] - view.model.offsets[view.product.state_array]
    tuples = list(zip(*cells.T.tolist()))
    for i in view.product.diagonal:
        tuples[i] = None
    return tuple(tuples)


def _wrap_result(view, belief, sense, epsilon, res: HittingResult) -> MeetingResult:
    return MeetingResult(
        product=view.product,
        belief=belief,
        sense=sense,
        epsilon=epsilon,
        values=res.values,
        selections=_selection_tuples(view, res.selection),
        classification=res.classification,
        iterations=res.iterations,
        residual=res.residual,
        converged=res.converged,
    )


def _solve_degenerate(view: JointChoices, fixed: np.ndarray, tol, max_iter) -> HittingResult:
    pinned = view.restrict(np.arange(view.n), fixed)
    res = solve_view_policy(pinned, view.product.target_mask(), "upper", tol, max_iter)
    res.selection = fixed
    return res


def _mix_values(deg: np.ndarray, vac: np.ndarray, epsilon: float) -> np.ndarray:
    """Combine component values; any infinite component with positive weight wins."""
    if epsilon == 0.0:
        return deg.copy()
    if epsilon == 1.0:
        return vac.copy()
    out = np.empty_like(deg)
    infinite = np.isinf(deg) | np.isinf(vac)
    out[infinite] = math.inf
    out[~infinite] = (1.0 - epsilon) * deg[~infinite] + epsilon * vac[~infinite]
    return out


def meet(
    model: CredalMatrix,
    agents: int = 2,
    belief: str = "vacuous",
    sense: str = "upper",
    mode: str = "quotient",
    selection: Mapping | None = None,
    epsilon: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 1_000,
) -> MeetingResult:
    """Expected meeting times of ``agents`` walkers under a belief about their choices.

    belief = "degenerate"
        The walkers use exactly the given ``selection`` (vertex 0 everywhere
        when omitted); the joint chain is precise and one linear solve, with
        its infinite-state pre-pass, gives the values.
    belief = "vacuous"
        Nothing is known about the choices; policy iteration over the joint
        choice sets returns the tight upper or lower envelope together with
        the optimizing selection. Scanning vertex tuples is exact because
        the joint rows depend multilinearly on the per-agent rows, so the
        extreme values are attained at tuples of vertices.
    belief = "mixture"
        With weight ``1 - epsilon`` the walkers follow ``selection`` and with
        weight ``epsilon`` they are unconstrained; the value is the affine
        combination of the two components, infinite whenever a positively
        weighted component is infinite.
    """
    if belief not in _BELIEFS:
        raise ValueError(
            f"belief must be one of {', '.join(_BELIEFS)}, got {belief!r}"
        )
    if belief != "degenerate":
        _require_sense(sense)
    _require_budget(tol, max_iter)
    product = build_product_space(model.space, agents, mode)
    view = JointChoices(model, product)
    if belief == "degenerate":
        fixed = _normalize_selection(view, selection)
        res = _solve_degenerate(view, fixed, tol, max_iter)
        return _wrap_result(view, belief, None, None, res)
    if belief == "vacuous":
        res = solve_view_policy(view, product.target_mask(), sense, tol, max_iter)
        return _wrap_result(view, belief, sense, None, res)
    if not (is_real(epsilon) and 0.0 <= epsilon <= 1.0):
        raise ValueError(f"a mixture belief needs a real epsilon in [0, 1], got {epsilon!r}")
    epsilon = float(epsilon)
    fixed = _normalize_selection(view, selection)
    deg = _solve_degenerate(view, fixed, tol, max_iter)
    vac = solve_view_policy(view, product.target_mask(), sense, tol, max_iter)
    mixed = _wrap_result(view, "mixture", sense, epsilon, vac)
    mixed.values = _mix_values(deg.values, vac.values, epsilon)
    mixed.converged = deg.converged and vac.converged
    mixed.iterations = deg.iterations + vac.iterations
    mixed.residual = max(deg.residual, vac.residual)
    return mixed


def exhaustive_meeting_times(
    model: CredalMatrix,
    sense: str,
    max_assignments: int = 200_000,
) -> np.ndarray:
    """Two-agent meeting-time envelope by brute force over stationary selections.

    Enumerates every assignment of one vertex pair to every ordered off
    diagonal pair state, solves each resulting precise joint chain, and
    keeps the componentwise extreme. Exponential in the number of pair
    states, intended as a small-scale oracle.
    """
    _require_sense(sense)
    product = build_product_space(model.space, 2, "full")
    off = [i for i in range(product.size) if i not in product.diagonal]
    pairs = [product.states[i] for i in off]
    total = math.prod(model.vertex_count(x) * model.vertex_count(y) for x, y in pairs)
    if total > max_assignments:
        raise ValueError(
            f"{total} stationary selections exceed the enumeration limit "
            f"{max_assignments}"
        )
    space = StateSpace(tuple(map(str, range(product.size))))
    # joint rows built here, not by the joint view whose solver this checks
    choices = [[np.outer(a, b).ravel() for a in model.vertices(x) for b in model.vertices(y)]
               for x, y in pairs]
    base = np.zeros((product.size, product.size))
    for d in product.diagonal:
        base[d, d] = 1.0
    diag = sorted(product.diagonal)
    n = model.size
    best = None
    reduce = np.maximum if sense == "upper" else np.minimum
    for combo in itertools.product(*choices):
        entries = base.copy()
        entries[off] = combo
        h = hitting_times(TransitionMatrix(space, entries), diag)
        best = h if best is None else reduce(best, h)
    return best.reshape(n, n)


@dataclass(frozen=True)
class QuotientReport:
    """Comparison of full-product and quotient-product meeting values."""

    full_states: int
    quotient_states: int
    max_discrepancy: float
    infinity_matches: bool
    mismatched: tuple[str, ...]


def _expand_selection(selection: Mapping | None, quot: ProductSpace):
    """Rewrite a selection on the quotient ``quot`` as a full-product selection.

    Quotient choices are aligned with the sorted tuple; each ordered tuple
    hands the group's vertex indices to its agents in positional order
    (any assignment within a group aggregates to the same joint row), which
    is where a stable sort of the ordered tuple puts them.
    """
    if selection is None:
        return None
    table = np.full((quot.size, quot.agents), -1)  # -1: no choice given
    for joint, tup in selection.items():
        table[quot.index_of(joint)] = tup
    rows = np.flatnonzero(table[quot.ordered_index, 0] >= 0)
    ordered = np.stack(np.unravel_index(rows, (quot.base.size,) * quot.agents), axis=1)
    expanded = np.empty_like(ordered)
    order = np.argsort(ordered, axis=1, kind="stable")
    np.put_along_axis(expanded, order, table[quot.ordered_index[rows]], axis=1)
    return dict(zip(map(tuple, ordered.tolist()), map(tuple, expanded.tolist())))


def quotient_consistency_check(
    model: CredalMatrix,
    agents: int = 2,
    belief: str = "vacuous",
    sense: str = "upper",
    selection: Mapping | None = None,
    epsilon: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 1_000,
) -> QuotientReport:
    """Solve on both the full and the quotient product and compare.

    Reports the largest absolute difference between the value at an ordered
    tuple and the value at its multiset (over entries finite in both), and
    whether the infinite patterns agree. A degenerate or mixture selection
    is given in quotient form (the quotient run validates it) and expanded
    symmetrically for the full run.
    """
    quot = meet(
        model, agents, belief, sense, "quotient",
        selection=selection, epsilon=epsilon, tol=tol, max_iter=max_iter,
    )
    full = meet(
        model, agents, belief, sense, "full",
        selection=_expand_selection(selection, quot.product),
        epsilon=epsilon, tol=tol, max_iter=max_iter,
    )
    # both value vectors at every ordered tuple, in the full product's order
    a = full.values[full.product.ordered_index]
    b = quot.values[quot.product.ordered_index]
    finite = np.isfinite(a) & np.isfinite(b)
    mismatched = tuple(full.product.label(i) for i in np.flatnonzero(np.isinf(a) != np.isinf(b)))
    return QuotientReport(
        full_states=full.product.size,
        quotient_states=quot.product.size,
        max_discrepancy=float(np.max(np.abs(a[finite] - b[finite]), initial=0.0)),
        infinity_matches=not mismatched,
        mismatched=mismatched,
    )
