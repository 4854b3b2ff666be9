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

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import CredalMatrix, StateSpace, _require_sense, choice_values
from .core import segment_bounds, segment_gather, target_mask
from .reach import Classification, classify_view
from .solver import HittingResult, solve_view_policy
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

    ``states`` holds ordered tuples (full mode) or sorted tuples standing for
    multisets (quotient mode), ``state_array`` the same as an array. The one
    map from ordered agent tuples to product states is ``ordered_index``;
    :meth:`index_of`, the diagonal (the meeting target) and the joint view
    read it.
    """

    base: StateSpace
    agents: int
    mode: str
    states: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.states)

    @functools.cached_property
    def state_array(self) -> np.ndarray:
        return np.array(self.states, dtype=np.int64).reshape(self.size, self.agents)

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
        ordered = np.sort(np.indices(shape).reshape(m, -1), axis=0)
        return lookup[np.ravel_multi_index(ordered, shape)]

    @functools.cached_property
    def diagonal(self) -> frozenset[int]:
        n = self.base.size
        step = (n**self.agents - 1) // (n - 1)  # ordered position of (1, ..., 1)
        return frozenset(self.ordered_index[np.arange(n) * step].tolist())

    def target_mask(self) -> np.ndarray:
        return target_mask(self.size, self.diagonal)

    def canonical(self, joint: tuple[int, ...]) -> tuple[int, ...]:
        joint = tuple(int(z) for z in joint)
        return tuple(sorted(joint)) if self.mode == "quotient" else joint

    def index_of(self, joint: tuple[int, ...]) -> int:
        key, n = tuple(int(z) for z in joint), self.base.size
        if len(key) != self.agents or not all(0 <= z < n for z in key):
            raise KeyError(f"joint state {joint!r} is not in the product space")
        return int(self.ordered_index[np.ravel_multi_index(key, (n,) * self.agents)])

    def label(self, index: int) -> str:
        return "(" + ",".join(self.base.labels[z] for z in self.states[index]) + ")"


def build_product_space(space: StateSpace, agents: int, mode: str = "quotient") -> ProductSpace:
    """Enumerate and index the joint state space.

    Full mode lists all ``n**agents`` ordered tuples; quotient mode lists the
    ``C(n+agents-1, agents)`` multisets as sorted tuples. Sizes beyond
    ``MAX_PRODUCT_STATES`` are refused.
    """
    if agents < 2:
        raise ValueError("a joint walk needs at least two agents")
    if mode not in _MODES:
        raise ValueError(f"mode must be 'full' or 'quotient', got {mode!r}")
    n = space.size
    count = n**agents if mode == "full" else math.comb(n + agents - 1, agents)
    if count > MAX_PRODUCT_STATES:
        raise ValueError(
            f"the {mode} product space would have {count} states, above the "
            f"{MAX_PRODUCT_STATES} limit"
        )
    if mode == "full":
        states = tuple(itertools.product(range(n), repeat=agents))
    else:
        states = tuple(itertools.combinations_with_replacement(range(n), agents))
    return ProductSpace(base=space, agents=agents, mode=mode, states=states)


class JointChoices:
    """Choice view of the joint walk; every choice value is read from one table.

    A choice assigns one vertex index per agent in both modes; co-located
    agents may pick different vertices, since the set of joint rows induced
    by the walkers' independent decisions contains all such combinations.
    Quotient mode only changes the destinations, which are aggregated into
    multisets, so its values coincide exactly with the full product's (the
    quotient is a lumping of a permutation-symmetric chain). Choice tuples
    are enumerated in lexicographic order, which fixes the greedy tie-break
    to the lowest tuple.

    A choice's cell is its agents' rows in the model's stacked vertex array.
    Each call contracts the value tensor with that array once per agent
    (:func:`choice_values`); every choice reads the table entry of its cell,
    sorted in quotient mode, where values are symmetric in the cell, so that
    choices that only swap co-located agents' vertices tie exactly. Support
    tests (:meth:`touches`) take the same path with the 0/1 pattern of the
    stacked array in place of the array itself. Values are spread over, and
    rows summed back from, ordered tuples by ``product.ordered_index``, built
    only after the table size passed its guard (the identity in full mode).
    """

    def __init__(self, model: CredalMatrix, product: ProductSpace):
        self.model = model
        self.product = product
        self.n = product.size
        m = product.agents
        self._stack, self._offsets = model.stacked()
        self._pattern = (self._stack > 0.0).astype(float)
        k = self._stack.shape[0]
        if k**m > MAX_TABLE_ENTRIES:
            raise ValueError(
                f"the joint choice-value table would have {k**m} entries ({k} "
                f"vertices, {m} agents), above the {MAX_TABLE_ENTRIES} limit"
            )
        self._tensor_shape = (model.size,) * m
        self._agg = product.ordered_index
        joint = product.state_array
        agent_counts = np.diff(self._offsets)[joint]
        self._counts = agent_counts.prod(axis=1)
        self._bounds = segment_bounds(self._counts)
        # cells in lexicographic tuple order: the last agent's row varies fastest
        owner = np.repeat(np.arange(self.n), self._counts)
        rank = np.arange(self._bounds[-1]) - self._bounds[owner]
        self._cells = np.empty((rank.size, m), dtype=np.int64)
        for j in reversed(range(m)):
            self._cells[:, j] = self._offsets[joint[owner, j]] + rank % agent_counts[owner, j]
            rank //= agent_counts[owner, j]
        keys = np.sort(self._cells, axis=1) if product.mode == "quotient" else self._cells
        self._keys = np.ravel_multi_index(keys.T, (k,) * m)

    def pinned(self, fixed) -> "JointChoices":
        """This view with one choice per state, flat index ``fixed[i]`` at state
        ``i``; it shares the model, the product space and the table path."""
        view = copy.copy(self)
        pick = self._bounds[:-1] + np.asarray(fixed, dtype=np.int64)
        view._cells, view._keys = self._cells[pick], self._keys[pick]
        view._counts = np.ones(self.n, dtype=np.int64)
        view._bounds = segment_bounds(view._counts)
        return view

    def nchoices(self, state: int) -> int:
        return int(self._counts[state])

    def choice_offsets(self, states) -> np.ndarray:
        """Bounds of each state's segment in the output of :meth:`values`."""
        return segment_bounds(self._counts[states])

    def choice_tuples(self, state: int) -> list[tuple[int, ...]]:
        cells = self._cells[self._bounds[state] : self._bounds[state + 1]]
        return list(map(tuple, (cells - self._offsets[list(self.product.states[state])]).tolist()))

    def flat_choice(self, state: int, choice_tuple: tuple[int, ...]) -> int:
        joint = self.product.states[state]
        if len(choice_tuple) != len(joint):
            raise ValueError(
                f"joint state {self.product.label(state)} takes "
                f"{len(joint)} vertex choices, one per agent, got {len(choice_tuple)}"
            )
        flat = 0
        for z, c in zip(joint, choice_tuple):
            count = self.model.vertex_count(z)
            if not 0 <= int(c) < count:
                raise ValueError(
                    f"vertex index {c} out of range for state "
                    f"{self.model.space.labels[z]!r} with {count} vertices"
                )
            flat = flat * count + int(c)
        return flat

    def _table(self, f, vertices: np.ndarray, states) -> np.ndarray:
        """Entry of every choice of ``states`` in the table of ``f`` contracted
        with ``vertices``, flat and in state order; see :func:`choice_values`."""
        f = np.asarray(f, dtype=float)[self._agg].reshape(self._tensor_shape)
        table = choice_values(vertices, f).ravel()
        states = np.atleast_1d(states)
        return table[segment_gather(self._keys, self._bounds[states], self._counts[states])]

    def values(self, states, f) -> np.ndarray:
        """Expectation of ``f`` under every choice of ``states`` (an index or an
        index array), flat and in state order, with the 0 * inf = 0 rule."""
        return self._table(f, self._stack, states)

    def touches(self, states, mask: np.ndarray) -> np.ndarray:
        """Whether each choice of ``states`` puts positive mass on ``mask``, laid
        out as :meth:`values`. The pattern's entries are 0 or 1, so a table entry
        counts destination tuples and no product of small masses can underflow."""
        return self._table(mask, self._pattern, states) > 0.0

    def row(self, state: int, choice: int) -> np.ndarray:
        """Dense joint distribution of one choice over the product states."""
        factors = [self._stack[k] for k in self._cells[self._bounds[state] + choice].tolist()]
        flat = functools.reduce(np.multiply.outer, factors).ravel()
        return np.bincount(self._agg, weights=flat, minlength=self.n)


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
    rows = [model.vertices(z)[c] for z, c in zip(origin, choice)]
    if product.mode == "full":
        weight = 1.0
        for row, dest in zip(rows, destination):
            weight *= row[dest]
        return float(weight)
    total = 0.0
    for arrangement in set(itertools.permutations(destination)):
        weight = 1.0
        for row, dest in zip(rows, arrangement):
            weight *= row[dest]
        total += weight
    return float(total)


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
    joint state tuples (canonicalized), values are vertex-index tuples.
    """
    product = view.product
    fixed = np.zeros(product.size, dtype=np.int64)
    if selection is not None:
        for joint, tup in selection.items():
            i = product.index_of(tuple(joint))
            fixed[i] = view.flat_choice(i, tuple(tup))
    return fixed


def _selection_tuples(view: JointChoices, flat: np.ndarray) -> tuple:
    """The vertex tuple of every state's flat choice, None on the diagonal."""
    cells = view._cells[view._bounds[:-1] + flat] - view._offsets[view.product.state_array]
    tuples = list(map(tuple, cells.tolist()))
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
    res = solve_view_policy(view.pinned(fixed), view.product.target_mask(), "upper", tol, max_iter)
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
    product = build_product_space(model.space, agents, mode)
    view = JointChoices(model, product)
    if belief == "degenerate":
        fixed = _normalize_selection(view, selection)
        res = _solve_degenerate(view, fixed, tol, max_iter)
        return _wrap_result(view, belief, None, None, res)
    if belief == "vacuous":
        res = solve_view_policy(view, product.target_mask(), sense, tol, max_iter)
        return _wrap_result(view, belief, sense, None, res)
    if epsilon is None or not 0.0 <= float(epsilon) <= 1.0:
        raise ValueError("a mixture belief needs epsilon in [0, 1]")
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
    view = JointChoices(model, product)
    off = [i for i in range(product.size) if i not in product.diagonal]
    total = math.prod(view.nchoices(i) for i in off)
    if total > max_assignments:
        raise ValueError(
            f"{total} stationary selections exceed the enumeration limit "
            f"{max_assignments}"
        )
    space = StateSpace(tuple(map(str, range(product.size))))
    rows_cache = {
        i: [view.row(i, c) for c in range(view.nchoices(i))] for i in off
    }
    base = np.zeros((product.size, product.size))
    for d in product.diagonal:
        base[d, d] = 1.0
    diag = sorted(product.diagonal)
    n = model.size
    best = None
    reduce = np.maximum if sense == "upper" else np.minimum
    for combo in itertools.product(*[range(view.nchoices(i)) for i in off]):
        entries = base.copy()
        for i, c in zip(off, combo):
            entries[i] = rows_cache[i][c]
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
