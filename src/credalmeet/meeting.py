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

from .core import CredalMatrix, StateSpace, _require_sense, chain_sizes, contract_chain
from .core import is_integer, is_real, segment_bounds, target_mask
from .reach import ChoiceView, Classification
from .solver import HittingResult, _require_budget, solve_view_policy
from .chain import TransitionMatrix, hitting_times

#: Refusal threshold for the number of joint states.
MAX_PRODUCT_STATES = 1_000_000

#: Refusal threshold for the entries of a joint view's choice-value table,
#: ``K**agents`` for ``K`` stacked vertices: held while the view lives.
MAX_TABLE_ENTRIES = 16_000_000

_MODES = ("full", "quotient")
_BELIEFS = ("degenerate", "vacuous", "mixture")


@dataclass(frozen=True)
class ProductSpace:
    """Indexed joint state space of ``agents`` walkers on a shared base space.

    One map defines which ordered agent tuples are one state: :meth:`code`,
    the flat position of each tuple's least equivalent tuple (the tuple
    itself in full mode, the tuple sorted by a compare-exchange network over
    the agents' rows, :func:`_sorted_rows`, in quotient mode). Both indexed
    forms derive from it, built together by array arithmetic on first use:
    ``state_array``, the tuples that are their own code in lexicographic
    order (read by ``labels``, :meth:`label`, the joint view and ``states``,
    tuples read by no solve), and ``ordered_index``, the state of every
    ordered tuple (read by :meth:`index_of`, the diagonal, which is the
    meeting target, and the joint view, whose choice keys are codes too).
    """

    base: StateSpace
    agents: int
    mode: str

    @property
    def size(self) -> int:
        n, m = self.base.size, self.agents
        return n**m if self.mode == "full" else math.comb(n + m - 1, m)

    def code(self, tuples, radix: int) -> np.ndarray:
        """The flat position, among the ``radix**agents`` tuples in
        lexicographic order, of the least tuple equivalent to each of
        ``tuples`` (one array per agent): the tuple itself in full mode, the
        tuple sorted by :func:`_sorted_rows` in quotient mode."""
        rows = _sorted_rows(tuples) if self.mode == "quotient" else tuples
        return np.ravel_multi_index(rows, (radix,) * self.agents)

    @functools.cached_property
    def state_array(self) -> np.ndarray:
        """The states as a ``(size, agents)`` array: the ordered tuples that
        are their own :meth:`code`, in lexicographic order. Built together
        with ``ordered_index``, on first use of either."""
        n, m = self.base.size, self.agents
        if n**m > MAX_TABLE_ENTRIES:
            raise ValueError(f"the ordered-tuple index would have {n**m} entries "
                             f"({n} states, {m} agents), above the {MAX_TABLE_ENTRIES} limit")
        # every ordered tuple in the smallest type that holds a state; the
        # peak stays at three index-sized arrays, at the final gather
        tuples = np.indices((n,) * m, dtype=np.min_scalar_type(n - 1)).reshape(m, -1)
        codes = self.code(tuples, n)
        own = codes == np.arange(codes.size)
        states, rank = np.compress(own, tuples, axis=1), own.astype(np.int64)
        del tuples, own
        np.cumsum(rank, out=rank)
        rank -= 1
        self.__dict__["ordered_index"] = rank[codes]
        del rank, codes  # before the states widen to int64
        return np.ascontiguousarray(states.T, dtype=np.int64)

    @functools.cached_property
    def ordered_index(self) -> np.ndarray:
        """Product index of every ordered tuple, ``n**agents`` entries in
        lexicographic order: the rank of the tuple's :meth:`code` among the
        states. Built together with ``state_array``, on first use of either."""
        self.state_array
        return self.__dict__["ordered_index"]

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
    and its key, held in ``_rows``, the cell's :meth:`ProductSpace.code` in
    the table of all cells: the sorted cell's in quotient mode, where values
    are symmetric in the cell. A choice is its key. Each evaluation contracts
    the value tensor with the stacked array once per agent
    (:func:`~credalmeet.core.contract_chain`: one right product with the
    transposed stack for the last agent, then one batched left product with
    the stack per earlier agent) and reads the table at the keys,
    :meth:`touches` does the same with the 0/1 mask and pattern, and
    :meth:`block` decodes the keys to cells; so choices that only swap
    co-located agents' vertices tie exactly in all three, on the view and on
    its pins from :meth:`restrict` (one choice per state: a precise joint
    walk). Only the result's vertex indices read ``_cells``, the cells in
    agent order, and only on the unpinned view. Values are spread over, and rows
    summed back from, ordered tuples by ``product.ordered_index``, built
    only after the table size passed its guard.

    The view allocates what its contractions write once, after the guard:
    for ``K`` vertex rows, ``n`` base states and ``m`` agents, the table of
    ``K**m`` entries, the chain's scratch of at most ``n * K**(m - 1)``, the
    value tensor of ``n**m`` and the C-contiguous transposes of the stack
    and of the 0/1 pattern, ``K * n`` each. Every contraction writes into
    them, and its pins share them through their shallow copy. So a
    contraction on a view and one on its pins must not interleave: each
    reads its entries out before the next one starts. The guard counts the
    table's entries alone; since ``K >= n``, the scratch and the tensor are
    no larger than the table. A :meth:`region` of some states' choices
    contracts only the vertex rows and base states they read, into smaller
    buffers of its own that its pins share in turn.
    """

    def __init__(self, model: CredalMatrix, product: ProductSpace):
        self.model = model
        self.product = product
        self.n = product.size
        m = product.agents
        self._stack = model.stack
        self._pattern = (model.stack > 0.0).astype(float)
        # whether the vertex rows together reach every base state, so that a
        # region that holds them all holds every column too
        self._reaches_all = bool(self._pattern.any(axis=0).all())
        k = model.stack.shape[0]
        if k**m > MAX_TABLE_ENTRIES:
            raise ValueError(
                f"the joint choice-value table would have {k**m} entries ({k} "
                f"vertices, {m} agents), above the {MAX_TABLE_ENTRIES} limit"
            )
        self._vertex = np.arange(k)
        self._agg = product.ordered_index.reshape((model.size,) * m)
        self._hold_operands()
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
        self._cells, self._rows = cells, product.code(cells.T, k)

    def region(self, states):
        """The choices of ``states`` (:meth:`ChoiceView.region`), contracted
        over only what they read: the vertex rows that their keys' cells
        hold, over the base states that those rows reach. Its keys are the
        cells' codes among those rows, whose order it keeps, so a sorted cell
        stays sorted; its stack and 0/1 pattern are those rows' entries in
        those columns, its ``_agg`` is the ordered tuples of those base
        states, and its table, ``R**agents`` entries for ``R`` rows, is
        allocated here, once, with the rest of :meth:`_hold_operands`, and
        shared by its pins. It may keep fewer rows than base states, so the
        chain's buffers are sized for every step, and the first can be
        larger than the table in its head. A row puts no mass
        outside the columns kept, so the region's values are the view's up
        to the rounding that a contraction over fewer rows or columns moves,
        and its support tests, which count destination tuples, are exact.
        :meth:`block` decodes its keys to the model's rows, so its blocks are
        the view's, bit for bit. A region that reads every row and every
        base state contracts the view's own table and allocates none; when
        the view holds every choice and its rows together reach every base
        state (known once per view), a region whose states hold every base
        state is one, found without a scan of the rows or columns."""
        region = super().region(states)
        keys, (k, *_), m = region._rows, self._stack.shape, self.product.agents
        if len(self._rows) == len(self._cells):
            # this view holds every choice of the walk, so the region holds
            # every vertex row of its states' base states
            held = np.zeros(self.model.size, dtype=bool)
            # np.take gathers the states' rows in a third of the time that indexing takes
            held[np.take(self.product.state_array, states, axis=0)] = True
            if self._reaches_all and held.all():  # every row, over every base state
                return region
            used = np.repeat(held, np.diff(self.model.offsets))[self._vertex]
        else:
            used = np.zeros(k, dtype=bool)
            for j in range(m):  # one agent's digits of the keys at a time
                used[keys // k**j % k] = True
        rows = np.flatnonzero(used)
        base = np.flatnonzero(self._pattern[rows].any(axis=0))
        if not rows.size or (rows.size == k and base.size == self._stack.shape[1]):
            return region
        if region is self:  # a pin of these states alone: a copy to hold the region
            region = copy.copy(self)
            region._pin_of = (None, None)
        rank = np.cumsum(used) - 1
        region._rows = np.zeros_like(keys)
        for j in range(m):
            region._rows += rank[keys // k**j % k] * rows.size**j
        region._stack = self._stack[np.ix_(rows, base)]
        region._pattern = self._pattern[np.ix_(rows, base)]
        region._vertex = self._vertex[rows]
        region._agg = self._agg[np.ix_(*[base] * m)]
        region._hold_operands()
        return region

    def _hold_operands(self):
        """Allocate what the contractions of this view's ``_stack`` and
        ``_pattern`` read and write, once: their C-contiguous transposes,
        the value tensor, ``n**agents`` entries for ``n`` base states, and
        :func:`~credalmeet.core.contract_chain`'s two buffers, the first
        holding ``_table`` in its head."""
        (k, n), m = self._stack.shape, self.product.agents
        self._stack_t = np.ascontiguousarray(self._stack.T)
        self._pattern_t = np.ascontiguousarray(self._pattern.T)
        self._tensor = np.empty((n,) * m)
        self._buffers = tuple(map(np.empty, chain_sizes(k, n, m)))
        self._table = self._buffers[0][: k**m].reshape((k,) * m)

    def choice_tuples(self, state: int) -> list[tuple[int, ...]]:
        """Every choice of ``state`` as a vertex tuple, inverse to :meth:`flat_choice`."""
        joint = self.product.state_array[state].tolist()
        return list(itertools.product(*(range(self.model.vertex_count(z)) for z in joint)))

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

    def _contract(self, rows: np.ndarray, rows_t: np.ndarray, f: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Per choice, into ``out`` when given, the entry at its key of the
        view's table, into which :func:`~credalmeet.core.contract_chain`
        writes ``rows`` (the stack or its 0/1 pattern, ``rows_t`` their
        transpose) contracted with ``f`` spread over the ordered tuples of
        the base states in their columns, gathered into the view's tensor."""
        # the indices are in range, and mode="clip" gathers straight into
        # ``out``, where the default mode gathers into a buffer first
        np.take(f, self._agg, out=self._tensor, mode="clip")
        contract_chain(rows, rows_t, self._tensor, self._buffers)
        return np.take(self._buffers[0], self._rows, out=out, mode="clip")

    def finite_values(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Expectation of the finite ``f`` under every choice, laid out as
        ``values(f)``, into ``out`` when given."""
        return self._contract(self._stack, self._stack_t, f, out)

    def _table_read(self, out: np.ndarray):
        """:meth:`ChoiceView._table_read`: the gather of the table at the
        view's keys that ends :meth:`_contract`, on its own."""
        return functools.partial(np.take, self._buffers[0], self._rows, None, out, "clip")

    def touches(self, mask: np.ndarray) -> np.ndarray:
        """Whether each choice, laid out as ``values(f)``, puts positive mass
        on ``mask``: the entry at its key of the table that the 0/1 mask
        makes with the 0/1 pattern."""
        # the pattern's entries are 0 or 1, so a table entry counts destination
        # tuples and no product of small masses can underflow
        return self._contract(self._pattern, self._pattern_t, np.asarray(mask, dtype=float)) > 0.0

    def _block_plan(self, states: np.ndarray):
        """The base states that ``states`` hold, and the pinned cells per chunk
        of :meth:`block`, chosen so that a chunk's products, bin indices and
        sums each take about a quarter of the block at most."""
        k, m = states.size, self.product.agents
        held = np.take(self.product.state_array, states, axis=0)
        base = np.flatnonzero(np.bincount(held.ravel(), minlength=self.model.size))
        return base, max(1, k * k // max(1, 4 * base.size**m))

    def block(self, states: np.ndarray, choice: np.ndarray) -> np.ndarray:
        """Per chunk of the selected cells (:meth:`_block_plan`), decoded from
        their keys, the outer product of their agents' vertex rows over the
        ordered tuples of the base states in ``states``, summed into the
        columns ``states`` (and a dropped last column for the other tuples)
        by one ``bincount``."""
        k, m, n = states.size, self.product.agents, self.model.size
        base, step = self._block_plan(states)
        tuples = np.ravel_multi_index(np.ix_(*[base] * m), (n,) * m).ravel()
        column = np.full(self.n, k)
        column[states] = np.arange(k)
        index = ((np.arange(step) * (k + 1))[:, None] + column[self.product.ordered_index[tuples]]).ravel()
        rows = self.model.stack[:, base]
        keys = self._rows[self._starts[states] + choice]
        cells = [self._vertex[c] for c in np.unravel_index(keys, self._table.shape)]
        out = np.empty((k, k))
        for lo in range(0, k, step):
            flat = functools.reduce(lambda a, b: (a[:, :, None] * b[:, None, :]).reshape(len(a), -1),
                                    [rows[c[lo : lo + step]] for c in cells])
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


@dataclass(eq=False)  # ndarray fields: results compare by identity
class MeetingResult:
    """Expected meeting times of a joint walk plus the optimizing choices.

    ``values`` is indexed by the product space, zero on the diagonal.
    ``selections`` holds per joint state the chosen vertex tuple; it is None
    on the diagonal and a lowest-index placeholder on states whose value is
    infinite, since no choice matters there. It is not a field: the result
    holds the chosen vertex indices as one ``(states, agents)`` array,
    ``choices``, and builds the tuples from it on the first read of
    ``selections``, which every later read returns. For a mixture belief the
    classification and selections describe the vacuous component, whose
    optimizers do not depend on the mixing weight.
    """

    product: ProductSpace
    belief: str
    sense: str | None
    epsilon: float | None
    values: np.ndarray
    choices: np.ndarray
    classification: Classification
    iterations: int
    residual: float
    converged: bool

    @functools.cached_property
    def selections(self) -> tuple[tuple[int, ...] | None, ...]:
        """The vertex tuple of every state's choice, None on the diagonal."""
        tuples = list(zip(*self.choices.T.tolist()))
        for i in self.product.diagonal:
            tuples[i] = None
        return tuple(tuples)

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
            if product.canonical(key) != key:
                raise ValueError(f"selection key {key} of state {product.label(i)} is not sorted: in quotient "
                                 f"mode the key is {product.canonical(key)}, and the indices align with it")
            fixed[i] = view.flat_choice(i, tuple(tup))
    return fixed


def _vertex_choices(view: JointChoices, flat: np.ndarray) -> np.ndarray:
    """The vertex indices of every state's flat choice, one row per state:
    its cell, less each agent's first row, in one gather."""
    cells = view._cells[view._starts + flat]
    return np.subtract(cells, view.model.offsets[view.product.state_array], out=cells)


def _wrap_result(view, belief, sense, epsilon, res: HittingResult) -> MeetingResult:
    return MeetingResult(
        product=view.product,
        belief=belief,
        sense=sense,
        epsilon=epsilon,
        values=res.values,
        choices=_vertex_choices(view, res.selection),
        classification=res.classification,
        iterations=res.iterations,
        residual=res.residual,
        converged=res.converged,
    )


def _solve_degenerate(view: JointChoices, fixed: np.ndarray, tol, max_iter) -> HittingResult:
    """The selection ``fixed``, one choice per state, classified and solved
    on the region of its pin, which contracts only the vertex rows it
    selects over the base states they reach."""
    everyone = np.arange(view.n)
    pinned = view.restrict(everyone, fixed).region(everyone)
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
