"""Reachability closures and the classification of hopeless states.

For best-case (upper) hitting bounds a non-target state is hopeless when some
selection of vertices can trap the walk away from the target forever, or when
it risks drifting into such a trap. For worst-case (lower) bounds a state is
hopeless when no selection reaches the target almost surely. Both patterns
are fixed points over the per-state choice sets and depend only on which
transitions have positive probability. Every closure grows its set in
frontier rounds, one per breadth-first level: a round asks a view's
``touches`` which of its choices, every choice of the view, put mass on the
states added in the previous round, and reduces the answers over every
state's segment: one logical ``reduceat``, or :func:`segment_optimum` where
the lowest choice that joins is wanted as a witness (over per-slot views,
made once per closure, when every state has as many choices). The answers
test which entries are above zero, never how large, so they are exact
however small; ``values`` sets inf where they find an infinite entry.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .core import CredalMatrix, _ext_values, _require_sense, _segment_slots, _touching, contract
from .core import segment_bounds, segment_optimum, segment_rows, target_mask


class ChoiceView:
    """Choices of a view laid out state by state: state ``i`` owns the
    ``_counts[i]`` consecutive rows from ``_starts[i]`` of ``_rows``, all
    that the protocol reads of a choice (a vertex row on a base model, a
    table key on a joint walk): one once :meth:`restrict` has pinned ``i``
    to a choice, none once it or :meth:`region` has left ``i`` out.

    A subclass gives ``n`` and the protocol: ``finite_values(f, out)``, the
    finite contraction of all its rows (into a buffer the caller owns when
    given); ``touches(mask)``, their exact support test;
    ``block(states, choice)``, the transition matrix on ``states`` of the
    selection of ``choice[i]`` at ``states[i]``; and
    ``block_bytes(states)``, a bound on the bytes that building it takes.
    :meth:`values` applies the public operators' 0 * inf = 0 rule to the
    first two, and :meth:`_kernel` gives the first, into one buffer, as a
    one-argument call. Those three answer for every choice the view holds;
    a caller that wants some states' choices gathers them with
    :meth:`choice_rows`, or contracts only them on their :meth:`region`.
    """

    #: The view and the states that :meth:`restrict` pinned to make this view
    #: when it copied their rows, so that it can refill them in place.
    _pin_of = (None, None)

    def choice_offsets(self, states) -> np.ndarray:
        """Bounds of each state's segment among the choices of ``states``."""
        return segment_bounds(self._counts[states])

    def choice_rows(self, states):
        """Positions of the choices of ``states`` (an index or an index array)
        in the output of ``values(f)``, in state order; a slice when they
        are consecutive."""
        states = np.atleast_1d(states)
        return segment_rows(self._starts[states], self._counts[states])

    def _hold(self, states: np.ndarray, rows, counts: np.ndarray):
        """A shallow copy of this view in which each of ``states`` holds its
        ``counts`` choices, read from ``rows`` of this view's ``_rows`` (a
        slice of them when ``rows`` is a slice, a copy otherwise), in state
        order, and no other state holds any."""
        view = copy.copy(self)
        view._rows = self._rows[rows]
        view._starts, view._counts = np.zeros((2, self.n), dtype=np.int64)
        view._starts[states] = segment_bounds(counts)[:-1]
        view._counts[states] = counts
        view._pin_of = (None, None)
        return view

    def restrict(self, states, choice, into=None):
        """A shallow copy of this view that pins each of ``states`` (distinct
        indices) to its choice ``choice[i]`` and holds no other choice: one
        selection, a precise chain on those states. It keeps the class and
        owns its rows: a slice of this view's ``_rows`` when the choices are
        consecutive, a copy otherwise.

        ``into`` is an earlier pin of this view: when it pinned the same
        ``states`` and copied its rows, and the new choices are not
        consecutive, its ``_rows`` are refilled in place for the new
        selection and ``into`` itself is returned, so a solve that pins one
        selection after another on the same states copies into the same
        buffers. Otherwise the view pins afresh and ``into`` is untouched."""
        states = np.atleast_1d(states)
        rows = self._starts[states] + np.asarray(choice, dtype=np.int64)
        if rows.size and (rows[1:] - rows[:-1] == 1).all():
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        elif into is not None and into._pin_of[0] is self and np.array_equal(into._pin_of[1], states):
            # the rows are in range, and mode="clip" gathers straight into
            # ``out``, where the default mode gathers into a buffer first
            np.take(self._rows, rows, axis=0, out=into._rows, mode="clip")
            return into
        view = self._hold(states, rows, np.ones(states.size, dtype=np.int64))
        if not isinstance(rows, slice):
            view._pin_of = (self, states.copy())
        return view

    def region(self, states):
        """A view that holds every choice of ``states`` (distinct indices in
        increasing order), for a solve that reads theirs alone: a caller
        reads them at its ``choice_rows(states)``, and each has the bits it
        has here, up to the rounding that a joint region moves by
        contracting less (:meth:`~credalmeet.meeting.JointChoices.region`).
        This view itself when it holds those choices alone; otherwise a
        shallow copy that holds them alone, a slice of this view's ``_rows``
        when they are consecutive and a copy otherwise."""
        states = np.atleast_1d(states)
        return self._region(states, self.choice_rows(states))

    def _region(self, states: np.ndarray, rows):
        """:meth:`region` of ``states``, whose choices are ``rows`` here."""
        if isinstance(rows, slice) and rows.stop - rows.start == len(self._rows):
            return self
        return self._hold(states, rows, self._counts[states])

    def _kernel(self, out: np.ndarray):
        """``f -> finite_values(f, out)``, the one call of a caller that
        contracts the view into the same buffer many times."""
        return lambda f: self.finite_values(f, out)

    def _table_read(self, out: np.ndarray):
        """A call that writes into ``out`` and returns what
        ``finite_values(f, out)`` gives, with no contraction, for the ``f``
        of the last contraction of the table this view keeps, by the view
        or by a view that shares the table; None for a view that keeps no
        table, as here."""
        return None

    def values(self, f) -> np.ndarray:
        """Expectation of ``f`` under every choice the view holds, flat and in
        state order, with the 0 * inf = 0 rule: inf wherever the support test
        finds mass on an inf entry, however small."""
        return _ext_values(np.asarray(f, dtype=float), self.finite_values, self.touches)


class CredalChoices(ChoiceView):
    """Choice view of a credal model: one candidate row per vertex.

    The reachability and solver passes see only the :class:`ChoiceView`
    interface, so the same passes run on joint product models without
    expanding them into explicit vertex lists. Its ``_rows`` are the
    model's stacked vertices: the contraction reads them, and so does the
    support test, in the mask's columns alone, as the public operators do.
    So building the view allocates nothing of the stack's size, and a pinned
    view copies only the rows a product reads.
    """

    def __init__(self, model: CredalMatrix):
        self.model = model
        self.n = model.size
        self._starts, self._counts = model.offsets[:-1], np.diff(model.offsets)
        self._rows = model.stack

    def finite_values(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Expectation of the finite ``f`` under every choice, laid out as
        ``values(f)``, into ``out`` when given: one :func:`contract` of the
        view's rows, the whole stack when unpinned."""
        return contract(self._rows, f, out)

    def _kernel(self, out: np.ndarray):
        """:meth:`ChoiceView._kernel`: :func:`contract`'s one ``np.vecdot``
        call on the view's rows, in a lambda, the one frame around it (a
        ``functools.partial`` with ``out`` bound takes longer to call)."""
        rows = self._rows
        return lambda f: np.vecdot(rows, f, out=out)

    def touches(self, mask: np.ndarray) -> np.ndarray:
        """Whether each choice, laid out as ``values(f)``, puts positive mass
        on ``mask``: its vertex row's entries in the mask's columns alone."""
        return _touching(self._rows, mask)

    def region(self, states):
        """The choices of ``states`` as :meth:`ChoiceView.region` gives them
        when they are consecutive rows: a slice of the stack, which copies
        nothing. Otherwise this view itself, whose contraction gives every
        row the same bits, in a solve as much as a gathered copy of the rows
        would, and costs no copy of their bytes."""
        states = np.atleast_1d(states)
        rows = self.choice_rows(states)
        return self._region(states, rows) if isinstance(rows, slice) else self

    def block(self, states: np.ndarray, choice: np.ndarray) -> np.ndarray:
        return self._rows[(self._starts[states] + choice)[:, None], states]

    def block_bytes(self, states: np.ndarray) -> int:
        """Bytes that :meth:`block` on ``states`` holds at its peak, at most:
        the block and the index arrays."""
        k = states.size
        return 8 * (k * k + 4 * k)


def _grow(view, seeds: np.ndarray, outside: np.ndarray, join: str, eligible=True):
    """Grow ``seeds`` by the states of the mask ``outside``, in frontier rounds.

    A state joins when some choice (``join="any"``, or ``join="witness"``,
    restricted to the ``eligible`` ones when given, flat over every choice
    of the view) or every choice (``join="all"``) puts mass on the grown
    set. One per-choice array keeps whether each choice has touched the
    grown set yet: a round adds the whole view's support test of the
    previous round's additions and reduces it over every state's segment,
    and the states still outside that it finds join. Under "witness" the
    eligible choices that touched it go into one buffer, whose per-slot
    views, made once per call, give the lowest of them per state in binary
    calls when every state has as many choices. Returns the grown mask and,
    per state that joined under "witness", the lowest choice that let it
    join.
    """
    grown, outside = seeds.copy(), outside.copy()
    witness = np.zeros(view.n, dtype=np.int64)
    bounds = view.choice_offsets(np.arange(view.n))
    hit, joins = np.zeros((2, bounds[-1]), dtype=bool)
    slots = _segment_slots(joins, bounds)
    frontier = seeds
    while outside.any() and frontier.any():
        hit |= view.touches(frontier)
        if join == "witness":
            best, first = segment_optimum(np.logical_and(hit, eligible, out=joins), bounds, "upper", slots)
            frontier = outside & best
            witness[frontier] = first[frontier]
        else:  # no witness to find: one reduction per segment
            frontier = outside & (np.logical_or if join == "any" else np.logical_and).reduceat(hit, bounds[:-1])
        grown |= frontier
        outside &= ~frontier
    return grown, witness


def _upper_closure(view, seeds: np.ndarray, allowed: np.ndarray | None = None) -> np.ndarray:
    """States with a directed path to a seed in the best-case support graph.

    An edge x -> y exists when some choice at x gives y positive mass. With
    ``allowed`` set, states outside it are neither added nor traversed, so
    connecting paths stay inside the allowed region (seeds are always kept).
    """
    outside = ~seeds if allowed is None else ~seeds & allowed
    return _grow(view, seeds, outside, "any")[0]


def _lower_closure(view, targets: np.ndarray) -> np.ndarray:
    """Least fixed point of guaranteed progress towards ``targets``.

    A state joins when every one of its choices puts positive mass on the
    current set; under any selection the walk then has positive probability
    of entering the target region.
    """
    return _grow(view, targets, ~targets, "all")[0]


def _almost_sure_closure(view, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States from which some selection reaches ``targets`` with probability
    one, their witnesses, and the states that reach ``targets`` at all.

    Greatest fixed point over a candidate set ``kept``: repeatedly keep only
    the states that can make guaranteed-safe progress, meaning some choice
    stays inside ``kept`` with all its mass and touches the part of ``kept``
    already known to progress. The witness array records, for every surviving
    non-target state, the lowest such choice in the round the state joined;
    each witness leads one breadth-first level closer to the target, so
    selecting them yields a single selection that hits the target almost
    surely from everywhere in the returned set. The first round starts from
    every state kept, so every choice is eligible and it grows the best-case
    reachable set (:func:`_upper_closure` of the targets), returned third.
    """
    reachable, witness = _grow(view, targets, ~targets, "witness")
    kept, progressing = np.ones(view.n, dtype=bool), reachable
    while not (progressing == kept).all():
        kept = progressing
        progressing, witness = _grow(view, targets, kept & ~targets, "witness", ~view.touches(~kept))
    return kept, witness, reachable


@dataclass(frozen=True)
class Classification:
    """Partition of the state space by the fate of a hitting-time bound.

    ``target``, ``absorbing``, ``unsafe`` and ``finite`` are pairwise
    disjoint and cover every state. The bound is zero on ``target``,
    infinite exactly on ``absorbing`` and ``unsafe``, and finite elsewhere.
    ``_finite_states`` holds ``finite`` as a sorted index array, which the
    solvers read: :func:`classify_view` passes the one it has, and one built
    from the frozensets alone sorts ``finite`` once. It takes no part in
    equality, hashing or the repr.
    """

    sense: str
    target: frozenset[int]
    absorbing: frozenset[int]
    unsafe: frozenset[int]
    finite: frozenset[int]
    _finite_states: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._finite_states is None:
            object.__setattr__(self, "_finite_states", np.array(sorted(self.finite), dtype=np.int64))

    @property
    def infinite(self) -> frozenset[int]:
        return self.absorbing | self.unsafe

    def infinite_mask(self, n: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        mask[list(self.infinite)] = True
        return mask


def classify_view(view, targets: np.ndarray, sense: str) -> tuple[Classification, np.ndarray]:
    """Classify states of a choice view; also returns the almost-sure witnesses.

    Upper sense: ``absorbing`` holds the non-target states from which no
    guaranteed progress to the target exists (some selection avoids it
    forever); ``unsafe`` holds the remaining non-target states that can reach
    an absorbing state along target-free best-case paths.

    Lower sense: ``absorbing`` holds the states with no best-case path to the
    target at all, and ``unsafe`` the states that can reach the target but
    not almost surely under any selection. Both come from one
    :func:`_almost_sure_closure`, whose first round is the best-case
    reachable set. The witnesses, one choice index per state, back a
    selection that is proper on the finite region (all zero in the upper
    sense).
    """
    _require_sense(sense)
    n = view.n
    witness = np.zeros(n, dtype=np.int64)
    if sense == "upper":
        guaranteed = _lower_closure(view, targets)
        absorbing = ~guaranteed & ~targets
        if absorbing.any():
            unsafe = _upper_closure(view, absorbing, allowed=~targets) & ~absorbing & ~targets
        else:
            unsafe = np.zeros(n, dtype=bool)
    else:
        sure, witness, reachable = _almost_sure_closure(view, targets)
        absorbing = ~reachable & ~targets
        unsafe = ~sure & ~absorbing & ~targets
    finite = np.flatnonzero(~targets & ~absorbing & ~unsafe)
    cls = Classification(
        sense=sense,
        target=frozenset(np.flatnonzero(targets).tolist()),
        absorbing=frozenset(np.flatnonzero(absorbing).tolist()),
        unsafe=frozenset(np.flatnonzero(unsafe).tolist()),
        finite=frozenset(finite.tolist()),
        _finite_states=finite,
    )
    return cls, witness


def upper_reach_set(model: CredalMatrix, targets: Iterable[int], strict: bool = False) -> frozenset[int]:
    """States from which the target set is reachable with positive best-case probability.

    The returned set contains the targets themselves. With ``strict=True``
    membership instead requires a path of length at least one, so a target
    belongs only if it can come back to the target set.
    """
    view = CredalChoices(model)
    reach = _upper_closure(view, target_mask(view.n, targets))
    if not strict:
        return frozenset(np.flatnonzero(reach).tolist())
    strict_mask = segment_optimum(view.touches(reach), view.choice_offsets(np.arange(view.n)), "upper")[0]
    return frozenset(np.flatnonzero(strict_mask).tolist())


def lower_reach_set(model: CredalMatrix, targets: Iterable[int]) -> frozenset[int]:
    """States guaranteed to make progress towards ``targets`` under every selection.

    Least fixed point starting from the targets; a state joins when every
    vertex of its row puts positive mass on the set built so far.
    """
    view = CredalChoices(model)
    return frozenset(np.flatnonzero(_lower_closure(view, target_mask(view.n, targets))).tolist())


def classify(model: CredalMatrix, targets: Iterable[int], sense: str) -> Classification:
    """Partition the states by the fate of the requested hitting-time bound."""
    view = CredalChoices(model)
    return classify_view(view, target_mask(view.n, targets), sense)[0]
