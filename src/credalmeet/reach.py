"""Reachability closures and the classification of hopeless states.

For best-case (upper) hitting bounds a non-target state is hopeless when some
selection of vertices can trap the walk away from the target forever, or when
it risks drifting into such a trap. For worst-case (lower) bounds a state is
hopeless when no selection reaches the target almost surely. Both patterns
are fixed points over the per-state choice sets and depend only on which
transitions have positive probability. Every closure grows its set in
frontier rounds, one per breadth-first level: a round asks a view's
``touches`` which choices put mass on the states added in the previous
round, and reduces the answers per state with :func:`segment_optimum`. The
answers test which entries are above zero, never how large, so they are
exact however small; ``values`` sets inf where they find an infinite entry.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import CredalMatrix, _ext_values, _require_sense, _touching, contract
from .core import segment_bounds, segment_optimum, segment_rows, target_mask


class ChoiceView:
    """Choices of a view laid out state by state: state ``i`` owns the
    ``_counts[i]`` consecutive rows from ``_starts[i]`` of the row arrays
    named in ``_row_arrays``, one once :meth:`restrict` has pinned ``i`` to
    a choice, none once it has left ``i`` out.

    A subclass gives ``n``, the finite contraction of all its rows,
    ``finite_values(f, out)`` (into a buffer the caller owns when given),
    and their exact support test, ``_touches(mask)``. :meth:`values`
    applies the public operators' 0 * inf = 0 rule to those two; it and
    :meth:`touches` gather a few states' segments (:meth:`choice_rows`)
    from the whole evaluation.
    ``block(states, choice)`` is the transition matrix on ``states`` of the
    selection of ``choice[i]`` at ``states[i]``, and ``block_bytes(states)``
    bounds the bytes that building it takes.
    """

    def nchoices(self, state: int) -> int:
        return int(self._counts[state])

    def choice_offsets(self, states) -> np.ndarray:
        """Bounds of each state's segment in the output of :meth:`values`."""
        return segment_bounds(self._counts[states])

    def choice_rows(self, states):
        """Positions of the choices of ``states`` (an index or an index array)
        in the output of ``values(None, f)``, in state order; a slice when
        they are consecutive."""
        states = np.atleast_1d(states)
        return segment_rows(self._starts[states], self._counts[states])

    def restrict(self, states, choice):
        """A shallow copy of this view that pins each of ``states`` (distinct
        indices) to its choice ``choice[i]`` and holds no other choice: one
        selection, a precise chain on those states. It keeps the class and
        owns its rows: a slice of each of this view's row arrays when the
        choices are consecutive, a copy otherwise."""
        states = np.atleast_1d(states)
        rows = self._starts[states] + np.asarray(choice, dtype=np.int64)
        if rows.size and (rows[1:] - rows[:-1] == 1).all():
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        view = copy.copy(self)
        for name in self._row_arrays:
            setattr(view, name, getattr(self, name)[rows])
        view._starts, view._counts = np.zeros((2, self.n), dtype=np.int64)
        view._starts[states] = np.arange(states.size)
        view._counts[states] = 1
        return view

    def values(self, states, f) -> np.ndarray:
        """Expectation of ``f`` under every choice of ``states`` (an index or an
        index array; None for every choice the view holds), flat and in state
        order, with the 0 * inf = 0 rule: inf wherever the support test finds
        mass on an inf entry, however small."""
        out = _ext_values(np.asarray(f, dtype=float), self.finite_values, self._touches)
        return out if states is None else out[self.choice_rows(states)]

    def touches(self, states, mask: np.ndarray) -> np.ndarray:
        """Whether each choice of ``states`` puts positive mass on ``mask``,
        laid out as :meth:`values`."""
        out = self._touches(mask)
        return out if states is None else out[self.choice_rows(states)]


class CredalChoices(ChoiceView):
    """Choice view of a credal model: one candidate row per vertex.

    The reachability and solver passes see only the :class:`ChoiceView`
    interface, so the same passes run on joint product models without
    expanding them into explicit vertex lists. Its one row array is the
    model's stacked vertices: the contraction reads it, and so does the
    support test, in the mask's columns alone, as the public operators do.
    So building the view allocates nothing of the stack's size, and a pinned
    view copies only the rows a product reads.
    """

    _row_arrays = ("_stack",)

    def __init__(self, model: CredalMatrix):
        self.model = model
        self.n = model.size
        self._starts, self._counts = model.offsets[:-1], np.diff(model.offsets)
        self._stack = model.stack

    def finite_values(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Expectation of the finite ``f`` under every choice, laid out as
        ``values(None, f)``, into ``out`` when given: one :func:`contract` of
        the view's rows, the whole stack when unpinned."""
        return contract(self._stack, f, out)

    def _touches(self, mask: np.ndarray) -> np.ndarray:
        return _touching(self._stack, mask)

    def block(self, states: np.ndarray, choice: np.ndarray) -> np.ndarray:
        return self._stack[(self._starts[states] + choice)[:, None], states]

    def block_bytes(self, states: np.ndarray) -> int:
        """Bytes that :meth:`block` on ``states`` holds at its peak, at most:
        the block and the index arrays."""
        k = states.size
        return 8 * (k * k + 4 * k)


def _grow(view, seeds: np.ndarray, candidates: np.ndarray, join: str, eligible=None):
    """Grow ``seeds`` by the ``candidates`` (an index array), in frontier rounds.

    A candidate joins when some choice (``join="any"``, restricted to the
    ``eligible`` ones when given, flat over the candidates' choices) or every
    choice (``join="all"``) puts mass on the grown set. Each round asks only
    about the previous round's additions and keeps, per remaining choice,
    whether it has touched the grown set yet, read from one whole-view
    support test per round. Returns the grown mask and, per
    state that joined under "any", the lowest choice that let it join.
    """
    grown = seeds.copy()
    witness = np.zeros(view.n, dtype=np.int64)
    frontier, cand = seeds, candidates
    hit = np.zeros(view.choice_offsets(cand)[-1], dtype=bool)
    if eligible is None:
        eligible = np.ones_like(hit)
    while cand.size and frontier.any():
        bounds = view.choice_offsets(cand)
        hit |= view.touches(cand, frontier)
        best, first = segment_optimum((hit & eligible).astype(float), bounds,
                                      "upper" if join == "any" else "lower")
        joined = best > 0.0
        added = cand[joined]
        grown[added] = True
        witness[added] = first[joined]
        frontier = np.zeros(view.n, dtype=bool)
        frontier[added] = True
        stay = np.repeat(~joined, np.diff(bounds))
        hit, eligible, cand = hit[stay], eligible[stay], cand[~joined]
    return grown, witness


def _upper_closure(view, seeds: np.ndarray, allowed: np.ndarray | None = None) -> np.ndarray:
    """States with a directed path to a seed in the best-case support graph.

    An edge x -> y exists when some choice at x gives y positive mass. With
    ``allowed`` set, states outside it are neither added nor traversed, so
    connecting paths stay inside the allowed region (seeds are always kept).
    """
    outside = ~seeds if allowed is None else ~seeds & allowed
    return _grow(view, seeds, np.flatnonzero(outside), "any")[0]


def _lower_closure(view, targets: np.ndarray) -> np.ndarray:
    """Least fixed point of guaranteed progress towards ``targets``.

    A state joins when every one of its choices puts positive mass on the
    current set; under any selection the walk then has positive probability
    of entering the target region.
    """
    return _grow(view, targets, np.flatnonzero(~targets), "all")[0]


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
    reachable, witness = _grow(view, targets, np.flatnonzero(~targets), "any")
    kept, progressing = np.ones(view.n, dtype=bool), reachable
    while not (progressing == kept).all():
        kept = progressing
        cand = np.flatnonzero(kept & ~targets)
        progressing, witness = _grow(view, targets, cand, "any", ~view.touches(cand, ~kept))
    return kept, witness, reachable


@dataclass(frozen=True)
class Classification:
    """Partition of the state space by the fate of a hitting-time bound.

    ``target``, ``absorbing``, ``unsafe`` and ``finite`` are pairwise
    disjoint and cover every state. The bound is zero on ``target``,
    infinite exactly on ``absorbing`` and ``unsafe``, and finite elsewhere.
    """

    sense: str
    target: frozenset[int]
    absorbing: frozenset[int]
    unsafe: frozenset[int]
    finite: frozenset[int]

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
    finite = ~targets & ~absorbing & ~unsafe
    cls = Classification(
        sense=sense,
        target=frozenset(np.flatnonzero(targets).tolist()),
        absorbing=frozenset(np.flatnonzero(absorbing).tolist()),
        unsafe=frozenset(np.flatnonzero(unsafe).tolist()),
        finite=frozenset(np.flatnonzero(finite).tolist()),
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
    everyone = np.arange(view.n)
    hit = view.touches(everyone, reach).astype(float)
    strict_mask = segment_optimum(hit, view.choice_offsets(everyone), "upper")[0] > 0.0
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
