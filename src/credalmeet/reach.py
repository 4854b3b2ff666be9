"""Reachability closures and the classification of hopeless states.

For best-case (upper) hitting bounds a non-target state is hopeless when some
selection of vertices can trap the walk away from the target forever, or when
it risks drifting into such a trap. For worst-case (lower) bounds a state is
hopeless when no selection reaches the target almost surely. Both patterns
are fixed points over the per-state choice sets and depend only on which
transitions have positive probability, so all tests here are exact
positivity tests on stored vertex entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import CredalMatrix, _require_sense, choice_values, segment_bounds, segment_gather, target_mask


class CredalChoices:
    """Choice view of a credal model: one candidate row per vertex.

    The reachability and solver passes only ever see this interface (state
    count, batched choice values and their per-state offsets, dense row and
    support), which lets the same passes run on joint product models without
    those models ever being expanded into explicit vertex lists.
    """

    def __init__(self, model: CredalMatrix):
        self.model = model
        self.n = model.size
        self._stack, self._offsets = model.stacked()
        self._counts = np.diff(self._offsets)
        self._supports = self._stack > 0.0

    def choice_offsets(self, states) -> np.ndarray:
        """Bounds of each state's segment in the output of :meth:`values`."""
        return segment_bounds(self._counts[states])

    def values(self, states, f) -> np.ndarray:
        """Expectation of ``f`` under every choice of ``states`` (an index or an
        index array), flat and in state order."""
        states = np.atleast_1d(states)
        vals = choice_values(self._stack, np.asarray(f, dtype=float))
        return segment_gather(vals, self._offsets[states], self._counts[states])

    def row(self, state: int, choice: int) -> np.ndarray:
        return self._stack[self._offsets[state] + choice]

    def supports(self, state: int) -> np.ndarray:
        return self._supports[self._offsets[state] : self._offsets[state + 1]]


def _union_supports(view) -> list[np.ndarray]:
    return [view.supports(i).any(axis=0) for i in range(view.n)]


def _upper_closure(view, seeds: np.ndarray, allowed: np.ndarray | None = None) -> np.ndarray:
    """States with a directed path to a seed in the best-case support graph.

    An edge x -> y exists when some choice at x gives y positive mass. With
    ``allowed`` set, states outside it are neither added nor traversed, so
    connecting paths stay inside the allowed region (seeds are always kept).
    """
    usup = _union_supports(view)
    reach = seeds.copy()
    changed = True
    while changed:
        changed = False
        for x in range(view.n):
            if reach[x] or (allowed is not None and not allowed[x]):
                continue
            if usup[x][reach].any():
                reach[x] = True
                changed = True
    return reach


def _lower_closure(view, targets: np.ndarray) -> np.ndarray:
    """Least fixed point of guaranteed progress towards ``targets``.

    A state joins when every one of its choices puts positive mass on the
    current set; under any selection the walk then has positive probability
    of entering the target region.
    """
    grown = targets.copy()
    changed = True
    while changed:
        changed = False
        for x in range(view.n):
            if grown[x]:
                continue
            sup = view.supports(x)
            if (sup & grown).any(axis=1).all():
                grown[x] = True
                changed = True
    return grown


def _almost_sure_closure(view, targets: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """States from which some selection reaches ``targets`` with probability one.

    Greatest fixed point over a candidate set ``kept``: repeatedly keep only
    the states that can make guaranteed-safe progress, meaning some choice
    stays inside ``kept`` with all its mass and touches the part of ``kept``
    already known to progress. The witness map records, for every surviving
    non-target state, the first such choice; selecting the witnesses yields a
    single selection that hits the target almost surely from everywhere in
    the returned set.
    """
    kept = np.ones(view.n, dtype=bool)
    while True:
        progressing = targets.copy()
        witness: dict[int, int] = {}
        changed = True
        while changed:
            changed = False
            for x in range(view.n):
                if not kept[x] or progressing[x]:
                    continue
                sup = view.supports(x)
                for c in range(sup.shape[0]):
                    if (sup[c] & ~kept).any():
                        continue
                    if (sup[c] & progressing).any():
                        progressing[x] = True
                        witness[x] = c
                        changed = True
                        break
        if (progressing == kept).all():
            return kept, witness
        kept = progressing


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


def classify_view(view, targets: np.ndarray, sense: str) -> tuple[Classification, dict[int, int]]:
    """Classify states of a choice view; also returns the almost-sure witness map.

    Upper sense: ``absorbing`` holds the non-target states from which no
    guaranteed progress to the target exists (some selection avoids it
    forever); ``unsafe`` holds the remaining non-target states that can reach
    an absorbing state along target-free best-case paths.

    Lower sense: ``absorbing`` holds the states with no best-case path to the
    target at all, and ``unsafe`` the states that can reach the target but
    not almost surely under any selection. The witness map backs a selection
    that is proper on the finite region.
    """
    _require_sense(sense)
    n = view.n
    witness: dict[int, int] = {}
    if sense == "upper":
        guaranteed = _lower_closure(view, targets)
        absorbing = ~guaranteed & ~targets
        if absorbing.any():
            unsafe = _upper_closure(view, absorbing, allowed=~targets) & ~absorbing & ~targets
        else:
            unsafe = np.zeros(n, dtype=bool)
    else:
        reachable = _upper_closure(view, targets)
        absorbing = ~reachable & ~targets
        sure, witness = _almost_sure_closure(view, targets)
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
    usup = _union_supports(view)
    strict_mask = np.array([usup[x][reach].any() for x in range(view.n)])
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
