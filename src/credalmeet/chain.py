"""Exact solvers and a seeded simulator for precise Markov chains.

Hitting vectors are float arrays in which ``numpy.inf`` marks states that
fail to reach the target almost surely. Those entries are pinned by a
support-graph pass before the linear solve, which is what makes the returned
vector the minimal non-negative solution of

    h(z) = 0                      on the target,
    h(z) = 1 + sum_z' T(z,z') h(z')   elsewhere.

Whether an entry is infinite depends only on which transitions are possible,
never on their magnitudes, so the pass uses exact positivity tests.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import CredalMatrix, StateSpace, is_integer, target_mask


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix over a labelled state space."""

    space: StateSpace
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=float))

    @property
    def size(self) -> int:
        return self.space.size

    @classmethod
    def from_entries(cls, labels: Iterable[str], entries) -> "TransitionMatrix":
        """Validate and renormalize a raw matrix as :meth:`CredalMatrix.precise` does."""
        model = CredalMatrix.precise(labels, entries)
        return cls(model.space, model.stack)


def _backward_closure(
    n: int,
    preds_of: Callable[[int], Iterable[int]],
    seeds: np.ndarray,
    allowed: np.ndarray | None = None,
) -> np.ndarray:
    """States that can reach a seed along directed edges.

    ``preds_of(j)`` yields the direct predecessors of ``j``. When ``allowed``
    is given, only allowed states may be added beyond the seeds, which
    restricts the connecting paths to allowed states.
    """
    reach = seeds.copy()
    frontier = deque(np.flatnonzero(seeds))
    while frontier:
        j = frontier.popleft()
        for x in preds_of(j):
            if not reach[x] and (allowed is None or allowed[x]):
                reach[x] = True
                frontier.append(x)
    return reach


def hitting_support(entries: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Boolean mask of states whose expected hitting time of ``target`` is finite.

    A non-target state is hopeless when it can, while staying off the target,
    reach a state that has no path to the target at all; such states get a
    positive probability of never arriving.
    """
    n = entries.shape[0]
    adj = entries > 0.0
    preds = [np.flatnonzero(adj[:, j]) for j in range(n)]
    can_reach = _backward_closure(n, preds.__getitem__, target)
    doomed = _backward_closure(n, preds.__getitem__, ~can_reach, allowed=~target)
    return ~doomed


def hitting_times(matrix: TransitionMatrix, targets: Iterable[int]) -> np.ndarray:
    """Expected number of steps to enter ``targets`` from every state.

    Parameters
    ----------
    matrix : TransitionMatrix
        The chain.
    targets : iterable of int
        Non-empty set of target state indices.

    Returns
    -------
    numpy.ndarray
        Vector ``h`` with ``h = 0`` on the target, ``numpy.inf`` on states
        that miss the target with positive probability, and the solution of
        the linear system ``(I - T) h = 1`` restricted to the remaining
        states. This is the minimal non-negative solution of the hitting
        system.
    """
    n = matrix.size
    target = target_mask(n, targets)
    h = np.zeros(n)
    finite = hitting_support(matrix.entries, target)
    h[~finite] = math.inf
    free = np.flatnonzero(finite & ~target)
    if free.size:
        sub = matrix.entries[np.ix_(free, free)]
        try:
            sol = np.linalg.solve(np.eye(free.size) - sub, np.ones(free.size))
        except np.linalg.LinAlgError:
            raise RuntimeError(
                "singular hitting system; the reachability pass disagrees with "
                "the matrix support"
            ) from None
        if not np.isfinite(sol).all() or (sol <= 0).any():
            raise RuntimeError(
                "hitting solve produced a non-positive value; the reachability "
                "pass disagrees with the matrix support"
            )
        h[free] = sol
    return h


def meeting_times(first: TransitionMatrix, second: TransitionMatrix) -> np.ndarray:
    """Expected first time at which two independent walks share a state.

    Both walks move one step per time unit; the pair walk over ordered state
    pairs hits the diagonal. Joint transition weights are formed on demand
    from the two factor rows, so nothing of size ``n**2 x n**2`` is ever
    stored; only the linear system over the finitely-valued pairs is built.

    Returns an ``(n, n)`` matrix with zero diagonal; entry ``(x, y)`` is the
    expected meeting time when the walks start at ``x`` and ``y``.
    """
    if first.space.labels != second.space.labels:
        raise ValueError("the two chains must share one state space")
    n = first.size
    t, s = first.entries, second.entries
    t_preds = [np.flatnonzero(t[:, j] > 0) for j in range(n)]
    s_preds = [np.flatnonzero(s[:, j] > 0) for j in range(n)]

    n2 = n * n
    target = np.zeros(n2, dtype=bool)
    target[[k * n + k for k in range(n)]] = True

    def preds_of(p: int):
        x1, y1 = divmod(p, n)
        for x in t_preds[x1]:
            base = x * n
            for y in s_preds[y1]:
                yield base + y

    can_reach = _backward_closure(n2, preds_of, target)
    doomed = _backward_closure(n2, preds_of, ~can_reach, allowed=~target)

    values = np.zeros(n2)
    values[doomed] = math.inf
    free = np.flatnonzero(~doomed & ~target)
    if free.size:
        sub = np.empty((free.size, free.size))
        for r, p in enumerate(free):
            x, y = divmod(p, n)
            sub[r] = np.outer(t[x], s[y]).ravel()[free]
        try:
            sol = np.linalg.solve(np.eye(free.size) - sub, np.ones(free.size))
        except np.linalg.LinAlgError:
            raise RuntimeError(
                "singular meeting system; the reachability pass disagrees with "
                "the factor supports"
            ) from None
        values[free] = sol
    return values.reshape(n, n)


@dataclass(frozen=True)
class SimulationSummary:
    """Sample statistics of simulated hitting times.

    ``mean`` and ``variance`` cover uncensored paths only and are ``None``
    when no path hit the target within the horizon. Censored paths are
    counted separately and never folded into the mean.
    """

    trials: int
    uncensored: int
    censored: int
    mean: float | None
    variance: float | None


def simulate_hitting(
    matrix: TransitionMatrix,
    targets: Iterable[int],
    start: int,
    trials: int,
    horizon: int = 10_000,
    seed: int = 0,
) -> SimulationSummary:
    """Estimate the expected hitting time by simulating independent paths.

    Each trial draws from its own generator seeded with ``(seed, trial)``, so
    the result depends only on the inputs and never on execution order.
    Identical inputs and seed give identical statistics.

    ``trials``, ``horizon`` and ``seed`` must be Python or numpy integers,
    never floats or bools; ``trials`` and ``horizon`` at least 1 and ``seed``
    non-negative. Anything else raises ValueError.
    """
    n = matrix.size
    target = target_mask(n, targets)
    if not is_integer(start):
        raise ValueError(f"start index {start!r} is not an integer")
    if not 0 <= start < n:
        raise ValueError(f"start index {start} out of range for {n} states")
    for name, count in (("trials", trials), ("horizon", horizon), ("seed", seed)):
        if not is_integer(count):
            raise ValueError(f"{name} {count!r} is not an integer")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    cum = np.cumsum(matrix.entries, axis=1)
    cum[:, -1] = 1.0  # guard against round-off at the last column
    times = []
    censored = 0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        state = int(start)
        steps = 0
        while not target[state] and steps < horizon:
            state = int(np.searchsorted(cum[state], rng.random(), side="right"))
            steps += 1
        if target[state]:
            times.append(steps)
        else:
            censored += 1
    if times:
        arr = np.asarray(times, dtype=float)
        mean = float(arr.mean())
        variance = float(arr.var(ddof=1)) if arr.size > 1 else 0.0
    else:
        mean = None
        variance = None
    return SimulationSummary(
        trials=trials,
        uncensored=len(times),
        censored=censored,
        mean=mean,
        variance=variance,
    )
