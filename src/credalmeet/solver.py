"""Best- and worst-case expected hitting times for credal transition models.

Two methods are provided. Monotone value iteration from zero serves as an
independent oracle: it climbs to the minimal non-negative fixed point of the
one-step operator on the finitely-valued states. Policy iteration alternates
exact evaluation of one selection (a dense linear solve) with a greedy switch
to better vertices, and terminates after finitely many sweeps because there
are finitely many selections and no strict improvement can repeat.

Both methods first classify the states and pin the hopeless ones to inf, so
the iteration itself only ever runs on the finite region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import CredalMatrix, _require_sense, segment_optimum, target_mask
from .reach import Classification, CredalChoices, classify_view


@dataclass
class HittingResult:
    """Outcome of a hitting-time bound computation.

    ``values`` is zero on the target, inf exactly on the states the
    classification marks hopeless, and finite elsewhere. ``selection`` holds
    the optimizing vertex index per state (zero on states where no choice
    matters). ``residual`` is the final sup-norm defect of the one-step
    fixed-point equation on finite states; ``converged`` is False when the
    iteration budget ran out first.
    """

    values: np.ndarray
    selection: np.ndarray
    classification: Classification
    iterations: int
    residual: float
    converged: bool
    method: str
    sweep_values: tuple[np.ndarray, ...] = ()


def _finish(view, h: np.ndarray, finite: np.ndarray, sense: str) -> tuple[np.ndarray, float]:
    """Greedy selection under ``h`` (lowest index on ties) and the sup-norm
    defect of ``h = 1 + opt(T h)`` on the finite states."""
    best, pick = segment_optimum(view.values(finite, h), view.choice_offsets(finite), sense)
    selection = np.zeros(view.n, dtype=np.int64)
    selection[finite] = pick
    return selection, float(np.max(np.abs(h[finite] - (1.0 + best)), initial=0.0))


def solve_view_value(view, targets: np.ndarray, sense: str, tol: float, max_iter: int) -> HittingResult:
    """Value iteration on a choice view; see :func:`value_iteration`."""
    cls, _ = classify_view(view, targets, sense)
    n = view.n
    h = np.zeros(n)
    h[list(cls.infinite)] = math.inf
    finite = np.array(sorted(cls.finite), dtype=int)
    bounds = view.choice_offsets(finite)
    iterations = 0
    converged = False
    while iterations < max_iter:
        # one synchronous sweep: every update reads the previous vector
        best, _ = segment_optimum(view.values(finite, h), bounds, sense)
        new_vals = 1.0 + best
        delta = float(np.max(np.abs(new_vals - h[finite]), initial=0.0))
        h[finite] = new_vals
        iterations += 1
        if delta <= tol:
            converged = True
            break
    selection, residual = _finish(view, h, finite, sense)
    return HittingResult(
        values=h,
        selection=selection,
        classification=cls,
        iterations=iterations,
        residual=residual,
        converged=converged,
        method="value-iteration",
    )


def _evaluate_selection(view, finite: np.ndarray, choice: np.ndarray) -> np.ndarray:
    """Solve the linear system of one selection restricted to the finite states."""
    k = finite.size
    sub = np.empty((k, k))
    for r, (x, c) in enumerate(zip(finite.tolist(), choice.tolist())):
        sub[r] = view.row(x, c)[finite]
    try:
        sol = np.linalg.solve(np.eye(k) - sub, np.ones(k))
    except np.linalg.LinAlgError:
        raise RuntimeError(
            "singular policy evaluation; the classification pass admitted an "
            "improper selection"
        ) from None
    if not np.isfinite(sol).all() or (sol <= 0).any():
        raise RuntimeError(
            "policy evaluation produced a non-positive value; the "
            "classification pass admitted an improper selection"
        )
    return sol


def solve_view_policy(view, targets: np.ndarray, sense: str, tol: float, max_iter: int) -> HittingResult:
    """Policy iteration on a choice view; see :func:`policy_iteration`."""
    cls, witness = classify_view(view, targets, sense)
    n = view.n
    inf_mask = cls.infinite_mask(n)
    finite = np.array(sorted(cls.finite), dtype=int)
    h = np.zeros(n)
    h[inf_mask] = math.inf

    if finite.size == 0:
        return HittingResult(
            values=h,
            selection=np.zeros(n, dtype=np.int64),
            classification=cls,
            iterations=0,
            residual=0.0,
            converged=True,
            method="policy-iteration",
        )

    # Restrict each finite row to the vertices that put no mass on the
    # hopeless region; those are the only candidates an optimal stationary
    # selection can use, and keeping the walk off that region makes every
    # evaluated system non-singular once the starting selection is proper.
    # The others are masked to a value that never wins the improvement step.
    bounds = view.choice_offsets(finite)
    admissible = ~view.touches(finite, inf_mask)
    fill = -math.inf if sense == "upper" else math.inf
    has_any, first_ok = segment_optimum(admissible.astype(float), bounds, "upper")
    if not has_any.all():
        raise RuntimeError(
            f"state {finite[np.argmin(has_any)]} is classified finite but has no "
            "admissible vertex; the classification pass is inconsistent"
        )
    if sense == "lower":
        # The almost-sure witness is guaranteed proper; an arbitrary
        # admissible vertex may loop forever and makes the first
        # evaluation singular.
        choice = witness[finite]
    else:
        choice = first_ok

    sweeps = 0
    converged = False
    prev = None
    trace = []
    while sweeps < max_iter:
        sol = _evaluate_selection(view, finite, choice)
        h[finite] = sol
        trace.append(h.copy())
        sweeps += 1
        if prev is not None and np.max(np.abs(sol - prev)) <= tol:
            converged = True
            break
        vals = np.where(admissible, view.values(finite, h), fill)
        _, new_choice = segment_optimum(vals, bounds, sense)
        if np.array_equal(new_choice, choice):
            converged = True
            break
        choice = new_choice
        prev = sol

    selection = np.zeros(n, dtype=np.int64)
    selection[finite] = choice
    return HittingResult(
        values=h,
        selection=selection,
        classification=cls,
        iterations=sweeps,
        residual=_finish(view, h, finite, sense)[1],
        converged=converged,
        method="policy-iteration",
        sweep_values=tuple(trace),
    )


def value_iteration(
    model: CredalMatrix,
    targets: Iterable[int],
    sense: str,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> HittingResult:
    """Hitting-time bound by monotone value iteration.

    Starting from zero, repeatedly applies ``h <- 1 + opt(T h)`` on the
    finitely-valued non-target states, where ``opt`` scans the row vertices
    for the largest (upper) or smallest (lower) expectation. The sequence is
    componentwise non-decreasing and converges to the minimal non-negative
    fixed point. Stops when the sup-norm step drops to ``tol``; when
    ``max_iter`` runs out first the result is flagged as not converged.
    """
    _require_sense(sense)
    view = CredalChoices(model)
    return solve_view_value(view, target_mask(view.n, targets), sense, tol, max_iter)


def policy_iteration(
    model: CredalMatrix,
    targets: Iterable[int],
    sense: str,
    tol: float = 1e-10,
    max_iter: int = 1_000,
) -> HittingResult:
    """Hitting-time bound by policy iteration over row vertices.

    Each sweep solves the precise hitting system of the current selection on
    the finite states and then switches every row to its greedy vertex under
    the solved values (ties keep the lowest index). Stops when the selection
    repeats or consecutive value vectors agree within ``tol``. In upper mode
    the value vectors are componentwise non-decreasing across sweeps, in
    lower mode non-increasing.
    """
    _require_sense(sense)
    view = CredalChoices(model)
    return solve_view_policy(view, target_mask(view.n, targets), sense, tol, max_iter)
