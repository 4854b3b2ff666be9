"""Best- and worst-case expected hitting times for credal transition models.

Two methods are provided. Monotone value iteration from zero climbs to the
minimal non-negative fixed point of the one-step operator on the
finitely-valued states. Policy iteration alternates exact evaluation of one
selection with a greedy switch to better vertices, and terminates after
finitely many sweeps because there are finitely many selections and no
strict improvement can repeat. Both share the classification and the choice
kernel, so they cross-check each other's iteration, not those; the
independent oracles are :func:`~credalmeet.chain.hitting_times`,
:func:`~credalmeet.chain.meeting_times` and
:func:`~credalmeet.meeting.exhaustive_meeting_times`. An evaluation solves
the selection's linear system matrix-free by restarted GMRES on the choice
kernel's product from ``MATRIX_FREE_UNKNOWNS`` unknowns on, and densely
below that; every solution must meet a backward-error bound.

Every value iteration sweep, greedy pass of policy iteration and final
residual reads one evaluation of the finite states' choices, set up once per
solve (:func:`_finite_region`): one contraction of the values with their inf
entries zeroed (:meth:`~credalmeet.reach.ChoiceView.finite_values`) into a
buffer of its own, a read of the finite states' choices (a view of it when
they are consecutive, one gather into a second buffer otherwise) and inf at
the choices with mass on the inf states. A greedy pass gives the improvement
step and the final selection; a sweep takes the per-state optimum, step and
its largest entry into buffers of its own, two of which hold the current and
the next iterate in turn. Policy iteration starts from the classification's
witness, a selection proper on the finite region. A GMRES evaluation pins
the view to the selected choice of each finite state
(:meth:`~credalmeet.reach.ChoiceView.restrict`), so that a product on a base
model contracts only the ``k`` selected rows; a product is one
:meth:`~credalmeet.reach.ChoiceView.finite_values` call into a buffer of its
own, and the least-squares coefficients are solved for only when an iterate
is formed. A dense solve reads the selection's ``(k, k)`` block of the
finite states from the view in one call.

Both methods first classify the states and pin the hopeless ones to inf, so
the iteration itself only ever runs on the finite region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import CredalMatrix, _require_sense, is_integer, is_real, segment_optimum, target_mask
from .reach import Classification, CredalChoices, classify_view

#: Unknowns from which a policy evaluation runs matrix-free (restarted GMRES)
#: instead of a dense LU solve; the two paths cross near this size.
MATRIX_FREE_UNKNOWNS = 256

#: Krylov basis size per GMRES cycle.
GMRES_RESTART = 30

#: Constant of the backward-error bound every policy evaluation must meet.
BACKWARD_ERROR_FACTOR = 16.0

#: Refusal threshold for the bytes of a dense policy evaluation (``_dense_bytes``).
MAX_DENSE_BYTES = 2**30

#: Allowance in ``_dense_bytes`` for the buffers numpy's iterators take in a
#: broadcast or a gather, about 130 KB each.
ITERATOR_BUFFER_BYTES = 2**18

_EPS = float(np.finfo(float).eps)


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


def _require_budget(tol, max_iter) -> None:
    """Refuse a ``tol`` that is not a non-negative real number (NaN and bools
    included) and a ``max_iter`` that is not a non-negative integer, naming
    the argument."""
    if not is_real(tol):
        raise ValueError(f"tol must be a real number, got {tol!r}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be non-negative and not NaN, got {tol!r}")
    if not is_integer(max_iter):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter!r}")


def _finish(evaluate, bounds: np.ndarray, f: np.ndarray, finite: np.ndarray, sense: str):
    """Greedy choice per finite state (lowest index on ties) and the sup-norm
    defect of ``h = 1 + opt(T h)`` on the finite states, for the values ``h``
    that are ``f`` off the inf states and inf on them; ``evaluate`` and
    ``bounds`` are :func:`_finite_region`'s."""
    best, pick = segment_optimum(evaluate(f), bounds, sense)
    return pick, float(np.max(np.abs(f[finite] - (1.0 + best)), initial=0.0))


def _finite_region(view, cls: Classification):
    """The finite states, the bounds of each state's segment among their
    choices, the positions there of the choices with mass on the inf states,
    and ``evaluate(f)``, the values of those choices for ``f`` zero on the
    inf states, inf at those positions, in one buffer that every call
    overwrites and returns."""
    finite = np.array(sorted(cls.finite), dtype=int)
    rows = view.choice_rows(finite)
    bounds = view.choice_offsets(finite)
    hopeless = np.flatnonzero(view.touches(None, cls.infinite_mask(view.n))[rows])
    everything = np.empty(view.choice_offsets(np.arange(view.n))[-1])
    gather = not isinstance(rows, slice)  # else the finite states' choices are a view
    vals = np.empty(bounds[-1]) if gather else everything[rows]

    def evaluate(f):
        view.finite_values(f, everything)
        if gather:
            np.take(everything, rows, out=vals)
        if hopeless.size:
            vals[hopeless] = math.inf
        return vals

    return finite, bounds, hopeless, evaluate


def solve_view_value(view, targets: np.ndarray, sense: str, tol: float, max_iter: int) -> HittingResult:
    """Value iteration on a choice view; see :func:`value_iteration`. Each
    sweep applies :func:`_finite_region`'s evaluator to the current values and
    writes every other step into a buffer of its own. With no finite state
    the solve is converged before any sweep."""
    cls, _ = classify_view(view, targets, sense)
    finite, bounds, _, evaluate = _finite_region(view, cls)
    f = np.zeros(view.n)
    cur, new, step = np.zeros(finite.size), np.empty(finite.size), np.empty(finite.size)
    starts = bounds[:-1]
    best_of = (np.maximum if sense == "upper" else np.minimum).reduceat
    iterations = 0
    converged = finite.size == 0  # nothing to iterate
    while not converged and iterations < max_iter:
        # one synchronous sweep: every update reads the previous vector
        best_of(evaluate(f), starts, out=new)
        new += 1.0
        np.subtract(new, cur, out=step)
        delta = float(np.maximum.reduce(np.abs(step, out=step), initial=0.0))
        f[finite] = new
        cur, new = new, cur
        iterations += 1
        if delta <= tol:
            converged = True
            break
    selection = np.zeros(view.n, dtype=np.int64)
    selection[finite], residual = _finish(evaluate, bounds, f, finite, sense)
    f[list(cls.infinite)] = math.inf
    return HittingResult(
        values=f,
        selection=selection,
        classification=cls,
        iterations=iterations,
        residual=residual,
        converged=converged,
        method="value-iteration",
    )


def _residual_bound(k: int, hmax: float) -> float:
    """Backward-error bound on ``|1 - (I - P) h|_inf`` for ``k`` unknowns and
    ``hmax = |h|_inf`` that a backward-stable solve meets: ``|I - P|_inf <= 2``
    and ``|1|_inf = 1``."""
    return BACKWARD_ERROR_FACTOR * _EPS * math.sqrt(k) * (1.0 + 2.0 * hmax)


def _meets_bound(h: np.ndarray, residual: float) -> bool:
    """Whether a solution with true residual ``residual`` meets :func:`_residual_bound`."""
    return residual <= _residual_bound(h.size, float(np.max(np.abs(h))))


def _selection_operator(view, finite: np.ndarray, choice: np.ndarray):
    """The product ``x -> (I - P) x`` of one selection on the finite states,
    one :meth:`finite_values` call each on the view pinned to the selection
    (the padded ``x`` is finite), into a buffer of the operator's own that
    holds the result until the next product."""
    sel = view.restrict(finite, choice)
    padded = np.zeros(view.n)  # admissible choices put no mass outside the finite states
    out = np.empty(finite.size)

    def apply(x):
        padded[finite] = x
        return np.subtract(x, sel.finite_values(padded, out), out=out)

    return apply


def _gmres_cycles(k: int) -> int:
    """The cap on GMRES cycles for ``k`` unknowns: the ``k`` products in which
    full GMRES terminates in exact arithmetic, and one cycle more for rounding.
    A chain of ``k`` levels needs all of them: each cycle settles at most
    ``GMRES_RESTART`` more levels of the selection's graph."""
    return -(-k // GMRES_RESTART) + 1


def _gmres(apply, k: int, give_up: bool = False):
    """Restarted GMRES from zero for ``apply(h) = 1``: the last iterate, the
    sup-norm of its true residual and the number of products.

    Each product adds a column to the Hessenberg matrix, orthogonalised by
    Gram-Schmidt twice, which the Givens rotations of the earlier columns and
    one new rotation bring to upper triangular form; the rotated right-hand
    side then holds the least-squares misfit, the 2-norm of the residual,
    which bounds its sup-norm. The iterate ``h + y @ basis`` is formed, with
    ``y`` from one triangular solve, only when the misfit could meet
    :func:`_residual_bound` at its size, and at the end of a cycle: the basis
    rows are orthonormal, so ``|h|_inf + |y|_2`` bounds its sup-norm, and
    ``|y|_2`` is read from the inverse of the rotated triangle, which gains
    one column per product. A cycle ends on that bound, on a breakdown or
    after ``GMRES_RESTART`` products. The basis, the triangle and the
    Gram-Schmidt coefficients live in buffers allocated once per call.

    It stops once the true residual meets :func:`_residual_bound`, after
    :func:`_gmres_cycles` cycles, or, with ``give_up``, as soon as the last
    cycle's reduction of the residual's 2-norm, kept up, would not meet the
    bound within that cap.
    """
    h, hmax = np.zeros(k), 0.0
    r = np.ones(k)
    norm = math.sqrt(k)
    products = 0
    cycles = _gmres_cycles(k)
    basis = np.empty((GMRES_RESTART + 1, k))
    # the rotated Hessenberg matrix and the inverse of its leading triangle;
    # only their upper triangles are ever written, so they serve every cycle
    tri = np.zeros((GMRES_RESTART, GMRES_RESTART))
    inv = np.zeros((GMRES_RESTART, GMRES_RESTART))
    rhs = np.empty(GMRES_RESTART + 1)  # the rotated right-hand side
    coef, part, proj = np.empty(GMRES_RESTART), np.empty(GMRES_RESTART), np.empty(k)
    for cycle in range(1, cycles + 1):
        np.divide(r, norm, out=basis[0])
        rhs[0] = norm
        turns = []  # (cos, sin) per rotation
        size, new = 0, None  # columns of the triangle; the iterate, once formed
        for j in range(GMRES_RESTART):
            w = apply(basis[j])
            products += 1
            done, c, total = basis[: j + 1], part[: j + 1], coef[: j + 1]
            total[:] = 0.0
            for _ in range(2):  # Gram-Schmidt twice keeps the basis orthogonal
                np.matmul(done, w, out=c)
                w -= np.matmul(c, done, out=proj)
                total += c
            beta = math.sqrt(w @ w)
            col = total.tolist()  # the new column, rotated as Python floats
            for i, (cs, sn) in enumerate(turns):
                col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
            rho = math.hypot(col[j], beta)
            if rho == 0.0:  # a zero column: the system is singular on the Krylov space
                break
            cs, sn = col[j] / rho, beta / rho
            turns.append((cs, sn))
            col[j] = rho
            tri[: j + 1, j] = col
            inv[:j, j] = inv[:j, :j] @ tri[:j, j] / -rho
            inv[j, j] = 1.0 / rho
            rhs[j + 1] = -sn * rhs[j]
            rhs[j] *= cs
            size, new = j + 1, None
            misfit = abs(rhs[size])
            y = inv[:size, :size] @ rhs[:size]  # the least-squares solution, for its norm
            if beta == 0.0 or misfit <= _residual_bound(k, hmax + math.sqrt(y @ y)):
                new = h + np.linalg.solve(tri[:size, :size], rhs[:size]) @ basis[:size]
                if beta == 0.0 or misfit <= _residual_bound(k, np.max(np.abs(new))):
                    break
            np.divide(w, beta, out=basis[j + 1])
        if new is None:
            new = h + np.linalg.solve(tri[:size, :size], rhs[:size]) @ basis[:size]
        h = new
        hmax = float(np.max(np.abs(h)))
        r = 1.0 - apply(h)
        residual = float(np.max(np.abs(r)))
        bound = _residual_bound(k, hmax)
        if residual <= bound:
            break
        last, norm = norm, math.sqrt(r @ r)
        # cycles still needed to bring the 2-norm to the bound at the last cycle's rate
        if give_up and not (norm < last and cycle + math.log(bound / norm) / math.log(norm / last) <= cycles):
            break
    return h, residual, products


def _dense_bytes(view, states: np.ndarray) -> int:
    """Bytes of a dense policy evaluation on ``states``, at most: the larger of
    the view's assembly of the block (``block_bytes``) and the block with its
    LU copy and vectors, and ``ITERATOR_BUFFER_BYTES``."""
    k = states.size
    return max(view.block_bytes(states), 8 * (2 * k * k + 4 * k)) + ITERATOR_BUFFER_BYTES


def _dense_solve(view, finite: np.ndarray, choice: np.ndarray, why: str = "", need: int | None = None) -> np.ndarray:
    """LU solve of one selection's system from its dense block; ``why`` says
    in a refusal why the system is solved densely, and ``need`` is
    ``_dense_bytes(view, finite)`` when the caller has it."""
    k = finite.size
    need = _dense_bytes(view, finite) if need is None else need
    if need > MAX_DENSE_BYTES:
        raise ValueError(
            f"{why}a dense policy evaluation of size {k} would allocate about {need} "
            f"bytes, above the {MAX_DENSE_BYTES} limit"
        )
    system = view.block(finite, choice)
    np.subtract(0.0, system, out=system)  # I - P in place, bit for bit
    system.flat[:: k + 1] += 1.0
    try:
        return np.linalg.solve(system, np.ones(k))
    except np.linalg.LinAlgError:
        raise RuntimeError(
            f"policy evaluation of size {k} is singular in double precision, so its "
            "residual and largest value are unbounded: the selection's escape "
            "probabilities round to zero and its hitting times are too large to represent"
        ) from None


def _evaluate_selection(view, finite: np.ndarray, choice: np.ndarray, need: int | None = None) -> np.ndarray:
    """Solve ``(I - P) h = 1`` for one selection restricted to the finite states.

    From ``MATRIX_FREE_UNKNOWNS`` unknowns on, restarted GMRES runs on the
    product ``h -> h - P h``, one :meth:`finite_values` call each; below that,
    or when GMRES misses the backward-error bound (it gives up early while
    the dense solve is allowed), the system is assembled and solved densely.
    Either way the residual must meet the bound. ``need`` is
    ``_dense_bytes(view, finite)`` when the caller has it.
    """
    k = finite.size
    need = _dense_bytes(view, finite) if need is None else need
    apply = _selection_operator(view, finite, choice)
    sol = None
    why = ""
    if k >= MATRIX_FREE_UNKNOWNS:
        sol, residual, products = _gmres(apply, k, give_up=need <= MAX_DENSE_BYTES)
        if not _meets_bound(sol, residual):
            why = (
                f"GMRES missed the backward-error bound within {products} products "
                f"(last residual {residual:.3e}), and "
            )
            sol = None
    if sol is None:
        sol = _dense_solve(view, finite, choice, why, need)
        residual = float(np.max(np.abs(1.0 - apply(sol))))
    hmax = float(np.max(np.abs(sol)))
    bound = _residual_bound(k, hmax)
    if not (math.isfinite(hmax) and residual <= bound and (sol > 0).all()):
        raise RuntimeError(
            f"policy evaluation of size {k} is not accurate in double precision: "
            f"residual {residual:.3e} against the backward-error bound {bound:.3e}, "
            f"values from {sol.min():.3e} to {hmax:.3e}; hitting times of this size "
            "are beyond a double-precision solve"
        )
    return sol


def solve_view_policy(view, targets: np.ndarray, sense: str, tol: float, max_iter: int) -> HittingResult:
    """Policy iteration on a choice view; see :func:`policy_iteration`. The
    dense-solve bytes are counted once, and the last greedy pass gives the
    final residual unless the values changed after it. Only the current
    values are held: a solve cut at ``max_iter=k`` returns sweep ``k``'s
    values and, as its selection, the one that sweep ``k + 1`` evaluates."""
    cls, witness = classify_view(view, targets, sense)
    n = view.n

    # Start from the classification's witness, proper on the finite region,
    # so that every evaluated system is non-singular: an arbitrary vertex may
    # loop forever. In the upper sense it is vertex 0 and every selection is
    # proper there, since a finite state with mass on the inf states would be
    # unsafe itself; in the lower sense the greedy pass gives the choices
    # with mass on them inf, which never wins.
    finite, bounds, hopeless, evaluate = _finite_region(view, cls)
    choice = witness[finite]
    off = np.isin(bounds[:-1] + choice, hopeless)
    if off.any():
        raise RuntimeError(
            f"state {finite[np.argmax(off)]} is classified finite but its start "
            "choice puts mass on the inf states; the classification pass is inconsistent"
        )

    f = np.zeros(n)  # the values, with the inf states zeroed until the end
    need = _dense_bytes(view, finite)  # the finite states are fixed from here on
    sweeps = 0
    converged = finite.size == 0  # nothing to evaluate
    residual = None  # of f, once a greedy pass has read it
    while not converged and sweeps < max_iter:
        sol = _evaluate_selection(view, finite, choice, need)
        converged = sweeps > 0 and bool(np.max(np.abs(sol - f[finite])) <= tol)  # against the f it replaces
        f[finite], residual = sol, None
        sweeps += 1
        if converged:
            break
        new_choice, residual = _finish(evaluate, bounds, f, finite, sense)
        if np.array_equal(new_choice, choice):
            converged = True
            break
        choice = new_choice

    selection = np.zeros(n, dtype=np.int64)
    selection[finite] = choice
    if residual is None:  # no greedy pass read the last f
        residual = _finish(evaluate, bounds, f, finite, sense)[1]
    f[list(cls.infinite)] = math.inf
    return HittingResult(
        values=f,
        selection=selection,
        classification=cls,
        iterations=sweeps,
        residual=residual,
        converged=converged,
        method="policy-iteration",
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
    _require_budget(tol, max_iter)
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
    _require_budget(tol, max_iter)
    view = CredalChoices(model)
    return solve_view_policy(view, target_mask(view.n, targets), sense, tol, max_iter)
