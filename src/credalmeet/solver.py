"""Best- and worst-case expected hitting times for credal transition models.

Two methods are provided. Monotone value iteration from zero climbs to the
minimal non-negative fixed point of the one-step operator on the
finitely-valued states. Policy iteration alternates evaluation of one
selection with a greedy switch to better vertices, and terminates after
finitely many sweeps because there are finitely many selections and no
strict improvement can repeat once the evaluations are exact; the
evaluations before that are loose, stopped at a slack that shrinks with the
greedy defect (:func:`solve_view_policy`). Both share the classification and
the choice kernel, so they cross-check each other's iteration, not those; the
independent oracles are :func:`~credalmeet.chain.hitting_times`,
:func:`~credalmeet.chain.meeting_times` and
:func:`~credalmeet.meeting.exhaustive_meeting_times`. An evaluation solves
the selection's linear system matrix-free by restarted GMRES on the choice
kernel's product at every size, and densely, by LU, only when GMRES gives up
or misses its bound, a backward-error bound capped at ``sqrt(eps)``; every
solution must meet the backward-error bound.

Both methods iterate one object, the solve's one-step operator
``F(h) = 1 + opt(T h)`` on the finite states (:class:`_Bellman`), made once
per solve from the view and its classification. Every value iteration
sweep, greedy pass of policy iteration and final residual reads one
evaluation of the finite states' choices on their region
(:meth:`~credalmeet.reach.ChoiceView.region`), a view of their choices
alone, which on a joint walk contracts only the vertex rows and base states
they read: one contraction of the values with their inf entries zeroed
(:meth:`~credalmeet.reach.ChoiceView.finite_values`) straight into the
operator's buffer (on a base view whose finite states' rows are not
consecutive, the whole stack's contraction, gathered into it) and inf at the
choices with mass on the inf states, which one support test on the region
finds in the lower sense when some state is infinite (in the upper sense no
finite state has one). A greedy pass (:meth:`_Bellman.greedy`) gives the
improvement step and the final selection. In policy iteration on a joint
walk, a greedy pass, and the final residual when no greedy pass read the
last values, contract nothing: the evaluation just before it ended with a
product on its solution, which left the region's contraction of those values
in the region's table, so the pass gathers the region's keys from that table
into the buffer and sets inf at the choices with mass on the inf states
(:class:`_Evaluator`). Base views, which keep no table, value iteration and a
region that is the whole view contract as above. The per-state optimum of a
sweep or a greedy pass is :func:`~credalmeet.core.segment_best`'s: when every
finite state has the same number ``V`` of choices, as in every dense model,
``V - 1`` binary ``np.maximum`` or ``np.minimum`` calls over per-slot views
of the operator's buffer, made once per solve, which a sweep makes inline,
and one ``reduceat`` for unequal counts. Value iteration runs its sweeps in
blocks of up to ``VALUE_BLOCK``, over a history of ``VALUE_BLOCK + 1`` rows
of ``n`` floats, zero off the finite states: a sweep contracts the row
before it in place and writes its per-state optimum, plus one, into the
finite entries of the next row. One stop test per block takes every sweep's
sup-norm step at once and keeps the first sweep within ``tol``, so at most
``VALUE_BLOCK - 1`` sweeps are discarded per solve. Policy iteration starts
from the classification's witness, a selection proper on the finite region.
Its evaluations share one :class:`_Evaluator`, made once per solve on the
region. A GMRES evaluation pins the region to the selected choice of each
finite state (:meth:`~credalmeet.reach.ChoiceView.restrict`), so that a
product on a base model contracts only the ``k`` selected rows, and one on a
joint walk into the region's own table, which the greedy passes read; a
product is one
:meth:`~credalmeet.reach.ChoiceView.finite_values` call into a buffer of the
evaluator's, and the least-squares coefficients are solved for only when an
iterate is formed, in GMRES buffers allocated once per solve. A solve pins
once: each later sweep refills that pin's row arrays in place for its
selection, on the same finite states, rather than copying the selected rows
into fresh arrays. A dense solve reads the selection's ``(k, k)`` block of
the finite states from the region in one call.

Both methods first classify the states and pin the hopeless ones to inf, so
the iteration itself only ever runs on the finite region; both end in one
assembly of the result (:func:`_result`), which writes those inf values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import CredalMatrix, _require_sense, _segment_slots, is_integer, is_real
from .core import segment_best, segment_optimum, segment_rows, target_mask
from .reach import Classification, CredalChoices, classify_view

#: Krylov basis size per GMRES cycle.
GMRES_RESTART = 30

#: Constant of the backward-error bound every policy evaluation must meet.
BACKWARD_ERROR_FACTOR = 16.0

#: Refusal threshold for the bytes of a dense policy evaluation (``_dense_bytes``).
MAX_DENSE_BYTES = 2**30

#: Allowance in ``_dense_bytes`` for the buffers numpy's iterators take in a
#: broadcast or a gather, about 130 KB each.
ITERATOR_BUFFER_BYTES = 2**18

#: Forcing factor of policy iteration's loose evaluations: the slack of each
#: one is at most this times the defect of the greedy pass before it.
FORCING = 0.1

#: Smallest slack of a loose evaluation; below it the evaluation is exact. A
#: slack that small saves few GMRES products on an exact solve, while a
#: selection that loose values pick again costs one exact evaluation more.
SLACK_FLOOR = 1e-3

#: Most sweeps in one block of value iteration, whose stop test reads all of
#: a block's steps at once: up to ``VALUE_BLOCK - 1`` sweeps past the one a
#: solve keeps are discarded.
VALUE_BLOCK = 16

_EPS = float(np.finfo(float).eps)


@dataclass(eq=False)  # ndarray fields: results compare by identity
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


class _Bellman:
    """The one-step operator ``F(h) = 1 + opt(T h)`` of one solve on its
    finite states, set up once per solve from the view and its
    classification: the finite states, their
    :meth:`~credalmeet.reach.ChoiceView.region`, the bounds of each state's
    segment among their choices, the positions there of the choices with
    mass on the inf states (``hopeless``), one buffer of those choices'
    values, which every evaluation overwrites, and its per-slot views
    (:func:`~credalmeet.core._segment_slots`, empty unless every finite
    state has the same number of choices), and ``opt``, ``np.maximum`` or
    ``np.minimum`` by the sense.

    :meth:`evaluate` fills the buffer with the choices' values for ``f``
    zero on the inf states: the region's contraction, straight into the
    buffer unless the region is a base view whose finite states' rows are
    not consecutive, whose contraction is gathered into it, and inf at the
    hopeless positions. With no gather and no hopeless position it is the
    region's own :meth:`~credalmeet.reach.ChoiceView._kernel`, so that no
    frame of the solver's sits around the contraction. The support test
    that finds the hopeless positions runs only in the lower sense with some
    inf state, on the region: with none no choice has mass on one, and in
    the upper sense no finite state has such a choice, which would make it
    unsafe."""

    def __init__(self, view, cls: Classification):
        self.finite = finite = cls._finite_states
        self.region = region = view.region(finite)
        self.bounds = bounds = region.choice_offsets(finite)
        self.sense, self.opt = cls.sense, np.maximum if cls.sense == "upper" else np.minimum
        # a region holds the finite states' choices alone unless it is the view
        self._rows = rows = view.choice_rows(finite) if region is view else slice(0, bounds[-1])
        touched = region.touches(cls.infinite_mask(view.n))[rows] if cls.infinite and cls.sense == "lower" else ()
        self.hopeless = np.flatnonzero(touched)
        self._gather = gather = not isinstance(rows, slice)  # else the finite states' choices are a view
        self._contracted = np.empty(view.choice_offsets(np.arange(view.n))[-1] if gather else bounds[-1])
        self.vals = np.empty(bounds[-1]) if gather else self._contracted[rows]
        self.slots = _segment_slots(self.vals, bounds)
        # the region's contraction alone, straight into the buffer, when nothing follows it
        self.evaluate = self._values if gather or self.hopeless.size else region._kernel(self.vals)
        self._table = None if gather or region is view else region._table_read(self.vals)

    def _values(self, f: np.ndarray, table=None) -> np.ndarray:
        """:meth:`evaluate` past its fast path, or, with ``table``, the same
        for the ``f`` that the region's table was last contracted with,
        read from that table (:meth:`~credalmeet.reach.ChoiceView._table_read`)."""
        if table is not None:
            table()
        else:
            self.region.finite_values(f, self._contracted)
            if self._gather:
                np.take(self._contracted, self._rows, out=self.vals)
        if self.hopeless.size:
            self.vals[self.hopeless] = math.inf
        return self.vals

    def greedy(self, f: np.ndarray, tabled: bool = False):
        """Greedy choice per finite state (lowest index on ties) and the
        sup-norm defect of ``h = 1 + opt(T h)`` on the finite states, for the
        values ``h`` that are ``f`` off the inf states and inf on them.

        ``tabled`` says that the region's table holds the region's
        contraction of ``f``, bit for bit: the last product of an
        :class:`_Evaluator` on this region went through its pin, which
        shares the table, on the values ``f`` holds. The pass then reads the
        table rather than contracting again; a region that keeps no table
        (a base view, a gathered region or the view itself) contracts."""
        vals = self._values(f, self._table) if tabled and self._table is not None else self.evaluate(f)
        best, pick = segment_optimum(vals, self.bounds, self.sense, self.slots)
        return pick, float(np.max(np.abs(f[self.finite] - (1.0 + best)), initial=0.0))


def _result(cls: Classification, finite: np.ndarray, f: np.ndarray, choice: np.ndarray,
            iterations: int, residual: float, converged: bool, method: str) -> HittingResult:
    """The result of a solve that ends with the values ``f`` (zero on the inf
    states) and ``choice`` per finite state: the selection is ``choice`` on
    the finite states and zero elsewhere, and ``f`` gets inf at the inf
    states in place."""
    selection = np.zeros(f.size, dtype=np.int64)
    selection[finite] = choice
    f[list(cls.infinite)] = math.inf
    return HittingResult(f, selection, cls, iterations, residual, converged, method)


def solve_view_value(view, targets: np.ndarray, sense: str, tol: float, max_iter: int) -> HittingResult:
    """Value iteration on a choice view; see :func:`value_iteration`.

    The sweeps run in blocks of 1, 2, 4, ... up to ``VALUE_BLOCK`` sweeps,
    none past ``max_iter``. Sweep ``j`` of a block evaluates the choices of
    the solve's :class:`_Bellman` operator on row ``j - 1`` of a history of
    iterates and writes its iterate into row ``j``: the per-state optimum
    into row ``j``'s finite entries (or a buffer scattered into them) and an
    add of one. With ``V`` choices at every finite state the optimum is the
    ``V - 1`` binary calls of :func:`~credalmeet.core.segment_best`, made
    here, with no frame around them, since every frame shows in a sweep of
    a small model; otherwise that function's ``reduceat``. Row 0 holds the
    values the block starts from, and every row is zero off the finite
    states. After a block one vectorised pass takes every sweep's sup-norm
    step, and the solve keeps the first sweep whose step is within ``tol``
    and discards the rest of the block. With no finite state the solve is
    converged before any sweep."""
    cls, _ = classify_view(view, targets, sense)
    op = _Bellman(view, cls)
    finite, evaluate, slots, opt = op.finite, op.evaluate, op.slots, op.opt
    cols = segment_rows(finite, np.ones(finite.size, dtype=np.int64))  # a slice when consecutive
    history = np.zeros((VALUE_BLOCK + 1, view.n))
    iterates = list(history)  # one view per row, made once
    scatter = not isinstance(cols, slice)
    # where sweep j writes its optimum: the finite columns of row j, or a
    # buffer scattered into them
    outs = [np.empty(finite.size)] * len(iterates) if scatter else [row[cols] for row in iterates]
    starts, middle = op.bounds[:-1], slots[1:-1]
    iterations, size, last = 0, 1, 0  # sweeps kept, block length, row of the current values
    converged = finite.size == 0  # nothing to iterate
    while not converged and iterations < max_iter:
        history[0] = history[last]
        size = min(size, max_iter - iterations)
        for j in range(1, size + 1):
            # one synchronous sweep: every update reads the previous iterate
            vals = evaluate(iterates[j - 1])
            # V - 1 binary optima (for V = 1 the slot against itself) inline: a call of
            # segment_best, which takes unequal counts, made base-dense's value
            # iterations 5% slower (one BLAS thread, a shared 2-core x86-64 machine)
            new = opt(slots[0], slots[-1], out=outs[j]) if slots else segment_best(vals, starts, opt, slots, outs[j])
            for slot in middle:
                opt(new, slot, out=new)
            new += 1.0
            if scatter:
                history[j, cols] = new
        block = history[: size + 1, cols]
        steps = np.subtract(block[1:], block[:-1])  # np.diff's subtraction, row by row
        within = (np.maximum.reduce(np.abs(steps, out=steps), axis=1) <= tol).nonzero()[0]
        converged = within.size > 0
        last = int(within[0]) + 1 if converged else size
        iterations += last
        size = min(2 * size, VALUE_BLOCK)
    f = history[last].copy()
    choice, residual = op.greedy(f)
    return _result(cls, finite, f, choice, iterations, residual, converged, "value-iteration")


def _residual_bound(k: int, hmax: float) -> float:
    """Backward-error bound on ``|1 - (I - P) h|_inf`` for ``k`` unknowns and
    ``hmax = |h|_inf`` that a backward-stable solve meets: ``|I - P|_inf <= 2``
    and ``|1|_inf = 1``."""
    return BACKWARD_ERROR_FACTOR * _EPS * math.sqrt(k) * (1.0 + 2.0 * hmax)


def _gmres_bound(k: int, hmax: float) -> float:
    """The bound on ``|1 - (I - P) h|_inf`` that a GMRES iterate must meet:
    :func:`_residual_bound`, but at most ``sqrt(eps)``. The inverse of
    ``I - P``, an M-matrix, is non-negative with sup-norm ``|h*|_inf``, so a
    residual ``r`` leaves ``h`` within ``r |h*|_inf`` of the solution ``h*``.
    GMRES stops as soon as it meets its bound, so its answer may be that far
    off: the cap keeps it within ``sqrt(eps)`` of ``h*``, relatively, where
    the backward-error bound, which grows with ``|h|_inf``, would let it be
    off by tens of percent, and from 1 on pass the zero vector."""
    return min(_residual_bound(k, hmax), math.sqrt(_EPS))


def _meets_bound(h: np.ndarray, residual: float) -> bool:
    """Whether a GMRES solution with true residual ``residual`` meets :func:`_gmres_bound`."""
    return residual <= _gmres_bound(h.size, float(np.max(np.abs(h))))


def _gmres_cycles(k: int) -> int:
    """The cap on GMRES cycles for ``k`` unknowns: the ``k`` products in which
    full GMRES terminates in exact arithmetic, and one cycle more for rounding.
    A chain of ``k`` levels needs all of them: each cycle settles at most
    ``GMRES_RESTART`` more levels of the selection's graph."""
    return -(-k // GMRES_RESTART) + 1


def _workspace(k: int):
    """GMRES's buffers for ``k`` unknowns: the basis, the rotated Hessenberg
    matrix and the inverse of its leading triangle (only their upper
    triangles are ever written, so they serve every cycle and every call),
    and the Gram-Schmidt coefficients, their correction and projection."""
    square = (GMRES_RESTART, GMRES_RESTART)
    return (np.empty((GMRES_RESTART + 1, k)), np.zeros(square), np.zeros(square),
            np.empty(GMRES_RESTART), np.empty(GMRES_RESTART), np.empty(k))


def _gmres(apply, work, give_up: bool = False, slack: float = 0.0):
    """Restarted GMRES from zero for ``apply(h) = 1`` in the buffers ``work``
    (:func:`_workspace`): the last iterate, the sup-norm of its true
    residual, the number of products and whether ``slack`` changed a stop
    decision, so that the iterate is not the one GMRES gives without it.

    Each product adds a column to the Hessenberg matrix, orthogonalised by
    Gram-Schmidt twice, which the Givens rotations of the earlier columns and
    one new rotation bring to upper triangular form; the rotated right-hand
    side, kept as Python floats, then holds the least-squares misfit, the
    2-norm of the residual, which bounds its sup-norm. A stop test compares
    with the target ``max(bound, slack)``, ``bound`` being
    :func:`_gmres_bound`. The iterate ``h + y @ basis`` is formed, with ``y``
    from one triangular solve, only when the misfit could meet the target at
    its size, and at the end of a cycle: the basis rows are orthonormal, so
    ``|h|_inf + |y|_2`` bounds its sup-norm, and ``|y|_2`` is read from the
    inverse of the rotated triangle, which gains one column per product and
    is applied only once the misfit is within ``max(sqrt(eps), slack)``,
    above which no iterate can pass. A cycle ends on that test, on a
    breakdown or after ``GMRES_RESTART`` products. The basis, the triangle
    and the Gram-Schmidt coefficients live in buffers allocated once per
    solve (:class:`_Evaluator`).

    It stops once the true residual meets the target, after
    :func:`_gmres_cycles` cycles, or, with ``give_up``, as soon as the last
    cycle's reduction of the residual's 2-norm, kept up, would not meet the
    target within that cap.
    """
    basis, tri, inv, coef, part, proj = work
    k = basis.shape[1]
    h, hmax = np.zeros(k), 0.0
    r = np.ones(k)
    norm = math.sqrt(k)
    products, loose = 0, False
    cycles = _gmres_cycles(k)
    cap = max(math.sqrt(_EPS), slack)  # no iterate with a larger misfit passes
    for cycle in range(1, cycles + 1):
        np.divide(r, norm, out=basis[0])
        rhs = [norm]  # the rotated right-hand side
        turns = []  # (cos, sin) per rotation
        size, new = 0, None  # columns of the triangle; the iterate, once formed
        for j in range(GMRES_RESTART):
            w = apply(basis[j])
            products += 1
            done, c, total = basis[: j + 1], part[: j + 1], coef[: j + 1]
            # Gram-Schmidt twice keeps the basis orthogonal
            w -= np.dot(np.dot(done, w, out=total), done, out=proj)
            w -= np.dot(np.dot(done, w, out=c), done, out=proj)
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
            rhs.append(-sn * rhs[j])
            rhs[j] *= cs
            size, new = j + 1, None
            misfit = abs(rhs[size])
            if beta == 0.0:
                new = h + np.linalg.solve(tri[:size, :size], rhs[:size]) @ basis[:size]
                break
            if misfit <= cap:
                y = inv[:size, :size] @ rhs[:size]  # the least-squares solution, for its norm
                if misfit <= max(_gmres_bound(k, hmax + math.sqrt(y @ y)), slack):
                    new = h + np.linalg.solve(tri[:size, :size], rhs[:size]) @ basis[:size]
                    bound = _gmres_bound(k, np.max(np.abs(new)))
                    if misfit <= max(bound, slack):
                        loose = loose or misfit > bound
                        break
            np.divide(w, beta, out=basis[j + 1])
        if new is None:
            new = h + np.linalg.solve(tri[:size, :size], rhs[:size]) @ basis[:size]
        h = new
        hmax = float(np.max(np.abs(h)))
        r = 1.0 - apply(h)
        residual = float(np.max(np.abs(r)))
        bound = _gmres_bound(k, hmax)
        if residual <= max(bound, slack):
            loose = loose or residual > bound
            break
        last, norm = norm, math.sqrt(r @ r)
        # the 2-norm, cut at the last cycle's rate in each cycle left, must reach the target
        if give_up:
            reach = norm * (norm / last) ** (cycles - cycle) if norm < last else math.inf
            if reach > max(bound, slack):
                break
            loose = loose or reach > bound  # without the slack GMRES would give up here
    return h, residual, products, loose


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
        sol = np.linalg.solve(system, np.ones(k))
    except np.linalg.LinAlgError:
        sol = None
    # a solution with inf or NaN entries is as unbounded as a singular LU
    if sol is None or not np.isfinite(sol).all():
        raise RuntimeError(
            f"policy evaluation of size {k} is singular in double precision, so its "
            "residual and largest value are unbounded: the selection's escape "
            "probabilities round to zero and its hitting times are too large to represent"
        )
    return sol


@dataclass(frozen=True)
class _Evaluation:
    """One policy evaluation: the solution on the finite states, the sup-norm
    of its true residual, the path that gave it (``"gmres"`` or ``"lu"``), the
    GMRES products it took and whether it is loose, a GMRES iterate that a
    slack stopped or steered, not the evaluation's exact answer."""

    sol: np.ndarray
    residual: float
    path: str
    products: int
    loose: bool

    def misses(self, slack: float) -> bool:
        """Whether a loose evaluation misses ``slack`` or gives a value that is
        not positive, so that its selection may be improper."""
        return self.loose and not (self.residual <= slack and (self.sol > 0).all())


class _Evaluator:
    """Evaluations of one solve's selections on its finite states, with the
    state they share, set up once per solve on the view that holds the
    finite states' choices (the solve's region, :class:`_Bellman`):
    that view pinned to the current selection, refilled per selection
    (:meth:`~credalmeet.reach.ChoiceView.restrict` with ``into``), so that
    its pins read the region's own table; the padded vector and the output
    of the product, GMRES's buffers (:func:`_workspace`), the bytes of a
    dense solve (:func:`_dense_bytes`) and the selection, if any, on which
    the last evaluation's GMRES gave up under a slack.

    Every evaluation ends with a product on the solution it returns:
    GMRES's true residual, or the residual of the dense solve. So once
    :meth:`evaluate` returns, the padded vector is that solution, zero off
    the finite states, and when ``tabled`` is set, its last product went
    through :meth:`product` and left the pin's contraction of it in the
    table that the pin shares with the region: the region's contraction of
    the solution, bit for bit, which a greedy pass reads rather than
    contracts again (:meth:`_Bellman.greedy` with ``tabled``). A subclass that
    overrides :meth:`product` never sets it."""

    def __init__(self, view, finite: np.ndarray):
        k = finite.size
        self.view, self.finite = view, finite
        self.need = _dense_bytes(view, finite)
        self.pinned = None
        self.gave_up = None
        self.tabled = False
        self.padded = np.zeros(view.n)  # admissible choices put no mass outside the finite states
        self.out = np.empty(k)
        self.cols = segment_rows(finite, np.ones(k, dtype=np.int64))  # a slice when consecutive
        self.work = _workspace(k)

    def pin(self, choice: np.ndarray) -> None:
        """Pin the view to ``choice``, the selected choice per finite state."""
        self.pinned = self.view.restrict(self.finite, choice, self.pinned)

    def product(self, x: np.ndarray) -> np.ndarray:
        """``x - P x`` for the pinned selection, one :meth:`finite_values` call
        (the padded ``x`` is finite), in a buffer that holds it until the next
        product."""
        self.padded[self.cols] = x
        self.tabled = True
        return np.subtract(x, self.pinned.finite_values(self.padded, self.out), out=self.out)

    def evaluate(self, choice: np.ndarray, slack: float = 0.0) -> _Evaluation:
        """Solve ``(I - P) h = 1`` for the selection ``choice``.

        Restarted GMRES runs first, on :meth:`product`, and stops at
        ``slack`` when that is above its bound. An iterate the slack stopped
        or steered is returned as it is, loose, and so is one that misses
        the bound under a slack: its selection may be improper, and the
        caller decides. Otherwise, when GMRES's answer fails
        :func:`_meets_bound` (it gives up early while the dense solve is
        allowed or runs to its cap) the system is assembled and solved
        densely, by LU, which is backward stable at any scale. An exact
        evaluation of the selection on which the evaluation just before it
        gave up, short of its slack with the dense solve allowed, goes
        straight to LU: GMRES would replay the cycle it gave up on. Either
        way an exact answer must meet the backward-error bound.
        """
        k = self.finite.size
        self.pin(choice)
        self.tabled = False
        replay = slack == 0.0 and self.gave_up is not None and np.array_equal(choice, self.gave_up)
        self.gave_up = None
        if replay:
            sol, residual, products, loose, meets = None, math.inf, 0, False, False
        else:
            sol, residual, products, loose = _gmres(self.product, self.work, self.need <= MAX_DENSE_BYTES, slack)
            meets = _meets_bound(sol, residual)
        if loose or (slack > 0.0 and not meets):
            if residual > slack and self.need <= MAX_DENSE_BYTES:
                self.gave_up = choice.copy()
            return _Evaluation(sol, residual, "gmres", products, True)
        if not meets:
            why = (
                f"GMRES missed the backward-error bound within {products} products "
                f"(last residual {residual:.3e}), and "
            )
            sol = _dense_solve(self.view, self.finite, choice, why, self.need)
            residual = float(np.max(np.abs(1.0 - self.product(sol))))
        hmax = float(np.max(np.abs(sol)))
        bound = _residual_bound(k, hmax)
        if not (math.isfinite(hmax) and residual <= bound and (sol > 0).all()):
            raise RuntimeError(
                f"policy evaluation of size {k} is not accurate in double precision: "
                f"residual {residual:.3e} against the backward-error bound {bound:.3e}, "
                f"values from {sol.min():.3e} to {hmax:.3e}; hitting times of this size "
                "are beyond a double-precision solve"
            )
        return _Evaluation(sol, residual, "gmres" if meets else "lu", products, False)


def solve_view_policy(view, targets: np.ndarray, sense: str, tol: float, max_iter: int) -> HittingResult:
    """Policy iteration on a choice view; see :func:`policy_iteration`.

    One :class:`_Evaluator` serves the solve's evaluations. The evaluations
    are loose at first: GMRES stops once its true residual is within the
    slack, ``FORCING`` times the defect of the previous greedy pass and at
    most half the previous slack; the first slack is ``FORCING``, the defect
    of zero values. The first evaluation that comes out exact ends the loose
    ones: a selection that is stable under loose values is evaluated once
    more, exactly, and so is every selection after an exact evaluation, the
    first one when each finite state has one choice, and one whose slack
    would fall below ``SLACK_FLOOR``. A loose evaluation that misses its
    slack or gives a value that is not positive is dropped, not counted as
    a sweep, and the solve goes on exactly from the selection before it,
    whose loose values picked it (from the start selection when it is the
    first, by LU when GMRES gave up on it). Only two consecutive exact
    evaluations take part in the ``tol`` stop, and the last greedy pass
    gives the final residual unless the values changed after it. Only the current values
    are held: a solve cut at ``max_iter=k`` returns sweep ``k``'s values,
    loose or not, and, as its selection, the greedy one of those values,
    which sweep ``k + 1`` evaluates unless it is dropped."""
    cls, witness = classify_view(view, targets, sense)

    # Start from the classification's witness, proper on the finite region,
    # so that every evaluated system is non-singular: an arbitrary vertex may
    # loop forever. In the upper sense it is vertex 0 and every selection is
    # proper there, since a finite state with mass on the inf states would be
    # unsafe itself; in the lower sense the greedy pass gives the choices
    # with mass on them inf, which never wins.
    op = _Bellman(view, cls)
    finite, bounds = op.finite, op.bounds
    choice = witness[finite]
    off = np.isin(bounds[:-1] + choice, op.hopeless)
    if off.any():
        raise RuntimeError(
            f"state {finite[np.argmax(off)]} is classified finite but its start "
            "choice puts mass on the inf states; the classification pass is inconsistent"
        )

    f = np.zeros(view.n)  # the values, with the inf states zeroed until the end
    evaluator = _Evaluator(op.region, finite)  # the finite states are fixed from here on

    sweeps = 0
    converged = finite.size == 0  # nothing to evaluate
    residual = None  # of f, once a greedy pass has read it
    exact = False  # whether f is an exact evaluation
    slack = FORCING if bounds[-1] > finite.size else 0.0  # no choice to steer: exact from the start
    previous = choice  # the selection whose values picked choice
    while not converged and sweeps < max_iter:
        run = evaluator.evaluate(choice, slack)
        if run.misses(slack):
            choice = previous  # dropped: back to a proper selection, exactly
            run = evaluator.evaluate(choice)
        # an exact evaluation against the exact f it replaces
        converged = exact and not run.loose and bool(np.max(np.abs(run.sol - f[finite])) <= tol)
        f[finite], residual, exact = run.sol, None, not run.loose
        sweeps += 1
        if converged:
            break
        new_choice, residual = op.greedy(f, evaluator.tabled)
        settled = np.array_equal(new_choice, choice)
        if settled and exact:
            converged = True
            break
        slack = 0.0 if exact or settled else min(FORCING * residual, slack / 2.0)
        if slack < SLACK_FLOOR:
            slack = 0.0
        previous, choice = choice, new_choice

    if residual is None:  # no greedy pass read the last f
        residual = op.greedy(f, evaluator.tabled)[1]
    return _result(cls, finite, f, choice, sweeps, residual, converged, "policy-iteration")


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
    the solved values (ties keep the lowest index). The sweeps before the
    selection settles solve it loosely, to a slack that shrinks with the
    greedy defect; the later ones exactly, and ``iterations`` counts both.
    Stops when the selection repeats under exact values or consecutive exact
    value vectors agree within ``tol``. In upper mode the value vectors are
    componentwise non-decreasing across exact sweeps, in lower mode
    non-increasing.
    """
    _require_sense(sense)
    _require_budget(tol, max_iter)
    view = CredalChoices(model)
    return solve_view_policy(view, target_mask(view.n, targets), sense, tol, max_iter)
