import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import credalmeet
from credalmeet import (
    CredalMatrix,
    TransitionMatrix,
    build_product_space,
    hitting_times,
    meet,
    policy_iteration,
    selection_matrix,
    selfcheck,
    solver,
    value_iteration,
)
from credalmeet.core import target_mask
from credalmeet.meeting import JointChoices
from credalmeet.reach import CredalChoices, classify_view

from generators import random_credal_matrix, random_selection, random_targets, trapped_credal_matrix
from gmres_oracle import lstsq_gmres


def two_vertex_model():
    return CredalMatrix.from_rows(
        ["a", "b"], [[[0.5, 0.5], [0.9, 0.1]], [[0, 1]]]
    )


def test_all_targets_is_zero_without_a_sweep():
    m = CredalMatrix.precise(["a", "b"], np.eye(2))
    r = value_iteration(m, [0, 1], "upper")
    assert np.array_equal(r.values, [0.0, 0.0])
    assert r.iterations == 0 and r.converged
    p = policy_iteration(m, [0, 1], "upper")
    assert np.array_equal(p.values, [0.0, 0.0])
    assert p.iterations == 0 and p.converged


@pytest.mark.parametrize("solve", [value_iteration, policy_iteration])
@pytest.mark.parametrize("max_iter", [0, 1, 50])
def test_nothing_to_solve_is_converged_without_a_sweep(solve, max_iter):
    # a never leaves itself and cannot reach the target b: no state is finite
    m = CredalMatrix.precise(["a", "b"], np.eye(2))
    r = solve(m, [1], "upper", max_iter=max_iter)
    assert not r.classification.finite
    assert np.array_equal(r.values, [math.inf, 0.0])
    assert (r.iterations, r.residual, r.converged) == (0, 0.0, True)


def test_singleton_rows_reduce_to_precise_hitting():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = random_credal_matrix(rng, n=n, max_vertices=1)
        targets = random_targets(rng, n)
        t = TransitionMatrix(m.space, np.stack([m.vertices(i)[0] for i in range(n)]))
        h = hitting_times(t, targets)
        for sense in ("upper", "lower"):
            p = policy_iteration(m, targets, sense)
            assert p.iterations == (1 if p.classification.finite else 0)
            assert np.array_equal(np.isinf(p.values), np.isinf(h))
            finite = np.isfinite(h)
            assert np.allclose(p.values[finite], h[finite], atol=1e-10)
            v = value_iteration(m, targets, sense)
            assert v.converged
            assert np.allclose(v.values[finite], h[finite], atol=1e-8)


def test_hand_derived_two_vertex_bounds():
    m = two_vertex_model()
    # oracle: only two stationary selections exist, solve both by hand
    candidates = [1.0 / (1.0 - 0.5), 1.0 / (1.0 - 0.9)]
    for sense, want, vertex in (("upper", max(candidates), 1), ("lower", min(candidates), 0)):
        p = policy_iteration(m, [1], sense)
        assert abs(p.values[0] - want) < 1e-10
        assert p.selection[0] == vertex
        v = value_iteration(m, [1], sense, tol=1e-12)
        assert abs(v.values[0] - want) < 1e-9


def test_value_iteration_reports_non_convergence():
    # mixing solves the one-state system exactly with its third application
    # of F, so two cannot certify the answer
    m = two_vertex_model()
    r = value_iteration(m, [1], "upper", max_iter=2)
    assert not r.converged and r.iterations == 2


def _slow_chain():
    """Plain sweeps approach the upper bound 200 at ``a`` by a factor 0.995 each."""
    return CredalMatrix.from_rows(["a", "b"], [[[0.99, 0.01], [0.995, 0.005]], [[0, 1]]])


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-8])
def test_value_iteration_certifies_the_slow_chain_from_below(tol):
    r = value_iteration(_slow_chain(), [1], "upper", tol=tol)
    assert r.converged and r.error_bound <= tol
    assert 200.0 - tol <= r.values[0] <= 200.0


def test_value_iteration_without_a_tolerance_spends_its_budget():
    # the certified bracket always has a rounding margin, so tol=0 is never met
    r = value_iteration(_slow_chain(), [1], "upper", tol=0.0, max_iter=40)
    assert not r.converged and r.iterations == 40
    assert 0.0 < r.error_bound < 1e-9 and r.values[0] <= 200.0


def _lazy_chain(n=20):
    """Each state but the last stays put with 0.9 or 0.45 and moves on
    otherwise, so the upper bound at the first state is 190."""
    rows = []
    for i in range(n - 1):
        slow, fast = np.zeros(n), np.zeros(n)
        slow[[i, i + 1]] = 0.9, 0.1
        fast[[i, i + 1]] = 0.45, 0.55
        rows.append([slow, fast])
    rows.append([np.eye(n)[n - 1]])
    return CredalMatrix.from_rows([f"s{i}" for i in range(n)], rows), [n - 1]


def _dense_500():
    return random_credal_matrix(np.random.default_rng(3), n=500, max_vertices=3, dense_prob=1.0), [0]


def _picker():
    return CredalMatrix.from_rows(["a", "b"], [[[0.5, 0.5], [0.9, 0.1]], [[0, 1]]]), [1]


@pytest.mark.parametrize("problem, tol", [(_lazy_chain, 1e-10), (_dense_500, 1e-10), (_picker, 1e-13)])
def test_value_iteration_meets_a_tol_below_its_rounding_floor_there(problem, tol):
    """No bracket on these models can be certified within ``tol``: with
    values of 190, 726 and 10 the rounding margin alone makes it wider. The
    solve stops at that floor, converged, in a few hundred applications of
    ``F`` at most, and its ``error_bound`` says how wide the bracket is."""
    model, targets = problem()
    v = value_iteration(model, targets, "upper", tol=tol, max_iter=200_000)
    p = policy_iteration(model, targets, "upper")
    assert v.converged and v.iterations < 200 and tol < v.error_bound < 1e4 * tol
    finite = np.isfinite(p.values)
    gap = v.values[finite] - p.values[finite]
    assert (gap <= p.error_bound).all() and (-gap <= v.error_bound + p.error_bound).all()


def test_a_cut_value_iteration_returns_f_of_its_lower_end():
    # the slow chain's plain steps from zero: F(0) = 1, F(1) = 1.995; a cut
    # solve returns them, up to the rounding margin, and nothing below one
    for budget, want in ((0, 1.0), (1, 1.0), (2, 1.995)):
        r = value_iteration(_slow_chain(), [1], "upper", max_iter=budget)
        assert not r.converged and want - 1e-12 <= r.values[0] <= want


def test_value_iteration_clips_its_candidates_at_one(monkeypatch):
    """On this lazy lower chain the mixed candidates, unclipped, go as low as
    -400: every application of ``F`` after the first two, plain ones (from
    zero and from one) reads values of at least one, and some reads exactly
    one, the clip, where the bound is above 100. The answer is certified
    within ``tol`` of policy iteration's, from below."""
    n = 6
    rows = []
    for i in range(n - 1):
        lazy, back = np.zeros(n), np.zeros(n)
        lazy[[i, i + 1]] = 0.99, 0.01
        back[[max(i - 1, 0), i + 1]] += (0.9, 0.1)
        rows.append([lazy, back])
    rows.append([np.eye(n)[n - 1]])
    model = CredalMatrix.from_rows([f"s{i}" for i in range(n)], rows)
    p = policy_iteration(model, [n - 1], "lower")
    inputs = []
    init = solver._Bellman.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        evaluate = self.evaluate
        self.evaluate = lambda f: inputs.append(f[self.finite].copy()) or evaluate(f)

    monkeypatch.setattr(solver._Bellman, "__init__", recording)
    r = value_iteration(model, [n - 1], "lower", tol=1e-8)
    assert r.converged and len(inputs) == r.iterations + 1  # the last input is the greedy pass's
    applied = np.array(inputs[2:-1])
    assert (applied >= 1.0).all() and (applied == 1.0).any()
    assert (p.values[:-1][np.nonzero(applied == 1.0)[1]] > 100.0).all()
    assert (np.abs(r.values - p.values) <= 1e-8).all() and (r.values <= p.values + p.error_bound).all()


@st.composite
def trapped_problems(draw):
    """A base model on 2 to 12 states and 1 to 3 traps, with vertices into
    the traps in lower sense (:func:`generators.trapped_credal_matrix`), a
    target, a sense and a tolerance."""
    sense = draw(st.sampled_from(["upper", "lower"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model, target = trapped_credal_matrix(rng, draw(st.integers(2, 12)), draw(st.integers(1, 3)),
                                          leak=sense == "lower")
    return model, target, sense, draw(st.sampled_from([1e-4, 1e-8]))


@settings(max_examples=400, deadline=None)
@given(trapped_problems())
def test_value_iteration_is_certified_against_policy_iteration(problem):
    """Value iteration converges once its certified bracket is within
    ``tol``, and only then or at the bracket's rounding floor, and its values
    then lie within ``tol`` of the bound, or within that floor; converged or
    not, its values lie below the bound. Policy iteration's values, within
    their ``error_bound`` of the bound, stand for it, up to the rounding of
    value iteration's last division. Both solves classify alike."""
    model, target, sense, tol = problem
    p = policy_iteration(model, [target], sense)
    v = value_iteration(model, [target], sense, tol=tol, max_iter=300)
    assert v.classification == p.classification
    assert np.array_equal(np.isinf(v.values), np.isinf(p.values))
    finite = np.isfinite(p.values)
    gap, rounding = v.values[finite] - p.values[finite], 2 * np.finfo(float).eps * p.values[finite]
    assert (gap <= p.error_bound + rounding).all()
    # the bracket of a defect within the rounding margin, at most 2 mu on either side
    top = float(np.max(p.values[finite], initial=0.0)) * (1 + 1e-6)
    floor = 4.01 * (model.size / 2 + 2) * np.finfo(float).eps * (1 + 2.01 * top) * top
    assert v.converged or v.error_bound > tol
    if v.converged:
        assert v.error_bound <= max(tol, floor)
        assert (np.abs(gap) <= max(tol, v.error_bound) + p.error_bound + rounding).all()


def test_policy_iteration_reports_non_convergence():
    m = two_vertex_model()
    r = policy_iteration(m, [1], "upper", max_iter=1)
    assert not r.converged


def _assert_result_layout(r):
    """Values infinite exactly on the classified hopeless states and zero on
    the target; the selection zero off the finite states."""
    cls = r.classification
    assert frozenset(np.flatnonzero(np.isinf(r.values)).tolist()) == cls.infinite
    assert all(r.values[t] == 0.0 for t in cls.target)
    off = np.ones(r.values.size, dtype=bool)
    off[sorted(cls.finite)] = False
    assert not r.selection[off].any()


def test_results_satisfy_fixed_point():
    # the default budget reaches the fixed point; every budget, a cut solve's
    # included, gives the layout of _assert_result_layout, in both solvers
    # and on joint views
    rng = np.random.default_rng(29)
    # a stays put, so it never reaches c, and of the pairs only (b, c) can meet
    stuck = CredalMatrix.from_rows(
        ["a", "b", "c"], [[[1, 0, 0]], [[0, 1, 0], [0, 0.5, 0.5]], [[0, 0.5, 0.5]]]
    )
    cases = []
    for _ in range(25):
        m = random_credal_matrix(rng)
        cases.append((m, random_targets(rng, m.size)))
    mixed = set()  # agents of the results with both finite and infinite states
    for m, targets in [*cases, (stuck, [2])]:
        for sense in ("upper", "lower"):
            r = policy_iteration(m, targets, sense)
            assert r.converged
            assert r.residual <= 1e-9
            _assert_result_layout(r)
            for solve, max_iter in itertools.product((policy_iteration, value_iteration), (0, 1)):
                _assert_result_layout(solve(m, targets, sense, max_iter=max_iter))
            _assert_result_layout(value_iteration(m, targets, sense))
            if r.classification.infinite and r.classification.finite:
                mixed.add(1)
    models = [random_credal_matrix(np.random.default_rng(seed), n=4, max_vertices=3, dense_prob=0.4)
              for seed in range(8)]
    for model in [*models, stuck]:
        view, targets = _view(model, 2)
        for sense, max_iter in itertools.product(("upper", "lower"), (0, 1, 1000)):
            r = solver.solve_view_policy(view, targets, sense, 1e-10, max_iter)
            _assert_result_layout(r)
            if r.classification.infinite and r.classification.finite:
                mixed.add(2)
    assert mixed == {1, 2}


def test_selection_reproduces_values():
    rng = np.random.default_rng(37)
    for _ in range(20):
        m = random_credal_matrix(rng)
        targets = random_targets(rng, m.size)
        for sense in ("upper", "lower"):
            r = policy_iteration(m, targets, sense)
            t = TransitionMatrix(m.space, selection_matrix(m, r.selection))
            h = hitting_times(t, targets)
            finite = sorted(r.classification.finite)
            assert np.allclose(h[finite], r.values[finite], atol=1e-9)


def test_sandwich_property():
    rng = np.random.default_rng(41)
    for _ in range(20):
        m = random_credal_matrix(rng)
        targets = random_targets(rng, m.size)
        up = policy_iteration(m, targets, "upper").values
        lo = policy_iteration(m, targets, "lower").values
        for _ in range(10):
            sel = random_selection(rng, m)
            t = TransitionMatrix(m.space, selection_matrix(m, sel))
            h = hitting_times(t, targets)
            assert ((lo <= h + 1e-9) | np.isinf(lo) & np.isinf(h)).all()
            assert ((h <= up + 1e-9) | np.isinf(up)).all()
            assert not (np.isinf(h) & np.isfinite(up)).any()
            assert not (np.isinf(lo) & np.isfinite(h)).any()


def _record_evaluations(monkeypatch):
    """Record every evaluation of the solves that follow, as ``(choice,
    slack, evaluation)`` per call of the solver's own evaluator."""
    calls = []
    evaluate = solver._Evaluator.evaluate

    def recorded(self, choice, slack=0.0):
        run = evaluate(self, choice, slack)
        calls.append((choice.copy(), slack, run))
        return run

    monkeypatch.setattr(solver._Evaluator, "evaluate", recorded)
    return calls


def test_policy_sweeps_are_monotone(monkeypatch):
    # consecutive exact sweeps are monotone; a loose sweep lies within its
    # slack of its selection's exact values, relatively: I - P is an
    # M-matrix, so a residual r leaves h within |r|_inf h* of h*
    calls = _record_evaluations(monkeypatch)
    rng = np.random.default_rng(43)
    loose = 0
    for _ in range(20):
        m = random_credal_matrix(rng, n=int(rng.integers(2, 60)))
        targets = random_targets(rng, m.size)
        for sense, slack in (("upper", -1e-9), ("lower", 1e-9)):
            calls.clear()
            r = policy_iteration(m, targets, sense)
            kept = [call for call in calls if not call[2].misses(call[1])]
            assert len(kept) == r.iterations
            finite = np.array(sorted(r.classification.finite), dtype=np.int64)
            # a solve cut after k sweeps returns sweep k's values
            sweeps = [policy_iteration(m, targets, sense, max_iter=k).values
                      for k in range(1, r.iterations + 1)]
            for (choice, forcing, run), values in zip(kept, sweeps):
                assert values[finite].tobytes() == run.sol.tobytes()
                if run.loose:
                    loose += 1
                    exact = solver._dense_solve(CredalChoices(m), finite, choice)
                    assert (np.abs(run.sol - exact) <= forcing * exact + 1e-9 * exact).all()
            for (a, b), (before, after) in zip(zip(sweeps, sweeps[1:]), zip(kept, kept[1:])):
                if before[2].loose or after[2].loose:
                    continue
                finite = np.isfinite(a) & np.isfinite(b)
                step = b[finite] - a[finite]
                if sense == "upper":
                    assert (step >= slack).all()
                else:
                    assert (step <= slack).all()
    assert loose


def test_policy_and_value_agree():
    rng = np.random.default_rng(47)
    for _ in range(30):
        m = random_credal_matrix(rng)
        targets = random_targets(rng, m.size)
        for sense in ("upper", "lower"):
            p = policy_iteration(m, targets, sense)
            v = value_iteration(m, targets, sense, tol=1e-11, max_iter=50_000)
            assert p.converged and v.converged
            assert np.array_equal(np.isinf(p.values), np.isinf(v.values))
            finite = np.isfinite(p.values)
            assert np.max(np.abs(p.values[finite] - v.values[finite])) <= 1e-8


def test_lower_mode_survives_risky_only_routes():
    # the only moving vertex risks an absorbing sink; the state must come out
    # infinite from both methods without a singular policy evaluation
    m = CredalMatrix.from_rows(
        ["a", "g", "s"],
        [[[1, 0, 0], [0, 0.5, 0.5]], [[0, 1, 0]], [[0, 0, 1]]],
    )
    p = policy_iteration(m, [1], "lower")
    v = value_iteration(m, [1], "lower")
    assert math.isinf(p.values[0]) and math.isinf(v.values[0])
    assert p.converged and v.converged


def test_lower_mode_starts_from_a_proper_selection():
    # vertex 0 of row a loops forever; a naive lowest-index start would make
    # the first policy evaluation singular
    m = CredalMatrix.from_rows(
        ["a", "g"], [[[1, 0], [0.5, 0.5]], [[0, 1]]]
    )
    r = policy_iteration(m, [1], "lower")
    assert r.converged
    assert abs(r.values[0] - 2.0) < 1e-10
    assert r.selection[0] == 1


def _meet_two(model, targets, sense, **kw):
    return meet(model, 2, "vacuous", sense, **kw)


@pytest.mark.parametrize("solve", [value_iteration, policy_iteration, _meet_two])
@pytest.mark.parametrize("budget, name", [
    pytest.param({"tol": math.nan}, "tol", id="nan-tol"),
    pytest.param({"tol": -1e-9}, "tol", id="negative-tol"),
    pytest.param({"max_iter": -3}, "max_iter", id="negative-max_iter"),
])
def test_a_nan_or_negative_budget_is_refused_by_name(solve, budget, name):
    with pytest.raises(ValueError, match=f"^{name} must be non-negative"):
        solve(two_vertex_model(), [1], "upper", **budget)


@pytest.mark.parametrize("solve", [value_iteration, policy_iteration, _meet_two])
@pytest.mark.parametrize("budget, name", [
    pytest.param({"max_iter": 2.5}, "max_iter", id="float-max_iter"),
    pytest.param({"max_iter": True}, "max_iter", id="bool-max_iter"),
    pytest.param({"max_iter": "5"}, "max_iter", id="string-max_iter"),
    pytest.param({"tol": True}, "tol", id="bool-tol"),
    pytest.param({"tol": "1e-8"}, "tol", id="string-tol"),
])
def test_a_budget_of_the_wrong_kind_is_refused_by_name(solve, budget, name):
    with pytest.raises(ValueError, match=f"^{name} must be an? (integer|real number), got"):
        solve(two_vertex_model(), [1], "upper", **budget)


@pytest.mark.parametrize("solve", [value_iteration, policy_iteration, _meet_two])
def test_numpy_budgets_are_accepted(solve):
    r = solve(two_vertex_model(), [1], "upper", tol=np.float32(1e-8), max_iter=np.int32(1000))
    assert r.converged


def test_a_zero_budget_is_accepted():
    r = value_iteration(two_vertex_model(), [1], "upper", tol=0.0, max_iter=0)
    assert r.iterations == 0 and not r.converged


def test_empty_target_rejected():
    m = two_vertex_model()
    with pytest.raises(ValueError):
        policy_iteration(m, [], "upper")
    with pytest.raises(ValueError):
        value_iteration(m, [], "lower")


# ------------------------------------------------------- policy evaluation

def _view(model, agents, mode="quotient"):
    """The base view (one agent) or a joint view, with its target mask."""
    if agents == 1:
        return CredalChoices(model), target_mask(model.size, [model.size - 1])
    view = JointChoices(model, build_product_space(model.space, agents, mode))
    return view, view.product.target_mask()


def _admissible(view, targets):
    """Finite states of the upper classification and, per finite state, the
    choices that put no mass on its inf states; every such selection is proper."""
    cls, _ = classify_view(view, targets, "upper")
    finite = np.array(sorted(cls.finite), dtype=np.int64)
    ok = ~view.touches(cls.infinite_mask(view.n))[view.choice_rows(finite)]
    bounds = view.choice_offsets(finite)
    return finite, [np.flatnonzero(ok[a:b]).tolist() for a, b in zip(bounds, bounds[1:])]


def _operator(view, finite, choice):
    """The product ``x -> x - P x`` of one selection on the finite states,
    through a solve's evaluator pinned to it."""
    evaluator = solver._Evaluator(view, finite)
    evaluator.pin(choice)
    return evaluator.product


def _gmres(apply, k, give_up=False, slack=0.0):
    """GMRES for ``k`` unknowns in buffers of its own."""
    return solver._gmres(apply, solver._workspace(k), give_up, slack)


def _both_solves(view, finite, choice):
    h, residual, _, _ = _gmres(_operator(view, finite, choice), finite.size)
    assert solver._meets_bound(h, residual)
    return h, solver._dense_solve(view, finite, choice)


def _chain(n, lazy=0.0, walk=False):
    """State i steps to i - 1 (staying put with probability ``lazy``), or with
    ``walk`` to i - 1 or i + 1 evenly (reflected at n - 1); state 0 absorbs."""
    rows = np.zeros((n, n))
    rows[0, 0] = 1.0
    for i in range(1, n):
        if walk:
            rows[i, i - 1] += 0.5
            rows[i, min(i + 1, n - 1)] += 0.5
        else:
            rows[i, i - 1], rows[i, i] = 1.0 - lazy, lazy
    return CredalMatrix.precise([f"s{i}" for i in range(n)], rows)


def _credal_walk(n):
    """A walk towards absorbing state n - 1, reflected at 0, whose states each
    step fairly (vertex 1), lazily by a half (vertex 2) or by a quarter
    (vertex 0): the fastest vertex wins in the lower sense and the slowest in
    the upper, and every selection mixes too slowly for restarted GMRES."""
    rows = []
    for i in range(n - 1):
        step = np.zeros(n)
        step[max(i - 1, 0)] += 0.5
        step[i + 1] += 0.5
        rows.append([0.75 * step + 0.25 * np.eye(n)[i], step, 0.5 * step + 0.5 * np.eye(n)[i]])
    rows.append([np.eye(n)[n - 1]])
    return CredalMatrix.from_rows([f"s{i}" for i in range(n)], rows)


def _chain_system(n, **kw):
    view = CredalChoices(_chain(n, **kw))
    finite = np.arange(1, n)
    choice = np.zeros(n - 1, dtype=np.int64)
    return view, finite, choice, _operator(view, finite, choice)


@st.composite
def selection_systems(draw):
    """A base view, or a 2- or 3-agent joint view (full or quotient, pinned or
    not), on a model with sparse vertices, its finite states under the upper
    classification (often bordered by inf states) and one admissible choice
    per finite state."""
    agents = draw(st.sampled_from([1, 2, 3]))
    mode = draw(st.sampled_from(["full", "quotient"]))
    n = draw(st.integers(2, {1: 12, 2: 6, 3: 4}[agents]))
    weight = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    rows = []
    for _ in range(n):
        drawn = draw(st.lists(weight, min_size=1, max_size=3))
        rows.append(list({tuple(x / sum(w) for x in w): None for w in drawn}))
    view, targets = _view(CredalMatrix.from_rows([f"s{i}" for i in range(n)], rows), agents, mode)
    if agents > 1 and draw(st.booleans()):
        counts = np.diff(view.choice_offsets(np.arange(view.n)))
        pick = [draw(st.integers(0, c - 1)) for c in counts.tolist()]
        view = view.restrict(np.arange(view.n), pick)
    finite, options = _admissible(view, targets)
    assume(finite.size)
    return view, finite, np.array([draw(st.sampled_from(o)) for o in options])


@settings(max_examples=80, deadline=None)
@given(selection_systems())
def test_matrix_free_evaluation_matches_dense_solve(system):
    gmres, dense = _both_solves(*system)
    assert np.allclose(gmres, dense, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("agents, mode", [(1, None), (2, "full"), (2, "quotient"), (3, "quotient")])
def test_matrix_free_evaluation_under_slow_contraction(agents, mode):
    # upper hitting time of b from a is exactly 200 (vertex 1 leaves at rate .005)
    m = CredalMatrix.from_rows(["a", "b"], [[[0.99, 0.01], [0.995, 0.005]], [[0, 1]]])
    view, targets = _view(m, agents, mode)
    finite, options = _admissible(view, targets)
    tops = []
    for choice in itertools.product(*options):
        gmres, dense = _both_solves(view, finite, np.array(choice))
        assert np.allclose(gmres, dense, rtol=1e-9, atol=0.0)
        tops.append(gmres.max())
    if agents == 1:
        assert abs(max(tops) - 200.0) <= 200.0 * 1e-9


def test_unrepresentable_hitting_time_is_reported_as_a_scale_problem():
    # exact answer 1e200: 1 - 1e-200 rounds to 1, so I - P is singular in
    # double precision though the classification (a reaches m) is right
    m = CredalMatrix.from_rows(["a", "m"], [[[1 - 1e-200, 1e-200]], [[0, 1]]])
    for sense in ("upper", "lower"):
        with pytest.raises(RuntimeError, match="singular in double precision") as err:
            policy_iteration(m, [1], sense)
        assert "size 1" in str(err.value) and "classification" not in str(err.value)


def test_dense_solution_with_non_finite_entries_is_reported_as_singular():
    # with the subnormal mass of c's last vertex, LU factors the 3-agent
    # system of the 30 finite states without complaint, but its solution has
    # inf or NaN entries, from which no residual may be computed
    rows = [[[1, 0, 0, 0, 0]],
            [[0, .1147565518237446, .7481878119180301, 0, .13705563625822537], [0, 0, 1, 0, 0]],
            [[0, .34957554081045583, .2188281088064088, 0, .4315963503831355],
             [0, .5228783063230051, .2533389625309439, 0, .22378273114605102], [0, 1, 0, 0, 1e-310]],
            [[1, 0, 0, 0, 0], [.1802279204165756, 0, 0, .8197720795834245, 0]],
            [[0, .8541763986010591, .14582360139894096, 0, 0], [0, .15926628368399282, 0, 0, .8407337163160071]]]
    m = CredalMatrix.from_rows(["a", "b", "c", "d", "e"], rows)
    with pytest.raises(RuntimeError, match="size 30 is singular in double precision"):
        meet(m, 3, "vacuous", "upper", "full")


def test_inaccurate_evaluation_names_its_residual(monkeypatch):
    # with a zero bound no rounded solution passes the residual check
    m = random_credal_matrix(np.random.default_rng(5), n=6, dense_prob=1.0)
    monkeypatch.setattr(solver, "BACKWARD_ERROR_FACTOR", 0.0)
    with pytest.raises(RuntimeError, match=r"size 5 is not accurate .* residual \d"):
        policy_iteration(m, [0], "upper")


@pytest.mark.parametrize("n, lazy", [(701, 0.0), (301, 0.9)])
def test_matrix_free_evaluation_restarts_along_a_long_chain(n, lazy):
    # each GMRES cycle settles at most GMRES_RESTART more levels of the chain,
    # so the k = n - 1 unknowns take k products, restarted every GMRES_RESTART
    view, finite, choice, apply = _chain_system(n, lazy=lazy)
    h, residual, products, _ = _gmres(apply, n - 1)
    assert solver._meets_bound(h, residual) and products >= n - 1
    assert np.allclose(h, solver._dense_solve(view, finite, choice), rtol=1e-9, atol=0.0)
    assert np.allclose(h, finite / (1.0 - lazy), rtol=1e-9, atol=0.0)


def test_matrix_free_evaluation_gives_up_early_when_a_dense_solve_is_allowed():
    # a fair walk converges far too slowly for restarted GMRES: with a dense
    # solve to fall back on it stops after one cycle, without one it runs to the cap
    view, finite, choice, apply = _chain_system(300, walk=True)
    for give_up, products in [(True, solver.GMRES_RESTART),
                              (False, solver._gmres_cycles(299) * solver.GMRES_RESTART)]:
        h, residual, used, _ = _gmres(apply, 299, give_up)
        assert used == products and not solver._meets_bound(h, residual)
    dense = solver._dense_solve(view, finite, choice)
    run = solver._Evaluator(view, finite).evaluate(choice)
    assert np.array_equal(run.sol, dense) and (run.path, run.products, run.loose) == ("lu", solver.GMRES_RESTART, False)


@st.composite
def large_selection_systems(draw):
    """A base view or a 2- or 3-agent joint view on a seeded random model with
    a few hundred states, its finite states under the upper classification, one
    random admissible choice per finite state, whether GMRES may give up and
    its slack."""
    agents, mode, n = draw(st.sampled_from([
        (1, None, 257), (1, None, 330), (2, "quotient", 24), (2, "quotient", 28),
        (2, "full", 17), (3, "quotient", 12), (3, "quotient", 13),
    ]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_credal_matrix(rng, n=n, max_vertices=3, dense_prob=draw(st.sampled_from([0.7, 0.9, 1.0])))
    view, targets = _view(model, agents, mode)
    finite, options = _admissible(view, targets)
    assume(finite.size)
    choice = np.array([o[rng.integers(len(o))] for o in options])
    return view, finite, choice, draw(st.booleans()), draw(st.sampled_from([0.0, 1e-6, solver.FORCING]))


@settings(max_examples=40, deadline=None)
@given(large_selection_systems())
def test_gmres_matches_its_least_squares_oracle(system):
    # the Givens loop takes the oracle's stop decisions, so its product count,
    # and agrees with its iterate to rounding
    view, finite, choice, give_up, slack = system
    apply = _operator(view, finite, choice)
    h, residual, products, _ = _gmres(apply, finite.size, give_up, slack)
    want, _, want_products = lstsq_gmres(apply, finite.size, give_up, slack)
    assert products == want_products
    assert np.allclose(h, want, rtol=1e-12, atol=0.0)


def test_policy_evaluation_never_calls_lstsq(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq was called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    rng = np.random.default_rng(11)
    base = random_credal_matrix(rng, n=300, max_vertices=3, dense_prob=0.9)
    pair = random_credal_matrix(rng, n=25, max_vertices=3, dense_prob=0.9)
    for sense in ("upper", "lower"):
        assert policy_iteration(base, [0], sense).converged
        assert meet(pair, 2, "vacuous", sense).converged


@pytest.mark.parametrize("n, chain, give_up", [
    (301, {"lazy": 0.9}, False), (300, {"walk": True}, True), (300, {"walk": True}, False),
])
def test_gmres_restarts_and_gives_up_like_its_oracle(n, chain, give_up):
    # many cycles, or a give-up after one: the same products as the oracle,
    # and the same verdict on the bound, with no slack and with one; a slack
    # marks the answer loose exactly when it stopped or steered the solve
    *_, apply = _chain_system(n, **chain)
    exact = _gmres(apply, n - 1, give_up)
    for slack in (0.0, 1e-6, 1e-3, solver.FORCING):
        h, residual, products, loose = _gmres(apply, n - 1, give_up, slack)
        want, want_residual, want_products = lstsq_gmres(apply, n - 1, give_up, slack)
        assert products == want_products
        assert solver._meets_bound(h, residual) == solver._meets_bound(want, want_residual)
        assert loose == (h.tobytes() != exact[0].tobytes())


@pytest.mark.parametrize("n, chain, give_up", [
    (301, {"lazy": 0.9}, False), (701, {}, False), (300, {"walk": True}, True), (300, {"walk": True}, False),
])
def test_gmres_solves_its_triangle_once_per_iterate(n, chain, give_up, monkeypatch):
    # along a chain the misfit meets its bound only at the end of a cycle, so
    # the only iterates formed are the cycles' last ones, each from one
    # triangular solve, while a cycle takes up to GMRES_RESTART products
    solves, calls = [], []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    *_, apply = _chain_system(n, **chain)
    _, _, products, _ = _gmres(lambda x: calls.append(1) or apply(x), n - 1, give_up)
    cycles = len(calls) - products  # each cycle ends on one product with its iterate
    assert len(solves) == cycles == -(-products // solver.GMRES_RESTART)


@pytest.mark.parametrize("agents, n", [(1, 12), (1, 300), (2, 9)])
@pytest.mark.parametrize("sense", ["upper", "lower"])
@pytest.mark.parametrize("tol, max_iter", [(1e-10, 1000), (0.0, 1000), (1e-10, 1), (1e-10, 0), (1e3, 1000)])
def test_policy_iteration_makes_one_greedy_pass_per_sweep(agents, n, sense, tol, max_iter, monkeypatch):
    # a sweep that reaches the improvement step makes the one greedy pass, and
    # the final residual reuses it unless the values changed after it (a sweep
    # that stops on tol, as every second sweep does at tol 1e3) or no sweep
    # ran; the dense-solve bytes are counted once per solve
    calls = {"greedy": 0, "_dense_bytes": 0}
    for owner, name in ((solver._Bellman, "greedy"), (solver, "_dense_bytes")):
        def counted(*args, fn=getattr(owner, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)
    model = random_credal_matrix(np.random.default_rng(n), n=n, max_vertices=3, dense_prob=0.9)
    view, targets = _view(model, agents, "quotient")
    res = solver.solve_view_policy(view, targets, sense, tol, max_iter)
    assert res.classification.finite
    assert calls == {"greedy": max(res.iterations, 1), "_dense_bytes": 1}


@pytest.mark.parametrize("solve", [solver.solve_view_value, solver.solve_view_policy])
@pytest.mark.parametrize("sense", ["upper", "lower"])
@pytest.mark.parametrize("agents, trap", [(1, False), (2, False), (1, True), (2, True)])
def test_a_solve_tests_support_on_the_inf_states_only_when_there_are_some(solve, sense, agents, trap, monkeypatch):
    # on top of the classification's support tests, a solve makes one on the
    # inf states in the lower sense when some state is infinite, and none
    # when none is (an all-false mask touches no choice) or in the upper
    # sense, where no finite state has a choice with mass on an inf state (it
    # would be unsafe). Dense vertices reach every state, so no state is
    # infinite without the trap: a state that never leaves itself, entered
    # only by the first vertex of state 1, whose second vertex and the later
    # states enter neither, so that some states stay finite in both senses
    # and a lower-sense choice of a finite state has mass on an inf state
    model = random_credal_matrix(np.random.default_rng(7), n=6, max_vertices=2, dense_prob=1.0)
    if trap:
        keep = lambda v, lo: v * (np.arange(6) >= lo) / v[lo:].sum()
        rows = [[np.eye(6)[0]], [model.vertices(1)[0], keep(model.vertices(1)[1], 1)]]
        rows += [[keep(v, 2) for v in model.vertices(i)] for i in range(2, 6)]
        model = CredalMatrix.from_rows(model.space.labels, rows)
    view, targets = _view(model, agents)
    calls = []
    touches = type(view).touches
    monkeypatch.setattr(type(view), "touches", lambda self, mask: calls.append(mask) or touches(self, mask))
    cls, _ = classify_view(view, targets, sense)
    classified = len(calls)
    res = solve(view, targets, sense, 1e-10, 1000)
    assert res.classification == cls and bool(cls.infinite) == trap and cls.finite
    assert len(calls) == 2 * classified + (trap and sense == "lower")
    assert all(mask.any() for mask in calls[2 * classified:])
    # the test's answer: all false where it is skipped, some true otherwise
    finite = np.array(sorted(cls.finite), dtype=np.int64)
    hopeless = touches(view, cls.infinite_mask(view.n))[view.choice_rows(finite)]
    assert hopeless.any() == (trap and sense == "lower")


@pytest.mark.parametrize("dense_allowed", [True, False])
def test_policy_iteration_on_a_long_chain(monkeypatch, dense_allowed):
    # h_i = i; without a dense solve to fall back on, GMRES must run to convergence
    if not dense_allowed:
        monkeypatch.setattr(solver, "MAX_DENSE_BYTES", 0)
        monkeypatch.setattr(CredalChoices, "block", None)
    n = 701
    for sense in ("upper", "lower"):
        res = policy_iteration(_chain(n), [0], sense)
        assert res.converged and np.allclose(res.values, np.arange(n), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("n, step", [
    (100, 1e-12), (257, 1e-12), (300, 1e-12), (100, 5e-12), (100, 1e-11),
    (300, 2e-11), (300, 5e-11), (30, 1e-11), (30, 1e-9),
])
@pytest.mark.parametrize("sense", ["upper", "lower"])
def test_policy_iteration_on_a_lazy_chain_matches_the_oracle(n, step, sense):
    # a step down in about 1 / step: hitting times near i / step, where the
    # backward-error bound is about 1e-3 to 40; a GMRES iterate that stops as
    # it meets such a bound may be off by its relative size (70% at n = 100,
    # step 1e-12, 1e-4 at n = 30, step 1e-11), and LU must solve it
    model = _chain(n, lazy=1.0 - step)
    res = policy_iteration(model, [0], sense)
    want = hitting_times(TransitionMatrix(model.space, model.stack), [0])
    assert res.converged
    np.testing.assert_allclose(res.values, want, rtol=1e-12, atol=0.0)
    assert res.residual == 0.0 or res.residual <= solver._residual_bound(n - 1, want.max())


def test_refusal_after_gmres_misses_its_bound_names_both_causes(monkeypatch):
    monkeypatch.setattr(solver, "MAX_DENSE_BYTES", 0)
    products = solver._gmres_cycles(299) * solver.GMRES_RESTART
    with pytest.raises(ValueError, match=(
        rf"GMRES missed the backward-error bound within {products} products "
        r"\(last residual \d.*\), and a dense policy evaluation of size 299 would allocate"
    )):
        policy_iteration(_chain(300, walk=True), [0], "upper")


def test_gmres_alone_answers_within_sqrt_eps_of_the_oracle(monkeypatch):
    # the lazy chain's 29 unknowns have a backward-error bound of 1.1e-6 with
    # a step down in 1e6; with no dense solve to fall back on, GMRES meets its
    # bound, capped at sqrt(eps), and so lies within sqrt(eps) of the oracle
    monkeypatch.setattr(solver, "MAX_DENSE_BYTES", 0)
    model = _chain(30, lazy=1.0 - 1e-6)
    res = policy_iteration(model, [0], "upper")
    want = hitting_times(TransitionMatrix(model.space, model.stack), [0])
    assert res.converged
    np.testing.assert_allclose(res.values, want, rtol=np.sqrt(np.finfo(float).eps), atol=0.0)


def test_gmres_alone_refuses_an_answer_its_capped_bound_cannot_vouch_for(monkeypatch):
    # with a step down in 1e9 the backward-error bound is 1.1e-3, which a
    # GMRES iterate meets 1.7e-6 below the oracle; capped at sqrt(eps) the
    # bound is below the residual's rounding, and with no dense solve to fall
    # back on the evaluation is refused
    monkeypatch.setattr(solver, "MAX_DENSE_BYTES", 0)
    with pytest.raises(ValueError, match=r"GMRES missed the backward-error bound within \d+ products"):
        policy_iteration(_chain(30, lazy=1.0 - 1e-9), [0], "upper")


def test_dense_fallback_refuses_an_oversize_system(monkeypatch):
    rng = np.random.default_rng(3)
    n = 130
    m = CredalMatrix.precise([f"s{i}" for i in range(n)], rng.dirichlet(np.ones(n), size=n))
    view = JointChoices(m, build_product_space(m.space, 2, "quotient"))
    finite = np.flatnonzero(~view.product.target_mask())  # every off-diagonal pair is finite
    k = finite.size
    need = solver._dense_bytes(view, finite)
    assert need > solver.MAX_DENSE_BYTES

    def fail(self, states):
        raise AssertionError("a dense block was built before the size guard")

    monkeypatch.setattr(solver, "_gmres", lambda apply, work, give_up, slack: (np.zeros(k), 1.0, 600, False))
    monkeypatch.setattr(JointChoices, "block", fail)
    with pytest.raises(ValueError, match=f"600 products .* size {k} would allocate about {need} bytes"):
        meet(m, 2, "vacuous", "upper", "quotient")


def test_library_does_not_import_scipy():
    # precise and credal pair meetings, whose 435 unknowns go through GMRES,
    # leave scipy unloaded
    src = os.path.dirname(os.path.dirname(credalmeet.__file__))
    code = (
        "import sys, numpy as np\n"
        "from credalmeet import CredalMatrix, meet, solver\n"
        "gmres, calls = solver._gmres, []\n"
        "solver._gmres = lambda *args, **kw: calls.append(1) or gmres(*args, **kw)\n"
        "rng = np.random.default_rng(0)\n"
        "labels = [str(i) for i in range(30)]\n"
        "m = CredalMatrix.precise(labels, rng.dirichlet(np.ones(30), size=30))\n"
        "c = CredalMatrix.from_rows(labels, [rng.dirichlet(np.ones(30), size=2) for _ in labels])\n"
        "assert meet(m).converged\n"
        "assert all(meet(c, sense=s).converged for s in ('upper', 'lower'))\n"
        "print(len(calls) > 0, 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "True False"


@pytest.mark.parametrize("sense", ["upper", "lower"])
def test_no_solve_contracts_into_a_fresh_array(sense, monkeypatch):
    # every choice evaluation of a solve writes into a buffer the solve owns:
    # the sweeps and greedy passes into the solve's Bellman operator's, a GMRES
    # product into its evaluator's
    passed, paths = [], []
    for view_class in (CredalChoices, JointChoices):
        def recorded(self, f, out=None, fn=view_class.finite_values):
            passed.append(out is not None)
            return fn(self, f, out)
        monkeypatch.setattr(view_class, "finite_values", recorded)

    def kernel(self, out, fn=CredalChoices._kernel):  # a base region's sweeps call its kernel
        passed.append(out is not None)
        return fn(self, out)
    monkeypatch.setattr(CredalChoices, "_kernel", kernel)
    for name in ("_gmres", "_dense_solve"):
        def traced(*args, fn=getattr(solver, name), name=name, **kw):
            paths.append(name)
            return fn(*args, **kw)
        monkeypatch.setattr(solver, name, traced)
    for n in (12, 300):
        model = random_credal_matrix(np.random.default_rng(n), n=n, max_vertices=3, dense_prob=0.9)
        value_iteration(model, [n - 1], sense, max_iter=50)
        paths.clear()
        res = policy_iteration(model, [n - 1], sense)
        assert res.converged and len(res.classification.finite) == n - 1
        assert paths and set(paths) == {"_gmres"}  # every evaluation took the GMRES path
    model = random_credal_matrix(np.random.default_rng(0), n=5, max_vertices=3, dense_prob=0.4)
    for belief in ("vacuous", "degenerate", "mixture"):
        meet(model, 2, belief, sense, epsilon=0.5 if belief == "mixture" else None)
    assert passed and all(passed)


@pytest.mark.parametrize("agents, n", [(1, 8), (2, 5)])
def test_policy_iteration_starts_from_the_classification_witness(agents, n, monkeypatch):
    # in both senses the first evaluated selection is classify_view's witness
    # on the finite states: vertex 0 in the upper sense, and in the lower
    # sense, on this model, some other vertex at one state at least
    calls = _record_evaluations(monkeypatch)
    model = random_credal_matrix(np.random.default_rng(0), n=n, max_vertices=3, dense_prob=0.4)
    view, targets = _view(model, agents)
    for sense, moved in (("upper", False), ("lower", True)):
        calls.clear()
        solver.solve_view_policy(view, targets, sense, 1e-10, 1000)
        cls, witness = classify_view(view, targets, sense)
        start = witness[sorted(cls.finite)]
        np.testing.assert_array_equal(calls[0][0], start)
        assert start.any() == moved


@pytest.mark.parametrize("agents, n, walk", [(1, 12, False), (1, 300, False), (2, 9, False), (3, 5, False),
                                            (1, 100, True)], ids=["1-12", "1-300", "2-9", "3-5", "walk-100"])
@pytest.mark.parametrize("sense", ["upper", "lower"])
def test_a_cut_solve_replays_its_sweeps(agents, n, walk, sense, monkeypatch):
    # a solve cut at max_iter=j selects the choice that the evaluation after
    # sweep j evaluates, sweep j + 1's unless the solve drops it, and one cut
    # at j + 1 returns that sweep's values, loose or exact, bit for bit,
    # whether GMRES solves every exact sweep or, on a slowly mixing walk,
    # gives up to LU
    dense, dense_solve = [], solver._dense_solve
    calls = _record_evaluations(monkeypatch)
    monkeypatch.setattr(solver, "_dense_solve", lambda *args: dense.append(1) or dense_solve(*args))
    if walk:
        model = _credal_walk(n)
    else:
        model = random_credal_matrix(np.random.default_rng(n), n=n, max_vertices=3, dense_prob=0.9)
    view, targets = _view(model, agents)
    res = solver.solve_view_policy(view, targets, sense, 1e-10, 1000)
    recorded = list(calls)
    cls = res.classification
    finite = np.array(sorted(cls.finite), dtype=np.int64)
    kept = [i for i, (_, slack, run) in enumerate(recorded) if not run.misses(slack)]
    assert len(kept) == res.iterations >= 2
    # LU only where GMRES gives up, on exact evaluations alone
    assert len(dense) == sum(run.path == "lu" for *_, run in recorded)
    assert len(dense) == (sum(not run.loose for *_, run in recorded) if walk else 0)
    for j, i in enumerate(kept):
        after = kept[j - 1] + 1 if j else 0  # the first evaluation after sweep j
        cut = solver.solve_view_policy(view, targets, sense, 1e-10, j)
        assert cut.selection[finite].tobytes() == recorded[after][0].tobytes()
        want = np.zeros(view.n)
        want[finite] = recorded[i][2].sol
        want[cls.infinite_mask(view.n)] = math.inf
        assert solver.solve_view_policy(view, targets, sense, 1e-10, j + 1).values.tobytes() == want.tobytes()


def test_the_matrix_free_self_check_patches_no_solver_name(monkeypatch):
    # the check reads its selections from cut solves; the solver's own
    # evaluation stays the one a caller installed
    calls = []
    evaluate = solver._Evaluator.evaluate

    def recorder(self, choice, slack=0.0):
        assert solver._Evaluator.evaluate is recorder
        calls.append(choice.copy())
        return evaluate(self, choice, slack)

    monkeypatch.setattr(solver._Evaluator, "evaluate", recorder)
    ok, detail = selfcheck.check_matrix_free_evaluation()
    assert ok, detail
    assert calls and detail.startswith("2 selections")
    assert solver._Evaluator.evaluate is recorder


def test_a_loose_greedy_pass_that_picks_a_trap_goes_back_exactly(monkeypatch):
    # x and y can trap each other (vertex 0 of each steps to the other), and
    # both can step to z, which reaches the target t at rate 1/4. A loose
    # evaluation with a residual below 1 proves its selection proper, and the
    # greedy pass on its values picks a proper one too: a closed class of
    # that selection would need the residual's mean on it, under its
    # stationary law, to be at least 1. So the forcing factor is raised to
    # 1.5, where the first loose evaluation stops after one product on
    # constant values, which tie the trap with the way out; the lowest-index
    # tie-break picks the trap. Its loose evaluation misses its slack of
    # 0.75, and the solve evaluates the witness again, exactly, and ends on
    # the answer of a solve that never picked the trap, bit for bit.
    model = CredalMatrix.from_rows(["t", "x", "y", "z"], [
        [[1, 0, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]], [[0, 1, 0, 0], [0, 0, 0, 1]], [[0.25, 0, 0, 0.75]],
    ])
    want = policy_iteration(model, [0], "lower")
    assert want.iterations == 1 and want.selection.tolist() == [0, 1, 1, 0]
    calls = _record_evaluations(monkeypatch)
    monkeypatch.setattr(solver, "FORCING", 1.5)
    got = policy_iteration(model, [0], "lower")
    assert [(choice.tolist(), slack) for choice, slack, _ in calls] == [([1, 1, 0], 1.5), ([0, 0, 0], 0.75),
                                                                        ([1, 1, 0], 0.0)]
    first, trap, exact = (run for *_, run in calls)
    assert first.loose and not first.misses(1.5) and first.residual == 1.0
    assert trap.misses(0.75) and not exact.loose
    assert got.iterations == 2 and got.converged
    assert got.values.tobytes() == want.values.tobytes() and got.selection.tolist() == [0, 1, 1, 0]
    assert got.residual == want.residual


@pytest.mark.parametrize("sense", ["upper", "lower"])
def test_a_dropped_give_up_is_not_replayed(sense, monkeypatch):
    # every selection of the slow credal walk mixes too slowly for GMRES: the
    # first loose evaluation gives up after one cycle and is dropped, and the
    # exact evaluation of the same start selection that follows goes
    # straight to LU rather than replay that cycle. The solve takes one
    # cycle fewer than one that replays it, and ends on its bits
    model = _credal_walk(100)
    calls = _record_evaluations(monkeypatch)
    got = policy_iteration(model, [99], sense)
    runs = [(slack, run.path, run.products, run.misses(slack)) for _, slack, run in calls]
    assert runs[:2] == [(solver.FORCING, "gmres", solver.GMRES_RESTART, True), (0.0, "lu", 0, False)]
    assert np.array_equal(calls[0][0], calls[1][0])
    dense = solver._dense_solve(CredalChoices(model), np.arange(99), calls[1][0])
    assert calls[1][2].sol.tobytes() == dense.tobytes()
    products = sum(run.products for *_, run in calls)
    evaluate = solver._Evaluator.evaluate

    def replayed(self, choice, slack=0.0):
        self.gave_up = None
        return evaluate(self, choice, slack)

    monkeypatch.setattr(solver._Evaluator, "evaluate", replayed)
    calls.clear()
    want = policy_iteration(model, [99], sense)
    assert sum(run.products for *_, run in calls) == products + solver.GMRES_RESTART
    assert got.values.tobytes() == want.values.tobytes() and np.array_equal(got.selection, want.selection)
    assert (got.iterations, got.residual, got.converged) == (want.iterations, want.residual, True)


@pytest.mark.parametrize("belief", ["vacuous", "degenerate", "mixture"])
def test_one_evaluator_per_solve_loose_only_where_there_is_a_choice(belief, monkeypatch):
    # a solve sets up GMRES's buffers once, in its evaluator; a solve whose
    # finite states have one choice each (a degenerate belief, and the
    # degenerate half of a mixture, solved first) evaluates exactly from its
    # first sweep, and a vacuous one starts loose, at the forcing factor
    made = []
    workspace = solver._workspace
    monkeypatch.setattr(solver, "_workspace", lambda k: made.append(k) or workspace(k))
    calls = _record_evaluations(monkeypatch)
    model = random_credal_matrix(np.random.default_rng(3), n=9, max_vertices=3, dense_prob=0.9)
    res = meet(model, 2, belief, "upper", epsilon=0.5 if belief == "mixture" else None)
    assert res.converged and len(made) == (2 if belief == "mixture" else 1)
    slacks = [slack for _, slack, _ in calls]
    if belief == "degenerate":
        assert res.iterations == 1 and slacks == [0.0]
    else:
        start = slacks.index(solver.FORCING)
        assert start == (1 if belief == "mixture" else 0) and not any(slacks[:start])


@pytest.mark.parametrize("sense", ["upper", "lower"])
def test_the_tol_stop_reads_exact_sweeps_only(sense, monkeypatch):
    # at a tol of 1e3 any two sweeps of this model are within tol, yet loose
    # sweeps take no part in the stop: the solve sweeps loose until the
    # selection settles and stops at its first or second exact sweep
    calls = _record_evaluations(monkeypatch)
    model = random_credal_matrix(np.random.default_rng(300), n=300, max_vertices=3, dense_prob=0.9)
    res = policy_iteration(model, [0], sense, tol=1e3)
    loose = [run.loose for _, slack, run in calls if not run.misses(slack)]
    assert res.converged and len(loose) == res.iterations
    exact = loose.count(False)
    assert loose == [True] * (res.iterations - exact) + [False] * exact and exact in (1, 2)
    assert res.iterations - exact >= 2


def test_a_start_with_mass_on_the_inf_states_is_an_inconsistent_classification(monkeypatch):
    # vertex 0 of a puts mass on the absorbing state z; the almost-sure
    # witness is vertex 1, and a classification that gave vertex 0 instead
    # is refused before any evaluation
    model = CredalMatrix.from_rows(
        ["a", "g", "z"], [[[0, 0.5, 0.5], [0, 1, 0]], [[0, 1, 0]], [[0, 0, 1]]]
    )
    assert policy_iteration(model, [1], "lower").selection[0] == 1
    classify = solver.classify_view
    monkeypatch.setattr(solver, "classify_view",
                        lambda *args: (classify(*args)[0], np.zeros(3, dtype=np.int64)))
    with pytest.raises(RuntimeError, match="state 0 is classified finite.*classification pass is inconsistent"):
        policy_iteration(model, [1], "lower")


@pytest.mark.parametrize("solve", [
    lambda m: policy_iteration(m, [0], "upper"),
    lambda m: value_iteration(m, [0], "lower"),
    lambda m: meet(m),
])
def test_results_compare_by_identity_without_raising(solve):
    # the results hold ndarrays, so they compare by identity: two solves of
    # one model give distinct results that compare unequal, and a result
    # equals itself
    model = random_credal_matrix(np.random.default_rng(5), n=5, max_vertices=2, dense_prob=0.9)
    first, second = solve(model), solve(model)
    assert first == first and not first != first
    assert first != second and not first == second
