"""Built-in verification suite of hand-derived cases.

Every check recomputes its expected value from an independent route (closed
form, exhaustive enumeration, or simulation confidence interval) and then
compares the library result against it. ``credalmeet selfcheck`` runs the
whole list and prints one line per check.
"""

from __future__ import annotations

import math
from importlib import resources

import numpy as np

from .core import CredalMatrix, apply_lower, apply_upper, ext_dot, greedy_selection
from .chain import TransitionMatrix, hitting_times, meeting_times, simulate_hitting
from .reach import CredalChoices, lower_reach_set
from . import solver
from .solver import policy_iteration, value_iteration
from .meeting import (
    JointChoices,
    build_product_space,
    exhaustive_meeting_times,
    joint_transition_weight,
    meet,
    quotient_consistency_check,
)
from .modelio import parse_model


def bundled_model_path(name: str = "five-state") -> str:
    """Filesystem path of a model shipped with the package."""
    files = {"five-state": "five_state.yaml"}
    if name not in files:
        raise KeyError(f"no bundled model named {name!r}")
    return str(resources.files("credalmeet").joinpath("data", files[name]))


def _five_state():
    with open(bundled_model_path("five-state")) as fh:
        return parse_model(fh.read(), source="five-state")


def _two_state_pickers():
    return CredalMatrix.from_rows(
        ["a", "b"], [[[0.5, 0.5], [0.9, 0.1]], [[0, 1]]]
    )


def _hold_or_mix():
    return CredalMatrix.from_rows(
        ["a", "b"], [[[0.5, 0.5], [1, 0]], [[0.5, 0.5], [0, 1]]]
    )


def check_upper_operator():
    m = CredalMatrix.from_rows(["a", "b"], [[[1, 0], [0, 1]], [[0, 1]]])
    got = apply_upper(m, [0.0, 1.0])
    want = [max(0.0, 1.0), 1.0]  # enumerate both vertices of row a by hand
    return np.allclose(got, want), f"{got} vs {want}"


def check_lower_operator():
    m = CredalMatrix.from_rows(["a", "b"], [[[1, 0], [0, 1]], [[0, 1]]])
    got = apply_lower(m, [0.0, 1.0])
    return np.allclose(got, [0.0, 1.0]), f"{got}"


def check_greedy():
    m = CredalMatrix.from_rows(["a", "b"], [[[0.5, 0.5], [0.9, 0.1]], [[0, 1]]])
    got = greedy_selection(m, [10.0, 0.0], "upper")
    return bool(got[0] == 1), f"picked vertex {got[0]}, dot products 5 vs 9"


def check_choice_kernel():
    model = _five_state()
    f = np.array([math.inf, 1.0, 2.0, 3.0, 4.0])  # two vertices put mass on the inf
    got = CredalChoices(model).values(np.arange(model.size), f)
    want = np.array([ext_dot(v, f) for i in range(model.size) for v in model.vertices(i)])
    return np.allclose(got, want, rtol=1e-12, atol=0.0), f"{got.tolist()} vs {want.tolist()}"


def check_joint_kernel():
    model = _five_state()
    prod = build_product_space(model.space, 3, "quotient")
    view = JointChoices(model, prod)
    f = 1.0 + np.arange(prod.size)
    f[prod.index_of((0, 1, 4))] = math.inf  # reached from (0, 1, 3) by one of two choices
    got = view.values(np.arange(prod.size), f)
    want = [ext_dot([joint_transition_weight(model, prod, s, t, d) for d in prod.states], f)
            for i, s in enumerate(prod.states) for t in view.choice_tuples(i)]
    ok = np.allclose(got, want, rtol=1e-12, atol=0.0)  # infs must coincide
    return ok, f"{np.isinf(want).sum()} of {len(want)} choice values infinite"


def check_matrix_free_evaluation():
    model = _five_state()
    view = JointChoices(model, build_product_space(model.space, 2, "quotient"))
    targets = view.product.target_mask()
    visited = []
    for sense in ("upper", "lower"):
        # a solve cut after j sweeps selects what sweep j + 1 evaluates
        for j in range(solver.solve_view_policy(view, targets, sense, 1e-10, 1_000).iterations):
            cut = solver.solve_view_policy(view, targets, sense, 1e-10, j)
            finite = np.array(sorted(cut.classification.finite), dtype=int)
            visited.append((finite, cut.selection[finite]))
    worst = 0.0
    for finite, choice in visited:
        h, residual, products = solver._gmres(solver._selection_operator(view, finite, choice), finite.size)
        if not solver._meets_bound(h, residual):
            return False, f"GMRES missed its bound on {finite.size} unknowns in {products} products"
        dense = solver._dense_solve(view, finite, choice)
        worst = max(worst, float(np.max(np.abs(h - dense) / dense)))
    return worst <= 1e-12, f"{len(visited)} selections, largest relative gap {worst:.1e}"


def check_hitting_geometric():
    t = TransitionMatrix.from_entries(["a", "b"], [[0.5, 0.5], [0, 1]])
    got = hitting_times(t, [1])
    return np.allclose(got, [2.0, 0.0]), f"{got}"


def check_hitting_absorbing():
    t = TransitionMatrix.from_entries(["a", "b"], [[1, 0], [0, 1]])
    got = hitting_times(t, [1])
    return math.isinf(got[0]) and bool(got[1] == 0.0), f"{got}"


def check_precise_meeting():
    mix = TransitionMatrix.from_entries(["a", "b"], [[0.5, 0.5], [0.5, 0.5]])
    swap = TransitionMatrix.from_entries(["a", "b"], [[0, 1], [1, 0]])
    m1 = meeting_times(mix, mix)
    m2 = meeting_times(swap, swap)
    ok = np.allclose(m1, [[0, 2], [2, 0]]) and math.isinf(m2[0, 1])
    return ok, f"mixing {m1[0, 1]}, swapping {m2[0, 1]}"


def check_hitting_bounds():
    model = _two_state_pickers()
    vals = {}
    for sense, want in (("upper", 10.0), ("lower", 2.0)):
        for solve in (policy_iteration, value_iteration):
            r = solve(model, [1], sense)
            vals[(sense, r.method)] = r.values[0]
            if not (r.converged and abs(r.values[0] - want) < 1e-8):
                return False, f"{sense} {r.method} gave {r.values[0]}, wanted {want}"
    return True, f"{vals}"


def check_lower_reach():
    m = CredalMatrix.from_rows(["a", "b"], [[[1, 0], [0, 1]], [[0, 1]]])
    got = lower_reach_set(m, [1])
    return got == frozenset({1}), f"{sorted(got)}"


def check_meeting_bounds():
    model = _hold_or_mix()
    oracle_up = exhaustive_meeting_times(model, "upper")
    oracle_lo = exhaustive_meeting_times(model, "lower")
    up = meet(model, 2, "vacuous", "upper", "full").matrix()
    lo = meet(model, 2, "vacuous", "lower", "full").matrix()
    ok = (
        math.isinf(oracle_up[0, 1])
        and math.isinf(up[0, 1])
        and bool(abs(oracle_lo[0, 1] - lo[0, 1]) < 1e-10)
    )
    return ok, f"upper {up[0, 1]}, lower {lo[0, 1]} (oracle {oracle_lo[0, 1]})"


def check_quotient_weight():
    m = CredalMatrix.from_rows(["a", "b"], [[[0.5, 0.5]], [[0.5, 0.5]]])
    prod = build_product_space(m.space, 2, "quotient")
    w = joint_transition_weight(m, prod, (0, 0), (0, 0), (0, 1))
    return abs(w - 0.5) < 1e-15, f"{w}"


def check_quotient_consistency():
    model = CredalMatrix.from_rows(
        ["a", "b", "c"],
        [
            [[0.2, 0.5, 0.3], [0.7, 0.1, 0.2]],
            [[0.3, 0.3, 0.4]],
            [[0.1, 0.6, 0.3], [0.5, 0.2, 0.3], [0.25, 0.25, 0.5]],
        ],
    )
    worst = 0.0
    for sense in ("upper", "lower"):
        rep = quotient_consistency_check(model, 2, "vacuous", sense)
        if not rep.infinity_matches:
            return False, f"{sense}: infinity patterns differ at {rep.mismatched}"
        worst = max(worst, rep.max_discrepancy)
    return worst <= 1e-8, f"max discrepancy {worst:.3e}"


def check_five_state():
    res = meet(_five_state(), 2, "vacuous", "upper", "quotient")
    prod = res.product
    pair_12 = prod.index_of((0, 1))
    pair_23 = prod.index_of((1, 2))
    ok = (
        pair_12 in res.classification.absorbing
        and pair_23 in res.classification.unsafe
        and math.isinf(res.values[pair_12])
        and math.isinf(res.values[pair_23])
    )
    return ok, (
        f"(1,2) absorbing: {pair_12 in res.classification.absorbing}, "
        f"(2,3) unsafe: {pair_23 in res.classification.unsafe}"
    )


def check_simulation():
    cycle = TransitionMatrix.from_entries(
        ["a", "b", "c"], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    )
    s = simulate_hitting(cycle, [2], start=0, trials=200, horizon=10, seed=7)
    if not (s.mean == 2.0 and s.variance == 0.0 and s.censored == 0):
        return False, f"cycle gave mean {s.mean}, variance {s.variance}"
    geo = TransitionMatrix.from_entries(["a", "b"], [[0.5, 0.5], [0, 1]])
    g = simulate_hitting(geo, [1], start=0, trials=40_000, horizon=10_000, seed=11)
    half_width = 3.0 * math.sqrt(g.variance / g.uncensored)
    ok = abs(g.mean - 2.0) <= half_width and g.censored == 0
    return ok, f"mean {g.mean:.4f} within {half_width:.4f} of 2.0"


def check_mixture_endpoints():
    model = _hold_or_mix()
    sel = {(0, 1): (0, 0), (1, 0): (0, 0)}
    deg = meet(model, 2, "degenerate", mode="full", selection=sel)
    vac = meet(model, 2, "vacuous", "lower", "full")
    at0 = meet(model, 2, "mixture", "lower", "full", selection=sel, epsilon=0.0)
    at1 = meet(model, 2, "mixture", "lower", "full", selection=sel, epsilon=1.0)
    ok = np.array_equal(at0.values, deg.values) and np.array_equal(at1.values, vac.values)
    return ok, f"deg {deg.values.tolist()} vac {vac.values.tolist()}"


CHECKS = [
    ("upper transition operator", check_upper_operator),
    ("lower transition operator", check_lower_operator),
    ("greedy vertex selection", check_greedy),
    ("choice kernel vs ext_dot reference", check_choice_kernel),
    ("joint kernel vs joint_transition_weight", check_joint_kernel),
    ("matrix-free policy evaluation vs dense solve", check_matrix_free_evaluation),
    ("hitting time, geometric chain", check_hitting_geometric),
    ("hitting time, absorbing start", check_hitting_absorbing),
    ("precise meeting times", check_precise_meeting),
    ("hitting bounds, two-vertex row", check_hitting_bounds),
    ("guaranteed-reach fixpoint", check_lower_reach),
    ("meeting bounds vs exhaustive oracle", check_meeting_bounds),
    ("quotient transition weight", check_quotient_weight),
    ("quotient losslessness", check_quotient_consistency),
    ("five-state walk classification", check_five_state),
    ("seeded simulation", check_simulation),
    ("mixture endpoints", check_mixture_endpoints),
]


def run_selfcheck(write=print) -> bool:
    """Run every check; returns True when all pass."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
