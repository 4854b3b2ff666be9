import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalmeet import (
    CredalMatrix,
    build_product_space,
    classify,
    lower_reach_set,
    reach,
    selfcheck,
    upper_reach_set,
)
from credalmeet.core import target_mask
from credalmeet.meeting import JointChoices
from credalmeet.reach import CredalChoices

from generators import random_credal_matrix, random_targets


def test_upper_reach_identity_rows():
    m = CredalMatrix.precise(["a", "b", "c"], np.eye(3))
    assert upper_reach_set(m, [1]) == frozenset({1})
    # strict reading: the target cannot return to itself in one or more steps
    # unless it has a self loop
    assert upper_reach_set(m, [1], strict=True) == frozenset({1})


def test_upper_reach_chain_graph():
    t = [[0, 1, 0], [0, 0, 1], [0, 0, 1]]
    m = CredalMatrix.precise(["a", "b", "c"], t)
    assert upper_reach_set(m, [2]) == frozenset({0, 1, 2})
    assert upper_reach_set(m, [0]) == frozenset({0})
    # strict: state a reaches {0}? no outgoing edge into the closure of {0}
    assert upper_reach_set(m, [0], strict=True) == frozenset()


def test_strict_upper_reach_keeps_the_targets_that_return():
    # target a returns through c, whose one vertex reaches a with the least
    # positive mass; target b only leads to the trap d
    rows = [[[0, 0, 1, 0]], [[0, 0, 0, 1]], [[5e-324, 0, 0, 1], [0, 0, 1, 0]], [[0, 0, 0, 1]]]
    m = CredalMatrix.from_rows(["a", "b", "c", "d"], rows)
    assert m.stack[2, 0] == 5e-324
    assert upper_reach_set(m, [0, 1]) == frozenset({0, 1, 2})
    assert upper_reach_set(m, [0, 1], strict=True) == frozenset({0, 2})


def _path_into(model, targets):
    """States with a path of one step or more into ``targets`` along edges
    that some vertex gives positive mass, by a search from each state."""
    succ = [set(np.flatnonzero((model.vertices(i) > 0).any(axis=0)).tolist()) for i in range(model.size)]
    found = set()
    for x in range(model.size):
        seen, todo = set(), list(succ[x])
        while todo:
            y = todo.pop()
            if y not in seen:
                seen.add(y)
                todo.extend(succ[y])
        if seen & set(targets):
            found.add(x)
    return found


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_upper_reach_sets_match_a_path_search(seed, n):
    rng = np.random.default_rng(seed)
    m = random_credal_matrix(rng, n=n)
    targets = random_targets(rng, n)
    strict = _path_into(m, targets)
    assert upper_reach_set(m, targets, strict=True) == strict
    assert upper_reach_set(m, targets) == strict | set(targets)


def test_upper_reach_uses_any_vertex():
    m = CredalMatrix.from_rows(["a", "b"], [[[1, 0], [0, 1]], [[0, 1]]])
    assert upper_reach_set(m, [1]) == frozenset({0, 1})


def test_upper_reach_rejects_empty_targets():
    m = CredalMatrix.precise(["a", "b"], np.eye(2))
    with pytest.raises(ValueError):
        upper_reach_set(m, [])


def test_lower_reach_matches_upper_for_precise_models():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        rows = []
        for _ in range(n):
            support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            v = np.zeros(n)
            v[support] = rng.dirichlet(np.ones(support.size))
            rows.append([v])
        m = CredalMatrix.from_rows([f"s{i}" for i in range(n)], rows)
        targets = random_targets(rng, n)
        assert lower_reach_set(m, targets) == upper_reach_set(m, targets)


def test_lower_reach_requires_every_vertex():
    m = CredalMatrix.from_rows(["a", "b"], [[[1, 0], [0, 1]], [[0, 1]]])
    # vertex [1,0] of row a puts no mass on the target, so a is not guaranteed
    assert lower_reach_set(m, [1]) == frozenset({1})


def test_lower_reach_all_targets():
    m = random_credal_matrix(np.random.default_rng(3), n=4)
    assert lower_reach_set(m, range(4)) == frozenset(range(4))


def test_reach_monotone_in_targets():
    rng = np.random.default_rng(13)
    for _ in range(15):
        m = random_credal_matrix(rng)
        n = m.size
        small = random_targets(rng, n)
        big = sorted(set(small) | {int(rng.integers(0, n))})
        assert upper_reach_set(m, small) <= upper_reach_set(m, big)
        assert lower_reach_set(m, small) <= lower_reach_set(m, big)
        assert lower_reach_set(m, small) <= upper_reach_set(m, small)


# ------------------------------------------------------------ classification

def test_classify_strictly_positive_has_no_hopeless_states():
    rng = np.random.default_rng(17)
    entries = rng.dirichlet(np.ones(4), size=4) * 0.8 + 0.05
    entries /= entries.sum(axis=1, keepdims=True)
    m = CredalMatrix.precise([f"s{i}" for i in range(4)], entries)
    for sense in ("upper", "lower"):
        c = classify(m, [2], sense)
        assert c.absorbing == frozenset() and c.unsafe == frozenset()
        assert c.finite == frozenset({0, 1, 3})


def test_classify_disconnected_component_is_absorbing():
    entries = [
        [0.5, 0.5, 0, 0],
        [0.5, 0.5, 0, 0],
        [0, 0, 0.5, 0.5],
        [0, 0, 0.5, 0.5],
    ]
    m = CredalMatrix.precise(["a", "b", "c", "d"], entries)
    c = classify(m, [0], "upper")
    assert c.absorbing == frozenset({2, 3})
    assert c.unsafe == frozenset()
    assert c.finite == frozenset({1})


def test_classify_partition_property():
    rng = np.random.default_rng(19)
    for _ in range(30):
        m = random_credal_matrix(rng)
        targets = random_targets(rng, m.size)
        for sense in ("upper", "lower"):
            c = classify(m, targets, sense)
            sets = [c.target, c.absorbing, c.unsafe, c.finite]
            union = set().union(*sets)
            assert union == set(range(m.size))
            assert sum(len(s) for s in sets) == m.size
            assert c.absorbing <= set(range(m.size)) - c.target
            assert c.unsafe <= set(range(m.size)) - c.target - c.absorbing


def test_default_random_models_mix_finite_and_infinite_states():
    # the generator's default draws put finite and infinite states side by
    # side in both senses, so the tests that draw from it see both
    rng = np.random.default_rng(29)
    mixed = {"upper": 0, "lower": 0}
    for _ in range(500):
        m = random_credal_matrix(rng)
        targets = random_targets(rng, m.size)
        for sense in mixed:
            c = classify(m, targets, sense)
            mixed[sense] += bool(c.finite) and bool(c.infinite)
    assert mixed["upper"] >= 20 and mixed["lower"] >= 20, mixed


def test_classify_empty_target_rejected():
    m = CredalMatrix.precise(["a", "b"], np.eye(2))
    with pytest.raises(ValueError):
        classify(m, [], "upper")


def test_classify_upper_ignores_paths_through_the_target():
    # x -> a -> z with target {a}: x always hits the target in one step, so
    # its bound is finite even though z is hopeless and x can "reach" z by a
    # walk that passes through a.
    m = CredalMatrix.precise(
        ["x", "a", "z"], [[0, 1, 0], [0, 0, 1], [0, 0, 1]]
    )
    c = classify(m, [1], "upper")
    assert 0 in c.finite
    assert c.absorbing == frozenset({2})
    assert c.unsafe == frozenset()


def test_classify_lower_flags_states_without_almost_sure_route():
    # From a, staying put never reaches the target and the only moving vertex
    # risks the sink, so no selection hits the target with probability one.
    m = CredalMatrix.from_rows(
        ["a", "g", "s"],
        [[[1, 0, 0], [0, 0.5, 0.5]], [[0, 1, 0]], [[0, 0, 1]]],
    )
    c = classify(m, [1], "lower")
    assert c.absorbing == frozenset({2})
    assert c.unsafe == frozenset({0})
    assert c.finite == frozenset()


def test_classify_lower_reduces_to_simple_swap_without_risky_routes():
    m = CredalMatrix.from_rows(
        ["a", "g"], [[[1, 0], [0, 1]], [[0, 1]]]
    )
    c = classify(m, [1], "lower")
    assert c.absorbing == frozenset() and c.unsafe == frozenset()
    assert c.finite == frozenset({0})


def _views(model):
    """The base view and the 2-agent quotient view of ``model``, each with its
    target mask (the last state, and the diagonal)."""
    joint = JointChoices(model, build_product_space(model.space, 2, "quotient"))
    return [(CredalChoices(model), target_mask(model.size, [model.size - 1])),
            (joint, joint.product.target_mask())]


@pytest.mark.parametrize("model", [selfcheck._five_state(), selfcheck._hold_or_mix(),
                                   selfcheck._two_state_pickers()],
                         ids=["five_state", "hold_or_mix", "two_state_pickers"])
def test_a_lower_classification_grows_reachability_once(model, monkeypatch):
    # the lower sense reads the reachable set off the almost-sure closure's
    # first round, so these models, every state of which reaches the target,
    # settle in one _grow call; the upper sense makes a second one only when
    # it has absorbing states to close over
    calls = []
    grow = reach._grow
    monkeypatch.setattr(reach, "_grow", lambda *args: calls.append(1) or grow(*args))
    for view, targets in _views(model):
        for sense in ("upper", "lower"):
            calls.clear()
            cls, _ = reach.classify_view(view, targets, sense)
            assert len(calls) == (1 + bool(cls.absorbing) if sense == "upper" else 1)


def test_the_almost_sure_closure_starts_from_the_reachable_set():
    # sparse rows with at most two vertices, so that some states cannot reach
    # the target and some closures take more than one round
    rng = np.random.default_rng(53)
    partial = rounds = 0
    for _ in range(30):
        model = random_credal_matrix(rng, n=int(rng.integers(2, 6)), max_vertices=2, dense_prob=0.0)
        for view, targets in _views(model):
            sure, _, reachable = reach._almost_sure_closure(view, targets)
            np.testing.assert_array_equal(reachable, reach._upper_closure(view, targets))
            assert not (sure & ~reachable).any()
            partial += not reachable.all()
            rounds += (sure != reachable).any()
    assert partial and rounds
