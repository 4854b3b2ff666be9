import math

import numpy as np
import pytest

from credalmeet import (
    ModelValidationError,
    TransitionMatrix,
    hitting_times,
    meeting_times,
    simulate_hitting,
)

from generators import random_transition_matrix


def tm(entries, labels=None):
    entries = np.asarray(entries, dtype=float)
    labels = labels or [f"s{i}" for i in range(entries.shape[0])]
    return TransitionMatrix.from_entries(labels, entries)


# ------------------------------------------------------------------- hitting

def test_hitting_all_targets_is_zero():
    t = tm([[0.5, 0.5], [0.2, 0.8]])
    assert np.array_equal(hitting_times(t, [0, 1]), [0.0, 0.0])


def test_hitting_geometric():
    t = tm([[0.5, 0.5], [0.0, 1.0]])
    assert np.allclose(hitting_times(t, [1]), [2.0, 0.0])


def test_hitting_absorbing_elsewhere_is_infinite():
    t = tm(np.eye(2))
    h = hitting_times(t, [1])
    assert math.isinf(h[0]) and h[1] == 0.0


def test_hitting_minimality_with_leak():
    # s0 can reach the target yet also leaks to a sink, so its expected
    # hitting time is infinite; a solve restricted to reach-capable states
    # alone would wrongly report 1.
    t = tm([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    h = hitting_times(t, [1])
    assert math.isinf(h[0]) and h[1] == 0.0 and math.isinf(h[2])


def test_hitting_rejects_empty_target():
    t = tm(np.eye(2))
    with pytest.raises(ValueError):
        hitting_times(t, [])


def test_hitting_fixed_point_residual():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        t = random_transition_matrix(rng, n)
        targets = sorted(
            int(x) for x in rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        )
        h = hitting_times(t, targets)
        finite = np.isfinite(h)
        mask = np.ones(n)
        mask[targets] = 0.0
        h0 = np.where(finite, h, 0.0)
        rhs = mask + mask * (t.entries @ h0)
        assert (t.entries[finite][:, ~finite] == 0).all()
        assert np.max(np.abs(h[finite] - rhs[finite])) <= 1e-10


def test_from_entries_validates():
    with pytest.raises(ModelValidationError):
        TransitionMatrix.from_entries(["a", "b"], [[0.5, 0.6], [0, 1]])
    with pytest.raises(ModelValidationError):
        TransitionMatrix.from_entries(["a", "b"], [[-0.1, 1.1], [0, 1]])



def test_from_entries_reports_the_credal_models_messages():
    with pytest.raises(ModelValidationError) as err:
        TransitionMatrix.from_entries(["a", "b"], [[-0.1, 1.1], [0, 1]])
    assert err.value.violations == [
        "row 'a' vertex 0: entry 0 is negative (-0.1)",
        "row 'a' vertex 0: entry 1 exceeds 1 (1.1)",
    ]
    with pytest.raises(ModelValidationError) as err:
        TransitionMatrix.from_entries(["a", "b"], [[math.nan, 1], [0.5, 0.6], [0, 1]])
    assert err.value.violations == [
        "model has 3 rows for 2 states",
        "row 'a' vertex 0: entry 0 is not a number",
        "row 'b' vertex 0: entries sum to 1.1, not 1",
    ]
    with pytest.raises(ModelValidationError) as err:
        TransitionMatrix.from_entries(["a", "b"], [[0.5, 0.5, 0.0], [0, 1, 0]])
    assert err.value.violations == [
        "row 'a': vertices have 3 entries, expected 2",
        "row 'b': vertices have 3 entries, expected 2",
    ]
    with pytest.raises(ModelValidationError) as err:
        TransitionMatrix.from_entries(["a", "b"], [[[0.5, 0.5]], [[0, 1]]])
    assert err.value.violations == ["matrix has shape (2, 1, 2), expected (2, 2)"]
    # rows inside the sum tolerance are rescaled, an entry just above 1 included
    t = TransitionMatrix.from_entries(["a", "b"], [[1 + 1e-11, 0], [0, 1]])
    assert t.entries.tolist() == [[1.0, 0.0], [0.0, 1.0]]


# ------------------------------------------------------------------- meeting

def test_meeting_diagonal_is_zero_and_mixing_pair_is_two():
    t = tm([[0.5, 0.5], [0.5, 0.5]])
    m = meeting_times(t, t)
    assert m[0, 0] == 0.0 and m[1, 1] == 0.0
    assert np.allclose(m[0, 1], 2.0) and np.allclose(m[1, 0], 2.0)


def test_meeting_swap_walk_never_meets():
    t = tm([[0, 1], [1, 0]])
    m = meeting_times(t, t)
    assert math.isinf(m[0, 1]) and math.isinf(m[1, 0])


def test_meeting_requires_shared_space():
    a = tm(np.eye(2), labels=["a", "b"])
    b = tm(np.eye(2), labels=["x", "y"])
    with pytest.raises(ValueError):
        meeting_times(a, b)


def test_meeting_symmetry_for_identical_chains():
    rng = np.random.default_rng(7)
    for _ in range(10):
        t = random_transition_matrix(rng, int(rng.integers(2, 5)))
        m = meeting_times(t, t)
        finite = np.isfinite(m)
        assert (finite == finite.T).all()
        assert np.allclose(m[finite], m.T[finite])


def test_meeting_fixed_point_residual():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        t = random_transition_matrix(rng, n)
        s = random_transition_matrix(rng, n)
        m = meeting_times(t, s)
        finite = np.isfinite(m)
        ones = 1.0 - np.eye(n)
        rhs = ones + t.entries @ np.where(finite, m, 0.0) @ s.entries.T
        off = finite & ~np.eye(n, dtype=bool)
        assert np.max(np.abs(m[off] - rhs[off])) <= 1e-10


# ---------------------------------------------------------------- simulation

def test_simulation_deterministic_cycle():
    t = tm([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    s = simulate_hitting(t, [2], start=0, trials=50, horizon=10, seed=3)
    assert s.mean == 2.0 and s.variance == 0.0 and s.censored == 0


def test_simulation_geometric_confidence_interval():
    t = tm([[0.5, 0.5], [0, 1]])
    s = simulate_hitting(t, [1], start=0, trials=30_000, horizon=1_000, seed=42)
    half = 3.0 * math.sqrt(s.variance / s.uncensored)
    assert abs(s.mean - 2.0) <= half


def test_simulation_is_reproducible():
    t = tm([[0.5, 0.5], [0, 1]])
    a = simulate_hitting(t, [1], start=0, trials=500, horizon=100, seed=42)
    b = simulate_hitting(t, [1], start=0, trials=500, horizon=100, seed=42)
    assert a == b
    c = simulate_hitting(t, [1], start=0, trials=500, horizon=100, seed=43)
    assert a != c


def test_simulation_censoring_kept_separate():
    t = tm(np.eye(2))
    s = simulate_hitting(t, [1], start=0, trials=20, horizon=50, seed=0)
    assert s.censored == 20 and s.uncensored == 0
    assert s.mean is None and s.variance is None


def test_simulation_start_in_target():
    t = tm([[0.5, 0.5], [0, 1]])
    s = simulate_hitting(t, [0], start=0, trials=10, horizon=10, seed=0)
    assert s.mean == 0.0 and s.variance == 0.0


def test_simulation_argument_errors():
    t = tm(np.eye(2))
    with pytest.raises(ValueError):
        simulate_hitting(t, [1], start=5, trials=10)
    with pytest.raises(ValueError):
        simulate_hitting(t, [1], start=0, trials=0)
    with pytest.raises(ValueError):
        simulate_hitting(t, [1], start=0, trials=1, horizon=0)
