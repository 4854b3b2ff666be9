"""The batched choice kernel and its segment reduction against scalar references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalmeet import (
    CredalMatrix,
    apply_lower,
    apply_upper,
    build_product_space,
    ext_dot,
    greedy_selection,
    joint_transition_weight,
)
from credalmeet.core import segment_bounds, segment_optimum
from credalmeet.meeting import JointChoices
from credalmeet.reach import CredalChoices

from generators import random_credal_matrix


@st.composite
def models_with_inf_columns(draw):
    """A model and a value vector with inf entries. Every row has a vertex
    with zero mass on all inf entries and one with positive mass on one."""
    n = draw(st.integers(2, 6))
    inf_cols = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    free = [c for c in range(n) if c not in inf_cols]
    weight = st.lists(st.integers(0, 9), min_size=n, max_size=n)
    rows = []
    for _ in range(n):
        verts = {}
        for j in range(draw(st.integers(2, 4))):
            w = draw(weight)
            if j == 0:
                w = [0 if c in inf_cols else x for c, x in enumerate(w)]
                w[draw(st.sampled_from(free))] += 1
            elif j == 1:
                w[draw(st.sampled_from(inf_cols))] += 1
            if sum(w):
                verts.setdefault(tuple(x / sum(w) for x in w), None)
        rows.append([list(v) for v in verts])
    m = CredalMatrix.from_rows([f"s{i}" for i in range(n)], rows)
    f = np.array(draw(st.lists(st.floats(0, 10, allow_nan=False), min_size=n, max_size=n)))
    f[inf_cols] = math.inf
    return m, f


def _reference(m, f):
    return np.array([ext_dot(v, f) for i in range(m.size) for v in m.vertices(i)])


@settings(max_examples=150, deadline=None)
@given(models_with_inf_columns())
def test_kernel_matches_ext_dot_with_infinite_entries(data):
    m, f = data
    view = CredalChoices(m)
    got = view.values(np.arange(m.size), f)
    want = _reference(m, f)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.isinf(want).any() and np.isfinite(want).any()
    fin = np.isfinite(want)
    # the kernel sums in another order; a few ulp per term at most
    assert np.allclose(got[fin], want[fin], rtol=1e-13, atol=0.0)
    # one state at a time gives the same bits as the batch
    bounds = view.choice_offsets(np.arange(m.size))
    for i in range(m.size):
        assert np.array_equal(view.values(i, f), got[bounds[i] : bounds[i + 1]])
    ref = [want[bounds[i] : bounds[i + 1]] for i in range(m.size)]
    up, lo = apply_upper(m, f), apply_lower(m, f)
    assert np.array_equal(np.isinf(up), [np.isinf(r).any() for r in ref])
    assert np.array_equal(np.isinf(lo), [np.isinf(r).all() for r in ref])
    # the public operators apply the view's rule to the same rows, bit for bit
    whole = view.values(None, f)
    for sense, applied in (("upper", up), ("lower", lo)):
        best, pick = segment_optimum(whole, m.offsets, sense)
        assert np.array_equal(applied, best)
        assert np.array_equal(greedy_selection(m, f, sense), pick)


def _scalar_scan(vals, bounds, sense):
    pick = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        best = a
        for c in range(a + 1, b):
            if (vals[c] > vals[best]) if sense == "upper" else (vals[c] < vals[best]):
                best = c
        pick.append(best - a)
    return np.array(pick)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from([0.0, 1.0, 2.0, math.inf]), min_size=1, max_size=5),
        min_size=1,
        max_size=8,
    )
)
def test_segment_optimum_takes_lowest_index_on_ties(segments):
    vals = np.array([v for seg in segments for v in seg])
    bounds = segment_bounds([len(seg) for seg in segments])
    for sense, opt in (("upper", max), ("lower", min)):
        best, pick = segment_optimum(vals, bounds, sense)
        assert np.array_equal(pick, _scalar_scan(vals, bounds, sense))
        assert best.tolist() == [opt(seg) for seg in segments]


def test_greedy_selection_ties_under_constant_values():
    # dyadic weights and integer values make every dot product exact, so
    # constant values tie all vertices of a row and the ties are real
    quarters = [[1, 0, 0], [0.5, 0.5, 0], [0.25, 0.25, 0.5], [0, 0, 1]]
    m = CredalMatrix.from_rows(["a", "b", "c"], [quarters, quarters[1:], quarters[:2]])
    for f in ([3.0, 3.0, 3.0], [0.0, 0.0, 0.0], [4.0, 0.0, 4.0]):
        for sense in ("upper", "lower"):
            vals = _reference(m, np.array(f))
            bounds = m.offsets
            want = _scalar_scan(vals, bounds, sense)
            assert np.array_equal(greedy_selection(m, f, sense), want)
    assert greedy_selection(m, [3.0, 3.0, 3.0], "upper").tolist() == [0, 0, 0]


def test_base_touches_reads_the_vertex_supports():
    rng = np.random.default_rng(8)
    m = random_credal_matrix(rng, n=7, max_vertices=3, dense_prob=0.3)
    view = CredalChoices(m)
    states = np.arange(m.size)
    bounds = view.choice_offsets(states)
    for _ in range(20):
        mask = rng.random(m.size) < 0.3
        want = [(m.vertices(i) > 0)[:, mask].any(axis=1) for i in states]
        got = view.touches(states, mask)
        assert np.array_equal(got, np.concatenate(want))
        for i in states:
            assert np.array_equal(view.touches(i, mask), got[bounds[i] : bounds[i + 1]])


def test_from_rows_vertices_are_views_of_one_array():
    m = random_credal_matrix(np.random.default_rng(3), n=7, max_vertices=3)
    stack, offsets = m.stack, m.offsets
    assert stack.shape == (offsets[-1], m.size)
    for i in range(m.size):
        assert np.shares_memory(m.vertices(i), stack)
        assert np.array_equal(m.vertices(i), stack[offsets[i] : offsets[i + 1]])
    precise = CredalMatrix.precise(["a", "b"], [[0.5, 0.5], [0.0, 1.0]])
    assert all(np.shares_memory(precise.vertices(i), precise.stack) for i in range(2))


@pytest.mark.parametrize("mode", ["full", "quotient"])
def test_joint_batch_and_pinned_view_match_rows(mode):
    rng = np.random.default_rng(61)
    m = random_credal_matrix(rng, n=3, max_vertices=3, dense_prob=0.3)
    view = JointChoices(m, build_product_space(m.space, 2, mode))
    f = rng.uniform(0, 5, view.n)
    f[rng.random(view.n) < 0.3] = math.inf
    states = np.arange(view.n)
    batch = view.values(states, f)
    bounds = view.choice_offsets(states)
    for i in states:
        assert np.array_equal(view.values(i, f), batch[bounds[i] : bounds[i + 1]])
    fixed = {i: int(rng.integers(view.nchoices(i))) for i in states}
    pinned = view.restrict(states, [fixed[i] for i in states])
    assert np.array_equal(pinned.choice_offsets(states), np.arange(view.n + 1))
    got = pinned.values(states, f)
    inf = np.isinf(f)
    for i in states:
        tup = view.choice_tuples(i)[fixed[i]]
        row = np.array([joint_transition_weight(m, view.product, view.product.states[i], tup, dest)
                        for dest in view.product.states])
        if (row[inf] > 0).any():
            assert math.isinf(got[i])
        else:
            assert got[i] == pytest.approx(float(row @ np.where(inf, 0.0, f)), abs=1e-12)
        assert got[i] == pytest.approx(batch[bounds[i] + fixed[i]], rel=1e-13)
