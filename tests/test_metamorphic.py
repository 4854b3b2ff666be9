"""Metamorphic relations: two runs of the library on inputs whose answers are
related in exact arithmetic, checked without an oracle.

Relabelling. Permuting the base states permutes every answer: a base
policy iteration's values and classification, and a 2-agent quotient
meet's, through the joint states that the permutation maps to each other.
The ``inf`` patterns and classifications, decided by support tests, map
exactly; the finite values map up to the rounding of the permuted sums.
A relabelling moves which of a solve's finite states are consecutive, so
the operator's slice and gather paths run against each other.

Vertex order. Permuting each state's vertices leaves every answer as it is:
a base policy iteration's values and classification, and a vacuous
quotient meet's with 2 and 3 agents, whose choices are tuples of the
agents' vertices. The ``inf`` patterns and classifications match exactly
and the finite values up to the rounding of the reordered optima; a base
selection, mapped back through the permutation, picks the same vertex
unless the two vertices tie under the values. A reordering moves each
choice to another slot of its state's segment and each agent's vertex to
another digit of the joint choices' cells.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from credalmeet import CredalMatrix, meet, policy_iteration

from generators import random_credal_matrix, random_targets

RTOL = 1e-10

#: Relative agreement of the finite values under a reordering of vertices.
VERTEX_RTOL = 1e-12

SETS = ("target", "absorbing", "unsafe", "finite")


@st.composite
def relabelled(draw, sizes):
    """A model of ``n`` states in ``sizes``, some of them traps that step to
    themselves alone, the same model with its states permuted, the
    permutation (old state ``i`` is new state ``perm[i]``) and targets for a
    base solve, as old states."""
    n = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_credal_matrix(rng, n)
    rows = [list(model.vertices(i)) for i in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n // 3)):
        rows[i] = [np.eye(n)[i]]
    perm = np.array(draw(st.permutations(range(n))))
    old = np.argsort(perm)  # the old state of each new one
    moved = [[v[old] for v in rows[i]] for i in old]
    labels = [f"s{i}" for i in range(n)]
    return CredalMatrix.from_rows(labels, rows), CredalMatrix.from_rows(labels, moved), perm, random_targets(rng, n)


def _maps(old, new, where, classification_old, classification_new):
    """Assert that ``new[where]`` is ``old`` (``where[i]``, the new index of
    old state ``i``): the same ``inf`` pattern and classification exactly,
    finite values within ``RTOL``."""
    got = new[where]
    assert np.array_equal(np.isinf(got), np.isinf(old))
    fin = np.isfinite(old)
    assert np.allclose(got[fin], old[fin], rtol=RTOL, atol=0.0)
    for name in SETS:
        mapped = {int(where[i]) for i in getattr(classification_old, name)}
        assert mapped == set(getattr(classification_new, name)), name


@settings(max_examples=300, deadline=None)
@given(relabelled(st.integers(2, 12)), st.sampled_from(["upper", "lower"]))
def test_relabelled_base_states_relabel_policy_iteration(data, sense):
    model, moved, perm, targets = data
    old = policy_iteration(model, targets, sense)
    new = policy_iteration(moved, perm[targets].tolist(), sense)
    assert old.converged and new.converged
    _maps(old.values, new.values, perm, old.classification, new.classification)


@settings(max_examples=100, deadline=None)
@given(relabelled(st.integers(2, 7)), st.sampled_from(["upper", "lower"]))
def test_relabelled_base_states_relabel_a_quotient_meet(data, sense):
    model, moved, perm, _ = data
    old = meet(model, 2, "vacuous", sense, "quotient")
    new = meet(moved, 2, "vacuous", sense, "quotient")
    assert old.converged and new.converged
    n = model.size
    # the new index of every old joint state: its agents' new states, in either order
    where = new.product.ordered_index[np.ravel_multi_index(tuple(perm[old.product.state_array.T]), (n, n))]
    _maps(old.values, new.values, where, old.classification, new.classification)


@st.composite
def reordered(draw, sizes):
    """A model of ``n`` states in ``sizes``, some of them traps that step to
    themselves alone, the same model with each state's vertices permuted,
    the permutations (new vertex ``j`` of state ``i`` is old vertex
    ``orders[i][j]``) and targets for a base solve."""
    n = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_credal_matrix(rng, n)
    rows = [list(model.vertices(i)) for i in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n // 3)):
        rows[i] = [np.eye(n)[i]]
    orders = [draw(st.permutations(range(len(row)))) for row in rows]
    moved = [[row[j] for j in order] for row, order in zip(rows, orders)]
    labels = [f"s{i}" for i in range(n)]
    return CredalMatrix.from_rows(labels, rows), CredalMatrix.from_rows(labels, moved), orders, random_targets(rng, n)


def _same(old, new):
    """Assert that two results of models that differ in vertex order alone
    agree: the same ``inf`` pattern and classification exactly, finite
    values within ``VERTEX_RTOL``."""
    assert old.converged and new.converged
    assert np.array_equal(np.isinf(new.values), np.isinf(old.values))
    fin = np.isfinite(old.values)
    assert np.allclose(new.values[fin], old.values[fin], rtol=VERTEX_RTOL, atol=0.0)
    assert new.classification == old.classification


@settings(max_examples=60, deadline=None)
@given(reordered(st.integers(2, 8)), st.sampled_from(["upper", "lower"]))
def test_reordered_vertices_leave_policy_iteration_as_it_is(data, sense):
    model, moved, orders, targets = data
    old = policy_iteration(model, targets, sense)
    new = policy_iteration(moved, targets, sense)
    _same(old, new)
    # each finite state's pick, mapped back to the old order, is the old
    # pick or a vertex whose expectation of the values ties with it
    known = np.where(np.isinf(old.values), 0.0, old.values)
    for i in sorted(old.classification.finite):
        a, b = int(old.selection[i]), orders[i][int(new.selection[i])]
        if a != b:
            vertices = model.vertices(i)
            assert not vertices[b][np.isinf(old.values)].any()
            assert np.isclose(vertices[a] @ known, vertices[b] @ known, rtol=RTOL, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(reordered(st.integers(2, 6)), st.sampled_from(["upper", "lower"]))
def test_reordered_vertices_leave_a_2_agent_quotient_meet_as_it_is(data, sense):
    model, moved, _, _ = data
    _same(meet(model, 2, "vacuous", sense, "quotient"), meet(moved, 2, "vacuous", sense, "quotient"))


@settings(max_examples=20, deadline=None)
@given(reordered(st.integers(2, 4)), st.sampled_from(["upper", "lower"]))
def test_reordered_vertices_leave_a_3_agent_quotient_meet_as_it_is(data, sense):
    model, moved, _, _ = data
    _same(meet(model, 3, "vacuous", sense, "quotient"), meet(moved, 3, "vacuous", sense, "quotient"))
