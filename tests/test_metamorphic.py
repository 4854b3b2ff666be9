"""Metamorphic relations: two runs of the library on inputs whose answers are
related in exact arithmetic, checked without an oracle.

Relabelling. Permuting the base states permutes every answer: a base
policy iteration's values and classification, and a 2-agent quotient
meet's, through the joint states that the permutation maps to each other.
The ``inf`` patterns and classifications, decided by support tests, map
exactly; the finite values map up to the rounding of the permuted sums.
A relabelling moves which of a solve's finite states are consecutive, so
the operator's slice and gather paths run against each other.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from credalmeet import CredalMatrix, meet, policy_iteration

from generators import random_credal_matrix, random_targets

RTOL = 1e-10

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
