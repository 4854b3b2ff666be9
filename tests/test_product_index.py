"""The ordered-tuple index of a product space, against an independent
enumeration, and what reads it: ``index_of``, the diagonal, ``value_at``,
``matrix()``, the result's selections and the expansion of quotient
selections."""

import itertools

import numpy as np
import pytest

from credalmeet import CredalMatrix, StateSpace, build_product_space, meet
from credalmeet.meeting import MAX_TABLE_ENTRIES, JointChoices, _expand_selection
from credalmeet.meeting import _selection_tuples

from generators import random_credal_matrix

CASES = [(2, "full"), (2, "quotient"), (3, "full"), (3, "quotient")]


def _space(agents):
    return StateSpace(tuple("abcd"[: 4 if agents == 2 else 3]))


def _reference(space, agents, mode):
    """Product states and the index of every ordered tuple, by enumeration."""
    n = space.size
    if mode == "full":
        states = list(itertools.product(range(n), repeat=agents))
        canonical = tuple
    else:
        states = list(itertools.combinations_with_replacement(range(n), agents))
        canonical = lambda t: tuple(sorted(t))
    ordered = list(itertools.product(range(n), repeat=agents))
    return states, {t: states.index(canonical(t)) for t in ordered}


def _model(rng, n):
    """A random model whose first two states are absorbing: walkers parked
    there apart never meet, so some values are infinite."""
    m = random_credal_matrix(rng, n=n, max_vertices=3, dense_prob=0.4)
    rows = [list(m.vertices(i)) for i in range(n)]
    rows[0], rows[1] = [np.eye(n)[0]], [np.eye(n)[1]]
    return CredalMatrix.from_rows(m.space.labels, rows)


def _expand_reference(selection, space, agents):
    """The per-tuple expansion of a quotient selection, as a loop."""
    normalized = {tuple(sorted(k)): tuple(v) for k, v in selection.items()}
    expanded = {}
    for joint in itertools.product(range(space.size), repeat=agents):
        key = tuple(sorted(joint))
        if key not in normalized:
            continue
        pool = {z: [c for s, c in zip(key, normalized[key]) if s == z] for z in set(key)}
        taken = {z: 0 for z in set(key)}
        tup = []
        for z in joint:
            tup.append(pool[z][taken[z]])
            taken[z] += 1
        expanded[joint] = tuple(tup)
    return expanded


@pytest.mark.parametrize("agents,mode", CASES)
def test_ordered_index_matches_enumeration(agents, mode):
    space = _space(agents)
    product = build_product_space(space, agents, mode)
    states, index = _reference(space, agents, mode)
    assert product.states == tuple(states)
    assert all(type(s) is tuple for s in product.states)
    assert np.array_equal(product.state_array, np.array(states))
    assert product.ordered_index.tolist() == list(index.values())
    for t, i in index.items():
        assert product.index_of(t) == i
        assert product.index_of(np.array(t)) == i
    assert product.diagonal == {index[(z,) * agents] for z in range(space.size)}
    # the index is no dataclass field: equality and hashing see the states only
    assert product == build_product_space(space, agents, mode)
    assert hash(product) == hash(build_product_space(space, agents, mode))


@pytest.mark.parametrize("agents,mode", CASES)
def test_index_of_rejects_tuples_outside_the_space(agents, mode):
    n = _space(agents).size
    product = build_product_space(_space(agents), agents, mode)
    for joint in [(0,) * (agents - 1), (0,) * (agents + 1), (0,) * (agents - 1) + (n,),
                  (0,) * (agents - 1) + (-1,), (-1,) + (0,) * (agents - 1)]:
        with pytest.raises(KeyError):
            product.index_of(joint)


def test_ordered_index_refused_above_the_table_limit():
    product = build_product_space(StateSpace(("a", "b")), 24, "quotient")
    assert product.size == 25 and 2**24 > MAX_TABLE_ENTRIES
    with pytest.raises(ValueError, match="ordered-tuple index"):
        product.index_of((0,) * 24)


@pytest.mark.parametrize("agents,mode", CASES)
@pytest.mark.parametrize("sense", ["upper", "lower"])
def test_results_read_the_index(agents, mode, sense):
    rng = np.random.default_rng([agents, len(mode), len(sense)])
    model = _model(rng, _space(agents).size)
    res = meet(model, agents, "vacuous", sense, mode)
    _, index = _reference(model.space, agents, mode)
    want = np.array([res.values[i] for i in index.values()])
    got = np.array([res.value_at(t) for t in index])
    assert np.array_equal(got, want) and np.isinf(want).any()
    if agents == 2:
        assert np.array_equal(res.matrix(), want.reshape(model.size, model.size))
    else:
        with pytest.raises(ValueError):
            res.matrix()
    # selections against the per-state choice tuples, for the result's and
    # for random flat choices
    view = JointChoices(model, res.product)
    flat = np.array([rng.integers(view.nchoices(i)) for i in range(view.n)])
    assert _selection_tuples(view, flat) == tuple(
        None if i in res.product.diagonal else view.choice_tuples(i)[c]
        for i, c in enumerate(flat.tolist())
    )
    for i, tup in enumerate(res.selections):
        assert (tup is None) == (i in res.product.diagonal)
        assert tup is None or tup in view.choice_tuples(i)


@pytest.mark.parametrize("agents", [2, 3, 4])
def test_expand_selection_matches_the_loop(agents):
    rng = np.random.default_rng(agents)
    space = StateSpace(tuple("abcd"))
    quot = build_product_space(space, agents, "quotient")
    assert _expand_selection(None, quot) is None
    for _ in range(5):
        selection = {}
        for key in itertools.combinations_with_replacement(range(space.size), agents):
            if rng.random() < 0.6:
                joint = tuple(rng.permutation(key).tolist())  # keys in any order
                selection[joint] = tuple(rng.integers(0, 3, size=agents).tolist())
        got = _expand_selection(selection, quot)
        want = _expand_reference(selection, space, agents)
        assert list(got.items()) == list(want.items())
