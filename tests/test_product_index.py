"""The ordered-tuple index of a product space, against an independent
enumeration, and what reads it: ``index_of``, the diagonal, ``value_at``,
``matrix()``, the result's selections and the expansion of quotient
selections."""

import itertools
import tracemalloc

import numpy as np
import pytest
import yaml

from credalmeet import CredalMatrix, StateSpace, build_product_space, meet, meeting
from credalmeet.cli import main
from credalmeet.meeting import MAX_TABLE_ENTRIES, JointChoices, _expand_selection
from credalmeet.meeting import MeetingResult, _vertex_choices

from generators import random_credal_matrix

CASES = [(2, "full"), (2, "quotient"), (3, "full"), (3, "quotient"), (4, "full"), (4, "quotient"), (5, "quotient")]


def _selection_tuples(view, flat):
    """The selections of a result whose selection is ``flat`` on ``view``."""
    result = MeetingResult(view.product, "degenerate", None, None, np.zeros(view.n),
                           _vertex_choices(view, flat), None, 0, 0.0, True)
    return result.selections


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
def test_no_solve_enumerates_the_states_as_tuples(agents, mode, tmp_path, monkeypatch):
    """Building a product space, ``meet`` under every belief and sense, and
    the CLI's joint ``classify`` and ``meet`` read the state array only, never
    the per-state tuples; read afterwards, ``states`` is still the itertools
    enumeration."""
    rng = np.random.default_rng([agents, len(mode)])
    model = _model(rng, _space(agents).size)
    product = build_product_space(model.space, agents, mode)
    assert "states" not in vars(product)
    selection = {tuple(row): tuple(int(rng.integers(model.vertex_count(z))) for z in row)
                 for row in product.state_array.tolist()}
    products = [product]
    for belief, sense in [("degenerate", "upper"), ("vacuous", "upper"), ("vacuous", "lower"),
                          ("mixture", "upper"), ("mixture", "lower")]:
        products.append(meet(model, agents, belief, sense, mode, selection=selection, epsilon=0.5).product)
    built, build = [], meeting.build_product_space

    def record(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(meeting, "build_product_space", record)
    path = tmp_path / "model.yaml"
    path.write_text(yaml.safe_dump({"states": list(model.space.labels), "rows": {
        lab: {"vertices": model.vertices(i).tolist()} for i, lab in enumerate(model.space.labels)}}))
    for argv in (["classify", str(path), "--sense", "upper"], ["meet", str(path)]):
        assert main([*argv, "--agents", str(agents), "--mode", mode]) in (0, 2)
    assert len(built) == 2
    for p in products + built:
        assert "states" not in vars(p)
        assert p.states == tuple(_reference(model.space, agents, mode)[0])
        assert "states" in vars(p)


def test_building_a_product_space_holds_no_tuples():
    """Sizing the 160 000 ordered pairs of 400 states allocates nothing;
    Python tuples of them would take about 10 MB."""
    space = StateSpace(tuple(f"s{i}" for i in range(400)))
    tracemalloc.start()
    try:
        product = build_product_space(space, 2, "full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product.size == 160_000
    assert peak <= 2**16


@pytest.mark.parametrize("n,agents", [(300, 2), (9, 4)])
def test_ordered_index_sorts_every_tuple(n, agents):
    # n=300 holds the tuples in uint16, n=9 in uint8
    product = build_product_space(StateSpace(tuple(f"s{i}" for i in range(n))), agents, "quotient")
    ordered = np.indices((n,) * agents).reshape(agents, -1).T
    assert np.array_equal(product.state_array[product.ordered_index], np.sort(ordered, axis=1))


def test_ordered_index_peak_memory():
    # both arrays built cold, together. On 2.56 M ordered 4-tuples: the
    # tuples' codes, their ranks and the index are 8 bytes an entry each;
    # the tuples themselves, one byte per agent, are gone before the final
    # gather. On 90 000 ordered pairs, every one a state: the same three,
    # and at the end the index beside the states, two int64 a pair
    for n, agents, mode, per_tuple in [(40, 4, "quotient", 32), (300, 2, "full", 5 * 8)]:
        product = build_product_space(StateSpace(tuple(f"s{i}" for i in range(n))), agents, mode)
        tracemalloc.start()
        try:
            index, states = product.ordered_index, product.state_array
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index.size == n**agents and len(states) == product.size
        assert peak <= per_tuple * n**agents


def _unequal_model(n, agents):
    """A model on ``n`` states labelled ``x0``, ``x1``, ... whose vertex counts
    run 1, 2, 3, 1, ..., so that agents on different states have different
    numbers of choices."""
    rng = np.random.default_rng([n, agents])
    rows = [list(rng.dirichlet(np.ones(n), size=1 + i % 3)) for i in range(n)]
    return CredalMatrix.from_rows([f"x{i}" for i in range(n)], rows)


@pytest.mark.parametrize("agents, n", [(2, 2), (2, 5), (2, 7), (3, 3), (3, 7), (4, 2), (4, 5), (5, 2), (5, 4)])
@pytest.mark.parametrize("mode", ["full", "quotient"])
def test_joint_indices_match_the_tuple_enumeration(agents, n, mode):
    """Every index array the product space and its joint view build by array
    arithmetic, against a loop over the enumerated tuples: states, ordered
    index, diagonal, cells and keys, choice tuples, selection tuples and
    labels."""
    model = _unequal_model(n, agents)
    product = build_product_space(model.space, agents, mode)
    view = JointChoices(model, product)
    states, index = _reference(model.space, agents, mode)
    assert product.state_array.dtype == np.int64
    assert product.state_array.tolist() == [list(s) for s in states]
    assert product.ordered_index.tolist() == list(index.values())
    assert product.diagonal == {index[(z,) * agents] for z in range(n)}
    assert product.labels == tuple("(" + ",".join(f"x{z}" for z in s) + ")" for s in states)
    assert product.labels == tuple(product.label(i) for i in range(product.size))
    offsets, k = model.offsets, model.stack.shape[0]
    choices = [list(itertools.product(*(range(model.vertex_count(z)) for z in s))) for s in states]
    cells = [[offsets[z] + c for z, c in zip(s, tup)] for s, options in zip(states, choices) for tup in options]
    keys = [int(np.ravel_multi_index(sorted(c) if mode == "quotient" else c, (k,) * agents)) for c in cells]
    assert view._cells.tolist() == cells and view._rows.tolist() == keys
    assert [view.choice_tuples(i) for i in range(product.size)] == choices
    flat = np.random.default_rng(n).integers(0, [len(c) for c in choices])
    want = tuple(None if i in product.diagonal else options[f]
                 for i, (options, f) in enumerate(zip(choices, flat)))
    got = _selection_tuples(view, flat)
    assert got == want and all(type(t) is tuple for t in got if t is not None)


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
    for read in (lambda: product.index_of((0,) * 24), lambda: product.state_array, lambda: product.labels):
        with pytest.raises(ValueError, match="the ordered-tuple index would have 16777216 entries "
                                             r"\(2 states, 24 agents\), above the 16000000 limit"):
            read()


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
    flat = np.array([rng.integers(c) for c in np.diff(view.choice_offsets(np.arange(view.n))).tolist()])
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
