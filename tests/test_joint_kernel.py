"""The joint choice values and support tests, read from one contraction table,
against references built from ``joint_transition_weight`` and ``ext_dot``, and
the tensor contraction against the two-operand ``einsum`` loop it replaced."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalmeet import CredalMatrix, build_product_space, ext_dot, ext_matvec, meet
from credalmeet.core import contract
from credalmeet.meeting import (
    MAX_TABLE_ENTRIES,
    JointChoices,
    ProductSpace,
    joint_transition_weight,
)

from generators import random_credal_matrix


@st.composite
def joint_views(draw):
    """A 2- or 3-agent view, full or quotient, on a model with sparse vertices,
    a value vector over its joint states with some inf entries, a mask over
    them and one choice per state."""
    agents = draw(st.sampled_from([2, 3]))
    mode = draw(st.sampled_from(["full", "quotient"]))
    n = draw(st.integers(2, 4 if agents == 2 else 3))
    weight = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    rows = []
    for _ in range(n):
        drawn = draw(st.lists(weight, min_size=1, max_size=3))
        rows.append(list({tuple(x / sum(w) for x in w): None for w in drawn}))
    m = CredalMatrix.from_rows([f"s{i}" for i in range(n)], rows)
    view = JointChoices(m, build_product_space(m.space, agents, mode))
    entry = st.one_of(st.floats(0, 10), st.just(math.inf))
    f = np.array(draw(st.lists(entry, min_size=view.n, max_size=view.n)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=view.n, max_size=view.n)))
    pick = [draw(st.integers(0, view.nchoices(i) - 1)) for i in range(view.n)]
    return view, f, mask, pick


def _reference(view, f, mask):
    """ext_dot of every joint choice's row, and whether the row puts positive
    mass on ``mask``, the choices enumerated here in lexicographic order per
    state."""
    m, prod = view.model, view.product
    vals, hits = [], []
    for origin in prod.states:
        for choice in itertools.product(*[range(m.vertex_count(z)) for z in origin]):
            row = [joint_transition_weight(m, prod, origin, choice, d) for d in prod.states]
            vals.append(ext_dot(row, f))
            hits.append(any(w > 0 for w, t in zip(row, mask) if t))
    return np.array(vals), np.array(hits, dtype=bool)


def _assert_close(got, want):
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert np.allclose(got[fin], want[fin], rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(joint_views())
def test_joint_values_match_transition_weight_reference(data):
    view, f, mask, pick = data
    states = np.arange(view.n)
    got = view.values(states, f)
    want, want_hit = _reference(view, f, mask)
    _assert_close(got, want)
    assert np.array_equal(view.touches(states, mask), want_hit)
    # the pinned view reads the same table entries as the full one
    chosen = view.choice_offsets(states)[:-1] + pick
    pinned = view.restrict(states, pick)
    _assert_close(pinned.values(states, f), want[chosen])
    assert np.array_equal(pinned.values(states, f), got[chosen])
    assert np.array_equal(pinned.touches(states, mask), want_hit[chosen])


@pytest.mark.parametrize("agents", [2, 3])
@pytest.mark.parametrize("mode", ["full", "quotient"])
def test_values_are_inf_exactly_where_a_choice_touches_an_inf_state(agents, mode):
    """Each agent at ``a`` moves to ``b`` with mass 1e-200, so the agents reach
    ``(b, ..., b)`` together with a mass that underflows to zero; a choice
    whose row carries it still has an infinite value when that state is
    infinite, as the support test says, and the other choices keep the
    finite contraction of the values with their infs zeroed."""
    tiny = 1e-200
    rows = [[[1 - tiny, tiny, 0.0], [0.5, 0.0, 0.5]], [[tiny, 1 - 2 * tiny, tiny]], [[0.0, 0.0, 1.0]]]
    m = CredalMatrix.from_rows(["a", "b", "c"], rows)
    prod = build_product_space(m.space, agents, mode)
    view = JointChoices(m, prod)
    start, stuck = prod.index_of((0,) * agents), prod.index_of((1,) * agents)
    for hopeless in [[i] for i in range(view.n)] + [[stuck, prod.index_of((2,) * agents)]]:
        f = np.arange(1.0, view.n + 1)
        f[hopeless] = math.inf
        inf = np.isinf(f)
        got, hit = view.values(None, f), view.touches(None, inf)
        assert np.array_equal(np.isinf(got), hit)
        assert np.array_equal(got[~hit], view.finite_values(np.where(inf, 0.0, f))[~hit])
        if hopeless == [stuck]:
            assert np.isinf(view.values(start, f)[0])


def test_rank_one_contract_is_the_einsum_row_dot():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k, n = rng.integers(1, 40, size=2)
        vertices = rng.random((k, n))
        f = rng.uniform(0, 100, n)
        want = np.einsum("ij,j->i", vertices, f)
        assert np.array_equal(contract(vertices, f), want)
        assert np.array_equal(ext_matvec(vertices, f), want)


def _einsum_contract(vertices, values):
    """The contraction with two-operand ``einsum`` on every axis, as it was
    before tensors went through BLAS: the reference for the tests below."""
    for _ in range(values.ndim):
        values = np.einsum("ij,...j->i...", vertices, values)
    return values


#: Sparse non-negative reals, and the entries of a 0/1 pattern.
REAL = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
ZERO_ONE = st.sampled_from([0.0, 1.0])


@st.composite
def tensor_contractions(draw, vertex_entry, value_entry):
    """A ``(k, n)`` vertex array and an ``(n,) * agents`` tensor, 2 or 3 agents."""
    agents = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 7 if agents == 2 else 5))
    k = draw(st.integers(1, 9))
    vertices = draw(st.lists(vertex_entry, min_size=k * n, max_size=k * n))
    values = draw(st.lists(value_entry, min_size=n**agents, max_size=n**agents))
    return np.reshape(vertices, (k, n)), np.reshape(values, (n,) * agents)


@settings(max_examples=200, deadline=None)
@given(tensor_contractions(REAL, REAL))
def test_tensor_contract_matches_the_einsum_loop(data):
    vertices, values = data
    got = contract(vertices, values)
    want = _einsum_contract(vertices, values)
    assert got.shape == want.shape == (vertices.shape[0],) * values.ndim
    assert (np.abs(got - want) <= 1e-13 * want).all()
    # identical inputs, in fresh arrays, give identical bits
    assert np.array_equal(contract(vertices.copy(), values.copy()), got)


@settings(max_examples=100, deadline=None)
@given(tensor_contractions(ZERO_ONE, ZERO_ONE))
def test_tensor_contract_counts_zero_one_products_exactly(data):
    """The joint view's support table: 0/1 rows contracted with a 0/1 mask."""
    vertices, values = data
    assert np.array_equal(contract(vertices, values), _einsum_contract(vertices, values))


def _lowest_swap(joint, choice):
    """The lowest tuple among those that only swap co-located agents' vertices."""
    return tuple(c for _, c in sorted(zip(joint, choice)))


def test_quotient_swaps_tie_exactly_and_select_the_lower_tuple():
    rng = np.random.default_rng(17)
    for _ in range(4):
        m = random_credal_matrix(rng, n=5, max_vertices=3)
        res = meet(m, 3, "vacuous", "upper", "quotient")
        view = JointChoices(m, res.product)
        for i, joint in enumerate(res.product.states):
            seen = {}
            for choice, value in zip(view.choice_tuples(i), view.values(i, res.values)):
                key = _lowest_swap(joint, choice)
                assert seen.setdefault(key, value) == value, (joint, choice)
            if res.selections[i] is not None:
                assert res.selections[i] == _lowest_swap(joint, res.selections[i])


def test_size_guard_counts_the_choice_value_table(monkeypatch):
    rng = np.random.default_rng(2)
    n = 32
    rows = [[rng.dirichlet(np.ones(n)) for _ in range(4)] for _ in range(n)]
    m = CredalMatrix.from_rows([f"s{i}" for i in range(n)], rows)
    product = build_product_space(m.space, 4, "quotient")
    assert n**4 < MAX_TABLE_ENTRIES < (4 * n) ** 4

    def fail(self):
        raise AssertionError("the ordered-tuple index was built before the size guard")

    monkeypatch.setattr(ProductSpace, "ordered_index", property(fail))
    with pytest.raises(ValueError, match=f"{(4 * n) ** 4} entries"):
        JointChoices(m, product)
