"""The joint choice values and support tests, read from one contraction table,
against references built from ``joint_transition_weight`` and ``ext_dot``; the
vector contraction as one dot per row, and the tensor contraction chain against
the two-operand ``einsum`` loop it replaced."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credalmeet import CredalMatrix, build_product_space, ext_dot, ext_matvec, meet
from credalmeet.core import chain_sizes, contract, contract_chain
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
    counts = np.diff(view.choice_offsets(np.arange(view.n)))
    pick = [draw(st.integers(0, c - 1)) for c in counts.tolist()]
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


def _assert_close(got, want, terms):
    """Equal ``inf`` patterns, and finite values within a dot product's error
    bound for ``terms`` summed products: a relative term, and an absolute one
    of a few units of the smallest subnormal per product for the rounding
    that underflow leaves, which the relative term misses on subnormal
    values and which is far below it above them."""
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    tiny = 4 * terms * np.finfo(float).smallest_subnormal
    assert np.allclose(got[fin], want[fin], rtol=1e-12, atol=tiny)


def _subnormal_values():
    """Subnormal values on a 2-agent full view, whose kernel and reference
    round one unit of 2**-1074 apart: a relative gap of 6.7e-11."""
    m = CredalMatrix.from_rows(["s0", "s1"], [[[0.0, 1.0]], [[0.5, 0.5], [2 / 3, 1 / 3]]])
    view = JointChoices(m, build_product_space(m.space, 2, "full"))
    return view, np.array([0.0, 0.0, 2.2e-313, 5e-324]), np.zeros(view.n, dtype=bool), [0, 1, 1, 3]


@settings(max_examples=60, deadline=None)
@given(joint_views())
@example(_subnormal_values())
def test_joint_values_match_transition_weight_reference(data):
    view, f, mask, pick = data
    states = np.arange(view.n)
    got = view.values(f)
    want, want_hit = _reference(view, f, mask)
    _assert_close(got, want, view.n)
    assert np.array_equal(view.touches(mask), want_hit)
    # the pinned view reads the same table entries as the full one
    chosen = view.choice_offsets(states)[:-1] + pick
    pinned = view.restrict(states, pick)
    _assert_close(pinned.values(f), want[chosen], view.n)
    assert np.array_equal(pinned.values(f), got[chosen])
    assert np.array_equal(pinned.touches(mask), want_hit[chosen])


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
        got, hit = view.values(f), view.touches(inf)
        assert np.array_equal(np.isinf(got), hit)
        assert np.array_equal(got[~hit], view.finite_values(np.where(inf, 0.0, f))[~hit])
        if hopeless == [stuck]:
            assert np.isinf(got[view.choice_rows(start)][0])


def _offset_copy(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` whose buffer starts one float past an allocation."""
    copy = np.empty(a.size + 1)[1:].reshape(a.shape)
    copy[...] = a
    return copy


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
@example(1000, 500, 0)
def test_rank_one_contract_is_one_dot_per_row(k, n, seed):
    """Each row of a vector contraction has the bits of that row contracted
    alone, in any copied subset of the rows and from a buffer shifted by one
    float; ``ext_matvec`` on finite values is the same contraction."""
    rng = np.random.default_rng(seed)
    vertices = rng.random((k, n)) * (rng.random((k, n)) < 0.7)
    f = rng.uniform(0, 100, n)
    got = contract(vertices, f)
    alone = [contract(vertices[i][None].copy(), f)[0] for i in range(k)]
    assert np.array_equal(got, alone)
    rows = rng.permutation(k)[: rng.integers(1, k + 1)]
    assert np.array_equal(contract(vertices[rows], f), got[rows])
    assert np.array_equal(contract(_offset_copy(vertices), _offset_copy(f)), got)
    out = np.empty(k)
    assert contract(vertices, f, out=out) is out and np.array_equal(out, got)
    assert np.array_equal(ext_matvec(vertices, f), got)


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
    """A ``(k, n)`` vertex array and an ``(n,) * agents`` tensor, 2 to 5
    agents; half the time fewer rows than columns, as a joint region may
    have, so that a step of the chain outgrows the table."""
    agents = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(1, {2: 7, 3: 5, 4: 4, 5: 3}[agents]))
    k = draw(st.integers(1, max(1, n - 1)) if draw(st.booleans()) else st.integers(1, 9))
    vertices = draw(st.lists(vertex_entry, min_size=k * n, max_size=k * n))
    values = draw(st.lists(value_entry, min_size=n**agents, max_size=n**agents))
    return np.reshape(vertices, (k, n)), np.reshape(values, (n,) * agents)


def _buffers(vertices, values, fill=np.nan):
    """Two flat buffers of :func:`chain_sizes` for the contraction, as a
    joint view allocates them, filled with ``fill``."""
    return tuple(np.full(size, fill) for size in chain_sizes(*vertices.shape, values.ndim))


def _chain(vertices, values, buffers=None):
    """The tensor contraction as a joint view makes it: :func:`contract_chain`
    with the rows' C-contiguous transpose, into fresh buffers unless given."""
    buffers = _buffers(vertices, values) if buffers is None else buffers
    return contract_chain(vertices, np.ascontiguousarray(vertices.T), values, buffers)


@settings(max_examples=200, deadline=None)
@given(tensor_contractions(REAL, REAL))
def test_tensor_contract_matches_the_einsum_loop(data):
    vertices, values = data
    got = _chain(vertices, values)
    want = _einsum_contract(vertices, values)
    assert got.shape == want.shape == (vertices.shape[0],) * values.ndim
    assert (np.abs(got - want) <= 1e-13 * want).all()
    # identical inputs, in fresh arrays, give identical bits
    assert np.array_equal(_chain(vertices.copy(), values.copy()), got)


@settings(max_examples=100, deadline=None)
@given(tensor_contractions(ZERO_ONE, ZERO_ONE))
def test_tensor_contract_counts_zero_one_products_exactly(data):
    """The joint view's support table: 0/1 rows contracted with a 0/1 mask."""
    vertices, values = data
    assert np.array_equal(_chain(vertices, values), _einsum_contract(vertices, values))


@settings(max_examples=100, deadline=None)
@given(tensor_contractions(REAL, REAL))
def test_tensor_contract_into_out_has_the_bits_of_a_fresh_table(data):
    """A tensor contracted into buffers that a view holds, as the table in
    the first buffer's head, has the bits of the table in fresh buffers,
    whatever the buffers held before: NaN, or an earlier contraction."""
    vertices, values = data
    want = _chain(vertices, values).copy()
    held = _buffers(vertices, values, np.nan)
    got = _chain(vertices, values, held)
    assert np.shares_memory(got, held[0]) and np.array_equal(got, want)
    _chain(vertices, values[::-1].copy(), held)
    assert np.array_equal(_chain(vertices, values, held), want)


@pytest.mark.parametrize("agents", [2, 3])
def test_warm_joint_contractions_allocate_nothing(agents):
    """A warm contraction of the stack or the 0/1 pattern, on a view, on a
    region with fewer vertex rows than base states and on their pins,
    traces a few KB at most: each writes the tensor, scratch and table that
    its view or region allocated once, and a pin shares its view's."""
    rng = np.random.default_rng(1)
    m = random_credal_matrix(rng, n={2: 30, 3: 12}[agents], max_vertices=2, dense_prob=1.0)
    view = JointChoices(m, build_product_space(m.space, agents, "quotient"))
    low = np.flatnonzero((view.product.state_array < 2).all(axis=1))
    region = view.region(low)
    assert region._stack.shape[0] < region._stack.shape[1] == m.size
    assert region._buffers is not view._buffers
    f = rng.random(view.n)
    mask = (f > 0.5).astype(float)
    for v, states in ((view, np.arange(view.n)), (region, low)):
        pin = v.restrict(states, np.zeros(states.size, dtype=np.int64))
        for name in ("_buffers", "_tensor", "_table", "_stack_t", "_pattern_t"):
            assert getattr(pin, name) is getattr(v, name)
        for w in (v, pin):
            out = np.empty(len(w._rows))
            for rows, rows_t, g in ((w._stack, w._stack_t, f), (w._pattern, w._pattern_t, mask)):
                w._contract(rows, rows_t, g, out)  # warm-up
                tracemalloc.start()
                try:
                    w._contract(rows, rows_t, g, out)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 4096, (agents, peak)


def test_joint_contractions_write_into_the_views_table():
    """A warm 3-agent contraction, pinned or not, traces less than its view's
    ``K**3`` table: the table is the view's own, shared by its pins, and no
    contraction allocates another."""
    rng = np.random.default_rng(0)
    m = random_credal_matrix(rng, n=15)
    view = JointChoices(m, build_product_space(m.space, 3, "quotient"))
    pin = view.restrict(np.arange(view.n), np.zeros(view.n, dtype=np.int64))
    assert pin._table is view._table
    table_bytes = 8 * m.stack.shape[0] ** 3
    f, out = rng.random(view.n), np.empty(view.n)
    for call in (lambda: pin.finite_values(f, out), lambda: pin.touches(f > 0.5)):
        call()  # warm-up
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes


def _lowest_swap(joint, choice):
    """The lowest tuple among those that only swap co-located agents' vertices."""
    return tuple(c for _, c in sorted(zip(joint, choice)))


def test_quotient_swaps_tie_exactly_and_select_the_lower_tuple():
    rng = np.random.default_rng(17)
    for _ in range(4):
        m = random_credal_matrix(rng, n=5, max_vertices=3)
        res = meet(m, 3, "vacuous", "upper", "quotient")
        view = JointChoices(m, res.product)
        vals = view.values(res.values)
        for i, joint in enumerate(res.product.states):
            seen = {}
            for choice, value in zip(view.choice_tuples(i), vals[view.choice_rows(i)]):
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
