"""Regions of a joint view: the choices of some states contracted over only
the vertex rows and base states they read. Their values are the whole
view's up to rounding, their support tests and dense blocks are the view's
exactly, their pins read their own table, and a region that reads every row
and base state shares the view's table."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credalmeet import CredalMatrix, build_product_space, exhaustive_meeting_times, meet, solver
from credalmeet.meeting import JointChoices

from generators import random_credal_matrix, two_torus_walk


@st.composite
def regions(draw):
    """A 2- or 3-agent view, full or quotient, on a model whose vertices have
    small integer weights, some of them zero, so that a few states' choices
    often read only some vertex rows and base states; a value vector with
    some inf entries, a mask, a random subset of the states on a random set
    of base states, in state order, and one choice per state of the subset."""
    agents = draw(st.sampled_from([2, 3]))
    mode = draw(st.sampled_from(["full", "quotient"]))
    n = draw(st.integers(2, 5 if agents == 2 else 4))
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
    on = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    keep = draw(st.lists(st.booleans(), min_size=view.n, max_size=view.n))
    states = np.flatnonzero(keep & on[view.product.state_array].all(axis=1))
    counts = np.diff(view.choice_offsets(states))
    choice = np.array([draw(st.integers(0, c - 1)) for c in counts.tolist()], dtype=np.int64)
    return view, f, mask, states, choice


@settings(max_examples=200, deadline=None)
@given(regions())
def test_a_region_reads_the_views_choices(data):
    view, f, mask, states, choice = data
    region = view.region(states)
    rows = region.choice_rows(states)
    assert rows == slice(0, view.choice_offsets(states)[-1])
    mine = view.choice_rows(states)
    got, want = region.values(f), view.values(f)[mine]
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert np.allclose(got[fin], want[fin], rtol=1e-12, atol=0.0)
    # the pattern table counts destination tuples, exactly
    assert np.array_equal(region.touches(mask), view.touches(mask)[mine])
    # a pin of the region reads the region's table, bit for bit
    pin = region.restrict(states, choice)
    picked = region.choice_offsets(states)[:-1] + choice
    assert pin._table is region._table
    assert pin.values(f).tobytes() == got[picked].tobytes()
    assert np.array_equal(pin.touches(mask), region.touches(mask)[picked])
    # blocks decode the region's keys to the model's rows
    assert region.block(states, choice).tobytes() == view.block(states, choice).tobytes()
    assert pin.block(states, 0 * choice).tobytes() == view.block(states, choice).tobytes()


def _unreached_base_state():
    """Every state of a 2-agent full view on a model whose rows never reach
    base state 2: its states hold every base state and read every row, but
    its region drops the column that no row reaches."""
    m = CredalMatrix.from_rows(["s0", "s1", "s2"], [[[0.5, 0.5, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                                   [[0.5, 0.5, 0.0]]])
    view = JointChoices(m, build_product_space(m.space, 2, "full"))
    states = np.arange(view.n)
    return view, None, None, states, np.zeros(states.size, dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(regions())
@example(_unreached_base_state())
def test_a_region_contracts_only_the_rows_and_base_states_it_reads(data):
    view, _, _, states, choice = data
    region = view.region(states)
    m = view.product.agents
    cells = np.concatenate([np.ravel(view._cells[view.choice_rows(i)]) for i in states] + [[]]).astype(int)
    rows = np.unique(cells)
    base = np.flatnonzero((view.model.stack[rows] > 0).any(axis=0))
    if not rows.size or (rows.size == view.model.stack.shape[0] and base.size == view.model.size):
        assert region._table is view._table  # the view's own table, nothing allocated
    else:
        assert region._table.shape == (rows.size,) * m and region._stack.shape == (rows.size, base.size)
        assert np.array_equal(region._vertex, rows)
    # the region of a pin holds the selected rows alone
    pinned = view.restrict(states, choice).region(states)
    if states.size:
        selected = view._cells[view.choice_offsets(np.arange(view.n))[states] + choice]
        assert np.array_equal(pinned._vertex, np.unique(selected))


def test_a_region_that_reads_every_row_and_base_state_allocates_no_table():
    """The upper finite states of a dense 3-agent walk read every vertex row
    and every base state: their region shares the view's ``K**3`` table and
    traces less than it."""
    rng = np.random.default_rng(0)
    m = random_credal_matrix(rng, n=15, max_vertices=2, dense_prob=1.0)
    view = JointChoices(m, build_product_space(m.space, 3, "quotient"))
    finite = np.flatnonzero(~view.product.target_mask())
    view.region(finite)  # warm-up
    tracemalloc.start()
    try:
        region = view.region(finite)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert region._table is view._table and region is not view
    assert peak < view._table.nbytes, (peak, view._table.nbytes)


def test_an_upper_meet_on_a_two_torus_walk_matches_the_exhaustive_oracle():
    """Walkers on the rough torus can dodge each other forever, so the upper
    finite region is the pairs on the smooth torus, whose choices read 2 of
    the 6 vertex rows and 2 of the 4 base states; the meet on that region
    has the exhaustive oracle's inf pattern and values."""
    model = two_torus_walk(np.random.default_rng(0), (1, 2), (1, 2), lazy=False)
    regions = []
    finite_region = solver._finite_region

    def recorded(view, cls):
        out = finite_region(view, cls)
        regions.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_finite_region", recorded)
        got = meet(model, 2, "vacuous", "upper", "full").matrix()
    assert [r._stack.shape for r in regions] == [(2, 2)]
    want = exhaustive_meeting_times(model, "upper")
    assert np.array_equal(np.isinf(got), np.isinf(want)) and np.isfinite(got).sum() == 6
    fin = np.isfinite(want)
    assert np.allclose(got[fin], want[fin], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("belief", ["vacuous", "mixture"])
@pytest.mark.parametrize("agents, mode", [(2, "full"), (3, "quotient")])
def test_a_meet_on_a_region_matches_the_meet_on_the_whole_view(belief, agents, mode, monkeypatch):
    """An upper meet on a two-torus walk, whose finite region reads the smooth
    torus alone, against the same solve with every region the whole view:
    the same classification and inf pattern, values within 1e-12."""
    model = two_torus_walk(np.random.default_rng(1))
    kw = {"epsilon": 0.5} if belief == "mixture" else {}
    got = meet(model, agents, belief, "upper", mode, **kw)
    monkeypatch.setattr(JointChoices, "region", lambda self, states: self)
    want = meet(model, agents, belief, "upper", mode, **kw)
    assert got.classification == want.classification
    assert np.array_equal(np.isinf(got.values), np.isinf(want.values)) and np.isinf(got.values).any()
    fin = np.isfinite(want.values)
    assert np.allclose(got.values[fin], want.values[fin], rtol=1e-12, atol=0.0)
