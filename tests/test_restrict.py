"""Restricted choice views: a view's values at a few states and a pinned
selection evaluate exactly the entries of the whole view, the solvers
give the same bits as the reference sweep loop and selection product, and a
selection product on a base model contracts only the selected rows."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalmeet import CredalMatrix, TransitionMatrix, build_product_space, joint_transition_weight, meet
from credalmeet import meeting_times, policy_iteration, reach, selection_matrix, solver, value_iteration
from credalmeet.core import segment_optimum, target_mask
from credalmeet.meeting import JointChoices
from credalmeet.reach import CredalChoices, classify_view
from credalmeet.solver import HittingResult

from generators import random_credal_matrix, random_distribution, trapped_credal_matrix


# ------------------------------------------------------ restrict vs full view

@st.composite
def restricted_views(draw):
    """A base view or a 2- or 3-agent joint view (full or quotient) on a model
    with sparse vertices, a value vector over its states with some inf
    entries, a mask, a random subset of its states in state order and one
    random choice per state of the subset."""
    agents = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(2, {1: 8, 2: 4, 3: 3}[agents]))
    weight = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    rows = []
    for _ in range(n):
        drawn = draw(st.lists(weight, min_size=1, max_size=3))
        rows.append(list({tuple(x / sum(w) for x in w): None for w in drawn}))
    m = CredalMatrix.from_rows([f"s{i}" for i in range(n)], rows)
    if agents == 1:
        view = CredalChoices(m)
    else:
        mode = draw(st.sampled_from(["full", "quotient"]))
        view = JointChoices(m, build_product_space(m.space, agents, mode))
    entry = st.one_of(st.floats(0, 10), st.just(math.inf))
    f = np.array(draw(st.lists(entry, min_size=view.n, max_size=view.n)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=view.n, max_size=view.n)))
    keep = draw(st.lists(st.booleans(), min_size=view.n, max_size=view.n))
    states = np.flatnonzero(keep)
    counts = np.diff(view.choice_offsets(states))
    choice = np.array([draw(st.integers(0, c - 1)) for c in counts.tolist()], dtype=np.int64)
    return view, f, mask, states, choice


@settings(max_examples=150, deadline=None)
@given(restricted_views())
def test_restricted_view_reads_the_full_views_entries(data):
    view, f, mask, states, choice = data
    everyone = np.arange(view.n)
    whole, hit = view.values(f), view.touches(mask)
    bounds = view.choice_offsets(everyone)
    mine = np.concatenate([np.arange(bounds[i], bounds[i + 1]) for i in states] + [[]]).astype(int)
    picked = bounds[states] + choice

    assert np.array_equal(whole[view.choice_rows(states)], whole[mine])
    assert np.array_equal(hit[view.choice_rows(states)], hit[mine])

    sel = view.restrict(states, choice)
    assert type(sel) is type(view)
    assert np.array_equal(sel.values(f), whole[picked])
    assert np.array_equal(sel.touches(mask), hit[picked])
    assert np.array_equal(sel.choice_offsets(states), np.arange(states.size + 1))
    if isinstance(view, CredalChoices):
        full = np.zeros(view.n, dtype=np.int64)
        full[states] = choice
        assert np.array_equal(view.block(states, choice), selection_matrix(view.model, full)[np.ix_(states, states)])
    else:
        joint = view.product.states
        want = [[joint_transition_weight(view.model, view.product, joint[i], view.choice_tuples(i)[c], joint[j])
                 for j in states] for i, c in zip(states.tolist(), choice.tolist())]
        assert np.allclose(view.block(states, choice), np.reshape(want, (states.size,) * 2), rtol=1e-13, atol=0.0)
    # a pinned view's block reads its one choice per state
    assert np.array_equal(sel.block(states, 0 * choice), view.block(states, choice))

    # a pinned view pins again, as a degenerate meeting solve does
    seventh = 7 % np.diff(bounds)
    pinned = view.restrict(everyone, seventh)
    pick = bounds[:-1] + seventh
    assert np.array_equal(pinned.values(f)[pinned.choice_rows(states)], whole[pick[states]])
    repinned = pinned.restrict(states, 0 * choice)
    assert np.array_equal(repinned.touches(mask), hit[pick[states]])


@st.composite
def repinned_views(draw):
    """A base view or a 2- or 3-agent joint view (full or quotient) on a model
    with 1 to 3 vertices per state, a random subset of its states in state
    order, and several random selections of one choice per state of the
    subset, pinned one after another."""
    agents = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(2, {1: 8, 2: 4, 3: 3}[agents]))
    m = random_credal_matrix(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n=n,
                             max_vertices=3, dense_prob=0.5)
    if agents == 1:
        view = CredalChoices(m)
    else:
        view = JointChoices(m, build_product_space(m.space, agents, draw(st.sampled_from(["full", "quotient"]))))
    states = np.flatnonzero(draw(st.lists(st.booleans(), min_size=view.n, max_size=view.n)))
    counts = np.diff(view.choice_offsets(states)).tolist()
    selection = st.tuples(*[st.integers(0, c - 1) for c in counts]).map(lambda c: np.array(c, dtype=np.int64))
    return view, states, draw(st.lists(selection, min_size=2, max_size=6))


@settings(max_examples=150, deadline=None)
@given(repinned_views())
def test_a_refilled_pin_is_a_fresh_pin(data):
    """Each pin after the first refills the one before it in place when that
    one copied its rows and the new rows are not consecutive: its ``_rows``
    and its values are then those of a fresh pin, bit for bit. The unpinned
    view's ``_rows``, read-only here, are never written."""
    view, states, choices = data
    view._rows.flags.writeable = False
    f = np.random.default_rng(states.size).random(view.n)
    starts = view.choice_offsets(np.arange(view.n))[states]
    pinned = None
    for choice in choices:
        rows = starts + choice
        consecutive = rows.size > 0 and (np.diff(rows) == 1).all()
        owned = pinned is not None and not np.shares_memory(pinned._rows, view._rows)
        got = view.restrict(states, choice, pinned)
        want = view.restrict(states, choice)
        assert (got is pinned) == (owned and not consecutive)
        assert got._rows.dtype == want._rows.dtype and got._rows.tobytes() == want._rows.tobytes()
        assert np.array_equal(got._starts, want._starts) and np.array_equal(got._counts, want._counts)
        assert got.finite_values(f).tobytes() == want.finite_values(f).tobytes()
        pinned = got


def test_a_pin_is_not_refilled_for_other_states_or_when_it_is_a_slice():
    """A pin of other states, of another view, or that is a slice of the
    view's rows (consecutive choices) is left as it was, and the view pins
    afresh; a refill of a slice would write the view's own rows."""
    rows = [[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], [[0.2, 0.3, 0.5]]]
    model = CredalMatrix.from_rows(["a", "b", "c"], rows)
    view, other = CredalChoices(model), CredalChoices(model)
    stack = model.stack.copy()
    states = np.array([0, 1])

    sliced = view.restrict(states, [1, 0])  # rows 1 and 2: a slice of the stack
    assert np.shares_memory(sliced._rows, model.stack)
    got = view.restrict(states, [0, 1], sliced)  # rows 0 and 3
    assert got is not sliced and np.array_equal(sliced._rows, stack[1:3])

    copied = view.restrict(states, [0, 1])
    for into in (view.restrict(np.array([0, 2]), [0, 0]), other.restrict(states, [0, 1])):
        before = into._rows.copy()
        got = view.restrict(states, [1, 1], into)  # rows 1 and 3
        assert got is not into and np.array_equal(into._rows, before)
        assert np.array_equal(got._rows, stack[[1, 3]])
    assert view.restrict(states, [1, 1], copied) is copied
    assert np.array_equal(copied._rows, stack[[1, 3]]) and np.array_equal(model.stack, stack)


@st.composite
def trapped_views(draw):
    """A base view with target ``{0}``, or a 2- or 3-agent joint view (full or
    quotient) with the meeting target, on a model whose states from 2 on are
    traps at random. Every other state's vertices put mass on the state
    below it and on others below, and now and then on a state above, so
    often some states are finite and others infinite."""
    agents = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(3, {1: 8, 2: 5, 3: 4}[agents]))
    traps = [i for i in range(2, n) if draw(st.booleans())]
    rows = []
    for i in range(n):
        if i in traps:
            rows.append([np.eye(n)[i]])
            continue
        weight = st.tuples(*[st.sampled_from([0, 1, 3] if j <= i else [0, 0, 0, 1]) for j in range(n)])
        drawn = [np.add(w, np.eye(n, dtype=int)[max(i - 1, 0)]) for w in draw(st.lists(weight, min_size=1, max_size=3))]
        rows.append(list({tuple(x / sum(w) for x in w): None for w in drawn}))
    m = CredalMatrix.from_rows([f"s{i}" for i in range(n)], rows)
    if agents == 1:
        return CredalChoices(m), target_mask(n, [0])
    view = JointChoices(m, build_product_space(m.space, agents, draw(st.sampled_from(["full", "quotient"]))))
    return view, view.product.target_mask()


@settings(max_examples=200, deadline=None)
@given(trapped_views())
def test_no_finite_state_has_a_choice_into_the_infinite_region_in_upper_sense(data):
    """In the upper sense a finite state with mass on an infinite state would
    be unsafe itself, so the improvement step of policy iteration never meets
    a choice into the infinite region there: no value is needed for one."""
    view, targets = data
    cls, _ = classify_view(view, targets, "upper")
    finite = np.array(sorted(cls.finite), dtype=int)
    assert not view.touches(cls.infinite_mask(view.n))[view.choice_rows(finite)].any()


@settings(max_examples=100, deadline=None)
@given(restricted_views())
def test_finite_values_give_the_views_values_into_a_buffer(data):
    """On finite values, ``finite_values`` gives every choice's value with the
    bits of ``values``, for whole and pinned views, into the given buffer."""
    view, f, mask, states, choice = data
    f[np.isinf(f)] = 0.0
    for v in (view, view.restrict(states, choice)):
        want = v.values(f)
        out = np.full(want.size, np.nan)
        assert v.finite_values(f, out) is out
        assert np.array_equal(out, want) and np.array_equal(v.finite_values(f), want)


# ------------------------------------------------- solvers against reference

def _reference_finish(view, h, finite, sense):
    best, pick = segment_optimum(view.values(h)[view.choice_rows(finite)], view.choice_offsets(finite), sense)
    selection = np.zeros(view.n, dtype=np.int64)
    selection[finite] = pick
    return selection, float(np.max(np.abs(h[finite] - (1.0 + best)), initial=0.0))


def _reference_value(view, targets, sense, tol, max_iter):
    """Value iteration by the solver's safeguarded Anderson mixing, with each
    application of ``F`` through the full view: every choice evaluated on the
    values with inf at the inf states, the best scanned per state. The mixing
    repeats the solver's arithmetic on a ring of the same layout, so that the
    two agree bit for bit; with no finite state the solve starts converged
    and applies ``F`` no more."""
    cls, _ = classify_view(view, targets, sense)
    n = view.n
    h = np.zeros(n)
    h[list(cls.infinite)] = math.inf
    finite = np.array(sorted(cls.finite), dtype=int)
    bounds = view.choice_offsets(finite)
    k, depth = finite.size, solver.MIX_DEPTH

    def apply(x):
        h[finite] = x
        return 1.0 + segment_optimum(view.values(h)[view.choice_rows(finite)], bounds, sense)[0]

    ring_r, ring_g = np.empty((depth, k)), np.empty((depth, k))
    x, g, r = np.zeros(k), np.zeros(k), None
    terms = int(np.count_nonzero(view._rows[view.choice_rows(finite)], axis=1).max(initial=0))
    defect, fall, down, filled, head, iterations = math.inf, 0.0, 0.0, 0, 0, 0
    converged = k == 0
    bound = 0.0 if converged else math.inf
    while not converged and iterations < max_iter:
        if filled:
            dr, dg = ring_r[:filled], ring_g[:filled]
            gram = dr @ dr.T
            gram += (solver.MIX_RIDGE * np.trace(gram) + np.finfo(float).tiny) * np.eye(filled)
            c = np.maximum(g - np.linalg.solve(gram, dr @ r) @ dg, 1.0)
        else:
            c = g
        new = apply(c)
        iterations += 1
        step = new - c
        if filled and np.max(np.abs(step)) > defect:
            filled = head = 0
            continue
        if r is not None:
            ring_r[head], ring_g[head] = step - r, new - g
            head, filled = (head + 1) % depth, min(filled + 1, depth)
        x, g, r, defect = c, new, step, float(np.max(np.abs(step)))
        mu = (terms / 2 + 2) * np.finfo(float).eps * (1.0 + g.max() + x.max())
        fall = max(-step.min(), 0.0)
        up, down = max(step.max(), 0.0) + mu, fall + mu
        bound = x.max() * (1 / (1 - up) - 1 / (1 + down)) if up < 1 else math.inf
        converged = up < 1 and (bound <= tol or tol > 0 and defect <= mu)
    h[finite] = np.maximum((g + fall) / (1 + down), 1.0)
    selection, residual = _reference_finish(view, h, finite, sense)
    return HittingResult(h, selection, cls, iterations, residual, converged, "value-iteration", bound)


class _ReferenceEvaluator(solver._Evaluator):
    """The solver's evaluator with the selection product through the full
    view: every choice of the finite states evaluated, the selected ones
    picked; the view is never pinned."""

    def pin(self, choice):
        self.pick = self.view.choice_offsets(self.finite)[:-1] + choice

    def product(self, x):
        padded = np.zeros(self.view.n)
        padded[self.finite] = x
        return x - self.view.values(padded)[self.view.choice_rows(self.finite)][self.pick]


def _same(a, b):
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.selection, b.selection)
    assert a.classification == b.classification
    assert (a.iterations, a.residual, a.converged) == (b.iterations, b.residual, b.converged)
    assert a.error_bound == b.error_bound


@pytest.mark.parametrize("n", [40, 300])
@pytest.mark.parametrize("sense", ["upper", "lower"])
def test_solvers_match_the_reference_bit_for_bit(n, sense, monkeypatch):
    rng = np.random.default_rng([n, len(sense)])
    model, target = trapped_credal_matrix(rng, n, 6, leak=sense == "lower")
    view = CredalChoices(model)
    targets = target_mask(model.size, [target])

    vi = value_iteration(model, [target], sense, 1e-9, 200)
    _same(vi, _reference_value(view, targets, sense, 1e-9, 200))
    assert np.isinf(vi.values).any()

    dense, dense_solve = [], solver._dense_solve
    monkeypatch.setattr(solver, "_dense_solve", lambda *args: dense.append(1) or dense_solve(*args))
    pi = policy_iteration(model, [target], sense)
    assert not dense  # GMRES solved every evaluation, on the selection product under test
    monkeypatch.setattr(solver, "_Evaluator", _ReferenceEvaluator)
    _same(pi, policy_iteration(model, [target], sense))


@st.composite
def value_problems(draw):
    """A base model on 2 to 8 states, a non-empty target set, a sense, a
    tolerance and a sweep budget. About a quarter of the states are traps,
    one vertex on themselves; every other state holds 1 to 3 vertices of
    small integer weights, some of them zero, and in lower sense at times one
    more vertex straight into a trap. The traps and the states that cannot
    avoid them are infinite and fall between finite ones, so the finite
    states' choices are often not a slice, and in lower sense finite states
    have choices into them; a target set of every state, or of states nothing
    reaches, leaves no finite state. The budgets of applications of ``F``
    cut value iteration before any, in its two plain first steps, at its
    first mixed candidate and before and after its ring of ``MIX_DEPTH``
    rows wraps, once and more."""
    sense = draw(st.sampled_from(["upper", "lower"]))
    n = draw(st.integers(2, 8))
    traps = np.flatnonzero([draw(st.booleans()) and draw(st.booleans()) for _ in range(n)])
    weight = st.lists(st.sampled_from([0, 1, 3]), min_size=n, max_size=n).filter(any)
    rows = []
    for i in range(n):
        if i in traps:
            rows.append([np.eye(n)[i]])
            continue
        drawn = draw(st.lists(weight, min_size=1, max_size=3))
        if sense == "lower" and traps.size and draw(st.booleans()):
            drawn.append(np.eye(n, dtype=int)[draw(st.sampled_from(traps.tolist()))].tolist())
        rows.append(list({tuple(x / sum(w) for x in w): None for w in drawn}))
    model = CredalMatrix.from_rows([f"s{i}" for i in range(n)], rows)
    targets = target_mask(n, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-3, math.inf]))
    depth = solver.MIX_DEPTH
    max_iter = draw(st.sampled_from(sorted({0, 1, 2, 3, 7, 15, depth + 1, depth + 2, depth + 3, 3 * depth + 2, 500})))
    return model, targets, sense, tol, max_iter


@settings(max_examples=300, deadline=None)
@given(value_problems())
def test_value_iteration_matches_the_reference_on_random_models(problem):
    model, targets, sense, tol, max_iter = problem
    got = value_iteration(model, np.flatnonzero(targets), sense, tol, max_iter)
    _same(got, _reference_value(CredalChoices(model), targets, sense, tol, max_iter))


def test_a_value_iteration_sweep_makes_one_finite_contraction(monkeypatch):
    """Each application of ``F`` contracts the values, with their inf entries
    zeroed, once, and no part of a solve calls the inf-aware kernel
    ``values``: the choices with mass on the inf states are found once, by a
    support test. In lower sense the third vertex of ``a`` leads to the trap
    ``c`` and is never chosen; the bound at ``a`` is 100, and no certified
    bracket has width zero, so neither budget converges at ``tol = 0``. A
    solve that converges makes one contraction per application and one for
    its residual too."""
    model = CredalMatrix.from_rows(
        ["a", "b", "c"],
        [[[0.99, 0.01, 0.0], [0.995, 0.005, 0.0], [0.5, 0.0, 0.5]], [[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]],
    )
    calls = {"kernel": 0, "contract": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(reach.ChoiceView, "values", counted("kernel", reach.ChoiceView.values))
    monkeypatch.setattr(reach, "contract", counted("contract", reach.contract))
    kernel = []
    for max_iter in (5, 500):
        calls.update(kernel=0, contract=0)
        res = value_iteration(model, [1], "lower", 0.0, max_iter)
        assert res.iterations == max_iter and not res.converged and np.isinf(res.values[2])
        assert calls["contract"] == max_iter + 1  # one per application, one for the residual
        kernel.append(calls["kernel"])
    assert kernel == [0, 0]
    calls.update(contract=0)
    res = value_iteration(model, [1], "lower", 1e-6, 10_000)
    assert res.converged and calls["contract"] == res.iterations + 1


@pytest.mark.parametrize("agents", [2, 3])
@pytest.mark.parametrize("mode", ["full", "quotient"])
@pytest.mark.parametrize("belief", ["degenerate", "vacuous", "mixture"])
def test_meet_matches_the_reference_selection_product(agents, mode, belief, monkeypatch):
    rng = np.random.default_rng([agents, len(mode), len(belief)])
    m = random_credal_matrix(rng, n=7 if agents == 2 else 5, max_vertices=3, dense_prob=0.5)
    rows = [list(m.vertices(i)) for i in range(m.size)]
    rows[0], rows[1] = [np.eye(m.size)[0]], [np.eye(m.size)[1]]  # walkers parked apart never meet
    model = CredalMatrix.from_rows(m.space.labels, rows)
    product = build_product_space(model.space, agents, mode)
    selection = {s: tuple(int(rng.integers(model.vertex_count(z))) for z in s)
                 for s in product.states}
    kw = dict(selection=selection, epsilon=0.3) if belief != "vacuous" else {}
    for sense in ("upper", "lower"):
        got = meet(model, agents, belief, sense, mode, **kw)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_Evaluator", _ReferenceEvaluator)
            want = meet(model, agents, belief, sense, mode, **kw)
        assert np.array_equal(got.values, want.values) and np.isinf(got.values).any()
        assert got.selections == want.selections and got.classification == want.classification
        assert got.iterations == want.iterations and got.residual == want.residual
        assert got.converged == want.converged


# ------------------------------------------------ rows of a selection product

def test_base_selection_product_contracts_the_selected_rows(monkeypatch):
    rng = np.random.default_rng(5)
    n = 300
    model = CredalMatrix.from_rows(
        [f"s{i}" for i in range(n)],
        [[random_distribution(rng, n) for _ in range(3)] for _ in range(n)],
    )
    k = n - 1  # every non-target state is finite
    contracted, in_gmres = [], [False]
    contract, gmres = reach.contract, solver._gmres

    def record(vertices, values, out=None):
        if in_gmres[0]:
            contracted.append(vertices.shape[0])
        return contract(vertices, values, out)

    def traced_gmres(*args, **kwargs):
        in_gmres[0] = True
        try:
            return gmres(*args, **kwargs)
        finally:
            in_gmres[0] = False

    monkeypatch.setattr(reach, "contract", record)
    monkeypatch.setattr(solver, "_gmres", traced_gmres)
    res = policy_iteration(model, [0], "upper")
    assert len(res.classification.finite) == k
    assert contracted and set(contracted) == {k}  # GMRES ran, on the k selected rows


def test_a_policy_iteration_pins_once_and_refills_the_pin(monkeypatch):
    """A 4-sweep solve at n=500 (three loose sweeps and an exact one) pins its
    first selection afresh, and the later sweeps refill that pin in place."""
    rng = np.random.default_rng(0)
    n = 500
    model = CredalMatrix.from_rows(
        [f"s{i}" for i in range(n)],
        [[0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n for _ in range(2)] for _ in range(n)],
    )
    pins = []
    restrict = reach.ChoiceView.restrict

    def recorded(self, states, choice, into=None):
        got = restrict(self, states, choice, into)
        pins.append(got is not into)
        return got

    monkeypatch.setattr(reach.ChoiceView, "restrict", recorded)
    res = policy_iteration(model, [0], "upper")
    assert res.iterations == 4 and len(res.classification.finite) == n - 1
    assert pins == [True, False, False, False]


# ------------------------------------------------------------ dense blocks

@pytest.mark.parametrize("seed", range(4))
def test_swapped_co_located_choices_give_identical_block_rows(seed):
    """With 3 agents in quotient mode, two choices of a state that only swap
    co-located agents' vertices have one key, so ``block`` builds their rows
    from one cell, bit for bit, as the table product and the support test
    read one entry."""
    m = random_credal_matrix(np.random.default_rng(seed), n=4, max_vertices=3, dense_prob=1.0)
    view = JointChoices(m, build_product_space(m.space, 3, "quotient"))
    everyone = np.arange(view.n)
    swaps = 0
    for i, joint in enumerate(view.product.states):
        tuples = view.choice_tuples(i)
        rows = []
        for c in range(len(tuples)):
            choice = np.zeros(view.n, dtype=np.int64)
            choice[i] = c
            rows.append(view.block(everyone, choice)[i])
        for a, b in itertools.combinations(range(len(tuples)), 2):
            if sorted(zip(joint, tuples[a])) == sorted(zip(joint, tuples[b])):
                swaps += 1
                assert rows[a].tobytes() == rows[b].tobytes(), (joint, tuples[a], tuples[b])
    assert swaps > 0


@pytest.mark.parametrize("mode", ["full", "quotient"])
@pytest.mark.parametrize("seed", [0, 12, 14, 24])  # 12, 14, 24: some pairs never meet
def test_a_whole_view_pin_solves_densely_as_the_pair_oracle(monkeypatch, mode, seed):
    """A degenerate meeting whose agents each pick a vertex by their own state
    alone is two independent walks on one selection's chain. Forced onto the
    dense fallback, its block is built on the whole-view pin and the values
    match :func:`chain.meeting_times` on that chain: the same inf pattern and
    finite values within 1e-14 relative."""
    rng = np.random.default_rng(seed)
    m = random_credal_matrix(rng, n=6, max_vertices=3)
    v = rng.integers(0, np.diff(m.offsets))
    product = build_product_space(m.space, 2, mode)
    selection = {s: tuple(int(v[z]) for z in s) for s in product.states}
    dense = []
    dense_solve = solver._dense_solve
    monkeypatch.setattr(solver, "_gmres",
                        lambda apply, work, give_up, slack: (np.zeros(work[0].shape[1]), 1.0, 0, False))
    monkeypatch.setattr(solver, "_dense_solve", lambda *args: dense.append(1) or dense_solve(*args))
    got = meet(m, 2, "degenerate", mode=mode, selection=selection).matrix()
    T = TransitionMatrix(m.space, selection_matrix(m, v))
    want = meeting_times(T, T)
    assert dense and np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=1e-14, atol=0.0)


# ------------------------------------------------------- memory of a solve

def test_a_target_between_finite_states_costs_no_row_copy():
    """The finite states' choices are read from the whole view's values, so a
    solve whose finite states are not consecutive copies no vertex rows for
    them: its peak stays at that of a solve with the target in front."""
    rng = np.random.default_rng(7)
    n = 500
    model = CredalMatrix.from_rows(
        [f"s{i}" for i in range(n)],
        [[rng.dirichlet(np.ones(n)) for _ in range(2)] for _ in range(n)],
    )
    peaks = []
    for target in (0, n // 2):
        tracemalloc.start()
        try:
            policy_iteration(model, [target], "upper")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20, peaks


def _dense_peak(view, targets, sense):
    """The finite states of ``sense`` on ``view``, and the ``tracemalloc``
    peak of a dense solve of the witness selection on them, with every cache
    it fills filled before tracing; the traced solve must repeat the first."""
    cls, witness = classify_view(view, targets, sense)
    finite = np.array(sorted(cls.finite))
    want = solver._dense_solve(view, finite, witness[finite])
    tracemalloc.start()
    try:
        got = solver._dense_solve(view, finite, witness[finite])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    return finite, peak


@pytest.mark.parametrize("agents, mode, n", [(2, "full", 24), (3, "quotient", 14)])
def test_a_dense_joint_evaluation_stays_within_its_byte_estimate(agents, mode, n):
    """The joint block is summed chunk by chunk from the pinned cells and
    ``I - P`` is formed in place, so a dense solve on a system with fewer
    unknowns than ordered tuples allocates no more than ``_dense_bytes``."""
    m = random_credal_matrix(np.random.default_rng(1), n=n, max_vertices=2, dense_prob=0.9)
    product = build_product_space(m.space, agents, mode)
    view = JointChoices(m, product)
    finite, peak = _dense_peak(view, product.target_mask(), "lower")
    assert n**agents > finite.size > 500
    assert peak <= solver._dense_bytes(view, finite), (peak, solver._dense_bytes(view, finite))


@pytest.mark.parametrize("agents, mode, n", [
    (1, None, 50), (1, None, 300), (2, "quotient", 6), (2, "quotient", 20), (2, "full", 15),
    (3, "quotient", 4), (3, "quotient", 8), (3, "quotient", 9), (3, "full", 4),
])
def test_a_small_dense_evaluation_stays_within_its_byte_estimate(agents, mode, n):
    """Below a few hundred unknowns the pinned vertex rows, the index maps over
    the ordered tuples and numpy's iterator buffers take a large share of a
    dense solve, up to several times the block; ``_dense_bytes`` counts them."""
    m = random_credal_matrix(np.random.default_rng(0), n=n, max_vertices=2, dense_prob=1.0)
    if agents == 1:
        view, targets = CredalChoices(m), target_mask(n, [0])
    else:
        view = JointChoices(m, build_product_space(m.space, agents, mode))
        targets = view.product.target_mask()
    finite, peak = _dense_peak(view, targets, "upper")
    assert finite.size == view.n - targets.sum()
    assert peak <= solver._dense_bytes(view, finite), (peak, solver._dense_bytes(view, finite))
