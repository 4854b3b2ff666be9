"""What a joint policy-iteration solve reads rather than computes again: the
greedy passes read the table that the last evaluation's product wrote, a
meeting result builds its selection tuples on first read, and a
classification keeps its finite states as a sorted array."""

import math

import numpy as np
import pytest

from credalmeet import CredalMatrix, build_product_space, meet, meeting, solver
from credalmeet.core import target_mask
from credalmeet.meeting import JointChoices
from credalmeet.reach import Classification, CredalChoices, classify_view

from generators import random_credal_matrix
from test_restrict import _ReferenceEvaluator


def _view(model, agents, mode="quotient"):
    view = JointChoices(model, build_product_space(model.space, agents, mode))
    return view, view.product.target_mask()


def _trapped(n=6):
    """A dense model on ``n`` states whose state 0 never leaves itself and is
    entered only by the first vertex of state 1: some states stay finite in
    both senses, and in the lower sense some finite state's choice has mass
    on an inf state."""
    model = random_credal_matrix(np.random.default_rng(7), n=n, max_vertices=2, dense_prob=1.0)
    keep = lambda v, lo: v * (np.arange(n) >= lo) / v[lo:].sum()
    rows = [[np.eye(n)[0]], [model.vertices(1)[0], keep(model.vertices(1)[1], 1)]]
    rows += [[keep(v, 2) for v in model.vertices(i)] for i in range(2, n)]
    return CredalMatrix.from_rows(model.space.labels, rows)


def _count_contractions(monkeypatch):
    """Counters of ``meeting.contract_chain`` calls: in all, and per greedy
    pass (``solver._Bellman.greedy`` call), the calls it made."""
    counts = {"chain": 0, "passes": []}
    chain, greedy = meeting.contract_chain, solver._Bellman.greedy

    def counted_chain(*args):
        counts["chain"] += 1
        return chain(*args)

    def counted_greedy(*args):
        before = counts["chain"]
        out = greedy(*args)
        counts["passes"].append(counts["chain"] - before)
        return out

    monkeypatch.setattr(meeting, "contract_chain", counted_chain)
    monkeypatch.setattr(solver._Bellman, "greedy", counted_greedy)
    return counts


@pytest.mark.parametrize("agents, mode, n", [(2, "quotient", 7), (2, "full", 6), (3, "quotient", 5), (3, "full", 4)])
@pytest.mark.parametrize("sense", ["upper", "lower"])
@pytest.mark.parametrize("trap", [False, True])
def test_greedy_passes_of_a_joint_solve_make_no_contraction(agents, mode, n, sense, trap, monkeypatch):
    # every greedy pass reads the table the evaluation before it left, so it
    # makes no contraction; with an evaluator whose product is its own, each
    # pass contracts once, and the solve makes exactly one contraction more
    # per pass, with the same answer bit for bit
    model = _trapped(n) if trap else random_credal_matrix(np.random.default_rng(n), n=n, max_vertices=3,
                                                          dense_prob=0.9)
    view, targets = _view(model, agents, mode)
    counts = _count_contractions(monkeypatch)
    got = solver.solve_view_policy(view, targets, sense, 1e-10, 1000)
    made, passes = counts["chain"], list(counts["passes"])
    assert got.converged and got.classification.finite and passes
    assert passes == [0] * len(passes)
    counts["chain"], counts["passes"] = 0, []
    monkeypatch.setattr(solver, "_Evaluator", _ReferenceEvaluator)
    want = solver.solve_view_policy(view, targets, sense, 1e-10, 1000)
    assert counts["passes"] == [1] * len(passes)
    assert counts["chain"] == made + len(passes)
    assert np.array_equal(got.values, want.values) and np.array_equal(got.selection, want.selection)
    assert (got.iterations, got.residual) == (want.iterations, want.residual)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("agents, mode", [(2, "quotient"), (2, "full"), (3, "quotient")])
@pytest.mark.parametrize("sense", ["upper", "lower"])
@pytest.mark.parametrize("path", ["gmres", "lu"])
def test_the_table_read_is_a_fresh_contraction_bit_for_bit(agents, mode, sense, path, monkeypatch):
    # after an exact evaluation, by GMRES or by LU, the table holds the
    # contraction of the padded solution: reading it gives what contracting
    # the values again gives, inf positions of the lower sense included
    if path == "lu":  # a GMRES answer that misses its bound, so the dense solve runs
        monkeypatch.setattr(solver, "_gmres", lambda apply, work, *args: (np.zeros(work[0].shape[1]), math.inf, 0,
                                                                           False))
    view, targets = _view(_trapped(), agents, mode)
    cls, witness = classify_view(view, targets, sense)
    op = solver._Bellman(view, cls)
    finite, region = op.finite, op.region
    assert op._table is not None and region is not view
    assert op.hopeless.size > 0 if sense == "lower" else op.hopeless.size == 0
    evaluator = solver._Evaluator(region, finite)
    assert not evaluator.tabled
    run = evaluator.evaluate(witness[finite])
    assert run.path == path and not run.loose and evaluator.tabled
    f = np.zeros(view.n)
    f[finite] = run.sol
    counts = _count_contractions(monkeypatch)
    read = op.greedy(f, evaluator.tabled)
    assert counts["passes"] == [0]  # the pass read the table
    got = op.vals.copy()
    assert np.array_equal(_bits(got), _bits(op.evaluate(f)))
    assert np.isinf(got).any() == (sense == "lower")
    fresh = op.greedy(f)
    assert counts["passes"] == [0, 1]
    assert np.array_equal(read[0], fresh[0]) and read[1] == fresh[1]


def test_a_base_region_has_no_table_to_read():
    # a base view keeps no table, so its greedy passes contract as before,
    # whatever the evaluator says of its last product
    model = random_credal_matrix(np.random.default_rng(3), n=8, max_vertices=3, dense_prob=0.9)
    view = CredalChoices(model)
    cls, _ = classify_view(view, target_mask(8, [7]), "upper")
    op = solver._Bellman(view, cls)
    assert op._table is None
    f, g = np.zeros(view.n), np.zeros(view.n)
    f[op.finite], g[op.finite] = 1.0, np.arange(1.0, op.finite.size + 1.0)
    want = op.greedy(g)
    op.greedy(f)
    got = op.greedy(g, tabled=True)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def _reference_tuples(view, flat):
    """Every state's vertex tuple of its flat choice, None on the diagonal,
    from the view's per-state enumeration."""
    diagonal = view.product.diagonal
    return tuple(None if i in diagonal else view.choice_tuples(i)[c] for i, c in enumerate(flat.tolist()))


@pytest.mark.parametrize("agents, mode", [(2, "quotient"), (2, "full"), (3, "quotient"), (3, "full"), (4, "quotient"),
                                          (4, "full")])
@pytest.mark.parametrize("belief", ["vacuous", "degenerate", "mixture"])
@pytest.mark.parametrize("sense", ["upper", "lower"])
def test_selections_are_built_on_first_read(agents, mode, belief, sense):
    rng = np.random.default_rng([agents, len(mode), len(belief)])
    model = random_credal_matrix(rng, n=4 if agents < 4 else 3, max_vertices=3, dense_prob=0.6)
    view, targets = _view(model, agents, mode)
    selection = {s: tuple(int(rng.integers(model.vertex_count(z))) for z in s) for s in view.product.states}
    kw = {"vacuous": {}, "degenerate": {"selection": selection}, "mixture": {"selection": selection, "epsilon": 0.5}}
    res = meet(model, agents, belief, sense, mode, **kw[belief])
    assert "selections" not in res.__dict__ and "selections=" not in repr(res)
    if belief == "degenerate":
        flat = np.array([view.flat_choice(i, s) for i, s in enumerate(selection.values())])
    else:  # the vacuous component's optimizers
        flat = solver.solve_view_policy(view, targets, sense, 1e-10, 1000).selection
    got = res.selections
    assert got == _reference_tuples(view, flat)
    assert type(got) is tuple and len(got) == view.n
    for i, tup in enumerate(got):
        assert (tup is None) == (i in view.product.diagonal)
        assert tup is None or (type(tup) is tuple and all(type(c) is int for c in tup))
    assert res.selections is got
    assert res.choices.shape == (view.n, agents) and res.choices.dtype == np.int64


@pytest.mark.parametrize("agents", [1, 2])
@pytest.mark.parametrize("sense", ["upper", "lower"])
def test_a_classification_keeps_its_finite_states_as_an_array(agents, sense):
    model = _trapped()
    if agents == 1:
        view, targets = CredalChoices(model), target_mask(model.size, [model.size - 1])
    else:
        view, targets = _view(model, agents)
    cls, _ = classify_view(view, targets, sense)
    assert cls.finite and cls._finite_states.dtype == np.int64
    assert cls._finite_states.tolist() == sorted(cls.finite)
    rebuilt = Classification(cls.sense, cls.target, cls.absorbing, cls.unsafe, cls.finite)
    assert rebuilt == cls and hash(rebuilt) == hash(cls) and repr(rebuilt) == repr(cls)
    assert rebuilt._finite_states.tolist() == sorted(cls.finite) and "_finite_states" not in repr(cls)
