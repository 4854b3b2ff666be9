import itertools
import math
import re

import numpy as np
import pytest

from credalmeet import (
    CredalMatrix,
    StateSpace,
    TransitionMatrix,
    build_product_space,
    exhaustive_meeting_times,
    hitting_times,
    joint_transition_weight,
    meet,
    meeting_times,
    quotient_consistency_check,
)
from credalmeet.meeting import JointChoices

from generators import random_credal_matrix, random_transition_matrix


def hold_or_mix():
    return CredalMatrix.from_rows(
        ["a", "b"], [[[0.5, 0.5], [1, 0]], [[0.5, 0.5], [0, 1]]]
    )


# -------------------------------------------------------------- product space

def test_product_space_sizes():
    sp = StateSpace(("a", "b"))
    assert build_product_space(sp, 2, "full").size == 4
    assert build_product_space(sp, 2, "quotient").size == 3
    sp5 = StateSpace(tuple("abcde"))
    assert build_product_space(sp5, 3, "quotient").size == math.comb(7, 3) == 35
    assert build_product_space(sp5, 3, "full").size == 125


def test_product_space_diagonal_and_index():
    sp = StateSpace(("a", "b", "c"))
    full = build_product_space(sp, 2, "full")
    assert {full.states[i] for i in full.diagonal} == {(0, 0), (1, 1), (2, 2)}
    quot = build_product_space(sp, 2, "quotient")
    assert quot.index_of((2, 1)) == quot.index_of((1, 2))
    assert quot.label(quot.index_of((0, 2))) == "(a,c)"
    with pytest.raises(KeyError):
        full.index_of((0, 9))


def test_product_space_guards():
    sp = StateSpace(("a", "b"))
    with pytest.raises(ValueError):
        build_product_space(sp, 1, "full")
    with pytest.raises(ValueError):
        build_product_space(sp, 21, "full")  # 2**21 joint states
    with pytest.raises(ValueError):
        build_product_space(sp, 2, "sideways")


# -------------------------------------------------------------- joint weights

def test_joint_weight_is_product_of_factor_rows():
    rng = np.random.default_rng(51)
    m = random_credal_matrix(rng, n=3, max_vertices=2)
    prod = build_product_space(m.space, 2, "full")
    for (x, y) in [(0, 1), (2, 0)]:
        for cx in range(m.vertex_count(x)):
            for cy in range(m.vertex_count(y)):
                for (a, b) in itertools.product(range(3), repeat=2):
                    w = joint_transition_weight(m, prod, (x, y), (cx, cy), (a, b))
                    assert w == pytest.approx(
                        m.vertices(x)[cx][a] * m.vertices(y)[cy][b], abs=0
                    )


def test_joint_weight_quotient_cohabitation():
    m = CredalMatrix.from_rows(["a", "b"], [[[0.5, 0.5]], [[0.5, 0.5]]])
    prod = build_product_space(m.space, 2, "quotient")
    assert joint_transition_weight(m, prod, (0, 0), (0, 0), (0, 1)) == pytest.approx(0.5)
    assert joint_transition_weight(m, prod, (0, 0), (0, 0), (0, 0)) == pytest.approx(0.25)


@pytest.mark.parametrize("mode", ["full", "quotient"])
def test_joint_weight_refuses_states_and_choices_out_of_range(mode):
    m = CredalMatrix.from_rows(["a", "b", "c"], [[[1 / 3] * 3]] * 3)
    prod = build_product_space(m.space, 2, mode)
    for origin, destination, bad in [((0, 5), (0, 0), "(0, 5)"), ((0, 0), (0, 7), "(0, 7)"),
                                     ((-1, 0), (0, 0), "(-1, 0)")]:
        with pytest.raises(ValueError, match=rf"joint state {re.escape(bad)} is out of range"):
            joint_transition_weight(m, prod, origin, (0, 0), destination)
    for choice in [(0, 3), (0, -1), (0, 0.0)]:
        with pytest.raises(ValueError, match=rf"choice entry 1 \({choice[1]!r}\) is not a vertex index"):
            joint_transition_weight(m, prod, (0, 1), choice, (0, 1))
    assert joint_transition_weight(m, prod, (0, 1), (0, 0), (0, 1)) > 0


def joint_row(m, prod, view, i, c):
    """Choice ``c`` of joint state ``i`` over every product state, from
    :func:`joint_transition_weight` rather than from the view."""
    tup = view.choice_tuples(i)[c]
    return np.array([joint_transition_weight(m, prod, prod.states[i], tup, dest)
                     for dest in prod.states])


def test_joint_weights_sum_to_one():
    rng = np.random.default_rng(53)
    m = random_credal_matrix(rng, n=3, max_vertices=3)
    for mode in ("full", "quotient"):
        prod = build_product_space(m.space, 2, mode)
        view = JointChoices(m, prod)
        everyone = np.arange(prod.size)
        for c in range(max(map(view.nchoices, everyone))):
            choice = np.array([c % view.nchoices(i) for i in everyone])
            block = view.block(everyone, choice)
            assert np.allclose(block.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
            for i in everyone:
                want = joint_row(m, prod, view, i, choice[i])
                assert want.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.allclose(block[i], want, rtol=1e-13, atol=0.0)


def test_joint_values_match_rows_with_infinities():
    rng = np.random.default_rng(57)
    m = random_credal_matrix(rng, n=3, max_vertices=3, dense_prob=0.3)
    for mode in ("full", "quotient"):
        prod = build_product_space(m.space, 2, mode)
        view = JointChoices(m, prod)
        f = rng.uniform(0, 5, prod.size)
        f[rng.random(prod.size) < 0.3] = math.inf
        for i in range(prod.size):
            vals = view.values(i, f)
            for c in range(view.nchoices(i)):
                row = joint_row(m, prod, view, i, c)
                inf_mask = np.isinf(f)
                expect = (
                    math.inf
                    if (row[inf_mask] > 0).any()
                    else float(row @ np.where(inf_mask, 0.0, f))
                )
                assert vals[c] == pytest.approx(expect, abs=1e-12) or (
                    math.isinf(vals[c]) and math.isinf(expect)
                )


def test_classification_does_not_depend_on_underflow():
    # each of a and b reaches m with 1e-200; the agents meet from (a, b) only
    # by jumping together, with mass 1e-400, which underflows to zero in a
    # dense joint row but is a path in the support graph
    tiny = 1e-200
    rows = [[[0, 0, tiny, 1 - tiny, 0]], [[0, 0, tiny, 0, 1 - tiny]]]
    rows += [[np.eye(5)[i]] for i in (2, 3, 4)]
    m = CredalMatrix.from_rows(["a", "b", "m", "z", "w"], rows)
    for sense in ("upper", "lower"):
        res = meet(m, 2, "vacuous", sense, "quotient")
        ab = res.product.index_of((0, 1))
        assert ab in res.classification.unsafe, sense
        assert math.isinf(res.values[ab])


# ----------------------------------------------------------------------- meet

def test_degenerate_meet_matches_independent_product():
    rng = np.random.default_rng(59)
    t = random_transition_matrix(rng, 3)
    m = CredalMatrix.precise(t.space.labels, t.entries)
    res = meet(m, 2, "degenerate", mode="full")
    want = meeting_times(t, t)
    got = res.matrix()
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.allclose(got[finite], want[finite], atol=1e-10)


def test_vacuous_meet_reduces_to_degenerate_for_singleton_rows():
    rng = np.random.default_rng(61)
    t = random_transition_matrix(rng, 3)
    m = CredalMatrix.precise(t.space.labels, t.entries)
    for mode in ("full", "quotient"):
        deg = meet(m, 2, "degenerate", mode=mode)
        for sense in ("upper", "lower"):
            vac = meet(m, 2, "vacuous", sense, mode)
            assert np.allclose(vac.values, deg.values, atol=1e-10, equal_nan=False)


def test_hold_or_mix_bounds():
    m = hold_or_mix()
    up = meet(m, 2, "vacuous", "upper", "full")
    lo = meet(m, 2, "vacuous", "lower", "full")
    assert math.isinf(up.matrix()[0, 1])
    oracle = exhaustive_meeting_times(m, "lower")
    assert lo.matrix()[0, 1] == pytest.approx(oracle[0, 1], abs=1e-10)
    assert lo.matrix()[0, 1] == pytest.approx(2.0, abs=1e-10)
    # diagonal is always zero
    assert up.matrix()[0, 0] == 0.0 and lo.matrix()[1, 1] == 0.0


def test_meet_brute_force_equivalence_small():
    rng = np.random.default_rng(67)
    for _ in range(10):
        m = random_credal_matrix(rng, n=2, max_vertices=3, dense_prob=0.5)
        for sense in ("upper", "lower"):
            oracle = exhaustive_meeting_times(m, sense)
            got = meet(m, 2, "vacuous", sense, "full").matrix()
            assert np.array_equal(np.isinf(got), np.isinf(oracle))
            finite = np.isfinite(oracle)
            assert np.allclose(got[finite], oracle[finite], atol=1e-8)


def test_full_mode_values_are_permutation_invariant():
    rng = np.random.default_rng(71)
    m = random_credal_matrix(rng, n=3, max_vertices=2, dense_prob=0.4)
    for sense in ("upper", "lower"):
        res = meet(m, 2, "vacuous", sense, "full")
        mat = res.matrix()
        finite = np.isfinite(mat)
        assert (finite == finite.T).all()
        assert np.allclose(mat[finite], mat.T[finite], atol=1e-9)


def test_degenerate_envelope():
    rng = np.random.default_rng(73)
    m = random_credal_matrix(rng, n=3, max_vertices=2, dense_prob=0.5)
    up = meet(m, 2, "vacuous", "upper", "full").values
    lo = meet(m, 2, "vacuous", "lower", "full").values
    prod = build_product_space(m.space, 2, "full")
    view = JointChoices(m, prod)
    for _ in range(10):
        sel = {
            prod.states[i]: tuple(
                int(rng.integers(0, m.vertex_count(s))) for s in prod.states[i]
            )
            for i in range(prod.size)
        }
        deg = meet(m, 2, "degenerate", mode="full", selection=sel).values
        assert ((lo <= deg + 1e-9) | np.isinf(lo) & np.isinf(deg)).all()
        assert ((deg <= up + 1e-9) | np.isinf(up)).all()


def test_quotient_consistency_random_models():
    rng = np.random.default_rng(79)
    for _ in range(8):
        m = random_credal_matrix(rng, n=int(rng.integers(2, 4)), max_vertices=2, dense_prob=0.4)
        for sense in ("upper", "lower"):
            rep = quotient_consistency_check(m, 2, "vacuous", sense)
            assert rep.infinity_matches, rep.mismatched
            assert rep.max_discrepancy <= 1e-8
    m3 = random_credal_matrix(rng, n=3, max_vertices=2, dense_prob=0.5)
    rep = quotient_consistency_check(m3, 3, "vacuous", "upper")
    assert rep.infinity_matches and rep.max_discrepancy <= 1e-8
    assert rep.quotient_states == math.comb(3 + 3 - 1, 3)


def test_quotient_consistency_degenerate_selection():
    m = hold_or_mix()
    sel = {(0, 1): (1, 0), (0, 0): (0, 1), (1, 1): (1, 0)}
    rep = quotient_consistency_check(m, 2, "degenerate", selection=sel)
    assert rep.infinity_matches and rep.max_discrepancy <= 1e-12


def test_mixture_endpoints_and_affinity():
    m = hold_or_mix()
    sel = {(0, 1): (0, 0), (1, 0): (0, 0)}
    deg = meet(m, 2, "degenerate", mode="full", selection=sel)
    for sense in ("upper", "lower"):
        vac = meet(m, 2, "vacuous", sense, "full")
        at0 = meet(m, 2, "mixture", sense, "full", selection=sel, epsilon=0.0)
        at1 = meet(m, 2, "mixture", sense, "full", selection=sel, epsilon=1.0)
        assert np.array_equal(at0.values, deg.values)
        assert np.array_equal(at1.values, vac.values)
        for eps in (0.25, 0.5, 0.75):
            mid = meet(m, 2, "mixture", sense, "full", selection=sel, epsilon=eps)
            both = np.isfinite(deg.values) & np.isfinite(vac.values)
            want = (1 - eps) * deg.values[both] + eps * vac.values[both]
            assert np.max(np.abs(mid.values[both] - want)) <= 1e-12
            # any positively weighted infinite component forces infinity
            either = np.isinf(deg.values) | np.isinf(vac.values)
            assert np.isinf(mid.values[either]).all()


def test_mixture_requires_epsilon():
    m = hold_or_mix()
    with pytest.raises(ValueError):
        meet(m, 2, "mixture", "upper", "full", epsilon=None)
    with pytest.raises(ValueError):
        meet(m, 2, "mixture", "upper", "full", epsilon=1.5)
    with pytest.raises(ValueError):
        meet(m, 2, "nonsense")


@pytest.mark.parametrize("epsilon", [True, "0.5", np.bool_(True), math.nan])
def test_mixture_refuses_an_epsilon_that_is_not_a_real_number_in_range(epsilon):
    with pytest.raises(ValueError, match=r"^a mixture belief needs a real epsilon in \[0, 1\], got"):
        meet(hold_or_mix(), 2, "mixture", "upper", "full", epsilon=epsilon)


def test_mixture_accepts_a_numpy_epsilon():
    m = hold_or_mix()
    at = meet(m, 2, "mixture", "upper", "full", epsilon=np.float32(0.5))
    np.testing.assert_array_equal(at.values, meet(m, 2, "mixture", "upper", "full", epsilon=0.5).values)


@pytest.mark.parametrize("index", [-1, 6, 1.0, True, "0"])
def test_product_label_refuses_an_index_outside_the_space(index):
    quot = build_product_space(StateSpace(("a", "b", "c")), 2, "quotient")
    with pytest.raises(ValueError, match=r"^product state index .* is not an integer in \[0, 6\)"):
        quot.label(index)
    assert quot.label(np.int64(5)) == quot.labels[5]


def test_degenerate_selection_validation():
    m = hold_or_mix()
    with pytest.raises(ValueError):
        meet(m, 2, "degenerate", mode="full", selection={(0, 1): (0, 7)})
    with pytest.raises(KeyError):
        meet(m, 2, "degenerate", mode="full", selection={(0, 9): (0, 0)})


@pytest.mark.parametrize("entry", [1.9, 1.0, True, "1", None])
def test_selection_entries_must_be_integers(entry):
    """A vertex index that is not an integer is refused, naming the joint
    state and the entry, not truncated; numpy integers are integers."""
    m = hold_or_mix()
    with pytest.raises(ValueError, match=r"joint state \(a,b\): entry 0 is not an integer"):
        meet(m, 2, "degenerate", mode="full", selection={(0, 1): (entry, 0)})
    want = meet(m, 2, "degenerate", mode="full", selection={(0, 1): (1, 0)}).values
    got = meet(m, 2, "degenerate", mode="full", selection={(0, 1): (np.int64(1), 0)}).values
    assert np.array_equal(got, want)


def three_state():
    return CredalMatrix.from_rows(
        ["a", "b", "c"],
        [[[0.6, 0.4, 0], [0, 0.3, 0.7]], [[0.2, 0.3, 0.5], [0.5, 0.5, 0]], [[0, 0, 1], [0.1, 0.1, 0.8]]],
    )


@pytest.mark.parametrize("belief", ["degenerate", "mixture"])
def test_quotient_mode_refuses_an_unsorted_selection_key(belief):
    """A quotient key is the sorted state and the indices align with it, so
    (1, 0) is refused rather than read as (0, 1) with its indices in the given
    order; full mode takes it, and the sorted key is the symmetric full walk."""
    m, eps = three_state(), 0.5 if belief == "mixture" else None
    for sel in ({(1, 0): (0, 1)}, {(0, 1): (1, 0), (1, 0): (0, 1)}):
        with pytest.raises(ValueError, match=r"selection key \(1, 0\) of state \(a,b\) is not sorted"):
            meet(m, 2, belief, "upper", selection=sel, epsilon=eps)
    quot = meet(m, 2, belief, "upper", selection={(0, 1): (1, 0)}, epsilon=eps)
    full = meet(m, 2, belief, "upper", "full", selection={(0, 1): (1, 0), (1, 0): (0, 1)}, epsilon=eps)
    assert full.value_at((1, 0)) == pytest.approx(quot.value_at((0, 1)), rel=1e-12)
    assert full.value_at((0, 1)) == pytest.approx(quot.value_at((0, 1)), rel=1e-12)
    with pytest.raises(ValueError, match=r"key \(0, 2, 1\) of state \(a,b,c\) is not sorted"):
        meet(m, 3, belief, "upper", selection={(0, 2, 1): (0, 0, 1)}, epsilon=eps)
    with pytest.raises(ValueError, match="is not sorted"):
        quotient_consistency_check(m, 2, belief, selection={(1, 0): (0, 1)}, epsilon=eps)
    with pytest.raises(KeyError, match="not in the product space"):
        meet(m, 2, belief, "upper", selection={(1, 0.7): (0, 1)}, epsilon=eps)


def test_joint_indices_that_are_not_integers_are_refused():
    """Joint states and agent counts are not truncated: (0, 1.7) is no state
    (0, 1) and 2.5 agents are not two. Each is refused with the error of an
    out-of-range one; numpy integers are integers."""
    m = hold_or_mix()
    with pytest.raises(KeyError, match="not in the product space"):
        meet(m, 2, "degenerate", selection={(0, 1.7): (1, 0)})
    res = meet(m, 2, "vacuous")
    for joint in [(0, 1.2), (0, True), (0.0, 1)]:
        with pytest.raises(KeyError, match="not in the product space"):
            res.value_at(joint)
    assert res.value_at((np.int64(0), np.int8(1))) == res.value_at((0, 1))
    with pytest.raises(ValueError, match="integer base states"):
        joint_transition_weight(m, res.product, (0, 1.5), (0, 0), (0, 1))
    for agents in (2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="agent count must be an integer"):
            meet(m, agents=agents)
    assert np.array_equal(meet(m, agents=np.int64(2)).values, res.values)


def test_exhaustive_oracle_guard():
    rng = np.random.default_rng(83)
    m = random_credal_matrix(rng, n=4, max_vertices=4, dense_prob=1.0)
    with pytest.raises(ValueError):
        exhaustive_meeting_times(m, "upper", max_assignments=10)


def test_exhaustive_oracle_builds_its_own_joint_rows(monkeypatch):
    rng = np.random.default_rng(84)
    m = random_credal_matrix(rng, n=3, max_vertices=2, dense_prob=0.5)
    want = {sense: meet(m, 2, "vacuous", sense, "full").matrix() for sense in ("upper", "lower")}

    def refuse(self, states):
        raise AssertionError("the oracle read joint rows from the view it checks")

    monkeypatch.setattr(JointChoices, "block", refuse)
    for sense, matrix in want.items():
        oracle = exhaustive_meeting_times(m, sense)
        assert np.array_equal(np.isinf(oracle), np.isinf(matrix))
        finite = np.isfinite(matrix)
        assert np.allclose(oracle[finite], matrix[finite], rtol=1e-10, atol=0.0)


def test_three_agents_quotient_meet_runs():
    rng = np.random.default_rng(89)
    m = random_credal_matrix(rng, n=3, max_vertices=2, dense_prob=0.8)
    res = meet(m, 3, "vacuous", "upper", "quotient")
    assert res.converged
    assert res.values[res.product.index_of((0, 0, 0))] == 0.0
    # independent check against the hitting times of the assembled joint
    # chain under the returned selection
    prod = res.product
    entries = np.zeros((prod.size, prod.size))
    for i, origin in enumerate(prod.states):
        if i in prod.diagonal:
            entries[i, i] = 1.0
        else:
            entries[i] = [joint_transition_weight(m, prod, origin, res.selections[i], dest)
                          for dest in prod.states]
    space = StateSpace(tuple(f"p{i}" for i in range(prod.size)))
    h = hitting_times(TransitionMatrix(space, entries), sorted(prod.diagonal))
    finite = np.isfinite(res.values)
    assert np.allclose(h[finite], res.values[finite], atol=1e-9)


def test_two_agent_quotient_meet_at_n200_completes():
    # 20100 joint states: a dense policy evaluation would need about 6.3 GB
    m = random_credal_matrix(np.random.default_rng(0), n=200, max_vertices=3, dense_prob=0.9)
    res = meet(m, 2, "vacuous", "upper", "quotient")
    assert res.product.size == 20100 and res.converged
    off = np.array([i not in res.product.diagonal for i in range(res.product.size)])
    assert np.isfinite(res.values).all() and (res.values[off] >= 1.0).all()
    assert res.residual <= 1e-9 * res.values.max()
