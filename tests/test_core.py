import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalmeet import (
    CredalMatrix,
    ModelValidationError,
    StateSpace,
    TransitionMatrix,
    apply_lower,
    apply_upper,
    classify,
    ext_dot,
    ext_matvec,
    greedy_selection,
    hitting_times,
    lower_reach_set,
    policy_iteration,
    selection_matrix,
    simulate_hitting,
    upper_reach_set,
    validate,
    value_iteration,
)

from credalmeet.core import target_mask

from generators import random_credal_matrix, random_selection


def raw_model(rows):
    n = len(rows)
    return CredalMatrix(
        StateSpace(tuple(f"s{i}" for i in range(n))),
        np.concatenate([np.asarray(r, dtype=float) for r in rows]),
        np.cumsum([0, *map(len, rows)]),
    )


# ---------------------------------------------------------------- validation

def test_validate_accepts_degenerate_rows():
    m = raw_model([[[1, 0]], [[0, 1]]])
    assert validate(m) == []


def test_validate_flags_bad_row_sum_once():
    m = raw_model([[[0.5, 0.6]], [[0, 1]]])
    problems = validate(m)
    assert len(problems) == 1
    assert "sum" in problems[0] and "s0" in problems[0]


def test_validate_flags_negative_and_excess_entries():
    m = raw_model([[[-0.1, 1.1]], [[0, 1]]])
    problems = validate(m)
    assert len(problems) == 2
    assert any("negative" in p for p in problems)
    assert any("exceeds 1" in p for p in problems)


def test_validate_flags_empty_row_and_bad_width():
    with pytest.raises(ModelValidationError) as err:
        CredalMatrix.from_rows(("s0", "s1"), [[], [[0.5, 0.25, 0.25]]])
    problems = err.value.violations
    assert any("no vertices" in p for p in problems)
    assert any("expected 2" in p for p in problems)


def test_validate_flags_duplicate_vertices_after_normalization():
    m = raw_model([[[0.5, 0.5], [1.0, 1.0]], [[0, 1]]])
    problems = validate(m)
    assert any("coincide" in p for p in problems)


def test_from_rows_renormalizes_small_roundoff():
    m = CredalMatrix.from_rows(["a", "b"], [[[0.5, 0.5 + 1e-10]], [[0, 1]]])
    assert m.vertices(0).sum() == 1.0
    # an entry above 1 by roundoff belongs to a row inside the tolerance
    m = CredalMatrix.from_rows(["a", "b"], [[[1 + 1e-11, 0]], [[0, 1]]])
    assert m.vertices(0).tolist() == [[1.0, 0.0]]


def test_from_rows_rejects_large_roundoff():
    with pytest.raises(ModelValidationError) as err:
        CredalMatrix.from_rows(["a", "b"], [[[0.5, 0.6]], [[0, 1]]])
    assert any("sum" in v for v in err.value.violations)


def test_validate_messages_print_plain_floats():
    assert validate(raw_model([[[1.5, -0.5]], [[0, 1]]])) == [
        "row 's0' vertex 0: entry 0 exceeds 1 (1.5)",
        "row 's0' vertex 0: entry 1 is negative (-0.5)",
    ]


def test_non_finite_entries_are_violations_not_warnings():
    with pytest.raises(ModelValidationError) as err:
        CredalMatrix.from_rows(["a", "b"], [[[math.inf, 0]], [[0, 1]]])
    assert err.value.violations == [
        "row 'a' vertex 0: entry 0 exceeds 1 (inf)",
        "row 'a' vertex 0: entries sum to inf, not 1",
    ]
    # overflowing sums and inf - inf are reported without a RuntimeWarning
    assert validate(raw_model([[[1e308, 1e308]], [[math.inf, -math.inf]]])) == [
        "row 's0' vertex 0: entry 0 exceeds 1 (1e+308)",
        "row 's0' vertex 0: entry 1 exceeds 1 (1e+308)",
        "row 's0' vertex 0: entries sum to inf, not 1",
        "row 's1' vertex 0: entry 0 exceeds 1 (inf)",
        "row 's1' vertex 0: entry 1 is negative (-inf)",
    ]


def test_from_rows_reports_every_row_in_state_order():
    rows = [[[0.5, 0.5, 0.0], [1.0, 1.0, 0.0]], [[1, 0], [0, 0, 1]], [], [[0, 0, 1]]]
    with pytest.raises(ModelValidationError) as err:
        CredalMatrix.from_rows(["a", "b", "c"], rows)
    assert err.value.violations == [
        "model has 4 rows for 3 states",
        "row 'a' vertex 1: entries sum to 2.0, not 1",
        "row 'a': vertices 0 and 1 coincide",
        "row 'b': vertices have 2 entries, expected 3",
        "row 'c': no vertices",
    ]


def test_from_rows_reports_vertices_that_are_not_vectors():
    with pytest.raises(ModelValidationError) as err:
        CredalMatrix.from_rows(["a", "b"], [[[[0.5], [0.5]]], [[[0, 1]]]])
    assert err.value.violations == [
        "row 'a' vertex 0: has shape (2, 1), expected (2,)",
        "row 'b' vertex 0: has shape (1, 2), expected (2,)",
    ]
    with pytest.raises(ModelValidationError) as err:
        CredalMatrix.from_rows(["a", "b"], [[[0.5, 0.5], 0.5, [1, 0, 0]], [[0, 1]]])
    assert err.value.violations == [
        "row 'a': vertices have 3 entries, expected 2",
        "row 'a' vertex 1: has shape (), expected (2,)",
    ]


def test_stack_of_the_wrong_width_is_reported_per_row():
    m = CredalMatrix(StateSpace(("a", "b", "c")), np.eye(2), np.array([0, 1, 1, 2]))
    assert validate(m) == [
        "row 'a': vertices have 2 entries, expected 3",
        "row 'b': no vertices",
        "row 'c': vertices have 2 entries, expected 3",
    ]


@pytest.mark.parametrize("offsets", [[0, 1, 3], [0, 2, 1], [0, 1], [1, 2, 2], []])
def test_inconsistent_offsets_are_a_violation(offsets):
    m = CredalMatrix(StateSpace(("a", "b")), np.eye(2), np.array(offsets, dtype=np.int64))
    assert validate(m) == [
        f"offsets {offsets} must start at 0, never decrease and end at 2, "
        "the number of stacked vertices"
    ]


def test_state_space_requires_two_unique_labels():
    with pytest.raises(ValueError):
        StateSpace(("only",))
    with pytest.raises(ValueError):
        StateSpace(("a", "a"))
    with pytest.raises(KeyError):
        StateSpace(("a", "b")).index("c")


def test_state_space_rejects_labels_with_commas():
    # joint labels and the CLI's label lists are comma-separated
    with pytest.raises(ValueError, match="','"):
        StateSpace(("a,b", "c", "a", "b,c"))


# ----------------------------------------------------------------- operators

def test_apply_upper_constant_preservation():
    m = random_credal_matrix(np.random.default_rng(5))
    c = 3.75
    out = apply_upper(m, np.full(m.size, c))
    assert np.allclose(out, c, rtol=1e-14)


def test_apply_upper_singleton_is_matrix_product():
    t = np.array([[0.5, 0.5], [0.0, 1.0]])
    m = CredalMatrix.precise(["a", "b"], t)
    f = np.array([0.0, 1.0])
    assert np.allclose(apply_upper(m, f), t @ f)
    assert np.allclose(apply_lower(m, f), t @ f)


def test_apply_upper_enumerates_vertices():
    m = CredalMatrix.from_rows(["a", "b"], [[[1, 0], [0, 1]], [[0, 1]]])
    f = np.array([0.0, 1.0])
    # oracle: scan each row's vertices directly
    want_upper = [max(v @ f for v in m.vertices(i)) for i in range(2)]
    want_lower = [min(v @ f for v in m.vertices(i)) for i in range(2)]
    assert np.array_equal(apply_upper(m, f), want_upper) and want_upper == [1, 1]
    assert np.array_equal(apply_lower(m, f), want_lower) and want_lower == [0, 1]


def test_zero_times_infinity_convention():
    m = CredalMatrix.from_rows(["a", "b"], [[[1, 0]], [[0.5, 0.5]]])
    f = np.array([0.0, math.inf])
    out = apply_upper(m, f)
    assert out[0] == 0.0
    assert math.isinf(out[1])


def test_value_vector_errors():
    m = CredalMatrix.precise(["a", "b"], np.eye(2))
    with pytest.raises(ValueError):
        apply_upper(m, [1.0])
    with pytest.raises(ValueError):
        apply_upper(m, [-1.0, 0.0])
    with pytest.raises(ValueError):
        apply_lower(m, [math.nan, 0.0])


def test_greedy_selection_examples():
    singleton = CredalMatrix.precise(["a", "b"], np.eye(2))
    assert np.array_equal(greedy_selection(singleton, [1.0, 2.0], "upper"), [0, 0])

    m = CredalMatrix.from_rows(["a", "b"], [[[0.5, 0.5], [0.9, 0.1]], [[0, 1]]])
    assert greedy_selection(m, [10.0, 0.0], "upper")[0] == 1

    tied = CredalMatrix.from_rows(["a", "b"], [[[1, 0], [0, 1]], [[0, 1]]])
    assert greedy_selection(tied, [5.0, 5.0], "upper")[0] == 0


def test_greedy_selection_rejects_bad_sense():
    m = CredalMatrix.precise(["a", "b"], np.eye(2))
    with pytest.raises(ValueError):
        greedy_selection(m, [0.0, 0.0], "max")


def test_selection_matrix_bounds():
    m = CredalMatrix.precise(["a", "b"], np.eye(2))
    with pytest.raises(ValueError):
        selection_matrix(m, [0, 5])


# ------------------------------------------------------------ integer indices

def _two_pickers():
    return CredalMatrix.from_rows(["a", "b"], [[[0.5, 0.5], [0.9, 0.1]], [[0, 1]]])


@pytest.mark.parametrize("target", [1.6, 1.0, True, np.float64(1.0), "1"])
@pytest.mark.parametrize("entry", [
    lambda m, t: policy_iteration(m, t, "upper"),
    lambda m, t: value_iteration(m, t, "upper"),
    lambda m, t: classify(m, t, "lower"),
    upper_reach_set,
    lower_reach_set,
    lambda m, t: hitting_times(TransitionMatrix(m.space, m.stack[[0, 2]]), t),
    lambda m, t: simulate_hitting(TransitionMatrix(m.space, m.stack[[0, 2]]), t, 0, trials=1),
], ids=["policy_iteration", "value_iteration", "classify", "upper_reach_set", "lower_reach_set",
        "hitting_times", "simulate_hitting"])
def test_a_target_that_is_not_an_integer_is_refused(entry, target):
    """A target index is not truncated (1.6 is no state 1) nor taken from a
    bool; the refusal is the ValueError of an out-of-range target."""
    with pytest.raises(ValueError, match=r"target index .* is not an integer"):
        entry(_two_pickers(), [target])


def test_numpy_integer_targets_are_accepted():
    m = _two_pickers()
    want = policy_iteration(m, [1], "upper").values
    for targets in ([np.int64(1)], np.array([1]), np.array([1], dtype=np.uint8)):
        assert np.array_equal(policy_iteration(m, targets, "upper").values, want)


@pytest.mark.parametrize("selection", [[1.9, 0.2], [1.0, 0], [True, 0], np.array([1.0, 0.0]),
                                       np.array([True, False]), ["1", 0]])
def test_selection_matrix_refuses_entries_that_are_not_integers(selection):
    with pytest.raises(ValueError, match="is not an integer"):
        selection_matrix(_two_pickers(), selection)


def test_selection_matrix_accepts_numpy_integers():
    m = _two_pickers()
    want = m.stack[[1, 2]]
    for selection in ([1, 0], [np.int64(1), np.int32(0)], np.array([1, 0], dtype=np.uint16),
                      np.array([1, 0], dtype=object)):
        assert np.array_equal(selection_matrix(m, selection), want)


@pytest.mark.parametrize("call, message", [
    (lambda m: target_mask(2, [5]), "target index 5 out of range for 2 states"),
    (lambda m: selection_matrix(m, [0]), "selection has shape (1,), expected (2,)"),
    (lambda m: selection_matrix(m, [[0, 0]]), "selection has shape (1, 2), expected (2,)"),
], ids=["target-out-of-range", "selection-too-short", "selection-of-two-axes"])
def test_an_index_outside_the_model_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(_two_pickers())


@pytest.mark.parametrize("start", [0.0, 0.7, True, "0"])
def test_simulation_start_that_is_not_an_integer_is_refused(start):
    t = TransitionMatrix(StateSpace(("a", "b")), [[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="start index .* is not an integer"):
        simulate_hitting(t, [1], start, trials=5)
    want = simulate_hitting(t, [1], 0, trials=5)
    assert simulate_hitting(t, [1], np.int64(0), trials=5) == want


@pytest.mark.parametrize("kwargs, name", [
    (dict(trials=2.5), "trials"), (dict(trials=True), "trials"), (dict(trials=5.0), "trials"),
    (dict(trials=5, horizon=2.5), "horizon"), (dict(trials=5, horizon=False), "horizon"),
    (dict(trials=5, seed=1.5), "seed"), (dict(trials=5, seed=True), "seed"),
])
def test_simulation_counts_that_are_not_integers_are_refused(kwargs, name):
    t = TransitionMatrix(StateSpace(("a", "b")), [[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match=f"^{name} .* is not an integer$"):
        simulate_hitting(t, [1], 0, **kwargs)


def test_simulation_seed_must_be_non_negative_and_counts_may_be_numpy_integers():
    t = TransitionMatrix(StateSpace(("a", "b")), [[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="seed must be non-negative"):
        simulate_hitting(t, [1], 0, trials=5, seed=-1)
    want = simulate_hitting(t, [1], 0, trials=5, horizon=9, seed=3)
    got = simulate_hitting(t, [1], 0, trials=np.int64(5), horizon=np.int32(9), seed=np.uint8(3))
    assert got == want


# ------------------------------------------------------------------ ext_matvec

@pytest.mark.parametrize("matrix, values, message", [
    ([[0.5, 0.5], [0, 1]], [-math.inf, 1], "value vector entries must be non-negative"),
    ([[0.5, 0.5]], [-1.0, 1.0], "value vector entries must be non-negative"),
    ([[1, -1]], [math.inf, math.inf], "matrix entries must be non-negative"),
    ([[1, 0]], [math.nan, 1.0], "value vector contains NaN"),
    ([[math.nan, 1]], [1.0, 1.0], "matrix entries must be finite"),
    ([[math.inf, 0.5]], [0.0, 1.0], "matrix entries must be finite"),
    ([[0.5, 0.5], [0, 1]], [[1, 2], [3, 4]], r"value vector has shape \(2, 2\), expected \(2,\)"),
    ([0.5, 0.5], [1.0, 2.0], r"matrix has shape \(2,\), expected two axes"),
    ([[0.5, 0.5]], [1.0, 2.0, 3.0], r"value vector has shape \(3,\), expected \(2,\)"),
], ids=["minus-inf-value", "negative-value", "negative-entry", "nan-value", "nan-entry",
        "inf-entry", "2d-values", "1d-matrix", "wrong-length"])
def test_ext_matvec_refuses_malformed_input(matrix, values, message):
    with pytest.raises(ValueError, match=message):
        ext_matvec(matrix, values)


def test_ext_matvec_matches_ext_dot_row_by_row_with_inf_values():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rows, cols = rng.integers(1, 6, size=2)
        matrix = rng.uniform(0, 1, (rows, cols)) * (rng.uniform(size=(rows, cols)) < 0.6)
        values = rng.uniform(0, 10, cols)
        values[rng.uniform(size=cols) < 0.3] = math.inf
        got = ext_matvec(matrix, values)
        want = [ext_dot(row, values) for row in matrix]
        assert np.allclose(got, want, rtol=1e-12, atol=0) and np.array_equal(np.isinf(got), np.isinf(want))
    assert ext_matvec([[0.5, 0.5], [0, 1]], [math.inf, 1]).tolist() == [math.inf, 1.0]


def test_ext_matvec_overflows_to_inf_without_a_warning_like_ext_dot():
    matrix, values = [[2.0, 2.0], [0.25, 0.25]], [1e308, 1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ext_matvec(matrix, values)
    assert got.tolist() == [ext_dot(row, values) for row in matrix] == [math.inf, 5e307]


# --------------------------------------------------------------- properties

def _weights(n):
    return (
        st.lists(st.integers(0, 5), min_size=n, max_size=n)
        .map(tuple)
        .filter(lambda t: sum(t) > 0)
    )


@st.composite
def credal_models(draw):
    n = draw(st.integers(2, 4))
    rows = []
    for _ in range(n):
        verts = draw(
            st.lists(
                _weights(n),
                min_size=1,
                max_size=3,
                unique_by=lambda t: tuple(x / sum(t) for x in t),
            )
        )
        rows.append([[x / sum(t) for x in t] for t in verts])
    return CredalMatrix.from_rows([f"s{i}" for i in range(n)], rows)


def _value_vectors(n):
    entry = st.one_of(
        st.integers(0, 8).map(float),
        st.floats(0, 10, allow_nan=False),
        st.just(math.inf),
    )
    return st.lists(entry, min_size=n, max_size=n).map(np.array)


@st.composite
def model_and_values(draw, pairs=1):
    m = draw(credal_models())
    fs = [draw(_value_vectors(m.size)) for _ in range(pairs)]
    return (m, *fs)


@settings(max_examples=120, deadline=None)
@given(model_and_values(pairs=2))
def test_monotonicity(data):
    m, f, g = data
    low = np.minimum(f, g)
    high = np.maximum(f, g)
    assert (apply_upper(m, low) <= apply_upper(m, high)).all()
    assert (apply_lower(m, low) <= apply_lower(m, high)).all()


@settings(max_examples=120, deadline=None)
@given(model_and_values(), st.randoms(use_true_random=False))
def test_dominance_of_any_selection(data, pyrandom):
    m, f = data
    sel = [pyrandom.randrange(m.vertex_count(i)) for i in range(m.size)]
    mid = ext_matvec(selection_matrix(m, sel), f)
    lo, hi = apply_lower(m, f), apply_upper(m, f)
    assert ((lo <= mid) | np.isinf(mid)).all()
    assert ((mid <= hi) | np.isinf(hi)).all()


@settings(max_examples=80, deadline=None)
@given(credal_models(), st.floats(1e-3, 100.0, allow_nan=False))
def test_positive_homogeneity(m, lam):
    f = np.linspace(0.0, 2.0, m.size)
    a = apply_upper(m, lam * f)
    b = lam * apply_upper(m, f)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)
    assert np.array_equal(apply_upper(m, np.zeros(m.size)), np.zeros(m.size))


@settings(max_examples=120, deadline=None)
@given(model_and_values())
def test_greedy_consistency_bit_for_bit(data):
    m, f = data
    for sense, applied in (("upper", apply_upper), ("lower", apply_lower)):
        sel = greedy_selection(m, f, sense)
        reproduced = ext_matvec(selection_matrix(m, sel), f)
        assert np.array_equal(reproduced, applied(m, f))


def test_dominance_on_seeded_models():
    rng = np.random.default_rng(77)
    for _ in range(25):
        m = random_credal_matrix(rng)
        f = rng.uniform(0, 5, m.size)
        sel = random_selection(rng, m)
        mid = ext_matvec(selection_matrix(m, sel), f)
        assert (apply_lower(m, f) <= mid + 1e-12).all()
        assert (mid <= apply_upper(m, f) + 1e-12).all()


def test_ext_dot_left_to_right_determinism():
    w = np.array([0.3, 0.0, 0.7])
    f = np.array([1.0, math.inf, 2.0])
    assert ext_dot(w, f) == 0.3 * 1.0 + 0.7 * 2.0
    assert ext_dot(np.array([0.3, 0.1, 0.6]), f) == math.inf
