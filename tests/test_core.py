import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalmeet import (
    CredalMatrix,
    CredalRow,
    ModelValidationError,
    StateSpace,
    apply_lower,
    apply_upper,
    ext_dot,
    ext_matvec,
    greedy_selection,
    selection_matrix,
    validate,
)

from generators import random_credal_matrix, random_selection


def raw_model(rows):
    n = len(rows)
    return CredalMatrix(
        StateSpace(tuple(f"s{i}" for i in range(n))),
        tuple(CredalRow(np.asarray(r, dtype=float)) for r in rows),
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
    m = CredalMatrix(
        StateSpace(("s0", "s1")),
        (CredalRow(np.zeros((0, 2))), CredalRow(np.array([[0.5, 0.25, 0.25]]))),
    )
    problems = validate(m)
    assert any("no vertices" in p for p in problems)
    assert any("expected 2" in p for p in problems)


def test_validate_flags_duplicate_vertices_after_normalization():
    m = raw_model([[[0.5, 0.5], [1.0, 1.0]], [[0, 1]]])
    problems = validate(m)
    assert any("coincide" in p for p in problems)


def test_from_rows_renormalizes_small_roundoff():
    m = CredalMatrix.from_rows(["a", "b"], [[[0.5, 0.5 + 1e-10]], [[0, 1]]])
    assert m.vertices(0).sum() == 1.0


def test_from_rows_rejects_large_roundoff():
    with pytest.raises(ModelValidationError) as err:
        CredalMatrix.from_rows(["a", "b"], [[[0.5, 0.6]], [[0, 1]]])
    assert any("sum" in v for v in err.value.violations)


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
