import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import (
    Capacity,
    DomainError,
    FiniteSpace,
    MeasurableFn,
    SpaceMismatchError,
    distinct_values,
    level_set,
    measurable,
    random_capacity,
    residual,
    strict_support,
    survival,
)

SPACE4 = FiniteSpace(4)
STEPS = MeasurableFn(SPACE4, [0.25, 0.5, 0.75, 1.0])

unit_vec4 = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)


# ---------------------------------------------------------------------------
# construction


def test_rejects_out_of_range_and_wrong_length():
    with pytest.raises(DomainError):
        MeasurableFn(SPACE4, [0.0, 0.5, 1.1, 0.2])
    with pytest.raises(DomainError):
        MeasurableFn(SPACE4, [0.0, 0.5])
    with pytest.raises(DomainError):
        MeasurableFn(SPACE4, [0.0, 0.5, -0.1, 0.2])


def test_constant_and_indicator_helpers():
    c = MeasurableFn.constant(SPACE4, 0.3)
    assert np.all(c.values == 0.3)
    ind = MeasurableFn.indicator(SPACE4, 0b1010)
    assert ind.values.tolist() == [0.0, 1.0, 0.0, 1.0]
    with pytest.raises(DomainError):
        MeasurableFn.indicator(SPACE4, 1 << 4)


def test_values_read_only():
    with pytest.raises(ValueError):
        STEPS.values[0] = 0.9


@pytest.mark.parametrize(
    "special", [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, math.nextafter(1.0, 2.0), -5e-324, 5e-324]
)
def test_range_check_matches_the_array_test(special):
    for position in (0, 2, 3):
        values = np.array([0.25, 0.5, 0.75, 1.0])
        values[position] = special
        in_range = not np.any(~((values >= 0.0) & (values <= 1.0)))  # the numpy test the Python loop replaced
        if in_range:
            assert MeasurableFn(SPACE4, values).values.tobytes() == values.tobytes()
        else:
            with pytest.raises(DomainError) as err:
                MeasurableFn(SPACE4, values)
            assert str(err.value) == "function values must lie in [0,1]"


# ---------------------------------------------------------------------------
# level sets


def test_level_set_golden():
    assert level_set(STEPS, 0.5) == 0b1110  # {1,2,3}


def test_level_set_at_zero_is_everything():
    assert level_set(STEPS, 0.0) == SPACE4.full_mask
    assert level_set(MeasurableFn.constant(SPACE4, 0.0), 0.0) == SPACE4.full_mask


def test_level_set_exact_ge_semantics():
    # nudging the threshold just past a stored value must drop that point
    assert level_set(STEPS, 0.75) == 0b1100
    assert level_set(STEPS, 0.75 + 1e-12) == 0b1000  # {3}


def test_level_set_rejects_bad_threshold():
    with pytest.raises(DomainError):
        level_set(STEPS, -0.1)
    with pytest.raises(DomainError):
        level_set(STEPS, 1.5)


@given(unit_vec4)
def test_level_sets_nested(values):
    f = MeasurableFn(SPACE4, values)
    grid = np.linspace(0.0, 1.0, 101)
    masks = [level_set(f, float(t)) for t in grid]
    for small, large in zip(masks, masks[1:]):
        assert small | large == small  # larger t, smaller set


# ---------------------------------------------------------------------------
# strict support


def test_strict_support_golden():
    assert strict_support(MeasurableFn.constant(SPACE4, 0.0)) == 0
    assert strict_support(MeasurableFn(FiniteSpace(3), [0.0, 0.001, 0.0])) == 0b010
    assert strict_support(MeasurableFn(FiniteSpace(3), [5e-324, 0.0, 0.0])) == 0b001  # subnormal
    assert strict_support(MeasurableFn.constant(SPACE4, 0.2)) == SPACE4.full_mask


@given(unit_vec4)
def test_strict_support_is_smallest_positive_level_set(values):
    f = MeasurableFn(SPACE4, values)
    positive = [v for v in f.values.tolist() if v > 0.0]
    if positive:
        assert strict_support(f) == level_set(f, min(positive))
    else:
        assert strict_support(f) == 0


def test_level_masks_match_the_whole_cube():
    n, grid = 5, np.logspace(-2.0, 0.0, 37)
    rng = np.random.default_rng(5)
    residuals = rng.random((23, n))
    residuals[::7] = 0.0
    residuals[1] = grid[:n]  # ties at the thresholds
    residuals[2, 0] = 5e-324
    powers = np.int64(1) << np.arange(n, dtype=np.int64)
    row, t = residuals[1], np.linspace(0.0, 1.0, 1001)
    cube = (residuals[:, None, :] >= grid[None, :, None]).astype(np.int64) @ powers
    profile = (row[None, :] >= t[:, None]).astype(np.int64) @ powers
    pairs = ((measurable._level_masks(residuals, grid), cube), (measurable._level_masks(row, t), profile))
    for got, whole in pairs:
        assert got.dtype == np.int64 and got.shape == whole.shape
        assert got.tobytes() == whole.tobytes()


def comparison_cube(values, thresholds) -> np.ndarray:
    """The masks as the whole rows x thresholds x points comparison gives them: the reference."""
    rows = np.atleast_2d(values)
    powers = np.int64(1) << np.arange(rows.shape[1], dtype=np.int64)
    cube = (rows[:, None, :] >= np.asarray(thresholds, dtype=np.float64)[None, :, None]).astype(np.int64) @ powers
    return cube if np.ndim(values) == 2 else cube[0]


# the edges of the rank form: both zeros, the smallest positive double, one ulp below 1, and 1
EDGE_VALUES = (0.0, -0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0)
edge_or_unit = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1.0))


@given(
    n=st.integers(1, 24),
    rows=st.integers(1, 40),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_level_masks_match_the_comparison_cube(n, rows, data):
    values = np.array(data.draw(st.lists(edge_or_unit, min_size=rows * n, max_size=rows * n))).reshape(rows, n)
    # unsorted thresholds with duplicates, some of them equal to values
    pool = st.one_of(edge_or_unit, st.sampled_from(values.ravel().tolist()))
    thresholds = np.array(data.draw(st.lists(pool, min_size=1, max_size=60)))
    for v in (values, values[0]):
        got, want = measurable._level_masks(v, thresholds), comparison_cube(v, thresholds)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_level_masks_reach_the_full_24_point_mask_exactly():
    values = np.ones((3, 24))
    thresholds = np.array([1.0, 0.0, 5e-324, math.nextafter(1.0, 0.0), 0.5, -0.0, math.nextafter(1.0, 2.0)])
    got = measurable._level_masks(values, thresholds)
    assert got.tolist() == [[2**24 - 1] * 6 + [0]] * 3
    assert got.tobytes() == comparison_cube(values, thresholds).tobytes()
    # every point drops out at its own threshold: the bins hold single powers up to 2**23
    ramp = np.ldexp(1.0, np.arange(-24, 0))
    assert measurable._level_masks(ramp, ramp).tolist() == [2**24 - 2**j for j in range(24)]


def test_level_masks_peak_memory_is_bounded_by_the_output_and_one_block():
    rng = np.random.default_rng(11)
    values, thresholds = rng.random((4000, 16)), rng.random(128)
    tracemalloc.start()
    try:
        masks = measurable._level_masks(values, thresholds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert masks.nbytes == 4000 * 128 * 8  # 3.9 MiB of the peak is the result itself
    assert peak < 10 * 2**20  # the comparison cube, cast to int64 a block at a time, peaked at 13.4 MiB


# ---------------------------------------------------------------------------
# residuals


def test_residual_golden():
    space = FiniteSpace(2)
    r = residual(MeasurableFn(space, [0.8, 0.2]), MeasurableFn(space, [0.5, 0.5]))
    assert r.values.tolist() == pytest.approx([0.3, 0.3], abs=1e-15)
    assert np.all(residual(STEPS, STEPS).values == 0.0)
    zero = MeasurableFn.constant(SPACE4, 0.0)
    assert np.array_equal(residual(STEPS, zero).values, STEPS.values)


def test_residual_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        residual(STEPS, MeasurableFn.constant(FiniteSpace(3), 0.5))


@given(unit_vec4, unit_vec4)
def test_residual_stays_in_unit_interval(a, b):
    r = residual(MeasurableFn(SPACE4, a), MeasurableFn(SPACE4, b))
    assert np.all((r.values >= 0.0) & (r.values <= 1.0))
    # the residual adopts its fresh array instead of copying and rechecking it: it must stay frozen
    # and equal to what the checked constructor builds from the same difference
    assert not r.values.flags.writeable
    assert r.values.tobytes() == MeasurableFn(SPACE4, np.abs(np.asarray(a) - np.asarray(b))).values.tobytes()


# ---------------------------------------------------------------------------
# survival


def test_survival_at_zero_is_one():
    c = Capacity.from_additive(SPACE4, [0.25] * 4)
    assert survival(c, STEPS, 0.0) == 1.0


def test_survival_uniform_additive_golden():
    c = Capacity.from_additive(SPACE4, [0.25] * 4)
    # level set of 0.6 is {2,3}; cardinality oracle gives 2/4
    assert level_set(STEPS, 0.6) == 0b1100
    assert survival(c, STEPS, 0.6) == 0.5


def test_survival_possibility_weight_max_oracle():
    space = FiniteSpace(2)
    weights = [1.0, 0.3]
    c = Capacity.from_possibility(space, weights)
    f = MeasurableFn(space, [0.0, 1.0])
    assert level_set(f, 0.5) == 0b10  # only point 1 reaches 0.5
    expected = max(weights[i] for i in (1,))  # max of the weights over {1}
    assert expected == 0.3
    assert survival(c, f, 0.5) == expected


def test_survival_space_mismatch():
    c = Capacity.from_additive(FiniteSpace(3), [1 / 3] * 3)
    with pytest.raises(SpaceMismatchError):
        survival(c, STEPS, 0.5)


@given(st.integers(min_value=0, max_value=2**31), unit_vec4)
@settings(max_examples=30)
def test_survival_non_increasing(seed, values):
    c = random_capacity(SPACE4, np.random.default_rng(seed))
    f = MeasurableFn(SPACE4, values)
    grid = np.linspace(0.0, 1.0, 1001)
    vals = [survival(c, f, float(t)) for t in grid]
    assert all(x >= y for x, y in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# distinct values


def test_distinct_values_golden():
    assert distinct_values(MeasurableFn.constant(FiniteSpace(3), 0.5)) == [0.5]
    f = MeasurableFn(SPACE4, [0.25, 1.0, 0.25, 0.5])
    assert distinct_values(f) == [0.25, 0.5, 1.0]
    assert distinct_values(MeasurableFn.constant(FiniteSpace(2), 0.0)) == [0.0]


@given(unit_vec4)
def test_distinct_values_sorted_dedup(values):
    out = distinct_values(MeasurableFn(SPACE4, values))
    assert out == sorted(set(values))
