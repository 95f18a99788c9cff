import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import (
    BUILTINS,
    LUKASIEWICZ,
    MIN,
    PROD_MAX,
    PRODUCT,
    Capacity,
    DomainError,
    FiniteSpace,
    MeasurableFn,
    Semicopula,
    SpaceMismatchError,
    integrate,
    integrate_grid_oracle,
    random_capacity,
    shilkret,
    sugeno,
    survival,
)
from semint.integral import _grid_profile

SPACE4 = FiniteSpace(4)
UNIFORM4 = Capacity.from_additive(SPACE4, [0.25] * 4)
STEPS = MeasurableFn(SPACE4, [0.25, 0.5, 0.75, 1.0])

ORACLE_POINTS = 100_001
ORACLE_GAP = 5e-4  # builtins have first-argument slope at most 2

unit = st.floats(min_value=0.0, max_value=1.0)


def rng_capacity(seed: int, n: int) -> Capacity:
    return random_capacity(FiniteSpace(n), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# worked example, grid oracle first


@pytest.mark.parametrize(
    "s,expected,argmax",
    [
        (MIN, 0.5, 0.5),
        (PRODUCT, 0.375, 0.5),
        (LUKASIEWICZ, 0.25, 0.25),
        (PROD_MAX, 0.28125, 0.5),
    ],
)
def test_step_function_goldens_confirmed_by_oracle(s, expected, argmax):
    lower = integrate_grid_oracle(s, UNIFORM4, STEPS, ORACLE_POINTS)
    result = integrate(s, UNIFORM4, STEPS)
    assert 0.0 <= result.value - lower <= ORACLE_GAP
    assert result.value == expected
    assert result.argmax_threshold == argmax
    assert result.candidates_inspected == 4


def test_min_candidate_values_spelled_out():
    # the four candidate thresholds and their survival values, by hand
    pairs = [(0.25, 1.0), (0.5, 0.75), (0.75, 0.5), (1.0, 0.25)]
    for t, mu in pairs:
        assert survival(UNIFORM4, STEPS, t) == mu
    assert max(min(t, mu) for t, mu in pairs) == 0.5
    assert max(t * mu for t, mu in pairs) == 0.375


def test_result_value_reproducible_from_argmax():
    for s in BUILTINS:
        r = integrate(s, UNIFORM4, STEPS)
        assert r.value == s.evaluate(r.argmax_threshold, survival(UNIFORM4, STEPS, r.argmax_threshold))


def test_argmax_tie_breaks_to_smallest_threshold():
    # every candidate of the truncated-sum aggregation attains 0.25 here
    r = integrate(LUKASIEWICZ, UNIFORM4, STEPS)
    assert r.argmax_threshold == 0.25


# ---------------------------------------------------------------------------
# exact identities


@given(unit, st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40)
def test_constant_function_integrates_to_itself(a, seed):
    c = rng_capacity(seed, 5)
    f = MeasurableFn.constant(c.space, a)
    for s in BUILTINS:
        assert integrate(s, c, f).value == a


def test_indicator_identity_exhaustive_small():
    for n in (1, 2, 3, 4, 5, 6):
        c = rng_capacity(n, n)
        for mask in range(1 << n):
            f = MeasurableFn.indicator(c.space, mask)
            mu = c.measure(mask)
            for s in BUILTINS:
                assert integrate(s, c, f).value == mu, (n, mask, s.kind)


def test_indicator_identity_matches_grid_oracle():
    c = rng_capacity(99, 4)
    for mask in (0b0011, 0b1010, 0b1111):
        f = MeasurableFn.indicator(c.space, mask)
        assert integrate_grid_oracle(MIN, c, f, ORACLE_POINTS) == pytest.approx(
            c.measure(mask), abs=1e-12
        )


def test_zero_function_integrates_to_zero():
    f = MeasurableFn.constant(SPACE4, 0.0)
    for s in BUILTINS:
        r = integrate(s, UNIFORM4, f)
        assert r.value == 0.0
        assert r.candidates_inspected == 1
    assert integrate_grid_oracle(MIN, UNIFORM4, f, 1001) == 0.0


# ---------------------------------------------------------------------------
# oracle bound and sandwich


@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=2, max_value=8),
    st.data(),
)
@settings(max_examples=25, deadline=None)
def test_exact_dominates_grid_oracle_within_gap(seed, n, data):
    c = rng_capacity(seed, n)
    values = data.draw(st.lists(unit, min_size=n, max_size=n))
    f = MeasurableFn(c.space, values)
    for s in BUILTINS:
        exact = integrate(s, c, f).value
        lower = integrate_grid_oracle(s, c, f, ORACLE_POINTS)
        assert 0.0 <= exact - lower <= ORACLE_GAP, s.kind


def test_oracle_golden_near_half():
    assert integrate_grid_oracle(MIN, UNIFORM4, STEPS, ORACLE_POINTS) == pytest.approx(
        0.5, abs=1e-5
    )


def test_oracle_requires_two_points():
    with pytest.raises(DomainError):
        integrate_grid_oracle(MIN, UNIFORM4, STEPS, 1)


def test_grid_profile_reports_the_first_attaining_threshold():
    # profile over t = 0, 1/4, ..., 1 is 0, 1/4, 1/2, 1/2, 1/4
    assert _grid_profile(MIN, UNIFORM4, STEPS, 5) == (0.5, 0.5)


def test_oracle_peak_memory_is_bounded_at_two_million_points():
    c = rng_capacity(1, 16)
    f = MeasurableFn(c.space, np.random.default_rng(2).random(16))
    for s in BUILTINS + (Semicopula.from_function(lambda a, b: a * b, 10),):
        tracemalloc.start()
        try:
            integrate_grid_oracle(s, c, f, 2_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, s.kind  # the whole grid x point comparison would take 244 MiB as int64


# ---------------------------------------------------------------------------
# monotonicity and dominance


@given(st.integers(min_value=0, max_value=2**31), st.data())
@settings(max_examples=30)
def test_monotone_in_function(seed, data):
    c = rng_capacity(seed, 4)
    lo = data.draw(st.lists(unit, min_size=4, max_size=4))
    bump = data.draw(st.lists(st.floats(0.0, 0.5), min_size=4, max_size=4))
    f = MeasurableFn(c.space, lo)
    g = MeasurableFn(c.space, np.minimum(np.asarray(lo) + bump, 1.0))
    for s in BUILTINS:
        assert integrate(s, c, f).value <= integrate(s, c, g).value


@given(st.integers(min_value=0, max_value=2**31), st.data())
@settings(max_examples=30)
def test_monotone_in_capacity(seed, data):
    rng = np.random.default_rng(seed)
    c1 = random_capacity(SPACE4, rng)
    c2 = random_capacity(SPACE4, rng)
    bigger = Capacity(SPACE4, np.maximum(c1.table, c2.table))
    values = data.draw(st.lists(unit, min_size=4, max_size=4))
    f = MeasurableFn(SPACE4, values)
    for s in BUILTINS:
        assert integrate(s, c1, f).value <= integrate(s, bigger, f).value


@given(st.integers(min_value=0, max_value=2**31), st.data())
@settings(max_examples=30)
def test_min_aggregation_dominates_all(seed, data):
    c = rng_capacity(seed, 4)
    values = data.draw(st.lists(unit, min_size=4, max_size=4))
    f = MeasurableFn(c.space, values)
    top = integrate(MIN, c, f).value
    for s in BUILTINS:
        assert integrate(s, c, f).value <= top
    table = Semicopula.from_function(lambda a, b: a * b, 6)
    assert integrate(table, c, f).value <= top + 1e-12


# ---------------------------------------------------------------------------
# wrappers and plumbing


def test_sugeno_shilkret_delegate_exactly():
    for c, f in [(UNIFORM4, STEPS), (rng_capacity(5, 3), MeasurableFn(FiniteSpace(3), [0.1, 0.9, 0.4]))]:
        a, b = sugeno(c, f), integrate(MIN, c, f)
        assert (a.value, a.argmax_threshold, a.candidates_inspected) == (
            b.value,
            b.argmax_threshold,
            b.candidates_inspected,
        )
        a, b = shilkret(c, f), integrate(PRODUCT, c, f)
        assert (a.value, a.argmax_threshold, a.candidates_inspected) == (
            b.value,
            b.argmax_threshold,
            b.candidates_inspected,
        )


def test_space_mismatch():
    f3 = MeasurableFn.constant(FiniteSpace(3), 0.5)
    with pytest.raises(SpaceMismatchError):
        integrate(MIN, UNIFORM4, f3)


def test_result_json_shape():
    doc = integrate(MIN, UNIFORM4, STEPS).to_json_dict()
    assert doc == {"value": 0.5, "argmax_t": 0.5, "method": "exact", "candidates_inspected": 4}


@given(st.lists(unit, min_size=4, max_size=4), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30)
def test_value_stays_in_unit_interval(values, seed):
    c = rng_capacity(seed, 4)
    f = MeasurableFn(SPACE4, values)
    for s in BUILTINS:
        assert 0.0 <= integrate(s, c, f).value <= 1.0


# ---------------------------------------------------------------------------
# the one-pass chain against the candidate scan it replaced


def ref_integrate(s, c, f):
    """The scan integrate used before the one-pass chain: every candidate's mask rebuilt from all points."""
    table = c.table
    values = f.values.tolist()
    n = len(values)
    candidates = sorted(set(values))
    best = -1.0
    best_t = 0.0
    for v in candidates:
        mask = 0
        for i in range(n):
            if values[i] >= v:
                mask |= 1 << i
        val = s.evaluate(v, float(table[mask]))
        if val > best:
            best = val
            best_t = v
    return float(best), float(best_t), len(candidates)


SPECIALS = (0.0, -0.0, 1.0, 5e-324)
CHAIN_KINDS = BUILTINS + (Semicopula.from_function(lambda a, b: a * b * (2.0 - max(a, b)), 7),)


def chain_rows(n: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of n values: all distinct, drawn from a few values (ties), or mixed with the specials."""
    out = rng.random((rows, n))
    for r in range(rows):
        pool = np.concatenate((SPECIALS, rng.random(int(rng.integers(1, 4)))))
        if r % 3 == 1:
            out[r] = rng.choice(pool, n)
        elif r % 3 == 2:
            hits = rng.random(n) < 0.4
            out[r, hits] = rng.choice(pool, int(hits.sum()))
    return out


def same_bytes(a: float, b: float) -> bool:
    return a.hex() == b.hex()  # tells -0.0 from 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 16, 24])
def test_one_pass_chain_matches_the_candidate_scan_bit_for_bit(n):
    rng = np.random.default_rng([n, 21])
    space = FiniteSpace(n)
    if n <= 16:
        c = random_capacity(space, rng)
    else:  # the additive builder is the cheapest 2**24-entry table, and its values are distinct
        w = rng.random(n) + 0.05
        c = Capacity.from_additive(space, w / w.sum())
    for row in chain_rows(n, 60 if n < 24 else 12, rng):
        f = MeasurableFn(space, row)
        for s in CHAIN_KINDS:
            got = integrate(s, c, f)
            value, argmax, candidates = ref_integrate(s, c, f)
            assert same_bytes(got.value, value), (s.kind, row.tolist())
            assert same_bytes(got.argmax_threshold, argmax), (s.kind, row.tolist())
            assert got.candidates_inspected == candidates


def test_zero_sign_of_the_argmax_is_the_first_in_index_order():
    c = Capacity.from_additive(FiniteSpace(3), [0.5, 0.25, 0.25])
    for values in ([-0.0, 0.0, 0.0], [0.0, -0.0, -0.0], [0.0, 0.0, -0.0]):
        r = integrate(MIN, c, MeasurableFn(c.space, values))
        assert same_bytes(r.argmax_threshold, values[0])
        assert r.candidates_inspected == 1


@pytest.mark.parametrize("bad", [2.0, math.nan, -0.5, math.inf])
def test_bad_direct_tables_raise_the_candidate_scans_first_error(bad):
    space = FiniteSpace(6)
    rng = np.random.default_rng(31)
    base = random_capacity(space, rng).table
    raised = 0
    for trial, row in enumerate(chain_rows(space.size, 40, rng)):
        # direct construction runs from_table's whole check, so the bad values go in afterwards, through
        # the array the capacity keeps: a read-only array that owns its memory can be made writable
        table = base.copy()
        table.setflags(write=False)
        c = Capacity(space, table)
        table.setflags(write=True)
        table[rng.integers(0, space.num_subsets, 1 + trial % 5)] = bad
        assert c.table is table
        f = MeasurableFn(space, row)
        for s in CHAIN_KINDS:
            try:
                want = ref_integrate(s, c, f)
            except DomainError as e:
                with pytest.raises(DomainError) as err:
                    integrate(s, c, f)
                assert str(err.value) == str(e)
                raised += 1
                continue
            got = integrate(s, c, f)
            assert same_bytes(got.value, want[0]) and same_bytes(got.argmax_threshold, want[1])
            assert got.candidates_inspected == want[2]
    assert raised > 0
