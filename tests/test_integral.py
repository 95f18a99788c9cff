import dataclasses
import itertools
import tracemalloc
from array import array

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
    FnSequence,
    MeasurableFn,
    Semicopula,
    SpaceMismatchError,
    integrate,
    integrate_grid_oracle,
    random_capacity,
    residual,
    shilkret,
    sugeno,
    survival,
    validate_semicopula,
)
from semint import integral
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


def test_oracle_chunks_keep_the_first_maximum_across_their_boundaries(monkeypatch):
    # under min, the profile of STEPS over UNIFORM4 is 0.5 on all of [0.5, 0.75]: at 100 001 points the
    # tie runs over grid points 50 000 .. 75 000, across the chunk boundary at 65 536
    rng = np.random.default_rng(4)
    cases = [(s, UNIFORM4, STEPS) for s in BUILTINS]
    for n in (3, 9):
        c = rng_capacity(int(rng.integers(2**31)), n)
        cases += [(s, c, MeasurableFn(c.space, rng.choice([0.0, 0.25, 0.5, 1.0, rng.random()], n))) for s in BUILTINS]
    for points, chunks in ((2, (1, 7)), (7, (1, 7)), (8, (1, 7)), (1001, (1, 7, 1 << 16)), (100_001, (1 << 16,))):
        monkeypatch.setattr(integral, "_ORACLE_CHUNK", points)  # one chunk: the whole profile's argmax
        whole = [_grid_profile(s, c, f, points) for s, c, f in cases]
        for chunk in chunks:
            monkeypatch.setattr(integral, "_ORACLE_CHUNK", chunk)
            for (s, c, f), want in zip(cases, whole):
                got = _grid_profile(s, c, f, points)
                assert np.array(got).tobytes() == np.array(want).tobytes(), (s.kind, points, chunk)
    assert _grid_profile(MIN, UNIFORM4, STEPS, 100_001) == (0.5, 0.5)


def test_oracle_peak_memory_is_below_twelve_bytes_a_point():
    c = rng_capacity(1, 16)
    f = MeasurableFn(c.space, np.random.default_rng(2).random(16))
    for s in BUILTINS + (Semicopula.from_function(lambda a, b: a * b, 10),):
        tracemalloc.start()
        try:
            _grid_profile(s, c, f, 2_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the grid itself is 8 bytes a point; the whole profile at once peaked at 45.8 MiB
        assert peak < 24 * 2**20, s.kind


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


# ---------------------------------------------------------------------------
# the top-down walk: a builtin stops at the first level below the best, a table walks every level


def counted(calls: list, formula):
    """``formula`` recording the threshold of every call; a method's arguments are (self, a, b)."""

    def wrapper(*args):
        calls.append(args[-2])
        return formula(*args)

    return wrapper


def test_a_builtin_stops_below_the_best_and_a_table_evaluates_every_level(monkeypatch):
    c = Capacity.from_possibility(SPACE4, [1.0, 0.5, 0.5, 0.5])
    r = kept(MeasurableFn(SPACE4, [0.9, 0.2, 0.1, 0.3]))  # the top level already scores 0.9
    calls = []
    for s in BUILTINS:
        monkeypatch.setitem(integral._SCALAR_FORMULAS, s.kind, counted(calls, integral._SCALAR_FORMULAS[s.kind]))
        result = integrate(s, c, r)
        assert (result.value, result.argmax_threshold, result.candidates_inspected) == (0.9, 0.9, 4), s.kind
        assert calls == [0.9], s.kind  # 0.3 < 0.9, and S(v, m) <= v below it
        calls.clear()
    table = CHAIN_KINDS[-1]
    monkeypatch.setattr(Semicopula, "evaluate", counted(calls, Semicopula.evaluate))
    monkeypatch.setattr(Semicopula, "_evaluate_array", counted(calls, Semicopula._evaluate_array))
    assert integrate(table, c, r).candidates_inspected == 4
    assert [a.tolist() for a in calls] == [[0.9, 0.3, 0.2, 0.1]]  # one array call over every level, from the top


def test_a_table_above_the_min_bound_still_gets_the_full_walk():
    # 0.9 * max(a, b) breaks S <= min wherever b > a, so a level below the best can still win
    s = Semicopula.from_function(lambda a, b: 0.9 * max(a, b), 20)
    assert "min-bound" in {v.axiom for v in validate_semicopula(s, 20).violations}
    f = MeasurableFn(SPACE4, [0.9, 0.1, 0.1, 0.1])
    result = integrate(s, UNIFORM4, f)
    assert (result.value, result.argmax_threshold) == (s.evaluate(0.1, 1.0), 0.1)
    assert 0.1 < s.evaluate(0.9, 0.25) < result.value  # the level 0.1 lies below the top level's score
    assert_matches_reference(s, UNIFORM4, f)
    rng = np.random.default_rng(37)
    c = rng_capacity(38, 6)
    for row in chain_rows(6, 40, rng):
        f = MeasurableFn(c.space, row)
        for g in (f, kept(f)):
            assert_matches_reference(s, c, g)


TABLE_KINDS = (
    CHAIN_KINDS[-1],
    Semicopula.from_function(lambda a, b: 0.9 * max(a, b), 20),  # above min: a low level can win
    Semicopula.from_function(lambda a, b: max(a + b - 1.0, 0.0), 10),  # zero divisors: ties at 0
)


@pytest.mark.parametrize("n", [1, 4, 9, 16])
def test_a_table_integral_is_one_array_call_and_matches_the_per_level_reference(monkeypatch, n):
    rng = np.random.default_rng([n, 41])
    c = rng_capacity(42 + n, n)
    rows = chain_rows(n, 12, rng)
    rows[::4] = rng.choice([0.0, -0.0, 5e-324, 0.5], rows[::4].shape)
    for s in TABLE_KINDS:
        for row in rows:
            f = MeasurableFn(c.space, row)
            for g in (f, kept(f)):
                assert_matches_reference(s, c, g)
                calls = []
                with monkeypatch.context() as m:
                    m.setattr(Semicopula, "evaluate", counted(calls, Semicopula.evaluate))
                    m.setattr(Semicopula, "_evaluate_array", counted(calls, Semicopula._evaluate_array))
                    result = integrate(s, c, g)
                assert len(calls) == 1 and calls[0].size == result.candidates_inspected


# ---------------------------------------------------------------------------
# the level chain a function keeps from its first integral


def ref_one_pass(s, c, f):
    """The one-pass integral as integrate computed it before the chain was kept: built and scanned per call."""
    table = c.table
    values = f.values.tolist()
    chain = []
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    mask = 0
    run = values[order[0]]
    for i in order:
        v = values[i]
        if v != run:
            chain.append((run, mask))
            run = v
        mask |= 1 << i
    chain.append((run, mask))
    best = -1.0
    best_t = 0.0
    for v, level in reversed(chain):
        val = s.evaluate(v, table.item(level))
        if val > best:
            best = val
            best_t = v
    return float(best), float(best_t), len(chain)


def ref_level_chain(values: list[float]) -> tuple[array, array]:
    """The chain of one function as the per-row pass built it before ``_level_chains``: one Python sort per row."""
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    levels = []
    masks = []
    mask = 0
    run = values[order[0]]
    for i in order:
        v = values[i]
        if v != run:
            levels.append(run)
            masks.append(mask)
            run = v
        mask |= 1 << i
    levels.append(run)
    masks.append(mask)
    return array("d", levels), array("q", masks)


def chain_bytes(chain: tuple[array, array]) -> tuple:
    """A chain's typecodes and contents, with the sign of a zero level kept."""
    levels, masks = chain
    return levels.typecode, levels.tobytes(), masks.typecode, masks.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 16, 24])
def test_level_chains_match_the_per_row_pass_bit_for_bit(n):
    rng = np.random.default_rng([n, 61])
    rows = chain_rows(n, 90, rng)
    rows[::10] = 0.0
    rows[5::10] = -0.0
    rows[7::10] = rng.choice([0.0, -0.0, 5e-324], rows[7::10].shape)
    got = integral._level_chains(rows)
    assert len(got) == rows.shape[0]
    for row, chain in zip(rows.tolist(), got):
        assert chain_bytes(chain) == chain_bytes(ref_level_chain(row)), row
    for k in (0, 1, rows.shape[0] - 1):  # one row alone, as integrate passes it, gives the same chain
        assert chain_bytes(integral._level_chains(rows[k : k + 1])[0]) == chain_bytes(got[k])


def test_level_chains_keep_each_row_in_its_place():
    rows = np.array([[0.5, 0.25, 0.5, 1.0], [0.0, -0.0, 0.0, 0.0], [-0.0, 5e-324, 0.0, 1.0]])
    levels, masks = zip(*integral._level_chains(rows))
    assert [x.tolist() for x in levels] == [[1.0, 0.5, 0.25], [0.0], [1.0, 5e-324, 0.0]]
    assert [x.tolist() for x in masks] == [[0b1000, 0b1101, 0b1111], [0b1111], [0b1000, 0b1010, 0b1111]]
    assert [v.hex() for v in (levels[1][-1], levels[2][-1])] == [(0.0).hex(), (-0.0).hex()]


def fresh(f: MeasurableFn) -> MeasurableFn:
    """A new function with f's values, which keeps no chain."""
    return MeasurableFn(f.space, f.values)


def kept(f: MeasurableFn) -> MeasurableFn:
    """The residual |f - 0| of a one-term sequence, which keeps the chain its sequence built (f's values,
    save that a -0.0 in f reads 0.0 in it)."""
    return FnSequence(f.space, (f,), MeasurableFn.constant(f.space, 0.0))._residuals[0]


def assert_matches_reference(s, c, f):
    got = integrate(s, c, f)
    once = integrate(s, c, fresh(f))
    value, argmax, candidates = ref_one_pass(s, c, f)
    for result in (got, once):
        assert same_bytes(result.value, value), (s.kind, f.values.tolist())
        assert same_bytes(result.argmax_threshold, argmax), (s.kind, f.values.tolist())
        assert result.candidates_inspected == candidates


def test_integrate_builds_a_one_row_chain_per_call_and_keeps_none(monkeypatch):
    built = []
    level_chains = integral._level_chains
    monkeypatch.setattr(integral, "_level_chains", lambda rows: built.append(rows.tolist()) or level_chains(rows))
    f = MeasurableFn(SPACE4, [0.5, 0.25, 0.5, 1.0])
    for s in CHAIN_KINDS:
        integrate(s, UNIFORM4, f)
    assert built == [[[0.5, 0.25, 0.5, 1.0]]] * len(CHAIN_KINDS)  # one one-row call per integral
    assert f._chain is None


def test_a_residual_keeps_its_chain_as_arrays():
    r = kept(MeasurableFn(SPACE4, [0.5, 0.25, 0.5, 1.0]))
    levels, masks = r._chain
    assert (levels.typecode, masks.typecode) == ("d", "q")
    assert (levels.tolist(), masks.tolist()) == ([1.0, 0.5, 0.25], [0b1000, 0b1101, 0b1111])


def test_a_kept_chain_matches_the_one_pass_under_every_order_of_semicopulas():
    rng = np.random.default_rng(31)
    c = rng_capacity(32, 6)
    for row in chain_rows(6, 6, rng):
        for kinds in itertools.permutations(CHAIN_KINDS):
            f = kept(MeasurableFn(c.space, row))
            for s in kinds:
                assert_matches_reference(s, c, f)


def test_a_kept_chain_serves_every_capacity_on_its_space():
    rng = np.random.default_rng(33)
    caps = (rng_capacity(34, 8), Capacity.from_possibility(FiniteSpace(8), [1.0] + [0.5] * 7))
    for row in chain_rows(8, 30, rng):
        f = kept(MeasurableFn(caps[0].space, row))
        for c in caps + caps[::-1]:
            for s in CHAIN_KINDS:
                assert_matches_reference(s, c, f)


@pytest.mark.parametrize(
    "values",
    [
        [0.5, 0.5, 0.5, 0.5],
        [0.25, 0.75, 0.25, 0.75],
        [-0.0, 0.0, 0.5, 0.0],
        [0.0, -0.0, -0.0, 1.0],
        [0.0, 0.0, -0.0, 0.0],
        [5e-324, -0.0, 5e-324, 0.0],
    ],
)
def test_a_chain_keeps_ties_and_the_sign_of_zero(values):
    c = Capacity.from_additive(SPACE4, [0.4, 0.3, 0.2, 0.1])
    f = MeasurableFn(SPACE4, values)
    for g in (f, kept(f)):
        for s in CHAIN_KINDS + CHAIN_KINDS[::-1]:
            assert_matches_reference(s, c, g)
    zero = integral._level_chains(f.values[None])[0][0][-1]  # the lowest level
    if zero == 0.0:  # the run of zeros carries the sign of its first entry in index order
        assert same_bytes(zero, next(v for v in values if v == 0.0))


def test_a_sequence_residual_keeps_its_chain_and_a_standalone_one_keeps_none():
    rng = np.random.default_rng(35)
    c = rng_capacity(36, 5)
    for _ in range(20):
        a, b = (MeasurableFn(c.space, row) for row in chain_rows(5, 2, rng))
        r = residual(a, b)
        kept_r = FnSequence(c.space, (a,), b)._residuals[0]
        assert r._chain is None and kept_r._chain is not None
        assert kept_r.values.tobytes() == r.values.tobytes()
        assert chain_bytes(kept_r._chain) == chain_bytes(integral._level_chains(r.values[None])[0])
        for s in CHAIN_KINDS + CHAIN_KINDS[::-1]:
            assert_matches_reference(s, c, r)
            assert_matches_reference(s, c, kept_r)
        assert r._chain is None


def test_repr_and_replace_never_carry_a_chain():
    f = MeasurableFn(SPACE4, [0.25, 0.5, 0.75, 1.0])
    r = kept(f)
    assert r._chain is not None
    assert repr(r) == repr(f) and "_chain" not in repr(r)
    assert dataclasses.replace(r)._chain is None
    g = dataclasses.replace(r, values=[1.0, 0.75, 0.5, 0.25])
    assert g._chain is None
    assert integrate(MIN, UNIFORM4, g) == integrate(MIN, UNIFORM4, fresh(g))
    assert g._chain is None
    assert kept(g)._chain[1].tolist() == [0b0001, 0b0011, 0b0111, 0b1111]
