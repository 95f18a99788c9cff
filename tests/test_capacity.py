import hashlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import (
    MAX_POINTS,
    BadDistortionError,
    BadWeightsError,
    Capacity,
    DomainError,
    FiniteSpace,
    MaxNotOneError,
    MeasurableFn,
    NotMonotoneError,
    NotNormalizedError,
    Semicopula,
    random_capacity,
    validate_table,
)
import semint.capacity as capacity_module
from semint.capacity import _interp_monotone, _lattice_pairs


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def subsets(n: int):
    return range(1 << n)


def pairwise_monotone(table) -> bool:
    """Independent check of the full A subset-of B ordering, not the increment scan."""
    n = len(table).bit_length() - 1
    for a in subsets(n):
        for b in subsets(n):
            if a & b == a and table[a] > table[b]:
                return False
    return True


def uniform_additive(n: int) -> Capacity:
    return Capacity.from_additive(FiniteSpace(n), [1.0 / n] * n)


# ---------------------------------------------------------------------------
# FiniteSpace


def test_space_bounds():
    assert FiniteSpace(1).num_subsets == 2
    assert FiniteSpace(MAX_POINTS).full_mask == (1 << MAX_POINTS) - 1
    with pytest.raises(DomainError):
        FiniteSpace(0)
    with pytest.raises(DomainError):
        FiniteSpace(MAX_POINTS + 1)


@pytest.mark.parametrize("size", [np.int64(3), np.int32(3)])
def test_space_size_accepts_numpy_integers_as_ints(size):
    space = FiniteSpace(size)
    assert type(space.size) is int and space == FiniteSpace(3)


def test_check_mask_rejects_stray_bits():
    space = FiniteSpace(3)
    assert space.check_mask(0b101) == 0b101
    with pytest.raises(DomainError):
        space.check_mask(1 << 3)
    with pytest.raises(DomainError):
        space.check_mask(-1)


# ---------------------------------------------------------------------------
# measure


def test_measure_boundaries():
    for c in (uniform_additive(4), Capacity.from_possibility(FiniteSpace(3), [1.0, 0.2, 0.7])):
        assert c.measure(0) == 0.0
        assert c.measure(c.space.full_mask) == 1.0


def test_measure_uniform_additive_matches_cardinality_oracle():
    c = uniform_additive(4)
    mask = 0b0101  # {0, 2}
    assert c.measure(mask) == pytest.approx(popcount(mask) / 4, abs=1e-12)
    for mask in subsets(4):
        assert c.measure(mask) == pytest.approx(popcount(mask) / 4, abs=1e-12)


def test_measure_rejects_bad_mask():
    c = uniform_additive(2)
    with pytest.raises(DomainError):
        c.measure(0b100)


# ---------------------------------------------------------------------------
# from_table


def test_from_table_smallest_capacity():
    c = Capacity.from_table(FiniteSpace(1), [0.0, 1.0])
    assert c.measure(0) == 0.0 and c.measure(1) == 1.0


def test_from_table_valid_incomparable_singletons():
    table = [0.0, 0.6, 0.4, 1.0]
    assert pairwise_monotone(table)
    c = Capacity.from_table(FiniteSpace(2), table)
    assert c.measure(0b01) == 0.6 and c.measure(0b10) == 0.4


def test_from_table_not_normalized():
    with pytest.raises(NotNormalizedError):
        Capacity.from_table(FiniteSpace(2), [0.0, 0.6, 0.4, 0.5])
    with pytest.raises(NotNormalizedError):
        Capacity.from_table(FiniteSpace(1), [0.1, 1.0])


def test_from_table_not_monotone_with_witness():
    # mu({1}) = 0.4 drops to mu({0,1}) = 0.3 when point 0 joins
    table = [0.0, 0.9, 0.4, 0.3, 0.5, 0.95, 0.6, 1.0]
    with pytest.raises(NotMonotoneError) as err:
        Capacity.from_table(FiniteSpace(3), table)
    assert err.value.mask == 0b010 and err.value.element == 0


def test_from_table_rejects_out_of_range():
    with pytest.raises(DomainError):
        Capacity.from_table(FiniteSpace(1), [0.0, 1.5])
    with pytest.raises(DomainError):
        Capacity.from_table(FiniteSpace(2), [0.0, 1.0])  # wrong length


def test_validate_table_lists_all_violations():
    violations = validate_table(FiniteSpace(2), [0.0, 0.6, 0.4, 0.5])
    kinds = [v.kind for v in violations]
    assert "not-normalized" in kinds and "not-monotone" in kinds
    violations = validate_table(FiniteSpace(2), [0.0, 0.6, 0.4, 1.0])
    assert violations == []


# ---------------------------------------------------------------------------
# from_possibility


def test_possibility_golden_values():
    space = FiniteSpace(2)
    c = Capacity.from_possibility(space, [1.0, 0.3])
    assert c.measure(0b10) == 0.3  # singleton {1}
    assert c.measure(0b11) == 1.0  # contains the weight-1 point


def test_possibility_max_oracle():
    space = FiniteSpace(3)
    weights = [0.2, 1.0, 0.5]
    c = Capacity.from_possibility(space, weights)
    assert c.measure(0b101) == 0.5  # {0,2} -> max(0.2, 0.5)
    for mask in subsets(3):
        expected = max((weights[i] for i in range(3) if mask >> i & 1), default=0.0)
        assert c.measure(mask) == expected


def test_possibility_requires_weight_one():
    with pytest.raises(MaxNotOneError):
        Capacity.from_possibility(FiniteSpace(2), [0.4, 0.9])
    with pytest.raises(DomainError):
        Capacity.from_possibility(FiniteSpace(2), [1.0, -0.1])
    with pytest.raises(DomainError):
        Capacity.from_possibility(FiniteSpace(2), [1.0, 1.0, 1.0])


def test_possibility_rejects_non_finite_weights():
    for bad in ([1.0, math.nan], [math.nan, math.nan], [1.0, math.inf]):
        with pytest.raises(DomainError, match="finite"):
            Capacity.from_possibility(FiniteSpace(2), bad)


def test_possibility_is_maxitive_exhaustively():
    for n in (2, 4, 6):
        rng = np.random.default_rng(n)
        weights = rng.random(n)
        weights[int(rng.integers(0, n))] = 1.0
        c = Capacity.from_possibility(FiniteSpace(n), weights)
        for a in subsets(n):
            for b in subsets(n):
                assert c.measure(a | b) == max(c.measure(a), c.measure(b))


# ---------------------------------------------------------------------------
# from_additive


def test_additive_golden_values():
    c4 = uniform_additive(4)
    assert c4.measure(0b0111) == 0.75  # any size-3 subset
    c2 = Capacity.from_additive(FiniteSpace(2), [0.5, 0.5])
    assert c2.measure(0b01) == 0.5
    c3 = Capacity.from_additive(FiniteSpace(3), [0.1, 0.2, 0.7])
    assert c3.measure(0b011) == pytest.approx(0.1 + 0.2, abs=1e-12)


def test_additive_rejects_bad_weights():
    with pytest.raises(BadWeightsError):
        Capacity.from_additive(FiniteSpace(2), [0.7, -0.1])
    with pytest.raises(BadWeightsError):
        Capacity.from_additive(FiniteSpace(2), [0.0, 0.0])
    with pytest.raises(BadWeightsError):
        Capacity.from_additive(FiniteSpace(2), [0.7, 0.4])  # sums to 1.1
    with pytest.raises(DomainError) as err:
        Capacity.from_additive(FiniteSpace(2), [0.5, 0.25, 0.25])  # one weight too many
    assert type(err.value) is DomainError and str(err.value) == "need 2 weights, got shape (3,)"


def test_additive_rejects_non_finite_weights():
    for bad in ([math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0]):
        with pytest.raises(BadWeightsError, match="finite"):
            Capacity.from_additive(FiniteSpace(2), bad)


def test_additive_tolerates_tiny_sum_error_and_renormalizes():
    w = [0.1, 0.2, 0.7 + 5e-10]
    c = Capacity.from_additive(FiniteSpace(3), w)
    assert c.measure(0b111) == 1.0
    assert c.measure(0) == 0.0


def test_additive_is_modular_on_disjoint_sets():
    for n in (2, 4, 6):
        rng = np.random.default_rng(100 + n)
        w = rng.random(n)
        w = w / w.sum()
        c = Capacity.from_additive(FiniteSpace(n), w)
        for a in subsets(n):
            for b in subsets(n):
                if a & b:
                    continue
                assert c.measure(a | b) == pytest.approx(
                    c.measure(a) + c.measure(b), abs=1e-12
                )


# ---------------------------------------------------------------------------
# from_distortion


def test_distortion_identity():
    base = uniform_additive(3)
    c = Capacity.from_distortion(base, [0.0, 1.0])
    assert np.array_equal(c.table, base.table)


def test_distortion_square_golden():
    base = uniform_additive(2)
    g = [(k / 100) ** 2 for k in range(101)]
    g[-1] = 1.0
    c = Capacity.from_distortion(base, g)
    assert c.measure(0b01) == pytest.approx(0.25, abs=1e-12)  # (1/2)^2


def test_distortion_sqrt_golden():
    base = uniform_additive(4)
    g = [math.sqrt(k / 100) for k in range(101)]
    g[0], g[-1] = 0.0, 1.0
    c = Capacity.from_distortion(base, g)
    assert c.measure(0b0001) == pytest.approx(math.sqrt(0.25), abs=1e-3)


def test_distortion_rejects_bad_samples():
    base = uniform_additive(2)
    with pytest.raises(BadDistortionError):
        Capacity.from_distortion(base, [0.1, 1.0])  # wrong left endpoint
    with pytest.raises(BadDistortionError):
        Capacity.from_distortion(base, [0.0, 0.9])  # wrong right endpoint
    with pytest.raises(BadDistortionError):
        Capacity.from_distortion(base, [0.0, 0.8, 0.5, 1.0])  # decreasing
    with pytest.raises(BadDistortionError):
        Capacity.from_distortion(base, [1.0])  # too short


@pytest.mark.parametrize(
    "g, message",
    [
        ([0.1, 1.0], "distortion endpoints are (0.1, 1.0), expected (0, 1)"),
        ([0.0, 1.0 + 2**-52], "distortion endpoints are (0.0, 1.0000000000000002), expected (0, 1)"),
        ([-5e-324, 1.0], "distortion endpoints are (-5e-324, 1.0), expected (0, 1)"),
        ([0.0, 0.8, 0.5, 1.0], "distortion samples must be non-decreasing"),
        ([1.0], "distortion needs at least 2 samples"),
        ([], "distortion needs at least 2 samples"),
        ([[0.0, 1.0]], "distortion needs at least 2 samples"),
        ([0.0, -math.inf, 1.0], "distortion samples must be finite numbers"),
    ],
)
def test_distortion_errors_keep_their_messages(g, message):
    with pytest.raises(BadDistortionError) as err:
        Capacity.from_distortion(uniform_additive(2), g)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_distortion_rejects_non_finite_samples_before_the_order_checks(bad):
    # NaN passes both the endpoint and the order check, so it would surface as a bad table entry
    with pytest.raises(BadDistortionError, match="^distortion samples must be finite numbers$"):
        Capacity.from_distortion(uniform_additive(2), [0.0, bad, 1.0])


# from_distortion hands its table to Capacity._adopt: _interp_monotone's proof replaces the scan.
# These tests check the proof's claims on the inputs where rounding is closest to breaking them.


def ref_interp_with_end_branch(samples: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The clamped interpolation plus a ``frac >= 1`` branch to ``samples[k+1]``, which ``_interp_monotone`` omits."""
    m = samples.size - 1
    pos = x * m
    k = np.minimum(pos.astype(np.int64), m - 1)
    frac = pos - k
    lo, hi = samples[k], samples[k + 1]
    return np.where(frac >= 1.0, hi, np.clip(lo + (hi - lo) * frac, lo, hi))


SPECIAL_ENTRIES = (0.0, -0.0, 5e-324, float(np.nextafter(1.0, 0.0)), 1.0)


def entries(m: int):
    """Table entries on the sample nodes k/m, one ulp to either side of them, special values, or any."""
    on_node = st.integers(0, m).map(lambda k: k / m)
    beside_node = st.tuples(on_node, st.sampled_from([-1.0, 2.0])).map(
        lambda t: float(min(1.0, max(0.0, np.nextafter(t[0], t[1]))))
    )
    return on_node | beside_node | st.sampled_from(SPECIAL_ENTRIES) | st.floats(0.0, 1.0)


@st.composite
def distortion_samples(draw) -> np.ndarray:
    """2-65 nodes with flat runs, repeated values, steep steps and both zeros."""
    inner = draw(
        st.lists(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0]) | st.floats(0.0, 1.0), max_size=63)
    )
    return np.array([draw(st.sampled_from([0.0, -0.0])), *sorted(inner), 1.0])


@st.composite
def distortion_bases(draw, m: int) -> Capacity:
    n = draw(st.integers(1, 6))
    space = FiniteSpace(n)
    kind = draw(st.sampled_from(["table", "additive", "possibility", "random", "distortion"]))
    if kind == "table":
        # ascending in mask order is monotone, since a proper subset has the smaller mask
        table = sorted(draw(st.lists(entries(m), min_size=1 << n, max_size=1 << n)))
        table[0], table[-1] = draw(st.sampled_from([0.0, -0.0])), 1.0
        return Capacity.from_table(space, table)
    if kind == "possibility":
        w = draw(st.lists(entries(m), min_size=n, max_size=n))
        w[draw(st.integers(0, n - 1))] = 1.0
        return Capacity.from_possibility(space, w)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "additive":
        w = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
        w[rng.integers(n)] += 1.0
        return Capacity.from_additive(space, w / w.sum())
    base = random_capacity(space, rng)
    return base if kind == "random" else Capacity.from_distortion(base, draw(distortion_samples()))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_distortion_of_any_capacity_is_a_read_only_capacity(data):
    samples = data.draw(distortion_samples())
    base = data.draw(distortion_bases(samples.size - 1))
    c = Capacity.from_distortion(base, samples)
    assert validate_table(c.space, c.table) == []
    assert not c.table.flags.writeable and c.table is not base.table
    assert bit_equal(c.table, ref_interp_with_end_branch(samples, base.table))


@pytest.mark.parametrize("m", [1, 2, 3, 7, 10, 64])
@pytest.mark.parametrize("lo", [0.1, 0.3, 1 / 3, 0.7, 5e-324, 2**-54, float(np.nextafter(0.5, 0.0))])
def test_distortion_maps_the_full_set_to_exactly_one(m, lo):
    # x = 1 lands in the last bracket at frac = 1, where lo + (1 - lo) must round to exactly 1,
    # also for the lo whose 1 - lo is inexact
    samples = np.full(m + 1, lo)
    samples[0], samples[-1] = 0.0, 1.0
    space = FiniteSpace(2)
    c = Capacity.from_distortion(Capacity.from_table(space, [0.0, lo, lo, 1.0]), samples)
    assert c.table[-1] == 1.0 and validate_table(space, c.table) == []


@pytest.mark.parametrize("m", [2, 3, 5, 10, 33, 64])
def test_interpolation_stays_in_its_bracket_before_the_clamp_at_the_rounding_worst_cases(m):
    # hi - lo rounds up when lo < hi / 2, and frac is largest a few ulps of pos under the next node.
    # A search over 7.7e7 such cases found no unclamped output outside its bracket; this keeps a
    # sample of them, where the clamp must then leave every output as it is.
    rng = np.random.default_rng([m, 31])
    for _ in range(200):
        b = int(rng.integers(1, m))
        low = float(rng.random() * rng.choice([0.5, 1e-3, 1e-300]))
        samples = np.zeros(m + 1)
        samples[b], samples[b + 1 :] = low, min(1.0, low + float(rng.random()))
        samples[-1] = 1.0
        node = (b + 1) / m
        x = np.nextafter(node, 0.0) - np.arange(8) * np.spacing(node)
        pos = x * m
        k = np.minimum(pos.astype(np.int64), m - 1)
        lo, hi = samples[k], samples[k + 1]
        unclamped = lo + (hi - lo) * (pos - k)
        assert np.all((lo <= unclamped) & (unclamped <= hi))
        assert bit_equal(_interp_monotone(samples, x), unclamped)


def test_interpolation_clamps_entries_outside_the_unit_interval_into_range():
    # no capacity holds these entries; the clamp is what keeps the range claim true for any input
    got = _interp_monotone(np.array([0.0, 0.5, 1.0]), np.array([-(2.0**-52), 1.0 + 2.0**-52]))
    assert got.tolist() == [0.0, 1.0]


def test_distortion_runs_no_table_scan(monkeypatch):
    import semint.capacity as capacity_module

    scans = []
    real = capacity_module._faults

    def counted(table, points):
        scans.append(table.size)
        return real(table, points)

    monkeypatch.setattr(capacity_module, "_faults", counted)
    space = FiniteSpace(6)
    base = random_capacity(space, np.random.default_rng(1))
    assert scans == [64]
    Capacity.from_table(space, base.table.tolist())
    assert scans == [64, 64]
    Capacity.from_distortion(base, [0.0, 0.3, 0.3, 1.0])
    assert scans == [64, 64]


DISTORTION_GOLDEN_SAMPLES = (
    [0.0, 1.0],
    [0.0, 0.0, 0.0, 1.0, 1.0],
    [0.0, 0.25, 0.25, 0.25, 0.5, 1.0],
    [math.sqrt(k / 100) for k in range(100)] + [1.0],
    [0.0, 5e-324, 1.0],
)

# leading 16 hex digits of the sha256 of from_distortion's tables as built when the constructor still scanned them
DISTORTION_TABLE_SHA256 = {
    1: "ea37337ae31f788a",
    2: "24925c3e9e055d18",
    3: "8c8ca4437fe3fa6c",
    4: "384c9aa67de3e496",
    5: "f4e539ec6a7e14e7",
    6: "d719d7b6c9cac99e",
    7: "d9c984a9587a156e",
    8: "521fced890d453f3",
    9: "0e68cc418bf08419",
    10: "7af88c74f4f06c7f",
    11: "b40861277e00c2eb",
    12: "d55f205d4e4bc4c1",
    13: "eb7c23619193698b",
    14: "6c81f57c27e40f84",
    18: "caf352f3a8ee2a52",
    22: "9bb022a30ad4d188",
}


@pytest.mark.parametrize("n", [*range(1, 15), 18, 22])
def test_distortion_tables_keep_their_bytes(n):
    space = FiniteSpace(n)
    w = np.random.default_rng([n, 21]).random(n)
    bases = (random_capacity(space, np.random.default_rng(n)), Capacity.from_additive(space, w / w.sum()))
    g65 = np.concatenate(([0.0], np.sort(np.random.default_rng([n, 22]).random(63)), [1.0]))
    digest = hashlib.sha256()
    for base in bases:
        for g in (*DISTORTION_GOLDEN_SAMPLES, g65):
            digest.update(Capacity.from_distortion(base, g).table.tobytes())
    assert digest.hexdigest()[:16] == DISTORTION_TABLE_SHA256[n]


# ---------------------------------------------------------------------------
# cross-constructor invariants


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_every_constructor_output_validates(n):
    rng = np.random.default_rng(n * 7)
    caps = [random_capacity(FiniteSpace(n), rng)]
    w = rng.random(n)
    w[int(rng.integers(0, n))] = 1.0
    caps.append(Capacity.from_possibility(FiniteSpace(n), w))
    w2 = rng.random(n) + 0.01
    caps.append(Capacity.from_additive(FiniteSpace(n), w2 / w2.sum()))
    g = np.sort(rng.random(99)).tolist()
    caps.append(Capacity.from_distortion(caps[0], [0.0] + g + [1.0]))
    for c in caps:
        assert validate_table(c.space, c.table) == []
        assert pairwise_monotone(c.table.tolist())
        assert c.table[0] == 0.0 and c.table[-1] == 1.0


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60)
def test_increment_scan_agrees_with_pairwise_oracle(n, data):
    """Corrupted tables must be judged identically by both monotonicity checks."""
    size = 1 << n
    table = data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size).map(sorted)
    )
    table[0], table[-1] = 0.0, 1.0
    i = data.draw(st.integers(min_value=0, max_value=size - 1))
    j = data.draw(st.integers(min_value=0, max_value=size - 1))
    table[i], table[j] = table[j], table[i]
    table[0], table[-1] = 0.0, 1.0
    violations = [v for v in validate_table(FiniteSpace(n), table) if v.kind == "not-monotone"]
    assert bool(violations) == (not pairwise_monotone(table))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=8))
@settings(max_examples=40)
def test_random_capacity_always_valid(seed, n):
    c = random_capacity(FiniteSpace(n), np.random.default_rng(seed))
    assert validate_table(c.space, c.table) == []


def test_capacity_json_shape():
    c = uniform_additive(2)
    doc = c.to_json_dict()
    assert doc["n"] == 2 and doc["kind"] == "table"
    assert doc["values"] == [0.0, 0.5, 0.5, 1.0]


def test_table_is_read_only():
    c = uniform_additive(2)
    with pytest.raises(ValueError):
        c.table[1] = 0.9


def test_direct_construction_checks_table_shape():
    with pytest.raises(DomainError, match="needs 4 values"):
        Capacity(FiniteSpace(2), [0.0, 1.0])
    with pytest.raises(DomainError, match="needs 4 values"):
        Capacity(FiniteSpace(2), np.zeros((2, 2)))
    assert Capacity(FiniteSpace(1), [0.0, 1.0]).measure(1) == 1.0


@pytest.mark.parametrize("bad", [2.0, math.nan, -0.5, math.inf])
def test_direct_construction_rejects_out_of_range_entries_with_the_first_located_violation(bad):
    space = FiniteSpace(5)
    table = random_capacity(space, np.random.default_rng(7)).table.copy()
    table[[19, 6, 30]] = bad  # the error names the lowest mask
    want = validate_table(space, table)[0]
    assert want.kind == "domain" and want.mask == 6
    with pytest.raises(DomainError) as err:
        Capacity(space, table)
    assert str(err.value) == want.message == f"mu(0x6) = {bad!r} outside [0,1]"
    with pytest.raises(DomainError, match=r"^mu\(0x1\) = nan outside \[0,1\]$"):
        Capacity(FiniteSpace(2), [0.0, math.nan, 0.5, 1.0])
    # direct construction runs from_table's whole check, normalization and monotonicity included
    with pytest.raises(NotNormalizedError) as err:
        Capacity(FiniteSpace(2), [0.5, 0.9, 0.1, 0.0])
    assert str(err.value) == "mu(empty) = 0.5, expected 0 (5 violation(s) total)"


def candidate_tables(n: int, rng: np.random.Generator):
    """A valid table, then copies broken in one way each: order, boundaries, or a planted entry."""
    valid = random_capacity(FiniteSpace(n), rng).table
    yield valid
    yield valid[::-1].copy()
    unnormalized = valid.copy()
    unnormalized[0], unnormalized[-1] = 0.25, 0.75
    yield unnormalized
    for bad in (math.nan, math.inf, -math.inf, 2.0, -0.5, -0.0, 5e-324):
        table = valid.copy()
        table[rng.integers(0, table.size, 1 + n // 3)] = bad
        yield table


def outcome(build):
    """The table bytes ``build`` returns, or the type, message and witness of what it raises."""
    try:
        return build().table.tobytes()
    except (DomainError, NotNormalizedError, NotMonotoneError) as e:
        return type(e), str(e), getattr(e, "mask", None), getattr(e, "element", None)


@pytest.mark.parametrize("n", range(1, 11))
def test_direct_construction_runs_the_from_table_check(n):
    space = FiniteSpace(n)
    rng = np.random.default_rng(n)
    for table in candidate_tables(n, rng):
        violations = validate_table(space, table)
        for values in (table, table.tolist()):
            got = outcome(lambda: Capacity(space, values))
            assert got == outcome(lambda: Capacity.from_table(space, values))
            if not violations:
                assert got == table.tobytes()
                continue
            first = violations[0]
            kind, message, mask, element = got
            assert kind.code == first.kind
            count = "" if first.kind == "domain" else f" ({len(violations)} violation(s) total)"
            assert message == first.message + count
            if kind is NotMonotoneError:
                assert (mask, element) == (first.mask, first.element)


@pytest.mark.parametrize("n", range(1, 15))
def test_proved_builders_make_valid_read_only_tables_without_the_check(n):
    # the additive and possibility builders skip the constructor's scan; this is the scan they skip
    space = FiniteSpace(n)
    rng = np.random.default_rng(100 + n)
    w = rng.random(n)
    for c in (Capacity.from_additive(space, w / w.sum()), Capacity.from_possibility(space, w / w.max())):
        assert validate_table(space, c.table) == []
        assert not c.table.flags.writeable


# ---------------------------------------------------------------------------
# the strided lattice scan against the fancy-indexed loops it replaced


def ref_lattice_build(n: int, step) -> np.ndarray:
    """table[A + {i}] = step(table[A], i) for every i, over index arrays."""
    table = np.zeros(1 << n)
    idx = np.arange(1 << n)
    for i in range(n):
        has = (idx & (1 << i)) != 0
        table[has] = step(table[idx[has] ^ (1 << i)], i)
    return table


def ref_random_table(n: int, rng: np.random.Generator) -> np.ndarray:
    table = rng.random(1 << n)
    idx = np.arange(1 << n)
    for i in range(n):
        has = (idx & (1 << i)) != 0
        table[has] = np.maximum(table[has], table[idx[has] ^ (1 << i)])
    table[0] = 0.0
    table[-1] = 1.0
    return table


def ref_monotone_witnesses(n: int, table: np.ndarray) -> list[tuple[int, int]]:
    idx = np.arange(1 << n)
    out = []
    for i in range(n):
        without = idx[(idx & (1 << i)) == 0]
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is no drop, as inf > inf is false
            drop = table[without] - table[without | (1 << i)]
        out.extend((int(a), i) for a in without[drop > 0.0])
    return out


def bit_equal(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_lattice_builders_match_index_loops_bit_for_bit(n):
    space = FiniteSpace(n)
    rng = np.random.default_rng([n, 11])
    w = rng.random(n) + 0.05
    w = w / w.sum()
    want = ref_lattice_build(n, lambda lo, i: lo + w[i])
    want = want / want[-1]
    want[0], want[-1] = 0.0, 1.0
    assert bit_equal(Capacity.from_additive(space, w).table, want)

    p = rng.random(n)
    p[int(rng.integers(n))] = 1.0
    want = ref_lattice_build(n, lambda lo, i: np.maximum(lo, p[i]))
    assert bit_equal(Capacity.from_possibility(space, p).table, want)

    for seed in (0, n, 2**40 + n):
        got = random_capacity(space, np.random.default_rng(seed)).table
        assert bit_equal(got, ref_random_table(n, np.random.default_rng(seed)))


def ref_lattice_pairs_build(n: int, op, w: np.ndarray) -> np.ndarray:
    """The in-place lattice scan the possibility and additive builders used before prefix doubling."""
    table = np.zeros(1 << n)
    for i, lo, hi, _ in _lattice_pairs(table, n):
        op(lo, w[i], out=hi)
    return table


@pytest.mark.parametrize("n", [*range(1, 15), 18])
def test_prefix_doubling_builders_match_the_lattice_scan_bit_for_bit(n):
    space = FiniteSpace(n)
    rng = np.random.default_rng([n, 13])
    w = rng.random(n) + 0.05
    w = w / w.sum()
    want = ref_lattice_pairs_build(n, np.add, w)
    want = want / want[-1]
    want[0], want[-1] = 0.0, 1.0
    assert bit_equal(Capacity.from_additive(space, w).table, want)

    for p in (rng.random(n), np.where(rng.random(n) < 0.5, -0.0, rng.random(n))):
        p[int(rng.integers(n))] = 1.0
        want = ref_lattice_pairs_build(n, np.maximum, p)
        assert bit_equal(Capacity.from_possibility(space, p).table, want)


@pytest.mark.parametrize("n", range(1, 13))
def test_lattice_validation_lists_the_index_loops_witnesses(n):
    space = FiniteSpace(n)
    rng = np.random.default_rng([n, 12])
    base = random_capacity(space, rng).table
    specials = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0 + 2**-52)
    for trial in range(4):
        table = base.copy()
        hits = rng.integers(0, 1 << n, max(1, (1 << n) // 16))
        table[hits] = rng.random(hits.size)
        if trial:
            table[rng.integers(0, 1 << n, trial)] = rng.choice(specials, trial)
        got = [
            (v.kind, v.mask, v.element) for v in validate_table(space, table) if v.kind == "not-monotone"
        ]
        assert got == [("not-monotone", a, i) for a, i in ref_monotone_witnesses(n, table)]


def peak_bytes(build) -> int:
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_distortion_peak_memory_stays_near_the_table():
    base = random_capacity(FiniteSpace(18), np.random.default_rng(3))
    g = np.concatenate(([0.0], np.sort(np.random.default_rng(4).random(63)), [1.0]))
    assert peak_bytes(lambda: Capacity.from_distortion(base, g)) < 3 * base.table.nbytes


def test_builders_hand_their_fresh_table_over_without_a_copy():
    space = FiniteSpace(18)
    base = random_capacity(space, np.random.default_rng(3))
    g = np.concatenate(([0.0], np.sort(np.random.default_rng(4).random(63)), [1.0]))
    w = np.random.default_rng(7).random(18)
    assert peak_bytes(lambda: random_capacity(space, np.random.default_rng(5))) < 1.75 * base.table.nbytes
    assert peak_bytes(lambda: Capacity.from_distortion(base, g)) < 1.75 * base.table.nbytes
    assert peak_bytes(lambda: Capacity.from_possibility(space, w / w.max())) < 1.75 * base.table.nbytes
    assert peak_bytes(lambda: Capacity.from_additive(space, w / w.sum())) < 1.75 * base.table.nbytes


def test_from_table_copies_what_the_caller_can_still_write():
    # every constructor keeps its array by the one rule of errors._kept_array
    table, values, grid = [0.0, 0.6, 0.4, 1.0], [0.25, 0.5, 0.75, 1.0], [[0.0, 0.0], [0.0, 1.0]]
    cases = (
        (lambda v: Capacity.from_table(FiniteSpace(2), v).table, table),
        (lambda v: Capacity(FiniteSpace(2), v).table, table),
        (lambda v: MeasurableFn(FiniteSpace(4), v).values, values),
        (lambda v: Semicopula.from_grid(v).grid, grid),
        (lambda v: Semicopula("table", v).grid, grid),
    )
    for kept, data in cases:
        array = np.array(data)
        frozen_view = array[:]
        frozen_view.setflags(write=False)
        owned = array.copy()
        owned.setflags(write=False)
        for arg in (array, frozen_view, data):
            got = kept(arg)
            assert array.flags.writeable and not got.flags.writeable
            array.flat[1] = 0.3
            assert got.tolist() == data
            array[...] = data
        assert kept(owned) is owned


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: Capacity(FiniteSpace(1), v), "capacity table"),
        (lambda v: MeasurableFn(FiniteSpace(2), v), "function values"),
        (lambda v: Semicopula("table", v), "table grid"),
        (Semicopula.from_grid, "table grid"),
        (lambda v: Capacity.from_additive(FiniteSpace(2), v), "additive weights"),
        (lambda v: Capacity.from_possibility(FiniteSpace(2), v), "possibility weights"),
        (lambda v: Capacity.from_distortion(Capacity.from_additive(FiniteSpace(1), [1.0]), v), "distortion samples"),
        (lambda v: validate_table(FiniteSpace(1), v), "capacity table"),
    ],
)
@pytest.mark.parametrize(
    "bad", [[[0.0, 0.0], [0.0]], [0.0, [1.0]], ["zero", "one"], ["0.5", 1.0], [{}, 1.0], [10**400, 1.0]]
)
def test_ragged_or_text_input_is_a_domain_error_naming_the_array(build, name, bad):
    with pytest.raises(DomainError) as err:
        build(bad)
    assert str(err.value) == f"{name} must be a regular array of numbers"


def test_validate_table_reads_a_float64_table_without_copying_it():
    space = FiniteSpace(16)
    table = random_capacity(space, np.random.default_rng(9)).table
    assert validate_table(space, table) == []
    # its temporaries are bool masks (a byte per entry or half entry); a float64 copy alone is table.nbytes
    assert peak_bytes(lambda: validate_table(space, table)) < table.nbytes // 2


@pytest.mark.parametrize("fix_boundaries", [False, True])
def test_from_table_error_is_the_first_listed_violation_and_costs_one(fix_boundaries):
    space = FiniteSpace(16)
    table = np.random.default_rng(8).random(space.num_subsets)
    if fix_boundaries:
        table[0], table[-1] = 0.0, 1.0
    violations = validate_table(space, table)
    first = violations[0]
    assert first.kind == ("not-monotone" if fix_boundaries else "not-normalized")
    with pytest.raises((NotNormalizedError, NotMonotoneError)) as err:
        Capacity.from_table(space, table)
    assert str(err.value) == f"{first.message} ({len(violations)} violation(s) total)"
    assert getattr(err.value, "mask", None) == (first.mask if fix_boundaries else None)
    assert getattr(err.value, "element", None) == first.element

    def build():
        with pytest.raises((NotNormalizedError, NotMonotoneError)):
            Capacity.from_table(space, table)

    assert peak_bytes(build) < 8 * table.nbytes


# ---------------------------------------------------------------------------
# the full-table scans on two threads: the same bits as the serial scans


def split_everywhere(monkeypatch):
    """Make every _in_halves call start its thread, whatever the view size and the CPUs this process may use."""
    monkeypatch.setattr(capacity_module, "_SPLIT_ENTRIES", 0)
    monkeypatch.setattr(capacity_module, "_TWO_CPUS", True)


def planted_table(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random capacity table with faults in its lower half, in its upper half and across the top point.

    An entry raised in the lower half drops to its supersets in both halves; an entry cut to 0 in the
    upper half lies below its subset without the top point; both halves get a value outside [0,1].
    """
    table = random_capacity(FiniteSpace(n), rng).table.copy()
    half = table.size // 2
    for lo, hi in ((0, half), (half, table.size)):
        hits = rng.integers(lo, hi, max(1, half // 16))
        table[hits] = rng.random(hits.size)
    table[rng.integers(0, half)] = 1.0
    table[rng.integers(half, table.size)] = 0.0
    table[rng.integers(0, half)] = rng.choice([math.nan, -0.5, 1.0 + 2**-52])
    table[rng.integers(half, table.size)] = rng.choice([math.inf, 2.0, -5e-324])
    return table


def scan_results(space: FiniteSpace, tables, seeds) -> list:
    """The random tables' bytes, and each table's violation list and constructor error, as plain values."""
    threads = threading.active_count()
    out = [random_capacity(space, np.random.default_rng(seed)).table.tobytes() for seed in seeds]
    for table in tables:
        # the table as planted, then in range, so that the constructor reports its first fault past the range check
        for values in (table, np.clip(np.nan_to_num(table, nan=0.5), 0.0, 1.0)):
            out.append([(v.kind, v.message, v.mask, v.element) for v in validate_table(space, values)])
            try:
                Capacity.from_table(space, values)
                out.append(None)
            except (DomainError, NotNormalizedError, NotMonotoneError) as err:
                out.append((type(err), str(err), getattr(err, "mask", None), getattr(err, "element", None)))
        assert threading.active_count() == threads  # no thread outlives a call
    return out


@pytest.mark.parametrize("n, block", [(n, block) for n in range(1, 11) for block in range(1, n + 1)])
def test_split_scans_match_the_serial_scans_bit_for_bit(monkeypatch, n, block):
    space = FiniteSpace(n)
    rng = np.random.default_rng([n, 18])
    tables = [planted_table(n, rng) for _ in range(3)]
    seeds = (0, n, 2**40 + n)
    monkeypatch.setattr(capacity_module, "_BLOCK_POINTS", MAX_POINTS)  # one block: whole-table passes
    unblocked = scan_results(space, tables, seeds)
    monkeypatch.setattr(capacity_module, "_BLOCK_POINTS", block)
    assert scan_results(space, tables, seeds) == unblocked
    split_everywhere(monkeypatch)
    assert scan_results(space, tables, seeds) == unblocked


def test_scans_past_the_split_size_match_one_cpu_bit_for_bit(monkeypatch):
    space = FiniteSpace(20)  # every pass's views reach _SPLIT_ENTRIES
    assert space.num_subsets // 2 >= capacity_module._SPLIT_ENTRIES
    block = capacity_module._BLOCK_POINTS
    assert block < space.size  # the passes from `block` on stream the whole table
    table = random_capacity(space, np.random.default_rng(20)).table.copy()
    table[[3, 5 << 17, 1 << 19, (1 << 20) - 2]] = [1.0, 1.5, 0.0, math.nan]
    # drops in passes 4 and 9 of the last block only: the entry raised to 1 has two supersets, both below 1
    low = random_capacity(space, np.random.default_rng(21)).table.copy()
    low[space.full_mask ^ 1 << 4 ^ 1 << 9] = 1.0
    assert [v.element for v in validate_table(space, low)] == [4, 9]
    # one drop, from {j} to {j, block}, in the first pass past the blocks
    high = random_capacity(space, np.random.default_rng(22)).table.copy()
    j = int(np.argmax(high[1 << np.arange(block)]))
    high[1 << j | 1 << block] = high[1 << block]
    assert [(v.mask, v.element) for v in validate_table(space, high)] == [(1 << j, block)]
    # one drop, from {j} to {j, shifted}, in the first pass of the blocks that is not a shifted comparison
    shifted = capacity_module._SHIFTED_POINTS
    assert shifted < block
    mid = random_capacity(space, np.random.default_rng(23)).table.copy()
    j = int(np.argmax(mid[1 << np.arange(shifted)]))
    mid[1 << j | 1 << shifted] = mid[1 << shifted]
    assert [(v.mask, v.element) for v in validate_table(space, mid)] == [(1 << j, shifted)]
    tables = [table, low, high, mid]
    monkeypatch.setattr(capacity_module, "_TWO_CPUS", True)
    split = scan_results(space, tables, (7,))
    monkeypatch.setattr(capacity_module, "_TWO_CPUS", False)
    assert split == scan_results(space, tables, (7,))
    monkeypatch.setattr(capacity_module, "_BLOCK_POINTS", MAX_POINTS)
    assert split == scan_results(space, tables, (7,))


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("last", [False, True])
def test_the_diagnosis_starts_at_the_first_failing_pass(monkeypatch, split, last):
    n, block = 12, 8
    space = FiniteSpace(n)
    w = np.ones(n)
    w[3] = 0.25
    table = Capacity.from_additive(space, w / w.sum()).table.copy()
    # the only drop: mask a, in the first or the last block, one ulp above a + {3} and below its other supersets
    a = (space.full_mask if last else (1 << block) - 1) ^ 1 << 3 ^ 1 << 0
    table[a] = np.nextafter(table[a | 1 << 3], 2.0)
    monkeypatch.setattr(capacity_module, "_BLOCK_POINTS", MAX_POINTS)
    unblocked = validate_table(space, table)
    assert [(v.kind, v.mask, v.element) for v in unblocked] == [("not-monotone", a, 3)]

    compared = []  # (pass, pairs) per pass a scan compares; list.append is atomic, so both threads may add
    lattice, shifted = capacity_module._lattice_pairs, capacity_module._shifted_pairs

    def counted(table, points, start=0):
        for i, lo, hi, order in lattice(table, points, start):
            compared.append((i, lo.size))
            yield i, lo, hi, order

    def counted_shifted(table, start, stop):
        for i, lo, hi in shifted(table, start, stop):
            compared.append((i, table.size // 2))  # the lattice pairs among the positions it compares
            yield i, lo, hi

    monkeypatch.setattr(capacity_module, "_lattice_pairs", counted)
    monkeypatch.setattr(capacity_module, "_shifted_pairs", counted_shifted)
    assert capacity_module._SHIFTED_POINTS > 3  # pass 3 fails in a shifted comparison
    monkeypatch.setattr(capacity_module, "_BLOCK_POINTS", block)
    if split:
        split_everywhere(monkeypatch)
    assert validate_table(space, table) == unblocked
    pairs = [sum(size for i, size in compared if i == p) for p in range(n)]
    half = space.num_subsets // 2
    assert pairs[:3] == [half] * 3  # every pair below the first failing pass, once
    assert pairs[block:] == [half] * (n - block)  # the streaming passes: the diagnosis alone
    if last:
        # pass 3 by every block, then the diagnosis; the later passes by every block but the last
        assert pairs[3:block] == [2 * half] + [2 * half - (1 << block - 1)] * (block - 4)
    elif split:  # the blocks after the first on its thread compare no pass from 3 on
        assert all(half < count < 2 * half for count in pairs[3:block])
    else:
        assert pairs[3:block] == [half + (1 << block - 1)] + [half] * (block - 4)


def test_small_tables_and_one_cpu_start_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(capacity_module.threading, "Thread", no_thread)
    space = FiniteSpace(16)  # the largest table the cli and long-horizon benchmarks build
    table = random_capacity(space, np.random.default_rng(16)).table
    assert validate_table(space, table) == []
    split_everywhere(monkeypatch)
    monkeypatch.setattr(capacity_module, "_TWO_CPUS", False)
    assert random_capacity(space, np.random.default_rng(16)).table.tobytes() == table.tobytes()
    monkeypatch.setattr(capacity_module, "_BLOCK_POINTS", 8)  # 256 blocks, drawn and passed on this thread
    assert random_capacity(space, np.random.default_rng(16)).table.tobytes() == table.tobytes()
    assert validate_table(space, table) == []


def test_an_exception_in_either_half_reaches_the_caller_after_both_halves_ran(monkeypatch):
    split_everywhere(monkeypatch)
    threads = threading.active_count()
    for failing in (0, 4):  # the thread's half, then the caller's half
        seen = []

        def fn(view, out):
            seen.append(int(view[0]))
            out[:] = view
            if view[0] == failing:
                raise ValueError(f"half at {failing}")

        out = np.zeros(8, dtype=np.int64)
        with pytest.raises(ValueError, match=f"half at {failing}"):
            capacity_module._in_halves(fn, np.arange(8), out)
        assert sorted(seen) == [0, 4] and out.tolist() == list(range(8))
        assert threading.active_count() == threads


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


def reference_random_table(n: int, rng: np.random.Generator) -> np.ndarray:
    """random_capacity's table the plain way: one draw of the whole table, whole-table envelope passes, endpoints."""
    table = rng.random(1 << n)
    for i in range(n):
        pairs = table.reshape(-1, 2, 1 << i)
        np.maximum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    table[0], table[-1] = 0.0, 1.0
    return table


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("split", [False, True], ids=["one-cpu", "split"])
@pytest.mark.parametrize("n, block", [(3, 1), (9, 3), (12, 4), (12, 11), (18, None), (20, None)])
def test_the_draw_under_the_envelope_matches_one_draw_and_whole_table_passes(
    monkeypatch, bit_generator, split, n, block
):
    if block is not None:  # many small blocks
        monkeypatch.setattr(capacity_module, "_BLOCK_POINTS", block)
    assert capacity_module._BLOCK_POINTS < n
    if split:
        split_everywhere(monkeypatch)
    else:
        monkeypatch.setattr(capacity_module, "_TWO_CPUS", False)
    threads = threading.active_count()
    for seed in (0, 2**40 + n):
        rng, twin = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
        got = random_capacity(FiniteSpace(n), rng).table
        assert got.tobytes() == reference_random_table(n, twin).tobytes()
        assert rng.random(5).tobytes() == twin.random(5).tobytes()  # the generator drew 2**n doubles in all
    assert threading.active_count() == threads


def within(seconds: float, call):
    """``call()`` on a helper thread that must return within ``seconds``: its result, or the exception it raised."""
    outcome = []

    def run():
        try:
            outcome.append((True, call()))
        except BaseException as e:  # raised again below, on the test's thread
            outcome.append((False, e))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    returned, value = outcome[0]
    if not returned:
        raise value
    return value


class SlowGenerator(np.random.Generator):
    """A generator whose ``random`` sleeps before each draw, so that the envelope thread waits for blocks, and
    raises in the draw numbered ``failing`` (from 0), if one is."""

    def __init__(self, seed: int, failing: int | None = None):
        super().__init__(np.random.PCG64(seed))
        self.failing, self.draws = failing, 0

    def random(self, *args, **kwargs):
        time.sleep(0.002)
        if self.draws == self.failing:
            raise ValueError(f"draw {self.draws}")
        self.draws += 1
        return super().random(*args, **kwargs)


@pytest.mark.parametrize("failing", [0, 5, 15])
def test_a_failed_draw_reaches_the_caller_and_releases_the_envelope_thread(monkeypatch, failing):
    split_everywhere(monkeypatch)
    monkeypatch.setattr(capacity_module, "_BLOCK_POINTS", 6)  # 16 blocks at n = 10
    threads = threading.active_count()
    with pytest.raises(ValueError, match=f"draw {failing}"):
        within(60, lambda: random_capacity(FiniteSpace(10), SlowGenerator(1, failing)))
    assert threading.active_count() == threads
    # the same generator, never failing, gives the one-draw table
    want = reference_random_table(10, np.random.default_rng(1)).tobytes()
    assert within(60, lambda: random_capacity(FiniteSpace(10), SlowGenerator(1))).table.tobytes() == want


@pytest.mark.parametrize("failing_thread", ["envelope", "caller"])
def test_a_failed_block_pass_reaches_the_caller_from_either_thread(monkeypatch, failing_thread):
    split_everywhere(monkeypatch)
    monkeypatch.setattr(capacity_module, "_BLOCK_POINTS", 6)  # 16 blocks at n = 10
    real = capacity_module._passes
    callers = set()

    def passes(table, start, stop, buffer, split):
        if not split:  # one block's passes
            thread = "caller" if threading.get_ident() in callers else "envelope"
            if thread == "envelope":
                time.sleep(0.005)  # slower than the draw, so that the caller takes blocks too once it ends
            if thread == failing_thread:
                raise ValueError(f"block pass on the {thread} thread")
        return real(table, start, stop, buffer, split)

    def call():
        callers.add(threading.get_ident())
        return random_capacity(FiniteSpace(10), np.random.default_rng(3))

    monkeypatch.setattr(capacity_module, "_passes", passes)
    threads = threading.active_count()
    with pytest.raises(ValueError, match=f"on the {failing_thread} thread"):
        within(60, call)
    assert threading.active_count() == threads


def test_concurrent_draws_under_the_envelope_each_match_one_draw(monkeypatch):
    split_everywhere(monkeypatch)
    monkeypatch.setattr(capacity_module, "_BLOCK_POINTS", 3)  # 512 blocks at n = 12, each claimed by one thread
    seeds = range(4)  # four callers, each with its envelope thread: more threads than CPUs
    want = [reference_random_table(12, np.random.default_rng(seed)).tobytes() for seed in seeds]

    def draw(seed):
        return random_capacity(FiniteSpace(12), np.random.default_rng(seed)).table.tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(len(seeds)) as pool:
            tables = within(120, lambda: list(pool.map(draw, seeds)))
    finally:
        sys.setswitchinterval(interval)
    assert tables == want


def test_split_scans_keep_the_peak_memory_bounds(monkeypatch):
    split_everywhere(monkeypatch)
    space = FiniteSpace(18)
    table = random_capacity(space, np.random.default_rng(9)).table
    assert peak_bytes(lambda: random_capacity(space, np.random.default_rng(5))) < 1.75 * table.nbytes
    assert peak_bytes(lambda: validate_table(space, table)) < table.nbytes // 2


def builder_results(n: int, seed: int) -> list[bytes]:
    """The additive, possibility and distortion builders' tables, both doublings and the interpolation, as bytes.

    The weights, the base table and the samples hold ``-0.0`` entries, whose sign every path must keep.
    """
    rng = np.random.default_rng([n, seed])
    space = FiniteSpace(n)
    threads = threading.active_count()
    w = rng.random(n)
    w[rng.random(n) < 0.3] = -0.0
    w[rng.integers(n)] = 1.0
    base = np.sort(rng.random(1 << n))  # ascending in mask order is monotone
    base[: int(rng.integers(1, base.size))] = -0.0
    base[-1] = 1.0
    samples = np.sort(rng.choice([0.0, 0.25, 0.5, 1.0, rng.random()], 9))
    samples[0], samples[-1] = -0.0, 1.0
    out = [
        Capacity.from_additive(space, w / w.sum()).table,
        Capacity.from_possibility(space, w).table,
        capacity_module._doubling_table(w, np.add),
        capacity_module._doubling_table(w, np.maximum),
        _interp_monotone(samples, base),
        Capacity.from_distortion(Capacity.from_table(space, base), samples).table,
    ]
    assert threading.active_count() == threads  # no thread outlives a call
    return [table.tobytes() for table in out]


@pytest.mark.parametrize("n", range(1, 11))
def test_split_builders_match_the_serial_builders_bit_for_bit(monkeypatch, n):
    serial = [builder_results(n, seed) for seed in (0, 1, 2)]
    split_everywhere(monkeypatch)
    assert [builder_results(n, seed) for seed in (0, 1, 2)] == serial


def test_builders_past_the_split_size_match_one_cpu_bit_for_bit(monkeypatch):
    n = 20  # the interpolation, the normalization and the last doubling step reach _SPLIT_ENTRIES
    assert 1 << (n - 1) >= capacity_module._SPLIT_ENTRIES
    monkeypatch.setattr(capacity_module, "_TWO_CPUS", True)
    split = builder_results(n, 20)
    monkeypatch.setattr(capacity_module, "_TWO_CPUS", False)
    assert split == builder_results(n, 20)


# builds the four n = 20 capacities whose passes reach _SPLIT_ENTRIES, after pinning itself to the CPU named by
# its argument if there is one; prints _TWO_CPUS as semint read it at import, then one SHA-256 digest per table
BUILD_DIGESTS = """
import os
import sys

if len(sys.argv) > 1:
    os.sched_setaffinity(0, {int(sys.argv[1])})

import hashlib

import numpy as np

from semint import Capacity, FiniteSpace, capacity, random_capacity

space = FiniteSpace(20)
rng = np.random.default_rng(22)
w = rng.random(20)
w[3] = -0.0
w[7] = 1.0
base = random_capacity(space, rng)
g = np.concatenate(([-0.0], np.sort(rng.random(63)), [1.0]))
print(capacity._TWO_CPUS)
for c in (Capacity.from_additive(space, w / w.sum()), Capacity.from_possibility(space, w), base,
          Capacity.from_distortion(base, g)):
    print(hashlib.sha256(c.table.tobytes()).hexdigest())
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and two usable CPUs",
)
def test_builders_pinned_to_one_cpu_at_import_give_the_tables_of_two_cpus_bit_for_bit():
    def digests(*cpu: str) -> tuple[str, list[str]]:
        proc = subprocess.run(
            [sys.executable, "-c", BUILD_DIGESTS, *cpu], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        two_cpus, *tables = proc.stdout.split()
        return two_cpus, tables

    split = digests()
    serial = digests(str(min(os.sched_getaffinity(0))))  # only the child's own affinity changes
    assert (split[0], serial[0]) == ("True", "False")
    assert len(split[1]) == 4 and split[1] == serial[1]


PLANTS = ("nan", "inf", "-inf", "below", "above", "empty", "full", "doubled", "drop-low", "drop-high", "drop-top")


@st.composite
def planted_faults(draw):
    """A random capacity table with 0-3 planted faults of the kinds in ``PLANTS``, and its point count."""
    n = draw(st.integers(1, 8))
    table = random_capacity(FiniteSpace(n), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))).table.copy()
    top = table.size // 2
    for plant in draw(st.lists(st.sampled_from(PLANTS), max_size=3)):
        mask = draw(st.integers(0, table.size - 1))
        low, high = mask % top, mask % top | top  # the same mask without and with the top point
        if plant in ("nan", "inf", "-inf"):
            table[mask] = float(plant)
        elif plant == "below":
            table[mask] = -draw(st.sampled_from([5e-324, 2**-52, 0.5]))
        elif plant == "above":
            table[mask] = 1.0 + draw(st.sampled_from([2**-52, 0.5]))
        elif plant == "empty":
            table[0] = draw(st.sampled_from([5e-324, 0.5, -0.0]))  # -0.0 is a valid empty-set value
        elif plant == "full":
            table[-1] = draw(st.sampled_from([float(np.nextafter(1.0, 0.0)), 2.0]))
        elif plant == "doubled":
            table *= 2.0  # monotone, in [0,2]
        elif plant == "drop-low":  # raised within the lower half, above its supersets
            table[low] = draw(st.sampled_from([1.0, table[low] + 0.25]))
        elif plant == "drop-high":  # cut within the upper half, below its subsets
            table[high] = draw(st.sampled_from([0.0, table[high] / 2]))
        else:  # one ulp above its superset across the top point
            table[low] = np.nextafter(table[high], 2.0)
    return n, table


def raised(call):
    """The error ``call`` raises, as plain values, or None."""
    try:
        call()
    except (DomainError, NotNormalizedError, NotMonotoneError) as err:
        return type(err), str(err), getattr(err, "mask", None), getattr(err, "element", None)
    return None


ERRORS = {"domain": DomainError, "not-normalized": NotNormalizedError, "not-monotone": NotMonotoneError}


@given(planted_faults(), st.booleans(), st.integers(1, 8), st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_validation_lists_and_raises_the_full_diagnosis_for_every_planted_fault(planted, split, block, shifted):
    n, table = planted
    space = FiniteSpace(n)
    # an independent reference: the range masks, the two endpoints, then the index-loop witnesses
    want = [("domain", int(mask), None) for mask in np.flatnonzero(~((table >= 0) & (table <= 1)))]
    ends = ((0, 0.0), (table.size - 1, 1.0))
    want += [("not-normalized", mask, None) for mask, value in ends if table[mask] != value]
    want += [("not-monotone", mask, i) for mask, i in ref_monotone_witnesses(n, table)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(capacity_module, "_BLOCK_POINTS", min(block, n))
        patch.setattr(capacity_module, "_SHIFTED_POINTS", shifted)
        if split:
            split_everywhere(patch)
        listed = validate_table(space, table)
        error = raised(lambda: Capacity.from_table(space, table))
        diagnosed = list(capacity_module._faults(table, n))
    assert (diagnosed == []) == (want == [])  # a capacity, ties included, gets no diagnosis at all
    assert [(v.kind, v.mask, v.element) for v in listed] == want
    if not want:
        assert error is None
        return
    kind, mask, element = want[0]
    message = listed[0].message if kind == "domain" else f"{listed[0].message} ({len(want)} violation(s) total)"
    witness = (mask, element) if kind == "not-monotone" else (None, None)
    assert error == (ERRORS[kind], message, *witness)
