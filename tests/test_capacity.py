import math
import tracemalloc

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
    NotMonotoneError,
    NotNormalizedError,
    random_capacity,
    validate_table,
)
from semint.capacity import _lattice_pairs


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
    for i, lo, hi in _lattice_pairs(table, n):
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
    table = np.array([0.0, 0.6, 0.4, 1.0])
    frozen_view = table[:]
    frozen_view.setflags(write=False)
    owned = table.copy()
    owned.setflags(write=False)
    for build in (Capacity.from_table, Capacity):  # direct construction keeps the same rule
        for values in (table, frozen_view, table.tolist()):
            c = build(FiniteSpace(2), values)
            assert table.flags.writeable and not c.table.flags.writeable
            table[1] = 0.7
            assert c.measure(1) == 0.6
            table[1] = 0.6
        assert build(FiniteSpace(2), owned).table is owned


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
