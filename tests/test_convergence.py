import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import (
    BUILTINS,
    DEFAULT_EPSILON,
    MIN,
    BadGridError,
    BadRateError,
    Capacity,
    DomainError,
    FiniteSpace,
    FnSequence,
    MeasurableFn,
    Semicopula,
    SpaceMismatchError,
    check_in_capacity,
    check_in_mean,
    check_strict,
    counterexample_constant,
    default_t_grid,
    default_tail_start,
    integrate,
    integrate_grid_oracle,
    random_audit,
    random_capacity,
    random_strict_sequence,
    residual,
    sugeno,
    survival,
    theorem1_audit,
    theorem2_audit,
    validate_semicopula,
)

SPACE = FiniteSpace(4)
UNIFORM = Capacity.from_additive(SPACE, [0.25] * 4)


def constant_seq(horizon: int) -> FnSequence:
    return counterexample_constant(SPACE, "1/n", horizon)


def stationary_seq(horizon: int = 10) -> FnSequence:
    f = MeasurableFn(SPACE, [0.2, 0.4, 0.6, 0.8])
    return FnSequence(SPACE, tuple([f] * horizon), f, provenance="stationary")


# ---------------------------------------------------------------------------
# defaults


def test_default_tail_start_is_ceil_half():
    assert default_tail_start(100) == 50
    assert default_tail_start(5) == 3
    assert default_tail_start(1) == 1


def test_default_t_grid_shape():
    grid = default_t_grid()
    assert grid.shape == (100,)
    assert grid[0] == pytest.approx(0.01) and grid[-1] == 1.0
    assert np.all((grid > 0.0) & (grid <= 1.0))
    assert np.all(np.diff(grid) > 0.0)


# ---------------------------------------------------------------------------
# check_in_capacity


def test_in_capacity_vanishing_constants_pass():
    report = check_in_capacity(UNIFORM, constant_seq(100), [0.1, 0.5, 1.0], 0.0, 11)
    assert report.verdict == "pass"
    assert report.tail_sup == 0.0
    # per-threshold witnesses: survival is 0 on the whole tail for each t
    assert all(sup == 0.0 for _, sup in report.per_t)


def test_in_capacity_stationary_passes_any_grid():
    report = check_in_capacity(UNIFORM, stationary_seq(), [0.001, 1.0], 0.0, 1)
    assert report.verdict == "pass" and report.tail_sup == 0.0


def test_in_capacity_alternating_indicator_fails():
    ind = MeasurableFn.indicator(SPACE, SPACE.full_mask)
    zero = MeasurableFn.constant(SPACE, 0.0)
    terms = tuple(ind if n % 2 else zero for n in range(1, 22))
    seq = FnSequence(SPACE, terms, zero)
    # direct evaluation: the odd terms keep survival at mu(X) = 1 for every t
    assert survival(UNIFORM, residual(terms[0], zero), 1.0) == 1.0
    report = check_in_capacity(UNIFORM, seq, [0.5, 1.0], 1e-9, 5)
    assert report.verdict == "fail"
    assert report.tail_sup == 1.0
    # a truncation that happens to end on a zero term cannot distinguish this
    # from slow convergence, so the verdict softens to inconclusive
    even = FnSequence(SPACE, terms[:20], zero)
    assert check_in_capacity(UNIFORM, even, [0.5, 1.0], 1e-9, 5).verdict == "inconclusive"


def test_in_capacity_rejects_bad_grid():
    seq = stationary_seq()
    with pytest.raises(BadGridError):
        check_in_capacity(UNIFORM, seq, [0.0, 0.5])
    with pytest.raises(BadGridError):
        check_in_capacity(UNIFORM, seq, [0.5, 1.1])
    with pytest.raises(BadGridError):
        check_in_capacity(UNIFORM, seq, [])


def test_tail_start_range_checked():
    seq = stationary_seq(10)
    with pytest.raises(DomainError):
        check_strict(UNIFORM, seq, tail_start=0)
    with pytest.raises(DomainError):
        check_strict(UNIFORM, seq, tail_start=11)


# ---------------------------------------------------------------------------
# check_strict


def test_strict_constant_sequence_fails_with_unit_witnesses():
    report = check_strict(UNIFORM, constant_seq(100))
    assert report.verdict == "fail"
    assert all(v == 1.0 for v in report.per_n)  # mu(X) = 1 for every term
    assert report.final_value == 1.0


def test_strict_stationary_passes():
    assert check_strict(UNIFORM, stationary_seq(), 0.0).verdict == "pass"


def test_strict_is_in_capacity_at_the_smallest_positive_double():
    rng = np.random.default_rng(17)
    for case in range(60):
        space = FiniteSpace(int(rng.integers(1, 7)))
        if case % 2:
            c = random_capacity(space, rng)
        else:  # adopted unchecked, so neither monotone nor normalized
            c = Capacity._adopt(space, rng.choice([0.0, 0.3, 1.0, rng.random()], size=space.num_subsets))
        pool = [0.0, 5e-324, 1e-310, 0.5, 1.0, rng.random()]
        limit = MeasurableFn(space, rng.choice(pool, size=space.size))
        horizon = int(rng.integers(1, 12))
        terms = tuple(MeasurableFn(space, rng.choice(pool, size=space.size)) for _ in range(horizon))
        seq = FnSequence(space, terms, limit)
        epsilon = float(rng.choice([0.0, 0.05, 0.5]))
        tail_start = int(rng.integers(1, horizon + 1))
        strict = check_strict(c, seq, epsilon, tail_start).to_json_dict()
        at_one_t = check_in_capacity(c, seq, [5e-324], epsilon, tail_start).to_json_dict()
        assert at_one_t.pop("witnesses_by_t") == [{"t": 5e-324, "tail_sup": strict["tail_sup"]}]
        assert (strict.pop("mode"), at_one_t.pop("mode")) == ("strict", "in-capacity")
        assert strict == at_one_t


def test_strict_shrinking_support_passes_at_zero():
    space = FiniteSpace(4)
    c = Capacity.from_additive(space, [0.25] * 4)
    zero = MeasurableFn.constant(space, 0.0)
    supports = [0b1111, 0b0111, 0b0011, 0b0001, 0, 0, 0, 0]
    terms = tuple(
        MeasurableFn(space, [0.5 if m >> i & 1 else 0.0 for i in range(4)]) for m in supports
    )
    seq = FnSequence(space, terms, zero)
    report = check_strict(c, seq, 0.0, tail_start=5)
    assert report.verdict == "pass" and report.tail_sup == 0.0
    # before the tail the witnesses are the additive measures of the supports
    assert report.per_n[:4] == (1.0, 0.75, 0.5, 0.25)


# ---------------------------------------------------------------------------
# check_in_mean


def test_in_mean_constants_equal_rate_for_every_builtin():
    seq = constant_seq(100)
    for s in BUILTINS:
        report = check_in_mean(s, UNIFORM, seq, epsilon=1.0 / 51, tail_start=51)
        assert report.verdict == "pass"
        assert report.per_n == tuple(1.0 / n for n in range(1, 101))


def test_in_mean_stationary_passes_at_zero():
    report = check_in_mean(MIN, UNIFORM, stationary_seq(), 0.0)
    assert report.verdict == "pass" and set(report.per_n) == {0.0}


def test_in_mean_far_constant_fails():
    ones = MeasurableFn.constant(SPACE, 1.0)
    zero = MeasurableFn.constant(SPACE, 0.0)
    seq = FnSequence(SPACE, tuple([ones] * 10), zero)
    report = check_in_mean(MIN, UNIFORM, seq)
    assert report.verdict == "fail"
    assert set(report.per_n) == {1.0}


IN_MEAN_KINDS = BUILTINS + (Semicopula.from_function(lambda a, b: a * b * (2.0 - max(a, b)), 7),)


def special_seq(space: FiniteSpace, horizon: int, rng: np.random.Generator) -> FnSequence:
    """Terms and limit drawn partly from ties and the specials 0.0, -0.0 and 5e-324."""
    pool = np.array([0.0, -0.0, 5e-324, 1.0, 0.5, 0.25])
    rows = rng.random((horizon + 1, space.size))
    hits = rng.random(rows.shape) < 0.5
    rows[hits] = rng.choice(pool, int(hits.sum()))
    fns = [MeasurableFn(space, row) for row in rows]
    return FnSequence(space, tuple(fns[1:]), fns[0])


def report_bytes(report) -> tuple:
    """A report's verdict, tail supremum and per-term values, with the sign of zero kept."""
    return report.verdict, report.tail_sup.hex(), tuple(v.hex() for v in report.per_n)


def test_in_mean_on_a_reused_sequence_matches_a_fresh_one_bit_for_bit():
    rng = np.random.default_rng(41)
    space = FiniteSpace(6)
    c = random_capacity(space, rng)
    for _ in range(4):
        seq = special_seq(space, 30, rng)
        reused = [report_bytes(check_in_mean(s, c, seq, 0.0)) for s in IN_MEAN_KINDS]
        reused += [report_bytes(check_in_mean(s, c, seq, 0.0)) for s in reversed(IN_MEAN_KINDS)]
        fresh = []
        for s in IN_MEAN_KINDS + tuple(reversed(IN_MEAN_KINDS)):
            copy = FnSequence(space, seq.terms, seq.limit)
            fresh.append(report_bytes(check_in_mean(s, c, copy, 0.0)))
            per_n = tuple(integrate(s, c, residual(t, seq.limit)).value.hex() for t in seq.terms)
            assert fresh[-1][2] == per_n, s.kind
        assert reused == fresh


def test_a_sequence_computes_each_residual_once(monkeypatch):
    import semint.convergence as conv

    calls = []

    def counted(f, g):
        calls.append(f)
        return residual(f, g)

    monkeypatch.setattr(conv, "residual", counted)
    rng = np.random.default_rng(42)
    space = FiniteSpace(5)
    c = random_capacity(space, rng)
    seq = special_seq(space, 25, rng)
    check_strict(c, seq)
    check_in_capacity(c, seq)
    for s in BUILTINS:
        check_in_mean(s, c, seq)
    assert len(calls) == seq.horizon
    assert [id(f) for f in calls] == [id(t) for t in seq.terms]
    theorem2_audit(MIN, c, seq)
    check_in_mean(MIN, c, FnSequence(space, seq.terms, seq.limit))
    assert len(calls) == 2 * seq.horizon  # a new sequence computes its own


@pytest.mark.parametrize("n", [1, 3, 6, 16])
def test_residual_matrix_equals_the_stacked_difference_byte_for_byte(n):
    rng = np.random.default_rng(43 + n)
    space = FiniteSpace(n)
    for horizon in (1, 2, 17):
        seq = special_seq(space, horizon, rng)
        want = np.abs(np.stack([t.values for t in seq.terms]) - seq.limit.values)
        got = seq.residual_matrix()
        assert got.dtype == want.dtype and got.shape == (horizon, n)
        assert got.tobytes() == want.tobytes()  # the sign of zero included
        rows = [residual(t, seq.limit).values.tobytes() for t in seq.terms]
        assert [row.tobytes() for row in got] == rows


# ---------------------------------------------------------------------------
# verdict semantics


def test_inconclusive_when_horizon_too_short():
    seq = counterexample_constant(SPACE, "1/2^n", 20)
    report = check_in_mean(MIN, UNIFORM, seq, epsilon=1e-5, tail_start=10)
    # tail still above epsilon, but the last term has already dropped below eps/10
    assert report.tail_sup > 1e-5
    assert report.final_value <= 1e-6
    assert report.verdict == "inconclusive"


def test_pass_implies_tail_within_epsilon():
    for report in (
        check_strict(UNIFORM, stationary_seq(), 0.0),
        check_in_mean(MIN, UNIFORM, constant_seq(100), 1.0 / 51, 51),
    ):
        assert report.verdict == "pass"
        assert max(report.per_n[report.tail_start - 1 :]) <= report.epsilon


def test_report_json_fields():
    doc = check_strict(UNIFORM, constant_seq(10)).to_json_dict()
    assert doc["mode"] == "strict" and doc["verdict"] == "fail"
    assert len(doc["witnesses_by_n"]) == 10
    doc = check_in_capacity(UNIFORM, constant_seq(10), [0.5, 1.0]).to_json_dict()
    assert [w["t"] for w in doc["witnesses_by_t"]] == [0.5, 1.0]


# ---------------------------------------------------------------------------
# sequences and constructions


def test_counterexample_constant_golden_rates():
    seq = counterexample_constant(SPACE, "1/n", 5)
    assert [float(t.values[0]) for t in seq.terms] == [1.0, 0.5, 1 / 3, 0.25, 0.2]
    assert np.all(seq.limit.values == 0.0)
    assert seq.horizon == 5
    seq = counterexample_constant(SPACE, "1/2^n", 3)
    assert [float(t.values[0]) for t in seq.terms] == [0.5, 0.25, 0.125]
    seq = counterexample_constant(SPACE, "1/log(n+2)", 4)
    assert [float(t.values[0]) for t in seq.terms] == [1 / math.log(n + 2) for n in (1, 2, 3, 4)]


def test_counterexample_rejects_non_vanishing_rate():
    with pytest.raises(BadRateError):
        counterexample_constant(SPACE, lambda n: 0.3, 5)
    with pytest.raises(BadRateError):
        counterexample_constant(SPACE, "1/sqrt(n)", 5)  # unknown name
    with pytest.raises(BadRateError):
        counterexample_constant(SPACE, lambda n: 2.0 / n, 5)  # leaves (0,1]
    with pytest.raises(BadRateError):
        counterexample_constant(SPACE, lambda n: 0.0, 1)  # not positive
    with pytest.raises(DomainError):
        counterexample_constant(SPACE, "1/n", 0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, -1.0, -5e-324, True, "3"])
def test_every_mode_rejects_a_bad_epsilon(epsilon):
    seq = constant_seq(10)
    with pytest.raises(DomainError):
        check_strict(UNIFORM, seq, epsilon)
    with pytest.raises(DomainError):
        check_in_capacity(UNIFORM, seq, epsilon=epsilon)
    with pytest.raises(DomainError):
        check_in_mean(MIN, UNIFORM, seq, epsilon)
    with pytest.raises(DomainError):
        theorem2_audit(MIN, UNIFORM, seq, epsilon=epsilon)


# entry point -> (argument name, call with the argument set to x), for every size or position a caller passes
INT_ARGUMENTS = {
    "check_strict": ("tail_start", lambda x: check_strict(UNIFORM, constant_seq(10), 0.5, x)),
    "check_in_capacity": ("tail_start", lambda x: check_in_capacity(UNIFORM, constant_seq(10), None, 0.5, x)),
    "check_in_mean": ("tail_start", lambda x: check_in_mean(MIN, UNIFORM, constant_seq(10), 0.5, x)),
    "theorem1_audit": ("tail_start", lambda x: theorem1_audit(UNIFORM, constant_seq(10), tail_start=x)),
    "random_audit-cases": ("cases", lambda x: random_audit(SPACE, BUILTINS, x, 1)),
    "random_audit-horizon": ("horizon", lambda x: random_audit(SPACE, BUILTINS, 1, 1, horizon=x)),
    "random_strict_sequence-horizon": (
        "horizon", lambda x: random_strict_sequence(SPACE, UNIFORM, x, np.random.default_rng(1))
    ),
    "random_strict_sequence-vanish_at": (
        "vanish_at", lambda x: random_strict_sequence(SPACE, UNIFORM, 5, np.random.default_rng(1), vanish_at=x)
    ),
    "counterexample_constant": ("horizon", lambda x: counterexample_constant(SPACE, "1/n", x)),
    "default_t_grid": ("points", lambda x: default_t_grid(x)),
    "validate_semicopula": ("check_resolution", lambda x: validate_semicopula(MIN, x)),
    "from_function": ("resolution", lambda x: Semicopula.from_function(min, x)),
    "integrate_grid_oracle": (
        "grid_points", lambda x: integrate_grid_oracle(MIN, UNIFORM, MeasurableFn.constant(SPACE, 0.5), x)
    ),
    "measure": ("subset mask", lambda x: UNIFORM.measure(x)),
}


@pytest.mark.parametrize("bad", [2.5, True, "3"])
@pytest.mark.parametrize("name, call", INT_ARGUMENTS.values(), ids=INT_ARGUMENTS.keys())
def test_size_and_position_arguments_must_be_ints(name, call, bad):
    with pytest.raises(DomainError, match=f"^{name} must be an int, got {type(bad).__name__}$"):
        call(bad)
    call(np.int64(3))  # numpy integers are accepted


def test_a_numpy_tail_start_is_reported_as_an_int():
    report = check_strict(UNIFORM, constant_seq(10), 0.5, np.int64(3))
    assert type(report.tail_start) is int and report.tail_start == 3


def test_fn_sequence_validation():
    f = MeasurableFn.constant(SPACE, 0.5)
    with pytest.raises(DomainError):
        FnSequence(SPACE, (), f)
    with pytest.raises(DomainError, match="at least one term"):
        FnSequence(SPACE, (t for t in ()), f)
    seq = FnSequence(SPACE, (t for t in [f, f]), f)
    assert seq.terms == (f, f) and check_strict(UNIFORM, seq, 0.0).verdict == "pass"
    other = MeasurableFn.constant(FiniteSpace(3), 0.5)
    with pytest.raises(SpaceMismatchError):
        FnSequence(SPACE, (f,), other)


def test_random_strict_sequence_vanishes_exactly():
    rng = np.random.default_rng(11)
    c = random_capacity(SPACE, rng)
    seq = random_strict_sequence(SPACE, c, 16, rng, vanish_at=9)
    for term in seq.terms[8:]:
        assert np.array_equal(term.values, seq.limit.values)
    assert check_strict(c, seq, 0.0, tail_start=9).verdict == "pass"


# ---------------------------------------------------------------------------
# implication audits


def test_theorem1_audit_on_counterexample_shows_gap():
    report = theorem1_audit(
        UNIFORM, constant_seq(100), t_grid=[0.1, 0.5, 1.0], epsilon=0.0, tail_start=11
    )
    assert report.hypothesis.verdict == "fail"
    assert report.conclusion.verdict == "pass"
    assert report.consistent and not report.violation
    assert "consistent" in report.summary


def test_theorem2_audit_on_counterexample_shows_gap():
    for s in BUILTINS:
        report = theorem2_audit(s, UNIFORM, constant_seq(100), epsilon=1.0 / 51, tail_start=51)
        assert report.hypothesis.verdict == "fail"
        assert report.conclusion.verdict == "pass"
        assert report.consistent and not report.violation


def test_audits_on_stationary_sequence_pass_both_sides():
    seq = stationary_seq()
    r1 = theorem1_audit(UNIFORM, seq, epsilon=0.0)
    r2 = theorem2_audit(MIN, UNIFORM, seq, epsilon=0.0)
    for r in (r1, r2):
        assert r.hypothesis.verdict == "pass" and r.conclusion.verdict == "pass"
        assert r.consistent and not r.violation


def test_random_audits_consistent_small_batch():
    batches = random_audit(FiniteSpace(5), BUILTINS, 100, seed=42, horizon=20)
    assert len(batches) == 100
    for batch in batches:
        assert len(batch) == 1 + len(BUILTINS)
        for report in batch:
            assert not report.violation
            assert "VIOLATION" not in report.summary


def test_random_audit_runs_check_strict_once_per_case(monkeypatch):
    import semint.convergence as conv

    want = []
    rng = np.random.default_rng(9)
    for _ in range(3):
        c = random_capacity(FiniteSpace(4), rng)
        seq = random_strict_sequence(FiniteSpace(4), c, 12, rng)
        reports = (theorem1_audit(c, seq),) + tuple(theorem2_audit(s, c, seq) for s in BUILTINS)
        want.append([r.to_json_dict() for r in reports])

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return check_strict(*args, **kwargs)

    monkeypatch.setattr(conv, "check_strict", counted)
    batches = random_audit(FiniteSpace(4), BUILTINS, 3, seed=9, horizon=12)
    assert len(calls) == 3
    assert [[r.to_json_dict() for r in batch] for batch in batches] == want
    theorem1_audit(UNIFORM, stationary_seq())
    theorem2_audit(MIN, UNIFORM, stationary_seq())
    assert len(calls) == 5  # two distinct sequences run their own checks


def test_a_sequence_keeps_its_last_strict_hypothesis(monkeypatch):
    import semint.convergence as conv

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return check_strict(*args, **kwargs)

    monkeypatch.setattr(conv, "check_strict", counted)
    rng = np.random.default_rng(44)
    c = random_capacity(SPACE, rng)
    other = random_capacity(SPACE, rng)
    seq = random_strict_sequence(SPACE, c, 12, rng)
    reports = [theorem1_audit(c, seq)] + [theorem2_audit(s, c, seq) for s in BUILTINS]
    assert len(calls) == 1
    want = check_strict(c, FnSequence(SPACE, seq.terms, seq.limit))
    assert all(r.hypothesis is reports[0].hypothesis for r in reports) and reports[0].hypothesis == want
    # a new capacity, epsilon or tail_start runs its own check; the sequence keeps only the last one
    keys = [
        (other, DEFAULT_EPSILON, None),
        (other, 0.0, None),
        (other, -0.0, None),
        (other, 0, None),
        (other, 0, 7),
        (c, DEFAULT_EPSILON, None),
    ]
    for k, (cap, epsilon, tail_start) in enumerate(keys, start=2):
        hyp = theorem2_audit(MIN, cap, seq, epsilon=epsilon, tail_start=tail_start).hypothesis
        assert theorem1_audit(cap, seq, epsilon=epsilon, tail_start=tail_start).hypothesis is hyp
        assert len(calls) == k
        fresh = check_strict(cap, FnSequence(SPACE, seq.terms, seq.limit), epsilon, tail_start)
        assert hyp == fresh and repr(hyp.epsilon) == repr(epsilon)  # -0.0 and 0 stay as given


def test_random_audit_rejects_negative_cases():
    with pytest.raises(DomainError):
        random_audit(SPACE, BUILTINS, -1, seed=0)
    assert random_audit(SPACE, BUILTINS, 0, seed=0) == []


def test_audit_json_shape():
    doc = theorem1_audit(UNIFORM, stationary_seq(), epsilon=0.0).to_json_dict()
    assert doc["theorem"] == 1 and doc["consistent"] is True
    assert doc["hypothesis"]["mode"] == "strict"
    assert doc["conclusion"]["mode"] == "in-capacity"


# ---------------------------------------------------------------------------
# the inequalities behind the one-way implications, asserted on truncations


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_strict_bounds_in_capacity_termwise(seed):
    rng = np.random.default_rng(seed)
    c = random_capacity(SPACE, rng)
    seq = random_strict_sequence(SPACE, c, 12, rng)
    grid = np.linspace(0.01, 1.0, 25)
    for term in seq.terms:
        r = residual(term, seq.limit)
        strict_mass = c.measure(
            sum(1 << i for i, v in enumerate(r.values.tolist()) if v > 0.0)
        )
        for t in grid:
            assert survival(c, r, float(t)) <= strict_mass


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_strict_pass_forces_in_capacity_pass_at_zero(seed):
    rng = np.random.default_rng(seed)
    c = random_capacity(SPACE, rng)
    seq = random_strict_sequence(SPACE, c, 12, rng)
    ts = default_tail_start(seq.horizon)
    if check_strict(c, seq, 0.0, ts).verdict == "pass":
        grid = rng.random(10) * 0.99 + 0.01
        assert check_in_capacity(c, seq, grid, 0.0, ts).verdict == "pass"


@given(st.integers(min_value=0, max_value=2**31), st.data())
@settings(max_examples=25, deadline=None)
def test_integral_below_split_of_min_form(seed, data):
    """I_S(mu,r) never exceeds the split bound max(t0, mu({r >= t0})) of the minimum form."""
    rng = np.random.default_rng(seed)
    c = random_capacity(SPACE, rng)
    values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    r = MeasurableFn(SPACE, values)
    min_form = sugeno(c, r).value
    for s in BUILTINS:
        assert integrate(s, c, r).value <= min_form + 1e-15
    for t0 in np.linspace(0.05, 1.0, 20):
        assert min_form <= max(float(t0), survival(c, r, float(t0))) + 1e-15


def test_counterexample_facts_over_random_capacities():
    seq = constant_seq(100)
    grid = default_t_grid()
    for seed in range(5):
        c = random_capacity(SPACE, np.random.default_rng(seed))
        strict = check_strict(c, seq)
        assert all(v == 1.0 for v in strict.per_n)
        for n, term in enumerate(seq.terms, start=1):
            a_n = 1.0 / n
            for t in grid[:: 20]:
                expected = 1.0 if a_n >= t else 0.0
                assert survival(c, residual(term, seq.limit), float(t)) == expected
        for s in BUILTINS:
            per_n = check_in_mean(s, c, seq).per_n
            assert per_n == tuple(1.0 / n for n in range(1, 101))


def test_epsilon_default_is_tight():
    assert DEFAULT_EPSILON == 1e-9
