import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import (
    BUILTINS,
    DEFAULT_EPSILON,
    MAX_CASES,
    MAX_GRID_POINTS,
    MAX_HORIZON,
    MAX_RESOLUTION,
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
import semint
from semint import convergence as conv
from semint import integral

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


@pytest.mark.parametrize(
    "grid", [[[0.5], [0.5, 0.1]], ["a", "b"], ["0.5"], [{}]], ids=["ragged", "text", "numeric-text", "object"]
)
def test_in_capacity_locates_a_grid_that_is_not_a_list_of_numbers(grid):
    with pytest.raises(BadGridError, match="t_grid must be a nonempty 1-d list of thresholds"):
        check_in_capacity(UNIFORM, stationary_seq(), grid)


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


def test_residual_matrix_is_built_once_shared_and_read_only():
    rng = np.random.default_rng(44)
    space = FiniteSpace(5)
    seq = special_seq(space, 12, rng)
    before = repr(seq)
    matrix = seq.residual_matrix()
    assert seq.residual_matrix() is matrix
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 0] = 0.5
    assert repr(seq) == before and "_matrix" not in before
    for k, r in enumerate(seq._residuals):  # each residual keeps its row of the matrix, not a copy
        assert r.values.base is matrix and np.shares_memory(r.values, matrix[k])
        with pytest.raises(ValueError):
            r.values[0] = 0.5
    check_strict(random_capacity(space, rng), seq)
    assert seq.residual_matrix() is matrix


def scalar_integral(s: Semicopula, c: Capacity, values: list[float]) -> float:
    """The integral from its definition at the candidates, one point at a time: each distinct value v, in
    ascending order (a set keeps the first of -0.0 and 0.0 in index order), against mu({r >= v})."""
    best = -1.0
    for v in sorted(set(values)):
        mask = sum(1 << i for i, x in enumerate(values) if x >= v)
        best = max(best, s.evaluate(v, c.table.item(mask)))
    return best


@pytest.mark.parametrize("block", [1, 3, conv._CHAIN_BLOCK_ROWS])
def test_in_mean_over_batched_chains_matches_scalar_integrals_bit_for_bit(monkeypatch, block):
    monkeypatch.setattr(conv, "_CHAIN_BLOCK_ROWS", block)
    rng = np.random.default_rng(45)
    space = FiniteSpace(6)
    c = random_capacity(space, rng)
    assert IN_MEAN_KINDS[-1].kind == "table"
    for horizon in (1, 2, 7, 40):
        seq = special_seq(space, horizon, rng)
        rows = np.abs(np.stack([t.values for t in seq.terms]) - seq.limit.values).tolist()
        for s in IN_MEAN_KINDS:
            got = check_in_mean(s, c, seq, 0.0).per_n
            want = [scalar_integral(s, c, row) for row in rows]
            assert [v.hex() for v in got] == [v.hex() for v in want], (block, horizon, s.kind)


def test_construction_builds_every_chain_in_one_kernel_call_per_block_and_the_checks_none(monkeypatch):
    monkeypatch.setattr(conv, "_CHAIN_BLOCK_ROWS", 4)
    blocks = []
    kernel = conv._level_chains
    monkeypatch.setattr(conv, "_level_chains", lambda rows: blocks.append(rows.shape[0]) or kernel(rows))
    one_row = []
    monkeypatch.setattr(integral, "_level_chains", lambda rows: one_row.append(rows) or kernel(rows))
    rng = np.random.default_rng(46)
    space = FiniteSpace(5)
    caps = (random_capacity(space, rng), random_capacity(space, rng))
    seq = special_seq(space, 10, rng)
    assert blocks == [4, 4, 2]
    assert all(r._chain is not None for r in seq._residuals)
    check_strict(caps[0], seq)
    check_in_capacity(caps[0], seq)
    for c in caps:
        for s in IN_MEAN_KINDS:
            check_in_mean(s, c, seq)
    theorem2_audit(MIN, caps[1], seq)
    assert blocks == [4, 4, 2]
    assert one_row == []  # integrate found every chain built


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
    "FiniteSpace": ("space size", lambda x: FiniteSpace(x)),
    "random_audit-seed": ("seed", lambda x: random_audit(SPACE, BUILTINS, 1, x)),
    "default_tail_start": ("horizon", lambda x: default_tail_start(x)),
    "MeasurableFn.indicator": ("subset mask", lambda x: MeasurableFn.indicator(SPACE, x)),
    "ValidationReport.to_json_dict": ("max_listed", lambda x: validate_semicopula(MIN, 2).to_json_dict(x)),
    "theorem2_audit": ("tail_start", lambda x: theorem2_audit(MIN, UNIFORM, constant_seq(10), tail_start=x)),
    "FiniteSpace.check_mask": ("subset mask", lambda x: SPACE.check_mask(x)),
}


def exported_int_parameters() -> set[str]:
    """``function(parameter)`` for each parameter annotated ``int`` or ``int | None`` in semint's exported callables.

    Exported functions and the public methods of exported classes count; a
    dataclass's generated ``__init__`` (its fields) and the constructors of
    the exceptions semint raises do not.
    """
    found = set()
    for export in semint.__all__:
        obj = getattr(semint, export)
        if inspect.isfunction(obj):
            functions = [(export, obj)]
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            members = ((f"{export}.{k}", getattr(v, "__func__", v)) for k, v in vars(obj).items() if k[0] != "_")
            functions = [(name, f) for name, f in members if inspect.isfunction(f)]
        else:
            continue
        for name, f in functions:
            for p in inspect.signature(f).parameters.values():
                if p.annotation in ("int", "int | None", int, int | None):
                    found.add(f"{name}({p.name})")
    return found


def covered_by(key: str, parameter: str) -> bool:
    """Whether ``INT_ARGUMENTS[key]`` covers ``parameter``, a ``function(name)``.

    A key is a function, by its exported name or its last dotted part, and
    then ``-name``, or nothing when the function has one int parameter.
    """
    function, name = parameter[:-1].split("(")
    key_function, _, key_name = key.partition("-")
    if key_function not in (function, function.rsplit(".", 1)[-1]):
        return False
    return key_name == name or not key_name and sum(p.startswith(f"{function}(") for p in EXPORTED_INTS) == 1


EXPORTED_INTS = exported_int_parameters()


def test_every_exported_int_parameter_has_an_int_arguments_entry():
    assert {"random_audit(seed)", "ValidationReport.to_json_dict(max_listed)", "Capacity.measure(mask)"} <= EXPORTED_INTS
    missing = {p for p in EXPORTED_INTS if not any(covered_by(key, p) for key in INT_ARGUMENTS)}
    assert not missing, f"no INT_ARGUMENTS entry for {sorted(missing)}"


@pytest.mark.parametrize("bad", [2.5, True, "3"])
@pytest.mark.parametrize("name, call", INT_ARGUMENTS.values(), ids=INT_ARGUMENTS.keys())
def test_size_and_position_arguments_must_be_ints(name, call, bad):
    with pytest.raises(DomainError, match=f"^{name} must be an int, got {type(bad).__name__}$"):
        call(bad)
    call(np.int64(3))  # numpy integers are accepted


def failing_report():
    return validate_semicopula(Semicopula.from_function(max, 2), 2)


# bounded argument -> (call with the argument set to x, a value at the bound, the value one past it, its message)
INT_BOUNDS = {
    "FiniteSpace-low": (FiniteSpace, 1, 0, "space size must be in 1..24, got 0"),
    "FiniteSpace-high": (FiniteSpace, 24, 25, "space size must be in 1..24, got 25"),
    "tail_start-low": (INT_ARGUMENTS["check_strict"][1], 1, 0, "tail_start must be in 1..10, got 0"),
    "tail_start-high": (INT_ARGUMENTS["check_strict"][1], 10, 11, "tail_start must be in 1..10, got 11"),
    "counterexample_constant": (
        INT_ARGUMENTS["counterexample_constant"][1], 1, 0, "horizon must be in 1..100000, got 0"
    ),
    "random_strict_sequence": (
        INT_ARGUMENTS["random_strict_sequence-horizon"][1], 1, 0, "horizon must be in 1..100000, got 0"
    ),
    "random_audit-cases": (lambda x: random_audit(SPACE, BUILTINS, x, 1), 0, -1, "cases must be in 0..10000, got -1"),
    "random_audit-seed": (lambda x: random_audit(SPACE, BUILTINS, 1, x), 0, -1, "seed must be >= 0, got -1"),
    "random_audit-horizon": (
        lambda x: random_audit(SPACE, BUILTINS, 1, 1, horizon=x), 1, 0, "horizon must be in 1..100000, got 0"
    ),
    "default_t_grid": (default_t_grid, 0, -1, "points must be in 0..100000000, got -1"),
    "default_tail_start": (default_tail_start, 1, 0, "horizon must be >= 1, got 0"),
    "integrate_grid_oracle": (
        lambda x: integrate_grid_oracle(MIN, UNIFORM, MeasurableFn.constant(SPACE, 0.5), x), 2, 1,
        "grid_points must be in 2..100000000, got 1",
    ),
    "from_function": (lambda x: Semicopula.from_function(min, x), 1, 0, "resolution must be in 1..4096, got 0"),
    "validate_semicopula": (lambda x: validate_semicopula(MIN, x), 2, 1, "check_resolution must be in 2..4096, got 1"),
    "to_json_dict": (lambda x: failing_report().to_json_dict(x), 0, -1, "max_listed must be >= 0, got -1"),
    "check_mask-low": (SPACE.check_mask, 0, -1, "mask -0x1 has bits outside a 4-point space"),
    "check_mask-high": (SPACE.check_mask, 15, 16, "mask 0x10 has bits outside a 4-point space"),
}


@pytest.mark.parametrize("call, at_bound, past, message", INT_BOUNDS.values(), ids=INT_BOUNDS.keys())
def test_a_bounded_int_is_accepted_at_its_bound_and_refused_one_past_it(call, at_bound, past, message):
    call(at_bound)
    with pytest.raises(DomainError) as err:
        call(past)
    assert str(err.value) == message


@pytest.mark.parametrize("past", [MAX_HORIZON + 1, 2**63, 10**399])
@pytest.mark.parametrize("key", ["counterexample_constant", "random_strict_sequence-horizon", "random_audit-horizon"])
def test_a_generated_sequence_is_refused_past_the_horizon_cap_before_any_term_is_built(key, past):
    # at the cap itself each generator builds 10**5 terms, seconds of work, so only the refusal is run here
    with pytest.raises(DomainError) as err:
        INT_ARGUMENTS[key][1](past)
    assert str(err.value) == f"horizon must be in 1..100000, got {past}"


# INT_ARGUMENTS key of a grid size -> its range
GRID_BOUNDS = {
    "default_t_grid": (0, MAX_GRID_POINTS),
    "integrate_grid_oracle": (2, MAX_GRID_POINTS),
    "from_function": (1, MAX_RESOLUTION),
    "validate_semicopula": (2, MAX_RESOLUTION),
}


@pytest.mark.parametrize(
    "past", ["one-past", 2**63 - 1, 2**63, 10**399], ids=["one-past", "2**63-1", "2**63", "10**399"],
)
@pytest.mark.parametrize("key", GRID_BOUNDS)
def test_a_grid_size_is_refused_past_its_bound_before_the_grid_is_allocated(key, past):
    # at the bound itself a grid takes hundreds of MiB, so only the refusal is run here
    (name, call), (low, high) = INT_ARGUMENTS[key], GRID_BOUNDS[key]
    past = high + 1 if past == "one-past" else past
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as err:
            call(past)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{name} must be in {low}..{high}, got {past}"
    assert peak < 1 << 20


class _FirstCase(Exception):
    pass


@pytest.mark.parametrize("past", [MAX_CASES + 1, 2**63, 10**399])
def test_random_audit_accepts_max_cases_and_refuses_one_past_it_before_any_case_runs(monkeypatch, past):
    # the first case's capacity raises, so the bound is tested without running 10**4 cases
    def first_case(*args):
        raise _FirstCase

    monkeypatch.setattr(conv, "random_capacity", first_case)
    with pytest.raises(_FirstCase):
        random_audit(SPACE, BUILTINS, MAX_CASES, 1)
    with pytest.raises(DomainError) as err:
        random_audit(SPACE, BUILTINS, past, 1)
    assert str(err.value) == f"cases must be in 0..10000, got {past}"


def test_an_explicit_sequence_is_not_capped():
    f = MeasurableFn.constant(SPACE, 0.5)
    assert FnSequence(SPACE, (f,) * (MAX_HORIZON + 1), f).horizon == MAX_HORIZON + 1


def test_the_smallest_bounds_give_empty_results():
    assert default_t_grid(0).size == 0
    assert random_audit(SPACE, BUILTINS, 0, 0) == []
    report = failing_report()
    assert report.violations and report.to_json_dict(0)["violations"] == []
    assert len(report.to_json_dict(1)["violations"]) == 1


def test_random_audit_reads_a_generator_of_semicopulas_for_every_case():
    assert random_audit(SPACE, (s for s in BUILTINS), 3, 5) == random_audit(SPACE, BUILTINS, 3, 5)


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


@pytest.mark.parametrize(
    "t, t_grid, in_mean",
    [
        # S(0.8, 0.2) is 0 under Lukasiewicz only
        (0.8, None, {"min": "fail", "product": "fail", "prodmax": "fail", "lukasiewicz": "pass"}),
        # 5e-324 * 0.2 rounds to 0, so only min keeps the converse
        (5e-324, [5e-324], {"min": "fail", "product": "pass", "prodmax": "pass", "lukasiewicz": "pass"}),
    ],
)
def test_the_converse_of_claim_3_fails_where_s_of_the_smallest_threshold_and_mass_is_zero(t, t_grid, in_mean):
    # h = (t, 0, 0) has the smallest positive mass, 0.2, on its support: a sequence of h fails in capacity at
    # epsilon = 0 (survival 0.2 at every threshold up to t) and passes in mean exactly where S(t, 0.2) = 0
    space = FiniteSpace(3)
    c = Capacity.from_additive(space, [0.2, 0.3, 0.5])
    h = MeasurableFn(space, [t, 0.0, 0.0])
    seq = FnSequence(space, (h,) * 20, MeasurableFn.constant(space, 0.0))
    report = check_in_capacity(c, seq, t_grid, 0.0)
    assert (report.verdict, report.tail_sup) == ("fail", 0.2)
    assert {s.kind: check_in_mean(s, c, seq, 0.0).verdict for s in BUILTINS} == in_mean


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


@given(st.integers(1, 7), st.integers(1, 12), st.integers(1, 8), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_each_term_of_the_three_modes_obeys_the_dominance_bounds(n, horizon, grid_points, seed):
    """Per term k, with residual h and t_1 the smallest grid threshold, exactly for the builtins (S <= min):
    I_S(mu, h) <= mu({h > 0}), mu({h >= t_1}) <= mu({h > 0}) and I_S(mu, h) <= max(t_1, mu({h >= t_1}))."""
    rng = np.random.default_rng(seed)
    space = FiniteSpace(n)
    c = random_capacity(space, rng)
    # terms and limit in [0,1], a third of their values on a few points that the grid may also hold, so that
    # residuals tie with each other and with thresholds; the tails are not zero
    values = rng.random((horizon + 1, n))
    ties = rng.random(values.shape) < 0.3
    values[ties] = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], ties.sum())
    seq = FnSequence(space, tuple(MeasurableFn(space, row) for row in values[1:]), MeasurableFn(space, values[0]))
    grid = 1.0 - rng.random(grid_points)  # in (0, 1]
    grid[rng.random(grid_points) < 0.3] = 0.25
    t_1 = float(grid.min())
    strict = check_strict(c, seq).per_n
    in_capacity = check_in_capacity(c, seq, grid).per_n
    for s in BUILTINS:
        in_mean = check_in_mean(s, c, seq).per_n
        for k in range(horizon):
            assert in_mean[k] <= strict[k], (s.kind, k)
            assert in_mean[k] <= max(t_1, in_capacity[k]), (s.kind, k)
    for k in range(horizon):
        assert in_capacity[k] <= strict[k], k


@pytest.mark.parametrize(
    "hyp, concl, summary",
    [
        ("pass", "fail", "CONSISTENCY VIOLATION: strict=pass, in-mean=fail"),
        ("fail", "pass", "consistent: strict=fail, in-mean=pass (conclusion holds without the hypothesis)"),
        ("pass", "pass", "consistent: strict=pass, in-mean=pass"),
        ("pass", "inconclusive", "consistent: strict=pass, in-mean=inconclusive"),
    ],
)
def test_implication_report_flags_only_a_passed_hypothesis_with_a_failed_conclusion(hyp, concl, summary):
    def report(mode, verdict):
        return conv.ConvergenceReport(mode, verdict, 1, 0.0, 1, 0.5, 0.5, (0.5,))

    r = conv._implication_report(2, report("strict", hyp), report("in-mean", concl))
    assert r.summary == summary
    assert r.violation is summary.startswith("CONSISTENCY VIOLATION") and r.consistent is not r.violation
    assert r.to_json_dict()["summary"] == summary and r.to_json_dict()["violation"] is r.violation


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


# ---------------------------------------------------------------------------
# survival values, a block of rows at a time


def signed_zero_capacity(space: FiniteSpace, rng: np.random.Generator) -> Capacity:
    """An additive capacity with zero weight on points 0 and 1, whose zero entries mix 0.0 and -0.0."""
    w = np.concatenate(([0.0, 0.0], rng.random(space.size - 2) + 0.1))
    table = Capacity.from_additive(space, w / w.sum()).table.copy()
    table[:4] = [0.0, -0.0, 0.0, -0.0]
    return Capacity(space, table)


def ref_survival(c: Capacity, seq: FnSequence, grid, tail_start: int) -> tuple:
    """The survival values from one gather over every row, as _survival computed them before it was blocked."""
    surv = c.table[conv._level_masks(seq.residual_matrix(), grid)]
    per_n = surv[:, int(np.argmin(grid))]
    return tuple(v.hex() for v in per_n.tolist()), tuple(v.hex() for v in surv[tail_start - 1 :].max(axis=0).tolist())


@pytest.mark.parametrize("cells", [1, 5, 64, conv._SURVIVAL_BLOCK_CELLS])
def test_survival_blocks_match_one_gather_bit_for_bit(monkeypatch, cells):
    monkeypatch.setattr(conv, "_SURVIVAL_BLOCK_CELLS", cells)
    rng = np.random.default_rng(51)
    space = FiniteSpace(5)
    for c in (random_capacity(space, rng), signed_zero_capacity(space, rng)):
        seq = special_seq(space, 23, rng)
        # last, 9 residuals on points 0 and 1 only: under the second capacity, masks {0}, {1}, {0, 1}
        # and {} weigh -0.0, 0.0, -0.0 and 0.0, so a tail of these rows ties 0.0 with -0.0 in turn
        limit = seq.limit.values.copy()
        limit[:2] = 0.0
        values = np.tile(limit, (9, 1))
        values[:, :2] = [[0.75, 0.0], [0.0, 0.75], [0.75, 0.75], [0.0, 0.0]] * 2 + [[0.75, 0.0]]
        terms = seq.terms + tuple(MeasurableFn(space, row) for row in values)
        seq = FnSequence(space, terms, MeasurableFn(space, limit))
        for grid in ([conv._SMALLEST_POSITIVE], [0.5, 0.01, 1.0, 0.25], default_t_grid()):
            for tail_start in (1, 2, 12, 24, 26, seq.horizon - 1, seq.horizon):
                per_n, tail_sups = conv._survival(c, seq, grid, tail_start)
                got = tuple(v.hex() for v in per_n.tolist()), tuple(v.hex() for v in tail_sups.tolist())
                assert got == ref_survival(c, seq, grid, tail_start), (cells, grid, tail_start)


@pytest.mark.parametrize("cells, tail_start", [(20, 8), (20, 11), (3, 2), (1, 23), (21, 8), (64, 23)])
def test_survival_reads_the_head_at_the_smallest_threshold_alone_when_that_saves_a_block(monkeypatch, cells, tail_start):
    # with 4 thresholds a block of 20 cells is 5 rows, so a block of the full grid at rows 5..9 would straddle
    # tail start 8; there the 7 head rows save 7 * 3 = 21 cells, which is a block, and go 20 at a time at one
    # threshold, the tail 5 at a time at all 4; with blocks of 21 or 64 cells no block is saved, and every row
    # goes at all 4 thresholds
    monkeypatch.setattr(conv, "_SURVIVAL_BLOCK_CELLS", cells)
    rng = np.random.default_rng(54)
    space = FiniteSpace(5)
    c = random_capacity(space, rng)
    seq = special_seq(space, 23, rng)
    grid = [0.5, 0.01, 1.0, 0.25]
    want = ref_survival(c, seq, grid, tail_start)
    calls = []
    level_masks = conv._level_masks
    monkeypatch.setattr(conv, "_level_masks", lambda rows, t: calls.append((len(rows), len(t))) or level_masks(rows, t))
    per_n, tail_sups = conv._survival(c, seq, grid, tail_start)
    got = tuple(v.hex() for v in per_n.tolist()), tuple(v.hex() for v in tail_sups.tolist())
    assert got == want
    head = tail_start - 1 if (tail_start - 1) * 3 >= cells else 0
    assert sum(rows for rows, g in calls if g == 1) == head
    assert sum(rows for rows, g in calls if g == 4) == seq.horizon - head
    assert all(rows * g <= max(cells, g) for rows, g in calls)
    report = check_in_capacity(c, seq, grid, tail_start=tail_start)
    assert [v.hex() for v in report.per_n] == list(got[0])


def test_check_in_capacity_peak_memory_is_bounded_by_one_block():
    rng = np.random.default_rng(52)
    space = FiniteSpace(16)
    c = random_capacity(space, rng)
    rows = rng.random((4001, space.size))
    seq = FnSequence(space, tuple(MeasurableFn(space, row) for row in rows[1:]), MeasurableFn(space, rows[0]))
    grid = np.logspace(-4.0, 0.0, 128)
    check_strict(c, seq)  # the residuals, built once and kept by the sequence, are not the check's memory
    tracemalloc.start()
    try:
        check_in_capacity(c, seq, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20  # one gather over every row peaked at 9.3 MiB


def test_construction_peak_memory_is_what_the_sequence_keeps_plus_one_chain_block():
    rng = np.random.default_rng(53)
    space = FiniteSpace(16)
    rows = rng.random((4001, space.size))
    terms, limit = tuple(MeasurableFn(space, row) for row in rows[1:]), MeasurableFn(space, rows[0])
    tracemalloc.start()
    try:
        seq = FnSequence(space, terms, limit)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seq.horizon == 4000
    # the sequence keeps about 3.0 MiB: 4000 residuals, each with its chain and a view of its row, and the
    # 0.5 MiB matrix; blocks of 1024 rows peaked at 3.5 MiB, of 2048 at 3.9 and one block of every row at 5.1
    assert kept > 2.5 * 2**20 and peak < 3.8 * 2**20
