"""Convergence modes for sequences of [0,1]-valued functions, as tail verdicts on truncations.

Three modes are checked for a truncated sequence (f_n) with limit candidate f:

* in capacity:   mu({|f_n - f| >= t}) -> 0 for every t in (0, 1]
* strictly:      mu({|f_n - f| > 0}) -> 0
* in mean:       the seminormed integral of |f_n - f| -> 0

A sequence computes its residuals |f_n - f| once, on its first check of any
mode, and keeps them: every later check on the same sequence (one in-mean
check per semicopula, say) reads the same residual functions.  The audits
share their strict hypothesis the same way: a sequence keeps the last one it
was audited under, keyed by (capacity, epsilon, tail_start).

A limit over n is not machine-checkable, so a verdict here means: beyond
``tail_start`` the witnessed quantity stays within ``epsilon`` over the
available horizon.  Reports carry (horizon, epsilon, tail_start) and the full
witness data so the approximation is auditable.  When the tail still exceeds
epsilon but the final term has already dropped below epsilon/10, the verdict
is ``inconclusive`` rather than ``fail``: the horizon is too short to
distinguish slow convergence from divergence, and a hard fail would raise
false alarms in the implication audits.

The quantifier "for every t in (0,1]" is discharged through a finite grid.
Level sets are nested, so among grid points the smallest t is the binding
one; the full grid is still computed and reported.  The default grid has 100
log-spaced points because failures concentrate at small thresholds.

Strict convergence is the in-capacity survival at the single threshold
``t = nextafter(0, 1)``, the smallest positive double: residuals are >= 0,
so ``{r > 0} = {r >= 5e-324}`` exactly.  Both modes therefore share one
survival kernel, and all three share one report builder.

Two one-way implications hold between the modes and are exercised by the
audit helpers: strict convergence forces convergence in capacity (claim 1),
and strict convergence forces mean convergence for every semicopula
(claim 2).  Neither converse holds; ``counterexample_constant`` builds the
constant-value sequences witnessing both gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from semint.capacity import Capacity, FiniteSpace, random_capacity
from semint.errors import BadGridError, BadRateError, DomainError, _checked_int
from semint.integral import integrate
from semint.measurable import _SMALLEST_POSITIVE, MeasurableFn, _level_masks, _require_same_space, residual
from semint.semicopula import Semicopula

DEFAULT_EPSILON = 1e-9
DEFAULT_T_GRID_SIZE = 100

MODE_IN_CAPACITY = "in-capacity"
MODE_STRICT = "strict"
MODE_IN_MEAN = "in-mean"


def default_t_grid(points: int = DEFAULT_T_GRID_SIZE) -> np.ndarray:
    """Log-spaced thresholds over [0.01, 1], dense near the small end."""
    return np.logspace(-2.0, 0.0, _checked_int(points, "points"))


def default_tail_start(horizon: int) -> int:
    return (horizon + 1) // 2


@dataclass(frozen=True, slots=True, eq=False)
class FnSequence:
    """A finite truncation of a function sequence plus its limit candidate."""

    space: FiniteSpace
    terms: tuple[MeasurableFn, ...]
    limit: MeasurableFn
    provenance: str = ""
    # |f_n - f| per term, built on first use by _residuals and read by every check, and the audits'
    # last strict hypothesis, ((capacity, epsilon, tail_start), report), set by _strict_hypothesis;
    # threads racing on one sequence each use the entry they built, and any of them may be kept
    _residuals: tuple[MeasurableFn, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _hypothesis: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise DomainError("sequence needs at least one term")
        for term in self.terms:
            _require_same_space(term, self.limit)
        _require_same_space(self.limit, self)

    @property
    def horizon(self) -> int:
        return len(self.terms)

    def residual_matrix(self) -> np.ndarray:
        """|f_n - f| stacked row per term, shape (horizon, space.size)."""
        return np.stack([r.values for r in _residuals(self)])


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    """Verdict for one mode, with the witness data behind it.

    ``per_n`` holds the witnessed quantity for n = 1..horizon (for the
    in-capacity mode: the survival values at the smallest grid threshold).
    ``per_t`` is only present for the in-capacity mode and pairs each grid
    threshold with its tail supremum.
    """

    mode: str
    verdict: str
    horizon: int
    epsilon: float
    tail_start: int
    tail_sup: float
    final_value: float
    per_n: tuple[float, ...]
    per_t: tuple[tuple[float, float], ...] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "verdict": self.verdict,
            "horizon": self.horizon,
            "epsilon": self.epsilon,
            "tail_start": self.tail_start,
            "tail_sup": self.tail_sup,
            "final_value": self.final_value,
            "witnesses_by_n": list(self.per_n),
        }
        if self.per_t is not None:
            out["witnesses_by_t"] = [{"t": t, "tail_sup": s} for t, s in self.per_t]
        return out


def _tail_start(horizon: int, tail_start: int | None) -> int:
    """``tail_start``, defaulted, and checked to lie in 1..horizon."""
    if tail_start is None:
        return default_tail_start(horizon)
    tail_start = _checked_int(tail_start, "tail_start")
    if not 1 <= tail_start <= horizon:
        raise DomainError(f"tail_start must be in 1..{horizon}, got {tail_start}")
    return tail_start


def _checked_tail_start(c: Capacity, seq: FnSequence, epsilon: float, tail_start: int | None) -> int:
    """The entry check every mode shares; returns tail_start, defaulted."""
    _require_same_space(c, seq)
    if isinstance(epsilon, bool) or not (isinstance(epsilon, Real) and math.isfinite(epsilon) and epsilon >= 0.0):
        raise DomainError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    return _tail_start(seq.horizon, tail_start)


def _survival(c: Capacity, seq: FnSequence, grid, tail_start: int) -> tuple[np.ndarray, np.ndarray]:
    """mu({|f_n - f| >= t}) per term at the smallest grid threshold, and each threshold's tail supremum."""
    surv = c.table[_level_masks(seq.residual_matrix(), grid)]
    return surv[:, int(np.argmin(grid))], surv[tail_start - 1 :].max(axis=0)


def _residuals(seq: FnSequence) -> tuple[MeasurableFn, ...]:
    """The residuals |f_n - f| of ``seq``, one ``residual`` call per term over the sequence's life."""
    if seq._residuals is None:
        object.__setattr__(seq, "_residuals", tuple(residual(term, seq.limit) for term in seq.terms))
    return seq._residuals


def _report(
    mode: str, seq: FnSequence, epsilon: float, tail_start: int, per_n, tail_sup: float, per_t=None
) -> ConvergenceReport:
    """The report on witnesses ``per_n`` with tail supremum ``tail_sup``, under the module's verdict rule."""
    per_n = tuple(map(float, per_n))
    tail_sup = float(tail_sup)
    if tail_sup <= epsilon:
        verdict = "pass"
    elif per_n[-1] <= epsilon / 10.0:
        verdict = "inconclusive"
    else:
        verdict = "fail"
    return ConvergenceReport(mode, verdict, seq.horizon, epsilon, tail_start, tail_sup, per_n[-1], per_n, per_t)


def check_in_capacity(
    c: Capacity,
    seq: FnSequence,
    t_grid: Sequence[float] | np.ndarray | None = None,
    epsilon: float = DEFAULT_EPSILON,
    tail_start: int | None = None,
) -> ConvergenceReport:
    """Tail check of mu({|f_n - f| >= t}) over a threshold grid in (0, 1]."""
    tail_start = _checked_tail_start(c, seq, epsilon, tail_start)
    grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise BadGridError("t_grid must be a nonempty 1-d list of thresholds")
    if np.any(~((grid > 0.0) & (grid <= 1.0))):
        raise BadGridError("t_grid entries must lie in (0, 1]")
    per_n, tail_sups = _survival(c, seq, grid, tail_start)
    per_t = tuple(zip(grid.tolist(), tail_sups.tolist()))
    return _report(MODE_IN_CAPACITY, seq, epsilon, tail_start, per_n, tail_sups.max(), per_t)


def check_strict(
    c: Capacity,
    seq: FnSequence,
    epsilon: float = DEFAULT_EPSILON,
    tail_start: int | None = None,
) -> ConvergenceReport:
    """Tail check of mu({|f_n - f| > 0}): the in-capacity check at the one threshold _SMALLEST_POSITIVE."""
    tail_start = _checked_tail_start(c, seq, epsilon, tail_start)
    per_n, tail_sups = _survival(c, seq, [_SMALLEST_POSITIVE], tail_start)
    return _report(MODE_STRICT, seq, epsilon, tail_start, per_n, tail_sups.max())


def check_in_mean(
    s: Semicopula,
    c: Capacity,
    seq: FnSequence,
    epsilon: float = DEFAULT_EPSILON,
    tail_start: int | None = None,
) -> ConvergenceReport:
    """Tail check of the seminormed integral of |f_n - f|, over the residuals the sequence keeps."""
    tail_start = _checked_tail_start(c, seq, epsilon, tail_start)
    values = [integrate(s, c, r).value for r in _residuals(seq)]
    return _report(MODE_IN_MEAN, seq, epsilon, tail_start, values, max(values[tail_start - 1 :]))


@dataclass(frozen=True, slots=True)
class ImplicationReport:
    """Joint verdict of a hypothesis/conclusion mode pair for one implication claim.

    ``violation`` is True only when the hypothesis passed while the
    conclusion hard-failed; since both implications are proved facts, a
    violation can only mean a bug in this artifact (or a genuinely
    inconsistent epsilon/tail configuration), never new mathematics.
    """

    theorem: int
    hypothesis: ConvergenceReport
    conclusion: ConvergenceReport
    violation: bool
    consistent: bool
    summary: str

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypothesis": self.hypothesis.to_json_dict(),
            "conclusion": self.conclusion.to_json_dict(),
            "violation": self.violation,
            "consistent": self.consistent,
            "summary": self.summary,
        }


def _implication_report(theorem: int, hyp: ConvergenceReport, concl: ConvergenceReport) -> ImplicationReport:
    violation = hyp.verdict == "pass" and concl.verdict == "fail"
    pair = f"{hyp.mode}={hyp.verdict}, {concl.mode}={concl.verdict}"
    if violation:
        summary = f"CONSISTENCY VIOLATION: {pair}"
    elif hyp.verdict == "fail" and concl.verdict == "pass":
        summary = f"consistent: {pair} (conclusion holds without the hypothesis)"
    else:
        summary = f"consistent: {pair}"
    return ImplicationReport(theorem, hyp, concl, violation, not violation, summary)


def _strict_hypothesis(
    c: Capacity, seq: FnSequence, epsilon: float, tail_start: int | None
) -> ConvergenceReport:
    """The audits' shared hypothesis: check_strict, run once per (c, epsilon, tail_start) in a row on ``seq``."""
    # a Capacity compares by identity; repr tells -0.0 from 0.0 and 0 from 0.0, which the report keeps as given
    key = (c, repr(epsilon), repr(tail_start))
    entry = seq._hypothesis
    if entry is None or entry[0] != key:
        entry = (key, check_strict(c, seq, epsilon, tail_start))
        object.__setattr__(seq, "_hypothesis", entry)
    return entry[1]


def theorem1_audit(
    c: Capacity,
    seq: FnSequence,
    *,
    t_grid: Sequence[float] | np.ndarray | None = None,
    epsilon: float = DEFAULT_EPSILON,
    tail_start: int | None = None,
) -> ImplicationReport:
    """Audit claim 1: a strict-convergence pass must come with an in-capacity pass."""
    hyp = _strict_hypothesis(c, seq, epsilon, tail_start)
    concl = check_in_capacity(c, seq, t_grid, epsilon, tail_start)
    return _implication_report(1, hyp, concl)


def theorem2_audit(
    s: Semicopula,
    c: Capacity,
    seq: FnSequence,
    *,
    epsilon: float = DEFAULT_EPSILON,
    tail_start: int | None = None,
) -> ImplicationReport:
    """Audit claim 2: a strict-convergence pass must come with an in-mean pass."""
    hyp = _strict_hypothesis(c, seq, epsilon, tail_start)
    concl = check_in_mean(s, c, seq, epsilon, tail_start)
    return _implication_report(2, hyp, concl)


BUILTIN_RATES: dict[str, Callable[[int], float]] = {
    "1/n": lambda n: 1.0 / n,
    "1/2^n": lambda n: 0.5**n,
    "1/log(n+2)": lambda n: 1.0 / math.log(n + 2),
}


def counterexample_constant(
    space: FiniteSpace, rate: str | Callable[[int], float], horizon: int
) -> FnSequence:
    """The constant-value sequence separating the modes: f_n identically a_n, limit 0.

    Every point carries the value a_n, so the strict support is all of X for
    every n (strict convergence fails as badly as possible), while the
    integral of f_n collapses to S(a_n, 1) = a_n, which vanishes with the
    rate.  ``rate`` is a builtin name or a callable n -> a_n; the values must
    be in (0, 1] and strictly decreasing over the horizon, the finite stand-in
    for "positive and vanishing".
    """
    if _checked_int(horizon, "horizon") < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    if callable(rate):
        fn = rate
        label = getattr(rate, "__name__", "callable")
    else:
        try:
            fn = BUILTIN_RATES[rate]
        except KeyError:
            raise BadRateError(
                f"unknown rate {rate!r}; builtins: {', '.join(sorted(BUILTIN_RATES))}"
            ) from None
        label = rate
    values = [float(fn(n)) for n in range(1, horizon + 1)]
    for n, a in enumerate(values, start=1):
        if not 0.0 < a <= 1.0:
            raise BadRateError(f"a_{n} = {a!r} outside (0, 1]")
    for n in range(1, len(values)):
        if values[n] >= values[n - 1]:
            raise BadRateError(
                f"rate does not vanish over the horizon: a_{n} = {values[n - 1]!r} "
                f"<= a_{n + 1} = {values[n]!r}"
            )
    terms = tuple(MeasurableFn.constant(space, a) for a in values)
    limit = MeasurableFn.constant(space, 0.0)
    return FnSequence(space, terms, limit, provenance=f"constant a_n = {label}")


def random_strict_sequence(
    space: FiniteSpace,
    c: Capacity,
    horizon: int,
    rng: np.random.Generator,
    *,
    vanish_at: int | None = None,
) -> FnSequence:
    """Random sequence that converges strictly by construction.

    Terms differ from the limit only on a support chain that loses one point
    per step and is forced empty from term ``vanish_at`` on (default: the
    default tail start).  A general capacity has no null sets besides the
    empty set, so emptying the chain is what makes the strict hypothesis hold
    exactly rather than approximately.
    """
    if _checked_int(horizon, "horizon") < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    vanish_at = default_tail_start(horizon) if vanish_at is None else _checked_int(vanish_at, "vanish_at")
    limit_values = rng.random(space.size)
    limit = MeasurableFn(space, limit_values)
    support = int(rng.integers(0, space.num_subsets))
    terms = []
    for n in range(1, horizon + 1):
        if n >= vanish_at:
            support = 0
        values = limit_values.copy()
        if support:
            bits = [i for i in range(space.size) if support >> i & 1]
            values[bits] = rng.random(len(bits))
            support &= ~(1 << bits[int(rng.integers(0, len(bits)))])
        terms.append(MeasurableFn(space, values))
    return FnSequence(space, tuple(terms), limit, provenance="random shrinking-support sequence")


def random_audit(
    space: FiniteSpace,
    semicopulas: Sequence[Semicopula],
    cases: int,
    seed: int,
    *,
    horizon: int = 24,
) -> list[tuple[ImplicationReport, ...]]:
    """Run both implication audits over seeded random capacities and strict sequences.

    Returns one tuple per case: the claim-1 report followed by a claim-2
    report per semicopula.  All audits of a case share one strict-convergence
    hypothesis report, computed once.  Used by the CLI ``audit`` subcommand and the
    acceptance suite; a fixed seed makes the whole batch reproducible.
    """
    if _checked_int(cases, "cases") < 0:
        raise DomainError(f"cases must be >= 0, got {cases}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(cases):
        c = random_capacity(space, rng)
        seq = random_strict_sequence(space, c, horizon, rng)
        reports = [theorem1_audit(c, seq)]
        for s in semicopulas:
            reports.append(theorem2_audit(s, c, seq))
        out.append(tuple(reports))
    return out
