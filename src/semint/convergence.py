"""Convergence modes for sequences of [0,1]-valued functions, as tail verdicts on truncations.

Three modes are checked for a truncated sequence (f_n) with limit candidate f:

* in capacity:   mu({|f_n - f| >= t}) -> 0 for every t in (0, 1]
* strictly:      mu({|f_n - f| > 0}) -> 0
* in mean:       the seminormed integral of |f_n - f| -> 0

A sequence builds what its checks read once, at construction: its residuals
|f_n - f|, the read-only matrix of their values and every residual's level
chain, one batched ``integral._level_chains`` call per block of rows.  The
survival checks read the matrix and every in-mean check, under any
semicopula or capacity, reads the chains, so no check sorts a residual or
writes to the sequence.  The audits share their strict hypothesis through a
memo: a sequence keeps the last one it was audited under, keyed by
(capacity, epsilon, tail_start).

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
from typing import Callable, Sequence

import numpy as np

from semint.capacity import Capacity, FiniteSpace, random_capacity
from semint.errors import BadGridError, BadRateError, DomainError, _checked_int, _float, _float_array, _require_types
from semint.integral import _level_chains, integrate
from semint.measurable import _SMALLEST_POSITIVE, MeasurableFn, _level_masks, _require_same_space, residual
from semint.semicopula import Semicopula

DEFAULT_EPSILON = 1e-9
DEFAULT_T_GRID_SIZE = 100

# the generators' longest horizon, one term per step: 10**5 constant-rate steps take seconds and over 100 MiB
MAX_HORIZON = 100_000
# random_audit's most cases, since it keeps every report: at n = 4 and horizon 24 a case keeps about 20 KiB
# and takes about 1 ms, so a run at the bound keeps about 200 MiB and takes about 10 s
MAX_CASES = 10_000

MODE_IN_CAPACITY = "in-capacity"
MODE_STRICT = "strict"
MODE_IN_MEAN = "in-mean"


def default_t_grid(points: int = DEFAULT_T_GRID_SIZE) -> np.ndarray:
    """Log-spaced thresholds over [0.01, 1], dense near the small end."""
    return np.logspace(-2.0, 0.0, _checked_int(points, "points", 0))


def default_tail_start(horizon: int) -> int:
    return (_checked_int(horizon, "horizon", 1) + 1) // 2


def _as_tuple(values, name: str, item: type) -> tuple:
    """``values``, any iterable, as a tuple, else a ``DomainError`` naming ``name`` and the ``item`` type it holds."""
    try:
        items = iter(values)  # only this call is guarded: a TypeError a generator raises is not renamed
    except TypeError:
        raise DomainError(f"{name} must be an iterable of {item.__name__}, got {type(values).__name__}") from None
    return tuple(items)


# residual rows FnSequence.__post_init__ passes to _level_chains at once: a few 128 KiB temporaries at n = 16.
# At 4000 x 16 the chains took 1.9-2.5 ms in blocks of 512 to 2048 rows and 2.8-3.0 ms in one block, and
# building the sequence peaked at 3.2, 3.5, 3.9 and 5.1 MiB of tracemalloc in blocks of 512, 1024 and 2048
# rows and in one block (numpy 2.4, 2 vCPUs, best of 9)
_CHAIN_BLOCK_ROWS = 1024


@dataclass(frozen=True, slots=True, eq=False)
class FnSequence:
    """A finite truncation of a function sequence plus its limit candidate."""

    space: FiniteSpace
    terms: tuple[MeasurableFn, ...]
    limit: MeasurableFn
    provenance: str = ""
    # built by __post_init__ and read by every check: |f_n - f| per term, each with its level chain and
    # with its values a row of the read-only matrix; and the audits' last strict hypothesis,
    # ((capacity, epsilon, tail_start), report), set by _strict_hypothesis
    _residuals: tuple[MeasurableFn, ...] = field(init=False, repr=False, compare=False)
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _hypothesis: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Build the residuals, one ``residual`` call per term, their matrix, and their chains.

        Each residual then keeps its row of the matrix, a view, in place of
        its own copy, so the values are held once; the chains come from
        ``_level_chains`` over ``_CHAIN_BLOCK_ROWS`` rows at a time.  Only
        objects built here are written to.
        """
        object.__setattr__(self, "terms", _as_tuple(self.terms, "terms", MeasurableFn))
        if not self.terms:
            raise DomainError("sequence needs at least one term")
        _require_types(("space", self.space, FiniteSpace))
        if not all(isinstance(f, MeasurableFn) for f in (self.limit, *self.terms)):
            raise DomainError("sequence terms and limit must be MeasurableFn objects")
        residuals = tuple(residual(term, self.limit) for term in self.terms)  # checks each term's space
        _require_same_space(self.limit, self)
        matrix = np.stack([r.values for r in residuals])
        matrix.setflags(write=False)
        for r, row in zip(residuals, matrix):  # frees each residual's own copy before the chain blocks run
            object.__setattr__(r, "values", row)
        for k in range(0, len(residuals), _CHAIN_BLOCK_ROWS):
            block = residuals[k : k + _CHAIN_BLOCK_ROWS]
            for r, chain in zip(block, _level_chains(matrix[k : k + _CHAIN_BLOCK_ROWS])):
                object.__setattr__(r, "_chain", chain)
        object.__setattr__(self, "_residuals", residuals)
        object.__setattr__(self, "_matrix", matrix)

    @property
    def horizon(self) -> int:
        return len(self.terms)

    def residual_matrix(self) -> np.ndarray:
        """|f_n - f| stacked row per term, shape (horizon, space.size).

        The sequence builds this matrix once and returns the same read-only
        array on every call; each residual's ``values`` is a row of it.
        """
        return self._matrix


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
    return default_tail_start(horizon) if tail_start is None else _checked_int(tail_start, "tail_start", 1, horizon)


def _checked_entry(c: Capacity, seq: FnSequence, epsilon, tail_start: int | None) -> tuple[float, int]:
    """The modes' entry check: epsilon for the report (an int as given, else its float) and tail_start."""
    _require_types(("c", c, Capacity), ("seq", seq, FnSequence))
    _require_same_space(c, seq)
    value = _float(epsilon, "epsilon")
    if not 0.0 <= value < math.inf:
        raise DomainError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    return epsilon if isinstance(epsilon, int) else value, _tail_start(seq.horizon, tail_start)


# rows x thresholds cells _survival gathers at once: 256 KiB each for a block's masks and survival values,
# which stay in cache.  check_in_capacity at 4000 x 128 took 6.1 ms in blocks of 2**15 cells, 7.1-7.7 ms
# in blocks of 2**17 and 7.8-8.0 ms in one block (numpy 2.4, 2 vCPUs, best of 9)
_SURVIVAL_BLOCK_CELLS = 1 << 15


def _survival(c: Capacity, seq: FnSequence, grid, tail_start: int) -> tuple[np.ndarray, np.ndarray]:
    """mu({|f_n - f| >= t}) per term at the smallest grid threshold, and each threshold's tail supremum.

    When that saves at least a block of cells, the rows before the tail are
    read at the smallest threshold alone, the one ``per_n`` keeps, and only
    the tail rows at every threshold; below that, the extra ``_level_masks``
    call costs more than it saves (``check_strict`` at n = 6 and horizon 24
    took about 50 µs split against 30 µs whole), so every row is read at
    every threshold.  A level mask is exact whatever other thresholds go
    with it, so the values are the same either way.  Rows go
    ``_SURVIVAL_BLOCK_CELLS`` cells at a time (at least one row) through
    ``_level_masks`` and the table gather, so memory stays bounded by one
    block whatever the horizon.  A block's tail rows are reduced to their
    column maxima and folded into the running maxima in row order, as one
    reduction over the whole tail folds them, so the result is the same to
    the bit, the sign of a zero maximum included.
    """
    rows = seq.residual_matrix()
    smallest = int(np.argmin(grid))
    per_n = np.empty(rows.shape[0])
    head = tail_start - 1 if (tail_start - 1) * (len(grid) - 1) >= _SURVIVAL_BLOCK_CELLS else 0
    for r in range(0, head, _SURVIVAL_BLOCK_CELLS):
        end = min(r + _SURVIVAL_BLOCK_CELLS, head)
        per_n[r:end] = c.table[_level_masks(rows[r:end], grid[smallest : smallest + 1])][:, 0]
    step = max(1, _SURVIVAL_BLOCK_CELLS // len(grid))
    tail_sups = None
    for r in range(head, rows.shape[0], step):
        surv = c.table[_level_masks(rows[r : r + step], grid)]
        per_n[r : r + step] = surv[:, smallest]
        tail = surv[max(tail_start - 1 - r, 0) :]
        if tail.size:
            sups = tail.max(axis=0)
            tail_sups = sups if tail_sups is None else np.maximum(tail_sups, sups, out=tail_sups)
    return per_n, tail_sups


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
    epsilon, tail_start = _checked_entry(c, seq, epsilon, tail_start)
    try:
        grid = default_t_grid() if t_grid is None else _float_array(t_grid, "t_grid")
    except DomainError:  # ragged rows, text or other objects that are not numbers
        grid = None
    if grid is None or grid.ndim != 1 or grid.size == 0:
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
    epsilon, tail_start = _checked_entry(c, seq, epsilon, tail_start)
    per_n, tail_sups = _survival(c, seq, [_SMALLEST_POSITIVE], tail_start)
    return _report(MODE_STRICT, seq, epsilon, tail_start, per_n, tail_sups.max())


def check_in_mean(
    s: Semicopula,
    c: Capacity,
    seq: FnSequence,
    epsilon: float = DEFAULT_EPSILON,
    tail_start: int | None = None,
) -> ConvergenceReport:
    """Tail check of the seminormed integral of |f_n - f|, over the residuals and chains the sequence keeps."""
    epsilon, tail_start = _checked_entry(c, seq, epsilon, tail_start)
    values = [integrate(s, c, r).value for r in seq._residuals]
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
    horizon = _checked_int(horizon, "horizon", 1, MAX_HORIZON)
    if callable(rate):
        fn = rate
        label = getattr(rate, "__name__", "callable")
    else:
        try:
            fn = BUILTIN_RATES[rate]
        except KeyError:
            raise BadRateError(f"unknown rate {rate!r}; builtins: {', '.join(sorted(BUILTIN_RATES))}") from None
        label = rate
    values = [_float(fn(n), "rate value") for n in range(1, horizon + 1)]
    for n, a in enumerate(values, start=1):
        if not 0.0 < a <= 1.0:
            raise BadRateError(f"a_{n} = {a!r} outside (0, 1]")
    for n in range(1, len(values)):
        if values[n] >= values[n - 1]:
            raise BadRateError(
                f"rate does not vanish over the horizon: a_{n} = {values[n - 1]!r} <= a_{n + 1} = {values[n]!r}"
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

    ``c`` is never read: an empty support makes the strict hypothesis hold
    under every capacity.  The argument stays for existing callers, the
    benchmark's workloads (``bench/workloads.py``) among them.
    """
    _require_types(("space", space, FiniteSpace), ("rng", rng, np.random.Generator))
    horizon = _checked_int(horizon, "horizon", 1, MAX_HORIZON)
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
    rng = np.random.default_rng(_checked_int(seed, "seed", 0))
    horizon = _checked_int(horizon, "horizon", 1, MAX_HORIZON)
    semicopulas = _as_tuple(semicopulas, "semicopulas", Semicopula)
    _require_types(*(("s", s, Semicopula) for s in semicopulas))
    out = []
    for _ in range(_checked_int(cases, "cases", 0, MAX_CASES)):
        c = random_capacity(space, rng)
        seq = random_strict_sequence(space, c, horizon, rng)
        reports = [theorem1_audit(c, seq)]
        for s in semicopulas:
            reports.append(theorem2_audit(s, c, seq))
        out.append(tuple(reports))
    return out
