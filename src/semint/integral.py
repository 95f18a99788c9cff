"""The seminormed (semicopula-based) Sugeno integral on a finite space, exactly.

The integral is the supremum over thresholds t in [0,1] of
``S(t, mu({f >= t}))``.  On a finite ground set that supremum is attained at
one of the finitely many values f takes: between consecutive distinct values
``v_i < v_{i+1}`` the level set, hence the survival value, is constant and
equal to its value at ``v_{i+1}``, and S is non-decreasing in its first
argument, so the supremum over each such interval sits at the right endpoint;
below the smallest value the survival is mu(X) = 1 and ``S(t, 1) = t`` climbs
to that smallest value; above the largest value the level set is empty and
``S(t, 0) = 0``.  The candidate scan over the distinct values is therefore
exact, not an approximation.

The level sets of all candidates come from one pass over the points in
descending value order (the permutation form of the Sugeno integral; Sugeno
1974, Grabisch & Labreuche, *4OR* 2008): each point ORs its bit into a
running mask, and the mask at the end of each run of equal values is the
level set of that value.  The sort makes that O(n log n) per integral.
Ties between candidates go to the smallest attaining threshold.
``integrate_grid_oracle`` is the direct transcription of the supremum onto a
dense threshold grid, kept solely to cross-check the exact value; it can only
undershoot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from semint.capacity import Capacity
from semint.errors import DomainError, _checked_int
from semint.measurable import MeasurableFn, _level_masks, _require_same_space
from semint.semicopula import _SCALAR_FORMULAS, MIN, PRODUCT, Semicopula


@dataclass(frozen=True, slots=True)
class IntegralResult:
    """Integral value plus the threshold attaining it.

    Ties are broken toward the smallest attaining threshold, so results are
    deterministic and safe to freeze in golden tests.
    """

    value: float
    argmax_threshold: float
    candidates_inspected: int

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "argmax_t": self.argmax_threshold,
            "method": "exact",
            "candidates_inspected": self.candidates_inspected,
        }


def integrate(s: Semicopula, c: Capacity, f: MeasurableFn) -> IntegralResult:
    """Exact integral from one stable descending pass over the points of f.

    A tie run's value is its first entry in index order, so ``-0.0`` and
    ``0.0`` resolve as a set of the values would.  Candidates are evaluated
    in ascending order with a strict ``>``, which keeps the smallest
    attaining threshold.  All comparisons are exact and candidates are
    evaluated at the stored double values, so no tolerance is involved.
    Each candidate's capacity value gets the range check
    ``Semicopula.evaluate`` makes, with the same error; then a builtin's
    formula is called directly on the two floats, and a table's ``evaluate``.
    """
    _require_same_space(c, f)
    table = c.table
    values = f.values.tolist()
    chain = []  # (value, mask of {f >= value}) at the end of each tie run, in descending value order
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
    formula = _SCALAR_FORMULAS.get(s.kind, s.evaluate)
    for v, level in reversed(chain):
        m = table.item(level)  # v is a value of f, so in [0,1]; m too, unless a kept table was written after its check
        if not 0.0 <= m <= 1.0:
            raise DomainError(f"arguments ({v!r}, {m!r}) outside [0,1]^2")
        val = formula(v, m)
        if val > best:
            best = val
            best_t = v
    return IntegralResult(float(best), float(best_t), len(chain))


def _grid_profile(s: Semicopula, c: Capacity, f: MeasurableFn, grid_points: int) -> tuple[float, float]:
    """Largest S(t, mu({f >= t})) over a uniform grid of thresholds in [0, 1], and the first t attaining it."""
    _require_same_space(c, f)
    if _checked_int(grid_points, "grid_points") < 2:
        raise DomainError(f"grid_points must be >= 2, got {grid_points}")
    t = np.linspace(0.0, 1.0, grid_points)
    profile = s._evaluate_array(t, c.table[_level_masks(f.values, t)])
    best = int(np.argmax(profile))  # first attaining grid point
    return float(profile[best]), float(t[best])


def integrate_grid_oracle(s: Semicopula, c: Capacity, f: MeasurableFn, grid_points: int) -> float:
    """Brute-force supremum over a uniform threshold grid including both endpoints.

    A lower bound on ``integrate(...).value``; the gap is at most the grid
    step times the semicopula's slope in its first argument (<= 2 for the
    builtins).
    """
    return _grid_profile(s, c, f, grid_points)[0]


def sugeno(c: Capacity, f: MeasurableFn) -> IntegralResult:
    """Specialization with the minimum aggregation."""
    return integrate(MIN, c, f)


def shilkret(c: Capacity, f: MeasurableFn) -> IntegralResult:
    """Specialization with the product aggregation."""
    return integrate(PRODUCT, c, f)
