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
level set of that value.  The sort makes that O(n log n).  One kernel,
``_level_chains``, makes that pass for a block of rows at once, with one
stable ``argsort`` and one ``np.bitwise_or.accumulate``.  The chain depends
on f alone, not on S or mu, so a ``FnSequence`` builds its residuals' chains
(O(n) memory each) once, at construction, and every integral of a residual,
under any semicopula or capacity, is one walk down the chain.  Any other
function gets its chain from a one-row call per integral.  The walk starts at
the top level, and for the builtins it stops at the first level below the
best value so far: every semicopula has ``S(t, m) <= S(t, 1) = t``, and the
builtins keep that bound exactly in floating point, so no lower threshold
can reach the best.  Ties between candidates go to the smallest attaining
threshold.
``integrate_grid_oracle`` is the direct transcription of the supremum onto a
dense threshold grid, kept solely to cross-check the exact value; it can only
undershoot.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from semint.capacity import Capacity
from semint.errors import _checked_int, _require_types
from semint.measurable import MeasurableFn, _level_masks, _require_same_space
from semint.semicopula import _SCALAR_FORMULAS, MIN, PRODUCT, Semicopula


@dataclass(frozen=True, slots=True)
class IntegralResult:
    """Integral value plus the threshold attaining it.

    Ties are broken toward the smallest attaining threshold, so results are
    deterministic and safe to freeze in golden tests.  ``candidates_inspected``
    counts the distinct values of f, the candidates the supremum ranges over,
    not the formula calls an early exit saves.
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


def _level_chains(rows: np.ndarray) -> list[tuple[array, array]]:
    """Per row of ``rows``, the level sets of every candidate: each tie run's value and ``{f >= value}``, descending.

    One stable descending sort of each row (``argsort`` of the negated rows
    with ``kind="stable"``, so tied points keep their index order), one
    gather of the sorted values, one ``np.bitwise_or.accumulate`` of the
    points' bits along that order, and one mask marking where each tie run
    ends: the accumulated mask at a run's end is the level set of its value.
    The chain keeps the sort's order, highest level first, the order in which
    ``integrate`` walks it.  A tie run's value is its first entry in index
    order, so ``-0.0`` and ``0.0`` resolve as a set of the values would, and
    ``5e-324`` stays above both.  Each row gets its levels as ``array("d")``
    and its masks as ``array("q")``: 472 bytes with the pair that holds them
    for 16 distinct values, where a tuple of (value, mask) pairs takes about
    1.5 KiB.

    Temporaries are a few int64 and float64 copies of ``rows``, so callers
    bound memory by passing a block of rows at a time.  A one-row call costs
    about 7.6 µs at n = 16, numpy's per-call overhead, where one Python sort
    took about 2 µs; 4000 rows of 16 take 1.9 ms in one call, where one
    Python sort per row took 9.2 ms (numpy 2.4, 2 vCPUs, best of 15).
    """
    m, n = rows.shape
    order = np.negative(rows).argsort(axis=1, kind="stable")
    ranked = rows.take(order + np.arange(0, m * n, n)[:, None])  # each row's values in its order
    masks = np.left_shift(1, order, out=order)
    np.bitwise_or.accumulate(masks, axis=1, out=masks)
    ends = np.ones((m, n), dtype=bool)
    np.not_equal(ranked[:, :-1], ranked[:, 1:], out=ends[:, :-1])
    starts = np.ones((m, n), dtype=bool)
    starts[:, 1:] = ends[:, :-1]
    # boolean indexing walks row-major: each row's runs in descending order, rows in order; slicing one array
    # per block gives each row arrays of its exact size, where array("d", bytes) would over-allocate
    levels = array("d", ranked[starts].tobytes())
    kept = array("q", masks[ends].tobytes())
    chains = []
    a = 0
    for runs in ends.sum(axis=1).tolist():
        chains.append((levels[a : a + runs], kept[a : a + runs]))
        a += runs
    return chains


def integrate(s: Semicopula, c: Capacity, f: MeasurableFn) -> IntegralResult:
    """Exact integral by a walk down the level chain of f.

    The chain (``_level_chains``) depends on f alone.  A sequence's residual
    keeps the one its sequence built; any other function gets it from a
    one-row ``_level_chains`` call, and ``f`` is never written to.
    Candidates are evaluated in descending order and replace the best on
    ``>=``, so the last replacement is the smallest attaining threshold, as
    the first strict maximum of an ascending scan is, with the same value and
    sign of zero.  For a builtin the walk stops at the first level ``v`` below
    the best: ``S(v, m) <= v`` holds exactly for each (see
    ``_SCALAR_FORMULAS``), so neither ``v`` nor any lower level can reach the
    best.  A table semicopula keeps the bound only within ``AXIOM_TOL`` at
    its lattice nodes, or not at all if unvalidated, so it walks every level,
    after one ``_evaluate_array`` call over all of them, the path of
    ``evaluate``.  All comparisons are exact and candidates are evaluated at
    the stored double values, so no tolerance is involved.  Both lie in
    [0,1], checked when ``f`` and ``c`` were built: a builtin's formula is
    called directly on the two floats.
    """
    try:
        _require_same_space(c, f)
        levels, masks = f._chain or _level_chains(f.values[None])[0]
        formula = _SCALAR_FORMULAS.get(s.kind)
        table = c.table
    except AttributeError:  # an argument of another type: named here, so that the valid call pays nothing
        _require_types(("s", s, Semicopula), ("c", c, Capacity), ("f", f, MeasurableFn))
        raise
    best = -1.0
    best_t = 0.0
    if formula is None:  # a table: one array evaluation over every level, then the same walk without the stop
        values = s._evaluate_array(np.frombuffer(levels), table[np.frombuffer(masks, dtype=np.int64)])
        for v, val in zip(levels, values.tolist()):
            if val >= best:
                best = val
                best_t = v
        return IntegralResult(float(best), float(best_t), len(levels))
    item = table.item
    for v, level in zip(levels, masks):
        if v < best:  # S(v, m) <= v exactly for a builtin, see _SCALAR_FORMULAS
            break
        val = formula(v, item(level))
        if val >= best:
            best = val
            best_t = v
    return IntegralResult(float(best), float(best_t), len(levels))


# the most grid points a uniform or log-spaced threshold grid may have: 10**8 float64s are a 763 MiB grid,
# and the chunked profile adds little to it (about 78 MiB at 10**7 points)
MAX_GRID_POINTS = 10**8

# grid thresholds _grid_profile evaluates at once: a few 512 KiB temporaries per chunk
_ORACLE_CHUNK = 1 << 16


def _grid_profile(s: Semicopula, c: Capacity, f: MeasurableFn, grid_points: int) -> tuple[float, float]:
    """Largest S(t, mu({f >= t})) over a uniform grid of thresholds in [0, 1], and the first t attaining it.

    The grid is one ``np.linspace(0.0, 1.0, grid_points)``; the profile is
    evaluated ``_ORACLE_CHUNK`` thresholds at a time, so beyond the grid
    itself memory stays bounded whatever ``grid_points`` is.  Each chunk's
    ``np.argmax`` gives its first maximum, and a later chunk replaces the
    running best only when strictly larger, so the result is the first
    attaining grid point, as one ``np.argmax`` over the whole profile gives.
    """
    _require_types(("s", s, Semicopula), ("c", c, Capacity), ("f", f, MeasurableFn))
    _require_same_space(c, f)
    t = np.linspace(0.0, 1.0, _checked_int(grid_points, "grid_points", 2, MAX_GRID_POINTS))
    best = best_t = None
    for start in range(0, t.size, _ORACLE_CHUNK):
        chunk = t[start : start + _ORACLE_CHUNK]
        profile = s._evaluate_array(chunk, c.table[_level_masks(f.values, chunk)])
        k = int(np.argmax(profile))  # first attaining grid point of the chunk
        if best is None or profile[k] > best:
            best, best_t = profile[k], chunk[k]
    return float(best), float(best_t)


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
