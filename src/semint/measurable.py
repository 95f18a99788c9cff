"""Functions from a finite ground set into [0,1], their level sets, and survival values.

Level sets are exact, never up to an epsilon: the exact integration scan
relies on thresholds being evaluated at the stored values themselves.  Every
``{f >= t}`` outside ``integrate`` comes from one kernel, ``_level_masks``,
in rank form: a function's level sets shrink as ``t`` rises (the permutation
form of Grabisch & Labreuche, *4OR* 2008), so each point is in the level
sets of exactly the thresholds ranked at or below its value, and a
``searchsorted`` over the sorted thresholds, which compares stored doubles as
``>=`` does, gives that rank.  No point is compared with every threshold.
Out-of-range values are rejected at construction rather than clamped.

A sequence's residual keeps its level chain, the O(n) levels and masks
``integral._level_chains`` builds, highest level first, for the walk
``integrate`` makes from the top: the chain depends
on the function alone, so ``FnSequence`` builds every residual's chain once,
at construction, in one batched call per block of rows, and every integral
of the residual, under any semicopula or capacity, reads it.  Any other
function keeps no chain: ``integrate`` builds one per call.  The chain is a
private, derived slot that ``repr`` and ``dataclasses.replace`` ignore.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from semint.capacity import Capacity, FiniteSpace
from semint.errors import DomainError, SpaceMismatchError, _float, _kept_array, _require_types

# the smallest positive double: on values >= 0, {v > 0} is the level set {v >= _SMALLEST_POSITIVE}
_SMALLEST_POSITIVE = float(np.nextafter(0.0, 1.0))


@dataclass(frozen=True, slots=True, eq=False)
class MeasurableFn:
    """A value vector over the ground set: ``values[i] = f(i)``, all in [0,1], kept by ``errors._kept_array``."""

    space: FiniteSpace
    values: np.ndarray
    # a residual's level chain, (levels, masks) as array("d") and array("q") with the highest level first, which
    # its FnSequence builds with integral._level_chains and every integral of it reads; None for any other function
    _chain: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = _kept_array(self.values, "function values")
        try:
            size = self.space.size
        except AttributeError:  # named here, so that the terms of a long sequence pay nothing
            _require_types(("space", self.space, FiniteSpace))
            raise
        if values.shape != (size,):
            raise DomainError(
                f"function over a {size}-point space needs {size} "
                f"values, got shape {values.shape}"
            )
        # at most 24 values: a Python loop beats numpy's per-call overhead; NaN fails both comparisons
        for v in values.tolist():
            if not 0.0 <= v <= 1.0:
                raise DomainError("function values must lie in [0,1]")
        object.__setattr__(self, "values", values)

    @classmethod
    def _adopt(cls, space: FiniteSpace, values: np.ndarray) -> "MeasurableFn":
        """A function over fresh float64 ``values`` in [0,1] by construction: made read-only, not copied or checked."""
        values.setflags(write=False)
        fn = object.__new__(cls)
        object.__setattr__(fn, "space", space)
        object.__setattr__(fn, "values", values)
        object.__setattr__(fn, "_chain", None)
        return fn

    @classmethod
    def constant(cls, space: FiniteSpace, value: float) -> "MeasurableFn":
        _require_types(("space", space, FiniteSpace))
        return cls(space, np.full(space.size, _float(value, "function value")))

    @classmethod
    def indicator(cls, space: FiniteSpace, mask: int) -> "MeasurableFn":
        _require_types(("space", space, FiniteSpace))
        mask = space.check_mask(mask)
        return cls(space, [1.0 if mask >> i & 1 else 0.0 for i in range(space.size)])

    def to_json_dict(self) -> dict:
        return {"values": [float(v) for v in self.values]}


def _require_same_space(a, b) -> None:
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatchError(f"spaces differ: {a.space.size} vs {b.space.size} points")


# 2**i as float64 for every point a space can have: below 2**24, sums of distinct ones are exact
_BIT_WEIGHTS = np.ldexp(1.0, np.arange(24))


def _level_masks(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Masks of ``{i : values[r, i] >= thresholds[j]}`` as int64, one row per row of ``values``.

    ``values`` is a matrix (rows x points), giving a (rows, thresholds) result,
    or a single row of points, giving one mask per threshold.

    Rank form: a row's level sets shrink along the sorted thresholds, so each
    point drops out of them at one rank.  The thresholds are sorted once (a
    stable ``argsort``) and ``above = searchsorted(sorted_t, v,
    side="right")`` counts the thresholds ``<= v``: point ``i`` lies in
    ``{v >= sorted_t[j]}`` exactly when ``j < above[i]``.  One ``bincount``
    sums each row's bits ``2**i`` by their rank ``above`` (row-major bins,
    ``row * (g + 1) + above``), a running sum along each row's ranks gives the
    bits that have dropped out by each threshold, and the full mask minus that
    sum is the level set, written back in the caller's threshold order.  The
    work is O(rows * (n log g + g)) for ``n`` points and ``g`` thresholds.
    Row-major bins keep the running sum's inner loop contiguous: summed down
    threshold-major bins of 1024 rows instead, it strides by 8 KiB, and
    4000 rows x 128 thresholds that way took 7.3 ms against 5.0 ms (numpy
    2.4, 2 vCPUs, best of 15).

    The bins are float64.  Each bin and each running sum is a sum of distinct
    powers below ``2**24``, so for the at most 24 points of a space it is
    exact, whatever the order of the additions.  ``searchsorted`` compares the
    stored doubles as ``>=`` does: ``-0.0`` equals ``0.0``, ``5e-324`` is
    above both, and a value tied with a threshold is in its level set.

    Besides the int64 result, the temporaries are one 8-byte histogram bin
    per row and threshold, summed in place, a rank and a weight per row and
    point, and the sorted thresholds; no rows x thresholds x points array is
    built.  ``_survival`` passes its rows a block at a time; the other
    callers pass one row.

    Neither a value nor a threshold may be NaN: the sort puts NaN above every
    number, so a NaN value would fall in every level set rather than none.
    The entry checks keep NaN out: ``MeasurableFn`` refuses NaN values,
    ``level_set`` a NaN ``t``, ``check_in_capacity`` a NaN grid entry, and
    the other callers build their thresholds themselves.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    rows = np.atleast_2d(values)
    m, n = rows.shape
    g = thresholds.size
    order = thresholds.argsort(kind="stable")
    bins = thresholds[order].searchsorted(rows, side="right")
    bins += np.arange(0, m * (g + 1), g + 1)[:, None]
    hist = np.bincount(bins.ravel(), weights=_BIT_WEIGHTS[:n][None].repeat(m, 0).ravel(), minlength=m * (g + 1))
    masks = hist.reshape(m, g + 1)[:, :g]  # bin [row, k]: the bits of row whose rank is k
    np.add.accumulate(masks, axis=1, out=masks)  # the bits that have dropped out by each threshold
    np.subtract(float((1 << n) - 1), masks, out=masks)
    out = np.empty((m, g), dtype=np.int64)
    out[:, order] = masks
    return out if np.ndim(values) == 2 else out[0]


def level_set(f: MeasurableFn, t: float) -> int:
    """Mask of ``{i : f(i) >= t}``, exact comparison."""
    _require_types(("f", f, MeasurableFn))
    value = _float(t, "threshold")
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"threshold {t!r} outside [0,1]")
    return int(_level_masks(f.values, [value])[0])


def strict_support(f: MeasurableFn) -> int:
    """Mask of ``{i : f(i) > 0}``."""
    _require_types(("f", f, MeasurableFn))
    return int(_level_masks(f.values, [_SMALLEST_POSITIVE])[0])


def residual(f: MeasurableFn, g: MeasurableFn) -> MeasurableFn:
    """Pointwise absolute difference |f - g|."""
    try:
        _require_same_space(f, g)
        return MeasurableFn._adopt(f.space, np.abs(f.values - g.values))  # in [0,1], since f and g are
    except AttributeError:  # an argument of another type: named here, so that a sequence's residuals pay nothing
        _require_types(("f", f, MeasurableFn), ("g", g, MeasurableFn))
        raise


def survival(c: Capacity, f: MeasurableFn, t: float) -> float:
    """Capacity of the level set at t, i.e. mu({f >= t}); non-increasing in t."""
    _require_types(("c", c, Capacity), ("f", f, MeasurableFn))
    _require_same_space(c, f)
    return c.measure(level_set(f, t))


def distinct_values(f: MeasurableFn) -> list[float]:
    """Sorted deduplicated list of the values f attains."""
    _require_types(("f", f, MeasurableFn))
    return sorted(set(f.values.tolist()))
