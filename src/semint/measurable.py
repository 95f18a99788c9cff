"""Functions from a finite ground set into [0,1], their level sets, and survival values.

Level sets use exact ``>=`` comparison on stored doubles, never an epsilon:
the exact integration scan relies on thresholds being evaluated at the stored
values themselves.  Out-of-range values are rejected at construction rather
than clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from semint.capacity import Capacity, FiniteSpace
from semint.errors import DomainError, SpaceMismatchError

# the smallest positive double: on values >= 0, {v > 0} is the level set {v >= _SMALLEST_POSITIVE}
_SMALLEST_POSITIVE = float(np.nextafter(0.0, 1.0))


@dataclass(frozen=True, slots=True, eq=False)
class MeasurableFn:
    """A value vector over the ground set: ``values[i] = f(i)``, all in [0,1]."""

    space: FiniteSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)  # a copy: the caller's array stays theirs
        if values.shape != (self.space.size,):
            raise DomainError(
                f"function over a {self.space.size}-point space needs {self.space.size} "
                f"values, got shape {values.shape}"
            )
        # at most 24 values: a Python loop beats numpy's per-call overhead; NaN fails both comparisons
        for v in values.tolist():
            if not 0.0 <= v <= 1.0:
                raise DomainError("function values must lie in [0,1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def _adopt(cls, space: FiniteSpace, values: np.ndarray) -> "MeasurableFn":
        """A function over fresh float64 ``values`` in [0,1] by construction: made read-only, not copied or checked."""
        values.setflags(write=False)
        fn = object.__new__(cls)
        object.__setattr__(fn, "space", space)
        object.__setattr__(fn, "values", values)
        return fn

    @classmethod
    def constant(cls, space: FiniteSpace, value: float) -> "MeasurableFn":
        return cls(space, np.full(space.size, float(value)))

    @classmethod
    def indicator(cls, space: FiniteSpace, mask: int) -> "MeasurableFn":
        mask = space.check_mask(mask)
        values = np.array([1.0 if mask >> i & 1 else 0.0 for i in range(space.size)])
        return cls(space, values)

    def to_json_dict(self) -> dict:
        return {"values": [float(v) for v in self.values]}


def _require_same_space(a, b) -> None:
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatchError(f"spaces differ: {a.space.size} vs {b.space.size} points")


# cells of the row x threshold x point comparison _level_masks holds at once (1 MiB as bool)
_LEVEL_BLOCK_CELLS = 1 << 20


def _level_masks(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Masks of ``{i : values[r, i] >= thresholds[j]}`` as int64, one row per row of ``values``.

    ``values`` is a matrix (rows x points), giving a (rows, thresholds) result,
    or a single row of points, giving one mask per threshold.  The comparison
    cube is built a block at a time, each block within ``_LEVEL_BLOCK_CELLS``
    cells (a block of rows, or of one row's thresholds when a row alone is
    larger), so memory stays bounded for any horizon and grid.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    rows = np.atleast_2d(values)
    n = rows.shape[1]
    powers = np.int64(1) << np.arange(n, dtype=np.int64)
    row_step = max(1, _LEVEL_BLOCK_CELLS // max(1, thresholds.size * n))
    t_step = max(1, _LEVEL_BLOCK_CELLS // (row_step * n))
    out = np.empty((rows.shape[0], thresholds.size), dtype=np.int64)
    for r in range(0, rows.shape[0], row_step):
        for j in range(0, thresholds.size, t_step):
            hits = rows[r : r + row_step, None, :] >= thresholds[None, j : j + t_step, None]
            out[r : r + row_step, j : j + t_step] = hits.astype(np.int64) @ powers
    return out if np.ndim(values) == 2 else out[0]


def level_set(f: MeasurableFn, t: float) -> int:
    """Mask of ``{i : f(i) >= t}``, exact comparison."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"threshold {t!r} outside [0,1]")
    return int(_level_masks(f.values, [t])[0])


def strict_support(f: MeasurableFn) -> int:
    """Mask of ``{i : f(i) > 0}``."""
    return int(_level_masks(f.values, [_SMALLEST_POSITIVE])[0])


def residual(f: MeasurableFn, g: MeasurableFn) -> MeasurableFn:
    """Pointwise absolute difference |f - g|."""
    _require_same_space(f, g)
    return MeasurableFn._adopt(f.space, np.abs(f.values - g.values))  # in [0,1], since f and g are


def survival(c: Capacity, f: MeasurableFn, t: float) -> float:
    """Capacity of the level set at t, i.e. mu({f >= t}); non-increasing in t."""
    _require_same_space(c, f)
    return c.measure(level_set(f, t))


def distinct_values(f: MeasurableFn) -> list[float]:
    """Sorted deduplicated list of the values f attains."""
    return sorted(set(f.values.tolist()))
