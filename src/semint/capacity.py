"""Capacities, i.e. normalized monotone set functions, on the powerset of a finite ground set.

Ground-set points are ``0 .. n-1`` and subsets are n-bit masks, so a capacity
is a dense table of ``2**n`` values indexed by mask.  The table representation
keeps validation total and exact; it caps the ground set at 24 points.

Every full-table pass that pairs masks is one strided lattice scan,
``_lattice_pairs``: for each point ``i`` the table is viewed as
``table.reshape(-1, 2, 1 << i)``, whose two middle slices pair every mask
without ``i`` (``lo``) with the mask that adds ``i`` (``hi``).  This is the in-place layout of the fast zeta/Moebius
transform (Kennes & Smets, UAI 1990; Grabisch, *Set Functions, Games and
Capacities in Decision Making*, 2016): the random builder writes ``hi`` from
``lo`` in place, one point at a time, and ``validate_table`` compares the two
views.  No index arrays are built.

The possibility and additive builders need no pairing: they fill the table
by prefix doubling, ``_doubling_table``.  The masks in ``[2**i, 2**(i+1))`` are
``2**i`` plus a mask below ``2**i``, so one slice operation per point writes
them from the prefix already filled: ``2**n`` work in all, against
``n * 2**(n-1)`` for a lattice scan.  Every entry applies its points' weights
lowest point first, as a lattice scan does, so both give the same bits.

Monotonicity is validated with the single-element increment scan: for every
mask ``A`` and every point ``i`` outside ``A``, require
``table[A] <= table[A | {i}]``.  By transitivity along chains this is
equivalent to checking every subset pair, at O(n * 2**n) instead of O(4**n)
cost.  Comparisons are exact; every constructor below is arranged so that its
floating-point output is monotone without tolerance.

All capacity objects are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from semint.errors import (
    BadDistortionError,
    BadWeightsError,
    DomainError,
    MaxNotOneError,
    NotMonotoneError,
    NotNormalizedError,
    _checked_int,
)

MAX_POINTS = 24

_WEIGHT_SUM_TOL = 1e-9

# entries per chunk in _interp_monotone: each of its temporaries is 128 KiB, whatever the table size
_INTERP_CHUNK = 1 << 14


@dataclass(frozen=True, slots=True)
class FiniteSpace:
    """A finite ground set ``{0, ..., size-1}`` whose subsets are bit masks."""

    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or isinstance(self.size, bool):
            raise DomainError(f"space size must be an int, got {type(self.size).__name__}")
        if not 1 <= self.size <= MAX_POINTS:
            raise DomainError(f"space size must be in 1..{MAX_POINTS}, got {self.size}")

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @property
    def num_subsets(self) -> int:
        return 1 << self.size

    def check_mask(self, mask: int) -> int:
        mask = _checked_int(mask, "subset mask")
        if mask < 0 or mask > self.full_mask:
            raise DomainError(f"mask {mask:#x} has bits outside a {self.size}-point space")
        return mask


@dataclass(frozen=True, slots=True)
class CapacityViolation:
    """One violated constraint found while validating a capacity table.

    ``kind`` is one of ``domain``, ``not-normalized``, ``not-monotone``.
    For monotonicity, ``mask``/``element`` witness mu(A) > mu(A + {i}).
    """

    kind: str
    message: str
    mask: int | None = None
    element: int | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "message": self.message}
        if self.mask is not None:
            out["mask"] = self.mask
        if self.element is not None:
            out["element"] = self.element
        return out


def validate_table(
    space: FiniteSpace, values: Sequence[float] | np.ndarray, *, _first: bool = False
) -> list[CapacityViolation]:
    """Check a dense candidate table against the capacity axioms.

    Returns every violated constraint (range, boundary normalization,
    single-element monotonicity), in deterministic order.  An empty list
    means the table is a valid capacity.
    """
    table = _dense_table(space, values)
    faults = _faults(table, space.size)
    # _first is the Capacity constructor's mode: raise its error for the first violation and count
    # the rest from their index arrays, so a table with a million faults costs one message.  The
    # constructor calls this function rather than _faults so that the check it runs stays visible
    # as a validate_table call to anything that traces the public functions.
    if _first:
        _raise_at_first_fault(table, faults)
        return []
    return [_violation(table, kind, mask, element) for kind, masks, element in faults for mask in masks.tolist()]


def _faults(table: np.ndarray, points: int):
    """Yield ``(kind, masks, element)`` for each group of violations, in validate_table's order.

    First the masks whose value lies outside [0,1], then mu(empty) != 0 and
    mu(X) != 1, then for each point ``i`` (the ``element``) the masks ``A``
    without ``i`` where mu(A) > mu(A + {i}), in increasing order.
    """
    yield "domain", np.flatnonzero(~((table >= 0.0) & (table <= 1.0))), None
    boundary = [mask for mask, want in ((0, 0.0), (table.size - 1, 1.0)) if table[mask] != want]
    yield "not-normalized", np.array(boundary, dtype=np.int64), None
    for i, lo, hi in _lattice_pairs(table, points):
        k = np.flatnonzero(lo > hi)  # k = block * 2**i + offset; its mask is block * 2**(i+1) + offset
        yield "not-monotone", k + (k >> i << i), i


def _violation(table: np.ndarray, kind: str, mask: int, element: int | None) -> CapacityViolation:
    """The violation ``_faults`` reports as ``(kind, mask, element)``, with its message."""
    value = float(table[mask])
    if kind == "domain":
        return CapacityViolation(kind, f"mu({mask:#x}) = {value!r} outside [0,1]", mask)
    if kind == "not-normalized":
        message = f"mu(empty) = {value!r}, expected 0" if mask == 0 else f"mu(X) = {value!r}, expected 1"
        return CapacityViolation(kind, message, mask)
    upper = mask | 1 << element
    return CapacityViolation(
        kind, f"mu({mask:#x}) = {value!r} > mu({upper:#x}) = {float(table[upper])!r}", mask, element
    )


def _raise_at_first_fault(table: np.ndarray, faults) -> None:
    """Raise the constructor's error for the first of ``faults``, if there is one."""
    first, total = None, 0
    for kind, masks, element in faults:
        if first is None and masks.size:
            first = _violation(table, kind, int(masks[0]), element)
        total += masks.size
    if first is None:
        return
    if first.kind == "domain":
        raise DomainError(first.message)
    message = f"{first.message} ({total} violation(s) total)"
    if first.kind == "not-normalized":
        raise NotNormalizedError(message)
    raise NotMonotoneError(message, mask=first.mask, element=first.element)


def _dense_table(space: FiniteSpace, values: Sequence[float] | np.ndarray) -> np.ndarray:
    """``values`` as a float64 array, which must be 1-d with one entry per subset."""
    table = np.asarray(values, dtype=np.float64)
    if table.ndim != 1 or table.size != space.num_subsets:
        raise DomainError(
            f"capacity table for a {space.size}-point space needs {space.num_subsets} "
            f"values, got shape {table.shape}"
        )
    return table


def _kept_table(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """``values`` if it is a read-only float64 array that owns its memory, else a read-only float64 copy.

    Nothing can write to such an array, so a capacity may keep it as it is;
    anything else the caller could still change, so the capacity keeps a copy.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.base is None
        and not values.flags.writeable
    ):
        return values
    table = np.array(values, dtype=np.float64)
    table.setflags(write=False)
    return table


def _lattice_pairs(table: np.ndarray, points: int):
    """Yield ``(i, lo, hi)`` for each point ``i``: views of ``table`` pairing mask A with A + {i}.

    ``table.reshape(-1, 2, 1 << i)`` puts mask ``(block << (i+1)) | (half << i) | offset``
    at ``[block, half, offset]``, so ``lo[block, offset]`` is a mask without ``i`` and
    ``hi[block, offset]`` the same mask with ``i``.  Both are views of a contiguous
    table: writing ``hi`` updates the table in place, and flat positions in ``lo``
    run in increasing mask order.
    """
    for i in range(points):
        pairs = table.reshape(-1, 2, 1 << i)
        yield i, pairs[:, 0, :], pairs[:, 1, :]


def _doubling_table(w: np.ndarray, op) -> np.ndarray:
    """Table with mu(empty) = 0 and mu(A + {i}) = op(mu(A), w[i]) for every mask ``A`` below ``2**i``.

    Points go in increasing order, each writing the slice ``[2**i, 2**(i+1))``
    from the prefix ``[0, 2**i)``, so a mask's entry applies its points'
    weights lowest point first.
    """
    table = np.empty(1 << w.size)
    table[0] = 0.0
    for i in range(w.size):
        op(table[: 1 << i], w[i], out=table[1 << i : 2 << i])
    return table


@dataclass(frozen=True, slots=True, eq=False)
class Capacity:
    """A monotone set function with mu(empty) = 0 and mu(X) = 1, stored densely.

    The capacity keeps ``table`` as it is if it is a read-only float64 array
    that owns its memory, and a read-only copy of anything else, so the
    caller's array stays writable.  Construction checks the table's shape and
    every axiom, raising the first violation ``validate_table`` lists: a
    ``DomainError`` for a value outside [0,1], else a ``NotNormalizedError``
    or a ``NotMonotoneError`` (with its witness) that also gives the total
    count.  The additive and possibility builders make valid tables by
    construction and skip the check.
    """

    space: FiniteSpace
    table: np.ndarray

    def __post_init__(self) -> None:
        table = _kept_table(self.table)
        validate_table(self.space, table, _first=True)
        object.__setattr__(self, "table", table)

    @classmethod
    def _adopt(cls, space: FiniteSpace, table: np.ndarray) -> "Capacity":
        """A capacity over a fresh float64 ``table`` valid by construction: made read-only, not copied or checked."""
        table.setflags(write=False)
        capacity = object.__new__(cls)
        object.__setattr__(capacity, "space", space)
        object.__setattr__(capacity, "table", table)
        return capacity

    def measure(self, mask: int) -> float:
        """Value of the capacity at the subset encoded by ``mask``."""
        return float(self.table[self.space.check_mask(mask)])

    @classmethod
    def from_table(cls, space: FiniteSpace, values: Sequence[float] | np.ndarray) -> "Capacity":
        """Build a capacity from a dense table: ``Capacity(space, values)``, which rejects any axiom violation."""
        return cls(space, values)

    @classmethod
    def from_possibility(cls, space: FiniteSpace, weights: Sequence[float]) -> "Capacity":
        """Maxitive capacity mu(A) = max of the point weights over A.

        The weights must lie in [0,1] and attain 1 somewhere, which makes the
        result normalized; the running-max construction is exactly monotone.
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (space.size,):
            raise DomainError(f"need {space.size} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise DomainError("possibility weights must be finite numbers")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise DomainError("possibility weights must lie in [0,1]")
        if not np.any(w == 1.0):
            raise MaxNotOneError(f"max weight is {float(w.max())!r}, expected exactly 1")
        return cls._adopt(space, _doubling_table(w, np.maximum))

    @classmethod
    def from_additive(cls, space: FiniteSpace, weights: Sequence[float]) -> "Capacity":
        """Additive capacity mu(A) = sum of the point weights over A.

        Weights must be nonnegative and sum to 1 within 1e-9; the table is
        then renormalized so mu(X) is exactly 1.  Sums are accumulated per
        mask by adding one nonnegative weight at a time, which keeps the
        floating-point table exactly monotone.
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (space.size,):
            raise DomainError(f"need {space.size} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise BadWeightsError("additive weights must be finite numbers")
        if np.any(w < 0.0):
            raise BadWeightsError("additive weights must be nonnegative")
        total = float(w.sum())
        if total == 0.0:
            raise BadWeightsError("additive weights sum to zero")
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise BadWeightsError(f"additive weights sum to {total!r}, expected 1 within 1e-9")
        table = _doubling_table(w, np.add)
        table /= table[-1]
        table[0] = 0.0
        table[-1] = 1.0
        return cls._adopt(space, table)

    @classmethod
    def from_distortion(cls, base: "Capacity", g: Sequence[float]) -> "Capacity":
        """Distorted capacity mu'(A) = g(mu(A)) for a sampled monotone ``g``.

        ``g`` is a table of m+1 uniform samples over [0,1] with g(0)=0 and
        g(1)=1; values between samples are linearly interpolated and clamped
        into the sample bracket so monotonicity survives rounding.
        """
        samples = np.asarray(g, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 2:
            raise BadDistortionError("distortion needs at least 2 samples")
        if not np.all(np.isfinite(samples)):  # NaN would pass both checks below
            raise BadDistortionError("distortion samples must be finite numbers")
        if samples[0] != 0.0 or samples[-1] != 1.0:
            raise BadDistortionError(
                f"distortion endpoints are ({float(samples[0])!r}, {float(samples[-1])!r}), expected (0, 1)"
            )
        if np.any(np.diff(samples) < 0.0):
            raise BadDistortionError("distortion samples must be non-decreasing")
        table = _interp_monotone(samples, base.table)
        table.setflags(write=False)  # a fresh table nobody else holds: the constructor need not copy it
        return cls.from_table(base.space, table)

    def to_json_dict(self) -> dict:
        return {"n": self.space.size, "kind": "table", "values": [float(v) for v in self.table]}


def _interp_monotone(samples: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Piecewise-linear evaluation of uniform samples, clamped per bracket.

    Clamping output into [samples[k], samples[k+1]] guarantees that ordered
    inputs map to ordered outputs despite rounding, and that inputs landing
    on a sample reproduce it exactly.  ``x`` (1-d) is processed in chunks of
    ``_INTERP_CHUNK`` entries, so the temporaries stay small whatever the table
    size.
    """
    m = samples.size - 1
    out = np.empty(x.shape)
    for start in range(0, x.size, _INTERP_CHUNK):
        pos = x[start : start + _INTERP_CHUNK] * m
        k = np.minimum(pos.astype(np.int64), m - 1)
        frac = pos - k
        lo = samples[k]
        hi = samples[k + 1]
        part = np.clip(lo + (hi - lo) * frac, lo, hi)
        out[start : start + _INTERP_CHUNK] = np.where(frac >= 1.0, hi, part)
    return out


def random_capacity(space: FiniteSpace, rng: np.random.Generator) -> Capacity:
    """Draw a random capacity: i.i.d. uniforms per subset, monotone envelope, fixed boundaries.

    The envelope step replaces each subset's draw with the max over its
    subsets, so no rejection sampling is needed.
    """
    table = rng.random(space.num_subsets)
    for _, lo, hi in _lattice_pairs(table, space.size):
        np.maximum(hi, lo, out=hi)
    table[0] = 0.0
    table[-1] = 1.0
    table.setflags(write=False)  # a fresh table nobody else holds: the constructor need not copy it
    return Capacity.from_table(space, table)
