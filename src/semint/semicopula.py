"""Semicopulas: binary aggregations on [0,1]^2, monotone in each slot, with neutral element 1.

Four closed-form aggregations are built in (minimum, product, product scaled
by the larger argument, and the truncated-sum aggregation), and user-supplied
candidates are represented as square value tables over a uniform lattice,
evaluated by bilinear interpolation.

Axiom checking is lattice-based, not symbolic: ``validate_semicopula``
certifies a candidate only at the sampled resolution, and the resolution is
part of the report.  For the builtins this is a redundant but cheap
confirmation; for tables it is the only check possible.

``evaluate`` reads numbers and arrays alike, through ``errors._float_array``;
``_SCALAR_FORMULAS`` serves ``integrate``'s walk alone.  Evaluation is pure
and reentrant; instances are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from semint.errors import DomainError, _checked_int, _float_array, _kept_array, _require_types

AXIOM_TOL = 1e-12

# the finest lattice a semicopula is sampled or checked on: validate_semicopula keeps about 27 B per lattice
# point, so about 430 MiB at 4096 (tracemalloc peaks of 25.8 MiB at 1000 and 103 MiB at 2000)
MAX_RESOLUTION = 4096

BUILTIN_KINDS = ("min", "product", "prodmax", "lukasiewicz")

# entries per chunk in a table semicopula's evaluation: about 2 MiB of temporaries, whatever the size
_TABLE_EVAL_CHUNK = 1 << 14


def _min(a: float, b: float) -> float:
    return a if a <= b else b


def _product(a: float, b: float) -> float:
    return a * b


def _prodmax(a: float, b: float) -> float:
    return a * b * (a if a >= b else b)


def _lukasiewicz(a: float, b: float) -> float:
    if b == 1.0:
        return a
    if a == 1.0:
        return b
    s = a + b - 1.0
    return s if s > 0.0 else 0.0


# each builtin's formula on two Python floats already checked to lie in [0,1], for integrate's walk alone.
# Each satisfies S(a, b) <= min(a, b) exactly in floating point (the same operations in the same order as
# _evaluate_array, so that form does too), which lets the walk stop at the first level below the best:
# - min: by definition;
# - product, prodmax: rounding is monotone and a*b <= a when b <= 1, so fl(a*b) <= fl(a) = a (and <= b);
#   prodmax then multiplies that by a factor of at most 1;
# - lukasiewicz: the guards return a or b; otherwise b <= 1 - 2**-53, so a + b <= a + 1 - 2**-53 and, with
#   rounding error at most 2**-53 below 2, fl(a+b) <= a + 1; if fl(a+b) >= 1, subtracting 1 is exact
#   (Sterbenz), giving at most a, else the result clamps to 0.  The same holds with a and b swapped.
_SCALAR_FORMULAS: dict[str, Callable[[float, float], float]] = {
    "min": _min,
    "product": _product,
    "prodmax": _prodmax,
    "lukasiewicz": _lukasiewicz,
}


@dataclass(frozen=True, slots=True, eq=False)
class Semicopula:
    """A builtin aggregation, or a table over an (n+1) x (n+1) uniform lattice.

    For tables, ``grid[i][j]`` holds the value at ``(i/resolution, j/resolution)``
    and points between lattice nodes are bilinearly interpolated.  Construction
    keeps ``grid`` by the rule of ``errors._kept_array`` and only enforces its
    value range; the axioms are checked separately.
    """

    kind: str
    grid: np.ndarray | None = None
    resolution: int | None = None

    def __post_init__(self) -> None:
        if self.kind in BUILTIN_KINDS:
            if self.grid is not None or self.resolution is not None:
                raise DomainError(f"builtin kind {self.kind!r} takes no grid")
            return
        if self.kind != "table":
            raise DomainError(f"unknown semicopula kind {self.kind!r}")
        grid = _kept_array(self.grid, "table grid")
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1] or grid.shape[0] < 2:
            raise DomainError(f"table grid must be square with side >= 2, got {grid.shape}")
        res = grid.shape[0] - 1
        if self.resolution is not None and _checked_int(self.resolution, "resolution") != res:
            raise DomainError(f"resolution {self.resolution} does not match grid side {res + 1}")
        if np.any(~((grid >= 0.0) & (grid <= 1.0))):
            raise DomainError("table grid values must lie in [0,1]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "resolution", res)

    @classmethod
    def from_grid(cls, grid: Sequence[Sequence[float]] | np.ndarray) -> "Semicopula":
        return cls("table", grid)

    @classmethod
    def from_function(cls, fn: Callable[[float, float], float], resolution: int) -> "Semicopula":
        """Sample a candidate aggregation onto a lattice table."""
        axis = np.linspace(0.0, 1.0, _checked_int(resolution, "resolution", 1, MAX_RESOLUTION) + 1)
        return cls.from_grid([[fn(a, b) for b in axis] for a in axis])

    def evaluate(self, a, b):
        """S(a, b) for numbers (a numpy float64) or arrays of shapes that broadcast, else a ``DomainError``.

        Builtins keep S(a,1)=a and S(1,b)=b exact.
        """
        a, b = _float_array(a, "semicopula arguments"), _float_array(b, "semicopula arguments")
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise DomainError(f"semicopula arguments of shapes {a.shape} and {b.shape} do not broadcast") from None
        if np.any(~((a >= 0.0) & (a <= 1.0))) or np.any(~((b >= 0.0) & (b <= 1.0))):
            raise DomainError("arguments outside [0,1]^2")
        return self._evaluate_array(a, b)

    __call__ = evaluate

    def _evaluate_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """S(a, b) on float64 arrays whose entries the caller has already kept in [0,1]."""
        kind = self.kind
        # np.where, not np.minimum/np.maximum, picks the tie of -0.0 and 0.0 as _min and _prodmax do
        if kind == "min":
            return np.where(a <= b, a, b)[()]
        if kind == "product":
            return a * b
        if kind == "prodmax":
            return a * b * np.where(a >= b, a, b)
        if kind == "lukasiewicz":
            out = np.maximum(a + b - 1.0, 0.0)
            out = np.where(a == 1.0, b, out)
            return np.where(b == 1.0, np.broadcast_to(a, out.shape), out)[()]  # a scalar for 0-d arguments
        return self._table_eval(a, b)

    def _table_eval(self, a: np.ndarray, b: np.ndarray):
        """Bilinear interpolation of the table, in chunks of ``_TABLE_EVAL_CHUNK`` entries.

        The interpolation holds about fifteen temporaries per entry; chunked,
        they stay within one chunk whatever the argument size.  Every entry
        goes through the same operations in the same order, so the values do
        not depend on the chunk size.
        """
        a, b = np.broadcast_arrays(a, b)
        out = np.empty(a.shape)
        flat_a, flat_b, flat_out = a.ravel(), b.ravel(), out.reshape(-1)
        res = self.resolution
        grid = self.grid
        for start in range(0, flat_out.size, _TABLE_EVAL_CHUNK):
            part = slice(start, start + _TABLE_EVAL_CHUNK)
            pa = flat_a[part] * res
            pb = flat_b[part] * res
            ia = np.minimum(pa.astype(np.int64), res - 1)
            ib = np.minimum(pb.astype(np.int64), res - 1)
            fa = pa - ia
            fb = pb - ib
            g00 = grid[ia, ib]
            g10 = grid[ia + 1, ib]
            g01 = grid[ia, ib + 1]
            g11 = grid[ia + 1, ib + 1]
            flat_out[part] = (
                g00 * (1.0 - fa) * (1.0 - fb)
                + g10 * fa * (1.0 - fb)
                + g01 * (1.0 - fa) * fb
                + g11 * fa * fb
            )
        return out[()]  # a scalar for 0-d arguments, as numpy arithmetic gives

    def to_json_dict(self) -> dict:
        if self.kind in BUILTIN_KINDS:
            return {"kind": self.kind}
        return {
            "kind": "table",
            "resolution": int(self.resolution),
            "grid": [[float(v) for v in row] for row in self.grid],
        }


MIN = Semicopula("min")
PRODUCT = Semicopula("product")
PROD_MAX = Semicopula("prodmax")
LUKASIEWICZ = Semicopula("lukasiewicz")

BUILTINS = (MIN, PRODUCT, PROD_MAX, LUKASIEWICZ)

_BY_KIND = {s.kind: s for s in BUILTINS}


def builtin(kind: str) -> Semicopula:
    try:
        return _BY_KIND[kind]
    except KeyError:
        raise DomainError(f"unknown builtin semicopula {kind!r}") from None


@dataclass(frozen=True, slots=True)
class AxiomViolation:
    """One lattice point where an axiom (or a consequence of the axioms) fails.

    ``axiom`` names the failed check; ``observed`` is the sampled value and
    ``reference`` the value it was compared against.
    """

    axiom: str
    a: float
    b: float
    observed: float
    reference: float

    def to_json_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "a": self.a,
            "b": self.b,
            "observed": self.observed,
            "reference": self.reference,
        }


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Outcome of a lattice scan: pass means zero violations at this resolution."""

    kind: str
    resolution: int
    passed: bool
    violations: tuple[AxiomViolation, ...]

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def to_json_dict(self, max_listed: int = 50) -> dict:
        return {
            "kind": self.kind,
            "resolution": self.resolution,
            "passed": self.passed,
            "violation_count": self.violation_count,
            "violations": [v.to_json_dict() for v in self.violations[: _checked_int(max_listed, "max_listed", 0)]],
        }


def validate_semicopula(s: Semicopula, check_resolution: int) -> ValidationReport:
    """Scan a uniform (check_resolution+1)^2 lattice for axiom violations.

    Checked at every lattice point, with absolute tolerance 1e-12:
    monotonicity in each coordinate, the neutral element on both sides, and
    the derived consequences S(a,b) <= min(a,b) and S(x,0) = 0 = S(0,x).
    """
    _require_types(("s", s, Semicopula))
    check_resolution = _checked_int(check_resolution, "check_resolution", 2, MAX_RESOLUTION)
    axis = np.linspace(0.0, 1.0, check_resolution + 1)
    grid_a, grid_b = np.broadcast_arrays(axis[:, None], axis[None, :])  # read-only views: no lattice copy
    values = s._evaluate_array(grid_a, grid_b)

    last = check_resolution
    bound = np.minimum(grid_a, grid_b)
    zero, one = np.zeros_like(axis), np.ones_like(axis)
    # (axiom, failing cells, a, b, observed, reference) in report order; the arrays of one check share a shape
    checks = (
        ("monotone-first-arg", values[:-1, :] - values[1:, :] > AXIOM_TOL,
         grid_a[1:, :], grid_b[1:, :], values[1:, :], values[:-1, :]),
        ("monotone-second-arg", values[:, :-1] - values[:, 1:] > AXIOM_TOL,
         grid_a[:, 1:], grid_b[:, 1:], values[:, 1:], values[:, :-1]),
        ("neutral-right", np.abs(values[:, last] - axis) > AXIOM_TOL, axis, one, values[:, last], axis),
        ("neutral-left", np.abs(values[last, :] - axis) > AXIOM_TOL, one, axis, values[last, :], axis),
        ("min-bound", values - bound > AXIOM_TOL, grid_a, grid_b, values, bound),
        ("zero-right", np.abs(values[:, 0]) > AXIOM_TOL, axis, zero, values[:, 0], zero),
        ("zero-left", np.abs(values[0, :]) > AXIOM_TOL, zero, axis, values[0, :], zero),
    )
    # boolean-mask indexing walks the failing cells in row-major order, as np.nonzero does
    violations = tuple(
        AxiomViolation(axiom, a, b, observed, reference)
        for axiom, bad, *cells in checks
        for a, b, observed, reference in zip(*(x[bad].tolist() for x in cells))
    )
    return ValidationReport(s.kind, check_resolution, not violations, violations)
