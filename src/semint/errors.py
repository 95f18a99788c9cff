"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` that the CLI reuses
when it emits structured error objects.
"""

from __future__ import annotations

import numpy as np


class SemintError(Exception):
    """Base class for every error raised by this package."""

    code = "error"


class DomainError(SemintError, ValueError):
    """An argument violates its contract (value outside [0,1], bad mask, ...)."""

    code = "domain"


class SpaceMismatchError(SemintError):
    """Objects built over different finite spaces were combined."""

    code = "space-mismatch"


class CapacityError(SemintError):
    """A candidate capacity violates the capacity axioms."""

    code = "capacity"


class NotNormalizedError(CapacityError):
    """Boundary condition broken: the empty set must map to 0 and the full set to 1."""

    code = "not-normalized"


class NotMonotoneError(CapacityError):
    """Monotonicity broken; carries a witness: mask A and element i with mu(A) > mu(A + {i})."""

    code = "not-monotone"

    def __init__(self, message: str, mask: int | None = None, element: int | None = None):
        super().__init__(message)
        self.mask = mask
        self.element = element


class MaxNotOneError(CapacityError):
    """Possibility weights must attain the value 1 somewhere."""

    code = "max-not-one"


class BadWeightsError(CapacityError):
    """Additive weights are negative or do not sum to 1."""

    code = "bad-weights"


class BadDistortionError(CapacityError):
    """Distortion samples are non-monotone or have wrong endpoints."""

    code = "bad-distortion"


class BadGridError(SemintError):
    """A threshold grid contains entries outside the half-open interval (0, 1]."""

    code = "bad-grid"


class BadRateError(SemintError):
    """A rate description does not produce positive, vanishing values."""

    code = "bad-rate"


class SchemaError(SemintError):
    """An instance document is structurally invalid.

    ``location`` is a JSON-pointer-like path into the offending document;
    the whole document, the empty pointer ``""``, reads ``"/"``.
    """

    code = "schema"

    def __init__(self, message: str, location: str = "/"):
        super().__init__(message)
        self.location = location or "/"


def _checked_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int if it is an int or a numpy integer in ``low..high``, else a ``DomainError`` naming ``name``.

    ``bool`` is refused although it subclasses int: ``True`` as a size or a
    position is a mistake, not the number 1.  The bounds are inclusive, and ``high`` comes with ``low``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an int, got {type(value).__name__}")
    value = int(value)
    if low is not None and value < low or high is not None and value > high:
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise DomainError(f"{name} must be {bound}, got {value}")
    return value


def _require_types(*expected: tuple[str, object, type]) -> None:
    """Raise a ``DomainError`` for the first ``(name, value, cls)`` whose value is not a ``cls``, naming both types.

    The entry points that take library objects call it up front, or, where
    a call must stay cheap, only once an attribute read has raised
    ``AttributeError``, which they raise again if every argument has its type.
    """
    for name, value, cls in expected:
        if not isinstance(value, cls):
            raise DomainError(f"{name} must be a {cls.__name__}, got {type(value).__name__}") from None


def _float_array(values, name: str, *, copy: bool = False) -> np.ndarray:
    """``values``, a number or an array of them, as float64, or a ``DomainError`` naming ``name``.

    Without ``copy`` a float64 ndarray is returned as it is, else always a new array.  Ragged rows, entries
    that are not numbers (a dict, say), ints too large for a double, complex numbers and text raise the
    ``DomainError``; numpy would read ``"0.5"`` as a number, so str and bytes are refused before the cast.
    """
    try:
        array = np.asarray(values)
        kind = array.dtype.kind
        if kind in "biuf" or kind == "O" and not any(isinstance(v, (str, bytes)) for v in array.flat):
            # a list or tuple is read into a new array already
            return array.astype(np.float64, copy=copy and not isinstance(values, (list, tuple)))
    except (TypeError, ValueError, OverflowError):  # TypeError for a dict or an object entry
        pass
    raise DomainError(f"{name} must be a regular array of numbers")


def _float(value, name: str) -> float:
    """``value`` as one float, read by ``_float_array``; ``bool`` is refused, as ``_checked_int`` refuses it."""
    try:
        array = _float_array(value, name)
    except DomainError:
        array = None
    if array is None or array.ndim or isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{name} must be a number a double can hold, got {type(value).__name__}")
    return float(array)


def _kept_array(values, name: str) -> np.ndarray:
    """``values`` as the read-only float64 array a constructor keeps, or a ``DomainError`` naming ``name``.

    The trust boundary of every array a ``Capacity``, ``MeasurableFn`` or
    table ``Semicopula`` keeps: its constructor checks the values once, and no
    later code checks them again.  A read-only float64 ndarray (not a
    subclass) that owns its memory is kept as it is; anything else, which the
    caller could still write, is copied.  Calling ``setflags(write=True)`` on a
    kept array and writing to it is unsupported.
    """
    if type(values) is np.ndarray and not values.flags.writeable and values.base is None and values.dtype == np.float64:
        return values
    kept = _float_array(values, name, copy=True)
    kept.setflags(write=False)
    return kept
