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

    ``location`` is a JSON-pointer-like path into the offending document.
    """

    code = "schema"

    def __init__(self, message: str, location: str = "/"):
        super().__init__(message)
        self.location = location


def _checked_int(value, name: str) -> int:
    """``value`` as an int if it is an int or a numpy integer, else a ``DomainError`` naming ``name``.

    ``bool`` is refused although it subclasses int: ``True`` as a size or a
    position is a mistake, not the number 1.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an int, got {type(value).__name__}")
    return int(value)
