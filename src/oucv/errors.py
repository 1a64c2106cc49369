"""Semantic exception hierarchy.

The CLI maps these onto exit codes: domain errors (invalid designs or
parameters, rank deficiency) exit 1, I/O errors exit 2, numerical
failures (ill-conditioning, nonfinite values) exit 3.
"""

import math
import numbers

import numpy as np


class OucvError(Exception):
    """Base class for all library errors."""


class InvalidDesignError(OucvError):
    """A point set violates the design invariants (sorted, distinct,
    endpoints 0 and 1, minimum size)."""


class InvalidParameterError(OucvError):
    """A scalar argument is outside its documented domain."""


def positive_finite(value) -> bool:
    """Whether ``value`` is a real number, not a bool, positive and finite as a float."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0.0 < float(value) < math.inf
    except OverflowError:  # an integer past the float range
        return False


def check_positive(name: str, value) -> float:
    """``value`` as a float, refused as parameter ``name`` unless :func:`positive_finite` holds."""
    if positive_finite(value):
        return float(value)
    raise InvalidParameterError(f"{name} must be positive and finite, got {value!r}")


class FactorialOverflowError(InvalidParameterError):
    """Factorial-gap construction requested beyond binary64 range (n > 170)."""


class LinearDependenceError(OucvError):
    """Trend basis functions are numerically linearly dependent on the design."""


class ConditioningError(OucvError):
    """A dense factorization or a leave-one-out variance collapsed numerically."""


class NumericalFailureError(OucvError):
    """A nonfinite value appeared where the computation cannot continue."""

    def __init__(self, message, theta=None):
        super().__init__(message)
        self.theta = theta


def check_finite(what: str, value, theta=None):
    """``value`` unchanged, or a NumericalFailureError saying that ``what``
    is not finite, at ``theta``, when an entry of it is NaN or infinite:
    the output twin of :func:`check_positive`."""
    if np.isfinite(value).all():
        return value
    raise NumericalFailureError(f"{what} is not finite", theta=theta)
