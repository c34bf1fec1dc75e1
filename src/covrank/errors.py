"""Exception types shared across the package, its one rule each for public
integer, real-number, bool and test-level arguments, and its one warning on
the sample size."""

import numbers
import warnings

import numpy as np

__all__ = ["CovrankError", "ValidationError", "NumericalError"]


class CovrankError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CovrankError, ValueError):
    """An input, configuration, or precondition check failed."""


class NumericalError(CovrankError, RuntimeError):
    """A numerical routine failed to converge within its budget, or float64
    under- or overflowed where the result depends on it.

    Carries the best available estimate so callers can decide whether the
    partial result is still usable. When the failing call evaluated a stack
    of inputs, ``index`` is the position of the lowest failing one, and
    ``values`` holds the results of the rows before it, in the call's own
    result type, each as that row alone would get it.
    """

    def __init__(self, message, *, best_estimate=None, achieved_rel_tol=None, index=None,
                 values=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_rel_tol = achieved_rel_tol
        self.index = index
        self.values = values

    def at(self, index, context="", values=None):
        """This error for stack position ``index``, its message prefixed with
        ``context``, carrying ``values`` if given and else this error's; the
        new error's ``__cause__`` is this one."""
        error = NumericalError(f"{context}{self}", best_estimate=self.best_estimate,
                               achieved_rel_tol=self.achieved_rel_tol, index=index,
                               values=self.values if values is None else values)
        error.__cause__ = self
        return error


def _integer(name: str, value, low=None) -> int:
    """``value`` as an int; ValidationError unless it is an integer (numpy
    integers included, bools refused) and, when ``low`` is given, >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a float; ValidationError unless it is a Python or numpy
    integer or float. Bools, 0-d arrays and Python ints beyond numpy's 64-bit
    integers are refused, as ``_real_array`` refuses them."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or np.asarray(value).dtype.kind not in "iuf"):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _bool(name: str, value) -> bool:
    """``value`` as a bool; ValidationError unless it is a Python or numpy bool.
    Truthy stand-ins such as ``"no"``, ``1`` and ``None`` are refused."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _check_alpha(alpha) -> float:
    """The test level as a float; ValidationError unless it is a real number in (0, 1)."""
    alpha = _real("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def _warn_n_not_above_p(n: int, p: int) -> None:
    """Warn, on behalf of the caller's caller, when n <= p."""
    if n <= p:
        warnings.warn(f"n={n} observations for p={p} covariates; "
                      "the test's guarantees assume n > p", stacklevel=3)


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array (the same object when it already is one);
    ValidationError unless numpy reads it as a non-ragged array of integers or
    floats. Bools, strings, None, complex numbers and object arrays are refused."""
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ValidationError(f"{name} must be an array of real numbers, "
                              "got a ragged sequence") from None
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be an array of real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)
