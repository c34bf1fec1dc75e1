"""Exception types shared across the package, and its one integer check."""

import numbers


class CovrankError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CovrankError, ValueError):
    """An input, configuration, or precondition check failed."""


class NumericalError(CovrankError, RuntimeError):
    """A numerical routine failed to converge within its budget, or float64
    under- or overflowed where the result depends on it.

    Carries the best available estimate so callers can decide whether the
    partial result is still usable. When the failing call evaluated a stack
    of inputs, ``index`` is the position of the lowest failing one.
    """

    def __init__(self, message, *, best_estimate=None, achieved_rel_tol=None, index=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_rel_tol = achieved_rel_tol
        self.index = index

    def at(self, index, context=""):
        """This error for stack position ``index``, its message prefixed with
        ``context``; the new error's ``__cause__`` is this one."""
        error = NumericalError(f"{context}{self}", best_estimate=self.best_estimate,
                               achieved_rel_tol=self.achieved_rel_tol, index=index)
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
