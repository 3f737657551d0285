"""Shared exception types, and the two argument checks every module uses."""

import math
import numbers


class ParameterError(ValueError):
    """A numeric argument is outside its documented domain."""


class LengthMismatchError(ValueError):
    """Bit-vector or matrix dimensions do not line up."""


class ResourceLimitError(RuntimeError):
    """A request would exceed the documented table/enumeration bounds."""


class SamplingFailureError(RuntimeError):
    """Random construction failed after the documented retry budget."""


def check_int(name, value, lo, hi=math.inf):
    """The integer value in [lo, hi] as an int; numpy integers pass, and
    anything else is a ParameterError."""
    if not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name}={value!r} is not an integer")
    if not lo <= value <= hi:
        raise ParameterError(f"{name}={value} outside [{lo}, {hi}]")
    return int(value)


def check_closed(name, value, lo, hi):
    """Refuse a value outside [lo, hi] with a ParameterError; NaN is
    outside every interval.  The bounds print to six digits, so a
    tolerance added to one does not show."""
    if not lo <= value <= hi:
        raise ParameterError(f"{name}={value} outside [{lo:g}, {hi:g}]")
    return value
