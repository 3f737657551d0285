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


def check_closed(name, value, lo, hi, tol=0, open_ends=False):
    """Refuse a value outside [lo - tol, hi + tol] with a ParameterError,
    NaN included, and one that does not compare as a number (a string,
    None, a complex, a list, an array of several entries); with open_ends
    also lo and hi.  The message names the interval to six digits."""
    ends = (lo, hi) if open_ends else ()
    try:
        inside = lo - tol <= value <= hi + tol and value not in ends
    except (TypeError, ValueError):
        raise ParameterError(f"{name}={value!r} is not a number") from None
    if not inside:
        both = f"{lo:g}, {hi:g}"
        span = f"the open interval ({both})" if ends else f"[{both}]"
        raise ParameterError(f"{name}={value} outside {span}")
    return value
