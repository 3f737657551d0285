"""Shared exception types, and the argument checks every module uses."""

import math
import numbers

import numpy as np


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
    """The value in [lo - tol, hi + tol] as a float; NaN is refused with a
    ParameterError, and so is a value that is not one real number (a
    string, None, a complex, a list, an array of any shape but 0-d); with
    open_ends also lo and hi.  The message names the interval to six
    digits."""
    ends = (lo, hi) if open_ends else ()
    try:
        # floats (numpy's float64 too) and ints skip the slower numpy tests
        if not isinstance(value, (float, int)) and (
                np.iscomplexobj(value) or np.ndim(value) > 0):
            raise TypeError
        inside = lo - tol <= value <= hi + tol and value not in ends
        # an int beyond the float range passes only an infinite bound
        number = float(value) if inside else None
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{name}={value!r} is not a number") from None
    if not inside:
        both = f"{lo:g}, {hi:g}"
        span = f"the open interval ({both})" if ends else f"[{both}]"
        raise ParameterError(f"{name}={value} outside {span}")
    return number


def check_seed(seed):
    """The `numpy.random.Generator` of seed, which may be anything
    `numpy.random.default_rng` accepts, an existing Generator included;
    anything else, a negative or non-integer number too, is a
    ParameterError."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ParameterError(f"seed={seed!r} is not a seed") from None
