"""Deterministic golden-section search used by the exponent code.

``golden_min_vec`` is a fixed-iteration golden section applied
elementwise over numpy arrays.  It is only valid when each slice of the
objective is unimodal on its interval (the caller argues convexity).  It
always evaluates the interval endpoints and returns the best point
actually evaluated, so exact boundary optima survive untouched.
"""

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min_vec(fn, lo, hi, iters=48):
    """Elementwise golden section for array-valued unimodal objectives.

    `fn` must map an array of abscissae to an array of objective values
    (never NaN; +inf is fine).  Degenerate intervals (hi <= lo) collapse
    to their midpoint; when every interval is degenerate `fn` is
    evaluated once there and the search is skipped, since each probe
    would land on the same point.
    """
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    a, b = np.broadcast_arrays(a, b)
    a = a.copy()
    b = b.copy()
    bad = b < a
    if np.any(bad):
        mid = 0.5 * (a + b)
        a = np.where(bad, mid, a)
        b = np.where(bad, mid, b)
    if np.all(b <= a):
        return a, fn(a)
    lo0 = a.copy()
    hi0 = b.copy()
    span = b - a
    x1 = b - _INVPHI * span
    x2 = a + _INVPHI * span
    f1 = fn(x1)
    f2 = fn(x2)
    for _ in range(iters):
        left = f1 <= f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        x_keep = np.where(left, x1, x2)
        f_keep = np.where(left, f1, f2)
        span = b - a
        x_new = np.where(left, b - _INVPHI * span, a + _INVPHI * span)
        f_new = fn(x_new)
        x1 = np.where(left, x_new, x_keep)
        f1 = np.where(left, f_new, f_keep)
        x2 = np.where(left, x_keep, x_new)
        f2 = np.where(left, f_keep, f_new)
    x_best = np.where(f1 <= f2, x1, x2)
    f_best = np.minimum(f1, f2)
    for xe in (lo0, hi0):
        fe = fn(xe)
        x_best = np.where(fe < f_best, xe, x_best)
        f_best = np.minimum(fe, f_best)
    return x_best, f_best
