"""Small deterministic scalar optimizers used across the exponent code.

Two flavours:

* ``golden_min`` -- scalar golden section on a unimodal function, used
  to refine a grid bracket.
* ``golden_min_vec`` -- fixed-iteration golden section applied elementwise
  over numpy arrays.  Only valid when each slice of the objective is
  unimodal on its interval (the callers argue convexity case by case).

Both always evaluate the interval endpoints and return the best point
actually evaluated, so exact boundary optima survive untouched.
"""

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo, hi, tol=1e-8, max_iter=200):
    """Golden-section minimum of a unimodal f on [lo, hi]."""
    if hi <= lo:
        x = 0.5 * (lo + hi)
        return x, f(x)
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    it = 0
    while b - a > tol and it < max_iter:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        it += 1
    cands = [(f(lo), lo), (f(hi), hi), (f1, x1), (f2, x2)]
    fbest, xbest = min(cands, key=lambda t: t[0])
    return xbest, fbest


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
