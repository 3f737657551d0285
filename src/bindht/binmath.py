"""Binary-alphabet information quantities.

Everything is measured in bits (all logarithms base 2).  Probabilities
live in [0, 1]; the conventions 0*log(0) = 0 and d(p||q) = +inf for
q in {0, 1} with p != q are applied throughout.  The scalar functions
check their domain.  The divergence and the convolution then make a
one-row call into their array kernels, so each has one formula.
`binary_entropy` and the bisection inverse stay scalar code: the
bisection reads the entropy formula, without the check, some forty
times per inverse, and the Stein scan calls the inverse once per rate,
where a one-row array call costs several times the formula.  The array
helpers (`xlogy`, `_h_vec`, `_conv_vec`, `binary_divergence_vec`, the
inverse entropy) are the elementwise building blocks of the kernels
and trust their callers.
"""

import math
import sys

import numpy as np

from .errors import check_closed

#: absolute slack accepted on probability / rate domain checks
DOMAIN_TOL = 1e-9

_LN2 = math.log(2.0)
_LN4 = math.log(4.0)


def _check_unit(x, name, hi=1.0):
    return min(max(check_closed(name, x, 0.0, hi, tol=DOMAIN_TOL), 0.0), hi)


def _entropy(p):
    """h(p) for a float p in [0, 1], unchecked."""
    if p == 0.0 or p == 1.0:
        return 0.0
    return (-p * math.log(p) - (1.0 - p) * math.log(1.0 - p)) / _LN2


def binary_entropy(p):
    """h(p) = p log(1/p) + (1-p) log(1/(1-p)) in bits."""
    return _entropy(_check_unit(p, "p"))


def binary_divergence(p, q):
    """d(p||q) between Bernoulli(p) and Bernoulli(q), in bits.

    Returns +inf when q is degenerate and p differs from it.
    """
    return float(binary_divergence_vec(_check_unit(p, "p"), _check_unit(q, "q")))


def binary_convolution(p, q):
    """p * q = p(1-q) + (1-p)q, the crossover of two stacked BSCs."""
    return float(_conv_vec(_check_unit(p, "p"), _check_unit(q, "q")))


def inverse_binary_entropy(y):
    """The unique p in [0, 1/2] with h(p) = y, by bisection.

    Monotone to within the 1e-12 bisection tolerance.
    """
    y = _check_unit(y, "y")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _entropy(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def gv_distance(rate):
    """Gilbert-Varshamov radius h^{-1}(1 - R) of a rate-R code."""
    return inverse_binary_entropy(1.0 - _check_unit(rate, "rate"))


# ---------------------------------------------------------------------------
# array helpers

def xlogy(x, y):
    """x * ln(y) elementwise, and 0 wherever x == 0.

    Natural logarithm, as in ``scipy.special.xlogy``.  Where x == 0 the
    result is 0 whatever y is, NaN included (scipy gives NaN for a NaN
    y); a NaN x gives NaN.  Where x != 0, y <= 0 gets np.log's -inf or
    NaN and its RuntimeWarning: no caller in this package makes such a
    pair.
    """
    out = np.log(np.where(x != 0, y, 1.0))
    out *= x
    return out


def _h_vec(u):
    """Binary entropy of an array, safe at the endpoints."""
    u = np.clip(u, 0.0, 1.0)
    return -(xlogy(u, u) + xlogy(1.0 - u, 1.0 - u)) / _LN2


def _conv_vec(u, p):
    """Binary convolution u * p = u (1 - p) + p (1 - u), elementwise."""
    return u + p - 2.0 * p * u


def binary_divergence_vec(p, q):
    """d(p||q) in bits, elementwise over broadcast arrays in [0, 1].

    The scalar's conventions: 0 where p = q, +inf where q is 0 or 1 and
    p differs from it, and a clamp at 0 against rounding.  p / q
    overflows for a subnormal q; the log difference is taken there.
    """
    p, q = np.asarray(p, float), np.asarray(q, float)
    edge = (q <= 0.0) | (q >= 1.0)
    q_in = np.where(edge, 0.5, q)
    tiny = q_in < sys.float_info.min
    head = xlogy(p, p / np.where(tiny, 1.0, q_in))
    head = np.where(tiny, head - xlogy(p, q_in), head)
    d = (head + xlogy(1.0 - p, (1.0 - p) / (1.0 - q_in))) / _LN2
    return np.where(edge, np.where(p == q, 0.0, np.inf), np.maximum(d, 0.0))


def inverse_binary_entropy_vec(y):
    """The p in [0, 1/2] with h(p) = y, elementwise, by Newton's method.

    h is concave and increasing on [0, 1/2], so Newton steps taken from
    below stay below the root and rise to it.  The start is Topsoe's
    bound h(p) <= (4 p (1 - p))^(1/ln 4), solved for p, which lies below
    the root and matches h to second order at 1/2, where the inverse is
    ill-conditioned.  Four steps leave an h-residual of at most 4.4e-16;
    the result then matches a 60-step bisection to 4e-14 for y <= 1 -
    1e-6, and to the conditioning limit of a few 1e-9 closer to 1.  The
    start is floored at the smallest normal float, so no logarithm sees
    0 and nothing warns; y = 0 gives exactly 0 and y = 1 exactly 1/2.
    Inputs are clipped to [0, 1].
    """
    y = np.clip(np.asarray(y, float), 0.0, 1.0)
    u = y ** _LN4
    x = np.maximum(0.5 * u / (1.0 + np.sqrt(1.0 - u)), sys.float_info.min)
    for _ in range(4):
        lx = np.log(x)
        l1 = np.log1p(-x)
        slope = l1 - lx  # ln 2 * h'(x), 0 only at x = 1/2
        step = np.divide(
            _LN2 * y + x * lx + (1.0 - x) * l1, slope,
            out=np.zeros_like(x), where=slope > 0.0,
        )
        x = np.clip(x + step, sys.float_info.min, 0.5)
    return np.where(y > 0.0, x, 0.0)
