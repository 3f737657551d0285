"""Large-deviation exponents for quantization-plus-channel noise weights.

The recurring random object is W = wt(c + U + Z)/n where c is a fixed
center of normalized weight w, U is uniform over a type class (or a
Hamming ball) of radius a, and Z is iid Bernoulli(p).  The exponents
below give the first-order term of log-probabilities of weight events
for this mixture, plus the classical random-coding and expurgated
exponents of the BSC used for the binning analysis.  The channel
exponents are Gallager's closed forms, evaluated elementwise in one
place; the scalar functions are validated one-row calls into it.

All exponents are in bits per symbol.  The innermost weight-difference
problem is solved in closed form (its stationarity condition is a
quadratic).  The only remaining search is the overlap variable of the
sphere exponent, which is convex and handled by golden section; at a
center weight w of 0 or 1 the overlap is forced (g = 0 or g = r), so
the sphere exponent is a single evaluation of the weight-difference
exponent and no search runs.  The minimum over the noise type of a
ball-uniform U is a closed form (`_shell_row_min`).  Array-valued
private helpers (suffix ``_vec``) carry the same computations
elementwise so the region-level optimizations can scan parameter grids
without Python-loop overhead.

Convexity notes: the weight-difference objective is a sum of
perspectives of binary divergences, hence jointly convex in (x, alpha,
beta, tau); the overlap objective of the sphere exponent is that
partial minimum plus the hypergeometric rate, again convex; the sphere
exponent itself is convex in the target weight tau, zero at the typical
weight, which reduces the ball version to a single sphere evaluation at
the clipped target.
"""

import math

import numpy as np

from .binmath import (
    _LN2,
    DOMAIN_TOL,
    _check_unit,
    _conv_vec,
    _h_vec,
    binary_divergence_vec,
    inverse_binary_entropy_vec,
    xlogy,
)
from .errors import ParameterError
from .optim import golden_min_vec

#: cap on the expurgated-exponent slope rho (s = 1/rho stays >= 1/RHO_MAX)
RHO_MAX = 1e4


# ---------------------------------------------------------------------------
# array-safe building blocks (natural parameters, output in bits)

def _persp_db(x, alpha, p):
    """alpha * d(x/alpha || p) as a perspective, safe at alpha = 0.

    Written with ratio arguments so each call costs two xlogy passes;
    the clamp keeps the ratio finite when alpha = 0 (x and rest are
    then 0 and xlogy ignores the second argument).
    """
    x = np.maximum(x, 0.0)
    rest = np.maximum(alpha - x, 0.0)
    d_hit = np.maximum(alpha * p, 1e-300)
    d_miss = np.maximum(alpha * (1.0 - p), 1e-300)
    return (xlogy(x, x / d_hit) + xlogy(rest, rest / d_miss)) / _LN2


def _ew_vec(p, alpha, beta, tau):
    """Closed-form weight-difference exponent, elementwise.

    Minimizes alpha d(x/alpha||p) + beta d((x-tau)/beta||p) over the
    feasible x; the stationary point solves a quadratic, and endpoints
    are always checked.  Requires 0 < p < 1.
    """
    alpha, beta, tau = np.broadcast_arrays(
        np.asarray(alpha, float), np.asarray(beta, float), np.asarray(tau, float)
    )
    lo = np.maximum(0.0, tau)
    hi = np.minimum(alpha, beta + tau)
    feasible = hi >= lo - 1e-12
    hi = np.maximum(hi, lo)

    def f(x):
        x = np.minimum(np.maximum(x, lo), hi)
        return _persp_db(x, alpha, p) + _persp_db(x - tau, beta, p)

    # The objective is convex on [lo, hi], so clipping the stationary
    # point to the interval lands exactly on the constrained minimizer
    # and the endpoints never need separate evaluation.
    a_coef = 1.0 - 2.0 * p
    b_coef = -tau * (1.0 - p) ** 2 + p * p * (alpha + beta + tau)
    c_coef = -p * p * alpha * (beta + tau)
    if abs(a_coef) < 1e-12:
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.where(np.abs(b_coef) > 0.0, -c_coef / b_coef, lo)
        best = f(root)
    elif p < 0.5:
        # roots have opposite signs (product c/a < 0); only the
        # positive one can be stationary on the feasible range
        disc = np.maximum(b_coef * b_coef - 4.0 * a_coef * c_coef, 0.0)
        sq = np.sqrt(disc)
        best = f((-b_coef + sq) / (2.0 * a_coef))
    else:
        disc = np.maximum(b_coef * b_coef - 4.0 * a_coef * c_coef, 0.0)
        sq = np.sqrt(disc)
        best = np.minimum(
            f((-b_coef + sq) / (2.0 * a_coef)),
            f((-b_coef - sq) / (2.0 * a_coef)),
        )
    return np.where(feasible, np.maximum(best, 0.0), np.inf)


def _sphere_vec(p, r, w, tau, iters=20):
    """Sphere-hit exponent, elementwise over (r, w, tau).

    min over the overlap g of the overlap rate h(r) - w h(g/w) - (1-w)
    h((r-g)/(1-w)) plus the weight-difference exponent of the remaining
    Bernoulli flips; the objective is convex in g.  The g-independent
    part of the overlap rate is hoisted out of the golden loop.  At p in
    {0, 1} no flip is random, so the target weight forces the overlap
    and only its rate remains (+inf where that overlap is infeasible).
    """
    r, w, tau = np.broadcast_arrays(
        np.asarray(r, float), np.asarray(w, float), np.asarray(tau, float)
    )
    one_w = 1.0 - w
    # Written as r - (1 - w) so that w = 1 gives lo == hi == r exactly
    # (r + w - 1 rounds); with w = 0 as well the overlap is forced.
    lo = np.maximum(0.0, r - one_w)
    hi = np.minimum(w, r)
    fixed = _h_vec(r) - (xlogy(w, w) + xlogy(one_w, one_w)) / _LN2

    def mix(g):
        """The g-dependent part of the overlap rate, g in [lo, hi]."""
        w_less = np.maximum(w - g, 0.0)
        r_less = np.maximum(r - g, 0.0)
        left = np.maximum(one_w - r_less, 0.0)
        return (
            xlogy(g, g) + xlogy(w_less, w_less)
            + xlogy(r_less, r_less) + xlogy(left, left)
        ) / _LN2

    if p == 0.0 or p == 1.0:
        g = 0.5 * (w + r - (tau if p == 0.0 else 1.0 - tau))
        feasible = (g >= lo - DOMAIN_TOL) & (g <= hi + DOMAIN_TOL)
        rate = np.maximum(fixed + mix(np.clip(g, lo, hi)), 0.0)
        return np.where(feasible, rate, np.inf)

    def obj(g):
        g = np.minimum(np.maximum(g, lo), hi)
        sig = np.minimum(np.maximum(w + r - 2.0 * g, 0.0), 1.0)
        return mix(g) + _ew_vec(p, 1.0 - sig, sig, tau - sig)

    _, val = golden_min_vec(obj, lo, hi, iters=iters)
    return np.maximum(fixed + val, 0.0)


def _ball_type_vec(p, r, w, theta, iters=20):
    """Type-noise ball exponent, elementwise (see type_noise_ball_exponent)."""
    r, w, theta = np.broadcast_arrays(
        np.asarray(r, float), np.asarray(w, float), np.asarray(theta, float)
    )
    tau_typ = _conv_vec(_conv_vec(w, r), p)
    tau_eval = np.minimum(theta, tau_typ)
    val = _sphere_vec(p, r, w, tau_eval, iters=iters)
    return np.where(theta >= tau_typ, 0.0, val)


def _shell_row_min(p, a, w, theta, iters=20):
    """Ball-noise ball exponent, elementwise (see ball_noise_ball_exponent).

    The minimum over the noise type r in [0, a] of h(a) - h(r) + B(r),
    with B the type-noise ball exponent at (r, w, theta), in closed
    form.  Were U uniform over all of {0,1}^n, U + Z would be uniform
    too, so P(wt(c + U + Z) <= theta n) would be the size of the
    theta-ball over 2^n.  Grouping that sum by the type of U gives
    min over all r of 1 - h(r) + B(r) = 1 - h(theta'), theta' =
    min(theta, 1/2), attained at the typical type of U given the event,
    r* = theta' * w * p (binary convolutions).  h(r) - B(r) is a partial
    maximum of a joint-type entropy under linear constraints, hence
    concave (the argument of `regions._binning_rows`), so the objective
    is convex in r and its minimum over [0, a] is h(a) - h(theta')
    where r* <= a, and B(a) elsewhere.  This holds for every center
    weight w; iters is passed on to the sphere search of B.
    """
    a, w, theta = np.broadcast_arrays(
        np.asarray(a, float), np.asarray(w, float), np.asarray(theta, float)
    )
    theta_c = np.minimum(theta, 0.5)
    r_star = _conv_vec(_conv_vec(theta_c, w), p)
    return np.where(
        r_star <= a,
        np.maximum(_h_vec(a) - _h_vec(theta_c), 0.0),
        _ball_type_vec(p, a, w, theta, iters=iters),
    )


# ---------------------------------------------------------------------------
# public scalar operations

def weight_difference_exponent(p, alpha, beta, tau):
    """Exponent of P(W1 - W2 = n tau), W1 ~ Bin(n alpha, p), W2 ~ Bin(n beta, p).

    Fractions alpha, beta >= 0 with alpha + beta <= 1.  Returns +inf when
    tau lies outside [-beta, alpha].
    """
    p = _check_unit(p, "p")
    if alpha < -DOMAIN_TOL or beta < -DOMAIN_TOL:
        raise ParameterError("alpha and beta must be nonnegative")
    if alpha + beta > 1.0 + DOMAIN_TOL:
        raise ParameterError(f"alpha+beta={alpha + beta!r} exceeds 1")
    alpha = max(float(alpha), 0.0)
    beta = max(float(beta), 0.0)
    tau = float(tau)
    if tau < -beta - DOMAIN_TOL or tau > alpha + DOMAIN_TOL:
        return math.inf
    if p == 0.0:
        return 0.0 if abs(tau) <= DOMAIN_TOL else math.inf
    if p == 1.0:
        return 0.0 if abs(tau - (alpha - beta)) <= DOMAIN_TOL else math.inf
    return float(_ew_vec(p, alpha, beta, min(max(tau, -beta), alpha)))


def mixed_weight_exponent(p, a, w, tau):
    """Exponent of the mixed noise hitting weight exactly tau.

    The noise is U + Z with U uniform over the type class of weight a
    and Z iid Bernoulli(p); the center has weight w, and tau is the
    normalized weight of c + U + Z.
    """
    p = _check_unit(p, "p")
    a = _check_unit(a, "a")
    w = _check_unit(w, "w")
    tau = _check_unit(tau, "tau")
    return float(_sphere_vec(p, a, w, tau, iters=60))


def type_noise_ball_exponent(p, a, w, theta):
    """Exponent of the mixed type-a noise landing within distance theta.

    Equals the minimum of mixed_weight_exponent over target weights in
    [0, theta]; by convexity in the target this is a single sphere
    evaluation at min(theta, typical weight), and zero beyond it.
    """
    p = _check_unit(p, "p")
    a = _check_unit(a, "a")
    w = _check_unit(w, "w")
    theta = _check_unit(theta, "theta")
    return float(_ball_type_vec(p, a, w, theta, iters=60))


def ball_noise_ball_exponent(p, a, w, theta):
    """Like type_noise_ball_exponent but with U uniform over the ball.

    A ball-uniform U lands on the type-r shell with probability about
    2^{-n(h(a) - h(r))}, so the exponent is the best trade between that
    shell penalty and the type-conditional exponent:

        min over r in [0, a] of (h(a) - h(r)) + type-noise exponent at r,

    which `_shell_row_min` gives in closed form.  The radius a is at
    most 1/2: beyond it the ball holds about 2^n points and h(a) is no
    longer its size exponent.
    """
    p = _check_unit(p, "p")
    a = _check_unit(a, "a", hi=0.5)
    w = _check_unit(w, "w")
    theta = _check_unit(theta, "theta")
    return float(_shell_row_min(p, a, w, theta, iters=60))


# ---------------------------------------------------------------------------
# BSC channel-coding exponents

def _channel_exponents_vec(p, rate, delta=None):
    """Random-coding and expurgated exponents of the BSC, elementwise.

    Gallager's closed forms (Information Theory and Reliable
    Communication, 1968, ch. 5), with delta = delta_GV(rate) and
    x = 2 sqrt(p (1 - p)):

    * random coding: d(delta || p) from the critical rate
      R_crit = 1 - h(sqrt(p) / (sqrt(p) + sqrt(1 - p))) up to capacity
      (0 beyond it), and the straight line 1 - 2 log2(sqrt(p) +
      sqrt(1 - p)) - rate below R_crit;
    * expurgated: max over s = 1/rho in [1/RHO_MAX, 1] of
      -(log2(1/2 + x^s / 2) + rate) / s.  The objective is concave in
      rho, and its stationary point solves x^s = delta / (1 - delta), so
      clipping that s to the interval gives the maximum.  At rate 0 the
      clip binds at the RHO_MAX cap, which keeps the value finite.

    Both are clamped at 0: with s at 1 the expurgated form falls below 0
    at rates above -log2(1/2 + x/2).

    p = 0 gives 1 - rate and (1 - rate) RHO_MAX; p = 1/2 (x = 1) puts
    s at 1.  Inputs are clipped to p in [0, 1/2] and rate in [0, 1].  A
    caller that already holds delta for the clipped rate passes it in.
    """
    p, rate = np.broadcast_arrays(
        np.clip(np.asarray(p, float), 0.0, 0.5),
        np.clip(np.asarray(rate, float), 0.0, 1.0),
    )
    pos = p > 0.0
    ps = np.where(pos, p, 0.25)
    if delta is None:
        delta = inverse_binary_entropy_vec(1.0 - rate)
    sq, sq_c = np.sqrt(ps), np.sqrt(1.0 - ps)
    r_crit = 1.0 - _h_vec(sq / (sq + sq_c))
    er = np.where(
        rate < r_crit,
        1.0 - 2.0 * np.log2(sq + sq_c) - rate,
        np.where(delta > ps, binary_divergence_vec(delta, ps), 0.0),
    )
    x = 2.0 * sq * sq_c
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log(delta / (1.0 - delta)) / np.log(x)
    s = np.where(x < 1.0, np.clip(s, 1.0 / RHO_MAX, 1.0), 1.0)
    ex = -(np.log2(0.5 + 0.5 * x ** s) + rate) / s
    er = np.where(pos, np.maximum(er, 0.0), 1.0 - rate)
    ex = np.where(pos, np.maximum(ex, 0.0), (1.0 - rate) * RHO_MAX)
    return er, ex


def _checked_channel(p, rate):
    return _channel_exponents_vec(
        _check_unit(p, "p", hi=0.5), _check_unit(rate, "rate")
    )


def random_coding_exponent(p, rate):
    """Gallager's random-coding exponent of the BSC(p) at the given rate."""
    er, _ = _checked_channel(p, rate)
    return float(er)


def expurgated_exponent(p, rate):
    """Expurgated exponent of the BSC(p); slope capped at RHO_MAX, value at 0."""
    _, ex = _checked_channel(p, rate)
    return float(ex)


def best_channel_exponent(p, rate):
    """Larger of the random-coding and expurgated exponents, clamped at 0."""
    er, ex = _checked_channel(p, rate)
    return max(float(er), float(ex), 0.0)


def best_channel_exponent_vec(p, rate, delta=None):
    """Elementwise best_channel_exponent over broadcast arrays.

    delta, if given, is delta_GV(rate) for the rate clipped to [0, 1].
    """
    er, ex = _channel_exponents_vec(p, rate, delta)
    return np.maximum(np.maximum(er, ex), 0.0)
