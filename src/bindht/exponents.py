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
from scipy.special import xlogy

from .errors import ParameterError
from .optim import golden_min_vec

_LN2 = math.log(2.0)

#: cap on the expurgated-exponent slope rho (s = 1/rho stays >= 1/RHO_MAX)
RHO_MAX = 1e4

_TOL = 1e-9


def _check01(x, name, hi=1.0):
    if not (-_TOL <= x <= hi + _TOL):
        raise ParameterError(f"{name}={x!r} outside [0, {hi}]")
    return min(max(float(x), 0.0), hi)


# ---------------------------------------------------------------------------
# array-safe building blocks (natural parameters, output in bits)

def _h_vec(u):
    """Binary entropy of an array, safe at the endpoints."""
    u = np.clip(u, 0.0, 1.0)
    return -(xlogy(u, u) + xlogy(1.0 - u, 1.0 - u)) / _LN2


def _conv_vec(u, p):
    """Binary convolution u * p = u (1 - p) + p (1 - u), elementwise."""
    return u + p - 2.0 * p * u


def _gv_vec(rates):
    """gv_distance elementwise: bisect h(x) = 1 - rate on [0, 1/2]."""
    target = 1.0 - np.asarray(rates, float)
    lo = np.zeros_like(target)
    hi = np.full_like(target, 0.5)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _h_vec(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


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


def _hyp_rate(r, w, g):
    """Rate of the overlap g between independent types w and r.

    h(r) - w h(g/w) - (1-w) h((r-g)/(1-w)) with the usual perspective
    conventions at w in {0, 1}.
    """
    g = np.maximum(g, 0.0)
    w_less = np.maximum(w - g, 0.0)
    r_less = np.maximum(r - g, 0.0)
    left = np.maximum(1.0 - w - r_less, 0.0)
    h_r = _h_vec(r)
    part_w = (xlogy(w, w) - xlogy(g, g) - xlogy(w_less, w_less)) / _LN2
    part_c = (xlogy(1.0 - w, 1.0 - w) - xlogy(r_less, r_less) - xlogy(left, left)) / _LN2
    return h_r - part_w - part_c


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

    min over the overlap g of _hyp_rate + weight-difference exponent of
    the remaining Bernoulli flips; the objective is convex in g.  The
    g-independent parts of the overlap rate are hoisted out of the
    golden loop.  At p in {0, 1} no flip is random, so the target
    weight forces the overlap and only its rate remains (+inf where
    that overlap is infeasible).
    """
    r, w, tau = np.broadcast_arrays(
        np.asarray(r, float), np.asarray(w, float), np.asarray(tau, float)
    )
    one_w = 1.0 - w
    # Written as r - (1 - w) so that w = 1 gives lo == hi == r exactly
    # (r + w - 1 rounds); with w = 0 as well the overlap is forced.
    lo = np.maximum(0.0, r - one_w)
    hi = np.minimum(w, r)
    if p == 0.0 or p == 1.0:
        g = 0.5 * (w + r - (tau if p == 0.0 else 1.0 - tau))
        feasible = (g >= lo - _TOL) & (g <= hi + _TOL)
        rate = np.maximum(_hyp_rate(r, w, np.clip(g, lo, hi)), 0.0)
        return np.where(feasible, rate, np.inf)
    fixed = _h_vec(r) - (xlogy(w, w) + xlogy(one_w, one_w)) / _LN2

    def obj(g):
        g = np.minimum(np.maximum(g, lo), hi)
        w_less = np.maximum(w - g, 0.0)
        r_less = np.maximum(r - g, 0.0)
        left = np.maximum(one_w - r_less, 0.0)
        mix = (
            xlogy(g, g) + xlogy(w_less, w_less)
            + xlogy(r_less, r_less) + xlogy(left, left)
        ) / _LN2
        sig = np.minimum(np.maximum(w + r - 2.0 * g, 0.0), 1.0)
        return mix + _ew_vec(p, 1.0 - sig, sig, tau - sig)

    _, val = golden_min_vec(obj, lo, hi, iters=iters)
    return np.maximum(fixed + val, 0.0)


def _ball_type_vec(p, r, w, theta, iters=20):
    """Type-noise ball exponent, elementwise (see type_noise_ball_exponent)."""
    r, w, theta = np.broadcast_arrays(
        np.asarray(r, float), np.asarray(w, float), np.asarray(theta, float)
    )
    sig_typ = w + r - 2.0 * w * r
    tau_typ = sig_typ + p - 2.0 * p * sig_typ
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
    p = _check01(p, "p")
    if alpha < -_TOL or beta < -_TOL:
        raise ParameterError("alpha and beta must be nonnegative")
    if alpha + beta > 1.0 + 1e-9:
        raise ParameterError(f"alpha+beta={alpha + beta!r} exceeds 1")
    alpha = max(float(alpha), 0.0)
    beta = max(float(beta), 0.0)
    tau = float(tau)
    if tau < -beta - _TOL or tau > alpha + _TOL:
        return math.inf
    if p == 0.0:
        return 0.0 if abs(tau) <= _TOL else math.inf
    if p == 1.0:
        return 0.0 if abs(tau - (alpha - beta)) <= _TOL else math.inf
    return float(_ew_vec(p, alpha, beta, min(max(tau, -beta), alpha)))


def mixed_weight_exponent(p, a, w, tau):
    """Exponent of the mixed noise hitting weight exactly tau.

    The noise is U + Z with U uniform over the type class of weight a
    and Z iid Bernoulli(p); the center has weight w, and tau is the
    normalized weight of c + U + Z.
    """
    p = _check01(p, "p")
    a = _check01(a, "a")
    w = _check01(w, "w")
    tau = _check01(tau, "tau")
    return float(_sphere_vec(p, a, w, tau, iters=60))


def type_noise_ball_exponent(p, a, w, theta):
    """Exponent of the mixed type-a noise landing within distance theta.

    Equals the minimum of mixed_weight_exponent over target weights in
    [0, theta]; by convexity in the target this is a single sphere
    evaluation at min(theta, typical weight), and zero beyond it.
    """
    p = _check01(p, "p")
    a = _check01(a, "a")
    w = _check01(w, "w")
    theta = _check01(theta, "theta")
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
    p = _check01(p, "p")
    a = _check01(a, "a", hi=0.5)
    w = _check01(w, "w")
    theta = _check01(theta, "theta")
    return float(_shell_row_min(p, a, w, theta, iters=60))


def ball_exponent_forms(p, a, w, theta):
    """Both readings of the ball exponent, for diagnostics.

    ``two_stage`` minimizes the sphere exponent over target weights up to
    theta (the value used everywhere in this package); ``at_theta`` is
    the raw sphere exponent at theta, which is larger when theta exceeds
    the typical noise weight.
    """
    return {
        "two_stage": type_noise_ball_exponent(p, a, w, theta),
        "at_theta": mixed_weight_exponent(p, a, w, theta),
    }


# ---------------------------------------------------------------------------
# BSC channel-coding exponents

def _channel_exponents_vec(p, rate):
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
    s at 1.  Inputs are clipped to p in [0, 1/2] and rate in [0, 1].
    """
    p, rate = np.broadcast_arrays(
        np.clip(np.asarray(p, float), 0.0, 0.5),
        np.clip(np.asarray(rate, float), 0.0, 1.0),
    )
    pos = p > 0.0
    ps = np.where(pos, p, 0.25)
    delta = _gv_vec(rate)
    sq, sq_c = np.sqrt(ps), np.sqrt(1.0 - ps)
    r_crit = 1.0 - _h_vec(sq / (sq + sq_c))
    sphere = (
        xlogy(delta, delta / ps)
        + xlogy(1.0 - delta, (1.0 - delta) / (1.0 - ps))
    ) / _LN2
    er = np.where(
        rate < r_crit,
        1.0 - 2.0 * np.log2(sq + sq_c) - rate,
        np.where(delta > ps, sphere, 0.0),
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
        _check01(p, "p", hi=0.5), _check01(rate, "rate")
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


def best_channel_exponent_vec(p, rate):
    """Elementwise best_channel_exponent over broadcast arrays."""
    er, ex = _channel_exponents_vec(p, rate)
    return np.maximum(np.maximum(er, ex), 0.0)
