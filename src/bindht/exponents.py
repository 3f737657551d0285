"""Large-deviation exponents for quantization-plus-channel noise weights.

The recurring random object is W = wt(c + U + Z)/n where c is a fixed
center of normalized weight w, U is uniform over a type class (or a
Hamming ball) of radius a, and Z is iid Bernoulli(p).  The exponents
below give the first-order term of log-probabilities of weight events
for this mixture, plus the classical random-coding and expurgated
exponents of the BSC used for the binning analysis.

All exponents are in bits per symbol.  Minimizations follow a common
pattern: the innermost weight-difference problem is solved in closed
form (its stationarity condition is a quadratic), the overlap variable
of the sphere exponent is convex and handled by golden section, and the
remaining one-dimensional searches use a coarse grid with golden-section
refinement.  At a center weight w of 0 or 1 the overlap is forced (g = 0
or g = r), so the sphere exponent is a single evaluation of the
weight-difference exponent and no search runs.  Array-valued private
helpers (suffix ``_vec``) carry the same computations elementwise so the
region-level optimizations can scan parameter grids without Python-loop
overhead.

Convexity notes, used where golden section is applied without a grid:
the weight-difference objective is a sum of perspectives of binary
divergences, hence jointly convex in (x, alpha, beta, tau); the overlap
objective of the sphere exponent is that partial minimum plus the
hypergeometric rate, again convex; the sphere exponent itself is convex
in the target weight tau, zero at the typical weight, which reduces the
ball version to a single sphere evaluation at the clipped target.
"""

import math

import numpy as np
from scipy.special import xlogy

from .binmath import binary_convolution, binary_entropy
from .errors import ParameterError
from .optim import golden_min, golden_min_vec, grid_golden_max

_LN2 = math.log(2.0)

#: cap on the expurgated-exponent slope parameter (reciprocal grid lower end)
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
    """Sphere-hit exponent, elementwise over (r, w, tau); 0 < p < 1.

    min over the overlap g of _hyp_rate + weight-difference exponent of
    the remaining Bernoulli flips; the objective is convex in g.  The
    g-independent parts of the overlap rate are hoisted out of the
    golden loop.
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
    if p == 0.0 or p == 1.0:
        # only the deterministic overlap remains
        target = tau if p == 0.0 else 1.0 - tau
        g = 0.5 * (w + a - target)
        if g < max(0.0, a + w - 1.0) - _TOL or g > min(w, a) + _TOL:
            return math.inf
        g = min(max(g, max(0.0, a + w - 1.0)), min(w, a))
        return float(max(_hyp_rate(a, w, g), 0.0))
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
    sig_typ = binary_convolution(w, a)
    tau_typ = binary_convolution(sig_typ, p)
    if theta >= tau_typ:
        return 0.0
    return mixed_weight_exponent(p, a, w, theta)


def ball_noise_ball_exponent(p, a, w, theta):
    """Like type_noise_ball_exponent but with U uniform over the ball.

    A ball-uniform U lands on the type-r shell with probability about
    2^{-n(h(a) - h(r))}, so the exponent is the best trade between that
    shell penalty and the type-conditional exponent:

        min over r in [0, a] of (h(a) - h(r)) + type-noise exponent at r.
    """
    p = _check01(p, "p")
    a = _check01(a, "a")
    w = _check01(w, "w")
    theta = _check01(theta, "theta")
    if a == 0.0:
        return type_noise_ball_exponent(p, a, w, theta)
    if p == 0.0 or p == 1.0:
        raise ParameterError("ball_noise_ball_exponent requires 0 < p < 1")
    step = max(a / 400.0, 1e-5)
    rs = np.linspace(0.0, a, int(math.ceil(a / step)) + 1)
    vals = -_h_vec(rs) + _ball_type_vec(p, rs, w, theta)
    i = int(np.argmin(vals))

    def f(r):
        return float(
            -_h_vec(np.asarray(r)) + _ball_type_vec(p, np.asarray(r), w, theta)
        )

    lo = rs[max(i - 1, 0)]
    hi = rs[min(i + 1, len(rs) - 1)]
    _, refined = golden_min(f, float(lo), float(hi), tol=1e-8)
    best = min(float(vals[i]), refined)
    return max(best + binary_entropy(a), 0.0)


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

def _gallager_rc(p, rho):
    s = 1.0 / (1.0 + rho)
    if p <= 0.0:
        e0 = 0.0
    else:
        e0 = (1.0 + rho) * math.log2(p ** s + (1.0 - p) ** s)
    return rho - e0


def random_coding_exponent(p, rate):
    """Gallager's random-coding exponent of the BSC(p) at the given rate."""
    p = _check01(p, "p", hi=0.5)
    rate = _check01(rate, "rate")
    _, val = grid_golden_max(
        lambda rho: _gallager_rc(p, rho) - rho * rate, 0.0, 1.0
    )
    return max(val, 0.0)


def expurgated_exponent(p, rate):
    """Expurgated exponent of the BSC(p); slope capped at RHO_MAX.

    The search runs over the reciprocal slope s = 1/rho in [1/RHO_MAX, 1]
    so the coarse grid stays affordable; the objective is concave in rho.
    """
    p = _check01(p, "p", hi=0.5)
    rate = _check01(rate, "rate")
    x = 2.0 * math.sqrt(p * (1.0 - p))

    def obj(s):
        if x <= 0.0:
            return (1.0 - rate) / s
        return -(math.log2(0.5 + 0.5 * x ** s) + rate) / s

    _, val = grid_golden_max(obj, 1.0 / RHO_MAX, 1.0)
    return val


def best_channel_exponent(p, rate):
    """Larger of the random-coding and expurgated exponents, clamped at 0."""
    return max(
        random_coding_exponent(p, rate), expurgated_exponent(p, rate), 0.0
    )


def best_channel_exponent_vec(p, rate):
    """Elementwise best_channel_exponent over broadcast arrays.

    Same coarse-grid-plus-golden search as the scalar version, run on
    all elements at once; p = 0 entries fall back to the closed forms
    (1 - rate for random coding, slope-capped (1 - rate) * RHO_MAX for
    the expurgated branch).
    """
    p, rate = np.broadcast_arrays(
        np.asarray(p, float), np.asarray(rate, float)
    )
    shape = p.shape
    p = np.clip(p.ravel(), 0.0, 0.5)
    rate = np.clip(rate.ravel(), 0.0, 1.0)
    pos = p > 0.0
    ps = np.where(pos, p, 0.25)

    def rc_neg(rho):
        s = 1.0 / (1.0 + rho)
        e0 = (1.0 + rho) * np.log2(ps ** s + (1.0 - ps) ** s)
        return -(rho - e0 - rho * rate)

    rho_grid = np.linspace(0.0, 1.0, 65)
    vals = np.stack([rc_neg(np.full_like(ps, r)) for r in rho_grid])
    i = np.argmin(vals, axis=0)
    step = rho_grid[1] - rho_grid[0]
    lo = np.clip(rho_grid[i] - step, 0.0, 1.0)
    hi = np.clip(rho_grid[i] + step, 0.0, 1.0)
    _, er = golden_min_vec(rc_neg, lo, hi)
    er = np.maximum(-er, 0.0)
    er = np.where(pos, er, 1.0 - rate)

    x = 2.0 * np.sqrt(ps * (1.0 - ps))

    def ex_neg(s):
        return (np.log2(0.5 + 0.5 * x ** s) + rate) / s

    s_grid = np.linspace(1.0 / RHO_MAX, 1.0, 65)
    vals = np.stack([ex_neg(np.full_like(ps, s)) for s in s_grid])
    i = np.argmin(vals, axis=0)
    step = s_grid[1] - s_grid[0]
    lo = np.clip(s_grid[i] - step, 1.0 / RHO_MAX, 1.0)
    hi = np.clip(s_grid[i] + step, 1.0 / RHO_MAX, 1.0)
    _, ex = golden_min_vec(ex_neg, lo, hi)
    ex = -ex
    ex = np.where(pos, ex, (1.0 - rate) * RHO_MAX)

    return np.maximum(np.maximum(er, ex), 0.0).reshape(shape)
