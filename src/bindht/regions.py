"""Achievable error-exponent pairs for the two-sensor testing schemes.

A doubly symmetric binary source is observed at two terminals; the
flip probability of the connecting channel is p0 under the null and p1
under the alternative (0 <= p0 <= p1 <= 1/2).  One terminal describes
its observation at a finite rate; the decision statistic is the
normalized distance between the helper description and the other
observation, compared against a threshold theta.

The quantize-and-bin scheme is parametrized by the quantization noise
level a (zero means binning only) and the message rate rate_x; the
induced bin rate is rate_bin = 1 - h(a) - rate_x.  `one_sided_pair`
evaluates the achievable exponent pair of that scheme at a threshold,
`symmetric_pair` is the equal-rate special case a = 0 (achievable with
modulo-sum decoding at both terminals), and `one_sided_stein` is the
best miss exponent under a vanishing false-alarm constraint.  The
prior one-sided benchmark (`prior_stein_bound`) and the
single-terminal/unconstrained references are included so callers can
reproduce the comparison sweeps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .binmath import (
    binary_convolution,
    binary_divergence,
    binary_entropy,
    gv_distance,
)
from .errors import ParameterError
from .exponents import (
    _ball_type_vec,
    _conv_vec,
    _gv_vec,
    _h_vec,
    _shell_row_min,
    best_channel_exponent_vec,
    type_noise_ball_exponent,
)

_TOL = 1e-9


@dataclass(frozen=True)
class HypothesisPair:
    """Crossover probabilities under the two hypotheses."""

    p0: float
    p1: float

    def __post_init__(self):
        if not (0.0 <= self.p0 <= self.p1 <= 0.5):
            raise ParameterError(
                f"need 0 <= p0 <= p1 <= 1/2, got p0={self.p0}, p1={self.p1}"
            )


@dataclass(frozen=True)
class ExponentPair:
    """(false-alarm exponent, miss exponent) in bits per sample."""

    e0: float
    e1: float


@dataclass(frozen=True)
class SchemeParams:
    """Operating point of the quantize-and-bin scheme.

    a is the quantization noise level, theta the decision threshold,
    rate_x the helper message rate; the bin rate 1 - h(a) - rate_x is
    derived.  time_share scales both exponents (a fraction of samples
    is simply ignored).
    """

    a: float
    theta: float
    rate_x: float
    time_share: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.a <= 0.5 + _TOL):
            raise ParameterError(f"a={self.a} outside [0, 1/2]")
        if not (0.0 <= self.rate_x <= 1.0 + _TOL):
            raise ParameterError(f"rate_x={self.rate_x} outside [0, 1]")
        if not (0.0 <= self.theta <= 1.0):
            raise ParameterError(f"theta={self.theta} outside [0, 1]")
        if not (0.0 <= self.time_share <= 1.0):
            raise ParameterError(f"time_share={self.time_share} outside [0, 1]")
        raw_bin = 1.0 - binary_entropy(self.a) - self.rate_x
        if raw_bin < -1e-6:
            raise ParameterError(
                f"a={self.a} exceeds the rate budget (bin rate {raw_bin})"
            )

    @property
    def rate_bin(self):
        return max(1.0 - binary_entropy(self.a) - self.rate_x, 0.0)


@dataclass(frozen=True)
class CurvePoint:
    theta: float
    a: float
    pair: ExponentPair
    alpha: float = 1.0


@dataclass(frozen=True)
class TradeoffCurve:
    scheme: str
    rate: float
    points: tuple

    def as_arrays(self):
        e0 = np.array([pt.pair.e0 for pt in self.points])
        e1 = np.array([pt.pair.e1 for pt in self.points])
        return e0, e1


# ---------------------------------------------------------------------------
# reference pairs

def unconstrained_pair(h, theta):
    """Exponent pair of the centralized threshold test, theta in (p0, p1)."""
    if not (h.p0 < theta < h.p1):
        raise ParameterError(
            f"theta={theta} outside the open interval ({h.p0}, {h.p1})"
        )
    return ExponentPair(
        binary_divergence(theta, h.p0), binary_divergence(theta, h.p1)
    )


def baseline_pair(h, rate, theta):
    """Rate-R time sharing of the unconstrained test (send R n raw bits)."""
    pair = unconstrained_pair(h, theta)
    return time_share(pair, rate)


def time_share(pair, alpha):
    """Run the scheme on an alpha fraction of samples, ignore the rest."""
    if not (0.0 <= alpha <= 1.0):
        raise ParameterError(f"alpha={alpha} outside [0, 1]")
    return ExponentPair(alpha * pair.e0, alpha * pair.e1)


# ---------------------------------------------------------------------------
# previously known one-sided (Stein) benchmark

def prior_stein_bound(h, rate_x):
    """Best previously known one-sided exponent at rate rate_x.

    Maximizes over the quantization level a the minimum of the helper
    noise term at threshold a * p0 and the rate-limited binning term
    rate_x - h(a * p0) + h(a).  The candidate scan includes the
    covering-radius endpoint, where the binning term exceeds the
    quantization term and the minimum reduces to the no-binning
    benchmark.
    """
    return _stein_scan(h, rate_x, need_ec=False).prior_max


# ---------------------------------------------------------------------------
# binning decision-error exponent

def _binning_rows(p1, a, theta, rate_bin):
    """Exponent of a wrong bin member landing inside the decision ball.

    Vectorized over parallel candidate rows: the maximum of the
    weight-spectrum branch (sum over coset weights above the
    Gilbert-Varshamov radius of the bin code) and the best channel
    exponent at the bin rate.

    The spectrum branch minimizes 1 - h(w) + ball_exponent(p1, a, w,
    theta) over the coset weights w above the bin code's covering
    radius w_lo.  Over that range w is at least a, and the ball
    exponent's inner minimum over the noise type r sits at the endpoint
    r = a: shrinking r only adds the shell penalty h(a) - h(r) while
    moving the noise farther from the target shell, so both terms grow.
    The ball exponent therefore equals the type exponent B(w) at a.

    That minimum has a closed form.  Summing P(wt(c + U + Z) <= theta n)
    over all 2^n offsets c counts the theta-ball, so the minimum over
    all w of 1 - h(w) + B(w) is 1 - h(theta), attained at w* = theta *
    a * p1 (binary convolutions).  h(w) - B(w) is the exponent of the
    number of theta-ball points at distance w from the noise word, a
    partial maximum of a joint-type entropy under linear constraints,
    hence concave; so 1 - h(w) + B(w) is convex and its minimum over
    w >= w_lo sits at max(w_lo, w*).  A theta above 1/2 acts as 1/2:
    the ball then holds about 2^n points and the minimum is 0.
    """
    a = np.asarray(a, float)
    theta = np.asarray(theta, float)
    rate_bin = np.clip(np.asarray(rate_bin, float), 0.0, 1.0)
    # Every caller has rate_bin <= 1 - h(a), so the covering radius is
    # at least a; the clamp only removes bisection rounding near a = 1/2.
    w_lo = np.maximum(_gv_vec(rate_bin), a)
    branch_spec = -rate_bin + _spectrum_min(p1, a, theta, w_lo)
    branch_chan = best_channel_exponent_vec(_conv_vec(a, p1), rate_bin)
    return np.maximum(np.maximum(branch_spec, branch_chan), 0.0)


def _spectrum_min(p, a, theta, w_lo):
    """min over w >= w_lo of 1 - h(w) + B(w), for rows with w_lo >= a.

    The closed form derived in `_binning_rows`: 1 - h(theta) where the
    unconstrained minimizer w* = theta * a * p is at least w_lo, one
    sphere evaluation at w_lo elsewhere.
    """
    theta_c = np.minimum(theta, 0.5)
    best = 1.0 - _h_vec(theta_c)
    below = _conv_vec(theta_c, _conv_vec(a, p)) < w_lo
    if np.any(below):
        w = w_lo[below]
        best[below] = 1.0 - _h_vec(w) + _ball_type_vec(
            p, a[below], w, theta[below]
        )
    return best


# ---------------------------------------------------------------------------
# achievable pairs of the coded schemes

def one_sided_pair(h, params):
    """Exponent pair of quantize-and-bin at the given operating point."""
    a, theta = params.a, params.theta
    lo, hi = binary_convolution(a, h.p0), binary_convolution(a, h.p1)
    if not (lo - _TOL <= theta <= hi + _TOL):
        raise ParameterError(
            f"theta={theta} outside [{lo}, {hi}] for a={a}"
        )
    theta = min(max(theta, lo), hi)
    e0, e1 = _pair_rows(h, [a], [theta], params.rate_x)
    pair = ExponentPair(float(e0[0]), float(e1[0]))
    return time_share(pair, params.time_share)


def symmetric_pair(h, rate, theta):
    """Equal-rate scheme (modulo-sum binning at both terminals): a = 0."""
    return one_sided_pair(
        h, SchemeParams(a=0.0, theta=theta, rate_x=rate)
    )


# ---------------------------------------------------------------------------
# one-sided (Stein) bound of the coded scheme

@dataclass(frozen=True)
class SteinScan:
    """Per-candidate terms of the one-sided bound at one rate.

    All arrays are aligned with ``levels`` (sorted quantization
    levels).  Both the new bound and the prior benchmark maximize over
    the same candidate set, so their comparison is free of grid skew.
    """

    levels: np.ndarray
    han: np.ndarray
    sha: np.ndarray
    ec: np.ndarray

    @property
    def new_max(self):
        return float(np.max(np.minimum(self.han, self.ec)))

    @property
    def prior_max(self):
        return float(np.max(np.minimum(self.han, self.sha)))


def _stein_terms(h, rate_x, levels, need_ec):
    theta = _conv_vec(levels, h.p0)
    han = np.asarray(_ball_type_vec(h.p1, levels, 0.0, theta), float)
    sha = rate_x - _h_vec(theta) + _h_vec(levels)
    if need_ec:
        rate_bin = np.maximum(1.0 - _h_vec(levels) - rate_x, 0.0)
        ec = _binning_rows(h.p1, levels, theta, rate_bin)
    else:
        ec = np.full_like(levels, math.inf)
    return han, sha, ec


def _stein_scan(h, rate_x, need_ec=True):
    a_hi = gv_distance(rate_x)
    if a_hi <= 0.0:
        levels = np.zeros(1)
        han, sha, ec = _stein_terms(h, rate_x, levels, need_ec)
        return SteinScan(levels, han, sha, ec)
    levels = np.linspace(0.0, a_hi, 49)
    han, sha, ec = _stein_terms(h, rate_x, levels, need_ec)
    span = a_hi / (len(levels) - 1)
    for npts in (17, 17):
        centers = {float(levels[int(np.argmax(np.minimum(han, sha)))])}
        if need_ec:
            centers.add(float(levels[int(np.argmax(np.minimum(han, ec)))]))
        extra = np.concatenate([
            np.linspace(max(0.0, c - span), min(a_hi, c + span), npts)
            for c in sorted(centers)
        ])
        h2, s2, e2 = _stein_terms(h, rate_x, extra, need_ec)
        levels = np.concatenate([levels, extra])
        han = np.concatenate([han, h2])
        sha = np.concatenate([sha, s2])
        ec = np.concatenate([ec, e2])
        span = 2.0 * span / (npts - 1)
    order = np.argsort(levels)
    return SteinScan(levels[order], han[order], sha[order], ec[order])


def one_sided_stein(h, rate_x):
    """Best miss exponent with vanishing false-alarm probability.

    Maximizes over the quantization level a the minimum of the helper
    type-noise term at threshold a * p0 and the binning decision-error
    term at the induced bin rate.
    """
    return _stein_scan(h, rate_x).new_max


def stein_columns(h, rate, alphas=None):
    """Time-shared Stein columns on one shared alpha grid.

    Returns the unconstrained reference together with the time-sharing
    maxima of the new bound, the prior benchmark, and the equal-rate
    (a = 0) variant.  Splitting the block and running a scheme at rate
    rate/alpha on an alpha fraction scales its exponent by alpha; alpha
    ranges over [rate, 1] so the boosted rate stays at most 1 bit.  All
    three schemes see the same alpha grid, and the new and prior bounds
    additionally share their per-alpha candidate levels, so the reported
    ordering is the ordering of the underlying terms rather than an
    optimizer artifact.
    """
    _check_rate(rate)
    if alphas is None:
        alphas = default_alpha_grid(rate)
    new = prior = sym = -math.inf
    for alpha in alphas:
        alpha = float(alpha)
        r_eff = min(rate / alpha, 1.0)
        scan = _stein_scan(h, r_eff)
        new = max(new, alpha * scan.new_max)
        prior = max(prior, alpha * scan.prior_max)
        sym = max(sym, alpha * _symmetric_stein(h, r_eff))
    return {
        "unconstrained": binary_divergence(h.p0, h.p1),
        "new": new,
        "prior": prior,
        "symmetric": sym,
    }


def _check_rate(rate):
    """The time-sharing grid runs from rate to 1, so rate must lie in [0, 1]."""
    if not (0.0 <= rate <= 1.0):
        raise ParameterError(f"rate={rate!r} outside [0, 1]")


def default_alpha_grid(rate, npts=33):
    return np.linspace(max(rate, 1e-6), 1.0, npts)


def _symmetric_stein(h, rate):
    """The a = 0 restriction of the one-sided bound (equal-rate scheme)."""
    theta = h.p0
    rate_bin = max(1.0 - rate, 0.0)
    return min(
        type_noise_ball_exponent(h.p1, 0.0, 0.0, theta),
        float(_binning_rows(h.p1, [0.0], [theta], [rate_bin])[0]),
    )


# ---------------------------------------------------------------------------
# tradeoff curves

SCHEMES = ("unconstrained", "baseline", "one_sided", "symmetric")


def _pair_rows(h, a, thetas, rate_x):
    """one_sided_pair over parallel (a, theta) rows at one message rate."""
    a, thetas = np.broadcast_arrays(
        np.asarray(a, float), np.asarray(thetas, float)
    )
    rate_bin = np.maximum(1.0 - _h_vec(a) - rate_x, 0.0)
    e0 = np.minimum(
        _shell_row_min(h.p0, a, 1.0, 1.0 - thetas),
        best_channel_exponent_vec(_conv_vec(a, h.p0), rate_bin),
    )
    e1 = np.minimum(
        _shell_row_min(h.p1, a, 0.0, thetas),
        _binning_rows(h.p1, a, thetas, rate_bin),
    )
    return np.maximum(e0, 0.0), np.maximum(e1, 0.0)


def tradeoff_curve(scheme, h, rate, resolution=200, a_points=25,
                   alpha_points=13):
    """(E0, E1) frontier of one scheme at the given rate budget.

    The coded schemes sweep the threshold jointly with the quantization
    level (one-sided only) and a time-sharing split: a fraction alpha
    of the block runs the scheme at rate/alpha, the rest is ignored,
    scaling both exponents by alpha.  The Pareto frontier of all grid
    points is returned.  The reference schemes sweep the threshold
    only; time sharing cannot improve them.
    """
    if scheme not in SCHEMES:
        raise ParameterError(f"unknown scheme {scheme!r}")
    _check_rate(rate)
    if resolution < 2:
        raise ParameterError("resolution must be at least 2")
    pts = []
    if scheme in ("unconstrained", "baseline"):
        off = 1e-6 * max(h.p1 - h.p0, 1.0)
        thetas = np.linspace(h.p0 + off, h.p1 - off, resolution)
        for t in thetas:
            pair = (
                unconstrained_pair(h, float(t))
                if scheme == "unconstrained"
                else baseline_pair(h, rate, float(t))
            )
            pts.append(CurvePoint(float(t), 0.0, pair))
        return TradeoffCurve(scheme=scheme, rate=rate, points=tuple(pts))
    for alpha in default_alpha_grid(rate, npts=alpha_points):
        alpha = float(alpha)
        r_eff = min(rate / alpha, 1.0)
        if scheme == "symmetric":
            a_grid = np.zeros(1)
        else:
            a_grid = np.linspace(0.0, gv_distance(r_eff), a_points)
        lo = _conv_vec(a_grid, h.p0)
        hi = _conv_vec(a_grid, h.p1)
        t = np.linspace(0.0, 1.0, resolution)
        thetas = lo[:, None] + t[None, :] * (hi - lo)[:, None]
        a_rows = np.broadcast_to(a_grid[:, None], thetas.shape)
        e0, e1 = _pair_rows(h, a_rows.ravel(), thetas.ravel(), r_eff)
        for ai, ti, x, y in zip(
            a_rows.ravel(), thetas.ravel(), e0, e1
        ):
            pts.append(
                CurvePoint(
                    float(ti), float(ai),
                    ExponentPair(alpha * float(x), alpha * float(y)),
                    alpha,
                )
            )
    pts = pareto_points(pts)
    return TradeoffCurve(scheme=scheme, rate=rate, points=tuple(pts))


def pareto_points(pts):
    """Upper-right frontier: no other point is at least as good in both."""
    ordered = sorted(
        pts, key=lambda q: (-q.pair.e0, -q.pair.e1)
    )
    out = []
    best_e1 = -math.inf
    for q in ordered:
        if q.pair.e1 > best_e1 + 1e-15:
            out.append(q)
            best_e1 = q.pair.e1
    out.reverse()  # ascending e0
    return out


def curve_value_at(curve, e0):
    """Interpolated miss exponent of a frontier at false-alarm exponent e0."""
    xs, ys = curve.as_arrays()
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    if e0 <= xs[0]:
        return float(ys[0])
    if e0 >= xs[-1]:
        return float(ys[-1])
    return float(np.interp(e0, xs, ys))
