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
best miss exponent under a vanishing false-alarm constraint.  Earlier
benchmark bounds (`sigma_ac`, `sigma_han`, `sigma_sha`) and the
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
    _h_vec,
    ball_noise_ball_exponent,
    best_channel_exponent,
    best_channel_exponent_vec,
    type_noise_ball_exponent,
)
from .optim import golden_min

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
# previously known one-sided (Stein) benchmarks

def sigma_ac(h, rate_x):
    """Quantize-only miss exponent at the Gilbert-Varshamov noise level."""
    a = gv_distance(rate_x)
    return binary_divergence(
        binary_convolution(a, h.p0), binary_convolution(a, h.p1)
    )


def sigma_han(h, a):
    """Type-noise miss exponent of quantization at level a, no binning."""
    return type_noise_ball_exponent(
        h.p1, a, 0.0, binary_convolution(a, h.p0)
    )


def sigma_sha_term(rate, a, p0):
    """Rate-limited binning term R - h(a * p0) + h(a)."""
    return rate - binary_entropy(binary_convolution(a, p0)) + binary_entropy(a)


def sigma_sha(h, rate_x):
    """Quantize-and-bin benchmark: max over a of min(HAN term, SHA term).

    The no-binning value sigma_han(gv_distance(rate_x)) is a separate
    benchmark; callers wanting the overall prior state of the art take
    the max of the two (see prior_stein_bound).
    """
    a_hi = gv_distance(rate_x)
    if a_hi <= 0.0:
        return min(sigma_han(h, 0.0), sigma_sha_term(rate_x, 0.0, h.p0))
    grid = np.linspace(0.0, a_hi, max(int(math.ceil(a_hi / 1e-3)) + 1, 5))
    han = _ball_type_vec(
        h.p1, grid, 0.0, _conv_vec(grid, h.p0)
    )
    sha = rate_x - _h_vec(_conv_vec(grid, h.p0)) + _h_vec(grid)
    vals = np.minimum(han, sha)
    i = int(np.argmax(vals))

    def obj(a):
        return -min(sigma_han(h, a), sigma_sha_term(rate_x, a, h.p0))

    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    _, neg = golden_min(obj, float(lo), float(hi), tol=1e-8)
    return max(float(vals[i]), -neg)


def prior_stein_bound(h, rate_x):
    """Best previously known one-sided exponent at rate rate_x.

    Equals max(sigma_han at the covering radius, sigma_sha): the
    candidate scan includes the covering-radius endpoint, where the
    binning term exceeds the quantization term and the minimum reduces
    to the no-binning benchmark.
    """
    return _stein_scan(h, rate_x, need_ec=False).prior_max


def _conv_vec(u, p):
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


# ---------------------------------------------------------------------------
# binning decision-error exponent

def binning_error_exponent(p1, a, theta, rate_bin):
    """Exponent of a wrong bin member landing inside the decision ball.

    Maximum of the weight-spectrum branch (sum over coset weights above
    the Gilbert-Varshamov radius of the bin code) and the best channel
    exponent at the bin rate.
    """
    if not (0.0 <= rate_bin <= 1.0 + _TOL):
        raise ParameterError(f"rate_bin={rate_bin} outside [0, 1]")
    out = _binning_rows(
        p1, np.asarray([a], float), np.asarray([theta], float),
        np.asarray([rate_bin], float),
    )
    return float(out[0])


def _binning_rows(p1, a, theta, rate_bin):
    """binning_error_exponent over parallel candidate rows, vectorized.

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
    w_lo = _gv_vec(rate_bin)
    # The endpoint argument needs w >= a throughout the search range;
    # rows where the covering radius dips below a keep the full inner
    # minimization over r.
    narrow = w_lo < a - 1e-12
    if np.any(narrow):
        out = np.empty(len(a))
        for k in range(len(a)):
            if narrow[k]:
                spec = -rate_bin[k] + _spectrum_min_2d(
                    p1, float(a[k]), float(theta[k]), float(w_lo[k])
                )
                chan = best_channel_exponent(
                    binary_convolution(float(a[k]), p1), float(rate_bin[k])
                )
                out[k] = max(spec, chan, 0.0)
            else:
                out[k] = _binning_rows(
                    p1, a[k:k + 1], theta[k:k + 1], rate_bin[k:k + 1]
                )[0]
        return out

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


def _spectrum_min_2d(p, a, theta, w_lo):
    """Spectrum minimum with the inner r search kept, for w_lo < a."""
    h_a = binary_entropy(a)
    w_a, w_b = w_lo, 1.0
    r_a, r_b = 0.0, a
    best = math.inf
    nw, nr = 96, 48
    for _ in range(4):
        ws = np.linspace(w_a, w_b, nw)
        rs = np.linspace(r_a, r_b, nr)
        W, R = np.meshgrid(ws, rs, indexing="ij")
        vals = (
            1.0 - _h_vec(W) + h_a - _h_vec(R)
            + _ball_type_vec(p, R, W, theta)
        )
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        best = min(best, float(vals[i, j]))
        dw = (w_b - w_a) / (nw - 1)
        dr = (r_b - r_a) / (nr - 1)
        w_a, w_b = max(w_lo, ws[i] - 2 * dw), min(1.0, ws[i] + 2 * dw)
        r_a, r_b = max(0.0, rs[j] - 2 * dr), min(a, rs[j] + 2 * dr)
        nw, nr = 24, 24
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
    rate_bin = params.rate_bin
    e0 = min(
        ball_noise_ball_exponent(h.p0, a, 1.0, 1.0 - theta),
        best_channel_exponent(binary_convolution(a, h.p0), rate_bin),
    )
    e1 = min(
        ball_noise_ball_exponent(h.p1, a, 0.0, theta),
        binning_error_exponent(h.p1, a, theta, rate_bin),
    )
    pair = ExponentPair(max(e0, 0.0), max(e1, 0.0))
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


def _stein_terms(h, rate_x, levels, noise, ec_rate, need_ec):
    theta = _conv_vec(levels, h.p0)
    if noise == "type":
        han = np.asarray(_ball_type_vec(h.p1, levels, 0.0, theta), float)
    else:
        han = _shell_row_min(h.p1, levels, 0.0, theta)
    sha = rate_x - _h_vec(theta) + _h_vec(levels)
    if need_ec:
        rate_bin = np.maximum(1.0 - _h_vec(levels) - rate_x, 0.0)
        rate_arg = (
            rate_bin if ec_rate == "bin" else np.full_like(levels, rate_x)
        )
        ec = _binning_rows(h.p1, levels, theta, rate_arg)
    else:
        ec = np.full_like(levels, math.inf)
    return han, sha, ec


def _shell_row_min(p, a, w, theta):
    """Ball-noise ball exponent over parallel rows, vectorized.

    Per row, min over r <= a of h(a) - h(r) + type exponent at (r, w,
    theta): a coarse grid in r followed by one windowed refinement.
    """
    a, w, theta = np.broadcast_arrays(
        np.asarray(a, float), np.asarray(w, float), np.asarray(theta, float)
    )
    h_a = _h_vec(a)[:, None]
    t = np.linspace(0.0, 1.0, 49)
    rs = a[:, None] * t[None, :]
    obj = h_a - _h_vec(rs) + _ball_type_vec(p, rs, w[:, None], theta[:, None])
    i = np.argmin(obj, axis=1)
    best = np.take_along_axis(obj, i[:, None], axis=1)[:, 0]
    span = a / (len(t) - 1)
    centers = np.take_along_axis(rs, i[:, None], axis=1)[:, 0]
    lo = np.maximum(0.0, centers - span)
    hi = np.minimum(a, centers + span)
    t2 = np.linspace(0.0, 1.0, 25)
    rs = lo[:, None] + t2[None, :] * (hi - lo)[:, None]
    obj = h_a - _h_vec(rs) + _ball_type_vec(p, rs, w[:, None], theta[:, None])
    return np.maximum(np.minimum(best, obj.min(axis=1)), 0.0)


def _stein_scan(h, rate_x, noise="type", ec_rate="bin", need_ec=True):
    if noise not in ("type", "ball"):
        raise ParameterError(f"unknown noise form {noise!r}")
    if ec_rate not in ("bin", "message"):
        raise ParameterError(f"unknown ec_rate {ec_rate!r}")
    a_hi = gv_distance(rate_x)
    if a_hi <= 0.0:
        levels = np.zeros(1)
        han, sha, ec = _stein_terms(h, rate_x, levels, noise, ec_rate, need_ec)
        return SteinScan(levels, han, sha, ec)
    levels = np.linspace(0.0, a_hi, 49)
    han, sha, ec = _stein_terms(h, rate_x, levels, noise, ec_rate, need_ec)
    span = a_hi / (len(levels) - 1)
    for npts in (17, 17):
        centers = {float(levels[int(np.argmax(np.minimum(han, sha)))])}
        if need_ec:
            centers.add(float(levels[int(np.argmax(np.minimum(han, ec)))]))
        extra = np.concatenate([
            np.linspace(max(0.0, c - span), min(a_hi, c + span), npts)
            for c in sorted(centers)
        ])
        h2, s2, e2 = _stein_terms(h, rate_x, extra, noise, ec_rate, need_ec)
        levels = np.concatenate([levels, extra])
        han = np.concatenate([han, h2])
        sha = np.concatenate([sha, s2])
        ec = np.concatenate([ec, e2])
        span = 2.0 * span / (npts - 1)
    order = np.argsort(levels)
    return SteinScan(levels[order], han[order], sha[order], ec[order])


def one_sided_stein(h, rate_x, noise="type", ec_rate="bin"):
    """Best miss exponent with vanishing false-alarm probability.

    Maximizes over the quantization level a the minimum of the helper
    noise term at threshold a * p0 and the binning decision-error term.
    ``noise`` selects the type-class ("type") or ball ("ball") reading
    of the helper term; ``ec_rate`` selects the rate argument of the
    binning term, the induced bin rate ("bin", default) or the raw
    message rate ("message").
    """
    return _stein_scan(h, rate_x, noise=noise, ec_rate=ec_rate).new_max


def stein_columns(h, rate, alphas=None, noise="type", ec_rate="bin"):
    """Time-shared Stein columns on one shared alpha grid.

    Returns the unconstrained reference together with the time-sharing
    maxima of the new bound, the prior benchmark, and the equal-rate
    (a = 0) variant.  All three schemes see the same alpha grid, and
    the new and prior bounds additionally share their per-alpha
    candidate levels, so the reported ordering is the ordering of the
    underlying terms rather than an optimizer artifact.
    """
    _check_rate(rate)
    if alphas is None:
        alphas = default_alpha_grid(rate)
    new = prior = sym = -math.inf
    for alpha in alphas:
        alpha = float(alpha)
        r_eff = min(rate / alpha, 1.0)
        scan = _stein_scan(h, r_eff, noise=noise, ec_rate=ec_rate)
        new = max(new, alpha * scan.new_max)
        prior = max(prior, alpha * scan.prior_max)
        sym = max(sym, alpha * _symmetric_stein(h, r_eff))
    return {
        "unconstrained": binary_divergence(h.p0, h.p1),
        "new": new,
        "prior": prior,
        "symmetric": sym,
    }


def stein_time_share(h, rate, alphas=None, which="new", **kwargs):
    """max over alpha of alpha * bound(rate / alpha) on a shared grid.

    Splitting the block and running the scheme at rate rate/alpha on an
    alpha fraction scales the exponent by alpha; alpha ranges over
    [rate, 1] so the boosted rate stays at most 1 bit.
    """
    if which not in ("new", "prior", "symmetric"):
        raise ParameterError(f"unknown bound {which!r}")
    _check_rate(rate)
    if alphas is None:
        alphas = default_alpha_grid(rate)
    best = -math.inf
    for alpha in alphas:
        alpha = float(alpha)
        r_eff = min(rate / alpha, 1.0)
        if which == "new":
            v = one_sided_stein(h, r_eff, **kwargs)
        elif which == "prior":
            v = _stein_scan(h, r_eff, need_ec=False).prior_max
        else:
            v = _symmetric_stein(h, r_eff)
        best = max(best, alpha * v)
    return best


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
        binning_error_exponent(h.p1, 0.0, theta, rate_bin),
    )


def symmetric_stein(h, rate):
    return _symmetric_stein(h, rate)


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
