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
modulo-sum decoding at both terminals), and `stein_columns` gives the
best miss exponent under a vanishing false-alarm constraint, next to
the prior one-sided benchmark and the unconstrained reference, so
callers can reproduce the comparison sweeps (`stein_sweep` over a range
of p0).
"""

import math
from dataclasses import dataclass

import numpy as np

from .binmath import (
    binary_convolution,
    binary_divergence,
    binary_entropy,
    gv_distance,
    inverse_binary_entropy_vec,
)
from .errors import ParameterError, ResourceLimitError
from .exponents import (
    _ball_type_vec,
    _conv_vec,
    _h_vec,
    _shell_row_min,
    best_channel_exponent_vec,
)

_TOL = 1e-9

#: grid points one `tradeoff_curve` call, or level rows one Stein sweep,
#: may evaluate
_MAX_CURVE_ROWS = 2_000_000


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


@dataclass(frozen=True, eq=False)
class TradeoffCurve:
    """Frontier of one scheme as parallel float columns, in ascending e0.

    Row i is the threshold, quantization level and time-sharing
    fraction that reach the exponent pair (e0[i], e1[i]).
    """

    scheme: str
    rate: float
    e0: np.ndarray
    e1: np.ndarray
    theta: np.ndarray
    a: np.ndarray
    alpha: np.ndarray

    def as_arrays(self):
        return self.e0, self.e1


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
    """Run the scheme on an alpha fraction of samples, ignore the rest.

    A zero fraction sends nothing, so both exponents are 0, also where
    the scheme's own exponent is infinite.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ParameterError(f"alpha={alpha} outside [0, 1]")
    if alpha == 0.0:
        return ExponentPair(0.0, 0.0)
    return ExponentPair(alpha * pair.e0, alpha * pair.e1)


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
    delta = inverse_binary_entropy_vec(1.0 - rate_bin)
    # Every caller has rate_bin <= 1 - h(a), so the covering radius is
    # at least a; the clamp only removes rounding of the inverse near
    # a = 1/2.
    w_lo = np.maximum(delta, a)
    branch_spec = -rate_bin + _spectrum_min(p1, a, theta, w_lo)
    branch_chan = best_channel_exponent_vec(
        _conv_vec(a, p1), rate_bin, delta
    )
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

#: (p0, alpha) cells one `_stein_scan` call evaluates
_STEIN_CHUNK = 512
#: levels per cell of the first scan round, then per center of each
#: refinement round (two centers)
_STEIN_GRID = (49, 17, 17)
#: quantization levels `_stein_scan` evaluates per cell
_STEIN_LEVELS = _STEIN_GRID[0] + 2 * sum(_STEIN_GRID[1:])


def _stein_terms(p1, p0, rate_x, levels):
    """Helper, rate-limited binning and binning-error terms at each level.

    p0 and rate_x broadcast against the array of levels.
    """
    theta = _conv_vec(levels, p0)
    han = _ball_type_vec(p1, levels, 0.0, theta)
    sha = rate_x - _h_vec(theta) + _h_vec(levels)
    rate_bin = np.maximum(1.0 - _h_vec(levels) - rate_x, 0.0)
    ec = _binning_rows(p1, levels, theta, rate_bin)
    return han, sha, ec


def _grid(lo, hi, num):
    """np.linspace(lo, hi, num) along a new last axis, for arrays lo, hi.

    Written out because np.linspace switches every row to another
    formula, which rounds differently, as soon as one row has lo == hi.
    """
    lo, hi = lo[..., None], hi[..., None]
    out = np.arange(num) * ((hi - lo) / (num - 1)) + lo
    out[..., -1:] = hi
    return out


def _stein_scan(p1, p0, rate_x):
    """Stein maxima of the new bound and of the prior benchmark, per cell.

    Cell i is the pair (p0[i], p1) at message rate rate_x[i].  Both
    bounds maximize over the quantization level a the minimum of the
    helper type-noise term at threshold a * p0 and a binning term: the
    binning decision-error exponent at the induced bin rate (new), or
    the rate-limited term rate_x - h(a * p0) + h(a) (prior).  They share
    one set of candidate levels, so their comparison is free of grid
    skew.  The scan takes 49 levels on [0, delta_GV(rate_x)], then
    twice 17 levels around the best level of each bound, as found in
    the order the levels were added (the first maximum wins ties).

    Where both bounds pick the same level its block is evaluated twice,
    and a cell with delta_GV(rate_x) = 0 evaluates level 0 throughout.
    Neither changes a maximum or a later center, since each copy comes
    after the level it repeats.
    """
    first, *refine = _STEIN_GRID
    rate_x = np.asarray(rate_x, float)
    # one scalar bisection per distinct rate; a sweep repeats them per p0
    rates, where = np.unique(rate_x, return_inverse=True)
    a_hi = np.array([gv_distance(r) for r in rates.tolist()])[where]
    p0, rate_x = np.asarray(p0, float)[:, None], rate_x[:, None]
    levels = _grid(np.zeros_like(a_hi), a_hi, first)
    han, sha, ec = _stein_terms(p1, p0, rate_x, levels)
    span = a_hi / (first - 1)
    for npts in refine:
        picks = np.stack([
            np.argmax(np.minimum(han, sha), axis=1),
            np.argmax(np.minimum(han, ec), axis=1),
        ], axis=1)
        centers = np.sort(np.take_along_axis(levels, picks, axis=1), axis=1)
        extra = _grid(
            np.maximum(0.0, centers - span[:, None]),
            np.minimum(a_hi[:, None], centers + span[:, None]),
            npts,
        ).reshape(len(p0), -1)
        h2, s2, e2 = _stein_terms(p1, p0, rate_x, extra)
        levels = np.concatenate([levels, extra], axis=1)
        han = np.concatenate([han, h2], axis=1)
        sha = np.concatenate([sha, s2], axis=1)
        ec = np.concatenate([ec, e2], axis=1)
        span = 2.0 * span / (npts - 1)
    return (
        np.max(np.minimum(han, ec), axis=1),
        np.max(np.minimum(han, sha), axis=1),
    )


def _symmetric_stein(p1, p0, rate):
    """The a = 0 restriction of the one-sided bound (equal-rate scheme)."""
    p0 = np.asarray(p0, float)
    han, _, ec = _stein_terms(p1, p0, rate, np.zeros_like(p0))
    return np.minimum(han, ec)


def stein_sweep(p1, rate, p0_lo, p0_hi, npts, alphas=None):
    """Stein columns at npts values of p0 from p0_lo to p0_hi.

    Returns a dict of arrays aligned with its "p0" entry: the
    unconstrained reference and the time-sharing maxima of the new
    bound, the prior benchmark and the equal-rate (a = 0) variant, as
    in `stein_columns`.  Every (p0, alpha) cell is evaluated in batches
    of ``_STEIN_CHUNK`` cells.  A sweep that would evaluate more than
    ``_MAX_CURVE_ROWS`` level rows (``_STEIN_LEVELS`` per cell) is
    refused.
    """
    if alphas is None:
        alphas = default_alpha_grid(rate)
    alphas = np.asarray(alphas, float)
    rows = npts * alphas.size * _STEIN_LEVELS
    if rows > _MAX_CURVE_ROWS:
        raise ResourceLimitError(
            f"stein sweep would evaluate {rows} level rows, above the limit "
            f"of {_MAX_CURVE_ROWS}; lower the resolution"
        )
    p0s = np.linspace(p0_lo, p0_hi, npts)
    pairs = [HypothesisPair(p0, p1) for p0 in p0s.tolist()]
    _check_rate(rate)
    cell_p0 = np.repeat(p0s, alphas.size)
    cell_rate = np.tile(np.minimum(rate / alphas, 1.0), npts)
    new, prior, sym = (np.empty(cell_p0.size) for _ in range(3))
    for lo in range(0, cell_p0.size, _STEIN_CHUNK):
        part = slice(lo, lo + _STEIN_CHUNK)
        new[part], prior[part] = _stein_scan(p1, cell_p0[part], cell_rate[part])
        sym[part] = _symmetric_stein(p1, cell_p0[part], cell_rate[part])

    def best(col):
        return np.max(alphas * col.reshape(npts, alphas.size), axis=1)

    return {
        "p0": p0s,
        "unconstrained": np.array(
            [binary_divergence(h.p0, h.p1) for h in pairs]
        ),
        "new": best(new),
        "prior": best(prior),
        "symmetric": best(sym),
    }


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
    cols = stein_sweep(h.p1, rate, h.p0, h.p0, 1, alphas)
    return {key: float(col[0]) for key, col in cols.items() if key != "p0"}


def _check_rate(rate):
    """The time-sharing grid runs from rate to 1, so rate must lie in [0, 1]."""
    if not (0.0 <= rate <= 1.0):
        raise ParameterError(f"rate={rate!r} outside [0, 1]")


def default_alpha_grid(rate, npts=33):
    return np.linspace(max(rate, 1e-6), 1.0, npts)


# ---------------------------------------------------------------------------
# tradeoff curves

SCHEMES = ("unconstrained", "baseline", "one_sided", "symmetric")

#: grid rows of an alpha block one `_pair_rows` call evaluates
_PAIR_CHUNK = 16384


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
    only; time sharing cannot improve them.  A request that would
    evaluate more than ``_MAX_CURVE_ROWS`` grid points is refused.
    Grid rows are evaluated ``_PAIR_CHUNK`` at a time, and each alpha
    block is filtered together with the rows kept so far, so memory
    stays within a block and the frontier.
    """
    if scheme not in SCHEMES:
        raise ParameterError(f"unknown scheme {scheme!r}")
    _check_rate(rate)
    if resolution < 2:
        raise ParameterError("resolution must be at least 2")
    rows = resolution
    if scheme in ("one_sided", "symmetric"):
        rows *= alpha_points * (a_points if scheme == "one_sided" else 1)
    if rows > _MAX_CURVE_ROWS:
        raise ResourceLimitError(
            f"{scheme} curve would evaluate {rows} points, above the limit "
            f"of {_MAX_CURVE_ROWS}; lower the resolution"
        )
    if scheme in ("unconstrained", "baseline"):
        off = 1e-6 * max(h.p1 - h.p0, 1.0)
        thetas = np.linspace(h.p0 + off, h.p1 - off, resolution)
        # a time-sharing fraction of 1 leaves the pair unchanged
        share = 1.0 if scheme == "unconstrained" else rate
        pairs = (baseline_pair(h, share, t) for t in map(float, thetas))
        e0, e1 = np.fromiter(
            ((pair.e0, pair.e1) for pair in pairs), (float, 2), resolution
        ).T
        zero, one = np.zeros(resolution), np.ones(resolution)
        return TradeoffCurve(scheme, rate, e0, e1, thetas, zero, one)
    front = np.empty((0, 5))
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
        block = np.empty((a_grid.size * resolution, 5))
        block[:, 2] = (lo[:, None] + t[None, :] * (hi - lo)[:, None]).ravel()
        block[:, 3], block[:, 4] = np.repeat(a_grid, resolution), alpha
        for start in range(0, len(block), _PAIR_CHUNK):
            rows = block[start:start + _PAIR_CHUNK]
            e0, e1 = _pair_rows(h, rows[:, 3], rows[:, 2], r_eff)
            rows[:, 0], rows[:, 1] = alpha * e0, alpha * e1
        front = _rising(np.concatenate([front, block]))
    front = pareto_points(front)
    return TradeoffCurve(scheme, rate, *front.T)


def _rising(rows):
    """Rows sorted stably on (-e0, -e1) whose e1 exceeds all before them.

    No other row can pass the scan in `pareto_points`.  A dropped row
    has a kept row before it with at least its e1, so `tradeoff_curve`
    may filter the rows kept so far together with each new alpha block
    and still keep every frontier row; exact ties go to the earlier
    block, as in one stable sort of all blocks, and no two survivors
    tie.  fmax skips a NaN e1, as the scan does.
    """
    rows = rows[np.lexsort((-rows[:, 1], -rows[:, 0]))]
    e1 = rows[:, 1]
    keep = np.ones(len(rows), bool)
    keep[1:] = e1[1:] > np.fmax.accumulate(e1)[:-1]
    return rows[keep]


def pareto_points(pts):
    """Upper-right frontier of the rows of ``pts``, in ascending e0.

    Columns 0 and 1 hold e0 and e1.  By descending (e0, e1), a row is
    kept when its e1 exceeds the last kept e1 by more than 1e-15.
    """
    rows = _rising(pts)
    keep = []
    best_e1 = -math.inf
    for i, e1 in enumerate(rows[:, 1].tolist()):
        if e1 > best_e1 + 1e-15:
            keep.append(i)
            best_e1 = e1
    return rows[keep[::-1]]


def curve_value_at(curve, e0):
    """Interpolated miss exponent of a frontier at false-alarm exponent e0."""
    order = np.argsort(curve.e0)
    xs, ys = curve.e0[order], curve.e1[order]
    if e0 <= xs[0]:
        return float(ys[0])
    if e0 >= xs[-1]:
        return float(ys[-1])
    return float(np.interp(e0, xs, ys))
