"""Scheme exponent pairs, Stein values, and tradeoff curves.

Pinned numbers in this file are regression anchors frozen from dense
independent scans (wider grids and more golden iterations than the
defaults); agreement of the prior benchmark formulas with the scheme
evaluation is itself one of the cross-checks.
"""

import math

import numpy as np
import pytest

from bindht.binmath import (
    binary_convolution,
    binary_divergence,
    binary_entropy,
    gv_distance,
    inverse_binary_entropy_vec,
)
import bindht
from bindht.errors import ParameterError, ResourceLimitError
from bindht.exponents import (
    _ball_type_vec,
    _h_vec,
    best_channel_exponent,
    type_noise_ball_exponent,
)
from bindht.regions import (
    _MAX_CURVE_ROWS,
    _STEIN_LEVELS,
    SCHEMES,
    ExponentPair,
    HypothesisPair,
    SchemeParams,
    TradeoffCurve,
    _binning_rows,
    _conv_vec,
    _pair_rows,
    _rising,
    _shell_row_min,
    _spectrum_min,
    _stein_scan,
    _symmetric_stein,
    baseline_pair,
    curve_value_at,
    default_alpha_grid,
    one_sided_pair,
    pareto_points,
    stein_columns,
    stein_sweep,
    symmetric_pair,
    time_share,
    tradeoff_curve,
    unconstrained_pair,
)

FIG_A = HypothesisPair(0.01, 0.25)
FIG_B = HypothesisPair(0.01, 0.1)


# ---------------------------------------------------------------------------
# earlier one-sided benchmarks, kept here as independent formula oracles

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


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo, hi, tol=1e-8, max_iter=200):
    """Scalar golden-section minimum of a unimodal f on [lo, hi]; the
    endpoints are always evaluated and the best evaluated point wins."""
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


def sigma_sha(h, rate_x):
    """Quantize-and-bin benchmark: max over a of min(HAN term, SHA term),
    by a 1e-3 grid in a and golden refinement of the best cell."""
    a_hi = gv_distance(rate_x)
    if a_hi <= 0.0:
        return min(sigma_han(h, 0.0), sigma_sha_term(rate_x, 0.0, h.p0))
    grid = np.linspace(0.0, a_hi, max(int(math.ceil(a_hi / 1e-3)) + 1, 5))
    han = _ball_type_vec(h.p1, grid, 0.0, _conv_vec(grid, h.p0))
    sha = rate_x - _h_vec(_conv_vec(grid, h.p0)) + _h_vec(grid)
    vals = np.minimum(han, sha)
    i = int(np.argmax(vals))

    def obj(a):
        return -min(sigma_han(h, a), sigma_sha_term(rate_x, a, h.p0))

    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    _, neg = golden_min(obj, float(lo), float(hi), tol=1e-8)
    return max(float(vals[i]), -neg)


def _new_bound(h, rate_x):
    """The new one-sided Stein bound at one rate: a one-cell scan."""
    return float(_stein_scan(h.p1, [h.p0], [rate_x])[0][0])


def _prior_bound(h, rate_x):
    """The prior one-sided benchmark at one rate: a one-cell scan."""
    return float(_stein_scan(h.p1, [h.p0], [rate_x])[1][0])


def _sym_bound(h, rate):
    """The equal-rate (a = 0) Stein value at one rate: a one-cell call."""
    return float(_symmetric_stein(h.p1, [h.p0], [rate])[0])


def _ref_stein_scan(h, rate_x):
    """The scan at one rate before batching, kept as the reference.

    Returns the new and prior maxima and the number of refinement rounds
    in which both bounds picked the same center (refined once here).
    """
    def terms(levels):
        theta = _conv_vec(levels, h.p0)
        han = np.asarray(_ball_type_vec(h.p1, levels, 0.0, theta), float)
        sha = rate_x - _h_vec(theta) + _h_vec(levels)
        rate_bin = np.maximum(1.0 - _h_vec(levels) - rate_x, 0.0)
        return han, sha, _binning_rows(h.p1, levels, theta, rate_bin)

    shared = 0
    a_hi = gv_distance(rate_x)
    if a_hi <= 0.0:
        levels = np.zeros(1)
        han, sha, ec = terms(levels)
    else:
        levels = np.linspace(0.0, a_hi, 49)
        han, sha, ec = terms(levels)
        span = a_hi / (len(levels) - 1)
        for npts in (17, 17):
            centers = {
                float(levels[int(np.argmax(np.minimum(han, sha)))]),
                float(levels[int(np.argmax(np.minimum(han, ec)))]),
            }
            shared += len(centers) == 1
            extra = np.concatenate([
                np.linspace(max(0.0, c - span), min(a_hi, c + span), npts)
                for c in sorted(centers)
            ])
            h2, s2, e2 = terms(extra)
            levels = np.concatenate([levels, extra])
            han = np.concatenate([han, h2])
            sha = np.concatenate([sha, s2])
            ec = np.concatenate([ec, e2])
            span = 2.0 * span / (npts - 1)
    new = float(np.max(np.minimum(han, ec)))
    return new, float(np.max(np.minimum(han, sha))), shared


def _ref_stein_columns(h, rate, alphas=None):
    """`stein_columns` as a loop over alpha, kept as the reference; also
    returns the count of shared centers over all scans."""
    if alphas is None:
        alphas = default_alpha_grid(rate)
    new = prior = sym = -math.inf
    shared = 0
    for alpha in alphas:
        alpha = float(alpha)
        r_eff = min(rate / alpha, 1.0)
        scan_new, scan_prior, scan_shared = _ref_stein_scan(h, r_eff)
        equal_rate = min(
            type_noise_ball_exponent(h.p1, 0.0, 0.0, h.p0),
            float(_binning_rows(
                h.p1, [0.0], [h.p0], [max(1.0 - r_eff, 0.0)]
            )[0]),
        )
        new = max(new, alpha * scan_new)
        prior = max(prior, alpha * scan_prior)
        sym = max(sym, alpha * equal_rate)
        shared += scan_shared
    cols = {
        "unconstrained": binary_divergence(h.p0, h.p1),
        "new": new,
        "prior": prior,
        "symmetric": sym,
    }
    return cols, shared


def _time_shared(bound, h, rate):
    """max over the default alpha grid of alpha * bound(h, rate / alpha)."""
    return max(
        float(alpha) * bound(h, min(rate / float(alpha), 1.0))
        for alpha in default_alpha_grid(rate)
    )


def test_hypothesis_pair_validation():
    with pytest.raises(ParameterError):
        HypothesisPair(0.3, 0.2)
    with pytest.raises(ParameterError):
        HypothesisPair(-0.01, 0.2)
    with pytest.raises(ParameterError):
        HypothesisPair(0.1, 0.6)


def test_scheme_params_bin_rate():
    params = SchemeParams(a=0.1, theta=0.05, rate_x=0.3)
    assert params.rate_bin == pytest.approx(
        1.0 - binary_entropy(0.1) - 0.3, abs=1e-12
    )
    with pytest.raises(ParameterError):
        SchemeParams(a=0.5, theta=0.05, rate_x=0.9)


def test_unconstrained_pair_is_divergence_pair():
    for theta in (0.02, 0.1, 0.2):
        pair = unconstrained_pair(FIG_A, theta)
        assert pair.e0 == pytest.approx(
            binary_divergence(theta, 0.01), abs=1e-12
        )
        assert pair.e1 == pytest.approx(
            binary_divergence(theta, 0.25), abs=1e-12
        )


def test_baseline_pair_scales_unconstrained():
    for theta in (0.05, 0.12):
        full = unconstrained_pair(FIG_A, theta)
        base = baseline_pair(FIG_A, 0.3, theta)
        assert base.e0 == pytest.approx(0.3 * full.e0, abs=1e-12)
        assert base.e1 == pytest.approx(0.3 * full.e1, abs=1e-12)


def test_time_share_scales_both_exponents():
    pair = ExponentPair(0.4, 0.2)
    scaled = time_share(pair, 0.25)
    assert (scaled.e0, scaled.e1) == (pytest.approx(0.1), pytest.approx(0.05))
    # a zero share sends nothing, even where the exponent is infinite
    assert time_share(ExponentPair(math.inf, 0.2), 0.0) == ExponentPair(0.0, 0.0)


def test_symmetric_equals_one_sided_without_quantization():
    for theta in np.linspace(0.011, 0.24, 25):
        sym = symmetric_pair(FIG_A, 0.3, float(theta))
        one = one_sided_pair(
            FIG_A, SchemeParams(a=0.0, theta=float(theta), rate_x=0.3)
        )
        assert sym == one


def test_one_sided_pair_quantization_can_help_miss_side():
    # with a > 0 the threshold can sit above conv(a, p0) and still keep
    # a positive false-alarm exponent
    params = SchemeParams(a=0.1, theta=0.15, rate_x=0.3)
    pair = one_sided_pair(FIG_A, params)
    assert pair.e0 > 0.0
    assert pair.e1 > 0.0


@pytest.mark.parametrize("p1", [0.1, 0.25, 0.4])
def test_binning_term_meets_union_bound_identity(p1):
    # Summing P(wt(c + U + Z) <= theta n) over all 2^n offsets c gives
    # the size of the theta-ball, so min over w of 1 - h(w) + ball
    # exponent is 1 - h(theta), attained at the binary convolution
    # w* = theta * a * p1.  The binning term is therefore never below
    # 1 - h(theta) - rate_bin, and equals it when w* lies above the bin
    # code's covering radius and the channel branch vanishes (rate_bin
    # at least the capacity of the BSC with crossover a * p1).  Rows
    # stay in the scheme's range rate_bin <= 1 - h(a).
    rng = np.random.default_rng(20180103)
    n = 300
    a = rng.uniform(0.0, 0.5, n)
    theta = rng.uniform(0.0, 0.5, n)
    h_a = np.array([binary_entropy(x) for x in a])
    rate_bin = rng.uniform(0.0, 1.0, n) * (1.0 - h_a)
    got = _binning_rows(p1, a, theta, rate_bin)
    sha = np.array([
        max(1.0 - binary_entropy(t) - r, 0.0) for t, r in zip(theta, rate_bin)
    ])
    assert np.all(got >= sha - 1e-9), float((sha - got).max())

    equal = []
    for k in range(n):
        noise = binary_convolution(float(a[k]), p1)
        radius = gv_distance(float(rate_bin[k]))
        equal.append(
            binary_convolution(float(theta[k]), noise) >= radius >= a[k]
            and rate_bin[k] >= 1.0 - binary_entropy(noise)
            and theta[k] < noise
        )
    equal = np.array(equal)
    assert equal.sum() >= 50
    gap = np.abs(got - sha)[equal].max()
    assert gap <= 1e-7, f"binning term off the identity by {gap:.3e}"


def _spectrum_grid_min(p, a, theta, w_lo):
    """Spectrum minimum by search: 65-point grid on [w_lo, 1], then two
    windowed refinements of 25 and 17 points around the best point."""
    def row_min(ws):
        vals = 1.0 - _h_vec(ws) + _ball_type_vec(
            p, a[:, None], ws, theta[:, None]
        )
        i = np.argmin(vals, axis=1)
        return np.take_along_axis(vals, i[:, None], axis=1)[:, 0], i

    t = np.linspace(0.0, 1.0, 65)
    ws = w_lo[:, None] + t[None, :] * (1.0 - w_lo[:, None])
    best, i = row_min(ws)
    span = (1.0 - w_lo) / (len(t) - 1)
    for npts in (25, 17):
        centers = np.take_along_axis(ws, i[:, None], axis=1)[:, 0]
        lo = np.maximum(w_lo, centers - span)
        hi = np.minimum(1.0, centers + span)
        t2 = np.linspace(0.0, 1.0, npts)
        ws = lo[:, None] + t2[None, :] * (hi - lo)[:, None]
        stage, i = row_min(ws)
        best = np.minimum(best, stage)
        span = (hi - lo) / (npts - 1)
    return best


@pytest.mark.parametrize("p1", [0.02, 0.1, 0.25, 0.4])
def test_spectrum_closed_form_against_grid_search(p1):
    # The closed form puts the minimum at max(w_lo, w*): where w* < w_lo
    # the search, which starts at w_lo, must find the same point; where
    # w* >= w_lo the search can only sit above 1 - h(theta), by its grid
    # error (largest at small p1, where the minimum is sharpest).  Some
    # thresholds lie above 1/2, where the minimum is 0.
    rng = np.random.default_rng(20181004)
    n = 300
    a = rng.uniform(0.0, 0.5, n)
    theta = rng.uniform(0.0, 0.6, n)
    # cubed so that low bin rates, whose covering radius can exceed w*
    # at large p1, are well represented
    rate_bin = rng.uniform(0.0, 1.0, n) ** 3 * (1.0 - _h_vec(a))
    w_lo = inverse_binary_entropy_vec(1.0 - rate_bin)
    got = _spectrum_min(p1, a, theta, w_lo)
    want = _spectrum_grid_min(p1, a, theta, w_lo)
    w_star = np.array([
        binary_convolution(t, binary_convolution(x, p1))
        for t, x in zip(theta, a)
    ])
    below = w_star < w_lo
    assert 20 <= below.sum() <= n - 20, int(below.sum())
    assert np.all(want >= got - 1e-12), float((got - want).max())
    gap = np.abs(got - want)[below].max()
    assert gap <= 1e-12, f"closed form off the search by {gap:.3e}"
    if p1 >= 0.1:
        gap = (want - got)[~below].max()
        assert gap <= 1e-7, f"search above the closed form by {gap:.3e}"


def _shell_grid_min(p, a, w, theta):
    """Ball-noise ball exponent by search: a 49-point grid in r on [0, a],
    then one 25-point windowed refinement around the best point."""
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


def _shell_scan_min(p, a, w, theta, npts=40001):
    """Ball-noise ball exponent by a dense scan of r over [0, a], per row."""
    out = []
    for ak, wk, tk in zip(a, w, theta):
        rs = np.linspace(0.0, ak, npts)
        vals = _h_vec(ak) - _h_vec(rs) + _ball_type_vec(p, rs, wk, tk)
        out.append(max(float(vals.min()), 0.0))
    return np.array(out)


@pytest.mark.parametrize("p0, p1", [(0.01, 0.1), (0.01, 0.25), (0.05, 0.4)])
def test_shell_closed_form_against_searches(p0, p1):
    # The closed form puts the minimum over the noise type r at the
    # typical type r* = theta' * w * p when r* <= a, with value
    # h(a) - h(theta'), and at r = a elsewhere.  Rows are the two ball
    # terms of one_sided_pair: w = 0 at p1 with threshold theta, and
    # w = 1 at p0 with threshold 1 - theta.  For theta in the scheme's
    # range [a * p0, a * p1], r* exceeds a unless a = 1/2, so the w = 0
    # rows also take thresholds down to 0 (at p0 and p1) to reach
    # r* < a.  The grid can only sit above the closed form; where r* > a
    # both evaluate the r = a point.
    rng = np.random.default_rng(20181018)
    n = 40
    a = rng.uniform(0.0, 0.5, n)
    a[0] = 0.5
    lo, hi = _conv_vec(a, p0), _conv_vec(a, p1)
    in_range = rng.uniform(lo, hi)
    low = rng.uniform(0.0, hi)
    counts = {True: 0, False: 0}
    for p, w, theta in (
        (p1, 0.0, in_range), (p1, 0.0, low), (p0, 0.0, low),
        (p0, 1.0, 1.0 - in_range),
    ):
        w = np.full(n, w)
        got = _shell_row_min(p, a, w, theta)
        grid = _shell_grid_min(p, a, w, theta)
        assert np.all(got <= grid + 1e-12), float((got - grid).max())
        r_star = _conv_vec(_conv_vec(np.minimum(theta, 0.5), w), p)
        interior = r_star <= a
        counts[True] += int(interior.sum())
        counts[False] += int((~interior).sum())
        gap = np.abs(got - grid)[~interior].max(initial=0.0)
        assert gap <= 1e-12, f"closed form off the grid at r = a by {gap:.3e}"
        scan = _shell_scan_min(p, a, w, theta)
        gap = np.abs(got - scan).max()
        assert gap <= 1e-8, f"closed form off the dense scan by {gap:.3e}"
    assert counts[True] >= 10 and counts[False] >= 10, counts


def test_one_sided_pair_noiseless_null_is_exact():
    # At p0 = 0 the null noise word is U alone, so with a > 0 the
    # false-alarm ball term is 0 at theta = a and +inf above it: e0 is
    # then the channel exponent of the bin code alone.
    h = HypothesisPair(0.0, 0.25)
    params = SchemeParams(a=0.1, theta=0.1, rate_x=0.3)
    assert one_sided_pair(h, params).e0 == 0.0
    for theta in (0.10001, 0.11, 0.2):
        params = SchemeParams(a=0.1, theta=theta, rate_x=0.3)
        want = best_channel_exponent(0.1, params.rate_bin)
        assert one_sided_pair(h, params).e0 == pytest.approx(want, abs=1e-12)


def test_stein_pinned_references():
    # frozen anchors; independent benchmark formulas agree below
    cols = stein_columns(FIG_A, 0.3)
    assert cols["unconstrained"] == pytest.approx(0.3500939883901444, abs=1e-9)
    assert cols["new"] == pytest.approx(0.2586661935377357, abs=1e-7)
    assert cols["prior"] == pytest.approx(0.2586661935377357, abs=1e-7)
    assert cols["symmetric"] == pytest.approx(0.24287770444566265, abs=1e-7)


def test_stein_low_alternative_collapses_to_unconstrained():
    cols = stein_columns(FIG_B, 0.3)
    want = binary_divergence(0.01, 0.1)
    for key in ("unconstrained", "new", "prior", "symmetric"):
        assert cols[key] == pytest.approx(want, abs=1e-6)


def test_stein_ordering_across_sweep():
    for p0 in (0.005, 0.02, 0.04):
        cols = stein_columns(HypothesisPair(p0, 0.25), 0.3)
        assert cols["unconstrained"] >= cols["new"] - 1e-9
        assert cols["new"] >= cols["prior"] - 1e-7
        assert cols["prior"] >= cols["symmetric"] - 1e-9


def test_stein_benchmark_combination():
    # the scan's prior value is the better of the two benchmark formulas
    h = FIG_A
    from bindht.binmath import gv_distance

    # the scan shares one candidate grid across terms, the standalone
    # formula refines its own optimum, hence the 1e-5 scale slack
    formulas = max(sigma_han(h, gv_distance(0.3)), sigma_sha(h, 0.3))
    assert _prior_bound(h, 0.3) == pytest.approx(formulas, abs=2e-5)
    assert stein_columns(h, 0.3)["prior"] == pytest.approx(
        _time_shared(_prior_bound, h, 0.3), abs=1e-9
    )


def test_stein_benchmarks_individual():
    h = FIG_A
    # rate 1 removes the constraint for every benchmark
    full = binary_divergence(h.p0, h.p1)
    assert sigma_ac(h, 1.0) == pytest.approx(full, abs=1e-9)
    assert sigma_han(h, 0.0) == pytest.approx(full, abs=1e-9)
    assert sigma_sha(h, 1.0) == pytest.approx(full, abs=1e-9)
    assert _new_bound(h, 1.0) == pytest.approx(full, abs=1e-6)
    # and the binning benchmark improves with rate
    assert sigma_sha(h, 0.2) <= sigma_sha(h, 0.4) + 1e-9


def test_symmetric_stein_matches_column():
    cols = stein_columns(FIG_A, 0.3)
    assert cols["symmetric"] == pytest.approx(
        _time_shared(_sym_bound, FIG_A, 0.3), abs=1e-9
    )
    # time sharing strictly helps the plain equal-rate value here
    assert cols["symmetric"] > _sym_bound(FIG_A, 0.3) + 0.01


@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("p1", [0.1, 0.25, 0.5])
def test_stein_columns_match_per_alpha_loop(p1, rate):
    # the batched scan evaluates the same levels, so every column is
    # equal to the loop's, not just close
    for p0 in (0.0, 0.005, 0.0275, p1):
        h = HypothesisPair(p0, p1)
        want, _ = _ref_stein_columns(h, rate)
        assert stein_columns(h, rate) == want, (p0, p1, rate)


@pytest.mark.parametrize("h, rate, alphas", [
    (FIG_A, 0.3, [0.3, 0.45, 0.7, 1.0]),
    # at p1 = 0.1 both bounds pick the same center in some rounds
    (FIG_B, 0.3, None),
])
def test_stein_columns_match_per_alpha_loop_cases(h, rate, alphas):
    want, shared = _ref_stein_columns(h, rate, alphas)
    assert stein_columns(h, rate, alphas) == want
    if alphas is None:
        assert shared > 0


def test_stein_sweep_chunks_match_single_cells(monkeypatch):
    # one sweep over several p0, in one chunk and in chunks of 7 cells
    # (which split the alpha grid of a p0), equals one call per p0
    whole = stein_sweep(0.25, 0.3, 0.0, 0.05, 4)
    monkeypatch.setattr(bindht.regions, "_STEIN_CHUNK", 7)
    chunked = stein_sweep(0.25, 0.3, 0.0, 0.05, 4)
    for key, col in whole.items():
        assert col.tolist() == chunked[key].tolist(), key
    for i, p0 in enumerate(whole["p0"].tolist()):
        cols = stein_columns(HypothesisPair(p0, 0.25), 0.3)
        assert cols == {key: whole[key][i] for key in cols}, p0


@pytest.mark.parametrize("npts", [
    _MAX_CURVE_ROWS // (33 * _STEIN_LEVELS) + 1, 10 ** 12,
])
def test_stein_rejects_work_above_bound(npts):
    # refused before the p0 grid is built or any level is evaluated
    with pytest.raises(ResourceLimitError, match="above the limit"):
        stein_sweep(0.25, 0.3, 0.005, 0.05, npts)
    alphas = np.ones(_MAX_CURVE_ROWS // _STEIN_LEVELS + 1)
    with pytest.raises(ResourceLimitError, match="above the limit"):
        stein_columns(FIG_A, 0.3, alphas)


def _scan_frontier(rows):
    """The frontier rule on row tuples, kept as the reference: sort on
    (-e0, -e1), keep a row whose e1 exceeds the last kept e1 by more
    than 1e-15, and return the kept rows in ascending e0."""
    ordered = sorted(rows, key=lambda q: (-q[0], -q[1]))
    out = []
    best_e1 = -math.inf
    for q in ordered:
        if q[1] > best_e1 + 1e-15:
            out.append(q)
            best_e1 = q[1]
    out.reverse()
    return out


def _near_tie_rows(seed, n=400):
    """Rows (e0, e1, id) on a coarse grid near a falling line, so that
    (e0, e1) ties are common and about 25 rows are on the frontier,
    plus copies of frontier rows with e1 raised by 1e-16 to 2e-15, at
    the same e0 or up to three ulps below it."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 0.1, 25)
    i = rng.integers(0, 25, n)
    e0 = grid[i]
    e1 = grid[np.clip(24 - i - rng.integers(0, 3, n), 0, 24)]
    front = np.array(_scan_frontier(list(zip(e0.tolist(), e1.tolist()))))
    k = 3 * len(front)
    pick = front[rng.integers(0, len(front), k)]
    near0 = pick[:, 0] - rng.integers(0, 4, k) * np.spacing(pick[:, 0])
    near1 = pick[:, 1] + rng.uniform(1e-16, 2e-15, k)
    e0 = np.concatenate([e0, near0])
    e1 = np.concatenate([e1, near1])
    rows = np.stack([e0, e1, np.arange(len(e0), dtype=float)], axis=1)
    return rows[rng.permutation(len(rows))]


@pytest.mark.parametrize("seed", range(5))
def test_pareto_points_matches_object_scan(seed):
    rows = _near_tie_rows(seed)
    want = _scan_frontier([tuple(r) for r in rows.tolist()])
    assert pareto_points(rows).tolist() == [list(q) for q in want]
    # the running filter of tradeoff_curve, fed one block at a time,
    # keeps the same rows
    front = rows[:0]
    for block in np.array_split(rows, 7):
        front = _rising(np.concatenate([front, block]))
    assert pareto_points(front).tolist() == [list(q) for q in want]


@pytest.mark.parametrize("scheme", ["one_sided", "symmetric"])
@pytest.mark.parametrize("h", [FIG_A, FIG_B, HypothesisPair(0.0, 0.25)])
def test_tradeoff_curve_matches_object_scan(scheme, h):
    # every grid row of the curve, built as tradeoff_curve builds it
    # and scaled as Python floats, through the reference scan
    resolution, a_points, alpha_points = 40, 6, 5
    rows = []
    for alpha in default_alpha_grid(0.3, npts=alpha_points):
        alpha = float(alpha)
        r_eff = min(0.3 / alpha, 1.0)
        n_a = a_points if scheme == "one_sided" else 1
        a_grid = np.linspace(0.0, gv_distance(r_eff), n_a)
        lo, hi = _conv_vec(a_grid, h.p0), _conv_vec(a_grid, h.p1)
        t = np.linspace(0.0, 1.0, resolution)
        thetas = (lo[:, None] + t[None, :] * (hi - lo)[:, None]).ravel()
        a_rows = np.repeat(a_grid, resolution)
        e0, e1 = _pair_rows(h, a_rows, thetas, r_eff)
        for x, y, th, a in zip(
            e0.tolist(), e1.tolist(), thetas.tolist(), a_rows.tolist()
        ):
            rows.append((alpha * x, alpha * y, th, a, alpha))
    want = _scan_frontier(rows)
    curve = tradeoff_curve(
        scheme, h, 0.3, resolution=resolution, a_points=a_points,
        alpha_points=alpha_points,
    )
    cols = (curve.e0, curve.e1, curve.theta, curve.a, curve.alpha)
    assert list(zip(*(c.tolist() for c in cols))) == want


@pytest.mark.parametrize("scheme", ["one_sided", "symmetric"])
def test_tradeoff_curve_row_chunks_match_one_call(monkeypatch, scheme):
    kw = dict(resolution=40, a_points=6, alpha_points=5)
    whole = tradeoff_curve(scheme, FIG_B, 0.3, **kw)
    monkeypatch.setattr(bindht.regions, "_PAIR_CHUNK", 7)
    chunked = tradeoff_curve(scheme, FIG_B, 0.3, **kw)
    for col in ("e0", "e1", "theta", "a", "alpha"):
        assert getattr(chunked, col).tolist() == getattr(whole, col).tolist()


def test_pareto_points_removes_dominated():
    rows = np.array([
        [0.1, 0.5, 0.1],
        [0.2, 0.4, 0.2],
        [0.15, 0.3, 0.3],  # dominated
        [0.3, 0.1, 0.4],
    ])
    kept = pareto_points(rows)
    assert kept[:, 0].tolist() == [0.1, 0.2, 0.3]
    assert kept[:, 2].tolist() == [0.1, 0.2, 0.4]


def test_tradeoff_curthan_monotone_frontiers():
    for scheme in SCHEMES:
        curve = tradeoff_curve(
            scheme, FIG_A, 0.3, resolution=60, a_points=8, alpha_points=5
        )
        e0, e1 = curve.as_arrays()
        assert np.all(np.diff(e0) > 0.0)
        assert np.all(np.diff(e1) <= 1e-12)
        assert curve.scheme == scheme
        assert np.all(e0 >= 0.0) and np.all(e1 >= 0.0)


def test_tradeoff_baseline_scales_unconstrained_curve():
    un = tradeoff_curve("unconstrained", FIG_A, 0.3, resolution=50)
    base = tradeoff_curve("baseline", FIG_A, 0.3, resolution=50)
    assert len(un.e0) == len(base.e0) == 50
    np.testing.assert_allclose(base.e0, 0.3 * un.e0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(base.e1, 0.3 * un.e1, rtol=0.0, atol=1e-12)


def test_tradeoff_time_sharing_extends_reach():
    # without the envelope the symmetric curve cannot pass the plain
    # stein value; with it the reachable miss exponent is the time-shared
    # one at every false-alarm level
    curve = tradeoff_curve(
        "symmetric", FIG_A, 0.3, resolution=80, alpha_points=9
    )
    assert curve.e1.max() >= 0.9 * _sym_bound(FIG_A, 0.3)
    assert len(set(curve.alpha.tolist())) > 1


def test_curve_value_at_interpolates():
    curve = TradeoffCurve(
        "unconstrained", 0.3, e0=np.array([0.0, 1.0]),
        e1=np.array([1.0, 0.0]), theta=np.array([0.1, 0.2]), a=np.zeros(2),
        alpha=np.ones(2),
    )
    assert curve_value_at(curve, 0.5) == pytest.approx(0.5)
    # outside the covered range the endpoints clamp
    assert curve_value_at(curve, 0.0) == pytest.approx(1.0)
    assert curve_value_at(curve, 1.5) == pytest.approx(0.0)


def test_tradeoff_rejects_unknown_scheme():
    with pytest.raises(ParameterError):
        tradeoff_curve("nonsense", FIG_A, 0.3)


@pytest.mark.parametrize("scheme, resolution, a_points, alpha_points", [
    ("one_sided", _MAX_CURVE_ROWS // (13 * 25) + 1, 25, 13),
    ("one_sided", 2, _MAX_CURVE_ROWS, 2),
    ("symmetric", _MAX_CURVE_ROWS // 13 + 1, 25, 13),
    ("unconstrained", _MAX_CURVE_ROWS + 1, 25, 13),
    ("baseline", _MAX_CURVE_ROWS + 1, 25, 13),
])
def test_tradeoff_rejects_work_above_bound(
        scheme, resolution, a_points, alpha_points):
    # refused before any grid point is built or evaluated
    with pytest.raises(ResourceLimitError, match="above the limit"):
        tradeoff_curve(
            scheme, FIG_A, 0.3, resolution=resolution, a_points=a_points,
            alpha_points=alpha_points,
        )


@pytest.mark.parametrize("rate", [1.5, -0.1, math.nan])
def test_rate_outside_unit_interval_rejected(rate):
    # the time-sharing grid runs from rate to 1; a rate above 1 would
    # make fractions above 1 and inflate every coded exponent
    with pytest.raises(ParameterError, match=f"rate={rate!r} outside"):
        stein_columns(FIG_A, rate)
    for scheme in ("baseline", "one_sided"):
        with pytest.raises(ParameterError, match=f"rate={rate!r} outside"):
            tradeoff_curve(scheme, FIG_A, rate, resolution=3)


def test_stein_rate_zero_columns_exactly_zero():
    # at rate 0 the only level is a = 1/2 and the bin rate is 0, so the
    # bin code's covering radius is a itself; no coded scheme has a
    # positive miss exponent
    cols = stein_columns(FIG_A, 0.0)
    assert cols["new"] == cols["prior"] == cols["symmetric"] == 0.0


@pytest.mark.parametrize("rate", [0.0, 1.0])
@pytest.mark.parametrize("p0, p1", [(0.0, 0.25), (0.25, 0.25), (0.01, 0.5)])
def test_stein_columns_at_boundary_inputs(p0, p1, rate):
    cols = stein_columns(HypothesisPair(p0, p1), rate)
    for key, v in cols.items():
        assert math.isfinite(v) and v >= 0.0, (key, v)
    assert (
        cols["unconstrained"] >= cols["new"]
        >= cols["prior"] - 1e-7 >= cols["symmetric"] - 1e-7
    ), cols
    if rate == 1.0:
        assert cols["new"] == pytest.approx(cols["unconstrained"], abs=1e-6)


def test_public_names_resolve():
    for name in bindht.__all__:
        assert hasattr(bindht, name), name
