"""Large-deviation exponents checked against brute-force searches and oracles.

The closed-form pieces (stationary-point weight-difference exponent,
golden-section sphere search, Gallager channel exponents) each get an
independent route here: dense grid scans, direct Gallager evaluations,
and the exact finite-n probability oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import xlogy

import bindht.exponents as exponents
from bindht.binmath import (
    DOMAIN_TOL,
    _h_vec,
    binary_convolution,
    binary_divergence,
    binary_entropy,
)
from bindht.errors import ParameterError
from bindht.exponents import (
    RHO_MAX,
    _ball_type_vec,
    _ew_vec,
    _sphere_vec,
    ball_noise_ball_exponent,
    best_channel_exponent,
    best_channel_exponent_vec,
    expurgated_exponent,
    mixed_weight_exponent,
    random_coding_exponent,
    type_noise_ball_exponent,
    weight_difference_exponent,
)
from bindht.oracle import exact_ball_log2_prob

_LN2 = math.log(2.0)


def _persp(x, alpha, p):
    """Direct alpha-scaled divergence over an array of weights x, the
    brute-force counterpart; the divergence is written with xlogy, so
    it does not go through bindht.binmath."""
    if alpha == 0.0:
        return np.zeros_like(x)
    q = np.clip(x / alpha, 0.0, 1.0)
    d = (xlogy(q, q / p) + xlogy(1.0 - q, (1.0 - q) / (1.0 - p))) / _LN2
    return alpha * np.maximum(d, 0.0)


def _wd_brute(p, alpha, beta, tau, npts=4001):
    """Grid scan over the W2 weight x; W1 weight is then x + tau."""
    lo = max(0.0, -tau)
    hi = min(beta, alpha - tau)
    if hi < lo:
        return math.inf
    x = np.linspace(lo, hi, npts)
    return float(np.min(_persp(x + tau, alpha, p) + _persp(x, beta, p)))


def test_weight_difference_against_grid():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        p = rng.uniform(0.01, 0.99)
        alpha = rng.uniform(0.0, 1.0)
        beta = rng.uniform(0.0, 1.0 - alpha)
        tau = rng.uniform(-beta, alpha)
        closed = weight_difference_exponent(p, alpha, beta, tau)
        brute = _wd_brute(p, alpha, beta, tau)
        # the grid only overestimates the true minimum
        assert closed <= brute + 1e-9
        worst = max(worst, brute - closed)
    assert worst < 5e-4


def test_weight_difference_edges():
    assert weight_difference_exponent(0.2, 0.3, 0.1, 0.5) == math.inf
    assert weight_difference_exponent(0.2, 0.3, 0.1, -0.2) == math.inf
    # tau = alpha forces W1 = n alpha and W2 = 0
    want = 0.3 * binary_divergence(1.0, 0.2) + 0.1 * binary_divergence(0.0, 0.2)
    got = weight_difference_exponent(0.2, 0.3, 0.1, 0.3)
    assert got == pytest.approx(want, abs=1e-9)
    # beta = 0 reduces to a one-binomial large deviation
    got = weight_difference_exponent(0.3, 0.5, 0.0, 0.1)
    assert got == pytest.approx(0.5 * binary_divergence(0.2, 0.3), abs=1e-9)
    assert weight_difference_exponent(0.25, 0.0, 0.0, 0.0) == 0.0


def test_weight_difference_validation():
    with pytest.raises(ParameterError):
        weight_difference_exponent(0.2, 0.7, 0.4, 0.1)
    with pytest.raises(ParameterError):
        weight_difference_exponent(1.2, 0.3, 0.3, 0.0)


def _overlap_rate(r, w, g):
    """Exponent of a uniform radius-r shell point overlapping the center in g.

    The four cell masses are clamped at 0, so a mass that rounds just
    below 0 counts as an empty cell rather than giving NaN.
    """
    cells = np.maximum([g, w - g, r - g, 1.0 - w - r + g], 0.0)
    return (
        binary_entropy(r)
        + (xlogy(cells, cells).sum(axis=0)
           - xlogy(w, w) - xlogy(1.0 - w, 1.0 - w)) / _LN2
    )


def _sphere_brute(p, r, w, tau, npts=2001):
    """Scan the overlap between the radius-r shell and the center.

    Each overlap's weight-difference term is `_ew_vec` under the rules
    of `weight_difference_exponent`: the clamps of alpha, beta and tau,
    and +inf outside [-beta, alpha] by more than DOMAIN_TOL.  Every
    overlap on the grid is scanned, the lowest included: where
    1 - w - r + g rounds below 0 there, `_overlap_rate` clamps it to 0.
    """
    g = np.linspace(max(0.0, r + w - 1.0), min(r, w), npts)
    sig = w + r - 2.0 * g
    alpha, beta, t = np.maximum(1.0 - sig, 0.0), np.maximum(sig, 0.0), tau - sig
    inside = (t >= -beta - DOMAIN_TOL) & (t <= alpha + DOMAIN_TOL)
    ew = np.where(inside, _ew_vec(p, alpha, beta, np.clip(t, -beta, alpha)),
                  math.inf)
    return max(float(np.min(_overlap_rate(r, w, g) + ew)), 0.0)


def test_mixed_weight_against_overlap_scan():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = rng.uniform(0.02, 0.45)
        r = rng.uniform(0.0, 0.5)
        w = rng.uniform(0.0, 1.0)
        tau = rng.uniform(0.0, 1.0)
        fast = mixed_weight_exponent(p, r, w, tau)
        brute = _sphere_brute(p, r, w, tau)
        if math.isinf(fast):
            assert math.isinf(brute) or brute > 50.0
        else:
            # the grid scan can only sit above the true minimum
            assert fast <= brute + 1e-9
            assert brute - fast < 5e-5


@pytest.mark.parametrize("w", [0.0, 1.0])
def test_sphere_forced_overlap_at_extreme_centers(w, monkeypatch):
    # At w = 0 the overlap is g = 0 and at w = 1 it is g = r, so the
    # golden bracket must be a single point and the exponent reduces to
    # the overlap rate plus one weight-difference evaluation with
    # sigma = w + r - 2 g flips left to Bernoulli noise.
    brackets = []
    real = exponents.golden_min_vec

    def spy(fn, lo, hi, iters=48):
        brackets.append((np.array(lo, copy=True), np.array(hi, copy=True)))
        return real(fn, lo, hi, iters=iters)

    monkeypatch.setattr(exponents, "golden_min_vec", spy)
    rng = np.random.default_rng(5)
    p = 0.17
    r = rng.uniform(0.0, 1.0, 200)
    tau = rng.uniform(0.0, 1.0, 200)
    got = _sphere_vec(p, r, w, tau)
    lo, hi = brackets[0]
    np.testing.assert_array_equal(lo, hi)
    g = r * w
    sig = 1.0 - r if w == 1.0 else r
    ew = _ew_vec(p, 1.0 - sig, sig, tau - sig)
    want = np.array([
        max(_overlap_rate(rk, w, gk) + ek, 0.0)
        for rk, gk, ek in zip(r, g, ew)
    ])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_mixed_weight_degenerate_noise():
    # p = 0: only the shell overlap can reach tau, here overlap zero
    v = mixed_weight_exponent(0.0, 0.2, 0.3, 0.5)
    assert v == pytest.approx(_overlap_rate(0.2, 0.3, 0.0), abs=1e-9)
    # and weights outside [|w-a|, w+a] are unreachable
    assert mixed_weight_exponent(0.0, 0.1, 0.3, 0.05) == math.inf
    # a = 0 is a pure Bernoulli deviation around the center
    v = mixed_weight_exponent(0.25, 0.0, 0.3, 0.5)
    brute = _wd_brute(0.25, 0.7, 0.3, 0.2)
    assert v == pytest.approx(brute, abs=1e-6)


def test_mixed_weight_zero_at_typical():
    for p, a, w in ((0.1, 0.2, 0.3), (0.25, 0.0, 0.5), (0.4, 0.4, 0.0)):
        typ = binary_convolution(binary_convolution(w, a), p)
        assert mixed_weight_exponent(p, a, w, typ) == pytest.approx(0.0, abs=1e-9)


def test_ball_exponent_two_stage_structure():
    p, a, w = 0.1, 0.15, 0.4
    typ = binary_convolution(binary_convolution(w, a), p)
    # below the typical weight the ball and sphere forms agree
    for theta in (0.1, 0.2, typ):
        assert type_noise_ball_exponent(p, a, w, theta) == pytest.approx(
            mixed_weight_exponent(p, a, w, theta), abs=1e-9
        )
    # above it the ball probability stops decaying but the sphere does not
    assert type_noise_ball_exponent(p, a, w, typ + 0.1) == 0.0
    assert mixed_weight_exponent(p, a, w, typ + 0.1) > 0.01


def test_type_noise_ball_monotone_in_theta():
    vals = [
        type_noise_ball_exponent(0.15, 0.1, 0.45, th)
        for th in np.linspace(0.0, 0.6, 40)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] > vals[-1]


def test_type_noise_ball_against_oracle():
    # exact finite-n probabilities converge to the formula from below
    for p, a, w, theta in ((0.1, 0.1, 0.3, 0.2), (0.25, 0.05, 0.5, 0.15)):
        ref = type_noise_ball_exponent(p, a, w, theta)
        n = 1500
        emp = -exact_ball_log2_prob(
            n, round(a * n), round(w * n), round(theta * n), p
        ) / n
        assert emp == pytest.approx(ref, abs=0.01)


def _bb_brute(p, a, w, theta, npts=801):
    """Scan the noise type r over [0, a]: shell penalty plus type exponent."""
    rs = np.linspace(0.0, a, npts)
    vals = _h_vec(a) - _h_vec(rs) + _ball_type_vec(p, rs, w, theta, iters=60)
    return max(float(vals.min()), 0.0)


def test_ball_noise_against_shell_scan():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = rng.uniform(0.02, 0.45)
        a = rng.uniform(0.0, 0.5)
        w = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, 0.6)
        fast = ball_noise_ball_exponent(p, a, w, theta)
        brute = _bb_brute(p, a, w, theta)
        assert fast <= brute + 1e-9
        assert fast == pytest.approx(brute, abs=5e-5)


def test_ball_noise_rejects_radius_above_half():
    # beyond a = 1/2 the ball holds about 2^n points, so h(a) is no
    # longer the exponent of its size
    with pytest.raises(ParameterError, match="a=0.9 outside"):
        ball_noise_ball_exponent(0.1, 0.9, 0.0, 0.05)
    with pytest.raises(ParameterError):
        ball_noise_ball_exponent(0.1, 0.51, 1.0, 0.5)
    assert math.isfinite(ball_noise_ball_exponent(0.1, 0.5, 0.0, 0.05))


def test_ball_noise_noiseless_closed_form():
    # p = 0 at w = 0 leaves wt(U): a ball-uniform U lies within theta
    # with exponent h(a) - h(theta) below a and 0 above.  At w = 1 the
    # weight 1 - wt(U) is at least 1 - a, so smaller thresholds are
    # unreachable; p = 1 mirrors that.
    for a in (0.1, 0.3, 0.5):
        for theta in np.linspace(0.0, 0.6, 13):
            want = max(binary_entropy(a) - binary_entropy(min(theta, 0.5)), 0.0)
            got = ball_noise_ball_exponent(0.0, a, 0.0, float(theta))
            assert got == pytest.approx(want, abs=1e-12), (a, theta)
    assert ball_noise_ball_exponent(0.0, 0.2, 1.0, 0.79) == math.inf
    assert ball_noise_ball_exponent(0.0, 0.2, 1.0, 0.8) == 0.0
    assert ball_noise_ball_exponent(1.0, 0.2, 0.0, 0.7) == math.inf


@settings(deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    a=st.floats(min_value=0.0, max_value=0.5),
    w=st.floats(min_value=0.0, max_value=1.0),
    thetas=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2
    ),
)
def test_ball_noise_properties(p, a, w, thetas):
    lo, hi = sorted(thetas)
    at_lo = ball_noise_ball_exponent(p, a, w, lo)
    at_hi = ball_noise_ball_exponent(p, a, w, hi)
    for theta, v in ((lo, at_lo), (hi, at_hi)):
        assert math.isfinite(v) and v >= 0.0, (theta, v)
        assert v <= type_noise_ball_exponent(p, a, w, theta) + 1e-12
    # a larger ball is at least as likely
    assert at_hi <= at_lo + 1e-9, (at_lo, at_hi)


def test_ball_noise_never_exceeds_type_noise():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = rng.uniform(0.02, 0.45)
        a = rng.uniform(0.0, 0.5)
        w = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, 0.6)
        bb = ball_noise_ball_exponent(p, a, w, theta)
        bt = type_noise_ball_exponent(p, a, w, theta)
        # the two routes run separate golden searches, hence the slack
        assert bb <= bt + 1e-7


def _gallager_direct(p, rho):
    return rho - (1.0 + rho) * math.log2(
        p ** (1.0 / (1.0 + rho)) + (1.0 - p) ** (1.0 / (1.0 + rho))
    )


def test_random_coding_against_dense_rho_scan():
    for p, rate in ((0.11, 0.2), (0.05, 0.5), (0.25, 0.1), (0.4, 0.02)):
        brute = max(
            max(_gallager_direct(p, rho) - rho * rate
                for rho in np.linspace(0.0, 1.0, 20001)),
            0.0,
        )
        assert random_coding_exponent(p, rate) == pytest.approx(brute, abs=1e-8)


@pytest.mark.parametrize("p", [0.02, 0.11, 0.3])
def test_random_coding_across_critical_rate(p):
    # below R_crit the maximizing rho sits at 1 (the straight line),
    # above it inside (0, 1) (the sphere-packing branch)
    q = math.sqrt(p) / (math.sqrt(p) + math.sqrt(1.0 - p))
    r_crit = 1.0 - binary_entropy(q)
    rhos = np.linspace(0.0, 1.0, 20001)
    for rate in (0.0, 0.5 * r_crit, r_crit - 1e-3, r_crit + 1e-3):
        brute = max(
            max(_gallager_direct(p, rho) - rho * rate for rho in rhos), 0.0
        )
        assert random_coding_exponent(p, rate) == pytest.approx(brute, abs=1e-8)


def test_random_coding_pinned_value():
    # frozen from an independent 1e6-point scan of the Gallager objective
    assert random_coding_exponent(0.11, 0.2) == pytest.approx(
        0.10109572345523046, abs=1e-9
    )


def test_expurgated_beats_random_coding_at_low_rate():
    # at rates near zero the expurgated bound wins for small p
    assert expurgated_exponent(0.11, 0.01) > random_coding_exponent(0.11, 0.01)
    assert expurgated_exponent(0.11, 0.01) == pytest.approx(
        0.2983703255452653, abs=1e-8
    )


def _expurgated_direct(p, rate, s):
    x = 2.0 * math.sqrt(p * (1.0 - p))
    return -(np.log2(0.5 + 0.5 * x ** s) + rate) / s


@pytest.mark.parametrize("p", [0.02, 0.11, 0.3])
def test_expurgated_against_dense_slope_scan(p):
    # the closed form clips the stationary slope to [1/RHO_MAX, 1]; a
    # dense log-spaced scan of s over that interval must agree, and can
    # never exceed the maximum by more than rounding
    x = 2.0 * math.sqrt(p * (1.0 - p))
    r_x = 1.0 - binary_entropy(x / (1.0 + x))
    q = math.sqrt(p) / (math.sqrt(p) + math.sqrt(1.0 - p))
    r_crit = 1.0 - binary_entropy(q)
    s = np.geomspace(1.0 / RHO_MAX, 1.0, 400001)
    for rate in (0.0, r_x - 1e-3, r_x + 1e-3, r_crit - 1e-3, r_crit + 1e-3):
        closed = expurgated_exponent(p, rate)
        scan = float(np.max(_expurgated_direct(p, rate, s)))
        assert closed == pytest.approx(scan, abs=1e-8), (p, rate)
        assert scan <= closed + 1e-12, (p, rate, scan - closed)


def test_expurgated_never_negative():
    # with the slope at s = 1 the expurgated form falls below 0 at rates
    # above -log2(1/2 + x/2); the exponent is clamped there like E_r
    assert expurgated_exponent(0.5, 0.3) == 0.0
    assert expurgated_exponent(0.11, 0.9) == 0.0
    for p in np.linspace(0.0, 0.5, 26):
        for rate in np.linspace(0.0, 1.0, 41):
            assert expurgated_exponent(float(p), float(rate)) >= 0.0, (p, rate)


def test_expurgated_zero_rate_slope_cap():
    # the s -> 0 slope is capped, so rate 0 stays finite
    v = expurgated_exponent(0.2, 0.0)
    assert math.isfinite(v)
    assert v > 0.0


def test_channel_exponent_zero_at_capacity():
    for p in (0.05, 0.11, 0.25, 0.4):
        cap = 1.0 - binary_entropy(p)
        assert abs(best_channel_exponent(p, cap)) <= 1e-6
        assert best_channel_exponent(p, max(cap - 0.05, 0.0)) > 1e-3
        assert best_channel_exponent(p, min(cap + 0.05, 1.0)) == 0.0


def test_channel_exponent_noiseless_closed_form():
    # p = 0: random coding gives 1 - rate
    assert best_channel_exponent(0.0, 0.3) >= 0.7 - 1e-12


def test_channel_exponent_vec_matches_scalar():
    ps = np.array([0.0, 0.05, 0.11, 0.25, 0.4, 0.5])
    rates = np.array([0.0, 0.1, 0.3, 0.5, 0.9, 0.2])
    vec = best_channel_exponent_vec(ps, rates)
    for i in range(len(ps)):
        assert vec[i] == pytest.approx(
            best_channel_exponent(ps[i], rates[i]), abs=1e-10
        )
