"""Identities and edge conventions of the base-2 binary information measures."""

import math
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, strategies as st

from bindht.binmath import (
    binary_convolution,
    binary_divergence,
    binary_divergence_vec,
    binary_entropy,
    gv_distance,
    inverse_binary_entropy,
    inverse_binary_entropy_vec,
    xlogy,
)
from bindht.errors import ParameterError

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
half_probs = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


def test_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    # -0.11 log2(0.11) - 0.89 log2(0.89), computed independently
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)


@given(probs)
def test_entropy_symmetry(w):
    assert binary_entropy(w) == pytest.approx(binary_entropy(1.0 - w), abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_inverse_round_trip(y):
    w = inverse_binary_entropy(y)
    assert 0.0 <= w <= 0.5
    assert binary_entropy(w) == pytest.approx(y, abs=1e-10)


@given(half_probs)
def test_inverse_entropy_left_inverse(w):
    assert inverse_binary_entropy(binary_entropy(w)) == pytest.approx(w, abs=1e-9)


def test_divergence_basics():
    assert binary_divergence(0.3, 0.3) == 0.0
    assert binary_divergence(0.0, 0.25) == pytest.approx(
        -math.log2(0.75), abs=1e-12
    )
    assert binary_divergence(1.0, 0.25) == pytest.approx(
        -math.log2(0.25), abs=1e-12
    )
    # 0.4 log2(4) + 0.6 log2(2/3), computed independently
    assert binary_divergence(0.4, 0.1) == pytest.approx(
        0.4490224995673063, abs=1e-12
    )


def test_divergence_infinite_support_mismatch():
    assert binary_divergence(0.2, 0.0) == math.inf
    assert binary_divergence(0.8, 1.0) == math.inf
    assert binary_divergence(0.0, 0.0) == 0.0
    assert binary_divergence(1.0, 1.0) == 0.0


@pytest.mark.parametrize("q", [1e-320, 5e-324])
def test_divergence_at_subnormal_q(q):
    # p / q overflows at a subnormal q; the divergence itself is finite
    p = 0.05
    want = p * (math.log2(p) - math.log2(q)) + (1.0 - p) * math.log2(1.0 - p)
    assert binary_divergence(p, q) == pytest.approx(want, rel=1e-12)
    if q == 1e-320:
        assert binary_divergence(p, q) == pytest.approx(52.8645, abs=1e-4)


def _divergence_oracle(p, q):
    """d(p||q) in bits by the scalar formula, term by term, for p and q
    in [0, 1]: the reference the array kernel is checked against."""
    if q == 0.0:
        return 0.0 if p == 0.0 else math.inf
    if q == 1.0:
        return 0.0 if p == 1.0 else math.inf
    acc = 0.0
    if p > 0.0:
        # p / q overflows for a subnormal q; the log difference does not
        if q < sys.float_info.min:
            acc += p * (math.log(p) - math.log(q))
        else:
            acc += p * math.log(p / q)
    if p < 1.0:
        acc += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return max(acc / math.log(2.0), 0.0)


@given(probs, probs)
@example(0.05, 1e-320)
@example(0.05, 5e-324)
@example(1e-320, 5e-324)
@example(0.0, 5e-324)
def test_divergence_vec_matches_scalar(p, q):
    got = binary_divergence_vec(p, q)
    want = _divergence_oracle(p, q)
    assert got.shape == () and got >= 0.0
    if math.isinf(want):
        assert got == want
    else:
        slack = 1e-15 if want < 1e-3 else 0.0
        assert float(got) == pytest.approx(want, rel=1e-12, abs=slack)


def test_divergence_vec_edges_and_broadcast():
    p = np.array([0.0, 1.0, 0.3, 0.3, 0.0, 1.0, 0.05, 0.05])
    q = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1e-320, 5e-324])
    got = binary_divergence_vec(p, q)
    assert got[:6].tolist() == [0.0, 0.0, math.inf, math.inf, math.inf, math.inf]
    assert got[6:].tolist() == pytest.approx(
        [_divergence_oracle(0.05, 1e-320), _divergence_oracle(0.05, 5e-324)],
        rel=1e-12,
    )
    # a column of q against a row of p gives one row per q
    grid = binary_divergence_vec(p[None, :], np.array([[0.25], [0.5]]))
    assert grid.shape == (2, p.size)
    assert grid[1].tolist() == pytest.approx(
        [1.0 - binary_entropy(x) for x in p.tolist()], abs=1e-12
    )


@given(probs, st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_divergence_nonnegative(w, q):
    assert binary_divergence(w, q) >= 0.0


@given(probs)
def test_divergence_against_uniform_is_entropy_gap(w):
    assert binary_divergence(w, 0.5) == pytest.approx(
        1.0 - binary_entropy(w), abs=1e-12
    )


def test_convolution_identities():
    assert binary_convolution(0.3, 0.0) == pytest.approx(0.3)
    assert binary_convolution(0.3, 1.0) == pytest.approx(0.7)
    assert binary_convolution(0.3, 0.5) == pytest.approx(0.5)
    assert binary_convolution(0.1, 0.2) == pytest.approx(0.26, abs=1e-15)


@given(probs, probs)
def test_convolution_symmetric_and_bounded(p, q):
    r = binary_convolution(p, q)
    assert r == pytest.approx(binary_convolution(q, p), abs=1e-15)
    assert 0.0 <= r <= 1.0


@given(half_probs, half_probs)
def test_convolution_increases_noise(p, q):
    r = binary_convolution(p, q)
    assert r >= max(p, q) - 1e-15
    assert r <= 0.5 + 1e-15


@given(probs, probs, probs)
def test_convolution_associative(p, q, r):
    left = binary_convolution(binary_convolution(p, q), r)
    right = binary_convolution(p, binary_convolution(q, r))
    assert left == pytest.approx(right, abs=1e-12)


def test_gv_distance_endpoints():
    assert gv_distance(0.0) == pytest.approx(0.5, abs=1e-12)
    assert gv_distance(1.0) == 0.0
    assert binary_entropy(gv_distance(0.3)) == pytest.approx(0.7, abs=1e-10)


def test_gv_distance_monotone():
    rates = np.linspace(0.0, 1.0, 201)
    deltas = np.array([gv_distance(r) for r in rates])
    assert np.all(np.diff(deltas) <= 1e-12)


@pytest.mark.parametrize("fn,arg", [
    (binary_entropy, -0.1),
    (binary_entropy, 1.1),
    (inverse_binary_entropy, -0.01),
    (inverse_binary_entropy, 1.01),
    (gv_distance, 1.2),
])
def test_domain_errors(fn, arg):
    with pytest.raises(ParameterError):
        fn(arg)


def test_xlogy_against_scipy():
    rng = np.random.default_rng(20181004)
    tiny = math.ulp(0.0)
    specials = np.array([0.0, tiny, 1e-310, 1e-300, 0.5, 1.0])
    x = np.concatenate([rng.uniform(0.0, 1.0, 100_000), specials, specials])
    y = np.concatenate([rng.uniform(0.0, 1.0, 100_000), specials, [1.0] * 6])
    ref = scipy.special.xlogy(x, y)
    # numpy's log and the C library's each round, so the two products
    # may sit on either side of the exact one: 2 ulps apart at most
    np.testing.assert_array_max_ulp(xlogy(x, y), ref, maxulp=2)
    np.testing.assert_array_max_ulp(xlogy(x, x), scipy.special.xlogy(x, x), 2)
    # 0 wherever x == 0, whatever y is (scipy gives NaN for y = NaN)
    zero = xlogy(np.zeros(5), np.array([0.0, 1.0, np.inf, -1.0, np.nan]))
    assert np.array_equal(zero, np.zeros(5))
    assert np.isnan(xlogy(np.nan, 0.5))
    assert xlogy(2.0, 1.0) == 0.0
    outer = xlogy(np.array([[1.0], [0.0]]), np.array([0.5, 0.25]))
    assert outer.shape == (2, 2)


def _h_reference(u):
    xlogy_ref = scipy.special.xlogy
    return -(xlogy_ref(u, u) + xlogy_ref(1.0 - u, 1.0 - u)) / math.log(2.0)


def _gv_bisection(rates):
    """The 60-step vector bisection of h(x) = 1 - rate on [0, 1/2]."""
    target = 1.0 - np.asarray(rates, float)
    lo = np.zeros_like(target)
    hi = np.full_like(target, 0.5)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _h_reference(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_inverse_entropy_vec_against_bisection():
    rng = np.random.default_rng(7)
    rates = np.concatenate([
        rng.uniform(0.0, 1.0, 50_000),
        10.0 ** rng.uniform(-6.0, 0.0, 10_000),
        1.0 - 10.0 ** rng.uniform(-15.0, 0.0, 10_000),
        [1e-6, 0.5, 1.0 - 2.0 ** -52],
    ])
    got = inverse_binary_entropy_vec(1.0 - rates)
    assert np.max(np.abs(got - _gv_bisection(rates))) <= 1e-13
    assert np.max(np.abs(_h_reference(got) - (1.0 - rates))) <= 1e-15
    # below rate 1e-6 the inverse is ill-conditioned near 1/2
    small = np.concatenate([10.0 ** rng.uniform(-16.0, -6.0, 1000), [0.0]])
    got = inverse_binary_entropy_vec(1.0 - small)
    assert np.max(np.abs(got - _gv_bisection(small))) <= 1e-8
    assert np.all((got >= 0.0) & (got <= 0.5))


def test_inverse_entropy_vec_endpoints_and_monotone():
    got = inverse_binary_entropy_vec(np.array([1.0, 0.0, 1.5, -0.5]))
    assert got.tolist() == [0.5, 0.0, 0.5, 0.0]
    rng = np.random.default_rng(8)
    rates = np.sort(np.concatenate([
        np.linspace(0.0, 1.0, 100_001), rng.uniform(0.0, 1.0, 100_000),
    ]))
    deltas = inverse_binary_entropy_vec(1.0 - rates)
    assert np.all(np.diff(deltas) <= 0.0)
    assert float(inverse_binary_entropy_vec(0.7)) == pytest.approx(
        gv_distance(0.3), abs=1e-12
    )
