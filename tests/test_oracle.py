"""Exact probability computations against independent routes.

The mixed-noise pmf has three routes: the binomial-sum lemma evaluation,
an exhaustive enumeration over all noise patterns, and (for zero
quantization) a direct two-binomial convolution.  They must agree to
near machine precision wherever they overlap.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom

from bindht.errors import ParameterError, ResourceLimitError
from bindht.oracle import (
    ExactPmfQuery,
    _enumerate_counts,
    enumerate_mixed_noise_pmf,
    exact_ball_log2_prob,
    exact_ball_prob,
    exact_mixed_noise_pmf,
    exact_mixed_noise_pmf_vector,
    np_exact_errors,
    np_exact_log2_errors,
)


def test_pmf_matches_enumeration_small():
    # the full sweep lives in the acceptance suite; spot-check here
    for n, p in ((6, 0.3), (8, 0.17), (9, 0.42)):
        for na in range(0, n + 1, 2):
            for nw in range(0, n + 1, 3):
                brute = enumerate_mixed_noise_pmf(n, na, nw, p)
                fast = exact_mixed_noise_pmf_vector(n, na, nw, p)
                np.testing.assert_allclose(fast, brute, rtol=1e-12, atol=1e-300)


def _reference_counts(n, a_count, w_count):
    # the original enumeration kernel: int64 words, a string popcount and
    # 2^22-element blocks, kept as the reference for _enumerate_counts
    c = (1 << w_count) - 1
    zs = np.arange(1 << n, dtype=np.int64)
    pc = np.array([bin(i).count("1") for i in range(1 << n)], dtype=np.uint8)
    us = zs[pc == a_count]
    vs = (c ^ us).astype(np.int64)
    counts = np.zeros((n + 1) * (n + 1), dtype=np.int64)
    chunk = max(1, (1 << 22) // (1 << n))
    for i in range(0, len(vs), chunk):
        block = vs[i: i + chunk, None] ^ zs[None, :]
        combined = pc[block].astype(np.int64) * (n + 1) + pc[zs][None, :]
        counts += np.bincount(combined.ravel(), minlength=len(counts))
    return counts.reshape(n + 1, n + 1)


def test_enumerate_counts_match_reference_kernel():
    cases = [
        (n, na, nw)
        for n in range(1, 11)
        for na in range(n + 1)
        for nw in range(n + 1)
    ]
    cases += [(12, 0, 12), (12, 6, 6), (12, 5, 9), (12, 12, 0)]
    for n, na, nw in cases:
        got = _enumerate_counts(n, na, nw)
        want = _reference_counts(n, na, nw)
        assert np.array_equal(got, want), (n, na, nw)
        assert got.sum() == math.comb(n, na) << n


def test_enumeration_p_sequence_rows_equal_scalar_calls():
    ps = [0.0, 0.1, 0.25, 0.4, 1.0]
    for n, na, nw in ((1, 0, 1), (7, 3, 5), (11, 6, 2)):
        rows = enumerate_mixed_noise_pmf(n, na, nw, ps)
        assert rows.shape == (len(ps), n + 1)
        for p, row in zip(ps, rows):
            scalar = enumerate_mixed_noise_pmf(n, na, nw, p)
            assert row.tobytes() == scalar.tobytes(), (n, na, nw, p)
    rows = enumerate_mixed_noise_pmf(5, 2, 3, np.array([0.2, 0.3]))
    assert rows[1].tobytes() == enumerate_mixed_noise_pmf(
        5, 2, 3, np.float64(0.3)
    ).tobytes()


@pytest.mark.parametrize(
    "ps", [(0.1, 1.5), (-0.1, 0.2), (0.2, float("nan")), [[0.1, 0.2]]]
)
def test_enumeration_p_sequence_validated(ps):
    with pytest.raises(ParameterError):
        enumerate_mixed_noise_pmf(6, 2, 3, ps)


def test_pmf_normalizes():
    for n, na, nw, p in ((12, 5, 7, 0.23), (40, 11, 0, 0.4), (64, 64, 64, 0.07)):
        vec = exact_mixed_noise_pmf_vector(n, na, nw, p)
        assert math.fsum(vec) == pytest.approx(1.0, abs=1e-12)
        assert np.all(vec >= 0.0)


def test_pmf_no_quantization_is_binomial_convolution():
    # a = 0 leaves wt(c + Z) = (nw - D) + B with D ~ Bin(nw, p) hits on
    # the center support and B ~ Bin(n - nw, p) off it
    n, nw, p = 24, 9, 0.31
    vec = exact_mixed_noise_pmf_vector(n, 0, nw, p)
    direct = np.zeros(n + 1)
    for d in range(nw + 1):
        for b in range(n - nw + 1):
            direct[nw - d + b] += binom.pmf(d, nw, p) * binom.pmf(b, n - nw, p)
    np.testing.assert_allclose(vec, direct, rtol=1e-10, atol=1e-18)


def test_pmf_complement_symmetries():
    # complementing the center complements the resulting weight exactly,
    # and flipping p has the same effect through Z
    n, na, nw, p = 11, 4, 7, 0.3
    a_vec = exact_mixed_noise_pmf_vector(n, na, nw, p)
    w_flip = exact_mixed_noise_pmf_vector(n, na, n - nw, p)
    p_flip = exact_mixed_noise_pmf_vector(n, na, nw, 1.0 - p)
    np.testing.assert_allclose(a_vec, w_flip[::-1], rtol=1e-12)
    np.testing.assert_allclose(a_vec, p_flip[::-1], rtol=1e-12)


def test_pmf_scalar_matches_vector():
    n, na, nw, p = 33, 6, 12, 0.2
    vec = exact_mixed_noise_pmf_vector(n, na, nw, p)
    for nt in (0, 5, 18, 33):
        q = ExactPmfQuery(n, na, nw, nt, p)
        assert exact_mixed_noise_pmf(q) == pytest.approx(
            vec[nt], rel=1e-12, abs=1e-300
        )


def test_pmf_degenerate_p():
    # p = 0 leaves only the quantization noise
    vec = exact_mixed_noise_pmf_vector(10, 3, 4, 0.0)
    assert math.fsum(vec) == pytest.approx(1.0, abs=1e-14)
    # overlap m shifts the weight to 4 + 3 - 2m, m in 0..3
    assert {t for t in range(11) if vec[t] > 0} == {1, 3, 5, 7}


def test_ball_trivial_cases():
    assert exact_ball_prob(15, 4, 6, 15, 0.37) == pytest.approx(1.0, abs=1e-12)
    # theta = 0 with p = 0 needs U to cancel the center exactly
    want = 1.0 / math.comb(12, 5)
    assert exact_ball_prob(12, 5, 5, 0, 0.0) == pytest.approx(want, rel=1e-12)


def test_ball_log_matches_linear_sum():
    n, na, nw, p = 30, 8, 11, 0.26
    vec = exact_mixed_noise_pmf_vector(n, na, nw, p)
    for nt in (0, 3, 12, 30):
        want = math.fsum(vec[: nt + 1])
        got = exact_ball_log2_prob(n, na, nw, nt, p)
        assert 2.0 ** got == pytest.approx(want, rel=1e-10)


def test_ball_log_large_n_underflow_safe():
    # far below the typical weight the probability underflows linearly
    # but stays finite in the log domain
    l2 = exact_ball_log2_prob(4000, 0, 0, 40, 0.3)
    assert -4000.0 < l2 < -1000.0
    assert exact_ball_prob(4000, 0, 0, 40, 0.3) == 0.0


def test_np_exact_errors_against_scipy():
    for n, p0, p1, theta in ((23, 0.01, 0.25, 0.1), (50, 0.1, 0.3, 0.18)):
        k = math.floor(n * theta + 1e-9)
        eps0, eps1 = np_exact_errors(n, p0, p1, theta)
        assert eps0 == pytest.approx(binom.sf(k, n, p0), rel=1e-12)
        assert eps1 == pytest.approx(binom.cdf(k, n, p1), rel=1e-12)


def test_np_exact_errors_edges():
    assert np_exact_errors(10, 0.2, 0.4, 1.0)[0] == 0.0
    assert np_exact_errors(10, 0.0, 0.4, 0.0)[0] == 0.0
    eps0, eps1 = np_exact_errors(10, 0.0, 1.0, 0.5)
    assert eps0 == 0.0 and eps1 == 0.0


def test_np_log_errors_match_linear():
    n, p0, p1, theta = 23, 0.01, 0.25, 0.1
    eps0, eps1 = np_exact_errors(n, p0, p1, theta)
    l0, l1 = np_exact_log2_errors(n, p0, p1, theta)
    assert 2.0 ** l0 == pytest.approx(eps0, rel=1e-10)
    assert 2.0 ** l1 == pytest.approx(eps1, rel=1e-10)


def test_np_exponent_bracket():
    # the exact tails straddle the divergence up to the polynomial factor
    from bindht.binmath import binary_divergence

    n, p0, p1, theta = 23, 0.01, 0.25, 0.1
    l0, l1 = np_exact_log2_errors(n, p0, p1, theta)
    slack = math.log2(n + 1) / n
    assert -l0 / n <= binary_divergence(0.1, p0) + slack
    assert -l0 / n >= binary_divergence(0.1, p0) - slack
    assert -l1 / n <= binary_divergence(0.1, p1) + slack
    assert -l1 / n >= binary_divergence(0.1, p1) - slack


def test_query_validation():
    with pytest.raises(ParameterError):
        ExactPmfQuery(10, 11, 0, 0, 0.3)
    with pytest.raises(ParameterError, match="n=2.5 is not an integer"):
        enumerate_mixed_noise_pmf(2.5, 1, 1, 0.1)
    with pytest.raises(ParameterError, match="a_count=1.0 is not an integer"):
        ExactPmfQuery(4, 1.0, 1, 0, 0.1)
    with pytest.raises(ParameterError, match="n=64.5 is not an integer"):
        exact_mixed_noise_pmf_vector(64.5, 1, 1, 0.1)
    assert ExactPmfQuery(np.int64(4), np.int32(1), np.uint8(2), 0, 0.1).n == 4
    with pytest.raises(ParameterError):
        ExactPmfQuery(10, 0, 0, 0, 1.3)
    with pytest.raises(ParameterError):
        np_exact_errors(0, 0.1, 0.2, 0.5)
    with pytest.raises(ResourceLimitError):
        enumerate_mixed_noise_pmf(13, 2, 2, 0.3)
    with pytest.raises(ResourceLimitError):
        exact_mixed_noise_pmf_vector(65, 2, 2, 0.3)


@pytest.mark.parametrize(
    "fn", [np_exact_errors, np_exact_log2_errors], ids=["linear", "log2"]
)
@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 0.1, 0.2, 0.5), "n=0 must be positive"),
        ((2.5, 0.1, 0.2, 0.5), "n=2.5 is not an integer"),
        ((10, 2.0, 0.2, 0.5), r"p0=2.0 outside \[0, 1\]"),
        ((10, 0.1, 0.2, float("nan")), r"theta=nan outside \[0, 1\]"),
    ],
)
def test_threshold_test_validation(fn, args, message):
    with pytest.raises(ParameterError, match=message):
        fn(*args)
