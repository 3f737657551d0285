"""Exact probability computations against independent routes.

The mixed-noise pmf has three routes: the binomial-sum lemma evaluation,
an exhaustive enumeration over all noise patterns, and (for zero
quantization) a direct two-binomial convolution.  The lemma itself is
evaluated twice: the pmf vector (n <= 64) from integer binomial
coefficients, and point and ball probabilities in the log domain at
every n.  They must agree to near machine precision wherever they
overlap.  The enumeration's count table, built by a recursion over
coordinates, must equal the pair scatter of `enum_oracle` cell for cell.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaln
from scipy.stats import binom

from bindht.errors import ParameterError, ResourceLimitError
from bindht.oracle import (
    ENUM_MAX_N,
    _enumerate_counts,
    _log_binom_pmf,
    _log_comb,
    _log_hyp_weights,
    _log_mixture,
    _logsumexp,
    _overlap_range,
    _shift_kernel,
    _xor_counts,
    enumerate_mixed_noise_pmf,
    exact_ball_log2_prob,
    exact_mixed_noise_pmf,
    exact_mixed_noise_pmf_vector,
    np_exact_errors,
    np_exact_log2_errors,
)
from enum_oracle import xor_counts_scatter


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
    # every center weight of one (n, na) per call, one table each
    cases = [
        (n, na, list(range(n + 1)))
        for n in range(1, 11)
        for na in range(n + 1)
    ]
    cases += [(12, 0, [12]), (12, 6, [6]), (12, 5, [9, 2]), (12, 12, [0])]
    for n, na, nws in cases:
        tables = _enumerate_counts(n, na, nws)
        assert tables.shape == (len(nws), n + 1, n + 1)
        for nw, got in zip(nws, tables):
            want = _reference_counts(n, na, nw)
            assert np.array_equal(got, want), (n, na, nw)
            assert got.sum() == math.comb(n, na) << n


def test_xor_count_recursion_matches_pair_scatter():
    # every (n, na) the exhaustive route serves, cell for cell
    for n in range(1, ENUM_MAX_N + 1):
        table = _xor_counts(n)
        for na in range(n + 1):
            assert np.array_equal(table[na], xor_counts_scatter(n, na)), (
                n, na,
            )


def test_xor_count_table_is_read_only_and_complete():
    assert _xor_counts.cache_info().maxsize == 1
    for n, nas in ((1, (0, 1)), (7, (3,)), (12, (0, 6, 12))):
        table = _xor_counts(n)
        assert table.shape == (n + 1, n + 1, 1 << n)
        assert table.dtype == np.uint16
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1
        for na in nas:
            # every (U, z) pair lands in one cell of its a-slice
            assert table[na].sum() == math.comb(n, na) << n
            np.testing.assert_array_equal(
                table[na].sum(axis=1),
                [math.comb(n, na) * math.comb(n, j) for j in range(n + 1)],
            )


def test_enumerate_counts_interleaved_calls_match_cold_calls():
    triples = [
        (12, 5, [9]), (11, 3, [2, 7]), (12, 5, [9, 0]), (12, 5, [0]),
        (4, 2, [1]),
    ]
    warm = [_enumerate_counts(*t) for t in triples]
    for t, got in zip(triples, warm):
        _xor_counts.cache_clear()
        assert np.array_equal(got, _enumerate_counts(*t)), t


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


ARRAY_PS = (0.0, 0.1, 0.25, 0.4, 1.0)


def _assert_array_forms_equal_scalar_calls(fn, n, na, nws):
    # entry [i, k] of the call with both arrays, row i of the call with
    # nws[i] alone and column k of the call with p[k] alone are each the
    # scalar call's bytes
    both = fn(n, na, np.array(nws), ARRAY_PS)
    assert both.shape == (len(nws), len(ARRAY_PS), n + 1)
    for k, p in enumerate(ARRAY_PS):
        assert fn(n, na, nws, p).tobytes() == both[:, k].tobytes()
    for i, nw in enumerate(nws):
        assert fn(n, na, nw, list(ARRAY_PS)).tobytes() == both[i].tobytes()
        for k, p in enumerate(ARRAY_PS):
            got = fn(n, na, nw, p).tobytes()
            assert got == both[i, k].tobytes(), (n, na, nw, p)


@pytest.mark.parametrize(
    "fn", [exact_mixed_noise_pmf_vector, enumerate_mixed_noise_pmf],
    ids=["closed-form", "enumeration"],
)
@pytest.mark.parametrize("n", range(1, 13))
def test_array_center_weights_equal_scalar_calls(fn, n):
    for na in range(n + 1):
        _assert_array_forms_equal_scalar_calls(fn, n, na, list(range(n + 1)))


@pytest.mark.parametrize("n", [16, 40, 64])
def test_pmf_vector_array_center_weights_beyond_enumeration(n):
    # every na at n = 16, every seventh and n beyond; every nw
    counts = range(n + 1) if n <= 16 else sorted({*range(0, n + 1, 7), n})
    for na in counts:
        _assert_array_forms_equal_scalar_calls(
            exact_mixed_noise_pmf_vector, n, na, list(range(n + 1))
        )


@pytest.mark.parametrize(
    "fn", [exact_mixed_noise_pmf_vector, enumerate_mixed_noise_pmf],
    ids=["closed-form", "enumeration"],
)
def test_array_center_weights_validated(fn):
    # each entry is checked and named as its scalar call would be
    with pytest.raises(ParameterError, match="w_count=7 outside"):
        fn(6, 2, [1, 7, 3], 0.1)
    with pytest.raises(ParameterError, match="w_count=2.5 is not an integer"):
        fn(6, 2, [1, 2.5], [0.1, 0.2])
    with pytest.raises(ParameterError, match="w_count must be a scalar or 1-D"):
        fn(6, 2, [[1, 2]], 0.1)
    with pytest.raises(ParameterError, match=r"p=1.5 outside \[0, 1\]"):
        fn(6, 2, [1, 2], [0.1, 1.5])
    assert fn(6, 2, [], [0.1]).shape == (0, 1, 7)
    assert fn(6, 2, [3], []).shape == (1, 0, 7)


def _reference_pmf_linear(n, na, nw, p):
    # the original closed-form loop over (m, j2), building the binomial
    # rows on every call; kept as the reference for the shift kernel
    denom = math.comb(n, na)
    pmf = np.zeros(n + 1)
    q = 1.0 - p
    pows_p = p ** np.arange(n + 1)
    pows_q = q ** np.arange(n + 1)
    for m in range(*_overlap_range(n, na, nw)):
        s = nw + na - 2 * m
        hyp = math.comb(nw, m) * math.comb(n - nw, na - m) / denom
        w2 = np.array(
            [math.comb(s, j) for j in range(s + 1)]
        ) * pows_p[: s + 1] * pows_q[s::-1]
        w1 = np.array(
            [math.comb(n - s, j) for j in range(n - s + 1)]
        ) * pows_p[: n - s + 1] * pows_q[n - s::-1]
        # weight = s + j1 - j2
        for j2, prob2 in enumerate(w2):
            t0 = s - j2
            pmf[t0: t0 + n - s + 1] += hyp * prob2 * w1
    return pmf


@pytest.mark.parametrize("n", [*range(1, 13), 16, 24, 30, 40, 64])
def test_pmf_vector_matches_reference_loop(n):
    # every (na, nw) up to n = 16, every seventh count and n beyond; the
    # kernel sums in another order, so entries move by a few ulps, and
    # below 1e-290 only subnormal ulps, which are not compared
    counts = range(n + 1) if n <= 16 else sorted({*range(0, n + 1, 7), n})
    for p in (1e-9, 0.1, 0.25, 0.4, 0.5):
        for na in counts:
            for nw in counts:
                want = _reference_pmf_linear(n, na, nw, p)
                got = exact_mixed_noise_pmf_vector(n, na, nw, p)
                big = want > 1e-290
                np.testing.assert_allclose(
                    got[big], want[big], rtol=1e-14, atol=0.0,
                    err_msg=f"n={n} na={na} nw={nw} p={p}",
                )


def test_shift_kernel_rows_are_distributions():
    assert _shift_kernel.cache_info().maxsize == 8
    for n, p in ((1, 0.3), (12, 0.1), (30, 0.25), (64, 0.5), (64, 1e-9)):
        kernel = _shift_kernel(n, p)
        assert kernel.shape == (n + 1, n + 1)
        np.testing.assert_allclose(kernel.sum(axis=1), 1.0, rtol=0, atol=1e-14)
        assert not kernel.flags.writeable
        with pytest.raises(ValueError):
            kernel[0, 0] = 1.0


def test_pmf_vector_array_p_matches_float_p():
    # the kernel cache is keyed on float(p), so a 0-d array shares the
    # float's entry and its bytes
    for n, na, nw, p in ((12, 5, 7, 0.25), (40, 11, 3, 0.1)):
        want = exact_mixed_noise_pmf_vector(n, na, nw, p).tobytes()
        for q in (np.array(p), np.float64(p)):
            assert exact_mixed_noise_pmf_vector(n, na, nw, q).tobytes() == want


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
    # the log route against the integer one, degenerate p included
    for n, na, nw in ((5, 2, 3), (33, 6, 12), (64, 40, 23)):
        for p in (0.0, 0.2, 1.0):
            vec = exact_mixed_noise_pmf_vector(n, na, nw, p)
            for nt in range(n + 1):
                assert exact_mixed_noise_pmf(n, na, nw, nt, p) == pytest.approx(
                    vec[nt], rel=1e-12, abs=1e-300
                ), (n, na, nw, nt, p)


def test_pmf_degenerate_p():
    # p = 0 leaves only the quantization noise
    vec = exact_mixed_noise_pmf_vector(10, 3, 4, 0.0)
    assert math.fsum(vec) == pytest.approx(1.0, abs=1e-14)
    # overlap m shifts the weight to 4 + 3 - 2m, m in 0..3
    assert {t for t in range(11) if vec[t] > 0} == {1, 3, 5, 7}


def test_ball_trivial_cases():
    assert 2.0 ** exact_ball_log2_prob(15, 4, 6, 15, 0.37) == pytest.approx(
        1.0, abs=1e-12
    )
    # theta = 0 with p = 0 needs U to cancel the center exactly
    want = 1.0 / math.comb(12, 5)
    assert 2.0 ** exact_ball_log2_prob(12, 5, 5, 0, 0.0) == pytest.approx(
        want, rel=1e-12
    )


def test_ball_log_matches_linear_sum():
    for n in (30, 47, 64):
        for p in (0.0, 1.0, 0.26):
            for na, nw in ((8, 11), (n - 5, n // 2)):
                vec = exact_mixed_noise_pmf_vector(n, na, nw, p)
                for nt in (0, 3, 12, n - 1, n):
                    want = math.fsum(vec[: nt + 1])
                    got = exact_ball_log2_prob(n, na, nw, nt, p)
                    assert 2.0 ** got == pytest.approx(want, rel=1e-10), (
                        n, na, nw, nt, p
                    )


def test_full_ball_is_certain():
    # the first two sum to a few ulps above 1 before the clamp; with
    # one overlap and p in {0, 1} every term is exact
    for n, na, nw, p in (
        (2000, 666, 1000, 0.3), (31, 10, 15, 0.1),
        (40, 0, 17, 0.0), (40, 13, 0, 1.0), (4000, 0, 2000, 1.0),
    ):
        assert exact_ball_log2_prob(n, na, nw, n, p) == 0.0
    # elsewhere rounding leaves a full ball within a few ulps of 1, and
    # no ball above it
    for n in (1, 12, 47):
        counts = sorted({*range(0, n + 1, 1 if n <= 12 else 4), n})
        for na in counts:
            for nw in counts:
                for p in (0.0, 1.0, 0.3):
                    for nt in (n - 1, n):
                        got = exact_ball_log2_prob(n, na, nw, nt, p)
                        assert got <= 0.0, (n, na, nw, nt, p)
                    assert got > -1e-12, (n, na, nw, p)


def _reference_log_mixture(n, na, nw, nt, p, ball):
    # the untruncated sum: W1's log-pmf (and log-CDF) over all of
    # 0..n - s for every overlap; kept as the reference for _log_mixture
    ms, log_hyp = _log_hyp_weights(n, na, nw)
    terms = np.full(len(ms), -math.inf)
    for i, m in enumerate(ms):
        s = nw + na - 2 * m
        d = nt - s
        js = np.arange(max(0, -d), (s if ball else min(s, n - s - d)) + 1)
        if len(js) == 0:
            continue
        lw1 = _log_binom_pmf(n - s, p)
        if ball:
            lw1 = np.logaddexp.accumulate(lw1)
        idx = np.minimum(js + d, n - s)
        terms[i] = _logsumexp(_log_binom_pmf(s, p)[js] + lw1[idx])
    return _logsumexp(log_hyp + terms)


def test_log_mixture_matches_untruncated_reference():
    # building W1 only where the sum reads it changes no bit
    rng = np.random.default_rng(20)
    ns = [1, 2, 3, 12, 64, 200, 2000, *rng.integers(1, 2001, size=2)]
    for n in map(int, ns):
        for p in (0.0, 1.0, 1e-9, float(rng.random())):
            na, nw, nt = map(int, rng.integers(0, n + 1, size=3))
            for t in (0, nt, n):
                for ball in (False, True):
                    got = _log_mixture(n, na, nw, t, p, ball)
                    want = _reference_log_mixture(n, na, nw, t, p, ball)
                    assert float(got).hex() == float(want).hex(), (
                        n, na, nw, t, p, ball
                    )


def test_log_comb_against_exact_integers():
    for n in range(201):
        ks = np.arange(n + 1)
        want = np.array([math.log(math.comb(n, int(k))) for k in ks])
        np.testing.assert_allclose(_log_comb(n, ks), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [1000, 65_537, 200_000])
def test_log_comb_against_gammaln(n):
    ks = np.arange(n + 1)
    want = gammaln(n + 1.0) - gammaln(ks + 1.0) - gammaln(n - ks + 1.0)
    # both forms subtract three rounded values of size ln(n!), so they
    # agree to a few of its ulps (1.9e-9 at n = 2e5) and no closer
    tol = max(1e-9, 4.0 * np.spacing(gammaln(n + 1.0)))
    np.testing.assert_allclose(_log_comb(n, ks), want, rtol=0.0, atol=tol)
    assert _log_comb(n, 0) == 0.0 and _log_comb(n, n) == 0.0


def test_ball_log_large_n_underflow_safe():
    # far below the typical weight the probability underflows linearly
    # but stays finite in the log domain
    l2 = exact_ball_log2_prob(4000, 0, 0, 40, 0.3)
    assert -4000.0 < l2 < -1000.0
    # a single (U, Z) outcome reaches weight 0 in each case below: Z
    # must cancel c + U, or (p = 0) U must cancel c
    p_small, p_large = 1e-300, 1.0 - 1e-12
    cases = [
        ((3, 2, 0, 0, p_small),
         2 * math.log2(p_small) + math.log2(1.0 - p_small)),
        ((30, 28, 30, 0, p_large),
         2 * math.log2(p_large) + 28 * math.log2(1.0 - p_large)),
        ((4000, 2000, 2000, 0, 0.0), -math.log2(math.comb(4000, 2000))),
    ]
    for args, want in cases:
        assert exact_ball_log2_prob(*args) == pytest.approx(want, rel=1e-9)


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


def _fraction_errors(n, p0, p1, theta):
    """The threshold test's error pair as exact rational tail sums."""
    k = math.floor(n * theta + 1e-9)

    def pmf(p, j):
        q = Fraction(p)
        return math.comb(n, j) * q ** j * (1 - q) ** (n - j)

    eps0 = sum(pmf(p0, j) for j in range(k + 1, n + 1))
    eps1 = sum(pmf(p1, j) for j in range(k + 1))
    return float(eps0), float(eps1)


@pytest.mark.parametrize("args", [
    (64, 0.05, 0.45, 0.02), (60, 0.01, 0.3, 0.01), (23, 0.01, 0.25, 0.1),
    (50, 0.1, 0.3, 0.18), (100, 0.2, 0.35, 0.27), (200, 0.05, 0.2, 0.1),
    # edges: theta at 0 and 1, p0 = 0, p1 = 1, a single sample
    (10, 0.1, 0.3, 0.0), (10, 0.1, 0.3, 1.0), (12, 0.0, 0.3, 0.25),
    (12, 0.1, 1.0, 0.25), (5, 0.0, 1.0, 1.0), (1, 0.2, 0.7, 0.0),
    (1, 0.2, 0.7, 1.0), (1, 0.0, 1.0, 0.5),
])
def test_np_exact_errors_against_fractions(args):
    # the miss probability used to be 1 - upper tail: -2.22e-15 against
    # 1.29e-15 at the first point, 7e-6 relative off at the second
    got = np_exact_errors(*args)
    want = _fraction_errors(*args)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_np_full_tail_is_one():
    # at theta = 1 the lower tail is the whole pmf, which rounding used
    # could sum a few ulps above 1
    for n, p in ((5, 0.1), (5, 0.5), (64, 0.3), (200, 0.45)):
        l0, l1 = np_exact_log2_errors(n, 0.2, p, 1.0)
        assert l0 == -math.inf and -1e-12 < l1 <= 0.0
        eps0, eps1 = np_exact_errors(n, 0.2, p, 1.0)
        assert eps0 == 0.0 and 1.0 - 1e-12 < eps1 <= 1.0


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
        exact_mixed_noise_pmf(10, 11, 0, 0, 0.3)
    with pytest.raises(ParameterError, match="n=2.5 is not an integer"):
        enumerate_mixed_noise_pmf(2.5, 1, 1, 0.1)
    with pytest.raises(ParameterError, match="a_count=1.0 is not an integer"):
        exact_mixed_noise_pmf(4, 1.0, 1, 0, 0.1)
    with pytest.raises(ParameterError, match="n=64.5 is not an integer"):
        exact_mixed_noise_pmf_vector(64.5, 1, 1, 0.1)
    # numpy integers of any width are counts
    assert exact_mixed_noise_pmf(
        np.int64(4), np.int32(1), np.uint8(2), 0, 0.1
    ) == exact_mixed_noise_pmf(4, 1, 2, 0, 0.1)
    with pytest.raises(ParameterError):
        exact_mixed_noise_pmf(10, 0, 0, 0, 1.3)
    with pytest.raises(ParameterError):
        np_exact_errors(0, 0.1, 0.2, 0.5)
    with pytest.raises(ResourceLimitError):
        enumerate_mixed_noise_pmf(13, 2, 2, 0.3)
    with pytest.raises(ResourceLimitError):
        exact_mixed_noise_pmf_vector(65, 2, 2, 0.3)


@pytest.mark.parametrize(
    "fn", [exact_mixed_noise_pmf_vector, enumerate_mixed_noise_pmf],
    ids=["closed-form", "enumeration"],
)
@pytest.mark.parametrize("args", [
    (6, 2.5, 3, 0.1), (6, 2, 7, 0.1), (6, 2, 3, float("nan")),
], ids=["non-integer", "above-n", "nan-p"])
def test_pmf_routes_refuse_as_the_query_does(fn, args):
    # the vector routes refuse as the point query does, with its message
    with pytest.raises(ParameterError) as want:
        exact_mixed_noise_pmf(*args[:3], 0, args[3])
    with pytest.raises(ParameterError) as got:
        fn(*args)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "fn", [np_exact_errors, np_exact_log2_errors], ids=["linear", "log2"]
)
@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 0.1, 0.2, 0.5), r"n=0 outside \[1, inf\]"),
        ((2.5, 0.1, 0.2, 0.5), "n=2.5 is not an integer"),
        ((10, 2.0, 0.2, 0.5), r"p0=2.0 outside \[0, 1\]"),
        ((10, 0.1, 0.2, float("nan")), r"theta=nan outside \[0, 1\]"),
    ],
)
def test_threshold_test_validation(fn, args, message):
    with pytest.raises(ParameterError, match=message):
        fn(*args)


# inputs the pmf routes must refuse or take: out-of-range and
# non-integer counts, and crossovers outside [0, 1] or not numbers
_SPECIALS = [-1, 2.5, 0, 1, 1e-320, math.nan, math.inf, -math.inf]


@st.composite
def _pmf_route_calls(draw):
    fn, top = draw(st.sampled_from(
        [(enumerate_mixed_noise_pmf, 12), (exact_mixed_noise_pmf_vector, 64)]
    ))
    # the first n past each route's limit is drawn only as a refusal
    n = draw(st.integers(1, top + 1))
    na = draw(st.integers(0, n))
    nws = draw(st.lists(st.integers(0, n), min_size=1, max_size=4))
    ps = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    # half the calls plant one input from the specials
    planted = draw(st.booleans())
    if planted:
        bad = draw(st.sampled_from([*_SPECIALS, n + 1]))
        slot = draw(st.integers(0, len(nws) + len(ps)))
        if slot == 0:
            na = bad
        elif slot <= len(nws):
            nws[slot - 1] = bad
        else:
            ps[slot - 1 - len(nws)] = bad

    def shaped(entries):
        # the first entry as a scalar, or all as a list or an array
        return draw(st.sampled_from(
            [entries[0], entries, np.array(entries)]
        ))

    return fn, top, n, na, shaped(nws), shaped(ps), planted


@settings(max_examples=150, deadline=None)
@given(_pmf_route_calls())
@example((enumerate_mixed_noise_pmf, 12, 13, 2, [3], 0.1, False))
@example((exact_mixed_noise_pmf_vector, 64, 65, 2, 3, np.array([0.1]), False))
def test_pmf_routes_fuzzed(call):
    # a pmf equal to the scalar calls, or a clean refusal of an input
    # outside the ranges; nothing else
    fn, top, n, na, nw, p, planted = call
    try:
        got = fn(n, na, nw, p)
    except (ParameterError, ResourceLimitError):
        assert planted or n > top
        return
    nws = list(nw) if np.ndim(nw) else [nw]
    ps = list(p) if np.ndim(p) else [p]
    assert got.shape == (
        (len(nws),) * (np.ndim(nw) == 1) + (len(ps),) * (np.ndim(p) == 1)
        + (n + 1,)
    )
    assert np.all(got >= 0.0)
    np.testing.assert_allclose(got.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
    rows = got.reshape(len(nws), len(ps), n + 1)
    for i, w in enumerate(nws):
        for k, q in enumerate(ps):
            assert fn(n, na, w, q).tobytes() == rows[i, k].tobytes()
