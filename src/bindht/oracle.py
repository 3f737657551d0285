"""Exact finite-blocklength probabilities for the mixed noise model.

The mixed noise is U + Z where U is uniform over the weight-na type
class and Z is iid Bernoulli(p); the quantity of interest is the weight
of c + U + Z for a fixed center c of weight nw.  Conditioned on the
overlap m between the supports of c and U, that weight is
s + W1 - W2 with s = nw + na - 2m, W1 ~ Bin(n - s, p) counting flips
off the combined support and W2 ~ Bin(s, p) counting flips on it, while
m itself is hypergeometric.  Everything here sums that decomposition
exactly, either with integer binomial coefficients (small n) or in the
log domain from a table of log-factorials (large n), so tail values far
below the float underflow threshold remain usable through their log2.

``enumerate_mixed_noise_pmf`` is an independent route used to validate
the decomposition: it iterates U over the whole type class and Z over
all 2^n patterns, accumulating exact integer counts per (weight of z,
resulting weight) cell, and only converts to float at the very end.
That count table does not depend on p, so it is built once per
(n, na, nw) and then weighted by each requested p; the route stays
exhaustive.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceLimitError

#: largest blocklength for the integer-combinatorics path
_LINEAR_N = 30

#: largest blocklength for exhaustive (U, Z) enumeration
ENUM_MAX_N = 12

#: (U, Z) pairs handled per vectorised step of the enumeration
_ENUM_BLOCK = 1 << 18

#: _LOG_FACT[k] = ln(k!), extended by doubling when a larger k arrives
_LOG_FACT = np.zeros(1)


@dataclass(frozen=True)
class ExactPmfQuery:
    """One point query: blocklength n, counts na/nw/nt, crossover p."""

    n: int
    a_count: int
    w_count: int
    t_count: int
    p: float

    def __post_init__(self):
        for name in ("n", "a_count", "w_count", "t_count"):
            _require_int(name, getattr(self, name))
        if self.n < 1:
            raise ParameterError(f"n={self.n} must be positive")
        for name in ("a_count", "w_count", "t_count"):
            v = getattr(self, name)
            if not (0 <= v <= self.n):
                raise ParameterError(f"{name}={v} outside [0, {self.n}]")
        if not (0.0 <= self.p <= 1.0):
            raise ParameterError(f"p={self.p} outside [0, 1]")


def _require_int(name, v):
    try:
        operator.index(v)
    except TypeError:
        raise ParameterError(f"{name}={v!r} is not an integer") from None


def _log_comb(n, k):
    """ln C(n, k) for an integer n and integers 0 <= k <= n (scalar or array)."""
    global _LOG_FACT
    size = len(_LOG_FACT)
    if n >= size:
        grown = max(n + 1, 2 * size)
        _LOG_FACT = np.concatenate([
            _LOG_FACT,
            [math.lgamma(i + 1.0) for i in range(size, grown)],
        ])
    return _LOG_FACT[n] - _LOG_FACT[k] - _LOG_FACT[n - k]


def _overlap_range(n, na, nw):
    """Half-open range of the support overlap m of weights na and nw."""
    return max(0, na + nw - n), min(na, nw) + 1


def _log_hyp_weights(n, na, nw):
    """Log-probabilities of the support overlap m, plus the m grid."""
    ms = np.arange(*_overlap_range(n, na, nw))
    logs = (
        _log_comb(nw, ms) + _log_comb(n - nw, na - ms) - _log_comb(n, na)
    )
    return ms, logs


def _log_binom_pmf(k, p):
    """Log-pmf vector of Bin(k, p) over 0..k; requires 0 < p < 1."""
    js = np.arange(k + 1)
    return _log_comb(k, js) + js * math.log(p) + (k - js) * math.log1p(-p)


def _logsumexp(v):
    m = np.max(v)
    if not np.isfinite(m):
        return -math.inf
    return m + math.log(np.sum(np.exp(v - m)))


def _pmf_vector_linear(n, na, nw, p):
    """Exact pmf of the resulting weight over 0..n; integer combinatorics."""
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


def exact_mixed_noise_pmf(query):
    """P(wt(c + U + Z) = t_count) for the query, exactly."""
    n, na, nw, nt, p = (
        query.n, query.a_count, query.w_count, query.t_count, query.p
    )
    if p == 0.0 or p == 1.0 or n <= _LINEAR_N:
        return float(_pmf_vector(n, na, nw, p)[nt])
    ms, log_hyp = _log_hyp_weights(n, na, nw)
    terms = np.full(len(ms), -math.inf)
    for i, m in enumerate(ms):
        s = nw + na - 2 * m
        d = nt - s
        if d < -s or d > n - s:
            continue
        lw2 = _log_binom_pmf(s, p)
        lw1 = _log_binom_pmf(n - s, p)
        js = np.arange(max(0, -d), min(s, n - s - d) + 1)
        if len(js) == 0:
            continue
        terms[i] = _logsumexp(lw2[js] + lw1[js + d])
    return float(math.exp(_logsumexp(log_hyp + terms)))


def _pmf_vector_degenerate(n, na, nw, p):
    """p in {0, 1}: only the hypergeometric overlap is random."""
    denom = math.comb(n, na)
    pmf = np.zeros(n + 1)
    for m in range(*_overlap_range(n, na, nw)):
        s = nw + na - 2 * m
        t = s if p == 0.0 else n - s
        pmf[t] += math.comb(nw, m) * math.comb(n - nw, na - m) / denom
    return pmf


def _pmf_vector(n, na, nw, p):
    """Full pmf over 0..n by the linear-domain route for this p."""
    if p == 0.0 or p == 1.0:
        return _pmf_vector_degenerate(n, na, nw, p)
    return _pmf_vector_linear(n, na, nw, p)


def exact_mixed_noise_pmf_vector(n, a_count, w_count, p):
    """Full pmf over resulting weights 0..n (blocklength-limited)."""
    ExactPmfQuery(n, a_count, w_count, 0, p)
    if n > 64:
        raise ResourceLimitError(f"pmf vector limited to n <= 64, got {n}")
    return _pmf_vector(n, a_count, w_count, p)


def exact_ball_log2_prob(n, a_count, w_count, t_count, p):
    """log2 P(wt(c + U + Z) <= t_count), stable for large n."""
    ExactPmfQuery(n, a_count, w_count, t_count, p)
    if p == 0.0 or p == 1.0 or n <= _LINEAR_N:
        vec = _pmf_vector(n, a_count, w_count, p)
        total = float(np.sum(vec[: t_count + 1]))
        return math.log2(total) if total > 0.0 else -math.inf
    na, nw, nt = a_count, w_count, t_count
    ms, log_hyp = _log_hyp_weights(n, na, nw)
    terms = np.full(len(ms), -math.inf)
    for i, m in enumerate(ms):
        s = nw + na - 2 * m
        d = nt - s
        if d < -s:
            continue
        lw2 = _log_binom_pmf(s, p)
        lw1 = _log_binom_pmf(n - s, p)
        lcdf1 = np.logaddexp.accumulate(lw1)
        js = np.arange(max(0, -d), s + 1)
        if len(js) == 0:
            continue
        idx = np.minimum(js + d, n - s)
        terms[i] = _logsumexp(lw2[js] + lcdf1[idx])
    return float((_logsumexp(log_hyp + terms)) / math.log(2.0))


def _enumerate_counts(n, a_count, w_count):
    """Integer count table over (wt(z), resulting weight); n <= ENUM_MAX_N.

    Row j, column t counts the pairs (U, z), U over the weight-a_count
    type class and z over all 2^n patterns with wt(z) = j, for which
    c + U + z has weight t, c being the center of weight w_count.
    Words fit uint16 and cell indices, at most
    ENUM_MAX_N * (ENUM_MAX_N + 2) = 168, fit uint8.
    """
    zs = np.arange(1 << n, dtype=np.uint16)
    pc = np.zeros(1 << n, dtype=np.uint8)
    for k in range(n):
        pc[1 << k: 2 << k] = pc[: 1 << k] + 1
    vs = np.uint16((1 << w_count) - 1) ^ zs[pc == a_count]
    counts = np.zeros((n + 1) * (n + 1), dtype=np.int64)
    rows = max(1, _ENUM_BLOCK >> n)
    for i in range(0, len(vs), rows):
        block = vs[i: i + rows, None] ^ zs[None, :]
        cells = pc[block] * np.uint8(n + 1) + pc
        counts += np.bincount(cells.ravel(), minlength=len(counts))
    return counts.reshape(n + 1, n + 1)


def enumerate_mixed_noise_pmf(n, a_count, w_count, p):
    """Exhaustive-route pmf over resulting weights; n <= ENUM_MAX_N.

    Iterates U over the full type class and Z over all 2^n patterns,
    with integer counting per (wt(z), resulting weight) cell so float
    rounding enters only in the final mixture.  The count table is
    built once and weighted by each p: a scalar p gives one pmf
    vector, a 1-D sequence gives one row per entry, and row i is
    identical to the call with p[i] alone.
    """
    if np.ndim(p) > 1:
        raise ParameterError(f"p must be a scalar or 1-D, got {np.shape(p)}")
    ps = list(p) if np.ndim(p) else [p]
    for q in ps:
        ExactPmfQuery(n, a_count, w_count, 0, q)
    if n > ENUM_MAX_N:
        raise ResourceLimitError(
            f"exhaustive enumeration limited to n <= {ENUM_MAX_N}, got {n}"
        )
    counts = _enumerate_counts(n, a_count, w_count)
    denom = math.comb(n, a_count)
    pmfs = np.empty((len(ps), n + 1))
    for i, q in enumerate(ps):
        z_prob = np.array(
            [q ** j * (1.0 - q) ** (n - j) for j in range(n + 1)]
        )
        pmfs[i] = counts @ z_prob / denom
    return pmfs if np.ndim(p) else pmfs[0]


def np_exact_errors(n, p0, p1, theta):
    """Exact error pair of the weight-threshold test on n samples.

    Decides the second hypothesis when wt(z)/n > theta; returns
    (P(false alarm under p0), P(miss under p1)).
    """
    _check_threshold_test(n, p0, p1, theta)
    k_acc = int(math.floor(n * theta + 1e-9))
    eps0 = _binom_tail(n, p0, k_acc + 1)
    eps1 = 1.0 - _binom_tail(n, p1, k_acc + 1)
    return eps0, eps1


def np_exact_log2_errors(n, p0, p1, theta):
    """Same test as np_exact_errors but returning log2 of each error."""
    _check_threshold_test(n, p0, p1, theta)
    k_acc = int(math.floor(n * theta + 1e-9))
    l0 = _log2_binom_tail(n, p0, k_acc + 1, upper=True)
    l1 = _log2_binom_tail(n, p1, k_acc, upper=False)
    return l0, l1


def _check_threshold_test(n, p0, p1, theta):
    _require_int("n", n)
    if n < 1:
        raise ParameterError(f"n={n} must be positive")
    for name, p in (("p0", p0), ("p1", p1)):
        if not (0.0 <= p <= 1.0):
            raise ParameterError(f"{name}={p} outside [0, 1]")
    if not (0.0 <= theta <= 1.0):
        raise ParameterError(f"theta={theta} outside [0, 1]")


def _binom_tail(n, p, k_from):
    """P(Bin(n, p) >= k_from), exactly."""
    if k_from > n:
        return 0.0
    if k_from <= 0:
        return 1.0
    if n <= 64:
        return float(
            sum(
                math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
                for k in range(k_from, n + 1)
            )
        )
    l2 = _log2_binom_tail(n, p, k_from, upper=True)
    return float(2.0 ** l2) if l2 > -1000.0 else 0.0


def _log2_binom_tail(n, p, k_edge, upper):
    """log2 P(Bin >= k_edge) if upper else log2 P(Bin <= k_edge)."""
    if p in (0.0, 1.0):
        w = 0 if p == 0.0 else n
        hit = (w >= k_edge) if upper else (w <= k_edge)
        return 0.0 if hit else -math.inf
    ks = np.arange(k_edge, n + 1) if upper else np.arange(0, k_edge + 1)
    if len(ks) == 0:
        return -math.inf
    logs = _log_comb(n, ks) + ks * math.log(p) + (n - ks) * math.log1p(-p)
    return float(_logsumexp(logs) / math.log(2.0))
