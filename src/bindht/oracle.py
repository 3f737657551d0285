"""Exact finite-blocklength probabilities for the mixed noise model.

The mixed noise is U + Z where U is uniform over the weight-na type
class and Z is iid Bernoulli(p); the quantity of interest is the weight
of c + U + Z for a fixed center c of weight nw.  Conditioned on the
overlap m between the supports of c and U, that weight is
s + W1 - W2 with s = nw + na - 2m, W1 ~ Bin(n - s, p) counting flips
off the combined support and W2 ~ Bin(s, p) counting flips on it, while
m itself is hypergeometric.  Everything here sums that decomposition
exactly.  Point and ball probabilities are summed in the log domain
from a table of log-factorials, at every n and p, so tail values far
below the float underflow threshold remain usable through their log2.
Only the full pmf vector (n <= 64) uses integer binomial coefficients:
it reads a cached per-(n, p) shift kernel, since the law of
s + W1 - W2 depends only on (n, p), so its rows for every s are built
once, and each pmf is the hypergeometric weights times the kernel rows
s_m.

``enumerate_mixed_noise_pmf`` is an independent route used to validate
the decomposition: it counts U over the whole type class and Z over
all 2^n patterns, accumulating exact integer counts per (weight of z,
resulting weight) cell, and only converts to float at the very end.
Those counts do not depend on p.  One table per n holds them for every
center weight and every weight of U, built one coordinate at a time:
each (U, z) pair gains a bit of U, a bit of z and a bit of the center,
which add to the weights they count.  Every pair is counted once, and
no binomial coefficient or overlap law enters, so the route shares
nothing with the closed form it checks.  The table is then weighted by
each p.  Both pmf routes take nw and p each as a scalar or 1-D, so one
call covers an (n, na) block.

The uncoded weight-threshold test lives here too; `simkit` decides by
its acceptance rule, `_accept_weight`.
"""

import functools
import math

import numpy as np

from .errors import ParameterError, ResourceLimitError, check_closed, check_int

#: largest blocklength for exhaustive (U, Z) enumeration, the range the
#: full validation checks.  It does not bound memory: the count table
#: has (n + 1)^4 int64 cells, 223 KiB at n = 12.  A cell is at most
#: C(n, a) * C(n, j) < 4^n, so the counts are exact in int64 and in the
#: float64 mixture (below 2^53) for every n <= 26.
ENUM_MAX_N = 12

#: _LOG_FACT[k] = ln(k!), extended by doubling when a larger k arrives
_LOG_FACT = np.zeros(1)


def _check_query(n, a_count, w_counts, t_count, ps):
    """Refuse a query: blocklength n >= 1, counts na/nw/nt in [0, n]
    (integers of any integer type), crossovers p in [0, 1]; nw and p
    are lists, each entry checked as a scalar.  Returns n, na, the nw
    entries and nt as ints, so no numpy integer type reaches the count
    arithmetic, where a narrow one would wrap."""
    n = check_int("n", n, 1)
    na = check_int("a_count", a_count, 0, n)
    ws = [check_int("w_count", w, 0, n) for w in w_counts]
    nt = check_int("t_count", t_count, 0, n)
    for p in ps:
        check_closed("p", p, 0, 1)
    return n, na, ws, nt


def _pmf_query(n, a_count, w_count, p):
    """Check a pmf call, w_count and p each a scalar or 1-D; returns n,
    na and the nw entries as ints, and the p entries."""
    for name, v in (("w_count", w_count), ("p", p)):
        if np.ndim(v) > 1:
            raise ParameterError(
                f"{name} must be a scalar or 1-D, got {np.shape(v)}"
            )
    ws, ps = [list(v) if np.ndim(v) else [v] for v in (w_count, p)]
    n, na, ws, _ = _check_query(n, a_count, ws, 0, ps)
    return n, na, ws, ps


def _squeeze(out, w_count, p):
    """Drop the leading axis a scalar w_count or p adds."""
    return out[tuple(slice(None) if np.ndim(v) else 0 for v in (w_count, p))]


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


def _log_binom_pmf(k, p, top=None):
    """Log-pmf vector of Bin(k, p) over 0..top (default k); a point mass
    if p is 0 or 1."""
    js = np.arange((k if top is None else top) + 1)
    if p == 0.0 or p == 1.0:
        return np.where(js == (0 if p == 0.0 else k), 0.0, -math.inf)
    return _log_comb(k, js) + js * math.log(p) + (k - js) * math.log1p(-p)


def _logsumexp(v):
    m = np.max(v)
    if not np.isfinite(m):
        return -math.inf
    return m + math.log(np.sum(np.exp(v - m)))


@functools.lru_cache(maxsize=8)
def _shift_kernel(n, p):
    """Read-only K[s, t] = P(s + W1 - W2 = t), W1 ~ Bin(n - s, p) and
    W2 ~ Bin(s, p) independent, for s, t in 0..n; integer combinatorics.

    Callers pass p as a float, so equal crossovers share one entry, and
    sweep p innermost: a pmf for each (na, nw) at a few p reuses them.
    """
    q = 1.0 - p
    pows_p = p ** np.arange(n + 1)
    pows_q = q ** np.arange(n + 1)
    rows = [
        np.array([math.comb(k, j) for j in range(k + 1)])
        * pows_p[: k + 1] * pows_q[k::-1]
        for k in range(n + 1)
    ]
    kernel = np.empty((n + 1, n + 1))
    for s in range(n + 1):
        # weight = s + j1 - j2 = j1 + (s - j2): W1 against W2 reversed
        kernel[s] = np.convolve(rows[n - s], rows[s][::-1])
    kernel.flags.writeable = False
    return kernel


def _log_mixture(n, na, nw, nt, p, ball):
    """ln P(wt(c + U + Z) = nt), or ln P(... <= nt) with ``ball``.

    For each overlap m the weight is nt when W2 = j and W1 = j + d,
    d = nt - s; the ball reads the CDF of W1 there, clipped at n - s.
    As j <= s, only W1's prefix 0..min(n - s, nt) is read and built.
    """
    ms, log_hyp = _log_hyp_weights(n, na, nw)
    terms = np.full(len(ms), -math.inf)
    for i, m in enumerate(ms):
        s = nw + na - 2 * m
        d = nt - s
        js = np.arange(max(0, -d), (s if ball else min(s, n - s - d)) + 1)
        if len(js) == 0:
            continue
        lw1 = _log_binom_pmf(n - s, p, min(n - s, nt))
        if ball:
            lw1 = np.logaddexp.accumulate(lw1)
        idx = np.minimum(js + d, n - s)
        terms[i] = _logsumexp(_log_binom_pmf(s, p)[js] + lw1[idx])
    return _logsumexp(log_hyp + terms)


def exact_mixed_noise_pmf(n, a_count, w_count, t_count, p):
    """P(wt(c + U + Z) = t_count), exactly."""
    n, na, (nw,), nt = _check_query(n, a_count, [w_count], t_count, [p])
    return float(math.exp(_log_mixture(n, na, nw, nt, p, ball=False)))


def exact_mixed_noise_pmf_vector(n, a_count, w_count, p):
    """Full pmf over resulting weights 0..n (blocklength-limited).

    w_count and p are each a scalar or 1-D; each 1-D one adds a leading
    axis, w before p, and entry [i, k] is the call with (w[i], p[k]),
    bit for bit: each shift's weight times its kernel row is added in
    turn, and a shift a center cannot reach adds an exact 0 to its row.
    At p in {0, 1} the kernel rows are point masses (0.0 ** 0 is 1).
    """
    n, na, ws, ps = _pmf_query(n, a_count, w_count, p)
    if n > 64:
        raise ResourceLimitError(f"pmf vector limited to n <= 64, got {n}")
    denom = math.comb(n, na)
    hyp = np.zeros((len(ws), n + 1))
    for i, nw in enumerate(ws):
        for m in range(*_overlap_range(n, na, nw)):
            hyp[i, nw + na - 2 * m] = (
                math.comb(nw, m) * math.comb(n - nw, na - m) / denom
            )
    kernels = np.array(
        [_shift_kernel(n, float(q)) for q in ps]
    ).reshape(len(ps), n + 1, n + 1)
    out = np.zeros((len(ws), len(ps), n + 1))
    for s in np.flatnonzero(hyp.any(axis=0))[::-1]:
        out += hyp[:, s, None, None] * kernels[:, s]
    return _squeeze(out, w_count, p)


def exact_ball_log2_prob(n, a_count, w_count, t_count, p):
    """log2 P(wt(c + U + Z) <= t_count), stable for large n."""
    n, na, (nw,), nt = _check_query(n, a_count, [w_count], t_count, [p])
    log_prob = _log_mixture(n, na, nw, nt, p, ball=True)
    # rounding can put a near-full ball a few ulps above 1
    return min(0.0, float(log_prob / math.log(2.0)))


@functools.lru_cache(maxsize=1)
def _center_counts(n):
    """Read-only int64 table C[w, a, j, t] = #{(U, z): wt(U) = a,
    wt(z) = j, wt(c + U + z) = t}, c the word whose low w bits are set,
    of shape (n + 1,) * 4; U and z each range over all 2^n words.

    Built from the table for n - 1 by one more coordinate: each pair
    gains a bit u of U and a bit z of z, which add to a and to j, and
    u + z + c_bit adds to t.  The centers w < n have c_bit = 0 there;
    the center w = n is the n - 1 center w = n - 1 with c_bit = 1.  So
    the build is eight shifted slice-adds, every pair is counted once,
    and no binomial coefficient enters.  Callers walking n upwards pay
    one step per n.
    """
    if n == 0:
        table = np.ones((1, 1, 1, 1), dtype=np.int64)
    else:
        prev = _center_counts(n - 1)
        table = np.zeros((n + 1,) * 4, dtype=np.int64)
        for u in (0, 1):
            for z in (0, 1):
                a, j, d = slice(u, n + u), slice(z, n + z), u ^ z
                table[:n, a, j, d: n + d] += prev
                table[n, a, j, 1 - d: n + 1 - d] += prev[n - 1]
    table.flags.writeable = False
    return table


def enumerate_mixed_noise_pmf(n, a_count, w_count, p):
    """Exhaustive-route pmf over resulting weights; n <= ENUM_MAX_N.

    Counts U over the full type class and Z over all 2^n patterns in
    integers per (wt(z), resulting weight) cell, so float rounding
    enters only in the final mixture over p.  w_count and p take the
    forms `exact_mixed_noise_pmf_vector` takes, with its bit-for-bit rule.
    """
    n, na, ws, ps = _pmf_query(n, a_count, w_count, p)
    if n > ENUM_MAX_N:
        raise ResourceLimitError(
            f"exhaustive enumeration limited to n <= {ENUM_MAX_N}, got {n}"
        )
    counts = _center_counts(n)[ws, na]
    z_prob = np.array(
        [[q ** j * (1.0 - q) ** (n - j) for j in range(n + 1)]
         for q in map(float, ps)]
    ).reshape(len(ps), n + 1)
    out = np.zeros((len(ws), len(ps), n + 1))
    for j in range(n + 1):
        out += counts[:, None, j, :] * z_prob[None, :, j, None]
    return _squeeze(out / math.comb(n, na), w_count, p)


def _accept_weight(n, theta):
    """Largest integer weight the threshold test still decides as the
    null: wt(z)/n <= theta, with exact multiples of 1/n accepted."""
    return int(math.floor(n * theta + 1e-9))


def np_exact_errors(n, p0, p1, theta):
    """Exact error pair of the weight-threshold test on n samples.

    Decides the second hypothesis when wt(z)/n > theta; returns
    (P(false alarm under p0), P(miss under p1)), each tail summed in
    the log domain by np_exact_log2_errors.
    """
    l0, l1 = np_exact_log2_errors(n, p0, p1, theta)
    return 2.0 ** l0, 2.0 ** l1


def np_exact_log2_errors(n, p0, p1, theta):
    """Same test as np_exact_errors but returning log2 of each error.

    Both errors are balls of the unquantized noise (na = 0): the false
    alarm wt(z) > k is wt(c + z) <= n - k - 1 around the all-ones center
    (empty when k = n), and the miss is the radius-k ball around 0.
    """
    n = _check_threshold_test(n, p0, p1, theta)
    k = _accept_weight(n, theta)
    l0 = -math.inf if k == n else exact_ball_log2_prob(n, 0, n, n - k - 1, p0)
    return l0, exact_ball_log2_prob(n, 0, 0, k, p1)


def _check_threshold_test(n, p0, p1, theta):
    """n as an int, once n, the crossovers and theta are checked."""
    n = check_int("n", n, 1)
    for name, v in (("p0", p0), ("p1", p1), ("theta", theta)):
        check_closed(name, v, 0, 1)
    return n
