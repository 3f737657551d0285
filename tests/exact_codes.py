"""Exact error probabilities of the simulated coded schemes at finite n.

Both decoders of ``bindht.simkit`` see the noise only through one
syndrome, so their error probabilities are sums over the 2^m syndromes
of the code they decode in:

* Korner-Marton decodes Z itself.
* One-sided decodes Y ^ U = E ^ Z in the coarse code, where U is the
  fine quantization of X and E = X ^ U its fine coset leader.  X is
  uniform, so E is uniform over the fine leaders, independent of Z.

The pmf of s(Z), Z i.i.d. Bernoulli(p), is the inverse Walsh-Hadamard
transform of u -> (1 - 2p)^wt(u^T H) (MacWilliams and Sloane, The
Theory of Error-Correcting Codes, 1977, ch. 5).  Adding E multiplies the
transform by that of the histogram of s(E).  A trial decides H1 when
the leader weight of its syndrome exceeds ``oracle._accept_weight``, the
rule the simulation decides by, and it has a bin error unless E ^ Z is
itself the coset leader, so the bin-error rate is 1 - sum over leaders
l and shifts e of P(E = e) P(Z = l ^ e).

The transforms run in float64 and carry an absolute error of about
m 2^-52 per entry, so a value from here means nothing below about 1e-12.
That is far below what 10^7 trials can resolve.
"""

import numpy as np

from bindht.gf2 import _popcount64, coset_table, syndromes
from bindht.oracle import _accept_weight

_NO_SHIFT = np.zeros(1, dtype=np.uint64)


def _wht(v):
    """Unnormalized Walsh-Hadamard transform of a length-2^m array."""
    v = np.asarray(v, dtype=float)
    h = 1
    while h < v.size:
        pairs = v.reshape(-1, 2, h)
        v = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]),
                     axis=1).reshape(-1)
        h *= 2
    return v


def _dual_weights(code):
    """wt(u^T H) for every u, indexed like the syndromes: bit i of u
    picks parity-check row i."""
    words = np.zeros(1, dtype=np.uint64)
    for h in code.H.bits:
        words = np.concatenate([words, words ^ np.uint64(h)])
    return _popcount64(words).astype(int)


def syndrome_pmf(code, p, shifts=_NO_SHIFT):
    """pmf of s(E ^ Z) over all 2^(n - k) syndromes, Z i.i.d.
    Bernoulli(p) on n bits and E uniform over the words `shifts`."""
    m = code.n - code.k
    hist = np.bincount(syndromes(code, shifts).astype(np.int64),
                       minlength=1 << m) / len(shifts)
    chi = (1.0 - 2.0 * p) ** _dual_weights(code) * _wht(hist)
    return _wht(chi) / (1 << m)


def decide_rate(code, p, theta, shifts=_NO_SHIFT):
    """P(decide H1): the leader weight of s(E ^ Z) exceeds the accept
    weight of theta."""
    weights = coset_table(code)[1]
    pmf = syndrome_pmf(code, p, shifts)
    return float(pmf[weights > _accept_weight(code.n, theta)].sum())


def bin_error_rate(code, p, shifts=_NO_SHIFT):
    """P(E ^ Z is not the coset leader of its syndrome).

    One pass over the leaders per shift: the 256 shifts and 65,536
    leaders of the one-sided codes at n = 27 take about 0.9 s.
    """
    leaders = coset_table(code)[0]
    n = code.n
    counts = np.zeros(n + 1)
    for e in shifts:  # the weight histogram of l ^ e over leaders l
        counts += np.bincount(_popcount64(leaders ^ e).astype(np.int64),
                              minlength=n + 1)
    w = np.arange(n + 1)
    law = p ** w * (1.0 - p) ** (n - w)
    return float(1.0 - counts @ law / len(shifts))


def one_sided_shifts(nested):
    """The fine coset leaders, over which E is uniform."""
    return coset_table(nested.fine)[0]


def scheme_rates(code, h, theta, shifts=_NO_SHIFT):
    """Exact (eps0, eps1, bin_rate0, bin_rate1) of a run decoding in
    `code`, as `simkit.estimate_errors` reports them."""
    return (decide_rate(code, h.p0, theta, shifts),
            1.0 - decide_rate(code, h.p1, theta, shifts),
            bin_error_rate(code, h.p0, shifts),
            bin_error_rate(code, h.p1, shifts))
