"""Monte Carlo runs of the coded testing schemes at small blocklengths.

Trials draw the source pair (X, Y), push X through the actual linear-code
machinery from `gf2` (quantize with the fine code, transmit the coarse
syndrome increment, or exchange syndromes for the modulo-sum scheme), and
apply the weight-threshold decision at the far terminal.  Blocklengths are
small enough that coset leader tables make the decoders exact.

Randomness is counter-based: each hypothesis of a run reads one Philox
stream keyed by (seed, scheme id, hyp), trial after trial, 2n uniforms
per trial.  Runs are reproducible bit for bit, and since the stream is
read in order, the records do not depend on the chunk size in which
trials are drawn and decoded.  Records are held as columns in a
`TrialRecords`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .gf2 import _popcount64, coset_table, quantize, row_parities, syndromes
from .regions import HypothesisPair, SchemeParams

_SCHEME_IDS = {"one_sided": 0, "korner_marton": 1}

#: trials drawn, or decoded, at a time; bounds the temporaries held
_CHUNK = 4096

#: most trials per hypothesis; a run holds about 35 bytes per trial
_MAX_TRIALS = 10_000_000

# two-sided 95% normal quantile for Wilson intervals
_WILSON_Z = 1.959963984540054


@dataclass(frozen=True, eq=False)
class TrialRecords:
    """Outcomes of simulated blocks as columns, one entry per trial.

    hypothesis is the true hypothesis of each trial, nulls first;
    bin_error flags trials where the coset decoder missed the
    transmitted word (the decision itself may still be right); decided
    is set when the decoded weight exceeded the threshold.  noise_weight
    and decoded_weight are integer Hamming weights out of n.
    """

    n: int
    hypothesis: np.ndarray
    bin_error: np.ndarray
    decided: np.ndarray
    noise_weight: np.ndarray
    decoded_weight: np.ndarray

    def __len__(self):
        return len(self.hypothesis)


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: `trials` blocks per hypothesis."""

    n: int
    trials: int
    seed: int
    h: HypothesisPair
    params: SchemeParams
    scheme: str = "one_sided"

    def __post_init__(self):
        if not (1 <= self.n <= 64):
            raise ParameterError(f"blocklength {self.n} outside [1, 64]")
        if self.trials < 1:
            raise ParameterError(f"trials={self.trials} must be positive")
        if self.trials > _MAX_TRIALS:
            raise ResourceLimitError(
                f"trials={self.trials} above the limit of {_MAX_TRIALS} "
                "per hypothesis"
            )
        if self.seed < 0:
            raise ParameterError(f"seed={self.seed} must be nonnegative")
        if self.scheme not in _SCHEME_IDS:
            raise ParameterError(
                f"scheme {self.scheme!r} not in {sorted(_SCHEME_IDS)}"
            )


@dataclass(frozen=True)
class ErrorEstimate:
    """Empirical error rates with Wilson 95% intervals.

    Exponents are -(1/n) log2 of the rates (infinite when no errors
    were seen; the interval then degrades to the rule-of-three bound).
    bin_rate0/1 are the fractions of trials with a coset decoding error
    under each hypothesis.
    """

    trials0: int
    trials1: int
    eps0: float
    eps1: float
    ci0: tuple
    ci1: tuple
    exponent0: float
    exponent1: float
    bin_rate0: float
    bin_rate1: float


def gen_dsbs(n, p, seed=None):
    """One doubly symmetric source block as a pair of packed words.

    X is uniform on n bits, Y = X xor Z with Z i.i.d. Bernoulli(p).
    seed may be anything `numpy.random.default_rng` accepts, including
    an existing Generator, which is used in place.
    """
    if not (1 <= n <= 64):
        raise ParameterError(f"blocklength {n} outside [1, 64]")
    if not (0.0 <= p <= 1.0):
        raise ParameterError(f"p={p} outside [0, 1]")
    x, z = _draw_words(np.random.default_rng(seed), 1, n, p)
    return int(x[0]), int(x[0] ^ z[0])


def _draw_words(rng, rows, n, p):
    """(X, Z) uint64 words of `rows` trials, from 2n uniforms u each.

    Bit j of X is u[j] < 1/2 and bit j of Z is u[n + j] < p.
    """
    bits = rng.random((rows, 2, n)) < np.array([[0.5], [p]])
    packed = np.zeros((rows, 2, 8), dtype=np.uint8)
    packed[..., :(n + 7) // 8] = np.packbits(bits, axis=2, bitorder="little")
    words = packed.view("<u8")[..., 0].astype(np.uint64, copy=False)
    return words[:, 0], words[:, 1]


def _draw_run(cfg, hyp, p):
    """(X, Z) word arrays for one hypothesis from its own stream."""
    key = np.random.SeedSequence((cfg.seed, _SCHEME_IDS[cfg.scheme], hyp))
    rng = np.random.Generator(np.random.Philox(key))
    x = np.empty(cfg.trials, dtype=np.uint64)
    z = np.empty(cfg.trials, dtype=np.uint64)
    for lo in range(0, cfg.trials, _CHUNK):
        hi = min(lo + _CHUNK, cfg.trials)
        x[lo:hi], z[lo:hi] = _draw_words(rng, hi - lo, cfg.n, p)
    return x, z


def _accept_weight(n, theta):
    """Largest integer weight still decided as the null."""
    return int(math.floor(n * theta + 1e-9))


def _run(cfg, decode):
    """Records of both hypotheses, nulls first; decode(x, z) gives the
    coset-decoding error flags and decoded weights of (X, Z) words."""
    chunks = []
    for h, p in ((0, cfg.h.p0), (1, cfg.h.p1)):
        x, z = _draw_run(cfg, h, p)
        for lo in range(0, cfg.trials, _CHUNK):
            zc = z[lo:lo + _CHUNK]
            err, w_hat = decode(x[lo:lo + _CHUNK], zc)
            chunks.append((err, _popcount64(zc).astype(np.uint8), w_hat))
    bin_err, noise_w, decoded_w = (np.concatenate(c) for c in zip(*chunks))
    return TrialRecords(
        n=cfg.n,
        hypothesis=np.repeat(np.arange(2, dtype=np.uint8), cfg.trials),
        bin_error=bin_err,
        decided=decoded_w > _accept_weight(cfg.n, cfg.params.theta),
        noise_weight=noise_w,
        decoded_weight=decoded_w,
    )


def run_one_sided(cfg, nested):
    """Simulate the quantize-and-bin scheme over a nested code pair.

    Per trial: U is the fine-code quantization of X, the transmitted
    message is the coarse syndrome increment of U, and the decoder picks
    the member of the matching coarse coset closest to Y.  The decision
    thresholds the normalized distance between Y and that estimate.
    Returns the records of both hypotheses, nulls first.
    """
    if cfg.scheme != "one_sided":
        raise ParameterError(f"config is for scheme {cfg.scheme!r}")
    if nested.fine.n != cfg.n:
        raise ParameterError(
            f"code blocklength {nested.fine.n} != config n {cfg.n}"
        )
    m_fine = nested.fine.H.rows
    # the coarse table is the larger one (k2 <= k1), so reading it here
    # also checks the size bound of the fine table `quantize` reads
    coarse_leaders, coarse_weights = coset_table(nested.coarse)

    def decode(x, z):
        y = x ^ z
        u = quantize(nested.fine, x)
        inc = row_parities(nested.delta.bits, u)
        # the coarse syndrome stacks the fine bits below the increment
        # bits, and U itself has zero fine syndrome
        s_rel = syndromes(nested.coarse, y) ^ (inc << np.uint64(m_fine))
        return (y ^ coarse_leaders[s_rel]) != u, coarse_weights[s_rel]

    return _run(cfg, decode)


def run_korner_marton(cfg, code):
    """Simulate the symmetric syndrome-exchange scheme.

    Both terminals send the syndrome of their observation; the decision
    function decodes the noise word from the syndrome sum and thresholds
    its weight.  Quantization is not part of this scheme, so the config
    must have a = 0.
    """
    if cfg.scheme != "korner_marton":
        raise ParameterError(f"config is for scheme {cfg.scheme!r}")
    if code.n != cfg.n:
        raise ParameterError(f"code blocklength {code.n} != config n {cfg.n}")
    if cfg.params.a > 1e-12:
        raise ParameterError("the symmetric scheme has no quantization step")
    leaders, weights = coset_table(code)

    def decode(x, z):
        s_z = syndromes(code, x) ^ syndromes(code, x ^ z)
        return leaders[s_z] != z, weights[s_z]

    return _run(cfg, decode)


def decoded_weights(records, hypothesis):
    """Normalized decoded weights of one hypothesis as an array."""
    return records.decoded_weight[records.hypothesis == hypothesis] / records.n


def _wilson(k, m):
    if k == 0:
        return 0.0, min(1.0, 3.0 / m)
    if k == m:
        return max(0.0, 1.0 - 3.0 / m), 1.0
    z2 = _WILSON_Z ** 2
    phat = k / m
    denom = 1.0 + z2 / m
    center = (phat + z2 / (2.0 * m)) / denom
    rad = _WILSON_Z * math.sqrt(
        phat * (1.0 - phat) / m + z2 / (4.0 * m * m)
    ) / denom
    return max(0.0, center - rad), min(1.0, center + rad)


def _exponent(eps, n):
    return math.inf if eps == 0.0 else -math.log2(eps) / n


def estimate_errors(records, n):
    """Aggregate trial records into an ErrorEstimate.

    Needs records from both hypotheses; the false-alarm rate comes from
    the null trials, the miss rate from the alternative trials.
    """
    null = records.hypothesis == 0
    m0 = np.count_nonzero(null)
    m1 = len(records) - m0
    if m0 == 0 or m1 == 0:
        raise ParameterError("records must cover both hypotheses")
    k0 = np.count_nonzero(records.decided & null)
    k1 = m1 - np.count_nonzero(records.decided & ~null)
    b0 = np.count_nonzero(records.bin_error & null)
    b1 = np.count_nonzero(records.bin_error) - b0
    eps0 = k0 / m0
    eps1 = k1 / m1
    return ErrorEstimate(
        trials0=m0,
        trials1=m1,
        eps0=eps0,
        eps1=eps1,
        ci0=_wilson(k0, m0),
        ci1=_wilson(k1, m1),
        exponent0=_exponent(eps0, n),
        exponent1=_exponent(eps1, n),
        bin_rate0=b0 / m0,
        bin_rate1=b1 / m1,
    )
