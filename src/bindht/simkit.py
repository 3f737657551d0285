"""Monte Carlo runs of the coded testing schemes at small blocklengths.

Trials draw the source pair (X, Y), push X through the actual linear-code
machinery from `gf2`, and apply the weight-threshold decision at the far
terminal.  Both schemes are syndrome schemes, so by linearity the far
terminal coset-decodes a single word:

* one-sided: U is the fine-code quantization of X, and the message is
  its coarse syndrome, one of 2^(k1 - k2) values since U is a fine
  codeword.  s(Y) ^ s(U) = s(Y ^ U), so the decoder holds the coarse
  syndrome of Y ^ U.
* Korner-Marton: the terminals send s(X) and s(Y), and
  s(X) ^ s(Y) = s(Z) is the syndrome of the noise Z = X ^ Y.

Blocklengths are small enough that coset leader tables make the decoders
exact: the decoded word is the coset leader of that syndrome, and a bin
error is a leader that differs from the word itself.

Randomness is counter-based and read as raw 64-bit Philox words.  A
trial takes X from the low n bits of one word, and lane j of Z is
[U_j < p] for a uniform U_j whose binary digits are bit j of successive
words, compared with the exact binary expansion of the double p (see
`_draw_words`).  Each hypothesis of a run reads the stream keyed by
(seed, scheme id, hyp) and, for the few trials with a lane not
decided by the first `_DIGITS` digits, the streams keyed by (seed,
scheme id, hyp, level).  Every stream is read trial after trial, so runs
are reproducible bit for bit and the records do not depend on the chunk
size in which trials are drawn and decoded.  Records are held as columns
in a `TrialRecords`.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .gf2 import _popcount64, coset_table, quantize, syndromes
from .oracle import _accept_weight
from .regions import HypothesisPair

_SCHEME_IDS = {"one_sided": 0, "korner_marton": 1}

#: trials drawn and decoded at a time; bounds the temporaries held
_CHUNK = 4096

#: digit words of p a trial reads per stream level; 2^-_DIGITS of its
#: lanes are still open after each level
_DIGITS = 8

#: most trials per hypothesis; a run peaks at about 8 bytes per record,
#: 5 in its columns and 3 in the chunks they are joined from
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


def _check_int(name, value, lo, hi=math.inf):
    """Refuse a value that is not an integer in [lo, hi]; numpy integers
    pass."""
    if not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name}={value!r} is not an integer")
    if not lo <= value <= hi:
        raise ParameterError(f"{name}={value} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: `trials` blocks per hypothesis, decided by
    the weight threshold theta.  The codes fix the rest of the scheme."""

    n: int
    trials: int
    seed: int
    h: HypothesisPair
    theta: float

    def __post_init__(self):
        _check_int("blocklength", self.n, 1, 64)
        _check_int("trials", self.trials, 1)
        if self.trials > _MAX_TRIALS:
            raise ResourceLimitError(
                f"trials={self.trials} above the limit of {_MAX_TRIALS} "
                "per hypothesis"
            )
        _check_int("seed", self.seed, 0)
        if not (0.0 <= self.theta <= 1.0):
            raise ParameterError(f"theta={self.theta} outside [0, 1]")


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

    X is uniform on n bits, Y = X xor Z with Z i.i.d. Bernoulli(p),
    drawn by the sampler of `simulate` (`_draw_words`) from the raw
    words of one bit generator, which serves every level in turn.  seed
    may be anything `numpy.random.default_rng` accepts, including an
    existing Generator, whose bit generator is read in place; a number
    must be a nonnegative integer.
    """
    _check_int("blocklength", n, 1, 64)
    if not (0.0 <= p <= 1.0):
        raise ParameterError(f"p={p} outside [0, 1]")
    if isinstance(seed, numbers.Real):
        _check_int("seed", seed, 0)
    bits = np.random.default_rng(seed).bit_generator
    x, z = _draw_words(lambda level: bits, 1, n, p)
    return int(x[0]), int(x[0] ^ z[0])


def _digits(p):
    """Binary digits of the double p after the point, most significant
    first; the last one is 1.  Empty for p = 0 and p = 1."""
    num, den = float(p).as_integer_ratio()
    e = den.bit_length() - 1  # den is a power of two
    return [num >> (e - 1 - i) & 1 for i in range(e)]


def _compare(words, digits, live, less):
    """Advance lanes by one digit per column of words, in place: a live
    lane whose digit differs from p's is decided, and set in less when
    its digit is the 0 against p's 1."""
    for w, b in zip(words.T, digits):
        if b:
            less |= live & ~w
            live &= w
        else:
            live &= ~w


def _draw_words(streams, rows, n, p):
    """(X, Z) uint64 words of `rows` trials; streams(level) is the bit
    generator read at that level.

    X is the low n bits of one raw word.  Bit j of Z is [U_j < p], where
    the binary digits of the uniform U_j are bit j of successive raw
    words: lane j is decided at its first digit that differs from p's,
    and a lane that matches all of p's digits has U_j >= p.  This is the
    exact Bernoulli law of the double p.  Level 0 reads, trial after
    trial, the X word and up to `_DIGITS` digit words.  Each trial with a
    lane still open then reads up to `_DIGITS` more at each further
    level, trial after trial, until every lane is decided.
    """
    mask = np.uint64((1 << int(n)) - 1)
    digits = _digits(p)
    d = min(_DIGITS, len(digits))
    words = streams(0).random_raw((rows, 1 + d))
    x = words[:, 0] & mask
    if p == 1.0:
        return x, np.full(rows, mask)
    live = np.full(rows, mask)
    z = np.zeros(rows, dtype=np.uint64)
    _compare(words[:, 1:], digits, live, z)
    rest = np.arange(rows)
    for level, lo in enumerate(range(d, len(digits), _DIGITS), 1):
        rest = rest[live[rest] != 0]
        if not rest.size:
            break
        more = digits[lo:lo + _DIGITS]
        sub_live, sub_z = live[rest], z[rest]
        _compare(streams(level).random_raw((rest.size, len(more))), more,
                 sub_live, sub_z)
        live[rest], z[rest] = sub_live, sub_z
    return x, z


def _draw_run(cfg, scheme_id, hyp, p):
    """(X, Z) word arrays of one hypothesis, `_CHUNK` trials at a time,
    from its own streams: level L of `_draw_words` reads the Philox
    stream keyed by (seed, scheme id, hyp), with L appended from level 1
    on."""
    key = (cfg.seed, scheme_id, hyp)
    made = []

    def streams(level):
        if level == len(made):  # a chunk reads level L only after L - 1
            seq = np.random.SeedSequence(key + ((level,) if level else ()))
            made.append(np.random.Philox(seq))
        return made[level]

    for lo in range(0, cfg.trials, _CHUNK):
        yield _draw_words(streams, min(_CHUNK, cfg.trials - lo), cfg.n, p)


def _run(cfg, scheme_id, code, residual):
    """Records of both hypotheses, nulls first, drawn from the streams
    of scheme `scheme_id`.  Each trial coset-decodes the word
    residual(x, z) of its (X, Z) words in `code`, and the decision is
    the threshold test of `oracle`."""
    if code.n != cfg.n:
        raise ParameterError(f"code blocklength {code.n} != config n {cfg.n}")
    table = coset_table(code)
    chunks = []
    for h, p in ((0, cfg.h.p0), (1, cfg.h.p1)):
        for x, z in _draw_run(cfg, scheme_id, h, p):
            err, w_hat = _decode(code, table, residual(x, z))
            chunks.append((err, _popcount64(z).astype(np.uint8), w_hat))
    bin_err, noise_w, decoded_w = (np.concatenate(c) for c in zip(*chunks))
    return TrialRecords(
        n=cfg.n,
        hypothesis=np.repeat(np.arange(2, dtype=np.uint8), cfg.trials),
        bin_error=bin_err,
        decided=decoded_w > _accept_weight(cfg.n, cfg.theta),
        noise_weight=noise_w,
        decoded_weight=decoded_w,
    )


def _decode(code, table, e):
    """Bin-error flags and decoded weights of words e: the decoder sees
    only the syndrome of e and picks the leader of its coset."""
    leaders, weights = table
    s = syndromes(code, e)
    return leaders[s] != e, weights[s]


def run_one_sided(cfg, nested):
    """Simulate the quantize-and-bin scheme over a nested code pair.

    Per trial: U is the fine-code quantization of X, the transmitted
    message is the coarse syndrome of U, and the decoder picks the
    member of the matching coarse coset closest to Y, which is Y minus
    the coarse leader of Y ^ U.  The decision thresholds the normalized
    distance between Y and that estimate.  Returns the records of both
    hypotheses, nulls first.
    """
    # `_run` reads the coarse table first; it is the larger one (k2 <= k1),
    # so that also checks the size bound of the fine table `quantize` reads
    return _run(cfg, _SCHEME_IDS["one_sided"], nested.coarse,
                lambda x, z: x ^ z ^ quantize(nested.fine, x))


def run_korner_marton(cfg, code):
    """Simulate the symmetric syndrome-exchange scheme.

    Both terminals send the syndrome of their observation; the decision
    function decodes the noise word from the syndrome sum and thresholds
    its weight.  Quantization is not part of this scheme.
    """
    return _run(cfg, _SCHEME_IDS["korner_marton"], code, lambda x, z: z)


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
    # 0.0 - x, not -x: eps = 1 gives +0 rather than -0
    return math.inf if eps == 0.0 else 0.0 - math.log2(eps) / n


def estimate_errors(records):
    """Aggregate trial records into an ErrorEstimate.

    Needs records from both hypotheses; the false-alarm rate comes from
    the null trials, the miss rate from the alternative trials, and the
    exponents are normalized by the records' blocklength.
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
        exponent0=_exponent(eps0, records.n),
        exponent1=_exponent(eps1, records.n),
        bin_rate0=b0 / m0,
        bin_rate1=b1 / m1,
    )
