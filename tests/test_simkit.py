"""Simulation harness: source statistics, determinism, decision law.

The distributional checks compare Monte Carlo rates against exact
enumeration over all noise words, which ties the simulated decoders to
the same law the oracle module integrates analytically, and against
the syndrome-pmf route of `exact_codes` at the sizes `simulate` runs.
The lane sampler is checked against a one-digit-at-a-time reference
and against the exact Bernoulli law.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binomtest

from bindht.binmath import binary_entropy
from bindht.gf2 import (
    build_nested,
    coset_table,
    sample_random_linear_code,
    syndromes,
)
from bindht.errors import ParameterError, ResourceLimitError
from bindht.regions import HypothesisPair
import bindht.simkit
from bindht.simkit import (
    _DIGITS,
    _MAX_TRIALS,
    _SCHEME_IDS,
    SimConfig,
    TrialRecords,
    _accept_weight,
    _draw_run,
    _wilson,
    decoded_weights,
    estimate_errors,
    gen_dsbs,
    run_korner_marton,
    run_one_sided,
)
from exact_codes import (
    bin_error_rate,
    decide_rate,
    one_sided_shifts,
    scheme_rates,
)
from gf2_oracle import syndrome


def _reference_trial(read, n, p):
    """(X, Z) of one trial, one Python int and one lane digit at a time.

    read(level, k) gives the next k raw words of that level's stream.
    X is the low n bits of the first word; lane j of Z compares bit j of
    the following words with the digits of Fraction(p) until they
    differ, and reads the next level's words every _DIGITS digits.
    """
    mask = (1 << n) - 1
    digits, f = [], Fraction(p) % 1  # p = 1 has no digits: all lanes set
    while f:
        f *= 2
        digits.append(f >= 1)
        f -= digits[-1]
    x, *words = read(0, 1 + min(_DIGITS, len(digits)))
    if p == 1:
        return x & mask, mask
    z, live = 0, mask
    for i, b in enumerate(digits):
        if not live:
            break
        level, j = divmod(i, _DIGITS)
        if level and not j:
            words = read(level, min(_DIGITS, len(digits) - i))
        if b:
            z |= live & ~words[j]
            live &= words[j]
        else:
            live &= ~words[j]
    return x & mask, z


def _keyed_reader(key):
    """read(level, k) on the Philox streams keyed by key, with the level
    appended from level 1 on, each read in order."""
    streams = {}

    def read(level, k):
        if level not in streams:
            seq = np.random.SeedSequence(key + ((level,) if level else ()))
            streams[level] = np.random.Philox(seq)
        return streams[level].random_raw(k).tolist()
    return read


def test_gen_dsbs_degenerate_noise():
    x, y = gen_dsbs(16, 0.0, seed=5)
    assert y == x
    x, y = gen_dsbs(16, 1.0, seed=5)
    assert y == x ^ 0xFFFF
    assert 0 <= x < 1 << 16


def test_gen_dsbs_seed_reproducible():
    assert gen_dsbs(12, 0.3, seed=7) == gen_dsbs(12, 0.3, seed=7)
    assert gen_dsbs(12, 0.3, seed=7) != gen_dsbs(12, 0.3, seed=8)
    rng = np.random.default_rng(7)
    first = gen_dsbs(12, 0.3, rng)
    second = gen_dsbs(12, 0.3, rng)  # generator advances in place
    assert first != second


def test_gen_dsbs_bit_frequencies():
    # aggregate 96000 bits; empirical densities within 3 sigma
    n, p, draws = 64, 0.3, 1500
    rng = np.random.default_rng(42)
    wx = wz = 0
    for _ in range(draws):
        x, y = gen_dsbs(n, p, rng)
        wx += bin(x).count("1")
        wz += bin(x ^ y).count("1")
    total = n * draws
    assert abs(wx / total - 0.5) < 3 * math.sqrt(0.25 / total)
    assert abs(wz / total - p) < 3 * math.sqrt(p * (1 - p) / total)


def test_gen_dsbs_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        gen_dsbs(0, 0.3)
    with pytest.raises(ParameterError):
        gen_dsbs(65, 0.3)
    with pytest.raises(ParameterError):
        gen_dsbs(8, 1.5)


@pytest.mark.parametrize(
    "n,theta,want",
    [(10, 0.3, 3), (4, 0.75, 3), (5, 0.2, 1), (3, 1.0 / 3.0, 1), (8, 0.0, 0)],
)
def test_accept_weight_convention(n, theta, want):
    # exact multiples of 1/n count as accept weights (the floor is nudged)
    assert _accept_weight(n, theta) == want


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0}, {"n": 65}, {"trials": 0}, {"seed": -1}, {"theta": 1.5},
        {"theta": -0.1},
    ],
)
def test_config_validation(kwargs):
    base = dict(n=12, trials=10, seed=0, h=HypothesisPair(0.1, 0.3), theta=0.2)
    base.update(kwargs)
    with pytest.raises(ParameterError):
        SimConfig(**base)


def test_config_bounds_trials():
    # a huge request fails when the config is built, before any drawing
    base = dict(n=12, seed=0, h=HypothesisPair(0.1, 0.3), theta=0.2)
    assert SimConfig(trials=_MAX_TRIALS, **base).trials == _MAX_TRIALS
    with pytest.raises(ResourceLimitError):
        SimConfig(trials=_MAX_TRIALS + 1, **base)


def _cfg(trials=200, seed=0):
    return SimConfig(
        n=10, trials=trials, seed=seed, h=HypothesisPair(0.1, 0.35), theta=0.2,
    )


_COLUMNS = ("hypothesis", "bin_error", "decided", "noise_weight",
            "decoded_weight")


def _same_records(a, b):
    """Column-by-column identity of two TrialRecords, dtypes included."""
    return a.n == b.n and all(
        getattr(a, c).dtype == getattr(b, c).dtype
        and np.array_equal(getattr(a, c), getattr(b, c))
        for c in _COLUMNS
    )


def test_run_one_sided_deterministic():
    nested = build_nested(10, 1.0, 0.5, seed=0)
    cfg = _cfg()
    assert _same_records(run_one_sided(cfg, nested), run_one_sided(cfg, nested))
    other = run_one_sided(_cfg(seed=1), nested)
    assert not _same_records(other, run_one_sided(cfg, nested))


def test_schemes_use_separate_streams():
    # same seed, different scheme id: the noise draws must not coincide
    nested = build_nested(10, 1.0, 0.5, seed=0)
    code = sample_random_linear_code(10, 5, seed=0)
    wq = run_one_sided(_cfg(), nested).noise_weight
    wkm = run_korner_marton(_cfg(), code).noise_weight
    assert not np.array_equal(wq, wkm)


@pytest.mark.parametrize("scheme", sorted(_SCHEME_IDS))
@pytest.mark.parametrize("hyp,p", [(0, 0.1), (1, 0.35)])
def test_draw_run_matches_gen_dsbs_loop(monkeypatch, scheme, hyp, p):
    # chunks of 128 trials, the last one partial, read the same streams
    # as one-row draws of the sampler, trial after trial, on the run's
    # level streams; about a tenth of the trials reach level 1 here
    monkeypatch.setattr(bindht.simkit, "_CHUNK", 128)
    cfg = replace(_cfg(trials=300, seed=4), n=27)
    x, z = _draw_run(cfg, _SCHEME_IDS[scheme], hyp, p)
    read = _keyed_reader((4, _SCHEME_IDS[scheme], hyp))
    for t in range(cfg.trials):
        assert (int(x[t]), int(z[t])) == _reference_trial(read, 27, p)


@pytest.mark.parametrize("n", [1, 27, 64])
@pytest.mark.parametrize(
    "p", [0.0, 0.5, 0.1, 0.35, 2.0**-40, 1e-300, 5e-324, 1 - 2.0**-53, 1.0],
)
def test_gen_dsbs_reads_one_generator_for_every_level(n, p):
    for seed in range(20):
        bits = np.random.default_rng(seed).bit_generator
        x, z = _reference_trial(lambda level, k: bits.random_raw(k).tolist(),
                                n, p)
        assert gen_dsbs(n, p, seed) == (x, x ^ z)


@pytest.mark.parametrize(
    "p", [0.5, 2.0**-40, 1e-300, 0.1, 1 - 2.0**-53, 0.0, 1.0, 5e-324],
)
def test_lane_sampler_follows_bernoulli_law(p):
    # on one fixed seed, the mean of each of the 64 lanes of X and of Z,
    # and the covariance of every pair of them, within 5 sd of the exact
    # law; 1e-12 is far below the 1/trials resolution of a rate
    trials = 20_000
    x, z = _draw_run(replace(_cfg(trials=trials, seed=2), n=64), 0, 0, p)
    lanes = np.arange(64, dtype=np.uint64)
    bits = np.concatenate([(x[:, None] >> lanes) & np.uint64(1),
                           (z[:, None] >> lanes) & np.uint64(1)], axis=1)
    bits = bits.astype(np.float32)  # pair counts below 2^24 stay exact
    want = np.array([0.5] * 64 + [p] * 64)
    var = want * (1.0 - want)
    mean = bits.mean(axis=0, dtype=float)
    assert (np.abs(mean - want) <= 5.0 * np.sqrt(var / trials) + 1e-12).all()
    cov = (bits.T @ bits).astype(float) / trials - np.outer(mean, mean)
    np.fill_diagonal(cov, 0.0)
    sd = np.sqrt(np.outer(var, var) / trials)
    assert (np.abs(cov) <= 5.0 * sd + 1e-12).all()


_EDGE_P = (0.0, 0.5, 1.0, 1e-320, math.nan, math.inf, -math.inf, -0.0,
           -0.1, -1e-320)


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([0, 1, 64, 65]),
    p=st.one_of(st.floats(0.0, 1.0), st.sampled_from(_EDGE_P)),
    seed=st.integers(0, 2**64),
)
def test_gen_dsbs_fuzz_ends_in_words_or_refusal(n, p, seed):
    try:
        x, y = gen_dsbs(n, p, seed)
    except (ParameterError, ResourceLimitError):
        assert not (1 <= n <= 64 and 0.0 <= p <= 1.0)
        return
    assert 0 <= x < 1 << n and 0 <= y < 1 << n


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([0, 1, 64, 65]),
    ps=st.lists(st.one_of(st.floats(0.0, 0.5), st.sampled_from(_EDGE_P)),
                min_size=2, max_size=2),
    theta=st.one_of(st.floats(0.0, 1.0), st.sampled_from(_EDGE_P)),
    trials=st.sampled_from([-1, 0, 1, 130, _MAX_TRIALS + 1]),
    seed=st.integers(-1, 2**64),
)
def test_sim_config_fuzz_draws_words_or_refuses(n, ps, theta, trials, seed):
    # a config that is built draws every trial of both hypotheses as
    # words below 2^n
    try:
        cfg = SimConfig(n=n, trials=trials, seed=seed,
                        h=HypothesisPair(*ps), theta=theta)
    except (ParameterError, ResourceLimitError):
        return
    for hyp, p in ((0, cfg.h.p0), (1, cfg.h.p1)):
        for words in _draw_run(cfg, 0, hyp, p):
            assert len(words) == trials
            # two shifts, since one by 64 bits is undefined
            assert not (words >> np.uint64(1) >> np.uint64(n - 1)).any()


def test_records_independent_of_chunk_size(monkeypatch):
    nested = build_nested(10, 1.0, 0.5, seed=0)
    code = sample_random_linear_code(10, 5, seed=0)
    runs = ((run_one_sided, _cfg(), nested),
            (run_korner_marton, _cfg(), code))
    wants = [run(cfg, decode_code) for run, cfg, decode_code in runs]
    for chunk in (7, 201):  # 201 exceeds the 200 trials
        monkeypatch.setattr(bindht.simkit, "_CHUNK", chunk)
        for (run, cfg, decode_code), want in zip(runs, wants):
            assert _same_records(run(cfg, decode_code), want)


def test_hypotheses_and_schemes_draw_different_words():
    cfg = _cfg()
    words = [
        _draw_run(cfg, scheme_id, hyp, 0.1)[0].tobytes()
        for scheme_id in _SCHEME_IDS.values() for hyp in (0, 1)
    ]
    assert len(set(words)) == 4


def test_record_invariants():
    nested = build_nested(10, 1.0, 0.5, seed=0)
    cfg = _cfg(trials=300)
    records = run_one_sided(cfg, nested)
    assert len(records) == 2 * cfg.trials
    assert records.hypothesis[:300].tolist() == [0] * 300
    assert records.hypothesis[300:].tolist() == [1] * 300
    k_acc = _accept_weight(cfg.n, cfg.theta)
    cover = int(coset_table(nested.coarse)[1].max())
    w = records.decoded_weight.astype(int)
    assert (records.decided == (w > k_acc)).all()
    assert (w <= cover).all()


def test_unquantized_decoding_never_inflates_weight():
    # with a = 0 the decoded word sits in the noise coset, so its weight
    # is bounded by the true noise weight on every single trial
    nested = build_nested(10, 1.0, 0.5, seed=0)
    records = run_one_sided(_cfg(trials=500), nested)
    assert (records.decoded_weight <= records.noise_weight).all()
    # consequently coding can only shrink the false-alarm rate
    k_acc = _accept_weight(10, 0.2)
    nulls = records.hypothesis == 0
    coded = np.count_nonzero(records.decided[nulls])
    uncoded = np.count_nonzero(records.noise_weight[nulls] > k_acc)
    assert coded <= uncoded


def _exact_decided_prob(code, p, k_acc):
    """P[decoded weight > k_acc] by enumeration over all noise words."""
    _, weights = coset_table(code)
    total = 0.0
    for z in range(1 << code.n):
        w = bin(z).count("1")
        if int(weights[syndrome(code, z)]) > k_acc:
            total += p ** w * (1.0 - p) ** (code.n - w)
    return total


def test_monte_carlo_matches_enumeration():
    nested = build_nested(10, 1.0, 0.5, seed=0)
    code = sample_random_linear_code(10, 5, seed=3)
    trials = 4000
    cfg = _cfg(trials=trials)
    k_acc = _accept_weight(10, 0.2)
    runs = (
        (run_one_sided(cfg, nested), nested.coarse),
        (run_korner_marton(cfg, code), code),
    )
    for records, decode_code in runs:
        est = estimate_errors(records)
        for hyp, p, rate in ((0, 0.1, est.eps0), (1, 0.35, 1.0 - est.eps1)):
            exact = _exact_decided_prob(decode_code, p, k_acc)
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
            assert abs(rate - exact) < 4 * sigma + 1e-9


@pytest.mark.parametrize("n", [10, 14])
@pytest.mark.parametrize("p", [0.01, 0.25, 0.5])
def test_exact_rates_match_enumeration(n, p):
    # exact_codes against every noise word and every shift, for both
    # decoders: Z alone, and E ^ Z with E uniform over the fine leaders
    nested = build_nested(n, 0.7, 0.4, seed=n)
    z = np.arange(1 << n, dtype=np.uint64)
    w = np.array([bin(v).count("1") for v in range(1 << n)])
    law = p ** w * (1.0 - p) ** (n - w)
    leaders, weights = coset_table(nested.coarse)
    for shifts in (np.zeros(1, dtype=np.uint64), one_sided_shifts(nested)):
        decided = bin_err = 0.0
        for e in shifts:
            s = syndromes(nested.coarse, z ^ e)
            decided += law[weights[s] > _accept_weight(n, 0.2)].sum()
            bin_err += law[leaders[s] != z ^ e].sum()
        got = (decide_rate(nested.coarse, p, 0.2, shifts),
               bin_error_rate(nested.coarse, p, shifts))
        want = (decided / len(shifts), bin_err / len(shifts))
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("scheme", sorted(_SCHEME_IDS))
def test_records_follow_exact_rates(scheme):
    # seed 0 fixed in advance; 1e5 trials per hypothesis at the fig3a
    # pair, with the codes `simulate` builds; each of eps0, eps1 and the
    # two bin rates within 5 binomial sd of its exact value
    h, theta, trials = HypothesisPair(0.01, 0.25), 0.1, 100_000
    if scheme == "one_sided":
        cfg = SimConfig(n=20, trials=trials, seed=0, h=h, theta=theta)
        rate_fine = 1.0 - binary_entropy(0.05)
        nested = build_nested(20, rate_fine, rate_fine - 0.3, seed=0)
        code, shifts = nested.coarse, one_sided_shifts(nested)
        records = run_one_sided(cfg, nested)
    else:
        cfg = SimConfig(n=23, trials=trials, seed=0, h=h, theta=theta)
        code = build_nested(23, 0.4, 0.4, seed=0).coarse
        shifts = np.zeros(1, dtype=np.uint64)
        records = run_korner_marton(cfg, code)
    est = estimate_errors(records)
    got = (est.eps0, est.eps1, est.bin_rate0, est.bin_rate1)
    for g, exact in zip(got, scheme_rates(code, h, theta, shifts)):
        assert abs(g - exact) <= 5.0 * math.sqrt(exact * (1 - exact) / trials)


def _span(rows):
    """Every GF(2) combination of the packed rows, as Python ints."""
    words = [0]
    for g in rows:
        words += [w ^ g for w in words]
    return words


def _closest(target, members, n):
    """The member closest to target, ties to the least (weight,
    bit-reversed value) of the difference, as the coset leaders break
    them."""
    def key(v):
        d = v ^ target
        return d.bit_count(), int(f"{d:0{n}b}"[::-1], 2)
    return min(members, key=key)


def _brute_records(cfg, scheme, decode):
    """Record columns per trial from decode(x, y) -> (estimate, truth),
    the far terminal's word and the one it should have found."""
    k_acc = _accept_weight(cfg.n, cfg.theta)
    cols = []
    for hyp, p in ((0, cfg.h.p0), (1, cfg.h.p1)):
        xs, zs = _draw_run(cfg, _SCHEME_IDS[scheme], hyp, p)
        for x, z in zip(xs.tolist(), zs.tolist()):
            y = x ^ z
            est, truth = decode(x, y)
            w_hat = (y ^ est).bit_count()
            cols.append((est != truth, w_hat > k_acc, z.bit_count(), w_hat))
    return [np.array(c) for c in zip(*cols)]


def _assert_columns(records, want):
    got = (records.bin_error, records.decided, records.noise_weight,
           records.decoded_weight)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_one_sided_matches_per_trial_brute_force():
    # U: the fine codeword closest to X; estimate: the member of U's
    # coarse coset closest to Y; both searched over whole codes
    n, a = 12, 0.1
    rate_fine = 1.0 - binary_entropy(a)
    nested = build_nested(n, rate_fine, rate_fine - 0.3, seed=2)
    cfg = replace(_cfg(trials=150, seed=6), n=n, theta=0.25)
    fine = _span(nested.fine.G.bits)
    coarse = _span(nested.coarse.G.bits)

    def decode(x, y):
        u = _closest(x, fine, n)
        return _closest(y, [u ^ c for c in coarse], n), u

    records = run_one_sided(cfg, nested)
    want = _brute_records(cfg, "one_sided", decode)
    _assert_columns(records, want)
    assert want[0].any() and want[1].any()


def test_korner_marton_matches_per_trial_brute_force():
    # the decoded noise is the member of Z's coset closest to 0, so the
    # estimate of Y's partner word is Y minus it
    n = 12
    code = sample_random_linear_code(n, 6, seed=8)
    cfg = replace(_cfg(trials=150, seed=3), n=n, theta=0.25)
    cws = _span(code.G.bits)

    def decode(x, y):
        z_hat = _closest(0, [(x ^ y) ^ c for c in cws], n)
        return y ^ z_hat, x

    records = run_korner_marton(cfg, code)
    want = _brute_records(cfg, "korner_marton", decode)
    _assert_columns(records, want)
    assert want[0].any() and want[1].any()


def test_runner_config_mismatches():
    cfg = _cfg(trials=5)
    short = build_nested(8, 1.0, 0.5, seed=0)
    mismatch = "code blocklength 8 != config n 10"
    with pytest.raises(ParameterError, match=mismatch):
        run_one_sided(cfg, short)
    with pytest.raises(ParameterError, match=mismatch):
        run_korner_marton(cfg, sample_random_linear_code(8, 4, seed=0))


def test_decoded_weights_filters_by_hypothesis():
    nested = build_nested(10, 1.0, 0.5, seed=0)
    cfg = _cfg(trials=50)
    records = run_one_sided(cfg, nested)
    w0 = decoded_weights(records, 0)
    w1 = decoded_weights(records, 1)
    assert len(w0) == len(w1) == 50
    assert list(w0) == [
        int(w) / 10 for w, h in zip(records.decoded_weight, records.hypothesis)
        if h == 0
    ]


def _records(n, *groups):
    """TrialRecords from (count, (hyp, bin_error, decided, noise_w,
    decoded_w)) groups, in order."""
    rows = [row for count, row in groups for _ in range(count)]
    cols = list(zip(*rows)) or [()] * 5
    dtypes = (np.uint8, bool, bool, np.uint8, np.uint8)
    return TrialRecords(n, *(np.array(c, dtype=d) for c, d in zip(cols, dtypes)))


def test_estimate_errors_synthetic_counts():
    records = _records(
        10,
        (20, (0, False, 0, 1, 1)),
        (10, (1, True, 1, 3, 2)),
        (10, (1, False, 0, 3, 1)),
    )
    est = estimate_errors(records)
    assert (est.trials0, est.trials1) == (20, 20)
    assert est.eps0 == 0.0
    assert est.exponent0 == math.inf
    assert est.ci0 == (0.0, 3.0 / 20.0)  # rule of three at zero count
    assert est.eps1 == 0.5
    assert est.exponent1 == pytest.approx(0.1)
    assert est.bin_rate0 == 0.0
    assert est.bin_rate1 == 0.5


def test_estimate_errors_all_wrong():
    records = _records(
        4,
        (8, (0, False, 1, 0, 1)),
        (8, (1, False, 1, 2, 2)),
    )
    est = estimate_errors(records)
    assert est.eps0 == 1.0
    assert est.exponent0 == 0.0
    assert est.ci0 == (1.0 - 3.0 / 8.0, 1.0)
    assert est.eps1 == 0.0


def test_estimate_errors_certain_error_exponent_is_positive_zero():
    # eps = 1 under both hypotheses; -log2(1) / n alone would be -0.0,
    # which equals 0.0 but prints as -0
    records = _records(
        4,
        (8, (0, False, 1, 0, 1)),
        (8, (1, False, 0, 2, 0)),
    )
    est = estimate_errors(records)
    assert (est.eps0, est.eps1) == (1.0, 1.0)
    assert math.copysign(1.0, est.exponent0) == 1.0
    assert math.copysign(1.0, est.exponent1) == 1.0


def test_estimate_errors_needs_both_hypotheses():
    with pytest.raises(ParameterError):
        estimate_errors(_records(10, (5, (0, False, 0, 1, 1))))
    with pytest.raises(ParameterError):
        estimate_errors(_records(10))


@pytest.mark.parametrize("k,m", [(1, 10), (3, 50), (17, 40), (120, 200), (199, 200)])
def test_wilson_matches_scipy(k, m):
    lo, hi = _wilson(k, m)
    ref = binomtest(k, m).proportion_ci(confidence_level=0.95, method="wilson")
    assert lo == pytest.approx(ref.low, abs=1e-12)
    assert hi == pytest.approx(ref.high, abs=1e-12)
