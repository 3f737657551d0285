"""Simulation harness: source statistics, determinism, decision law.

The distributional checks compare Monte Carlo rates against exact
enumeration over all noise words, which ties the simulated decoders to
the same law the oracle module integrates analytically.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binomtest

from bindht.gf2 import build_nested, coset_table, sample_random_linear_code
from bindht.errors import ParameterError, ResourceLimitError
from bindht.regions import HypothesisPair, SchemeParams
import bindht.simkit
from bindht.simkit import (
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
from gf2_oracle import syndrome


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
        {"n": 0}, {"n": 65}, {"trials": 0}, {"seed": -1}, {"scheme": "mystery"},
    ],
)
def test_config_validation(kwargs):
    base = dict(
        n=12, trials=10, seed=0,
        h=HypothesisPair(0.1, 0.3),
        params=SchemeParams(a=0.0, theta=0.2, rate_x=0.5),
    )
    base.update(kwargs)
    with pytest.raises(ParameterError):
        SimConfig(**base)


def test_config_bounds_trials():
    # a huge request fails when the config is built, before any drawing
    base = dict(
        n=12, seed=0,
        h=HypothesisPair(0.1, 0.3),
        params=SchemeParams(a=0.0, theta=0.2, rate_x=0.5),
    )
    assert SimConfig(trials=_MAX_TRIALS, **base).trials == _MAX_TRIALS
    with pytest.raises(ResourceLimitError):
        SimConfig(trials=_MAX_TRIALS + 1, **base)


def _one_sided_cfg(trials=200, seed=0):
    return SimConfig(
        n=10, trials=trials, seed=seed,
        h=HypothesisPair(0.1, 0.35),
        params=SchemeParams(a=0.0, theta=0.2, rate_x=0.5),
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


def _km_cfg(trials=200, seed=0):
    return replace(_one_sided_cfg(trials, seed), scheme="korner_marton")


def test_run_one_sided_deterministic():
    nested = build_nested(10, 1.0, 0.5, seed=0)
    cfg = _one_sided_cfg()
    assert _same_records(run_one_sided(cfg, nested), run_one_sided(cfg, nested))
    other = run_one_sided(_one_sided_cfg(seed=1), nested)
    assert not _same_records(other, run_one_sided(cfg, nested))


def test_schemes_use_separate_streams():
    # same seed, different scheme id: the noise draws must not coincide
    nested = build_nested(10, 1.0, 0.5, seed=0)
    code = sample_random_linear_code(10, 5, seed=0)
    wq = run_one_sided(_one_sided_cfg(), nested).noise_weight
    wkm = run_korner_marton(_km_cfg(), code).noise_weight
    assert not np.array_equal(wq, wkm)


@pytest.mark.parametrize("scheme", sorted(_SCHEME_IDS))
@pytest.mark.parametrize("hyp,p", [(0, 0.1), (1, 0.35)])
def test_draw_run_matches_gen_dsbs_loop(monkeypatch, scheme, hyp, p):
    # chunks of 128 trials, the last one partial, read the same stream
    # as one gen_dsbs call per trial on a shared generator
    monkeypatch.setattr(bindht.simkit, "_CHUNK", 128)
    cfg = replace(_one_sided_cfg(trials=300, seed=4), n=27, scheme=scheme)
    x, z = _draw_run(cfg, hyp, p)
    key = np.random.SeedSequence((4, _SCHEME_IDS[scheme], hyp))
    rng = np.random.Generator(np.random.Philox(key))
    for t in range(cfg.trials):
        xt, yt = gen_dsbs(27, p, rng)
        assert (int(x[t]), int(z[t])) == (xt, xt ^ yt)


def test_records_independent_of_chunk_size(monkeypatch):
    nested = build_nested(10, 1.0, 0.5, seed=0)
    code = sample_random_linear_code(10, 5, seed=0)
    runs = ((run_one_sided, _one_sided_cfg(), nested),
            (run_korner_marton, _km_cfg(), code))
    wants = [run(cfg, decode_code) for run, cfg, decode_code in runs]
    for chunk in (7, 201):  # 201 exceeds the 200 trials
        monkeypatch.setattr(bindht.simkit, "_CHUNK", chunk)
        for (run, cfg, decode_code), want in zip(runs, wants):
            assert _same_records(run(cfg, decode_code), want)


def test_hypotheses_and_schemes_draw_different_words():
    cfg_q, cfg_km = _one_sided_cfg(), _km_cfg()
    words = [
        _draw_run(cfg, hyp, 0.1)[0].tobytes()
        for cfg in (cfg_q, cfg_km) for hyp in (0, 1)
    ]
    assert len(set(words)) == 4


def test_record_invariants():
    nested = build_nested(10, 1.0, 0.5, seed=0)
    cfg = _one_sided_cfg(trials=300)
    records = run_one_sided(cfg, nested)
    assert len(records) == 2 * cfg.trials
    assert records.hypothesis[:300].tolist() == [0] * 300
    assert records.hypothesis[300:].tolist() == [1] * 300
    k_acc = _accept_weight(cfg.n, cfg.params.theta)
    cover = int(coset_table(nested.coarse)[1].max())
    w = records.decoded_weight.astype(int)
    assert (records.decided == (w > k_acc)).all()
    assert (w <= cover).all()


def test_unquantized_decoding_never_inflates_weight():
    # with a = 0 the decoded word sits in the noise coset, so its weight
    # is bounded by the true noise weight on every single trial
    nested = build_nested(10, 1.0, 0.5, seed=0)
    records = run_one_sided(_one_sided_cfg(trials=500), nested)
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
    cfg_q = _one_sided_cfg(trials=trials)
    cfg_km = _km_cfg(trials=trials)
    k_acc = _accept_weight(10, 0.2)
    runs = (
        (run_one_sided(cfg_q, nested), nested.coarse),
        (run_korner_marton(cfg_km, code), code),
    )
    for records, decode_code in runs:
        est = estimate_errors(records, 10)
        for hyp, p, rate in ((0, 0.1, est.eps0), (1, 0.35, 1.0 - est.eps1)):
            exact = _exact_decided_prob(decode_code, p, k_acc)
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
            assert abs(rate - exact) < 4 * sigma + 1e-9


def test_korner_marton_rejects_quantization():
    code = sample_random_linear_code(10, 5, seed=0)
    cfg = SimConfig(
        n=10, trials=5, seed=0,
        h=HypothesisPair(0.1, 0.3),
        params=SchemeParams(a=0.2, theta=0.2, rate_x=0.2),
        scheme="korner_marton",
    )
    with pytest.raises(ParameterError):
        run_korner_marton(cfg, code)


def test_runner_config_mismatches():
    nested = build_nested(10, 1.0, 0.5, seed=0)
    code = sample_random_linear_code(10, 5, seed=0)
    cfg = _one_sided_cfg(trials=5)
    km_cfg = SimConfig(
        n=10, trials=5, seed=0, h=cfg.h, params=cfg.params,
        scheme="korner_marton",
    )
    with pytest.raises(ParameterError):
        run_one_sided(km_cfg, nested)
    with pytest.raises(ParameterError):
        run_korner_marton(cfg, code)
    short = build_nested(8, 1.0, 0.5, seed=0)
    with pytest.raises(ParameterError):
        run_one_sided(
            SimConfig(n=10, trials=5, seed=0, h=cfg.h, params=cfg.params),
            short,
        )
    with pytest.raises(ParameterError):
        run_korner_marton(km_cfg, sample_random_linear_code(8, 4, seed=0))


def test_decoded_weights_filters_by_hypothesis():
    nested = build_nested(10, 1.0, 0.5, seed=0)
    cfg = _one_sided_cfg(trials=50)
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
    est = estimate_errors(records, 10)
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
    est = estimate_errors(records, 4)
    assert est.eps0 == 1.0
    assert est.exponent0 == 0.0
    assert est.ci0 == (1.0 - 3.0 / 8.0, 1.0)
    assert est.eps1 == 0.0


def test_estimate_errors_needs_both_hypotheses():
    with pytest.raises(ParameterError):
        estimate_errors(_records(10, (5, (0, False, 0, 1, 1))), 10)
    with pytest.raises(ParameterError):
        estimate_errors(_records(10), 10)


@pytest.mark.parametrize("k,m", [(1, 10), (3, 50), (17, 40), (120, 200), (199, 200)])
def test_wilson_matches_scipy(k, m):
    lo, hi = _wilson(k, m)
    ref = binomtest(k, m).proportion_ci(confidence_level=0.95, method="wilson")
    assert lo == pytest.approx(ref.low, abs=1e-12)
    assert hi == pytest.approx(ref.high, abs=1e-12)
