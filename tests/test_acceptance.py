"""Release gate: one test per headline property, fixed tolerances.

Every test here pins a user-visible claim end to end, with explicit
numeric budgets and wall-clock limits where the underlying computation
is heavy.

Gate 05 pins the Stein-point equality of the helper-coded and prior
limits at rate 0.3, p1 = 0.25: the binning term equals the prior
bound's term whenever the bin rate is at least 1 - h(p1), so the two
limits agree to optimizer noise over the whole p0 sweep.

Gate 06 fails on purpose.  At rate 0.3, p0 = 0.01, p1 = 0.1 the
quantized frontier lies up to 4.1e-3 above the plain one near
e0 = 0.063, against a 1e-3 budget.  There the ball terms bind, and
quantization moves the threshold at which the binning term vanishes
from h^-1(0.3) = 0.053 to h^-1(h(a) + 0.3) = 0.070, which is a
first-order gain rather than a numerical artifact.  The assertion
message carries the measured gap rather than a widened budget.
"""

import time

import numpy as np
import pytest

from bindht.binmath import (
    binary_divergence,
    binary_entropy,
    gv_distance,
    inverse_binary_entropy,
)
from bindht.exponents import best_channel_exponent, type_noise_ball_exponent
from bindht.gf2 import build_nested, diagnostics, improve_covering, sample_random_linear_code
from bindht.oracle import (
    enumerate_mixed_noise_pmf,
    exact_ball_log2_prob,
    exact_mixed_noise_pmf_vector,
    np_exact_errors,
)
from bindht.regions import (
    HypothesisPair,
    SchemeParams,
    curve_value_at,
    one_sided_pair,
    stein_columns,
    symmetric_pair,
    tradeoff_curve,
)
from bindht.simkit import (
    SimConfig,
    decoded_weights,
    estimate_errors,
    run_korner_marton,
    run_one_sided,
)


def test_criterion_01_pmf_matches_exhaustive_enumeration():
    # closed-form mixed-noise pmf against the 2^n enumeration route, all
    # blocklengths up to 12 and every (type, weight) pair
    start = time.perf_counter()
    ps = (0.1, 0.25, 0.4)
    for n in range(1, 13):
        for na in range(n + 1):
            for nw in range(n + 1):
                brutes = enumerate_mixed_noise_pmf(n, na, nw, ps)
                for p, brute in zip(ps, brutes):
                    fast = exact_mixed_noise_pmf_vector(n, na, nw, p)
                    for nt in range(n + 1):
                        b, f = brute[nt], fast[nt]
                        assert abs(f - b) <= 1e-12 * max(abs(b), 1e-300), (
                            f"pmf mismatch at n={n} p={p} na={na} nw={nw} "
                            f"nt={nt}: {f} vs {b}"
                        )
    assert time.perf_counter() - start <= 120.0


def test_criterion_02_ball_probability_converges_to_exponent():
    # frozen two-decimal operating points; the finite-n log-probability
    # slope must approach the analytic exponent monotonically
    tuples = [
        (0.10, 0.10, 0.30, 0.20), (0.25, 0.05, 0.50, 0.15),
        (0.40, 0.20, 0.00, 0.30), (0.05, 0.00, 0.25, 0.10),
        (0.10, 0.00, 0.00, 0.05), (0.25, 0.25, 0.25, 0.20),
        (0.30, 0.10, 0.40, 0.25), (0.05, 0.05, 0.05, 0.02),
        (0.20, 0.00, 0.50, 0.30), (0.45, 0.15, 0.10, 0.35),
        (0.15, 0.30, 0.20, 0.25), (0.35, 0.05, 0.05, 0.30),
    ]
    start = time.perf_counter()
    for p, a, w, theta in tuples:
        ref = type_noise_ball_exponent(p, a, w, theta)
        gaps = []
        for n in (200, 500, 1000, 2000):
            log2p = exact_ball_log2_prob(
                n, round(a * n), round(w * n), round(theta * n), p
            )
            gaps.append(abs(-log2p / n - ref))
        assert gaps[-1] <= 0.01, f"{(p, a, w, theta)}: final gap {gaps[-1]}"
        assert all(b <= g + 1e-12 for g, b in zip(gaps, gaps[1:])), (
            f"{(p, a, w, theta)}: gaps not shrinking {gaps}"
        )
    assert time.perf_counter() - start <= 60.0


def test_criterion_03_channel_exponent_vanishes_at_capacity():
    for p in (0.05, 0.11, 0.25, 0.4):
        v = best_channel_exponent(p, 1.0 - binary_entropy(p))
        assert abs(v) <= 1e-6, f"exponent {v} at capacity, p={p}"


def test_criterion_04_top_stein_curves_coincide_for_close_hypotheses():
    # rate 0.3, p1=0.1: unconstrained, helper-coded, and prior-art limits
    # must agree within 1e-3 over the whole p0 sweep
    for p0 in np.linspace(0.005, 0.05, 10):
        cols = stein_columns(HypothesisPair(float(p0), 0.1), 0.3)
        top = (cols["unconstrained"], cols["new"], cols["prior"])
        spread = max(top) - min(top)
        assert spread <= 1e-3, f"spread {spread} at p0={p0}"
        assert cols["unconstrained"] == pytest.approx(
            binary_divergence(float(p0), 0.1), abs=1e-9
        )


def test_criterion_05_stein_ordering_with_strict_improvement():
    # rate 0.3, p1=0.25: the four limits are ordered pointwise, and the
    # helper-coded limit equals the prior art at every p0.  Summing the
    # ball-hit probability over all 2^n bin offsets gives the theta-ball's
    # size, so the binning spectrum term is never below the prior bound's
    # term 1 - h(theta) - rate_bin and equals it once the bin rate is at
    # least 1 - h(p1).  Candidates with a smaller bin rate sit at large
    # quantization levels whose helper term is below every column's prior
    # value, so the helper-coded gain cannot show at the Stein point.
    for p0 in np.linspace(0.005, 0.05, 10):
        cols = stein_columns(HypothesisPair(float(p0), 0.25), 0.3)
        assert cols["unconstrained"] >= cols["new"] - 1e-9
        assert cols["new"] >= cols["prior"] - 1e-9
        assert cols["prior"] >= cols["symmetric"] - 1e-9
        gap = cols["new"] - cols["prior"]
        assert abs(gap) <= 1e-6, (
            f"helper-coded limit exceeds the prior art by {gap:.3e} at "
            f"p0={p0:.4f}; the binning term equals 1 - h(theta) - rate_bin "
            f"whenever rate_bin >= 1 - h(p1), which makes the two Stein "
            f"limits equal at these parameters"
        )


def test_criterion_06_tradeoffs_with_and_without_quantization_coincide():
    # rate 0.3, p0=0.01, p1=0.1: compare the two frontiers on a shared
    # false-alarm-exponent grid over their common range
    h = HypothesisPair(0.01, 0.1)
    quantized = tradeoff_curve("one_sided", h, 0.3)
    plain = tradeoff_curve("symmetric", h, 0.3)
    xq, _ = quantized.as_arrays()
    xp, _ = plain.as_arrays()
    grid = np.linspace(max(xq.min(), xp.min()), min(xq.max(), xp.max()), 200)
    diffs = np.array([
        curve_value_at(quantized, float(e0)) - curve_value_at(plain, float(e0))
        for e0 in grid
    ])
    worst = int(np.abs(diffs).argmax())
    exceed = int((np.abs(diffs) > 1e-3).sum())
    assert abs(diffs[worst]) <= 1e-3, (
        f"max frontier gap {abs(diffs[worst]):.6f} at e0={grid[worst]:.4f} "
        f"({exceed}/200 grid points above 1e-3); quantization measurably "
        f"raises the one-sided frontier at these parameters, so the two "
        f"curves do not coincide to 1e-3"
    )


def test_criterion_07_symmetric_is_one_sided_without_quantization():
    h = HypothesisPair(0.01, 0.25)
    for theta in np.linspace(0.02, 0.24, 100):
        sym = symmetric_pair(h, 0.3, float(theta))
        one = one_sided_pair(
            h, SchemeParams(a=0.0, theta=float(theta), rate_x=0.3)
        )
        assert sym == one  # same evaluation path, bit-identical


def test_criterion_08_simulation_consistency():
    # n in {15, 23, 31}, a=0, p0=0.01, p1=0.25, theta=0.1, 1e5 trials per
    # hypothesis and scheme; helper rate 0.6 keeps the bin rate 0.4 above
    # the threshold's covering requirement so both error rates shrink
    start = time.perf_counter()
    h = HypothesisPair(0.01, 0.25)
    params = SchemeParams(a=0.0, theta=0.1, rate_x=0.6)
    trials = 100_000
    ests = {"one_sided": {}, "korner_marton": {}}
    for n in (15, 23, 31):
        nested = build_nested(n, 1.0, 0.4, seed=0)
        cfg = SimConfig(n=n, trials=trials, seed=0, h=h, params=params)
        rec_q = run_one_sided(cfg, nested)
        cfg_km = SimConfig(
            n=n, trials=trials, seed=0, h=h, params=params,
            scheme="korner_marton",
        )
        rec_km = run_korner_marton(cfg_km, nested.coarse)
        ests["one_sided"][n] = estimate_errors(rec_q, n)
        ests["korner_marton"][n] = estimate_errors(rec_km, n)

        # (ii) the two schemes decode the same weight statistic, so their
        # independently seeded histograms must agree closely
        for hyp in (0, 1):
            kq = np.rint(decoded_weights(rec_q, hyp) * n).astype(int)
            km = np.rint(decoded_weights(rec_km, hyp) * n).astype(int)
            cq = np.cumsum(np.bincount(kq, minlength=n + 1)) / trials
            ck = np.cumsum(np.bincount(km, minlength=n + 1)) / trials
            gap = float(np.abs(cq - ck).max())
            assert gap <= 0.01, f"cdf gap {gap} at n={n} hyp={hyp}"

        # (iii) miss rate bounded by the uncoded oracle plus the rate of
        # coset decoding failures
        _, e1_oracle = np_exact_errors(n, 0.01, 0.25, 0.1)
        for name in ("one_sided", "korner_marton"):
            est = ests[name][n]
            assert est.eps1 <= e1_oracle + est.bin_rate1 + 1e-9, (
                f"{name} n={n}: {est.eps1} > {e1_oracle} + {est.bin_rate1}"
            )

    # (i) both empirical error rates nonincreasing in n, allowing the
    # summed 95% confidence radii as slack
    for name in ("one_sided", "korner_marton"):
        for n_prev, n_next in ((15, 23), (23, 31)):
            a, b = ests[name][n_prev], ests[name][n_next]
            for attr, ci in (("eps0", "ci0"), ("eps1", "ci1")):
                slack = (
                    (getattr(a, ci)[1] - getattr(a, ci)[0])
                    + (getattr(b, ci)[1] - getattr(b, ci)[0])
                ) / 2.0
                assert getattr(b, attr) <= getattr(a, attr) + slack, (
                    f"{name} {attr} rose from n={n_prev} to n={n_next}"
                )
    assert time.perf_counter() - start <= 600.0


def test_criterion_09_covering_improvement_meets_gv_slack():
    # calibrated slack over the asymptotic covering radius; the greedy
    # row-appending step must land inside it for nearly every seed
    bound = gv_distance(0.5) + 0.15
    assert bound == pytest.approx(0.2600278644385071, abs=1e-12)
    hits = 0
    for seed in range(50):
        code = sample_random_linear_code(24, 12, seed=seed)
        better = improve_covering(code, seed=seed)
        if diagnostics(better).covering_radius_norm <= bound:
            hits += 1
    assert hits >= 45, f"only {hits}/50 seeds within radius {bound}"


def test_criterion_10_entropy_identity_suite():
    ys = np.linspace(0.0, 1.0, 501)
    for y in ys:
        assert abs(binary_entropy(inverse_binary_entropy(float(y))) - y) <= 1e-10
    for w in np.linspace(0.0, 1.0, 501):
        lhs = binary_divergence(float(w), 0.5)
        assert abs(lhs - (1.0 - binary_entropy(float(w)))) <= 1e-10
    deltas = [gv_distance(float(r)) for r in np.linspace(0.0, 1.0, 501)]
    assert all(b <= a + 1e-10 for a, b in zip(deltas, deltas[1:]))
