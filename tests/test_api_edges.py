"""Edge fuzz of the public library API.

Each call draws the integer and range arguments of one entry point
from their valid ranges, a float now and then as a numpy scalar or a
0-d array and an integer as a numpy integer, and half the calls then
replace one argument by an edge value: out of range, not an integer,
not a number at all, one past the 64-bit word, subnormal, or a numpy
integer.  Every call must give finite values or a `ParameterError`
(or a `ResourceLimitError`, where a planted 65 passes a table bound),
and a call with no edge value planted must give values: no valid draw
comes near a work or table bound, so no refusal is due.
"""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bindht import (
    BitMatrix,
    HypothesisPair,
    SchemeParams,
    SimConfig,
    ball_noise_ball_exponent,
    best_channel_exponent,
    binary_convolution,
    binary_divergence,
    binary_entropy,
    build_nested,
    curve_value_at,
    enumerate_mixed_noise_pmf,
    exact_mixed_noise_pmf,
    expurgated_exponent,
    gen_dsbs,
    gv_distance,
    improve_covering,
    inverse_binary_entropy,
    mixed_weight_exponent,
    np_exact_errors,
    one_sided_pair,
    random_coding_exponent,
    sample_random_linear_code,
    stein_columns,
    stein_sweep,
    symmetric_pair,
    tradeoff_curve,
    type_noise_ball_exponent,
    unconstrained_pair,
    weight_difference_exponent,
)
from bindht.binmath import DOMAIN_TOL
from bindht.errors import ParameterError, ResourceLimitError
from bindht.gf2 import syndromes
from bindht.regions import SCHEMES, baseline_pair

_EDGES = [
    0, -1, 2.5, math.nan, math.inf, -math.inf, 65, 1e-320,
    np.int64(3), np.uint8(2), np.int16(-1),
    # not numbers: each fails the comparison with a range
    "0.3", None, 1j, [0.1], np.array([0.1, 0.2]),
    # nor these, though each compares with a range
    np.complex128(0.1 + 0.5j), np.array([0.1]),
]

_CURVE = tradeoff_curve("symmetric", HypothesisPair(0.01, 0.25), 0.3,
                        resolution=8)


def _finite(*columns):
    return all(np.all(np.isfinite(c)) for c in columns)


def _ordered(cols):
    # the unconstrained test bounds every coded scheme, and the new
    # bound's maxima include the a = 0 level of the equal-rate scheme.
    # The columns are at most 1 bit (p0 <= p1 <= 1/2), and the helper
    # term at a = 0 computes d(p0 || p1) by another formula than the
    # unconstrained column, so the order holds to a few ulps of 1.
    slack = 1e-15
    return np.all(cols["unconstrained"] + slack >= cols["new"]) and np.all(
        cols["new"] + slack >= cols["symmetric"]
    )


def _check_matrix(m, *args):
    # the one row is the last argument, kept as it was given
    assert 1 <= m.cols <= 64 and m.bits == (args[-1],)


def _check_code(code, *args):
    assert 1 <= code.k <= code.n <= 64
    assert not syndromes(code, list(code.G.bits)).any()


def _check_nested(pair, *args):
    assert pair.fine.n <= 64 and pair.coarse.k <= pair.fine.k
    assert not syndromes(pair.fine, list(pair.coarse.G.bits)).any()


def _check_sweep(cols, p1, rate, p0_lo, p0_hi, npts):
    assert len(cols["p0"]) == npts
    assert _finite(*cols.values()) and _ordered(cols)


def _check_curve(curve, *args):
    assert len(curve.e0) >= 1
    assert _finite(curve.e0, curve.e1, curve.theta, curve.a, curve.alpha)


def _check_weight_difference(v, p, alpha, beta, tau):
    # +inf is the exponent of an impossible event: W1 - W2 = n tau out of
    # reach, or no noise at p = 0 and all noise at p = 1
    assert v >= 0.0
    assert math.isfinite(v) or tau < -beta or tau > alpha or p in (0.0, 1.0)


def _check_value(v, *args):
    assert math.isfinite(v)


def _check_unit(v, *args):
    assert 0.0 <= v <= 1.0


def _check_divergence(v, p, q):
    # +inf where q is 0 or 1 and p differs from it
    assert v >= 0.0 and (math.isfinite(v) or not 0.0 < q < 1.0)


def _check_sphere(v, p, *args):
    # at p in {0, 1} no flip is random, so a target weight can be
    # out of reach (+inf); any noise in between reaches every weight
    assert v >= 0.0 and (math.isfinite(v) or p in (0.0, 1.0))


def _check_nonnegative(v, *args):
    assert math.isfinite(v) and v >= 0.0


def _check_pair(pair, p0, *args):
    # d(theta || 0) is +inf: without noise the null never false-alarms
    assert pair.e0 >= 0.0 and (math.isfinite(pair.e0) or p0 == 0.0)
    assert math.isfinite(pair.e1) and pair.e1 >= 0.0


def _check_hypotheses(h, *args):
    assert 0.0 <= h.p0 <= h.p1 <= 0.5


def _check_params(params, *args):
    assert 0.0 <= params.rate_bin <= 1.0


def _check_config(cfg, *args):
    assert 1 <= cfg.n <= 64


def _check_words(words, n, *args):
    assert all(0 <= x < 1 << int(n) for x in words)


def _check_errors(errors, *args):
    assert all(0.0 <= e <= 1.0 for e in errors)


def _check_pmf(pmf, *args):
    # one row per center weight and per p where those are 1-D
    assert np.allclose(pmf.sum(axis=-1), 1.0, rtol=0.0, atol=1e-9)
    assert np.all(pmf >= 0.0)


def _check_columns(cols, *args):
    assert _finite(*cols.values()) and _ordered(cols)


def _times(frac, p1):
    """frac * p1 where both are real numbers.  Where the product fails or
    is not a real scalar, one of the two is a planted non-number: frac
    passes through as it was planted, and `HypothesisPair` refuses
    whichever of the two it is."""
    try:
        product = frac * p1
    except TypeError:
        return frac
    real = np.isrealobj(product) and np.ndim(product) == 0
    return product if real else frac


def _real(lo, hi):
    """Floats in [lo, hi], also as numpy scalars and 0-d arrays."""
    x = st.floats(lo, hi)
    return x | x.map(np.float64) | x.map(np.array)


def _int(lo, hi):
    """Integers in [lo, hi], also as numpy integers."""
    k = st.integers(lo, hi)
    return k | k.map(np.int64)


_UNIT = _real(0.0, 1.0)
_H = HypothesisPair(0.01, 0.25)

#: name: (call, valid strategy per argument, check of the result).  The
#: argument ranges are disjoint where an order is due (p0 below p1, the
#: threshold inside the window of every quantization level drawn).
_CALLS = {
    "BitMatrix": (
        lambda rows, cols, row: BitMatrix(rows, cols, (row,)),
        [st.just(1), _int(1, 64), _int(0, 1)],
        _check_matrix,
    ),
    "BitMatrix.from_rows": (
        lambda cols, row: BitMatrix.from_rows([row], cols),
        [_int(1, 64), _int(0, 1)],
        _check_matrix,
    ),
    "sample_random_linear_code": (
        sample_random_linear_code,
        [_int(8, 64), _int(1, 8), _int(0, 10)],
        _check_code,
    ),
    # n - k <= 8 keeps the leader tables small
    "improve_covering": (
        lambda n, k, seed: improve_covering(
            sample_random_linear_code(n, k, seed=0), seed
        ),
        [_int(8, 12), st.just(4), _int(0, 10)],
        _check_code,
    ),
    "build_nested": (
        build_nested,
        [_int(8, 64), _real(0.5, 1.0), _real(0.1, 0.5), _int(0, 10)],
        _check_nested,
    ),
    "stein_sweep": (
        stein_sweep,
        [_real(0.05, 0.5), _UNIT, _real(0.0, 0.05), _real(0.0, 0.05),
         _int(1, 2)],
        _check_sweep,
    ),
    "tradeoff_curve": (
        lambda scheme, rate, res, a_pts, alpha_pts: tradeoff_curve(
            scheme, _H, rate, resolution=res, a_points=a_pts,
            alpha_points=alpha_pts,
        ),
        [st.sampled_from(SCHEMES), _UNIT, _int(2, 4), _int(1, 3),
         _int(1, 3)],
        _check_curve,
    ),
    "weight_difference_exponent": (
        weight_difference_exponent,
        [_UNIT, _real(0.0, 0.5), _real(0.0, 0.5), _real(-0.5, 0.5)],
        _check_weight_difference,
    ),
    "curve_value_at": (
        lambda e0: curve_value_at(_CURVE, e0),
        [_real(0.0, 0.2)],
        _check_value,
    ),
    # p0 = frac * p1, with the cells p0 in {0, p1} and rate in {0, 1}
    "stein_columns": (
        lambda p1, frac, rate: stein_columns(
            HypothesisPair(_times(frac, p1), p1), rate
        ),
        [_real(0.0, 0.5), st.sampled_from([0.0, 1.0]) | _UNIT,
         st.sampled_from([0.0, 1.0]) | _UNIT],
        _check_columns,
    ),
    "binary_entropy": (binary_entropy, [_UNIT], _check_unit),
    "binary_divergence": (
        binary_divergence, [_UNIT, _UNIT], _check_divergence,
    ),
    "binary_convolution": (binary_convolution, [_UNIT, _UNIT], _check_unit),
    "inverse_binary_entropy": (
        inverse_binary_entropy, [_UNIT], _check_unit,
    ),
    "gv_distance": (gv_distance, [_UNIT], _check_unit),
    "mixed_weight_exponent": (
        mixed_weight_exponent, [_UNIT] * 4, _check_sphere,
    ),
    "type_noise_ball_exponent": (
        type_noise_ball_exponent, [_UNIT] * 4, _check_sphere,
    ),
    "ball_noise_ball_exponent": (
        ball_noise_ball_exponent,
        [_UNIT, _real(0.0, 0.5), _UNIT, _UNIT],
        _check_sphere,
    ),
    "random_coding_exponent": (
        random_coding_exponent, [_real(0.0, 0.5), _UNIT],
        _check_nonnegative,
    ),
    "expurgated_exponent": (
        expurgated_exponent, [_real(0.0, 0.5), _UNIT], _check_nonnegative,
    ),
    "best_channel_exponent": (
        best_channel_exponent, [_real(0.0, 0.5), _UNIT],
        _check_nonnegative,
    ),
    "HypothesisPair": (
        HypothesisPair, [_real(0.0, 0.1), _real(0.1, 0.5)],
        _check_hypotheses,
    ),
    "SchemeParams": (
        SchemeParams, [_real(0.0, 0.1), _UNIT, _real(0.0, 0.5)],
        _check_params,
    ),
    "unconstrained_pair": (
        lambda p0, p1, theta: unconstrained_pair(
            HypothesisPair(p0, p1), theta
        ),
        [_real(0.0, 0.05), _real(0.2, 0.5), _real(0.06, 0.19)],
        _check_pair,
    ),
    "baseline_pair": (
        lambda p0, p1, rate, theta: baseline_pair(
            HypothesisPair(p0, p1), rate, theta
        ),
        [_real(0.0, 0.05), _real(0.2, 0.5), _UNIT, _real(0.06, 0.19)],
        _check_pair,
    ),
    # a <= 0.05 keeps [a * p0, a * p1] around [0.1, 0.3]
    "one_sided_pair": (
        lambda p0, p1, a, theta, rate_x: one_sided_pair(
            HypothesisPair(p0, p1), SchemeParams(a, theta, rate_x)
        ),
        [_real(0.0, 0.05), _real(0.3, 0.5), _real(0.0, 0.05),
         _real(0.1, 0.3), _real(0.0, 0.5)],
        _check_pair,
    ),
    "symmetric_pair": (
        lambda p0, p1, rate, theta: symmetric_pair(
            HypothesisPair(p0, p1), rate, theta
        ),
        [_real(0.0, 0.05), _real(0.3, 0.5), _UNIT, _real(0.1, 0.3)],
        _check_pair,
    ),
    "SimConfig": (
        lambda n, trials, seed, theta: SimConfig(n, trials, seed, _H, theta),
        [_int(1, 64), _int(1, 100), _int(0, 10), _UNIT],
        _check_config,
    ),
    "gen_dsbs": (gen_dsbs, [_int(1, 64), _UNIT, _int(0, 10)], _check_words),
    "exact_mixed_noise_pmf": (
        exact_mixed_noise_pmf,
        [_int(4, 12), _int(0, 4), _int(0, 4), _int(0, 4), _UNIT],
        _check_unit,
    ),
    "np_exact_errors": (
        np_exact_errors, [_int(1, 30), _UNIT, _UNIT, _UNIT], _check_errors,
    ),
    "enumerate_mixed_noise_pmf": (
        enumerate_mixed_noise_pmf,
        [_int(4, 8), _int(0, 4), _int(0, 4), _UNIT],
        _check_pmf,
    ),
}


@st.composite
def _api_calls(draw):
    name = draw(st.sampled_from(sorted(_CALLS)))
    args = [draw(s) for s in _CALLS[name][1]]
    planted = draw(st.booleans())
    if planted:
        slot = draw(st.integers(0, len(args) - 1))
        args[slot] = draw(st.sampled_from(_EDGES))
    return name, tuple(args), planted


def _planted(name, *args):
    return example((name, args, True))


@settings(max_examples=300, deadline=None)
@given(_api_calls())
@_planted("BitMatrix", 1, 2.5, 1)
@_planted("BitMatrix", 1, 65, 1)
@_planted("BitMatrix.from_rows", 3, 2.5)
@_planted("build_nested", math.nan, 1.0, 0.5, 0)
@_planted("build_nested", 70, 0.9, 0.8, 0)
@_planted("sample_random_linear_code", 70, 3, 0)
@_planted("stein_sweep", 0.25, 0.3, 0.01, 0.02, 2.5)
@_planted("stein_sweep", 0.25, 0.3, 0.01, 0.02, -1)
@_planted("tradeoff_curve", "one_sided", 0.3, 2.5, 2, 2)
@_planted("tradeoff_curve", "one_sided", 0.3, 3, 0, 2)
@_planted("tradeoff_curve", "symmetric", 0.3, 3, 2, 0)
@_planted("weight_difference_exponent", 0.1, math.nan, 0.2, 0.0)
@_planted("weight_difference_exponent", 0.1, 0.2, math.nan, 0.0)
@_planted("weight_difference_exponent", 0.1, 0.2, 0.2, math.nan)
@_planted("curve_value_at", math.nan)
# arguments that are not numbers
@_planted("binary_entropy", None)
@_planted("binary_divergence", "0.1", 0.2)
@_planted("gv_distance", "0.3")
@_planted("HypothesisPair", "0.1", 0.2)
@_planted("SchemeParams", "0.05", 0.08, 0.3)
@_planted("unconstrained_pair", 0.01, 0.25, "0.1")
@_planted("stein_sweep", 0.25, "0.3", 0.01, 0.02, 1)
@_planted("stein_sweep", 0.25, 0.3, "0.01", 0.02, 1)
@_planted("tradeoff_curve", "symmetric", None, 3, 2, 2)
@_planted("tradeoff_curve", np.array([0.1, 0.2]), 0.3, 3, 2, 2)
@_planted("curve_value_at", "0.1")
@_planted("weight_difference_exponent", "0.1", 0.2, 0.2, 0.0)
@_planted("mixed_weight_exponent", None, 0.1, 0.1, 0.1)
@_planted("best_channel_exponent", 0.1, "0.2")
@_planted("build_nested", 16, "0.9", 0.5, 0)
@_planted("SimConfig", 8, 10, 0, "0.1")
@_planted("gen_dsbs", 8, "0.1", 0)
@_planted("gen_dsbs", 8, 0.1, "0")
@_planted("exact_mixed_noise_pmf", 10, 2, 3, 4, "0.1")
@_planted("np_exact_errors", 10, 0.1, 0.2, "0.5")
@_planted("enumerate_mixed_noise_pmf", 6, 2, 3, None)
@_planted("binary_convolution", 0.1, np.array([0.1, 0.2]))
@_planted("baseline_pair", 0.01, 0.25, 1j, 0.1)
@_planted("one_sided_pair", 0.01, 0.3, [0.1], 0.2, 0.3)
# seeds numpy refuses: each is a ParameterError, as in gen_dsbs
@_planted("sample_random_linear_code", 16, 4, math.nan)
@_planted("improve_covering", 12, 4, "x")
@_planted("build_nested", 16, 0.9, 0.5, -1)
@_planted("gen_dsbs", 8, 0.1, math.nan)
# narrow numpy counts in range, which wrapped in the count arithmetic
@example(("np_exact_errors", (np.uint8(2), 0.0, 0.0, 0.0), False))
@example(("exact_mixed_noise_pmf", (np.uint8(10), 2, np.uint8(3), 4, 0.1),
          False))
def test_public_api_gives_finite_values_or_parameter_error(call):
    name, args, planted = call
    fn, _, check = _CALLS[name]
    try:
        out = fn(*args)
    except (ParameterError, ResourceLimitError):
        assert planted, f"{name}{args} refused"
        return
    check(out, *args)


def test_complex_numbers_and_arrays_are_not_numbers():
    # numpy orders a complex by its real part and a one-entry array by
    # its entry, so both passed the comparison with a range
    calls = [
        lambda: binary_entropy(np.complex128(0.1 + 0.5j)),
        lambda: binary_entropy(np.array([0.1])),
        lambda: HypothesisPair(np.array([0.1]), 0.25),
        lambda: gen_dsbs(8, np.complex128(0.1)),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="is not a number"):
            call()


def test_seeds_numpy_refuses_are_parameter_errors():
    code = sample_random_linear_code(12, 6, seed=0)
    calls = [
        lambda seed: sample_random_linear_code(12, 6, seed),
        lambda seed: improve_covering(code, seed),
        lambda seed: build_nested(12, 0.75, 0.5, seed),
        lambda seed: gen_dsbs(8, 0.1, seed),
    ]
    for call in calls:
        for seed in (math.nan, "x", -1, 2.5):
            with pytest.raises(ParameterError, match="is not a seed"):
                call(seed)


def test_numbers_accepted_before_still_pass():
    # anything that compares as a number passes the range checks, with
    # the value a float gives, and the unit checks keep their slack
    params = SchemeParams(Decimal("0.05"), 0.08, 0.3)
    assert one_sided_pair(_H, params) == one_sided_pair(
        _H, SchemeParams(0.05, 0.08, 0.3)
    )
    assert exact_mixed_noise_pmf(10, 2, 3, 4, np.array(0.25)) == (
        exact_mixed_noise_pmf(10, 2, 3, 4, 0.25)
    )
    assert unconstrained_pair(_H, Decimal("0.1")) == (
        unconstrained_pair(_H, 0.1)
    )
    assert binary_entropy(np.float64(0.25)) == binary_entropy(0.25)
    assert binary_entropy(-DOMAIN_TOL / 2) == 0.0
    assert gv_distance(1.0 + DOMAIN_TOL / 2) == 0.0
    assert mixed_weight_exponent(0.1, -DOMAIN_TOL / 2, 0.0, 0.1) == (
        mixed_weight_exponent(0.1, 0.0, 0.0, 0.1)
    )


@settings(max_examples=150, deadline=None)
@given(
    p0=st.floats(0.0, 0.5, exclude_max=True),
    gap=st.floats(0.0, 1.0, exclude_min=True),
    frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    rates=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
)
def test_symmetric_pair_below_unconstrained_and_rising_in_rate(
        p0, gap, frac, rates):
    p1 = p0 + gap * (0.5 - p0)
    theta = p0 + frac * (p1 - p0)
    assume(p0 < theta < p1)
    h = HypothesisPair(p0, p1)
    ref = unconstrained_pair(h, theta)
    lo, hi = (symmetric_pair(h, rate, theta) for rate in sorted(rates))
    # The coded e0 is d(theta || p0) read at 1 - theta, which moves
    # theta by up to 2^-54; e0's slope in theta is log2(theta (1 - p0) /
    # (p0 (1 - theta))), up to about 1075 bits near the underflow limit.
    # So e0 can sit up to 6e-14 above the reference (5.4e-14 seen), not
    # only the few ulps of 1 bit of `_ordered`, and it grows to hundreds
    # of bits.  Hence a slack of 1e-13 relative to max(1 bit, e).
    assert hi.e0 <= ref.e0 + 1e-13 * max(1.0, ref.e0)
    assert hi.e1 <= ref.e1 + 1e-13 * max(1.0, ref.e1)
    # more rate never hurts, and here it holds exactly
    assert lo.e0 <= hi.e0 and lo.e1 <= hi.e1
