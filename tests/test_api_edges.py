"""Edge fuzz of the public library API.

Each call draws the integer and range arguments of one entry point
from their valid ranges, and half the calls then replace one argument
by an edge value: out of range, not an integer, not a number, one past
the 64-bit word, subnormal, or a numpy integer.  Every call must give
finite values or a `ParameterError`; no draw comes near a work or table
bound, so no other refusal is due.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from bindht import (
    BitMatrix,
    HypothesisPair,
    build_nested,
    curve_value_at,
    sample_random_linear_code,
    stein_columns,
    stein_sweep,
    tradeoff_curve,
    weight_difference_exponent,
)
from bindht.errors import ParameterError
from bindht.gf2 import syndromes
from bindht.regions import SCHEMES

_EDGES = [
    0, -1, 2.5, math.nan, math.inf, -math.inf, 65, 1e-320,
    np.int64(3), np.uint8(2), np.int16(-1),
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


def _check_columns(cols, *args):
    assert _finite(*cols.values()) and _ordered(cols)


_UNIT = st.floats(0.0, 1.0)

#: name: (call, valid strategy per argument, check of the result)
_CALLS = {
    "BitMatrix": (
        lambda rows, cols, row: BitMatrix(rows, cols, (row,)),
        [st.just(1), st.integers(1, 64), st.integers(0, 1)],
        _check_matrix,
    ),
    "BitMatrix.from_rows": (
        lambda cols, row: BitMatrix.from_rows([row], cols),
        [st.integers(1, 64), st.integers(0, 1)],
        _check_matrix,
    ),
    "sample_random_linear_code": (
        lambda n, k: sample_random_linear_code(n, k, seed=0),
        [st.integers(8, 64), st.integers(1, 8)],
        _check_code,
    ),
    "build_nested": (
        lambda n, fine, coarse: build_nested(n, fine, coarse, seed=0),
        [st.integers(8, 64), st.floats(0.5, 1.0), st.floats(0.1, 0.5)],
        _check_nested,
    ),
    "stein_sweep": (
        stein_sweep,
        [st.floats(0.05, 0.5), _UNIT, st.floats(0.0, 0.05),
         st.floats(0.0, 0.05), st.integers(1, 2)],
        _check_sweep,
    ),
    "tradeoff_curve": (
        lambda scheme, rate, res, a_pts, alpha_pts: tradeoff_curve(
            scheme, HypothesisPair(0.01, 0.25), rate, resolution=res,
            a_points=a_pts, alpha_points=alpha_pts,
        ),
        [st.sampled_from(SCHEMES), _UNIT, st.integers(2, 4),
         st.integers(1, 3), st.integers(1, 3)],
        _check_curve,
    ),
    "weight_difference_exponent": (
        weight_difference_exponent,
        [_UNIT, st.floats(0.0, 0.5), st.floats(0.0, 0.5),
         st.floats(-0.5, 0.5)],
        _check_weight_difference,
    ),
    "curve_value_at": (
        lambda e0: curve_value_at(_CURVE, e0),
        [st.floats(0.0, 0.2)],
        _check_value,
    ),
    # p0 = frac * p1, with the cells p0 in {0, p1} and rate in {0, 1}
    "stein_columns": (
        lambda p1, frac, rate: stein_columns(
            HypothesisPair(frac * p1, p1), rate
        ),
        [st.floats(0.0, 0.5), st.sampled_from([0.0, 1.0]) | _UNIT,
         st.sampled_from([0.0, 1.0]) | _UNIT],
        _check_columns,
    ),
}


@st.composite
def _api_calls(draw):
    name = draw(st.sampled_from(sorted(_CALLS)))
    args = [draw(s) for s in _CALLS[name][1]]
    if draw(st.booleans()):
        slot = draw(st.integers(0, len(args) - 1))
        args[slot] = draw(st.sampled_from(_EDGES))
    return name, tuple(args)


@settings(max_examples=150, deadline=None)
@given(_api_calls())
@example(("BitMatrix", (1, 2.5, 1)))
@example(("BitMatrix", (1, 65, 1)))
@example(("BitMatrix.from_rows", (3, 2.5)))
@example(("build_nested", (math.nan, 1.0, 0.5)))
@example(("build_nested", (70, 0.9, 0.8)))
@example(("sample_random_linear_code", (70, 3)))
@example(("stein_sweep", (0.25, 0.3, 0.01, 0.02, 2.5)))
@example(("stein_sweep", (0.25, 0.3, 0.01, 0.02, -1)))
@example(("tradeoff_curve", ("one_sided", 0.3, 2.5, 2, 2)))
@example(("tradeoff_curve", ("one_sided", 0.3, 3, 0, 2)))
@example(("tradeoff_curve", ("symmetric", 0.3, 3, 2, 0)))
@example(("weight_difference_exponent", (0.1, math.nan, 0.2, 0.0)))
@example(("weight_difference_exponent", (0.1, 0.2, math.nan, 0.0)))
@example(("weight_difference_exponent", (0.1, 0.2, 0.2, math.nan)))
@example(("curve_value_at", (math.nan,)))
def test_public_api_gives_finite_values_or_parameter_error(call):
    name, args = call
    fn, _, check = _CALLS[name]
    try:
        out = fn(*args)
    except ParameterError:
        return
    check(out, *args)
