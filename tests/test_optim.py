"""Elementwise golden section: degenerate brackets and mixed row sets."""

import numpy as np
import pytest

from bindht.optim import golden_min_vec


def _counted(fn):
    calls = []

    def wrapped(x):
        calls.append(np.array(x, copy=True))
        return fn(x)

    return wrapped, calls


def _bowl(x):
    return (x - 0.3) ** 2 + 1.0


def test_all_degenerate_intervals_evaluate_once():
    lo = np.array([0.1, 0.25, 0.7])
    fn, calls = _counted(lambda x: x * x - x)
    x, f = golden_min_vec(fn, lo, lo.copy(), iters=20)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], lo)
    np.testing.assert_array_equal(x, lo)
    np.testing.assert_array_equal(f, lo * lo - lo)


def test_reversed_interval_collapses_to_midpoint():
    fn, calls = _counted(lambda x: 3.0 * x)
    x, f = golden_min_vec(fn, np.array([0.6]), np.array([0.2]))
    assert len(calls) == 1
    assert x[0] == pytest.approx(0.4, abs=1e-15)
    assert f[0] == pytest.approx(1.2, abs=1e-15)


def test_mixed_intervals_search_open_rows_and_keep_degenerate_ones():
    # Open rows run the full search (two starting probes, one per
    # iteration, two endpoints); degenerate rows, evaluated alongside,
    # return their single point, exactly as a degenerate-only call does.
    lo = np.array([0.0, 0.45, -1.0, 0.8])
    hi = np.array([1.0, 0.45, 2.0, 0.8])
    fn, calls = _counted(_bowl)
    x, f = golden_min_vec(fn, lo, hi, iters=48)
    assert len(calls) == 48 + 4
    open_rows = hi > lo
    assert np.all(np.abs(x[open_rows] - 0.3) < 1e-7)
    np.testing.assert_array_equal(f[~open_rows], _bowl(lo[~open_rows]))
    np.testing.assert_array_equal(x[~open_rows], lo[~open_rows])
    _, f_deg = golden_min_vec(_bowl, lo[~open_rows], hi[~open_rows])
    np.testing.assert_array_equal(f_deg, f[~open_rows])
    x_open, f_open = golden_min_vec(_bowl, lo[open_rows], hi[open_rows])
    np.testing.assert_array_equal(x_open, x[open_rows])
    np.testing.assert_array_equal(f_open, f[open_rows])
