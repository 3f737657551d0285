"""Command line behavior through in-process main() calls."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bindht
import bindht.cli
from bindht.cli import PRESETS, main
from bindht.regions import (
    _MAX_CURVE_ROWS,
    SCHEMES,
    HypothesisPair,
    SchemeParams,
    one_sided_pair,
    stein_columns,
    unconstrained_pair,
)
from bindht.simkit import _MAX_TRIALS, TrialRecords


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text, schema):
    lines = text.strip().split("\n")
    assert lines[0] == f"# schema: {schema}"
    headers = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    assert all(len(r) == len(headers) for r in rows)
    return headers, rows


def test_exponents_all_schemes(capsys):
    code, out, err = _run(
        capsys, "exponents", "--p0", "0.01", "--p1", "0.25",
        "--rate", "0.3", "--threshold", "0.1",
    )
    assert code == 0 and err == ""
    headers, rows = _parse_csv(out, "bindht.exponents.v1")
    assert headers == ["scheme", "theta", "e0", "e1"]
    assert [r[0] for r in rows] == list(SCHEMES)
    want = unconstrained_pair(HypothesisPair(0.01, 0.25), 0.1)
    assert float(rows[0][2]) == pytest.approx(want.e0, rel=1e-10)
    assert float(rows[0][3]) == pytest.approx(want.e1, rel=1e-10)


def test_exponents_subnormal_null_crossover(capsys):
    # p0 is subnormal, so the divergence and channel-exponent ratios
    # with p0 in the denominator would overflow; every e0 stays finite
    code, out, err = _run(
        capsys, "exponents", "--p0", "1e-320", "--p1", "0.1",
        "--rate", "0.3", "--threshold", "0.05",
    )
    assert code == 0 and err == ""
    _, rows = _parse_csv(out, "bindht.exponents.v1")
    assert [r[0] for r in rows] == list(SCHEMES)
    assert all(math.isfinite(float(r[2])) for r in rows), rows


def test_exponents_scheme_filter_and_quantization(capsys):
    code, out, _ = _run(
        capsys, "exponents", "--preset", "fig3a", "--threshold", "0.15",
        "--scheme", "one_sided", "--a", "0.05",
    )
    assert code == 0
    _, rows = _parse_csv(out, "bindht.exponents.v1")
    assert len(rows) == 1 and rows[0][0] == "one_sided"
    want = one_sided_pair(
        HypothesisPair(0.01, 0.25),
        SchemeParams(a=0.05, theta=0.15, rate_x=0.3),
    )
    assert float(rows[0][2]) == pytest.approx(want.e0, rel=1e-10)
    assert float(rows[0][3]) == pytest.approx(want.e1, rel=1e-10)


def test_preset_fills_missing_flags(capsys):
    # fig2a fixes p1 and rate; p0 and threshold stay explicit
    code, out, _ = _run(
        capsys, "exponents", "--preset", "fig2a", "--p0", "0.05",
        "--threshold", "0.12", "--scheme", "unconstrained",
    )
    assert code == 0
    _, rows = _parse_csv(out, "bindht.exponents.v1")
    want = unconstrained_pair(HypothesisPair(0.05, 0.25), 0.12)
    assert float(rows[0][2]) == pytest.approx(want.e0, rel=1e-10)


def test_explicit_flag_overrides_preset(capsys):
    code, out, _ = _run(
        capsys, "exponents", "--preset", "fig2a", "--p0", "0.05",
        "--p1", "0.1", "--threshold", "0.08", "--scheme", "unconstrained",
    )
    assert code == 0
    _, rows = _parse_csv(out, "bindht.exponents.v1")
    want = unconstrained_pair(HypothesisPair(0.05, 0.1), 0.08)
    assert float(rows[0][3]) == pytest.approx(want.e1, rel=1e-10)


def test_missing_parameter_is_usage_error(capsys):
    code, out, err = _run(capsys, "exponents", "--p0", "0.01")
    assert code == 2
    assert out == "" and "error:" in err
    code, _, err = _run(
        capsys, "exponents", "--p0", "0.01", "--p1", "0.25", "--rate", "0.3"
    )
    assert code == 2 and "threshold" in err


def test_stein_single_point_matches_library(capsys):
    code, out, _ = _run(
        capsys, "stein", "--preset", "fig2a", "--p0", "0.01",
    )
    assert code == 0
    headers, rows = _parse_csv(out, "bindht.stein.v1")
    assert headers == ["p0", "unconstrained", "one_sided", "prior", "symmetric"]
    assert len(rows) == 1
    cols = stein_columns(HypothesisPair(0.01, 0.25), 0.3)
    assert float(rows[0][1]) == pytest.approx(cols["unconstrained"], rel=1e-10)
    assert float(rows[0][2]) == pytest.approx(cols["new"], rel=1e-10)
    assert float(rows[0][3]) == pytest.approx(cols["prior"], rel=1e-10)
    assert float(rows[0][4]) == pytest.approx(cols["symmetric"], rel=1e-10)


def test_stein_range_sweep_row_count(capsys):
    code, out, _ = _run(
        capsys, "stein", "--preset", "fig2b", "--p0", "0.005:0.02",
        "--resolution", "4",
    )
    assert code == 0
    _, rows = _parse_csv(out, "bindht.stein.v1")
    assert [float(r[0]) for r in rows] == pytest.approx(
        [0.005, 0.01, 0.015, 0.02]
    )


@pytest.mark.parametrize(
    "text", ["1:2:3", "abc", "0.01:", ":0.02", "1e-2:abc", "0.01:0.02:0.03"]
)
def test_bad_sweep_spec(capsys, text):
    # text that is not one float or two is refused by name, without a
    # traceback
    code, out, err = _run(capsys, "stein", "--preset", "fig2a", "--p0", text)
    assert code == 2 and out == ""
    assert err == (
        f"error: cannot parse sweep {text!r}, use VALUE or LO:HI\n"
    )


@pytest.mark.parametrize("command", ["stein", "tradeoff"])
@pytest.mark.parametrize("rate", ["1.5", "-0.1"])
def test_rate_outside_unit_interval_is_usage_error(capsys, command, rate):
    preset = ["fig2a", "--p0", "0.01"] if command == "stein" else ["fig3b"]
    code, out, err = _run(
        capsys, command, "--rate", rate, "--resolution", "3",
        "--preset", *preset,
    )
    assert code == 2 and out == ""
    assert f"rate={float(rate)!r} outside [0, 1]" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rate", ["inf", "nan", "1.5"])
@pytest.mark.parametrize("argv", [
    ["stein", "--p0", "0.01", "--p1", "0.25"],
    ["exponents", "--scheme", "baseline", "--threshold", "0.2",
     "--p0", "0.1", "--p1", "0.3"],
    ["exponents", "--scheme", "one_sided", "--threshold", "0.2",
     "--p0", "0.1", "--p1", "0.3"],
    ["exponents", "--scheme", "symmetric", "--threshold", "0.2",
     "--p0", "0.1", "--p1", "0.3"],
    ["simulate", "--preset", "fig3a", "--threshold", "0.1", "--n", "15",
     "--trials", "10"],
], ids=["stein", "exponents-baseline", "exponents-one_sided",
        "exponents-symmetric", "simulate"])
def test_rate_checked_before_use(capsys, argv, rate):
    # the error names the --rate flag, and no grid is built from a bad rate
    code, out, err = _run(capsys, *argv, "--rate", rate)
    assert code == 2 and out == ""
    assert err == f"error: rate={float(rate)!r} outside [0, 1]\n"


@pytest.mark.parametrize("theta", ["0.01", "0.25"])
@pytest.mark.parametrize("scheme", ["unconstrained", "baseline"])
def test_reference_threshold_at_p0_or_p1_names_open_interval(
        capsys, scheme, theta):
    # the reference schemes need p0 < theta < p1, so either end is refused
    code, out, err = _run(
        capsys, "exponents", "--scheme", scheme, "--threshold", theta,
        "--p0", "0.01", "--p1", "0.25", "--rate", "0.3",
    )
    assert code == 2 and out == ""
    assert err == (
        f"error: theta={theta} outside the open interval (0.01, 0.25)\n"
    )


@pytest.mark.parametrize("scheme", ["unconstrained", "baseline"])
def test_reference_curve_at_equal_p_names_p0_and_p1(capsys, scheme):
    # the threshold grid of a reference curve lies strictly between p0
    # and p1, so p0 = p1 leaves it empty
    code, out, err = _run(
        capsys, "tradeoff", "--p0", "0.1", "--p1", "0.1", "--rate", "0.3",
        "--scheme", scheme,
    )
    assert code == 2 and out == ""
    assert err == f"error: {scheme} curve needs p0 < p1, got p0=0.1, p1=0.1\n"


@pytest.mark.parametrize("scheme", ["unconstrained", "baseline"])
def test_reference_curve_at_ulp_gap_is_usage_error(capsys, scheme):
    # a gap of one ulp leaves no threshold strictly between p0 and p1;
    # the sweep used to land on p0 and p1 themselves
    code, out, err = _run(
        capsys, "tradeoff", "--p0", "0.1", "--p1", "0.10000000000000002",
        "--rate", "0.3", "--scheme", scheme, "--resolution", "3",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "p0=0.1 " in err and "p1=0.10000000000000002" in err


@pytest.mark.parametrize("gap", [1e-7, 2e-6])
@pytest.mark.parametrize("scheme", ["unconstrained", "baseline"])
def test_reference_curve_at_narrow_gap_stays_inside(capsys, scheme, gap):
    # the threshold offset shrinks with p1 - p0, so the sweep never
    # leaves the open interval, however close p0 and p1 are
    p0, p1 = 0.1, 0.1 + gap
    code, out, err = _run(
        capsys, "tradeoff", "--p0", "0.1", "--p1", repr(p1), "--rate", "0.3",
        "--scheme", scheme, "--resolution", "5",
    )
    assert code == 0 and err == ""
    assert "nan" not in out
    _, rows = _parse_csv(out, "bindht.tradeoff.v1")
    thetas = [float(r[3]) for r in rows]
    assert len(thetas) == 5
    assert p0 < thetas[0] and thetas[-1] < p1
    assert all(a < b for a, b in zip(thetas, thetas[1:]))


@pytest.mark.parametrize("rate", ["0", "1"])
@pytest.mark.parametrize("p0", ["0", "1e-320"])
@pytest.mark.parametrize("scheme", ["unconstrained", "baseline"])
@pytest.mark.parametrize("command", ["tradeoff", "exponents"])
def test_reference_schemes_at_input_edges(capsys, command, scheme, p0, rate):
    # a degenerate or subnormal p0 and a rate at either end give finite
    # or infinite exponents, never NaN, or a one-line usage error
    if command == "tradeoff":
        extra = ["--resolution", "7"]
    else:
        extra = ["--threshold", "0.25"]
    code, out, err = _run(
        capsys, command, "--p0", p0, "--p1", "0.5", "--rate", rate,
        "--scheme", scheme, *extra,
    )
    if code == 0:
        assert err == "" and "nan" not in out
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


_EDGES = (0.0, 0.5, 1.0, 1e-320, math.nan, math.inf, -math.inf, -0.1, -1e-320)


@st.composite
def _exponents_flags(draw):
    """Flags from their valid ranges, a drawn subset of them then
    replaced by edge values."""
    p0, p1 = sorted([draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5))])
    flags = {
        "p0": p0, "p1": p1, "rate": draw(st.floats(0.0, 1.0)),
        "threshold": draw(st.floats(p0, p1)), "a": draw(st.floats(0.0, 0.5)),
    }
    for key in draw(st.sets(st.sampled_from(sorted(flags)))):
        flags[key] = draw(st.sampled_from(_EDGES))
    return flags


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    flags=_exponents_flags(),
    schemes=st.lists(st.sampled_from(SCHEMES), max_size=2),
)
def test_exponents_fuzz_ends_in_table_or_usage_error(flags, schemes):
    # valid draws and edge values alike end in a table of non-negative,
    # non-NaN exponents (exit 0) or a one-line message (exit 2)
    argv = ["exponents", *(f"--{k}={v!r}" for k, v in flags.items())]
    argv += [f"--scheme={s}" for s in schemes]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        _, rows = _parse_csv(out.getvalue(), "bindht.exponents.v1")
        for row in rows:
            e0, e1 = float(row[2]), float(row[3])
            assert e0 >= 0.0 and e1 >= 0.0, (argv, row)
    else:
        assert code == 2 and out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


@st.composite
def _simulate_flags(draw):
    """simulate flags from their valid ranges, a drawn subset of them
    then replaced by edge values.  n stays at most 16 and trials at most
    30, so every run is small; the trial bound is only met as a refusal."""
    p0, p1 = sorted([draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5))])
    flags = {
        "p0": p0, "p1": p1, "rate": draw(st.floats(0.0, 1.0)),
        "threshold": draw(st.floats(0.0, 1.0)), "a": draw(st.floats(0.0, 0.5)),
        "n": draw(st.integers(1, 16)), "trials": draw(st.integers(1, 30)),
        "seed": draw(st.integers(0, 2**64)),
    }
    # argparse refuses the non-integer edges of n, trials and seed
    int_edges = {"n": (0, 1, -1), "trials": (0, 1, -1, _MAX_TRIALS + 1),
                 "seed": (0, 1, -1)}
    for key in draw(st.sets(st.sampled_from(sorted(flags)))):
        flags[key] = draw(st.sampled_from(int_edges.get(key, ()) + _EDGES))
    return flags


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    flags=_simulate_flags(),
    scheme=st.sampled_from(["one_sided", "korner_marton"]),
)
def test_simulate_fuzz_ends_in_table_or_usage_error(flags, scheme):
    # valid draws and edge values alike end in one summary row of rates
    # in [0, 1] (exit 0) or in exit 2 with one error line and no traceback
    argv = ["simulate", *(f"--{k}={v!r}" for k, v in flags.items())]
    argv.append(f"--scheme={scheme}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a non-integer count
            code = exc.code
    if code == 0:
        assert err.getvalue() == ""
        headers, rows = _parse_csv(out.getvalue(), "bindht.simulate.v1")
        assert len(rows) == 1
        row = dict(zip(headers, rows[0]))
        for key in ("eps0", "eps1", "bin_rate0", "bin_rate1"):
            assert 0.0 <= float(row[key]) <= 1.0, (argv, row)
        for key in ("exponent0", "exponent1"):
            assert float(row[key]) >= 0.0, (argv, row)
    else:
        assert code == 2 and out.getvalue() == "", argv
        text = err.getvalue()
        assert text.startswith(("error: ", "usage: ")) and "Traceback" not in text
        # one error line; argparse puts its usage lines above it
        lines = text.splitlines()
        assert [ln for ln in lines if "error: " in ln] == lines[-1:], argv


@st.composite
def _sweep_flags(draw, command):
    """stein or tradeoff flags from their valid ranges, a drawn subset of
    them then replaced by edge values.  stein's p0 is one value or a
    lo:hi range.  Resolutions stay at most 4, and the work bound is only
    met as a refusal, by a resolution above ``_MAX_CURVE_ROWS``."""
    p0, p1 = sorted([draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5))])
    flags = {
        "p0": p0, "p1": p1, "rate": draw(st.floats(0.0, 1.0)),
        "resolution": draw(st.integers(1 if command == "stein" else 2, 4)),
    }
    int_edges = (0, 1, -1, _MAX_CURVE_ROWS + 1)
    for key in draw(st.sets(st.sampled_from(sorted(flags)))):
        edges = int_edges if key == "resolution" else _EDGES
        flags[key] = draw(st.sampled_from(edges))
    flags = {k: repr(v) for k, v in flags.items()}
    if command == "stein" and draw(st.booleans()):
        hi = draw(st.sampled_from((p1, draw(st.floats(0.0, 0.5))) + _EDGES))
        flags["p0"] += f":{hi!r}"
    return flags


def _assert_table_or_usage_error(argv, schema, columns):
    # exit 0 with non-negative, non-NaN exponents in the named columns,
    # or exit 2 with one error line and no traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        headers, rows = _parse_csv(out.getvalue(), schema)
        assert rows, argv
        for row in rows:
            for key in columns:
                assert float(row[headers.index(key)]) >= 0.0, (argv, row)
    else:
        assert code == 2 and out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1, argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(flags=_sweep_flags("stein"))
def test_stein_fuzz_ends_in_table_or_usage_error(flags):
    argv = ["stein", *(f"--{k}={v}" for k, v in flags.items())]
    _assert_table_or_usage_error(
        argv, "bindht.stein.v1",
        ("unconstrained", "one_sided", "prior", "symmetric"),
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    flags=_sweep_flags("tradeoff"),
    schemes=st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=2),
)
def test_tradeoff_fuzz_ends_in_table_or_usage_error(flags, schemes):
    argv = ["tradeoff", *(f"--{k}={v}" for k, v in flags.items())]
    argv += [f"--scheme={s}" for s in schemes]
    _assert_table_or_usage_error(
        argv, "bindht.tradeoff.v1", ("e0", "e1", "a", "alpha")
    )


@pytest.mark.parametrize("resolution", ["0", "-3"])
def test_stein_resolution_below_one_is_usage_error(capsys, resolution):
    code, out, err = _run(
        capsys, "stein", "--preset", "fig2a", "--resolution", resolution,
    )
    assert code == 2 and out == ""
    assert "resolution must be at least 1" in err


def test_jsonl_matches_csv(capsys):
    argv = (
        "exponents", "--p0", "0.01", "--p1", "0.25", "--rate", "0.3",
        "--threshold", "0.1", "--scheme", "symmetric",
    )
    code, csv_out, _ = _run(capsys, *argv, "--format", "csv")
    assert code == 0
    headers, rows = _parse_csv(csv_out, "bindht.exponents.v1")
    code, jl_out, _ = _run(capsys, *argv, "--format", "jsonl")
    assert code == 0
    recs = [json.loads(ln) for ln in jl_out.strip().split("\n")]
    assert len(recs) == len(rows)
    for rec, row in zip(recs, rows):
        assert list(rec) == headers
        assert rec["scheme"] == row[0]
        assert rec["e1"] == pytest.approx(float(row[3]), rel=1e-10)


def test_tradeoff_schema_and_grouping(capsys):
    code, out, _ = _run(
        capsys, "tradeoff", "--preset", "fig3a", "--resolution", "40",
        "--scheme", "baseline", "--scheme", "symmetric",
    )
    assert code == 0
    headers, rows = _parse_csv(out, "bindht.tradeoff.v1")
    assert headers == ["scheme", "e0", "e1", "theta", "a", "alpha"]
    assert set(r[0] for r in rows) == {"baseline", "symmetric"}
    # within each scheme the frontier is sorted by e0 with e1 nonincreasing
    for scheme in ("baseline", "symmetric"):
        pts = [(float(r[1]), float(r[2])) for r in rows if r[0] == scheme]
        assert pts == sorted(pts, key=lambda t: t[0])
        e1s = [e1 for _, e1 in pts]
        assert all(b <= a + 1e-12 for a, b in zip(e1s, e1s[1:]))


#: the command of the benchmark's frontier workload
FRONTIER_ARGV = (
    "tradeoff", "--preset", "fig3b", "--scheme", "one_sided",
    "--scheme", "symmetric", "--resolution", "6",
)

_TABLE_GOLDEN = {
    FRONTIER_ARGV: (
        "55e920dd2223cb6825dd0a5416e696cce601702900b8dbe30ba60df9cadbc5b7",
        "68742fc3db03cc02f518aeca5939f832467c9b1abb095f6538275bcb128cd6bc",
    ),
    ("tradeoff", "--preset", "fig3a"): (
        "36f725496b79e47db6a36d4c63579a910da6eaf244a45337b5cfa8657a00db38",
        "716b1866135ddefb22c4009636a1daa66566e5594368f8c27d4bb39c503e58e7",
    ),
    ("tradeoff", "--preset", "fig3b"): (
        "2c7109746da73f1baebbeba2c07affd5b01d6d54b604b169fa84812f78e84d87",
        "fe57ad52e278bc81d1d9fbedc335823c1a9e01203d9880b744357f89d1dd4e6b",
    ),
    ("stein", "--preset", "fig2a"): (
        "385c683cbb7ed1810c516cf77a92df8137b762944899cd86d89563f41b94f65e",
        "0fd0727b81e6d6eed1f7ee59cc0ecfe32e11b2fb435eeda96016293c86642153",
    ),
    ("stein", "--preset", "fig2b"): (
        "301bef88816ef2e4861cd8160b9a74c2cf3b29534ebe0a25a2471a09844eba2f",
        "e5b26cd8a363f43c99131728e6d332b689b6e09de314b37d33d0c320c100374d",
    ),
    ("exponents", "--preset", "fig3a", "--threshold", "0.04"): (
        "31f293c445f857e6d494f6d0980397a8b5637a4ad771e36cc087126d2bac02db",
        "d78f335cfcd4cbda6237a25a5f661e41db701d8588bef7aaebff3dc5cd252781",
    ),
}


def _sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("argv", sorted(_TABLE_GOLDEN), ids=" ".join)
def test_table_golden_bytes(tmp_path, capsys, argv, fmt):
    # sha256 of the table, taken from the writer that formatted one
    # value at a time; --output writes the same bytes as stdout
    want = _TABLE_GOLDEN[argv][fmt == "jsonl"]
    code, out, err = _run(capsys, *argv, "--format", fmt)
    assert code == 0 and err == ""
    assert _sha256(out) == want
    path = tmp_path / "table"
    code, out, _ = _run(capsys, *argv, "--format", fmt, "--output", str(path))
    assert code == 0 and out == ""
    assert _sha256(path.read_bytes()) == want


def test_tradeoff_rows_written_in_chunks(capsys, monkeypatch):
    # chunks of 7 rows split every curve and the stein columns; every
    # golden table is the same
    monkeypatch.setattr(bindht.cli, "_LINE_CHUNK", 7)
    for argv, shas in _TABLE_GOLDEN.items():
        for fmt, want in zip(("csv", "jsonl"), shas):
            code, out, _ = _run(capsys, *argv, "--format", fmt)
            assert code == 0 and _sha256(out) == want, (argv, fmt)


def test_frontier_argv_makes_one_kernel_call_per_curve(capsys, monkeypatch):
    # each curve's 1,950 or 78 grid rows fit one chunk of rows
    calls = []

    def spy(h, a, thetas, rate_x, _fn=bindht.regions._pair_rows):
        calls.append(np.size(thetas))
        return _fn(h, a, thetas, rate_x)

    monkeypatch.setattr(bindht.regions, "_pair_rows", spy)
    code, _, _ = _run(capsys, *FRONTIER_ARGV)
    assert code == 0 and calls == [1950, 78]


def test_tradeoff_zero_rate_baseline_is_zero(capsys):
    # a zero share sends nothing; at p0 = 0 the full-rate e0 is infinite,
    # and 0 * inf used to print nan
    code, out, err = _run(
        capsys, "tradeoff", "--p0", "0", "--p1", "0.25", "--rate", "0",
        "--scheme", "baseline", "--resolution", "4",
    )
    assert code == 0 and err == ""
    _, rows = _parse_csv(out, "bindht.tradeoff.v1")
    assert len(rows) == 4
    assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)


def test_simulate_deterministic_output(tmp_path, capsys):
    argv = (
        "simulate", "--p0", "0.1", "--p1", "0.35", "--rate", "0.5",
        "--threshold", "0.2", "--n", "10", "--trials", "300", "--seed", "3",
    )
    code, first, err = _run(capsys, *argv)
    assert code == 0 and err == ""
    code, second, _ = _run(capsys, *argv)
    assert first == second
    headers, rows = _parse_csv(first, "bindht.simulate.v1")
    assert len(rows) == 1
    row = dict(zip(headers, rows[0]))
    assert row["scheme"] == "one_sided"
    assert (row["n"], row["trials"], row["seed"]) == ("10", "300", "3")
    assert 0.0 <= float(row["eps0"]) <= 1.0
    assert float(row["ci0_lo"]) <= float(row["eps0"]) <= float(row["ci0_hi"])


def test_simulate_prints_large_seed_in_full(capsys):
    # integer columns print with str; .12g would print 1e+13
    code, out, err = _run(
        capsys, "simulate", "--preset", "fig3a", "--threshold", "0.1",
        "--n", "15", "--trials", "50", "--seed", "10000000000000",
    )
    assert code == 0 and err == ""
    assert _sha256(out) == (
        "ab169af2d9e994027ebcea58d0977262e37f9d7da4c2ab38da13d2cd423730c7"
    )
    headers, rows = _parse_csv(out, "bindht.simulate.v1")
    assert dict(zip(headers, rows[0]))["seed"] == "10000000000000"


def test_simulate_trial_stream(tmp_path, capsys):
    stream = tmp_path / "trials.jsonl"
    out_file = tmp_path / "agg.csv"
    argv = (
        "simulate", "--p0", "0.1", "--p1", "0.35", "--rate", "0.5",
        "--threshold", "0.2", "--n", "10", "--trials", "200",
        "--scheme", "korner_marton",
        "--trial-stream", str(stream), "--output", str(out_file),
    )
    code, out, _ = _run(capsys, *argv)
    assert code == 0 and out == ""
    lines = stream.read_text().strip().split("\n")
    assert len(lines) == 400
    recs = [json.loads(ln) for ln in lines]
    assert [r["hyp"] for r in recs] == [0] * 200 + [1] * 200
    assert all(
        set(r) == {"hyp", "bin_error", "decided", "noise_weight",
                   "decoded_weight"}
        for r in recs
    )
    # aggregate decided counts must match the streamed records
    headers, rows = _parse_csv(
        out_file.read_text(), "bindht.simulate.v1"
    )
    row = dict(zip(headers, rows[0]))
    eps0 = sum(r["decided"] for r in recs[:200]) / 200
    assert float(row["eps0"]) == pytest.approx(eps0, abs=1e-12)


def test_trial_line_matches_json_dumps():
    # every normalized weight k/n for blocklengths 1, 27 and 64, in both
    # record slots, with both values of every flag
    for n in (1, 27, 64):
        k = np.arange(n + 1, dtype=np.uint8)
        for hyp, err, dec in ((0, False, 0), (1, True, 1)):
            records = TrialRecords(
                n,
                hypothesis=np.full(n + 1, hyp, dtype=np.uint8),
                bin_error=np.full(n + 1, err),
                decided=np.full(n + 1, bool(dec)),
                noise_weight=k,
                decoded_weight=n - k,
            )
            want = [
                json.dumps({
                    "hyp": hyp,
                    "bin_error": int(err),
                    "decided": dec,
                    "noise_weight": round(j / n, 12),
                    "decoded_weight": round((n - j) / n, 12),
                }) + "\n"
                for j in range(n + 1)
            ]
            assert "".join(bindht.cli._trial_lines(records)) == "".join(want)


# pinned on the word-level draws of simkit; every printed rate of both
# runs lies within 2.3 binomial sd of its exact value from
# tests/exact_codes.py
_SIM_GOLDEN = {
    "one_sided": (
        ("--n", "27", "--a", "0.05", "--rate", "0.3", "--seed", "5"),
        "ae555ed0dcb2a739cac14ce9967a1dba0f74801c87745ca059cbd4f7e6adfa88",
        "51306fed9eb42800f2c97cce6bc747e93dd63c54eb5dbeae353901bb0594a5bb",
    ),
    "korner_marton": (
        ("--scheme", "korner_marton", "--n", "23", "--rate", "0.6",
         "--seed", "4"),
        "5aeaddf77c6cf297bbba2a30f54c171c1d9050d8f1ce057fb07a6cb25acb300b",
        "b12dabdaf6645043e7105084fbe04c9b8864095f876cf6c2d9eb1c8e9376fe85",
    ),
}


@pytest.mark.parametrize("scheme", sorted(_SIM_GOLDEN))
def test_simulate_golden_bytes(tmp_path, capsys, monkeypatch, scheme):
    # sha256 of stdout and of the trial stream, taken from the per-row
    # syndrome loop and one f-string per trial record; chunks of 7
    # records must give the same stream, since the table of formatted
    # lines carries across chunks
    flags, out_sha, stream_sha = _SIM_GOLDEN[scheme]
    stream = tmp_path / "trials.jsonl"
    argv = (
        "simulate", "--preset", "fig3a", "--threshold", "0.1",
        "--trials", "2000", *flags, "--trial-stream", str(stream),
    )
    for chunk in (bindht.cli._LINE_CHUNK, 7):
        monkeypatch.setattr(bindht.cli, "_LINE_CHUNK", chunk)
        code, out, err = _run(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha
        assert hashlib.sha256(stream.read_bytes()).hexdigest() == stream_sha


def test_simulate_certain_miss_prints_zero_exponent(capsys):
    # no decoded weight at n = 64 reaches the threshold, so every
    # alternative trial is missed: eps1 = 1 and its exponent reads 0
    code, out, err = _run(
        capsys, "simulate", "--preset", "fig3a", "--scheme", "korner_marton",
        "--a", "0", "--threshold", "0.1", "--n", "64", "--trials", "5",
        "--seed", "1",
    )
    assert code == 0 and err == ""
    headers, rows = _parse_csv(out, "bindht.simulate.v1")
    row = dict(zip(headers, rows[0]))
    assert (row["eps1"], row["exponent1"]) == ("1", "0")


def test_simulate_rejects_huge_trial_count(capsys):
    # refused when the config is built, before any code or draw
    code, out, err = _run(
        capsys, "simulate", "--p0", "0.1", "--p1", "0.35", "--rate", "0.3",
        "--threshold", "0.2", "--n", "10",
        "--trials", str(100 * _MAX_TRIALS),
    )
    assert code == 2 and out == "" and "error:" in err


def test_stein_rejects_huge_resolution(capsys):
    # refused before the p0 grid is built or any level is evaluated
    code, out, err = _run(
        capsys, "stein", "--preset", "fig2a", "--resolution", str(10 ** 12),
    )
    assert code == 2 and out == "" and "above the limit" in err


def test_tradeoff_rejects_huge_resolution(capsys):
    # refused before any grid point is built or evaluated
    code, out, err = _run(
        capsys, "tradeoff", "--preset", "fig3b", "--scheme", "one_sided",
        "--resolution", str(_MAX_CURVE_ROWS),
    )
    assert code == 2 and out == "" and "above the limit" in err


def test_simulate_korner_marton_rejects_quantization(capsys):
    code, _, err = _run(
        capsys, "simulate", "--p0", "0.1", "--p1", "0.35", "--rate", "0.3",
        "--threshold", "0.2", "--n", "10", "--trials", "10",
        "--a", "0.2", "--scheme", "korner_marton",
    )
    assert code == 2 and "error:" in err


def test_simulate_korner_marton_names_the_quantization_refusal(capsys):
    code, out, err = _run(
        capsys, "simulate", "--preset", "fig3a", "--threshold", "0.1",
        "--n", "10", "--trials", "10", "--scheme", "korner_marton",
        "--a", "0.05",
    )
    assert code == 2 and out == ""
    assert err == "error: the symmetric scheme has no quantization step\n"


@pytest.mark.parametrize("second", ["korner_marton", "one_sided"])
def test_simulate_refuses_a_second_scheme(capsys, second):
    # one run simulates one scheme; a second --scheme used to be dropped
    code, out, err = _run(
        capsys, "simulate", "--preset", "fig3a", "--threshold", "0.1",
        "--n", "10", "--trials", "10", "--scheme", "one_sided",
        "--scheme", second,
    )
    assert code == 2 and out == ""
    assert err == "error: simulate runs one --scheme at a time\n"


def test_output_write_failure(tmp_path, capsys):
    code, _, err = _run(
        capsys, "exponents", "--preset", "fig2a", "--p0", "0.01",
        "--threshold", "0.1",
        "--output", str(tmp_path / "missing" / "x.csv"),
    )
    assert code == 1 and "error:" in err


def test_unknown_scheme_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["exponents", "--scheme", "quantum"])


def test_validate_fast_passes(capsys):
    code, out, _ = _run(capsys, "validate")
    assert code == 0
    assert "5/5 checks passed" in out
    assert "FAIL" not in out


def test_validate_injected_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        bindht.cli, "_check_capacity_zero", lambda: "planted failure"
    )
    code, out, _ = _run(capsys, "validate")
    assert code == 1
    assert "FAIL channel exponent zero at capacity: planted failure\n" in out
    assert "4/5 checks passed" in out


def test_validate_full_passes(capsys):
    # every line, so a check cannot be renamed, dropped or moved unseen
    code, out, _ = _run(capsys, "validate", "--level", "full")
    assert code == 0
    assert out == (
        "PASS binmath identities\n"
        "PASS channel exponent zero at capacity\n"
        "PASS mixed noise pmf normalization\n"
        "PASS threshold test oracle\n"
        "PASS symmetric equals one-sided at a=0\n"
        "PASS exhaustive enumeration equality\n"
        "PASS ball probability convergence\n"
        "7/7 checks passed\n"
    )


def test_validate_full_detects_enumeration_mismatch(capsys, monkeypatch):
    exact = bindht.cli.exact_mixed_noise_pmf_vector
    monkeypatch.setattr(
        bindht.cli, "exact_mixed_noise_pmf_vector",
        lambda *args: exact(*args) * (1.0 + 1e-9),
    )
    code, out, _ = _run(capsys, "validate", "--level", "full")
    assert code == 1
    assert "FAIL exhaustive enumeration equality" in out


def _perturb_vector_route(monkeypatch, block, bumps):
    # bump entries of the closed-form pmf array of one (n, na) block:
    # bumps maps (nw, p) to the nt entries multiplied by 1 + 1e-9
    exact = bindht.cli.exact_mixed_noise_pmf_vector

    def perturbed(n, na, nw, p):
        vec = exact(n, na, nw, p)
        if (n, na) == block:
            for (w, q), nts in bumps.items():
                vec[list(nw).index(w), list(p).index(q), nts] *= 1.0 + 1e-9
        return vec

    monkeypatch.setattr(bindht.cli, "exact_mixed_noise_pmf_vector", perturbed)


def test_validate_full_names_first_mismatch(capsys, monkeypatch):
    # mismatches at p = 0.25, nt = 5 and 8 and at p = 0.4, nt = 2 of
    # one (n, na, nw); the check reads p outside nt, so nt = 5 is named
    _perturb_vector_route(
        monkeypatch, (9, 4), {(7, 0.25): [5, 8], (7, 0.4): [2]}
    )
    code, out, _ = _run(capsys, "validate", "--level", "full")
    assert code == 1
    assert (
        "FAIL exhaustive enumeration equality: "
        "pmf mismatch n=9 na=4 nw=7 nt=5\n"
    ) in out


def test_validate_full_names_mismatch_in_last_block(capsys, monkeypatch):
    # the last (n, na) block is checked too; nw orders before p and nt
    _perturb_vector_route(
        monkeypatch, (12, 12), {(11, 0.1): [9], (3, 0.4): [12]}
    )
    code, out, _ = _run(capsys, "validate", "--level", "full")
    assert code == 1
    assert (
        "FAIL exhaustive enumeration equality: "
        "pmf mismatch n=12 na=12 nw=3 nt=12\n"
    ) in out


def test_module_entry_point_runs_validate():
    paths = [str(Path(bindht.__file__).resolve().parents[1])]
    paths += filter(None, [os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-m", "bindht", "validate"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "5/5 checks passed" in proc.stdout


_SCIPY_PROBE = """
import runpy, sys
if len(sys.argv) > 1:
    sys.argv[0] = "bindht"
    try:
        runpy.run_module("bindht", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        assert not stop.code, stop.code
else:
    import bindht
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["stein", "--preset", "fig2a", "--p0", "0.0275"],
    ["simulate", "--preset", "fig3a", "--threshold", "0.1", "--n", "10",
     "--trials", "50"],
], ids=["import", "help", "stein", "simulate"])
def test_runtime_does_not_import_scipy(argv):
    paths = [str(Path(bindht.__file__).resolve().parents[1])]
    paths += filter(None, [os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[]", proc.stderr


def test_presets_cover_figure_parameters():
    assert set(PRESETS) == {"fig2a", "fig2b", "fig3a", "fig3b"}
    for cfg in PRESETS.values():
        assert cfg["rate"] == 0.3
    assert PRESETS["fig2a"]["p1"] == 0.25
    assert PRESETS["fig3b"] == {"rate": 0.3, "p0": 0.01, "p1": 0.1}
