"""Command line behavior through in-process main() calls."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bindht
import bindht.cli
from bindht.cli import PRESETS, main
from bindht.regions import (
    SCHEMES,
    HypothesisPair,
    SchemeParams,
    one_sided_pair,
    stein_columns,
    unconstrained_pair,
)
from bindht.simkit import TrialRecord


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


def test_bad_sweep_spec(capsys):
    code, _, err = _run(
        capsys, "stein", "--preset", "fig2a", "--p0", "1:2:3"
    )
    assert code == 2 and "sweep" in err


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
        for k in range(n + 1):
            for hyp, err, dec in ((0, False, 0), (1, True, 1)):
                rec = TrialRecord(hyp, err, dec, k / n, (n - k) / n)
                want = json.dumps({
                    "hyp": rec.true_hypothesis,
                    "bin_error": int(rec.bin_decoding_error),
                    "decided": rec.decided,
                    "noise_weight": round(rec.noise_weight_norm, 12),
                    "decoded_weight": round(rec.decoded_weight_norm, 12),
                }) + "\n"
                assert bindht.cli._trial_line(rec) == want


def test_simulate_korner_marton_rejects_quantization(capsys):
    code, _, err = _run(
        capsys, "simulate", "--p0", "0.1", "--p1", "0.35", "--rate", "0.3",
        "--threshold", "0.2", "--n", "10", "--trials", "10",
        "--a", "0.2", "--scheme", "korner_marton",
    )
    assert code == 2 and "error:" in err


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


def test_validate_injected_failure(capsys):
    code, out, _ = _run(capsys, "validate", "--inject-failure")
    assert code == 1
    assert "FAIL failure injection" in out
    assert "5/6 checks passed" in out


def test_validate_full_passes(capsys):
    code, out, _ = _run(capsys, "validate", "--level", "full")
    assert code == 0
    assert "PASS exhaustive enumeration equality" in out
    assert out.endswith("7/7 checks passed\n")


def test_validate_full_detects_enumeration_mismatch(capsys, monkeypatch):
    exact = bindht.cli.exact_mixed_noise_pmf_vector
    monkeypatch.setattr(
        bindht.cli, "exact_mixed_noise_pmf_vector",
        lambda *args: exact(*args) * (1.0 + 1e-9),
    )
    code, out, _ = _run(capsys, "validate", "--level", "full")
    assert code == 1
    assert "FAIL exhaustive enumeration equality" in out


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


def test_presets_cover_figure_parameters():
    assert set(PRESETS) == {"fig2a", "fig2b", "fig3a", "fig3b"}
    for cfg in PRESETS.values():
        assert cfg["rate"] == 0.3
    assert PRESETS["fig2a"]["p1"] == 0.25
    assert PRESETS["fig3b"] == {"rate": 0.3, "p0": 0.01, "p1": 0.1}
