"""Self-tests of the benchmark's gate, speed probe and tracer.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

import child
import run
import workloads
from tracer import Span, Tracer

ROOT = Path(__file__).resolve().parent.parent


def test_frontier_gate_accepts_reference_and_rejects_perturbation():
    text = workloads.reference("frontier.csv")
    want = workloads.frontiers(text)
    workloads.check_frontier(text, want)
    lines = text.splitlines()
    scheme, e0, e1, *rest = lines[5].split(",")
    lines[5] = ",".join([scheme, e0, repr(float(e1) + 1e-5), *rest])
    with pytest.raises(workloads.CheckFailed, match="frontier gap"):
        workloads.check_frontier("\n".join(lines) + "\n", want)


def test_stein_gate_rejects_perturbed_column():
    text = workloads.reference("stein.csv")
    want = workloads.stein_table(text)
    workloads.check_stein(text, want)
    bad = want.copy()
    bad[0, 2] += 1e-6
    with pytest.raises(workloads.CheckFailed, match="one_sided"):
        workloads.check_stein(text, bad)


def test_selfcheck_gate_needs_every_check():
    workloads.check_selfcheck("PASS a\nPASS b\n7/7 checks passed\n")
    with pytest.raises(workloads.CheckFailed):
        workloads.check_selfcheck("PASS a\nFAIL b: no\n6/7 checks passed\n")


def test_coset_weights_of_the_repetition_code():
    # [3,1] repetition code: H rows 110 and 011 (bit j = column j)
    dist = workloads.coset_weights([0b011, 0b110], 3)
    assert sorted(dist.tolist()) == [0, 1, 1, 1]


@pytest.fixture(scope="module")
def montecarlo_output(tmp_path_factory):
    seed = 0
    stream = tmp_path_factory.mktemp("mc") / "trials.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    stdout = subprocess.run(
        [sys.executable, "-m", "bindht.cli",
         *workloads.mc_argv(seed, str(stream))],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    sys.path.insert(0, str(ROOT / "src"))
    codes = child._build_tables(workloads.mc_setup(seed))
    return stdout, stream.read_text(), codes, seed


def test_montecarlo_gate_rejects_perturbed_eps1(montecarlo_output):
    stdout, stream, codes, seed = montecarlo_output
    want = json.loads(workloads.reference("montecarlo.json"))
    workloads.check_montecarlo(stdout, stream, codes, seed, want)
    header, cols, row = stdout.splitlines()
    fields = row.split(",")
    i = workloads.SIM_HEADERS.index("eps1")
    fields[i] = repr(float(fields[i]) + 10 * want["rates"]["eps1"]["sd"])
    bad = "\n".join([header, cols, ",".join(fields)]) + "\n"
    with pytest.raises(workloads.CheckFailed, match="eps1"):
        workloads.check_montecarlo(bad, stream, codes, seed, want)


def test_montecarlo_gate_rejects_heavier_leaders(montecarlo_output):
    stdout, stream, codes, seed = montecarlo_output
    want = json.loads(workloads.reference("montecarlo.json"))
    n, trials = workloads.MC["n"], workloads.MC["trials"]
    k_acc = int(n * workloads.MC["threshold"])
    # a decoder whose leaders are one bit heavier than the coset minimum,
    # with a summary that agrees with its own trial stream
    recs = [json.loads(x) for x in stream.splitlines()]
    for r in recs:
        r["decoded_weight"] += 1.0 / n
        r["decided"] = int(round(r["decoded_weight"] * n) > k_acc)
    header, cols, row = stdout.splitlines()
    fields = row.split(",")
    fields[workloads.SIM_HEADERS.index("eps0")] = repr(
        sum(r["decided"] for r in recs[:trials]) / trials
    )
    fields[workloads.SIM_HEADERS.index("eps1")] = repr(
        1 - sum(r["decided"] for r in recs[trials:]) / trials
    )
    bad = "\n".join([header, cols, ",".join(fields)]) + "\n"
    shifted = "\n".join(json.dumps(r) for r in recs) + "\n"
    with pytest.raises(workloads.CheckFailed, match="sd from the reference"):
        workloads.check_montecarlo(bad, shifted, codes, seed, want)


def test_speed_probe_times_are_net_of_probes():
    probe = child.SpeedProbe()
    probe._probe()
    start = probe.mark()
    probe._probe()
    probe._probe()
    net, probe_s = probe.since(start)
    assert probe_s == statistics.harmonic_mean(probe.samples[1:])
    assert 0.0 <= net < 0.5 * sum(probe.samples[1:])
    slow = run.Sample({"solve_s": 2.0, "solve_probe_s": 2 * run.PROBE_REF_S})
    assert run.scaled([slow], "solve_s", "solve_probe_s") == [1.0]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def fake_package(monkeypatch):
    """``fakepkg.a`` defines f and g; ``fakepkg.b`` imports f by name."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def g(x):
        clock.now += 2.0
        return x

    def f(x):
        clock.now += 1.0
        return a.g(x) + 1

    a.f, a.g = f, g
    b.f = f
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    return clock, a, b


def test_tracer_patches_every_namespace_and_computes_self_time(fake_package):
    clock, a, b = fake_package
    tracer = Tracer(
        package="fakepkg",
        spans=(Span("a", "f", count=lambda args: lambda r: {"n": args["x"]}),
               Span("a", "g")),
        clock=clock,
    ).install()
    assert b.f(3) == 4  # called through the by-name import
    m = tracer.metrics()
    assert m["a.f.calls"] == 1 and m["a.f.n"] == 3
    assert m["a.f.total_s"] == 3.0 and m["a.f.self_s"] == 1.0
    assert m["a.g.total_s"] == 2.0 and m["a.g.self_s"] == 2.0


def test_missing_function_is_absent_not_an_error(fake_package):
    clock, a, b = fake_package
    stale = Span("a", "g", count=lambda args: lambda r: {"n": args["renamed"]})
    tracer = Tracer(
        package="fakepkg",
        spans=(Span("a", "f"), Span("a", "gone"), Span("nomodule", "h"), stale),
        clock=clock,
    ).install()
    assert tracer.absent == ["a.gone", "nomodule.h"]
    assert a.f(1) == 2  # the stale count hook does not break the call
    assert tracer.absent == ["a.gone", "nomodule.h", "a.g"]
    traced = [run.Sample({"trace": tracer.metrics(), "absent": tracer.absent,
                          "solve_s": 2.0})]
    plain = [run.Sample({"solve_s": 1.5})]
    names = ["a.f.calls", "a.f.n", "a.g.calls", "a.gone.calls",
             "nomodule.h.total_s"]
    samples = run.per_layer(names, plain, traced, workloads.WORKLOADS["stein"])
    assert samples["a.f.calls"] == [1.0]
    assert samples["a.f.n"] == [0.0]  # present, never counted: zero
    assert "a.g.calls" not in samples
    assert "a.gone.calls" not in samples
    assert "nomodule.h.total_s" not in samples
    assert samples["trace.overhead_s"] == [0.5]
