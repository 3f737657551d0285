"""Closed-loop benchmark of the ``bindht`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--held-out]

One client sends one command at a time, each in a fresh child process
(``child.py``), so the import and the leader-table cache start cold as
they do for a user.  Children run one at a time with BLAS and OpenMP
pinned to one thread.  Every command's output is checked
(``workloads.py``); a nonzero exit, a traceback or a failed check counts
as a failed command.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json as medians over the run's commands.  Set-up and command
times are scaled to a reference machine speed by the speed probes each
child takes while it works (``child.SpeedProbe``, NOTES.md).  With
``--trace 1``
it alternates untraced and traced commands and reports the per-layer
metrics of the traced ones (``tracer.py``), with the tracing overhead.

The seed only matters to ``montecarlo``, where it is the simulation
seed and so also picks the random nested code; ``--held-out`` moves it
into a range that neither the reference ensemble nor tuning uses.

The last line of stdout is the result object; the line before it is a
record of the run: environment, every sample and every failure.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# every run ends within the 180 s a run may take, whatever the program does
HARD_LIMIT_S = 165.0
# set-up is sampled at least this often per untraced run
MIN_SETUPS = 5
# probe time of busy children at the usual speed of the 2-vCPU machine the
# benchmark was defined on
PROBE_REF_S = 0.00023
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


@dataclass
class Sample:
    record: dict
    stdout: str = ""
    error: str = ""
    timed_out: bool = False


class Runner:
    """Starts the children of one run and checks what they produce."""

    def __init__(self, workload, sim_seed, workdir, start):
        self.workload = workload
        self.sim_seed = sim_seed
        self.workdir = workdir
        self.start = start
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({v: "1" for v in THREAD_VARS})

    def elapsed(self):
        return time.monotonic() - self.start

    def child(self, trace=False, command=True):
        self.count += 1
        base = self.workdir / f"{self.count:04d}"
        stream = f"{base}.trials" if self.workload.stream and command else None
        spec = {
            "argv": self.workload.argv(self.sim_seed, stream) if command else None,
            "setup": self.workload.setup(self.sim_seed),
            "trace": trace,
            "stdout": f"{base}.out",
            "result": f"{base}.json",
            "trial_stream": stream,
        }
        Path(f"{base}.spec").write_text(json.dumps(spec), encoding="utf-8")
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), repr(spawn),
             f"{base}.spec"],
            cwd=ROOT, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            _, err = proc.communicate(
                timeout=max(1.0, HARD_LIMIT_S - self.elapsed())
            )
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Sample({}, error="timed out", timed_out=True)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.communicate()
            raise
        try:
            return self._collect(proc.returncode, err, spec, command)
        finally:
            for path in base.parent.glob(base.name + ".*"):
                path.unlink()

    def _collect(self, rc, err, spec, command):
        try:
            record = json.loads(Path(spec["result"]).read_text("utf-8"))
        except (OSError, ValueError):
            record = {}
        stdout = ""
        if command and os.path.exists(spec["stdout"]):
            stdout = Path(spec["stdout"]).read_text("utf-8")
        sample = Sample(record, stdout)
        tail = err.strip().splitlines()[-1:] or [""]
        if rc != 0 or "Traceback" in err or not record:
            sample.error = f"exit {rc}: {tail[0]}"
        elif not record["bindht_file"].startswith(str(ROOT / "src")):
            sample.error = f"imported bindht from {record['bindht_file']}"
        elif command:
            stream = spec["trial_stream"]
            stream_text = Path(stream).read_text("utf-8") if stream else ""
            try:
                self.workload.check(stdout, stream_text, record, self.sim_seed)
            except (workloads.CheckFailed, ValueError, KeyError,
                    IndexError) as exc:
                sample.error = f"check: {exc}"
        return sample


def spread(values):
    """[sample count, first quartile, median, third quartile]."""
    if len(values) == 1:
        return [1, *values * 3]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [len(values), q1, q2, q3]


def measure(runner, seconds, trace):
    """Commands (untraced, traced) and extra set-up samples of one run."""
    runner.child(command=False)  # compiles bytecode and warms the file cache
    plain, traced, setups, steps = [], [], [], []
    while True:
        t0 = time.monotonic()
        plain.append(runner.child())
        if trace:
            traced.append(runner.child(trace=True))
            a, b = plain[-1], traced[-1]
            if not (a.error or b.error) and a.stdout != b.stdout:
                b.error = "traced stdout differs from untraced stdout"
        steps.append(time.monotonic() - t0)
        # the next command is expected to end within half a step of the
        # end, so runs last ``seconds`` on average whatever the step
        if (plain[-1].timed_out or (traced and traced[-1].timed_out)
                or runner.elapsed() + statistics.median(steps) / 2 > seconds):
            break
    while not trace and len(plain) + len(setups) < MIN_SETUPS:
        if runner.elapsed() > HARD_LIMIT_S - 30:
            break
        setups.append(runner.child(command=False))
    return plain, traced, setups


def values(samples, key):
    return [s.record[key] for s in samples if key in s.record]


def scaled(samples, key, probe_key):
    """Times scaled to the reference speed by the probes taken with them."""
    return [s.record[key] * PROBE_REF_S / s.record[probe_key]
            for s in samples if key in s.record]


def end_to_end(plain, setups):
    """Metric samples, plus the raw times and probe times for the record."""
    return {
        "setup_s": scaled(plain + setups, "setup_s", "setup_probe_s"),
        "solve_s": scaled(plain, "solve_s", "solve_probe_s"),
        "peak_rss_mb": values(plain, "peak_rss_mb"),
        "raw.setup_s": values(plain + setups, "setup_s"),
        "raw.solve_s": values(plain, "solve_s"),
        "probe.setup_s": values(plain + setups, "setup_probe_s"),
        "probe.solve_s": values(plain, "solve_probe_s"),
    }


def per_layer(names, plain, traced, workload):
    """Median per-layer values; names of absent functions are left out."""
    absent = set()
    for s in traced:
        absent.update(s.record.get("absent", ()))
    rows = [{**s.record.get("trace", {}), **s.record.get("layer", {})}
            for s in traced if s.record]
    samples = {}
    for name in names:
        if name.rsplit(".", 1)[0] in absent:
            continue
        samples[name] = [r.get(name, 0.0) for r in rows]
    solve_plain = values(plain, "solve_s")
    solve_traced = values(traced, "solve_s")
    if solve_plain and solve_traced:
        samples["trace.overhead_s"] = [
            statistics.median(solve_traced) - statistics.median(solve_plain)
        ]
        samples["simkit.trials_per_s"] = [
            2 * workloads.MC["trials"] / statistics.median(solve_plain)
            if workload.stream else 0.0
        ]
    return samples


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "loadavg_1m": os.getloadavg()[0],
        "threads_per_child": 1,
        "children_at_once": 1,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out", action="store_true",
        help="simulate on a seed range no reference or tuning run used",
    )
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "bindht" / "__init__.py").is_file():
        sys.exit(f"no bindht sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}, "
                 f"one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    sim_seed = args.seed % workloads.HELD_OUT_BASE + (
        workloads.HELD_OUT_BASE if args.held_out else 0
    )

    env = environment()
    start = time.monotonic()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workload, sim_seed, workdir, start)
        plain, traced, setups = measure(runner, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    commands = plain + traced
    failures = [s.error for s in commands if s.error]
    if args.trace:
        declared = spec["per_layer"]
        samples = per_layer([m["name"] for m in declared], plain, traced,
                            workload)
    else:
        declared = spec["end_to_end"]
        samples = end_to_end(plain, setups)
    metrics = {
        m["name"]: {"value": statistics.median(samples[m["name"]]),
                    "unit": m["unit"]}
        for m in declared if samples.get(m["name"])
    }
    print(json.dumps({"record": {
        **env,
        "workload": args.workload, "seed": args.seed, "sim_seed": sim_seed,
        "trace": args.trace, "seconds": round(time.monotonic() - start, 3),
        "commands": len(commands), "setup_only": len(setups),
        "spread": {k: spread(v) for k, v in samples.items() if v},
        "failures": failures,
    }}))
    if not metrics:
        sys.exit("no command completed: " + "; ".join(failures[:3]))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(commands),
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
