"""Write the reference outputs the benchmark checks against.

Usage, from the repository root:  python3 perfbench/make_reference.py

Runs the workloads' commands through the CLI of the checked-out code and
writes ``perfbench/reference/``.  The Monte Carlo reference is an
ensemble: the simulation seed also picks the random nested code, so the
rates vary from seed to seed by more than the sampling error.  The file
keeps their mean and standard deviation over seeds 0..39.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

ENSEMBLE_SEEDS = range(40)
RATES = ("eps0", "eps1", "bin_rate0", "bin_rate1")


def cli(argv):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "bindht.cli", *argv],
        env=env, check=True, capture_output=True, text=True,
    ).stdout


def main():
    ref = workloads.REFERENCE
    ref.mkdir(exist_ok=True)
    (ref / "frontier.csv").write_text(cli(workloads.FRONTIER_ARGV))
    (ref / "stein.csv").write_text(cli(workloads.STEIN_ARGV))
    samples = {k: [] for k in RATES}
    with tempfile.TemporaryDirectory() as tmp:
        stream = str(Path(tmp) / "trials.jsonl")
        for seed in ENSEMBLE_SEEDS:
            rows = workloads.parse_table(
                cli(workloads.mc_argv(seed, stream)),
                "bindht.simulate.v1", workloads.SIM_HEADERS,
            )
            row = dict(zip(workloads.SIM_HEADERS, rows[0]))
            for k in RATES:
                samples[k].append(float(row[k]))
    doc = {
        "params": workloads.MC,
        "seeds": [ENSEMBLE_SEEDS.start, ENSEMBLE_SEEDS.stop - 1],
        "rates": {
            k: {"mean": statistics.mean(v), "sd": statistics.stdev(v)}
            for k, v in samples.items()
        },
    }
    (ref / "montecarlo.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
