"""The package names the traced benchmark run reads.

``perfbench/tracer.py`` wraps package functions by module and name, and
its count hooks read their parameters and results; ``perfbench/child.py``
reads ``gf2._leader_data.cache_info``.  A renamed or retired function
makes its span absent, and its metrics silently drop out of the traced
result.  This test runs the benchmark's commands under the tracer and
asserts that every span is present and called.  A change that retires a
span changes this test together with the benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, json, sys
import bindht.cli, bindht.gf2
from tracer import SPANS, Tracer
from workloads import FRONTIER_ARGV, STEIN_ARGV

tracer = Tracer().install()
argvs = [
    FRONTIER_ARGV,
    STEIN_ARGV,
    ["simulate", "--preset", "fig3a", "--threshold", "0.1",
     "--scheme", "one_sided", "--a", "0.05", "--n", "15", "--trials", "200"],
    ["validate", "--level", "full"],
]
with open(sys.argv[1], "w") as out, contextlib.redirect_stdout(out):
    rcs = [bindht.cli.main(argv) for argv in argvs]
metrics = tracer.metrics()
print(json.dumps({
    "rcs": rcs,
    "absent": tracer.absent,
    "uncalled": [s.name for s in SPANS if not metrics.get(s.name + ".calls")],
    "leader_cache_info": callable(
        getattr(bindht.gf2._leader_data, "cache_info", None)
    ),
}))
"""


def test_traced_commands_find_every_span(tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "stdout.txt")],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rcs"] == [0, 0, 0, 0]
    assert result["absent"] == []
    assert result["uncalled"] == []
    assert result["leader_cache_info"]
