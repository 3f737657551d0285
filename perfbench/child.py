"""One benchmark command in a fresh interpreter, as a user would run it.

Usage: python3 perfbench/child.py SPAWN_TIME SPEC_PATH

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process, so set-up time counts interpreter start and the import.
SPEC_PATH names a JSON object with the keys ``argv`` (the ``bindht``
arguments, or null for a set-up-only child), ``setup`` (the nested-code
parameters ``n``, ``a``, ``rate`` and ``seed`` whose leader tables are
built before the command, or null), ``trace`` (wrap the package's layers
with the span tracer), ``stdout`` (where the command's stdout goes),
``trial_stream`` (the command's trial-stream file, or null) and
``result`` (where this child writes its timings as JSON).

While it runs, the child times a short fixed loop every 0.1 s on a timer
signal (``SpeedProbe``).  Set-up and command times are reported net of
the probes, each with the probe time at the mean speed during it; the
parent scales the times by it.

An exception in the command is not caught: the child dies with a
traceback and no result file, which the parent counts as a failure.
"""

import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time


# seconds between speed probes; one probe takes about 0.3 ms
PROBE_INTERVAL_S = 0.1


class SpeedProbe:
    """Samples the speed the machine gives this process, while it works.

    On a shared machine the speed a process gets drops by up to half in
    episodes of a few seconds.  A probe times a fixed pure-Python loop
    (pure Python, so it is safe while modules are still importing).
    Probes run in this process between the program's bytecodes, so they
    see the speed the program sees at the same moments.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _probe(self, signum=None, frame=None):
        t0 = time.perf_counter()
        for _ in range(20):
            sum(i & 7 for i in range(300))
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self):
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        interval = PROBE_INTERVAL_S
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self):
        """A point to measure from: the time, probe time so far, probes."""
        return time.monotonic(), self.spent, len(self.samples)

    def since(self, mark):
        """Seconds since ``mark`` net of probes, and the probe time at the
        mean speed since then (over all probes if none ran since).

        Probes come at even times, so the mean of their speeds is the
        mean speed over the interval: a harmonic mean of their times.  A
        probe stretched by an interrupt then moves it by at most 1/n.
        """
        t, spent, _ = self.mark()
        window = self.samples[mark[2]:] or self.samples
        return t - mark[0] - (spent - mark[1]), statistics.harmonic_mean(window)


def peak_rss_mb():
    """Peak resident set of this process's own address space, in MiB.

    Not ``ru_maxrss``: Linux folds the high-water mark of the address
    space replaced at exec, a copy of the parent's, into it, so the
    parent's size would show through.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build_tables(setup):
    """The nested code and both leader tables, as ``cmd_simulate`` makes them."""
    from bindht.binmath import binary_entropy
    from bindht.gf2 import build_nested, coset_table

    rate_fine = 1.0 - binary_entropy(setup["a"])
    nested = build_nested(
        setup["n"], rate_fine, rate_fine - setup["rate"], seed=setup["seed"]
    )
    coset_table(nested.fine)
    coset_table(nested.coarse)
    return {"fine": list(nested.fine.H.bits),
            "coarse": list(nested.coarse.H.bits)}


def _run_cli(argv, stdout_path, root):
    import bindht.cli

    with open(stdout_path, "w", encoding="utf-8", newline="\n") as f, \
            contextlib.redirect_stdout(f), root:
        try:
            return bindht.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            return exc.code if isinstance(exc.code, int) else 2


def main():
    spawn = float(sys.argv[1])
    probe = SpeedProbe()
    probe.start()
    with open(sys.argv[2], encoding="utf-8") as f:
        spec = json.load(f)
    import bindht

    out = {"bindht_file": os.path.realpath(bindht.__file__)}
    tracer, root = None, contextlib.nullcontext()
    if spec["trace"]:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer().install()
        root = tracer.span(ROOT_SPAN)
    if spec["setup"]:
        out["codes"] = _build_tables(spec["setup"])
    # every probe so far ran after spawn
    out["setup_s"], out["setup_probe_s"] = probe.since((spawn, 0.0, 0))
    cache = getattr(sys.modules.get("bindht.gf2"), "_leader_data", None)
    cache_info = getattr(cache, "cache_info", None)
    if spec["argv"] is not None:
        before = cache_info() if cache_info else None
        start = probe.mark()
        out["rc"] = _run_cli(spec["argv"], spec["stdout"], root)
        out["solve_s"], out["solve_probe_s"] = probe.since(start)
        stream = spec["trial_stream"]
        layer = {"cli.trial_stream.bytes": (
            os.path.getsize(stream) if stream and os.path.exists(stream) else 0
        )}
        if cache_info:
            after = cache_info()
            layer["gf2.leader_cache.hits"] = after.hits - before.hits
            layer["gf2.leader_cache.misses"] = after.misses - before.misses
        out["layer"] = layer
    probe.stop()
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        out["trace"] = tracer.metrics()
        out["absent"] = tracer.absent + ([] if cache_info else ["gf2.leader_cache"])
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(out, f)
    return out.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
