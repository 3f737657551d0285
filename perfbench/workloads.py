"""The four benchmark workloads: the ``bindht`` command each one runs and
the check its output must pass.

The references under ``reference/`` were written by ``make_reference.py``
at the commit that introduced the benchmark.  Deterministic outputs are
compared within the tolerances the test suite pins, not byte for byte, so
an optimisation may move the last digits.
"""

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"

# Stein columns are pinned to 1e-7 in tests/test_regions.py.
STEIN_TOL = 1e-7
# No test pins a frontier value; 1e-6 is the loosest column pin in
# tests/test_regions.py and three decades inside criterion 06's 1e-3.
FRONTIER_TOL = 1e-6
FRONTIER_GRID = 200
# Monte Carlo rates must lie within this many ensemble standard
# deviations (code-to-code plus sampling) of the ensemble mean.
MC_BAND_SD = 6.0
# Simulation seeds of --held-out runs start here; neither the reference
# ensemble nor any tuning run uses this range.
HELD_OUT_BASE = 1_000_000

MC = {"n": 27, "a": 0.05, "rate": 0.3, "threshold": 0.1, "trials": 20000}


class CheckFailed(Exception):
    """The command's output is wrong."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def parse_table(text, schema, headers):
    """Rows of a CSV table written by the CLI, as lists of strings."""
    lines = text.splitlines()
    _require(len(lines) >= 2, "table has no header")
    _require(lines[0] == f"# schema: {schema}", f"bad schema line {lines[0]!r}")
    _require(lines[1] == ",".join(headers), f"bad header {lines[1]!r}")
    rows = [line.split(",") for line in lines[2:]]
    _require(all(len(r) == len(headers) for r in rows), "ragged row")
    return rows


# ---------------------------------------------------------------------------
# frontier

TRADEOFF_HEADERS = ("scheme", "e0", "e1", "theta", "a", "alpha")


def frontiers(text):
    """scheme -> (e0, e1) arrays sorted by e0."""
    curves = {}
    for row in parse_table(text, "bindht.tradeoff.v1", TRADEOFF_HEADERS):
        curves.setdefault(row[0], []).append((float(row[1]), float(row[2])))
    out = {}
    for scheme, pts in curves.items():
        xy = np.array(sorted(pts))
        out[scheme] = (xy[:, 0], xy[:, 1])
    return out


def frontier_gap(got, want):
    """Largest miss-exponent gap on a shared e0 grid, with the range ends.

    Values between points are read the way ``curve_value_at`` reads them:
    linear interpolation on the e0-sorted frontier.
    """
    _require(set(got) == set(want), f"schemes {sorted(got)} != {sorted(want)}")
    worst = 0.0
    for scheme, (xr, yr) in want.items():
        xg, yg = got[scheme]
        lo, hi = max(xg[0], xr[0]), min(xg[-1], xr[-1])
        _require(lo <= hi, f"{scheme}: frontiers do not overlap")
        grid = np.linspace(lo, hi, FRONTIER_GRID)
        gaps = [
            np.abs(np.interp(grid, xg, yg) - np.interp(grid, xr, yr)).max(),
            abs(xg[0] - xr[0]), abs(xg[-1] - xr[-1]),
            abs(yg[0] - yr[0]), abs(yg[-1] - yr[-1]),
        ]
        worst = max(worst, *gaps)
    return float(worst)


def check_frontier(stdout, want):
    gap = frontier_gap(frontiers(stdout), want)
    _require(gap <= FRONTIER_TOL, f"frontier gap {gap:.3e} > {FRONTIER_TOL}")


# ---------------------------------------------------------------------------
# stein

STEIN_HEADERS = ("p0", "unconstrained", "one_sided", "prior", "symmetric")


def stein_table(text):
    return np.array(
        [[float(v) for v in row]
         for row in parse_table(text, "bindht.stein.v1", STEIN_HEADERS)]
    )


def check_stein(stdout, want):
    got = stein_table(stdout)
    _require(got.shape == want.shape, f"stein table shape {got.shape}")
    gap = np.abs(got - want).max(axis=0)
    for name, g in zip(STEIN_HEADERS, gap):
        _require(g <= STEIN_TOL, f"stein column {name} off by {g:.3e}")


# ---------------------------------------------------------------------------
# montecarlo

SIM_HEADERS = (
    "scheme", "n", "trials", "seed", "eps0", "ci0_lo", "ci0_hi",
    "eps1", "ci1_lo", "ci1_hi", "exponent0", "exponent1",
    "bin_rate0", "bin_rate1",
)


def coset_weights(h_rows, n):
    """Minimum coset weight of every syndrome, by breadth-first search.

    Written here independently of ``bindht.gf2``: level w holds the
    syndromes first reached by adding one column of H to level w - 1.
    """
    m = len(h_rows)
    cols = np.array(
        [sum(((h >> j) & 1) << i for i, h in enumerate(h_rows))
         for j in range(n)],
        dtype=np.int64,
    )
    dist = np.full(1 << m, -1, dtype=np.int64)
    dist[0] = 0
    level = np.zeros(1, dtype=np.int64)
    w = 0
    while level.size:
        w += 1
        nxt = np.unique((level[:, None] ^ cols[None, :]).ravel())
        level = nxt[dist[nxt] < 0]
        dist[level] = w
    _require(bool((dist >= 0).all()), "parity-check matrix is rank deficient")
    return dist


@functools.lru_cache(maxsize=4)
def covering_radius(h_rows, n):
    """Largest minimum coset weight of the code with these H rows (a
    tuple).  Cached: every command of a run decodes with the same codes."""
    return int(coset_weights(list(h_rows), n).max())


def check_montecarlo(stdout, stream_text, codes, seed, want):
    n, trials = MC["n"], MC["trials"]
    rows = parse_table(stdout, "bindht.simulate.v1", SIM_HEADERS)
    _require(len(rows) == 1, f"{len(rows)} summary rows")
    row = dict(zip(SIM_HEADERS, rows[0]))
    _require(
        (row["scheme"], int(row["n"]), int(row["trials"]), int(row["seed"]))
        == ("one_sided", n, trials, seed),
        f"summary echoes wrong inputs: {rows[0][:4]}",
    )
    for key, ref in want["rates"].items():
        v = float(row[key])
        dev = abs(v - ref["mean"]) / ref["sd"]
        _require(
            dev <= MC_BAND_SD,
            f"{key}={v} is {dev:.1f} sd from the reference {ref['mean']:.5f}",
        )

    lines = stream_text.splitlines()
    _require(len(lines) == 2 * trials,
             f"trial stream has {len(lines)} lines, want {2 * trials}")
    recs = [json.loads(line) for line in lines]
    hyp = np.array([r["hyp"] for r in recs])
    _require(
        (hyp[:trials] == 0).all() and (hyp[trials:] == 1).all(),
        "trial stream is not nulls then alternatives",
    )
    decided = np.array([r["decided"] for r in recs])
    bin_err = np.array([r["bin_error"] for r in recs])
    noise = np.rint(np.array([r["noise_weight"] for r in recs]) * n)
    decoded = np.rint(np.array([r["decoded_weight"] for r in recs]) * n)
    k_acc = math.floor(n * MC["threshold"] + 1e-9)
    _require((decided == (decoded > k_acc)).all(),
             "decisions disagree with decoded weights")
    stream_rates = {
        "eps0": decided[:trials].mean(),
        "eps1": 1.0 - decided[trials:].mean(),
        "bin_rate0": bin_err[:trials].mean(),
        "bin_rate1": bin_err[trials:].mean(),
    }
    for key, v in stream_rates.items():
        _require(abs(v - float(row[key])) <= 1e-9,
                 f"summary {key} disagrees with the trial stream")
    fine_radius = covering_radius(tuple(codes["fine"]), n)
    coarse_radius = covering_radius(tuple(codes["coarse"]), n)
    _require(decoded.max() <= coarse_radius,
             f"decoded weight {decoded.max():.0f} above the coarse covering "
             f"radius {coarse_radius}")
    _require((decoded <= noise + fine_radius).all(),
             "decoded weight above noise weight plus fine covering radius")


# ---------------------------------------------------------------------------
# selfcheck


def check_selfcheck(stdout):
    lines = stdout.splitlines()
    _require(bool(lines) and lines[-1] == "7/7 checks passed",
             f"last line {lines[-1] if lines else ''!r}")
    _require(all(line.startswith("PASS ") for line in lines[:-1]),
             "a check did not pass")


# ---------------------------------------------------------------------------
# registry


@functools.cache
def reference(name):
    return (REFERENCE / name).read_text(encoding="utf-8")


def mc_argv(seed, stream):
    return [
        "simulate", "--preset", "fig3a", "--scheme", "one_sided",
        "--a", str(MC["a"]), "--rate", str(MC["rate"]),
        "--threshold", str(MC["threshold"]), "--n", str(MC["n"]),
        "--trials", str(MC["trials"]), "--seed", str(seed),
        "--trial-stream", stream,
    ]


def mc_setup(seed):
    return {"n": MC["n"], "a": MC["a"], "rate": MC["rate"], "seed": seed}


def no_setup(seed):
    return None


FRONTIER_ARGV = [
    "tradeoff", "--preset", "fig3b", "--scheme", "one_sided",
    "--scheme", "symmetric", "--resolution", "6",
]
STEIN_ARGV = ["stein", "--preset", "fig2a", "--p0", "0.0275"]
SELFCHECK_ARGV = ["validate", "--level", "full"]


@dataclass(frozen=True)
class Workload:
    """``argv(sim_seed, stream_path)`` gives the CLI arguments;
    ``check(stdout, stream_text, child_record, sim_seed)`` raises
    CheckFailed; ``setup(sim_seed)`` gives the leader tables the child
    builds before the command, or None."""

    argv: object
    check: object
    setup: object = no_setup
    stream: bool = False


WORKLOADS = {
    "frontier": Workload(
        lambda seed, stream: FRONTIER_ARGV,
        lambda out, stream, rec, seed: check_frontier(
            out, frontiers(reference("frontier.csv"))
        ),
    ),
    "stein": Workload(
        lambda seed, stream: STEIN_ARGV,
        lambda out, stream, rec, seed: check_stein(
            out, stein_table(reference("stein.csv"))
        ),
    ),
    "montecarlo": Workload(
        mc_argv,
        lambda out, stream, rec, seed: check_montecarlo(
            out, stream, rec["codes"], seed,
            json.loads(reference("montecarlo.json")),
        ),
        setup=mc_setup,
        stream=True,
    ),
    "selfcheck": Workload(
        lambda seed, stream: SELFCHECK_ARGV,
        lambda out, stream, rec, seed: check_selfcheck(out),
    ),
}
