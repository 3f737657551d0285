"""Command line front end.

Subcommands compute operating-point exponents, Stein-limit sweeps, full
tradeoff curves, Monte Carlo runs of the coded schemes, and a self-check
suite.  Everything emits plain tables (CSV with a schema comment, or
JSON lines with the same keys); plotting is left to the consumer.
Outputs are deterministic byte for byte for fixed inputs and seeds.
"""

import argparse
import json
import sys

import numpy as np

from .binmath import (
    binary_convolution,
    binary_divergence,
    binary_entropy,
    gv_distance,
    inverse_binary_entropy,
)
from .errors import (
    LengthMismatchError,
    ParameterError,
    ResourceLimitError,
    check_closed,
)
from .exponents import best_channel_exponent, type_noise_ball_exponent
from .gf2 import build_nested
from .oracle import (
    enumerate_mixed_noise_pmf,
    exact_ball_log2_prob,
    exact_mixed_noise_pmf_vector,
    np_exact_errors,
)
from .regions import (
    SCHEMES,
    HypothesisPair,
    SchemeParams,
    baseline_pair,
    one_sided_pair,
    stein_sweep,
    symmetric_pair,
    tradeoff_curve,
    unconstrained_pair,
)
from .simkit import SimConfig, estimate_errors, run_korner_marton, run_one_sided

PRESETS = {
    "fig2a": {"rate": 0.3, "p1": 0.25},
    "fig2b": {"rate": 0.3, "p1": 0.1},
    "fig3a": {"rate": 0.3, "p0": 0.01, "p1": 0.25},
    "fig3b": {"rate": 0.3, "p0": 0.01, "p1": 0.1},
}

_USAGE_EXIT = 2

#: trial records or table rows turned into text at a time
_LINE_CHUNK = 4096


def _write_table(stream, fmt, schema, headers, blocks):
    """Write blocks of columns, ``_LINE_CHUNK`` rows at a time.  A column
    is a numpy array or a scalar repeated down its block; CSV formats a
    float column with ``.12g`` and any other with ``str``.
    """
    if fmt == "csv":
        stream.write(f"# schema: {schema}\n{','.join(headers)}\n")
    for block in blocks:
        size = max([len(c) for c in block if np.ndim(c)], default=1)
        for lo in range(0, size, _LINE_CHUNK):
            m = min(_LINE_CHUNK, size - lo)
            cols = [
                c[lo:lo + m].tolist() if np.ndim(c) else [c] * m
                for c in block
            ]
            if fmt == "csv":
                template = ",".join(
                    "{:.12g}" if isinstance(c[0], float) else "{}"
                    for c in cols
                ) + "\n"
                stream.write("".join(map(template.format, *cols)))
            else:
                stream.writelines(
                    json.dumps(dict(zip(headers, row))) + "\n"
                    for row in zip(*cols)
                )


def _emit(args, schema, headers, blocks):
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
            _write_table(f, args.format, schema, headers, blocks)
    else:
        _write_table(sys.stdout, args.format, schema, headers, blocks)


def _preset_get(args, key):
    if getattr(args, key, None) is not None:
        return getattr(args, key)
    if args.preset:
        return PRESETS[args.preset].get(key)
    return None


def _need(args, *keys):
    vals = []
    for key in keys:
        v = _preset_get(args, key)
        if v is None:
            raise ParameterError(
                f"--{key} is required (directly or via --preset)"
            )
        vals.append(v)
    return vals


def _parse_sweep(text):
    """A sweep flag is either one float or a lo:hi range."""
    parts = text.split(":")
    try:
        if len(parts) <= 2:
            return float(parts[0]), float(parts[-1])
    except ValueError:
        pass
    raise ParameterError(f"cannot parse sweep {text!r}, use VALUE or LO:HI")


def cmd_exponents(args):
    p0, p1, rate = _need(args, "p0", "p1", "rate")
    if args.threshold is None:
        raise ParameterError("--threshold is required for exponents")
    h = HypothesisPair(p0, p1)
    theta = args.threshold
    schemes = args.scheme or list(SCHEMES)
    if {"one_sided", "symmetric"} & set(schemes):
        # their params would name the budget rate_x, a field users never set
        check_closed("rate", rate, 0, 1)
    rows = []
    for scheme in schemes:
        if scheme == "unconstrained":
            pair = unconstrained_pair(h, theta)
        elif scheme == "baseline":
            pair = baseline_pair(h, rate, theta)
        elif scheme == "one_sided":
            pair = one_sided_pair(
                h, SchemeParams(a=args.a, theta=theta, rate_x=rate)
            )
        else:
            pair = symmetric_pair(h, rate, theta)
        rows.append((scheme, theta, pair.e0, pair.e1))
    _emit(args, "bindht.exponents.v1", ("scheme", "theta", "e0", "e1"), rows)
    return 0


def cmd_stein(args):
    (p1, rate) = _need(args, "p1", "rate")
    if args.resolution < 1:
        raise ParameterError("resolution must be at least 1")
    lo, hi = _parse_sweep(args.p0 if args.p0 else "0.005:0.05")
    npts = 1 if lo == hi else args.resolution
    cols = stein_sweep(p1, rate, lo, hi, npts)
    headers = ("p0", "unconstrained", "one_sided", "prior", "symmetric")
    keys = ("p0", "unconstrained", "new", "prior", "symmetric")
    _emit(args, "bindht.stein.v1", headers, [[cols[key] for key in keys]])
    return 0


def cmd_tradeoff(args):
    p0, p1, rate = _need(args, "p0", "p1", "rate")
    h = HypothesisPair(p0, p1)
    schemes = args.scheme or list(SCHEMES)
    headers = ("scheme", "e0", "e1", "theta", "a", "alpha")
    # every curve is computed before the first row is written
    blocks = []
    for scheme in schemes:
        c = tradeoff_curve(scheme, h, rate, resolution=args.resolution)
        blocks.append((c.scheme, c.e0, c.e1, c.theta, c.a, c.alpha))
    _emit(args, "bindht.tradeoff.v1", headers, blocks)
    return 0


def _trial_lines(records):
    """Yield trial records as JSON lines, as ``json.dumps`` would format
    them, one string per ``_LINE_CHUNK`` records.  Each of the at most
    8 (n + 1)^2 distinct lines is formatted once, when its code in radix
    (2, 2, 2, n + 1, n + 1) first occurs, and looked up after that.
    """
    n1 = records.n + 1
    weight = [repr(round(k / records.n, 12)) for k in range(n1)]
    dims = (2, 2, 2, n1, n1)
    cols = (
        records.hypothesis, records.bin_error, records.decided,
        records.noise_weight, records.decoded_weight,
    )
    lines = np.full(8 * n1 * n1, "", dtype=object)
    for lo in range(0, len(records), _LINE_CHUNK):
        code = 0
        for radix, col in zip(dims, cols):
            code = radix * code + col[lo:lo + _LINE_CHUNK].astype(np.intp)
        seen = np.flatnonzero(np.bincount(code, minlength=lines.size))
        for c in seen[lines[seen] == ""].tolist():
            h, e, d, wn, wd = np.unravel_index(c, dims)
            lines[c] = (
                f'{{"hyp": {h}, "bin_error": {e}, "decided": {d}, '
                f'"noise_weight": {weight[wn]}, '
                f'"decoded_weight": {weight[wd]}}}\n'
            )
        yield "".join(lines[code])


def cmd_simulate(args):
    p0, p1, rate = _need(args, "p0", "p1", "rate")
    if args.threshold is None:
        raise ParameterError("--threshold is required for simulate")
    if len(args.scheme or ()) > 1:
        raise ParameterError("simulate runs one --scheme at a time")
    scheme = (args.scheme or ["one_sided"])[0]
    check_closed("rate", rate, 0, 1)
    # --a and --threshold fit the rate budget; the codes carry a and rate
    SchemeParams(a=args.a, theta=args.threshold, rate_x=rate)
    cfg = SimConfig(
        n=args.n, trials=args.trials, seed=args.seed,
        h=HypothesisPair(p0, p1), theta=args.threshold,
    )
    if scheme == "korner_marton" and args.a > 1e-12:
        raise ParameterError("the symmetric scheme has no quantization step")
    rate_fine = 1.0 - binary_entropy(args.a)
    rate_coarse = rate_fine - rate
    if scheme == "one_sided":
        nested = build_nested(args.n, rate_fine, rate_coarse, seed=args.seed)
        records = run_one_sided(cfg, nested)
    else:  # a pair of equal rates draws the coarse code, no fine rows
        pair = build_nested(args.n, rate_coarse, rate_coarse, seed=args.seed)
        records = run_korner_marton(cfg, pair.coarse)
    est = estimate_errors(records)
    if args.trial_stream:
        with open(args.trial_stream, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(_trial_lines(records))
    headers = (
        "scheme", "n", "trials", "seed", "eps0", "ci0_lo", "ci0_hi",
        "eps1", "ci1_lo", "ci1_hi", "exponent0", "exponent1",
        "bin_rate0", "bin_rate1",
    )
    rows = [(
        scheme, args.n, args.trials, args.seed,
        est.eps0, est.ci0[0], est.ci0[1], est.eps1, est.ci1[0], est.ci1[1],
        est.exponent0, est.exponent1, est.bin_rate0, est.bin_rate1,
    )]
    _emit(args, "bindht.simulate.v1", headers, rows)
    return 0


# ---------------------------------------------------------------------------
# validation suite


def _check_binmath_identities():
    ys = np.linspace(0.0, 1.0, 101)
    for y in ys:
        w = inverse_binary_entropy(y)
        if abs(binary_entropy(w) - y) > 1e-10:
            return f"entropy round trip off at y={y}"
    for w in np.linspace(0.0, 1.0, 101):
        if abs(binary_divergence(w, 0.5) - (1.0 - binary_entropy(w))) > 1e-10:
            return f"divergence identity off at w={w}"
    deltas = [gv_distance(r) for r in np.linspace(0.0, 1.0, 51)]
    if any(b > a + 1e-12 for a, b in zip(deltas, deltas[1:])):
        return "gv distance not nonincreasing"
    for p in (0.0, 0.1, 0.37):
        if abs(binary_convolution(p, 0.5) - 0.5) > 1e-15:
            return "convolution at 1/2 broken"
        if abs(binary_convolution(p, 0.0) - p) > 1e-15:
            return "convolution at 0 broken"
    return None


def _check_capacity_zero():
    for p in (0.05, 0.11, 0.25, 0.4):
        v = best_channel_exponent(p, 1.0 - binary_entropy(p))
        if abs(v) > 1e-6:
            return f"exponent {v} at capacity for p={p}"
    return None


def _check_pmf_normalization():
    for n, na, nw, p in ((10, 3, 4, 0.3), (16, 0, 7, 0.1), (24, 24, 0, 0.45)):
        total = sum(exact_mixed_noise_pmf_vector(n, na, nw, p))
        if abs(total - 1.0) > 1e-12:
            return f"pmf total {total} at n={n}"
    return None


def _check_threshold_oracle():
    eps0, eps1 = np_exact_errors(12, 0.0, 1.0, 0.5)
    if eps0 != 0.0 or eps1 != 0.0:
        return "degenerate threshold test wrong"
    eps0, eps1 = np_exact_errors(20, 0.1, 0.3, 0.2)
    if not (0.0 < eps0 < 1.0 and 0.0 < eps1 < 1.0):
        return "interior threshold test out of range"
    return None


def _check_scheme_equality():
    h = HypothesisPair(0.01, 0.25)
    for theta in np.linspace(0.02, 0.2, 10):
        sym = symmetric_pair(h, 0.3, float(theta))
        one = one_sided_pair(
            h, SchemeParams(a=0.0, theta=float(theta), rate_x=0.3)
        )
        if sym != one:
            return f"a=0 pair mismatch at theta={theta}"
    return None


def _check_enumeration_equality():
    ps = (0.1, 0.25, 0.4)
    for n in range(1, 13):
        nws = range(n + 1)
        for na in range(n + 1):
            brutes = enumerate_mixed_noise_pmf(n, na, nws, ps)
            fasts = exact_mixed_noise_pmf_vector(n, na, nws, ps)
            budget = 1e-12 * np.maximum(brutes, 1e-300)
            bad = np.abs(fasts - brutes) > budget
            if bad.any():
                # row-major over (nw, p, nt): the first nw with a
                # mismatch, then its first p, then that p's first nt
                nw, _, nt = np.unravel_index(np.argmax(bad), bad.shape)
                return f"pmf mismatch n={n} na={na} nw={nw} nt={nt}"
    return None


def _check_formula_convergence():
    tuples = [
        (0.1, 0.1, 0.3, 0.2), (0.25, 0.05, 0.5, 0.15), (0.4, 0.2, 0.0, 0.3),
        (0.05, 0.0, 0.25, 0.1),
    ]
    for p, a, w, theta in tuples:
        ref = type_noise_ball_exponent(p, a, w, theta)
        gaps = []
        for n in (200, 500, 1000, 2000):
            log2p = exact_ball_log2_prob(
                n, round(a * n), round(w * n), round(theta * n), p
            )
            gaps.append(abs(-log2p / n - ref))
        if gaps[-1] > 0.01:
            return f"gap {gaps[-1]} at n=2000 for {(p, a, w, theta)}"
        if any(b > a_ + 1e-12 for a_, b in zip(gaps, gaps[1:])):
            return f"gaps not shrinking for {(p, a, w, theta)}: {gaps}"
    return None


def cmd_validate(args):
    checks = [
        ("binmath identities", _check_binmath_identities),
        ("channel exponent zero at capacity", _check_capacity_zero),
        ("mixed noise pmf normalization", _check_pmf_normalization),
        ("threshold test oracle", _check_threshold_oracle),
        ("symmetric equals one-sided at a=0", _check_scheme_equality),
    ]
    if args.level == "full":
        checks += [
            ("exhaustive enumeration equality", _check_enumeration_equality),
            ("ball probability convergence", _check_formula_convergence),
        ]
    failures = 0
    for name, fn in checks:
        detail = fn()
        if detail is None:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument("--p1", type=float, help="flip probability under H1")
    sub.add_argument("--rate", type=float, help="helper message rate in bits")
    sub.add_argument(
        "--preset", choices=sorted(PRESETS),
        help="named parameter set; explicit flags override",
    )
    sub.add_argument("--output", default="-", help="output path, - for stdout")
    sub.add_argument(
        "--format", choices=("csv", "jsonl"), default="csv",
        help="table format",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bindht",
        description="error exponents and simulations for two-sensor "
        "hypothesis testing of a binary symmetric source",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser(
        "exponents", help="exponent pair of each scheme at one threshold"
    )
    p_exp.add_argument("--p0", type=float, help="flip probability under H0")
    p_exp.add_argument("--threshold", type=float, help="decision threshold")
    p_exp.add_argument("--a", type=float, default=0.0,
                       help="quantization noise level")
    p_exp.add_argument("--scheme", action="append", choices=SCHEMES)
    _add_common(p_exp)
    p_exp.set_defaults(func=cmd_exponents)

    p_stein = sub.add_parser(
        "stein", help="miss exponents under a vanishing false-alarm rate"
    )
    p_stein.add_argument(
        "--p0", help="H0 flip probability sweep, VALUE or LO:HI "
        "(default 0.005:0.05)",
    )
    p_stein.add_argument("--resolution", type=int, default=10,
                         help="sweep point count")
    _add_common(p_stein)
    p_stein.set_defaults(func=cmd_stein)

    p_trade = sub.add_parser(
        "tradeoff", help="full exponent tradeoff curve per scheme"
    )
    p_trade.add_argument("--p0", type=float, help="flip probability under H0")
    p_trade.add_argument("--scheme", action="append", choices=SCHEMES)
    p_trade.add_argument("--resolution", type=int, default=200,
                         help="threshold sweep size")
    _add_common(p_trade)
    p_trade.set_defaults(func=cmd_tradeoff)

    p_sim = sub.add_parser(
        "simulate", help="Monte Carlo run of a coded scheme"
    )
    p_sim.add_argument("--p0", type=float, help="flip probability under H0")
    p_sim.add_argument("--threshold", type=float, help="decision threshold")
    p_sim.add_argument("--a", type=float, default=0.0,
                       help="quantization noise level")
    p_sim.add_argument(
        "--scheme", action="append",
        choices=("one_sided", "korner_marton"),
    )
    p_sim.add_argument("--n", type=int, default=23, help="blocklength")
    p_sim.add_argument("--trials", type=int, default=10000,
                       help="trials per hypothesis")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--trial-stream", metavar="PATH",
        help="also write per-trial records as JSON lines",
    )
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="run the self-check suites")
    p_val.add_argument("--level", choices=("fast", "full"), default="fast")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, LengthMismatchError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
