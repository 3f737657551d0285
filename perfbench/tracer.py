"""Span tracer that wraps bindht's module-level functions from outside.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
traced function by a wrapper in every ``bindht`` module namespace that
holds the same function object, so names imported with ``from x import
y`` are traced as well.  A function that no longer exists is reported as
absent and the run goes on.

Each span records calls, total time (outermost activation only, so
recursion is not counted twice) and self time (duration minus the child
spans).  Work counts come from per-function hooks on the call's bound
arguments and result.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# the span around the whole CLI call; its self time is what no layer covers
ROOT_SPAN = "cli.emit"


def _size(quantity, *params):
    """Elements of the broadcast of the named arguments."""
    def hook(args):
        n = np.broadcast(*(args[p] for p in params)).size
        return lambda result: {quantity: n}
    return hook


def _pareto(args):
    n_in = len(args["pts"])
    return lambda result: {"points_in": n_in, "points_out": len(result)}


def _golden(args):
    """Elements, objective evaluations and bracket-end winners."""
    fn = args["fn"]
    evals = [0]

    def counted(x):
        evals[0] += 1
        return fn(x)

    args["fn"] = counted
    lo, hi = np.broadcast_arrays(
        np.asarray(args["lo"], float), np.asarray(args["hi"], float)
    )
    lo, hi = lo.copy(), hi.copy()

    def done(result):
        x = np.asarray(result[0])
        return {
            "elems": lo.size,
            "evals": lo.size * evals[0],
            "edges": int(np.count_nonzero((x == lo) | (x == hi))),
        }
    return done


@dataclass(frozen=True)
class Span:
    """One traced function, ``bindht.<module>.<function>``.

    The span is named ``<module>.<function>`` without the leading
    underscore unless ``label`` says otherwise.  ``count``, if given, is
    called with the bound arguments before the call (it may replace
    them) and returns a function of the result that gives a dict of
    work counts to add under the span's name.
    """

    module: str
    function: str
    label: str = ""
    count: object = None

    @property
    def name(self):
        return self.label or f"{self.module}.{self.function.lstrip('_')}"


SPANS = (
    Span("regions", "tradeoff_curve"),
    Span("regions", "_pair_rows", count=_size("rows", "a", "thetas")),
    Span("regions", "_shell_row_min", count=_size("rows", "a", "w", "theta")),
    Span("regions", "_binning_rows",
         count=_size("rows", "a", "theta", "rate_bin")),
    Span("regions", "pareto_points", count=_pareto),
    Span("regions", "_stein_scan"),
    Span("regions", "_symmetric_stein"),
    Span("exponents", "_sphere_vec", count=_size("elems", "r", "w", "tau")),
    Span("exponents", "_ew_vec", count=_size("elems", "alpha", "beta", "tau")),
    Span("exponents", "best_channel_exponent_vec",
         count=_size("elems", "p", "rate")),
    Span("optim", "golden_min_vec", count=_golden),
    Span("gf2", "build_nested"),
    Span("gf2", "coset_table",
         count=lambda args: lambda result: {"entries": len(result[0])}),
    Span("gf2", "syndromes", count=_size("words", "words")),
    Span("simkit", "_draw_run",
         count=lambda args: lambda result: {"trials": args["cfg"].trials}),
    Span("simkit", "run_one_sided", label="simkit.decode",
         count=lambda args: lambda result: {"records": len(result)}),
    Span("simkit", "estimate_errors"),
    Span("oracle", "enumerate_mixed_noise_pmf"),
    Span("oracle", "exact_mixed_noise_pmf_vector"),
    Span("oracle", "exact_ball_log2_prob"),
)


# a count hook that no longer fits its function (a renamed parameter, a
# new result type) makes the span absent instead of breaking the command
_HOOK_ERRORS = (TypeError, KeyError, AttributeError, IndexError, ValueError)


class Tracer:
    """Span stack and counters of one traced process."""

    def __init__(self, package="bindht", spans=SPANS, clock=time.perf_counter):
        self.package = package
        self.spans = spans
        self.clock = clock
        self.values = defaultdict(float)
        self.absent = []
        self._stack = []
        self._depth = defaultdict(int)

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every span's function; record the ones that are missing."""
        for span in self.spans:
            try:
                mod = importlib.import_module(f"{self.package}.{span.module}")
            except ImportError:
                mod = None
            original = getattr(mod, span.function, None)
            if not callable(original):
                self.absent.append(span.name)
                continue
            self._patch(original, self._wrap(span, original))
        return self

    def _patch(self, original, wrapper):
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == self.package or mod_name.startswith(prefix)
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """A span that wraps no function, such as the command's root."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _enter(self, name):
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _exit(self, frame):
        name, start, children = frame
        dt = self.clock() - start
        self._stack.pop()
        self._depth[name] -= 1
        if self._stack:
            self._stack[-1][2] += dt
        v = self.values
        v[f"{name}.calls"] += 1
        v[f"{name}.self_s"] += dt - children
        if self._depth[name] == 0:
            v[f"{name}.total_s"] += dt

    def _wrap(self, span, fn):
        sig = inspect.signature(fn)
        tracer = self
        name = span.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            done = None
            if span.count is not None and name not in tracer.absent:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    done = span.count(bound.arguments)
                    args, kwargs = bound.args, bound.kwargs
                except _HOOK_ERRORS:
                    tracer.absent.append(name)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if done is not None:
                try:
                    counts = done(result)
                except _HOOK_ERRORS:
                    tracer.absent.append(name)
                else:
                    for key, value in counts.items():
                        tracer.values[f"{name}.{key}"] += value
            return result

        return traced

    # -- results ---------------------------------------------------------

    def metrics(self):
        """Flat ``name -> value`` dict with the derived ratios added."""
        out = dict(self.values)
        edges = out.pop("optim.golden_min_vec.edges", 0.0)
        if out.get("optim.golden_min_vec.elems"):
            out["optim.golden_min_vec.edge_share"] = (
                edges / out["optim.golden_min_vec.elems"]
            )
        total = out.get(f"{ROOT_SPAN}.total_s")
        if total:
            out["trace.covered_share"] = 1.0 - out[f"{ROOT_SPAN}.self_s"] / total
        return out

