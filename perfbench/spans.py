"""Spans and counts recorded around the package's layer entry points.

``Tracer.install`` replaces the functions the harness calls with wrappers
that record one span (name, start, end, parent, run) per call and, for some
layers, a count derived from the call's result.  Spans stay in memory and
each process writes its own file when it ends: the measuring process
explicitly, forked pool workers through a ``multiprocessing`` finalizer.

``summarize`` reads those files back and turns them into per-layer figures;
it needs only the standard library, so the orchestrator can call it without
importing the package under test.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import defaultdict
from multiprocessing import util

# (module, attribute, span name) for every entry point that gets a span.
# harness imports its callees by name, so the wrappers go into harness's
# namespace; statistic_matrix is also wrapped in lrdtest, where
# projected_test looks it up.
ENTRY_POINTS = (
    ("harness", "simulate_panel", "simulate.panel"),
    ("simulate", "fractional_weights", "simulate.fractional_weights"),
    ("harness", "fdft_panel", "spectral.fdft"),
    ("harness", "smoothed_spectrum_grid", "spectral.smoothed_grid"),
    ("harness", "statistic_matrix", "lrdtest.statistic"),
    ("lrdtest", "statistic_matrix", "lrdtest.statistic"),
    ("harness", "projected_test", "lrdtest.projected_test"),
    ("harness", "null_moments", "lrdtest.null_moments"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in ENTRY_POINTS))


class Tracer:
    """In-memory span and count store of one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.run = -1  # index of the CLI invocation in progress
        self._g_support = {}
        self._reset()
        util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.counts = defaultdict(lambda: defaultdict(int))

    def _after_fork(self) -> None:
        # a forked pool worker starts with no spans; the run index it
        # inherits tells which invocation its spans belong to
        self._reset()
        util.Finalize(self, self.flush, exitpriority=10)

    def add(self, name: str, amount: int) -> None:
        self.counts[self.run][name] += int(amount)

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.run)
            if count is not None:
                try:
                    count(tracer, result)
                except AttributeError:
                    pass  # result no longer has the counted field: no count
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point that exists; a missing one just sees no calls."""
        from spherelrd import harness, lrdtest, simulate

        modules = {"harness": harness, "lrdtest": lrdtest, "simulate": simulate}
        counters = {
            "simulate.panel": _count_panel,
            "spectral.fdft": _count_dft,
            "lrdtest.statistic": _count_statistic,
        }
        for module, attr, name in ENTRY_POINTS:
            fn = getattr(modules[module], attr, None)
            if callable(fn):
                setattr(modules[module], attr, self.wrap(name, fn, counters.get(name)))
        seed_spec = getattr(simulate, "SeedSpec", None)
        if seed_spec is not None and hasattr(seed_spec, "generator"):
            make = seed_spec.generator
            tracer = self

            def generator(spec, degree):
                return _CountingGenerator(make(spec, degree), tracer)

            seed_spec.generator = generator

    def g_support(self, T: int, B: float) -> int:
        """|{v in 1..T-1 : |g_v| > 1e-12 max|g|}|, the ordinates the statistic needs."""
        key = (T, B)
        if key not in self._g_support:
            import numpy as np
            from spherelrd import lrdtest

            g = np.abs(lrdtest.g_weights(T, B)[1:])
            self._g_support[key] = int(np.count_nonzero(g > 1e-12 * g.max()))
        return self._g_support[key]

    def flush(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump(
                {
                    "pid": self.pid,
                    "spans": self.spans,
                    "counts": {str(r): dict(c) for r, c in self.counts.items()},
                },
                fh,
            )


class _CountingGenerator:
    """Delegates to a numpy Generator and counts the normals drawn from it."""

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, size=None, *args, **kwargs):
        if size is None:
            n = 1
        elif isinstance(size, int):
            n = size
        else:
            n = math.prod(size)
        self._tracer.add("simulate.normals", n)
        return self._gen.standard_normal(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _count_panel(tracer: Tracer, panel) -> None:
    tracer.add("simulate.kept_values", panel.data.size)


def _count_dft(tracer: Tracer, dft) -> None:
    tracer.add("spectral.dft_bytes", dft.coeffs.nbytes)


def _count_statistic(tracer: Tracer, coeffs) -> None:
    tracer.add("lrdtest.entries_computed", coeffs.matrix.size)
    tracer.add("lrdtest.g_support", tracer.g_support(coeffs.T, coeffs.B))
    tracer.add("lrdtest.g_grid", coeffs.T - 1)


# --- reading spans back -------------------------------------------------------

def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0.0 for no values (a layer with no calls)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(span_dir: str, runs: list) -> dict:
    """Per-layer figures for the timed invocations ``runs`` of a traced phase.

    ``runs`` holds one dict per invocation with ``index``, ``wall_s``,
    ``reps`` and ``threads``.  Returns, per span name, the inclusive and the
    self duration in ms of every call; the per-run totals of
    every count; and the harness self time, which is the worker time of the
    invocations (wall x workers) not covered by any top-level layer span.
    """
    timed = {r["index"] for r in runs}
    durations = defaultdict(list)
    self_durations = defaultdict(list)
    top_ms = 0.0
    counts = defaultdict(lambda: defaultdict(int))
    for fname in sorted(os.listdir(span_dir)):
        if not (fname.startswith("spans-") and fname.endswith(".json")):
            continue
        with open(os.path.join(span_dir, fname)) as fh:
            doc = json.load(fh)
        spans = doc["spans"]
        child_ms = defaultdict(float)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_ms[span[3]] += (span[2] - span[1]) / 1e6
        for idx, span in enumerate(spans):
            if span is None or span[4] not in timed:
                continue
            name, t0, t1, parent, _ = span
            dur = (t1 - t0) / 1e6
            durations[name].append(dur)
            self_durations[name].append(dur - child_ms[idx])
            if parent < 0:
                top_ms += dur
        for run, named in doc["counts"].items():
            if int(run) in timed:
                for name, value in named.items():
                    counts[name][int(run)] += value
    worker_ms = sum(1000.0 * r["wall_s"] * r["threads"] for r in runs)
    reps = sum(r["reps"] for r in runs)
    return {
        "reps": reps,
        "durations": {n: durations.get(n, []) for n in SPAN_NAMES},
        "self_durations": {n: self_durations.get(n, []) for n in SPAN_NAMES},
        "harness_self_ms": worker_ms - top_ms,
        "counts": {
            n: {r: per_run.get(r, 0) for r in sorted(timed)} for n, per_run in counts.items()
        },
    }


def layer_metrics(summary: dict, entries_used_per_call: int) -> tuple:
    """Per-layer metric values keyed by metric name, and the names of the
    counts that did not repeat exactly across invocations.

    ``entries_used_per_call`` is how many statistic entries the experiment
    reads from each statistic matrix it computes."""
    reps = max(summary["reps"], 1)
    dur = summary["durations"]
    self_ms = {name: sum(calls) for name, calls in summary["self_durations"].items()}
    counts = summary["counts"]

    def total(name: str) -> int:
        return sum(counts.get(name, {}).values())

    normals = total("simulate.normals")
    computed = total("lrdtest.entries_computed")
    grid = total("lrdtest.g_grid")
    out = {
        "simulate.panel_ms_p50": _quantile(dur["simulate.panel"], 0.5),
        "simulate.panel_ms_p90": _quantile(dur["simulate.panel"], 0.9),
        "simulate.fractional_weights_ms": sum(dur["simulate.fractional_weights"]) / reps,
        "simulate.ms_per_rep": sum(dur["simulate.panel"]) / reps,
        "simulate.normals_per_rep": normals / reps,
        "simulate.kept_ratio": total("simulate.kept_values") / normals if normals else 0.0,
        "spectral.fdft_ms_p50": _quantile(dur["spectral.fdft"], 0.5),
        "spectral.fdft_ms_p90": _quantile(dur["spectral.fdft"], 0.9),
        "spectral.fdft_ms_per_rep": self_ms["spectral.fdft"] / reps,
        "spectral.smoothed_grid_ms_p50": _quantile(dur["spectral.smoothed_grid"], 0.5),
        "spectral.smoothed_grid_ms_p90": _quantile(dur["spectral.smoothed_grid"], 0.9),
        "spectral.smoothed_grid_ms_per_rep": self_ms["spectral.smoothed_grid"] / reps,
        "spectral.dft_mb_per_rep": total("spectral.dft_bytes") / reps / 2**20,
        "lrdtest.statistic_ms_p50": _quantile(dur["lrdtest.statistic"], 0.5),
        "lrdtest.statistic_ms_p90": _quantile(dur["lrdtest.statistic"], 0.9),
        "lrdtest.statistic_ms_per_rep": self_ms["lrdtest.statistic"] / reps,
        "lrdtest.projected_test_ms_p50": _quantile(dur["lrdtest.projected_test"], 0.5),
        "lrdtest.projected_test_ms_p90": _quantile(dur["lrdtest.projected_test"], 0.9),
        "lrdtest.decision_ms_p50": _quantile(summary["self_durations"]["lrdtest.projected_test"], 0.5),
        "lrdtest.g_support_ratio": total("lrdtest.g_support") / grid if grid else 0.0,
        "lrdtest.entries_used_ratio": (
            entries_used_per_call * len(dur["lrdtest.statistic"]) / computed if computed else 0.0
        ),
        "harness.self_ms_per_rep": summary["harness_self_ms"] / reps,
    }
    unsteady = [
        name
        for name, per_run in counts.items()
        if len(set(per_run.values())) > 1
    ]
    return out, unsteady

