"""Monte Carlo benchmark of spherelrd, run through its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src`` directory.  Every figure is measured in fresh interpreters
started by this script (see child.py):

* set-up: ``SETUP_PROBES`` processes each import the CLI, build the config
  and compute the null moments for every T; ``setup_s`` is their median.
* measurement: one process calls ``spherelrd.cli.main`` on generated configs
  until ``--seconds`` have passed, after one untimed warm-up invocation.
  ``reps_per_s`` and ``cpu_ms_per_rep`` are medians over the invocations.

With ``--trace 1`` the measuring time is split in three: untraced at the
workload's worker count, untraced at the other worker count (for
``harness.pool_speedup``), and traced (spans, see spans.py).  The per-layer
metrics come from the traced part; ``trace.overhead_share`` compares it with
the first.

Every table written is checked (checks.py) and its sha256 printed.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, invocation_seed  # noqa: E402

SETUP_PROBES = 5
BUDGET_S = 170.0  # every run must end within 180 s

END_TO_END = {
    "reps_per_s": "1/s",
    "cpu_ms_per_rep": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "config.build_ms": "ms",
    "models.spectral_eigenvalue_ms": "ms",
    "lrdtest.null_moments_ms": "ms",
    "simulate.panel_ms_p50": "ms",
    "simulate.panel_ms_p90": "ms",
    "simulate.fractional_weights_ms": "ms",
    "simulate.ms_per_rep": "ms",
    "simulate.normals_per_rep": "count",
    "simulate.kept_ratio": "ratio",
    "spectral.fdft_ms_p50": "ms",
    "spectral.fdft_ms_p90": "ms",
    "spectral.fdft_ms_per_rep": "ms",
    "spectral.smoothed_grid_ms_p50": "ms",
    "spectral.smoothed_grid_ms_p90": "ms",
    "spectral.smoothed_grid_ms_per_rep": "ms",
    "spectral.dft_mb_per_rep": "MiB",
    "lrdtest.statistic_ms_p50": "ms",
    "lrdtest.statistic_ms_p90": "ms",
    "lrdtest.statistic_ms_per_rep": "ms",
    "lrdtest.projected_test_ms_p50": "ms",
    "lrdtest.projected_test_ms_p90": "ms",
    "lrdtest.decision_ms_p50": "ms",
    "lrdtest.g_support_ratio": "ratio",
    "lrdtest.entries_used_ratio": "ratio",
    "harness.self_ms_per_rep": "ms",
    "harness.pool_speedup": "ratio",
    "trace.overhead_share": "ratio",
}
# Derived from the inputs at the layer boundary rather than timed; they must
# repeat exactly from one invocation (and run) to the next.
COMPUTED = {
    "simulate.normals_per_rep", "simulate.kept_ratio", "spectral.dft_mb_per_rep",
    "lrdtest.g_support_ratio", "lrdtest.entries_used_ratio",
}


class BenchError(RuntimeError):
    pass


class Bench:
    def __init__(self, args) -> None:
        self.wl = WORKLOADS[args.workload]
        self.seed = args.seed
        self.smoke = args.smoke
        self.R = self.wl.smoke_R if args.smoke else self.wl.R
        self.deadline = time.monotonic() + BUDGET_S
        self.work = ROOT / ".perfbench_tmp" / f"{self.wl.name}-{args.seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}  # invocation index -> (phase, sha256)
        self.tables = []  # (R, values) of every well-formed table

    # --- child processes ------------------------------------------------------

    def _child(self, mode: str, name: str, plan: dict) -> dict:
        out = self.work / name
        out.mkdir()
        plan = {"workload": self.wl.name, "seed": self.seed, "out": str(out), **plan}
        plan_path = out / "plan.json"
        plan_path.write_text(json.dumps(plan))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left for {name}")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode, str(plan_path)],
                stdout=sys.stderr, timeout=timeout, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name} did not finish within {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{name} exited with code {proc.returncode}")
        with open(out / f"{mode}.json") as fh:
            return json.load(fh)

    def setup_probes(self, trace: bool) -> list:
        count = 1 if self.smoke else SETUP_PROBES
        return [
            self._child("setup", f"setup-{k}", {"R": self.R, "threads": self.wl.threads, "trace": trace})
            for k in range(count)
        ]

    def measure(self, name: str, threads: int, seconds: float, trace: bool = False) -> dict:
        """Invocations for ``seconds`` (at least one) in a fresh interpreter."""
        result = self._child("measure", name, {
            "R": self.R, "threads": threads, "seconds": seconds, "trace": trace,
        })
        result["dir"] = str(self.work / name)
        for run in result["runs"]:
            self._check_run(name, run)
        return result

    # --- output checks --------------------------------------------------------

    def _check_run(self, phase: str, run: dict) -> None:
        self.attempted += 1
        problems = []
        if run["code"] != 0:
            problems.append(f"CLI exit code {run['code']}")
        else:
            table_problems, values = checks.check_table(self.wl, run["table"], run["R"])
            problems += table_problems
            if not table_problems:
                self.tables.append((run["R"], values))
            sha = checks.digest(run["table"])
            seed = invocation_seed(self.wl.name, self.seed, run["index"])
            print(f"table_sha256 {self.wl.table} phase={phase} index={run['index']} "
                  f"config_seed={seed} threads={run['threads']} {sha}")
            earlier = self.digests.setdefault(run["index"], (phase, sha))
            if earlier[1] != sha:
                problems.append(f"table differs from the one {earlier[0]} wrote for the same config")
        if problems:
            self.failed += 1
            self.problems += [f"{phase} invocation {run['index']}: {p}" for p in problems]

    def fail_all(self, problems: list) -> None:
        """Problems found across invocations pooled, which fail every one of them."""
        if problems:
            self.failed = self.attempted
            self.problems += problems


def _rates(result: dict) -> list:
    return [r["reps"] / r["wall_s"] for r in result["runs"]]


def _describe(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, p25 {q1:.6g}, p75 {q3:.6g}"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_rev() -> str:
    """HEAD of the checkout, or "unavailable" when it is not a git work tree of its own."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable"
    return lines[1]


def end_to_end(probes: list, result: dict) -> tuple:
    rates = _rates(result)
    cpu = [1000.0 * r["cpu_s"] / r["reps"] for r in result["runs"]]
    setup = [p["setup_s"] for p in probes]
    metrics = {
        "reps_per_s": statistics.median(rates),
        "cpu_ms_per_rep": statistics.median(cpu),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["maxrss_kib"] / 1024.0,
    }
    detail = {
        "reps_per_s": _describe(rates),
        "cpu_ms_per_rep": _describe(cpu),
        "setup_s": _describe(setup) + " fresh processes",
        "peak_rss_mb": "max of the measuring process and its pool workers",
    }
    return metrics, detail


def per_layer(bench: Bench, probes: list, base: dict, other: dict, traced: dict) -> dict:
    wl = bench.wl
    summary = spans.summarize(traced["dir"], traced["runs"])
    if wl.table in ("size", "power"):
        entries_used = wl.directions  # the projected test's pairs
    elif wl.table == "distribution":
        entries_used = sum(2 * n + 1 for n in checks.DEGREES)  # the diagonal
    else:
        entries_used = 0  # consistency computes no statistic matrix
    metrics, unsteady = spans.layer_metrics(summary, entries_used)
    bench.fail_all([f"count {name} differs between invocations of one config" for name in unsteady])
    base_rate = statistics.median(_rates(base))
    other_rate = statistics.median(_rates(other))
    two, one = (base_rate, other_rate) if wl.threads > 1 else (other_rate, base_rate)
    traced_ms = statistics.median(1000.0 * r["wall_s"] / r["reps"] for r in traced["runs"])
    base_ms = statistics.median(1000.0 * r["wall_s"] / r["reps"] for r in base["runs"])
    metrics.update({
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "config.build_ms": statistics.median(p["config_build_ms"] for p in probes),
        "models.spectral_eigenvalue_ms": statistics.median(p["spectral_eigenvalue_ms"] for p in probes),
        "lrdtest.null_moments_ms": statistics.median(p["null_moments_ms"] for p in probes),
        "harness.pool_speedup": two / one,
        "trace.overhead_share": (traced_ms - base_ms) / base_ms,
    })
    print(f"trace spans over {summary['reps']} replications: "
          + ", ".join(f"{n} {len(d)} calls" for n, d in summary["durations"].items()))
    print(f"pool: 2 workers {two:.6g} reps/s, 1 worker {one:.6g} reps/s")
    return metrics


def run(args) -> int:
    bench = Bench(args)
    wl = bench.wl
    env = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "command": wl.command, "T": list(wl.T_values), "R": bench.R, "threads": wl.threads,
           "git_rev": _git_rev(), "src_sha256": _src_digest()}
    try:
        probes = bench.setup_probes(trace=bool(args.trace))
        if args.trace:
            third = args.seconds / 3.0
            base = bench.measure("untraced", wl.threads, third)
            other = bench.measure("untraced-other-workers", 1 if wl.threads > 1 else 2, third)
            traced = bench.measure("traced", wl.threads, third, trace=True)
        else:
            base = bench.measure("measure", wl.threads, args.seconds)
            if wl.threads > 1:
                # the same first config on one worker must give the same table
                bench.measure("one-worker", 1, 0.0)
        # every table fed the pooled estimates, so a failed property fails all
        bench.fail_all(checks.check_properties(wl, bench.tables))
        e2e, e2e_detail = end_to_end(probes, base)
        if args.trace:
            layer = per_layer(bench, probes, base, other, traced)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print("env " + json.dumps({**env, **base["environment"]}, sort_keys=True))
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in e2e.items():
        print(f"metric {name} = {value:.6g} {END_TO_END[name]} ({e2e_detail[name]})")
    fail_share = bench.failed / bench.attempted
    print(f"metric fail_share = {fail_share:.6g} ratio ({bench.failed} of {bench.attempted} runs failed)")
    if args.trace:
        for name, unit in PER_LAYER.items():
            tag = " (computed)" if name in COMPUTED else ""
            print(f"layer {name} = {layer[name]:.6g} {unit}{tag}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny replication counts and one set-up probe (smoke test)")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that a running child is killed and
    # reaped, and the scratch directory removed, on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "spherelrd" / "cli.py").is_file():
        print(f"error: no spherelrd source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
