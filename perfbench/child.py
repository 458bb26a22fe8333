"""Runs inside a fresh interpreter started by run.py.  Two modes:

    python3 perfbench/child.py setup PLAN.json
        Time the set-up a user's CLI run pays before its first replication:
        import spherelrd.cli, load and validate the config, and compute the
        null moments for every T.  Writes the stage times to PLAN's ``out``.

    python3 perfbench/child.py measure PLAN.json
        Call ``spherelrd.cli.main`` on generated configs, one invocation after
        another, until ``seconds`` have passed.  Records wall time, CPU time
        (self and reaped pool workers) and replications per invocation, the
        peak resident memory, and the environment.  With ``trace`` set, the
        layer entry points are wrapped first (see spans.py).

The package is imported from the ``src`` directory of the checkout this file
sits in, never from an installed copy.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import WORKLOADS, invocation_seed  # noqa: E402  (HERE is sys.path[0])


def _use_checkout_package() -> None:
    sys.path.insert(0, str(ROOT / "src"))


def _check_origin(module) -> None:
    origin = Path(module.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"spherelrd imported from {origin}, not from {ROOT / 'src'}")


def _write_config(plan: dict, index: int, R: int) -> str:
    wl = WORKLOADS[plan["workload"]]
    path = os.path.join(plan["out"], f"config-{index}.json")
    with open(path, "w") as fh:
        json.dump(wl.doc(invocation_seed(wl.name, plan["seed"], index), R), fh)
    return path


def setup(plan: dict) -> None:
    config_path = _write_config(plan, 0, plan["R"])
    _use_checkout_package()
    t0 = time.perf_counter()
    import spherelrd.cli  # noqa: F401  (the import a CLI run pays)
    t1 = time.perf_counter()
    from spherelrd import config, lrdtest

    _check_origin(config)
    eig_ms = 0.0
    if plan["trace"]:
        eigenvalue = lrdtest.spectral_eigenvalue

        def timed_eigenvalue(*args, **kwargs):
            nonlocal eig_ms
            s = time.perf_counter()
            try:
                return eigenvalue(*args, **kwargs)
            finally:
                eig_ms += 1000.0 * (time.perf_counter() - s)

        lrdtest.spectral_eigenvalue = timed_eigenvalue
    t2 = time.perf_counter()
    doc = config.load_config(config_path)
    experiment = config.experiment_from_config(doc, threads=plan["threads"])
    t3 = time.perf_counter()
    calibration = experiment.null_model()
    for T in experiment.T_values:
        lrdtest.null_moments(calibration, T, lrdtest.bandwidth(T, experiment.rule()))
    t4 = time.perf_counter()
    result = {
        "import_s": t1 - t0,
        "config_build_ms": 1000.0 * (t3 - t2),
        "null_moments_ms": 1000.0 * (t4 - t3),
        "spectral_eigenvalue_ms": eig_ms,
        "setup_s": (t1 - t0) + (t4 - t2),
    }
    with open(os.path.join(plan["out"], "setup.json"), "w") as fh:
        json.dump(result, fh)


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _blas_info() -> dict:
    """BLAS library name, version and its thread count as the library reports it."""
    import numpy as np

    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    getters = (
        "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_", "openblas_get_num_threads",
    )
    for lib in libs:
        if not lib.startswith("/"):
            continue
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in getters:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["blas_threads"] = int(fn())
                info["blas_lib"] = os.path.basename(lib)
                return info
    return info


def _environment() -> dict:
    import multiprocessing

    import numpy as np
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_context().get_start_method(),
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
    env.update(_blas_info())
    return env


def measure(plan: dict) -> None:
    wl = WORKLOADS[plan["workload"]]
    _use_checkout_package()
    from spherelrd import cli

    _check_origin(cli)
    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer(plan["out"])
        tracer.install()

    def invoke(index: int, R: int) -> dict:
        config_path = _write_config(plan, index, R)
        out_dir = os.path.join(plan["out"], f"out-{index}")
        argv = [wl.command, "--config", config_path, "--out", out_dir,
                "--threads", str(plan["threads"])]
        if tracer is not None:
            tracer.run = index
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if tracer is not None:
            tracer.run = -1
        return {
            "index": index,
            "code": code,
            "wall_s": wall,
            "cpu_s": cpu,
            "reps": R * len(wl.T_values),
            "R": R,
            "threads": plan["threads"],
            "table": os.path.join(out_dir, f"{wl.table}.csv"),
        }

    # the warm-up fills lazy imports and caches; index -1 keeps its spans out
    # of the figures and its seed apart from the timed invocations
    invoke(-1, 2)
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < plan["seconds"]:
        runs.append(invoke(len(runs), plan["R"]))
    if tracer is not None:
        tracer.flush()
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "runs": runs,
        "maxrss_kib": max(me.ru_maxrss, kids.ru_maxrss),
        "environment": _environment(),
    }
    with open(os.path.join(plan["out"], "measure.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    mode, plan_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as fh:
        plan = json.load(fh)
    {"setup": setup, "measure": measure}[mode](plan)
