"""Output checks on the CSV tables the CLI writes.

``check_table`` checks one table: every expected key is present, no other
key is, and every value is finite and in range.  ``check_properties`` checks
the paper property of the workload on all tables of a run pooled together,
with a tolerance that shrinks with the pooled replication count.
"""

from __future__ import annotations

import csv
import hashlib
import math

LEVEL = 0.05
N_BINS = 41  # run_distribution's default histogram
DEGREES = range(1, 9)
# The projected test is slightly undersized at finite T: pooled over 8
# directions and R = 2000 at T = 1000 its size is 0.043 against a level of
# 0.05.  The size check allows this much on top of its sampling tolerance.
SIZE_ALLOWANCE = 0.01
Z = 5.0  # sampling tolerance in standard errors; a false alarm is ~1e-6


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_table(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def expected_keys(wl) -> set:
    """(T, key) pairs the workload's table must hold."""
    if wl.table in ("size", "power"):
        return {(T, f"direction_{i}") for T in wl.T_values for i in range(wl.directions)}
    if wl.table == "distribution":
        keys = set()
        for T in wl.T_values:
            for n in DEGREES:
                keys |= {(T, f"ks_n{n}"), (T, f"mean_n{n}"), (T, f"var_n{n}")}
                keys |= {(T, f"hist_n{n}_bin{b}") for b in range(N_BINS)}
        return keys
    if wl.table == "consistency":
        return {(T, "integrated_variance") for T in wl.T_values} | {(0, "loglog_slope")}
    raise ValueError(f"no checks for table {wl.table!r}")


def _in_range(table: str, key: str, value: float) -> bool:
    if table in ("size", "power"):
        return 0.0 <= value <= 1.0
    if key.startswith("ks_"):
        return 0.0 < value <= 1.0
    if key.startswith(("var_", "integrated_variance")):
        return value > 0.0
    if key.startswith("hist_"):
        return value >= 0.0
    if key == "loglog_slope":
        return value < 0.0  # the smoothed-spectrum variance decays with B*T
    return True


def check_table(wl, path: str, R: int) -> tuple:
    """Return (problems, values) for one table; values maps (T, key) -> value."""
    try:
        rows = read_table(path)
    except OSError as exc:
        return [f"cannot read {path}: {exc}"], {}
    problems = []
    values = {}
    for row in rows:
        try:
            T, key = int(row["T"]), row["key"]
            value = float(row["value"])
            row_R = int(row["R"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed row {row}: {exc}")
            continue
        if row["experiment"] != wl.table:
            problems.append(f"row {key} names experiment {row['experiment']!r}")
        if row_R != R:
            problems.append(f"row {key} has R={row_R}, config R={R}")
        if not math.isfinite(value):
            problems.append(f"T={T} {key} = {value} is not finite")
        elif not _in_range(wl.table, key, value):
            problems.append(f"T={T} {key} = {value} out of range")
        if (T, key) in values:
            problems.append(f"T={T} {key} appears twice")
        values[(T, key)] = value
    missing = expected_keys(wl) - set(values)
    extra = set(values) - expected_keys(wl)
    if missing:
        problems.append(f"{len(missing)} keys missing, e.g. {sorted(missing)[0]}")
    if extra:
        problems.append(f"{len(extra)} unexpected keys, e.g. {sorted(extra)[0]}")
    return problems, values


def _mean(xs) -> float:
    return sum(xs) / len(xs)


def check_properties(wl, tables: list) -> list:
    """Pooled paper-property checks; ``tables`` holds (R, values) per table."""
    if not tables:
        return ["no table to check"]
    R_total = sum(R for R, _ in tables)
    problems = []
    if wl.table in ("size", "power"):
        draws = wl.directions * R_total
        se = math.sqrt(LEVEL * (1 - LEVEL) / draws)
        for T in wl.T_values:
            rate = _mean([v[(T, f"direction_{i}")] for _, v in tables for i in range(wl.directions)])
            if wl.table == "size" and abs(rate - LEVEL) > Z * se + SIZE_ALLOWANCE:
                problems.append(
                    f"size at T={T} is {rate:.4f}, level {LEVEL} +/- {Z * se + SIZE_ALLOWANCE:.4f}"
                )
            if wl.table == "power" and rate <= LEVEL + Z * se:
                problems.append(f"power at T={T} is {rate:.4f}, not above size {LEVEL} + {Z * se:.4f}")
    elif wl.table == "distribution":
        for T in wl.T_values:
            for n in DEGREES:
                draws = (2 * n + 1) * R_total
                var = _mean([v[(T, f"var_n{n}")] for _, v in tables])
                mean = _mean([v[(T, f"mean_n{n}")] for _, v in tables])
                if abs(var - 1.0) > Z * math.sqrt(2.0 / draws):
                    problems.append(f"pooled z variance of degree {n} at T={T} is {var:.4f}")
                if abs(mean) > Z * math.sqrt(1.0 / draws):
                    problems.append(f"pooled z mean of degree {n} at T={T} is {mean:.4f}")
    # consistency: the slope sign is checked on every table by check_table
    return problems
