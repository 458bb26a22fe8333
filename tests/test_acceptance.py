"""Acceptance gate: the headline Monte Carlo results and the numeric oracles.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in the
captured output) and asserts the stated tolerance.  The Monte Carlo settings
match the shipped experiment configs in ``configs/``; everything is seeded,
so the suite is deterministic.
"""

import math

import numpy as np
import pytest
from conftest import null_moments_by_pair, smoothed_cross_spectrum, table_values

from spherelrd.harmonics import DegreeRange
from spherelrd.models import example_model, reference_spharma11, spectral_eigenvalue
from spherelrd.simulate import SeedSpec, _weight_spectrum, fractional_weights, simulate_panel
from spherelrd.spectral import fdft_panel
from spherelrd.lrdtest import (
    bandwidth,
    null_moments,
    statistic_matrix,
)
from spherelrd.harness import (
    ExperimentConfig,
    run_bandwidth_sweep,
    run_consistency,
    run_distribution,
    run_divergence,
    run_power,
    run_size,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} -- {detail}")
    assert ok, f"{name}: {detail}"


# --- 1. empirical size ------------------------------------------------------

def test_acceptance_empirical_size():
    config = ExperimentConfig(
        model=reference_spharma11(), T_values=(1000,), R=500, beta=0.25,
        level=0.05, seed=20260825,
    )
    rates = table_values(run_size(config), "direction_")
    lo, hi = min(rates), max(rates)
    ok = len(rates) == 8 and all(0.02 <= r <= 0.08 for r in rates)
    _verdict(
        "empirical size (T=1000, R=500, level 0.05, 8 directions in [0.02, 0.08])",
        ok,
        f"rates in [{lo:.3f}, {hi:.3f}]",
    )


# --- 2. empirical power -----------------------------------------------------

def test_acceptance_empirical_power():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = ExperimentConfig(
            model=example_model(1), T_values=(50, 100, 1000), R=500, beta=0.25,
            level=0.05, seed=20260826,
        )
        table = run_power(config)
    r50 = table_values(table, "direction_", T=50)
    r100 = table_values(table, "direction_", T=100)
    r1000 = table_values(table, "direction_", T=1000)
    ok = (
        all(0.70 <= r <= 0.97 for r in r50)
        and all(r >= 0.95 for r in r100)
        and all(r >= 0.99 for r in r1000)
    )
    _verdict(
        "empirical power (Example 1; T=50 in [0.70, 0.97], T=100 >= 0.95, T=1000 >= 0.99)",
        ok,
        f"T=50 [{min(r50):.3f}, {max(r50):.3f}], T=100 min {min(r100):.3f}, "
        f"T=1000 min {min(r1000):.3f}",
    )


# --- 3. null distribution ---------------------------------------------------

def test_acceptance_null_distribution():
    config = ExperimentConfig(
        model=reference_spharma11(), T_values=(3000,), R=1000, beta=0.25,
        seed=20260825,
    )
    table = run_distribution(config)
    ks = [table_values(table, f"ks_n{n}")[0] for n in range(1, 9)]
    var = [table_values(table, f"var_n{n}")[0] for n in range(1, 9)]
    ok = all(k < 0.06 for k in ks) and all(0.85 <= v <= 1.15 for v in var)
    _verdict(
        "null distribution (T=3000, R=1000; per-degree KS < 0.06, variance in [0.85, 1.15])",
        ok,
        f"KS max {max(ks):.4f}, variance in [{min(var):.3f}, {max(var):.3f}]",
    )


# --- 4. divergence under the alternative ------------------------------------

def test_acceptance_divergence():
    config = ExperimentConfig(
        model=example_model(1), T_values=(1000, 5000, 10000), R=1, beta=0.25,
        seed=1,
    )
    norms = table_values(run_divergence(config), "hs_norm_gridsum")
    reference_1000 = 2.3036e5
    increasing = norms[0] < norms[1] < norms[2]
    magnitude = reference_1000 / 5.0 <= norms[0] <= reference_1000 * 5.0
    ratio = norms[2] / norms[0]
    ok = increasing and magnitude and ratio >= 100.0
    _verdict(
        "divergence (Example 1, seed 1; increasing in T, T=1000 within 5x of 2.3036e5, "
        "T=10000/T=1000 ratio >= 100)",
        ok,
        f"norms {norms[0]:.4g} / {norms[1]:.4g} / {norms[2]:.4g}, ratio {ratio:.1f}",
    )


# --- 5. bandwidth sweep -----------------------------------------------------

def test_acceptance_bandwidth_sweep():
    config = ExperimentConfig(
        model=example_model(1), T_values=(1000, 50000, 100000), R=1, beta=0.25,
        seed=1, betas=(0.2, 0.55, 0.9),
    )
    table = run_bandwidth_sweep(config)
    at_1000 = [
        r["value"] for r in table.rows if r["T"] == 1000 and r["key"] == "rescaled_norm"
    ]
    spread = max(at_1000) / min(at_1000)
    mid = [
        r["value"]
        for r in table.rows
        if r["beta"] == 0.55 and r["key"] == "rescaled_norm" and r["T"] in (50000, 100000)
    ]
    growth = mid[1] / mid[0]
    ok = spread <= 1.5 and abs(growth - 4.0) <= 0.4
    _verdict(
        "bandwidth sweep (rescaled norm spread <= 1.5 over beta in {0.2, 0.55, 0.9} "
        "at T=1000; ~4x growth from T=50000 to T=100000)",
        ok,
        f"spread {spread:.3f}, growth {growth:.3f}",
    )


# --- 6. estimator consistency -----------------------------------------------

def test_acceptance_consistency():
    config = ExperimentConfig(
        model=example_model(1), T_values=(512, 2048, 8192), R=50, beta=0.25,
        seed=555,
    )
    table = run_consistency(config)
    slope = table_values(table, "loglog_slope")[0]
    ok = -1.3 <= slope <= -0.7
    _verdict(
        "estimator consistency (integrated-variance log-log slope vs B*T in -1 +/- 0.3)",
        ok,
        f"slope {slope:.3f}",
    )


# --- 7. numeric oracle suite ------------------------------------------------

def test_acceptance_oracle_zero_frequency_eigenvalue():
    val = spectral_eigenvalue(reference_spharma11(), 0.0)[0, 0]
    err = abs(val - 0.32036146556075057)
    _verdict("oracle: f_1(0) = 0.320361... within 1e-9", err < 1e-9, f"f_1(0) = {val:.10f}")


def test_acceptance_oracle_fractional_weights():
    psi = fractional_weights(0.3, 200)
    total = float(np.sum(psi * 0.5 ** np.arange(201)))
    err = abs(total - 0.5**-0.3)
    _verdict(
        "oracle: fractional-weight generating function within 1e-9",
        err < 1e-9,
        f"sum = {total:.12f}",
    )


def test_acceptance_oracle_parseval():
    panel = simulate_panel(reference_spharma11(1, 2), 512, SeedSpec(base_seed=7))
    dft = fdft_panel(panel)
    # the half grid s = 0..256 counts every ordinate but 0 and 256 twice
    mult = np.full(257, 2.0)
    mult[[0, 256]] = 1.0
    lhs = 2 * np.pi * np.sum(mult @ np.abs(dft.coeffs) ** 2)
    rhs = np.sum(panel.data**2)
    rel = abs(lhs - rhs) / rhs
    _verdict("oracle: Parseval identity within 1e-10", rel < 1e-10, f"relative error {rel:.2e}")


def test_acceptance_oracle_flat_spectrum():
    from spherelrd.models import build_spharma

    model = build_spharma(DegreeRange(1, 1), [], [], innov=1.0)
    acc, count = 0.0, 0
    for r in range(80):
        dft = fdft_panel(simulate_panel(model, 512, SeedSpec(base_seed=31, stream_id=r)))
        for w in (0.8, 2.0):
            acc += smoothed_cross_spectrum(dft, (1, 1), (1, 1), w, 0.2).real
            count += 1
    mean = acc / count
    rel = abs(mean - 1 / (2 * np.pi)) * 2 * np.pi
    _verdict(
        "oracle: flat-spectrum smoothed periodogram unbiased within 5%",
        rel < 0.05,
        f"mean = {mean:.5f} vs {1 / (2 * np.pi):.5f}",
    )


def test_acceptance_oracle_statistic_moments():
    # Statistic mean within 3 Monte Carlo standard errors and variance within
    # 15% of the grid-exact calibration at T=2000, R=2000.
    model = reference_spharma11(1, 2)
    T, R = 2000, 2000
    B = bandwidth(T, 0.25)
    mean, sd = null_moments(model, T, B)
    _, second = null_moments_by_pair(model, T, B)
    col = model.degrees.column
    diag = np.empty(R)
    off = np.empty(R)
    for r in range(R):
        panel = simulate_panel(model, T, SeedSpec(base_seed=4242, stream_id=r))
        s = statistic_matrix(fdft_panel(panel), B)
        diag[r] = s[col(1, 1), col(1, 1)]
        off[r] = s[col(1, 1), col(2, 1)]
    se = diag.std(ddof=1) / math.sqrt(R)
    mean_err = abs(diag.mean() - mean[0])
    var_rel = abs(diag.var(ddof=1) / sd[0] ** 2 - 1.0)
    off_rel = abs(off.var(ddof=1) / second[(1, 2)] - 1.0)
    ok = mean_err < 3 * se and var_rel < 0.15 and off_rel < 0.15
    _verdict(
        "oracle: statistic mean within 3 SE, variances within 15% (T=2000, R=2000)",
        ok,
        f"mean err {mean_err:.4f} (SE {se:.4f}), diag var rel {var_rel:.3f}, "
        f"offdiag var rel {off_rel:.3f}",
    )


def test_acceptance_oracle_thread_invariance():
    model = reference_spharma11(1, 2)
    base = dict(T_values=(256,), R=12, seed=321)
    t1 = run_size(ExperimentConfig(model=model, threads=1, **base))
    t2 = run_size(ExperimentConfig(model=model, threads=2, **base))
    # under the alternative the fractional filter runs; the pool runs first on
    # an empty weight-spectrum cache, so each worker fills its own
    _weight_spectrum.cache_clear()
    alt = dict(model=example_model(1, 1, 2), T_values=(64,), R=6, seed=321)
    p2 = run_power(ExperimentConfig(threads=2, **alt))
    p1 = run_power(ExperimentConfig(threads=1, **alt))
    # 20 directions touch degrees 1..4 of 1..8: the simulated sub-range must
    # reach the pool workers unchanged
    wide = dict(model=example_model(1), T_values=(64,), R=6, seed=321, n_directions=20)
    w1 = run_power(ExperimentConfig(threads=1, **wide))
    w2 = run_power(ExperimentConfig(threads=2, **wide))
    # the consistency sums are floating point: equal rows need the same
    # chunk grouping at every worker count
    cons = dict(model=example_model(1, 1, 2), T_values=(256, 1024), R=12, seed=321)
    c1 = run_consistency(ExperimentConfig(threads=1, **cons))
    c2 = run_consistency(ExperimentConfig(threads=2, **cons))
    # stacked per-replication rows must come back in replication order
    dist = dict(model=model, T_values=(128, 256), R=10, seed=321)
    d1 = run_distribution(ExperimentConfig(threads=1, **dist))
    d2 = run_distribution(ExperimentConfig(threads=2, **dist))
    div = dict(model=example_model(1, 1, 2), T_values=(128, 256), R=7, seed=321)
    v1 = run_divergence(ExperimentConfig(threads=1, **div))
    v2 = run_divergence(ExperimentConfig(threads=2, **div))
    pairs = [(t1, t2), (p1, p2), (w1, w2), (c1, c2), (d1, d2), (v1, v2)]
    ok = all(a.rows == b.rows for a, b in pairs)
    _verdict(
        "oracle: results independent of worker count",
        ok,
        f"{len(t1.rows)} size, {len(p1.rows) + len(w1.rows)} power, "
        f"{len(c1.rows)} consistency, {len(d1.rows)} distribution and "
        f"{len(v1.rows)} divergence rows compared",
    )
