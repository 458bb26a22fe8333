import csv
import json
import math

import numpy as np
import pytest
from conftest import null_moments_by_pair, smoothed_cross_spectrum
from scipy import special, stats

from spherelrd import SpherelrdError
from spherelrd.cli import main
from spherelrd.harmonics import DegreeRange
from spherelrd.harness import ExperimentConfig, _standardized_entries
from spherelrd.models import build_spharma, example_model, reference_spharma11
from spherelrd.simulate import CoefficientPanel, SeedSpec, simulate_panel
from spherelrd.spectral import epanechnikov, fdft_panel, reduce_frequency
from spherelrd.lrdtest import (
    _entries,
    bandwidth,
    column_degrees,
    critical_value,
    g_weights,
    leading_columns,
    null_moments,
    profile_mean_diag,
    statistic_matrix,
    window_indices,
)


# --- bandwidth and window ---------------------------------------------------

def test_bandwidth_rule_validation():
    for beta in (0.0, 1.0, 1.5):
        with pytest.raises(SpherelrdError, match=r"beta must lie in \(0, 1\)"):
            bandwidth(1000, beta)


def test_bandwidth_values():
    # [TRIVIAL] 1000^(-1/4)
    assert bandwidth(1000, 0.25) == pytest.approx(
        0.1778279410038923, abs=1e-15
    )
    # a beta inside (0, 1) can still round B to 1, or B * T down to 1
    with pytest.raises(SpherelrdError, match=r"bandwidth 1 outside \(0, 1\)"):
        bandwidth(100, 1e-20)
    with pytest.raises(SpherelrdError, match=r"B \* T = 1 <= 1 \(window too narrow\)"):
        bandwidth(2, math.nextafter(1.0, 0.0))
    with pytest.raises(SpherelrdError, match="T must be at least 2"):
        bandwidth(1, 0.25)


def test_window_indices_layout():
    T = 1000
    B = bandwidth(T, 0.25)
    win = window_indices(T, B)
    # smax = floor(T sqrt(B) / 4 pi) = 33, mirrored to the negative side
    assert len(win) == 66
    assert win[0] == 1 and win[32] == 33
    assert win[33] == T - 33 and win[-1] == T - 1
    assert 0 not in win


def test_window_boundary_ties_included():
    # sqrt(B) chosen so the boundary frequency is exactly the s = 2 ordinate
    B = (8 * np.pi / 100) ** 2
    np.testing.assert_array_equal(window_indices(100, B), [1, 2, 98, 99])


def test_window_empty_raises():
    with pytest.raises(SpherelrdError, match="no nonzero Fourier frequency inside the window for T=50, B=0.04"):
        window_indices(50, 0.04)


def test_g_weights_match_direct_sum():
    for T, B in ((127, 0.3), (200, 0.12)):
        win = window_indices(T, B)
        g = g_weights(T, B)
        omegas = 2 * np.pi * np.arange(T) / T
        direct = np.zeros(T)
        for s in win:
            diffs = reduce_frequency(2 * np.pi * s / T - omegas)
            direct += epanechnikov(diffs / B) / B
        direct *= 2 * np.pi / T
        np.testing.assert_allclose(g, direct, atol=1e-12)


def test_g_weights_cached_read_only():
    g = g_weights(200, 0.12)
    assert g_weights(200, 0.12) is g
    assert not g.flags.writeable


def test_g_weights_total_mass():
    # (2 pi / T) sum_v g_v approximates the window width sqrt(B)
    T = 1000
    B = bandwidth(T, 0.25)
    g = g_weights(T, B)
    assert (2 * np.pi / T) * g[1:].sum() == pytest.approx(math.sqrt(B), rel=0.05)


def test_g_support_is_exact():
    # The support is built from integer indices; g vanishes outside it up to
    # the rounding of its FFT, and the fold adds each mirror ordinate once.
    from spherelrd.lrdtest import _half_support

    for T, size in ((3000, 151), (1000, 61), (8192, 348)):
        B = T**-0.25
        v, w = _half_support(T, B)
        assert len(v) == size
        g = g_weights(T, B)
        outside = np.ones(T, dtype=bool)
        outside[0] = False
        outside[v] = outside[T - v] = False
        assert np.abs(g[outside]).max() <= 1e-15 * np.abs(g).max()
        np.testing.assert_array_equal(w, 2.0 * g[v])


# --- statistic --------------------------------------------------------------

def test_statistic_matches_window_sum_definition(small_model):
    # The quadratic-form evaluation equals the literal low-frequency window
    # sum sqrt(T) (2 pi / T) sum_{s in window} f_hat_{w_s}[a, b].
    panel = simulate_panel(small_model, 64, SeedSpec(base_seed=17))
    dft = fdft_panel(panel)
    B = 0.3
    S = statistic_matrix(dft, B)
    for a, b in (((1, 1), (1, 1)), ((1, 2), (2, 3))):
        brute = 0.0 + 0.0j
        for s in window_indices(64, B):
            w = reduce_frequency(2 * np.pi * s / 64)
            brute += smoothed_cross_spectrum(dft, a, b, w, B)
        brute *= math.sqrt(64) * 2 * np.pi / 64
        entry = S[dft.degrees.column(*a), dft.degrees.column(*b)]
        assert entry == pytest.approx(brute, abs=1e-10)


@pytest.mark.parametrize("T", [64, 1001, 3000])
def test_statistic_matches_full_grid_complex_definition(small_model, T):
    # S = sqrt(T) (2 pi / T) sum_{v=1}^{T-1} g_v A_v conj(A_v)^T over the full
    # grid of the complex FFT, for odd and even T (an even T's half grid ends
    # at the Nyquist ordinate): the fold onto the half grid and the cut to the
    # support of g change S by rounding only.
    panel = simulate_panel(small_model, T, SeedSpec(base_seed=23))
    B = bandwidth(T, 0.25)
    A = np.fft.fft(panel.data, axis=0)[1:] / np.sqrt(2 * np.pi * T)
    g = g_weights(T, B)[1:]
    full = math.sqrt(T) * (2 * np.pi / T) * ((A * g[:, None]).T @ np.conj(A))
    dft = fdft_panel(panel)
    got = statistic_matrix(dft, B)
    np.testing.assert_allclose(got, full.real, rtol=1e-12, atol=0)
    np.testing.assert_allclose(full.imag, 0.0, atol=1e-12 * np.abs(full).max())
    cols = list(range(dft.degrees.dim))
    np.testing.assert_allclose(_entries(dft, B, cols), np.diag(full).real, rtol=1e-12, atol=0)


def test_statistic_hermitian_real_diagonal(small_dft):
    B = 0.2
    S = statistic_matrix(small_dft, B)
    assert S.shape == (small_dft.degrees.dim,) * 2
    np.testing.assert_allclose(S, S.conj().T, atol=1e-10)
    assert np.all(np.abs(np.diag(S).imag) < 1e-10)
    assert np.all(np.diag(S).real > 0)


def _test_report(tmp_path, doc) -> list:
    """Rows that ``spherelrd test`` writes for ``doc``, as a list of dicts."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["test", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "test_report.csv") as fh:
        return list(csv.DictReader(fh))


TEST_DOC = {
    "model": {"generator": "example1", "degrees": [1, 3]},
    "experiment": {"T": [300], "beta": 0.25, "level": 0.05, "directions": 10, "seed": 41},
}


def test_projected_test_matches_statistic_matrix(tmp_path):
    # spherelrd test reports diagonal entries of the full statistic matrix of
    # the stream-0 panel, standardized by the null mean and sd sqrt(2 V2(n, n)),
    # across a degree boundary (directions 10 reach degree 3).
    rows = _test_report(tmp_path, TEST_DOC)
    model = example_model(1, 1, 3)
    dft = fdft_panel(simulate_panel(model, 300, SeedSpec(base_seed=41)))
    B = bandwidth(300, 0.25)
    mean, sd = null_moments(model.srd_part(), 300, B)
    S = statistic_matrix(dft, B)
    cols = leading_columns(model.degrees, 10)
    assert [(int(r["n"]), int(r["j"])) for r in rows] == cols
    for (n, j), row in zip(cols, rows):
        k = model.degrees.column(n, j)
        want = S[k, k]
        assert float(row["statistic"]) == pytest.approx(want, rel=1e-12)
        i = n - model.degrees.n_min
        assert float(row["z"]) == pytest.approx((want - mean[i]) / sd[i], rel=1e-12)


def test_statistic_quadratic_scaling(small_model):
    panel = simulate_panel(small_model, 128, SeedSpec(base_seed=4))
    scaled = CoefficientPanel(T=128, degrees=panel.degrees, data=3.0 * panel.data)
    s1 = statistic_matrix(fdft_panel(panel), 0.25)
    s9 = statistic_matrix(fdft_panel(scaled), 0.25)
    np.testing.assert_allclose(s9, 9.0 * s1, rtol=1e-10)


def test_statistic_zero_panel():
    panel = CoefficientPanel(T=64, degrees=DegreeRange(1, 1), data=np.zeros((64, 3)))
    np.testing.assert_array_equal(statistic_matrix(fdft_panel(panel), 0.3), 0.0)


# --- null moments -----------------------------------------------------------

def test_white_noise_null_moments_frozen(white_noise_model):
    # [DERIVED] frozen grid-exact moments for unit white noise at T = 1000,
    # B = 1000^(-1/4); the continuous-profile mean has the closed form
    # sqrt(B T) / (2 pi) and the grid mean sits ~3% below it because the
    # v = 0 ordinate is excluded.  The sd is sqrt(2 V2(n, n)); a flat
    # spectrum gives every pair of degrees the same kernel V2(n, h).
    T = 1000
    B = bandwidth(T, 0.25)
    mean, sd = null_moments(white_noise_model, T, B)
    assert mean[0] == pytest.approx(2.0564905230746127, abs=1e-9)
    assert mean[1] == pytest.approx(mean[0], abs=1e-12)
    assert sd[0] ** 2 / 2 == pytest.approx(0.049643400509657036, abs=1e-9)
    assert sd[1] == pytest.approx(sd[0], abs=1e-12)
    _, second = null_moments_by_pair(white_noise_model, T, B)
    assert second[(1, 2)] == pytest.approx(second[(1, 1)], abs=1e-12)
    cont = profile_mean_diag(white_noise_model, T, B)
    assert cont[0] == pytest.approx(math.sqrt(B * T) / (2 * math.pi), rel=1e-6)
    assert mean[0] < cont[0]
    assert cont[0] / mean[0] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize(
    "model",
    [
        build_spharma(DegreeRange(1, 2), [], [], innov=1.0),
        reference_spharma11(),
        example_model(1).srd_part(),
        build_spharma(DegreeRange(0, 3), [[0.5, -0.3], [0.2, 0.4], [0.9, -0.2], [0.1, 0.0]], []),
    ],
    ids=["white-noise", "reference", "example1", "ar2"],
)
@pytest.mark.parametrize("T", [50, 1000, 3000])
def test_null_moments_equal_per_pair_oracle(model, T):
    # the batched moments are bit for bit the per-degree sums: the mean, and
    # the sd as sqrt(2 V2(n, n)) of the per-pair kernel's diagonal
    B = bandwidth(T, 0.25)
    mean, sd = null_moments(model, T, B)
    want_mean, second = null_moments_by_pair(model, T, B)
    degs = model.degrees.degrees
    np.testing.assert_array_equal(mean, [want_mean[n] for n in degs])
    np.testing.assert_array_equal(sd, np.sqrt([2.0 * second[(n, n)] for n in degs]))


def _exact_arma11_mean(model, T: int, B: float) -> np.ndarray:
    """Exact finite-T mean of a diagonal entry S[a, a] per degree of an
    ARMA(1, 1) model: the Fejer sum (2 pi T)^(-1) sum_{|h|<T} (T - |h|)
    gamma(h) cos(h w) = E|d(w)|^2 at the g-support ordinates of
    ``_half_support``, from the closed-form autocovariance gamma(h)."""
    from spherelrd.lrdtest import _half_support

    phi, psi, s2 = model.phi[:, 0], model.psi[:, 0], model.innov
    gamma0 = s2 * (1 + 2 * phi * psi + psi**2) / (1 - phi**2)
    gamma1 = s2 * (1 + phi * psi) * (phi + psi) / (1 - phi**2)
    h = np.arange(1, T)
    gamma = gamma1[:, None] * phi[:, None] ** (h - 1)
    v, w = _half_support(T, B)
    fejer = (T * gamma0[:, None] + 2 * ((T - h) * gamma) @ np.cos(np.outer(h, 2 * np.pi * v / T)))
    return math.sqrt(T) * (2 * np.pi / T) * (fejer / (2 * np.pi * T)) @ w


def test_null_mean_is_a_grid_approximation_of_the_exact_mean():
    # null_moments puts f_n(w_v) where the exact mean has the Fejer-smoothed
    # E|d(w_v)|^2: on the reference model the exact mean falls short of the
    # grid mean, most at small T and high degree, and the gap closes with T
    model = reference_spharma11()
    want = {50: (0.989, 0.975), 100: (0.994, 0.986), 1000: (0.999, 0.998)}
    ratios = []
    for T, (first, last) in want.items():
        B = bandwidth(T, 0.25)
        ratio = _exact_arma11_mean(model, T, B) / null_moments(model, T, B)[0]
        assert (ratio[0], ratio[-1]) == (pytest.approx(first, abs=5e-4), pytest.approx(last, abs=5e-4))
        ratios.append(ratio)
    assert np.all(np.diff(ratios, axis=0) > 0) and np.all(np.asarray(ratios) < 1)


def test_null_moment_accessors(small_model):
    # a column's raw entry is read at its index in the simulated sub-range,
    # and standardized by the null mean and sd of its degree
    T = 500
    config = ExperimentConfig(model=small_model, T_values=(T,), R=1, seed=83)
    B = bandwidth(T, config.beta)
    mean, sd = null_moments(small_model, T, B)
    assert mean[0] != mean[1] and sd[0] != sd[1]
    cases = [
        ([(2, 1), (1, 3), (2, 5)], DegreeRange(1, 2), [3, 2, 7], [1, 0, 1]),
        ([(2, 1), (2, 5)], DegreeRange(2, 2), [0, 4], [1, 1]),
    ]
    for cols, degrees, idx, rows in cases:
        [(s, z)] = _standardized_entries(config, cols, 1)
        panel = simulate_panel(small_model, T, SeedSpec(base_seed=83), degrees=degrees)
        np.testing.assert_array_equal(s[0], _entries(fdft_panel(panel), B, idx))
        np.testing.assert_array_equal(z, (s - mean[rows]) / sd[rows])


def test_continuous_moments_node_converged(small_model, monkeypatch):
    from spherelrd import lrdtest

    T, B = 1000, 0.17782794100389226
    assert lrdtest._NODES == 256
    m1 = profile_mean_diag(small_model, T, B)
    monkeypatch.setattr(lrdtest, "_NODES", 512)
    m2 = profile_mean_diag(small_model, T, B)
    assert m1.shape == (2,)
    np.testing.assert_allclose(m1, m2, rtol=1e-3)


def test_calibration_under_alternative(example1_model):
    T, B = 500, 0.2
    with pytest.raises(SpherelrdError, match="model has nonzero memory exponents"):
        null_moments(example1_model, T, B)
    # the experiments calibrate a long-memory model against its short-memory factor
    config = ExperimentConfig(model=example1_model, T_values=(T,), R=1)
    mean, _ = null_moments(config.null_model(), T, B)
    srd_mean, _ = null_moments(example1_model.srd_part(), T, B)
    assert mean[0] == pytest.approx(srd_mean[0], abs=1e-12)


def test_statistic_moments_match_monte_carlo(small_model):
    # Grid-exact calibration against a moderate Monte Carlo: mean of the
    # diagonal entry within 4 standard errors, variance within 25%.
    T, R = 500, 400
    B = bandwidth(T, 0.25)
    mean, sd = null_moments(small_model, T, B)
    vals = np.empty(R)
    for r in range(R):
        panel = simulate_panel(small_model, T, SeedSpec(base_seed=808, stream_id=r))
        vals[r] = statistic_matrix(fdft_panel(panel), B)[0, 0]
    se = vals.std(ddof=1) / math.sqrt(R)
    assert abs(vals.mean() - mean[0]) < 4 * se
    assert vals.var(ddof=1) == pytest.approx(sd[0] ** 2, rel=0.25)


# --- decisions and reports --------------------------------------------------

def test_critical_value():
    assert critical_value(0.05) == pytest.approx(1.959963985, abs=1e-6)
    # bit for bit the normal quantile scipy.stats gives
    for level in (0.01, 0.05, 0.1, 0.2, 1e-6, 0.999):
        assert critical_value(level) == float(stats.norm.ppf(1.0 - level / 2.0))
    with pytest.raises(SpherelrdError, match=r"level must lie in \(0, 1\), got 0.0"):
        critical_value(0.0)


def test_report_rows_and_csv(tmp_path):
    rows = _test_report(tmp_path, TEST_DOC)
    assert list(rows[0]) == ["n", "j", "statistic", "z", "p", "reject"]
    assert [(r["n"], r["j"]) for r in rows][:4] == [("1", "1"), ("1", "2"), ("1", "3"), ("2", "1")]
    assert all(r["reject"] in ("0", "1") for r in rows)
    # Example 1 is long-memory: its first directions reject at T = 300
    assert rows[0]["reject"] == "1"
    # .17g holds each float the run computed exactly
    config = ExperimentConfig(
        model=example_model(1, 1, 3), T_values=(300,), beta=0.25, n_directions=10, seed=41
    )
    [(s, z)] = _standardized_entries(config, leading_columns(config.model.degrees, 10), 1)
    p = 2.0 * special.ndtr(-np.abs(z[0]))
    for row, want in zip(rows, zip(s[0], z[0], p)):
        assert tuple(float(row[key]) for key in ("statistic", "z", "p")) == want


def test_report_extend_decides_like_scalar_formulas(tmp_path):
    # the vector decision gives the rows the per-row scalar formulas give
    crit = critical_value(0.05)
    rows = _test_report(tmp_path, TEST_DOC)
    assert len(rows) == 10
    for row in rows:
        z = float(row["z"])
        assert float(row["p"]) == float(2.0 * stats.norm.sf(abs(z)))
        assert row["reject"] == str(int(abs(z) > crit))


def test_leading_columns():
    cols = leading_columns(DegreeRange(1, 8), 8)
    assert cols == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5)]
    # degree 0 carries no test column
    assert leading_columns(DegreeRange(0, 2), 2) == [(1, 1), (1, 2)]
    assert leading_columns(DegreeRange(0, 2), 8) == DegreeRange(1, 2).index_list()
    assert column_degrees(cols) == DegreeRange(1, 2)
    assert column_degrees([(3, 1), (5, 2)]) == DegreeRange(3, 5)


def test_projected_test_report(tmp_path):
    # spherelrd test is replication 0 of mc-power on the same config: its
    # decisions are the R = 1 power table's rates
    rows = _test_report(tmp_path, TEST_DOC)
    cfg = tmp_path / "config.json"
    doc = dict(TEST_DOC, experiment=dict(TEST_DOC["experiment"], R=1))
    cfg.write_text(json.dumps(doc))
    assert main(["mc-power", "--config", str(cfg), "--out", str(tmp_path / "power")]) == 0
    with open(tmp_path / "power" / "power.csv") as fh:
        rates = [r["value"] for r in csv.DictReader(fh)]
    assert rates == [r["reject"] for r in rows]
    assert all(np.isfinite(float(r["z"])) for r in rows)
    assert all(0.0 <= float(r["p"]) <= 1.0 for r in rows)
