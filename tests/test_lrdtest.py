import csv
import math

import numpy as np
import pytest
from scipy import stats

from spherelrd.harmonics import DegreeRange
from spherelrd.harness import ExperimentConfig
from spherelrd.models import build_spharma
from spherelrd.simulate import CoefficientPanel, SeedSpec, simulate_panel
from spherelrd.spectral import SmoothingSpec, fdft_panel, reduce_frequency, smoothed_cross_spectrum
from spherelrd.lrdtest import (
    BandwidthRule,
    CalibrationUnderAlternative,
    DegenerateBandwidth,
    Direction,
    EmptyWindow,
    TestError,
    TestReport,
    ZeroVarianceDirection,
    bandwidth,
    critical_value,
    default_pairs,
    direction_from_pair,
    draw_direction,
    g_weights,
    null_moments,
    projected_hs_norm,
    projected_test,
    random_projection_test,
    statistic_matrix,
    window_indices,
)


# --- bandwidth and window ---------------------------------------------------

def test_bandwidth_rule_validation():
    with pytest.raises(TestError):
        BandwidthRule()
    with pytest.raises(TestError):
        BandwidthRule(beta=0.25, explicit=0.1)
    with pytest.raises(DegenerateBandwidth):
        BandwidthRule(beta=1.5)


def test_bandwidth_values():
    # [TRIVIAL] 1000^(-1/4)
    assert bandwidth(1000, BandwidthRule(beta=0.25)) == pytest.approx(
        0.1778279410038923, abs=1e-15
    )
    assert bandwidth(50, BandwidthRule(explicit=0.1)) == 0.1
    with pytest.raises(DegenerateBandwidth):
        bandwidth(100, BandwidthRule(explicit=1.5))
    with pytest.raises(DegenerateBandwidth):
        bandwidth(100, BandwidthRule(explicit=0.005))  # B * T <= 1
    with pytest.raises(TestError):
        bandwidth(1, BandwidthRule(beta=0.25))


def test_window_indices_layout():
    T = 1000
    B = bandwidth(T, BandwidthRule(beta=0.25))
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
    with pytest.raises(EmptyWindow):
        window_indices(50, 0.04)


def test_g_weights_match_direct_sum():
    for T, B in ((127, 0.3), (200, 0.12)):
        spec = SmoothingSpec(bandwidth=B)
        win = window_indices(T, B)
        g = g_weights(T, B)
        omegas = 2 * np.pi * np.arange(T) / T
        direct = np.zeros(T)
        for s in win:
            diffs = reduce_frequency(2 * np.pi * s / T - omegas)
            direct += spec.weight(diffs / B) / B
        direct *= 2 * np.pi / T
        np.testing.assert_allclose(g, direct, atol=1e-12)


def test_g_weights_cached_read_only():
    g = g_weights(200, 0.12)
    assert g_weights(200, 0.12) is g
    assert not g.flags.writeable


def test_g_weights_total_mass():
    # (2 pi / T) sum_v g_v approximates the window width sqrt(B)
    T = 1000
    B = bandwidth(T, BandwidthRule(beta=0.25))
    g = g_weights(T, B)
    assert (2 * np.pi / T) * g[1:].sum() == pytest.approx(math.sqrt(B), rel=0.05)


# --- statistic --------------------------------------------------------------

def test_statistic_matches_window_sum_definition(small_model):
    # The quadratic-form evaluation equals the literal low-frequency window
    # sum sqrt(T) (2 pi / T) sum_{s in window} f_hat_{w_s}[a, b].
    panel = simulate_panel(small_model, 64, SeedSpec(base_seed=17))
    dft = fdft_panel(panel)
    B = 0.3
    spec = SmoothingSpec(bandwidth=B)
    coeffs = statistic_matrix(dft, B)
    for a, b in (((1, 1), (1, 1)), ((1, 2), (2, 3))):
        brute = 0.0 + 0.0j
        for s in window_indices(64, B):
            w = reduce_frequency(2 * np.pi * s / 64)
            brute += smoothed_cross_spectrum(dft, a, b, w, spec)
        brute *= math.sqrt(64) * 2 * np.pi / 64
        entry = coeffs.matrix[dft.degrees.column(*a), dft.degrees.column(*b)]
        assert entry == pytest.approx(brute, abs=1e-10)


def test_statistic_hermitian_real_diagonal(small_dft):
    B = 0.2
    coeffs = statistic_matrix(small_dft, B)
    np.testing.assert_allclose(coeffs.matrix, coeffs.matrix.conj().T, atol=1e-10)
    assert np.all(np.abs(np.diag(coeffs.matrix).imag) < 1e-10)
    assert np.all(np.diag(coeffs.matrix).real > 0)


def test_projected_test_matches_statistic_matrix(small_dft, small_model):
    # The pair-only evaluation equals the full-matrix entries on diagonal and
    # off-diagonal pairs, within and across degrees.
    T = small_dft.T
    moments = null_moments(small_model, T, 0.2)
    pairs = [((1, 1), (1, 1)), ((2, 5), (2, 5)), ((2, 5), (1, 3)), ((1, 2), (1, 3))]
    report = projected_test(small_dft, moments, pairs=pairs)
    full = statistic_matrix(small_dft, 0.2).matrix
    col = small_dft.degrees.column
    for (a, b), row in zip(pairs, report.rows):
        want = full[col(*a), col(*b)].real
        assert row["statistic"] == pytest.approx(want, rel=1e-12)
        sd = math.sqrt(moments.variance(a, b))
        assert row["z"] == pytest.approx((want - moments.mean(a, b)) / sd, rel=1e-12)


def test_statistic_quadratic_scaling(small_model):
    panel = simulate_panel(small_model, 128, SeedSpec(base_seed=4))
    scaled = CoefficientPanel(T=128, degrees=panel.degrees, data=3.0 * panel.data)
    s1 = statistic_matrix(fdft_panel(panel), 0.25).matrix
    s9 = statistic_matrix(fdft_panel(scaled), 0.25).matrix
    np.testing.assert_allclose(s9, 9.0 * s1, rtol=1e-10)


def test_statistic_zero_panel():
    panel = CoefficientPanel(T=64, degrees=DegreeRange(1, 1), data=np.zeros((64, 3)))
    coeffs = statistic_matrix(fdft_panel(panel), 0.3)
    np.testing.assert_array_equal(coeffs.matrix, 0.0)


# --- null moments -----------------------------------------------------------

def test_white_noise_null_moments_frozen(white_noise_model):
    # [DERIVED] frozen grid-exact moments for unit white noise at T = 1000,
    # B = 1000^(-1/4); the continuous-profile mean has the closed form
    # sqrt(B T) / (2 pi) and the grid mean sits ~3% below it because the
    # v = 0 ordinate is excluded.
    T = 1000
    B = bandwidth(T, BandwidthRule(beta=0.25))
    m = null_moments(white_noise_model, T, B)
    assert m.mean_diag[1] == pytest.approx(2.0564905230746127, abs=1e-9)
    assert m.mean_diag[2] == pytest.approx(m.mean_diag[1], abs=1e-12)
    assert m.second_moment[(1, 1)] == pytest.approx(0.049643400509657036, abs=1e-9)
    assert m.second_moment[(1, 2)] == pytest.approx(m.second_moment[(1, 1)], abs=1e-12)
    cont = null_moments(white_noise_model, T, B, mode="continuous")
    assert cont.mean_diag[1] == pytest.approx(math.sqrt(B * T) / (2 * math.pi), rel=1e-6)
    assert m.mean_diag[1] < cont.mean_diag[1]
    assert cont.mean_diag[1] / m.mean_diag[1] == pytest.approx(1.0, abs=0.05)


def test_null_moment_accessors(white_noise_model):
    m = null_moments(white_noise_model, 500, 0.2)
    a, b = (1, 1), (1, 2)
    assert m.mean(a, a) == m.mean_diag[1]
    assert m.mean(a, b) == 0.0
    assert m.variance(a, a) == pytest.approx(2.0 * m.second_moment[(1, 1)])
    assert m.variance(a, b) == pytest.approx(m.second_moment[(1, 1)])


def test_continuous_moments_node_converged(small_model):
    T, B = 1000, 0.17782794100389226
    m1 = null_moments(small_model, T, B, mode="continuous", nodes=256)
    m2 = null_moments(small_model, T, B, mode="continuous", nodes=512)
    for n in (1, 2):
        assert m1.mean_diag[n] == pytest.approx(m2.mean_diag[n], rel=1e-3)
        assert m1.second_moment[(n, n)] == pytest.approx(m2.second_moment[(n, n)], rel=1e-3)


def test_null_moments_unknown_mode(white_noise_model):
    with pytest.raises(TestError):
        null_moments(white_noise_model, 500, 0.2, mode="exact")


def test_calibration_under_alternative(example1_model):
    T, B = 500, 0.2
    with pytest.raises(CalibrationUnderAlternative):
        null_moments(example1_model, T, B)
    # the experiments calibrate a long-memory model against its short-memory factor
    config = ExperimentConfig(model=example1_model, T_values=(T,), R=1)
    m = null_moments(config.null_model(), T, B)
    srd = null_moments(example1_model.srd_part(), T, B)
    assert m.mean_diag[1] == pytest.approx(srd.mean_diag[1], abs=1e-12)


def test_statistic_moments_match_monte_carlo(small_model):
    # Grid-exact calibration against a moderate Monte Carlo: mean of the
    # diagonal entry within 4 standard errors, variance within 25%.
    T, R = 500, 400
    B = bandwidth(T, BandwidthRule(beta=0.25))
    m = null_moments(small_model, T, B)
    vals = np.empty(R)
    for r in range(R):
        panel = simulate_panel(small_model, T, SeedSpec(base_seed=808, stream_id=r))
        vals[r] = statistic_matrix(fdft_panel(panel), B).matrix[0, 0].real
    se = vals.std(ddof=1) / math.sqrt(R)
    assert abs(vals.mean() - m.mean_diag[1]) < 4 * se
    assert vals.var(ddof=1) == pytest.approx(2.0 * m.second_moment[(1, 1)], rel=0.25)


# --- decisions and reports --------------------------------------------------

def test_critical_value():
    assert critical_value(0.05) == pytest.approx(1.959963985, abs=1e-6)
    assert critical_value(0.05, one_sided=True) == pytest.approx(1.644853627, abs=1e-6)
    with pytest.raises(TestError):
        critical_value(0.0)


def test_report_rows_and_csv(tmp_path):
    report = TestReport(mode="projected", level=0.05, one_sided=False)
    report.add("x", 1.0, 0.5)
    report.add("y", 4.0, 3.5)
    assert report.rejections() == [False, True]
    assert report.rows[0]["p"] == pytest.approx(2 * stats.norm.sf(0.5))
    path = tmp_path / "report.csv"
    report.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["pair_or_direction", "statistic", "z", "p", "reject"]
    assert rows[1][0] == "x" and rows[2][4] == "1"
    report.write_json(tmp_path / "report.json")
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("one_sided", [False, True])
def test_report_extend_decides_like_scalar_formulas(one_sided):
    # one vector call gives the rows the per-row scalar formulas give
    zs = [-2.5, -0.3, 0.0, 1.7, 1.96, 3.2]
    report = TestReport(mode="projected", level=0.05, one_sided=one_sided)
    report.extend([f"r{k}" for k in range(len(zs))], np.multiply(zs, 10.0), np.array(zs))
    crit = critical_value(0.05, one_sided)
    for k, (z, row) in enumerate(zip(zs, report.rows)):
        p = stats.norm.sf(z) if one_sided else 2.0 * stats.norm.sf(abs(z))
        assert row == {
            "label": f"r{k}",
            "statistic": 10.0 * z,
            "z": z,
            "p": float(p),
            "reject": (z if one_sided else abs(z)) > crit,
        }


def test_default_pairs():
    pairs = default_pairs(DegreeRange(1, 8))
    assert len(pairs) == 8
    assert pairs[0] == ((1, 1), (1, 1))
    assert pairs[2] == ((1, 3), (1, 3))
    assert pairs[3] == ((2, 1), (2, 1))
    assert pairs[7] == ((2, 5), (2, 5))
    assert all(a == b for a, b in pairs)


def test_projected_test_requires_moments(small_dft):
    with pytest.raises(TypeError):
        projected_test(small_dft)


def test_projected_test_report(small_dft, small_model):
    T = small_dft.T
    B = bandwidth(T, BandwidthRule(beta=0.25))
    report = projected_test(small_dft, null_moments(small_model, T, B))
    assert len(report.rows) == 8
    assert all(np.isfinite(r["z"]) for r in report.rows)
    assert all(0.0 <= r["p"] <= 1.0 for r in report.rows)


# --- directions -------------------------------------------------------------

def test_draw_direction_deterministic():
    degrees = DegreeRange(1, 2)
    d1 = draw_direction(degrees, seed=9, stream_id=2)
    d2 = draw_direction(degrees, seed=9, stream_id=2)
    np.testing.assert_array_equal(d1.coeffs, d2.coeffs)
    d3 = draw_direction(degrees, seed=9, stream_id=3)
    assert not np.array_equal(d1.coeffs, d3.coeffs)


def test_direction_streams_apart_from_panel_streams():
    # a direction key must never equal the panel key (seed, stream 0, degree k)
    degrees = DegreeRange(1, 2)
    for seed, k in ((5, 0), (5, 3), (20260825, 2)):
        y = draw_direction(degrees, seed=seed, stream_id=k).coeffs.ravel()
        z = SeedSpec(base_seed=seed, stream_id=0).generator(k).standard_normal(y.size)
        assert not np.array_equal(y, z)
    with pytest.raises(TestError):
        draw_direction(degrees, seed=5, stream_id=2**40)


def test_direction_variance_table_applied():
    degrees = DegreeRange(1, 2)
    lam = np.array([[0.0, 0.0], [0.0, 4.0]])
    d = draw_direction(degrees, seed=1, lambdas=lam)
    assert np.all(d.coeffs[:3, :] == 0.0)
    assert np.all(d.coeffs[:, :3] == 0.0)
    unit = draw_direction(degrees, seed=1)
    np.testing.assert_allclose(d.coeffs[3:, 3:], 2.0 * unit.coeffs[3:, 3:], atol=1e-12)


def test_direction_validation():
    degrees = DegreeRange(1, 1)
    with pytest.raises(TestError):
        Direction(degrees=degrees, lambdas=np.ones((2, 2)), coeffs=np.zeros((3, 3)))
    with pytest.raises(TestError):
        Direction(degrees=degrees, lambdas=-np.ones((1, 1)), coeffs=np.zeros((3, 3)))
    with pytest.raises(TestError):
        Direction(degrees=degrees, lambdas=np.ones((1, 1)), coeffs=np.zeros((2, 2)))


def test_direction_draws_are_standard_normal():
    degrees = DegreeRange(1, 1)
    draws = np.concatenate(
        [draw_direction(degrees, seed=33, stream_id=k).coeffs.ravel() for k in range(1200)]
    )
    assert stats.kstest(draws, "norm").statistic < 0.02


def test_single_pair_direction_matches_projected_test(small_dft, small_model):
    T = small_dft.T
    B = bandwidth(T, BandwidthRule(beta=0.25))
    moments = null_moments(small_model, T, B)
    pair = ((2, 3), (2, 3))
    proj = projected_test(small_dft, moments, pairs=[pair])
    direction = direction_from_pair(small_dft.degrees, *pair)
    rand = random_projection_test(small_dft, direction, moments)
    assert rand.rows[0]["z"] == pytest.approx(proj.rows[0]["z"], abs=1e-10)
    assert rand.rows[0]["reject"] == proj.rows[0]["reject"]


def test_zero_variance_direction_raises(small_dft, small_model):
    T = small_dft.T
    B = bandwidth(T, BandwidthRule(beta=0.25))
    moments = null_moments(small_model, T, B)
    zero = Direction(
        degrees=small_dft.degrees,
        lambdas=np.ones((2, 2)),
        coeffs=np.zeros((8, 8)),
    )
    with pytest.raises(ZeroVarianceDirection):
        random_projection_test(small_dft, zero, moments)


def test_random_projection_report(small_dft, small_model):
    T = small_dft.T
    B = bandwidth(T, BandwidthRule(beta=0.25))
    moments = null_moments(small_model, T, B)
    dirs = [draw_direction(small_dft.degrees, seed=5, stream_id=k) for k in range(4)]
    report = random_projection_test(small_dft, dirs, moments)
    assert len(report.rows) == 4
    assert report.mode == "random-projection"
    assert all(np.isfinite(r["z"]) for r in report.rows)


# --- norms ------------------------------------------------------------------

def test_projected_hs_norm_scales(small_dft):
    coeffs = statistic_matrix(small_dft, 0.2)
    stat = projected_hs_norm(coeffs, scale="statistic")
    grid = projected_hs_norm(coeffs, scale="gridsum")
    assert grid / stat == pytest.approx(coeffs.T**2 / (2 * np.pi) ** 4, rel=1e-12)
    assert stat == pytest.approx(np.linalg.norm(coeffs.matrix), rel=1e-12)
    with pytest.raises(TestError):
        projected_hs_norm(coeffs, scale="cycles")
