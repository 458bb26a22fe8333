import csv
import json

import numpy as np
import pytest
from conftest import full_grid_column, smoothed_cross_spectrum

from spherelrd import SpherelrdError
from spherelrd.cli import main
from spherelrd.harmonics import DegreeRange
from spherelrd.models import example_model, reference_spharma11
from spherelrd.simulate import CoefficientPanel, SeedSpec, simulate_panel
from spherelrd.spectral import (
    DftPanel,
    epanechnikov,
    epanechnikov_cdf,
    fdft_panel,
    kernel_row,
    reduce_frequency,
    smoothed_spectrum,
    smoothed_spectrum_grid,
)


# --- reference implementations ---------------------------------------------

def fdft_direct(panel: CoefficientPanel) -> DftPanel:
    """O(T^2) reference transform at s = 0..T//2, the oracle for the FFT path."""
    t = np.arange(panel.T)
    s = np.arange(panel.T // 2 + 1)
    ph = np.exp(-2j * np.pi * np.outer(s, t) / panel.T)
    coeffs = ph @ panel.data / np.sqrt(2 * np.pi * panel.T)
    return DftPanel(T=panel.T, degrees=panel.degrees, coeffs=coeffs)


def periodized_weight(x, B: float):
    """W^(T)(x) = (1/B) W(x_reduced / B) for B < 1 (single periodization term)."""
    xr = reduce_frequency(x)
    return epanechnikov(np.asarray(xr) / B) / B


def half_grid_weights(T: int) -> np.ndarray:
    """Multiplicity of each ordinate s = 0..T//2 on the full grid: 2 for the
    ordinates with a mirror T - s, 1 for s = 0 and the Nyquist ordinate."""
    w = np.full(T // 2 + 1, 2.0)
    w[0] = 1.0
    if T % 2 == 0:
        w[-1] = 1.0
    return w


def smoothing_kernel(T: int, B: float) -> np.ndarray:
    diffs = reduce_frequency(2 * np.pi * np.arange(T) / T)
    return (2 * np.pi / T) * epanechnikov(diffs / B) / B


def smoothed_column_grid(dft: DftPanel, a, B: float) -> np.ndarray:
    """f_hat[a, a] at every Fourier frequency for one column, by one real
    circular convolution per column: the oracle for the batched diagonal grid."""
    T = dft.T
    c = full_grid_column(dft, a)
    p = np.square(c.real) + np.square(c.imag)
    p[0] = 0.0
    return np.fft.irfft(np.fft.rfft(p) * np.fft.rfft(smoothing_kernel(T, B)), n=T)


def test_epanechnikov_axioms():
    x = np.linspace(-1.5, 1.5, 300001)
    w = epanechnikov(x)
    assert np.all(w >= 0.0)
    assert np.all(w[np.abs(x) >= 1.0] == 0.0)  # support in [-1, 1]
    np.testing.assert_array_equal(w, epanechnikov(-x))  # even
    assert np.trapezoid(w, x) == pytest.approx(1.0, abs=1e-6)  # unit mass
    assert epanechnikov(0.0) == 0.75
    assert epanechnikov(1.0) == 0.0
    assert epanechnikov_cdf(-1.0) == 0.0
    assert epanechnikov_cdf(0.0) == 0.5
    assert epanechnikov_cdf(1.0) == 1.0
    assert epanechnikov_cdf(5.0) == 1.0
    x = np.linspace(-1, 1, 100001)
    l2 = np.trapezoid(epanechnikov(x) ** 2, x)
    assert l2 == pytest.approx(0.6, abs=1e-6)  # integral of W^2


def test_reduce_frequency():
    assert reduce_frequency(0.0) == 0.0
    assert reduce_frequency(2 * np.pi) == pytest.approx(0.0, abs=1e-12)
    assert reduce_frequency(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert reduce_frequency(np.pi) == pytest.approx(np.pi)
    assert reduce_frequency(-np.pi) == pytest.approx(np.pi)
    arr = reduce_frequency(np.array([0.1, 6.0, -6.0]))
    np.testing.assert_allclose(arr, [0.1, 6.0 - 2 * np.pi, 2 * np.pi - 6.0])


def test_periodized_weight_is_periodic():
    x = np.linspace(-0.4, 0.4, 33)
    np.testing.assert_allclose(
        periodized_weight(x, 0.25), periodized_weight(x + 2 * np.pi, 0.25), atol=1e-12
    )
    assert periodized_weight(0.0, 0.25) == pytest.approx(0.75 / 0.25)


def test_kernel_row_matches_periodized_weight():
    for T, B in ((64, 0.3), (1001, 0.1), (8192, 0.05)):
        lags = 2 * np.pi * np.arange(T) / T
        np.testing.assert_array_equal(kernel_row(T, B) / B, periodized_weight(lags, B))


def test_fdft_matches_direct_transform(small_model):
    panel = simulate_panel(small_model, 64, SeedSpec(base_seed=3))
    fast = fdft_panel(panel)
    slow = fdft_direct(panel)
    np.testing.assert_allclose(fast.coeffs, slow.coeffs, atol=1e-10)


def test_fdft_scales_in_place_exactly(small_model):
    for T in (64, 1001):
        panel = simulate_panel(small_model, T, SeedSpec(base_seed=3))
        expected = np.fft.rfft(panel.data, axis=0) / np.sqrt(2 * np.pi * T)
        np.testing.assert_array_equal(fdft_panel(panel).coeffs, expected)


def test_fdft_parseval(small_dft, small_model):
    # [DERIVED] with the (2 pi T)^(-1/2) normalization,
    # 2 pi * sum_s |d_s|^2 = sum_t x_t^2 exactly; the half grid counts each
    # mirrored ordinate twice.
    panel = simulate_panel(small_model, 512, SeedSpec(base_seed=7, stream_id=0))
    lhs = 2 * np.pi * (half_grid_weights(512) @ np.abs(small_dft.coeffs) ** 2)
    rhs = np.sum(panel.data**2, axis=0)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_fdft_zero_frequency(small_model):
    panel = simulate_panel(small_model, 100, SeedSpec(base_seed=9))
    dft = fdft_panel(panel)
    np.testing.assert_allclose(
        dft.coeffs[0], panel.data.sum(axis=0) / np.sqrt(2 * np.pi * 100), atol=1e-12
    )


def test_smoothed_spectrum_hermitian(small_dft):
    a, b = (1, 1), (2, 4)
    fab = smoothed_cross_spectrum(small_dft, a, b, 0.9, 0.2)
    fba = smoothed_cross_spectrum(small_dft, b, a, 0.9, 0.2)
    assert fab == pytest.approx(np.conj(fba), abs=1e-12)
    faa = smoothed_cross_spectrum(small_dft, a, a, 0.9, 0.2)
    assert abs(faa.imag) < 1e-12
    assert faa.real > 0


def test_smoothed_spectrum_grid_matches_pointwise(small_dft):
    T = small_dft.T
    grid = smoothed_spectrum_grid(small_dft, 0.2)
    assert grid.shape == (small_dft.degrees.dim, T)
    for a in ((1, 2), (2, 5)):
        row = grid[small_dft.degrees.column(*a)]
        for s in (1, 7, 100, 300, T - 1):
            w = reduce_frequency(2 * np.pi * s / T)
            direct = smoothed_cross_spectrum(small_dft, a, a, w, 0.2)
            assert row[s] == pytest.approx(direct.real, abs=1e-10)


@pytest.mark.parametrize("T", [64, 1001, 8192])
@pytest.mark.parametrize("model", [example_model(1), reference_spharma11()], ids=["ex1", "h0"])
def test_smoothed_spectrum_grid_matches_per_column_oracle(model, T):
    dft = fdft_panel(simulate_panel(model, T, SeedSpec(base_seed=13, stream_id=2)))
    B = T**-0.25
    expected = np.array([smoothed_column_grid(dft, a, B) for a in dft.degrees.index_list()])
    np.testing.assert_array_equal(smoothed_spectrum_grid(dft, B), expected)


@pytest.mark.parametrize("T", [64, 1001, 8192])
def test_smoothed_spectrum_grid_matches_complex_convolution(T):
    # The half-spectrum grid equals the complex circular convolution of the
    # full-grid periodogram from the complex FFT of the panel.
    panel = simulate_panel(example_model(1), T, SeedSpec(base_seed=13, stream_id=2))
    B = T**-0.25
    A = np.fft.fft(panel.data, axis=0) / np.sqrt(2 * np.pi * T)
    p = A * np.conj(A)
    p[0] = 0.0
    kf = np.fft.fft(smoothing_kernel(T, B))
    expected = np.fft.ifft(np.fft.fft(p, axis=0) * kf[:, None], axis=0).real.T
    got = smoothed_spectrum_grid(fdft_panel(panel), B)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_dft_column_mirrors_half_grid(small_model):
    for T in (64, 65):
        panel = simulate_panel(small_model, T, SeedSpec(base_seed=5))
        full = np.fft.fft(panel.data, axis=0) / np.sqrt(2 * np.pi * T)
        dft = fdft_panel(panel)
        for n, j in dft.degrees.index_list():
            col = full_grid_column(dft, (n, j))
            assert col.shape == (T,)
            np.testing.assert_allclose(col, full[:, dft.degrees.column(n, j)], rtol=0, atol=1e-12)


def test_flat_spectrum_smoothing_is_unbiased(white_noise_model):
    # Averaged over replications, the smoothed periodogram of unit white noise
    # recovers the flat density 1 / (2 pi) away from the origin.
    T, R = 512, 60
    target = 1.0 / (2 * np.pi)
    acc = 0.0
    count = 0
    for r in range(R):
        dft = fdft_panel(simulate_panel(white_noise_model, T, SeedSpec(base_seed=31, stream_id=r)))
        for w in (0.8, 2.0):
            acc += smoothed_cross_spectrum(dft, (1, 1), (1, 1), w, 0.2).real
            count += 1
    assert acc / count == pytest.approx(target, rel=0.05)


@pytest.mark.parametrize("T", [64, 1001])
def test_spectrum_matches_cross_spectrum_oracle(tmp_path, T):
    # spherelrd spectrum smooths in one matrix product; the oracle sums each
    # (omega, column) term by term over the mirrored full grid.  The CSV holds
    # 10 significant digits, the product itself agrees to 1e-12.
    doc = {
        "model": {"generator": "example1", "degrees": [1, 2]},
        "experiment": {"T": [T], "beta": 0.25, "seed": 99},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "spectrum.csv") as fh:
        rows = list(csv.DictReader(fh))
    dft = fdft_panel(simulate_panel(example_model(1, 1, 2), T, SeedSpec(base_seed=99)))
    B = T**-0.25
    omegas = np.linspace(0.0, np.pi, 65)
    index = dft.degrees.index_list()
    oracle = np.array([[smoothed_cross_spectrum(dft, a, a, w, B).real for a in index] for w in omegas])
    np.testing.assert_allclose(smoothed_spectrum(dft, omegas, B), oracle, rtol=1e-12, atol=0)
    assert len(rows) == oracle.size
    for row, (w, (n, j)), want in zip(rows, ((w, a) for w in omegas for a in index), oracle.ravel()):
        assert (row["omega"], row["n"], row["j"]) == (f"{w:.10g}", str(n), str(j))
        assert float(row["f_hat"]) == pytest.approx(want, rel=5e-10)


def test_dft_panel_validation():
    short = CoefficientPanel(T=1, degrees=DegreeRange(1, 1), data=np.zeros((1, 3)))
    with pytest.raises(SpherelrdError, match="need at least two time points"):
        fdft_panel(short)
