import csv

import numpy as np
import pytest

from spherelrd.harmonics import DegreeRange
from spherelrd.models import example_model, reference_spharma11
from spherelrd.simulate import CoefficientPanel, SeedSpec, simulate_panel
from spherelrd.spectral import (
    DftPanel,
    SmoothingSpec,
    SpectralError,
    epanechnikov,
    epanechnikov_cdf,
    fdft_panel,
    kernel_row,
    reduce_frequency,
    smoothed_cross_spectrum,
    smoothed_spectrum_grid,
    write_spectrum_csv,
)


# --- reference implementations ---------------------------------------------

def fdft_direct(panel: CoefficientPanel) -> DftPanel:
    """O(T^2) reference transform, the oracle for the FFT path."""
    t = np.arange(panel.T)
    s = np.arange(panel.T)
    ph = np.exp(-2j * np.pi * np.outer(s, t) / panel.T)
    coeffs = ph @ panel.data / np.sqrt(2 * np.pi * panel.T)
    return DftPanel(T=panel.T, degrees=panel.degrees, coeffs=coeffs)


def periodized_weight(x, spec: SmoothingSpec):
    """W^(T)(x) = (1/B) W(x_reduced / B) for B < 1 (single periodization term)."""
    xr = reduce_frequency(x)
    return spec.weight(np.asarray(xr) / spec.bandwidth) / spec.bandwidth


def smoothed_column_grid(dft: DftPanel, a, b, spec: SmoothingSpec) -> np.ndarray:
    """f_hat[a, b] at every Fourier frequency for one pair of columns, by one
    circular convolution per pair: the oracle for the batched diagonal grid."""
    T = dft.T
    p = dft.column(*a) * np.conj(dft.column(*b))
    p[0] = 0.0
    diffs = reduce_frequency(2 * np.pi * np.arange(T) / T)
    kern = (2 * np.pi / T) * spec.weight(diffs / spec.bandwidth) / spec.bandwidth
    return np.fft.ifft(np.fft.fft(p) * np.fft.fft(kern))


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


def test_smoothing_spec_validation():
    with pytest.raises(SpectralError):
        SmoothingSpec(bandwidth=0.0)
    with pytest.raises(SpectralError):
        SmoothingSpec(bandwidth=1.0)
    SmoothingSpec(bandwidth=0.3)
    # the smoother is Epanechnikov: no kernel option to accept and ignore
    with pytest.raises(TypeError):
        SmoothingSpec(bandwidth=0.3, kernel=epanechnikov)


def test_reduce_frequency():
    assert reduce_frequency(0.0) == 0.0
    assert reduce_frequency(2 * np.pi) == pytest.approx(0.0, abs=1e-12)
    assert reduce_frequency(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert reduce_frequency(np.pi) == pytest.approx(np.pi)
    assert reduce_frequency(-np.pi) == pytest.approx(np.pi)
    arr = reduce_frequency(np.array([0.1, 6.0, -6.0]))
    np.testing.assert_allclose(arr, [0.1, 6.0 - 2 * np.pi, 2 * np.pi - 6.0])


def test_periodized_weight_is_periodic():
    spec = SmoothingSpec(bandwidth=0.25)
    x = np.linspace(-0.4, 0.4, 33)
    np.testing.assert_allclose(
        periodized_weight(x, spec), periodized_weight(x + 2 * np.pi, spec), atol=1e-12
    )
    assert periodized_weight(0.0, spec) == pytest.approx(0.75 / 0.25)


def test_kernel_row_matches_periodized_weight():
    for T, B in ((64, 0.3), (1001, 0.1), (8192, 0.05)):
        spec = SmoothingSpec(bandwidth=B)
        lags = 2 * np.pi * np.arange(T) / T
        np.testing.assert_array_equal(kernel_row(T, spec) / B, periodized_weight(lags, spec))


def test_fdft_matches_direct_transform(small_model):
    panel = simulate_panel(small_model, 64, SeedSpec(base_seed=3))
    fast = fdft_panel(panel)
    slow = fdft_direct(panel)
    np.testing.assert_allclose(fast.coeffs, slow.coeffs, atol=1e-10)


def test_fdft_scales_in_place_exactly(small_model):
    for T in (64, 1001):
        panel = simulate_panel(small_model, T, SeedSpec(base_seed=3))
        expected = np.fft.fft(panel.data, axis=0) / np.sqrt(2 * np.pi * T)
        np.testing.assert_array_equal(fdft_panel(panel).coeffs, expected)


def test_fdft_parseval(small_dft, small_model):
    # [DERIVED] with the (2 pi T)^(-1/2) normalization,
    # 2 pi * sum_s |d_s|^2 = sum_t x_t^2 exactly.
    panel = simulate_panel(small_model, 512, SeedSpec(base_seed=7, stream_id=0))
    lhs = 2 * np.pi * np.sum(np.abs(small_dft.coeffs) ** 2, axis=0)
    rhs = np.sum(panel.data**2, axis=0)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_fdft_zero_frequency(small_model):
    panel = simulate_panel(small_model, 100, SeedSpec(base_seed=9))
    dft = fdft_panel(panel)
    np.testing.assert_allclose(
        dft.coeffs[0], panel.data.sum(axis=0) / np.sqrt(2 * np.pi * 100), atol=1e-12
    )


def test_smoothed_spectrum_hermitian(small_dft):
    spec = SmoothingSpec(bandwidth=0.2)
    a, b = (1, 1), (2, 4)
    fab = smoothed_cross_spectrum(small_dft, a, b, 0.9, spec)
    fba = smoothed_cross_spectrum(small_dft, b, a, 0.9, spec)
    assert fab == pytest.approx(np.conj(fba), abs=1e-12)
    faa = smoothed_cross_spectrum(small_dft, a, a, 0.9, spec)
    assert abs(faa.imag) < 1e-12
    assert faa.real > 0


def test_smoothed_spectrum_rejects_out_of_range(small_dft):
    with pytest.raises(SpectralError):
        smoothed_cross_spectrum(small_dft, (1, 1), (1, 1), 4.0, SmoothingSpec(bandwidth=0.2))


def test_smoothed_spectrum_grid_matches_pointwise(small_dft):
    spec = SmoothingSpec(bandwidth=0.2)
    T = small_dft.T
    grid = smoothed_spectrum_grid(small_dft, spec)
    assert grid.shape == (small_dft.degrees.dim, T)
    for a in ((1, 2), (2, 5)):
        row = grid[small_dft.degrees.column(*a)]
        for s in (1, 7, 100, 300, T - 1):
            w = reduce_frequency(2 * np.pi * s / T)
            direct = smoothed_cross_spectrum(small_dft, a, a, w, spec)
            assert row[s] == pytest.approx(direct.real, abs=1e-10)


@pytest.mark.parametrize("T", [64, 1001, 8192])
@pytest.mark.parametrize("model", [example_model(1), reference_spharma11()], ids=["ex1", "h0"])
def test_smoothed_spectrum_grid_matches_per_column_oracle(model, T):
    dft = fdft_panel(simulate_panel(model, T, SeedSpec(base_seed=13, stream_id=2)))
    spec = SmoothingSpec(bandwidth=T**-0.25)
    expected = np.array(
        [smoothed_column_grid(dft, a, a, spec).real for a in dft.degrees.index_list()]
    )
    np.testing.assert_array_equal(smoothed_spectrum_grid(dft, spec), expected)


def test_flat_spectrum_smoothing_is_unbiased(white_noise_model):
    # Averaged over replications, the smoothed periodogram of unit white noise
    # recovers the flat density 1 / (2 pi) away from the origin.
    spec = SmoothingSpec(bandwidth=0.2)
    T, R = 512, 60
    target = 1.0 / (2 * np.pi)
    acc = 0.0
    count = 0
    for r in range(R):
        dft = fdft_panel(simulate_panel(white_noise_model, T, SeedSpec(base_seed=31, stream_id=r)))
        for w in (0.8, 2.0):
            acc += smoothed_cross_spectrum(dft, (1, 1), (1, 1), w, spec).real
            count += 1
    assert acc / count == pytest.approx(target, rel=0.05)


def test_write_spectrum_csv(tmp_path, small_dft):
    spec = SmoothingSpec(bandwidth=0.2)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, small_dft, [((1, 1), (1, 1))], [0.5, 1.0], spec)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "n_a", "j_a", "n_b", "j_b", "re", "im"]
    assert len(rows) == 3
    assert float(rows[1][5]) > 0


def test_dft_panel_validation():
    short = CoefficientPanel(T=1, degrees=DegreeRange(1, 1), data=np.zeros((1, 3)))
    with pytest.raises(SpectralError):
        fdft_panel(short)
