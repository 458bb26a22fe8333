"""Frequency-domain estimation: DFT panels, kernels, smoothed periodograms.

The DFT of a coefficient panel is taken columnwise at the Fourier frequencies
w_s = 2 pi s / T with the (2 pi T)^(-1/2) normalization, so the squared
modulus of a column is the periodogram of that coefficient series.  Smoothing
uses a compactly supported weight kernel (Epanechnikov by default) periodized
with bandwidth B in (0, 1) and summed over the Fourier grid s = 1..T-1; the
zero frequency is always excluded.

Because the periodized kernel depends only on the lag between two grid
frequencies, one kernel row (``kernel_row``) serves every smoothing sum on
the grid.  ``smoothed_spectrum_grid`` smooths the periodogram of every
column of a panel in one pass: the kernel row and its FFT are formed once
per call, and the columns of each degree share one batched FFT and inverse
FFT.  Its result is bit-identical to smoothing each column on its own with
the same circular convolution.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .harmonics import DegreeRange
from .simulate import CoefficientPanel


class SpectralError(ValueError):
    pass


def fejer_kernel(omega, T: int):
    """F_T(w) = (1/T) [sin(T w / 2) / sin(w / 2)]^2, equal to T at w in 2 pi Z."""
    if T < 1:
        raise SpectralError("T must be >= 1")
    w = np.asarray(omega, dtype=float)
    half = np.mod(w / 2.0, np.pi)
    s = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(s == 0.0, float(T), (np.sin(T * w / 2.0) / np.where(s == 0.0, 1.0, np.sin(w / 2.0))) ** 2 / T)
    return val if val.shape else float(val)


# --- weight kernels --------------------------------------------------------

def epanechnikov(x):
    """W(x) = 0.75 (1 - x^2) on [-1, 1], zero outside."""
    x = np.asarray(x, dtype=float)
    val = np.where(np.abs(x) < 1.0, 0.75 * (1.0 - x * x), 0.0)
    return val if val.shape else float(val)


def epanechnikov_cdf(x):
    """Antiderivative of the Epanechnikov kernel, clipped to [0, 1]."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -1.0, 1.0)
    val = 0.5 + 0.75 * xc - 0.25 * xc**3
    return val if val.shape else float(val)


def validate_weight_kernel(w, n_grid: int = 200001, tol: float = 1e-3) -> None:
    """Check the kernel axioms: even, nonnegative, support in [-1, 1], unit mass."""
    x = np.linspace(-1.5, 1.5, n_grid)
    vals = np.asarray(w(x), dtype=float)
    if np.any(vals < 0):
        raise SpectralError("weight kernel must be nonnegative")
    if np.any(vals[np.abs(x) >= 1.0] != 0.0):
        raise SpectralError("weight kernel must vanish for |x| >= 1")
    if not np.allclose(vals, vals[::-1], atol=1e-12):
        raise SpectralError("weight kernel must be even")
    mass = np.trapezoid(vals, x)
    if abs(mass - 1.0) > tol:
        raise SpectralError(f"weight kernel must integrate to 1, got {mass:.6g}")


@dataclass(frozen=True)
class SmoothingSpec:
    """Bandwidth B in (0, 1) plus the weight kernel (callable, default Epanechnikov)."""

    bandwidth: float
    kernel: object = None

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth < 1.0:
            raise SpectralError(f"bandwidth must lie in (0, 1), got {self.bandwidth}")
        if self.kernel is not None:
            validate_weight_kernel(self.kernel)

    def weight(self, x):
        return epanechnikov(x) if self.kernel is None else self.kernel(x)


def reduce_frequency(omega):
    """Map a frequency to its representative in (-pi, pi]."""
    w = np.asarray(omega, dtype=float)
    red = w - 2 * np.pi * np.round(w / (2 * np.pi))
    red = np.where(red <= -np.pi, red + 2 * np.pi, red)
    return red if red.shape else float(red)


def kernel_row(T: int, spec: SmoothingSpec) -> np.ndarray:
    """W(reduce(w_k) / B) at every grid lag k = 0..T-1, before any scaling.

    The periodized kernel W^(T)(w_s - w_v) depends on (s - v) mod T only, so
    this one row serves every circulant smoothing sum on the grid.  Callers
    apply their scale factors themselves, in an order that fixes their rounding.
    """
    diffs = reduce_frequency(2 * np.pi * np.arange(T) / T)
    return spec.weight(diffs / spec.bandwidth)


# --- DFT panel -------------------------------------------------------------

@dataclass(frozen=True)
class DftPanel:
    """Columnwise DFT coefficients at all T Fourier frequencies, shape (T, D)."""

    T: int
    degrees: DegreeRange
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.T, self.degrees.dim):
            raise SpectralError(f"DFT shape {c.shape} != ({self.T}, {self.degrees.dim})")
        object.__setattr__(self, "coeffs", c)

    def column(self, n: int, j: int) -> np.ndarray:
        return self.coeffs[:, self.degrees.column(n, j)]

    def fourier_frequencies(self) -> np.ndarray:
        return 2 * np.pi * np.arange(self.T) / self.T


def fdft_panel(panel: CoefficientPanel) -> DftPanel:
    """Columnwise DFT with the (2 pi T)^(-1/2) normalization."""
    if panel.T < 2:
        raise SpectralError("need at least two time points")
    coeffs = np.fft.fft(panel.data, axis=0)
    coeffs /= np.sqrt(2 * np.pi * panel.T)
    return DftPanel(T=panel.T, degrees=panel.degrees, coeffs=coeffs)


def _smoothing_weights(dft: DftPanel, omega: float, spec: SmoothingSpec) -> np.ndarray:
    """(2 pi / T) W^(T)(omega - w_s) for s = 1..T-1 (index 0 of the result is s=1)."""
    s = np.arange(1, dft.T)
    diffs = reduce_frequency(omega - 2 * np.pi * s / dft.T)
    return (2 * np.pi / dft.T) * spec.weight(diffs / spec.bandwidth) / spec.bandwidth


def smoothed_cross_spectrum(
    dft: DftPanel,
    a: tuple[int, int],
    b: tuple[int, int],
    omega: float,
    spec: SmoothingSpec,
) -> complex:
    """Weighted periodogram projection f_hat_omega[a, b] over the Fourier grid."""
    if abs(omega) > np.pi + 1e-12:
        raise SpectralError("omega must lie in [-pi, pi]")
    wts = _smoothing_weights(dft, omega, spec)
    ca = dft.column(*a)[1:]
    cb = dft.column(*b)[1:]
    return complex(np.sum(wts * ca * np.conj(cb)))


def smoothed_spectrum_grid(dft: DftPanel, spec: SmoothingSpec) -> np.ndarray:
    """Diagonal f_hat_{w_s}[a, a] for every column a and every s = 0..T-1, shape (D, T).

    Each row is the circular convolution of the column's periodogram (s = 0
    set to zero) with the kernel row, whose FFT is taken once per call.  The
    columns of one degree are transformed together along the rows of a
    (2n+1, T) buffer, which bounds the temporaries by the largest degree.
    """
    T = dft.T
    kf = np.fft.fft((2 * np.pi / T) * kernel_row(T, spec) / spec.bandwidth)
    A = dft.coeffs
    out = np.empty((dft.degrees.dim, T))
    for n in dft.degrees.degrees:
        lo = dft.degrees.column_offset(n)
        p = np.empty((2 * n + 1, T), dtype=complex)
        # one column at a time: a product over the whole panel runs another
        # complex loop, whose imaginary parts are not exactly zero
        for k in range(2 * n + 1):
            np.multiply(A[:, lo + k], np.conj(A[:, lo + k]), out=p[k])
        p[:, 0] = 0.0  # s = 0 excluded from the smoothing sum
        F = np.fft.fft(p)
        F *= kf
        out[lo : lo + 2 * n + 1] = np.fft.ifft(F).real
    return out


def integrated_weighted_periodogram(
    dft: DftPanel,
    a: tuple[int, int],
    b: tuple[int, int],
    spec: SmoothingSpec,
) -> complex:
    """(2 pi / T) sum over the full Fourier grid v = 1..T-1 of f_hat_{w_v}[a, b].

    Swapping the two sums gives sum_s p_s * wbar_s with
    wbar_s = (2 pi / T)^2 sum_v W^(T)(w_v - w_s); the totals wbar_s depend
    only on (T, B) through the circulant structure of the grid, so they are
    computed once from the kernel row.
    """
    T = dft.T
    p = dft.column(*a)[1:] * np.conj(dft.column(*b)[1:])
    kern = (2 * np.pi / T) * kernel_row(T, spec) / spec.bandwidth
    # wbar_s = (2 pi / T) [sum of the kernel row minus the v = 0 term]
    row_total = kern.sum()
    s = np.arange(1, T)
    wbar = (2 * np.pi / T) * (row_total - kern[(T - s) % T])
    return complex(np.sum(wbar * p))


def spectrum_csv_rows(
    dft: DftPanel,
    pairs,
    omegas,
    spec: SmoothingSpec,
):
    """Yield CSV rows (omega, n_a, j_a, n_b, j_b, re, im)."""
    for w in omegas:
        for a, b in pairs:
            val = smoothed_cross_spectrum(dft, a, b, float(w), spec)
            yield [f"{w:.10g}", a[0], a[1], b[0], b[1], f"{val.real:.10g}", f"{val.imag:.10g}"]


def write_spectrum_csv(path, dft: DftPanel, pairs, omegas, spec: SmoothingSpec) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "n_a", "j_a", "n_b", "j_b", "re", "im"])
        for row in spectrum_csv_rows(dft, pairs, omegas, spec):
            writer.writerow(row)
