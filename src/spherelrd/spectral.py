"""Frequency-domain estimation: DFT panels, kernels, smoothed periodograms.

The DFT of a coefficient panel is taken columnwise at the Fourier frequencies
w_s = 2 pi s / T with the (2 pi T)^(-1/2) normalization, so the squared
modulus of a column is the periodogram of that coefficient series.  A panel
is real, so A_{T-s} = conj(A_s): ``fdft_panel`` keeps the half grid
s = 0..T//2 of a real FFT, and ``DftPanel.column`` mirrors a column back.
Smoothing uses the Epanechnikov weight kernel periodized with bandwidth B in
(0, 1) and summed over the Fourier grid s = 1..T-1; the zero frequency is
always excluded.

Because the periodized kernel depends only on the lag between two grid
frequencies, one kernel row (``kernel_row``) serves every smoothing sum on
the grid.  ``smoothed_spectrum_grid`` smooths the periodogram of every
column of a panel in one pass: each periodogram, real and even, is mirrored
from the half grid and smoothed by a real FFT and its inverse against the
kernel row's real FFT, formed once per call; a degree's columns share one
batched transform.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .harmonics import DegreeRange
from .simulate import CoefficientPanel


class SpectralError(ValueError):
    pass


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


def reduce_frequency(omega):
    """Map a frequency to its representative in (-pi, pi]."""
    w = np.asarray(omega, dtype=float)
    red = w - 2 * np.pi * np.round(w / (2 * np.pi))
    red = np.where(red <= -np.pi, red + 2 * np.pi, red)
    return red if red.shape else float(red)


def kernel_row(T: int, B: float) -> np.ndarray:
    """W(reduce(w_k) / B) at every grid lag k = 0..T-1, before any scaling.

    The periodized kernel W^(T)(w_s - w_v) depends on (s - v) mod T only, so
    this one row serves every circulant smoothing sum on the grid.  Callers
    apply their scale factors themselves, in an order that fixes their rounding.
    """
    diffs = reduce_frequency(2 * np.pi * np.arange(T) / T)
    return epanechnikov(diffs / B)


# --- DFT panel -------------------------------------------------------------

@dataclass(frozen=True)
class DftPanel:
    """Columnwise DFT of a real panel of length T at the Fourier ordinates
    s = 0..T//2, shape (T//2 + 1, D); the rest of the grid is A_{T-s} = conj(A_s)."""

    T: int
    degrees: DegreeRange
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.T // 2 + 1, self.degrees.dim):
            raise SpectralError(f"DFT shape {c.shape} != ({self.T // 2 + 1}, {self.degrees.dim})")
        object.__setattr__(self, "coeffs", c)

    def column(self, n: int, j: int) -> np.ndarray:
        """One column at all T Fourier ordinates s = 0..T-1."""
        c = self.coeffs[:, self.degrees.column(n, j)]
        return np.concatenate([c, np.conj(c[(self.T + 1) // 2 - 1 : 0 : -1])])


def fdft_panel(panel: CoefficientPanel) -> DftPanel:
    """Columnwise DFT with the (2 pi T)^(-1/2) normalization, over s = 0..T//2."""
    if panel.T < 2:
        raise SpectralError("need at least two time points")
    coeffs = np.fft.rfft(panel.data, axis=0)
    coeffs /= np.sqrt(2 * np.pi * panel.T)
    return DftPanel(T=panel.T, degrees=panel.degrees, coeffs=coeffs)


def _smoothing_weights(dft: DftPanel, omega: float, B: float) -> np.ndarray:
    """(2 pi / T) W^(T)(omega - w_s) for s = 1..T-1 (index 0 of the result is s=1)."""
    s = np.arange(1, dft.T)
    diffs = reduce_frequency(omega - 2 * np.pi * s / dft.T)
    return (2 * np.pi / dft.T) * epanechnikov(diffs / B) / B


def smoothed_cross_spectrum(
    dft: DftPanel,
    a: tuple[int, int],
    b: tuple[int, int],
    omega: float,
    B: float,
) -> complex:
    """Weighted periodogram projection f_hat_omega[a, b] over the Fourier grid.

    Real and imaginary parts are summed separately in real arithmetic, so the
    imaginary part of a diagonal entry (a == b) is exactly zero.
    """
    if abs(omega) > np.pi + 1e-12:
        raise SpectralError("omega must lie in [-pi, pi]")
    wts = _smoothing_weights(dft, omega, B)
    ca = dft.column(*a)[1:]
    cb = dft.column(*b)[1:]
    re = wts @ (ca.real * cb.real + ca.imag * cb.imag)
    im = wts @ (ca.imag * cb.real - ca.real * cb.imag)
    return complex(re, im)


def smoothed_spectrum_grid(dft: DftPanel, B: float) -> np.ndarray:
    """Diagonal f_hat_{w_s}[a, a] for every column a and every s = 0..T-1, shape (D, T).

    Each row is the circular convolution of the column's periodogram (s = 0
    set to zero, mirrored from the half grid) with the kernel row.  The
    columns of one degree are transformed together along the rows of a
    (2n+1, T) buffer, which bounds the temporaries by the largest degree.
    """
    T = dft.T
    kf = np.fft.rfft((2 * np.pi / T) * kernel_row(T, B) / B)
    A = dft.coeffs
    out = np.empty((dft.degrees.dim, T))
    for n in dft.degrees.degrees:
        lo = dft.degrees.column_offset(n)
        a = A[:, lo : lo + 2 * n + 1].T
        p = np.empty((2 * n + 1, T))
        np.add(np.square(a.real), np.square(a.imag), out=p[:, : T // 2 + 1])
        p[:, T // 2 + 1 :] = p[:, (T + 1) // 2 - 1 : 0 : -1]  # p_{T-s} = p_s
        p[:, 0] = 0.0  # s = 0 excluded from the smoothing sum
        F = np.fft.rfft(p)
        F *= kf
        out[lo : lo + 2 * n + 1] = np.fft.irfft(F, n=T)
    return out


def write_spectrum_csv(path, dft: DftPanel, pairs, omegas, B: float) -> None:
    """Write f_hat_omega[a, b] per omega and pair: rows (omega, n_a, j_a, n_b, j_b, re, im)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "n_a", "j_a", "n_b", "j_b", "re", "im"])
        for w in omegas:
            for a, b in pairs:
                val = smoothed_cross_spectrum(dft, a, b, float(w), B)
                writer.writerow(
                    [f"{w:.10g}", a[0], a[1], b[0], b[1], f"{val.real:.10g}", f"{val.imag:.10g}"]
                )
