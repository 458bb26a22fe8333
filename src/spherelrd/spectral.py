"""Frequency-domain estimation: DFT panels, kernels, smoothed periodograms.

The DFT of a coefficient panel is taken columnwise at the Fourier frequencies
w_s = 2 pi s / T with the (2 pi T)^(-1/2) normalization, so the squared
modulus of a column is the periodogram of that coefficient series.  A panel
is real, so A_{T-s} = conj(A_s): ``fdft_panel`` keeps the half grid
s = 0..T//2 of a real FFT.
Smoothing uses the Epanechnikov weight kernel periodized with bandwidth B in
(0, 1) and summed over the Fourier grid s = 1..T-1; the zero frequency is
always excluded.

Because the periodized kernel depends only on the lag between two grid
frequencies, one kernel row (``kernel_row``) serves every smoothing sum on
the grid.  ``smoothed_spectrum_grid`` smooths the periodogram of every
column of a panel in one pass: each periodogram, real and even, is mirrored
from the half grid and smoothed by a real FFT and its inverse against the
kernel row's real FFT, cached per (T, B); a degree's columns share one
batched transform.  ``smoothed_spectrum`` smooths the same mirrored
periodograms at arbitrary frequencies in [0, pi] with one matrix product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import SpherelrdError
from .harmonics import DegreeRange
from .simulate import CoefficientPanel


# --- weight kernels --------------------------------------------------------

def epanechnikov(x):
    """W(x) = 0.75 (1 - x^2) on [-1, 1], zero outside."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 1.0, 0.75 * (1.0 - x * x), 0.0)


def epanechnikov_cdf(x):
    """Antiderivative of the Epanechnikov kernel, clipped to [0, 1]."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -1.0, 1.0)
    return 0.5 + 0.75 * xc - 0.25 * xc**3


def reduce_frequency(omega):
    """Map a frequency to its representative in (-pi, pi]."""
    w = np.asarray(omega, dtype=float)
    red = w - 2 * np.pi * np.round(w / (2 * np.pi))
    return np.where(red <= -np.pi, red + 2 * np.pi, red)


def kernel_row(T: int, B: float) -> np.ndarray:
    """W(reduce(w_k) / B) at every grid lag k = 0..T-1, before any scaling.

    The periodized kernel W^(T)(w_s - w_v) depends on (s - v) mod T only, so
    this one row serves every circulant smoothing sum on the grid.  Callers
    apply their scale factors themselves, in an order that fixes their rounding.
    """
    diffs = reduce_frequency(2 * np.pi * np.arange(T) / T)
    return epanechnikov(diffs / B)


# (T, B) keys each grid cache keeps; one experiment needs one per sample length.
GRID_CACHE_SIZE = 32


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _kernel_spectrum(T: int, B: float) -> np.ndarray:
    """Real FFT of (2 pi / T) W^(T)(w_k) / B, k = 0..T-1; read-only, shared by callers."""
    kf = np.fft.rfft((2 * np.pi / T) * kernel_row(T, B) / B)
    kf.flags.writeable = False
    return kf


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
            raise SpherelrdError(f"DFT shape {c.shape} != ({self.T // 2 + 1}, {self.degrees.dim})")
        object.__setattr__(self, "coeffs", c)


def fdft_panel(panel: CoefficientPanel, T: int | None = None) -> DftPanel:
    """Columnwise DFT of the panel's first ``T`` rows (None: all), which the
    panel checked, with the (2 pi T)^(-1/2) normalization, over s = 0..T//2."""
    T = panel.T if T is None else T
    if T < 2:
        raise SpherelrdError("need at least two time points")
    coeffs = np.fft.rfft(panel.data[:T], axis=0)
    coeffs /= np.sqrt(2 * np.pi * T)
    return DftPanel(T=T, degrees=panel.degrees, coeffs=coeffs)


def _periodogram(block: np.ndarray, T: int) -> np.ndarray:
    """Periodogram of each column of a half-grid DFT block (T//2 + 1, k) at
    every ordinate s = 0..T-1, mirrored (p_{T-s} = p_s), with s = 0 set to zero
    because the smoothing sums exclude it: shape (k, T)."""
    a = block.T
    p = np.empty((a.shape[0], T))
    np.add(np.square(a.real), np.square(a.imag), out=p[:, : T // 2 + 1])
    p[:, T // 2 + 1 :] = p[:, (T + 1) // 2 - 1 : 0 : -1]
    p[:, 0] = 0.0
    return p


def smoothed_spectrum_grid(dft: DftPanel, B: float) -> np.ndarray:
    """Diagonal f_hat_{w_s}[a, a] for every column a and every s = 0..T-1, shape (D, T).

    Each row is the circular convolution of the column's periodogram (s = 0
    set to zero, mirrored from the half grid) with the kernel row.  The
    columns of one degree are transformed together along the rows of a
    (2n+1, T) buffer, which bounds the temporaries by the largest degree.
    """
    T = dft.T
    kf = _kernel_spectrum(T, B)
    A = dft.coeffs
    out = np.empty((dft.degrees.dim, T))
    for n in dft.degrees.degrees:
        lo = dft.degrees.column_offset(n)
        F = np.fft.rfft(_periodogram(A[:, lo : lo + 2 * n + 1], T))
        F *= kf
        out[lo : lo + 2 * n + 1] = np.fft.irfft(F, n=T)
    return out


def smoothed_spectrum(dft: DftPanel, omegas: np.ndarray, B: float) -> np.ndarray:
    """Diagonal f_hat_omega[a, a] for every omega in [0, pi] and every column a,
    shape (len(omegas), D).

    One (len(omegas), T - 1) matrix of weights (2 pi / T) W^(T)(omega - w_s),
    s = 1..T-1, multiplies the (T - 1, D) periodogram of every column.
    """
    T = dft.T
    w = 2 * np.pi * np.arange(1, T) / T
    weights = (2 * np.pi / T) * epanechnikov(reduce_frequency(omegas[:, None] - w) / B) / B
    return weights @ _periodogram(dft.coeffs, T)[:, 1:].T
