"""Long-range-dependence test in the harmonic spectral domain.

The statistic aggregates the smoothed periodogram over the low-frequency
window [-sqrt(B)/2, sqrt(B)/2]:

    S[a, b] = sqrt(B T) * (1 / sqrt(B)) * (2 pi / T)
              * sum_{w_s in window} f_hat_{w_s}[a, b].

Exchanging the window sum with the smoothing sum turns this into a single
weighted quadratic form over the Fourier ordinates,

    S[a, b] = sqrt(T) * (2 pi / T) * sum_{v=1}^{T-1} g_v * d_a(w_v) conj(d_b(w_v)),

with g_v = (2 pi / T) * sum_{s in window} W^(T)(w_s - w_v).  The panel is
real and g is even, so the terms at v and T - v are conjugate and S is real:
it is summed over the half grid v = 1..T//2 with folded weights 2 g_v, and
only over the support of g (the window widened by the kernel's nonzero lags,
about a tenth of the half grid at B = T^(-1/4)).  The null means and
variances are evaluated on the same Fourier grid with the same g
weights, which removes the O(1/(T sqrt(B))) centering bias a continuous
approximation would leave at small T.  Only the bandwidth sweep integrates
the limiting window profile instead (``profile_mean_diag``), because that
mean scales exactly as sqrt(B T) even when B falls below the grid spacing.

The test reports diagonal entries S[a, a] only, one per basis column a
(``leading_columns``), each formed from its one gathered DFT column; the full
matrix (``statistic_matrix``) feeds the divergence norms.  Under a
short-range null the standardized entries are asymptotically standard
normal; rejection is two-sided at level alpha.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

from . import SpherelrdError
from .harmonics import DegreeRange
from .models import SpectralModel, spectral_eigenvalue
from .spectral import GRID_CACHE_SIZE, DftPanel, epanechnikov_cdf, kernel_row, reduce_frequency


def bandwidth(T: int, beta: float) -> float:
    """The bandwidth B = T^(-beta), for beta in (0, 1), enforcing B < 1 and
    B * T > 1.

    A beta inside (0, 1) can still round B to 1 (beta near 0) or B * T to 1
    (beta near 1), so both bounds are checked on B itself.
    """
    if not 0.0 < beta < 1.0:
        raise SpherelrdError(f"beta must lie in (0, 1), got {beta}")
    if T < 2:
        raise SpherelrdError("T must be at least 2")
    B = float(T) ** (-beta)
    if not 0.0 < B < 1.0:
        raise SpherelrdError(f"bandwidth {B:.6g} outside (0, 1)")
    if B * T <= 1.0:
        raise SpherelrdError(f"B * T = {B * T:.6g} <= 1 (window too narrow)")
    return B


def window_indices(T: int, B: float) -> np.ndarray:
    """Fourier indices s in 1..T-1 whose frequency lies in [-sqrt(B)/2, sqrt(B)/2].

    Frequencies with s > T/2 represent w_s - 2 pi.  Membership uses
    |w_s| <= sqrt(B)/2 with ties included; the boundary comparison is done
    on the integer index so results are platform-stable.
    """
    # s <= T sqrt(B) / (4 pi) on the positive side, symmetric on the negative
    smax = int(math.floor(T * math.sqrt(B) / (4 * math.pi) + 1e-9))
    if smax < 1:
        raise SpherelrdError(
            f"no nonzero Fourier frequency inside the window for T={T}, B={B:.4g}"
        )
    pos = np.arange(1, smax + 1)
    return np.concatenate([pos, T - pos[::-1]])


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def g_weights(T: int, B: float) -> np.ndarray:
    """Aggregated smoothing weights g_v, v = 0..T-1 (g_0 reported but unused).

    g_v = (2 pi / T) * sum over window indices s of W^(T)(w_s - w_v).  The
    result depends on (T, B) only, so it is cached per process and returned
    read-only, shared by every caller.
    """
    win = window_indices(T, B)
    # kernel row over index differences k = (s - v) mod T
    kern = kernel_row(T, B) / B
    ind = np.zeros(T)
    ind[win] = 1.0
    # sum_{s in win} kern[(s - v) % T] as a circular convolution (kern is
    # circularly even, so correlation and convolution coincide)
    g = np.fft.irfft(np.fft.rfft(ind) * np.fft.rfft(kern), n=T).real
    g = (2 * np.pi / T) * g
    g.flags.writeable = False
    return g


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _half_support(T: int, B: float) -> tuple:
    """Ordinates v in 1..T//2 where g_v != 0, and the folded weights there.

    g_v sums nonnegative kernel values, so it is nonzero exactly at a window
    index plus a nonzero kernel lag (mod T), an integer set; g is never
    thresholded.  The weight 2 g_v adds the mirror ordinate T - v; a Nyquist
    ordinate v = T/2 has none (the support ends below T/4 at any B < 1).
    """
    lags = np.flatnonzero(kernel_row(T, B))
    hit = np.zeros(T, dtype=bool)
    hit[(window_indices(T, B)[:, None] + lags) % T] = True
    v = np.flatnonzero(hit[1 : T // 2 + 1]) + 1
    w = np.where(2 * v == T, 1.0, 2.0) * g_weights(T, B)[v]
    v.flags.writeable = w.flags.writeable = False
    return v, w


def _entries(dft: DftPanel, B: float, cols) -> np.ndarray:
    """S[a, a] for every basis column a in ``cols``, over the support of g.

    The columns are gathered from the support's rows, which leaves them in
    column-major order; the BLAS reduction's summation order, and with it the
    rounding of every entry, depends on that layout.
    """
    v, w = _half_support(dft.T, B)
    A = dft.coeffs[v][:, cols]
    return math.sqrt(dft.T) * (2 * np.pi / dft.T) * (w @ (A.real * A.real + A.imag * A.imag))


def statistic_matrix(dft: DftPanel, B: float) -> np.ndarray:
    """S[a, b] for every ordered pair of basis columns: a real symmetric (D, D) array."""
    v, w = _half_support(dft.T, B)
    A = dft.coeffs[v]
    wA = w[:, None] * A
    return math.sqrt(dft.T) * (2 * np.pi / dft.T) * (A.real.T @ wA.real + A.imag.T @ wA.imag)


# --- null calibration -------------------------------------------------------

def null_moments(model: SpectralModel, T: int, B: float) -> tuple:
    """Null mean and standard deviation of a diagonal entry S[a, a], per degree
    of a short-memory model: two arrays of shape (n_degrees,).

    An entry of degree n has mean sqrt(T) (2 pi / T) sum_v g_v f_n(w_v) and
    variance 2 V2(n, n), with V2(n, n) = T (2 pi / T)^2 sum_v g_v^2 f_n(w_v)^2.
    The moments put the spectral density f_n(w_v) at each Fourier ordinate
    where the exact finite-T moments of the Gaussian quadratic form have the
    Fejer-smoothed E|d(w_v)|^2, so they are grid approximations, not exact:
    on the reference model at T = 50 the exact mean is 0.989 (n = 1) and
    0.975 (n = 8) of the grid mean, and the gap closes as T grows.  The tests calibrate against them.
    A long-memory model is rejected: calibrate against its ``srd_part()``.
    """
    if not model.alpha.is_null:
        raise SpherelrdError(
            "model has nonzero memory exponents; calibrate against its "
            "short-range factor (srd_part())"
        )
    g = g_weights(T, B)[1:]
    omegas = reduce_frequency(2 * np.pi * np.arange(1, T) / T)
    f = spectral_eigenvalue(model, omegas)
    mean = math.sqrt(T) * (2 * np.pi / T) * np.sum(g * f, axis=1)
    v2 = T * (2 * np.pi / T) ** 2 * np.sum(g * g * f * f, axis=1)
    bad = np.flatnonzero(v2 <= 0)
    if bad.size:
        raise SpherelrdError(f"nonpositive variance for degree {model.degrees.n_min + bad[0]}")
    return mean, np.sqrt(2.0 * v2)


# Midpoint-quadrature nodes of ``profile_mean_diag``.
_NODES = 256


def profile_mean_diag(model: SpectralModel, T: int, B: float) -> np.ndarray:
    """Null mean of a diagonal entry per degree, shape (n_degrees,), integrated
    over the limiting window profile G by midpoint quadrature with ``_NODES`` nodes.

    Unlike the grid mean of ``null_moments`` it carries an O(1/(T sqrt(B)))
    centering offset, and it scales exactly as sqrt(B T) even when B falls
    below the Fourier grid spacing; the bandwidth sweep reads it.
    """
    half = math.sqrt(B) / 2.0
    lo, hi = -(half + B), half + B  # support of the window profile G
    w = lo + (hi - lo) * (np.arange(_NODES) + 0.5) / _NODES
    dw = (hi - lo) / _NODES
    G = epanechnikov_cdf((half - w) / B) - epanechnikov_cdf((-half - w) / B)
    return math.sqrt(T) * np.sum(G * spectral_eigenvalue(model, w), axis=1) * dw


@functools.lru_cache(maxsize=16)
def critical_value(level: float) -> float:
    """Two-sided standard-normal critical value at ``level``."""
    if not 0.0 < level < 1.0:
        raise SpherelrdError(f"level must lie in (0, 1), got {level}")
    return float(special.ndtri(1.0 - level / 2.0))


# --- the tested entries -----------------------------------------------------

def leading_columns(degrees: DegreeRange, count: int) -> list:
    """The first ``count`` basis functions (n, j) with n >= 1, in column order:
    the diagonal entries S[a, a] the test reports."""
    cols = [(n, j) for n, j in degrees.index_list() if n >= 1]
    if not 1 <= count <= len(cols):
        raise SpherelrdError(
            f"directions must lie in [1, {len(cols)}] for degrees "
            f"{degrees.n_min}..{degrees.n_max}, got {count}"
        )
    return cols[:count]


def column_degrees(cols) -> DegreeRange:
    """Smallest degree range holding every basis function in ``cols``."""
    touched = [n for n, _ in cols]
    return DegreeRange(min(touched), max(touched))

