"""The support sampler: size and power entries drawn from their exact law.

The test reads a panel only through the diagonal entries S[a, a], and an
entry only through its column's DFT at the ordinates v of the g-support
(``lrdtest._half_support``, V of them).  A column of degree n is a stationary
Gaussian series, so the real and imaginary parts of its DFT at v are jointly
Gaussian with a 2V x 2V covariance C_n (real parts first), and the 2n+1
columns of a degree are i.i.d.  A replication draws a (2V, 2n+1) block of
normals per degree and multiplies it by the lower Cholesky factor L_n of C_n:
the product has the law of the DFT parts that ``fdft_panel`` gives the panel
``simulate_panel`` draws, with no panel, filter or DFT.

C_n follows from the autocovariance gamma(0..T-1) of that panel's columns,
to float accuracy:

* the ARMA part: gamma(0) = b_0^2 + P[0, 0] and gamma(k) = e_1' F^(k-1) m,
  m = F P e_1 + b_0 g, from the stationary state covariance P of
  ``simulate``'s state-space form.  For k >= 1 this is the AR recursion
  started from m, one banded solve (``simulate._arma``);
* a long-memory degree filters the ARMA path with the truncated weights
  psi_0..psi_K (K = ``_TRUNCATION``), so its gamma(h) is
  sum_{|m| <= K} rho(m) gamma_ARMA(h - m), rho(m) = sum_j psi_j psi_{j+m}:
  one FFT product.  No stationarity is needed, so Example 4's d near 1 is
  covered.

With I_a = Im P(w_a), P(w) = sum_k gamma(k) e^{-iwk}, and the DFT
d_a = sum_t x_t e^{-i w_a t}, the geometric sums over t give, at Fourier
ordinates w_a != w_b,

    cov_ab = E[d_a conj(d_b)] = 2i (I_a - I_b) / (1 - e^{-i(w_a - w_b)})
                              = (I_a - I_b) (cot((w_a - w_b) / 2) + i),
    cov_aa = E|d_a|^2 = T gamma(0) + 2 sum_{k>=1} (T - k) gamma(k) cos(w_a k),
    pse_ab = E[d_a d_b] = (I_a + I_b) (cot((w_a + w_b) / 2) + i),

so the real parts X and imaginary parts Y of d / sqrt(2 pi T) have
E[X X'] = Re(cov + pse) / 2, E[Y Y'] = Re(cov - pse) / 2 and
E[X_a Y_b] = Im(pse_ab - cov_ab) / 2 = I_b, each over 2 pi T: two FFTs of
gamma and V x V real arithmetic, no T x T matrix.

Each (replication, degree, T) has its own stream
(``SeedSpec.support_generator``), so a T's entries do not depend on which
other T a run lists, and draws at different T are independent.

The root takes (2V)^2 floats and a replication (2V)^2 (2n+1) flops per
degree, about T^1.75, where a panel costs about T log T.  So the sampler
serves a T only while V <= ``MAX_ORDINATES`` (T up to about 13,000 at
B = T^(-1/4)); past it ``support_plan`` declines and the T is simulated.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .lrdtest import _half_support
from .models import SpectralModel
from .simulate import (
    STREAMS as PANEL_STREAMS,
    _TRUNCATION,
    SeedSpec,
    _arma,
    _fast_len,
    _state_space,
    _stationary_state_root,
    _weight_spectrum,
)


def _autocovariance(b: tuple, a: tuple, innov: float, alpha: float, T: int) -> np.ndarray:
    """gamma(0..T-1) of a column that ``simulate_panel`` draws with MA
    polynomial b, AR polynomial a, innovation variance ``innov`` and
    fractional exponent ``alpha``."""
    K = _TRUNCATION if alpha > 0 else 0
    gamma = np.zeros(T + K)
    r = max(len(a), len(b)) - 1
    gamma[0] = b[0] ** 2
    if r:
        root = _stationary_state_root(b, a)
        P = root @ root.T
        F, g = _state_space(b, a)
        gamma[0] += P[0, 0]
        start = (F @ P[:, 0] + b[0] * g)[:, None]
        _arma(gamma[1:, None], np.zeros((T + K - 1, 1)), 1.0, (1.0,), a, start)
    gamma *= innov
    if not K:
        return gamma
    # lags -K..T-1+K, so the circular product is exact at lags 0..T-1
    lags = np.concatenate([gamma[K:0:-1], gamma])
    nfft = _fast_len(T + 2 * K)
    psi = _weight_spectrum(alpha, K, nfft)
    spectrum = np.fft.rfft(lags, nfft) * (psi.real**2 + psi.imag**2)
    return np.fft.irfft(spectrum, nfft)[K : K + T]


def _dft_covariance(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Covariance of the real parts, then the imaginary parts, of the
    (2 pi T)^(-1/2)-normalized DFT at the ordinates ``v`` (each in 1..T//4)
    of a stationary series with autocovariance ``gamma`` (length T): (2V, 2V)."""
    T, V = len(gamma), len(v)
    w = 2 * np.pi * v / T
    im = np.fft.rfft(gamma)[v].imag
    half = (w[:, None] - w) / 2
    np.fill_diagonal(half, np.pi / 2)  # any nonzero value: the diagonal is replaced
    cov = (im[:, None] - im) / np.tan(half)
    np.fill_diagonal(cov, 2 * np.fft.rfft((T - np.arange(T)) * gamma)[v].real - T * gamma[0])
    pse = (im[:, None] + im) / np.tan((w[:, None] + w) / 2)
    C = np.empty((2 * V, 2 * V))
    np.add(cov, pse, out=C[:V, :V])
    np.subtract(cov, pse, out=C[V:, V:])
    C[:V, V:] = 2 * im
    C[V:, :V] = 2 * im[:, None]
    C /= 4 * np.pi * T
    return C


# Largest g-support V the sampler draws from.  A root then takes at most
# 8 MiB, and a replication costs less than a panel: on the reference model
# the two meet between T = 20,000 and 30,000 (2V = 1,456 and 2,040;
# BENCH_sampler.json).
MAX_ORDINATES = 512

# Names the support streams and root drawn while V is within the cap, and the
# panel streams a T past it reads; the size and power manifests hash it.
STREAMS = f"sfc64-seedsequence-per-T/support-cholesky if V <= {MAX_ORDINATES}, else {PANEL_STREAMS}"

# Distinct (degree law, T, B) roots a process keeps; an experiment needs one
# per drawn degree and sample length.
_ROOT_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_ROOT_CACHE_SIZE)
def support_root(b: tuple, a: tuple, innov: float, alpha: float, T: int, B: float) -> np.ndarray:
    """Lower Cholesky factor of the (2V, 2V) covariance of the DFT parts at
    ``_half_support(T, B)`` of one column of that law; read-only, shared by
    callers.  The covariance is positive definite when the spectral density
    is positive; the factor exists even at the smallest AR root modulus
    ``build_spharma`` admits, with d = 0.998 (tested)."""
    v, _ = _half_support(T, B)
    root = np.linalg.cholesky(_dft_covariance(_autocovariance(b, a, innov, alpha, T), v))
    root.flags.writeable = False
    return root


def support_plan(model: SpectralModel, T: int, B: float) -> tuple | None:
    """What ``support_entries`` reads at (T, B): T, sqrt(T) (2 pi / T) times
    the folded weights, once for each part, and (degree, root) for each
    degree of ``model``, whose columns' law is the one ``simulate_panel``
    draws them from.  None when the g-support is wider than ``MAX_ORDINATES``."""
    v, w = _half_support(T, B)
    if len(v) > MAX_ORDINATES:
        return None
    cw = math.sqrt(T) * (2 * np.pi / T) * np.concatenate([w, w])
    return T, cw, tuple((n, support_root(*law, T, B)) for n, *law in model.laws())


def support_entries(seed: SeedSpec, T: int, cw: np.ndarray, roots: tuple) -> np.ndarray:
    """One replication's raw diagonal entries S[a, a] at T of every column of
    the degrees in ``roots``, in column order."""
    return np.concatenate([
        cw @ np.square(L @ seed.support_generator(n, T).standard_normal((len(L), 2 * n + 1)))
        for n, L in roots
    ])
