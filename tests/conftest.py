import math

import numpy as np
import pytest

from spherelrd.harmonics import DegreeRange
from spherelrd.lrdtest import _half_support, g_weights
from spherelrd.models import build_spharma, example_model, reference_spharma11
from spherelrd.simulate import SeedSpec, simulate_panel
from spherelrd.spectral import epanechnikov, fdft_panel, reduce_frequency


@pytest.fixture(scope="session")
def reference_model():
    return reference_spharma11()


@pytest.fixture(scope="session")
def small_model():
    """Short-memory reference model restricted to degrees 1..2 (D = 8)."""
    return reference_spharma11(1, 2)


@pytest.fixture(scope="session")
def white_noise_model():
    """Unit white noise on degrees 1..2: flat spectrum 1 / (2 pi)."""
    return build_spharma(DegreeRange(1, 2), [], [], innov=1.0)


@pytest.fixture(scope="session")
def example1_model():
    return example_model(1)


@pytest.fixture(scope="session")
def small_dft(small_model):
    panel = simulate_panel(small_model, 512, SeedSpec(base_seed=7, stream_id=0))
    return fdft_panel(panel)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def table_values(table, key_prefix: str = "", T=None) -> list:
    """Values of a McTable's rows whose key starts with ``key_prefix``, at ``T`` if given."""
    return [
        r["value"]
        for r in table.rows
        if r["key"].startswith(key_prefix) and (T is None or r["T"] == T)
    ]


# --- oracles for the smoothed spectrum ----------------------------------------

def full_grid_column(dft, a) -> np.ndarray:
    """Column a = (n, j) of a half-grid DFT at all T ordinates s = 0..T-1,
    mirrored by A_{T-s} = conj(A_s)."""
    c = dft.coeffs[:, dft.degrees.column(*a)]
    return np.concatenate([c, np.conj(c[(dft.T + 1) // 2 - 1 : 0 : -1])])


def smoothed_cross_spectrum(dft, a, b, omega: float, B: float) -> complex:
    """Weighted periodogram projection f_hat_omega[a, b], summed term by term
    over the Fourier grid s = 1..T-1 with weights (2 pi / T) W^(T)(omega - w_s).

    Real and imaginary parts are summed separately in real arithmetic, so the
    imaginary part of a diagonal entry (a == b) is exactly zero.
    """
    s = np.arange(1, dft.T)
    diffs = reduce_frequency(omega - 2 * np.pi * s / dft.T)
    wts = (2 * np.pi / dft.T) * epanechnikov(diffs / B) / B
    ca = full_grid_column(dft, a)[1:]
    cb = full_grid_column(dft, b)[1:]
    re = wts @ (ca.real * cb.real + ca.imag * cb.imag)
    im = wts @ (ca.imag * cb.real - ca.real * cb.imag)
    return complex(re, im)


# --- oracles for the spectral model and the null calibration ------------------

def eigenvalue_row(model, n, omega, alternative=False) -> np.ndarray:
    """f_n(omega) of one degree, evaluated on its own: the single-degree
    formula ``spectral_eigenvalue`` batches over degrees.  With
    ``alternative`` it is the long-memory density of what ``simulate_panel``
    draws, times |2 sin(omega/2)|^(-2 alpha(n)) and +inf at omega = 0 if
    alpha(n) > 0; the package itself never evaluates it."""
    w = np.asarray(omega, dtype=float)
    i = n - model.degrees.n_min
    z = np.exp(-1j * w)
    num = np.ones_like(z)
    for l in range(model.q):
        num = num + model.psi[i, l] * z ** (l + 1)
    den = np.ones_like(z)
    for k in range(model.p):
        den = den - model.phi[i, k] * z ** (k + 1)
    f = model.innov[i] / (2 * np.pi) * np.abs(num) ** 2 / np.abs(den) ** 2
    a = model.alpha.values[i]
    if alternative and a > 0:
        mod = 2.0 * np.abs(np.sin(w / 2.0))
        with np.errstate(divide="ignore"):
            f = np.where(mod == 0.0, np.inf, f * mod ** (-2.0 * a))
    return f


def null_moments_by_pair(model, T: int, B: float) -> tuple:
    """Grid null means per degree and V2 per pair of degrees, each summed on
    its own.  ``null_moments`` batches the means and the diagonal V2(n, n)
    (its sd is sqrt(2 V2(n, n))); the cross kernel V2(n, h), the covariance
    of the entries (a, b) and (b, a) of degrees n and h, lives only here."""
    g = g_weights(T, B)[1:]
    omegas = reduce_frequency(2 * np.pi * np.arange(1, T) / T)
    degs = list(model.degrees.degrees)
    f = {n: eigenvalue_row(model, n, omegas) for n in degs}
    mean = {n: math.sqrt(T) * (2 * np.pi / T) * float(np.sum(g * f[n])) for n in degs}
    second = {
        (n, h): T * (2 * np.pi / T) ** 2 * float(np.sum(g * g * f[n] * f[h]))
        for n in degs
        for h in degs
    }
    return mean, second


def exact_arma11_mean(model, T: int, B: float) -> np.ndarray:
    """Exact finite-T mean of a diagonal entry S[a, a] per degree of an
    ARMA(1, 1) model: the Fejer sum (2 pi T)^(-1) sum_{|h|<T} (T - |h|)
    gamma(h) cos(h w) = E|d(w)|^2 at the g-support ordinates of
    ``_half_support``, from the closed-form autocovariance gamma(h)."""
    phi, psi, s2 = model.phi[:, 0], model.psi[:, 0], model.innov
    gamma0 = s2 * (1 + 2 * phi * psi + psi**2) / (1 - phi**2)
    gamma1 = s2 * (1 + phi * psi) * (phi + psi) / (1 - phi**2)
    h = np.arange(1, T)
    gamma = gamma1[:, None] * phi[:, None] ** (h - 1)
    v, w = _half_support(T, B)
    fejer = (T * gamma0[:, None] + 2 * ((T - h) * gamma) @ np.cos(np.outer(h, 2 * np.pi * v / T)))
    return math.sqrt(T) * (2 * np.pi / T) * (fejer / (2 * np.pi * T)) @ w
