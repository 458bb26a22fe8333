"""Oracles for the support sampler.

Its raw entries are checked against the panel engine it replaces in size and
power (``simulate_panel`` -> ``fdft_panel`` -> ``_entries``, kept here as the
oracle) and against the exact moments of its covariance; the covariance is
checked against independent closed forms and brute-force sums.
"""

import math

import numpy as np
import pytest
from conftest import exact_arma11_mean

from spherelrd.harmonics import DegreeRange
from spherelrd.lrdtest import _entries, _half_support, bandwidth
from spherelrd.models import AlphaProfile, build_spharma, example_model, reference_spharma11
from spherelrd.sampler import (
    _autocovariance,
    _dft_covariance,
    support_entries,
    support_plan,
    support_root,
)
from spherelrd.simulate import _TRUNCATION, SeedSpec, fractional_weights, simulate_panel
from spherelrd.spectral import fdft_panel

# AR(1) with its root at modulus 1.01, the closest to the unit circle tested
NEAR_UNIT = build_spharma(DegreeRange(1, 1), [[1 / 1.01]], [[0.4]])

MODELS = {
    "h0": reference_spharma11().restrict(DegreeRange(1, 2)),
    "example1": example_model(1).restrict(DegreeRange(1, 2)),
    # degrees 7 and 8 carry d = 0.899 and d = 0.998
    "example4": example_model(4).restrict(DegreeRange(7, 8)),
    "ar-root-1.01": NEAR_UNIT,
}


def _engine(model, T_values, R):
    """Per T, the (R, dim) raw entries of every column of ``model`` as size
    and power drew them from panels: one panel per replication at the longest
    T, every T reading its prefix."""
    Bs = [bandwidth(T, 0.25) for T in T_values]
    cols = list(range(model.degrees.dim))
    out = [np.empty((R, model.degrees.dim)) for _ in T_values]
    for r in range(R):
        panel = simulate_panel(model, max(T_values), SeedSpec(base_seed=2027, stream_id=r))
        for k, (T, B) in enumerate(zip(T_values, Bs)):
            out[k][r] = _entries(fdft_panel(panel, T), B, cols)
    return out


def _sampled(model, T, R):
    support = support_plan(model, T, bandwidth(T, 0.25))
    return np.array([support_entries(SeedSpec(base_seed=2028, stream_id=r), *support)
                     for r in range(R)])


def _exact(model, T):
    """Per degree, the exact mean tr(Q) and variance 2 tr(Q^2) of one entry,
    Q = L' W L, from the sampler's root L and weights W."""
    _, cw, roots = support_plan(model, T, bandwidth(T, 0.25))
    moments = []
    for _, L in roots:
        Q = L.T @ (cw[:, None] * L)
        moments.append((np.trace(Q), 2 * np.sum(Q * Q)))
    return moments


def _moments(x):
    """Sample mean and variance of ``x``, each with its standard error."""
    n = x.size
    m, var = x.mean(), x.var(ddof=1)
    m4 = np.mean((x - m) ** 4)
    return (m, math.sqrt(var / n)), (var, math.sqrt(max(m4 - var**2, 0.0) / n))


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("T_values", [(256,), (50, 100, 1000)], ids=["one-T", "three-T"])
def test_sampled_entries_match_the_panel_engine(name, T_values):
    # pooled over a degree's i.i.d. columns: means and variances of the
    # sampler, the engine and the exact law agree pairwise within 4 SE
    model = MODELS[name]
    engine = _engine(model, T_values, R=150)
    for k, T in enumerate(T_values):
        sampled = _sampled(model, T, R=600)
        for n, (mean, var) in zip(model.degrees.degrees, _exact(model, T)):
            lo = model.degrees.column_offset(n)
            cols = slice(lo, lo + 2 * n + 1)
            got = _moments(sampled[:, cols].ravel())
            want = _moments(engine[k][:, cols].ravel())
            for (g, g_se), (w, w_se), exact in zip(got, want, (mean, var)):
                where = f"{name}, T={T}, degree {n}: sampler {g:.6g}, engine {w:.6g}, exact {exact:.6g}"
                assert abs(g - w) <= 4 * math.hypot(g_se, w_se), where
                assert abs(g - exact) <= 4 * g_se, where
                assert abs(w - exact) <= 4 * w_se, where


@pytest.mark.parametrize("T", [50, 100, 1000])
def test_exact_mean_is_the_fejer_sum(T):
    # c tr(W C) from the sampler's root equals an independent Fejer sum of
    # the closed-form ARMA(1, 1) autocovariance
    model = reference_spharma11()
    mean = [m for m, _ in _exact(model, T)]
    np.testing.assert_allclose(mean, exact_arma11_mean(model, T, bandwidth(T, 0.25)),
                               rtol=1e-10, atol=0)


def _brute_autocovariance(model, n, T):
    """gamma(0..T-1) of degree n from the closed-form ARMA(1, 1)
    autocovariance, filtered term by term by the truncated fractional weights."""
    i = n - model.degrees.n_min
    phi, psi, s2 = model.phi[i, 0], model.psi[i, 0], model.innov[i]
    alpha = model.alpha.values[i]
    K = _TRUNCATION if alpha > 0 else 0
    h = np.abs(np.arange(-K, T + K))
    gamma = s2 * (1 + phi * psi) * (phi + psi) / (1 - phi**2) * phi ** (np.maximum(h, 1) - 1.0)
    gamma[h == 0] = s2 * (1 + 2 * phi * psi + psi**2) / (1 - phi**2)
    if not K:
        return gamma
    psi_k = fractional_weights(alpha, K)
    rho = np.correlate(psi_k, psi_k, mode="full")  # lags -K..K
    return np.convolve(gamma, rho, mode="valid")


@pytest.mark.parametrize("model", [reference_spharma11(), example_model(4), NEAR_UNIT],
                         ids=["h0", "example4", "ar-root-1.01"])
def test_covariance_matches_brute_force_sums(model):
    # the autocovariance against a term-by-term filtered closed form, and the
    # DFT covariance against E' Gamma E with the T x T Toeplitz Gamma
    T = 64
    v, _ = _half_support(T, bandwidth(T, 0.25))
    t = np.arange(T)
    E = np.hstack([np.cos(2 * np.pi * np.outer(t, v) / T), -np.sin(2 * np.pi * np.outer(t, v) / T)])
    for n, *law in model.laws():
        gamma = _autocovariance(*law, T)
        np.testing.assert_allclose(gamma, _brute_autocovariance(model, n, T), rtol=1e-12)
        toeplitz = gamma[np.abs(t[:, None] - t)]
        brute = E.T @ toeplitz @ E / (2 * np.pi * T)
        np.testing.assert_allclose(_dft_covariance(gamma, v), brute, rtol=0,
                                   atol=1e-13 * np.abs(brute).max())


def test_white_noise_covariance_is_flat(white_noise_model):
    # unit white noise: every DFT part has variance 1 / (4 pi), independent
    T = 1000
    for n, *law in white_noise_model.laws():
        L = support_root(*law, T, bandwidth(T, 0.25))
        np.testing.assert_allclose(L @ L.T, np.eye(len(L)) / (4 * np.pi), rtol=0, atol=1e-15)


@pytest.mark.parametrize("modulus, alpha", [(1.01, 0.0), (1 + 2e-9, 0.998)])
def test_near_unit_root_has_a_cholesky_factor(modulus, alpha):
    # at an AR root of modulus 1.01, and at the smallest modulus validation
    # admits under d = 0.998, the support covariance is positive definite:
    # its root is its lower Cholesky factor
    model = build_spharma(DegreeRange(1, 1), [[1 / modulus]], [[0.4]],
                          alpha=AlphaProfile(np.array([alpha]), extended=True))
    [(_, *law)] = model.laws()
    for T in (50, 100, 1000):
        B = bandwidth(T, 0.25)
        L = support_root(*law, T, B)
        C = _dft_covariance(_autocovariance(*law, T), _half_support(T, B)[0])
        assert np.array_equal(L, np.tril(L)) and np.all(np.diag(L) > 0)
        np.testing.assert_allclose(L @ L.T, C, rtol=0, atol=1e-12 * np.abs(C).max())
        assert not L.flags.writeable


def test_streams_are_keyed_by_replication_degree_and_T(small_model):
    # each (replication, degree, T) has its own stream, none a panel stream
    spec = SeedSpec(base_seed=5, stream_id=1)
    draws = {
        key: gen.standard_normal(4).tolist()
        for key, gen in {
            "panel": spec.generator(1),
            "T=64": spec.support_generator(1, 64),
            "T=128": spec.support_generator(1, 128),
            "degree 2": spec.support_generator(2, 64),
            "stream 2": SeedSpec(base_seed=5, stream_id=2).support_generator(1, 64),
        }.items()
    }
    assert len({tuple(d) for d in draws.values()}) == len(draws)
    assert spec.support_generator(1, 64).standard_normal(4).tolist() == draws["T=64"]
