import functools

import numpy as np
import pytest
from conftest import eigenvalue_row

from spherelrd import SpherelrdError
from spherelrd.harmonics import DegreeRange
from spherelrd.models import (
    AlphaProfile,
    alpha_profile,
    build_spharma,
    example_alpha_profile,
    example_model,
    reference_ar_eigenvalues,
    reference_ma_eigenvalues,
    _roots,
    reference_spharma11,
    spectral_eigenvalue,
)
from spherelrd.simulate import SeedSpec, simulate_panel


def test_reference_coefficients_at_degree_one(reference_model):
    # [TRIVIAL] closed forms of the per-degree AR/MA eigenvalues at n = 1
    assert reference_model.phi[0, 0] == pytest.approx(0.7 * 2.0**-1.5, abs=1e-15)
    assert reference_model.psi[0, 0] == pytest.approx(0.4 * 2.0 ** (-5.0 / 1.95), abs=1e-15)
    degrees = DegreeRange(1, 8)
    np.testing.assert_allclose(
        reference_ar_eigenvalues(degrees),
        0.7 * ((np.arange(1, 9) + 1) / np.arange(1, 9)) ** -1.5,
    )
    np.testing.assert_allclose(
        reference_ma_eigenvalues(degrees),
        0.4 * ((np.arange(1, 9) + 1) / np.arange(1, 9)) ** (-5.0 / 1.95),
    )


def test_zero_frequency_eigenvalue_oracle(reference_model):
    # [DERIVED] f_1(0) = (1/2pi) (1 + psi_1)^2 / (1 - phi_1)^2 with
    # phi_1 = 0.7 * 2^(-3/2), psi_1 = 0.4 * 2^(-5/1.95).
    assert spectral_eigenvalue(reference_model, 0.0)[0, 0] == pytest.approx(
        0.32036146556075057, abs=1e-12
    )


def test_eigenvalue_is_even_and_positive(reference_model):
    w = np.linspace(-np.pi, np.pi, 41)
    f = spectral_eigenvalue(reference_model, w)
    assert f.shape == (reference_model.n_degrees, w.size)
    np.testing.assert_allclose(f, f[:, ::-1], atol=1e-14)
    assert np.all(f > 0)


def test_alternative_eigenvalue_pole(example1_model):
    assert eigenvalue_row(example1_model, 1, 0.0, alternative=True) == np.inf
    w = 0.3
    a = example1_model.alpha.values[0]
    null = spectral_eigenvalue(example1_model, w)[0, 0]
    alt = eigenvalue_row(example1_model, 1, w, alternative=True)
    assert alt == pytest.approx(null * (2 * np.sin(w / 2)) ** (-2 * a), rel=1e-12)


@functools.cache
def _example_periodograms(example: int, n: int) -> np.ndarray:
    """Periodogram ordinates s = 1..T/2 - 1 of degree n of an example model:
    T = 512, 40 replications, one column per (replication, order)."""
    T, R = 512, 40
    model = example_model(example).restrict(DegreeRange(n, n))
    dfts = [np.fft.rfft(simulate_panel(model, T, SeedSpec(515, r)).data, axis=0) for r in range(R)]
    return np.abs(np.concatenate(dfts, axis=1)[1 : T // 2]) ** 2 / (2 * np.pi * T)


_FIRST_AND_LAST = [(1, 1), (1, 8), (2, 1), (2, 8)]


@pytest.mark.parametrize("example, n", _FIRST_AND_LAST)
def test_simulated_memory_exponent_is_differencing_order(example, n):
    # GPH (Geweke & Porter-Hudak 1983): regress the log periodogram on
    # -2 log(2 sin(w/2)) over the lowest sqrt(T) Fourier frequencies.  The
    # periodogram is first divided by the known short-memory eigenvalue, so
    # the ARMA factor adds no bias.  The slope estimates d; its mean over all
    # columns lies within 3 SE of alpha(n).
    model = example_model(example)
    I = _example_periodograms(example, n)
    T = 2 * (I.shape[0] + 1)
    s = np.arange(1, int(np.sqrt(T)) + 1)
    w = 2 * np.pi * s / T
    x = -2 * np.log(2 * np.sin(w / 2))
    x -= x.mean()
    y = np.log(I[s - 1] / spectral_eigenvalue(model, w)[n - 1][:, None])
    d_hat = x @ (y - y.mean(axis=0)) / (x @ x)
    se = d_hat.std(ddof=1) / np.sqrt(d_hat.size)
    assert abs(d_hat.mean() - model.alpha.values[n - 1]) < 3 * se


@pytest.mark.parametrize("example, n", _FIRST_AND_LAST)
def test_mean_periodogram_matches_alternative_eigenvalue(example, n):
    # Away from the pole (s = 8..127 of T = 512) the mean periodogram over
    # f_n(w) under the alternative is 1 up to the periodogram's leakage bias
    # (1-3% here); reading alpha as a density exponent would put the ratio
    # 14-32% above 1.
    model = example_model(example)
    I = _example_periodograms(example, n)
    T = 2 * (I.shape[0] + 1)
    s = np.arange(8, 128)
    f = eigenvalue_row(model, n, 2 * np.pi * s / T, alternative=True)
    assert abs(np.mean(I[s - 1] / f[:, None]) - 1.0) < 0.05


# Degrees of effective order 2, 1 and 0 in one AR(2) x MA(2) model: the
# trailing zero coefficients leave zero companion eigenvalues to drop.
_MIXED_ORDERS = dict(
    degrees=DegreeRange(1, 4),
    phi=[[0.5, 0.3], [0.3, 0.0], [0.0, 0.0], [-0.4, 0.2]],
    psi=[[0.2, -0.1], [0.0, 0.0], [0.6, 0.0], [0.3, 0.25]],
    innov=[1.0, 0.5, 2.0, 1.5],
)


def _models() -> dict:
    return {
        "white-noise": build_spharma(DegreeRange(1, 2), [], [], innov=2.0),
        "reference": reference_spharma11(),
        "example1": example_model(1),
        "example4": example_model(4),
        "mixed-orders": build_spharma(**_MIXED_ORDERS),
        "order-3": build_spharma(
            DegreeRange(0, 2),
            [[0.3, 0.0, 0.0], [0.0, 0.0, 0.0], [0.2, -0.1, 0.05]],
            [[0.4, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.0]],
        ),
    }


@pytest.mark.parametrize("name", list(_models()))
@pytest.mark.parametrize("alternative", [False, True])
def test_eigenvalue_rows_equal_single_degree_oracle(name, alternative):
    # every row of the batched short-memory eigenvalue is bit for bit the
    # degree's own formula, on a grid that holds the pole at 0 and at a scalar
    # frequency; the oracle's alternative is that row times the simulator's
    # fractional filter gain |1 - e^{-iw}|^(-2 alpha(n)), +inf at the pole
    model = _models()[name]
    w = np.linspace(-np.pi, np.pi, 101)
    w[50] = 0.0  # linspace leaves the midpoint at 4.4e-16, off the pole
    f = spectral_eigenvalue(model, w)
    assert f.shape == (model.n_degrees, w.size)
    f0 = spectral_eigenvalue(model, 0.3)
    assert f0.shape == (model.n_degrees, 1)
    for i, n in enumerate(model.degrees.degrees):
        if alternative:
            with np.errstate(divide="ignore"):
                gain = np.abs(1.0 - np.exp(-1j * w)) ** (-2.0 * model.alpha.values[i])
            want = eigenvalue_row(model, n, w, alternative=True)
            np.testing.assert_allclose(want, f[i] * gain, rtol=1e-12)
            assert np.isinf(want[50]) == (model.alpha.values[i] > 0)
        else:
            np.testing.assert_array_equal(f[i], eigenvalue_row(model, n, w))
            assert f0[i, 0] == eigenvalue_row(model, n, 0.3)


@pytest.mark.parametrize("name", list(_models()))
def test_batched_roots_match_np_roots(name):
    # one eigenvalue call over the stacked companions finds each degree's
    # roots, with trailing zero coefficients trimmed as np.roots needs them
    model = _models()[name]
    for coeffs in (-model.phi, model.psi):
        for row, roots in zip(coeffs, _roots(coeffs)):
            poly = np.trim_zeros(np.concatenate(([1.0], row)), "b")
            want = np.roots(poly[::-1]) if poly.size > 1 else np.empty(0)
            assert roots.size == want.size
            got, want = np.sort_complex(roots), np.sort_complex(want)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    moduli = model.ar_root_moduli()
    assert len(moduli) == model.n_degrees
    for row, got in zip(-model.phi, moduli):
        poly = np.trim_zeros(np.concatenate(([1.0], row)), "b")
        want = np.sort(np.abs(np.roots(poly[::-1]))) if poly.size > 1 else np.empty(0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


# (fault, degree it names, changes to _MIXED_ORDERS, message); the test id
# reads changes<i>-<fault>-<degree>-<message>
_FIRST_FAILING = [
    # a nonstationary middle degree, of full and of lower effective order
    ("NonstationaryDegree", 2, dict(phi=[[0.5, 0.3], [1.25, 0.0], [0.0, 0.0], [-0.4, 0.2]]),
     "AR polynomial for degree 2 has a root of modulus 0.8 <= 1"),
    ("NonstationaryDegree", 4, dict(phi=[[0.5, 0.3], [0.3, 0.0], [0.0, 0.0], [0.6, 0.5]]),
     "AR polynomial for degree 4 has a root of modulus 0.936229 <= 1"),
    # 1 - 0.3 z shares its root z = 10/3 with the MA polynomial 1 - 0.3 z
    ("CommonRoot", 2, dict(psi=[[0.2, -0.1], [-0.3, 0.0], [0.6, 0.0], [0.3, 0.25]]),
     "AR and MA polynomials share a root at degree 2"),
    # the innovation is checked first, and the first failing degree raises
    ("NonpositiveInnovation", 3,
     dict(innov=[1.0, 1.0, 0.0, -1.0], phi=[[0.5, 0.3], [0.3, 0.0], [0.0, 0.0], [1.5, 0.0]]),
     "innovation eigenvalue at degree 3 must be positive"),
    ("NonpositiveInnovation", 2,
     dict(innov=[1.0, 0.0, 1.0, 1.0], phi=[[0.5, 0.3], [1.5, 0.0], [0.0, 0.0], [-0.4, 0.2]]),
     "innovation eigenvalue at degree 2 must be positive"),
]


@pytest.mark.parametrize(
    "changes, message",
    [pytest.param(changes, message, id=f"changes{i}-{fault}-{degree}-{message}")
     for i, (fault, degree, changes, message) in enumerate(_FIRST_FAILING)],
)
def test_first_failing_degree_is_named(changes, message):
    with pytest.raises(SpherelrdError) as info:
        build_spharma(**{**_MIXED_ORDERS, **changes})
    assert str(info.value) == message


def test_eigenvalue_frequency_domain_checked(reference_model):
    with pytest.raises(SpherelrdError, match=r"frequency outside \[-pi, pi\]"):
        spectral_eigenvalue(reference_model, 4.0)


def test_nonstationary_degree_rejected():
    with pytest.raises(SpherelrdError, match="AR polynomial for degree 1 has a root of modulus 0.833333 <= 1"):
        build_spharma(DegreeRange(1, 1), [[1.2]], [])


def test_unit_root_rejected():
    with pytest.raises(SpherelrdError, match="AR polynomial for degree 1 has a root of modulus 1 <= 1"):
        build_spharma(DegreeRange(1, 1), [[1.0]], [])


def test_common_root_rejected():
    # AR root at z = 2 cancels the MA root of 1 - 0.5 z
    with pytest.raises(SpherelrdError, match="AR and MA polynomials share a root at degree 1"):
        build_spharma(DegreeRange(1, 1), [[0.5]], [[-0.5]])


def test_nonpositive_innovation_rejected():
    with pytest.raises(SpherelrdError, match="innovation eigenvalue at degree 1 must be positive"):
        build_spharma(DegreeRange(1, 1), [[0.1]], [], innov=0.0)


def test_nan_innovation_and_exponent_rejected():
    with pytest.raises(SpherelrdError, match="innovation eigenvalue at degree 1 must be positive"):
        build_spharma(DegreeRange(1, 1), [[0.1]], [], innov=np.nan)
    with pytest.raises(SpherelrdError, match=r"alpha values must lie in \[0, 0.5\)"):
        AlphaProfile(values=[np.nan])


def test_alpha_range_enforced():
    with pytest.raises(SpherelrdError, match=r"alpha values must lie in \[0, 0.5\)"):
        AlphaProfile(values=np.array([0.5]))
    with pytest.raises(SpherelrdError, match=r"alpha values must lie in \[0, 0.5\)"):
        AlphaProfile(values=np.array([-0.1]))
    with pytest.raises(SpherelrdError, match=r"alpha values must lie in \[0, 1.0\)"):
        AlphaProfile(values=np.array([1.0]), extended=True)
    prof = AlphaProfile(values=np.array([0.7]), extended=True)
    assert prof.values[0] == pytest.approx(0.7)


def test_alpha_profile_summaries():
    prof = AlphaProfile(values=np.array([0.0, 0.2, 0.4]))
    assert not prof.is_null
    assert AlphaProfile(values=np.zeros(3)).is_null


def test_alpha_profile_forms():
    # the one form key that is set selects the profile
    np.testing.assert_array_equal(alpha_profile(4, values=0.3).values, np.full(4, 0.3))
    np.testing.assert_array_equal(alpha_profile(3, values=[0.1, 0.2, 0.0]).values, [0.1, 0.2, 0.0])
    with pytest.raises(SpherelrdError, match=r"expected 3 alpha values, got \(2,\)"):
        alpha_profile(3, values=[0.1, 0.2])
    lin = alpha_profile(5, endpoints=(0.1, 0.3))
    np.testing.assert_array_equal(lin.values, np.linspace(0.1, 0.3, 5))
    # up from first to height at index 2, down at the same slope, clipped at 0
    peak = alpha_profile(6, peak=(0.1, 2, 0.3))
    np.testing.assert_allclose(peak.values, [0.1, 0.2, 0.3, 0.2, 0.1, 0.0], atol=1e-15)
    assert alpha_profile(2, peak=(0.6, 1, 0.9), extended=True).extended


@pytest.mark.parametrize(
    "forms",
    [{}, {"values": 0.1, "endpoints": (0.1, 0.2)}, {"endpoints": (0.1, 0.2), "peak": (0.1, 1, 0.2)},
     {"values": 0.1, "endpoints": (0.1, 0.2), "peak": (0.1, 1, 0.2)}],
    ids=["none", "values-endpoints", "endpoints-peak", "all-three"],
)
def test_alpha_profile_sets_exactly_one_form(forms):
    with pytest.raises(SpherelrdError, match="exactly one of 'values', 'endpoints', 'peak'"):
        alpha_profile(3, **forms)


def test_example_profiles_frozen():
    # [DERIVED] reconstructions from the published endpoint/peak values
    ex1 = example_alpha_profile(1)
    assert ex1.values[0] == pytest.approx(0.4733)
    assert ex1.values[-1] == pytest.approx(0.2678)
    assert np.all(np.diff(ex1.values) < 0)

    ex2 = example_alpha_profile(2)
    assert ex2.values[0] == pytest.approx(0.2550)
    assert ex2.values[-1] == pytest.approx(0.3327)
    assert np.all(np.diff(ex2.values) > 0)

    ex3 = example_alpha_profile(3)
    assert ex3.values[4] == pytest.approx(0.4000)
    assert ex3.values.max() == pytest.approx(0.4000)
    assert ex3.values[0] == pytest.approx(0.2753)
    assert ex3.values[-1] == pytest.approx(0.306475)

    ex4 = example_alpha_profile(4)
    assert ex4.values[0] == pytest.approx(0.3041)
    assert ex4.values[-1] == pytest.approx(0.9982)
    assert ex4.extended
    assert np.all(np.diff(ex4.values) > 0)


def test_unknown_example_rejected():
    with pytest.raises(SpherelrdError, match="unknown example number 5"):
        example_model(5)


def test_srd_part_strips_memory(example1_model):
    srd = example1_model.srd_part()
    assert srd.alpha.is_null
    np.testing.assert_allclose(srd.phi, example1_model.phi)
    np.testing.assert_allclose(srd.psi, example1_model.psi)
    w = np.linspace(0.1, 3.0, 7)
    np.testing.assert_allclose(
        spectral_eigenvalue(srd, w),
        spectral_eigenvalue(example1_model, w),
    )


def test_ar_roots_outside_unit_circle(reference_model):
    for moduli in reference_model.ar_root_moduli():
        assert np.all(moduli > 1.0)


def test_alpha_length_mismatch_rejected():
    with pytest.raises(SpherelrdError, match="alpha profile length does not match degree range"):
        build_spharma(
            DegreeRange(1, 3), [], [], alpha=AlphaProfile(values=np.array([0.1, 0.2]))
        )


def test_white_noise_model_is_flat():
    wn = build_spharma(DegreeRange(1, 2), [], [], innov=2.0)
    w = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(spectral_eigenvalue(wn, w), 2.0 / (2 * np.pi))
