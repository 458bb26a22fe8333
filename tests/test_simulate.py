import csv
import json
import re

import numpy as np
import pytest
from scipy import fft, signal

from spherelrd import SpherelrdError, models
from spherelrd.cli import main
from spherelrd.harmonics import DegreeRange
from spherelrd.models import AlphaProfile, build_spharma, example_model, reference_spharma11
from spherelrd.simulate import (
    CoefficientPanel,
    SeedSpec,
    _TRUNCATION,
    _arma,
    _fast_len,
    _stationary_state_root,
    _weight_spectrum,
    fractional_weights,
    simulate_panel,
)


def test_fractional_weights_generating_function():
    # [DERIVED] sum_k psi_k x^k = (1 - x)^(-alpha); at alpha = 0.3, x = 0.5 the
    # series truncated at K = 200 equals 2^0.3 to well below 1e-9.
    psi = fractional_weights(0.3, 200)
    total = float(np.sum(psi * 0.5 ** np.arange(201)))
    assert total == pytest.approx(1.2311444133449163, abs=1e-9)


def test_fractional_weights_basics():
    psi = fractional_weights(0.4, 10)
    assert psi[0] == 1.0
    assert psi[1] == pytest.approx(0.4)
    assert np.all(psi > 0)
    zero = fractional_weights(0.0, 5)
    np.testing.assert_allclose(zero, [1, 0, 0, 0, 0, 0])
    with pytest.raises(SpherelrdError, match=r"fractional exponent must lie in \[0, 1\), got 1.0"):
        fractional_weights(1.0, 5)
    with pytest.raises(SpherelrdError, match=r"fractional exponent must lie in \[0, 1\), got -0.1"):
        fractional_weights(-0.1, 5)


# Warm-up steps of the zero-state start that the stationary start replaced.
_BURN_IN = 1000


def _full_convolution_panel(model, T, seed, burn_in=False):
    """Reference simulator: the ARMA step, then the truncated MA evaluated by
    direct full-length convolution over the whole pre-sample.

    By default it makes the package's draws and stationary start; with
    ``burn_in`` the ARMA state starts at zero instead and runs ``_BURN_IN``
    discarded warm-up steps, the start the stationary one replaced.
    """
    data = np.empty((T, model.degrees.dim))
    r = max(model.p, model.q)
    for i, n in enumerate(model.degrees.degrees):
        m = 2 * n + 1
        a = float(model.alpha.values[i])
        pre = (_BURN_IN if burn_in else 0) + (_TRUNCATION if a > 0 else 0)
        rng = seed.generator(n)
        scale = np.sqrt(model.innov[i])
        b = np.concatenate(([1.0], model.psi[i]))
        aa = np.concatenate(([1.0], -model.phi[i]))
        if burn_in:
            x = signal.lfilter(b, aa, rng.standard_normal((pre + T, m)) * scale, axis=0)
        else:
            zi = _stationary_state_root(tuple(b), tuple(aa)) @ rng.standard_normal((r, m)) * scale
            eps = rng.standard_normal((pre + T, m)) * scale
            x = signal.lfilter(b, aa, eps, axis=0, zi=zi)[0]
        if a > 0:
            psi = fractional_weights(a, _TRUNCATION)
            x = np.column_stack(
                [np.convolve(x[:, j], psi, mode="full")[: pre + T] for j in range(m)]
            )
        off = model.degrees.column_offset(n)
        data[:, off : off + m] = x[pre:]
    return data


def test_fractional_filter_matches_full_convolution():
    model = example_model(1, 1, 2)
    seed = SeedSpec(base_seed=31, stream_id=4)
    K = _TRUNCATION
    assert _fast_len(K + 48) == K + 48  # no zero padding at T = 48
    for T in (2, 48, 50, 1000):
        ref = _full_convolution_panel(model, T, seed)
        got = simulate_panel(model, T, seed).data
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    # the cached spectrum is keyed by FFT length: a T = 1000 call in between
    # leaves the T = 50 panel bit-identical
    _weight_spectrum.cache_clear()
    first = simulate_panel(model, 50, seed).data
    simulate_panel(model, 1000, seed)
    again = simulate_panel(model, 50, seed).data
    np.testing.assert_array_equal(first, again)
    assert _weight_spectrum.cache_info().hits == 2  # the second T = 50, both degrees
    assert not _weight_spectrum(0.3, 10, 16).flags.writeable


def test_fast_len_is_scipys_real_fft_length():
    # the smallest 5-smooth length at or above n, as scipy picks for a real FFT
    for n in (*range(1, 30_000), 2**20 - 1, 2**20 + 1, 3**12 + 1, 5**8 - 1, 10**7 + 1):
        assert _fast_len(n) == fft.next_fast_len(n, real=True), n


# (b, a) of each ARMA shape the banded solve must reproduce
_ARMA_CASES = {
    "arma11": ((1.0, 0.4), (1.0, -0.5)),
    "ar2_padded": ((1.0,), (1.0, -0.5, -0.0)),
    "ma2": ((1.0, 0.4, -0.2), (1.0,)),
    "arma13": ((1.0, 0.4, -0.2, 0.1), (1.0, -0.5)),
    "arma21": ((1.0, 0.4), (1.0, -0.5, -0.3)),
}


@pytest.mark.parametrize("N", [2, 300])
@pytest.mark.parametrize("case", sorted(_ARMA_CASES))
def test_banded_arma_matches_lfilter(case, N):
    # a(B) y = b(B) e + zi, solved in place, is lfilter's direct form II
    # transposed started from the state zi, also when the state is longer
    # than the path
    b, a = _ARMA_CASES[case]
    r = max(len(a), len(b)) - 1
    rng = np.random.default_rng(17)
    normals = rng.standard_normal((N, 5))
    zi = rng.standard_normal((r, 5))
    scale = 1.7
    ref = signal.lfilter(b, a, normals * scale, axis=0, zi=zi)[0]
    out = np.empty((N, 5), order="F")
    _arma(out, normals, scale, b, a, zi)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_banded_arma_solves_in_place_only():
    # a row-major target would make LAPACK solve a copy: refused, not copied back
    b, a = _ARMA_CASES["arma11"]
    normals = np.ones((8, 3))
    with pytest.raises(SpherelrdError, match="in place"):
        _arma(np.empty((8, 3)), normals, 1.0, b, a, np.zeros((1, 3)))


def test_seed_spec_validation():
    with pytest.raises(SpherelrdError, match="base_seed must fit in 64 bits"):
        SeedSpec(base_seed=-1)
    with pytest.raises(SpherelrdError, match="stream_id must be a nonnegative 40-bit integer"):
        SeedSpec(base_seed=1, stream_id=2**40)
    # both fields must be integers: a fraction or a boolean fails when the
    # spec is built, not in generator(), and True never draws stream 1
    with pytest.raises(SpherelrdError, match="'base_seed' must be an integer, got 1.5"):
        SeedSpec(base_seed=1.5)
    with pytest.raises(SpherelrdError, match="'base_seed' must be an integer, got True"):
        SeedSpec(base_seed=True, stream_id=True)
    with pytest.raises(SpherelrdError, match="'stream_id' must be an integer, got True"):
        SeedSpec(base_seed=1, stream_id=True)
    spec = SeedSpec(base_seed=np.int64(3), stream_id=2.0)
    assert (spec.base_seed, spec.stream_id) == (3, 2)
    assert {type(spec.base_seed), type(spec.stream_id)} == {int}


def _start_rows(model, R):
    """Rows t = 0 and t = 1 of R panels, pooled over the columns."""
    return np.concatenate(
        [simulate_panel(model, 2, SeedSpec(base_seed=61, stream_id=r)).data for r in range(R)],
        axis=1,
    )


def _within_3se(samples, target):
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    return abs(samples.mean() - target) < 3 * se


def test_stationary_start_matches_arma11_autocovariances():
    # [DERIVED] for x_t = phi x_{t-1} + e_t + theta e_{t-1}, unit innovations:
    # gamma_0 = (1 + 2 phi theta + theta^2) / (1 - phi^2),
    # gamma_1 = (1 + phi theta)(phi + theta) / (1 - phi^2).
    model = reference_spharma11(1, 1)
    phi, theta = model.phi[0, 0], model.psi[0, 0]
    gamma0 = (1 + 2 * phi * theta + theta**2) / (1 - phi**2)
    gamma1 = (1 + phi * theta) * (phi + theta) / (1 - phi**2)
    x0, x1 = _start_rows(model, 3000)
    assert _within_3se(x0**2, gamma0)
    assert _within_3se(x0 * x1, gamma1)


def test_stationary_start_second_order_state():
    # [DERIVED] ARMA(2, 1) with r = 2 states: gamma_0 is the sum of the squared
    # impulse-response weights, which decay like 0.8^k (2000 terms suffice).
    model = build_spharma(DegreeRange(1, 1), [[0.5, 0.3]], [[0.4]], innov=2.0)
    impulse = signal.lfilter([1.0, 0.4], [1.0, -0.5, -0.3], np.eye(1, 2000)[0])
    gamma0 = 2.0 * float(np.sum(impulse**2))
    x0, _ = _start_rows(model, 3000)
    assert _within_3se(x0**2, gamma0)


def test_white_noise_draws_no_state_normals(white_noise_model):
    # r = 0: each degree's stream yields its innovations first
    seed = SeedSpec(base_seed=8, stream_id=3)
    panel = simulate_panel(white_noise_model, 16, seed)
    for n in (1, 2):
        off = white_noise_model.degrees.column_offset(n)
        want = seed.generator(n).standard_normal((16, 2 * n + 1))
        np.testing.assert_array_equal(panel.data[:, off : off + 2 * n + 1], want)


def test_singular_state_covariance_simulates():
    # The state covariance P is singular when a degree's AR order is below the
    # model's (its last lfilter state stays 0), and numerically singular when
    # an MA root lies ~4e-8 from an AR root, just above the model's
    # common-root tolerance.  A Cholesky factor fails on the first.
    padded = build_spharma(DegreeRange(1, 2), [[0.5, 0.2], [0.5, 0.0]], [])
    near = build_spharma(DegreeRange(1, 1), [[0.5]], [[-0.5 + 1e-8]])
    near2 = build_spharma(DegreeRange(1, 1), [[0.5, 0.3]], [[-0.5 + 1e-7, -0.3]])
    for model in (padded, near, near2):
        assert np.all(np.isfinite(simulate_panel(model, 64, SeedSpec(base_seed=2)).data))
    # [DERIVED] AR(1), phi = 0.5, padded to r = 2: the first state is
    # phi * x_t, so P = diag(phi^2 / (1 - phi^2), 0) = diag(1/3, 0)
    root = _stationary_state_root((1.0,), (1.0, -0.5, -0.0))
    np.testing.assert_allclose(root @ root.T, [[1 / 3, 0.0], [0.0, 0.0]], atol=1e-15)
    assert not root.flags.writeable


@pytest.mark.parametrize("model", [reference_spharma11(1, 2), example_model(1, 1, 1)], ids=["h0", "ex1"])
def test_stationary_start_matches_burn_in_periodogram(model):
    # The burn-in path and the stationary start, on independent seeds: their
    # mean periodograms agree within 3 Monte Carlo SE in each of four bands of
    # 8 ordinates.
    T, R = 64, 150

    def moments(simulate, base_seed):
        I = np.concatenate(
            [
                np.abs(np.fft.rfft(simulate(model, T, SeedSpec(base_seed, r)), axis=0)[1:33]) ** 2
                for r in range(R)
            ],
            axis=1,
        )
        return I.mean(axis=1), I.var(axis=1, ddof=1) / I.shape[1]

    new_mean, new_var = moments(lambda *args: simulate_panel(*args).data, 71)
    old_mean, old_var = moments(lambda *args: _full_convolution_panel(*args, burn_in=True), 72)
    diff = (new_mean - old_mean).reshape(4, 8).mean(axis=1)
    se = np.sqrt((new_var + old_var).reshape(4, 8).sum(axis=1)) / 8
    assert np.all(np.abs(diff) < 3 * se)


def test_same_seed_reproduces_panel(small_model):
    a = simulate_panel(small_model, 128, SeedSpec(base_seed=11, stream_id=3))
    b = simulate_panel(small_model, 128, SeedSpec(base_seed=11, stream_id=3))
    np.testing.assert_array_equal(a.data, b.data)


def test_streams_differ(small_model):
    a = simulate_panel(small_model, 128, SeedSpec(base_seed=11, stream_id=0))
    b = simulate_panel(small_model, 128, SeedSpec(base_seed=11, stream_id=1))
    assert not np.array_equal(a.data, b.data)


def test_degree_streams_are_decomposition_invariant():
    # Degree-1 columns are bit-identical whether or not degree 2 is simulated,
    # because randomness is keyed per (seed, stream, degree).
    wide = simulate_panel(reference_spharma11(1, 2), 200, SeedSpec(base_seed=5))
    narrow = simulate_panel(reference_spharma11(1, 1), 200, SeedSpec(base_seed=5))
    np.testing.assert_array_equal(wide.data[:, :3], narrow.data)


@pytest.mark.parametrize("T", [50, 1000])
@pytest.mark.parametrize("model", [example_model(1), reference_spharma11()], ids=["ex1", "h0"])
def test_degree_subrange_matches_full_panel_columns(model, T):
    # the panel of a restricted model is the matching columns of the full panel
    seed = SeedSpec(base_seed=31, stream_id=4)
    full = simulate_panel(model, T, seed)
    sub = simulate_panel(model.restrict(DegreeRange(2, 4)), T, seed)
    lo = model.degrees.column_offset(2)
    hi = model.degrees.column_offset(4) + 9
    assert sub.degrees == DegreeRange(2, 4)
    assert np.array_equal(sub.data, full.data[:, lo:hi])


@pytest.mark.parametrize(
    "model",
    [
        example_model(1),
        example_model(4),
        example_model(1).restrict(DegreeRange(2, 4)),
        reference_spharma11(1, 3, alpha=AlphaProfile(np.array([0.3, 0.0, 0.2]))),
    ],
    ids=["ex1", "ex4", "ex1-subrange", "mixed"],
)
def test_shorter_panel_is_prefix_of_longer(model):
    # the harness simulates each replication once at the longest T and reads
    # every shorter T from its first rows.  Null degrees are bit-identical;
    # a long-memory degree differs only by the FFT length of its filter.
    seed = SeedSpec(base_seed=17, stream_id=2)
    long = simulate_panel(model, 1000, seed)
    for T in (50, 100, 999):
        short = simulate_panel(model, T, seed)
        for n in model.degrees.degrees:
            lo = model.degrees.column_offset(n)
            cols = slice(lo, lo + 2 * n + 1)
            if model.alpha.values[n - model.degrees.n_min] == 0:
                assert np.array_equal(short.data[:, cols], long.data[:T, cols])
            else:
                gap = np.max(np.abs(short.data[:, cols] - long.data[:T, cols]))
                assert gap <= 1e-13 * np.max(np.abs(long.data))


def test_degree_subrange_outside_model_raises():
    model = example_model(1, 1, 4)
    for degrees in (DegreeRange(0, 2), DegreeRange(3, 5), DegreeRange(6, 7)):
        with pytest.raises(SpherelrdError, match=re.escape(f"degrees {degrees} outside the model's {model.degrees}")):
            model.restrict(degrees)


@pytest.mark.parametrize("model", [example_model(1), reference_spharma11(), example_model(4)],
                         ids=["ex1", "h0", "ex4"])
def test_restrict_keeps_each_degree_law(model, monkeypatch):
    # the model's own range gives the model itself; a sub-range keeps the
    # laws of its degrees, and the short-memory factor sets each exponent to
    # zero.  Neither checks the laws again: they passed when the model was built
    def unchecked(coeffs):
        raise AssertionError("a derived model re-ran the root checks")

    monkeypatch.setattr(models, "_roots", unchecked)
    assert model.restrict(model.degrees) is model
    sub = model.restrict(DegreeRange(2, 4))
    assert sub.degrees == DegreeRange(2, 4)
    assert sub.laws() == model.laws()[1:4]
    assert sub.alpha.extended == model.alpha.extended
    short = [(n, b, a, v, 0.0) for n, b, a, v, _ in model.laws()]
    assert model.srd_part().laws() == short
    assert sub.srd_part().laws() == model.srd_part().restrict(sub.degrees).laws() == short[1:4]


def test_orders_within_degree_are_distinct(small_model):
    panel = simulate_panel(small_model, 256, SeedSpec(base_seed=2))
    assert not np.array_equal(panel.data[:, 0], panel.data[:, 1])


def test_white_noise_panel_moments(white_noise_model):
    panel = simulate_panel(white_noise_model, 4096, SeedSpec(base_seed=77))
    var = panel.data.var(axis=0)
    np.testing.assert_allclose(var, 1.0, rtol=0.1)
    assert abs(panel.data.mean()) < 0.05


def test_panel_validation(small_model):
    with pytest.raises(SpherelrdError, match="sample length must be at least 2"):
        simulate_panel(small_model, 1, SeedSpec(base_seed=1))
    with pytest.raises(SpherelrdError, match=r"panel shape \(4, 2\) != \(4, 3\)"):
        CoefficientPanel(T=4, degrees=DegreeRange(1, 1), data=np.zeros((4, 2)))
    with pytest.raises(SpherelrdError, match="panel contains non-finite entries"):
        CoefficientPanel(
            T=2, degrees=DegreeRange(1, 1), data=np.array([[0.0, np.nan, 0.0]] * 2)
        )


def test_long_memory_inflates_low_frequency_mass():
    degrees = DegreeRange(1, 1)
    srd = build_spharma(degrees, [], [])
    lrd = build_spharma(degrees, [], [], alpha=AlphaProfile(values=np.array([0.45])))
    T = 2048
    acc = np.zeros(2)
    for r in range(8):
        seed = SeedSpec(base_seed=99, stream_id=r)
        for k, model in enumerate((srd, lrd)):
            x = simulate_panel(model, T, seed).data[:, 0]
            d = np.fft.rfft(x)
            acc[k] += float(np.sum(np.abs(d[1:8]) ** 2))
    assert acc[1] > 5.0 * acc[0]


def test_panel_csv_round_trip(tmp_path, small_model):
    # the panel.csv `spherelrd simulate` writes parses back to the exact
    # panel: .17g loses nothing
    doc = {"model": {"generator": "reference", "degrees": [1, 2]},
           "experiment": {"T": [64], "seed": 123}}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "panel.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["t"] + [f"a_{n}_{j}" for n, j in small_model.degrees.index_list()]
    assert [int(r[0]) for r in rows] == list(range(64))
    back = np.array([[float(v) for v in r[1:]] for r in rows])
    panel = simulate_panel(small_model, 64, SeedSpec(base_seed=123))
    np.testing.assert_array_equal(back, panel.data)
