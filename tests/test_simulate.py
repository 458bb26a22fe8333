import numpy as np
import pytest
from scipy import fft, signal

from spherelrd.harmonics import DegreeRange
from spherelrd.models import AlphaProfile, build_spharma, example_model, reference_spharma11
from spherelrd.simulate import (
    CoefficientPanel,
    SeedSpec,
    SimulationError,
    _BURN_IN,
    _TRUNCATION,
    _weight_spectrum,
    fractional_weights,
    read_panel_csv,
    simulate_panel,
    write_panel_csv,
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
    with pytest.raises(SimulationError):
        fractional_weights(1.0, 5)
    with pytest.raises(SimulationError):
        fractional_weights(-0.1, 5)


def _full_convolution_panel(model, T, seed):
    """Reference simulator: the same draws and ARMA step, then the truncated MA
    evaluated by direct full-length convolution over the whole pre-sample."""
    data = np.empty((T, model.degrees.dim))
    for i, n in enumerate(model.degrees.degrees):
        m = 2 * n + 1
        a = float(model.alpha.values[i])
        pre = _BURN_IN + (_TRUNCATION if a > 0 else 0)
        eps = seed.generator(n).standard_normal((pre + T, m)) * np.sqrt(model.innov[i])
        b = np.concatenate(([1.0], model.psi[i]))
        aa = np.concatenate(([1.0], -model.phi[i]))
        x = signal.lfilter(b, aa, eps, axis=0)
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
    assert fft.next_fast_len(K + 48, real=True) == K + 48  # no zero padding at T = 48
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


def test_seed_spec_validation():
    with pytest.raises(SimulationError):
        SeedSpec(base_seed=-1)
    with pytest.raises(SimulationError):
        SeedSpec(base_seed=1, stream_id=2**40)


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
    seed = SeedSpec(base_seed=31, stream_id=4)
    full = simulate_panel(model, T, seed)
    sub = simulate_panel(model, T, seed, degrees=DegreeRange(2, 4))
    lo = model.degrees.column_offset(2)
    hi = model.degrees.column_offset(4) + 9
    assert sub.degrees == DegreeRange(2, 4)
    assert np.array_equal(sub.data, full.data[:, lo:hi])


def test_degree_subrange_outside_model_raises():
    model = example_model(1, 1, 4)
    seed = SeedSpec(base_seed=31)
    for degrees in (DegreeRange(0, 2), DegreeRange(3, 5), DegreeRange(6, 7)):
        with pytest.raises(SimulationError):
            simulate_panel(model, 64, seed, degrees=degrees)


def test_orders_within_degree_are_distinct(small_model):
    panel = simulate_panel(small_model, 256, SeedSpec(base_seed=2))
    assert not np.array_equal(panel.column(1, 1), panel.column(1, 2))


def test_white_noise_panel_moments(white_noise_model):
    panel = simulate_panel(white_noise_model, 4096, SeedSpec(base_seed=77))
    var = panel.data.var(axis=0)
    np.testing.assert_allclose(var, 1.0, rtol=0.1)
    assert abs(panel.data.mean()) < 0.05


def test_panel_validation(small_model):
    with pytest.raises(SimulationError):
        simulate_panel(small_model, 1, SeedSpec(base_seed=1))
    with pytest.raises(SimulationError):
        CoefficientPanel(T=4, degrees=DegreeRange(1, 1), data=np.zeros((4, 2)))
    with pytest.raises(SimulationError):
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
            x = simulate_panel(model, T, seed).column(1, 1)
            d = np.fft.rfft(x)
            acc[k] += float(np.sum(np.abs(d[1:8]) ** 2))
    assert acc[1] > 5.0 * acc[0]


@pytest.mark.parametrize("layout", ["long", "wide"])
def test_panel_csv_round_trip(tmp_path, small_model, layout):
    panel = simulate_panel(small_model, 32, SeedSpec(base_seed=123))
    path = tmp_path / f"panel_{layout}.csv"
    write_panel_csv(path, panel, layout=layout)
    back = read_panel_csv(path, small_model.degrees)
    np.testing.assert_array_equal(back.data, panel.data)
    assert back.T == panel.T


def test_panel_csv_bad_layout(tmp_path, small_model):
    panel = simulate_panel(small_model, 8, SeedSpec(base_seed=1))
    with pytest.raises(SimulationError):
        write_panel_csv(tmp_path / "x.csv", panel, layout="diagonal")


def test_panel_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(SimulationError):
        read_panel_csv(path, DegreeRange(1, 1))


def _long_csv_lines(tmp_path, small_model) -> list:
    path = tmp_path / "long.csv"
    write_panel_csv(path, simulate_panel(small_model, 4, SeedSpec(base_seed=5)), layout="long")
    return path.read_text().splitlines(keepends=True)


def test_panel_csv_long_missing_cell(tmp_path, small_model):
    lines = _long_csv_lines(tmp_path, small_model)
    path = tmp_path / "missing.csv"
    path.write_text("".join(lines[:5] + lines[6:]))  # drops t=0, (n, j)=(2, 2)
    with pytest.raises(SimulationError, match=r"0 values for t=0, \(n, j\)=\(2, 2\)"):
        read_panel_csv(path, small_model.degrees)


def test_panel_csv_long_duplicate_cell(tmp_path, small_model):
    lines = _long_csv_lines(tmp_path, small_model)
    path = tmp_path / "duplicate.csv"
    path.write_text("".join(lines + [lines[-1]]))
    with pytest.raises(SimulationError, match=r"2 values for t=3, \(n, j\)=\(2, 5\)"):
        read_panel_csv(path, small_model.degrees)


@pytest.mark.parametrize(
    "text, message",
    [
        ("t,n,j,value\n0,5,1,0.1\n", r"t=0, \(n, j\)=\(5, 1\)"),
        ("t,n,j,value\n-1,1,0,0.1\n", "negative time index -1"),
        ("t,n,j,value\n", "empty"),
    ],
    ids=["degree-outside-range", "negative-t-before-bad-j", "header-only"],
)
def test_panel_csv_long_malformed_cell(tmp_path, text, message):
    path = tmp_path / "malformed.csv"
    path.write_text(text)
    with pytest.raises(SimulationError, match=message):
        read_panel_csv(path, DegreeRange(1, 2))


def test_panel_csv_wide_header_must_match_degrees(tmp_path, small_model):
    path = tmp_path / "wide.csv"
    write_panel_csv(path, simulate_panel(small_model, 4, SeedSpec(base_seed=5)), layout="wide")
    with pytest.raises(SimulationError, match="header"):
        read_panel_csv(path, DegreeRange(2, 3))
    header, *rows = path.read_text().splitlines(keepends=True)
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("".join([header.replace("a_1_1,a_1_2", "a_1_2,a_1_1")] + rows))
    with pytest.raises(SimulationError, match="header"):
        read_panel_csv(swapped, small_model.degrees)


def test_column_accessor(small_model):
    panel = simulate_panel(small_model, 16, SeedSpec(base_seed=42))
    col = small_model.degrees.column(2, 3)
    np.testing.assert_array_equal(panel.column(2, 3), panel.data[:, col])
