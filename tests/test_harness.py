import argparse
import csv
import json
import math
import warnings

import numpy as np
import pytest
import scipy
from scipy import stats
from conftest import table_values

from spherelrd import SpherelrdError
from spherelrd.harmonics import DegreeRange
from spherelrd.models import build_spharma, example_model, reference_spharma11
from spherelrd.harness import (
    ExperimentConfig,
    McTable,
    _N_CHUNKS,
    _chunks,
    _ks_distance,
    run_bandwidth_sweep,
    run_consistency,
    run_distribution,
    run_divergence,
    run_power,
    run_size,
)
from spherelrd.lrdtest import _half_support, bandwidth, leading_columns, null_moments
from spherelrd.simulate import SeedSpec, simulate_panel
from spherelrd.spectral import fdft_panel


def _config(model, **kw):
    defaults = dict(T_values=(256,), R=20, seed=321)
    defaults.update(kw)
    return ExperimentConfig(model=model, **defaults)


def test_thread_count_resolution(small_model, monkeypatch):
    # the worker count is the config's alone: 1 unless set, never read from
    # the environment, and checked when the config is built
    monkeypatch.setenv("SPHARMA_LRD_THREADS", "5")
    assert _config(small_model).threads == 1
    assert _config(small_model, threads=3).threads == 3
    with pytest.raises(SpherelrdError, match="thread count must be >= 1, got 0"):
        _config(small_model, threads=0)
    # a run is cut into at most _N_CHUNKS chunks, one per worker
    assert _config(small_model, threads=_N_CHUNKS).threads == _N_CHUNKS == 4
    with pytest.raises(SpherelrdError, match="thread count must be <= 4, got 5"):
        _config(small_model, threads=_N_CHUNKS + 1)


def test_config_validation(small_model):
    with pytest.raises(SpherelrdError, match="R must be >= 1"):
        ExperimentConfig(model=small_model, T_values=(256,), R=0)
    # the level is checked where it is read, before any replication
    with pytest.raises(SpherelrdError, match="level"):
        run_size(ExperimentConfig(model=small_model, T_values=(256,), level=1.5))
    with pytest.raises(SpherelrdError, match="'T' lists no value"):
        ExperimentConfig(model=small_model, T_values=())
    with pytest.raises(SpherelrdError, match="thread count"):
        ExperimentConfig(model=small_model, T_values=(256,), threads=0)
    with pytest.warns(UserWarning, match="below 64") as record:
        ExperimentConfig(model=small_model, T_values=(50,))
    # the warning names the line that built the config
    assert record[0].filename == __file__


def test_config_integer_fields_are_checked_where_they_live(small_model):
    # a library caller's fractional or boolean count fails naming the config
    # key, as the same value in a config document does
    with pytest.raises(SpherelrdError, match=r"'T' must be an integer, got 100\.7"):
        ExperimentConfig(reference_spharma11(1, 8), T_values=(100.7, 128.2), R=2.5, n_directions=2.5)
    for field, key, bad in (("T_values", "T", (256, True)), ("R", "R", 2.5),
                            ("n_directions", "directions", 2.5), ("seed", "seed", True),
                            ("threads", "threads", 1.5), ("R", "R", "3")):
        with pytest.raises(SpherelrdError, match=f"{key!r} must be an integer"):
            _config(small_model, **{field: bad})
    # NumPy integers and integral floats become ints
    config = _config(small_model, T_values=(np.int64(256), 300.0), R=np.int32(4),
                     n_directions=np.uint8(3), seed=np.int64(5), threads=2.0)
    assert (config.T_values, config.R, config.n_directions, config.seed, config.threads) == (
        (256, 300), 4, 3, 5, 2)
    assert {type(v) for v in (*config.T_values, config.R, config.n_directions, config.seed,
                              config.threads)} == {int}


def test_config_rejects_directions_outside_available_pairs(small_model, monkeypatch):
    # degrees 1..2 hold 3 + 5 = 8 diagonal pairs; the count is checked where
    # it is read, before any replication runs
    from spherelrd import harness

    def no_replications(*args, **kwargs):
        raise AssertionError("a replication ran")

    for bad in (0, -1, 9):
        with pytest.raises(SpherelrdError, match=r"directions must lie in \[1, 8\] for degrees 1..2"):
            leading_columns(small_model.degrees, bad)
        with monkeypatch.context() as m:
            m.setattr(harness, "simulate_panel", no_replications)
            m.setattr(harness, "support_entries", no_replications)
            with pytest.raises(SpherelrdError, match="directions"):
                run_size(ExperimentConfig(model=small_model, T_values=(256,), n_directions=bad))
    for good in (1, 8):
        assert len(leading_columns(small_model.degrees, good)) == good
        table = run_size(_config(small_model, R=2, n_directions=good))
        assert len(table.rows) == good


def test_null_model_resolution(small_model, example1_model):
    assert _config(small_model).null_model() is small_model
    calib = _config(example1_model).null_model()
    assert calib.alpha.is_null


def test_chunks_cover_range():
    for R in (1, 3, 17, 100):
        chunks = _chunks(R)
        flat = [i for c in chunks for i in c]
        assert flat == list(range(R))
        assert len(chunks) <= 4


def test_one_pool_per_experiment(small_model, monkeypatch):
    from spherelrd import harness

    pools = []

    class CountedPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
    tab = run_size(_config(small_model, T_values=(128, 256), R=8, threads=2))
    assert len(table_values(tab, "direction_")) == 16
    assert len(pools) == 1


def test_mc_table_roundtrip(tmp_path):
    # the CLI writes a table's rows as CSV, floats in .10g, and its manifest
    # as indented JSON
    from spherelrd.cli import _emit_table

    tab = McTable("demo", manifest={"config_hash": "abc"})
    tab.add(100, 10, 0.25, "rate", 0.5, 0.05)
    assert tab.rows[0]["value"] == 0.5
    _emit_table(tab, argparse.Namespace(out=str(tmp_path)), "demo")
    with open(tmp_path / "demo.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows == [list(McTable.COLUMNS), ["demo", "100", "10", "0.25", "rate", "0.5", "0.05"]]
    assert (tmp_path / "demo_manifest.json").read_text() == json.dumps(tab.manifest, indent=2)


def test_run_size_requires_null(example1_model):
    with pytest.raises(SpherelrdError, match=r"run_size requires a short-memory \(null\) model"):
        run_size(_config(example1_model))


def test_run_size_small(small_model):
    tab = run_size(_config(small_model, R=40))
    rates = table_values(tab, "direction_")
    assert len(rates) == 8
    assert all(0.0 <= r <= 0.25 for r in rates)
    assert tab.manifest["config_hash"]


def test_run_size_thread_invariance(small_model):
    t1 = run_size(_config(small_model, R=12, threads=1))
    t2 = run_size(_config(small_model, R=12, threads=2))
    assert t1.rows == t2.rows


def test_run_size_single_replication(small_model):
    tab = run_size(_config(small_model, R=1))
    assert set(table_values(tab, "direction_")) <= {0.0, 1.0}


def test_extreme_level_always_rejects(small_model):
    tab = run_size(_config(small_model, R=15, level=0.999))
    assert min(table_values(tab, "direction_")) >= 0.8


def test_run_power_warns_on_null(small_model):
    with pytest.warns(UserWarning, match="reduces to run_size"):
        run_power(_config(small_model, R=2))


def test_run_power_detects_long_memory():
    model = example_model(1, 1, 2)
    tab = run_power(_config(model, R=25))
    assert min(table_values(tab, "direction_")) >= 0.8


def test_run_distribution_small(small_model):
    tab = run_distribution(_config(small_model, T_values=(512,), R=60))
    for n in (1, 2):
        ks = table_values(tab, f"ks_n{n}")
        var = table_values(tab, f"var_n{n}")
        assert len(ks) == 1 and 0.0 <= ks[0] < 0.2
        assert 0.5 < var[0] < 1.5
        hist = table_values(tab, f"hist_n{n}_bin")
        assert len(hist) == 41
        # histogram integrates to ~1 (density over [-5, 5] bins)
        assert sum(h * 10.0 / 41 for h in hist) == pytest.approx(1.0, abs=0.05)


def test_run_distribution_bins_zero_when_no_value_in_range():
    # under the alternative every pooled degree-1 entry lies above 5: its 41
    # bins are zero, not 0 / 0, and no warning is raised
    config = _config(example_model(1, 1, 2), T_values=(128,), R=2, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tab = run_distribution(config)
    assert table_values(tab, "ks_n1") == [1.0]
    assert table_values(tab, "hist_n1_bin") == [0.0] * 41
    hist = table_values(tab, "hist_n2_bin")
    assert 0.0 < sum(h * 10.0 / 41 for h in hist) < 1.0


@pytest.mark.parametrize(
    "sample",
    [
        np.random.default_rng(3).standard_normal(500),
        np.random.default_rng(4).standard_normal(200) + 0.3,
        np.random.default_rng(5).standard_normal(200) - 0.3,
        np.round(np.random.default_rng(6).standard_normal(300), 1),  # ties
        np.array([0.7, 0.7, 0.7, -0.2, -0.2]),
        np.array([0.3]),
        np.array([0.0]),
        np.array([-1.5]),
        np.array([6.0, 7.0, 8.0]),
    ],
    ids=["normal", "shifted-up", "shifted-down", "rounded", "tied", "n1", "n1-zero", "n1-neg", "outside"],
)
def test_ks_distance_is_scipy_kstest_statistic(sample):
    assert _ks_distance(sample) == stats.kstest(sample, "norm").statistic


def test_run_distribution_reads_only_the_diagonal(small_model, monkeypatch):
    # mc-dist forms no statistic matrix, and its z rows are the standardized
    # diagonal of the one statistic_matrix would form.
    from spherelrd import harness
    from spherelrd.lrdtest import null_moments, statistic_matrix

    calls = []
    rows = []
    reduce = harness._column_entries

    def recording(dft, row, *args):
        reduce(dft, row, *args)
        rows.append((dft, row.copy()))

    monkeypatch.setattr(harness, "statistic_matrix", lambda *a: calls.append(a))
    monkeypatch.setattr(harness, "_column_entries", recording)
    config = _config(small_model, T_values=(512,), R=6, threads=1)
    run_distribution(config)
    assert calls == []
    assert len(rows) == 6
    B = bandwidth(512, config.beta)
    mean, sd = null_moments(small_model, 512, B)
    degree = [n - 1 for n, _ in small_model.degrees.index_list()]
    means, sds = mean[degree], sd[degree]
    for dft, row in rows:
        z = (row - means) / sds
        want = (np.diag(statistic_matrix(dft, B)) - means) / sds
        np.testing.assert_allclose(z, want, rtol=0, atol=1e-12)


def test_run_divergence_short_memory_norms(small_model):
    tab = run_divergence(_config(small_model, T_values=(256, 1024), R=1))
    stat = table_values(tab, "hs_norm_statistic")
    grid = table_values(tab, "hs_norm_gridsum")
    assert len(stat) == 2 and len(grid) == 2
    # under short memory the statistic-scale norm is T-stable
    assert max(stat) / min(stat) < 20.0
    # the grid-sum scale inflates by ~T^2
    assert grid[1] / grid[0] > 4.0


def test_run_divergence_norm_scales(small_model):
    # the statistic-scale column is the Frobenius norm of the statistic
    # matrix; the grid-sum column multiplies it by T^2 / (2 pi)^4
    from spherelrd.lrdtest import statistic_matrix

    config = _config(small_model, T_values=(256, 1024), R=1)
    tab = run_divergence(config)
    for T in config.T_values:
        stat = table_values(tab, "hs_norm_statistic", T=T)[0]
        grid = table_values(tab, "hs_norm_gridsum", T=T)[0]
        assert grid / stat == pytest.approx(T**2 / (2 * np.pi) ** 4, rel=1e-12)
        panel = simulate_panel(small_model, T, SeedSpec(base_seed=config.seed, stream_id=0))
        S = statistic_matrix(fdft_panel(panel), bandwidth(T, config.beta))
        assert stat == pytest.approx(np.linalg.norm(S), rel=1e-12)


def test_run_divergence_growth_under_alternative():
    model = example_model(1, 1, 2)
    tab = run_divergence(_config(model, T_values=(256, 1024), R=1))
    grid = table_values(tab, "hs_norm_gridsum")
    assert grid[1] > 10.0 * grid[0]


def test_run_divergence_averaged(small_model):
    tab = run_divergence(_config(small_model, T_values=(256,), R=6))
    assert [r["R"] for r in tab.rows] == [6, 6]


def test_run_bandwidth_sweep_rows_and_manifest(small_model):
    config = _config(small_model, T_values=(1000,), betas=(0.3, 0.6))
    tab = run_bandwidth_sweep(config)
    vals = table_values(tab, "rescaled_norm")
    assert len(vals) == 2
    assert all(v > 0 for v in vals)
    assert all(r["R"] == 0 for r in tab.rows)
    # the swept betas are part of what ran, so the hash covers them
    assert tab.manifest["betas"] == [0.3, 0.6]
    other = run_bandwidth_sweep(_config(small_model, T_values=(1000,), betas=(0.3, 0.7))).manifest
    assert other["config_hash"] != tab.manifest["config_hash"]


def test_run_consistency_requires_replications(small_model):
    with pytest.raises(SpherelrdError, match="variance estimation requires R >= 2"):
        run_consistency(_config(small_model, R=1))


def test_run_consistency_slope_negative(small_model):
    tab = run_consistency(_config(small_model, T_values=(256, 1024), R=10))
    var_rows = table_values(tab, "integrated_variance")
    assert len(var_rows) == 2 and var_rows[1] < var_rows[0]
    slope = table_values(tab, "loglog_slope")[0]
    assert slope < -0.5


def test_manifest_content(small_model):
    tab = run_size(_config(small_model, R=2))
    man = tab.manifest
    assert man["experiment"] == "size"
    assert man["T_values"] == [256]
    assert man["degrees"] == [1, 2]
    assert len(man["config_hash"]) == 16
    assert "version" in man


def test_a_T_past_the_sampler_reads_panels(monkeypatch):
    # a T whose g-support is wider than the sampler serves is simulated; the
    # other T keeps the entries it draws in a run of its own
    from spherelrd import harness, sampler

    model = example_model(1, 1, 2)
    cols = leading_columns(model.degrees, 3)
    monkeypatch.setattr(sampler, "MAX_ORDINATES", len(_half_support(256, bandwidth(256, 0.25))[0]) - 1)
    lengths = []

    def counting(model, T, *args, **kwargs):
        lengths.append(T)
        return simulate_panel(model, T, *args, **kwargs)

    monkeypatch.setattr(harness, "simulate_panel", counting)
    both = harness._standardized_entries(_config(model, T_values=(128, 256)), cols, 4, sampled=True)
    assert lengths == [256] * 4
    [(alone, _)] = harness._standardized_entries(_config(model, T_values=(128,)), cols, 4, sampled=True)
    np.testing.assert_array_equal(both[0][0], alone)
    [(panels, _)] = harness._standardized_entries(_config(model, T_values=(256,)), cols, 4)
    np.testing.assert_array_equal(both[1][0], panels)


def test_config_hash_covers_rng_descriptor_not_versions(small_model, monkeypatch):
    from spherelrd import harness, sampler, simulate

    config = _config(small_model, R=1)
    base = harness._config_manifest(config, "size")
    # size and power draw from the support sampler, the others from panels
    # past the sampler's cap on V they read panels, and the descriptor says so
    assert base["rng"] == sampler.STREAMS == (
        "sfc64-seedsequence-per-T/support-cholesky if V <= 512, "
        "else sfc64-seedsequence/stationary-start"
    )
    assert f"V <= {sampler.MAX_ORDINATES}," in sampler.STREAMS
    assert sampler.STREAMS.endswith(f", else {simulate.STREAMS}")
    assert harness._config_manifest(config, "power")["rng"] == sampler.STREAMS
    for name in ("distribution", "divergence", "consistency"):
        assert harness._config_manifest(config, name)["rng"] == simulate.STREAMS
    assert simulate.STREAMS == "sfc64-seedsequence/stationary-start"
    assert base["numpy"] == np.__version__
    assert base["scipy"] == scipy.__version__
    monkeypatch.setattr(np, "__version__", "0.0.0")
    monkeypatch.setattr(scipy, "__version__", "0.0.0")
    bumped = harness._config_manifest(config, "size")
    assert (bumped["numpy"], bumped["scipy"]) == ("0.0.0", "0.0.0")
    assert bumped["config_hash"] == base["config_hash"]
    size = harness.EXPERIMENTS["size"]
    monkeypatch.setitem(harness.EXPERIMENTS, "size", size._replace(streams="philox/burn-in-1000"))
    assert harness._config_manifest(config, "size")["config_hash"] != base["config_hash"]


def test_entries_draw_and_calibrate_the_degrees_their_columns_touch(monkeypatch):
    # 8 directions of degrees 1-8 lie in degrees 1-2: the panel, the support
    # roots and the null moments are all those of the model restricted to them
    from spherelrd import harness, sampler

    model = example_model(1)
    cols = leading_columns(model.degrees, 8)
    seen = {"simulate_panel": [], "support_plan": [], "null_moments": []}
    for name in seen:
        def recording(m, *args, _name=name, _fn=getattr(harness, name)):
            seen[_name].append(m.degrees)
            return _fn(m, *args)

        monkeypatch.setattr(harness, name, recording)
    T = 1024  # one T past the cap, one below it
    monkeypatch.setattr(sampler, "MAX_ORDINATES", len(_half_support(T, bandwidth(T, 0.25))[0]) - 1)
    config = _config(model, T_values=(128, T))
    entries = harness._standardized_entries(config, cols, 2, sampled=True)
    assert seen == {"simulate_panel": [DegreeRange(1, 2)] * 2,
                    "support_plan": [DegreeRange(1, 2)] * 2,
                    "null_moments": [DegreeRange(1, 2)] * 2}
    full = config.null_model()
    for T, (s, z) in zip(config.T_values, entries):
        mean, sd = null_moments(full, T, bandwidth(T, 0.25))
        rows = [n - 1 for n, _ in cols]
        np.testing.assert_array_equal(z, (s - mean[rows]) / sd[rows])


def test_config_hash_covers_arma_coefficients():
    degrees = DegreeRange(1, 2)
    hashes = {
        run_size(_config(build_spharma(degrees, [[phi], [0.2]], []), R=1)).manifest["config_hash"]
        for phi in (0.3, 0.4)
    }
    assert len(hashes) == 2


def test_same_seed_same_table(small_model):
    a = run_size(_config(small_model, R=10, seed=77))
    b = run_size(_config(small_model, R=10, seed=77))
    assert a.rows == b.rows
    c = run_size(_config(small_model, R=10, seed=78))
    assert a.rows != c.rows


def test_each_replication_simulates_once_at_the_longest_T(monkeypatch):
    # k sample lengths and R replications draw R panels, all at the longest T;
    # every shorter T reads the first rows of its replication's panel
    from spherelrd import harness

    lengths = []

    def counting(model, T, *args, **kwargs):
        lengths.append(T)
        return simulate_panel(model, T, *args, **kwargs)

    monkeypatch.setattr(harness, "simulate_panel", counting)
    run_distribution(_config(reference_spharma11(1, 2), T_values=(128, 512, 256), R=7))
    assert lengths == [512] * 7
    lengths.clear()
    model = example_model(1, 1, 2)
    run_consistency(_config(model, T_values=(128, 256), R=5))
    assert lengths == [256] * 5


def test_size_and_power_simulate_no_panel(monkeypatch):
    # the support sampler draws every replication of size and power: no
    # panel is simulated, and each (replication, degree, T) draws once
    from spherelrd import harness, simulate

    def no_panel(*args, **kwargs):
        raise AssertionError("a panel was simulated")

    keys = []
    stream = simulate.SeedSpec.support_generator

    def counting(spec, degree, T):
        keys.append((spec.stream_id, degree, T))
        return stream(spec, degree, T)

    monkeypatch.setattr(harness, "simulate_panel", no_panel)
    monkeypatch.setattr(simulate.SeedSpec, "support_generator", counting)
    run_size(_config(reference_spharma11(1, 2), T_values=(128, 256), R=3, n_directions=4))
    assert keys == [(r, n, T) for r in range(3) for T in (128, 256) for n in (1, 2)]
    keys.clear()
    run_power(_config(example_model(1, 1, 2), T_values=(512,), R=2, n_directions=3))
    assert keys == [(0, 1, 512), (1, 1, 512)]


def test_each_replication_checks_its_panel_once(monkeypatch):
    # simulate_panel builds (and checks) one panel per replication; every T
    # takes the DFT of its prefix without building and checking it again
    from spherelrd.simulate import CoefficientPanel

    check = CoefficientPanel.__post_init__
    built = []

    def counting(self):
        built.append(self.T)
        check(self)

    monkeypatch.setattr(CoefficientPanel, "__post_init__", counting)
    run_consistency(_config(example_model(1, 1, 2), T_values=(128, 512, 256), R=3))
    assert built == [512] * 3


@pytest.mark.parametrize("threads", [1, 2])
def test_two_T_run_matches_one_T_runs(threads):
    model = example_model(1, 1, 2)
    both = _config(model, T_values=(128, 512), R=8, threads=threads)
    power = run_power(both)
    consistency = run_consistency(both)
    for T in both.T_values:
        one = _config(model, T_values=(T,), R=8, threads=threads)
        assert table_values(power, "direction_", T=T) == table_values(run_power(one), "direction_")
        want = table_values(run_consistency(one), "integrated_variance")
        got = table_values(consistency, "integrated_variance", T=T)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
