import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spherelrd import SpherelrdError
from spherelrd.cli import _COMMANDS, main
from spherelrd.config import experiment_from_config, load_config, model_from_config
from spherelrd.harmonics import DegreeRange
from spherelrd.models import example_alpha_profile
from spherelrd.simulate import CoefficientPanel, SeedSpec, simulate_panel

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_DOC = {
    "model": {"generator": "example1", "degrees": [1, 2]},
    "experiment": {"T": [128], "R": 3, "beta": 0.25, "seed": 99},
}

WN_DOC = {
    "model": {"degrees": [1, 2], "phi": [], "psi": [], "innov": 1.0},
    "experiment": {"T": [128], "R": 4, "seed": 7},
}


# --- config loading ---------------------------------------------------------

SHIPPED_CONFIGS = sorted(
    os.path.splitext(f)[0] for f in os.listdir(CONFIG_DIR) if f.endswith(".json")
)
PAPER_CONFIGS = ("paper_h0", "example1", "example2", "example3", "example4")
# The command each shipped config is written for, by the first word of its name.
CONFIG_COMMANDS = {
    "paper": "mc-size", "example1": "mc-power", "example2": "mc-power",
    "example3": "mc-power", "example4": "mc-power", "power": "mc-power",
    "distribution": "mc-dist", "divergence": "mc-divergence",
    "consistency": "mc-consistency", "sweep": "mc-sweep",
}


def _keys(command: str) -> tuple:
    return _COMMANDS[command].keys


@pytest.mark.filterwarnings("ignore:sample length")
@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_shipped_configs_load(name):
    doc = load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
    model = model_from_config(doc)
    config = experiment_from_config(doc, _keys(CONFIG_COMMANDS[name.split("_")[0]]))
    assert model.degrees.n_max == 8
    if name not in PAPER_CONFIGS:
        return
    assert config.T_values == (1000,)
    if name == "paper_h0":
        assert model.alpha.is_null
    else:
        ex = int(name[-1])
        np.testing.assert_allclose(
            model.alpha.values, example_alpha_profile(ex).values
        )


def test_explicit_model_from_config():
    doc = {
        "model": {
            "degrees": [1, 2],
            "phi": [[0.3], [0.2]],
            "psi": [[0.1], [0.1]],
            "innov": 2.0,
            "alpha": {"values": [0.1, 0.2]},
        }
    }
    model = model_from_config(doc)
    assert model.p == 1 and model.q == 1
    np.testing.assert_allclose(model.alpha.values, [0.1, 0.2])
    np.testing.assert_allclose(model.innov, 2.0)


@pytest.mark.parametrize("example", [1, 2, 3, 4])
def test_alpha_section_on_reference_is_the_example_model(example):
    # the section an example's profile is written as, on the reference
    # generator, builds that example's model bit for bit
    sections = {
        1: {"endpoints": [0.4733, 0.2678]},
        2: {"endpoints": [0.2550, 0.3327]},
        3: {"peak": [0.2753, 4, 0.4]},
        4: {"peak": [0.3041, 7, 0.9982], "extended": True},
    }
    doc = {"model": {"generator": "reference", "alpha": sections[example]}}
    model = model_from_config(doc)
    expected = model_from_config({"model": {"generator": f"example{example}"}})
    assert model.alpha.values.tobytes() == example_alpha_profile(example).values.tobytes()
    assert model.alpha.extended == expected.alpha.extended == (example == 4)
    for field in ("phi", "psi", "innov"):
        assert getattr(model, field).tobytes() == getattr(expected, field).tobytes()


def test_generator_rejects_explicit_fields():
    with pytest.raises(SpherelrdError, match=r"generator 'reference' does not accept explicit fields \['phi'\]"):
        model_from_config({"model": {"generator": "reference", "phi": [[0.1]]}})


def test_reference_generator_accepts_alpha_override():
    doc = {
        "model": {
            "generator": "reference",
            "degrees": [1, 2],
            "alpha": {"values": 0.3},
        }
    }
    model = model_from_config(doc)
    np.testing.assert_allclose(model.alpha.values, 0.3)


def test_config_errors():
    with pytest.raises(SpherelrdError, match="config is missing a 'model' object"):
        model_from_config({})
    with pytest.raises(SpherelrdError, match="unknown model generator 'example9'"):
        model_from_config({"model": {"generator": "example9"}})
    with pytest.raises(SpherelrdError, match="invalid model config: AR polynomial for degree 1"):
        model_from_config({"model": {"degrees": [1, 1], "phi": [[1.5]]}})
    with pytest.raises(SpherelrdError, match="broadcast"):
        model_from_config({"model": {"degrees": [1, 2], "innov": [1.0, 2.0, 3.0]}})
    with pytest.raises(SpherelrdError, match="reshape"):
        model_from_config({"model": {"degrees": [1, 2], "phi": [[0.1], [0.2], [0.3]]}})
    # four rows for two degrees are not an AR(2) model
    with pytest.raises(SpherelrdError, match="reshape"):
        model_from_config({"model": {"degrees": [1, 2], "phi": [[0.1], [0.2], [0.3], [0.4]]}})
    with pytest.raises(SpherelrdError, match="alpha"):
        model_from_config({"model": {"generator": "example1", "alpha": {"values": 0.1}}})
    with pytest.raises(SpherelrdError, match="cannot read config /nonexistent/config.json"):
        load_config("/nonexistent/config.json")
    with pytest.raises(SpherelrdError, match="'experiment' must be a JSON object"):
        experiment_from_config(
            {"model": {"generator": "reference"}, "experiment": []}, _keys("mc-size")
        )
    with pytest.raises(SpherelrdError, match="invalid experiment config: R must be >= 1"):
        experiment_from_config(
            {"model": {"generator": "reference"}, "experiment": {"R": 0}}, _keys("mc-size")
        )


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SpherelrdError, match="cannot read config"):
        load_config(path)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(SpherelrdError, match="config document must be a JSON object"):
        load_config(arr)


def test_experiment_overrides_win(tmp_path):
    config = experiment_from_config(SMALL_DOC, _keys("mc-power"), seed=123, T=64, threads=2)
    assert config.seed == 123
    assert config.T_values == (64,)
    assert config.threads == 2
    base = experiment_from_config(SMALL_DOC, _keys("mc-power"))
    assert base.seed == 99 and base.T_values == (128,)


def test_sweep_helpers():
    # the swept exponents are an experiment key like any other, with the
    # default in ExperimentConfig
    doc = {"model": {"generator": "reference"}}
    assert experiment_from_config(doc, _keys("mc-sweep")).betas == (0.2, 0.55, 0.9)
    doc["experiment"] = {"betas": [0.3]}
    assert experiment_from_config(doc, _keys("mc-sweep")).betas == (0.3,)


# --- CLI --------------------------------------------------------------------

def test_cli_validate_model(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_DOC)
    assert main(["validate-model", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("degree 1:") and lines[0].endswith("ok")


def test_cli_simulate_csv(tmp_path):
    cfg = _write_config(tmp_path, SMALL_DOC)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "panel.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "a_1_1", "a_1_2", "a_1_3", "a_2_1", "a_2_2", "a_2_3", "a_2_4", "a_2_5"]
    assert len(rows) == 1 + 128
    # .17g holds every float64 of the panel exactly
    panel = simulate_panel(model_from_config(SMALL_DOC), 128, SeedSpec(base_seed=99))
    np.testing.assert_array_equal(np.array(rows[1:], dtype=float)[:, 1:], panel.data)


def test_cli_simulate_deterministic(tmp_path):
    cfg = _write_config(tmp_path, SMALL_DOC)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "panel.csv").read_bytes() == (out2 / "panel.csv").read_bytes()
    out3 = tmp_path / "c"
    assert main(["simulate", "--config", cfg, "--out", str(out3), "--seed", "5"]) == 0
    assert (out1 / "panel.csv").read_bytes() != (out3 / "panel.csv").read_bytes()


def test_cli_spectrum(tmp_path):
    cfg = _write_config(tmp_path, WN_DOC)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "spectrum.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "n", "j", "f_hat"]
    assert len(rows) == 1 + 65 * 8
    # every omega lists each basis column once, in column order
    index = [[str(n), str(j)] for n, j in DegreeRange(1, 2).index_list()]
    assert [row[1:3] for row in rows[1:]] == index * 65
    assert all(float(row[3]) >= 0.0 for row in rows[1:])


def test_cli_spectrum_checks_beta_before_it_simulates(tmp_path, monkeypatch, capsys):
    # a beta outside (0, 1) fails before the panel is drawn, as in mc-dist
    from spherelrd import cli

    def no_panel(*args, **kwargs):
        raise AssertionError("a panel was drawn")

    monkeypatch.setattr(cli, "simulate_panel", no_panel)
    doc = {**WN_DOC, "experiment": {"T": [200000], "beta": 1.5}}
    out = tmp_path / "out"
    assert main(["spectrum", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: beta must lie in (0, 1), got 1.5\n"
    assert not out.exists()


def test_cli_test_report(tmp_path):
    cfg = _write_config(tmp_path, SMALL_DOC)
    out = tmp_path / "out"
    assert main(["test", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "test_report.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "j", "statistic", "z", "p", "reject"]
    assert len(rows) == 1 + 8


def test_cli_test_report_honours_directions(tmp_path):
    doc = dict(SMALL_DOC)
    doc["experiment"] = dict(SMALL_DOC["experiment"], directions=5)
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["test", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "test_report.csv") as fh:
        cols = [tuple(row[:2]) for row in list(csv.reader(fh))[1:]]
    assert cols == [("1", "1"), ("1", "2"), ("1", "3"), ("2", "1"), ("2", "2")]


def test_cli_rejects_too_many_directions_before_running(tmp_path, monkeypatch):
    from spherelrd import harness

    def no_replications(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(harness, "simulate_panel", no_replications)
    monkeypatch.setattr(harness, "support_entries", no_replications)
    doc = {
        "model": {"generator": "example1", "degrees": [1, 8]},
        "experiment": {"T": [128], "R": 3, "seed": 99, "directions": 200},
    }
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["mc-power", "--config", cfg, "--out", str(out)]) == 1
    assert not (out / "power.csv").exists()


@pytest.mark.filterwarnings("ignore:sample length")
@pytest.mark.parametrize(
    "command, experiment",
    [
        pytest.param("mc-power", {}, id="mc-power"),
        pytest.param("mc-dist", {}, id="mc-dist"),
        pytest.param("mc-divergence", {}, id="mc-divergence"),
        # T = 1 has no bandwidth at all
        pytest.param("mc-consistency", {"T": [1000, 1]}, id="mc-consistency"),
    ],
)
def test_cli_empty_window_fails_before_any_replication(tmp_path, monkeypatch, command, experiment):
    # T = 16 with beta = 0.25 leaves no Fourier frequency inside the window
    from spherelrd import harness

    calls = []

    def counted(draw):
        def counting(*args, **kwargs):
            calls.append(args[1])
            return draw(*args, **kwargs)
        return counting

    # mc-power draws from the support sampler, the others simulate panels
    monkeypatch.setattr(harness, "simulate_panel", counted(harness.simulate_panel))
    monkeypatch.setattr(harness, "support_entries", counted(harness.support_entries))
    doc = {
        "model": {"generator": "example1", "degrees": [1, 2]},
        "experiment": {"T": [1000, 16], "R": 200, "beta": 0.25, "seed": 99, **experiment},
    }
    cfg = _write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert calls == []


def test_cli_mc_size(tmp_path):
    cfg = _write_config(tmp_path, WN_DOC)
    out = tmp_path / "out"
    assert main(["mc-size", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "size.csv").exists()
    manifest = json.loads((out / "size_manifest.json").read_text())
    assert manifest["experiment"] == "size"
    assert sorted(os.listdir(out)) == ["size.csv", "size_manifest.json"]


@pytest.mark.parametrize(
    "command, generator, alpha, degrees",
    [
        ("mc-power", "example1", None, [1, 2]),
        ("mc-size", "reference", None, [1, 2]),  # a null model is its own calibration
        ("mc-power", "reference", {"values": 0.2}, [1, 2]),
        # 8 directions lie in degrees 1-2: both models restricted to them
        ("mc-power", "example1", None, [1, 8]),
    ],
    # every case checks the model once; the ids' trailing numbers are historical
    ids=["mc-power-example1-None-2", "mc-size-reference-None-1", "mc-power-reference-alpha2-2",
         "mc-power-example1-degrees-1-8-4"],
)
def test_cli_run_validates_each_model_once(tmp_path, monkeypatch, command, generator, alpha,
                                           degrees):
    # the loaded model is checked once, by one batched _roots call for its AR
    # roots and one for its MA roots; its short-memory factor and their
    # restrictions to the degrees the columns touch check nothing.  The patch
    # is on models._roots: config imports build_spharma by name
    from spherelrd import models

    roots = models._roots
    calls = []

    def counting(coeffs):
        calls.append(coeffs)
        return roots(coeffs)

    monkeypatch.setattr(models, "_roots", counting)
    doc = {"model": {"generator": generator, "degrees": degrees},
           "experiment": {"T": [128, 256], "R": 2, "seed": 5}}
    if alpha is not None:
        doc["model"]["alpha"] = alpha
    cfg = _write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 2


def test_cli_mc_divergence_and_sweep(tmp_path):
    doc = dict(SMALL_DOC)
    doc["experiment"] = {"T": [128], "R": 1, "seed": 3, "betas": [0.3, 0.5]}
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["mc-divergence", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "divergence.csv").exists()
    assert main(["mc-sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "bandwidth_sweep.csv").exists()


def test_cli_mc_divergence_reads_R(tmp_path):
    from spherelrd.lrdtest import bandwidth, statistic_matrix
    from spherelrd.simulate import SeedSpec, simulate_panel
    from spherelrd.spectral import fdft_panel

    doc = dict(SMALL_DOC)
    doc["experiment"] = {"T": [128], "R": 5, "seed": 3}
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["mc-divergence", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "divergence.csv") as fh:
        rows = {row["key"]: row for row in csv.DictReader(fh)}
    assert {row["R"] for row in rows.values()} == {"5"}
    model = model_from_config(doc)
    B = bandwidth(128, experiment_from_config(doc, _keys("mc-divergence")).beta)
    norms = [
        np.linalg.norm(statistic_matrix(fdft_panel(simulate_panel(
            model, 128, SeedSpec(base_seed=3, stream_id=r))), B))
        for r in range(5)
    ]
    stat = float(rows["hs_norm_statistic"]["value"])
    grid = float(rows["hs_norm_gridsum"]["value"])
    assert stat == pytest.approx(np.median(norms), rel=1e-9)
    assert grid == pytest.approx(np.median(norms) * 128**2 / (2 * np.pi) ** 4, rel=1e-9)


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        pytest.param("mc-power", None, "mdoe", "single", id="top"),
        pytest.param("mc-power", "model", "alpah", 0.2, id="model"),
        pytest.param("mc-power", "alpha", "peek", [4, 0.4], id="alpha"),
        pytest.param("mc-power", "experiment", "betaa", 0.3, id="experiment"),
        # the divergence and sweep modes were removed: R says how many
        # replications a divergence reads, and the sweep has one method
        pytest.param("mc-divergence", "experiment", "mode", "single", id="mode-single"),
        pytest.param("mc-divergence", "experiment", "mode", "averaged", id="mode-averaged"),
        pytest.param("mc-sweep", "experiment", "mode", "expected", id="mode-expected"),
        # the alpha tail value was accepted and hashed but never read: a
        # constant 0 profile with tail 0.3 ran mc-power as the null model
        pytest.param("mc-power", "alpha", "tail", 0.3, id="tail"),
    ],
)
def test_cli_unknown_key_exits_at_load(tmp_path, monkeypatch, command, section, key, value):
    from spherelrd import harness

    def no_replications(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(harness, "simulate_panel", no_replications)
    monkeypatch.setattr(harness, "support_entries", no_replications)
    doc = {
        "model": {
            "generator": "reference", "degrees": [1, 2],
            "alpha": {"values": 0.0},
        },
        "experiment": {"T": [128], "R": 3, "seed": 99},
    }
    sections = {None: doc, "model": doc["model"], "alpha": doc["model"]["alpha"],
                "experiment": doc["experiment"]}
    sections[section][key] = value
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()
    with pytest.raises(SpherelrdError, match=repr(key)):
        load_config(cfg)


def test_load_config_rejects_non_object_section(tmp_path):
    cfg = _write_config(tmp_path, {"model": {"generator": "reference", "alpha": 0.2}})
    with pytest.raises(SpherelrdError, match="'alpha' must be a JSON object"):
        load_config(cfg)


@pytest.mark.parametrize("command", ["test", "simulate", "spectrum"])
def test_cli_single_panel_commands_take_one_T(tmp_path, command, capsys):
    doc = dict(SMALL_DOC)
    doc["experiment"] = dict(SMALL_DOC["experiment"], T=[128, 256])
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "--T" in capsys.readouterr().err
    assert not out.exists()
    assert main([command, "--config", cfg, "--out", str(out), "--T", "256"]) == 0


@pytest.mark.parametrize("command", ["mc-size", "mc-dist"])
def test_cli_rejects_more_threads_than_chunks(tmp_path, command, capsys):
    # a run is cut into at most four chunks, so a fifth worker would idle:
    # --threads 5 exits 1 before anything is written
    cfg = _write_config(tmp_path, WN_DOC)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "5"]) == 1
    assert "thread count must be <= 4, got 5" in capsys.readouterr().err
    assert not out.exists()
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "4"]) == 0


@pytest.mark.parametrize("command", ["test", "simulate", "mc-sweep", "mc-size"])
def test_cli_rejects_zero_threads(tmp_path, monkeypatch, command, capsys):
    # --threads 0 exits 1 before anything is written: a bad worker count for
    # a replicating command, an unknown flag for the others.  The flag is the
    # only worker-count knob: the environment variable it replaced is ignored.
    cfg = _write_config(tmp_path, WN_DOC)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "0"]) == 1
    err = capsys.readouterr().err
    assert ("thread count" in err) == (command == "mc-size")
    assert not out.exists()
    monkeypatch.setenv("SPHARMA_LRD_THREADS", "0")
    assert main([command, "--config", cfg, "--out", str(out)]) == 0


def test_cli_writes_only_under_out(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, SMALL_DOC)
    out = tmp_path / "only"
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert os.listdir(cwd) == []
    assert os.listdir(out) == ["panel.csv"]


def test_cli_error_exit_codes(tmp_path):
    assert main(["mc-size", "--config", "/no/such/file.json"]) == 1
    bad = _write_config(
        tmp_path, {"model": {"generator": "reference", "phi": [[0.1]]}}, "bad.json"
    )
    assert main(["mc-size", "--config", bad]) == 1
    # run_size on a long-memory model is a harness error, not a crash
    cfg = _write_config(tmp_path, SMALL_DOC)
    assert main(["mc-size", "--config", cfg]) == 1
    assert main(["not-a-command", "--config", cfg]) == 1
    assert main(["mc-size"]) == 1


def test_cli_package_error_from_any_module_exits_1(tmp_path, monkeypatch, capsys):
    # a column outside its degree fails in harmonics, a one-row panel in
    # spectral: both are package errors, exit 1, not runtime failures
    from spherelrd import cli

    cfg = _write_config(tmp_path, WN_DOC)
    monkeypatch.setattr(cli, "leading_columns", lambda degrees, count: [(1, 9)])
    assert main(["test", "--config", cfg, "--out", str(tmp_path / "test")]) == 1
    assert capsys.readouterr().err == "error: order index j=9 invalid for degree 1\n"
    monkeypatch.setattr(cli, "simulate_panel", lambda model, T, seed: CoefficientPanel(
        T=1, degrees=model.degrees, data=np.zeros((1, model.degrees.dim))))
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "spectrum")]) == 1
    assert capsys.readouterr().err == "error: need at least two time points\n"


def test_cli_other_failure_exits_2(tmp_path, capsys):
    # --out names a file, so the output directory cannot be made
    cfg = _write_config(tmp_path, WN_DOC)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["simulate", "--config", cfg, "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("runtime error: ")


def test_cli_prints_each_warning_as_one_line(tmp_path, capsys):
    # the message alone: no install path, line number or source line
    before = (list(warnings.filters), warnings.showwarning)
    paper = os.path.join(CONFIG_DIR, "paper_h0.json")
    assert main(["mc-power", "--config", paper, "--T", "128", "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().err == "warning: run_power on a null model reduces to run_size\n"
    doc = {"model": {"generator": "reference", "degrees": [1, 2]},
           "experiment": {"T": [50], "R": 2, "seed": 3}}
    assert main(["mc-size", "--config", _write_config(tmp_path, doc), "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err == (
        "warning: sample length T=50 below 64; asymptotic calibration is rough\n"
    )
    # the caller's filters and printer are back as they were
    assert (list(warnings.filters), warnings.showwarning) == before


def test_cli_consecutive_calls_in_one_process(tmp_path, capsys):
    # main builds its parser once per process: a second run writes the same
    # files, and a usage error after a run prints the same usage and exits 1
    cfg = _write_config(tmp_path, SMALL_DOC)
    usage = ["mc-power", "--config", cfg, "--seed", "1", "--bogus"]
    assert main(usage) == 1
    first_error = capsys.readouterr().err
    tables = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["mc-power", "--config", cfg, "--out", str(out)]) == 0
        tables.append({f: (out / f).read_bytes() for f in sorted(os.listdir(out))})
    assert list(tables[0]) == ["power.csv", "power_manifest.json"]
    assert tables[0] == tables[1]
    capsys.readouterr()
    assert main(usage) == 1
    assert capsys.readouterr().err == first_error
    assert first_error.startswith("usage: spherelrd mc-power [-h] --config CONFIG")


# --- every command takes only the flags it reads ------------------------------

# (command, flag) pairs that each command once accepted and ignored
IGNORED_FLAGS = [
    ("validate-model", ["--seed", "1"]),
    ("validate-model", ["--out", "OUT"]),
    ("validate-model", ["--threads", "2"]),
    ("validate-model", ["--format", "json"]),
    ("validate-model", ["--T", "256"]),
    ("mc-sweep", ["--seed", "1"]),
    ("mc-sweep", ["--threads", "2"]),
    ("spectrum", ["--format", "json"]),
    ("spectrum", ["--threads", "2"]),
    ("simulate", ["--threads", "2"]),
    ("test", ["--threads", "2"]),
    # --format json, once the JSON encoding of every output
    *((c, ["--format", "json"]) for c in (
        "simulate", "test", "mc-size", "mc-power", "mc-dist",
        "mc-divergence", "mc-sweep", "mc-consistency",
    )),
]


@pytest.mark.parametrize(
    "command, flag", IGNORED_FLAGS, ids=[f"{c}{f[0]}" for c, f in IGNORED_FLAGS]
)
def test_cli_rejects_flags_a_command_does_not_read(tmp_path, monkeypatch, capsys, command, flag):
    cfg = _write_config(tmp_path, WN_DOC)
    out = tmp_path / "out"
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", cfg] + [str(out) if v == "OUT" else v for v in flag]
    if command != "validate-model":
        argv += ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    # the command's own usage, which lists the flags it takes
    assert captured.err.startswith(f"usage: spherelrd {command} [-h] --config CONFIG")
    assert f"error: unrecognized arguments: {flag[0]}" in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("command", ["mc-size", "mc-power", "mc-dist", "mc-consistency"])
def test_cli_replicating_commands_take_the_benchmark_flags(tmp_path, command):
    # the benchmark runs these commands with --config, --out and --threads
    experiment = dict(WN_DOC["experiment"], T=[128, 256], R=2)
    model = (SMALL_DOC if command == "mc-power" else WN_DOC)["model"]
    cfg = _write_config(tmp_path, {"model": model, "experiment": experiment})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    assert len(os.listdir(out)) == 2


def _sweep_files(tmp_path, experiment: dict, name: str) -> tuple:
    doc = {
        "model": {"generator": "example1", "degrees": [1, 2]},
        "experiment": {"T": [1000, 4000], "betas": [0.2, 0.55], **experiment},
    }
    cfg = _write_config(tmp_path, doc, f"{name}.json")
    out = tmp_path / name
    assert main(["mc-sweep", "--config", cfg, "--out", str(out)]) == 0
    return tuple(
        (out / f).read_bytes() for f in ("bandwidth_sweep.csv", "bandwidth_sweep_manifest.json")
    )


def test_cli_sweep_is_keyed_only_by_what_it_reads(tmp_path):
    bare = _sweep_files(tmp_path, {}, "bare")
    unread = {"seed": 5, "R": 7, "beta": 0.4, "level": 0.1, "directions": 3}
    assert _sweep_files(tmp_path, unread, "unread") == bare
    assert set(json.loads(bare[1])) == {
        "experiment", "T_values", "betas", "calibration",
        "config_hash", "version", "numpy", "scipy",
    }
    assert _sweep_files(tmp_path, {"betas": [0.2, 0.5]}, "other")[1] != bare[1]


# --- malformed values of known keys -------------------------------------------

@pytest.mark.parametrize(
    "command, section, key, value",
    [
        pytest.param("validate-model", "model", "degrees", [1], id="degrees"),
        # a command that reads R: test reads replication 0 only (see
        # test_cli_unread_keys_are_named_not_checked)
        pytest.param("mc-size", "experiment", "R", "abc", id="R"),
        pytest.param("test", "experiment", "beta", [0.2], id="beta"),
        pytest.param("mc-sweep", "experiment", "betas", 0.3, id="betas"),
        # checked as T is: a sweep over no exponent, or one exponent twice
        pytest.param("mc-sweep", "experiment", "betas", [], id="betas-empty"),
        pytest.param("mc-sweep", "experiment", "betas", [0.3, 0.3], id="betas-repeated"),
        # a profile that sets no form key (None: the key is removed)
        pytest.param("validate-model", "alpha", "endpoints", None, id="endpoints"),
        # an alpha section sets exactly one of values, endpoints and peak, and
        # each of them whole: a second form key, a third endpoint or a kind
        # beside them was ignored and ran the profile of the first
        pytest.param("validate-model", "model", "alpha",
                     {"values": [0.1, 0.2], "endpoints": [0.3, 0.1], "peak": [0.3, 4, 0.4]},
                     id="values-endpoints-peak"),
        pytest.param("validate-model", "alpha", "peak", [0.3, 4, 0.4], id="endpoints-peak"),
        pytest.param("validate-model", "alpha", "values", 0.3, id="values-endpoints"),
        pytest.param("validate-model", "alpha", "values", [0.1, 0.2], id="values-list-endpoints"),
        pytest.param("validate-model", "alpha", "endpoints", [0.3, 0.2, 0.1], id="endpoints-three"),
        pytest.param("validate-model", "alpha", "kind", "interpolated", id="kind"),
        # a sample length listed twice: a consistency run would fit its
        # log-log slope on one distinct T
        pytest.param("mc-consistency", "experiment", "T", [512, 512], id="T-repeated"),
        # numbers are JSON numbers: a boolean is no integer (true ran R = 1),
        # and a string is no real number ("0.25" ran beta = 0.25)
        pytest.param("mc-size", "experiment", "R", True, id="R-true"),
        pytest.param("mc-size", "experiment", "seed", True, id="seed-true"),
        pytest.param("test", "experiment", "directions", True, id="directions-true"),
        pytest.param("mc-size", "experiment", "T", [True], id="T-true"),
        pytest.param("validate-model", "model", "degrees", [True, 2], id="degrees-true"),
        pytest.param("mc-size", "experiment", "beta", "0.25", id="beta-string"),
        pytest.param("mc-size", "experiment", "level", "0.05", id="level-string"),
        pytest.param("mc-sweep", "experiment", "betas", ["0.3"], id="betas-string"),
        pytest.param("mc-sweep", "experiment", "betas", [True], id="betas-true"),
        # so are the model's numbers, at any depth, and extended is a JSON
        # boolean: bool("no") is true and would admit exponents up to 1
        pytest.param("validate-model", "model", "innov", True, id="innov-true"),
        pytest.param("validate-model", "model", "innov", "2", id="innov-string"),
        pytest.param("validate-model", "model", "phi", [["0.5"]], id="phi-string"),
        pytest.param("validate-model", "model", "psi", [[False]], id="psi-false"),
        pytest.param("validate-model", "alpha", "values", ["0.1", "0.2"], id="values-string"),
        pytest.param("validate-model", "alpha", "peak", ["1", 0.3], id="peak-string"),
        pytest.param("validate-model", "alpha", "extended", "no", id="extended-string"),
        # json.load reads NaN and Infinity: each is no number here (a NaN
        # innov ran mc-size with every rate 0, a NaN alpha as short memory)
        pytest.param("mc-size", "model", "innov", float("nan"), id="innov-nan"),
        pytest.param("mc-size", "model", "innov", float("inf"), id="innov-inf"),
        pytest.param("validate-model", "model", "phi", [[float("nan")]], id="phi-nan"),
        pytest.param("validate-model", "model", "phi", [[float("inf")]], id="phi-inf"),
        pytest.param("mc-power", "model", "alpha", {"values": float("nan")}, id="values-nan"),
        pytest.param("mc-power", "model", "alpha", {"values": float("inf")}, id="values-inf"),
        pytest.param("mc-size", "experiment", "beta", float("nan"), id="beta-nan"),
        pytest.param("mc-size", "experiment", "beta", float("-inf"), id="beta-inf"),
        # the seed's range error names the config key, not a SeedSpec field
        pytest.param("mc-size", "experiment", "seed", -1, id="seed-negative"),
    ],
)
def test_cli_malformed_value_exits_1_naming_the_key(
    tmp_path, monkeypatch, capsys, command, section, key, value
):
    doc = {
        "model": {
            "generator": "reference", "degrees": [1, 2],
            "alpha": {"endpoints": [0.0, 0.0]},
        },
        "experiment": {"T": [128], "R": 3, "seed": 99},
    }
    if key in ("phi", "psi", "innov"):
        del doc["model"]["generator"]  # a generator takes no explicit coefficients
    sections = {"model": doc["model"], "alpha": doc["model"]["alpha"],
                "experiment": doc["experiment"]}
    if value is None:
        del sections[section][key]
    else:
        sections[section][key] = value
    cfg = _write_config(tmp_path, doc)
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", cfg]
    if command != "validate-model":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    # a whole alpha section names each key it sets
    named = value if isinstance(value, dict) else [key]
    assert captured.err.startswith("error: ")
    assert all(repr(k) in captured.err for k in named)
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize(
    "key, value",
    [("T", [1000.7]), ("R", 2.9), ("directions", 3.5), ("seed", 7.5), ("degrees", [1, 2.5])],
)
def test_config_rejects_non_integral_numbers(tmp_path, key, value):
    # int() would truncate these to T = 1000, R = 2, directions = 3, ...
    doc = {"model": {"generator": "reference", "degrees": [1, 2]}, "experiment": {"R": 3}}
    (doc["model"] if key == "degrees" else doc["experiment"])[key] = value
    # the one check where the field lives sees the value unrounded
    fractional = value[-1] if isinstance(value, list) else value
    with pytest.raises(SpherelrdError, match=f"{key!r} must be an integer, got {fractional}$"):
        experiment_from_config(doc, _keys("mc-size"))
    assert main(["mc-size", "--config", _write_config(tmp_path, doc), "--out", str(tmp_path)]) == 1
    # an integral float is still an integer
    (doc["model"] if key == "degrees" else doc["experiment"])[key] = (
        [float(round(v)) for v in value] if isinstance(value, list) else float(round(value))
    )
    experiment_from_config(doc, _keys("mc-size"))


def test_experiment_defaults_live_in_the_dataclass():
    # a document that sets no experiment key gets ExperimentConfig's defaults
    from spherelrd.harness import ExperimentConfig

    def fields(c):
        return (c.T_values, c.R, c.beta, c.level, c.n_directions, c.seed, c.betas, c.threads)

    config = experiment_from_config({"model": {"generator": "reference"}}, _keys("mc-size"))
    assert fields(config) == fields(ExperimentConfig(model=config.model))


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
def test_cli_rejects_out_of_range_seed_before_running(tmp_path, monkeypatch, seed):
    from spherelrd import harness

    def no_calibration(*args, **kwargs):
        raise AssertionError("a calibration ran")

    monkeypatch.setattr(harness, "null_moments", no_calibration)
    doc = dict(WN_DOC, experiment=dict(WN_DOC["experiment"], seed=seed))
    out = tmp_path / "out"
    assert main(["mc-size", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 1
    good = _write_config(tmp_path, WN_DOC, "good.json")
    assert main(["mc-size", "--config", good, "--out", str(out), "--seed", str(seed)]) == 1
    assert not out.exists()


# --- each command reads, checks and hashes only its own keys -----------------

def test_command_flags_follow_from_keys_and_formats():
    # --seed/--T with the key of that name, --threads with R, --out when the
    # command writes files; no command takes --format
    from spherelrd.cli import _COMMANDS

    flags = {name: set(c.flags()) for name, c in _COMMANDS.items()}
    every = {"seed", "out", "threads", "T"}
    assert flags == {
        "simulate": {"seed", "out", "T"},
        "spectrum": {"seed", "out", "T"},
        "test": {"seed", "out", "T"},
        "mc-size": every,
        "mc-power": every,
        "mc-dist": every,
        "mc-divergence": every,
        "mc-sweep": {"out", "T"},
        "mc-consistency": every,
        "validate-model": set(),
    }


@pytest.mark.parametrize(
    "command", ["mc-dist", "mc-consistency", "mc-divergence", "mc-sweep", "spectrum", "simulate"]
)
def test_cli_default_directions_bind_only_commands_that_read_them(tmp_path, capsys, command):
    # degrees 1..1 hold 3 columns, fewer than the default 8 directions, which
    # only test, mc-size and mc-power read
    doc = {"model": {"generator": "reference", "degrees": [1, 1]},
           "experiment": {"T": [128], "R": 2, "seed": 5}}
    cfg = _write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert main(["mc-size", "--config", cfg, "--out", str(tmp_path / "size")]) == 1
    assert "directions must lie in [1, 3]" in capsys.readouterr().err
    assert not (tmp_path / "size").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        pytest.param("test", "R", 0, id="test-R0"),
        pytest.param("test", "R", "abc", id="test-Rabc"),
        pytest.param("mc-sweep", "seed", -1, id="sweep-seed"),
        pytest.param("mc-size", "betas", [0.3], id="size-betas"),
        pytest.param("mc-dist", "level", "high", id="dist-level"),
        pytest.param("simulate", "beta", [0.2], id="simulate-beta"),
    ],
)
def test_cli_unread_keys_are_named_not_checked(tmp_path, capsys, command, key, value):
    doc = {"model": {"generator": "reference", "degrees": [1, 2]},
           "experiment": {"T": [128], "R": 2, "seed": 5, key: value}}
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"note: {command} does not read ") and repr(key) in err
    assert os.listdir(out)


def test_cli_note_lists_every_unread_key(tmp_path, capsys):
    doc = {"model": {"generator": "reference", "degrees": [1, 2]},
           "experiment": {"T": [128], "R": 2, "beta": 0.25, "level": 0.05,
                          "directions": 8, "seed": 5}}
    cfg = _write_config(tmp_path, doc)
    assert main(["mc-dist", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == "note: mc-dist does not read 'directions', 'level'\n"
    cfg = os.path.join(CONFIG_DIR, "paper_h0.json")
    assert main(["validate-model", "--config", cfg]) == 0
    assert capsys.readouterr().err == (
        "note: validate-model does not read "
        "'R', 'T', 'beta', 'directions', 'level', 'seed'\n"
    )
    # a document that sets only what the command reads prints nothing
    cfg = _write_config(tmp_path, {"model": {"generator": "reference", "degrees": [1, 2]},
                                   "experiment": {"T": [128], "seed": 5}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def _manifest_of(tmp_path, command: str, name: str, experiment: dict, tag: str) -> dict:
    model = "example1" if command == "mc-power" else "reference"
    doc = {"model": {"generator": model, "degrees": [1, 2]},
           "experiment": {"T": [128], "R": 2, "seed": 5, **experiment}}
    cfg = _write_config(tmp_path, doc, f"{tag}.json")
    out = tmp_path / tag
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    return json.loads((out / f"{name}_manifest.json").read_text())


@pytest.mark.parametrize(
    "command, name, unread",
    [
        ("mc-size", "size", set()),
        ("mc-power", "power", set()),
        ("mc-dist", "distribution", {"level", "n_directions"}),
        ("mc-divergence", "divergence", {"level", "n_directions", "calibration"}),
        ("mc-consistency", "consistency", {"level", "n_directions", "calibration"}),
    ],
)
def test_manifest_hashes_only_what_the_experiment_reads(tmp_path, command, name, unread):
    bare = _manifest_of(tmp_path, command, name, {}, "bare")
    assert not unread & set(bare)
    changes = [("level", 0.2, "level"), ("directions", 3, "n_directions"), ("beta", 0.3, "beta")]
    for key, value, field in changes:
        other = _manifest_of(tmp_path, command, name, {key: value}, key)
        assert (other["config_hash"] != bare["config_hash"]) == (field not in unread)
        assert (other == bare) == (field in unread)


# The manifest of every mc-* command on one document that sets every
# experiment key: its config_hash and its fields in file order, as the
# manifests were written before the key lists moved into one table.  The
# size and power hashes moved with their RNG descriptor twice: when they
# left panels for the support sampler, and when the descriptor began to name
# the sampler's cap on V and the panel streams past it.
_EVERY_KEY_DOC = {
    "model": {"generator": "reference", "degrees": [1, 2]},
    "experiment": {"T": [128, 256], "R": 2, "beta": 0.3, "level": 0.1,
                   "directions": 3, "seed": 11, "betas": [0.3, 0.6]},
}
_MODEL_FIELDS = ["degrees", "phi", "psi", "innov", "alpha", "alpha_extended"]
_REPLICATED = ["experiment", "T_values", "R", "beta", "seed", *_MODEL_FIELDS]
_DECIDED = ["experiment", "T_values", "R", "beta", "level", "n_directions", "seed", *_MODEL_FIELDS]
PINNED_MANIFESTS = {
    "mc-size": ("size", "c52ea98f5c468185", _DECIDED + ["calibration", "rng"]),
    "mc-power": ("power", "dd0fa26e4af20c22", _DECIDED + ["calibration", "rng"]),
    "mc-dist": ("distribution", "5f2b5935d13ad5ce", _REPLICATED + ["calibration", "rng"]),
    "mc-divergence": ("divergence", "33baa943f72d760d", _REPLICATED + ["rng"]),
    "mc-sweep": ("bandwidth_sweep", "21f51a8d6c449084", ["experiment", "T_values", "betas", "calibration"]),
    "mc-consistency": ("consistency", "db1f6d69a7c7743f", _REPLICATED + ["rng"]),
}


@pytest.mark.filterwarnings("ignore:run_power on a null model")
@pytest.mark.parametrize("command", list(PINNED_MANIFESTS))
def test_manifest_bytes_are_pinned(tmp_path, command):
    name, config_hash, fields = PINNED_MANIFESTS[command]
    cfg = _write_config(tmp_path, _EVERY_KEY_DOC)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / f"{name}_manifest.json").read_text())
    assert manifest["config_hash"] == config_hash
    assert list(manifest) == fields + ["config_hash", "version", "numpy", "scipy"]


_IMPORT_GRAPH = """
import json, os, sys
import spherelrd.cli as cli
doc = {"model": {"generator": "example1", "degrees": [1, 1]},
       "experiment": {"T": [64], "R": 2, "seed": 3, "directions": 2}}
path = os.path.join(sys.argv[1], "config.json")
with open(path, "w") as fh:
    json.dump(doc, fh)
for command in ("mc-power", "mc-dist", "test"):
    out = os.path.join(sys.argv[1], command)
    assert cli.main([command, "--config", path, "--out", out]) == 0, command
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""


def test_cli_runs_without_scipy_signal_or_stats(tmp_path):
    # a fresh interpreter imports the CLI and runs the commands that test,
    # calibrate and pool; a deferred import would show up after the runs
    import spherelrd

    src = os.path.dirname(os.path.dirname(spherelrd.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    # the banded ARMA solve is scipy's; the fractional filter's FFT is numpy's
    assert "scipy.linalg" in loaded
    assert not {"scipy.fft", "scipy.signal", "scipy.stats"} & loaded
