import csv
import json
import os

import numpy as np
import pytest

from spherelrd.cli import main
from spherelrd.config import (
    ConfigError,
    experiment_from_config,
    load_config,
    model_from_config,
    sweep_betas,
    table_mode,
)
from spherelrd.models import example_alpha_profile

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


@pytest.mark.filterwarnings("ignore:sample length")
@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_shipped_configs_load(name):
    doc = load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
    model = model_from_config(doc)
    config = experiment_from_config(doc)
    assert model.degrees.n_max == 8
    assert table_mode(doc) in ("single", "averaged", "expected")
    if name not in PAPER_CONFIGS:
        return
    assert config.T_values == (1000,)
    if name == "paper_h0":
        assert model.is_null()
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
            "alpha": {"kind": "explicit", "values": [0.1, 0.2]},
        }
    }
    model = model_from_config(doc)
    assert model.p == 1 and model.q == 1
    np.testing.assert_allclose(model.alpha.values, [0.1, 0.2])
    np.testing.assert_allclose(model.innov, 2.0)


def test_generator_rejects_explicit_fields():
    with pytest.raises(ConfigError):
        model_from_config({"model": {"generator": "reference", "phi": [[0.1]]}})


def test_reference_generator_accepts_alpha_override():
    doc = {
        "model": {
            "generator": "reference",
            "degrees": [1, 2],
            "alpha": {"kind": "constant", "values": 0.3},
        }
    }
    model = model_from_config(doc)
    np.testing.assert_allclose(model.alpha.values, 0.3)


def test_config_errors():
    with pytest.raises(ConfigError):
        model_from_config({})
    with pytest.raises(ConfigError):
        model_from_config({"model": {"generator": "example9"}})
    with pytest.raises(ConfigError):
        model_from_config({"model": {"degrees": [1, 1], "phi": [[1.5]]}})
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.json")
    with pytest.raises(ConfigError):
        experiment_from_config({"model": {"generator": "reference"}, "experiment": []})
    with pytest.raises(ConfigError):
        experiment_from_config(
            {"model": {"generator": "reference"}, "experiment": {"R": 0}}
        )


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(arr)


def test_experiment_overrides_win(tmp_path):
    config = experiment_from_config(SMALL_DOC, seed=123, T=64, threads=2)
    assert config.seed == 123
    assert config.T_values == (64,)
    assert config.threads == 2
    base = experiment_from_config(SMALL_DOC)
    assert base.seed == 99 and base.T_values == (128,)


def test_sweep_helpers():
    assert sweep_betas({}) == (0.2, 0.55, 0.9)
    assert sweep_betas({"experiment": {"betas": [0.3]}}) == (0.3,)
    assert table_mode({}) == "single"
    assert table_mode({"experiment": {"mode": "averaged"}}) == "averaged"


# --- CLI --------------------------------------------------------------------

def test_cli_validate_model(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_DOC)
    assert main(["validate-model", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("degree 1:") and lines[0].endswith("ok")


def test_cli_simulate_csv_and_json(tmp_path):
    cfg = _write_config(tmp_path, SMALL_DOC)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "panel.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "a_1_1", "a_1_2", "a_1_3", "a_2_1", "a_2_2", "a_2_3", "a_2_4", "a_2_5"]
    assert len(rows) == 1 + 128
    assert main(["simulate", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads((out / "panel.json").read_text())
    assert payload["T"] == 128 and len(payload["data"]) == 128


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
    assert rows[0] == ["omega", "n_a", "j_a", "n_b", "j_b", "re", "im"]
    assert len(rows) == 1 + 65 * 8


def test_cli_test_report(tmp_path):
    cfg = _write_config(tmp_path, SMALL_DOC)
    out = tmp_path / "out"
    assert main(["test", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "test_report.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 8
    assert main(["test", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads((out / "test_report.json").read_text())
    assert len(payload["results"]) == 8


def test_cli_test_report_honours_directions(tmp_path):
    doc = dict(SMALL_DOC)
    doc["experiment"] = dict(SMALL_DOC["experiment"], directions=5)
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["test", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "test_report.csv") as fh:
        labels = [row[0] for row in list(csv.reader(fh))[1:]]
    assert labels == [
        "(1,1)x(1,1)", "(1,2)x(1,2)", "(1,3)x(1,3)", "(2,1)x(2,1)", "(2,2)x(2,2)"
    ]


def test_cli_rejects_too_many_directions_before_running(tmp_path, monkeypatch):
    from spherelrd import harness

    def no_replications(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(harness, "simulate_panel", no_replications)
    doc = {
        "model": {"generator": "example1", "degrees": [1, 8]},
        "experiment": {"T": [128], "R": 3, "seed": 99, "directions": 200},
    }
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["mc-power", "--config", cfg, "--out", str(out)]) == 1
    assert not (out / "power.csv").exists()


@pytest.mark.filterwarnings("ignore:sample length")
@pytest.mark.parametrize("command", ["mc-power", "mc-dist", "mc-divergence"])
def test_cli_empty_window_fails_before_any_replication(tmp_path, monkeypatch, command):
    # T = 16 with beta = 0.25 leaves no Fourier frequency inside the window
    from spherelrd import harness

    calls = []
    simulate = harness.simulate_panel

    def counted(*args, **kwargs):
        calls.append(args[1])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(harness, "simulate_panel", counted)
    doc = {
        "model": {"generator": "example1", "degrees": [1, 2]},
        "experiment": {"T": [1000, 16], "R": 200, "beta": 0.25, "seed": 99},
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
    assert main(["mc-size", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads((out / "size.json").read_text())
    assert payload["experiment"] == "size"


def test_cli_mc_divergence_and_sweep(tmp_path):
    doc = dict(SMALL_DOC)
    doc["experiment"] = {"T": [128], "R": 1, "seed": 3, "betas": [0.3, 0.5]}
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["mc-divergence", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "divergence.csv").exists()
    assert main(["mc-sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "bandwidth_sweep.csv").exists()


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
