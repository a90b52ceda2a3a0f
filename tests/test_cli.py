"""End-to-end command-line checks, run in process via main(argv)."""

from types import SimpleNamespace

import numpy as np
import pytest

import cotn.cli
import cotn.model
from cotn import tensor as te
from cotn import training
from cotn.activation import build_table
from cotn.cli import main
from cotn.data import (
    CleanConfig,
    build_dataset,
    clean,
    epoch_to_text,
    featurize,
    load_csv,
    normalize,
    read_stats,
)
from cotn.model import (
    ActivationMode,
    Autoencoder,
    Forecaster,
    ModelConfig,
    load_autoencoder,
    load_forecaster,
    save_autoencoder,
    save_forecaster,
)
from cotn.oscillator import builtin_params
from cotn.training import write_synthetic_ett_csv
from helpers import assert_same_dataset, read_table_file, read_trial_report


def run(*argv):
    """Invoke the CLI; returns (exit_code, captured stdout lines)."""
    import io
    import sys
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout = old
    return code, buf.getvalue().splitlines()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthetic data file, a run config, and one completed training run."""
    root = tmp_path_factory.mktemp("cli")
    csv = root / "synth.csv"
    write_synthetic_ett_csv(csv, seed=11, length=300)
    cfg = root / "run.ini"
    cfg.write_text(
        "[data]\n"
        f"path = {csv}\n"
        "enc_len = 16\n"
        "label_len = 8\n"
        "horizon = 4\n"
        "\n"
        "[model]\n"
        "d_model = 8\n"
        "n_heads = 2\n"
        "n_enc_layers = 2\n"
        "n_dec_layers = 1\n"
        "d_ff = 16\n"
        "activation = gated\n"
        "type_id = 1\n"
        "lam = 0.5\n"
        "\n"
        "[train]\n"
        "epochs = 2\n"
        "seed = 1\n"
        "anomaly_weighting = true\n"
        "ae_epochs = 2\n"
    )
    out = root / "run_out"
    code, lines = run("train", "--config", str(cfg), "--out", str(out))
    assert code == 0, lines
    return {"root": root, "csv": csv, "cfg": cfg, "out": out,
            "train_stdout": lines}


class TestParsing:
    def test_version_exits_zero(self):
        code, _ = run("--version")
        assert code == 0

    def test_no_subcommand_is_usage_error(self):
        code, _ = run()
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self):
        code, _ = run("frobnicate")
        assert code == 2

    def test_train_requires_config(self):
        code, _ = run("train")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("table", "--jobs", "2"),
        ("eval", "--config", "x", "--checkpoint", "c.bin", "--data", "d.csv"),
        ("forecast", "--seed", "3", "--checkpoint", "c.bin", "--data", "d.csv"),
        ("train", "--jobs", "2", "--config", "x"),
    ])
    def test_flags_only_where_used(self, argv, capsys):
        code, _ = run(*argv)
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBifurcate:
    def test_writes_expected_rows(self, tmp_path):
        code, lines = run("bifurcate", "--type", "2", "--range=-0.4:0.4",
                          "--n", "5", "--steps", "50", "--keep", "10",
                          "--out", str(tmp_path))
        assert code == 0
        path = tmp_path / "bifurcation_type2.csv"
        assert lines[-1] == str(path)
        rows = path.read_text().splitlines()
        assert rows[0] == "x,lors"
        assert len(rows) == 1 + 5 * 10

    def test_bad_type_is_config_error(self, tmp_path):
        code, _ = run("bifurcate", "--type", "9", "--out", str(tmp_path))
        assert code == 2

    def test_keep_beyond_steps_rejected(self, tmp_path):
        code, _ = run("bifurcate", "--steps", "10", "--keep", "11",
                      "--out", str(tmp_path))
        assert code == 2

    def test_backwards_range_rejected(self, tmp_path):
        code, _ = run("bifurcate", "--range=1:-1", "--out", str(tmp_path))
        assert code == 2


class TestTable:
    def test_writes_readable_table(self, tmp_path):
        code, lines = run("table", "--type", "3", "--range=-2:2",
                          "--nodes", "11", "--out", str(tmp_path))
        assert code == 0
        header, nodes, values = read_table_file(lines[-1])
        assert header == {"type_id": "3", "x_min": "-2", "x_max": "2", "n_nodes": "11"}
        tab = build_table(builtin_params(3), -2.0, 2.0, 11, type_id=3)
        assert nodes.tobytes() == tab.nodes.tobytes()
        assert values.tobytes() == tab.values.tobytes()

    def test_bad_type_is_config_error(self, tmp_path, capsys):
        code, lines = run("table", "--type", "9", "--out", str(tmp_path))
        assert code == 2 and lines == []
        assert "--type: invalid choice: 9" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    def test_artifacts_written(self, workspace):
        out = workspace["out"]
        for name in ("checkpoint.bin", "norm_stats.txt", "report.txt",
                     "cleaning_report.txt", "autoencoder.bin"):
            assert (out / name).exists(), name

    def test_stdout_reports_test_metrics(self, workspace):
        lines = workspace["train_stdout"]
        assert lines[0].endswith("checkpoint.bin")
        assert lines[1].startswith("test_mae = ")
        assert lines[2].startswith("test_mse = ")

    def test_report_matches_stdout(self, workspace):
        report = read_trial_report(workspace["out"] / "report.txt")
        line = workspace["train_stdout"][1]
        assert float(line.split(" = ")[1]) == float(report["test_mae"])

    def test_set_override_applies(self, workspace, tmp_path):
        code, _ = run("train", "--config", str(workspace["cfg"]),
                      "--out", str(tmp_path),
                      "--set", "train.epochs=1",
                      "--set", "train.anomaly_weighting=false")
        assert code == 0
        report = read_trial_report(tmp_path / "report.txt")
        assert report["epochs_run"] == "1"
        assert not (tmp_path / "autoencoder.bin").exists()

    def test_seed_flag_overrides_config(self, workspace, tmp_path):
        code, _ = run("train", "--config", str(workspace["cfg"]),
                      "--out", str(tmp_path), "--seed", "42",
                      "--set", "train.epochs=1",
                      "--set", "train.anomaly_weighting=false")
        assert code == 0
        report = read_trial_report(tmp_path / "report.txt")
        assert report["seed"] == "42"


class TestTrainFitsOnce:
    def test_one_fit_and_it_is_the_saved_autoencoder(self, workspace, tmp_path,
                                                      monkeypatch):
        calls = []
        real = training.fit_autoencoder

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        # cmd_train fits through its own binding; a fit inside training
        # would go through the module's.
        monkeypatch.setattr(cotn.cli, "fit_autoencoder", counting)
        monkeypatch.setattr(training, "fit_autoencoder", counting)
        out = tmp_path / "run"
        code, _ = run("train", "--config", str(workspace["cfg"]), "--out", str(out))
        assert code == 0
        assert len(calls) == 1
        # Byte-identical to a fresh fit of the run's training windows.
        frame = featurize(clean(load_csv(workspace["csv"], "ett"), CleanConfig()))
        dataset = build_dataset(frame, enc_len=16, label_len=8, horizon=4)
        ae = real(dataset.splits.train.enc, hidden=32, bottleneck=8, seed=1,
                  epochs=2)
        save_autoencoder(tmp_path / "fresh.bin", ae,
                         extra_meta=cotn.model._meta_of(CleanConfig(), "data."))
        assert (out / "autoencoder.bin").read_bytes() == (tmp_path / "fresh.bin").read_bytes()
        # And the run matches the workspace run made the same way.
        for name in ("checkpoint.bin", "autoencoder.bin", "norm_stats.txt"):
            assert (out / name).read_bytes() == (workspace["out"] / name).read_bytes()


class TestConfigErrors:
    def test_missing_config_file_is_runtime_error(self, tmp_path):
        code, _ = run("train", "--config", str(tmp_path / "absent.ini"))
        assert code == 1

    def test_unknown_key_named(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[train]\nnesterov = true\n")
        code, _ = run("train", "--config", str(bad))
        assert code == 2

    def test_config_not_utf8_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"[train]\nepochs = \xff\n")
        code, _ = run("train", "--config", str(bad))
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text\n"

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[optimizer]\nlr = 1\n")
        code, _ = run("train", "--config", str(bad))
        assert code == 2

    def test_non_numeric_value_rejected(self, workspace):
        code, _ = run("train", "--config", str(workspace["cfg"]),
                      "--set", "train.epochs=zebra")
        assert code == 2

    def test_set_without_equals_rejected(self, workspace):
        code, _ = run("train", "--config", str(workspace["cfg"]),
                      "--set", "train.epochs")
        assert code == 2

    def test_missing_data_file_is_runtime_error(self, workspace, tmp_path):
        code, _ = run("train", "--config", str(workspace["cfg"]),
                      "--set", f"data.path={tmp_path / 'absent.csv'}")
        assert code == 1

    @pytest.mark.parametrize("setting,message", [
        ("data.stride=1.5", "data.stride: expected an integer, got '1.5'"),
        ("data.z_max=high", "data.z_max: expected a number, got 'high'"),
        ("model.d_model=x", "model.d_model: expected an integer, got 'x'"),
        ("model.distill=maybe", "model.distill: expected a boolean, got 'maybe'"),
        ("model.lam=half", "model.lam: expected a number, got 'half'"),
        ("train.anomaly_weighting=2",
         "train.anomaly_weighting: expected a boolean, got '2'"),
        ("data.train_ratio=nan",
         "data.train_ratio: expected a finite number >= 0, got nan"),
        ("data.val_ratio=-0.1",
         "data.val_ratio: expected a finite number >= 0, got -0.1"),
        ("data.test_ratio=1.2",
         "data.train_ratio + val_ratio + test_ratio: expected a sum of 1, "
         "got 2.0"),
        ("data.stride=0", "data.stride: expected >= 1, got 0"),
        ("data.max_ffill_gap=-1", "data.max_ffill_gap: expected >= 0, got -1"),
        ("data.z_max=nan", "data.z_max: expected > 0, got nan"),
        ("data.return_limit=0", "data.return_limit: expected > 0, got 0.0"),
        ("data.schema=csv", "data.schema: expected ett or ohlcv, got 'csv'"),
        ("train.lr=nan", "train.lr: expected a finite number > 0, got nan"),
        ("train.w_distill=inf",
         "train.w_distill: expected a finite number >= 0, got inf"),
        ("train.epochs=0", "train.epochs: expected >= 1, got 0"),
    ])
    def test_malformed_value_names_section_and_key(self, workspace, setting,
                                                    message, capsys):
        code, _ = run("train", "--config", str(workspace["cfg"]), "--set", setting)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_percent_in_a_value_is_literal(self, workspace, tmp_path):
        data = tmp_path / "s2k%.csv"
        data.write_bytes(workspace["csv"].read_bytes())
        cfg = tmp_path / "percent.ini"
        cfg.write_text(workspace["cfg"].read_text().replace(str(workspace["csv"]),
                                                            str(data)))
        code, lines = run("train", "--config", str(cfg), "--out", str(tmp_path / "out"),
                          "--set", "train.epochs=1",
                          "--set", "train.anomaly_weighting=false")
        assert code == 0, lines
        assert (tmp_path / "out" / "checkpoint.bin").exists()

    def test_interpolation_syntax_is_not_interpolated(self, workspace, tmp_path,
                                                      capsys):
        cfg = tmp_path / "interp.ini"
        cfg.write_text(workspace["cfg"].read_text().replace(str(workspace["csv"]),
                                                            "%(missing)s"))
        code, _ = run("train", "--config", str(cfg))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'%(missing)s'" in err
        assert "Traceback" not in err

    def test_values_are_checked_before_the_data_is_read(self, workspace, tmp_path):
        code, _ = run("train", "--config", str(workspace["cfg"]),
                      "--set", f"data.path={tmp_path / 'absent.csv'}",
                      "--set", "model.d_model=x")
        assert code == 2

    @pytest.mark.parametrize("setting,message", [
        ("train.lr=nan", "train.lr: expected a finite number > 0, got nan"),
        ("model.lam=2", "model.lam: expected a number in [0, 1], got 2.0"),
        ("model.activation=x", "model.activation: expected gelu or gated, got 'x'"),
        ("model.n_heads=3",
         "model.d_model: expected a positive multiple of n_heads (3), got 8"),
        ("model.n_heads=0", "model.n_heads: expected >= 1, got 0"),
        ("model.d_ff=0", "model.d_ff: expected >= 1, got 0"),
        ("model.n_enc_layers=6",
         "model.n_enc_layers: expected 2 ** (n_enc_layers - 1) <= enc_len (16) "
         "when distill is on, got 6"),
        ("data.label_len=30", "data.label_len: expected 1..enc_len (16), got 30"),
        ("data.label_len=0", "data.label_len: expected 1..enc_len (16), got 0"),
        ("data.enc_len=0", "data.enc_len: expected >= 1, got 0"),
        ("data.horizon=0", "data.horizon: expected >= 1, got 0"),
        ("train.ae_hidden=0", "train.ae_hidden: expected >= 1, got 0"),
        ("train.ae_bottleneck=-1", "train.ae_bottleneck: expected >= 1, got -1"),
        ("train.ae_epochs=0", "train.ae_epochs: expected >= 1, got 0"),
    ])
    def test_range_errors_come_before_the_data_is_read(self, workspace, tmp_path,
                                                        setting, message, capsys):
        code, _ = run("train", "--config", str(workspace["cfg"]),
                      "--set", f"data.path={tmp_path / 'absent.csv'}",
                      "--set", setting)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_known_keys_are_pinned(self):
        # The keys and kinds derived from the config dataclasses.
        assert cotn.cli._KNOWN_KEYS == {
            "data": {
                "path": "str", "schema": "str", "enc_len": "int",
                "label_len": "int", "horizon": "int", "stride": "int",
                "train_ratio": "float", "val_ratio": "float",
                "test_ratio": "float", "max_ffill_gap": "int",
                "z_max": "float", "return_limit": "float",
            },
            "model": {
                "d_model": "int", "n_heads": "int", "n_enc_layers": "int",
                "n_dec_layers": "int", "d_ff": "int", "distill": "bool",
                "activation": "str", "type_id": "int", "lam": "float",
            },
            "train": {
                "epochs": "int", "batch_size": "int", "lr": "float",
                "lr_schedule": "str", "seed": "int", "patience": "int",
                "w_distill": "float", "plan": "str", "pretrain_epochs": "int",
                "anomaly_weighting": "bool", "ae_hidden": "int",
                "ae_bottleneck": "int", "ae_epochs": "int",
            },
        }


def test_checkpoint_meta_format_is_pinned(tmp_path):
    # The meta entries are derived from ModelConfig, ActivationMode and
    # DataSpec; a new field must not change the stored format unnoticed.
    cfg = ModelConfig(d_model=12, n_heads=3, n_enc_layers=3, n_dec_layers=2,
                      d_ff=20, enc_len=16, label_len=8, horizon=4, n_features=3,
                      distill=False, activation=ActivationMode("gated", 3, 0.1))
    spec = cotn.cli.DataSpec(
        path="x.csv", schema="ohlcv", enc_len=16, label_len=8, horizon=4,
        stride=2, train_ratio=0.6, val_ratio=0.15, test_ratio=0.25,
        max_ffill_gap=0, z_max=4.5, return_limit=1e-3)
    dataset = SimpleNamespace(
        frame=SimpleNamespace(target="close"),
        stats=SimpleNamespace(names=("close", "log_return", "hl_range"),
                              dropped=("volume",)))
    path = tmp_path / "pin.bin"
    save_forecaster(path, Forecaster(cfg),
                    extra_meta=cotn.cli._dataset_meta(spec, dataset))
    _, meta = te.load_tensors(path)
    assert meta == {
        "kind": "forecaster",
        "d_model": "12", "n_heads": "3", "n_enc_layers": "3",
        "n_dec_layers": "2", "d_ff": "20", "enc_len": "16", "label_len": "8",
        "horizon": "4", "n_features": "3", "n_targets": "1", "distill": "0",
        "activation.kind": "gated", "activation.type_id": "3",
        "activation.lam": "0.1",
        "data.schema": "ohlcv", "data.stride": "2", "data.train_ratio": "0.6",
        "data.val_ratio": "0.15", "data.test_ratio": "0.25",
        "data.max_ffill_gap": "0", "data.z_max": "4.5",
        "data.return_limit": "0.001", "data.target": "close",
        "norm.names": "close,log_return,hl_range", "norm.dropped": "volume",
    }
    back, _, _ = load_forecaster(path)
    assert back.cfg == cfg
    assert cotn.cli._spec_from_meta(meta, cfg, "x.csv", path) == spec


class TestMalformedMetadata:
    """A present but malformed stored value exits 1 naming file and key."""

    @staticmethod
    def _edited(source, target, key, value):
        tensors, meta = te.load_tensors(source)
        assert key in meta
        meta[key] = value
        te.save_tensors(target, tensors, meta)
        return target

    @pytest.mark.parametrize("key,value,message", [
        ("d_model", "x", "expected an integer, got 'x'"),
        ("distill", "2", "expected a boolean, got '2'"),
        ("activation.lam", "abc", "expected a number, got 'abc'"),
        ("data.stride", "1.5", "expected an integer, got '1.5'"),
        ("data.z_max", "high", "expected a number, got 'high'"),
    ])
    def test_checkpoint_value(self, workspace, tmp_path, capsys, key, value,
                              message):
        bad = self._edited(workspace["out"] / "checkpoint.bin",
                           tmp_path / "bad.bin", key, value)
        code, _ = run("eval", "--checkpoint", str(bad),
                      "--data", str(workspace["csv"]))
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: {key!r}: {message}\n"

    @pytest.mark.parametrize("key,value,message", [
        ("data.stride", "0", "data.stride: expected >= 1, got 0"),
        ("data.val_ratio", "nan",
         "data.val_ratio: expected a finite number >= 0, got nan"),
        ("data.train_ratio", "0.9",
         "data.train_ratio + val_ratio + test_ratio: expected a sum of 1, got 1.2"),
        ("data.z_max", "nan", "data.z_max: expected > 0, got nan"),
        ("data.schema", "csv", "data.schema: expected ett or ohlcv, got 'csv'"),
    ])
    def test_checkpoint_data_setting_out_of_range(self, workspace, tmp_path,
                                                  capsys, key, value, message):
        bad = self._edited(workspace["out"] / "checkpoint.bin",
                           tmp_path / "bad.bin", key, value)
        code, _ = run("eval", "--checkpoint", str(bad),
                      "--data", str(workspace["csv"]))
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("stored_table", [True, False])
    def test_checkpoint_gate_type_out_of_range(self, workspace, tmp_path, capsys,
                                               stored_table):
        tensors, meta = te.load_tensors(workspace["out"] / "checkpoint.bin")
        meta["activation.type_id"] = "9"
        if not stored_table:
            del tensors["table.nodes"], tensors["table.values"]
        bad = tmp_path / "bad.bin"
        te.save_tensors(bad, tensors, meta)
        code, _ = run("eval", "--checkpoint", str(bad),
                      "--data", str(workspace["csv"]))
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: type_id: expected 1..8, got 9\n"

    @pytest.mark.parametrize("key,value,message", [
        ("hidden", "x", "expected an integer, got 'x'"),
        ("tau", "abc", "expected a number, got 'abc'"),
        ("data.z_max", "high", "expected a number, got 'high'"),
        ("data.max_ffill_gap", "2.5", "expected an integer, got '2.5'"),
    ])
    def test_autoencoder_value(self, workspace, tmp_path, capsys, key, value,
                               message):
        bad = self._edited(workspace["out"] / "autoencoder.bin",
                           tmp_path / "bad.bin", key, value)
        code, _ = run("anomaly", "--data", str(workspace["csv"]),
                      "--ae", str(bad),
                      "--stats", str(workspace["out"] / "norm_stats.txt"),
                      "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: {key!r}: {message}\n"


    def test_autoencoder_cleaning_out_of_range(self, workspace, tmp_path, capsys):
        bad = self._edited(workspace["out"] / "autoencoder.bin",
                           tmp_path / "bad.bin", "data.z_max", "0")
        code, _ = run("anomaly", "--data", str(workspace["csv"]), "--ae", str(bad),
                      "--stats", str(workspace["out"] / "norm_stats.txt"),
                      "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: data.z_max: expected > 0, got 0.0\n"


class TestEval:
    def test_metrics_match_training_report(self, workspace, tmp_path):
        code, lines = run("eval",
                          "--checkpoint", str(workspace["out"] / "checkpoint.bin"),
                          "--data", str(workspace["csv"]),
                          "--out", str(tmp_path))
        assert code == 0
        got = dict(line.split(" = ") for line in lines)
        assert set(got) == {"train_mae", "train_mse", "val_mae", "val_mse",
                            "test_mae", "test_mse"}
        report = read_trial_report(workspace["out"] / "report.txt")
        assert float(got["test_mae"]) == float(report["test_mae"])
        assert float(got["test_mse"]) == float(report["test_mse"])

    def test_missing_checkpoint_is_runtime_error(self, workspace, tmp_path):
        code, _ = run("eval", "--checkpoint", str(tmp_path / "nope.bin"),
                      "--data", str(workspace["csv"]))
        assert code == 1

    def test_checkpoint_without_data_metadata_is_named(self, workspace, tmp_path,
                                                       capsys):
        # save_forecaster alone stores no normalization or data settings.
        model, _, _ = load_forecaster(workspace["out"] / "checkpoint.bin")
        bare = tmp_path / "bare.bin"
        save_forecaster(bare, model)
        code, _ = run("eval", "--checkpoint", str(bare),
                      "--data", str(workspace["csv"]))
        err = capsys.readouterr().err
        assert code == 1
        assert str(bare) in err and "'norm.names'" in err


class TestStoredStatistics:
    """x.norm.mean and x.norm.std obey the rules of norm_stats.txt."""

    @pytest.mark.parametrize("edit,message", [
        ("extra_mean", "norm.mean: expected shape (7,) for the 7 kept features, "
                       "got (8,)"),
        ("zero_std", "norm.std: every value must be > 0"),
        ("nan_std", "norm.std: every value must be finite"),
    ])
    @pytest.mark.parametrize("command", ["eval", "forecast"])
    def test_bad_statistics_exit_1_naming_the_file(self, workspace, tmp_path, capsys,
                                                   edit, message, command):
        tensors, meta = te.load_tensors(workspace["out"] / "checkpoint.bin")
        if edit == "extra_mean":
            tensors["x.norm.mean"] = np.append(tensors["x.norm.mean"], 0.0)
        else:
            tensors["x.norm.std"][0] = 0.0 if edit == "zero_std" else np.nan
        bad = tmp_path / "bad.bin"
        te.save_tensors(bad, tensors, meta)
        code, lines = run(command, "--checkpoint", str(bad),
                          "--data", str(workspace["csv"]), "--out", str(tmp_path))
        assert code == 1 and lines == []
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "forecast.csv").exists()


def test_negative_size_in_an_old_container_exits_1(workspace, tmp_path, capsys):
    # A container whose manifest gives head.b the shape (-1, -1); the
    # manifest is read, and refused, before the payload digest is checked.
    raw = (workspace["out"] / "checkpoint.bin").read_bytes()
    end = raw.index(b"\nEND\n") + len(b"\nEND\n")
    lines = raw[:end].decode("ascii").splitlines()
    entry = next(i for i, ln in enumerate(lines) if ln.startswith("head.b "))
    name, _, _, off, nbytes = lines[entry].split()
    lines[entry] = f"{name} 2 -1 -1 {off} {nbytes}"
    bad = tmp_path / "old.bin"
    bad.write_bytes(("\n".join(lines) + "\n").encode("ascii") + raw[end:])
    code, _ = run("eval", "--checkpoint", str(bad), "--data", str(workspace["csv"]))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: corrupt tensor container (negative size in entry 'head.b')\n")


def test_container_without_a_digest_exits_1(workspace, tmp_path, capsys):
    raw = (workspace["out"] / "checkpoint.bin").read_bytes()
    end = raw.index(b"\nEND\n") + len(b"\nEND\n")
    lines = raw[:end].decode("ascii").splitlines()
    lines = [ln for ln in lines if not ln.startswith("sha256 ")]
    bad = tmp_path / "old.bin"
    bad.write_bytes(("\n".join(lines) + "\n").encode("ascii") + raw[end:])
    code, _ = run("eval", "--checkpoint", str(bad), "--data", str(workspace["csv"]))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: corrupt tensor container (missing sha256 line)\n")


class TestStoredTable:
    """The gated checkpoint's table is checked as it is loaded."""

    @pytest.mark.parametrize("edit,message", [
        ("nan", "table values must be finite"),
        ("not_linspace", "nodes must be the uniform grid"),
        ("no_values", "checkpoint has no 'table.values'"),
    ])
    def test_malformed_table_exits_1_naming_the_file(self, workspace, tmp_path,
                                                    capsys, edit, message):
        tensors, meta = te.load_tensors(workspace["out"] / "checkpoint.bin")
        if edit == "nan":
            tensors["table.values"][100] = np.nan
        elif edit == "not_linspace":
            tensors["table.nodes"][1] += 1e-3
        else:
            del tensors["table.values"]
        bad = tmp_path / "bad.bin"
        te.save_tensors(bad, tensors, meta)
        code, _ = run("eval", "--checkpoint", str(bad),
                      "--data", str(workspace["csv"]))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and message in err

    @pytest.mark.parametrize("command", ["eval", "forecast"])
    def test_checkpoint_without_a_table_exits_1(self, workspace, tmp_path, capsys,
                                                command):
        tensors, meta = te.load_tensors(workspace["out"] / "checkpoint.bin")
        del tensors["table.nodes"], tensors["table.values"]
        bad = tmp_path / "bad.bin"
        te.save_tensors(bad, tensors, meta)
        code, lines = run(command, "--checkpoint", str(bad),
                          "--data", str(workspace["csv"]), "--out", str(tmp_path))
        assert code == 1 and lines == []
        assert capsys.readouterr().err == f"error: {bad}: checkpoint has no 'table.nodes'\n"
        assert not (tmp_path / "forecast.csv").exists()

    def test_eval_does_not_rebuild_the_table(self, workspace, tmp_path,
                                             monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the stored table was rebuilt")

        monkeypatch.setattr(cotn.model, "table_for_type", refuse)
        code, lines = run("eval",
                          "--checkpoint", str(workspace["out"] / "checkpoint.bin"),
                          "--data", str(workspace["csv"]))
        assert code == 0 and len(lines) == 6


def _count_loads(monkeypatch):
    calls = []
    real = cotn.cli.load_csv

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cotn.cli, "load_csv", counting)
    return calls


class TestRestore:
    @pytest.mark.parametrize("command", ["eval", "forecast"])
    def test_data_loaded_once(self, workspace, tmp_path, monkeypatch, command):
        calls = _count_loads(monkeypatch)
        code, _ = run(command,
                      "--checkpoint", str(workspace["out"] / "checkpoint.bin"),
                      "--data", str(workspace["csv"]), "--out", str(tmp_path))
        assert code == 0
        assert len(calls) == 1

    def _restore_error(self, workspace, data, capsys):
        code, _ = run("eval",
                      "--checkpoint", str(workspace["out"] / "checkpoint.bin"),
                      "--data", str(data))
        return code, capsys.readouterr().err

    def test_feature_mismatch_is_runtime_error(self, workspace, tmp_path, capsys):
        # A constant HUFL column is dropped by fresh statistics.
        rows = workspace["csv"].read_text().splitlines()
        head = rows[0].split(",")
        col = head.index("HUFL")
        edited = [rows[0]]
        for row in rows[1:]:
            parts = row.split(",")
            parts[col] = "1.5"
            edited.append(",".join(parts))
        data = tmp_path / "flat.csv"
        data.write_text("\n".join(edited) + "\n")
        code, err = self._restore_error(workspace, data, capsys)
        assert code == 1
        assert "feature set of the data does not match the checkpoint" in err

    def test_too_small_and_no_windows(self, workspace, tmp_path, capsys):
        rows = workspace["csv"].read_text().splitlines()
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("\n".join(rows[:3]) + "\n")
        code, err = self._restore_error(workspace, tiny, capsys)
        assert code == 1 and "is too small" in err
        # 21 rows: 14 training rows, too few for one 16 + 4 window.
        short = tmp_path / "short.csv"
        short.write_text("\n".join(rows[:22]) + "\n")
        code, err = self._restore_error(workspace, short, capsys)
        assert code == 1 and "training split produced no windows" in err


@pytest.mark.parametrize("command", ["train", "eval", "forecast"])
def test_data_too_short_for_one_window_names_the_file(workspace, tmp_path, capsys,
                                                      command):
    # 21 rows: 14 training rows, too few for one 16 + 4 window.
    short = tmp_path / "short.csv"
    short.write_text("\n".join(workspace["csv"].read_text().splitlines()[:22]) + "\n")
    if command == "train":
        argv = ["train", "--config", str(workspace["cfg"]),
                "--set", f"data.path={short}"]
    else:
        argv = [command, "--checkpoint", str(workspace["out"] / "checkpoint.bin"),
                "--data", str(short)]
    code, _ = run(*argv, "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {short}: training split produced no windows" in err


def test_restore_cuts_the_training_dataset(workspace):
    # eval and forecast on the training file see training's windows.
    _, trained, _, _, _ = cotn.cli._configure(SimpleNamespace(
        config=str(workspace["cfg"]), set=[], seed=None, verbose=False))
    _, restored = cotn.cli._restore(SimpleNamespace(
        checkpoint=str(workspace["out"] / "checkpoint.bin"),
        data=str(workspace["csv"]), verbose=False))
    assert_same_dataset(restored, trained)


class TestForecast:
    def test_horizon_rows_with_continuing_timestamps(self, workspace, tmp_path):
        code, lines = run("forecast",
                          "--checkpoint", str(workspace["out"] / "checkpoint.bin"),
                          "--data", str(workspace["csv"]),
                          "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "forecast.csv").read_text().splitlines()
        assert rows[0] == "timestamp,forecast"
        assert len(rows) == 1 + 4
        stamps = [r.split(",")[0] for r in rows[1:]]
        assert stamps == sorted(stamps) and len(set(stamps)) == 4
        for r in rows[1:]:
            assert np.isfinite(float(r.split(",")[1]))

    @pytest.mark.parametrize("horizon", ["4", "9"])
    def test_horizon_flag_is_a_usage_error(self, workspace, tmp_path, capsys,
                                           horizon):
        # The checkpoint fixes the horizon (4 here); forecast has no
        # --horizon, so neither its own value nor another is accepted.
        code, lines = run("forecast",
                          "--checkpoint", str(workspace["out"] / "checkpoint.bin"),
                          "--data", str(workspace["csv"]),
                          "--horizon", horizon, "--out", str(tmp_path))
        assert code == 2 and lines == []
        assert (f"unrecognized arguments: --horizon {horizon}"
                in capsys.readouterr().err)
        assert not (tmp_path / "forecast.csv").exists()


class TestAnomaly:
    def test_scores_every_full_window(self, workspace, tmp_path):
        code, lines = run("anomaly",
                          "--data", str(workspace["csv"]),
                          "--ae", str(workspace["out"] / "autoencoder.bin"),
                          "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "anomaly.csv").read_text().splitlines()
        assert rows[0] == "window,timestamp,step_error,window_weight"
        n_rows = len(rows) - 1
        assert n_rows > 0 and n_rows % 16 == 0
        for r in rows[1:]:
            _, _, err, weight = r.split(",")
            assert float(err) >= 0.0
            assert 0.0 < float(weight) <= 1.0

    def test_rows_are_the_autoencoders_errors_and_weights(self, workspace, tmp_path):
        code, _ = run("anomaly",
                      "--data", str(workspace["csv"]),
                      "--ae", str(workspace["out"] / "autoencoder.bin"),
                      "--out", str(tmp_path))
        assert code == 0
        ae, _ = load_autoencoder(workspace["out"] / "autoencoder.bin")
        stats = read_stats(workspace["out"] / "norm_stats.txt")
        frame = normalize(featurize(clean(load_csv(workspace["csv"], "ett"))), stats)
        n = frame.n_rows // 16
        windows = frame.data[: n * 16].reshape(n, 16, frame.n_features)
        errors, weights = ae.step_errors(windows), ae.weights(windows)
        rows = (tmp_path / "anomaly.csv").read_text().splitlines()[1:]
        assert len(rows) == n * 16
        for i, row in enumerate(rows):
            w, stamp, err, weight = row.split(",")
            assert int(w) == i // 16
            assert stamp == epoch_to_text(int(frame.epochs[i]))
            assert err == "%.17g" % errors[i // 16, i % 16]
            assert weight == "%.17g" % weights[i // 16]

    def test_autoencoder_missing_a_tensor_is_named(self, workspace, tmp_path, capsys):
        tensors, meta = te.load_tensors(workspace["out"] / "autoencoder.bin")
        del tensors["enc1.w"]
        broken = tmp_path / "ae.bin"
        te.save_tensors(broken, tensors, meta)
        code, _ = run("anomaly", "--data", str(workspace["csv"]),
                      "--ae", str(broken),
                      "--stats", str(workspace["out"] / "norm_stats.txt"),
                      "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert str(broken) in err and "'enc1.w'" in err

    @pytest.mark.parametrize("tau", ["nan", "0.0", "-1.0", "inf"])
    def test_bad_threshold_is_named(self, workspace, tmp_path, capsys, tau):
        tensors, meta = te.load_tensors(workspace["out"] / "autoencoder.bin")
        broken = tmp_path / "ae.bin"
        te.save_tensors(broken, tensors, {**meta, "tau": tau})
        code, _ = run("anomaly", "--data", str(workspace["csv"]),
                      "--ae", str(broken),
                      "--stats", str(workspace["out"] / "norm_stats.txt"),
                      "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert f"{broken}: 'tau': expected a finite number > 0" in err
        assert not (tmp_path / "anomaly.csv").exists()

    @pytest.fixture(scope="class")
    def long_csv(self, tmp_path_factory):
        """An ETT file holding more 16-row windows than one scoring chunk."""
        path = tmp_path_factory.mktemp("long") / "long.csv"
        write_synthetic_ett_csv(path, seed=12, length=16 * (cotn.model.SCORE_CHUNK + 40))
        return path

    def test_one_autoencoder_pass(self, workspace, long_csv, tmp_path, monkeypatch):
        calls = []
        real = Autoencoder.reconstruct

        def counting(self, flat):
            calls.append(flat.copy())
            return real(self, flat)

        monkeypatch.setattr(Autoencoder, "reconstruct", counting)
        code, _ = run("anomaly", "--data", str(workspace["csv"]),
                      "--ae", str(workspace["out"] / "autoencoder.bin"),
                      "--out", str(tmp_path))
        assert code == 0
        assert len(calls) == 1
        # Past one chunk, the passes together score every window once, in order.
        del calls[:]
        code, _ = run("anomaly", "--data", str(long_csv),
                      "--ae", str(workspace["out"] / "autoencoder.bin"),
                      "--out", str(tmp_path / "long"))
        assert code == 0
        frame = normalize(featurize(clean(load_csv(long_csv, "ett"))),
                          read_stats(workspace["out"] / "norm_stats.txt"))
        n = frame.n_rows // 16
        assert n > cotn.model.SCORE_CHUNK and len(calls) > 1
        assert np.array_equal(np.concatenate(calls), frame.data[: n * 16].reshape(n, -1))

    @pytest.mark.parametrize("mean,std,problem", [
        ("abc", "1", "mean of 'OT' is not a number: 'abc'"),
        ("nan", "1", "mean of 'OT' is not finite: 'nan'"),
        ("0", "", "std of 'OT' is not a number: ''"),
        ("0", "inf", "std of 'OT' is not finite: 'inf'"),
        ("0", "0", "std of 'OT' must be > 0, got '0'"),
        ("0", "-1e-3", "std of 'OT' must be > 0, got '-1e-3'"),
    ])
    def test_bad_stats_value_names_file_and_line(self, workspace, tmp_path, capsys,
                                                 mean, std, problem):
        lines = (workspace["out"] / "norm_stats.txt").read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("OT,"))
        lines[i] = f"OT,{mean},{std}"
        stats = tmp_path / "stats.txt"
        stats.write_text("\n".join(lines) + "\n")
        code, _ = run("anomaly", "--data", str(workspace["csv"]),
                      "--ae", str(workspace["out"] / "autoencoder.bin"),
                      "--stats", str(stats), "--out", str(tmp_path))
        assert code == 1
        assert f"error: {stats}: line {i + 1}: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "anomaly.csv").exists()

    def test_missing_stats_file_is_runtime_error(self, workspace, tmp_path):
        code, _ = run("anomaly",
                      "--data", str(workspace["csv"]),
                      "--ae", str(workspace["out"] / "autoencoder.bin"),
                      "--stats", str(tmp_path / "absent.txt"),
                      "--out", str(tmp_path))
        assert code == 1

    def test_stats_error_comes_before_the_data_error(self, workspace, tmp_path, capsys):
        code, _ = run("anomaly",
                      "--data", str(tmp_path / "absent.csv"),
                      "--ae", str(workspace["out"] / "autoencoder.bin"),
                      "--stats", str(tmp_path / "absent.txt"),
                      "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "absent.txt" in err and "absent.csv" not in err

    @pytest.mark.parametrize("keep", [3, 7])
    def test_stats_without_a_data_feature_name_both_files(self, workspace, tmp_path,
                                                           capsys, keep):
        # The header and the first keep - 1 features: OT (the target, last)
        # is missing either way, and with 3 lines a load column too.
        lines = (workspace["out"] / "norm_stats.txt").read_text().splitlines()
        stats = tmp_path / "partial_stats.txt"
        stats.write_text("\n".join(lines[:keep]) + "\n")
        code, _ = run("anomaly", "--data", str(workspace["csv"]),
                      "--ae", str(workspace["out"] / "autoencoder.bin"),
                      "--stats", str(stats), "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {stats} does not fit the features of {workspace['csv']}: " in err
        assert "'OT'" in err
        assert not (tmp_path / "anomaly.csv").exists()

    def test_verbose_reports_rows_and_cleaning_actions(self, workspace, tmp_path,
                                                       capsys):
        code, _ = run("anomaly", "--verbose",
                      "--data", str(workspace["csv"]),
                      "--ae", str(workspace["out"] / "autoencoder.bin"),
                      "--out", str(tmp_path))
        assert code == 0
        cleaned = clean(load_csv(workspace["csv"], "ett"))
        assert (f"{cleaned.n_rows} rows, 7 features, {len(cleaned.report)} "
                "cleaning actions") in capsys.readouterr().err


def _anomaly_text(ae, frame):
    """The anomaly.csv that scoring this cleaned, normalized frame gives."""
    length = ae.window_len
    n = frame.n_rows // length
    windows = frame.data[: n * length].reshape(n, length, frame.n_features)
    errors, weights = ae.step_errors(windows), ae.weights(windows)
    rows = ["window,timestamp,step_error,window_weight"]
    for i in range(n * length):
        w = i // length
        rows.append(f"{w},{epoch_to_text(int(frame.epochs[i]))},"
                    f"{'%.17g' % errors[w, i % length]},{'%.17g' % weights[w]}")
    return "\n".join(rows) + "\n"


class TestAnomalyCleaning:
    """cotn anomaly cleans with the thresholds of the training run."""

    @pytest.fixture(scope="class")
    def spiked(self, workspace, tmp_path_factory):
        # One OT value about 4 standard deviations out: z_max = 3 flags
        # it, the default of 5 does not.
        root = tmp_path_factory.mktemp("spiked")
        lines = workspace["csv"].read_text().splitlines()
        ot = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
        head, _ = lines[151].rsplit(",", 1)
        lines[151] = f"{head},{float(ot.mean() + 4.0 * ot.std())!r}"
        csv = root / "spiked.csv"
        csv.write_text("\n".join(lines) + "\n")
        out = root / "run"
        code, _ = run("train", "--config", str(workspace["cfg"]), "--out", str(out),
                      "--set", f"data.path={csv}", "--set", "data.z_max=3")
        assert code == 0
        return csv, out

    def test_stored_thresholds(self, workspace, spiked):
        for out, z_max in ((workspace["out"], "5.0"), (spiked[1], "3.0")):
            _, meta = load_autoencoder(out / "autoencoder.bin")
            assert {k: v for k, v in meta.items() if k.startswith("data.")} == {
                "data.max_ffill_gap": "3", "data.z_max": z_max, "data.return_limit": "0.2"}

    def test_scores_data_cleaned_as_training_saw_it(self, spiked, tmp_path):
        csv, out = spiked
        code, _ = run("anomaly", "--data", str(csv), "--ae", str(out / "autoencoder.bin"),
                      "--out", str(tmp_path))
        assert code == 0
        ae, _ = load_autoencoder(out / "autoencoder.bin")
        stats = read_stats(out / "norm_stats.txt")
        raw = load_csv(csv, "ett")
        strict, default = clean(raw, CleanConfig(z_max=3.0)), clean(raw)
        assert len(strict.report) > len(default.report)
        text = (tmp_path / "anomaly.csv").read_text()
        assert text == _anomaly_text(ae, normalize(featurize(strict), stats))
        assert text != _anomaly_text(ae, normalize(featurize(default), stats))

    @pytest.mark.parametrize("deleted,missing", [
        pytest.param(("data.max_ffill_gap", "data.z_max", "data.return_limit"),
                     "data.max_ffill_gap", id="all"),
        pytest.param(("data.z_max",), "data.z_max", id="z_max"),
        pytest.param(("data.return_limit",), "data.return_limit", id="return_limit"),
    ])
    def test_file_without_thresholds_exits_1(self, workspace, tmp_path, capsys,
                                             deleted, missing):
        # Default cleaning could differ from the training run's, so a file
        # without its thresholds is not scored.
        tensors, meta = te.load_tensors(workspace["out"] / "autoencoder.bin")
        for key in deleted:
            del meta[key]
        old = tmp_path / "old.bin"
        te.save_tensors(old, tensors, meta)
        code, lines = run("anomaly", "--data", str(workspace["csv"]), "--ae", str(old),
                          "--stats", str(workspace["out"] / "norm_stats.txt"),
                          "--out", str(tmp_path))
        assert code == 1 and lines == []
        assert capsys.readouterr().err == f"error: {old}: checkpoint has no {missing!r}\n"
        assert not (tmp_path / "anomaly.csv").exists()


class TestSweep:
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected_before_the_data_is_read(self, workspace, tmp_path,
                                                            capsys, jobs):
        code, _ = run("sweep-types", "--config", str(workspace["cfg"]),
                      "--out", str(tmp_path), "--jobs", jobs,
                      "--set", f"data.path={tmp_path / 'absent.csv'}")
        assert code == 2
        assert capsys.readouterr().err == f"error: --jobs: expected >= 1, got {jobs}\n"

    def test_ranked_csv_and_winner(self, workspace, tmp_path):
        code, lines = run("sweep-types", "--config", str(workspace["cfg"]),
                          "--out", str(tmp_path), "--jobs", "4",
                          "--set", "train.epochs=1",
                          "--set", "train.anomaly_weighting=false")
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "rank,type_id,val_mae,test_mae"
        assert len(rows) == 9
        ranks = [int(r.split(",")[0]) for r in rows[1:]]
        ids = sorted(int(r.split(",")[1]) for r in rows[1:])
        maes = [float(r.split(",")[2]) for r in rows[1:]]
        assert ranks == list(range(1, 9))
        assert ids == list(range(1, 9))
        assert maes == sorted(maes)
        assert lines[-1] == f"winner = type {rows[1].split(',')[1]}"
