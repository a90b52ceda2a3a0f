"""Training loop, plans, sweeps, paired trials, synthetic benchmark."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

import cotn.tensor as te
from cotn import training
from cotn.data import FeatureFrame, WindowView, build_dataset, load_csv
from cotn.model import SCORE_CHUNK, ActivationMode, Autoencoder, Forecaster, ModelConfig
from cotn.tensor import parameter
from cotn.training import (
    Adam,
    TrainConfig,
    TrialReport,
    _batched_predict,
    _cosine_lr,
    _epochs_to_convergence,
    _split_metrics,
    fit_autoencoder,
    mae,
    make_synthetic_frame,
    make_synthetic_series,
    mse,
    multi_trial,
    run_training,
    sweep_types,
    write_synthetic_ett_csv,
    write_trial_report,
)
from helpers import (
    read_trial_report,
    tape_fit_autoencoder,
    tape_reconstruct,
    tape_step_errors,
)

TINY_MODEL = ModelConfig(
    d_model=8, n_heads=2, n_enc_layers=2, n_dec_layers=1, d_ff=16,
    enc_len=16, label_len=8, horizon=4, n_features=1,
)


# The model of the train-synth-gated benchmark workload.
BENCH_MODEL = ModelConfig(
    d_model=8, n_heads=2, n_enc_layers=2, n_dec_layers=1, d_ff=16,
    enc_len=24, label_len=12, horizon=8, n_features=1,
    activation=ActivationMode(kind="gated", type_id=1, lam=0.5),
)


def tiny_train_cfg(**kw):
    base = dict(epochs=3, batch_size=32, lr=1e-3, seed=1, patience=10,
                anomaly_weighting=False,
                activation=ActivationMode(kind="gated", type_id=1, lam=0.5))
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_dataset():
    frame = make_synthetic_frame(seed=0, length=300)
    return build_dataset(frame, enc_len=16, label_len=8, horizon=4)


class TestMetrics:
    def test_values(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([2.0, 2.0, 1.0])
        assert mae(a, b) == pytest.approx(1.0, rel=1e-15)
        assert mse(a, b) == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mae(np.ones(3), np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse(np.empty(0), np.empty(0))


class TestAdam:
    def test_matches_reference_arithmetic(self):
        p = parameter(np.array([1.0]))
        opt = Adam({"x": p})
        m = v = 0.0
        x = 1.0
        for t in range(1, 4):
            g = 0.5
            p.grad = np.array([g])
            opt.step(0.1)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1.0 - 0.9 ** t)
            vh = v / (1.0 - 0.999 ** t)
            x = x - 0.1 * mh / (math.sqrt(vh) + 1e-8)
            assert p.data[0] == pytest.approx(x, rel=1e-12)

    def test_missing_grad_means_no_move(self):
        p = parameter(np.array([2.0]))
        opt = Adam({"x": p})
        p.grad = None
        opt.step(0.1)
        assert p.data[0] == 2.0

    def test_explicit_lr_override(self):
        p = parameter(np.array([1.0]))
        opt = Adam({"x": p})
        p.grad = np.array([1.0])
        opt.step(lr=0.0)
        assert p.data[0] == 1.0


    def test_flat_step_equals_per_parameter_update(self):
        # Several shapes and a parameter without a gradient; the flat
        # moments must give each element the per-parameter arithmetic.
        rng = np.random.default_rng(5)
        shapes = {"a": (3, 4), "b": (4,), "c": (2, 2, 2), "d": (1,)}
        params = {n: parameter(rng.standard_normal(s)) for n, s in shapes.items()}
        ref = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        opt = Adam(params)
        for t in range(1, 6):
            grads = {n: rng.standard_normal(s) for n, s in shapes.items()}
            grads["c" if t % 2 else "d"] = None
            for n, p in params.items():
                p.grad = grads[n]
            opt.step(lr=0.01 / t)
            bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for n in shapes:
                g = grads[n] if grads[n] is not None else np.zeros(shapes[n])
                m[n] = 0.9 * m[n] + (1.0 - 0.9) * g
                v[n] = 0.999 * v[n] + (1.0 - 0.999) * (g * g)
                ref[n] = ref[n] - (0.01 / t) * (m[n] / bc1) / (np.sqrt(v[n] / bc2) + 1e-8)
                assert np.array_equal(params[n].data, ref[n])


class TestSchedule:
    def test_cosine_endpoints(self):
        assert _cosine_lr(1.0, 0, 10) == pytest.approx(1.0)
        assert _cosine_lr(1.0, 10, 10) == pytest.approx(0.0, abs=1e-15)
        assert _cosine_lr(1.0, 5, 10) == pytest.approx(0.5, rel=1e-12)

    def test_convergence_epoch_definition(self):
        # First epoch whose loss is within 1% of the run's best.
        assert _epochs_to_convergence([5.0, 3.0, 1.0, 1.005, 2.0]) == 3
        assert _epochs_to_convergence([1.0, 2.0, 3.0]) == 1
        assert _epochs_to_convergence([2.0, 1.009, 1.0]) == 2


class TestConfig:
    def test_validation(self):
        with pytest.raises(TypeError):  # plan is derived, not set
            tiny_train_cfg(plan="warm_start")
        with pytest.raises(ValueError):
            tiny_train_cfg(lr_schedule="linear")
        with pytest.raises(ValueError):
            tiny_train_cfg(epochs=0)
        with pytest.raises(ValueError):
            tiny_train_cfg(pretrain_epochs=5, epochs=3)
        with pytest.raises(ValueError):
            tiny_train_cfg(lr=-1.0)
        for name in ("lr", "w_distill"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^{name}: expected a finite"):
                    tiny_train_cfg(**{name: bad})
        for name in ("ae_hidden", "ae_bottleneck", "ae_epochs"):
            for bad in (0, -1):
                with pytest.raises(ValueError, match=f"^{name}: expected >= 1, got {bad}$"):
                    tiny_train_cfg(**{name: bad})


class TestReportIO:
    def _report(self):
        return TrialReport(
            seed=3, activation="gelu", plan="direct", epochs_run=7,
            epochs_to_convergence=4, best_val_loss=0.123456789012345678,
            val_mae=3.3, val_mse=4.4, test_mae=5.5, test_mse=1.0 / 3.0,
            wall_time_s=9.9,
        )

    def test_metric_dict_excludes_wall_time(self):
        d = self._report().metric_dict()
        assert "wall_time_s" not in d
        assert d["seed"] == 3 and d["test_mse"] == 1.0 / 3.0

    def test_keys_in_report_order(self, tmp_path):
        path = tmp_path / "report.txt"
        write_trial_report(path, self._report(), (1.1, 2.2))
        keys = [line.split(" = ")[0] for line in path.read_text().splitlines()]
        assert keys == ["seed", "activation", "plan", "epochs_run",
                        "epochs_to_convergence", "best_val_loss", "train_mae",
                        "train_mse", "val_mae", "val_mse", "test_mae", "test_mse",
                        "wall_time_s"]

    def test_round_trip_exact_floats(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.txt"
        write_trial_report(path, report, (1.1, 2.0 / 3.0))
        back = read_trial_report(path)
        assert float(back["train_mae"]) == 1.1
        assert float(back["train_mse"]) == 2.0 / 3.0
        assert float(back["test_mse"]) == report.test_mse
        assert float(back["best_val_loss"]) == report.best_val_loss
        assert back["activation"] == "gelu"
        assert int(back["epochs_run"]) == 7
        assert "wall_time_s" in back


def _train_view(n_features, rows, seed):
    """The training windows (16 rows each) of a random frame, as a view."""
    rng = np.random.default_rng(seed)
    names = tuple("abcdefg"[:n_features])
    frame = FeatureFrame(np.arange(rows, dtype=np.int64) * 3600,
                         np.zeros(rows, dtype=np.int64),
                         np.asfortranarray(rng.standard_normal((rows, n_features))),
                         names, names[-1], 3600)
    return build_dataset(frame, enc_len=16, label_len=8, horizon=4).splits.train.enc


def _param_bytes(model):
    return {name: p.data.tobytes() for name, p in model.params.items()}


class TestAutoencoderFit:
    def test_fit_sets_threshold_and_is_deterministic(self):
        rng = np.random.default_rng(8)
        windows = rng.standard_normal((60, 8, 2))
        a, _ = fit_autoencoder(windows, hidden=12, bottleneck=3, seed=5, epochs=3)
        b, _ = fit_autoencoder(windows, hidden=12, bottleneck=3, seed=5, epochs=3)
        assert a.tau is not None and a.tau > 0
        assert a.tau == b.tau
        np.testing.assert_allclose(a.step_errors(windows),
                                   b.step_errors(windows), rtol=0, atol=0)

    def test_bad_windows_rejected(self):
        with pytest.raises(ValueError):
            fit_autoencoder(np.zeros((4, 8)))

    @pytest.mark.parametrize("n_features", [1, 3])
    def test_view_fit_equals_the_array_fit(self, n_features):
        view = _train_view(n_features, 400, seed=n_features)
        whole = view[:]
        a, _ = fit_autoencoder(view, hidden=12, bottleneck=3, seed=5, epochs=3)
        b, _ = fit_autoencoder(whole, hidden=12, bottleneck=3, seed=5, epochs=3)
        assert a.tau == b.tau
        assert _param_bytes(a) == _param_bytes(b)
        assert a.step_errors(view).tobytes() == b.step_errors(whole).tobytes()


class TestTapeReference:
    """The plain-numpy autoencoder makes the tape's numpy calls: its loss,
    gradients, fit and scores have the bits of the tape version in
    helpers."""

    @pytest.mark.parametrize("n_features", [1, 7])
    def test_one_step_equals_backward(self, n_features):
        ae = Autoencoder(16, n_features, hidden=12, bottleneck=3, seed=2)
        flat = np.random.default_rng(n_features).standard_normal((37, 16 * n_features))
        loss, grads = ae.loss_and_grads(flat)
        x = te.constant(flat)
        diff = te.sub(tape_reconstruct(ae, x), x)
        want = te.mean_all(te.mul(diff, diff))
        te.backward(want)
        assert loss == want.item()
        assert set(grads) == set(ae.params)
        for name, p in ae.params.items():
            assert grads[name].shape == p.data.shape
            assert grads[name].tobytes() == p.grad.tobytes(), name

    @pytest.mark.parametrize("n_features", [1, 7])
    @pytest.mark.parametrize("as_view", [False, True])
    def test_fit_equals_the_tape_fit(self, n_features, as_view):
        view = _train_view(n_features, 260, seed=n_features)
        windows = view if as_view else view[:]
        assert windows.shape[0] % 64 != 0  # a short last batch
        a, _ = fit_autoencoder(windows, hidden=12, bottleneck=3, seed=5, epochs=3)
        b = tape_fit_autoencoder(windows, hidden=12, bottleneck=3, seed=5, epochs=3)
        assert a.tau == b.tau and _param_bytes(a) == _param_bytes(b)
        assert a.step_errors(windows).tobytes() == tape_step_errors(b, windows).tobytes()

    def test_scoring_a_chunk_and_one_more_window(self):
        # SCORE_CHUNK + 1 windows score as one pass, the lone last window
        # joining the chunk before it.
        ae = Autoencoder(24, 7, seed=4)
        windows = np.random.default_rng(4).standard_normal((SCORE_CHUNK + 1, 24, 7))
        assert ae.step_errors(windows).tobytes() == tape_step_errors(ae, windows).tobytes()


class TestRunTraining:
    def test_direct_plan_deterministic(self, tiny_dataset):
        cfg = tiny_train_cfg()
        model_a, rep_a = run_training(tiny_dataset, TINY_MODEL, cfg)
        model_b, rep_b = run_training(tiny_dataset, TINY_MODEL, cfg)
        assert rep_a.metric_dict() == rep_b.metric_dict()
        enc = tiny_dataset.splits.test.enc[:4]
        assert np.array_equal(model_a.predict(enc), model_b.predict(enc))

    def test_seed_changes_outcome(self, tiny_dataset):
        _, rep_a = run_training(tiny_dataset, TINY_MODEL, tiny_train_cfg(seed=1))
        _, rep_b = run_training(tiny_dataset, TINY_MODEL, tiny_train_cfg(seed=2))
        assert rep_a.metric_dict() != rep_b.metric_dict()

    def test_report_fields_sane(self, tiny_dataset):
        cfg = tiny_train_cfg()
        model, rep = run_training(tiny_dataset, TINY_MODEL, cfg)
        assert rep.plan == "direct" and rep.seed == 1
        assert "type=1" in rep.activation
        assert 1 <= rep.epochs_to_convergence <= rep.epochs_run <= cfg.epochs
        for v in (rep.val_mae, rep.test_mae):
            assert math.isfinite(v) and v >= 0
        assert model.cfg.activation == cfg.activation

    def test_gelu_arm_reports_gelu(self, tiny_dataset):
        cfg = tiny_train_cfg(activation=ActivationMode(kind="gelu"))
        _, rep = run_training(tiny_dataset, TINY_MODEL, cfg)
        assert rep.activation == "gelu"

    def test_anomaly_weighting_changes_training(self, tiny_dataset):
        off = tiny_train_cfg()
        on = tiny_train_cfg(anomaly_weighting=True, ae_epochs=2)
        _, rep_off = run_training(tiny_dataset, TINY_MODEL, off)
        _, rep_on = run_training(tiny_dataset, TINY_MODEL, on)
        assert rep_off.metric_dict() != rep_on.metric_dict()

    @pytest.mark.parametrize("call", ["run_training", "sweep_types", "multi_trial"])
    @pytest.mark.parametrize("split", ["training", "validation"])
    def test_a_split_without_windows_is_refused_before_any_fit(self, count_fits,
                                                               monkeypatch, call, split):
        def refuse(*args, **kwargs):
            raise AssertionError("trained on a dataset it then refused")

        monkeypatch.setattr(Forecaster, "forward", refuse)
        dataset = build_dataset(make_synthetic_frame(seed=0, length=300), enc_len=16,
                                label_len=8, horizon=4, ratios=(0.8, 0.0, 0.2))
        splits = dataset.splits
        assert splits.val.n_windows == 0 < splits.test.n_windows
        if split == "training":
            dataset = replace(dataset, splits=replace(splits, train=splits.val,
                                                      val=splits.test))
        cfg = tiny_train_cfg(anomaly_weighting=True, ae_epochs=1)
        with pytest.raises(ValueError, match=f"^{split} split has no windows$"):
            if call == "run_training":
                run_training(dataset, TINY_MODEL, cfg)
            elif call == "sweep_types":
                sweep_types(dataset, TINY_MODEL, cfg, jobs=1)
            else:
                multi_trial(dataset, TINY_MODEL, cfg, cfg, n_trials=1)
        assert count_fits == []


class TestEarlyStopping:
    def test_stops_patience_epochs_after_the_best_and_keeps_it(self, tiny_dataset,
                                                                monkeypatch):
        # At a constant rate of 1e-2 the validation loss of this run is
        # lowest at epoch 5 of 12 and above that at epochs 6 and 7.
        states = []
        real = training._batched_predict

        def snapshot(model, enc, *args):
            states.append(model.state_arrays())
            return real(model, enc, *args)

        histories = _capture_stage_histories(monkeypatch)
        monkeypatch.setattr(training, "_batched_predict", snapshot)
        cfg = tiny_train_cfg(epochs=12, patience=1, lr=1e-2, lr_schedule="constant")
        model, report = run_training(tiny_dataset, TINY_MODEL, cfg)
        history = histories[-1]
        best = int(np.argmin(history)) + 1
        assert report.epochs_run == len(history) == best + cfg.patience + 1 < cfg.epochs
        assert report.best_val_loss == history[best - 1]
        # One validation prediction after each epoch, then the test windows'.
        assert len(states) == len(history) + 1
        kept = model.state_arrays()
        assert all(np.array_equal(kept[name], arr) for name, arr in states[best - 1].items())


@pytest.fixture
def count_fits(monkeypatch):
    """Count fit_autoencoder calls; a call in a forked worker fails."""
    home = os.getpid()
    calls = []
    real = training.fit_autoencoder

    def counting(*args, **kwargs):
        if os.getpid() != home:
            raise AssertionError("autoencoder fitted in a worker process")
        calls.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "fit_autoencoder", counting)
    return calls


class TestSharedAutoencoder:
    @pytest.mark.parametrize("pretrain", [0, 1])
    def test_passed_in_fit_is_bit_identical(self, tiny_dataset, pretrain):
        cfg = tiny_train_cfg(epochs=2, pretrain_epochs=pretrain,
                             anomaly_weighting=True, ae_epochs=3)
        model_own, rep_own = run_training(tiny_dataset, TINY_MODEL, cfg)
        weights = training._anomaly_weights(tiny_dataset, cfg)
        model_in, rep_in = run_training(tiny_dataset, TINY_MODEL, cfg, weights)
        assert rep_in.metric_dict() == rep_own.metric_dict()
        assert _param_bytes(model_in) == _param_bytes(model_own)

    def test_passed_in_fit_is_not_refitted(self, tiny_dataset, count_fits):
        cfg = tiny_train_cfg(epochs=1, anomaly_weighting=True, ae_epochs=2)
        weights = training._anomaly_weights(tiny_dataset, cfg)
        assert count_fits == [1]
        run_training(tiny_dataset, TINY_MODEL, cfg, weights)
        assert count_fits == [1]
        run_training(tiny_dataset, TINY_MODEL, cfg)
        assert count_fits == [1, 1]

    def test_training_windows_are_scored_once(self, tiny_dataset, monkeypatch):
        # fit_threshold scores the training windows; the weights come from
        # those errors, whether the run fits its autoencoder or is handed
        # the weights.
        scored = []
        real = Autoencoder.step_errors

        def counting(self, windows):
            scored.append(windows)
            return real(self, windows)

        monkeypatch.setattr(Autoencoder, "step_errors", counting)
        train = tiny_dataset.splits.train.enc
        cfg = tiny_train_cfg(epochs=1, anomaly_weighting=True, ae_epochs=2)
        _, own = run_training(tiny_dataset, TINY_MODEL, cfg)
        assert scored == [train]
        del scored[:]
        weights = training._anomaly_weights(tiny_dataset, cfg)
        _, handed = run_training(tiny_dataset, TINY_MODEL, cfg, weights)
        assert scored == [train]
        assert handed.metric_dict() == own.metric_dict()

    @pytest.mark.parametrize("n", [1, SCORE_CHUNK, SCORE_CHUNK + 1, 2 * SCORE_CHUNK + 1])
    @pytest.mark.parametrize("as_view", [False, True])
    def test_fit_weights_equal_a_fresh_scoring(self, n, as_view):
        # Across step_errors' chunk boundaries, where a lone last window
        # joins the chunk before it.
        data = np.random.default_rng(n).standard_normal((n + 5, 2))
        view = WindowView(data, np.arange(n), 6)
        windows = view if as_view else view[:]
        ae, weights = fit_autoencoder(windows, hidden=4, bottleneck=2, seed=3, epochs=1)
        assert weights.shape == (n,)
        assert weights.tobytes() == ae.error_weights(ae.step_errors(windows)).tobytes()

    def test_weights_of_another_shape_rejected(self, tiny_dataset):
        n = tiny_dataset.splits.train.n_windows
        cfg = tiny_train_cfg(epochs=1, anomaly_weighting=True, ae_epochs=2)
        message = rf"weights: expected shape \({n},\), one per training window"
        for weights in (np.ones(n - 1), np.ones(n + 1), np.ones((n, 1))):
            with pytest.raises(ValueError, match=message):
                run_training(tiny_dataset, TINY_MODEL, cfg, weights)
        # Refused whether or not the run weights.
        with pytest.raises(ValueError, match=message):
            run_training(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=1), np.ones(3))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_fits_once(self, tiny_dataset, count_fits, jobs):
        cfg = tiny_train_cfg(epochs=1, anomaly_weighting=True, ae_epochs=2)
        types = (1, 4, 7)
        result = sweep_types(tiny_dataset, TINY_MODEL, cfg, type_ids=types,
                             jobs=jobs)
        assert count_fits == [1]
        # Same ranking and reports as runs that each fit their own.
        own = []
        for t in types:
            mode = ActivationMode(kind="gated", type_id=t, lam=0.5)
            _, rep = run_training(tiny_dataset, TINY_MODEL,
                                  tiny_train_cfg(epochs=1, anomaly_weighting=True,
                                                 ae_epochs=2, activation=mode))
            own.append((rep.val_mae, t, rep.metric_dict()))
        own.sort(key=lambda e: (e[0], e[1]))
        assert [e.type_id for e in result.entries] == [t for _, t, _ in own]
        for entry, (_, _, want) in zip(result.entries, own):
            assert entry.report.metric_dict() == want

    def test_sweep_without_weighting_fits_nothing(self, tiny_dataset, count_fits):
        sweep_types(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=1),
                    type_ids=(2, 3))
        assert count_fits == []

    @pytest.mark.parametrize("baseline_kw,fits", [
        (dict(), [1, 2]),                               # shared: one per seed
        (dict(ae_epochs=3), [1, 1, 2, 2]),              # different AE settings
        (dict(ae_hidden=16), [1, 1, 2, 2]),
        (dict(anomaly_weighting=False), [1, 2]),        # baseline unweighted
    ])
    def test_multi_trial_fits(self, tiny_dataset, count_fits, baseline_kw, fits):
        treatment = tiny_train_cfg(epochs=1, anomaly_weighting=True, ae_epochs=2)
        gelu = ActivationMode(kind="gelu")
        b_kw = dict(epochs=1, anomaly_weighting=True, ae_epochs=2,
                    activation=gelu)
        b_kw.update(baseline_kw)
        baseline = tiny_train_cfg(**b_kw)
        summary = multi_trial(tiny_dataset, TINY_MODEL, treatment, baseline,
                              n_trials=2)
        assert sorted(count_fits) == fits
        # Each arm reports what it reports when it fits its own.
        reports = [
            run_training(tiny_dataset, TINY_MODEL, replace(cfg, seed=seed))[1]
            for seed in (1, 2) for cfg in (treatment, baseline)
        ]
        t_mae = [r.test_mae for r in reports[0::2]]
        b_mae = [r.test_mae for r in reports[1::2]]
        assert summary.metrics["test_mae"]["min"] == min(t_mae)
        assert summary.metrics["test_mae"]["max"] == max(t_mae)
        assert summary.baseline_metrics["test_mae"]["min"] == min(b_mae)
        assert summary.baseline_metrics["test_mae"]["max"] == max(b_mae)


class TestUnscoredTrainingSplit:
    """A run scores only the validation and test splits, so no run, alone,
    in a sweep or in a paired trial, predicts a training window."""

    @pytest.fixture
    def predicted(self, monkeypatch):
        # Windows per Forecaster.predict call; jobs=1 keeps every call here.
        sizes = []
        real = Forecaster.predict

        def counting(self, enc):
            sizes.append(enc.shape[0])
            return real(self, enc)

        monkeypatch.setattr(Forecaster, "predict", counting)
        return sizes

    @staticmethod
    def _per_run(dataset) -> int:
        # One epoch: stage 2's validation prediction, then the test split.
        return dataset.splits.val.n_windows + dataset.splits.test.n_windows

    def test_sweep_predicts_no_training_window(self, tiny_dataset, predicted):
        types = (1, 4)
        result = sweep_types(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=1),
                             type_ids=types, jobs=1)
        assert sum(predicted) == len(types) * self._per_run(tiny_dataset)
        for entry in result.entries:
            assert math.isfinite(entry.report.val_mae)
            assert math.isfinite(entry.report.test_mae)

    def test_multi_trial_predicts_no_training_window(self, tiny_dataset, predicted,
                                                     monkeypatch):
        reports = []
        real = training._run_pair

        def keeping(args):
            pair = real(args)
            reports.extend(pair)
            return pair

        monkeypatch.setattr(training, "_run_pair", keeping)
        treatment = tiny_train_cfg(epochs=1)
        baseline = tiny_train_cfg(epochs=1, activation=ActivationMode(kind="gelu"))
        multi_trial(tiny_dataset, TINY_MODEL, treatment, baseline, n_trials=2, jobs=1)
        assert len(reports) == 4
        assert sum(predicted) == len(reports) * self._per_run(tiny_dataset)

    def test_run_training_predicts_only_validation_and_test_windows(self, tiny_dataset,
                                                                    predicted):
        _, rep = run_training(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=1))
        assert tiny_dataset.splits.train.n_windows > 0
        assert sum(predicted) == self._per_run(tiny_dataset)
        assert math.isfinite(rep.val_mae) and math.isfinite(rep.test_mae)


def _capture_stage_histories(monkeypatch) -> list:
    histories = []
    real = training._stage_loop

    def capturing(*args, **kwargs):
        result = real(*args, **kwargs)
        histories.append(list(result[0]))
        return result

    monkeypatch.setattr(training, "_stage_loop", capturing)
    return histories


class TestPredictPath:
    def test_chunk_size_does_not_change_predictions(self, tiny_dataset):
        # Every per-window row count (16, 8, 12, 4) is a multiple of 4, so
        # any chunk predicts the bits of one batch.
        model = Forecaster(replace(TINY_MODEL, activation=ActivationMode("gated", 1, 0.5)),
                           seed=3)
        train = tiny_dataset.splits.train
        enc = train.enc[:150]
        preds = [_batched_predict(model, enc, chunk) for chunk in (1, 7, 64, 512)]
        assert preds[0].shape == (150, 4, 1)
        for p in preds[1:]:
            assert np.array_equal(p, preds[0])

    @pytest.mark.parametrize("enc_len,label_len,horizon", [(24, 7, 5), (23, 12, 8),
                                                           (24, 12, 5)])
    def test_chunks_of_a_multiple_of_4_windows_predict_one_batch(
            self, enc_len, label_len, horizon):
        # Row counts that are not all multiples of 4. OpenBLAS rounds the
        # (n, 1) row-sum GEMMs by a row's position modulo 4, so chunks of
        # 1, 7 or 65 windows give other bits here; 4, 64 and 512 move every
        # row by a multiple of 4.
        model = Forecaster(replace(BENCH_MODEL, enc_len=enc_len, label_len=label_len,
                                   horizon=horizon), seed=3)
        enc = np.random.default_rng(enc_len + label_len).standard_normal((200, enc_len, 1))
        whole = model.predict(enc)
        for chunk in (4, 64, 512):
            assert np.array_equal(_batched_predict(model, enc, chunk), whole)

    @pytest.mark.parametrize("n_features", [1, 7])
    def test_a_lone_last_window_predicts_as_in_any_chunk(self, n_features):
        # The benchmark model's geometry; 129 = 2 * 64 + 1 and 1369 = 1368 + 1
        # leave one window in the last chunk.
        model = Forecaster(replace(BENCH_MODEL, n_features=n_features), seed=5)
        rng = np.random.default_rng(n_features)
        for n, chunks in ((129, (1, 7, 64, 128)), (1369, (64, 684, 1368))):
            enc = rng.standard_normal((n, 24, n_features))
            whole = model.predict(enc)
            for chunk in chunks:
                assert _batched_predict(model, enc, chunk).tobytes() == whole.tobytes()

    def test_one_benchmark_step_records_at_most_100_nodes(self, monkeypatch):
        # Every node of the tape one weighted training step walks, leaves
        # included (169 before attention, affine, residual norm and the
        # distillation convolution each became one node).
        counts = []
        real = te.backward

        def counting(loss):
            counts.append(len(te.topo_order(loss)))
            return real(loss)

        monkeypatch.setattr(te, "backward", counting)
        dataset = build_dataset(make_synthetic_frame(seed=1, length=500), 24, 12, 8)
        run_training(dataset, BENCH_MODEL, TrainConfig(
            epochs=1, batch_size=32, seed=1, anomaly_weighting=True, ae_epochs=1,
            activation=BENCH_MODEL.activation))
        assert counts and max(counts) <= 100, max(counts)

    @pytest.mark.parametrize("pretrain", [0, 1])
    def test_best_val_loss_is_the_best_history_entry(self, tiny_dataset, monkeypatch,
                                                     pretrain):
        histories = _capture_stage_histories(monkeypatch)
        cfg = tiny_train_cfg(epochs=3, pretrain_epochs=pretrain)
        _, report = run_training(tiny_dataset, TINY_MODEL, cfg)
        stage2 = histories[-1]
        assert len(stage2) == 3 - pretrain
        assert report.best_val_loss == min(stage2)

    def test_report_predicts_no_validation_windows(self, tiny_dataset, monkeypatch):
        # After a trained stage 2 the report reuses that stage's best val
        # prediction: finishing predicts the test windows only.
        in_finish = []
        seen = []
        real_finish, real_predict = training._finish_report, Forecaster.predict

        def finish(*args, **kwargs):
            in_finish.append(True)
            try:
                return real_finish(*args, **kwargs)
            finally:
                in_finish.pop()

        def predict(self, enc):
            if in_finish:
                seen.append(enc.shape[0])
            return real_predict(self, enc)

        monkeypatch.setattr(training, "_finish_report", finish)
        monkeypatch.setattr(Forecaster, "predict", predict)
        run_training(tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=2))
        splits = tiny_dataset.splits
        assert splits.val.n_windows > 0
        assert sum(seen) == splits.test.n_windows

    def test_no_stage2_epochs_predicts_validation_afresh(self, tiny_dataset):
        # The whole budget pretrains under GELU, so no stage-2 prediction
        # exists; the report must be the gated model's fresh prediction.
        cfg = tiny_train_cfg(epochs=2, pretrain_epochs=2)
        model, report = run_training(tiny_dataset, TINY_MODEL, cfg)
        assert report.activation == model.activation.name != "gelu"
        val = tiny_dataset.splits.val
        assert report.best_val_loss == mse(_batched_predict(model, val.enc), val.tgt)
        assert (report.val_mae, report.val_mse) == _split_metrics(model, tiny_dataset, "val")


class TestWarmStart:
    def test_plan_is_derived_from_pretrain_epochs(self):
        # One setting makes the choice: GELU epochs first make a warm
        # start, none a direct run (the report's plan reads this).
        assert tiny_train_cfg().plan == "direct"
        assert tiny_train_cfg(pretrain_epochs=1).plan == "warm_start"

    def test_pretrain_then_swap(self, tiny_dataset):
        warm = tiny_train_cfg(pretrain_epochs=2, epochs=4)
        model, rep = run_training(tiny_dataset, TINY_MODEL, warm)
        assert rep.plan == "warm_start"
        assert rep.epochs_run <= 4
        # The model ends under the gated activation.
        assert model.cfg.activation.kind == "gated"
        assert "type=1" in rep.activation
        # And the path differs from direct training.
        _, rep_direct = run_training(
            tiny_dataset, TINY_MODEL, tiny_train_cfg(epochs=4))
        assert rep.metric_dict() != rep_direct.metric_dict()


class TestSweep:
    def test_ranks_all_types(self, tiny_dataset):
        cfg = tiny_train_cfg(epochs=1)
        result = sweep_types(tiny_dataset, TINY_MODEL, cfg)
        ids = sorted(e.type_id for e in result.entries)
        assert ids == [1, 2, 3, 4, 5, 6, 7, 8]
        maes = [e.report.val_mae for e in result.entries]
        assert maes == sorted(maes)
        assert result.winner == result.entries[0].type_id
        for e in result.entries:
            assert f"type={e.type_id}" in e.report.activation

    def test_parallel_jobs_same_ranking(self, tiny_dataset):
        cfg = tiny_train_cfg(epochs=1)
        seq = sweep_types(tiny_dataset, TINY_MODEL, cfg, type_ids=(1, 4, 7))
        par = sweep_types(tiny_dataset, TINY_MODEL, cfg, type_ids=(1, 4, 7),
                          jobs=3)
        assert [e.type_id for e in seq.entries] == [e.type_id for e in par.entries]
        assert [e.report.val_mae for e in seq.entries] == [e.report.val_mae for e in par.entries]


class TestFanOut:
    @pytest.mark.parametrize("jobs,n_items,pools", [
        (64, 8, [8]), (2, 8, [2]), (3, 3, [3]), (1, 8, []), (0, 8, []),
        (-1, 8, []), (4, 1, []), (4, 0, []),
    ])
    def test_pool_never_outnumbers_the_work(self, monkeypatch, jobs, n_items, pools):
        # A stand-in pool records the workers asked for and runs the map
        # in this process, so no process is started.
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        monkeypatch.setattr(training, "ProcessPoolExecutor", RecordingPool)
        work = list(range(n_items))
        assert training._fan_out(lambda i: i * i, work, jobs) == [i * i for i in work]
        assert seen == pools


class TestMultiTrial:
    def test_summary_shape_and_determinism(self, tiny_dataset):
        treatment = tiny_train_cfg(epochs=2)
        baseline = tiny_train_cfg(epochs=2,
                                  activation=ActivationMode(kind="gelu"))
        s1 = multi_trial(tiny_dataset, TINY_MODEL, treatment, baseline,
                         n_trials=2)
        s2 = multi_trial(tiny_dataset, TINY_MODEL, treatment, baseline,
                         n_trials=2)
        assert s1.n_trials == 2
        assert s1.baseline_name == "direct/gelu"
        assert s1.win_rate in (0.0, 0.5, 1.0)
        for side in (s1.metrics, s1.baseline_metrics):
            assert set(side) == {"val_mae", "val_mse", "test_mae",
                                 "test_mse", "epochs_to_convergence"}
            for stats in side.values():
                assert stats["min"] <= stats["median"] <= stats["max"]
                assert stats["std"] >= 0.0
        assert repr(s1) == repr(s2)

    def test_parallel_jobs_same_summary(self, tiny_dataset):
        treatment = tiny_train_cfg(epochs=1)
        baseline = tiny_train_cfg(epochs=1,
                                  activation=ActivationMode(kind="gelu"))
        seq = multi_trial(tiny_dataset, TINY_MODEL, treatment, baseline,
                          n_trials=2)
        par = multi_trial(tiny_dataset, TINY_MODEL, treatment, baseline,
                          n_trials=2, jobs=2)
        assert repr(par) == repr(seq)

    def test_n_trials_validated(self, tiny_dataset):
        cfg = tiny_train_cfg(epochs=1)
        with pytest.raises(ValueError):
            multi_trial(tiny_dataset, TINY_MODEL, cfg, cfg, n_trials=0)


class TestSynthetic:
    def test_deterministic_and_bounded(self):
        a = make_synthetic_series(7, length=500)
        b = make_synthetic_series(7, length=500)
        c = make_synthetic_series(8, length=500)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (500,)
        assert np.all(a > -0.81) and np.all(a < 1.01)

    def test_seasonal_component_present(self):
        values = make_synthetic_series(3, length=480)
        # Correlation with the driving sine dominates the chaotic noise.
        t = np.arange(480)
        sine = np.sin(2 * np.pi * t / 48.0)
        corr = np.corrcoef(values, sine)[0, 1]
        assert corr > 0.9

    def test_frame_wrapper(self):
        frame = make_synthetic_frame(2, length=120)
        assert frame.feature_names == ("y",)
        assert frame.target == "y"
        assert frame.n_rows == 120
        assert np.all(np.diff(frame.epochs) == 3600)

    def test_csv_export_round_trips(self, tmp_path):
        path = tmp_path / "synth.csv"
        write_synthetic_ett_csv(path, seed=4, length=100)
        raw = load_csv(path, "ett")
        values = make_synthetic_series(4, length=100)
        assert raw.n_rows == 100
        assert raw.period == 3600
        assert np.array_equal(raw.columns["OT"], values)
        assert np.array_equal(raw.columns["HUFL"], 2.0 * values + 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_synthetic_series(1, length=1)
