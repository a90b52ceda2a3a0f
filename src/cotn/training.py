"""Training protocol: stages, warm starts, type sweeps and paired trials.

A training run minimizes forecast MSE on normalized windows plus a small
distillation consistency term, with per-window anomaly weights softly
down-weighting suspect samples. Validation loss (plain normalized MSE)
drives early stopping and best-checkpoint selection; reported MAE/MSE
are computed on denormalized values.

Determinism contract: every stochastic choice (parameter init, batch
order, autoencoder fit, synthetic data) flows from explicit integer
seeds through numpy Generators, so two runs with identical configs agree
bit-for-bit on everything except wall-clock time.

Warm starting trains with GELU for a few epochs, then swaps the gated
activation in place (parameters carried bit-exactly) and fine-tunes all
parameters for the remaining budget. A stage of zero epochs consumes no
randomness, so pretrain_epochs=0 is bit-identical to direct training,
which runs as exactly that: a warm start with no GELU epochs.
"""

from __future__ import annotations

import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import tensor as te
from .data import Dataset, FeatureFrame, WindowView, denormalize_feature
from .model import (
    ActivationMode,
    Autoencoder,
    Forecaster,
    ModelConfig,
    distill_loss,
)

__all__ = [
    "TrainConfig",
    "TrialReport",
    "StatsSummary",
    "SweepEntry",
    "SweepResult",
    "Adam",
    "mae",
    "mse",
    "fit_autoencoder",
    "run_training",
    "sweep_types",
    "multi_trial",
    "make_synthetic_series",
    "make_synthetic_frame",
    "write_synthetic_ett_csv",
    "write_trial_report",
]

_FLOAT_FMT = "%.17g"

_SUMMARY_METRICS = ("val_mae", "val_mse", "test_mae", "test_mse",
                    "epochs_to_convergence")

# Adam's moment decays and denominator guard, and the autoencoder fit's
# batch size and base rate: one value each in every run.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
AE_BATCH_SIZE, AE_LR = 64, 1e-3


def _errors(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """pred - target, once their shapes agree and are not empty."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("cannot score empty arrays")
    return p - t


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error over all elements."""
    return float(np.mean(np.abs(_errors(pred, target))))


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over all elements."""
    return float(np.mean(_errors(pred, target) ** 2))


class Adam:
    """Adaptive moment estimation over a named parameter dict.

    The moments of all parameters live in one flat array each, in the
    dict's order, so a step is one pass of elementwise arithmetic; each
    element sees the same operations as a per-parameter update would.
    """

    def __init__(self, params: dict[str, te.Tensor]):
        self.params = params
        self.t = 0
        sizes = [p.data.size for p in params.values()]
        self._bounds = np.cumsum([0] + sizes)
        self.m = np.zeros(self._bounds[-1])
        self.v = np.zeros(self._bounds[-1])

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        g = np.concatenate([
            p.grad.ravel() if p.grad is not None else np.zeros(p.data.size)
            for p in self.params.values()
        ])
        m = self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * g
        v = self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * (g * g)
        upd = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        for p, lo, hi in zip(self.params.values(), self._bounds, self._bounds[1:]):
            p.data = p.data - upd[lo:hi].reshape(p.data.shape)


def _cosine_lr(base: float, epoch: int, total: int) -> float:
    return base * 0.5 * (1.0 + math.cos(math.pi * epoch / total))


@dataclass(frozen=True)
class TrainConfig:
    """One training run's hyperparameters and plan."""

    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    lr_schedule: str = "cosine"  # "cosine" | "constant"
    seed: int = 1
    patience: int = 10
    w_distill: float = 0.05
    pretrain_epochs: int = 0
    activation: ActivationMode = field(default_factory=ActivationMode)
    anomaly_weighting: bool = True
    ae_hidden: int = 32
    ae_bottleneck: int = 8
    ae_epochs: int = 40

    def __post_init__(self) -> None:
        # Each message starts with the setting's name; nan fails every
        # check, and inf fails the rate and the weight.
        for name, ok, want in (
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("patience", self.patience >= 0, ">= 0"),
            ("seed", self.seed >= 0, ">= 0"),
            ("lr", 0 < self.lr < math.inf, "a finite number > 0"),
            ("w_distill", 0 <= self.w_distill < math.inf, "a finite number >= 0"),
            ("lr_schedule", self.lr_schedule in ("cosine", "constant"), "cosine or constant"),
            ("pretrain_epochs", 0 <= self.pretrain_epochs <= self.epochs, "0..epochs"),
            ("ae_hidden", self.ae_hidden >= 1, ">= 1"),
            ("ae_bottleneck", self.ae_bottleneck >= 1, ">= 1"),
            ("ae_epochs", self.ae_epochs >= 1, ">= 1"),
        ):
            if not ok:
                raise ValueError(f"{name}: expected {want}, got {getattr(self, name)!r}")

    @property
    def plan(self) -> str:
        """warm_start when GELU epochs come first, direct otherwise."""
        return "warm_start" if self.pretrain_epochs > 0 else "direct"


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one training run.

    Two runs with identical seeds produce identical reports except for
    wall_time_s; metric_dict() exposes exactly the reproducible part.
    wall_time_s counts an autoencoder fit made during the run, not one
    whose weights were passed in. The training split is not scored: only
    ``cotn train``'s report.txt reads its metrics, and it scores them itself.
    """

    seed: int
    activation: str
    plan: str
    epochs_run: int
    epochs_to_convergence: int
    best_val_loss: float
    val_mae: float
    val_mse: float
    test_mae: float
    test_mse: float
    wall_time_s: float

    def metric_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "wall_time_s"}


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return _FLOAT_FMT % v
    return str(v)


def write_trial_report(path, report: TrialReport, train: tuple[float, float]) -> None:
    """Write a report as ``key = value`` lines (wall time included), with
    train, the training split's (MAE, MSE), as train_mae and train_mse
    after best_val_loss."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in report.metric_dict().items():
            fh.write(f"{key} = {_fmt_value(val)}\n")
            if key == "best_val_loss":
                fh.write(f"train_mae = {_FLOAT_FMT % train[0]}\n")
                fh.write(f"train_mse = {_FLOAT_FMT % train[1]}\n")
        fh.write(f"wall_time_s = {_FLOAT_FMT % report.wall_time_s}\n")


# -- loss/metric helpers ------------------------------------------------------


def _batched_predict(model: Forecaster, enc, chunk: int = 64) -> np.ndarray:
    """The model's prediction of windows enc (an array or a split's
    WindowView), cut and predicted chunk windows at a time."""
    # Chunks of a multiple of 4 windows predict the bits of one batch:
    # numpy's OpenBLAS rounds the (n, 1) row-sum GEMMs by a row's position
    # modulo 4, and such a chunk moves every row by a multiple of 4. Other
    # chunks (one window, as `forecast` predicts) match only when every
    # per-window row count (enc_len, the distilled lengths, label_len +
    # horizon, horizon) is a multiple of 4. The chunk is small so that each
    # chunk's score arrays stay in cache and reuse freed pages: at 512
    # windows they take 2.4 MB and more, and predicting the 12,163
    # training windows of a 17k-row ETT file spent 0.4-0.5 s of system
    # time faulting in fresh pages, against none at 64 or 128.
    parts = []
    for lo in range(0, enc.shape[0], chunk):
        parts.append(model.predict(enc[lo : lo + chunk]))
    return np.concatenate(parts, axis=0)


def _split_metrics(model: Forecaster, dataset: Dataset, which: str,
                   pred: Optional[np.ndarray] = None) -> tuple[float, float]:
    """Denormalized MAE and MSE of a split; pred, when given, is the
    model's prediction of that split and is used instead of predicting."""
    batch = getattr(dataset.splits, which)
    if batch.n_windows == 0:
        return math.nan, math.nan
    if pred is None:
        pred = _batched_predict(model, batch.enc)
    target_name = dataset.frame.target
    p = denormalize_feature(pred, dataset.stats, target_name)
    t = denormalize_feature(batch.tgt, dataset.stats, target_name)
    return mae(p, t), mse(p, t)


def _epochs_to_convergence(history: list[float]) -> int:
    threshold = min(history) * 1.01
    # The best entry meets the bound; only a NaN best runs to the end.
    for idx, v in enumerate(history, start=1):
        if v <= threshold:
            break
    return idx


# -- autoencoder fitting ------------------------------------------------------


def fit_autoencoder(
    windows,
    hidden: int = 32,
    bottleneck: int = 8,
    seed: int = 0,
    epochs: int = 40,
) -> tuple[Autoencoder, np.ndarray]:
    """Train a window autoencoder on reconstruction MSE, fit its anomaly
    threshold on the same windows and return it with those windows'
    sample weights, from the errors the threshold was fitted on. Each
    step takes the loss and gradients from Autoencoder.loss_and_grads,
    off the tape, and hands the gradients to Adam as .grad.

    windows is an (n, window_len, n_features) array or a split's
    WindowView; each batch is cut from it and flattened as it is used.
    """
    if not isinstance(windows, WindowView):
        windows = np.asarray(windows, dtype=np.float64)
    if len(windows.shape) != 3 or windows.shape[0] < 1:
        raise ValueError(
            f"expected (n, window_len, n_features) windows, got {windows.shape}")
    n, length, feats = windows.shape
    ae = Autoencoder(length, feats, hidden=hidden, bottleneck=bottleneck, seed=seed)
    rng = np.random.default_rng(seed)
    opt = Adam(ae.params)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, AE_BATCH_SIZE):
            idx = order[lo : lo + AE_BATCH_SIZE]
            loss, grads = ae.loss_and_grads(windows[idx].reshape(idx.size, -1))
            if not math.isfinite(loss):
                raise RuntimeError(f"autoencoder diverged at epoch {epoch + 1}")
            for name, p in ae.params.items():
                p.grad = grads[name]
            opt.step(_cosine_lr(AE_LR, epoch, epochs))
    return ae, ae.error_weights(ae.fit_threshold(windows))


# -- core stage loop ----------------------------------------------------------


def _stage_loop(
    model: Forecaster,
    dataset: Dataset,
    cfg: TrainConfig,
    rng: np.random.Generator,
    epochs: int,
    weights: Optional[np.ndarray],
) -> tuple[list[float], Optional[np.ndarray]]:
    """Train in place for up to ``epochs`` epochs with early stopping.

    Returns the per-epoch validation history (one entry per epoch run)
    and the validation prediction of the best epoch (None when no epoch
    ran or none improved on inf); on exit the model holds the stage-best
    parameters, whose prediction that is.
    """
    if epochs == 0:
        return [], None
    train = dataset.splits.train
    n = train.n_windows
    opt = Adam(model.params)
    history: list[float] = []
    best_val = math.inf
    best_state: Optional[dict[str, np.ndarray]] = None
    best_pred: Optional[np.ndarray] = None
    since_best = 0
    for epoch in range(epochs):
        lr = (
            _cosine_lr(cfg.lr, epoch, epochs)
            if cfg.lr_schedule == "cosine"
            else cfg.lr
        )
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            pred, pairs = model.forward(train.enc[idx])
            diff = te.sub(pred, te.constant(train.tgt[idx]))
            sq = te.mul(diff, diff)
            if weights is not None:
                wb = weights[idx]
                sq = te.mul(sq, te.constant(wb.reshape(-1, 1, 1)))
                base = te.scale(te.mean_all(sq), idx.size / float(wb.sum()))
            else:
                base = te.mean_all(sq)
            loss = base
            if cfg.w_distill > 0 and pairs:
                d_total = None
                for pre, pooled in pairs:
                    term = distill_loss(pre, pooled)
                    d_total = term if d_total is None else te.add(d_total, term)
                loss = te.add(
                    base, te.scale(d_total, cfg.w_distill / len(pairs))
                )
            if not math.isfinite(loss.item()):
                raise RuntimeError(
                    f"training diverged (non-finite loss) at epoch {epoch + 1}"
                )
            model.zero_grad()
            te.backward(loss)
            opt.step(lr)
        pred = _batched_predict(model, dataset.splits.val.enc)
        val = mse(pred, dataset.splits.val.tgt)
        history.append(val)
        if val < best_val:
            best_val = val
            best_state, best_pred = model.state_arrays(), pred
            since_best = 0
        else:
            since_best += 1
            if since_best > cfg.patience:
                break
    if best_state is not None:
        model.load_state_arrays(best_state)
    return history, best_pred


def _require_windows(dataset: Dataset) -> None:
    # Refused before any fit or epoch: an epoch needs both splits' windows.
    for split, name in ((dataset.splits.train, "training"), (dataset.splits.val, "validation")):
        if split.n_windows == 0:
            raise ValueError(f"{name} split has no windows")


def _anomaly_weights(dataset: Dataset, cfg: TrainConfig) -> Optional[np.ndarray]:
    """The training windows' anomaly weights of cfg, None when it does
    not weight. They depend only on those windows, cfg.seed and the ae_*
    settings, so runs that share these can share them."""
    if not cfg.anomaly_weighting:
        return None
    return fit_autoencoder(dataset.splits.train.enc, hidden=cfg.ae_hidden,
                           bottleneck=cfg.ae_bottleneck, seed=cfg.seed,
                           epochs=cfg.ae_epochs)[1]


def _finish_report(
    model: Forecaster,
    dataset: Dataset,
    cfg: TrainConfig,
    history: list[float],
    t0: float,
    val_pred: Optional[np.ndarray],
) -> TrialReport:
    # val_pred is the model's validation prediction when the caller has it
    # (predict is deterministic, so it equals a fresh one bit for bit).
    if val_pred is None:
        val_pred = _batched_predict(model, dataset.splits.val.enc)
    final_val = mse(val_pred, dataset.splits.val.tgt)
    val_mae, val_mse = _split_metrics(model, dataset, "val", val_pred)
    test_mae, test_mse = _split_metrics(model, dataset, "test")
    return TrialReport(
        seed=cfg.seed,
        activation=model.activation.name,
        plan=cfg.plan,
        epochs_run=len(history),
        epochs_to_convergence=_epochs_to_convergence(history),
        best_val_loss=final_val,
        val_mae=val_mae,
        val_mse=val_mse,
        test_mae=test_mae,
        test_mse=test_mse,
        wall_time_s=time.perf_counter() - t0,
    )


def run_training(
    dataset: Dataset, model_cfg: ModelConfig, cfg: TrainConfig,
    weights: Optional[np.ndarray] = None,
) -> tuple[Forecaster, TrialReport]:
    """Build a model and train it per the config's plan.

    Minimizes anomaly-weighted forecast MSE plus w_distill times the
    distillation consistency loss, with Adam and an optional cosine
    schedule; early stopping keeps the best-validation parameters. A warm
    start first trains pretrain_epochs under GELU, then swaps cfg's
    activation in (no parameter changes) and fine-tunes for the rest of
    the budget; a direct run is a warm start with no GELU epochs. Both
    stages share one rng and one set of anomaly weights, and the
    validation histories concatenate for the convergence measure.

    ``weights``, one per training window, are anomaly weights to train
    with in place of the run's own, so runs that share one autoencoder
    fit make it once; a run passed _anomaly_weights(dataset, cfg) is
    bit-identical to one that fits its own. The report's wall_time_s
    then leaves the fit out.
    """
    _require_windows(dataset)
    n = dataset.splits.train.n_windows
    if weights is not None and weights.shape != (n,):
        raise ValueError(f"weights: expected shape ({n},), one per training window, "
                         f"got {weights.shape}")
    model = Forecaster(
        replace(model_cfg, activation=ActivationMode(kind="gelu")), seed=cfg.seed
    )
    t0 = time.perf_counter()
    if weights is None:
        weights = _anomaly_weights(dataset, cfg)
    rng = np.random.default_rng(cfg.seed)
    h1, _ = _stage_loop(model, dataset, cfg, rng, cfg.pretrain_epochs, weights)
    model.set_activation(cfg.activation)
    # Stage 2's best prediction is the final model's. Without one (no stage
    # 2 epochs), stage 1's would be stale: the activation has changed since.
    h2, val_pred = _stage_loop(model, dataset, cfg, rng,
                               cfg.epochs - cfg.pretrain_epochs, weights)
    report = _finish_report(model, dataset, cfg, h1 + h2, t0, val_pred)
    return model, report


# -- sweeps and trials --------------------------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    type_id: int
    report: TrialReport


@dataclass(frozen=True)
class SweepResult:
    """Per-type results ranked by validation MAE (best first)."""

    entries: tuple[SweepEntry, ...]

    @property
    def winner(self) -> int:
        return self.entries[0].type_id


def _fan_out(fn, work: list, jobs: int) -> list:
    """[fn(item) for item in work], over min(jobs, len(work)) processes
    when jobs > 1 and there is more than one item."""
    if jobs > 1 and len(work) > 1:
        # The pool forks all its workers up front; more than one per item
        # would only sit idle.
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            return list(pool.map(fn, work))
    return [fn(item) for item in work]


def _run_sweep_one(args) -> "SweepEntry":
    dataset, model_cfg, cfg, type_id, weights = args
    mode = ActivationMode(kind="gated", type_id=type_id, lam=cfg.activation.lam)
    _, report = run_training(dataset, model_cfg, replace(cfg, activation=mode), weights)
    return SweepEntry(type_id, report)


def sweep_types(
    dataset: Dataset,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    type_ids: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
    jobs: int = 1,
) -> SweepResult:
    """Train one gated model per oscillator type under a shared seed and
    rank the types by validation MAE.

    Each type is an independent run, so jobs > 1 fans them out over
    processes; the ranking is identical either way. The types differ only
    in activation, so the anomaly autoencoder is fitted once, here, and
    every run trains with its weights.
    """
    _require_windows(dataset)
    weights = _anomaly_weights(dataset, cfg)
    work = [(dataset, model_cfg, cfg, t, weights) for t in type_ids]
    entries = _fan_out(_run_sweep_one, work, jobs)
    ranked = tuple(sorted(entries, key=lambda e: (e.report.val_mae, e.type_id)))
    return SweepResult(ranked)


@dataclass(frozen=True)
class StatsSummary:
    """Aggregate of repeated paired trials.

    metrics/baseline_metrics map metric name -> {mean, median, std, min,
    max} over trials; win_rate is the fraction of seeds where the
    treatment beat the baseline on test MAE.
    """

    n_trials: int
    baseline_name: str
    metrics: dict[str, dict[str, float]]
    baseline_metrics: dict[str, dict[str, float]]
    win_rate: float


def _aggregate(values: list[float]) -> dict[str, float]:
    return {
        "mean": float(statistics.fmean(values)),
        "median": float(statistics.median(values)),
        "std": float(statistics.pstdev(values)),
        "min": float(min(values)),
        "max": float(max(values)),
    }


def _ae_settings(cfg: TrainConfig) -> tuple[int, int, int]:
    return cfg.ae_hidden, cfg.ae_bottleneck, cfg.ae_epochs


def _run_pair(args) -> tuple[TrialReport, TrialReport]:
    dataset, model_cfg, t_cfg, b_cfg, seed = args
    t_cfg, b_cfg = replace(t_cfg, seed=seed), replace(b_cfg, seed=seed)
    # Both arms share the seed; with the same ae_* settings they would fit
    # the same autoencoder, so it is fitted once for the pair.
    t_weights = _anomaly_weights(dataset, t_cfg)
    share = b_cfg.anomaly_weighting and _ae_settings(b_cfg) == _ae_settings(t_cfg)
    _, t_report = run_training(dataset, model_cfg, t_cfg, t_weights)
    _, b_report = run_training(dataset, model_cfg, b_cfg, t_weights if share else None)
    return t_report, b_report


def multi_trial(
    dataset: Dataset,
    model_cfg: ModelConfig,
    treatment_cfg: TrainConfig,
    baseline_cfg: TrainConfig,
    n_trials: int,
    jobs: int = 1,
) -> StatsSummary:
    """Run seeds 1..n_trials over a treatment/baseline pair.

    Each seed trains both arms with identical data order and initial
    parameters; when both arms weight with the same ae_* settings they
    share one autoencoder fit per seed. The summary aggregates treatment
    and baseline metrics and the paired test-MAE win rate of the
    treatment; the baseline is named plan/activation kind.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    _require_windows(dataset)
    work = [
        (dataset, model_cfg, treatment_cfg, baseline_cfg, seed)
        for seed in range(1, n_trials + 1)
    ]
    results = _fan_out(_run_pair, work, jobs)
    t_reports = [t for t, _ in results]
    b_reports = [b for _, b in results]
    wins = sum(1 for t, b in results if t.test_mae < b.test_mae)
    metrics = {
        key: _aggregate([getattr(r, key) for r in t_reports])
        for key in _SUMMARY_METRICS
    }
    baseline_metrics = {
        key: _aggregate([getattr(r, key) for r in b_reports])
        for key in _SUMMARY_METRICS
    }
    return StatsSummary(
        n_trials=n_trials,
        baseline_name=f"{baseline_cfg.plan}/{baseline_cfg.activation.kind}",
        metrics=metrics,
        baseline_metrics=baseline_metrics,
        win_rate=wins / n_trials,
    )


# -- synthetic benchmark ------------------------------------------------------


def make_synthetic_series(seed: int, length: int = 2000) -> np.ndarray:
    """Seasonal sine plus logistic-map noise.

    value(t) = 0.8 * sin(2*pi*t / 48) + 0.2 * z(t) where z follows the
    chaotic logistic map z' = 3.9 * z * (1 - z) from a seeded start.
    """
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    rng = np.random.default_rng(seed)
    z = float(rng.uniform(0.2, 0.8))
    values = np.empty(length, dtype=np.float64)
    for t in range(length):
        z = 3.9 * z * (1.0 - z)
        values[t] = 0.8 * math.sin(2.0 * math.pi * t / 48.0) + 0.2 * z
    return values


_SYNTH_EPOCH0 = 1577836800  # 2020-01-01 00:00:00 UTC
_HOUR = 3600


def make_synthetic_frame(seed: int, length: int = 2000) -> FeatureFrame:
    """Wrap the synthetic series as a one-feature hourly FeatureFrame."""
    values = make_synthetic_series(seed, length)
    epochs = _SYNTH_EPOCH0 + _HOUR * np.arange(length, dtype=np.int64)
    return FeatureFrame(
        epochs=epochs,
        segment_ids=np.zeros(length, dtype=np.int64),
        data=values[:, None].copy(),
        feature_names=("y",),
        target="y",
        period=_HOUR,
    )


def write_synthetic_ett_csv(path, seed: int, length: int = 2000) -> None:
    """Emit the synthetic benchmark as a well-formed hourly ETT file.

    OT carries the benchmark series; the load columns are smooth
    deterministic transforms of it so every column varies.
    """
    values = make_synthetic_series(seed, length)
    shifted = np.roll(values, 1)
    shifted[0] = values[0]
    cols = {
        "HUFL": 2.0 * values + 1.0,
        "HULL": 0.5 * shifted - 0.2,
        "MUFL": 1.5 * values - 0.4,
        "MULL": 0.7 * shifted + 0.1,
        "LUFL": values * values,
        "LULL": 0.3 * values + 0.05 * shifted,
        "OT": values,
    }
    epochs = _SYNTH_EPOCH0 + _HOUR * np.arange(length, dtype=np.int64)
    from .data import epoch_to_text

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date," + ",".join(cols) + "\n")
        for i, e in enumerate(epochs):
            row = ",".join(_FLOAT_FMT % cols[name][i] for name in cols)
            fh.write(f"{epoch_to_text(int(e))},{row}\n")
