"""Command-line front end.

Subcommands: bifurcate, table, train, eval, forecast, sweep-types,
anomaly. All file output lands inside the --out directory (default the
working directory); nothing else on the filesystem is touched.

Exit codes: 0 on success, 1 for runtime problems (missing or malformed
files, diverging runs), 2 for usage or configuration errors (argparse
reports flag misuse as 2 on its own; bad config files report the
offending key).

Run configuration is an INI file of ``key = value`` pairs under [data],
[model] and [train]; any value can be overridden on the command line
with --set section.key=value.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .activation import MetaActivationTable, build_table, write_table
from .data import (
    SCHEMAS,
    CleanConfig,
    Dataset,
    NormStats,
    WindowView,
    _LAST_EPOCH,
    _utf8_lines,
    _window_starts,
    build_dataset,
    clean,
    denormalize_feature,
    epoch_to_text,
    featurize,
    load_csv,
    normalize,
    write_stats,
)
from .model import (
    ActivationMode,
    Forecaster,
    ModelConfig,
    _meta_of,
    _required,
    _scalar_fields,
    _settings,
    load_autoencoder,
    load_forecaster,
    save_autoencoder,
    save_forecaster,
)
from .oscillator import (
    bifurcation_sweep,
    builtin_params,
    builtin_type_ids,
    write_bifurcation_csv,
)
from .training import (
    TrainConfig,
    _split_metrics,
    fit_autoencoder,
    run_training,
    sweep_types,
    write_trial_report,
)

_FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    """Bad configuration; exits with status 2 and names the key."""


# -- config file --------------------------------------------------------------


@dataclass
class DataSpec:
    path: str
    schema: str = "ett"
    enc_len: int = 24
    label_len: int = 12
    horizon: int = 8
    stride: int = 1
    train_ratio: float = 0.7
    val_ratio: float = 0.1
    test_ratio: float = 0.2
    max_ffill_gap: int = CleanConfig.max_ffill_gap
    z_max: float = CleanConfig.z_max
    return_limit: float = CleanConfig.return_limit

    def __post_init__(self) -> None:
        # Each message starts with the key; the config path prefixes it
        # with "data.", the checkpoint path also with the file. A nan
        # setting fails every check.
        _check_schema(self.schema)
        for name in ("enc_len", "horizon", "stride"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name}: expected >= 1, got {getattr(self, name)!r}")
        if not 1 <= self.label_len <= self.enc_len:
            raise ValueError(f"label_len: expected 1..enc_len ({self.enc_len}), "
                             f"got {self.label_len!r}")
        ratios = (self.train_ratio, self.val_ratio, self.test_ratio)
        for name, ratio in zip(("train_ratio", "val_ratio", "test_ratio"), ratios):
            if not (math.isfinite(ratio) and ratio >= 0):
                raise ValueError(f"{name}: expected a finite number >= 0, got {ratio!r}")
        # The sum test build_dataset makes.
        if not math.isclose(sum(ratios), 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError("train_ratio + val_ratio + test_ratio: expected a sum "
                             f"of 1, got {sum(ratios)!r}")
        self.cleaning()

    def cleaning(self) -> CleanConfig:
        """The cleaning thresholds, checked by CleanConfig itself."""
        return CleanConfig(max_ffill_gap=self.max_ffill_gap, z_max=self.z_max,
                           return_limit=self.return_limit)


def _check_schema(schema: str, entry: str = "schema") -> str:
    if schema not in ("ett", "ohlcv"):
        raise ValueError(f"{entry}: expected ett or ohlcv, got {schema!r}")
    return schema


# The window shape is the data's; a checkpoint's model config carries it,
# so its data settings leave it out, and the path, which each run names.
_WINDOW = ("enc_len", "label_len", "horizon")
_UNSTORED = ("path",) + _WINDOW

# Key -> kind of each section, from the dataclasses the section builds.
# [model] also holds the activation mode, whose kind is spelled activation.
_KNOWN_KEYS = {
    "data": _scalar_fields(DataSpec),
    "model": {**_scalar_fields(ModelConfig, skip=_WINDOW + ("n_features", "n_targets")),
              "activation": "str", **_scalar_fields(ActivationMode, skip=("kind",))},
    "train": _scalar_fields(TrainConfig),
}


def load_run_config(path: str, overrides: list[str], seed: int | None = None
                    ) -> tuple[DataSpec, ModelConfig, TrainConfig]:
    """The settings of an INI run configuration with --set overrides, and
    seed, when given, in place of train.seed. Every value is parsed and
    range-checked; ConfigError names section.key. The model has one
    feature until the data sets the real count."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    # Values are literal: a "%" is kept as it is, never interpolated.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(_utf8_lines(fh, path), source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    texts: dict[str, str] = {}
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        texts.update((f"{section}.{key}", value) for key, value in parser.items(section))
    for item in overrides:
        lhs, sep, value = item.partition("=")
        section, dot, key = lhs.strip().partition(".")
        if not sep or not dot or section not in _KNOWN_KEYS:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        texts[f"{section}.{parser.optionxform(key)}"] = value.strip()
    if seed is not None:
        texts["train.seed"] = str(seed)
    for entry in texts:
        section, _, key = entry.partition(".")
        if key not in _KNOWN_KEYS[section]:
            raise ConfigError(f"unknown config key {entry}")
    if "data.path" not in texts:
        raise ConfigError("data.path is required")
    # The command line defaults to the gated activation; the library to GELU.
    kind = texts.get("model.activation", "gated")
    if kind not in ("gelu", "gated"):
        raise ConfigError(f"model.activation: expected gelu or gated, got {kind!r}")
    try:
        spec = _settings(DataSpec, texts, None, "data.")
        mode = _settings(ActivationMode, texts, None, "model.", kind=kind)
        model_cfg = _settings(ModelConfig, texts, None, "model.", activation=mode,
                              **{k: getattr(spec, k) for k in _WINDOW})
        train_cfg = _settings(TrainConfig, texts, None, "train.", activation=mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return spec, model_cfg, train_cfg


def _configure(args):
    """The data and the model and training configs of a run configuration.

    Every value is parsed and range-checked before the data is read; the
    data then sets the model's feature count."""
    spec, model_cfg, train_cfg = load_run_config(args.config, args.set or [], args.seed)
    dataset, cleaned = _prepare_dataset(spec, args)
    model_cfg = replace(model_cfg, n_features=dataset.frame.n_features)
    return spec, dataset, cleaned, model_cfg, train_cfg


# -- shared plumbing -----------------------------------------------------------


def _vlog(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"--range expects lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"--range expects numbers, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"--range expects finite lo < hi, got {text!r}")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"--range expects a finite hi - lo, got {text!r}")
    return lo, hi


def _load_frame(path: str, schema: str, cleaning: CleanConfig, args):
    _vlog(args, f"loading {path} ({schema})")
    cleaned = clean(load_csv(path, schema), cleaning)
    frame = featurize(cleaned)
    _vlog(args, f"{cleaned.n_rows} rows, {frame.n_features} features, "
                f"{len(cleaned.report)} cleaning actions")
    return frame, cleaned


def _prepare_dataset(spec: DataSpec, args, stats: NormStats | None = None):
    """Load, clean and featurize spec's file and cut its windows; given
    stats (a checkpoint's), normalize with them."""
    frame, cleaned = _load_frame(spec.path, spec.schema, spec.cleaning(), args)
    try:
        dataset = build_dataset(
            frame,
            enc_len=spec.enc_len,
            label_len=spec.label_len,
            horizon=spec.horizon,
            stride=spec.stride,
            ratios=(spec.train_ratio, spec.val_ratio, spec.test_ratio),
            stats=stats,
        )
    except ValueError as exc:  # too few rows for the windows
        raise ValueError(f"{spec.path}: {exc}") from None
    return dataset, cleaned


def _dataset_meta(spec: DataSpec, dataset: Dataset) -> dict[str, str]:
    return {
        **_meta_of(spec, "data.", skip=_UNSTORED),
        "data.target": dataset.frame.target,
        "norm.names": ",".join(dataset.stats.names),
        "norm.dropped": ",".join(dataset.stats.dropped),
    }


def _spec_from_meta(meta: dict[str, str], cfg: ModelConfig, path: str,
                    checkpoint: str) -> DataSpec:
    return _settings(DataSpec, meta, checkpoint, "data.", path=path,
                     **{k: getattr(cfg, k) for k in _WINDOW})


def _check_target(meta: dict[str, str], schema: str, checkpoint: str) -> None:
    """Refuse a model file whose data.target is not its schema's target."""
    target = _required(meta, "data.target", checkpoint)
    expected = SCHEMAS[schema]["target"]
    if target != expected:
        raise ValueError(f"{checkpoint}: data.target: expected {expected}, got {target}")


def _stats_from_extra(extra: dict[str, np.ndarray], meta: dict[str, str],
                      checkpoint: str) -> NormStats:
    def names(key):
        return tuple(n for n in _required(meta, key, checkpoint).split(",") if n)

    kept = names("norm.names")
    mean, std = (_required(extra, key, checkpoint) for key in ("norm.mean", "norm.std"))
    dropped = names("norm.dropped")
    try:
        return NormStats(kept, mean, std, dropped)
    except ValueError as exc:
        raise ValueError(f"{checkpoint}: norm.{exc}") from None


# -- subcommands ----------------------------------------------------------------


def cmd_bifurcate(args) -> int:
    lo, hi = _parse_range(args.range)
    for flag, value in (("--n", args.n), ("--keep", args.keep)):
        if value < 1:
            raise ConfigError(f"{flag}: expected >= 1, got {value}")
    if args.keep > args.steps:
        raise ConfigError(f"--keep ({args.keep}) cannot exceed --steps ({args.steps})")
    data = bifurcation_sweep(
        builtin_params(args.type), lo, hi,
        n_x=args.n, n_steps=args.steps, keep_last=args.keep,
    )
    path = os.path.join(_out_dir(args), f"bifurcation_type{args.type}.csv")
    write_bifurcation_csv(data, path)
    print(path)
    return 0


def cmd_table(args) -> int:
    if args.nodes < 2:
        raise ConfigError(f"--nodes must be >= 2, got {args.nodes}")
    lo, hi = _parse_range(args.range)
    try:  # the grid alone, so that one too fine for float64 is refused unsimulated
        MetaActivationTable(args.type, lo, hi, np.zeros(args.nodes))
    except ValueError:
        raise ConfigError(f"--range expects a node spacing that float64 resolves at "
                          f"--nodes {args.nodes}, got {args.range!r}") from None
    tab = build_table(
        builtin_params(args.type), lo, hi, args.nodes, type_id=args.type
    )
    path = os.path.join(_out_dir(args), f"activation_table_type{args.type}.txt")
    write_table(tab, path)
    print(path)
    return 0


def cmd_train(args) -> int:
    spec, dataset, cleaned, model_cfg, train_cfg = _configure(args)
    _vlog(args, f"training plan={train_cfg.plan} "
                f"activation={model_cfg.activation.kind} seed={train_cfg.seed}")
    ae = weights = None
    if train_cfg.anomaly_weighting:
        # Fitted once: training takes its weights and autoencoder.bin saves it.
        ae, weights = fit_autoencoder(
            dataset.splits.train.enc,
            hidden=train_cfg.ae_hidden,
            bottleneck=train_cfg.ae_bottleneck,
            seed=train_cfg.seed,
            epochs=train_cfg.ae_epochs,
        )
    model, report = run_training(dataset, model_cfg, train_cfg, weights)
    out = _out_dir(args)
    ckpt = os.path.join(out, "checkpoint.bin")
    # The run's data record: both model files carry it, so each restores
    # the run's data pass on its own.
    record = {"extra_tensors": {"norm.mean": dataset.stats.mean,
                                "norm.std": dataset.stats.std},
              "extra_meta": _dataset_meta(spec, dataset)}
    save_forecaster(ckpt, model, **record)
    write_stats(os.path.join(out, "norm_stats.txt"), dataset.stats)
    write_trial_report(os.path.join(out, "report.txt"), report)
    with open(os.path.join(out, "cleaning_report.txt"), "w", encoding="utf-8") as fh:
        for action in cleaned.report:
            fh.write(action.render() + "\n")
    if ae is not None:
        save_autoencoder(os.path.join(out, "autoencoder.bin"), ae, **record)
    print(ckpt)
    print(f"test_mae = {_FLOAT_FMT % report.test_mae}")
    print(f"test_mse = {_FLOAT_FMT % report.test_mse}")
    return 0


def _restore(args) -> tuple[Forecaster, Dataset]:
    """Load a checkpoint and cut the data's windows with its statistics.

    The windows come from build_dataset, as training's do, so too few
    training rows, no training windows or a feature set other than the
    checkpoint's fail exactly as training on the data would.
    """
    model, extra, meta = load_forecaster(args.checkpoint)
    stats = _stats_from_extra(extra, meta, args.checkpoint)
    spec = _spec_from_meta(meta, model.cfg, args.data, args.checkpoint)
    _check_target(meta, spec.schema, args.checkpoint)
    dataset, _ = _prepare_dataset(spec, args, stats)
    return model, dataset


def cmd_eval(args) -> int:
    # The metrics training writes to report.txt, from the same function.
    model, dataset = _restore(args)
    for name in ("train", "val", "test"):
        split_mae, split_mse = _split_metrics(model, dataset, name)
        print(f"{name}_mae = {_FLOAT_FMT % split_mae}")
        print(f"{name}_mse = {_FLOAT_FMT % split_mse}")
    return 0


def cmd_forecast(args) -> int:
    model, dataset = _restore(args)
    stats, frame = dataset.stats, dataset.frame
    enc_len, n = model.cfg.enc_len, frame.n_rows
    # _restore's build_dataset found a training window, so n >= enc_len.
    starts = _window_starts(frame.segment_ids, n - enc_len, n, enc_len, 1)
    if starts.size == 0:
        raise RuntimeError(f"{args.data}: the final window straddles a data gap; "
                           "cannot forecast from it")
    last_epoch = int(frame.epochs[n - 1])
    if last_epoch + model.cfg.horizon * frame.period > _LAST_EPOCH:
        raise ValueError(f"{args.data}: the forecast horizon passes "
                         f"{epoch_to_text(_LAST_EPOCH)}; cannot forecast from it")
    # The final window, C-contiguous as training's; its targets lie past the data.
    enc = WindowView(frame.data, starts, enc_len)[:]
    pred = model.predict(enc)[0, :, 0]
    values = denormalize_feature(pred, stats, frame.target)
    path = os.path.join(_out_dir(args), "forecast.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,forecast\n")
        for h, v in enumerate(values, start=1):
            fh.write(
                f"{epoch_to_text(last_epoch + h * frame.period)},"
                f"{_FLOAT_FMT % v}\n"
            )
    print(path)
    return 0


def cmd_sweep_types(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs: expected >= 1, got {args.jobs}")
    _, dataset, _, model_cfg, train_cfg = _configure(args)
    result = sweep_types(dataset, model_cfg, train_cfg, jobs=args.jobs)
    path = os.path.join(_out_dir(args), "sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank,type_id,val_mae,test_mae\n")
        for rank, entry in enumerate(result.entries, start=1):
            fh.write(
                f"{rank},{entry.type_id},{_FLOAT_FMT % entry.report.val_mae},"
                f"{_FLOAT_FMT % entry.report.test_mae}\n"
            )
    print(path)
    print(f"winner = type {result.winner}")
    return 0


def _restore_autoencoder(path: str):
    """An autoencoder file's model, data schema, cleaning thresholds and
    statistics; a ValueError names the file and the first entry that is
    missing, malformed or out of range."""
    ae, extra, meta = load_autoencoder(path)
    stats = _stats_from_extra(extra, meta, path)
    if len(stats.names) != ae.n_features:
        raise ValueError(f"{path}: norm.names lists {len(stats.names)} features "
                         f"but the autoencoder takes {ae.n_features}")
    schema = _check_schema(_required(meta, "data.schema", path), f"{path}: data.schema")
    _check_target(meta, schema, path)
    return ae, schema, _settings(CleanConfig, meta, path, "data."), stats


def cmd_anomaly(args) -> int:
    ae, schema, cleaning, stats = _restore_autoencoder(args.ae)
    frame, _ = _load_frame(args.data, schema, cleaning, args)
    try:
        frame = normalize(frame, stats)
    except ValueError as exc:  # the statistics lack a feature of the data
        raise ValueError(f"{args.ae}: norm.names do not fit the features of "
                         f"{args.data}: {exc}") from None
    length = ae.window_len
    # Non-overlapping windows from the first row on, each scored once
    # unless it straddles a data gap, in chunks with the bits of one batch.
    starts = _window_starts(frame.segment_ids, 0, frame.n_rows, length, length)
    if starts.size == 0:
        raise RuntimeError(f"{args.data}: need {length} rows in one segment to score, "
                           f"have {frame.n_rows} rows")
    errors = ae.step_errors(WindowView(frame.data, starts, length))
    weights = ae.error_weights(errors)
    path = os.path.join(_out_dir(args), "anomaly.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("window,timestamp,step_error,window_weight\n")
        for w, start in enumerate(starts):
            for offset, err in enumerate(errors[w]):
                epoch = int(frame.epochs[start + offset])
                fh.write(
                    f"{w},{epoch_to_text(epoch)},{_FLOAT_FMT % err},"
                    f"{_FLOAT_FMT % weights[w]}\n"
                )
    print(path)
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory (default: current)")
    common.add_argument("--verbose", action="store_true",
                        help="progress chatter on stderr")
    # The flags of the subcommands that train from a run configuration.
    run_cfg = argparse.ArgumentParser(add_help=False)
    run_cfg.add_argument("--config", required=True, help="INI run configuration file")
    run_cfg.add_argument("--seed", type=int, help="override the configured seed")
    run_cfg.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                         help="override one config value (repeatable)")

    parser = argparse.ArgumentParser(
        prog="cotn",
        description="Chaotic-oscillator activations and a toy transformer "
                    "forecaster for volatile time series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bifurcate", parents=[common],
                       help="sweep a stimulus grid and dump settled outputs")
    p.add_argument("--type", type=int, default=1, choices=builtin_type_ids(),
                   help="oscillator type")
    p.add_argument("--range", default="-1:1", help="stimulus range lo:hi")
    p.add_argument("--n", type=int, default=401, help="grid points")
    p.add_argument("--steps", type=int, default=300, help="steps per point")
    p.add_argument("--keep", type=int, default=100, help="retained tail values")
    p.set_defaults(func=cmd_bifurcate)

    p = sub.add_parser("table", parents=[common],
                       help="tabulate a max-over-time activation")
    p.add_argument("--type", type=int, default=1, choices=builtin_type_ids(),
                   help="oscillator type")
    p.add_argument("--range", default="-4:4", help="tabulated range lo:hi")
    p.add_argument("--nodes", type=int, default=4001, help="grid nodes")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("train", parents=[common, run_cfg],
                       help="train a forecaster per the config file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="score a checkpoint against a data file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("forecast", parents=[common],
                       help="forecast past the end of a data file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("sweep-types", parents=[common, run_cfg],
                       help="train all oscillator types, rank by val MAE")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(func=cmd_sweep_types)

    p = sub.add_parser("anomaly", parents=[common],
                       help="per-step reconstruction errors for a data file")
    p.add_argument("--data", required=True)
    p.add_argument("--ae", required=True,
                   help="autoencoder.bin of a training run, which holds its "
                        "schema, cleaning and statistics")
    p.set_defaults(func=cmd_anomaly)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        # MemoryError: a size numpy cannot allocate, such as table --nodes 1e11.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
