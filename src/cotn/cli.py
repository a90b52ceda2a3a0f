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
from .activation import build_table, write_table
from .data import (
    CleanConfig,
    Dataset,
    NormStats,
    WindowView,
    _utf8_lines,
    build_dataset,
    clean,
    denormalize_feature,
    epoch_to_text,
    featurize,
    load_csv,
    normalize,
    read_stats,
    write_stats,
)
from .model import (
    ActivationMode,
    Forecaster,
    ModelConfig,
    _meta_of,
    _parse,
    _read_meta,
    _required,
    _scalar_fields,
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
        if self.schema not in ("ett", "ohlcv"):
            raise ValueError(f"schema: expected ett or ohlcv, got {self.schema!r}")
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


# The window shape is the data's; a checkpoint's model config carries it,
# so its data settings leave it out, and the path, which each run names.
_WINDOW = ("enc_len", "label_len", "horizon")
_UNSTORED = ("path",) + _WINDOW
_MODEL_FIELDS = _scalar_fields(ModelConfig, skip=_WINDOW + ("n_features", "n_targets"))
_MODE_FIELDS = _scalar_fields(ActivationMode, skip=("kind",))

# Key -> kind of each section, from the dataclasses the section builds.
# [model] also holds the activation mode, whose kind is spelled activation.
_KNOWN_KEYS = {
    "data": _scalar_fields(DataSpec),
    "model": {**_MODEL_FIELDS, "activation": "str", **_MODE_FIELDS},
    "train": _scalar_fields(TrainConfig),
}


def load_run_config(path: str | None, overrides: list[str]) -> dict[str, dict]:
    """Read the INI config, apply --set overrides and parse every value;
    unknown keys and malformed values fail naming section.key."""
    items: list[tuple[str, str, str]] = []
    if path is not None:
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
        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            items += [(section, key, value) for key, value in parser.items(section)]
    for item in overrides:
        lhs, sep, value = item.partition("=")
        section, dot, key = lhs.strip().partition(".")
        if not sep or not dot or section not in _KNOWN_KEYS:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        items.append((section, key, value.strip()))
    raw: dict[str, dict[str, str]] = {s: {} for s in _KNOWN_KEYS}
    for section, key, value in items:
        if key not in _KNOWN_KEYS[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        raw[section][key] = value
    cfg: dict[str, dict] = {s: {} for s in _KNOWN_KEYS}
    for section, values in raw.items():
        for key, text in values.items():
            try:
                cfg[section][key] = _parse(_KNOWN_KEYS[section][key], text)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from None
    return cfg


def _build_data_spec(cfg: dict[str, dict]) -> DataSpec:
    if "path" not in cfg["data"]:
        raise ConfigError("data.path is required")
    try:
        return DataSpec(**cfg["data"])
    except ValueError as exc:
        raise ConfigError(f"data.{exc}") from None


def _build_activation(cfg: dict[str, dict]) -> ActivationMode:
    sec = cfg["model"]
    # The command line defaults to the gated activation; the library to GELU.
    kind = sec.get("activation", "gated")
    if kind not in ("gelu", "gated"):
        raise ConfigError(f"model.activation: expected gelu or gated, got {kind!r}")
    try:
        mode = ActivationMode(kind, **{k: v for k, v in sec.items() if k in _MODE_FIELDS})
    except ValueError as exc:
        raise ConfigError(f"model.{exc}") from None
    return mode


def _build_model_cfg(cfg: dict[str, dict], spec: DataSpec) -> ModelConfig:
    """The model config with one feature; the data sets the real count."""
    sec = cfg["model"]
    mode = _build_activation(cfg)
    try:
        return ModelConfig(
            **{k: v for k, v in sec.items() if k in _MODEL_FIELDS},
            **{k: getattr(spec, k) for k in _WINDOW},
            activation=mode,
        )
    except ValueError as exc:
        raise ConfigError(f"model.{exc}") from None


def _build_train_cfg(cfg: dict[str, dict], mode: ActivationMode,
                     seed_override: int | None) -> TrainConfig:
    kwargs = dict(cfg["train"])
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return TrainConfig(activation=mode, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"train.{exc}") from None


def _configure(args):
    """The data and the model and training configs of a run configuration.

    Every value is parsed and range-checked before the data is read; the
    data then sets the model's feature count."""
    cfg = load_run_config(args.config, args.set or [])
    spec = _build_data_spec(cfg)
    model_cfg = _build_model_cfg(cfg, spec)
    train_cfg = _build_train_cfg(cfg, model_cfg.activation, args.seed)
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
    if not lo < hi:
        raise ConfigError(f"--range expects lo < hi, got {text!r}")
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
    stored = _read_meta(DataSpec, meta, checkpoint, "data.", skip=_UNSTORED)
    try:
        return DataSpec(path=path, **{k: getattr(cfg, k) for k in _WINDOW}, **stored)
    except ValueError as exc:
        raise ValueError(f"{checkpoint}: data.{exc}") from None


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
    ae = None
    if train_cfg.anomaly_weighting:
        # Fitted once: training weights with it and autoencoder.bin saves it.
        ae = fit_autoencoder(
            dataset.splits.train.enc,
            hidden=train_cfg.ae_hidden,
            bottleneck=train_cfg.ae_bottleneck,
            seed=train_cfg.seed,
            epochs=train_cfg.ae_epochs,
        )
    model, report = run_training(dataset, model_cfg, train_cfg, ae)
    out = _out_dir(args)
    ckpt = os.path.join(out, "checkpoint.bin")
    save_forecaster(
        ckpt, model,
        extra_tensors={"norm.mean": dataset.stats.mean, "norm.std": dataset.stats.std},
        extra_meta=_dataset_meta(spec, dataset),
    )
    write_stats(os.path.join(out, "norm_stats.txt"), dataset.stats)
    write_trial_report(os.path.join(out, "report.txt"), report)
    with open(os.path.join(out, "cleaning_report.txt"), "w", encoding="utf-8") as fh:
        for action in cleaned.report:
            fh.write(action.render() + "\n")
    if ae is not None:
        # cotn anomaly cleans the data it scores with the same thresholds.
        save_autoencoder(os.path.join(out, "autoencoder.bin"), ae,
                         extra_meta=_meta_of(spec.cleaning(), "data."))
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
    cfg = model.cfg
    n = frame.n_rows
    if n < cfg.enc_len:
        raise RuntimeError(
            f"need at least {cfg.enc_len} feature rows to forecast, have {n}"
        )
    start = n - cfg.enc_len
    if not np.all(frame.segment_ids[start:] == frame.segment_ids[n - 1]):
        raise RuntimeError(
            "the final window straddles a data gap; cannot forecast from it"
        )
    # The final window, C-contiguous as training's; its targets lie past the data.
    enc = WindowView(frame.data, np.array([start]), cfg.enc_len)[:]
    pred = model.predict(enc)[0, :, 0]
    values = denormalize_feature(pred, stats, frame.target)
    path = os.path.join(_out_dir(args), "forecast.csv")
    last_epoch = int(frame.epochs[n - 1])
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
                f"{rank},{entry.type_id},{_FLOAT_FMT % entry.val_mae},"
                f"{_FLOAT_FMT % entry.report.test_mae}\n"
            )
    print(path)
    print(f"winner = type {result.winner}")
    return 0


def _cleaning_from_meta(meta: dict[str, str], path: str) -> CleanConfig:
    """The cleaning thresholds an autoencoder file stores; a ValueError
    names the file and the first data.* entry it lacks."""
    stored = _read_meta(CleanConfig, meta, path, "data.")
    try:
        return CleanConfig(**stored)
    except ValueError as exc:
        raise ValueError(f"{path}: data.{exc}") from None


def cmd_anomaly(args) -> int:
    ae, meta = load_autoencoder(args.ae)
    cleaning = _cleaning_from_meta(meta, args.ae)
    stats_path = args.stats or os.path.join(
        os.path.dirname(os.path.abspath(args.ae)), "norm_stats.txt"
    )
    stats = read_stats(stats_path)
    frame, _ = _load_frame(args.data, args.schema, cleaning, args)
    try:
        frame = normalize(frame, stats)
    except ValueError as exc:  # the statistics lack a feature of the data
        raise ValueError(f"{stats_path} does not fit the features of {args.data}: "
                         f"{exc}") from None
    if frame.n_features != ae.n_features:
        raise RuntimeError(
            f"data has {frame.n_features} features but the autoencoder "
            f"expects {ae.n_features}"
        )
    length = ae.window_len
    n_windows = frame.n_rows // length
    if n_windows == 0:
        raise RuntimeError(
            f"need at least {length} rows to score, have {frame.n_rows}"
        )
    # Non-overlapping windows of consecutive rows, scored once, in chunks
    # with the bits of one batch.
    windows = frame.data[: n_windows * length].reshape(n_windows, length, -1)
    errors = ae.step_errors(windows)
    weights = ae.error_weights(errors)
    path = os.path.join(_out_dir(args), "anomaly.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("window,timestamp,step_error,window_weight\n")
        for w in range(n_windows):
            for offset, err in enumerate(errors[w]):
                epoch = int(frame.epochs[w * length + offset])
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
    p.add_argument("--ae", required=True, help="autoencoder checkpoint")
    p.add_argument("--stats", help="normalization stats file "
                                   "(default: next to the checkpoint)")
    p.add_argument("--schema", default="ett", choices=("ett", "ohlcv"))
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
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
