"""Child-side programs of the benchmark, each run in a fresh process.

    child.py gen --seed S --out DIR NAME...
        write synthetic ETT inputs (ett17k.csv: 17,420 rows, ett2k.csv: 2,000)
    child.py setup --workload W --seed S --dir DIR
        do one workload's program set-up (import, dataset, table, model)
    child.py train-loop --seed S --seconds T --min-ops N --max-ops M --result F
        [--spans F]
        the in-process training loop of train-synth-gated
    child.py cli --spans F --run-id ID -- ARGV...
        traced shim: install the span recorder, then cotn.cli.main(ARGV)

The parent (run.py) times these processes from outside and reads the
JSON files they write. Nothing here prints the benchmark result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Inputs of every workload; the row counts are part of the workload design.
ETT_LARGE = ("ett17k.csv", 17420)
ETT_SMALL = ("ett2k.csv", 2000)

# The acceptance-test model and the window geometry of every workload.
ENC_LEN, LABEL_LEN, HORIZON = 24, 12, 8
SYNTH_ROWS = 2000
SYNTH_EPOCHS = 2


def _import_local(name: str):
    # Keep the benchmark directory free of bytecode caches; cotn's own
    # caches under src/ are written as an installed package's would be.
    sys.dont_write_bytecode = True
    sys.path.insert(0, HERE)
    module = importlib.import_module(name)
    sys.path.remove(HERE)
    sys.dont_write_bytecode = False
    return module


def cmd_gen(args) -> int:
    from cotn.training import write_synthetic_ett_csv

    rows = dict((ETT_LARGE, ETT_SMALL))
    for name in args.names:
        write_synthetic_ett_csv(os.path.join(args.out, name), args.seed, rows[name])
    return 0


def _synth_model_cfg():
    from cotn.model import ActivationMode, ModelConfig

    return ModelConfig(
        d_model=8, n_heads=2, n_enc_layers=2, n_dec_layers=1, d_ff=16,
        enc_len=ENC_LEN, label_len=LABEL_LEN, horizon=HORIZON, n_features=1,
        activation=ActivationMode(kind="gated", type_id=1, lam=0.5),
    )


def _synth_dataset(seed: int):
    from cotn.data import build_dataset
    from cotn.training import make_synthetic_frame

    frame = make_synthetic_frame(seed, length=SYNTH_ROWS)
    return build_dataset(frame, ENC_LEN, LABEL_LEN, HORIZON)


def _ett_dataset(path: str):
    from cotn.data import CleanConfig, build_dataset, clean, featurize, load_csv

    frame = featurize(clean(load_csv(path, "ett"), CleanConfig()))
    return build_dataset(frame, ENC_LEN, LABEL_LEN, HORIZON)


def cmd_setup(args) -> int:
    """Program set-up of one workload, timed from outside by the parent."""
    if args.workload == "train-synth-gated":
        import cotn.training  # noqa: F401  (the loop's import)
        from cotn.model import Forecaster

        _synth_dataset(args.seed)
        Forecaster(_synth_model_cfg(), seed=args.seed)
        return 0
    import cotn.cli  # noqa: F401  (a CLI process's import)
    from cotn.model import ActivationMode, Forecaster, ModelConfig, load_forecaster

    if args.workload == "cli-coldstart-gated":
        load_forecaster(os.path.join(args.dir, "fixture", "checkpoint.bin"))
        _ett_dataset(os.path.join(args.dir, ETT_SMALL[0]))
        return 0
    large = args.workload == "cli-ett17k-gelu"
    ds = _ett_dataset(os.path.join(args.dir, (ETT_LARGE if large else ETT_SMALL)[0]))
    mode = ActivationMode(kind="gelu") if large else ActivationMode(kind="gated", type_id=1)
    Forecaster(ModelConfig(n_features=ds.frame.n_features, activation=mode), seed=1)
    return 0


def _param_digest(model) -> str:
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].data.tobytes())
    return h.hexdigest()


def cmd_train_loop(args) -> int:
    """Closed loop of run_training calls on the synthetic benchmark."""
    tr = None
    if args.spans:
        tr = _import_local("tracer").install(args.run_id, os.path.dirname(args.spans))
    from cotn.model import Forecaster
    from cotn.training import TrainConfig, run_training

    calib = _import_local("calib")
    ds = _synth_dataset(args.seed)
    model_cfg = _synth_model_cfg()
    Forecaster(model_cfg, seed=args.seed)  # builds the activation table
    cfg = TrainConfig(
        epochs=SYNTH_EPOCHS, batch_size=32, seed=args.seed, patience=10 * SYNTH_EPOCHS,
        anomaly_weighting=True, activation=model_cfg.activation,
    )
    ops = []
    cpus = sorted(os.sched_getaffinity(0))
    t_start = time.perf_counter()
    while len(ops) < args.max_ops and (
        len(ops) < args.min_ops or time.perf_counter() - t_start < args.seconds
    ):
        # Each operation runs on one CPU, in turn, between two reference
        # passes on the same CPU (as run.py does for child processes).
        os.sched_setaffinity(0, {cpus[len(ops) % len(cpus)]})
        ref_before = calib.reference_cpu_s()
        t0, c0 = time.perf_counter(), time.process_time()
        model, report = run_training(ds, model_cfg, cfg)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        ops.append({
            "wall_s": wall,
            "cpu_s": cpu,
            "ref_s": [ref_before, calib.reference_cpu_s()],
            "windows": report.epochs_run * ds.splits.train.n_windows,
            "metrics": json.dumps(report.metric_dict(), sort_keys=True),
            "params": _param_digest(model),
        })
    frame_digest = hashlib.sha256(ds.frame.data.tobytes()).hexdigest()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "input_sha256": frame_digest}, fh)
    if tr is not None:
        tr.dump(args.spans, {"role": "train-loop"})
    return 0


def cmd_cli(args) -> int:
    """Traced shim: time a fresh `import cotn.cli`, then run cotn.cli.main."""
    t0 = time.perf_counter()
    import cotn.cli
    import_s = time.perf_counter() - t0
    tr = _import_local("tracer").install(args.run_id, os.path.dirname(args.spans))
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    code = cotn.cli.main(argv)
    tr.dump(args.spans, {"role": "cli", "import_s": import_s, "exit": code})
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("gen")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("names", nargs="+", choices=[ETT_LARGE[0], ETT_SMALL[0]])
    p.set_defaults(func=cmd_gen)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("train-loop")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--min-ops", type=int, default=2)
    p.add_argument("--max-ops", type=int, default=10**6)
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    p.add_argument("--run-id", default="")
    p.set_defaults(func=cmd_train_loop)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
