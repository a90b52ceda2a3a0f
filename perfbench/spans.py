"""Per-layer metrics from the span files of one traced iteration.

A span's self time is its duration minus the time its direct child spans
cover (children never overlap: each process is single-threaded). A
name's total time counts only its outermost spans, so a call nested in
a call of the same name is not counted twice. A layer's self time is
the sum of the self times of its spans; the layer is the span name up
to the first dot, which is the cotn module the wrapped function lives in.
With --jobs > 1 the sweep's own span only waits for the forked workers
(whose spans come from their own files), so its self time is reported as
waiting, not as work of the training layer.
"""

from __future__ import annotations

import json
from collections import defaultdict

WAITING = "training.sweep_types"

LAYERS = ("oscillator", "activation", "tensor", "model", "data", "training", "cli")

# Tape ops whose forward count and time are reported (see README.md).
REPORTED_OPS = (
    "matmul", "add", "mul", "scale", "softmax_last_axis", "layer_norm",
    "apply_activation", "slice_last", "concat_last", "shift_time", "maxpool_time2",
)


class NameStats:
    __slots__ = ("calls", "total_s", "self_s", "n_sum", "n_max")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.n_sum = 0
        self.n_max = 0


def aggregate(paths):
    """Read span files; return ({name: NameStats}, [extra dicts], n_spans)."""
    stats: dict[str, NameStats] = defaultdict(NameStats)
    extras = []
    n_spans = 0
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        extras.append(doc["extra"])
        names = doc["names"]
        spans = doc["spans"]
        n_spans += len(spans)
        by_id = {s[0]: s for s in spans}
        child_s: dict[int, float] = defaultdict(float)
        for sid, parent, _, t0, t1, _ in spans:
            if parent in by_id:
                child_s[parent] += t1 - t0
        for sid, parent, idx, t0, t1, n in spans:
            st = stats[names[idx]]
            dur = t1 - t0
            st.calls += 1
            st.self_s += dur - child_s[sid]
            st.n_sum += n
            st.n_max = max(st.n_max, n)
            up = by_id.get(parent)
            while up is not None and up[2] != idx:
                up = by_id.get(up[1])
            if up is None:
                st.total_s += dur
    return stats, extras, n_spans


def layer_metrics(stats, extras, sweep_jobs: int, proc_walls):
    """Every per-layer metric, as {name: (value, unit)}.

    proc_walls holds the wall time of each traced cli process, in the
    order their span files were given (used for cli.startup_s).
    """
    def s(name):
        return stats[name] if name in stats else NameStats()

    m: dict[str, tuple[float, str]] = {}

    def put(key, value, unit):
        m[key] = (value, unit)

    put("oscillator.simulate_calls", s("oscillator.simulate").calls, "count")
    put("oscillator.steps", s("oscillator.simulate").n_sum, "count")
    put("oscillator.simulate_s", s("oscillator.simulate").total_s, "s")

    put("activation.table_requests", s("activation.table_for_type").calls, "count")
    put("activation.table_builds", s("activation.build_table").calls, "count")
    put("activation.build_table_s", s("activation.build_table").total_s, "s")
    put("activation.table_eval_s", s("activation.table_eval").total_s, "s")
    put("activation.table_grad_s", s("activation.table_grad").total_s, "s")
    put("activation.gelu_s", s("activation.gelu").total_s, "s")
    put("activation.gelu_grad_s", s("activation.gelu_grad").total_s, "s")
    put("activation.elements", s("activation.value").n_sum, "count")

    for op in REPORTED_OPS:
        put(f"tensor.ops.{op}", s(f"tensor.{op}").calls, "count")
        put(f"tensor.fwd_s.{op}", s(f"tensor.{op}").total_s, "s")
    put("tensor.backward_calls", s("tensor.backward").calls, "count")
    put("tensor.backward_s", s("tensor.backward").total_s, "s")
    # The largest tape backward() walked: the forecaster's training step.
    put("tensor.nodes_per_step", s("tensor.topo_order").n_max, "count")
    put("tensor.save_s", s("tensor.save_tensors").total_s, "s")
    put("tensor.load_s", s("tensor.load_tensors").total_s, "s")
    put("tensor.ckpt_bytes", s("tensor.save_tensors").n_sum, "bytes")

    put("model.encode_s", s("model.encode").total_s, "s")
    put("model.decode_s", s("model.decode").total_s, "s")
    put("model.attention_s", s("model.attention").total_s, "s")
    put("model.distill_s", s("model.distill").total_s, "s")
    put("model.predict_calls", s("model.predict").calls, "count")
    put("model.predict_windows", s("model.predict").n_sum, "count")
    put("model.predict_s", s("model.predict").total_s, "s")
    put("model.ae_reconstruct_s", s("model.ae_reconstruct").total_s, "s")
    put("model.load_forecaster_s", s("model.load_forecaster").total_s, "s")

    put("data.csv_loads", s("data.load_csv").calls, "count")
    put("data.rows_parsed", s("data.load_csv").n_sum, "count")
    for fn in ("load_csv", "clean", "featurize", "normalize", "window", "build_dataset"):
        put(f"data.{fn}_s", s(f"data.{fn}").total_s, "s")

    sweep = s("training.sweep_types")
    put("training.ae_fits", s("training.fit_autoencoder").calls, "count")
    put("training.ae_fit_s", s("training.fit_autoencoder").total_s, "s")
    put("training.adam_steps", s("training.adam_step").calls, "count")
    put("training.adam_s", s("training.adam_step").total_s, "s")
    put("training.run_training_s", s("training.run_training").total_s, "s")
    put("training.sweep_worker_busy_s", float(sweep.n_sum), "s")
    eff = sweep.n_sum / (sweep_jobs * sweep.total_s) if sweep.total_s > 0 else 0.0
    put("training.sweep_parallel_eff", eff, "ratio")
    put("training.sweep_wait_s", sweep.self_s, "s")

    cli_extras = [e for e in extras if e.get("role") == "cli"]
    main_s = s("cli.main").total_s
    put("cli.import_s", sum(e["import_s"] for e in cli_extras), "s")
    put("cli.main_s", main_s, "s")
    put("cli.startup_s", max(0.0, sum(proc_walls) - main_s) if cli_extras else 0.0, "s")

    self_by_layer: dict[str, float] = defaultdict(float)
    for name, st in stats.items():
        if name == WAITING:
            continue
        self_by_layer[name.split(".", 1)[0]] += st.self_s
    for layer in LAYERS:
        put(f"{layer}.self_s", self_by_layer[layer], "s")
    return m
