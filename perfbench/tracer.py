"""Span recorder for the traced benchmark run.

Wraps the public functions of the seven ``cotn`` modules from outside the
program, so nothing under ``src/`` changes. Each call records one span:
its id, the id of the span that was open when it started (its parent),
the span name, start and end on ``time.perf_counter`` and one optional
number (rows parsed, windows predicted, steps simulated, ...). Spans stay
in memory and are written out once, by ``Tracer.dump``.

``from .x import y`` copies a function object into each consumer module,
so a wrapper is bound under every name in every ``cotn`` module that
holds the original object, not only in the defining module.
``table_for_type`` is an ``lru_cache`` object: only its consumers'
bindings are wrapped (so requests are counted where they are made) and
the cache itself is left in place; builds are counted at ``build_table``.

Sweep workers are forked from the traced process. They start with an
empty span buffer and write their own spans to a file of their own after
each task, so worker spans are collected, not left out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time

MODULES = ("oscillator", "activation", "tensor", "model", "data", "training", "cli")

# Tape ops of cotn.tensor; each becomes a span named "tensor.<op>".
TENSOR_OPS = (
    "add", "sub", "mul", "scale", "neg", "matmul", "transpose_last2",
    "softmax_last_axis", "layer_norm", "apply_activation", "slice_time",
    "slice_last", "concat_last", "shift_time", "maxpool_time2", "repeat_time2",
    "sum_all", "mean_all",
)

# Consumer bindings that must be wrapped; install() fails if one is missed.
REQUIRED_BINDINGS = (
    "cotn.cli.fit_autoencoder",
    "cotn.training.fit_autoencoder",
    "cotn.model.table_for_type",
    "cotn.activation.simulate",
    "cotn.cli.load_csv",
    "cotn.cli.load_forecaster",
)


class Tracer:
    """In-memory span buffer shared by every wrapper of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self._ids = itertools.count()
        self.bound: list[str] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped so that each call records one span."""
        idx = self._name_index(name)
        spans, stack, ids, clock = self.spans, self.stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            t1 = clock()
            n = count(args, kwargs, result) if count is not None else 0
            spans.append((sid, parent, idx, t0, t1, n))
            return result

        return traced

    def forget(self) -> None:
        """Empty the buffer in place (the wrappers hold these lists)."""
        del self.spans[:]
        del self.stack[:]

    def dump(self, path: str, extra: dict | None = None) -> None:
        doc = {
            "run_id": self.run_id,
            "pid": os.getpid(),
            "names": self.names,
            "spans": self.spans,
            "extra": extra or {},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _rebind(tracer: Tracer, module: str, attr: str, name: str, count=None,
            consumers_only: bool = False) -> None:
    """Bind a wrapper under every cotn name that holds module.attr."""
    home = sys.modules[module]
    orig = getattr(home, attr)
    wrapper = tracer.wrap(name, orig, count)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "cotn" or mod_name.startswith("cotn.")):
            continue
        if consumers_only and mod is home:
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
                tracer.bound.append(f"{mod_name}.{key}")


def _rebind_method(tracer: Tracer, module: str, cls: str, meth: str, name: str,
                   count=None) -> None:
    klass = getattr(sys.modules[module], cls)
    setattr(klass, meth, tracer.wrap(name, klass.__dict__[meth], count))
    tracer.bound.append(f"{module}.{cls}.{meth}")


def _size_of_first(args, kwargs, result):
    return int(getattr(args[1], "size", 0))


def _windows(args, kwargs, result):
    return int(args[1].shape[0])


def install(run_id: str, spans_dir: str) -> Tracer:
    """Import every cotn module and wrap its public functions."""
    for mod in MODULES:
        importlib.import_module(f"cotn.{mod}")
    from cotn.oscillator import N_STEPS_DEFAULT

    t = Tracer(run_id)

    def steps(args, kwargs, result):
        return args[2] if len(args) > 2 else kwargs.get("n_steps", N_STEPS_DEFAULT)

    _rebind(t, "cotn.oscillator", "simulate", "oscillator.simulate", steps)

    _rebind(t, "cotn.activation", "table_for_type", "activation.table_for_type",
            consumers_only=True)
    _rebind(t, "cotn.activation", "build_table", "activation.build_table")
    for fn in ("table_eval", "table_grad", "gelu", "gelu_grad"):
        _rebind(t, "cotn.activation", fn, f"activation.{fn}")
    for cls in ("GeluActivation", "GatedLeeActivation"):
        _rebind_method(t, "cotn.activation", cls, "value", "activation.value",
                       _size_of_first)

    for op in TENSOR_OPS:
        _rebind(t, "cotn.tensor", op, f"tensor.{op}")
    _rebind(t, "cotn.tensor", "backward", "tensor.backward")
    _rebind(t, "cotn.tensor", "topo_order", "tensor.topo_order",
            lambda a, k, r: len(r))
    _rebind(t, "cotn.tensor", "save_tensors", "tensor.save_tensors",
            lambda a, k, r: os.path.getsize(a[0]))
    _rebind(t, "cotn.tensor", "load_tensors", "tensor.load_tensors")

    _rebind_method(t, "cotn.model", "Forecaster", "encode", "model.encode")
    _rebind_method(t, "cotn.model", "Forecaster", "parallel_decode", "model.decode")
    _rebind_method(t, "cotn.model", "Forecaster", "predict", "model.predict", _windows)
    _rebind_method(t, "cotn.model", "Autoencoder", "reconstruct", "model.ae_reconstruct")
    _rebind(t, "cotn.model", "multi_head_attention", "model.attention")
    _rebind(t, "cotn.model", "distill_layer", "model.distill")
    _rebind(t, "cotn.model", "load_forecaster", "model.load_forecaster")

    _rebind(t, "cotn.data", "load_csv", "data.load_csv", lambda a, k, r: r.n_rows)
    for fn in ("clean", "featurize", "normalize", "window", "build_dataset"):
        _rebind(t, "cotn.data", fn, f"data.{fn}")

    _rebind(t, "cotn.training", "fit_autoencoder", "training.fit_autoencoder")
    _rebind_method(t, "cotn.training", "Adam", "step", "training.adam_step")
    _rebind(t, "cotn.training", "run_training", "training.run_training")
    _rebind(t, "cotn.training", "sweep_types", "training.sweep_types",
            lambda a, k, r: sum(e.report.wall_time_s for e in r.entries))
    _install_sweep_collector(t, spans_dir)

    _rebind(t, "cotn.cli", "main", "cli.main")

    missing = [b for b in REQUIRED_BINDINGS if b not in t.bound]
    if missing:
        raise RuntimeError(f"tracer did not bind {missing}")
    return t


def _install_sweep_collector(t: Tracer, spans_dir: str) -> None:
    """Record each sweep task as a span; in a forked worker, write the
    task's spans to a file of its own once the task ends."""
    import cotn.training as training

    home = os.getpid()
    seq = itertools.count()
    os.register_at_fork(after_in_child=t.forget)
    task = t.wrap("training.sweep_task", training._run_sweep_one)

    @functools.wraps(training._run_sweep_one)
    def collected(*args, **kwargs):
        if os.getpid() == home:
            return task(*args, **kwargs)
        try:
            return task(*args, **kwargs)
        finally:
            path = os.path.join(spans_dir, f"spans-worker-{os.getpid()}-{next(seq)}.json")
            t.dump(path, {"role": "sweep-worker"})
            t.forget()

    # ProcessPoolExecutor pickles the task by its qualified name, which now
    # resolves to this wrapper in the parent and in every forked worker.
    training._run_sweep_one = collected
    t.bound.append("cotn.training._run_sweep_one")
