"""cotn benchmark: four workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. NAME is one of the workloads
below or "all". Every program process is a fresh child started with the
checkout's src/ on PYTHONPATH and one BLAS thread; its inputs are made
from --seed and all its outputs go to a temporary directory inside the
checkout, removed at exit. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
metrics are setup_s, op_norm_s and peak_rss_mb (the times are CPU times
normalised by reference passes on the same CPU, see calib.py); with
--trace 1 the per-layer metrics of BENCHMARK.json. The lines before it give the environment and
every metric of the run by name and unit. The exit code is 1 when any
correctness check fails and 2 when the checkout has no program.
See README.md for the workloads, the metrics and what is left out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass
from importlib import metadata

sys.dont_write_bytecode = True  # keep the benchmark directory cache-free

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # reference passes run here too, on one thread

import calib  # noqa: E402
import spans  # noqa: E402
from child import ETT_LARGE, ETT_SMALL, HORIZON  # noqa: E402

# Set-up probes run half before and half after the timed loop, so that
# they sample the machine at both ends of the run.
SETUP_PROBES = 2
MIN_OPS = 2  # every check compares repetitions, so each run makes two
PROC_TIMEOUT_S = 150.0
SAMPLE_EVERY_S = 3.0  # reference passes while a long timed process runs
EVAL_KEYS = ("train_mae", "train_mse", "val_mae", "val_mse", "test_mae", "test_mse")
SWEEP_JOBS = 2


# -- processes -----------------------------------------------------------------


@dataclass
class Proc:
    """A finished child: wall and CPU time, its own peak RSS, exit code, output."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    out: str
    err: str
    ref_s: float = 0.0  # mean reference pass around it, on its CPUs (timed processes)

    @property
    def norm_s(self) -> float:
        return self.cpu_s * calib.NOMINAL_S / self.ref_s


class Run:
    """State of one benchmark invocation."""

    def __init__(self, seed, seconds, tmp):
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.run_id = uuid.uuid4().hex
        self.env = dict(os.environ)
        # Children cache cotn's bytecode under src/ as an installed package
        # would have it, whatever the caller's environment says.
        for var in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
            self.env.pop(var, None)
        self.env.update(BLAS_ENV)
        self.env.update(PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=tmp,
                        PYTHONHASHSEED="0")
        self.n_proc = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.inputs: dict[str, str] = {}
        self.cpus = sorted(os.sched_getaffinity(0))
        self.n_timed = 0
        self.refs: list[float] = []  # CPU seconds of every reference pass

    def _reference(self, cpu) -> float:
        """One reference pass, pinned to cpu."""
        os.sched_setaffinity(0, {cpu})
        self.refs.append(calib.reference_cpu_s())
        return self.refs[-1]

    def timed_proc(self, argv, pool=False) -> Proc:
        """A timed child, pinned to one CPU (each CPU in turn) or, for a
        process pool, left on all of them. Its ref_s is the mean of
        reference passes on those CPUs: one on each just before and just
        after it, and, while it runs longer than SAMPLE_EVERY_S, one every
        SAMPLE_EVERY_S, taking the CPUs in turn."""
        if pool:
            cpus = self.cpus
        else:
            cpus = [self.cpus[self.n_timed % len(self.cpus)]]
            self.n_timed += 1
        passes = []
        try:
            passes += [self._reference(cpu) for cpu in cpus]
            os.sched_setaffinity(0, cpus)  # the child inherits this set
            p = self.proc(argv, during=lambda k: passes.append(
                self._reference(cpus[k % len(cpus)])))
            passes += [self._reference(cpu) for cpu in cpus]
        finally:
            os.sched_setaffinity(0, self.cpus)
        p.ref_s = sum(passes) / len(passes)
        return p

    def proc(self, argv, cwd=None, during=None) -> Proc:
        """Run one child to completion; CPU time and ru_maxrss come from its
        wait4, so they cover the child and every descendant it reaped.
        during(k), if given, is called every SAMPLE_EVERY_S while it runs."""
        self.n_proc += 1
        out_path = os.path.join(self.tmp, f"p{self.n_proc}.out")
        err_path = os.path.join(self.tmp, f"p{self.n_proc}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                 cwd=cwd or self.tmp, start_new_session=True)
            killer = threading.Timer(PROC_TIMEOUT_S, os.killpg, (p.pid, signal.SIGKILL))
            killer.start()
            ended = {}

            def reap():
                ended["wait4"] = os.wait4(p.pid, 0)
                ended["wall"] = time.perf_counter() - t0

            reaper = threading.Thread(target=reap)
            reaper.start()
            try:
                k = 0
                while reaper.is_alive():
                    reaper.join(SAMPLE_EVERY_S if during else None)
                    if during and reaper.is_alive():
                        during(k)
                        k += 1
            finally:
                reaper.join()
                killer.cancel()
            _, status, ru = ended["wait4"]
            wall = ended["wall"]
        p.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Proc(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                    p.returncode, stdout, stderr)

    def cotn(self, *argv) -> Proc:
        return self.proc([sys.executable, "-m", "cotn.cli", *argv])

    def child(self, *argv) -> Proc:
        return self.proc([sys.executable, CHILD, *argv])

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok

    def must(self, p: Proc, what: str) -> Proc:
        """Harness preparation: a failure here ends the run."""
        if p.code != 0:
            raise RuntimeError(f"{what} failed (exit {p.code}): {p.err.strip()[-2000:]}")
        return p

    def sha256(self, name: str) -> None:
        h = hashlib.sha256()
        with open(os.path.join(self.tmp, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        self.inputs[name] = h.hexdigest()


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            out[key.strip()] = val.strip()
    return out


def _finite(text: str) -> bool:
    try:
        v = float(text)
    except ValueError:
        return False
    return v == v and v not in (float("inf"), float("-inf"))


# -- workloads -------------------------------------------------------------------


class Workload:
    name = ""
    op_kinds: tuple[str, ...] = ()
    data = ETT_SMALL[0]
    min_ops = MIN_OPS
    pool = False  # an operation runs a process pool over all CPUs

    def prepare(self, run: Run) -> None:
        """Make the input from the seed (outside every timing)."""
        run.must(run.child("gen", "--seed", str(run.seed), "--out", run.tmp, self.data),
                 "input generation")
        run.sha256(self.data)

    def setup_probe(self, run: Run) -> Proc:
        return run.timed_proc([sys.executable, CHILD, "setup", "--workload", self.name,
                               "--seed", str(run.seed), "--dir", run.tmp])

    def iteration(self, run: Run, i: int, traced: bool) -> list[tuple[str, Proc]]:
        raise NotImplementedError

    def check_iteration(self, run: Run, i: int, procs) -> None:
        raise NotImplementedError

    def _argv(self, run: Run, traced: bool, tag: str, argv: list[str]) -> Proc:
        if not traced:
            return run.timed_proc([sys.executable, "-m", "cotn.cli", *argv], pool=self.pool)
        spans_path = os.path.join(run.tmp, "spans", f"spans-{tag}.json")
        return run.child("cli", "--spans", spans_path, "--run-id", run.run_id, "--", *argv)

    def timed(self, run: Run):
        """Closed loop of iterations for the run's seconds (at least min_ops).

        Returns ({name: (unit, [values])} for the report lines, and per
        iteration [norm_s], [cpu_s], [wall_s], then [rss_mb]).
        """
        walls = {k: ("s", []) for k in self.op_kinds}
        norm, cpu, iters, rss = [], [], [], []
        t_start = time.perf_counter()
        i = 0
        while i < self.min_ops or time.perf_counter() - t_start < run.seconds:
            procs = self.iteration(run, i, traced=False)
            for kind, p in procs:
                walls[kind][1].append(p.wall_s)
                rss.append(p.rss_mb)
            norm.append(sum(p.norm_s for _, p in procs))
            cpu.append(sum(p.cpu_s for _, p in procs))
            iters.append(sum(p.wall_s for _, p in procs))
            self.check_iteration(run, i, procs)
            i += 1
        return walls, norm, cpu, iters, rss

    def traced(self, run: Run):
        """One untraced and one traced iteration; returns their walls and
        the span files plus the walls of the traced cli processes."""
        os.makedirs(os.path.join(run.tmp, "spans"), exist_ok=True)
        plain = self.iteration(run, 0, traced=False)
        self.check_iteration(run, 0, plain)
        traced = self.iteration(run, 1, traced=True)
        self.check_iteration(run, 1, traced)
        span_dir = os.path.join(run.tmp, "spans")
        files = sorted(os.path.join(span_dir, f) for f in os.listdir(span_dir))
        cli_walls = [p.wall_s for _, p in traced]
        return (sum(p.wall_s for _, p in plain), sum(p.wall_s for _, p in traced),
                files, cli_walls)


class TrainSynthGated(Workload):
    name = "train-synth-gated"
    why = ("tape forward/backward, table lookup and slope, Adam and the autoencoder fit "
           "do nearly all the work; data, oscillator and CLI almost none")

    def prepare(self, run):
        pass  # the frame is made in-process from the seed; its digest is reported

    def _loop(self, run, seconds, min_ops, max_ops, spans_path=None):
        result = os.path.join(run.tmp, f"loop{run.n_proc}.json")
        argv = ["train-loop", "--seed", str(run.seed), "--seconds", repr(seconds),
                "--min-ops", str(min_ops), "--max-ops", str(max_ops), "--result", result]
        if spans_path:
            argv += ["--spans", spans_path, "--run-id", run.run_id]
        p = run.child(*argv)
        run.attempted += 1
        if not run.check(p.code == 0, f"train loop exit {p.code}: {p.err.strip()[-500:]}"):
            return p, []
        doc = json.loads(_read(result))
        run.inputs["synthetic_frame"] = doc["input_sha256"]
        ops = doc["ops"]
        run.refs += [r for op in ops for r in op["ref_s"]]
        run.attempted += len(ops) - 1
        first = ops[0]
        for k, op in enumerate(ops):
            metrics = json.loads(op["metrics"])
            run.check(all(_finite(repr(v)) for k2, v in metrics.items()
                          if isinstance(v, float)), f"op {k}: non-finite metric")
            run.check(op["metrics"] == first["metrics"], f"op {k}: metric_dict differs")
            run.check(op["params"] == first["params"], f"op {k}: parameter digest differs")
        return p, ops

    def timed(self, run):
        p, ops = self._loop(run, run.seconds, MIN_OPS, 10**6)
        rate = [op["windows"] / op["wall_s"] for op in ops]
        norm = [op["cpu_s"] * calib.NOMINAL_S / statistics.mean(op["ref_s"]) for op in ops]
        return ({"train_windows_per_s": ("windows/s", rate)}, norm,
                [op["cpu_s"] for op in ops], [op["wall_s"] for op in ops], [p.rss_mb])

    def traced(self, run):
        span_dir = os.path.join(run.tmp, "spans")
        os.makedirs(span_dir, exist_ok=True)
        _, plain = self._loop(run, 0.0, 1, 1)
        path = os.path.join(span_dir, "spans-train-loop.json")
        _, traced = self._loop(run, 0.0, 1, 1, spans_path=path)
        if plain and traced:
            run.check(plain[0]["metrics"] == traced[0]["metrics"]
                      and plain[0]["params"] == traced[0]["params"],
                      "traced run_training differs from untraced")
        if not (plain and traced):
            raise RuntimeError("the train loop failed")
        return plain[0]["wall_s"], traced[0]["wall_s"], [path], []


def _write_config(run: Run, name: str, data: str, model: dict, train: dict) -> str:
    path = os.path.join(run.tmp, name)
    lines = ["[data]", f"path = {os.path.join(run.tmp, data)}", "", "[model]"]
    lines += [f"{k} = {v}" for k, v in model.items()]
    lines += ["", "[train]"] + [f"{k} = {v}" for k, v in train.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _check_eval(run: Run, what: str, p: Proc, report_path: str) -> bool:
    """The six metrics eval prints must equal those in report.txt, bit for bit."""
    if not run.check(p.code == 0, f"{what}: exit {p.code}: {p.err.strip()[-500:]}"):
        return False
    printed = _kv(p.out)
    report = _kv(_read(report_path))
    return run.check(
        all(printed.get(k) == report.get(k) and _finite(printed.get(k, "x")) for k in EVAL_KEYS),
        f"{what}: eval metrics differ from report.txt",
    )


class CliEtt17kGelu(Workload):
    name = "cli-ett17k-gelu"
    why = ("the data layer at scale, CLI train plumbing with its two autoencoder fits "
           "and batch-512 forward; GELU builds no oscillator table")
    op_kinds = ("cli_train_s", "cli_eval_s")
    data = ETT_LARGE[0]

    def prepare(self, run):
        super().prepare(run)
        self.config = _write_config(
            run, "ett17k.ini", ETT_LARGE[0], {"activation": "gelu"},
            {"epochs": 1, "anomaly_weighting": "true", "ae_epochs": 2, "seed": run.seed})
        self.reports: list[str] = []

    def iteration(self, run, i, traced):
        out = os.path.join(run.tmp, f"ett17k-{i}")
        train = self._argv(run, traced, f"train-{i}",
                           ["train", "--config", self.config, "--out", out])
        if train.code != 0:
            return [("cli_train_s", train)]
        ev = self._argv(run, traced, f"eval-{i}",
                        ["eval", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                         "--data", os.path.join(run.tmp, ETT_LARGE[0])])
        return [("cli_train_s", train), ("cli_eval_s", ev)]

    def check_iteration(self, run, i, procs):
        run.attempted += 2
        train = procs[0][1]
        if not run.check(train.code == 0 and len(procs) == 2,
                         f"train {i}: exit {train.code}: {train.err.strip()[-500:]}"):
            run.attempted -= 1
            return
        report_path = os.path.join(run.tmp, f"ett17k-{i}", "report.txt")
        _check_eval(run, f"eval {i}", procs[1][1], report_path)
        report = {k: v for k, v in _kv(_read(report_path)).items() if k != "wall_time_s"}
        self.reports.append(json.dumps(report, sort_keys=True))
        run.check(self.reports[-1] == self.reports[0], f"train {i}: report differs")


class CliColdstartGated(Workload):
    name = "cli-coldstart-gated"
    why = ("cold start: import, the 4001-node type-1 table rebuild and checkpoint parsing, "
           "plus the double data pass of eval and forecast; no training")
    op_kinds = ("forecast_cold_s", "eval_cold_s")
    min_ops = 5  # short operations that vary the most: the median needs more

    def prepare(self, run):
        super().prepare(run)
        cfg = _write_config(
            run, "fixture.ini", ETT_SMALL[0],
            {"activation": "gated", "type_id": 1, "lam": 0.5},
            {"epochs": 1, "anomaly_weighting": "false", "seed": run.seed})
        self.fixture = os.path.join(run.tmp, "fixture")
        run.must(run.cotn("train", "--config", cfg, "--out", self.fixture), "fixture training")
        run.sha256(os.path.join("fixture", "checkpoint.bin"))
        self.forecasts: list[str] = []

    def iteration(self, run, i, traced):
        ckpt = os.path.join(self.fixture, "checkpoint.bin")
        data = os.path.join(run.tmp, ETT_SMALL[0])
        out = os.path.join(run.tmp, f"forecast-{i}")
        fc = self._argv(run, traced, f"forecast-{i}",
                        ["forecast", "--checkpoint", ckpt, "--data", data, "--out", out])
        ev = self._argv(run, traced, f"eval-{i}", ["eval", "--checkpoint", ckpt, "--data", data])
        return [("forecast_cold_s", fc), ("eval_cold_s", ev)]

    def check_iteration(self, run, i, procs):
        run.attempted += 2
        fc, ev = procs[0][1], procs[1][1]
        _check_eval(run, f"eval {i}", ev, os.path.join(self.fixture, "report.txt"))
        if not run.check(fc.code == 0, f"forecast {i}: exit {fc.code}: {fc.err.strip()[-500:]}"):
            return
        text = _read(os.path.join(run.tmp, f"forecast-{i}", "forecast.csv"))
        rows = text.splitlines()[1:]
        ok = len(rows) == HORIZON and all(
            len(r.split(",")) == 2 and _finite(r.split(",")[1]) for r in rows)
        run.check(ok, f"forecast {i}: expected {HORIZON} finite rows")
        self.forecasts.append(text)
        run.check(text == self.forecasts[0], f"forecast {i}: forecast.csv differs")


class SweepTypesJ2(Workload):
    name = "sweep-types-j2"
    why = ("the only workload that builds tables for the settling types 2-8 and runs "
           "the process pool (2 jobs); it fits the autoencoder 8 times")
    op_kinds = ("sweep_s",)
    pool = True

    def prepare(self, run):
        super().prepare(run)
        self.config = _write_config(
            run, "sweep.ini", ETT_SMALL[0], {"activation": "gated", "type_id": 1},
            {"epochs": 1, "anomaly_weighting": "true", "seed": run.seed})
        self.sweeps: list[str] = []

    def iteration(self, run, i, traced):
        out = os.path.join(run.tmp, f"sweep-{i}")
        return [("sweep_s", self._argv(
            run, traced, f"sweep-{i}",
            ["sweep-types", "--config", self.config, "--jobs", str(SWEEP_JOBS), "--out", out]))]

    def check_iteration(self, run, i, procs):
        run.attempted += 1
        p = procs[0][1]
        if not run.check(p.code == 0, f"sweep {i}: exit {p.code}: {p.err.strip()[-500:]}"):
            return
        text = _read(os.path.join(run.tmp, f"sweep-{i}", "sweep.csv"))
        rows = [r.split(",") for r in text.splitlines()[1:]]
        ok = (len(rows) == 8
              and [r[0] for r in rows] == [str(k) for k in range(1, 9)]
              and sorted(int(r[1]) for r in rows) == list(range(1, 9))
              and all(_finite(r[2]) and _finite(r[3]) for r in rows))
        if ok:
            val = [float(r[2]) for r in rows]
            ok = val == sorted(val)
        run.check(ok, f"sweep {i}: sweep.csv does not rank 8 types with finite values")
        self.sweeps.append(text)
        run.check(text == self.sweeps[0], f"sweep {i}: sweep.csv differs")


WORKLOADS = {w.name: w for w in (TrainSynthGated(), CliEtt17kGelu(),
                                 CliColdstartGated(), SweepTypesJ2())}


# -- reporting -------------------------------------------------------------------


def tail_percentile(values):
    """Highest of p99/p95/p90/p75 with at least 10 samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None, None


def describe(name, unit, values):
    med = statistics.median(values)
    p, v = tail_percentile(values)
    tail = (f"p{p} {v:.6g}" if p else "no percentile with 10 samples beyond it")
    return f"  {name:<22} {med:>12.6g} {unit:<9} median; {tail}; n={len(values)}"


def environment(run: Run, workload: str, trace: int):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "blas_threads": dict(BLAS_ENV),
        "run_id": run.run_id,
    }


def measure(run: Run, wl: Workload, lines: list[str]) -> dict[str, tuple[float, str]]:
    """Untraced run: setup probes, then the closed loop of operations."""
    wl.prepare(run)

    def probes():
        return [run.must(wl.setup_probe(run), "setup probe")
                for _ in range(SETUP_PROBES // 2)]

    setup = probes()
    walls, norm, cpu, iters, rss = wl.timed(run)
    setup += probes()
    setup_norm = [p.norm_s for p in setup]
    lines.append(f"{wl.name}: {wl.why}")
    lines.append(describe("ref_cpu_s", "s", run.refs))
    lines.append(describe("setup_s", "s", setup_norm))
    lines.append(describe("setup_cpu_s", "s", [p.cpu_s for p in setup]))
    lines.append(describe("setup_wall_s", "s", [p.wall_s for p in setup]))
    for name, (unit, vals) in walls.items():
        lines.append(describe(name, unit, vals))
    lines.append(describe("op_norm_s", "s", norm))
    lines.append(describe("op_cpu_s", "s", cpu))
    lines.append(describe("op_wall_s", "s", iters))
    lines.append(f"  {'peak_rss_mb':<22} {max(rss):>12.6g} MB        max over {len(rss)} processes")
    return {
        "setup_s": (statistics.median(setup_norm), "s"),
        "op_norm_s": (statistics.median(norm), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }


def measure_traced(run: Run, wl: Workload, lines: list[str]) -> dict[str, tuple[float, str]]:
    """Traced run: one untraced and one traced iteration; per-layer metrics."""
    wl.prepare(run)
    plain_s, traced_s, files, cli_walls = wl.traced(run)
    stats, extras, n_spans = spans.aggregate(files)
    m = spans.layer_metrics(stats, extras, SWEEP_JOBS, cli_walls)
    m["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    m["trace.spans"] = (n_spans, "count")
    m["trace.span_files"] = (len(files), "count")
    lines.append(f"{wl.name} (traced): untraced {plain_s:.4f} s, traced {traced_s:.4f} s")
    for key, (value, unit) in m.items():
        lines.append(f"  {key:<34} {value:>14.6g} {unit}")
    return m


def run_workload(name, seed, seconds, trace, base_tmp):
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=base_tmp)
    run = Run(seed, seconds, tmp)
    lines: list[str] = []
    env = environment(run, name, trace)
    metrics = None
    try:
        metrics = (measure_traced if trace else measure)(run, WORKLOADS[name], lines)
    except RuntimeError as exc:  # a failed preparation step: no result
        run.failures.append(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["inputs_sha256"] = run.inputs
    return run, env, lines, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cotn", "cli.py")):
        print(f"error: no cotn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    base_tmp = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base_tmp, exist_ok=True)
    attempted = failed = 0
    out_metrics = {}
    try:
        for name in names:
            run, env, lines, metrics = run_workload(
                name, args.seed, args.seconds, args.trace, base_tmp)
            print("# env " + json.dumps(env, sort_keys=True))
            for line in lines:
                print(line)
            failures = run.failures
            print(f"  {'fail_ratio':<22} {len(failures)}/{run.attempted}")
            for f in failures:
                print(f"  FAILED: {f}")
            if metrics is None:
                return 1
            attempted += run.attempted
            failed += min(len(failures), run.attempted)  # a failed op may fail several checks
            prefix = "" if len(names) == 1 else f"{name}."
            for key in wanted:
                value, unit = metrics[key]
                out_metrics[prefix + key] = {"value": value, "unit": unit}
    finally:
        try:
            os.rmdir(base_tmp)
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": out_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
