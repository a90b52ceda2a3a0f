"""Reference pass: a fixed piece of work that measures a CPU's speed.

The benchmark runs one pass on a CPU just before and just after each
program process it times on that CPU, and scales the process's CPU time
by the passes' mean (see README.md, "Normalised times"). A pass mixes
what cotn's processes spend their time on:

- compute: interpreter loops over floats and dicts, CSV-like text
  handling and small numpy operations (matmul, tanh, exp, searchsorted
  on a table grid), all inside the cache;
- memory: page faults on a fresh 32 MB mapping, streaming over it and a
  random gather from it.

It uses nothing from cotn, so no change to the program changes its speed.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

# CPU seconds one pass is scaled to: normalised times read as the CPU
# seconds the work would take on a CPU where one pass takes this.
NOMINAL_S = 0.1
_COMPUTE_REPS = 5
_MEM_FLOATS = 4 * 1024 * 1024
_GATHER = np.random.default_rng(7).integers(0, _MEM_FLOATS, 1 << 19)


def _compute(reps: int) -> float:
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((64, 16))
    b = rng.standard_normal((16, 32))
    grid = np.linspace(-4.0, 4.0, 4001)
    x = rng.standard_normal(4096)
    acc = 0.0
    seen: dict[int, float] = {}
    for _ in range(reps):
        for i in range(1500):
            acc += (i * 1.000001) % 7.0
            seen[i & 255] = acc
        line = ",".join("%.6f" % (v * 0.001) for v in range(200))
        acc += sum(float(f) for f in line.split(","))
        for _ in range(30):
            c = a @ b
            c = np.tanh(c) * 0.5 + np.exp(-np.abs(c))
            idx = np.searchsorted(grid, x)
            acc += float(c[0, 0]) + int(idx[0])
    return acc


def _memory() -> float:
    m = mmap.mmap(-1, _MEM_FLOATS * 8)  # fresh pages on every pass
    a = np.frombuffer(m, dtype=np.float64)
    a[:] = 1.0
    for _ in range(3):
        a *= 1.0000001
    total = float(a.sum()) + float(a[_GATHER].sum())
    del a
    m.close()
    return total


_compute(1)  # warm-up: first-call costs stay out of every timed pass
_memory()


def reference_cpu_s() -> float:
    """CPU seconds of one pass in this process, on the CPU it runs on."""
    t0 = time.process_time()
    _compute(_COMPUTE_REPS)
    _memory()
    return time.process_time() - t0
