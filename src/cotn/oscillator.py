"""A discrete-time chaotic neural oscillator and its bifurcation sweeps.

The retrograde-signalling Lee oscillator has four neurons. The previous
output feeds back into the excitatory (E) and inhibitory (I) neurons,
every neuron saturates through ``tanh(mu * x)``, and the output is

    L = (E - I) * exp(-k * S^2) + Omega

where ``S`` is the stimulus entering the step. The Gaussian factor means
the E-I dynamics only matter near zero stimulus: for large ``|S|`` the
output collapses onto the input neuron's direct response, while inside
the narrow band around the origin the recurrence can oscillate or wander
chaotically, which is exactly the regime the activation functions
elsewhere in this package harvest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "N_STEPS_DEFAULT",
    "LorsParams",
    "OscState",
    "BifurcationData",
    "ZERO_STATE",
    "lors_step",
    "stimulus_signal",
    "simulate",
    "simulate_many",
    "builtin_params",
    "builtin_type_ids",
    "bifurcation_sweep",
    "write_bifurcation_csv",
]

N_STEPS_DEFAULT = 100

# 17 significant digits: enough for exact float64 round trips in text output.
_FLOAT_FMT = "%.17g"


def _check_finite(obj, names) -> None:
    for name in names:
        v = getattr(obj, name)
        if not math.isfinite(v):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class LorsParams:
    """Parameter vector of one retrograde-signalling oscillator.

    a1..a4 drive the excitatory update, b1..b4 the inhibitory one (a1/b1
    weight the fed-back output, a2/b2 the excitatory state, a3/b3 the
    inhibitory state, a4/b4 the stimulus). mu is the tanh input gain, k
    the output decay constant and e the external stimulus ratio added to
    the raw input as ``e * sgn(input)``.

    The signs stored here are substituted verbatim into the recurrence,
    which subtracts the b2 and b3 terms; builtin parameter sets therefore
    carry negative b2/b3 values where the effective coupling is positive.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    b1: float
    b2: float
    b3: float
    b4: float
    mu: float
    k: float
    xi_e: float = 0.0
    xi_i: float = 0.0
    e: float = 0.001

    def __post_init__(self) -> None:
        _check_finite(self, [f.name for f in fields(self)])
        if self.k < 0:
            raise ValueError(f"decay constant k must be >= 0, got {self.k}")
        if self.mu <= 0:
            raise ValueError(f"tanh gain mu must be > 0, got {self.mu}")
        if self.e < 0:
            raise ValueError(f"stimulus ratio e must be >= 0, got {self.e}")


@dataclass(frozen=True)
class OscState:
    """The oscillator's state after one step.

    e and i are the excitatory/inhibitory activations, omega the input
    neuron's direct response and out the oscillator output L. Reachable
    states keep |e|, |i|, |omega| <= 1 and |out| <= 3; only finiteness is
    enforced here.
    """

    e: float = 0.0
    i: float = 0.0
    omega: float = 0.0
    out: float = 0.0

    def __post_init__(self) -> None:
        _check_finite(self, ("e", "i", "omega", "out"))


ZERO_STATE = OscState()


@dataclass(frozen=True)
class BifurcationData:
    """Settled outputs across a stimulus grid.

    outputs[j] holds the last ``keep_last`` trajectory values for
    stimulus_grid[j]; a tight cluster means a fixed point or small cycle,
    a wide spread marks the chaotic band.
    """

    stimulus_grid: np.ndarray
    outputs: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.stimulus_grid, dtype=np.float64)
        outs = np.asarray(self.outputs, dtype=np.float64)
        if grid.ndim != 1 or outs.ndim != 2 or outs.shape[0] != grid.shape[0]:
            raise ValueError(
                f"grid/outputs shapes inconsistent: {grid.shape} vs {outs.shape}"
            )
        if grid.shape[0] > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("stimulus_grid must be strictly ascending")
        object.__setattr__(self, "stimulus_grid", grid)
        object.__setattr__(self, "outputs", outs)


def _sgn(x: float) -> float:
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def stimulus_signal(raw_input: float, e: float) -> float:
    """Effective stimulus ``S = i + e * sgn(i)`` with sgn(0) = 0."""
    if not math.isfinite(raw_input):
        raise ValueError(f"input must be finite, got {raw_input!r}")
    return raw_input + e * _sgn(raw_input)


def _lors_update(
    e: float, i: float, omega: float, out: float, s: float, p: LorsParams
) -> tuple[float, float, float, float]:
    # Shared scalar kernel so single steps and whole trajectories are
    # bit-identical by construction.
    e_new = math.tanh(p.mu * (p.a1 * out + p.a2 * e - p.a3 * i + p.a4 * s - p.xi_e))
    i_new = math.tanh(p.mu * (p.b1 * out - p.b2 * e - p.b3 * i + p.b4 * s - p.xi_i))
    omega_new = math.tanh(p.mu * s)
    out_new = (e_new - i_new) * math.exp(-p.k * s * s) + omega_new
    return e_new, i_new, omega_new, out_new


def lors_step(state: OscState, raw_input: float, p: LorsParams) -> OscState:
    """Advance the retrograde-signalling oscillator by one step.

    The raw input is first shaped into ``S = i + e * sgn(i)``; E, I and
    Omega are then updated from the previous state (the previous output
    enters through a1/b1) and the new output uses the fresh activations
    with the same S.
    """
    s = stimulus_signal(raw_input, p.e)
    e_new, i_new, omega_new, out = _lors_update(
        state.e, state.i, state.omega, state.out, s, p
    )
    return OscState(e_new, i_new, omega_new, out)


def simulate(raw_input: float, p: LorsParams, n_steps: int = N_STEPS_DEFAULT) -> np.ndarray:
    """Run the retrograde oscillator from rest under constant input.

    Starts from the all-zero state, holds the input fixed for n_steps
    steps and returns the (n_steps,) outputs: entry t is the output after
    step t + 1. lors_step gives the full state of each step through the
    same update kernel.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    s = stimulus_signal(raw_input, p.e)
    e = i = omega = out = 0.0
    values = np.empty(n_steps, dtype=np.float64)
    for t in range(n_steps):
        e, i, omega, out = _lors_update(e, i, omega, out, s, p)
        values[t] = out
    return values


def _libm(fn, a: np.ndarray) -> np.ndarray:
    # fn (math.tanh or math.exp) of every element, through the C library
    # the scalar path calls. numpy's own tanh/exp may be vectorised
    # differently and differ in the last bit.
    return np.fromiter(map(fn, a.tolist()), dtype=np.float64, count=a.size)


def simulate_many(
    raw_inputs, p: LorsParams, n_steps: int = N_STEPS_DEFAULT
) -> np.ndarray:
    """Trajectories of many constant inputs at once, shape (n, n_steps).

    Row j equals ``simulate(raw_inputs[j], p, n_steps)`` bit for
    bit: every input is stepped together with _lors_update's operations
    in its order, and tanh and exp go through the same libm calls.

    Two rules skip steps without changing a bit. A row whose Gaussian
    factor is too small to move the output is Omega throughout and never
    steps: since |E - I| <= 2, ``2 * exp(-k S^2)`` below half the gap
    between |Omega| and the next float towards 0 makes
    ``(E - I) * exp(-k S^2) + Omega`` round to Omega whatever E and I
    are. A row whose state (E, I, L) repeats exactly is at a fixed
    point; once half the rows still stepping are, those stop and their
    remaining outputs are filled with L.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    raw = np.asarray(raw_inputs, dtype=np.float64)
    if raw.ndim != 1:
        raise ValueError(f"raw_inputs must be 1-d, got shape {raw.shape}")
    s = np.array([stimulus_signal(x, p.e) for x in raw.tolist()], dtype=np.float64)
    values = np.empty((s.size, n_steps), dtype=np.float64)
    # Loop invariants of _lors_update: Omega and the Gaussian factor.
    omega = _libm(math.tanh, p.mu * s)
    with np.errstate(over="ignore"):  # -inf for huge inputs, as in floats
        decay = _libm(math.exp, -p.k * s * s)
    # The freeze rule above: these rows are Omega at every step.
    mag = np.abs(omega)
    frozen = 2.0 * decay < 0.5 * (mag - np.nextafter(mag, 0.0))
    values[frozen] = omega[frozen, None]
    live = np.flatnonzero(~frozen)
    a4s, b4s = p.a4 * s[live], p.b4 * s[live]
    omega, decay = omega[live], decay[live]
    e = np.zeros(live.size)
    i = np.zeros(live.size)
    out = np.zeros(live.size)
    for t in range(n_steps):
        if live.size == 0:
            break
        x = p.a1 * out
        x += p.a2 * e
        x -= p.a3 * i
        x += a4s
        x -= p.xi_e
        x *= p.mu
        e_new = _libm(math.tanh, x)
        x = p.b1 * out
        x -= p.b2 * e
        x -= p.b3 * i
        x += b4s
        x -= p.xi_i
        x *= p.mu
        i_new = _libm(math.tanh, x)
        out_new = e_new - i_new
        out_new *= decay
        out_new += omega
        values[live, t] = out_new
        # Bit patterns, so that 0.0 and -0.0 count as different states.
        moving = ((e_new.view(np.int64) != e.view(np.int64))
                  | (i_new.view(np.int64) != i.view(np.int64))
                  | (out_new.view(np.int64) != out.view(np.int64)))
        e, i, out = e_new, i_new, out_new
        # A settled row steps on to the same state, so it may stay until
        # half the rows have settled. Dropping rows only then keeps the
        # arrays to a few sizes: a new size at every step fragmented the
        # heap enough to raise the peak memory of later work.
        if 2 * np.count_nonzero(moving) <= live.size:
            still = ~moving
            values[live[still], t + 1:] = out[still, None]
            live, e, i, out = live[moving], e[moving], i[moving], out[moving]
            a4s, b4s = a4s[moving], b4s[moving]
            omega, decay = omega[moving], decay[moving]
    return values


# Eight builtin parameter sets. Indexed by type id 1..8; b2/b3 are stored
# with the signs the recurrence expects (see LorsParams docstring).
_BUILTIN: dict[int, LorsParams] = {
    1: LorsParams(a1=0.0, a2=5.0, a3=5.0, a4=1.0,
                  b1=0.0, b2=-1.0, b3=1.0, b4=0.0, mu=5.0, k=500.0),
    2: LorsParams(a1=0.5, a2=0.55, a3=0.55, a4=-0.5,
                  b1=0.5, b2=-0.55, b3=-0.55, b4=-0.5, mu=1.0, k=50.0),
    3: LorsParams(a1=0.5, a2=0.6, a3=0.55, a4=0.5,
                  b1=-0.5, b2=-0.6, b3=-0.55, b4=0.5, mu=1.0, k=50.0),
    4: LorsParams(a1=-0.5, a2=0.55, a3=0.55, a4=-0.5,
                  b1=-0.5, b2=-0.55, b3=-0.55, b4=0.5, mu=1.0, k=50.0),
    5: LorsParams(a1=-0.9, a2=0.9, a3=0.9, a4=-0.9,
                  b1=0.9, b2=-0.9, b3=-0.9, b4=0.9, mu=1.0, k=50.0),
    6: LorsParams(a1=-0.9, a2=0.9, a3=0.9, a4=-0.9,
                  b1=0.9, b2=-0.9, b3=-0.9, b4=0.9, mu=1.0, k=300.0),
    7: LorsParams(a1=-5.0, a2=5.0, a3=5.0, a4=-5.0,
                  b1=1.0, b2=-1.0, b3=-1.0, b4=1.0, mu=1.0, k=50.0),
    8: LorsParams(a1=-5.0, a2=5.0, a3=5.0, a4=-5.0,
                  b1=1.0, b2=-1.0, b3=-1.0, b4=1.0, mu=1.0, k=300.0),
}


def builtin_type_ids() -> tuple[int, ...]:
    """Ids of the builtin oscillator types, ascending."""
    return tuple(sorted(_BUILTIN))


def builtin_params(type_id: int) -> LorsParams:
    """Builtin parameter set for one of builtin_type_ids()."""
    try:
        return _BUILTIN[type_id]
    except KeyError:
        ids = builtin_type_ids()
        raise ValueError(
            f"unknown oscillator type {type_id!r}; valid ids are {ids[0]}..{ids[-1]}"
        ) from None


def bifurcation_sweep(
    p: LorsParams,
    x_lo: float,
    x_hi: float,
    n_x: int = 401,
    n_steps: int = 300,
    keep_last: int = 100,
) -> BifurcationData:
    """Sweep a stimulus grid and record the settled outputs per point.

    Each grid point is simulated for n_steps from rest and the final
    keep_last outputs are retained.
    """
    if n_x < 1:
        raise ValueError(f"n_x must be >= 1, got {n_x}")
    if n_x > 1 and not x_lo < x_hi:
        raise ValueError(f"need x_lo < x_hi for a multi-point grid, got [{x_lo}, {x_hi}]")
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise ValueError("grid bounds must be finite")
    if keep_last < 1 or keep_last > n_steps:
        raise ValueError(
            f"keep_last must be in 1..n_steps, got keep_last={keep_last} n_steps={n_steps}"
        )
    grid = np.linspace(x_lo, x_hi, n_x) if n_x > 1 else np.array([x_lo], dtype=np.float64)
    return BifurcationData(grid, simulate_many(grid, p, n_steps)[:, -keep_last:])


def write_bifurcation_csv(data: BifurcationData, path) -> None:
    """Write sweep results as ``x,lors`` rows, one per retained value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,lors\n")
        for x, row in zip(data.stimulus_grid, data.outputs):
            for v in row:
                fh.write(f"{_FLOAT_FMT % x},{_FLOAT_FMT % v}\n")
