"""Scalar activations compiled from oscillator trajectories.

An oscillator type becomes an activation function by simulating the
retrograde map for 100 steps at the given input and taking the maximum
output over the run (max-over-time). Outside the chaotic band the
trajectory is flat so the maximum equals the settled response; inside it
the maximum summarizes the transient.

Because one exact evaluation costs a 100-step simulation, the function is
tabulated once on a uniform grid and evaluated by piecewise-linear
interpolation with clamping. A table is its bounds and its node values,
and its grid is np.linspace(x_min, x_max, n_nodes) by construction: a
query's segment comes from its scaled offset, corrected by at most one
step against the nodes, in constant time and bit-identical to a binary
search. One lookup returns the
interpolated value and the segment slope together, so a recorded forward
pass never looks the table up again for its backward pass. Node values
are produced by the exact path, so table and exact function agree
bit-for-bit on the grid. Between nodes the approximation error is
dominated by the chaotic band where the true function is rough:
measured on 10,000 uniform samples (type 1), the worst
absolute deviation is about 0.6 both on [-2, 2] with 2001 nodes and on
the default [-4, 4] grid with 4001 nodes, all of it inside |x| < 0.12,
while outside the band the error stays below 1e-5. Training-scale inputs
hit the band often: during a 4-epoch type-1 run of the benchmark model
(the bundled synthetic benchmark, batch 32, no anomaly weighting), 9.7%
of FFN inputs had |x| < 0.12 and 22% had |x| < 0.276 (type 1's first
frozen node). The gate below blends the table with GELU.

The gated activation blends the exact-erf GELU with a tabulated
oscillator activation through a fixed mixing weight lam in [0, 1]:

    gated(x) = lam * gelu(x) + (1 - lam) * table(x)

The table, GELU and gate functions take and return arrays (ndim >= 1).
The activation objects at the bottom are what cotn.tensor.apply_activation
consumes: value(x) when no gradient is recorded, value_and_slope(x) when
the tape records one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf as _erf

from .oscillator import (
    LorsParams,
    N_STEPS_DEFAULT,
    builtin_params,
    simulate,
    simulate_many,
)

__all__ = [
    "MetaActivationTable",
    "mot_activation_exact",
    "fixed_step_activation",
    "build_table",
    "table_for_type",
    "table_eval",
    "table_grad",
    "gelu_value_and_slope",
    "gelu",
    "gelu_grad",
    "gated_activation",
    "write_table",
    "GeluActivation",
    "GatedLeeActivation",
]

TABLE_X_MIN_DEFAULT = -4.0
TABLE_X_MAX_DEFAULT = 4.0
TABLE_N_NODES_DEFAULT = 4001

_FLOAT_FMT = "%.17g"


def mot_activation_exact(x: float, p: LorsParams) -> float:
    """Max-over-time activation: peak oscillator output over a full run."""
    return float(np.max(simulate(x, p)))


def fixed_step_activation(x: float, p: LorsParams, t: int) -> float:
    """Oscillator output after exactly t steps (t in 1..100).

    Used for fixed-step ablations; t = 15 and t = 35 are the documented
    reference points but any step inside the run is accepted.
    """
    if not 1 <= t <= N_STEPS_DEFAULT:
        raise ValueError(f"t must be in 1..{N_STEPS_DEFAULT}, got {t}")
    return float(simulate(x, p, t)[-1])


@dataclass(frozen=True, eq=False)
class MetaActivationTable:
    """Piecewise-linear tabulation of a max-over-time activation.

    values holds the exact activation at each node of the uniform grid
    nodes = np.linspace(x_min, x_max, len(values)), of at least 2 nodes;
    steps and rises are the segments' np.diff of nodes and of values,
    which the lookup gathers. type_id identifies the builtin oscillator
    type (0 marks a custom parameter set). Each refusal starts with the
    field's name. Tables compare by identity, as their fields are arrays.
    """

    type_id: int
    x_min: float
    x_max: float
    values: np.ndarray
    nodes: np.ndarray = field(init=False, repr=False)
    steps: np.ndarray = field(init=False, repr=False)
    rises: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        x_min, x_max = float(self.x_min), float(self.x_max)
        if not math.isfinite(x_min):
            raise ValueError(f"x_min: expected a finite number, got {x_min!r}")
        if not (math.isfinite(x_max - x_min) and x_max > x_min):
            raise ValueError(f"x_max: expected a number > x_min ({x_min!r}) with a "
                             f"finite x_max - x_min, got {x_max!r}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 2:
            raise ValueError(f"values: expected a 1-d array of >= 2 entries, "
                             f"got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"values: expected finite numbers, "
                             f"got {float(values[~np.isfinite(values)][0])!r}")
        nodes = np.linspace(x_min, x_max, values.size)
        object.__setattr__(self, "x_min", x_min)
        object.__setattr__(self, "x_max", x_max)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "steps", np.diff(nodes))
        object.__setattr__(self, "rises", np.diff(values))
        # _bracket trusts its scaled guess to within one segment. The guess
        # is monotone in x, so if that holds at every node and at the float
        # just below it, it holds for every input. It fails on grids too
        # fine for float64 (a subnormal spacing whose inverse overflows).
        below = np.nextafter(nodes[1:], -np.inf)
        seg = np.arange(nodes.size - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            exact = (np.array_equal(_bracket(self, nodes[:-1]), seg)
                     and np.array_equal(_bracket(self, below), seg))
        if not exact:
            raise ValueError(f"x_max: expected a node spacing that float64 resolves, "
                             f"got {(x_max - x_min) / (nodes.size - 1)!r}")

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)


def build_table(
    p: LorsParams,
    x_min: float = TABLE_X_MIN_DEFAULT,
    x_max: float = TABLE_X_MAX_DEFAULT,
    n_nodes: int = TABLE_N_NODES_DEFAULT,
    type_id: int = 0,
) -> MetaActivationTable:
    """Tabulate the max-over-time activation on a uniform grid.

    Every node value is the maximum of its row of simulate_many, which
    steps all nodes at once bit-identically to simulate, so the table
    reproduces mot_activation_exact bit-for-bit at the nodes.
    """
    if not (math.isfinite(x_min) and math.isfinite(x_max - x_min)) or not x_min < x_max:
        raise ValueError(f"need finite x_min < x_max with a finite x_max - x_min, "
                         f"got [{x_min}, {x_max}]")
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    values = simulate_many(np.linspace(x_min, x_max, n_nodes), p).max(axis=1)
    return MetaActivationTable(type_id, x_min, x_max, values)


@functools.lru_cache(maxsize=None)
def table_for_type(type_id: int) -> MetaActivationTable:
    """Cached tabulation of a builtin oscillator type on the default grid."""
    return build_table(builtin_params(type_id), type_id=type_id)


def _bracket(tab: MetaActivationTable, x: np.ndarray) -> np.ndarray:
    # Segment index per query: j such that nodes[j] <= x < nodes[j+1],
    # clipped into [0, n-2]; bit-identical to
    # clip(searchsorted(nodes, x, side="right") - 1, 0, n-2), NaN (which
    # lands on n-2) included. The scaled offset is clamped into range
    # with fmin/fmax, which also send NaN to n-2; truncating it gives a
    # guess within one segment of the answer on the uniform grid (checked
    # when the table is built), and one comparison each way fixes it.
    top = tab.n_nodes - 2
    guess = x - tab.x_min
    guess *= (tab.n_nodes - 1) / (tab.x_max - tab.x_min)
    np.fmin(guess, top, out=guess)
    np.fmax(guess, 0.0, out=guess)
    j = guess.astype(np.intp)
    j += x >= tab.nodes[j + 1]
    j -= x < tab.nodes[j]
    return np.clip(j, 0, top, out=j)


def _table_lookup(tab: MetaActivationTable, xq: np.ndarray, with_slope: bool):
    # Value and, with with_slope, slope of the lookup of a float64 array;
    # the slope is None without it, which skips the slope's last steps.
    j = _bracket(tab, xq)
    left = tab.nodes[j]
    step = tab.steps[j]
    base = tab.values[j]
    slope = tab.rises[j]  # the rise for now
    # base + (x - left) / step * rise, evaluated in place.
    value = xq - left
    value /= step
    value *= slope
    value += base
    # x <= left holds exactly at a node hit (which repairs w = 0 against
    # signed zeros) and below x_min (where j = 0); both take values[j].
    np.copyto(value, base, where=xq <= left)
    clamped = xq >= tab.x_max
    np.copyto(value, tab.values[-1], where=clamped)
    if with_slope:
        slope /= step
        clamped |= xq < tab.x_min
        np.copyto(slope, 0.0, where=clamped)
    else:
        slope = None
    return value, slope


def table_eval(tab: MetaActivationTable, x):
    """Piecewise-linear table lookup, exact at the nodes, clamped to the
    boundary node values outside [x_min, x_max]."""
    return _table_lookup(tab, np.asarray(x, dtype=np.float64), False)[0]


def table_grad(tab: MetaActivationTable, x):
    """Slope of the segment table_eval uses (the right-hand one at a
    node); 0 below x_min and at or beyond x_max, where it clamps."""
    return _table_lookup(tab, np.asarray(x, dtype=np.float64), True)[1]


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu_value(xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # GELU of an array plus the 2 * Phi(x) term its derivative reuses, in
    # the order of 1 + erf(x / sqrt 2) and (x * 0.5) * cdf2, with the sum
    # and the product taken in place. erf writes a fresh array: dividing
    # into a preallocated one and taking erf in place raised the peak RSS
    # of a 17k-row `cotn train` by 2.5 MB.
    cdf2 = _erf(xq / _SQRT2)
    cdf2 += 1.0
    value = xq * 0.5
    value *= cdf2
    return value, cdf2


def _gelu_slope(xq: np.ndarray, cdf2: np.ndarray) -> np.ndarray:
    return 0.5 * cdf2 + xq * (np.exp(-0.5 * xq * xq) * _INV_SQRT_2PI)


def gelu(x):
    """Exact-erf GELU: x * Phi(x) with Phi the standard normal CDF."""
    return _gelu_value(np.asarray(x, dtype=np.float64))[0]


def gelu_value_and_slope(x):
    """Exact-erf GELU and its derivative Phi(x) + x * phi(x), phi the
    standard normal density; erf is evaluated once for both."""
    xq = np.asarray(x, dtype=np.float64)
    value, cdf2 = _gelu_value(xq)
    return value, _gelu_slope(xq, cdf2)


def gelu_grad(x):
    """Derivative of the exact-erf GELU: Phi(x) + x * phi(x)."""
    return gelu_value_and_slope(x)[1]


def _gated(xq: np.ndarray, lam: float, tab: MetaActivationTable, with_slope: bool):
    # The blend and, if asked, its slope; the value-only path skips the
    # GELU derivative and the table slope.
    g_value, cdf2 = _gelu_value(xq)
    t_value, t_slope = _table_lookup(tab, xq, with_slope)
    rest = 1.0 - lam
    value = lam * g_value + rest * t_value
    slope = lam * _gelu_slope(xq, cdf2) + rest * t_slope if with_slope else None
    return value, slope


def gated_activation(x, lam: float, tab: MetaActivationTable):
    """Blend ``lam * gelu(x) + (1 - lam) * table(x)``."""
    return _gated(np.asarray(x, dtype=np.float64), lam, tab, False)[0]


def write_table(tab: MetaActivationTable, path) -> None:
    """Write a table as a small header block plus ``x,f`` rows.

    Floats are printed with 17 significant digits so a read-back restores
    them bit-for-bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"type_id={tab.type_id}\n")
        fh.write(f"x_min={_FLOAT_FMT % tab.x_min}\n")
        fh.write(f"x_max={_FLOAT_FMT % tab.x_max}\n")
        fh.write(f"n_nodes={tab.n_nodes}\n")
        fh.write("x,f\n")
        for xv, fv in zip(tab.nodes, tab.values):
            fh.write(f"{_FLOAT_FMT % xv},{_FLOAT_FMT % fv}\n")


class GeluActivation:
    """Array-valued exact-erf GELU for the tensor engine."""

    name = "gelu"

    def value(self, x: np.ndarray) -> np.ndarray:
        return gelu(x)

    def value_and_slope(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return gelu_value_and_slope(x)


class GatedLeeActivation:
    """Array-valued gated blend of GELU and one tabulated oscillator type.

    lam is used as given; cotn.model.ActivationMode range-checks it and
    matches the table's type to the setting's.
    """

    def __init__(self, lam: float, tab: MetaActivationTable):
        self.lam = lam
        self.tab = tab
        self.name = f"gated(type={tab.type_id}, lam={lam:g})"

    def value(self, x: np.ndarray) -> np.ndarray:
        return gated_activation(x, self.lam, self.tab)

    def value_and_slope(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _gated(np.asarray(x, dtype=np.float64), self.lam, self.tab, True)
