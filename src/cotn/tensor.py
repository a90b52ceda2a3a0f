"""Dense float64 tensors with a define-by-run reverse-mode tape.

Every operation builds the result eagerly with numpy and, when some input
needs gradients, records the inputs plus one vector-Jacobian closure that
returns every input's gradient at once. backward() walks that implicit
graph once in reverse topological order, so each node's closure runs
exactly once per call. Inside ``with no_grad():`` nothing is recorded:
every result is a constant, so inference keeps no tape alive.

The op set is deliberately small: what a toy encoder-decoder forecaster
needs and nothing else. The forecaster's blocks are fused nodes
(attention, affine, layer norm with a residual, the distillation
convolution), because a step's cost is the number of numpy calls and
nodes, not arithmetic. The small ops (elementwise arithmetic with
broadcasting, matmul, masked softmax, time-axis surgery, pluggable
scalar activations) serve the loss, the pooling and the tests' unfused
references. Convention: the last axis is the feature/channel axis and
the second-to-last is time.

The functions below are the only way to build an op: a Tensor has no
arithmetic operators, so every recorded node comes from a named call.

Checkpoints are flat binary containers of named float64 arrays plus a
text manifest; save/load round-trips are bit-exact.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "parameter",
    "constant",
    "glorot_uniform",
    "add",
    "sub",
    "mul",
    "scale",
    "neg",
    "matmul",
    "transpose_last2",
    "softmax_last_axis",
    "layer_norm",
    "affine",
    "attention",
    "apply_activation",
    "slice_time",
    "slice_last",
    "concat_last",
    "shift_time",
    "conv_time3",
    "maxpool_time2",
    "repeat_time2",
    "sum_all",
    "mean_all",
    "no_grad",
    "topo_order",
    "backward",
    "save_tensors",
    "load_tensors",
]

_grad_enabled = True  # process-wide; see no_grad()

NEG_INF = -1e30  # additive mask value; exp() underflows to exactly 0.0
LN_EPS = 1e-5  # layer_norm's variance guard


class Tensor:
    """A float64 array plus the tape bookkeeping to differentiate it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        # g -> one gradient (or None) per parent; None on leaves (see _make).
        self._vjp: Optional[Callable[[np.ndarray], Sequence]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a size-1 tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(np.array(data, dtype=np.float64, copy=True), requires_grad=True)


def constant(data) -> Tensor:
    """A non-trainable leaf tensor."""
    return Tensor(data, requires_grad=False)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: Sequence[int]) -> np.ndarray:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=tuple(shape))


@contextlib.contextmanager
def no_grad():
    """Record nothing inside the block; the previous mode comes back after.

    Op results made inside have requires_grad False and no parents or
    VJP closure, and apply_activation asks only for values. Leaves made
    with parameter() still require gradients. The switch is process-wide,
    not per thread.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    """The result node: vjp(g) returns one gradient per parent, in order
    (None for a parent that needs none), so work shared between them is
    done once."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _rows(x: np.ndarray) -> np.ndarray:
    """x as a matrix of its last-axis rows (a view when x is contiguous)."""
    return x.reshape(-1, x.shape[-1])


def _transposed(w: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of a matrix's transpose. numpy multiplies by it
    faster than by the transposed view (about 10 against 17 us for 768
    rows of 16 on one core), with the same bits for many shapes but not
    all."""
    return np.ascontiguousarray(w.T)


@functools.lru_cache(maxsize=16)
def _centering(n: int) -> np.ndarray:
    """The read-only (n, n) matrix I - 1/n: a row times it is the row
    minus its mean."""
    c = np.eye(n) - 1.0 / n
    c.flags.writeable = False
    return c


@functools.lru_cache(maxsize=64)
def _column(n: int, value: float) -> np.ndarray:
    """A read-only (n, 1) column of one value. A matrix times it sums (or,
    with 1/n, averages) each row in one GEMM, which numpy does much
    faster than a reduction over a short last axis."""
    col = np.full((n, 1), value)
    col.flags.writeable = False
    return col


def _row_sums(x: np.ndarray) -> np.ndarray:
    """The sums over x's last axis, keeping it, by one GEMM."""
    n = x.shape[-1]
    return (_rows(x) @ _column(n, 1.0)).reshape(x.shape[:-1] + (1,))


def _col_sums(x: np.ndarray) -> np.ndarray:
    """The sums over every axis of x but the last, by one GEMM with a ones
    row (numpy reduces a tall matrix's first axis much more slowly)."""
    rows = _rows(x)
    return (np.ones((1, rows.shape[0])) @ rows).reshape(x.shape[-1])


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs >= 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")

    def vjp(g: np.ndarray) -> tuple:
        return (
            _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None,
            _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None,
        )

    return _make(a.data @ b.data, (a, b), vjp)


def transpose_last2(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise ValueError(f"transpose_last2 needs >= 2-d input, got {a.shape}")
    return _make(np.swapaxes(a.data, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def softmax_last_axis(x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Softmax over the last axis, optionally after adding a constant mask.

    The mask broadcasts against x and is not differentiated; use NEG_INF
    entries to zero attention weights exactly.
    """
    z = x.data if mask is None else x.data + mask
    y = np.subtract(z, z.max(axis=-1, keepdims=True))
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g: np.ndarray) -> tuple:
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return _make(y, (x,), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, residual: Tensor) -> Tensor:
    """Normalize x + residual over the last axis to zero mean / unit
    variance, then affine, in one node (the sublayer add of a Transformer
    block).

    Centering, the variance's mean and the gain are GEMMs: z @ (I - 1/d),
    (xc * xc) @ (1/d column) and xhat @ diag(gamma). For the narrow rows
    of this model (d_model 8 to 16) numpy does them faster than
    broadcasting a column or a row over many short rows; the (d, d)
    matrices make them O(d^2) per row, and from d about 64 on the
    broadcast forms would be faster.
    """
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(
            f"gamma/beta must have shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    if residual.shape != x.shape:
        raise ValueError(f"residual shape {residual.shape} is not x's {x.shape}")
    z = _rows(x.data + residual.data)
    avg = _column(d, 1.0 / d)
    center = _centering(d)
    xc = z @ center
    inv = 1.0 / np.sqrt((xc * xc) @ avg + LN_EPS)
    xhat = xc * inv
    y = xhat @ np.diag(gamma.data)
    y += beta.data

    def vjp(g: np.ndarray) -> list:
        g = _rows(g)
        dz = None
        if x.requires_grad or residual.requires_grad:
            dxhat = g @ np.diag(gamma.data)
            dz = dxhat @ center
            dxhat *= xhat
            dz -= xhat * (dxhat @ avg)
            dz *= inv
            dz = dz.reshape(x.shape)
        dgamma = _col_sums(g * xhat) if gamma.requires_grad else None
        dbeta = _col_sums(g) if beta.requires_grad else None
        return [dz, dgamma, dbeta, dz]

    return _make(y.reshape(x.shape), (x, gamma, beta, residual), vjp)


def affine(x: Tensor, w: Tensor, b: Tensor, offset: Optional[np.ndarray] = None) -> Tensor:
    """x @ w + b over x's last axis, as one node with one GEMM over all
    rows of x.

    offset, a constant that broadcasts against the result (an
    embedding's position table), is added after the bias and not
    differentiated.
    """
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ValueError(f"affine needs x (..., n) and w (n, m), got {x.shape} and {w.shape}")
    if b.shape != w.shape[1:]:
        raise ValueError(f"bias must have shape ({w.shape[1]},), got {b.shape}")
    rows = _rows(x.data)
    y = rows @ w.data
    y += b.data
    y = y.reshape(x.shape[:-1] + b.shape)
    if offset is not None:
        y += offset

    def vjp(g: np.ndarray) -> list:
        g = _rows(g)
        return [
            (g @ _transposed(w.data)).reshape(x.shape) if x.requires_grad else None,
            rows.T @ g if w.requires_grad else None,
            _col_sums(g) if b.requires_grad else None,
        ]

    return _make(y, (x, w, b), vjp)


def attention(q: Tensor, kv: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
              n_heads: int, mask: Optional[np.ndarray] = None) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    q has shape (..., Lq, d) and kv, the keys' and values' one source,
    (..., Lk, d); all four projection matrices are (d, d). Head h is
    column block h of the projections: softmax(Q_h K_h^T / sqrt(d /
    n_heads) + mask) V_h. The heads are merged back into d columns before
    the output projection. The optional additive mask must broadcast to
    the (..., Lq, Lk) scores; it applies to every head and is not
    differentiated.

    Self-attention (q is kv) projects by one GEMM against the three
    weights side by side; otherwise q takes one GEMM and kv one against
    wk and wv side by side. Softmax row sums are GEMMs with a ones
    column. The VJP computes every gradient in one pass.
    """
    d = q.shape[-1]
    if n_heads < 1 or d % n_heads != 0:
        raise ValueError(f"model width {d} not divisible by n_heads {n_heads}")
    if kv.shape[-1] != d:
        raise ValueError(f"q/kv widths disagree: {q.shape}, {kv.shape}")
    if q.shape[:-2] != kv.shape[:-2]:
        raise ValueError(f"q/kv batch shapes disagree: {q.shape}, {kv.shape}")
    for name, w in (("wq", wq), ("wk", wk), ("wv", wv), ("wo", wo)):
        if w.shape != (d, d):
            raise ValueError(f"{name} must be ({d}, {d}), got {w.shape}")
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)
    lead, lq = q.shape[:-2], q.shape[-2]
    if mask is not None:
        scores = lead + (lq, kv.shape[-2])
        try:
            mask = np.broadcast_to(mask, scores)
        except ValueError:
            raise ValueError(f"mask of shape {np.shape(mask)} does not broadcast to the "
                             f"(..., Lq, Lk) scores {scores}") from None

    def heads_of(arr: np.ndarray, length: int, n: int) -> np.ndarray:
        # (..., length, n * d) -> (n, ..., H, length, dh), a view.
        arr = arr.reshape(lead + (length, n, n_heads, dh))
        return np.swapaxes(np.moveaxis(arr, -3, 0), -2, -3)

    # Each input with its weights side by side, in q, k, v order. The
    # score scale is folded into wq, so the projections give q / sqrt(dh).
    wqs = wq.data * scale
    if q is kv:
        packed = [(q, np.concatenate([wqs, wk.data, wv.data], axis=1))]
    else:
        packed = [(q, wqs), (kv, np.concatenate([wk.data, wv.data], axis=1))]
    qh, kh, vh = (h for t, w in packed
                  for h in heads_of(_rows(t.data) @ w, t.shape[-2], w.shape[1] // d))
    e = qh @ np.swapaxes(kh, -1, -2)
    if mask is not None:
        e += np.expand_dims(mask, -3)
    # A max is exact in any order, so it reduces the leading axis of a
    # transposed copy, which numpy does faster than a short last axis.
    e -= np.moveaxis(e, -1, 0).copy().max(axis=0)[..., None]
    np.exp(e, out=e)
    # Each head's output is written straight into its columns of the
    # merged rows and divided by its softmax row sums there, the smaller
    # array.
    rinv = 1.0 / _row_sums(e)  # (..., H, Lq, 1)
    merged = np.empty(lead + (lq, n_heads, dh))
    np.matmul(e, vh, out=np.swapaxes(merged, -2, -3))
    merged *= np.swapaxes(rinv, -2, -3)
    merged = merged.reshape(-1, d)
    out = (merged @ wo.data).reshape(q.shape)

    def vjp(g: np.ndarray) -> list:
        g = _rows(g)
        # u is the output gradient of each head over its row sums, so that
        # a = e * rinv never has to be formed.
        u = (g @ _transposed(wo.data)).reshape(lead + (lq, n_heads, dh))
        u *= np.swapaxes(rinv, -2, -3)
        u = np.swapaxes(u, -2, -3)
        # Softmax: with a = e * rinv and du = u @ vh^T (the gradient of a
        # times rinv), ds = a * (da - rowsum(da * a)) = e * (du - rowsum(du
        # * e) * rinv).
        du = u @ np.swapaxes(vh, -1, -2)
        ds = du * e
        c = _row_sums(ds)
        c *= rinv
        du -= c
        np.multiply(du, e, out=ds)
        # The gradients of the q, k and v projections (in that order), as
        # matmul operands.
        factors = ((ds, kh), (np.swapaxes(ds, -1, -2), qh), (np.swapaxes(e, -1, -2), u))
        dinputs, dweights = [], []
        for t, w in packed:
            n = w.shape[1] // d
            dp = np.empty(t.shape[:-1] + (n * d,))
            for j, view in enumerate(heads_of(dp, t.shape[-2], n)):
                np.matmul(*factors[len(dweights) + j], out=view)
            dp = _rows(dp)
            dinputs.append((dp @ _transposed(w)).reshape(t.shape) if t.requires_grad
                           else None)
            dw = _rows(t.data).T @ dp
            dweights += [dw[:, j * d : (j + 1) * d] for j in range(n)]
        dweights[0] = dweights[0] * scale
        return dinputs + dweights + [merged.T @ g]

    return _make(out, (*(t for t, _ in packed), wq, wk, wv, wo), vjp)


def apply_activation(x: Tensor, act) -> Tensor:
    """Elementwise activation through an object with two methods.

    When the result is recorded, ``act.value_and_slope(x)`` gives the
    output and the elementwise slope in one call, and the VJP reuses that
    slope; otherwise ``act.value(x)`` alone runs.
    """
    if _grad_enabled and x.requires_grad:
        y, slope = act.value_and_slope(x.data)
    else:
        y, slope = act.value(x.data), None
    if y.shape != x.data.shape:
        raise ValueError(
            f"activation {getattr(act, 'name', act)!r} changed shape: "
            f"{x.data.shape} -> {y.shape}"
        )
    return _make(y, (x,), lambda g: (g * slope,))


def _check_time_axis(x: Tensor, op: str) -> int:
    if x.ndim < 2:
        raise ValueError(f"{op} needs >= 2-d input (time, features), got {x.shape}")
    return x.shape[-2]


def slice_time(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop along the time axis."""
    length = _check_time_axis(x, "slice_time")
    if not 0 <= start < stop <= length:
        raise ValueError(f"bad time slice [{start}:{stop}] for length {length}")
    data = x.data[..., start:stop, :]

    def vjp(g: np.ndarray) -> tuple:
        full = np.zeros_like(x.data)
        full[..., start:stop, :] = g
        return (full,)

    return _make(data, (x,), vjp)


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns start:stop along the feature axis."""
    width = x.shape[-1]
    if not 0 <= start < stop <= width:
        raise ValueError(f"bad feature slice [{start}:{stop}] for width {width}")
    data = x.data[..., start:stop]

    def vjp(g: np.ndarray) -> tuple:
        full = np.zeros_like(x.data)
        full[..., start:stop] = g
        return (full,)

    return _make(data, (x,), vjp)


def concat_last(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the feature axis."""
    parts = list(parts)
    if not parts:
        raise ValueError("concat_last needs at least one part")
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead:
            raise ValueError(
                f"concat_last parts disagree on leading shape: "
                f"{[p.shape for p in parts]}"
            )
    data = np.concatenate([p.data for p in parts], axis=-1)
    offsets = np.cumsum([0] + [p.shape[-1] for p in parts])
    return _make(data, parts,
                 lambda g: tuple(g[..., lo:hi] for lo, hi in zip(offsets, offsets[1:])))


# matmul, transpose_last2, softmax_last_axis, neg, slice_last,
# concat_last and shift_time have no caller in the package (the fused
# nodes do that work). They stay in the op set because
# perfbench/tracer.py wraps every tape op by name and refuses to install
# when one is missing, and the tests build the unfused references from
# them.


def shift_time(x: Tensor, offset: int) -> Tensor:
    """Shift rows along time by ``offset`` with zero fill.

    offset=+1 delays the sequence (row t takes the old row t-1); negative
    offsets advance it.
    """
    length = _check_time_axis(x, "shift_time")
    if abs(offset) >= length:
        raise ValueError(f"|offset| must be < time length {length}, got {offset}")
    if offset == 0:
        return _make(x.data.copy(), (x,), lambda g: (g,))
    data = np.zeros_like(x.data)
    if offset > 0:
        data[..., offset:, :] = x.data[..., :-offset, :]
    else:
        data[..., :offset, :] = x.data[..., -offset:, :]

    def vjp(g: np.ndarray) -> tuple:
        out = np.zeros_like(g)
        if offset > 0:
            out[..., :-offset, :] = g[..., offset:, :]
        else:
            out[..., -offset:, :] = g[..., :offset, :]
        return (out,)

    return _make(data, (x,), vjp)


def conv_time3(x: Tensor, w_prev: Tensor, w_cur: Tensor, w_next: Tensor,
               bias: Tensor) -> Tensor:
    """Depthwise convolution along time, kernel 3, zero same-padding, as
    one node: row t of channel c is w_prev[c] x[t-1] + w_cur[c] x[t] +
    w_next[c] x[t+1] + bias[c], with the rows outside x taken as zero."""
    length, d = _check_time_axis(x, "conv_time3"), x.shape[-1]
    for t in (w_prev, w_cur, w_next, bias):
        if t.shape != (d,):
            raise ValueError(f"conv_time3 taps and bias must have shape ({d},), got {t.shape}")
    h = x.data
    y = h * w_cur.data
    y[..., 1:, :] += h[..., :-1, :] * w_prev.data
    ahead = np.zeros_like(h)
    np.multiply(h[..., 1:, :], w_next.data, out=ahead[..., :-1, :])
    ahead += bias.data
    y += ahead

    def vjp(g: np.ndarray) -> list:
        dx = None
        if x.requires_grad:
            dx = g * w_cur.data
            dx[..., :-1, :] += g[..., 1:, :] * w_prev.data
            dx[..., 1:, :] += g[..., :-1, :] * w_next.data
        return [
            dx,
            _col_sums(g[..., 1:, :] * h[..., :-1, :]) if w_prev.requires_grad else None,
            _col_sums(g * h) if w_cur.requires_grad else None,
            _col_sums(g[..., :-1, :] * h[..., 1:, :]) if w_next.requires_grad else None,
            _col_sums(g) if bias.requires_grad else None,
        ]

    return _make(y, (x, w_prev, w_cur, w_next, bias), vjp)


def maxpool_time2(x: Tensor) -> Tensor:
    """Stride-2 max over adjacent time rows; odd tails pass through.

    Output length is ceil(L / 2). Ties route the gradient to the earlier
    row.
    """
    length = _check_time_axis(x, "maxpool_time2")
    n_pairs = length // 2
    a = x.data[..., 0 : 2 * n_pairs : 2, :]
    b = x.data[..., 1 : 2 * n_pairs : 2, :]
    first_wins = a >= b
    pooled = np.where(first_wins, a, b)
    if length % 2:
        data = np.concatenate([pooled, x.data[..., -1:, :]], axis=-2)
    else:
        data = pooled

    def vjp(g: np.ndarray) -> tuple:
        full = np.zeros_like(x.data)
        gp = g[..., :n_pairs, :]
        full[..., 0 : 2 * n_pairs : 2, :] = np.where(first_wins, gp, 0.0)
        full[..., 1 : 2 * n_pairs : 2, :] = np.where(first_wins, 0.0, gp)
        if length % 2:
            full[..., -1:, :] += g[..., -1:, :]
        return (full,)

    return _make(data, (x,), vjp)


def repeat_time2(x: Tensor, out_len: int) -> Tensor:
    """Duplicate each time row, then trim to out_len (nearest-neighbor)."""
    length = _check_time_axis(x, "repeat_time2")
    if not 1 <= out_len <= 2 * length:
        raise ValueError(f"out_len must be in 1..{2 * length}, got {out_len}")
    data = np.repeat(x.data, 2, axis=-2)[..., :out_len, :]

    def vjp(g: np.ndarray) -> tuple:
        pad = np.zeros(x.shape[:-2] + (2 * length, x.shape[-1]), dtype=np.float64)
        pad[..., :out_len, :] = g
        return (pad[..., 0::2, :] + pad[..., 1::2, :],)

    return _make(data, (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    data = np.asarray(x.data.sum())
    return _make(data, (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    data = np.asarray(x.data.mean())
    return _make(data, (x,), lambda g: (np.broadcast_to(g / n, x.shape).copy(),))


def topo_order(root: Tensor) -> list[Tensor]:
    """All tape nodes reachable from root, parents before children.

    Iterative post-order walk; each node appears exactly once even when
    it feeds several consumers.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-mode pass from a scalar loss.

    Accumulates into .grad on every requires_grad leaf reachable from the
    loss and returns those leaves mapped to their gradients.
    """
    if loss.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.asarray(1.0)}
    result: dict[Tensor, np.ndarray] = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is not None:
            pgs = node._vjp(g)
            if len(pgs) != len(node._parents):
                raise ValueError(f"vjp gave {len(pgs)} gradient(s) for "
                                 f"{len(node._parents)} parents")
            for parent, pg in zip(node._parents, pgs):
                if pg is None or not parent.requires_grad:
                    continue
                pg = np.asarray(pg, dtype=np.float64)
                if pg.shape != parent.shape:
                    raise ValueError(
                        f"vjp produced shape {pg.shape} for parent of shape "
                        f"{parent.shape}"
                    )
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        elif node.requires_grad:
            if node.grad is None:
                node.grad = np.array(g, dtype=np.float64, copy=True)
            else:
                node.grad = node.grad + g
            result[node] = node.grad
    return result


_MAGIC = "TENSORBIN 1"


def save_tensors(path, tensors: dict[str, np.ndarray],
                 meta: Optional[dict[str, str]] = None) -> None:
    """Write named float64 arrays as manifest text plus raw payload.

    Arrays are stored row-major little-endian; the round trip through
    load_tensors is bit-exact. The manifest ends with the payload's
    sha256, which load_tensors checks. Names must be non-empty and free
    of whitespace; meta values must not contain newlines.
    """
    meta = dict(meta or {})
    for key, val in meta.items():
        if "\n" in key or "\n" in str(val) or "=" in key:
            raise ValueError(f"bad meta entry {key!r}")
    blobs: list[bytes] = []
    lines = [_MAGIC, f"meta {len(meta)}"]
    for key in sorted(meta):
        lines.append(f"{key}={meta[key]}")
    entries = []
    offset = 0
    for name in sorted(tensors):
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"bad tensor name {name!r}")
        # ascontiguousarray would promote 0-d arrays to shape (1,), so
        # record the shape before flattening to bytes.
        arr = np.asarray(tensors[name], dtype=np.float64)
        raw = np.ascontiguousarray(arr).astype("<f8", copy=False).tobytes()
        dims = " ".join(str(d) for d in arr.shape)
        entries.append(f"{name} {arr.ndim}{' ' + dims if dims else ''} {offset} {len(raw)}")
        blobs.append(raw)
        offset += len(raw)
    lines.append(f"tensors {len(entries)}")
    lines.extend(entries)
    payload = b"".join(blobs)
    lines.append(f"sha256 {hashlib.sha256(payload).hexdigest()}")
    lines.append("END")
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("ascii") + b"\n")
        fh.write(payload)


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a container written by save_tensors.

    The manifest must end with the payload's sha256, and the payload must
    match it.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0

    def next_line() -> str:
        nonlocal pos
        end = buf.index(b"\n", pos)
        line = buf[pos:end].decode("ascii")
        pos = end + 1
        return line

    try:
        if next_line() != _MAGIC:
            raise ValueError("not a tensor container")
        tag, n_meta = next_line().split()
        if tag != "meta":
            raise ValueError("malformed meta header")
        meta: dict[str, str] = {}
        for _ in range(int(n_meta)):
            key, _, val = next_line().partition("=")
            meta[key] = val
        tag, n_tensors = next_line().split()
        if tag != "tensors":
            raise ValueError("malformed tensor header")
        entries = []
        for _ in range(int(n_tensors)):
            parts = next_line().split()
            name, ndim = parts[0], int(parts[1])
            dims = tuple(int(d) for d in parts[2 : 2 + ndim])
            off, nbytes = int(parts[2 + ndim]), int(parts[3 + ndim])
            if min(dims + (off, nbytes)) < 0:
                raise ValueError(f"negative size in entry {name!r}")
            entries.append((name, dims, off, nbytes))
        tag, _, digest = next_line().partition(" ")
        if tag != "sha256":
            raise ValueError("missing sha256 line")
        if next_line() != "END":
            raise ValueError("missing END marker")
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: corrupt tensor container ({exc})") from None
    payload = buf[pos:]
    if hashlib.sha256(payload).hexdigest() != digest:
        raise ValueError(f"{path}: payload digest mismatch")
    tensors: dict[str, np.ndarray] = {}
    for name, dims, off, nbytes in entries:
        raw = payload[off : off + nbytes]
        if len(raw) != 8 * math.prod(dims):
            raise ValueError(f"{path}: payload size mismatch for {name!r}")
        flat = np.frombuffer(raw, dtype="<f8")
        tensors[name] = flat.reshape(dims).astype(np.float64, copy=True)
    return tensors, meta
