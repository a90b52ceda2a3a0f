"""Dense float64 tensors with a define-by-run reverse-mode tape.

Every operation builds the result eagerly with numpy and, when some input
needs gradients, records the inputs plus one vector-Jacobian closure per
input on the result. backward() walks that implicit graph once in reverse
topological order, so each node's closure runs exactly once per call.
Inside ``with no_grad():`` nothing is recorded: every result is a
constant, so inference keeps no tape alive.

The op set is deliberately small: what a toy encoder-decoder forecaster
needs (batched matmul, layer norm, masked softmax, elementwise arithmetic
with broadcasting, time-axis surgery for convolution/pooling/expansion,
pluggable scalar activations) and nothing else. Convention: the last axis
is the feature/channel axis and the second-to-last is time.

The functions below are the only way to build an op: a Tensor has no
arithmetic operators, so every recorded node comes from a named call.

Checkpoints are flat binary containers of named float64 arrays plus a
text manifest; save/load round-trips are bit-exact.
"""

from __future__ import annotations

import contextlib
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
    "apply_activation",
    "slice_time",
    "slice_last",
    "concat_last",
    "split_heads",
    "merge_heads",
    "shift_time",
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


class Tensor:
    """A float64 array plus the tape bookkeeping to differentiate it."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjps: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()

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
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"


def parameter(data, name: Optional[str] = None) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(np.array(data, dtype=np.float64, copy=True), requires_grad=True, name=name)


def constant(data, name: Optional[str] = None) -> Tensor:
    """A non-trainable leaf tensor."""
    return Tensor(data, requires_grad=False, name=name)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: Sequence[int]) -> np.ndarray:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=tuple(shape))


@contextlib.contextmanager
def no_grad():
    """Record nothing inside the block; the previous mode comes back after.

    Op results made inside have requires_grad False and no parents or
    VJP closures, and apply_activation asks only for values. Leaves made
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


def _make(data: np.ndarray, parents: Sequence[Tensor],
          vjps: Sequence[Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjps = tuple(vjps)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _make(
        data, (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    return _make(
        data, (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(-g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _make(
        data, (a, b),
        (lambda g: _unbroadcast(g * b.data, a.shape),
         lambda g: _unbroadcast(g * a.data, b.shape)),
    )


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, (a,), (lambda g: g * c,))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), (lambda g: -g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs >= 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def da(g: np.ndarray) -> np.ndarray:
        return _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)

    def db(g: np.ndarray) -> np.ndarray:
        return _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)

    return _make(data, (a, b), (da, db))


def transpose_last2(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise ValueError(f"transpose_last2 needs >= 2-d input, got {a.shape}")
    return _make(
        np.swapaxes(a.data, -1, -2), (a,),
        (lambda g: np.swapaxes(g, -1, -2),),
    )


def softmax_last_axis(x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Softmax over the last axis, optionally after adding a constant mask.

    The mask broadcasts against x and is not differentiated; use NEG_INF
    entries to zero attention weights exactly.
    """
    z = x.data if mask is None else x.data + mask
    # numpy reduces a short last axis slowly, so the row max reduces the
    # leading axis of a transposed copy; a max is exact in any order. The
    # sum keeps its axis: the order of a sum changes its bits.
    zmax = np.moveaxis(z, -1, 0).copy().max(axis=0)[..., None]
    y = np.subtract(z, zmax)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def dx(g: np.ndarray) -> np.ndarray:
        inner = (g * y).sum(axis=-1, keepdims=True)
        return y * (g - inner)

    return _make(y, (x,), (dx,))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(
            f"gamma/beta must have shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gamma.data
    y += beta.data

    def dx(g: np.ndarray) -> np.ndarray:
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return inv * (dxhat - m1 - xhat * m2)

    def dgamma(g: np.ndarray) -> np.ndarray:
        return _unbroadcast(g * xhat, gamma.shape)

    def dbeta(g: np.ndarray) -> np.ndarray:
        return _unbroadcast(g, beta.shape)

    return _make(y, (x, gamma, beta), (dx, dgamma, dbeta))


def apply_activation(x: Tensor, act) -> Tensor:
    """Elementwise activation through an object with two methods.

    When the result is recorded, ``act.value_and_slope(x)`` gives the
    output and the elementwise slope in one call, and the VJP reuses that
    slope; otherwise ``act.value(x)`` alone runs.
    """
    if _grad_enabled and x.requires_grad:
        y, slope = act.value_and_slope(x.data)
        vjps = (lambda g: g * slope,)
    else:
        y, vjps = act.value(x.data), ()
    if y.shape != x.data.shape:
        raise ValueError(
            f"activation {getattr(act, 'name', act)!r} changed shape: "
            f"{x.data.shape} -> {y.shape}"
        )
    return _make(y, (x,), vjps)


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

    def dx(g: np.ndarray) -> np.ndarray:
        full = np.zeros_like(x.data)
        full[..., start:stop, :] = g
        return full

    return _make(data, (x,), (dx,))


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns start:stop along the feature axis."""
    width = x.shape[-1]
    if not 0 <= start < stop <= width:
        raise ValueError(f"bad feature slice [{start}:{stop}] for width {width}")
    data = x.data[..., start:stop]

    def dx(g: np.ndarray) -> np.ndarray:
        full = np.zeros_like(x.data)
        full[..., start:stop] = g
        return full

    return _make(data, (x,), (dx,))


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

    def make_vjp(i: int):
        lo, hi = offsets[i], offsets[i + 1]
        return lambda g: g[..., lo:hi]

    return _make(data, parts, [make_vjp(i) for i in range(len(parts))])


# slice_last and concat_last have no caller in the package (attention
# batches its heads with split_heads/merge_heads). They stay in the op set
# because perfbench/tracer.py wraps every tape op by name and refuses to
# install when one is missing.


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(..., L, d) -> (..., n_heads, L, d / n_heads): head h holds columns
    h * d/n_heads up to (h + 1) * d/n_heads."""
    length, d = _check_time_axis(x, "split_heads"), x.shape[-1]
    if n_heads < 1 or d % n_heads:
        raise ValueError(f"width {d} does not split into {n_heads} heads")
    lead = x.shape[:-2]
    data = np.swapaxes(x.data.reshape(lead + (length, n_heads, d // n_heads)), -2, -3)

    def dx(g: np.ndarray) -> np.ndarray:
        return np.swapaxes(g, -2, -3).reshape(x.shape)

    return _make(data, (x,), (dx,))


def merge_heads(x: Tensor) -> Tensor:
    """The inverse of split_heads: (..., H, L, dh) -> (..., L, H * dh)."""
    if x.ndim < 3:
        raise ValueError(f"merge_heads needs >= 3-d input (heads, time, width), got {x.shape}")
    n_heads, length, dh = x.shape[-3:]
    lead = x.shape[:-3]
    data = np.swapaxes(x.data, -2, -3).reshape(lead + (length, n_heads * dh))

    def dx(g: np.ndarray) -> np.ndarray:
        return np.swapaxes(g.reshape(lead + (length, n_heads, dh)), -2, -3)

    return _make(data, (x,), (dx,))


def shift_time(x: Tensor, offset: int) -> Tensor:
    """Shift rows along time by ``offset`` with zero fill.

    offset=+1 delays the sequence (row t takes the old row t-1); negative
    offsets advance it.
    """
    length = _check_time_axis(x, "shift_time")
    if abs(offset) >= length:
        raise ValueError(f"|offset| must be < time length {length}, got {offset}")
    if offset == 0:
        return _make(x.data.copy(), (x,), (lambda g: g,))
    data = np.zeros_like(x.data)
    if offset > 0:
        data[..., offset:, :] = x.data[..., :-offset, :]
    else:
        data[..., :offset, :] = x.data[..., -offset:, :]

    def dx(g: np.ndarray) -> np.ndarray:
        out = np.zeros_like(g)
        if offset > 0:
            out[..., :-offset, :] = g[..., offset:, :]
        else:
            out[..., -offset:, :] = g[..., :offset, :]
        return out

    return _make(data, (x,), (dx,))


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

    def dx(g: np.ndarray) -> np.ndarray:
        full = np.zeros_like(x.data)
        gp = g[..., :n_pairs, :]
        full[..., 0 : 2 * n_pairs : 2, :] = np.where(first_wins, gp, 0.0)
        full[..., 1 : 2 * n_pairs : 2, :] = np.where(first_wins, 0.0, gp)
        if length % 2:
            full[..., -1:, :] += g[..., -1:, :]
        return full

    return _make(data, (x,), (dx,))


def repeat_time2(x: Tensor, out_len: int) -> Tensor:
    """Duplicate each time row, then trim to out_len (nearest-neighbor)."""
    length = _check_time_axis(x, "repeat_time2")
    if not 1 <= out_len <= 2 * length:
        raise ValueError(f"out_len must be in 1..{2 * length}, got {out_len}")
    data = np.repeat(x.data, 2, axis=-2)[..., :out_len, :]

    def dx(g: np.ndarray) -> np.ndarray:
        pad = np.zeros(x.shape[:-2] + (2 * length, x.shape[-1]), dtype=np.float64)
        pad[..., :out_len, :] = g
        return pad[..., 0::2, :] + pad[..., 1::2, :]

    return _make(data, (x,), (dx,))


def sum_all(x: Tensor) -> Tensor:
    data = np.asarray(x.data.sum())
    return _make(data, (x,), (lambda g: np.broadcast_to(g, x.shape).copy(),))


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    data = np.asarray(x.data.mean())
    return _make(data, (x,), (lambda g: np.broadcast_to(g / n, x.shape).copy(),))


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
        if node._parents:
            for parent, vjp in zip(node._parents, node._vjps):
                if not parent.requires_grad:
                    continue
                pg = np.asarray(vjp(g), dtype=np.float64)
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

    The payload digest is checked when the manifest has one; containers
    written before the digest was added have none and load as before.
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
            raise ValueError(f"{path}: not a tensor container")
        tag, n_meta = next_line().split()
        if tag != "meta":
            raise ValueError(f"{path}: malformed meta header")
        meta: dict[str, str] = {}
        for _ in range(int(n_meta)):
            key, _, val = next_line().partition("=")
            meta[key] = val
        tag, n_tensors = next_line().split()
        if tag != "tensors":
            raise ValueError(f"{path}: malformed tensor header")
        entries = []
        for _ in range(int(n_tensors)):
            parts = next_line().split()
            name, ndim = parts[0], int(parts[1])
            dims = tuple(int(d) for d in parts[2 : 2 + ndim])
            off, nbytes = int(parts[2 + ndim]), int(parts[3 + ndim])
            if min(dims + (off, nbytes)) < 0:
                raise ValueError(f"negative size in entry {name!r}")
            entries.append((name, dims, off, nbytes))
        line = next_line()
        digest = None
        if line.startswith("sha256 "):
            digest = line[len("sha256 "):]
            line = next_line()
        if line != "END":
            raise ValueError(f"{path}: missing END marker")
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: corrupt tensor container ({exc})") from None
    payload = buf[pos:]
    if digest is not None and hashlib.sha256(payload).hexdigest() != digest:
        raise ValueError(f"{path}: payload digest mismatch")
    tensors: dict[str, np.ndarray] = {}
    for name, dims, off, nbytes in entries:
        flat = np.frombuffer(payload[off : off + nbytes], dtype="<f8")
        expect = int(np.prod(dims)) if dims else 1
        if flat.size != expect:
            raise ValueError(f"{path}: payload size mismatch for {name!r}")
        tensors[name] = flat.reshape(dims).astype(np.float64, copy=True)
    return tensors, meta
