"""Small encoder-decoder forecaster with pluggable scalar activations.

The encoder is a stack of post-norm self-attention blocks; when
distillation is on, a depthwise convolution (kernel 3, zero same-padding)
followed by GELU and a stride-2 max-pool halves the time axis between
blocks, so k pooling stages leave ceil(L / 2^k) encoder rows. Each
pooling stage also contributes a consistency loss between its input and
the pooled output re-expanded by nearest-neighbor repetition.

Decoding is parallel: the decoder consumes the last label_len rows of
the encoder window plus horizon zero placeholder rows, an input it builds
itself, in one causally masked pass whose last block computes the
placeholder rows alone, and the head reads the forecast off them, so
exactly one decoder invocation produces the whole horizon.

A separate dense autoencoder scores windows by reconstruction error; its
per-window weight softly strips anomalous samples from the training
objective instead of deleting them. It is small and fixed, so it runs in
plain numpy off the tape, its gradients written out by hand with the
tape's arithmetic: a fit gives the same bits as one on the tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import tensor as te
from .activation import (
    GatedLeeActivation,
    GeluActivation,
    MetaActivationTable,
    gelu,
    gelu_value_and_slope,
    table_for_type,
)
from .data import WindowView
from .oscillator import builtin_type_ids
from .tensor import Tensor

__all__ = [
    "ActivationMode",
    "ModelConfig",
    "sinusoidal_position_encoding",
    "causal_mask",
    "multi_head_attention",
    "distill_layer",
    "distill_loss",
    "Forecaster",
    "Autoencoder",
    "save_forecaster",
    "load_forecaster",
    "save_autoencoder",
    "load_autoencoder",
]


@dataclass(frozen=True)
class ActivationMode:
    """Which scalar nonlinearity the feed-forward blocks use.

    kind "gelu" ignores the other fields; kind "gated" blends GELU with
    the tabulated oscillator activation of the given type through the
    fixed weight lam. Both fields are range-checked for either kind, so a
    config or checkpoint holds a valid gate setting whichever kind it
    names.
    """

    kind: str = "gelu"
    type_id: int = 1
    lam: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("gelu", "gated"):
            raise ValueError(f"kind: expected gelu or gated, got {self.kind!r}")
        ids = builtin_type_ids()
        if self.type_id not in ids:
            raise ValueError(f"type_id: expected {ids[0]}..{ids[-1]}, got {self.type_id!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam: expected a number in [0, 1], got {self.lam!r}")

    def build(self, tab: Optional[MetaActivationTable] = None):
        """The activation object; a gated one uses tab, which must hold
        type_id's table, or the builtin table of type_id when none is
        given."""
        if self.kind == "gelu":
            return GeluActivation()
        if tab is None:
            tab = table_for_type(self.type_id)
        elif tab.type_id != self.type_id:
            raise ValueError(f"type_id: the gate expects oscillator type "
                             f"{self.type_id} but the table holds type {tab.type_id}")
        return GatedLeeActivation(self.lam, tab)


@dataclass(frozen=True)
class ModelConfig:
    """Static architecture description of one forecaster."""

    d_model: int = 16
    n_heads: int = 2
    n_enc_layers: int = 2
    n_dec_layers: int = 1
    d_ff: int = 32
    enc_len: int = 24
    label_len: int = 12
    horizon: int = 8
    n_features: int = 1
    distill: bool = True
    activation: ActivationMode = field(default_factory=ActivationMode)

    def __post_init__(self) -> None:
        # Each message starts with the setting's name.
        for name in ("n_heads", "n_enc_layers", "n_dec_layers", "d_ff", "enc_len",
                     "label_len", "horizon", "n_features"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: expected >= 1, got {getattr(self, name)!r}")
        if self.d_model < 1 or self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model: expected a positive multiple of n_heads "
                             f"({self.n_heads}), got {self.d_model!r}")
        if self.label_len > self.enc_len:
            raise ValueError(f"label_len: expected <= enc_len ({self.enc_len}), "
                             f"got {self.label_len!r}")
        # enc_len < 2 ** (n_enc_layers - 1), without building that power.
        if self.distill and int(self.enc_len).bit_length() < self.n_enc_layers:
            raise ValueError(
                f"n_enc_layers: expected 2 ** (n_enc_layers - 1) <= enc_len "
                f"({self.enc_len}) when distill is on, got {self.n_enc_layers!r}"
            )


# Position tables and masks are made on first use, then shared read-only:
# enc_len and horizon size them, and a loaded checkpoint bounds neither.
@lru_cache(maxsize=32)
def sinusoidal_position_encoding(length: int, d_model: int) -> np.ndarray:
    """Classic sin/cos position table, shape (length, d_model)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(d_model, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2.0 * np.floor(idx / 2.0)) / d_model)
    pe = np.empty((length, d_model), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles[:, 0::2])
    pe[:, 1::2] = np.cos(angles[:, 1::2])
    pe.flags.writeable = False
    return pe


@lru_cache(maxsize=32)
def causal_mask(length: int) -> np.ndarray:
    """Additive mask: position i may attend to j <= i only."""
    mask = np.zeros((length, length), dtype=np.float64)
    mask[np.triu_indices(length, k=1)] = te.NEG_INF
    mask.flags.writeable = False
    return mask


def multi_head_attention(
    q: Tensor,
    kv: Tensor,
    n_heads: int,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Scaled dot-product attention over n_heads column blocks.

    q has shape (..., Lq, d) and kv, the source of keys and values,
    (..., Lk, d); all four projection matrices are (d, d). The optional
    additive mask must broadcast to the (..., Lq, Lk) score array; a
    per-example mask applies to every head. The whole block is one
    te.attention node, which checks the shapes.
    """
    return te.attention(q, kv, wq, wk, wv, wo, n_heads, mask)


def distill_layer(
    h: Tensor,
    w_prev: Tensor,
    w_cur: Tensor,
    w_next: Tensor,
    bias: Tensor,
) -> Tensor:
    """Depthwise conv (kernel 3, zero same-padding) + GELU + stride-2 pool.

    Each channel c mixes rows t-1, t, t+1 with its own three taps; the
    output keeps the channel count and has ceil(L / 2) rows.
    """
    length = h.shape[-2]
    if length < 2:
        raise ValueError(f"distill needs time length >= 2, got {length}")
    mixed = te.conv_time3(h, w_prev, w_cur, w_next, bias)
    return te.maxpool_time2(te.apply_activation(mixed, GeluActivation()))


def distill_loss(x: Tensor, x_hat: Tensor) -> Tensor:
    """Mean squared gap between a representation and its pooled copy.

    x_hat has the pooled length ceil(L / 2) and is re-expanded by
    nearest-neighbor repetition before comparing.
    """
    if x.shape[:-2] != x_hat.shape[:-2] or x.shape[-1] != x_hat.shape[-1]:
        raise ValueError(f"incompatible shapes {x.shape} vs {x_hat.shape}")
    lx, lh = x.shape[-2], x_hat.shape[-2]
    if lh != (lx + 1) // 2:
        raise ValueError(f"x_hat time length {lh} is not ceil({lx}/2)")
    diff = te.sub(x, te.repeat_time2(x_hat, lx))
    return te.mean_all(te.mul(diff, diff))


def _attn_param_names(prefix: str) -> tuple[str, str, str, str]:
    return (f"{prefix}.wq", f"{prefix}.wk", f"{prefix}.wv", f"{prefix}.wo")


class Forecaster:
    """Encoder-decoder forecaster over fixed-length windows.

    Parameters live in a flat name -> Tensor dict so checkpoints, the
    optimizer and gradient checks can all walk them uniformly. The
    feed-forward nonlinearity is a handle that can be swapped in place
    (warm starting) without touching any parameter. A gated model built
    with a table (as a loaded checkpoint is) uses it in place of the
    builtin one.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0,
                 table: Optional[MetaActivationTable] = None):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self.activation = cfg.activation.build(table)
        rng = np.random.default_rng(seed)
        self._build(rng)

    # -- construction ---------------------------------------------------

    def _add(self, name: str, data: np.ndarray) -> None:
        self.params[name] = te.parameter(data)

    def _add_linear(self, rng, name: str, fan_in: int, fan_out: int) -> None:
        self._add(f"{name}.w", te.glorot_uniform(rng, fan_in, fan_out, (fan_in, fan_out)))
        self._add(f"{name}.b", np.zeros(fan_out))

    def _add_attn(self, rng, prefix: str) -> None:
        d = self.cfg.d_model
        for name in _attn_param_names(prefix):
            self._add(name, te.glorot_uniform(rng, d, d, (d, d)))

    def _add_norm(self, prefix: str) -> None:
        d = self.cfg.d_model
        self._add(f"{prefix}.gamma", np.ones(d))
        self._add(f"{prefix}.beta", np.zeros(d))

    def _build(self, rng: np.random.Generator) -> None:
        cfg = self.cfg
        d = cfg.d_model
        self._add_linear(rng, "enc.embed", cfg.n_features, d)
        self._add_linear(rng, "dec.embed", cfg.n_features, d)
        for l in range(cfg.n_enc_layers):
            self._add_attn(rng, f"enc.{l}.attn")
            self._add_norm(f"enc.{l}.ln1")
            self._add_linear(rng, f"enc.{l}.ff1", d, cfg.d_ff)
            self._add_linear(rng, f"enc.{l}.ff2", cfg.d_ff, d)
            self._add_norm(f"enc.{l}.ln2")
            if cfg.distill and l < cfg.n_enc_layers - 1:
                for tap in ("prev", "cur", "next"):
                    self._add(f"enc.{l}.pool.w_{tap}",
                              te.glorot_uniform(rng, 3, 3, (d,)))
                self._add(f"enc.{l}.pool.b", np.zeros(d))
        for l in range(cfg.n_dec_layers):
            self._add_attn(rng, f"dec.{l}.self")
            self._add_norm(f"dec.{l}.ln1")
            self._add_attn(rng, f"dec.{l}.cross")
            self._add_norm(f"dec.{l}.ln2")
            self._add_linear(rng, f"dec.{l}.ff1", d, cfg.d_ff)
            self._add_linear(rng, f"dec.{l}.ff2", cfg.d_ff, d)
            self._add_norm(f"dec.{l}.ln3")
        self._add_linear(rng, "head", d, 1)

    # -- parameter plumbing ----------------------------------------------

    def set_activation(self, mode: ActivationMode) -> None:
        """Swap the feed-forward nonlinearity; parameters are untouched."""
        self.cfg = replace(self.cfg, activation=mode)
        self.activation = mode.build()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(arrays)
        extra = set(arrays) - set(self.params)
        if missing or extra:
            raise ValueError(
                f"parameter names disagree (missing {sorted(missing)}, "
                f"unexpected {sorted(extra)})"
            )
        for name, p in self.params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"{name}: shape {arr.shape} does not match {p.data.shape}"
                )
            p.data = arr.copy()

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    # -- forward pieces ---------------------------------------------------

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _affine(self, x: Tensor, prefix: str, offset: Optional[np.ndarray] = None) -> Tensor:
        return te.affine(x, self._p(f"{prefix}.w"), self._p(f"{prefix}.b"), offset)

    def _ffn(self, x: Tensor, prefix: str) -> Tensor:
        h = te.apply_activation(self._affine(x, f"{prefix}.ff1"), self.activation)
        return self._affine(h, f"{prefix}.ff2")

    def _norm(self, x: Tensor, residual: Tensor, prefix: str) -> Tensor:
        """The layer norm prefix of x + residual."""
        return te.layer_norm(x, self._p(f"{prefix}.gamma"), self._p(f"{prefix}.beta"),
                             residual)

    def _attend(self, q: Tensor, kv: Tensor, prefix: str,
                mask: Optional[np.ndarray] = None) -> Tensor:
        names = _attn_param_names(prefix)
        return multi_head_attention(
            q, kv, self.cfg.n_heads,
            *(self._p(n) for n in names), mask=mask,
        )

    def _embed(self, x: np.ndarray, prefix: str) -> Tensor:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[-1] != self.cfg.n_features:
            raise ValueError(
                f"expected (batch, time, {self.cfg.n_features}) input, got {x.shape}"
            )
        pe = sinusoidal_position_encoding(x.shape[1], self.cfg.d_model)
        return self._affine(te.constant(x), prefix, offset=pe)

    def encode(self, enc_x: np.ndarray) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """Run the encoder stack over (batch, enc_len, n_features) input.

        Returns the final memory and one (input, pooled) pair per
        distillation stage for the consistency loss.
        """
        cfg = self.cfg
        if enc_x.shape[1] != cfg.enc_len:
            raise ValueError(
                f"encoder input length {enc_x.shape[1]} != enc_len {cfg.enc_len}"
            )
        h = self._embed(enc_x, "enc.embed")
        pairs: list[tuple[Tensor, Tensor]] = []
        for l in range(cfg.n_enc_layers):
            h = self._norm(h, self._attend(h, h, f"enc.{l}.attn"), f"enc.{l}.ln1")
            h = self._norm(h, self._ffn(h, f"enc.{l}"), f"enc.{l}.ln2")
            if cfg.distill and l < cfg.n_enc_layers - 1:
                pooled = distill_layer(
                    h,
                    self._p(f"enc.{l}.pool.w_prev"),
                    self._p(f"enc.{l}.pool.w_cur"),
                    self._p(f"enc.{l}.pool.w_next"),
                    self._p(f"enc.{l}.pool.b"),
                )
                pairs.append((h, pooled))
                h = pooled
        return h, pairs

    def parallel_decode(self, memory: Tensor, enc_x: np.ndarray) -> Tensor:
        """One causally masked decoder pass over context plus placeholders.

        The decoder input is the last label_len rows of enc_x followed by
        horizon rows of zeros; the returned tensor holds the head output
        at the horizon positions, shape (batch, horizon, 1).
        """
        cfg = self.cfg
        want = cfg.label_len + cfg.horizon
        dec_x = np.zeros((enc_x.shape[0], want, cfg.n_features))
        dec_x[:, : cfg.label_len] = enc_x[:, cfg.enc_len - cfg.label_len :]
        h = self._embed(dec_x, "dec.embed")
        for l in range(cfg.n_dec_layers):
            # The head reads the horizon rows only; the last block computes no other.
            q = te.slice_time(h, cfg.label_len, want) if l == cfg.n_dec_layers - 1 else h
            mask = causal_mask(want)[want - q.shape[-2] :]
            h = self._norm(q, self._attend(q, h, f"dec.{l}.self", mask), f"dec.{l}.ln1")
            h = self._norm(h, self._attend(h, memory, f"dec.{l}.cross"), f"dec.{l}.ln2")
            h = self._norm(h, self._ffn(h, f"dec.{l}"), f"dec.{l}.ln3")
        return self._affine(h, "head")

    def forward(self, enc_x: np.ndarray) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """Forecast plus the distillation pairs feeding the training loss."""
        memory, pairs = self.encode(enc_x)
        return self.parallel_decode(memory, enc_x), pairs

    def predict(self, enc_x: np.ndarray) -> np.ndarray:
        """Forecast as a plain array, shape (batch, horizon, 1).

        Runs under te.no_grad(): nothing is recorded for a backward pass.
        """
        with te.no_grad():
            pred, _ = self.forward(enc_x)
        return pred.data.copy()


# -- anomaly scoring ------------------------------------------------------

# Windows per autoencoder scoring pass. Each pass makes a few
# (SCORE_CHUNK, window_len * n_features) arrays, so at 512 windows of
# 24 x 7 a pass holds about 0.7 MB each, however many windows are scored.
SCORE_CHUNK = 512


# The autoencoder's dense layers in forward order; GELU follows the two
# named in _AE_GELU_AFTER.
_AE_LAYERS = ("enc1", "enc2", "dec1", "dec2")
_AE_GELU_AFTER = ("enc1", "dec1")


def _ae_shapes(window_len: int, n_features: int, hidden: int,
               bottleneck: int) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape, layer by layer in forward order."""
    for name, value in (("window_len", window_len), ("n_features", n_features),
                        ("hidden", hidden), ("bottleneck", bottleneck)):
        if value < 1:
            raise ValueError(f"{name}: expected >= 1, got {value!r}")
    flat = window_len * n_features
    widths = (flat, hidden, bottleneck, hidden, flat)
    shapes: dict[str, tuple[int, ...]] = {}
    for name, fan_in, fan_out in zip(_AE_LAYERS, widths, widths[1:]):
        shapes[f"{name}.w"] = (fan_in, fan_out)
        shapes[f"{name}.b"] = (fan_out,)
    return shapes


class Autoencoder:
    """Two-layer dense encoder/decoder over flattened windows.

    Scores a window by its per-step squared reconstruction error; after
    fitting, tau holds the 95th-percentile step error of the training
    split and error_weights fall as errors rise above it.

    The network runs in plain numpy, not on the tape: loss_and_grads
    differentiates the reconstruction MSE by hand, making the numpy calls
    the tape would make for the same loss, so a fit gives the tape's bits
    (tests/helpers.py keeps the tape version as the reference). params
    is still a name -> parameter Tensor dict, for Adam and checkpoints.
    """

    def __init__(self, window_len: int, n_features: int,
                 hidden: int = 32, bottleneck: int = 8, seed: int = 0):
        shapes = _ae_shapes(window_len, n_features, hidden, bottleneck)
        self.window_len = window_len
        self.n_features = n_features
        self.hidden = hidden
        self.bottleneck = bottleneck
        self.tau: Optional[float] = None
        rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}
        for name, shape in shapes.items():
            data = (np.zeros(shape) if name.endswith(".b")
                    else te.glorot_uniform(rng, shape[0], shape[1], shape))
            self.params[name] = te.parameter(data)

    def _windows(self, windows) -> np.ndarray | WindowView:
        """Windows checked by shape; a WindowView stays a view, cut per
        chunk when scored."""
        if not isinstance(windows, WindowView):
            windows = np.asarray(windows, dtype=np.float64)
        if windows.shape[1:] != (self.window_len, self.n_features):
            raise ValueError(
                f"expected (n, {self.window_len}, {self.n_features}) windows, got {windows.shape}"
            )
        return windows

    def reconstruct(self, flat: np.ndarray, keep: Optional[list] = None) -> np.ndarray:
        """The reconstruction of flattened windows, shape (n, window_len *
        n_features) in and out: x @ w + b per layer, GELU after enc1 and
        dec1. Given a list as keep, GELU also gives its slope and keep
        gets (layer, its input, slope or None) per layer, for
        loss_and_grads."""
        h = flat
        for name in _AE_LAYERS:
            x = h
            h = x @ self.params[f"{name}.w"].data
            h += self.params[f"{name}.b"].data
            slope = None
            if name in _AE_GELU_AFTER:
                if keep is None:
                    h = gelu(h)
                else:
                    h, slope = gelu_value_and_slope(h)
            if keep is not None:
                keep.append((name, x, slope))
        return h

    def loss_and_grads(self, flat: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        """Reconstruction MSE of flattened windows and its gradient for
        each parameter.

        The backward pass makes the numpy calls that te.backward makes for
        te.mean_all(te.mul(diff, diff)) with diff = te.sub(reconstruction,
        flat): the mean's gradient 1/size, the square's two equal terms
        summed, g.sum(axis=0) for a bias, x.T @ g for a weight,
        g @ w.T for a layer's input and g * slope through GELU.
        """
        layers: list = []
        diff = self.reconstruct(flat, layers)
        diff -= flat
        loss = float((diff * diff).mean())
        g = diff * (1.0 / diff.size)
        g += g
        grads: dict[str, np.ndarray] = {}
        for name, x, slope in reversed(layers):
            if slope is not None:
                g *= slope
            grads[f"{name}.b"] = g.sum(axis=0)
            grads[f"{name}.w"] = x.T @ g
            if name != _AE_LAYERS[0]:
                g = g @ self.params[f"{name}.w"].data.T
        return loss, grads

    def step_errors(self, windows) -> np.ndarray:
        """Per-step squared reconstruction error, shape (n, window_len).

        Each step's error is the mean over features of the squared
        difference between the window and its reconstruction. Scores
        SCORE_CHUNK windows at a time, each chunk cut from windows (an
        array or a WindowView) as it is scored; a window's errors do not
        depend on the chunk it is scored in.
        """
        w = self._windows(windows)
        n = w.shape[0]
        out = np.empty((n, self.window_len))
        lo = 0
        while lo < n:
            # A lone last window joins the chunk before it: numpy takes
            # one row through a matrix-vector product, which rounds
            # differently from the matrix product of many rows.
            hi = n if n - lo == SCORE_CHUNK + 1 else min(lo + SCORE_CHUNK, n)
            flat = w[lo:hi].reshape(hi - lo, -1)
            sq = (flat - self.reconstruct(flat)) ** 2
            np.mean(sq.reshape(-1, self.window_len, self.n_features), axis=2,
                    out=out[lo:hi])
            lo = hi
        return out

    def fit_threshold(self, train_windows) -> np.ndarray:
        """Set tau to the 95th percentile of training-split step errors,
        and return those step_errors, so that the training windows'
        weights (error_weights) need no second scoring."""
        errs = self.step_errors(train_windows)
        self.tau = float(np.percentile(errs, 95.0))
        if self.tau <= 0.0:
            # Degenerate (perfect reconstruction); keep weights defined.
            self.tau = float(np.finfo(np.float64).tiny)
        return errs

    def error_weights(self, errors: np.ndarray) -> np.ndarray:
        """Sample weights 1 / (1 + max_step_error / tau), in (0, 1], of
        windows whose step_errors are given."""
        if self.tau is None:
            raise RuntimeError("autoencoder threshold not fitted; call fit_threshold")
        return 1.0 / (1.0 + errors.max(axis=1) / self.tau)


# -- checkpoints -----------------------------------------------------------

# The config dataclasses are the one schema of every stored setting: a
# field's annotation ("int", "float", "bool" or "str"; the module imports
# annotations as strings) says how its value is written and read back.
# Fields of any other type, such as ModelConfig.activation, drop out.
_KINDS = ("int", "float", "bool", "str")
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _as_text(value) -> str:
    """A setting as stored text: bools as 0/1, floats by repr."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse(kind: str, text: str):
    """Read a setting of the given kind back; ValueError says what was expected."""
    if kind == "str":
        return text
    if kind == "bool":
        try:
            return _BOOLS[text.strip().lower()]
        except KeyError:
            raise ValueError(f"expected a boolean, got {text!r}") from None
    try:
        return int(text) if kind == "int" else float(text)
    except ValueError:
        what = "an integer" if kind == "int" else "a number"
        raise ValueError(f"expected {what}, got {text!r}") from None


def _scalar_fields(cls, skip=()) -> dict[str, str]:
    """Name -> kind of the dataclass fields the codec stores."""
    return {f.name: f.type for f in fields(cls)
            if f.type in _KINDS and f.name not in skip}


def _at(source, message: str) -> str:
    return message if source is None else f"{source}: {message}"


def _required(store: dict, key: str, source, kind: Optional[str] = None):
    """store[key], parsed as kind if one is given. A malformed entry is
    refused as "[source: ]key: what was expected"; a missing one, which
    only a model file can lack, names the file and the key."""
    try:
        value = store[key]
    except KeyError:
        raise ValueError(f"{source}: checkpoint has no {key!r}") from None
    if kind is None:
        return value
    try:
        return _parse(kind, value)
    except ValueError as exc:
        raise ValueError(_at(source, f"{key}: {exc}")) from None


def _meta_of(obj, prefix: str = "", skip=()) -> dict[str, str]:
    """The stored fields of a config dataclass as meta entries."""
    return {prefix + name: _as_text(getattr(obj, name))
            for name in _scalar_fields(type(obj), skip)}


def _settings(cls, texts: dict[str, str], source, prefix: str = "", **given):
    """A settings dataclass from the given values and, for its other
    stored fields, the text entries prefix + field, each parsed as its
    field's kind.

    source None reads a run configuration, where a missing entry keeps
    the field's default; a model file's path makes every entry required.
    Every refusal, of a malformed entry or of a value out of range,
    reads "[source: ]prefix + field: what was expected".
    """
    kwargs = dict(given)
    for name, kind in _scalar_fields(cls).items():
        key = prefix + name
        if name not in given and (source is not None or key in texts):
            kwargs[name] = _required(texts, key, source, kind)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # Each settings dataclass starts its message with the field's name.
        raise ValueError(_at(source, f"{prefix}{exc}")) from None


def _save_model(path, kind: str, tensors: dict[str, np.ndarray], meta: dict[str, str],
                extra_tensors: Optional[dict[str, np.ndarray]] = None,
                extra_meta: Optional[dict[str, str]] = None) -> None:
    """Write a model file: meta opens with its kind, and extra_tensors
    are stored under an ``x.`` prefix, so they never collide with model
    parameters."""
    tensors = {**tensors, **{f"x.{name}": np.asarray(arr, dtype=np.float64)
                             for name, arr in (extra_tensors or {}).items()}}
    te.save_tensors(path, tensors, {"kind": kind, **meta, **(extra_meta or {})})


def _load_model(path, kind: str) -> tuple[dict, dict[str, np.ndarray], dict[str, str]]:
    """(tensors, extras, meta) of a model file of this kind; the extras
    are the ``x.`` tensors without their prefix, the tensors the rest."""
    tensors, meta = te.load_tensors(path)
    if meta.get("kind") != kind:
        raise ValueError(f"{path}: checkpoint kind is {meta.get('kind')!r}, not {kind!r}")
    extra = {k[2:]: v for k, v in tensors.items() if k.startswith("x.")}
    return {k: v for k, v in tensors.items() if not k.startswith("x.")}, extra, meta


def save_forecaster(
    path,
    model: Forecaster,
    extra_tensors: Optional[dict[str, np.ndarray]] = None,
    extra_meta: Optional[dict[str, str]] = None,
) -> None:
    """Write parameters plus the full config as one checkpoint file, with
    extras as _save_model stores them. A gated model's activation table
    is stored under ``table.``: its bounds as meta entries and its values
    as a tensor, so that loading it neither rebuilds the table nor
    depends on the loading machine's libm. Like ``x.``, the prefix never
    names a parameter.
    """
    meta = {**_meta_of(model.cfg), **_meta_of(model.cfg.activation, "activation.")}
    tensors = {name: p.data for name, p in model.params.items()}
    if isinstance(model.activation, GatedLeeActivation):
        meta.update(_meta_of(model.activation.tab, "table.", skip=("type_id",)))
        tensors["table.values"] = model.activation.tab.values
    _save_model(path, "forecaster", tensors, meta, extra_tensors, extra_meta)


def _stored_table(tensors: dict[str, np.ndarray], meta: dict[str, str],
                  mode: ActivationMode, path) -> Optional[MetaActivationTable]:
    """The activation table a gated checkpoint must store; None for a
    GELU checkpoint, which stores none."""
    if mode.kind == "gelu":
        return None
    return _settings(MetaActivationTable, meta, path, "table.", type_id=mode.type_id,
                     values=_required(tensors, "table.values", path))


def load_forecaster(path) -> tuple[Forecaster, dict[str, np.ndarray], dict[str, str]]:
    """Rebuild a forecaster from a checkpoint written by save_forecaster.

    A gated checkpoint's stored table is used as it is; one without it
    is refused, naming the missing entry.
    """
    tensors, extra, meta = _load_model(path, "forecaster")
    mode = _settings(ActivationMode, meta, path, "activation.")
    cfg = _settings(ModelConfig, meta, path, activation=mode)
    # The stored arrays bound every size the config gives the parameters;
    # check them before the model allocates parameters of those sizes.
    d = cfg.d_model
    for name, shape in (("enc.embed.w", (cfg.n_features, d)),
                        (f"enc.{cfg.n_enc_layers - 1}.ff1.w", (d, cfg.d_ff)),
                        (f"dec.{cfg.n_dec_layers - 1}.ff1.w", (d, cfg.d_ff))):
        if _required(tensors, name, path).shape != shape:
            raise ValueError(f"{path}: {name} has shape {tensors[name].shape}, not {shape}")
    model = Forecaster(cfg, table=_stored_table(tensors, meta, cfg.activation, path))
    try:
        model.load_state_arrays(
            {k: v for k, v in tensors.items() if not k.startswith("table.")})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model, extra, meta


_AE_SETTINGS = {"window_len": "int", "n_features": "int", "hidden": "int",
                "bottleneck": "int", "tau": "float"}


def _check_tau(tau: float, path) -> None:
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"{path}: tau: expected a finite number > 0, got {tau!r}")


def save_autoencoder(path, ae: Autoencoder,
                     extra_tensors: Optional[dict[str, np.ndarray]] = None,
                     extra_meta: Optional[dict[str, str]] = None) -> None:
    """Write a fitted autoencoder, with extras as _save_model stores them."""
    if ae.tau is None:
        raise RuntimeError("refusing to save an unfitted autoencoder")
    _check_tau(ae.tau, path)
    _save_model(path, "autoencoder", {name: p.data for name, p in ae.params.items()},
                {name: _as_text(getattr(ae, name)) for name in _AE_SETTINGS},
                extra_tensors, extra_meta)


def load_autoencoder(path) -> tuple[Autoencoder, dict[str, np.ndarray], dict[str, str]]:
    """Rebuild an autoencoder written by save_autoencoder; also returns
    the file's extras and meta entries. Every stored shape is checked
    against the stored dimensions before the autoencoder is built."""
    tensors, extra, meta = _load_model(path, "autoencoder")
    settings = {name: _required(meta, name, path, kind)
                for name, kind in _AE_SETTINGS.items()}
    tau = settings.pop("tau")
    _check_tau(tau, path)
    try:
        shapes = _ae_shapes(**settings)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for name, shape in shapes.items():
        if _required(tensors, name, path).shape != shape:
            raise ValueError(f"{path}: {name} has shape {tensors[name].shape}")
    ae = Autoencoder(**settings)
    for name, p in ae.params.items():
        p.data = tensors[name]
    ae.tau = tau
    return ae, extra, meta
