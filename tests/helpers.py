"""Test-only activation handles, probes of the forecaster's forward pass
and a reference attention.

The handles implement the protocol cotn.tensor.apply_activation consumes:
value(x) when no gradient is recorded, value_and_slope(x) when the tape
records one. The probes observe a Forecaster from outside, through
pytest's monkeypatch, so the model carries no hooks of its own. The
per-head attention is the reference for the batched one.
"""

import math

import numpy as np

import cotn.tensor as te
from cotn.model import Forecaster


class IdentityActivation:
    """Pass-through activation; handy for isolating graph plumbing."""

    name = "identity"

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.array(x, dtype=np.float64, copy=True)

    def value_and_slope(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = self.value(x)
        return y, np.ones_like(y)


class TanhActivation:
    name = "tanh"

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(np.asarray(x, dtype=np.float64))

    def value_and_slope(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = self.value(x)
        return t, 1.0 - t * t


def count_decodes(monkeypatch) -> list:
    """Record every Forecaster.parallel_decode call; returns the record."""
    calls = []
    real = Forecaster.parallel_decode

    def counting(self, memory, dec_x):
        calls.append(self)
        return real(self, memory, dec_x)

    monkeypatch.setattr(Forecaster, "parallel_decode", counting)
    return calls


def capture_norm(model: Forecaster, prefix: str, monkeypatch) -> list:
    """Copy the output of the model's layer norm ``prefix`` on every call."""
    seen = []
    real = model._norm

    def norm(x, name):
        out = real(x, name)
        if name == prefix:
            seen.append(out.data.copy())
        return out

    monkeypatch.setattr(model, "_norm", norm)
    return seen


def per_head_attention(q, k, v, n_heads, wq, wk, wv, wo, mask=None):
    """Multi-head attention one head at a time, as column slices of the
    projections concatenated back together: the reference the batched
    cotn.model.multi_head_attention must match bit for bit."""
    dh = q.shape[-1] // n_heads
    qp, kp, vp = te.matmul(q, wq), te.matmul(k, wk), te.matmul(v, wv)
    heads = []
    for h in range(n_heads):
        lo, hi = h * dh, (h + 1) * dh
        qh = te.slice_last(qp, lo, hi)
        kh = te.slice_last(kp, lo, hi)
        vh = te.slice_last(vp, lo, hi)
        scores = te.scale(te.matmul(qh, te.transpose_last2(kh)), 1.0 / math.sqrt(dh))
        heads.append(te.matmul(te.softmax_last_axis(scores, mask), vh))
    merged = heads[0] if n_heads == 1 else te.concat_last(heads)
    return te.matmul(merged, wo)
