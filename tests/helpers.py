"""Test-only table helpers and activation handles, probes of the
forecaster's forward pass, reference implementations and file readers.

The table helpers (segment ids, node spacing, the gated slope alone)
serve tests only, so cotn.activation does not carry them; the table
lookup by gathered differences is the reference for the one that
gathers stored diffs.
The handles implement the protocol cotn.tensor.apply_activation consumes:
value(x) when no gradient is recorded, value_and_slope(x) when the tape
records one. The probes observe a Forecaster from outside, through
pytest's monkeypatch, so the model carries no hooks of its own. The
per-head attention and the unfused layer norm and affine chains are the
references for the fused tape nodes, the full-row decoder the reference
for the one whose last block computes the horizon rows alone, the
window-by-window loop the reference for the windows cotn.data.window
cuts and the decoder inputs the forecaster builds from them, the
row-by-row cleaner the reference for cotn.data.clean, and the tape
versions of the autoencoder's forward pass, fit and scoring the
reference for its plain-numpy ones.
assert_same_dataset compares two datasets bit for bit,
assert_close_to_reference a fused node's arrays with its reference's,
and the two file readers parse what `cotn table` and `cotn train` write.
"""

import math

import numpy as np

import cotn.tensor as te
from cotn.activation import (
    GatedLeeActivation,
    GeluActivation,
    MetaActivationTable,
    _bracket,
)
from cotn.data import (
    CleanConfig,
    CleaningAction,
    Dataset,
    FeatureFrame,
    RawSeries,
    _return_pass,
)
from cotn.model import SCORE_CHUNK, Autoencoder, Forecaster, causal_mask
from cotn.training import AE_BATCH_SIZE, AE_LR, Adam, _cosine_lr


def table_segment(tab: MetaActivationTable, x) -> np.ndarray:
    """Integer id of the linear piece each query falls on.

    Pieces are numbered so that crossing any node (or either clamp
    boundary) changes the id: 0 below x_min, n_nodes above x_max, and
    1 + segment index in between with node hits counted to the right.
    """
    xq = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return np.searchsorted(tab.nodes, xq, side="right").astype(np.int64)


def node_spacing(tab: MetaActivationTable) -> float:
    """The distance between neighbouring nodes of the table's grid."""
    return (tab.x_max - tab.x_min) / (tab.n_nodes - 1)


def gated_grad(x, lam: float, tab: MetaActivationTable):
    """Derivative of the gated blend (right-segment convention off-node)."""
    return GatedLeeActivation(lam, tab).value_and_slope(x)[1]


def reference_table_lookup(tab: MetaActivationTable, x, with_slope: bool):
    """The table lookup with each segment's step and rise taken as the
    difference of two gathered nodes and two gathered values: the
    reference for cotn.activation._table_lookup, which gathers them from
    the table's stored diffs."""
    xq = np.asarray(x, dtype=np.float64)
    j = _bracket(tab, xq)
    j_next = j + 1
    left = tab.nodes[j]
    step = tab.nodes[j_next]
    step -= left
    base = tab.values[j]
    slope = tab.values[j_next]
    slope -= base
    value = xq - left
    value /= step
    value *= slope
    value += base
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


def read_table_file(path) -> tuple[dict[str, str], np.ndarray, np.ndarray]:
    """The header, nodes and values of a file written by write_table."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("x,f")
    header = dict(line.split("=", 1) for line in lines[:start])
    rows = np.loadtxt(lines[start + 1:], delimiter=",", ndmin=2)
    return header, rows[:, 0], rows[:, 1]


def read_trial_report(path) -> dict[str, str]:
    """The ``key = value`` lines of a report written by write_trial_report."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, val = line.partition(" = ")
                out[key] = val
    return out


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

    def counting(self, memory, enc_x):
        calls.append(self)
        return real(self, memory, enc_x)

    monkeypatch.setattr(Forecaster, "parallel_decode", counting)
    return calls


def capture_decoder_input(model: Forecaster, monkeypatch) -> list:
    """Copy the input the model's decoder embeds on every call."""
    seen = []
    real = model._embed

    def embed(x, prefix):
        if prefix == "dec.embed":
            seen.append(np.array(x, copy=True))
        return real(x, prefix)

    monkeypatch.setattr(model, "_embed", embed)
    return seen


def capture_norm(model: Forecaster, prefix: str, monkeypatch) -> list:
    """Copy the output of the model's layer norm ``prefix`` on every call."""
    seen = []
    real = model._norm

    def norm(x, residual, name):
        out = real(x, residual, name)
        if name == prefix:
            seen.append(out.data.copy())
        return out

    monkeypatch.setattr(model, "_norm", norm)
    return seen


def full_row_decode(model: Forecaster, memory, enc_x: np.ndarray):
    """Forecaster.parallel_decode with every block over all label_len +
    horizon rows and the head on the horizon slice of the last: the
    reference for the decoder whose last block computes the horizon rows
    alone."""
    cfg = model.cfg
    want = cfg.label_len + cfg.horizon
    dec_x = np.zeros((enc_x.shape[0], want, cfg.n_features))
    dec_x[:, : cfg.label_len] = enc_x[:, cfg.enc_len - cfg.label_len :]
    h = model._embed(dec_x, "dec.embed")
    for l in range(cfg.n_dec_layers):
        self_attn = model._attend(h, h, f"dec.{l}.self", mask=causal_mask(want))
        h = model._norm(h, self_attn, f"dec.{l}.ln1")
        h = model._norm(h, model._attend(h, memory, f"dec.{l}.cross"), f"dec.{l}.ln2")
        h = model._norm(h, model._ffn(h, f"dec.{l}"), f"dec.{l}.ln3")
    return model._affine(te.slice_time(h, cfg.label_len, want), "head")


def per_head_attention(q, kv, n_heads, wq, wk, wv, wo, mask=None):
    """Multi-head attention one head at a time, as column slices of the
    projections concatenated back together: the unfused chain the one
    te.attention node must match to assert_close_to_reference."""
    dh = q.shape[-1] // n_heads
    qp, kp, vp = te.matmul(q, wq), te.matmul(kv, wk), te.matmul(kv, wv)
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


def assert_close_to_reference(got, ref, rel: float = 1e-12) -> None:
    """Every element of got within rel * max(1, max|ref|) of ref: how
    close a fused tape node must stay to the unfused chain it replaces."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape, (got.shape, ref.shape)
    scale = max(1.0, float(np.max(np.abs(ref)))) if ref.size else 1.0
    worst = float(np.max(np.abs(got - ref))) if ref.size else 0.0
    assert worst <= rel * scale, f"off by {worst:.3e}, bound {rel * scale:.3e}"


def unfused_layer_norm(x, gamma, beta, residual=None):
    """The layer norm as it was before the residual and the GEMM means
    moved into te.layer_norm: te.add for the residual, then one node
    whose means are np.mean over the last axis."""
    if residual is not None:
        x = te.add(x, residual)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + te.LN_EPS)
    xhat = xc * inv
    y = xhat * gamma.data
    y += beta.data

    def vjp(g):
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (inv * (dxhat - m1 - xhat * m2),
                te._unbroadcast(g * xhat, gamma.shape),
                te._unbroadcast(g, beta.shape))

    return te._make(y, (x, gamma, beta), vjp)


def unfused_affine(x, w, b, offset=None):
    """te.affine as the chain it replaces: matmul, add the bias, add the
    offset as a constant."""
    y = te.add(te.matmul(x, w), b)
    return y if offset is None else te.add(y, te.constant(offset))


def assert_same_dataset(got: Dataset, want: Dataset) -> None:
    """Equal statistics, normalized rows and windows, bit for bit; each
    split's enc is compared whole, cut with [:]."""
    assert got.stats.names == want.stats.names
    assert got.stats.dropped == want.stats.dropped
    pairs = [("stats.mean", got.stats.mean, want.stats.mean),
             ("stats.std", got.stats.std, want.stats.std),
             ("frame.data", got.frame.data, want.frame.data)]
    for split in ("train", "val", "test"):
        a, b = getattr(got.splits, split), getattr(want.splits, split)
        pairs += [(f"{split}.enc", a.enc[:], b.enc[:]), (f"{split}.tgt", a.tgt, b.tgt),
                  (f"{split}.starts", a.enc.starts, b.enc.starts)]
    for name, a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def loop_windows(frame: FeatureFrame, row_lo: int, row_hi: int, enc_len: int,
                 label_len: int, horizon: int, stride: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The enc, dec, tgt and starts arrays of the windows of rows
    [row_lo, row_hi), one start at a time: a start is kept when every row
    of its window lies in the start's segment. dec is the decoder input
    the forecaster must build from enc: its last label_len rows followed
    by horizon zero rows."""
    total = enc_len + horizon
    enc_list, dec_list, tgt_list, starts = [], [], [], []
    t_idx = frame.target_index
    seg = frame.segment_ids
    s = row_lo
    while s + total <= row_hi:
        if np.all(seg[s : s + total] == seg[s]):
            enc_list.append(frame.data[s : s + enc_len])
            known = frame.data[s + enc_len - label_len : s + enc_len]
            pad = np.zeros((horizon, frame.n_features))
            dec_list.append(np.concatenate([known, pad], axis=0))
            tgt_list.append(frame.data[s + enc_len : s + total, t_idx : t_idx + 1])
            starts.append(s)
        s += stride
    if not enc_list:
        return (np.empty((0, enc_len, frame.n_features)),
                np.empty((0, label_len + horizon, frame.n_features)),
                np.empty((0, horizon, 1)), np.empty(0, dtype=np.int64))
    return (np.stack(enc_list), np.stack(dec_list), np.stack(tgt_list),
            np.asarray(starts, dtype=np.int64))


def _loop_dedup(ep, cols, seg, report):
    keep = np.ones(ep.size, dtype=bool)
    keep[1:] = ep[1:] != ep[:-1]
    for e in ep[~keep]:
        report.append(CleaningAction(int(e), "drop", "duplicate timestamp"))
    if keep.all():
        return ep, cols, seg
    return ep[keep], {k: v[keep] for k, v in cols.items()}, seg[keep]


def _loop_fill_gaps(ep, cols, seg_in, period, max_gap, report):
    names = list(cols)
    out_ep = [int(ep[0])]
    out_rows = [[cols[n][0] for n in names]]
    seg_ids = [0]
    seg = 0
    for t in range(1, ep.size):
        delta = int(ep[t] - ep[t - 1])
        missing = int(round(delta / period)) - 1
        if missing > max_gap:
            seg += 1
            if seg_in[t] == seg_in[t - 1]:
                report.append(CleaningAction(
                    int(ep[t]), "split", f"gap of {missing} periods before this row"))
        elif missing > 0:
            prev = out_rows[-1]
            for j in range(1, missing + 1):
                e_fill = int(ep[t - 1]) + j * period
                out_ep.append(e_fill)
                out_rows.append(list(prev))
                seg_ids.append(seg)
                report.append(CleaningAction(e_fill, "fill", "gap forward-filled"))
        out_ep.append(int(ep[t]))
        out_rows.append([cols[n][t] for n in names])
        seg_ids.append(seg)
    arr = np.asarray(out_rows, dtype=np.float64)
    return (
        np.asarray(out_ep, dtype=np.int64),
        {n: arr[:, j].copy() for j, n in enumerate(names)},
        np.asarray(seg_ids, dtype=np.int64),
    )


def _loop_zscore_pass(rows, seg, names, z_max, flagged):
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    live = std > 0.0
    if not live.any():
        return False
    changed = False
    for t in range(1, rows.shape[0]):
        if seg[t] != seg[t - 1]:
            continue
        z = np.zeros(rows.shape[1])
        z[live] = np.abs(rows[t, live] - mean[live]) / std[live]
        worst = int(np.argmax(z))
        if z[worst] > z_max and not np.array_equal(rows[t], rows[t - 1]):
            flagged.setdefault(
                t, f"column {names[worst]} z-score {z[worst]:.2f} beyond {z_max:g}")
            rows[t] = rows[t - 1]
            changed = True
    return changed


def loop_clean(raw: RawSeries, cfg: CleanConfig = CleanConfig()) -> RawSeries:
    """cotn.data.clean on a dict of columns, gaps filled and z-scores
    swept one row at a time: the reference the whole-array clean must
    match bit for bit. The return filter is the package's own scan."""
    if raw.n_rows == 0:
        raise ValueError("cannot clean an empty series")
    report = []
    ep, cols, seg_in = _loop_dedup(raw.epochs, raw.columns, raw.segment_ids, report)
    ep, cols, seg = _loop_fill_gaps(ep, cols, seg_in, raw.period, cfg.max_ffill_gap,
                                    report)
    names = list(cols)
    rows = np.stack([cols[n] for n in names], axis=1)
    close_idx = names.index("close") if raw.schema == "ohlcv" else None
    flagged = {}
    for _ in range(rows.shape[0] + 1):
        changed = False
        if close_idx is not None:
            changed |= _return_pass(rows[:, close_idx], rows, seg, cfg.return_limit,
                                    flagged)
        changed |= _loop_zscore_pass(rows, seg, names, cfg.z_max, flagged)
        if not changed:
            break
    for t in sorted(flagged):
        report.append(CleaningAction(int(ep[t]), "fill", flagged[t]))
    return RawSeries(raw.schema, ep, {n: rows[:, j].copy() for j, n in enumerate(names)},
                     raw.period, seg, report)


def tape_reconstruct(ae: Autoencoder, flat: te.Tensor) -> te.Tensor:
    """The autoencoder's forward pass as tape ops: the reference for its
    plain-numpy forward."""
    act = GeluActivation()
    p = ae.params
    h = te.apply_activation(te.add(te.matmul(flat, p["enc1.w"]), p["enc1.b"]), act)
    z = te.add(te.matmul(h, p["enc2.w"]), p["enc2.b"])
    h = te.apply_activation(te.add(te.matmul(z, p["dec1.w"]), p["dec1.b"]), act)
    return te.add(te.matmul(h, p["dec2.w"]), p["dec2.b"])


def tape_step_errors(ae: Autoencoder, windows) -> np.ndarray:
    """Autoencoder.step_errors with the reconstruction taken on the tape,
    under te.no_grad(), in the same chunks."""
    w = ae._windows(windows)
    n = w.shape[0]
    out = np.empty((n, ae.window_len))
    lo = 0
    with te.no_grad():
        while lo < n:
            hi = n if n - lo == SCORE_CHUNK + 1 else min(lo + SCORE_CHUNK, n)
            flat = w[lo:hi].reshape(hi - lo, -1)
            sq = (flat - tape_reconstruct(ae, te.constant(flat)).data) ** 2
            np.mean(sq.reshape(-1, ae.window_len, ae.n_features), axis=2,
                    out=out[lo:hi])
            lo = hi
    return out


def tape_fit_autoencoder(windows, hidden: int = 32, bottleneck: int = 8, seed: int = 0,
                         epochs: int = 40) -> Autoencoder:
    """cotn.training.fit_autoencoder with every step's loss and gradients
    taken by te.backward through tape_reconstruct: the reference the
    plain-numpy fit must match bit for bit."""
    n, length, feats = windows.shape
    ae = Autoencoder(length, feats, hidden=hidden, bottleneck=bottleneck, seed=seed)
    rng = np.random.default_rng(seed)
    opt = Adam(ae.params)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, AE_BATCH_SIZE):
            idx = order[lo : lo + AE_BATCH_SIZE]
            x = te.constant(windows[idx].reshape(idx.size, -1))
            diff = te.sub(tape_reconstruct(ae, x), x)
            loss = te.mean_all(te.mul(diff, diff))
            if not math.isfinite(loss.item()):
                raise RuntimeError(f"autoencoder diverged at epoch {epoch + 1}")
            for p in ae.params.values():
                p.grad = None
            te.backward(loss)
            opt.step(_cosine_lr(AE_LR, epoch, epochs))
    ae.tau = float(np.percentile(tape_step_errors(ae, windows), 95.0))
    if ae.tau <= 0.0:
        ae.tau = float(np.finfo(np.float64).tiny)
    return ae
