"""Forecaster architecture, distillation, decoding, anomaly scorer."""

import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cotn.model
import cotn.tensor as te
from cotn.model import (
    ActivationMode,
    Autoencoder,
    Forecaster,
    ModelConfig,
    _as_text,
    _parse,
    causal_mask,
    distill_layer,
    distill_loss,
    load_autoencoder,
    load_forecaster,
    multi_head_attention,
    save_autoencoder,
    save_forecaster,
    sinusoidal_position_encoding,
)

from helpers import (
    IdentityActivation,
    assert_close_to_reference,
    capture_norm,
    count_decodes,
    per_head_attention,
    tape_reconstruct,
)

RNG = np.random.default_rng(123)


def tiny_cfg(**kw):
    base = dict(d_model=8, n_heads=2, n_enc_layers=2, n_dec_layers=1,
                d_ff=16, enc_len=12, label_len=6, horizon=4, n_features=3)
    base.update(kw)
    return ModelConfig(**base)


def batch_for(cfg, n=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, cfg.enc_len, cfg.n_features))


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError, match=r"^d_model: expected a positive "
                                             r"multiple of n_heads \(4\), got 10$"):
            tiny_cfg(d_model=10, n_heads=4)

    def test_zero_heads_is_a_value_error(self):
        with pytest.raises(ValueError, match="^n_heads: expected >= 1, got 0$"):
            tiny_cfg(n_heads=0)

    @pytest.mark.parametrize("n_targets", [0, 2])
    def test_one_target_only(self, n_targets):
        # The loss compares the head's output with one target column, so
        # more targets would only fail in the loss after a whole epoch.
        with pytest.raises(ValueError, match=f"^n_targets: expected 1, got {n_targets}$"):
            tiny_cfg(n_targets=n_targets)

    def test_label_len_bounded_by_enc_len(self):
        with pytest.raises(ValueError, match=r"^label_len: expected <= enc_len \(12\), "
                                             "got 13$"):
            tiny_cfg(label_len=13)

    def test_distill_needs_enough_rows(self):
        with pytest.raises(ValueError, match="^n_enc_layers: "):
            tiny_cfg(enc_len=3, label_len=2, n_enc_layers=3)
        # Without distillation the same geometry is fine.
        tiny_cfg(enc_len=3, label_len=2, n_enc_layers=3, distill=False)

    @pytest.mark.parametrize("enc_len", [1, 2, 3, 4, 7, 8, 9, 2 ** 40])
    @pytest.mark.parametrize("n_enc_layers", [1, 2, 3, 4, 41, 42, 10 ** 12])
    def test_distill_bound_is_exact_and_cheap(self, enc_len, n_enc_layers):
        # 2 ** (10 ** 12 - 1) would need 125 GB; the check never builds it.
        if enc_len >= 2 ** min(n_enc_layers - 1, 64):
            tiny_cfg(enc_len=enc_len, label_len=1, n_enc_layers=n_enc_layers)
        else:
            with pytest.raises(ValueError, match="^n_enc_layers: "):
                tiny_cfg(enc_len=enc_len, label_len=1, n_enc_layers=n_enc_layers)

    def test_activation_mode_validation(self):
        with pytest.raises(ValueError, match="^kind: expected gelu or gated"):
            ActivationMode(kind="relu")
        with pytest.raises(ValueError, match=r"^lam: expected a number in \[0, 1\]"):
            ActivationMode(kind="gated", lam=1.5)

    def test_mode_build_kinds(self):
        assert ActivationMode(kind="gelu").build().name == "gelu"
        gated = ActivationMode(kind="gated", type_id=4, lam=0.25).build()
        assert "type=4" in gated.name


class TestPositionEncoding:
    def test_shape_and_first_row(self):
        pe = sinusoidal_position_encoding(10, 8)
        assert pe.shape == (10, 8)
        np.testing.assert_allclose(pe[0, 0::2], np.zeros(4), atol=0)
        np.testing.assert_allclose(pe[0, 1::2], np.ones(4), atol=0)

    def test_first_pair_is_plain_sin_cos(self):
        pe = sinusoidal_position_encoding(6, 4)
        pos = np.arange(6.0)
        np.testing.assert_allclose(pe[:, 0], np.sin(pos), rtol=1e-15)
        np.testing.assert_allclose(pe[:, 1], np.cos(pos), rtol=1e-15)


class TestCausalMask:
    def test_structure(self):
        m = causal_mask(5)
        for i in range(5):
            for j in range(5):
                if j <= i:
                    assert m[i, j] == 0.0
                else:
                    assert m[i, j] == te.NEG_INF


class TestAttention:
    def _weights(self, d, seed=0):
        rng = np.random.default_rng(seed)
        return [te.parameter(rng.standard_normal((d, d)) * 0.3)
                for _ in range(4)]

    def test_output_shape(self):
        d = 8
        wq, wk, wv, wo = self._weights(d)
        q = te.constant(RNG.standard_normal((2, 5, d)))
        kv = te.constant(RNG.standard_normal((2, 9, d)))
        out = multi_head_attention(q, kv, kv, 2, wq, wk, wv, wo)
        assert out.shape == (2, 5, d)

    def test_single_head_equals_merged_path(self):
        d = 4
        wq, wk, wv, wo = self._weights(d, seed=3)
        x = te.constant(RNG.standard_normal((1, 6, d)))
        out = multi_head_attention(x, x, x, 1, wq, wk, wv, wo)
        assert out.shape == (1, 6, d)

    def test_causal_mask_blocks_future(self):
        d = 8
        wq, wk, wv, wo = self._weights(d, seed=5)
        x = RNG.standard_normal((1, 7, d))
        mask = causal_mask(7)
        base = multi_head_attention(
            te.constant(x), te.constant(x), te.constant(x),
            2, wq, wk, wv, wo, mask=mask).data
        x2 = x.copy()
        x2[0, 5] += 10.0
        pert = multi_head_attention(
            te.constant(x2), te.constant(x2), te.constant(x2),
            2, wq, wk, wv, wo, mask=mask).data
        assert np.array_equal(base[0, :5], pert[0, :5])
        assert not np.allclose(base[0, 5:], pert[0, 5:])

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["self", "masked", "batch_masked", "cross"])
    def test_batched_heads_equal_per_head_reference(self, n_heads, kind):
        # Output and every gradient, to 1e-12 of the reference's scale:
        # the fused node sums in its own order, so the bits differ.
        d, lq = 8, 7
        rng = np.random.default_rng(n_heads)
        arrays = [rng.standard_normal((d, d)) * 0.4 for _ in range(4)]
        x = rng.standard_normal((3, lq, d))
        mem = rng.standard_normal((3, 5, d))
        mask = None
        if kind == "masked":
            mask = causal_mask(lq)
        elif kind == "batch_masked":
            mask = np.where(rng.random((3, lq, lq)) < 0.3, te.NEG_INF, 0.0)
            mask[:, :, 0] = 0.0
        g_out = te.constant(rng.standard_normal((3, lq, d)))

        def run(attention):
            weights = [te.parameter(a) for a in arrays]
            xq = te.parameter(x)
            kv = xq if kind != "cross" else te.parameter(mem)
            out = attention(xq, kv, kv, n_heads, *weights, mask=mask)
            grads = te.backward(te.sum_all(te.mul(out, g_out)))
            leaves = [xq] + ([kv] if kind == "cross" else []) + weights
            return out.data, [grads[t] for t in leaves]

        out, grads = run(multi_head_attention)
        ref_out, ref_grads = run(per_head_attention)
        assert_close_to_reference(out, ref_out)
        assert len(grads) == len(ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert_close_to_reference(g, ref)

    def test_no_per_head_slices(self, monkeypatch):
        calls = []
        for name in ("slice_last", "concat_last"):
            monkeypatch.setattr(te, name, lambda *a, **k: calls.append(a))
        wq, wk, wv, wo = self._weights(8)
        x = te.parameter(RNG.standard_normal((2, 5, 8)))
        multi_head_attention(x, x, x, 4, wq, wk, wv, wo)
        assert calls == []

    def test_validation(self):
        d = 8
        wq, wk, wv, wo = self._weights(d)
        x = te.constant(RNG.standard_normal((1, 4, d)))
        with pytest.raises(ValueError):
            multi_head_attention(x, x, x, 3, wq, wk, wv, wo)
        bad = te.parameter(np.zeros((d, d + 1)))
        with pytest.raises(ValueError):
            multi_head_attention(x, x, x, 2, bad, wk, wv, wo)


class TestDistill:
    def test_conv_mixing_matches_manual(self):
        # Identity activation isolates the depthwise convolution.
        c = 2
        h = np.arange(12.0).reshape(1, 6, c)
        w_prev = np.array([0.5, -1.0])
        w_cur = np.array([2.0, 0.25])
        w_next = np.array([-0.5, 1.5])
        bias = np.array([0.1, -0.2])
        out = distill_layer(
            te.constant(h), te.constant(w_prev), te.constant(w_cur),
            te.constant(w_next), te.constant(bias), gelu=IdentityActivation(),
        ).data
        padded = np.zeros((1, 8, c))
        padded[:, 1:7] = h
        mixed = (padded[:, :6] * w_prev + padded[:, 1:7] * w_cur
                 + padded[:, 2:8] * w_next + bias)
        want = np.maximum(mixed[:, 0::2], mixed[:, 1::2])
        np.testing.assert_allclose(out, want, rtol=0, atol=0)

    def test_output_length_is_ceil_half(self):
        for length in (2, 5, 6, 7, 48):
            h = te.constant(RNG.standard_normal((2, length, 3)))
            ones = te.constant(np.ones(3))
            zeros = te.constant(np.zeros(3))
            out = distill_layer(h, ones, ones, ones, zeros)
            assert out.shape == (2, (length + 1) // 2, 3)

    def test_too_short_rejected(self):
        h = te.constant(RNG.standard_normal((1, 1, 2)))
        ones = te.constant(np.ones(2))
        with pytest.raises(ValueError):
            distill_layer(h, ones, ones, ones, ones)

    def test_loss_equal_length(self):
        x = RNG.standard_normal((2, 6, 3))
        y = RNG.standard_normal((2, 6, 3))
        got = distill_loss(te.constant(x), te.constant(y)).item()
        assert got == pytest.approx(((x - y) ** 2).mean(), rel=1e-12)

    def test_loss_half_length_expands(self):
        x = RNG.standard_normal((1, 5, 2))
        y = RNG.standard_normal((1, 3, 2))
        got = distill_loss(te.constant(x), te.constant(y)).item()
        expanded = np.repeat(y, 2, axis=1)[:, :5]
        assert got == pytest.approx(((x - expanded) ** 2).mean(), rel=1e-12)

    def test_loss_rejects_other_lengths(self):
        x = te.constant(RNG.standard_normal((1, 6, 2)))
        y = te.constant(RNG.standard_normal((1, 4, 2)))
        with pytest.raises(ValueError):
            distill_loss(x, y)


class TestForecaster:
    def test_seed_determinism(self):
        cfg = tiny_cfg()
        a, b = Forecaster(cfg, seed=7), Forecaster(cfg, seed=7)
        c = Forecaster(cfg, seed=8)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)
        assert any(not np.array_equal(a.params[n].data, c.params[n].data)
                   for n in a.params)

    def test_param_inventory(self):
        cfg = tiny_cfg()
        names = set(Forecaster(cfg).params)
        for expected in (
            "enc.embed.w", "enc.embed.b", "dec.embed.w", "dec.embed.b",
            "enc.0.attn.wq", "enc.1.ln2.beta", "enc.0.pool.w_prev",
            "dec.0.self.wo", "dec.0.cross.wk", "dec.0.ln3.gamma",
            "dec.0.ff1.w", "head.w", "head.b",
        ):
            assert expected in names, expected
        # Only stages before the last encoder layer own pooling taps.
        assert "enc.1.pool.w_prev" not in names

    def test_no_distill_drops_pool_params(self):
        names = set(Forecaster(tiny_cfg(distill=False)).params)
        assert not any(".pool." in n for n in names)

    def test_encode_shapes(self):
        cfg = tiny_cfg()
        model = Forecaster(cfg, seed=0)
        enc = batch_for(cfg)
        memory, pairs = model.encode(enc)
        assert memory.shape == (2, 6, cfg.d_model)
        assert len(pairs) == 1
        assert pairs[0][0].shape == (2, 12, cfg.d_model)
        assert pairs[0][1].shape == (2, 6, cfg.d_model)

    def test_encode_without_distill_keeps_length(self):
        cfg = tiny_cfg(distill=False)
        model = Forecaster(cfg, seed=0)
        enc = batch_for(cfg)
        memory, pairs = model.encode(enc)
        assert memory.shape == (2, cfg.enc_len, cfg.d_model)
        assert pairs == []

    def test_predict_shape_and_decode_counter(self, monkeypatch):
        cfg = tiny_cfg()
        model = Forecaster(cfg, seed=1)
        enc = batch_for(cfg)
        decodes = count_decodes(monkeypatch)
        assert len(decodes) == 0
        out = model.predict(enc)
        assert out.shape == (2, cfg.horizon, 1)
        assert decodes == [model]
        model.predict(enc)
        assert decodes == [model, model]

    @pytest.mark.parametrize("mode", [ActivationMode(kind="gelu"),
                                      ActivationMode(kind="gated", type_id=4)])
    def test_predict_records_nothing_and_matches_forward(self, mode):
        cfg = tiny_cfg(activation=mode)
        model = Forecaster(cfg, seed=1)
        enc = batch_for(cfg, n=3)
        out = model.predict(enc)
        assert all(p.grad is None for p in model.params.values())
        pred, _ = model.forward(enc)
        assert pred.requires_grad
        assert np.array_equal(out, pred.data)

    def test_decoder_self_attention_is_causal(self, monkeypatch):
        cfg = tiny_cfg()
        model = Forecaster(cfg, seed=2)
        enc = batch_for(cfg)
        memory, _ = model.encode(enc)
        seen = capture_norm(model, "dec.0.ln1", monkeypatch)
        model.parallel_decode(memory, enc)
        j = 4  # perturb a later label row; earlier rows must not move
        enc2 = enc.copy()
        enc2[:, cfg.enc_len - cfg.label_len + j] += 3.0
        model.parallel_decode(memory, enc2)
        assert len(seen) == 2
        a, b = seen
        assert a.shape == (2, cfg.label_len + cfg.horizon, cfg.d_model)
        assert np.array_equal(a[:, :j], b[:, :j])
        assert not np.allclose(a[:, j], b[:, j])

    def test_gated_mode_runs_and_differs_from_gelu(self):
        cfg = tiny_cfg()
        enc = batch_for(cfg)
        base = Forecaster(cfg, seed=3).predict(enc)
        gated_cfg = tiny_cfg(
            activation=ActivationMode(kind="gated", type_id=1, lam=0.5))
        gated = Forecaster(gated_cfg, seed=3).predict(enc)
        assert base.shape == gated.shape
        assert not np.allclose(base, gated)

    def test_set_activation_keeps_parameters(self):
        cfg = tiny_cfg()
        model = Forecaster(cfg, seed=4)
        before = {n: p.data.copy() for n, p in model.params.items()}
        model.set_activation(ActivationMode(kind="gated", type_id=2, lam=0.5))
        assert model.cfg.activation.kind == "gated"
        for n, arr in before.items():
            assert np.array_equal(model.params[n].data, arr)

    def test_init_independent_of_activation_mode(self):
        enc = batch_for(tiny_cfg())
        a = Forecaster(tiny_cfg(), seed=5)
        b = Forecaster(tiny_cfg(
            activation=ActivationMode(kind="gated", type_id=1, lam=0.5)), seed=5)
        for n in a.params:
            assert np.array_equal(a.params[n].data, b.params[n].data)
        # Same weights, same inputs: swapping modes reproduces the other
        # model's forecast exactly.
        b.set_activation(ActivationMode(kind="gelu"))
        assert np.array_equal(a.predict(enc), b.predict(enc))

    def test_state_round_trip(self):
        cfg = tiny_cfg()
        model = Forecaster(cfg, seed=6)
        state = model.state_arrays()
        other = Forecaster(cfg, seed=99)
        other.load_state_arrays(state)
        enc = batch_for(cfg)
        assert np.array_equal(model.predict(enc), other.predict(enc))

    def test_load_rejects_bad_state(self):
        cfg = tiny_cfg()
        model = Forecaster(cfg, seed=0)
        state = model.state_arrays()
        state.pop("head.b")
        with pytest.raises(ValueError):
            Forecaster(cfg).load_state_arrays(state)
        state = model.state_arrays()
        state["head.w"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            Forecaster(cfg).load_state_arrays(state)

    def test_zero_grad_clears(self):
        cfg = tiny_cfg()
        model = Forecaster(cfg, seed=0)
        enc = batch_for(cfg)
        pred, _ = model.forward(enc)
        grads = te.backward(te.mean_all(te.mul(pred, pred)))
        some_param = model.params["head.w"]
        assert some_param in grads
        model.zero_grad()
        for p in model.params.values():
            assert p.grad is None

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = tiny_cfg(activation=ActivationMode(kind="gated", type_id=3,
                                                 lam=0.25))
        model = Forecaster(cfg, seed=11)
        enc = batch_for(cfg)
        want = model.predict(enc)
        path = tmp_path / "model.bin"
        save_forecaster(path, model,
                        extra_tensors={"norm.mean": np.arange(3.0)},
                        extra_meta={"data.schema": "ett"})
        back, extra, meta = load_forecaster(path)
        assert back.cfg == cfg
        assert meta["data.schema"] == "ett"
        assert np.array_equal(extra["norm.mean"], np.arange(3.0))
        assert np.array_equal(back.predict(enc), want)

    @pytest.mark.parametrize("drop", ["n_heads", "activation.lam", "head.w"])
    def test_missing_entry_names_file_and_key(self, tmp_path, drop):
        path = tmp_path / "model.bin"
        save_forecaster(path, Forecaster(tiny_cfg(), seed=0))
        tensors, meta = te.load_tensors(path)
        (tensors if drop in tensors else meta).pop(drop)
        te.save_tensors(path, tensors, meta)
        with pytest.raises(ValueError, match=drop) as err:
            load_forecaster(path)
        assert str(path) in str(err.value)


class TestStoredTable:
    """A gated checkpoint carries its activation table."""

    @staticmethod
    def _saved(tmp_path, kind="gated"):
        cfg = tiny_cfg(activation=ActivationMode(kind=kind, type_id=2, lam=0.5))
        model = Forecaster(cfg, seed=5)
        path = tmp_path / "model.bin"
        save_forecaster(path, model, extra_tensors={"norm.mean": np.arange(3.0)})
        return model, path

    @staticmethod
    def _count_rebuilds(monkeypatch):
        calls = []
        real = cotn.model.table_for_type

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cotn.model, "table_for_type", counting)
        return calls

    def test_loading_uses_the_stored_table(self, tmp_path, monkeypatch):
        model, path = self._saved(tmp_path)
        tensors, meta = te.load_tensors(path)
        assert np.array_equal(tensors["table.nodes"], model.activation.tab.nodes)
        assert np.array_equal(tensors["table.values"], model.activation.tab.values)
        assert not any(key.startswith("table.") for key in meta)

        def refuse(*args, **kwargs):
            raise AssertionError("the stored table was rebuilt")

        monkeypatch.setattr(cotn.model, "table_for_type", refuse)
        back, extra, _ = load_forecaster(path)
        assert set(back.params) == set(model.params)
        assert set(extra) == {"norm.mean"}
        enc = batch_for(model.cfg)
        assert np.array_equal(back.predict(enc), model.predict(enc))

    def test_the_stored_values_define_the_model(self, tmp_path):
        _, path = self._saved(tmp_path)
        tensors, meta = te.load_tensors(path)
        tensors["table.values"] = tensors["table.values"] * 0.5
        te.save_tensors(path, tensors, meta)
        back, _, _ = load_forecaster(path)
        assert np.array_equal(back.activation.tab.values, tensors["table.values"])
        assert back.activation.tab.type_id == 2

    @pytest.mark.parametrize("deleted,missing", [
        pytest.param(("table.nodes", "table.values"), "table.nodes", id="both"),
        pytest.param(("table.nodes",), "table.nodes", id="no_nodes"),
        pytest.param(("table.values",), "table.values", id="no_values"),
    ])
    def test_checkpoint_without_a_table_is_refused(self, tmp_path, monkeypatch,
                                                   deleted, missing):
        # Rebuilding the table would tie the model to the loading
        # machine's libm, so a gated checkpoint must carry it.
        _, path = self._saved(tmp_path)
        tensors, meta = te.load_tensors(path)
        for name in deleted:
            del tensors[name]
        te.save_tensors(path, tensors, meta)
        calls = self._count_rebuilds(monkeypatch)
        with pytest.raises(ValueError) as err:
            load_forecaster(path)
        assert str(err.value) == f"{path}: checkpoint has no {missing!r}"
        assert calls == []

    @pytest.mark.parametrize("key,message", [
        ("d_model", "enc.embed.w has shape (3, 8), not (3, 1000000000000)"),
        ("n_features", "enc.embed.w has shape (3, 8), not (1000000000000, 8)"),
        ("d_ff", "enc.1.ff1.w has shape (8, 16), not (8, 1000000000000)"),
        ("n_dec_layers", "checkpoint has no 'dec.999999999999.ff1.w'"),
    ])
    def test_sizes_beyond_the_stored_arrays_are_refused(self, tmp_path, key, message):
        # Checked against the stored arrays before anything of the stated
        # size is allocated, so no MemoryError escapes the CLI's handler.
        _, path = self._saved(tmp_path)
        tensors, meta = te.load_tensors(path)
        te.save_tensors(path, tensors, {**meta, key: str(10 ** 12)})
        with pytest.raises(ValueError) as err:
            load_forecaster(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("key", ["enc_len", "horizon"])
    def test_unbounded_lengths_allocate_nothing_on_load(self, tmp_path, key):
        # No stored array bounds enc_len or horizon, so loading makes no
        # table or mask they size; they are made on first use.
        _, path = self._saved(tmp_path)
        tensors, meta = te.load_tensors(path)
        te.save_tensors(path, tensors, {**meta, key: str(10 ** 12)})
        model, _, _ = load_forecaster(path)
        assert getattr(model.cfg, key) == 10 ** 12

    def test_gelu_checkpoint_stores_no_table(self, tmp_path, monkeypatch):
        _, path = self._saved(tmp_path, kind="gelu")
        tensors, _ = te.load_tensors(path)
        assert not any(name.startswith("table.") for name in tensors)
        calls = self._count_rebuilds(monkeypatch)
        load_forecaster(path)
        assert calls == []

    @pytest.mark.parametrize("edit,message", [
        ("nan", "table values must be finite"),
        ("not_linspace", "linspace"),
        ("scalar_nodes", "1-d arrays"),
        ("short", "equal-length"),
    ])
    def test_malformed_stored_table_names_the_file(self, tmp_path, edit, message):
        _, path = self._saved(tmp_path)
        tensors, meta = te.load_tensors(path)
        if edit == "nan":
            tensors["table.values"][7] = math.nan
        elif edit == "not_linspace":
            tensors["table.nodes"][5] = np.nextafter(tensors["table.nodes"][5], 9.0)
        elif edit == "scalar_nodes":
            tensors["table.nodes"] = np.array(0.5)
        else:
            tensors["table.values"] = tensors["table.values"][:-1]
        te.save_tensors(path, tensors, meta)
        with pytest.raises(ValueError, match=message) as err:
            load_forecaster(path)
        assert str(err.value).startswith(f"{path}: ")


class TestAutoencoder:
    def _fitted(self, n=40, length=8, feats=2, seed=0):
        rng = np.random.default_rng(seed)
        windows = rng.standard_normal((n, length, feats))
        ae = Autoencoder(length, feats, hidden=16, bottleneck=4, seed=1)
        ae.fit_threshold(windows)
        return ae, windows

    def test_step_errors_shape_and_value(self):
        ae, windows = self._fitted()
        errs = ae.step_errors(windows)
        assert errs.shape == (40, 8)
        flat = windows.reshape(40, -1)
        recon = ae.reconstruct(flat)
        manual = ((flat - recon) ** 2).reshape(40, 8, 2).mean(axis=2)
        np.testing.assert_allclose(errs, manual, rtol=0, atol=0)

    def test_weights_match_recorded_reconstruction(self):
        # The reference is the forward pass recorded on the tape; the
        # plain-numpy reconstruction has its bits.
        ae, windows = self._fitted()
        flat = windows.reshape(40, -1)
        recon = tape_reconstruct(ae, te.constant(flat))
        assert recon.requires_grad
        assert ae.reconstruct(flat).tobytes() == recon.data.tobytes()
        errs = ((flat - recon.data) ** 2).reshape(40, 8, 2).mean(axis=2)
        assert np.array_equal(ae.weights(windows), 1.0 / (1.0 + errs.max(axis=1) / ae.tau))
        assert all(p.grad is None for p in ae.params.values())

    def test_threshold_is_95th_percentile(self):
        ae, windows = self._fitted()
        assert ae.tau == np.percentile(ae.step_errors(windows), 95.0)

    def test_weights_in_unit_interval(self):
        ae, windows = self._fitted()
        w = ae.weights(windows)
        assert w.shape == (40,)
        assert np.all(w > 0.0) and np.all(w <= 1.0)

    def test_weights_fall_with_error(self):
        ae, windows = self._fitted()
        spiked = windows.copy()
        spiked[:, 3, 0] += 25.0
        assert np.all(ae.weights(spiked) < ae.weights(windows))

    def test_unfitted_refuses_weights(self):
        ae = Autoencoder(8, 2)
        with pytest.raises(RuntimeError):
            ae.weights(np.zeros((1, 8, 2)))

    def test_window_shape_validation(self):
        ae = Autoencoder(8, 2)
        with pytest.raises(ValueError):
            ae.step_errors(np.zeros((3, 7, 2)))

    def test_anomaly_score_single_window(self):
        # One 2-D window scores as a batch of one.
        ae, windows = self._fitted()
        errors, weight = ae.step_errors(windows[0])[0], ae.weights(windows[0])[0]
        assert errors.shape == (8,)
        assert 0.0 < weight <= 1.0
        spiked = windows[0].copy()
        spiked[2, 1] += 30.0
        assert ae.weights(spiked)[0] < weight
        assert ae.step_errors(spiked)[0].argmax() == 2

    def test_checkpoint_round_trip(self, tmp_path):
        ae, windows = self._fitted()
        path = tmp_path / "ae.bin"
        save_autoencoder(path, ae)
        back, _ = load_autoencoder(path)
        assert back.tau == ae.tau
        assert back.window_len == ae.window_len
        np.testing.assert_allclose(back.step_errors(windows),
                                   ae.step_errors(windows), rtol=0, atol=0)

    def test_unfitted_checkpoint_refused(self, tmp_path):
        ae = Autoencoder(8, 2)
        with pytest.raises(RuntimeError):
            save_autoencoder(tmp_path / "ae.bin", ae)

    def test_bad_dimension_names_the_file(self, tmp_path):
        ae, _ = self._fitted()
        path = tmp_path / "ae.bin"
        save_autoencoder(path, ae)
        tensors, meta = te.load_tensors(path)
        te.save_tensors(path, tensors, {**meta, "hidden": "0"})
        with pytest.raises(ValueError, match="dimensions must be >= 1") as err:
            load_autoencoder(path)
        assert str(path) in str(err.value)

    def test_degenerate_threshold_round_trips(self, tmp_path, monkeypatch):
        # A perfect reconstruction leaves tau at the smallest normal float,
        # which must be stored as a plain float literal.
        ae, windows = self._fitted()
        monkeypatch.setattr(ae, "step_errors", lambda w: np.zeros((len(w), 8)))
        tau = ae.fit_threshold(windows)
        assert type(tau) is float and tau == np.finfo(np.float64).tiny
        save_autoencoder(tmp_path / "ae.bin", ae)
        assert load_autoencoder(tmp_path / "ae.bin")[0].tau == tau

    @pytest.mark.parametrize("tau", [math.nan, 0.0, -1.0, math.inf, -math.inf])
    def test_bad_threshold_refused(self, tmp_path, tau):
        ae, _ = self._fitted()
        path = tmp_path / "ae.bin"
        save_autoencoder(path, ae)
        tensors, meta = te.load_tensors(path)
        te.save_tensors(path, tensors, {**meta, "tau": repr(tau)})
        message = f"{path}: 'tau': expected a finite number > 0, got {tau!r}"
        with pytest.raises(ValueError) as err:
            load_autoencoder(path)
        assert str(err.value) == message
        ae.tau = tau
        with pytest.raises(ValueError) as err:
            save_autoencoder(tmp_path / "out.bin", ae)
        assert "'tau': expected a finite number > 0" in str(err.value)
        assert not (tmp_path / "out.bin").exists()

    def test_shapes_checked_before_the_autoencoder_is_built(self, tmp_path, monkeypatch):
        # A stored dimension the tensors do not have is refused before any
        # parameter of that size is drawn.
        ae, _ = self._fitted()
        path = tmp_path / "ae.bin"
        save_autoencoder(path, ae)
        tensors, meta = te.load_tensors(path)
        te.save_tensors(path, tensors, {**meta, "hidden": str(10 ** 12)})

        def refuse(*args, **kwargs):
            raise AssertionError("autoencoder built before its shapes were checked")

        monkeypatch.setattr(cotn.model.Autoencoder, "__init__", refuse)
        with pytest.raises(ValueError, match="enc1.w has shape") as err:
            load_autoencoder(path)
        assert str(err.value).startswith(f"{path}: ")


def _saved_autoencoder() -> bytes:
    ae = Autoencoder(8, 2, hidden=4, bottleneck=2, seed=3)
    ae.tau = 0.25
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "ae.bin")
        save_autoencoder(path, ae, extra_meta={"data.z_max": "5.0"})
        with open(path, "rb") as fh:
            return fh.read()


_AE_FILE = _saved_autoencoder()
_AE_HEADER = _AE_FILE.index(b"END\n") + 4
_AE_KEYS = ("kind", "window_len", "n_features", "hidden", "bottleneck", "tau")
_META_TEXT = st.one_of(
    st.integers(-10 ** 15, 10 ** 15).map(str),
    st.floats().map(repr),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
)


def _flipped(data: bytes, flips) -> bytes:
    out = bytearray(data)
    for pos, bits in flips:
        out[pos] ^= bits
    return bytes(out)


class TestAutoencoderFileFuzz:
    """Whatever is done to a saved autoencoder.bin, load_autoencoder
    either loads it or raises ValueError or OSError."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "autoencoder.bin"

    @staticmethod
    def _load_or_refuse(path, data: bytes) -> None:
        path.write_bytes(data)
        try:
            ae, _ = load_autoencoder(path)
        except (ValueError, OSError):
            return
        assert math.isfinite(ae.tau) and ae.tau > 0.0

    @settings(max_examples=150, deadline=None)
    @given(cut=st.integers(0, len(_AE_FILE) - 1))
    def test_truncated(self, path, cut):
        self._load_or_refuse(path, _AE_FILE[:cut])

    @settings(max_examples=200, deadline=None)
    @given(flips=st.lists(st.tuples(st.one_of(st.integers(0, _AE_HEADER - 1),
                                              st.integers(0, len(_AE_FILE) - 1)),
                                    st.integers(1, 255)), min_size=1, max_size=4))
    def test_bytes_flipped(self, path, flips):
        self._load_or_refuse(path, _flipped(_AE_FILE, flips))

    @settings(max_examples=200, deadline=None)
    @given(edits=st.dictionaries(st.sampled_from(_AE_KEYS), _META_TEXT, min_size=1))
    def test_meta_edited(self, path, edits):
        path.write_bytes(_AE_FILE)
        tensors, meta = te.load_tensors(path)
        te.save_tensors(path, tensors, {**meta, **edits})
        self._load_or_refuse(path, path.read_bytes())


class TestChunkedScoring:
    """step_errors scores SCORE_CHUNK windows per pass, with the bits of one
    pass over all of them and in memory that does not grow with them."""

    C = cotn.model.SCORE_CHUNK

    @staticmethod
    def _setup(n, seed=0):
        ae = Autoencoder(24, 7, seed=seed + 1)
        ae.tau = 1.0
        return ae, np.random.default_rng(seed).standard_normal((n, 24, 7))

    @staticmethod
    def _one_pass(ae, windows):
        flat = windows.reshape(windows.shape[0], -1)
        recon = ae.reconstruct(flat)
        return ((flat - recon) ** 2).reshape(-1, 24, 7).mean(axis=2)

    @pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 3 * C + 5])
    def test_equals_one_pass_bit_for_bit(self, n):
        ae, windows = self._setup(n, seed=n)
        got = ae.step_errors(windows)
        assert got.shape == (n, 24) and got.flags.c_contiguous
        assert got.tobytes() == self._one_pass(ae, windows).tobytes()

    @pytest.mark.parametrize("n", [1, 2, C + 1, 2 * C, 2 * C + 1, 3 * C + 5])
    def test_every_window_scored_once(self, n, monkeypatch):
        ae, windows = self._setup(n)
        rows = []
        real = Autoencoder.reconstruct

        def recording(self, flat):
            rows.append(flat.copy())
            return real(self, flat)

        monkeypatch.setattr(Autoencoder, "reconstruct", recording)
        ae.step_errors(windows)
        assert np.array_equal(np.concatenate(rows), windows.reshape(n, -1))
        assert all(len(r) <= self.C + 1 for r in rows)
        # No pass of a lone window after the first: one row takes numpy's
        # matrix-vector product, which rounds differently.
        assert n == 1 or min(len(r) for r in rows) > 1

    def test_memory_does_not_grow_with_the_windows(self):
        ae, windows = self._setup(8 * self.C)
        ae.step_errors(windows[:2])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            errors = ae.step_errors(windows)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # The output plus a handful of one-chunk arrays; one pass over all
        # 8 chunks held three arrays the size of the windows (12.4 MB).
        chunk_bytes = self.C * 24 * 7 * 8
        assert peak < errors.nbytes + 6 * chunk_bytes < windows.nbytes


class TestSettingCodec:
    """_as_text writes a config setting and _parse reads it back."""

    @given(st.integers())
    def test_int_round_trip(self, value):
        back = _parse("int", _as_text(value))
        assert type(back) is int and back == value

    @given(st.booleans())
    def test_bool_round_trip(self, value):
        assert _as_text(value) == str(int(value))
        assert _parse("bool", _as_text(value)) is value

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072009e-308)
    def test_finite_float_round_trip(self, value):
        back = _parse("float", _as_text(value))
        assert type(back) is float
        assert back == value and math.copysign(1.0, back) == math.copysign(1.0, value)

    @pytest.mark.parametrize("text,value", [
        ("1", True), ("true", True), ("Yes", True), (" on ", True),
        ("0", False), ("false", False), ("NO", False), ("off", False),
    ])
    def test_bool_words(self, text, value):
        assert _parse("bool", text) is value
