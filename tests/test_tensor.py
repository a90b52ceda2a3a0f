"""Reverse-mode tape: values, gradients, persistence."""

import hashlib

import numpy as np
import pytest

import cotn.tensor as te
from cotn.activation import GeluActivation
from cotn.tensor import (
    NEG_INF,
    apply_activation,
    backward,
    concat_last,
    constant,
    glorot_uniform,
    layer_norm,
    load_tensors,
    matmul,
    maxpool_time2,
    mean_all,
    mul,
    parameter,
    repeat_time2,
    save_tensors,
    scale,
    shift_time,
    slice_last,
    slice_time,
    softmax_last_axis,
    sum_all,
    topo_order,
    transpose_last2,
)

from helpers import (
    TanhActivation,
    assert_close_to_reference,
    per_head_attention,
    unfused_affine,
    unfused_layer_norm,
)

RNG = np.random.default_rng(42)


def fd_grad(fn, arrays, idx, h=1e-6):
    """Central finite differences of fn(arrays) w.r.t. arrays[idx]."""
    base = [a.copy() for a in arrays]
    g = np.zeros_like(base[idx])
    it = np.nditer(base[idx], flags=["multi_index"])
    for _ in it:
        mi = it.multi_index
        plus = [a.copy() for a in base]
        minus = [a.copy() for a in base]
        plus[idx][mi] += h
        minus[idx][mi] -= h
        g[mi] = (fn(plus) - fn(minus)) / (2 * h)
    return g


def check_op(build, shapes, rtol=1e-6, atol=1e-8, seed=0):
    """Compare backward() against finite differences of sum_all(op)."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]

    def value(arrs):
        ts = [parameter(a) for a in arrs]
        return sum_all(build(*ts)).item()

    ts = [parameter(a) for a in arrays]
    loss = sum_all(build(*ts))
    grads = backward(loss)
    for i, t in enumerate(ts):
        fd = fd_grad(lambda arrs: value(arrs), arrays, i)
        np.testing.assert_allclose(grads[t], fd, rtol=rtol, atol=atol,
                                   err_msg=f"input {i}")


class TestBasics:
    def test_tensor_wraps_float64(self):
        t = constant([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2) and t.ndim == 2 and t.size == 4
        assert not t.requires_grad

    def test_parameter_requires_grad(self):
        assert parameter(np.zeros(3)).requires_grad

    def test_item_requires_scalar(self):
        assert constant(2.5).item() == 2.5
        with pytest.raises(ValueError):
            constant([1.0, 2.0]).item()

    def test_glorot_bounds_and_determinism(self):
        w1 = glorot_uniform(np.random.default_rng(9), 40, 60, (40, 60))
        w2 = glorot_uniform(np.random.default_rng(9), 40, 60, (40, 60))
        limit = np.sqrt(6.0 / 100.0)
        assert np.array_equal(w1, w2)
        assert np.all(np.abs(w1) <= limit)
        assert w1.std() > 0


class TestArithmeticGrads:
    def test_add(self):
        check_op(te.add, [(3, 4), (3, 4)])

    def test_add_broadcast(self):
        check_op(te.add, [(2, 3, 4), (4,)])

    def test_sub_broadcast(self):
        check_op(te.sub, [(3, 4), (1, 4)])

    def test_mul(self):
        check_op(te.mul, [(5,), (5,)])

    def test_mul_broadcast(self):
        check_op(te.mul, [(2, 5, 3), (5, 1)])

    def test_scale_and_neg(self):
        check_op(lambda a: scale(a, -2.5), [(4, 2)])
        check_op(te.neg, [(6,)])

    def test_scalar_operands(self):
        check_op(lambda a: te.add(a, constant(1.5)), [(3,)])
        check_op(lambda a: te.sub(constant(2.0), a), [(3,)])
        check_op(lambda a: te.scale(a, 3.0), [(3,)])

    def test_matmul_2d(self):
        check_op(te.matmul, [(3, 4), (4, 5)])

    def test_matmul_batched(self):
        check_op(te.matmul, [(2, 3, 4), (2, 4, 5)])

    def test_matmul_broadcast_rhs(self):
        check_op(te.matmul, [(2, 3, 4), (4, 5)])

    def test_transpose_last2(self):
        check_op(lambda a: te.matmul(transpose_last2(a), a), [(3, 4)])


class TestNonlinearGrads:
    def test_softmax(self):
        check_op(softmax_last_axis, [(2, 3, 5)])

    def test_softmax_rows_sum_to_one(self):
        y = softmax_last_axis(constant(RNG.standard_normal((4, 7))))
        np.testing.assert_allclose(y.data.sum(-1), np.ones(4), rtol=1e-12)

    def test_softmax_mask_zeroes_positions(self):
        x = constant(np.zeros((2, 4)))
        mask = np.array([[0.0, NEG_INF, 0.0, NEG_INF],
                         [0.0, 0.0, 0.0, NEG_INF]])
        y = softmax_last_axis(x, mask=mask).data
        assert y[0, 1] == 0.0 and y[0, 3] == 0.0 and y[1, 3] == 0.0
        np.testing.assert_allclose(y.sum(-1), np.ones(2), rtol=1e-12)
        np.testing.assert_allclose(y[0, 0], 0.5, rtol=1e-12)

    def test_softmax_masked_grad(self):
        mask = np.zeros((3, 6))
        mask[:, 4:] = NEG_INF
        check_op(lambda a: softmax_last_axis(a, mask=mask), [(3, 6)])

    def test_softmax_extreme_logits_stable(self):
        y = softmax_last_axis(constant(np.array([[1000.0, 0.0, -1000.0]])))
        assert np.all(np.isfinite(y.data))
        np.testing.assert_allclose(y.data[0, 0], 1.0, rtol=1e-12)

    def test_layer_norm(self):
        d = 6
        zero = constant(np.zeros((2, 3, d)))
        check_op(
            lambda x, g, b: layer_norm(x, g, b, zero),
            [(2, 3, d), (d,), (d,)],
            rtol=1e-5, atol=1e-7,
        )

    def test_layer_norm_standardizes(self):
        x = constant(RNG.standard_normal((5, 8)) * 3 + 2)
        y = layer_norm(x, constant(np.ones(8)), constant(np.zeros(8)),
                       constant(np.zeros((5, 8)))).data
        np.testing.assert_allclose(y.mean(-1), np.zeros(5), atol=1e-12)
        np.testing.assert_allclose(y.std(-1), np.ones(5), atol=1e-3)

    def test_apply_activation_tanh(self):
        check_op(lambda a: apply_activation(a, TanhActivation()), [(3, 4)])

    def test_apply_activation_gelu(self):
        check_op(lambda a: apply_activation(a, GeluActivation()), [(2, 3, 4)])


class TestShapeOps:
    def test_slice_time(self):
        check_op(lambda a: slice_time(a, 1, 3), [(2, 5, 3)])

    def test_slice_time_values(self):
        x = RNG.standard_normal((2, 6, 3))
        assert np.array_equal(slice_time(constant(x), 2, 5).data, x[:, 2:5])

    def test_slice_last(self):
        check_op(lambda a: slice_last(a, 2, 4), [(2, 3, 6)])

    def test_concat_last(self):
        check_op(lambda a, b, c: concat_last([a, b, c]),
                 [(2, 3, 2), (2, 3, 4), (2, 3, 1)])

    def test_concat_then_slice_identity(self):
        a = RNG.standard_normal((2, 3, 2))
        b = RNG.standard_normal((2, 3, 3))
        cat = concat_last([constant(a), constant(b)])
        assert np.array_equal(slice_last(cat, 0, 2).data, a)
        assert np.array_equal(slice_last(cat, 2, 5).data, b)

    def test_shift_time_values(self):
        x = np.arange(12.0).reshape(1, 4, 3)
        fwd = shift_time(constant(x), 1).data
        back = shift_time(constant(x), -1).data
        assert np.array_equal(fwd[0, 1:], x[0, :-1]) and np.all(fwd[0, 0] == 0)
        assert np.array_equal(back[0, :-1], x[0, 1:]) and np.all(back[0, -1] == 0)

    def test_shift_time_grads(self):
        check_op(lambda a: shift_time(a, 1), [(2, 4, 3)])
        check_op(lambda a: shift_time(a, -1), [(2, 4, 3)])
        check_op(lambda a: shift_time(a, 0), [(2, 4, 3)])


def _value_and_grads(build, arrays, g_out):
    """build's output and the gradient of sum(output * g_out) for every
    input, each input a fresh parameter (or the same one, where arrays
    repeats an array object)."""
    made = {}
    ts = [made.setdefault(id(a), parameter(a)) for a in arrays]
    out = build(*ts)
    grads = backward(sum_all(mul(out, constant(g_out))))
    return out.data, [grads[t] for t in ts]


def _assert_matches_unfused(build, reference, arrays, seed=0):
    with te.no_grad():
        shape = build(*[constant(a) for a in arrays]).shape
    g_out = np.random.default_rng(seed).standard_normal(shape)
    got_out, got = _value_and_grads(build, arrays, g_out)
    want_out, want = _value_and_grads(reference, arrays, g_out)
    assert_close_to_reference(got_out, want_out)
    for g, w in zip(got, want):
        assert_close_to_reference(g, w)


class TestFusedNodes:
    """Each fused node against the unfused chain it replaced: its value
    and every gradient, to 1e-12 of the reference's largest magnitude."""

    # Self, causal, per-example-masked and cross attention through
    # multi_head_attention are in test_model; these are the cases it lacks.
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["distinct", "cross_masked"])
    def test_attention(self, n_heads, kind):
        rng = np.random.default_rng(n_heads)
        d, lq, lk = 8, 7, 5
        x = rng.standard_normal((3, lq, d))
        mem = rng.standard_normal((3, lk, d))
        ws = [rng.standard_normal((d, d)) * 0.4 for _ in range(4)]
        if kind == "distinct":  # q, k and v three tensors
            qkv, mask = [x, mem, rng.standard_normal((3, lk, d))], None
        else:  # k and v one tensor, a per-example (Lq, Lk) mask
            qkv = [x, mem, mem]
            mask = np.where(rng.random((3, lq, lk)) < 0.3, NEG_INF, 0.0)
            mask[:, :, 0] = 0.0

        def fused(q, k, v, wq, wk, wv, wo):
            return te.attention(q, k, v, wq, wk, wv, wo, n_heads, mask)

        def unfused(q, k, v, wq, wk, wv, wo):
            return per_head_attention(q, k, v, n_heads, wq, wk, wv, wo, mask)

        _assert_matches_unfused(fused, unfused, qkv + ws)

    def test_attention_finite_differences(self):
        mask = np.triu(np.full((4, 4), NEG_INF), 1)
        check_op(lambda x, m, wq, wk, wv, wo: te.attention(x, m, m, wq, wk, wv, wo, 2),
                 [(2, 4, 4), (2, 3, 4)] + [(4, 4)] * 4, rtol=1e-5, atol=1e-7)
        check_op(lambda x, wq, wk, wv, wo: te.attention(x, x, x, wq, wk, wv, wo, 2, mask),
                 [(2, 4, 4)] + [(4, 4)] * 4, rtol=1e-5, atol=1e-7)

    def test_attention_validation(self):
        x = parameter(np.zeros((2, 4, 8)))
        w = parameter(np.zeros((8, 8)))
        with pytest.raises(ValueError, match="batch shapes"):
            te.attention(x, parameter(np.zeros((3, 4, 8))), x, w, w, w, w, 2)
        with pytest.raises(ValueError, match="not divisible"):
            te.attention(x, x, x, w, w, w, w, 3)

    @pytest.mark.parametrize("shape", [(3, 7, 8), (5, 16), (2, 4, 3, 6)])
    @pytest.mark.parametrize("residual", [False, True])
    def test_layer_norm(self, shape, residual):
        rng = np.random.default_rng(len(shape))
        d = shape[-1]
        arrays = [rng.standard_normal(shape) * 2 + 1, rng.standard_normal(d),
                  rng.standard_normal(d)]
        if residual:
            arrays.append(rng.standard_normal(shape))
            fused = lambda x, g, b, r: layer_norm(x, g, b, residual=r)
            unfused = lambda x, g, b, r: unfused_layer_norm(x, g, b, residual=r)
        else:
            # A constant zero residual gives the plain norm.
            zero = constant(np.zeros(shape))
            fused = lambda x, g, b: layer_norm(x, g, b, zero)
            unfused = unfused_layer_norm
        _assert_matches_unfused(fused, unfused, arrays)

    def test_layer_norm_of_x_plus_x(self):
        # The same tensor as x and residual gets both gradients.
        x = RNG.standard_normal((2, 3, 4))
        g, b = np.ones(4), np.zeros(4)
        _assert_matches_unfused(lambda a, gg, bb: layer_norm(a, gg, bb, residual=a),
                                lambda a, gg, bb: unfused_layer_norm(a, gg, bb, residual=a),
                                [x, g, b])

    def test_layer_norm_residual_finite_differences(self):
        check_op(lambda x, g, b, r: layer_norm(x, g, b, residual=r),
                 [(2, 3, 6), (6,), (6,), (2, 3, 6)], rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("x_shape,n_out", [((4, 6, 3), 5), ((7, 8), 1), ((2, 3, 5, 8), 16)])
    @pytest.mark.parametrize("with_offset", [False, True])
    def test_affine(self, x_shape, n_out, with_offset):
        rng = np.random.default_rng(n_out)
        n_in = x_shape[-1]
        offset = rng.standard_normal(x_shape[-2:-1] + (n_out,)) if with_offset else None
        arrays = [rng.standard_normal(x_shape), rng.standard_normal((n_in, n_out)),
                  rng.standard_normal(n_out)]
        _assert_matches_unfused(lambda x, w, b: te.affine(x, w, b, offset),
                                lambda x, w, b: unfused_affine(x, w, b, offset), arrays)

    def test_affine_validation(self):
        x = parameter(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            te.affine(x, parameter(np.zeros((5, 2))), parameter(np.zeros(2)))
        with pytest.raises(ValueError):
            te.affine(x, parameter(np.zeros((4, 2))), parameter(np.zeros(3)))

    @pytest.mark.parametrize("length", [2, 5, 24])
    def test_conv_time3(self, length):
        rng = np.random.default_rng(length)
        arrays = [rng.standard_normal((3, length, 4))] + [rng.standard_normal(4)
                                                          for _ in range(4)]

        def unfused(h, w_prev, w_cur, w_next, bias):
            return te.add(te.add(mul(shift_time(h, 1), w_prev), mul(h, w_cur)),
                          te.add(mul(shift_time(h, -1), w_next), bias))

        _assert_matches_unfused(te.conv_time3, unfused, arrays)
        # The forward pass adds in the chain's order, so its values keep
        # their bits.
        ts = [constant(a) for a in arrays]
        assert te.conv_time3(*ts).data.tobytes() == unfused(*ts).data.tobytes()

    def test_conv_time3_finite_differences(self):
        check_op(te.conv_time3, [(2, 5, 3)] + [(3,)] * 4)

    # The benchmark model's weights (d_model 8, d_ff 16, 1 or 7 features,
    # one target). A (16, 32) weight is one where the two differ.
    @pytest.mark.parametrize("n_in,n_out", [(1, 8), (7, 8), (8, 8), (8, 16), (16, 8), (8, 1)])
    def test_contiguous_transpose_keeps_the_input_gradient_bits(self, n_in, n_out):
        """te.affine takes its input gradient against a contiguous copy of
        w.T, which numpy multiplies faster than the transposed view the
        unfused matmul uses; on these shapes the bits are the same."""
        rng = np.random.default_rng(n_in * n_out)
        for batch, length in ((1, 24), (7, 12), (32, 24), (64, 20)):
            x = parameter(rng.standard_normal((batch, length, n_in)))
            w = parameter(rng.standard_normal((n_in, n_out)))
            b = parameter(np.zeros(n_out))
            g_out = rng.standard_normal((batch, length, n_out))
            fused = backward(sum_all(mul(te.affine(x, w, b), constant(g_out))))[x]
            x.grad = None
            chain = backward(sum_all(mul(te.matmul(x, w), constant(g_out))))[x]
            assert fused.tobytes() == chain.tobytes()
            assert fused.tobytes() == (g_out @ np.swapaxes(w.data, -1, -2)).tobytes()


def _softmax_reference(x, mask=None):
    # The row-max-over-the-last-axis formula the op must match bit for bit.
    z = x if mask is None else x + mask
    z = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


def _special_rows():
    inf, nan = np.inf, np.nan
    return np.array([
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, -0.0, -0.0, -0.0],
        [inf, 1.0, -inf, 0.0],
        [inf, inf, 2.0, 0.0],
        [-inf, -inf, -inf, -inf],
        [nan, 1.0, 2.0, 3.0],
        [1.0, nan, -inf, inf],
        [-1e300, 1e300, -0.0, 5e-324],
        [NEG_INF, 0.0, NEG_INF, -0.0],
    ])


class TestSoftmaxBits:
    @pytest.mark.parametrize("x,mask", [
        (RNG.standard_normal((4, 3, 7, 9)) * 30.0, None),
        (RNG.standard_normal((5, 2, 6, 6)), np.triu(np.full((6, 6), NEG_INF), 1)),
        (RNG.standard_normal((3, 6)), np.where(RNG.random((3, 6)) < 0.5, NEG_INF, 0.0)),
        (RNG.standard_normal(7), None),
        (_special_rows(), None),
        (np.zeros((9, 4)), _special_rows()),
    ])
    def test_equals_reference(self, x, mask):
        before = x.copy()
        with np.errstate(invalid="ignore"):
            got = softmax_last_axis(constant(x), mask).data
            want = _softmax_reference(x, mask)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(x, before, equal_nan=True)

    def test_input_left_unwritten(self):
        x = parameter(RNG.standard_normal((2, 3, 5)))
        before = x.data.copy()
        y = softmax_last_axis(x)
        backward(sum_all(mul(y, constant(RNG.standard_normal((2, 3, 5))))))
        assert np.array_equal(x.data, before)


class TestPooling:
    def test_maxpool_halves_even_length(self):
        x = constant(RNG.standard_normal((2, 6, 3)))
        assert maxpool_time2(x).shape == (2, 3, 3)

    def test_maxpool_ceil_odd_length(self):
        x = np.arange(15.0).reshape(1, 5, 3)
        y = maxpool_time2(constant(x)).data
        assert y.shape == (1, 3, 3)
        assert np.array_equal(y[0, 2], x[0, 4])

    def test_maxpool_values(self):
        x = np.array([[[1.0], [5.0], [3.0], [2.0]]])
        assert np.array_equal(maxpool_time2(constant(x)).data,
                              np.array([[[5.0], [3.0]]]))

    def test_maxpool_grad_routes_to_argmax(self):
        x = parameter(np.array([[[1.0], [5.0], [3.0], [2.0]]]))
        grads = backward(sum_all(maxpool_time2(x)))
        assert np.array_equal(grads[x],
                              np.array([[[0.0], [1.0], [1.0], [0.0]]]))

    def test_maxpool_tie_goes_to_earlier_step(self):
        x = parameter(np.array([[[2.0], [2.0]]]))
        grads = backward(sum_all(maxpool_time2(x)))
        assert np.array_equal(grads[x], np.array([[[1.0], [0.0]]]))

    def test_maxpool_grad_fd(self):
        # Keep entries well separated so the max is differentiable.
        x = np.arange(24.0).reshape(2, 6, 2)
        ts = parameter(x)
        grads = backward(sum_all(maxpool_time2(ts)))
        fd = fd_grad(
            lambda arrs: sum_all(maxpool_time2(parameter(arrs[0]))).item(),
            [x], 0,
        )
        np.testing.assert_allclose(grads[ts], fd, rtol=1e-6, atol=1e-9)

    def test_repeat_time2_values(self):
        x = np.array([[[1.0], [2.0]]])
        assert np.array_equal(repeat_time2(constant(x), 4).data,
                              np.array([[[1.0], [1.0], [2.0], [2.0]]]))
        assert np.array_equal(repeat_time2(constant(x), 3).data,
                              np.array([[[1.0], [1.0], [2.0]]]))

    def test_repeat_time2_grads(self):
        check_op(lambda a: repeat_time2(a, 6), [(2, 3, 2)])
        check_op(lambda a: repeat_time2(a, 5), [(2, 3, 2)])

    def test_repeat_inverts_pool_length(self):
        for length in (5, 6, 7, 8):
            x = constant(RNG.standard_normal((1, length, 2)))
            pooled = maxpool_time2(x)
            assert repeat_time2(pooled, length).shape == x.shape


class TestReductions:
    def test_sum_and_mean(self):
        x = RNG.standard_normal((3, 4))
        assert sum_all(constant(x)).item() == pytest.approx(x.sum(), rel=1e-12)
        assert mean_all(constant(x)).item() == pytest.approx(x.mean(), rel=1e-12)
        check_op(mean_all, [(3, 4)])


class TestGraph:
    def test_topo_visits_each_node_once(self):
        a = parameter(np.ones(3))
        b = te.add(a, a)
        c = te.mul(b, b)
        order = topo_order(c)
        assert len(order) == len(set(id(t) for t in order)) == 3
        assert order[-1] is c

    def test_diamond_graph_accumulates(self):
        a = parameter(np.array(2.0))
        b = te.mul(a, a)
        loss = te.add(b, b)
        grads = backward(loss)
        assert grads[a] == pytest.approx(8.0, rel=1e-12)

    def test_reused_leaf_accumulates(self):
        a = parameter(np.array([1.0, 2.0]))
        loss = sum_all(te.add(a, te.scale(a, 3.0)))
        grads = backward(loss)
        np.testing.assert_allclose(grads[a], np.full(2, 4.0), rtol=1e-12)

    def test_backward_requires_scalar(self):
        a = parameter(np.ones(3))
        with pytest.raises(ValueError):
            backward(te.add(a, a))

    def test_constants_get_no_grad(self):
        a = parameter(np.ones(3))
        c = constant(np.ones(3))
        grads = backward(sum_all(te.mul(a, c)))
        assert a in grads and c not in grads

    def test_no_grad_graph_is_leaf(self):
        x = te.add(constant(np.ones(3)), constant(np.ones(3)))
        assert topo_order(x) == [x]

    def test_deep_chain_no_recursion_limit(self):
        x = parameter(np.array(1.0))
        y = x
        for _ in range(5000):
            y = te.add(y, constant(0.0001))
        grads = backward(y)
        assert grads[x] == 1.0


class _CountingActivation:
    """Tanh that counts which of its two methods the tape asked for."""

    name = "counting"

    def __init__(self):
        self.calls = []

    def value(self, x):
        self.calls.append("value")
        return TanhActivation().value(x)

    def value_and_slope(self, x):
        self.calls.append("value_and_slope")
        return TanhActivation().value_and_slope(x)


class TestNoGrad:
    def test_outputs_are_constants(self):
        a = parameter(RNG.standard_normal((2, 3)))
        b = parameter(RNG.standard_normal((3, 4)))
        with te.no_grad():
            outs = [te.add(a, a), scale(a, 2.0), matmul(a, b), softmax_last_axis(a),
                    apply_activation(a, GeluActivation()), mean_all(a)]
        for out in outs:
            assert out.requires_grad is False
            assert out._parents == () and out._vjps == ()
            assert topo_order(out) == [out]
        assert backward(outs[-1]) == {}
        assert a.grad is None and b.grad is None

    def test_values_match_recorded_run(self):
        a = parameter(RNG.standard_normal((2, 5, 3)))
        gamma, beta = parameter(np.ones(3)), parameter(np.zeros(3))
        recorded = layer_norm(apply_activation(a, GeluActivation()), gamma, beta, a)
        with te.no_grad():
            plain = layer_norm(apply_activation(a, GeluActivation()), gamma, beta, a)
        assert recorded.requires_grad
        assert np.array_equal(plain.data, recorded.data)

    def test_leaves_still_require_grad(self):
        with te.no_grad():
            p = parameter(np.ones(2))
        assert p.requires_grad
        assert backward(sum_all(p))[p].tolist() == [1.0, 1.0]

    def test_state_restored_on_exit_exception_and_nesting(self):
        a = parameter(np.ones(3))
        with te.no_grad():
            with te.no_grad():
                assert not scale(a, 2.0).requires_grad
            assert not scale(a, 2.0).requires_grad
        assert scale(a, 2.0).requires_grad
        with pytest.raises(RuntimeError):
            with te.no_grad():
                raise RuntimeError("boom")
        assert scale(a, 2.0).requires_grad

    def test_activation_asks_for_slope_only_when_recording(self):
        act = _CountingActivation()
        x = parameter(RNG.standard_normal((3, 4)))
        apply_activation(constant(x.data), act)
        with te.no_grad():
            apply_activation(x, act)
        assert act.calls == ["value", "value"]
        y = apply_activation(x, act)
        assert act.calls[-1] == "value_and_slope"
        grads = backward(sum_all(y))
        assert len(act.calls) == 3  # backward reuses the saved slope
        assert np.array_equal(grads[x], act.value_and_slope(x.data)[1])


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {
            "w": rng.standard_normal((3, 4)),
            "b": rng.standard_normal(4),
            "s": np.array(3.14),
            "deep": rng.standard_normal((2, 3, 4)),
        }
        meta = {"kind": "test", "alpha": "0.5"}
        path = tmp_path / "ckpt.bin"
        save_tensors(path, tensors, meta)
        back, back_meta = load_tensors(path)
        assert back_meta == meta
        assert set(back) == set(tensors)
        for name, arr in tensors.items():
            assert np.array_equal(back[name], np.asarray(arr, dtype=np.float64))
            assert back[name].shape == np.asarray(arr).shape

    def test_round_trip_keeps_every_bit_and_records_the_digest(self, tmp_path):
        special = np.array([-0.0, 0.0, 5e-324, -np.inf, np.inf, np.nan, 1e300])
        path = tmp_path / "ckpt.bin"
        save_tensors(path, {"v": special, "w": np.arange(6.0).reshape(2, 3)}, {})
        back, _ = load_tensors(path)
        assert np.array_equal(back["v"].view(np.int64), special.view(np.int64))
        raw = path.read_bytes()
        head, _, payload = raw.partition(b"\nEND\n")
        digest_line = head.splitlines()[-1]
        assert digest_line == b"sha256 " + hashlib.sha256(payload).hexdigest().encode()

    @pytest.mark.parametrize("where", [0, 17, -1])
    def test_flipped_payload_byte_fails(self, tmp_path, where):
        path = tmp_path / "ckpt.bin"
        save_tensors(path, {"w": np.linspace(-1.0, 1.0, 8)}, {"kind": "test"})
        raw = bytearray(path.read_bytes())
        start = raw.index(b"\nEND\n") + len(b"\nEND\n")
        raw[start + where if where >= 0 else where] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="payload digest mismatch") as err:
            load_tensors(path)
        assert str(err.value) == f"{path}: payload digest mismatch"

    def test_file_without_digest_is_refused(self, tmp_path):
        # The layout before the digest line existed; nothing writes it now.
        values = np.array([1.5, -2.25])
        path = tmp_path / "old.bin"
        path.write_bytes(b"TENSORBIN 1\nmeta 1\nkind=test\ntensors 1\n"
                         b"x 1 2 0 16\nEND\n" + values.astype("<f8").tobytes())
        with pytest.raises(ValueError) as err:
            load_tensors(path)
        assert str(err.value) == (
            f"{path}: corrupt tensor container (missing sha256 line)")

    @pytest.mark.parametrize("entry", ["x 2 -1 -1 0 8", "x 1 1 -8 8", "x 1 0 0 -8"])
    def test_negative_size_rejected(self, tmp_path, entry):
        path = tmp_path / "old.bin"
        path.write_bytes(b"TENSORBIN 1\nmeta 0\ntensors 1\n" + entry.encode()
                         + b"\nEND\n" + np.ones(1).astype("<f8").tobytes())
        with pytest.raises(ValueError) as err:
            load_tensors(path)
        assert str(err.value) == (
            f"{path}: corrupt tensor container (negative size in entry 'x')")

    @pytest.mark.parametrize("manifest,message", [
        (b"NOTRIGHT 1\n", "not a tensor container"),
        (b"TENSORBIN 1\nmeat 0\n", "malformed meta header"),
        (b"TENSORBIN 1\nmeta 0\ntensor 0\n", "malformed tensor header"),
        (b"TENSORBIN 1\nmeta 0\ntensors 0\nsha256 00\nEDN\n", "missing END marker"),
    ])
    def test_corrupt_manifest_names_the_file_once(self, tmp_path, manifest, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(manifest)
        with pytest.raises(ValueError) as err:
            load_tensors(path)
        assert str(err.value) == f"{path}: corrupt tensor container ({message})"

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTRIGHT 1\nEND\n")
        with pytest.raises(ValueError):
            load_tensors(path)

    def test_empty_meta_ok(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_tensors(path, {"x": np.ones(2)}, {})
        back, meta = load_tensors(path)
        assert meta == {} and np.array_equal(back["x"], np.ones(2))
