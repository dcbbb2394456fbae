import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foleygen import engine
from foleygen.engine import (
    AttentionParams,
    Tensor,
    activation,
    backward,
    conv1d_causal,
    conv1d_strided,
    conv1x1_channels,
    conv3d,
    grad_check,
    linear,
    multi_head_attention,
)
from foleygen.errors import ContractError, ParameterError, ShapeError


def rand_attention_params(rng, d, heads):
    return AttentionParams(
        wq=Tensor(rng.uniform(-1, 1, (d, d)), requires_grad=True),
        wk=Tensor(rng.uniform(-1, 1, (d, d)), requires_grad=True),
        wv=Tensor(rng.uniform(-1, 1, (d, d)), requires_grad=True),
        wo=Tensor(rng.uniform(-1, 1, (d, d)), requires_grad=True),
        bq=Tensor(rng.uniform(-1, 1, d), requires_grad=True),
        bk=Tensor(rng.uniform(-1, 1, d), requires_grad=True),
        bv=Tensor(rng.uniform(-1, 1, d), requires_grad=True),
        bo=Tensor(rng.uniform(-1, 1, d), requires_grad=True),
        heads=heads,
    )


class TestLinear:
    def test_identity(self):
        y = linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        npt.assert_array_equal(y.data, [[1.0, 2.0]])

    def test_hand_product(self):
        y = linear(Tensor([[1.0, 2.0]]), Tensor([[1.0], [1.0]]), Tensor([3.0]))
        npt.assert_array_equal(y.data, [[6.0]])

    def test_zero_input_passes_bias(self):
        y = linear(Tensor([[0.0, 0.0]]), Tensor([[2.0, 3.0], [4.0, 5.0]]),
                   Tensor([5.0, 7.0]))
        npt.assert_array_equal(y.data, [[5.0, 7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 3\).*\(2, 2\)"):
            linear(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 2))),
                   Tensor(np.zeros(2)))


class TestConv1dCausal:
    def test_hand_convolution_dilation1(self):
        y = conv1d_causal(Tensor([[1.0, 2.0, 3.0]]), Tensor([[[1.0, 1.0]]]), 1)
        npt.assert_array_equal(y.data, [[1.0, 3.0, 5.0]])

    def test_hand_convolution_dilation2(self):
        y = conv1d_causal(Tensor([[1.0, 2.0, 3.0]]), Tensor([[[1.0, 1.0]]]), 2)
        npt.assert_array_equal(y.data, [[1.0, 2.0, 4.0]])

    def test_identity_kernel(self):
        y = conv1d_causal(Tensor([[5.0, 5.0, 5.0]]), Tensor([[[1.0]]]), 1)
        npt.assert_array_equal(y.data, [[5.0, 5.0, 5.0]])

    def test_nonpositive_dilation_rejected(self):
        with pytest.raises(ParameterError):
            conv1d_causal(Tensor([[1.0]]), Tensor([[[1.0]]]), 0)

    def test_causality_perturbation(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, (2, 12))
        k = Tensor(rng.uniform(-2, 2, (2, 2, 3)))
        y0 = conv1d_causal(Tensor(x), k, 2).data
        for t in [0, 4, 7, 11]:
            xp = x.copy()
            xp[:, t] += 1.0
            y1 = conv1d_causal(Tensor(xp), k, 2).data
            npt.assert_array_equal(y0[:, :t], y1[:, :t])
            assert not np.array_equal(y0[:, t:], y1[:, t:])


class TestConv3d:
    def test_sum_of_eight_ones(self):
        y = conv3d(Tensor(np.ones((1, 2, 2, 2))), Tensor(np.ones((1, 1, 2, 2, 2))))
        npt.assert_array_equal(y.data, [[[[8.0]]]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (2, 3, 4, 4))
        k = np.zeros((2, 2, 1, 1, 1))
        k[0, 0] = 1.0
        k[1, 1] = 1.0
        y = conv3d(Tensor(x), Tensor(k))
        npt.assert_array_equal(y.data, x)

    def test_stride_shape_formula(self):
        x = Tensor(np.ones((1, 2, 4, 4)))
        k = Tensor(np.ones((1, 1, 1, 2, 2)))
        y = conv3d(x, k, stride=(1, 2, 2))
        assert y.shape == (1, 2, 2, 2)

    def test_kernel_too_large_rejected(self):
        with pytest.raises(ShapeError):
            conv3d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 1, 1))))


def conv3d_per_tap(x, k, g, stride, padding):
    """The original per-tap conv3d: forward, input and kernel gradients.

    One einsum per kernel tap in each direction. Kept as the reference the
    im2col implementation is checked against; g is the output gradient.
    """
    co, ci, kt, kh, kw = k.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    dims = x.shape[1:]
    To, Ho, Wo = [(d + 2 * p - kk) // s + 1
                  for d, kk, s, p in zip(dims, (kt, kh, kw), stride, padding)]
    xp = np.pad(x, ((0, 0), (pt, pt), (ph, ph), (pw, pw)))
    y = np.zeros((co, To, Ho, Wo))
    gk = np.zeros_like(k)
    gxp = np.zeros_like(xp)
    for a in range(kt):
        for b in range(kh):
            for c in range(kw):
                sl = (slice(None), slice(a, a + st * To, st),
                      slice(b, b + sh * Ho, sh), slice(c, c + sw * Wo, sw))
                y += np.einsum("oc,cthw->othw", k[:, :, a, b, c], xp[sl])
                gk[:, :, a, b, c] += np.einsum("othw,cthw->oc", g, xp[sl])
                gxp[sl] += np.einsum("oc,othw->cthw", k[:, :, a, b, c], g)
    gx = gxp[:, pt: pt + dims[0], ph: ph + dims[1], pw: pw + dims[2]]
    return y, gx, gk


def conv3d_with_grads(x, k, g, stride, padding):
    xt = Tensor(x, requires_grad=True)
    kt = Tensor(k, requires_grad=True)
    y = conv3d(xt, kt, stride, padding)
    backward((y * Tensor(g)).sum())
    return y.data, xt.grad, kt.grad


class TestConv3dIm2col:
    """The im2col conv3d against the per-tap reference."""

    @pytest.mark.parametrize("budget", ["default", "one_byte"])
    @pytest.mark.parametrize("padding", [(0, 0, 0), (1, 1, 1), (1, 0, 1)])
    @pytest.mark.parametrize("ksize", [(2, 3, 1), (3, 1, 2), (3, 3, 3)])
    def test_matches_per_tap_reference(self, ksize, padding, budget,
                                       monkeypatch):
        # a one-byte budget forces one output time step per column chunk
        if budget == "one_byte":
            monkeypatch.setattr(engine, "_COL_BUDGET_BYTES", 1)
        rng = np.random.default_rng(sum(ksize) + 7 * sum(padding))
        x = rng.uniform(-1, 1, (2, 7, 6, 8))
        k = rng.uniform(-1, 1, (3, 2) + ksize)
        for stride in itertools.product((1, 2, 3), repeat=3):
            y_shape = conv3d(Tensor(x), Tensor(k), stride, padding).shape
            g = rng.uniform(-1, 1, y_shape)
            ref = conv3d_per_tap(x, k, g, stride, padding)
            got = conv3d_with_grads(x, k, g, stride, padding)
            for name, r, a in zip(("y", "grad x", "grad kernel"), ref, got):
                npt.assert_allclose(a, r, rtol=0, atol=1e-12,
                                    err_msg=f"{name} at stride {stride}")

    def test_paper_size_split_path(self):
        # 8 ch x (4, 36, 64) with a 3x3x3 kernel: the whole-volume column
        # matrix (16 MB) is over the budget, so it is built per time step
        rng = np.random.default_rng(36)
        x = rng.uniform(-1, 1, (8, 4, 36, 64))
        k = rng.uniform(-1, 1, (8, 8, 3, 3, 3))
        g = rng.uniform(-1, 1, (8, 4, 36, 64))
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
        chunks = [(t0, t1, cols.nbytes) for t0, t1, cols in
                  engine._im2col_chunks(xp, (3, 3, 3), (1, 1, 1), (4, 36, 64))]
        assert [c[:2] for c in chunks] == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert all(n <= engine._COL_BUDGET_BYTES for _, _, n in chunks)
        ref = conv3d_per_tap(x, k, g, (1, 1, 1), (1, 1, 1))
        got = conv3d_with_grads(x, k, g, (1, 1, 1), (1, 1, 1))
        for r, a in zip(ref, got):
            npt.assert_allclose(a, r, rtol=0, atol=1e-10)

    def test_small_volume_single_piece(self):
        xp = np.zeros((2, 7, 6, 8))
        chunks = list(engine._im2col_chunks(xp, (3, 3, 3), (1, 1, 1),
                                            (5, 4, 6)))
        assert len(chunks) == 1 and chunks[0][:2] == (0, 5)

    def test_grad_check_mixed_stride(self):
        rng = np.random.default_rng(213)
        x = Tensor(rng.uniform(-1, 1, (2, 5, 4, 7)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (2, 2, 2, 2, 3)), requires_grad=True)
        fn = lambda x, k: (conv3d(x, k, (2, 1, 3), (1, 1, 0)) ** 2).sum()
        assert grad_check(fn, [x, k], eps=1e-5) < 1e-6

    @pytest.mark.parametrize("budget", ["default", "one_byte"])
    def test_float32_stays_float32(self, budget, monkeypatch):
        if budget == "one_byte":
            monkeypatch.setattr(engine, "_COL_BUDGET_BYTES", 1)
        # the GEMM results themselves, not only the tensors they are cast
        # into, must be float32: a float64 accumulator would double the work
        valid = engine._conv3d_valid
        gemm_dtypes = []

        def spy(*args):
            y = valid(*args)
            gemm_dtypes.append(y.dtype)
            return y

        monkeypatch.setattr(engine, "_conv3d_valid", spy)
        engine.set_precision("float32")
        rng = np.random.default_rng(32)
        x = Tensor(rng.uniform(-1, 1, (2, 4, 5, 6)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3, 3)), requires_grad=True)
        y = conv3d(x, k, (2, 1, 1), (1, 1, 1))
        backward((y * y).sum())
        assert y.data.dtype == np.float32
        assert x.grad.dtype == np.float32
        assert k.grad.dtype == np.float32
        assert gemm_dtypes == [np.float32, np.float32]


class TestConv1x1:
    def test_identity(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (2, 3, 3))
        y = conv1x1_channels(Tensor(x), Tensor(np.eye(2)))
        npt.assert_array_equal(y.data, x)

    def test_channel_sum(self):
        y = conv1x1_channels(Tensor([[1.0, 2.0], [3.0, 4.0]]),
                             Tensor([[1.0, 1.0]]))
        npt.assert_array_equal(y.data, [[4.0, 6.0]])

    def test_zero_kernel(self):
        y = conv1x1_channels(Tensor(np.ones((2, 5))), Tensor(np.zeros((3, 2))))
        npt.assert_array_equal(y.data, np.zeros((3, 5)))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv1x1_channels(Tensor(np.ones((3, 5))), Tensor(np.ones((2, 2))))


class TestAttention:
    def test_single_position_softmax_is_one(self):
        rng = np.random.default_rng(5)
        p = rand_attention_params(rng, 4, 2)
        x = rng.uniform(-1, 1, (1, 4))
        y = multi_head_attention(Tensor(x), p).data
        v = x @ p.wv.data + p.bv.data
        expected = v @ p.wo.data + p.bo.data
        npt.assert_allclose(y, expected, atol=1e-12)

    def test_equal_keys_give_uniform_weights(self):
        rng = np.random.default_rng(6)
        d, T = 4, 5
        p = rand_attention_params(rng, d, 1)
        p.wk.data[:] = 0.0  # every key identical -> weights 1/T
        p.wv.data = np.eye(d)
        p.bv.data[:] = 0.0
        p.wo.data = np.eye(d)
        p.bo.data[:] = 0.0
        x = rng.uniform(-1, 1, (T, d))
        y = multi_head_attention(Tensor(x), p).data
        npt.assert_allclose(y, np.tile(x.mean(axis=0), (T, 1)), atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        d, T = 4, 3
        p = rand_attention_params(rng, d, 1)
        x = rng.uniform(-1, 1, (T, d))
        # independent straight-line computation
        q = x @ p.wq.data + p.bq.data
        k = x @ p.wk.data + p.bk.data
        v = x @ p.wv.data + p.bv.data
        scores = q @ k.T / math.sqrt(d)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        expected = (att @ v) @ p.wo.data + p.bo.data
        y = multi_head_attention(Tensor(x), p).data
        npt.assert_allclose(y, expected, atol=1e-12)

    def test_head_divisibility(self):
        rng = np.random.default_rng(8)
        p = rand_attention_params(rng, 4, 3)
        with pytest.raises(ParameterError):
            multi_head_attention(Tensor(np.zeros((2, 4))), p)

    def test_causal_mask_blocks_future(self):
        rng = np.random.default_rng(9)
        d, T = 4, 6
        p = rand_attention_params(rng, d, 2)
        x = rng.uniform(-1, 1, (T, d))
        y0 = multi_head_attention(Tensor(x), p, causal_mask=True).data
        for t in range(1, T):
            xp = x.copy()
            xp[t] += 1.0
            y1 = multi_head_attention(Tensor(xp), p, causal_mask=True).data
            npt.assert_array_equal(y0[:t], y1[:t])
            assert not np.array_equal(y0[t:], y1[t:])


class TestActivation:
    def test_tanh_zero(self):
        assert activation(Tensor([0.0]), "tanh").data[0] == 0.0

    def test_relu(self):
        npt.assert_array_equal(
            activation(Tensor([-1.0, 2.0]), "relu").data, [0.0, 2.0])

    def test_softmax_symmetry(self):
        y = activation(Tensor([3.3, 3.3, 3.3]), "softmax_lastdim").data
        npt.assert_allclose(y, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            activation(Tensor([0.0]), "sigmoid")

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_softmax_rows_sum_to_one(self, row):
        y = Tensor(np.array([row, row])).softmax_lastdim().data
        npt.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)


class TestBackward:
    def test_sum_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(x.sum())
        npt.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_sum_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward((x ** 2).sum())
        npt.assert_array_equal(x.grad, [2.0, 4.0])

    def test_zero_activation_kills_gradient(self):
        w = Tensor([2.0], requires_grad=True)
        loss = (Tensor([0.0]).tanh() * w).sum()
        backward(loss)
        npt.assert_array_equal(w.grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(x * 2.0)

    def test_grads_overwritten_not_accumulated(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward((x ** 2).sum())
        backward((x ** 2).sum())
        npt.assert_array_equal(x.grad, [2.0, 4.0])

    def test_off_path_leaf_has_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        backward((x * 3.0).sum())
        npt.assert_array_equal(unused.grad, [0.0])


class TestGradCheck:
    def test_linear(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, 3), requires_grad=True)
        assert grad_check(lambda x, w, b: linear(x, w, b).sum(), [x, w, b]) < 1e-4

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(11)
        raw = rng.uniform(0.1, 2, (3, 3)) * rng.choice([-1, 1], (3, 3))
        x = Tensor(raw, requires_grad=True)
        assert grad_check(lambda x: x.relu().sum(), [x]) < 1e-4

    def test_constant_function(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        assert grad_check(lambda x: Tensor(0.0, requires_grad=True).sum() * 1.0
                          if False else (x * 0.0).sum(), [x]) == 0.0

    @pytest.mark.parametrize("name", [
        "tanh", "softmax", "conv1d_causal", "conv1d_strided", "conv3d",
        "conv1x1", "attention", "attention_causal", "clamp", "abs",
        "logsumexp", "mean_axis", "expand", "scalar_scale",
    ])
    def test_every_op(self, name):
        rng = np.random.default_rng(hash(name) % 2 ** 31)
        x = Tensor(rng.uniform(-2, 2, (2, 6)), requires_grad=True)
        if name == "tanh":
            fn, ins = lambda x: x.tanh().sum(), [x]
        elif name == "softmax":
            fn, ins = lambda x: (x.softmax_lastdim() ** 2).sum(), [x]
        elif name == "conv1d_causal":
            k = Tensor(rng.uniform(-2, 2, (2, 2, 3)), requires_grad=True)
            fn, ins = lambda x, k: (conv1d_causal(x, k, 2) ** 2).sum(), [x, k]
        elif name == "conv1d_strided":
            k = Tensor(rng.uniform(-2, 2, (3, 2, 2)), requires_grad=True)
            fn, ins = lambda x, k: (conv1d_strided(x, k, 2) ** 2).sum(), [x, k]
        elif name == "conv3d":
            x = Tensor(rng.uniform(-2, 2, (2, 3, 3, 3)), requires_grad=True)
            k = Tensor(rng.uniform(-2, 2, (2, 2, 2, 2, 2)), requires_grad=True)
            fn, ins = (lambda x, k:
                       (conv3d(x, k, (1, 1, 1), (1, 0, 0)) ** 2).sum(), [x, k])
        elif name == "conv1x1":
            k = Tensor(rng.uniform(-2, 2, (3, 2)), requires_grad=True)
            fn, ins = lambda x, k: (conv1x1_channels(x, k) ** 2).sum(), [x, k]
        elif name in ("attention", "attention_causal"):
            p = rand_attention_params(rng, 4, 2)
            x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
            causal = name.endswith("causal")
            fn = lambda x, *ts: (multi_head_attention(x, p, causal) ** 2).sum()
            # bk's true gradient is identically zero (softmax is invariant to
            # shifting every key), so finite differences only see noise there;
            # assert the exact zero separately and grad-check the rest
            engine.backward(fn(x))
            npt.assert_allclose(p.bk.grad, np.zeros(4), atol=1e-12)
            ins = [x] + [t for n_, t in p.tensors().items() if n_ != "bk"]
        elif name == "clamp":
            # stay away from the clamp boundaries
            x = Tensor(rng.uniform(0.2, 0.8, (2, 6)), requires_grad=True)
            fn, ins = lambda x: (x.clamp(0.0, 1.0) ** 2).sum(), [x]
        elif name == "abs":
            raw = rng.uniform(0.1, 2, (2, 6)) * rng.choice([-1, 1], (2, 6))
            x = Tensor(raw, requires_grad=True)
            fn, ins = lambda x: x.abs().sum(), [x]
        elif name == "logsumexp":
            fn, ins = lambda x: x.logsumexp_lastdim().sum(), [x]
        elif name == "mean_axis":
            fn, ins = lambda x: (x.mean_axis(1) ** 2).sum(), [x]
        elif name == "expand":
            x = Tensor(rng.uniform(-2, 2, 4), requires_grad=True)
            fn, ins = (lambda x:
                       (engine.expand_axis(x, 1, 3) ** 2).sum(), [x])
        elif name == "scalar_scale":
            s = Tensor(np.array(1.3), requires_grad=True)
            fn, ins = (lambda x, s:
                       (engine.scalar_scale(x, s) ** 2).sum(), [x, s])
        assert grad_check(fn, ins, eps=1e-5) < 1e-4


class TestDeterminism:
    def test_bit_identical_forward(self):
        rng = np.random.default_rng(12)
        p = rand_attention_params(rng, 4, 2)
        x = rng.uniform(-1, 1, (5, 4))
        a = multi_head_attention(Tensor(x), p, causal_mask=True).data
        b = multi_head_attention(Tensor(x.copy()), p, causal_mask=True).data
        assert np.array_equal(a, b)


class TestPrecision:
    def test_engine_setting(self):
        engine.set_precision("float32")
        assert Tensor([1.0]).data.dtype == np.float32
        engine.set_precision("float64")
        assert Tensor([1.0]).data.dtype == np.float64

    def test_unknown_precision(self):
        with pytest.raises(ParameterError):
            engine.set_precision("float16")
