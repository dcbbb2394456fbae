import math
import threading
import tracemalloc
import zlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foleygen import engine
from foleygen.engine import (
    AttentionParams,
    Tensor,
    backward,
    causal_residual,
    conv1d_causal,
    conv1d_strided,
    conv1x1_channels,
    conv3d,
    grad_check,
    linear,
    multi_head_attention,
)
from foleygen.errors import ContractError, ParameterError, ShapeError
from foleygen.models import build_model

from conftest import conv3d_same_per_tap, conv3d_with_grads, tiny_config


def rand_attention_params(rng, d, heads):
    return AttentionParams(
        wq=Tensor(rng.uniform(-1, 1, (d, d)), requires_grad=True),
        wk=Tensor(rng.uniform(-1, 1, (d, d)), requires_grad=True),
        wv=Tensor(rng.uniform(-1, 1, (d, d)), requires_grad=True),
        wo=Tensor(rng.uniform(-1, 1, (d, d)), requires_grad=True),
        bq=Tensor(rng.uniform(-1, 1, d), requires_grad=True),
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

    # (n, d_in) or a batch (B, n, d_in)
    @pytest.mark.parametrize("shape", [(2,), (1, 1, 2, 2)])
    def test_input_must_be_2d_or_3d(self, shape):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros(shape)), Tensor(np.eye(2)),
                   Tensor(np.zeros(2)))

    def test_one_tape_node(self):
        x, w, b = (Tensor(np.ones(s), requires_grad=True)
                   for s in ((3, 2), (2, 4), (4,)))
        y = linear(x, w, b)
        assert y._parents == (x, w, b)


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


def conv1d_causal_padded(x, k, g, dilation):
    """The original padded per-tap conv1d_causal: forward and both gradients.

    x is left-padded by (K-1)*dilation zeros and every tap reads a length-T
    slice of the padded copy. Kept as the reference for the shift-and-GEMM
    implementation; g is the output gradient.
    """
    K, T = k.shape[2], x.shape[1]
    pad = (K - 1) * dilation
    xp = np.pad(x, ((0, 0), (pad, 0)))
    y = np.zeros((k.shape[0], T))
    gk = np.zeros_like(k)
    gxp = np.zeros_like(xp)
    for tap in range(K):
        sl = slice(pad - tap * dilation, pad - tap * dilation + T)
        y += k[:, :, tap] @ xp[:, sl]
        gk[:, :, tap] += g @ xp[:, sl].T
        gxp[:, sl] += k[:, :, tap].T @ g
    return y, gxp[:, pad:], gk


class TestConv1dCausalShiftGemm:
    """The shift-and-GEMM conv1d_causal against the padded reference."""

    @pytest.mark.parametrize("dilation", [1, 2, 4, 64])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_matches_padded_reference(self, K, dilation):
        rng = np.random.default_rng(10 * K + dilation)
        # lengths on both sides of (K-1)*dilation: the short ones leave
        # taps that see only padding, which the implementation skips
        for T in (1, 2, 3, dilation, dilation + 1, 64, 150):
            x = rng.uniform(-1, 1, (3, T))
            k = rng.uniform(-1, 1, (4, 3, K))
            g = rng.uniform(-1, 1, (4, T))
            xt = Tensor(x, requires_grad=True)
            kt = Tensor(k, requires_grad=True)
            y = conv1d_causal(xt, kt, dilation)
            backward((y * Tensor(g)).sum())
            ref = conv1d_causal_padded(x, k, g, dilation)
            for name, r, a in zip(("y", "grad x", "grad kernel"), ref,
                                  (y.data, xt.grad, kt.grad)):
                npt.assert_allclose(a, r, rtol=0, atol=1e-12,
                                    err_msg=f"{name} at T={T}")

    def test_grad_check_with_skipped_tap(self):
        # (K-1)*d = 8 >= T = 6: tap 2 is skipped, tap 1 is partial
        rng = np.random.default_rng(64)
        x = Tensor(rng.uniform(-1, 1, (2, 6)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (3, 2, 3)), requires_grad=True)
        fn = lambda x, k: (conv1d_causal(x, k, 4) ** 2).sum()
        assert grad_check(fn, [x, k], eps=1e-5) < 1e-6


def residual_op_by_op(h, k, dilation):
    """The wavenet residual layer as separate conv, ReLU and add nodes."""
    return h + conv1d_causal(h, k, dilation).relu()


class TestCausalResidual:
    """The fused residual layer against the op-by-op graph it replaces."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("dilation", [1, 2, 16, 64])
    def test_bit_identical_to_op_by_op(self, dilation, K, dtype):
        # T = 64: at dilation 64 every tap past the first is skipped
        rng = np.random.default_rng(100 * K + dilation)
        h0 = rng.standard_normal((4, 64))
        k0 = rng.standard_normal((4, 4, K))
        g = Tensor(rng.standard_normal((4, 64)), dtype=dtype)
        results = []
        for op in (causal_residual, residual_op_by_op):
            h = Tensor(h0, requires_grad=True, dtype=dtype)
            k = Tensor(k0, requires_grad=True, dtype=dtype)
            y = op(h, k, dilation)
            backward((y * g).sum())
            with engine.no_grad():
                free = op(h, k, dilation)
            assert not free.requires_grad
            results.append((y.data, h.grad, k.grad, free.data))
        for name, a, b in zip(("y", "grad h", "grad kernel", "no_grad y"),
                              *results):
            assert a.dtype == b.dtype == dtype, name
            assert a.tobytes() == b.tobytes(), name

    def test_grad_check(self):
        rng = np.random.default_rng(65)
        h = Tensor(rng.uniform(-1, 1, (3, 10)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (3, 3, 3)), requires_grad=True)
        conv = conv1d_causal(h, k, 4).data
        assert (conv < 0).any() and (conv > 0).any()    # the ReLU cuts
        fn = lambda h, k: (causal_residual(h, k, 4) ** 2).sum()
        assert grad_check(fn, [h, k], eps=1e-5) < 1e-3

    @pytest.mark.parametrize("op", [conv1d_causal, causal_residual])
    @pytest.mark.parametrize("x_shape,k_shape,dilation,err", [
        ((2, 8), (2, 2, 3), 0, ParameterError),
        ((2, 8), (2, 2, 3), 1.0, ParameterError),
        ((2, 8, 1), (2, 2, 3), 1, ShapeError),
        ((2, 8), (2, 2), 1, ShapeError),
        ((3, 8), (2, 2, 3), 1, ShapeError),
        ((2, 8), (2, 2, 0), 1, ParameterError),
    ])
    def test_bad_input_typed_error(self, op, x_shape, k_shape, dilation,
                                   err):
        with pytest.raises(err):
            op(Tensor(np.zeros(x_shape)), Tensor(np.zeros(k_shape)), dilation)

    def test_kernel_must_keep_the_channel_count(self):
        with pytest.raises(ShapeError, match="causal_residual"):
            causal_residual(Tensor(np.zeros((2, 8))),
                            Tensor(np.zeros((3, 2, 1))), 1)


class TestIntegerArguments:
    """A dilation or stride follows the package's integer rule: a numpy
    integer is an int, a bool is not."""

    @pytest.mark.parametrize("op", [conv1d_causal, conv1d_strided])
    def test_numpy_int_accepted(self, op):
        rng = np.random.default_rng(17)
        x = Tensor(rng.uniform(-1, 1, (2, 8)))
        k = Tensor(rng.uniform(-1, 1, (2, 2, 2)))
        npt.assert_array_equal(op(x, k, np.int64(2)).data, op(x, k, 2).data)

    @pytest.mark.parametrize("op", [conv1d_causal, conv1d_strided])
    def test_bool_refused(self, op):
        with pytest.raises(ParameterError, match="positive int"):
            op(Tensor(np.zeros((2, 8))), Tensor(np.zeros((2, 2, 2))), True)


class TestNoGrad:
    def test_results_inside_record_nothing(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with engine.no_grad():
            y = (w @ w).tanh() + w
        assert not y.requires_grad
        assert y._parents == () and y._backward is None
        assert w.requires_grad
        z = w @ w
        assert z.requires_grad and z._parents == (w, w)

    def test_values_match_recorded(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(-1, 1, (3, 10)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (2, 3, 2)), requires_grad=True)
        taped = conv1d_causal(x, k, 2).relu().data
        with engine.no_grad():
            free = conv1d_causal(x, k, 2).relu().data
        npt.assert_array_equal(free, taped)

    def test_restored_after_nesting(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with engine.no_grad():
            with engine.no_grad():
                pass
            assert not (w * 2.0).requires_grad
        assert (w * 2.0).requires_grad

    def test_restored_after_exception(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ShapeError):
            with engine.no_grad():
                w + Tensor(np.ones(3))
        assert (w * 2.0).requires_grad

    def test_scope_is_per_thread(self):
        w = Tensor(np.ones(2), requires_grad=True)
        entered, done = threading.Event(), threading.Event()
        seen = {}

        def hold_scope():
            with engine.no_grad():
                seen["inside"] = (w * 2.0).requires_grad
                entered.set()
                done.wait(timeout=10)

        t = threading.Thread(target=hold_scope)
        t.start()
        try:
            assert entered.wait(timeout=10)
            seen["other"] = (w * 2.0).requires_grad
        finally:
            done.set()
            t.join(timeout=10)
        assert not t.is_alive()
        assert seen == {"inside": False, "other": True}


class TestConv3d:
    def test_sum_of_ones(self):
        # each output counts the 3x3x3 taps that fall inside the input: 2
        # per dim at an edge, 3 in the middle
        y = conv3d(Tensor(np.ones((1, 3, 3, 3))), Tensor(np.ones((1, 1, 3, 3, 3))))
        c = np.array([2.0, 3.0, 2.0])
        npt.assert_array_equal(y.data[0], np.einsum("i,j,k->ijk", c, c, c))

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (2, 3, 4, 4))
        k = np.zeros((2, 2, 1, 1, 1))
        k[0, 0] = 1.0
        k[1, 1] = 1.0
        y = conv3d(Tensor(x), Tensor(k))
        npt.assert_array_equal(y.data, x)

    @pytest.mark.parametrize("ksize", [(2, 3, 3), (3, 2, 3), (3, 3, 4)])
    def test_even_kernel_refused(self, ksize):
        with pytest.raises(ShapeError, match="odd"):
            conv3d(Tensor(np.ones((1, 4, 4, 4))), Tensor(np.ones((1, 1) + ksize)))

    @pytest.mark.parametrize("dims", [(0, 3, 3), (3, 0, 3), (3, 3, 0)])
    def test_empty_extent_refused(self, dims):
        with pytest.raises(ShapeError):
            conv3d(Tensor(np.ones((1,) + dims)), Tensor(np.ones((1, 1, 1, 1, 1))))

    @pytest.mark.parametrize("xs,ks", [
        ((0, 3, 3, 3), (2, 0, 3, 3, 3)),        # no input channels
        ((2, 0, 3, 3, 3), (2, 0, 3, 3, 3)),     # the same, batched
        ((2, 3, 3, 3), (0, 2, 3, 3, 3)),        # no output channels
    ])
    def test_no_channels_refused(self, xs, ks):
        with pytest.raises(ShapeError, match="no channels"):
            conv3d(Tensor(np.ones(xs)), Tensor(np.ones(ks)))


class TestConv3dIm2col:
    """The spatial-column conv3d against the per-tap reference."""

    @pytest.mark.parametrize("budget", ["default", "one_byte"])
    @pytest.mark.parametrize("ksize", [(1, 3, 1), (3, 1, 5), (3, 3, 3)])
    def test_matches_per_tap_reference(self, ksize, budget, monkeypatch):
        # a one-byte budget forces one output row per column chunk
        if budget == "one_byte":
            monkeypatch.setattr(engine, "_COL_BUDGET_BYTES", 1)
        rng = np.random.default_rng(sum(ksize))
        x = rng.uniform(-1, 1, (2, 7, 6, 8))
        k = rng.uniform(-1, 1, (3, 2) + ksize)
        g = rng.uniform(-1, 1, (3, 7, 6, 8))
        assert conv3d(Tensor(x), Tensor(k)).shape == g.shape
        ref = conv3d_same_per_tap(x, k, g)
        got = conv3d_with_grads(x, k, g)
        for name, r, a in zip(("y", "grad x", "grad kernel"), ref, got):
            npt.assert_allclose(a, r, rtol=0, atol=1e-12, err_msg=name)

    def test_paper_size_split_path(self, monkeypatch):
        # 8 ch x (4, 36, 64) with a 3x3x3 kernel, padded by 1
        xp = np.zeros((2, 8, 6, 38, 66))

        def chunks():
            return [(b0, b1, i0, i1, cols.nbytes, cols.size)
                    for b0, b1, i0, i1, cols in engine._spatial_col_chunks(
                        xp, (3, 3, 3))]

        # one item's spatial columns (7.6 MiB) fit the default budget: each
        # item is one chunk of all 36 output rows
        whole = chunks()
        assert [c[:4] for c in whole] == [(0, 1, 0, 36), (1, 2, 0, 36)]
        assert all(c[4] <= engine._COL_BUDGET_BYTES for c in whole)
        # ci*kh*kw x Tp x Ho*Wo elements: half the 27-tap columns
        # (ci*kt*kh*kw x To x Ho*Wo)
        assert all(2 * c[5] == 8 * 27 * 4 * 36 * 64 for c in whole)
        # at 4 MiB they are over the budget, so they are built in runs of
        # 18 output rows, item after item
        monkeypatch.setattr(engine, "_COL_BUDGET_BYTES", 4 << 20)
        rows = chunks()
        assert [c[:4] for c in rows] == [
            (b, b + 1, i, i + 18) for b in range(2) for i in (0, 18)]
        assert all(c[4] <= 4 << 20 for c in rows)
        assert all(c[5] == 8 * 9 * 6 * 18 * 64 for c in rows)

    @pytest.mark.parametrize("budget", ["default", "4_mib"])
    def test_paper_size_matches_per_tap(self, budget, monkeypatch):
        if budget == "4_mib":
            monkeypatch.setattr(engine, "_COL_BUDGET_BYTES", 4 << 20)
        rng = np.random.default_rng(36)
        x = rng.uniform(-1, 1, (8, 4, 36, 64))
        k = rng.uniform(-1, 1, (8, 8, 3, 3, 3))
        g = rng.uniform(-1, 1, (8, 4, 36, 64))
        ref = conv3d_same_per_tap(x, k, g)
        got = conv3d_with_grads(x, k, g)
        for name, r, a in zip(("y", "grad x", "grad kernel"), ref, got):
            npt.assert_allclose(a, r, rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("batch", [1, 4])
    def test_paper_size_budget_keeps_bytes(self, batch, monkeypatch):
        # whole-item chunks give the same y and input gradient, bit for
        # bit, as the half-height chunks of a 4-MiB budget
        rng = np.random.default_rng(39)
        x = rng.uniform(-1, 1, (batch, 8, 4, 36, 64))
        k = rng.uniform(-1, 1, (8, 8, 3, 3, 3))
        g = rng.uniform(-1, 1, (batch, 8, 4, 36, 64))
        y, gx, _ = conv3d_with_grads(x, k, g)
        monkeypatch.setattr(engine, "_COL_BUDGET_BYTES", 4 << 20)
        y4, gx4, _ = conv3d_with_grads(x, k, g)
        assert y.tobytes() == y4.tobytes()
        assert gx.tobytes() == gx4.tobytes()

    def test_backward_lowers_columns_once(self, monkeypatch):
        # the forward and the input gradient lower columns; the kernel
        # gradient reads the padded input directly
        chunker = engine._spatial_col_chunks
        calls = []

        def spy(xp, *args):
            calls.append(xp.shape)
            return chunker(xp, *args)

        monkeypatch.setattr(engine, "_spatial_col_chunks", spy)
        rng = np.random.default_rng(40)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4, 5, 6)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3, 3)), requires_grad=True)
        y = conv3d(x, k)
        assert calls == [(2, 3, 6, 7, 8)]
        backward((y * y).sum())
        # the input gradient's conv runs over g (4 ch), padded like x
        assert calls == [(2, 3, 6, 7, 8), (2, 4, 6, 7, 8)]

    @pytest.mark.parametrize("items", [1, 3])
    def test_small_volume_single_piece(self, items):
        xp = np.zeros((items, 2, 7, 6, 8))
        chunks = list(engine._spatial_col_chunks(xp, (3, 3, 3)))
        assert len(chunks) == 1 and chunks[0][:4] == (0, items, 0, 4)
        assert chunks[0][4].shape == (items, 2 * 9, 7, 4 * 6)

    def test_runs_of_whole_items(self, monkeypatch):
        # room for the spatial columns of two items per chunk: 2*9 rows x 7
        # padded time steps x (4, 6) outputs
        monkeypatch.setattr(engine, "_COL_BUDGET_BYTES",
                            2 * 18 * 7 * 4 * 6 * 8 + 7)
        chunks = [c[:4] for c in engine._spatial_col_chunks(
            np.zeros((5, 2, 7, 6, 8)), (3, 3, 3))]
        assert chunks == [(0, 2, 0, 4), (2, 4, 0, 4), (4, 5, 0, 4)]

    @pytest.mark.parametrize("budget", ["default", "two_items", "one_byte"])
    def test_batch_matches_items(self, budget, monkeypatch):
        # the batch through one conv3d call against each item on its own
        rng = np.random.default_rng(37)
        x = rng.uniform(-1, 1, (3, 2, 5, 6, 7))
        k = rng.uniform(-1, 1, (3, 2, 3, 1, 3))
        g = rng.uniform(-1, 1, (3, 3, 5, 6, 7))
        if budget != "default":
            # 2*1*3 rows x 7 padded time steps x (6, 7) outputs
            per_item = 6 * 7 * 6 * 7 * 8
            monkeypatch.setattr(engine, "_COL_BUDGET_BYTES",
                                2 * per_item if budget == "two_items" else 1)
        y, gx, gk = conv3d_with_grads(x, k, g)
        gk_sum = np.zeros_like(k)
        for i in range(3):
            yi, gxi, gki = conv3d_with_grads(x[i], k, g[i])
            npt.assert_allclose(y[i], yi, rtol=0, atol=1e-12)
            npt.assert_allclose(gx[i], gxi, rtol=0, atol=1e-12)
            gk_sum += gki
        npt.assert_allclose(gk, gk_sum, rtol=0, atol=1e-12)

    def test_grad_check_odd_kernel_on_batch(self):
        rng = np.random.default_rng(213)
        x = Tensor(rng.uniform(-1, 1, (2, 2, 3, 4, 5)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (2, 2, 3, 1, 5)), requires_grad=True)
        fn = lambda x, k: (conv3d(x, k) ** 2).sum()
        assert grad_check(fn, [x, k], eps=1e-5) < 1e-6

    @pytest.mark.parametrize("budget", ["default", "one_byte"])
    def test_float32_stays_float32(self, budget, monkeypatch):
        if budget == "one_byte":
            monkeypatch.setattr(engine, "_COL_BUDGET_BYTES", 1)
        # the GEMM results themselves, not only the tensors that hold them,
        # must be float32: a float64 accumulator would double the work
        valid = engine._conv3d_valid
        gemm_dtypes = []

        def spy(*args):
            y = valid(*args)
            gemm_dtypes.append(y.dtype)
            return y

        monkeypatch.setattr(engine, "_conv3d_valid", spy)
        rng = np.random.default_rng(32)
        x = Tensor(rng.uniform(-1, 1, (2, 4, 5, 6)), requires_grad=True,
                   dtype=np.float32)
        k = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3, 3)), requires_grad=True,
                   dtype=np.float32)
        y = conv3d(x, k)
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
        p.wk.data[:] = 0.0  # every key identical -> weights 1/(t+1) at row t
        p.wv.data[...] = np.eye(d)
        p.bv.data[:] = 0.0
        p.wo.data[...] = np.eye(d)
        p.bo.data[:] = 0.0
        x = rng.uniform(-1, 1, (T, d))
        y = multi_head_attention(Tensor(x), p).data
        running_mean = x.cumsum(axis=0) / np.arange(1, T + 1)[:, None]
        npt.assert_allclose(y, running_mean, atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        d, T = 4, 3
        p = rand_attention_params(rng, d, 1)
        x = rng.uniform(-1, 1, (T, d))
        # independent straight-line computation
        q = x @ p.wq.data + p.bq.data
        k = x @ p.wk.data
        v = x @ p.wv.data + p.bv.data
        scores = q @ k.T / math.sqrt(d)
        scores[np.triu_indices(T, 1)] = -np.inf         # causal
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
        y0 = multi_head_attention(Tensor(x), p).data
        for t in range(1, T):
            xp = x.copy()
            xp[t] += 1.0
            y1 = multi_head_attention(Tensor(xp), p).data
            npt.assert_array_equal(y0[:t], y1[:t])
            assert not np.array_equal(y0[t:], y1[t:])


class TestStackedMatmul:
    def test_matches_per_slice_matmuls(self):
        rng = np.random.default_rng(30)
        for h, m, k, n in ((1, 1, 1, 1), (2, 3, 4, 5), (4, 1, 8, 88)):
            a = rng.uniform(-1, 1, (h, m, k))
            b = rng.uniform(-1, 1, (h, k, n))
            g = rng.uniform(-1, 1, (h, m, n))
            at = Tensor(a, requires_grad=True)
            bt = Tensor(b, requires_grad=True)
            y = at @ bt
            backward((y * Tensor(g)).sum())
            for i in range(h):
                ai = Tensor(a[i], requires_grad=True)
                bi = Tensor(b[i], requires_grad=True)
                yi = ai @ bi
                backward((yi * Tensor(g[i])).sum())
                for r, got in ((yi.data, y.data[i]), (ai.grad, at.grad[i]),
                               (bi.grad, bt.grad[i])):
                    npt.assert_allclose(got, r, rtol=0, atol=1e-12)

    def test_four_d_stack_matches_3d_stacks(self):
        rng = np.random.default_rng(33)
        a = rng.uniform(-1, 1, (2, 3, 4, 5))
        b = rng.uniform(-1, 1, (2, 3, 5, 6))
        g = rng.uniform(-1, 1, (2, 3, 4, 6))
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        y = at @ bt
        backward((y * Tensor(g)).sum())
        for i in range(2):
            ai, bi = Tensor(a[i], requires_grad=True), Tensor(b[i], requires_grad=True)
            yi = ai @ bi
            backward((yi * Tensor(g[i])).sum())
            for r, got in ((yi.data, y.data[i]), (ai.grad, at.grad[i]),
                           (bi.grad, bt.grad[i])):
                npt.assert_array_equal(got, r)

    def test_shared_left_operand(self):
        # a 2-D weight times each matrix of a stack; its gradient sums them
        rng = np.random.default_rng(34)
        w = rng.uniform(-1, 1, (3, 4))
        x = rng.uniform(-1, 1, (5, 4, 6))
        g = rng.uniform(-1, 1, (5, 3, 6))
        wt, xt = Tensor(w, requires_grad=True), Tensor(x, requires_grad=True)
        y = wt @ xt
        backward((y * Tensor(g)).sum())
        npt.assert_array_equal(y.data, np.stack([w @ xi for xi in x]))
        npt.assert_array_equal(xt.grad, np.stack([w.T @ gi for gi in g]))
        npt.assert_allclose(wt.grad, sum(gi @ xi.T for gi, xi in zip(g, x)),
                            rtol=0, atol=1e-12)
        assert grad_check(lambda w, x: ((w @ x) ** 2).sum(),
                          [Tensor(w, requires_grad=True),
                           Tensor(x, requires_grad=True)]) < 1e-6

    def test_grad_check(self):
        rng = np.random.default_rng(31)
        a = Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (2, 4, 5)), requires_grad=True)
        assert grad_check(lambda a, b: ((a @ b) ** 2).sum(), [a, b]) < 1e-6

    @pytest.mark.parametrize("sa,sb", [
        ((2, 3, 4), (3, 4, 5)),         # stack sizes differ
        ((2, 3, 4), (2, 5, 6)),         # inner dimensions differ
        ((3, 4), (4,)),                 # 1-D right operand
        ((2, 3, 4), (4, 5)),
        ((4,), (4,)),                   # 1-D
        ((1, 2, 3, 4), (2, 2, 4, 5)),   # 4-D stacks differ
    ])
    def test_mismatched_shapes_raise(self, sa, sb):
        with pytest.raises(ShapeError):
            Tensor(np.ones(sa)) @ Tensor(np.ones(sb))


def concat(tensors, axis):
    """Differentiable concatenation: the reference's merge of the heads."""
    datas = [t.data for t in tensors]
    out = Tensor._result(np.concatenate(datas, axis=axis), tuple(tensors), None)
    if out.requires_grad:
        cuts = np.cumsum([d.shape[axis] for d in datas[:-1]])
        out._backward = lambda g: tuple(np.split(g, cuts, axis=axis))
    return out


def multi_head_attention_per_head(x, params):
    """Reference causal attention: one slice, transpose, two matmuls and a
    softmax per head, merged with ``concat``."""
    T, d_model = x.shape
    h = params.heads
    dh = d_model // h
    q = linear(x, params.wq, params.bq)
    k = x @ params.wk
    v = linear(x, params.wv, params.bv)
    mask = Tensor(np.triu(np.full((T, T), -1e30), k=1), dtype=x.data.dtype)
    heads_out = []
    scale = 1.0 / math.sqrt(dh)
    for i in range(h):
        sl = slice(i * dh, (i + 1) * dh)
        qi, ki, vi = q[:, sl], k[:, sl], v[:, sl]
        scores = (qi @ ki.mT) * scale + mask
        att = scores.softmax_lastdim()
        heads_out.append(att @ vi)
    merged = concat(heads_out, axis=1)
    return linear(merged, params.wo, params.bo)


def attention_and_grads(fn, x, p, g):
    """fn's output for x and the gradients of sum(output * g): the input's,
    then each parameter's."""
    xt = Tensor(x, requires_grad=True)
    y = fn(xt, p)
    backward((y * Tensor(g)).sum())
    return [y.data, xt.grad] + [t.grad.copy() for t in vars(p).values()
                                if isinstance(t, Tensor)]


class TestHeadBatchedAttention:
    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    def test_bit_identical_to_per_head_loop(self, heads):
        rng = np.random.default_rng(40 + heads)
        d = 4 * heads
        p = rand_attention_params(rng, d, heads)
        for T in (1, 5, 88):
            x = rng.uniform(-1, 1, (T, d))
            g = rng.uniform(-1, 1, (T, d))
            ref = attention_and_grads(multi_head_attention_per_head, x, p, g)
            got = attention_and_grads(multi_head_attention, x, p, g)
            for r, a in zip(ref, got):
                npt.assert_array_equal(a, r, err_msg=f"T={T}")

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_last_n_queries_are_last_rows(self, heads):
        rng = np.random.default_rng(50 + heads)
        d, T = 4 * heads, 9
        p = rand_attention_params(rng, d, heads)
        x = rng.uniform(-1, 1, (T, d))
        for n in (1, 2, T):
            # the full result's gradient with the first T-n rows unused
            g = rng.uniform(-1, 1, (n, d))
            g_full = np.zeros((T, d))
            g_full[T - n:] = g
            full = attention_and_grads(multi_head_attention, x, p, g_full)
            last = attention_and_grads(
                lambda x, p: multi_head_attention(x, p, last_n=n), x, p, g)
            assert last[0].shape == (n, d)
            npt.assert_allclose(last[0], full[0][T - n:], rtol=0, atol=1e-12)
            for r, a in zip(full[1:], last[1:]):
                npt.assert_allclose(a, r, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [0, -1, 4])
    def test_last_n_out_of_range(self, n):
        p = rand_attention_params(np.random.default_rng(60), 4, 2)
        with pytest.raises(ParameterError, match="last_n"):
            multi_head_attention(Tensor(np.zeros((3, 4))), p, last_n=n)


class TestActivation:
    def test_tanh_zero(self):
        assert Tensor([0.0]).tanh().data[0] == 0.0

    def test_relu(self):
        npt.assert_array_equal(Tensor([-1.0, 2.0]).relu().data, [0.0, 2.0])

    def test_relu_keeps_nan_and_clears_negative_zero(self):
        y = Tensor([np.nan, -0.0, 0.0, -1.0, 2.0]).relu().data
        assert np.isnan(y[0])
        npt.assert_array_equal(y[1:], [0.0, 0.0, 0.0, 2.0])
        assert not np.signbit(y[1:]).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_bits_match_where_without_nan(self, dtype):
        rng = np.random.default_rng(9)
        x = np.concatenate([rng.standard_normal(61), [-0.0, 0.0, 5e-324,
                            -5e-324, np.inf, -np.inf]]).astype(dtype)
        y = Tensor(x, dtype=dtype).relu().data
        assert y.tobytes() == np.where(x > 0, x, 0.0).astype(dtype).tobytes()

    def test_relu_gradient(self):
        x = np.array([-1.5, -0.0, 0.0, 1e-300, 2.0, np.nan])
        g = np.array([0.5, -2.0, 3.0, -4.0, 5.0, 6.0])
        t = Tensor(x, requires_grad=True)
        backward((t.relu() * Tensor(g)).sum())
        npt.assert_array_equal(t.grad, g * (x > 0))

    def test_softmax_symmetry(self):
        y = Tensor([3.3, 3.3, 3.3]).softmax_lastdim().data
        npt.assert_allclose(y, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

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

    def test_leaf_grad_zeroed_in_place(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        g = x.grad
        g[...] = 7.0
        backward((x ** 2).sum())
        assert x.grad is g
        npt.assert_array_equal(g, [2.0, 4.0])

    def test_off_path_leaf_has_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        backward((x * 3.0).sum())
        npt.assert_array_equal(unused.grad, [0.0])

    def test_repeated_index_gradients_sum(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(x[np.array([0, 0, 2])].sum())
        npt.assert_array_equal(x.grad, [2.0, 0.0, 1.0])

    def test_results_keep_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        h = (x * 2.0).tanh()
        y = h * h
        loss = y.sum()
        backward(loss)
        assert h.grad is None and y.grad is None and loss.grad is None
        npt.assert_allclose(x.grad, 4.0 * np.tanh(2.0 * x.data)
                            * (1.0 - np.tanh(2.0 * x.data) ** 2))

    def test_result_gradients_freed_as_the_pass_goes(self):
        # 1 MiB leaf through 20 chained scalings: a zero-filled gradient
        # per result would hold 20 MiB at once
        y = x = Tensor(np.ones(1 << 17), requires_grad=True)
        for _ in range(20):
            y = y * 1.0001
        loss = y.sum()
        tracemalloc.start()
        try:
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        npt.assert_allclose(x.grad, 1.0001 ** 20, rtol=1e-13)

    @pytest.mark.parametrize("returned,match", [
        (lambda g: (np.zeros(3),), r"shape \(3,\) .* shape \(2,\)"),
        (lambda g: (g, g), "2 gradients for 1 parents"),
    ])
    def test_contract_violation_raises(self, returned, match):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor._result(x.data * 2.0, (x,), returned)
        with pytest.raises(ContractError, match=match):
            backward(y.sum())


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

    def test_nan_analytic_gradient_fails(self):
        # a backward that returns NaN is as wrong as it gets
        def broken(x):
            return Tensor._result(x.data * 2.0, (x,),
                                  lambda g: (np.full_like(g, np.nan),)).sum()

        x = Tensor([1.0, 2.0], requires_grad=True)
        assert grad_check(broken, [x]) == math.inf

    def test_nan_numeric_gradient_fails(self):
        # NaN past x = 1, so the central difference at x = 1 is NaN while
        # the analytic gradient there is 1
        def nan_above_one(x):
            return Tensor._result(np.where(x.data > 1.0, np.nan, x.data),
                                  (x,), lambda g: (g,)).sum()

        x = Tensor([1.0], requires_grad=True)
        assert grad_check(nan_above_one, [x]) == math.inf

    @pytest.mark.parametrize("eps", [float("nan"), math.inf, 0.0, -1e-5,
                                     "1e-5", None])
    def test_bad_eps_refused(self, eps):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ParameterError, match="eps"):
            grad_check(lambda x: (x * x).sum(), [x], eps=eps)

    # ops that take a leading batch axis; test_every_op runs them at B = 2
    # as well
    BATCHED = {"linear", "matmul", "conv1d_causal", "causal_residual",
               "conv1d_strided", "conv3d", "conv1x1", "attention_causal",
               "attention_last2", "mean_axis", "expand"}

    @pytest.mark.parametrize("name", [
        "tanh", "softmax", "conv1d_causal", "conv1d_strided", "conv3d",
        "conv1x1", "attention_causal", "attention_last2",
        "clamp", "abs",
        "logsumexp", "mean_axis", "expand", "scalar_scale",
        "linear", "matmul", "causal_residual",
    ])
    def test_every_op(self, name):
        for batch in ((), (2,)) if name in self.BATCHED else ((),):
            rng = np.random.default_rng(zlib.crc32(name.encode()))
            fn, ins = self.op_case(name, rng, batch)
            assert grad_check(fn, ins, eps=1e-5) < 1e-4, f"batch {batch}"

    @staticmethod
    def op_case(name, rng, batch):
        """(closure, inputs) for one op; ``batch`` is () or (B,), the
        leading axis of the op's activation operands."""
        x = Tensor(rng.uniform(-2, 2, batch + (2, 6)), requires_grad=True)
        if name == "tanh":
            fn, ins = lambda x: x.tanh().sum(), [x]
        elif name == "softmax":
            fn, ins = lambda x: (x.softmax_lastdim() ** 2).sum(), [x]
        elif name == "conv1d_causal":
            k = Tensor(rng.uniform(-2, 2, (2, 2, 3)), requires_grad=True)
            fn, ins = lambda x, k: (conv1d_causal(x, k, 2) ** 2).sum(), [x, k]
        elif name == "causal_residual":
            k = Tensor(rng.uniform(-2, 2, (2, 2, 3)), requires_grad=True)
            fn, ins = (lambda x, k:
                       (causal_residual(x, k, 2) ** 2).sum(), [x, k])
        elif name == "conv1d_strided":
            k = Tensor(rng.uniform(-2, 2, (3, 2, 2)), requires_grad=True)
            fn, ins = lambda x, k: (conv1d_strided(x, k, 2) ** 2).sum(), [x, k]
        elif name == "conv3d":
            x = Tensor(rng.uniform(-2, 2, batch + (2, 3, 3, 3)),
                       requires_grad=True)
            k = Tensor(rng.uniform(-2, 2, (2, 2, 3, 1, 3)), requires_grad=True)
            fn, ins = lambda x, k: (conv3d(x, k) ** 2).sum(), [x, k]
        elif name == "conv1x1":
            k = Tensor(rng.uniform(-2, 2, (3, 2)), requires_grad=True)
            fn, ins = (lambda x, k:
                       (conv1x1_channels(x, k, len(batch)) ** 2).sum(), [x, k])
        elif name.startswith("attention"):
            p = rand_attention_params(rng, 4, 2)
            x = Tensor(rng.uniform(-1, 1, batch + (3, 4)), requires_grad=True)
            last_n = 2 if name.endswith("last2") else None
            fn = lambda x, *ts: (multi_head_attention(
                x, p, last_n=last_n) ** 2).sum()
            ins = [x] + [t for n_, t in vars(p).items() if n_ != "heads"]
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
            fn, ins = lambda x: (x.mean_axis(x.data.ndim - 1) ** 2).sum(), [x]
        elif name == "expand":
            x = Tensor(rng.uniform(-2, 2, batch + (4,)), requires_grad=True)
            fn, ins = (lambda x:
                       (engine.expand_axis(x, x.data.ndim, 3) ** 2).sum(), [x])
        elif name == "scalar_scale":
            s = Tensor(np.array(1.3), requires_grad=True)
            fn, ins = (lambda x, s:
                       (engine.scalar_scale(x, s) ** 2).sum(), [x, s])
        elif name == "linear":
            w = Tensor(rng.uniform(-2, 2, (6, 4)), requires_grad=True)
            b = Tensor(rng.uniform(-2, 2, 4), requires_grad=True)
            fn, ins = (lambda x, w, b:
                       (linear(x, w, b) ** 2).sum(), [x, w, b])
        elif name == "matmul":
            y = Tensor(rng.uniform(-2, 2, batch + (6, 3)), requires_grad=True)
            fn, ins = lambda x, y: ((x @ y) ** 2).sum(), [x, y]
        return fn, ins


class TestDeterminism:
    def test_bit_identical_forward(self):
        rng = np.random.default_rng(12)
        p = rand_attention_params(rng, 4, 2)
        x = rng.uniform(-1, 1, (5, 4))
        a = multi_head_attention(Tensor(x), p).data
        b = multi_head_attention(Tensor(x.copy()), p).data
        assert np.array_equal(a, b)


class TestPrecision:
    def test_engine_setting(self):
        assert Tensor([1.0], dtype=np.float32).data.dtype == np.float32
        assert Tensor([1.0]).data.dtype == np.float64

    def test_unknown_precision(self):
        with pytest.raises(ParameterError, match="float16"):
            build_model(tiny_config("wavenet"), precision="float16")
