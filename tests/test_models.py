import struct

import numpy as np
import numpy.testing as npt
import pytest

from foleygen.engine import Tensor, conv1d_causal, grad_check, linear
from foleygen.errors import ContractError, FormatError, ParameterError, RangeError, ShapeError
from foleygen.models import (
    ModelConfig,
    build_model,
    deep_fusion_forward,
    dequantize,
    load_checkpoint,
    quantize,
    save_checkpoint,
    transformer_forward,
    wavenet_forward,
    wavenet_receptive_field,
)
from conftest import tiny_config


class TestQuantize:
    def test_endpoints(self):
        assert quantize(-1.0) == 0
        assert quantize(1.0) == 255

    def test_midpoint_rounds_up(self):
        assert quantize(0.0) == 128

    def test_round_trip_bound(self):
        xs = np.linspace(-1, 1, 501)
        err = np.abs(dequantize(quantize(xs)) - xs)
        assert err.max() <= 1 / 255 + 1e-12

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            quantize(1.5)
        with pytest.raises(RangeError):
            dequantize(300)


class TestDeepFusion:
    def test_output_shape(self):
        cfg = tiny_config("deep_fusion")
        m = build_model(cfg, seed=0)
        rng = np.random.default_rng(0)
        a = Tensor(rng.uniform(-1, 1, (2, cfg.audio_ctx_len)))
        v = Tensor(rng.uniform(0, 1, (3, cfg.video_ctx_len, 4, 4)))
        assert deep_fusion_forward(a, v, m.p).shape == (2, cfg.spf)

    def test_all_zero_contexts_give_zero(self):
        cfg = tiny_config("deep_fusion")
        m = build_model(cfg, seed=1)
        a = Tensor(np.zeros((2, cfg.audio_ctx_len)))
        v = Tensor(np.zeros((3, cfg.video_ctx_len, 4, 4)))
        y = deep_fusion_forward(a, v, m.p)
        npt.assert_array_equal(y.data, np.zeros((2, cfg.spf)))

    def test_zero_gates_equal_audio_only_tower(self):
        cfg = tiny_config("deep_fusion")
        m = build_model(cfg, seed=2)
        for blk in m.p.blocks:
            blk.gate_av.data[...] = 0.0
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (2, cfg.audio_ctx_len))
        v1 = Tensor(rng.uniform(0, 1, (3, cfg.video_ctx_len, 4, 4)))
        v2 = Tensor(rng.uniform(0, 1, (3, cfg.video_ctx_len, 4, 4)))
        y1 = deep_fusion_forward(Tensor(a), v1, m.p).data
        y2 = deep_fusion_forward(Tensor(a), v2, m.p).data
        npt.assert_array_equal(y1, y2)  # video cannot leak in
        # and the result equals running the audio tower alone
        audio = Tensor(a)
        for blk in m.p.blocks:
            audio = (conv1d_causal(audio, blk.audio_kernel, 1) + audio).relu()
        expected = linear(audio, m.p.head_w, m.p.head_b).tanh().data
        npt.assert_array_equal(y1, expected)

    def test_shape_mismatch(self):
        cfg = tiny_config("deep_fusion")
        m = build_model(cfg, seed=0)
        with pytest.raises(ShapeError):
            deep_fusion_forward(Tensor(np.zeros((3, 4))),
                                Tensor(np.zeros((3, 2, 4, 4))), m.p)


class TestWavenet:
    def test_output_in_range(self):
        cfg = tiny_config("wavenet")
        m = build_model(cfg, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(10):
            y = wavenet_forward(
                Tensor(rng.uniform(-1, 1, (2, cfg.audio_ctx_len))),
                Tensor(rng.uniform(-1, 1, (2, cfg.audio_ctx_len))), m.p)
            assert y.shape == (2,)
            assert np.all(np.abs(y.data) <= 1.0)

    def test_zero_inputs_zero_output(self):
        cfg = tiny_config("wavenet")
        m = build_model(cfg, seed=6)
        y = wavenet_forward(Tensor(np.zeros((2, cfg.audio_ctx_len))),
                            Tensor(np.zeros((2, cfg.audio_ctx_len))), m.p)
        npt.assert_array_equal(y.data, [0.0, 0.0])

    def test_receptive_field_closed_form(self):
        cfg = tiny_config("wavenet")
        # entry (K-1)*1 plus one round over dilations (1, 2), K=2
        assert wavenet_receptive_field(cfg) == 1 + 1 + (1 + 2)

    def test_perturbation_outside_receptive_field(self):
        cfg = tiny_config("wavenet")
        m = build_model(cfg, seed=7)
        rf = wavenet_receptive_field(cfg)
        A = cfg.audio_ctx_len
        assert A > rf
        rng = np.random.default_rng(8)
        base = rng.uniform(-0.5, 0.5, (2, A))
        embed = Tensor(rng.uniform(-0.5, 0.5, (2, A)))
        y0 = wavenet_forward(Tensor(base), embed, m.p).data
        old = base.copy()
        for t in range(A - rf):
            pert = base.copy()
            pert[:, t] += 0.3
            y1 = wavenet_forward(Tensor(pert), embed, m.p).data
            npt.assert_array_equal(y0, y1)
        pert = base.copy()
        pert[:, A - 1] += 0.3
        assert not np.array_equal(
            y0, wavenet_forward(Tensor(pert), embed, m.p).data)

    def test_length_mismatch(self):
        cfg = tiny_config("wavenet")
        m = build_model(cfg, seed=0)
        with pytest.raises(ShapeError):
            wavenet_forward(Tensor(np.zeros((2, 8))),
                            Tensor(np.zeros((2, 9))), m.p)


class TestTransformer:
    def test_continuous_output_in_range(self):
        cfg = tiny_config("transformer")
        m = build_model(cfg, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(10):
            y = transformer_forward(
                Tensor(rng.uniform(-1, 1, (2, cfg.audio_ctx_len))),
                Tensor(rng.uniform(-1, 1, (2, cfg.audio_ctx_len))),
                m.p, cfg.ctx_mode)
            assert y.shape == (2,)
            assert np.all(np.abs(y.data) <= 1.0)

    def test_quantized_softmax_sums_to_one(self):
        cfg = tiny_config("transformer", quantized=True, ctx_mode="raw_short",
                          audio_ctx_len=8)
        m = build_model(cfg, seed=11)
        rng = np.random.default_rng(12)
        logits = transformer_forward(
            Tensor(rng.uniform(-1, 1, (2, 8))),
            Tensor(rng.uniform(-1, 1, (2, 8))), m.p, "raw_short",
            quantized=True)
        assert logits.shape == (2, 256)
        probs = logits.softmax_lastdim().data
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_final_sample_matters(self):
        cfg = tiny_config("transformer", ctx_mode="raw_short", audio_ctx_len=4)
        m = build_model(cfg, seed=13)
        rng = np.random.default_rng(14)
        a = rng.uniform(-1, 1, (2, 4))
        e = Tensor(rng.uniform(-1, 1, (2, 4)))
        y0 = transformer_forward(Tensor(a), e, m.p, "raw_short").data
        a2 = a.copy()
        a2[:, -1] = 0.0
        y1 = transformer_forward(Tensor(a2), e, m.p, "raw_short").data
        assert not np.array_equal(y0, y1)

    def test_early_samples_enter_only_through_attention(self):
        # with the attention output projections zeroed, the last token's path
        # is purely per-token, so earlier samples cannot reach the output
        cfg = tiny_config("transformer", ctx_mode="raw_short", audio_ctx_len=4)
        m = build_model(cfg, seed=15)
        for blk in m.p.blocks:
            blk.attn.wo.data[:] = 0.0
            blk.attn.bo.data[:] = 0.0
        rng = np.random.default_rng(16)
        a = rng.uniform(-1, 1, (2, 4))
        e = Tensor(rng.uniform(-1, 1, (2, 4)))
        y0 = transformer_forward(Tensor(a), e, m.p, "raw_short").data
        a2 = a.copy()
        a2[:, 0] = 0.0
        y1 = transformer_forward(Tensor(a2), e, m.p, "raw_short").data
        npt.assert_array_equal(y0, y1)

    def test_positional_table_overflow(self):
        cfg = tiny_config("transformer", ctx_mode="raw_short",
                          audio_ctx_len=64, pos_table_len=8)
        m = build_model(cfg, seed=17)
        with pytest.raises(ParameterError):
            transformer_forward(Tensor(np.zeros((2, 64))),
                                Tensor(np.zeros((2, 64))), m.p, "raw_short")

    def test_strided_token_count(self):
        cfg = tiny_config("transformer", audio_ctx_len=16)
        m = build_model(cfg, seed=18)
        # schedule (2, 2) with K=2: 16 -> 8 -> 4 tokens; just check it runs
        y = transformer_forward(Tensor(np.zeros((2, 16))),
                                Tensor(np.zeros((2, 16))), m.p, "strided_embed")
        assert y.shape == (2,)


class TestParamCount:
    def test_wavenet_hand_count(self):
        cfg = tiny_config("wavenet")
        m = build_model(cfg, seed=0)
        embed = (2 * 3                      # entry lift
                 + 2 * (2 * 2 * 27)        # res block convs
                 + 16 * 16 + 16 + 2 * 2)   # projection w, b, mix
        core = (3 * 2 * 2                  # entry conv
                + 2 * (3 * 3 * 2)          # dilated blocks
                + 2 * 3 + 2)               # head
        assert m.param_count() == embed + core

    def test_deterministic(self):
        cfg = tiny_config("transformer")
        assert (build_model(cfg, seed=0).param_count()
                == build_model(cfg, seed=99).param_count())

    @pytest.mark.parametrize("kind", ["deep_fusion", "wavenet", "transformer"])
    def test_tiny_configs_stay_small(self, kind):
        assert build_model(tiny_config(kind), seed=0).param_count() < 5000


class TestFullModelGradients:
    @pytest.mark.parametrize("kind", ["deep_fusion", "wavenet", "transformer"])
    def test_grad_check(self, kind):
        cfg = tiny_config(kind, audio_ctx_len=8, spf=2, video_ctx_len=1)
        m = build_model(cfg, seed=20)
        rng = np.random.default_rng(21)
        audio = Tensor(rng.uniform(-0.8, 0.8, (2, 8)))
        video = Tensor(rng.uniform(0.1, 0.9, (3, 1, 4, 4)))

        if kind == "deep_fusion":
            fn = lambda *ts: (deep_fusion_forward(audio, video, m.p) ** 2).sum()
        else:
            def fn(*ts):
                from foleygen.crossmodal import embed_video_context
                e = embed_video_context(video, m.embedder)
                return (m.forward_core(audio, e) ** 2).sum()
        params = list(m.params.values())
        assert grad_check(fn, params, eps=1e-5) < 1e-3


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["deep_fusion", "wavenet", "transformer"])
    def test_round_trip_forward_equality(self, kind, tmp_path):
        cfg = tiny_config(kind)
        m = build_model(cfg, seed=22)
        p = tmp_path / "ckpt.bin"
        save_checkpoint(m, p)
        m2 = load_checkpoint(p)
        assert m2.config == cfg
        # float32 truncation applies to both sides after one save/load cycle
        save_checkpoint(m2, p)
        m3 = load_checkpoint(p)
        for name, t in m2.params.items():
            npt.assert_array_equal(t.data, m3.params[name].data)

    def test_truncated_file_rejected(self, tmp_path):
        m = build_model(tiny_config("wavenet"), seed=3)
        p = tmp_path / "ckpt.bin"
        save_checkpoint(m, p)
        raw = p.read_bytes()
        clen = struct.unpack_from("<I", raw, 8)[0]
        # inside the header, the config, the tensor count, the first
        # tensor's name and shape, its data, and the very last byte
        cuts = [0, 6, 10, 12, 12 + clen // 2, 12 + clen + 2, 12 + clen + 5,
                12 + clen + 12, len(raw) // 2, len(raw) - 1]
        for cut in cuts:
            p.write_bytes(raw[:cut])
            with pytest.raises(FormatError):
                load_checkpoint(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        m = build_model(tiny_config("wavenet"), seed=3)
        p = tmp_path / "ckpt.bin"
        save_checkpoint(m, p)
        p.write_bytes(p.read_bytes() + b"\x00" * 4)
        with pytest.raises(FormatError):
            load_checkpoint(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"XXXXXXXXXXXXXXXX")
        with pytest.raises(FormatError):
            load_checkpoint(p)
