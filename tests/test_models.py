import json
import struct

import numpy as np
import numpy.testing as npt
import pytest

from foleygen import avio, models, training
from foleygen.engine import (
    Tensor,
    backward,
    conv1d_causal,
    conv1d_strided,
    grad_check,
    linear,
    multi_head_attention,
)
from foleygen.errors import (
    ContractError,
    FormatError,
    ParameterError,
    RangeError,
    ShapeError,
    UnsupportedError,
)
from foleygen.models import (
    MODEL_KINDS,
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
from foleygen.generation import generate
from foleygen.training import TrainConfig, evaluate, loss, train
from conftest import (
    BAD_MODEL_SIZES,
    bad_size_id,
    fail_on_nth_write,
    fill_head,
    make_dataset,
    rewrite_config,
    rewrite_table,
    save_with_both_front_ends,
    tiny_config,
)


class TestConfigJson:
    @pytest.mark.parametrize("text,error", [
        ('{"spf": 4', FormatError),
        ("[1, 2]", FormatError),
        ('{"spff": 4}', ParameterError),
        ('{"audio_ctx_len": 0}', ParameterError),
        ('{"video_ctx_len": 0}', ParameterError),
        ('{"spf": "3"}', ParameterError),
        ('{"spf": true}', ParameterError),
        ('{"spf": 3.0}', ParameterError),
        ('{"kind": 1}', ParameterError),
        ('{"quantized": 1}', ParameterError),
        ('{"wn_dilations": 4}', ParameterError),
        ('{"wn_dilations": [1, 2.0]}', ParameterError),
        ('{"wn_dilations": [1, true]}', ParameterError),
        ('{"strided_schedule": "22"}', ParameterError),
    ])
    def test_typed_errors(self, text, error):
        with pytest.raises(error):
            ModelConfig.from_json(text)

    @pytest.mark.parametrize("fields", [
        {"heads": 0}, {"heads": -2}, {"d_model": 0}, {"d_model": -4},
        {"d_model": 6, "heads": 4},
    ])
    def test_attention_shape_refused(self, fields):
        # the message names a refused field
        named = "|".join(fields)
        with pytest.raises(ParameterError, match=named):
            ModelConfig(**fields)
        with pytest.raises(ParameterError, match=named):
            ModelConfig.from_json(json.dumps(fields))

    @pytest.mark.parametrize("heads", [0, -2, 3])
    def test_attention_shape_in_checkpoint_is_format_error(self, tmp_path,
                                                           heads):
        path = tmp_path / "m.bin"
        save_checkpoint(build_model(tiny_config("transformer"), seed=0), path)
        rewrite_config(path, {"heads": heads})
        with pytest.raises(FormatError, match="heads"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fields", BAD_MODEL_SIZES, ids=bad_size_id)
    def test_size_that_would_crash_the_builder_refused(self, tmp_path,
                                                       fields):
        with pytest.raises(ParameterError):
            ModelConfig(**fields)
        with pytest.raises(ParameterError):
            ModelConfig.from_json(json.dumps(fields))
        path = tmp_path / "m.bin"
        save_checkpoint(build_model(tiny_config("wavenet"), seed=0), path)
        rewrite_config(path, fields)
        with pytest.raises(FormatError, match="unreadable model config"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fields", [
        {"strided_schedule": [3, 2]}, {"strided_schedule": [2, 1]},
        {"kind": "wavenet", "quantized": True},
        {"kind": "deep_fusion", "quantized": True},
    ], ids=["schedule-3", "schedule-1", "quantized-wavenet",
            "quantized-deep_fusion"])
    def test_value_that_would_be_ignored_refused(self, fields):
        # the strided kernels are always size 2, stride 2; only the
        # transformer has a 256-bin head
        with pytest.raises(ParameterError):
            ModelConfig.from_json(json.dumps(fields))

    @pytest.mark.parametrize("fields", [
        {"spf": 2.5}, {"kind": "wavenet", "wn_dilations": (1, 2.5)},
        {"kind": "wavenet", "audio_ctx_len": True}, {"frame_h": 36.0},
        {"quantized": 1},
    ], ids=["spf", "wn_dilations", "audio_ctx_len", "frame_h", "quantized"])
    def test_wrong_typed_field_refused_on_construction(self, fields):
        with pytest.raises(ParameterError, match="ModelConfig"):
            ModelConfig(**fields)

    def test_json_overrides_defaults(self):
        cfg = ModelConfig.from_json('{"spf": 7}', spf=3, frame_h=5)
        assert (cfg.spf, cfg.frame_h) == (7, 5)

    @pytest.mark.parametrize("text", [
        '{"steps": "3"}',
        '{"steps": false}',
        '{"seed": 1.5}',
        '{"learning_rate": "0.1"}',
        '{"clip_norm": true}',
        '{"loss_kind": 3}',
        '{"clip_norm": 0}',
        '{"clip_norm": -1.0}',
        '{"clip_norm": NaN}',
        '{"clip_norm": Infinity}',
        '{"clip_norm": -Infinity}',
        '{"learning_rate": NaN}',
        '{"learning_rate": Infinity}',
        '{"learning_rate": -Infinity}',
    ])
    def test_wrong_typed_train_value(self, text):
        with pytest.raises(ParameterError, match="TrainConfig"):
            TrainConfig.from_json(text)

    def test_typed_values_accepted(self):
        cfg = ModelConfig.from_json(
            '{"spf": 3, "quantized": true, "wn_dilations": [1, 4]}')
        assert (cfg.spf, cfg.quantized, cfg.wn_dilations) == (3, True, (1, 4))
        tc = TrainConfig.from_json(
            '{"learning_rate": 1, "clip_norm": null, "steps": 2}')
        assert (tc.learning_rate, tc.clip_norm, tc.steps) == (1, None, 2)

    def test_wrong_typed_value_in_checkpoint_is_format_error(self, tmp_path):
        path = tmp_path / "m.bin"
        save_checkpoint(build_model(tiny_config("wavenet"), seed=0), path)
        rewrite_config(path, {"spf": "4"})
        with pytest.raises(FormatError, match="spf"):
            load_checkpoint(path)

    def test_missing_checkpoint_is_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="nope.bin"):
            load_checkpoint(tmp_path / "nope.bin")


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, value):
        # NaN fails every comparison, so a range check must be phrased to
        # fail on it
        for fn in (quantize, dequantize):
            with pytest.raises(RangeError):
                fn(value)
            with pytest.raises(RangeError):
                fn(np.array([0.0, value]))


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
        fill_head(m, 9)
        rng = np.random.default_rng(10)
        for _ in range(10):
            y = transformer_forward(
                Tensor(rng.uniform(-1, 1, (2, cfg.audio_ctx_len))),
                Tensor(rng.uniform(-1, 1, (2, cfg.audio_ctx_len))),
                m.p)
            assert y.shape == (2,)
            assert np.all(np.abs(y.data) <= 1.0)

    def test_quantized_softmax_sums_to_one(self):
        cfg = tiny_config("transformer", quantized=True, ctx_mode="raw_short",
                          audio_ctx_len=8)
        m = build_model(cfg, seed=11)
        fill_head(m, 11)
        rng = np.random.default_rng(12)
        logits = transformer_forward(
            Tensor(rng.uniform(-1, 1, (2, 8))),
            Tensor(rng.uniform(-1, 1, (2, 8))), m.p)
        assert logits.shape == (2, 256)
        probs = logits.softmax_lastdim().data
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_final_sample_matters(self):
        cfg = tiny_config("transformer", ctx_mode="raw_short", audio_ctx_len=4)
        m = build_model(cfg, seed=13)
        fill_head(m, 13)
        rng = np.random.default_rng(14)
        a = rng.uniform(-1, 1, (2, 4))
        e = Tensor(rng.uniform(-1, 1, (2, 4)))
        y0 = transformer_forward(Tensor(a), e, m.p).data
        a2 = a.copy()
        a2[:, -1] = 0.0
        y1 = transformer_forward(Tensor(a2), e, m.p).data
        assert not np.array_equal(y0, y1)

    def test_early_samples_enter_only_through_attention(self):
        # with the attention output projections zeroed, the last token's path
        # is purely per-token, so earlier samples cannot reach the output
        cfg = tiny_config("transformer", ctx_mode="raw_short", audio_ctx_len=4)
        m = build_model(cfg, seed=15)
        fill_head(m, 15)
        for blk in m.p.blocks:
            blk.attn.wo.data[:] = 0.0
            blk.attn.bo.data[:] = 0.0
        rng = np.random.default_rng(16)
        a = rng.uniform(-1, 1, (2, 4))
        e = Tensor(rng.uniform(-1, 1, (2, 4)))
        y0 = transformer_forward(Tensor(a), e, m.p).data
        a2 = a.copy()
        a2[:, 0] = 0.0
        y1 = transformer_forward(Tensor(a2), e, m.p).data
        npt.assert_array_equal(y0, y1)

    def test_positional_table_overflow(self):
        with pytest.raises(ParameterError, match="pos_table_len"):
            tiny_config("transformer", ctx_mode="raw_short",
                        audio_ctx_len=64, pos_table_len=8)

    def test_strided_token_count(self):
        cfg = tiny_config("transformer", audio_ctx_len=16)
        m = build_model(cfg, seed=18)
        # schedule (2, 2) with K=2: 16 -> 8 -> 4 tokens; just check it runs
        y = transformer_forward(Tensor(np.zeros((2, 16))),
                                Tensor(np.zeros((2, 16))), m.p)
        assert y.shape == (2,)


def transformer_forward_full(audio_ctx, video_embed, params):
    """Reference transformer: every block runs over every token, and the
    last token is read after the final block."""
    x = audio_ctx + video_embed
    if params.lift_w is None:
        h = x
        for kernel in params.strided:
            h = conv1d_strided(h, kernel, 2).relu()
        tokens = h.mT
    else:
        tokens = linear(x.mT, params.lift_w, params.lift_b)
    t_tok = tokens.shape[0]
    tokens = tokens + params.pos
    for blk in params.blocks:
        tokens = tokens + multi_head_attention(tokens, blk.attn)
        ff = linear(linear(tokens, blk.ff_w1, blk.ff_b1).relu(),
                    blk.ff_w2, blk.ff_b2)
        tokens = tokens + ff
    dec = linear(tokens[t_tok - 1: t_tok], params.dec_w, params.dec_b)
    if params.dec_w.shape[1] == 512:
        return dec.reshape(2, 256)
    return dec.reshape(2).tanh()


class TestTransformerLastQuery:
    """The final block computes only the emitted token: same function as
    running every block over every token."""

    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("tf_blocks", [0, 1, 2, 3])
    @pytest.mark.parametrize("ctx_mode", ["raw_short", "strided_embed"])
    def test_matches_full_sequence(self, ctx_mode, tf_blocks, quantized):
        cfg = tiny_config("transformer", ctx_mode=ctx_mode,
                          tf_blocks=tf_blocks, quantized=quantized)
        m = build_model(cfg, seed=70 + tf_blocks)
        fill_head(m, 70 + tf_blocks)
        tensors = list(m.params.values())
        rng = np.random.default_rng(71)
        audio = Tensor(rng.uniform(-1, 1, (2, cfg.audio_ctx_len)))
        embed = Tensor(rng.uniform(-1, 1, (2, cfg.audio_ctx_len)))
        g = Tensor(rng.uniform(-1, 1, (2, 256) if quantized else (2,)))
        results = []
        for fn in (transformer_forward_full, transformer_forward):
            y = fn(audio, embed, m.p)
            backward((y * g).sum())
            results.append([y.data] + [t.grad.copy() for t in tensors])
        ref, got = (dict(zip(["output"] + tensors, r)) for r in results)
        for i, t in enumerate(ref):
            scale = np.abs(ref[t]).max()
            err = np.abs(got[t] - ref[t]).max()
            assert err <= 1e-12 * scale, f"tensor {i}: {err} vs {scale}"


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

    def test_negative_seed_refused(self):
        with pytest.raises(ParameterError, match="seed"):
            build_model(tiny_config("wavenet"), seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True, "1", None])
    def test_non_int_seed_refused(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            build_model(tiny_config("wavenet"), seed=seed)

    def test_numpy_int_seed_accepted(self):
        a = build_model(tiny_config("wavenet"), seed=np.int64(4))
        b = build_model(tiny_config("wavenet"), seed=4)
        npt.assert_array_equal(a.flat, b.flat)


def reachable_tensors(obj) -> list:
    """Every Tensor reachable from obj through attributes, lists and tuples."""
    found, stack = [], [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, Tensor):
            found.append(o)
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif hasattr(o, "__dict__"):
            stack.extend(vars(o).values())
    return found


class TestParameterTree:
    @pytest.mark.parametrize("kind,overrides", [
        ("deep_fusion", {}), ("wavenet", {}), ("transformer", {}),
        ("transformer", {"quantized": True}),
    ], ids=["deep_fusion", "wavenet", "transformer", "quantized"])
    def test_params_hold_every_tensor_of_the_tree(self, kind, overrides):
        m = build_model(tiny_config(kind, **overrides), seed=0)
        tree = reachable_tensors(m.p)
        assert len({id(t) for t in tree}) == len(tree)
        assert ({id(t) for t in m.params.values()}
                == {id(t) for t in tree})
        assert len(m.params) == len(tree)

    @pytest.mark.parametrize("kind,names", [
        ("deep_fusion", ["entry", "blocks.1.video_block.conv2",
                         "blocks.0.v2a.mix", "blocks.0.gate_av", "head_w"]),
        ("wavenet", ["embedder.entry", "embedder.blocks.0.conv1",
                     "embedder.proj.w", "blocks.0.0", "blocks.1.0",
                     "head_mix"]),
        ("transformer", ["embedder.blocks.0.conv1", "strided.1", "pos",
                         "blocks.0.attn.wq", "blocks.0.ff_b2", "dec_w",
                         "dec_b"]),
    ])
    def test_names_are_attribute_paths(self, kind, names):
        m = build_model(tiny_config(kind), seed=0)
        assert set(names) <= set(m.params)
        for name in names:
            t = m.p
            for key in name.split("."):
                t = t[int(key)] if key.isdigit() else getattr(t, key)
            assert m.params[name] is t

    def test_transformer_head_starts_at_zero(self):
        m = build_model(tiny_config("transformer"), seed=0)
        assert not m.p.dec_w.data.any() and not m.p.dec_b.data.any()

    def test_train_step_updates_transformer_head(self):
        ds = make_dataset(frames=8, spf=4)
        m = build_model(tiny_config("transformer"), seed=1)
        head = {k: m.params[k].data.copy() for k in ("dec_w", "dec_b")}
        train(m, ds, TrainConfig(steps=1, loss_kind="mse"))
        for k, before in head.items():
            assert not np.array_equal(m.params[k].data, before), k


# every kind, and the transformer in each token front-end and head
KIND_VARIANTS = [
    ("deep_fusion", {}),
    ("wavenet", {}),
    ("transformer", {"ctx_mode": "strided_embed"}),
    ("transformer", {"ctx_mode": "raw_short"}),
    ("transformer", {"quantized": True, "tf_blocks": 2}),
]
KIND_VARIANT_IDS = ["deep_fusion", "wavenet", "strided_embed", "raw_short",
                    "quantized"]


def dead_elements(monkeypatch, cfg) -> dict:
    """{name: count} of the parameter elements that one backward from a
    random cotangent leaves at exactly zero gradient.

    ReLU and tanh are the identity here, so that no unit is dead or
    saturated on the data (the wavenet's fused residual layer, which applies
    its ReLU inside the op, becomes ``h + conv1d_causal(h)``), and the
    transformer's zero head is filled, so that gradient flows through it:
    what stays at zero is an element that the output cannot depend on.
    """
    monkeypatch.setattr(Tensor, "relu", lambda self: self)
    monkeypatch.setattr(Tensor, "tanh", lambda self: self)
    monkeypatch.setattr(models, "causal_residual",
                        lambda h, k, d: h + conv1d_causal(h, k, d))
    m = build_model(cfg, seed=0)
    if cfg.kind == "transformer":
        fill_head(m, 0)
    rng = np.random.default_rng(1)
    audio = Tensor(rng.uniform(-1, 1, (2, cfg.audio_ctx_len)))
    video = rng.uniform(0, 1, (cfg.video_ctx_len, 3, cfg.frame_h,
                               cfg.frame_w))
    y = m.forward_core(audio, m.embed(video))
    backward((y * Tensor(rng.standard_normal(y.shape))).sum())
    zeros = {name: int((t.grad == 0).sum()) for name, t in m.params.items()}
    return {name: n for name, n in zeros.items() if n}


class TestEveryParameterReachesTheOutput:
    @pytest.mark.parametrize("kind,overrides", [
        ("deep_fusion", {}),
        # at A = 16 the dilation-16 layer's second tap reads only padding
        ("wavenet", {"wn_dilations": (1, 2, 4, 8, 16)}),
        ("transformer", {"ctx_mode": "strided_embed"}),
        ("transformer", {"ctx_mode": "raw_short"}),
        ("transformer", {"quantized": True, "tf_blocks": 2}),
    ], ids=["deep_fusion", "wavenet", "strided_embed", "raw_short",
            "quantized"])
    def test_forward_core_reads_every_param(self, monkeypatch, kind,
                                            overrides):
        assert dead_elements(monkeypatch, tiny_config(kind, **overrides)) == {}

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_default_model_reads_every_param(self, monkeypatch, kind):
        cfg = ModelConfig(kind=kind)
        assert (cfg.frame_h, cfg.frame_w) == (36, 64)
        assert dead_elements(monkeypatch, cfg) == {}


class TestFullModelGradients:
    @pytest.mark.parametrize("kind", ["deep_fusion", "wavenet", "transformer"])
    def test_grad_check(self, kind):
        cfg = tiny_config(kind, audio_ctx_len=8, spf=2, video_ctx_len=1)
        m = build_model(cfg, seed=20)
        if kind == "transformer":
            fill_head(m, 20)
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
        # float32 parameters survive the float32 file exactly
        m = build_model(cfg, seed=22, precision="float32")
        if kind == "transformer":
            fill_head(m, 22)    # a zero head would match a rebuilt one
        p = tmp_path / "ckpt.bin"
        save_checkpoint(m, p)
        m2 = load_checkpoint(p, precision="float32")
        assert m2.config == cfg
        assert m2.params.keys() == m.params.keys()
        for name, t in m.params.items():
            npt.assert_array_equal(m2.params[name].data, t.data)
        rng = np.random.default_rng(23)
        audio = Tensor(rng.uniform(-1, 1, (2, cfg.audio_ctx_len)),
                       dtype=np.float32)
        video = rng.uniform(0, 1, (cfg.video_ctx_len, 3, cfg.frame_h,
                                   cfg.frame_w))
        y, y2 = (mm.forward_core(audio, mm.embed(video)).data
                 for mm in (m, m2))
        npt.assert_array_equal(y, y2)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_round_trip_is_the_float32_cast(self, tmp_path, kind, precision):
        m = build_model(tiny_config(kind), seed=22, precision=precision)
        m.flat[...] = np.random.default_rng(22).standard_normal(m.flat.size)
        p = tmp_path / "ckpt.bin"
        save_checkpoint(m, p)
        # the payload is model.flat itself, as float32, after the table
        assert p.read_bytes().endswith(m.flat.astype("<f4").tobytes())
        m2 = load_checkpoint(p, precision=precision)
        assert m2.flat.dtype == m.flat.dtype
        npt.assert_array_equal(m2.flat, m.flat.astype("<f4"))

    @pytest.mark.parametrize("edit", [
        # the file names conv1 twice and leaves conv2 out
        lambda t: [[n.replace("conv2", "conv1"), s] for n, s in t],
        # conv1 and conv2 have one shape: only the names differ
        lambda t: [t[0], t[2], t[1], *t[3:]],
        lambda t: t[:-1],
        lambda t: t + [["extra", [1]]],
    ], ids=["duplicate", "swapped", "missing", "extra"])
    def test_refuses_other_tensor_table(self, tmp_path, edit):
        m = build_model(tiny_config("wavenet"), seed=3)
        assert list(m.params)[1:3] == ["embedder.blocks.0.conv1",
                                       "embedder.blocks.0.conv2"]
        p = tmp_path / "ckpt.bin"
        save_checkpoint(m, p)
        rewrite_table(p, lambda table, payload: (edit(table), payload))
        with pytest.raises(FormatError, match="tensor table row"):
            load_checkpoint(p)

    @pytest.mark.parametrize("text", [b"\xff\xfe[", b"[[", b""])
    def test_refuses_unreadable_tensor_table(self, tmp_path, text):
        p = tmp_path / "ckpt.bin"
        save_checkpoint(build_model(tiny_config("wavenet"), seed=3), p)
        raw = p.read_bytes()
        head = 12 + struct.unpack_from("<I", raw, 8)[0]
        tlen = struct.unpack_from("<I", raw, head)[0]
        p.write_bytes(raw[:head] + struct.pack("<I", len(text)) + text
                      + raw[head + 4 + tlen:])
        with pytest.raises(FormatError, match="unreadable tensor table"):
            load_checkpoint(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_tensor(self, tmp_path, value):
        m = build_model(tiny_config("wavenet"), seed=0)
        m.params["head_b"].data[1] = value
        p = tmp_path / "ckpt.bin"
        save_checkpoint(m, p)
        with pytest.raises(FormatError, match="'head_b'"):
            load_checkpoint(p)

    def test_refuses_signalling_nan(self, tmp_path):
        m = build_model(tiny_config("wavenet"), seed=0)
        p = tmp_path / "ckpt.bin"
        save_checkpoint(m, p)
        raw = bytearray(p.read_bytes())
        # float32 0x7f810000 in the last tensor's last element
        raw[-4:] = b"\x00\x00\x81\x7f"
        p.write_bytes(bytes(raw))
        last = list(m.params)[-1]
        with pytest.raises(FormatError, match=f"'{last}' holds NaN or inf"):
            load_checkpoint(p)

    def test_trained_transformer_evaluates_the_same_after_reload(self,
                                                                 tmp_path):
        ds = make_dataset(frames=8, spf=4)
        m = build_model(tiny_config("transformer"), seed=3)
        train(m, ds, TrainConfig(steps=20, loss_kind="mse", seed=0))
        p = tmp_path / "ckpt.bin"
        save_checkpoint(m, p)
        before = evaluate(m, ds, "mse")
        after = evaluate(load_checkpoint(p), ds, "mse")
        # the file holds float32: the two differ by its rounding alone
        assert after == pytest.approx(before, rel=1e-5)

    def test_version_1_refused(self, tmp_path):
        p = tmp_path / "ckpt.bin"
        save_checkpoint(build_model(tiny_config("wavenet"), seed=3), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        with pytest.raises(UnsupportedError, match="version 1"):
            load_checkpoint(p)

    def test_version_2_refused(self, tmp_path):
        # version 2 stored elements that no output reads, e.g. a pos row
        # per pos_table_len entry and the last fusion block's a2v; version
        # 3 stored one record per tensor, sorted by name
        p = tmp_path / "ckpt.bin"
        save_checkpoint(build_model(tiny_config("deep_fusion"), seed=3), p)
        raw = p.read_bytes()
        for version in (2, 3):
            p.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
            with pytest.raises(UnsupportedError, match=f"version {version}"):
                load_checkpoint(p)

    @pytest.mark.parametrize("ctx_mode", ["strided_embed", "raw_short"])
    def test_file_with_unread_front_end_refused(self, tmp_path, ctx_mode):
        p = tmp_path / "ckpt.bin"
        save_with_both_front_ends(
            tiny_config("transformer", ctx_mode=ctx_mode), p)
        with pytest.raises(FormatError, match="tensor table row"):
            load_checkpoint(p)

    def test_truncated_file_rejected(self, tmp_path):
        m = build_model(tiny_config("wavenet"), seed=3)
        p = tmp_path / "ckpt.bin"
        save_checkpoint(m, p)
        raw = p.read_bytes()
        clen = struct.unpack_from("<I", raw, 8)[0]
        # inside the header, the config, the table length, the table,
        # the payload, and the very last byte
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

    @pytest.mark.parametrize("kind,overrides", KIND_VARIANTS,
                             ids=KIND_VARIANT_IDS)
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch, kind,
                                          overrides):
        cfg = tiny_config(kind, **overrides)
        m = build_model(cfg, seed=24)
        m.flat[...] = np.random.default_rng(24).standard_normal(m.flat.size)
        p = tmp_path / "ckpt.bin"
        save_checkpoint(m, p)

        class NoDraws(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                raise AssertionError("a normal was drawn")

        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: NoDraws(np.random.PCG64(0)))
        with pytest.raises(AssertionError, match="drawn"):
            build_model(cfg)
        loaded = load_checkpoint(p)
        assert loaded.flat.tobytes() == m.flat.astype("<f4").astype(
            np.float64).tobytes()

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        p = tmp_path / "ckpt.bin"
        save_checkpoint(build_model(tiny_config("wavenet"), seed=3), p)
        before = p.read_bytes()
        fail_on_nth_write(monkeypatch, avio, 3)    # the payload
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(build_model(tiny_config("wavenet"), seed=4), p)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["ckpt.bin"]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"XXXXXXXXXXXXXXXX")
        with pytest.raises(FormatError):
            load_checkpoint(p)


@pytest.fixture
def result_dtypes(monkeypatch):
    """The dtype of every op result, in order, from ``Tensor._result``."""
    real = Tensor._result
    seen = []

    def spy(data, parents, backward_fn):
        out = real(data, parents, backward_fn)
        seen.append(out.data.dtype)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(spy))
    return seen


class TestModelPrecision:
    @pytest.mark.parametrize("kind,overrides,loss_kind", [
        ("deep_fusion", {}, "xent_bernoulli"),
        ("wavenet", {}, "mse"),
        ("transformer", {"ctx_mode": "strided_embed"}, "xent_paper_literal"),
        ("transformer", {"ctx_mode": "raw_short"}, "mae"),
        ("transformer", {"quantized": True}, "xent_categorical"),
    ], ids=["deep_fusion", "wavenet", "strided_embed", "raw_short",
            "quantized"])
    def test_float32_graph_stays_float32(self, result_dtypes, kind,
                                         overrides, loss_kind):
        model = build_model(tiny_config(kind, **overrides), seed=6,
                            precision="float32")
        ds = make_dataset(frames=8, spf=4)
        train(model, ds, TrainConfig(steps=1, loss_kind=loss_kind))
        evaluate(model, ds, loss_kind, max_windows=2)
        generate(model, ds.av.video, total_frames=2)
        assert result_dtypes and set(result_dtypes) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("kind", ["deep_fusion", "wavenet", "transformer"])
    def test_precision_is_per_model(self, result_dtypes, kind):
        cfg = tiny_config(kind)
        video = make_dataset(frames=3, spf=4).av.video

        def built(**kwargs):
            m = build_model(cfg, seed=7, **kwargs)
            if kind == "transformer":
                fill_head(m, 7)
            return m

        alone = generate(built(), video).samples
        m32 = built(precision="float32")
        m64 = built()
        runs = []
        for m in (m32, m64, m32, m64):
            result_dtypes.clear()
            runs.append(generate(m, video).samples)
            assert set(result_dtypes) == {m.dtype}
        assert (m32.dtype, m64.dtype) == (np.float32, np.float64)
        assert runs[1].tobytes() == alone.tobytes()
        assert runs[3].tobytes() == alone.tobytes()
        assert runs[2].tobytes() == runs[0].tobytes()
        assert not np.array_equal(runs[0], runs[1])


class TestBatchEquivalence:
    """A batch of B windows through one graph is B one-window steps."""

    B = 3

    def batch(self, kind, overrides, seed=30):
        cfg = tiny_config(kind, **overrides)
        m = build_model(cfg, seed=seed)
        if kind == "transformer":
            fill_head(m, seed)
        rng = np.random.default_rng(seed)
        audio = rng.uniform(-1, 1, (self.B, 2, cfg.audio_ctx_len))
        video = rng.uniform(0, 1, (self.B, cfg.video_ctx_len, 3, cfg.frame_h,
                                   cfg.frame_w))
        y = m.forward_core(Tensor(audio), m.embed(video))
        if m.config.quantized:
            target = rng.uniform(-1, 1, y.shape[:-1])
        else:
            target = rng.uniform(-0.9, 0.9, y.shape)
        return m, audio, video, y, target

    @pytest.mark.parametrize("kind,overrides", KIND_VARIANTS,
                             ids=KIND_VARIANT_IDS)
    def test_forward_matches_each_item(self, kind, overrides):
        m, audio, video, y, _ = self.batch(kind, overrides)
        assert y.shape[0] == self.B
        for i in range(self.B):
            one = m.forward_core(Tensor(audio[i]), m.embed(video[i])).data
            first = m.forward_core(Tensor(audio[i:i + 1]),
                                   m.embed(video[i:i + 1])).data
            assert first.shape == (1,) + one.shape
            npt.assert_array_equal(first[0], one)
            npt.assert_allclose(y.data[i], one, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind,overrides", KIND_VARIANTS,
                             ids=KIND_VARIANT_IDS)
    def test_gradient_is_mean_of_item_gradients(self, kind, overrides):
        m, audio, video, y, target = self.batch(kind, overrides)
        kind_of_loss = "xent_categorical" if m.config.quantized else "mse"
        backward(loss(kind_of_loss, y, target))
        batch_grad = m.grad.copy()
        mean = np.zeros_like(m.grad)
        for i in range(self.B):
            yi = m.forward_core(Tensor(audio[i]), m.embed(video[i]))
            backward(loss(kind_of_loss, yi, target[i]))
            mean += m.grad / self.B
        assert np.any(batch_grad != 0)
        npt.assert_allclose(batch_grad, mean, rtol=0, atol=1e-12)

    # the (frame, offset) pairs of TrainConfig(steps=3, batch_size=3,
    # seed=7) on make_dataset(frames=12, spf=4), as the loop that built one
    # graph per window drew them
    VISITS = {
        "wavenet": [(8, 2), (6, 3), (5, 3), (7, 0), (0, 1), (2, 3), (8, 0),
                    (4, 3), (1, 3)],
        "deep_fusion": [(8, 0), (5, 0), (6, 0), (8, 0), (5, 0), (6, 0),
                        (7, 0), (2, 0), (0, 0)],
    }

    @pytest.mark.parametrize("kind", sorted(VISITS))
    def test_train_visits_the_same_windows(self, monkeypatch, kind):
        visits, batches = [], []
        sample_window = training.sample_window

        def spy(d, frame_index, *args, sample_offset=0, **kwargs):
            visits.append((frame_index, sample_offset))
            return sample_window(d, frame_index, *args,
                                 sample_offset=sample_offset, **kwargs)

        m = build_model(tiny_config(kind), seed=3)
        forward_window = m.forward_window

        def counted(window):
            batches.append(window.frame_index)
            return forward_window(window)

        monkeypatch.setattr(training, "sample_window", spy)
        m.forward_window = counted
        train(m, make_dataset(frames=12, spf=4),
              TrainConfig(steps=3, batch_size=3, seed=7))
        assert visits == self.VISITS[kind]
        # one forward per step, over that step's three windows
        assert batches == [tuple(f for f, _ in visits[i:i + 3])
                           for i in (0, 3, 6)]
