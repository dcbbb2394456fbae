"""The three generator architectures behind one forward interface.

Sequence mode (deep fusion) emits the whole audio segment for the next
frame; sample mode (wavenet, transformer) emits one stereo sample per step.
All architecture sizes are config-driven; defaults are desk-scale.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import engine
from .crossmodal import (
    ProjectionParams,
    ResBlock3DParams,
    VideoEmbedderParams,
    _init,
    audio_to_video,
    embed_video_context,
    res_block_3d,
    video_to_audio,
)
from .engine import (
    AttentionParams,
    Tensor,
    conv1d_causal,
    conv1d_strided,
    conv1x1_channels,
    expand_axis,
    linear,
    multi_head_attention,
    scalar_scale,
)
from .errors import (
    ContractError,
    FormatError,
    ParameterError,
    RangeError,
    ShapeError,
    UnsupportedError,
)

MODEL_KINDS = ("deep_fusion", "wavenet", "transformer")


@dataclass
class ModelConfig:
    kind: str = "transformer"
    audio_ctx_len: int = 64          # A
    video_ctx_len: int = 4           # n
    spf: int = 294
    frame_h: int = 36
    frame_w: int = 64
    # video embedder
    embed_channels: int = 8
    embed_blocks: int = 2
    # deep fusion
    fusion_blocks: int = 2
    fusion_kernel: int = 2
    fusion_video_channels: int = 8
    # wavenet
    wn_kernel: int = 2
    wn_dilations: tuple = (1, 2, 4, 8, 16, 32, 64)
    wn_rounds: int = 2
    wn_channels: int = 16
    # transformer
    d_model: int = 64
    heads: int = 4
    tf_blocks: int = 2
    ff_hidden: int = 128
    strided_schedule: tuple = (2, 2, 2)
    pos_table_len: int = 256
    ctx_mode: str = "strided_embed"  # or "raw_short"
    quantized: bool = False

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ParameterError(f"unknown model kind {self.kind!r}")
        if self.spf < 1:
            raise ParameterError("spf must be >= 1")
        if self.ctx_mode not in ("strided_embed", "raw_short"):
            raise ParameterError(f"unknown ctx_mode {self.ctx_mode!r}")
        self.wn_dilations = tuple(self.wn_dilations)
        self.strided_schedule = tuple(self.strided_schedule)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @staticmethod
    def from_json(text: str) -> "ModelConfig":
        return ModelConfig(**json.loads(text))


# -- amplitude quantization ---------------------------------------------------


def quantize(x):
    """Map amplitudes in [-1, 1] to bins in [0, 255] with half-up rounding."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (arr.min() < -1.0 or arr.max() > 1.0):
        raise RangeError("amplitude outside [-1, 1] cannot be quantized")
    bins = np.clip(np.floor((arr + 1.0) / 2.0 * 255.0 + 0.5), 0, 255)
    bins = bins.astype(np.int64)
    return bins if arr.shape else int(bins)


def dequantize(bins):
    arr = np.asarray(bins, dtype=np.float64)
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise RangeError("bin outside [0, 255]")
    out = 2.0 * arr / 255.0 - 1.0
    return out if arr.shape else float(out)


# -- deep fusion --------------------------------------------------------------


@dataclass
class FusionBlockParams:
    audio_kernel: Tensor            # (2, 2, K) causal conv on the audio stream
    video_block: ResBlock3DParams
    v2a: ProjectionParams           # (H*W) -> A, c_vid -> 2
    a2v: ProjectionParams           # A -> (H*W), 2 -> c_vid
    gate_av: Tensor                 # scalar: how much video enters audio
    gate_va: Tensor                 # scalar: how much audio enters video


@dataclass
class DeepFusionParams:
    entry: Tensor                   # (c_vid, 3) channel lift for the video stream
    blocks: list
    head_w: Tensor                  # (A, spf), shared across channels
    head_b: Tensor                  # (spf,)


def _build_deep_fusion(cfg: ModelConfig, rng) -> DeepFusionParams:
    hw = cfg.frame_h * cfg.frame_w
    cv = cfg.fusion_video_channels
    blocks = []
    for _ in range(cfg.fusion_blocks):
        blocks.append(FusionBlockParams(
            audio_kernel=_init(rng, 2, 2, cfg.fusion_kernel),
            video_block=ResBlock3DParams.create(rng, cv, cv),
            v2a=ProjectionParams.create(rng, hw, cfg.audio_ctx_len, cv, 2),
            a2v=ProjectionParams.create(rng, cfg.audio_ctx_len, hw, 2, cv),
            gate_av=Tensor(np.ones(()), requires_grad=True),
            gate_va=Tensor(np.ones(()), requires_grad=True),
        ))
    return DeepFusionParams(
        entry=_init(rng, cv, 3),
        blocks=blocks,
        head_w=_init(rng, cfg.audio_ctx_len, cfg.spf),
        head_b=Tensor(np.zeros(cfg.spf), requires_grad=True),
    )


def deep_fusion_forward(audio_ctx: Tensor, video_ctx: Tensor,
                        params: DeepFusionParams) -> Tensor:
    """Parallel audio/video residual towers with gated cross-injection.

    audio_ctx: (2, A), video_ctx: (3, n, H, W) -> (2, spf) in [-1, 1].
    """
    if audio_ctx.data.ndim != 2 or audio_ctx.shape[0] != 2:
        raise ShapeError(f"deep_fusion: audio context {audio_ctx.shape}")
    if video_ctx.data.ndim != 4 or video_ctx.shape[0] != 3:
        raise ShapeError(f"deep_fusion: video context {video_ctx.shape}")
    n = video_ctx.shape[1]
    h, w = video_ctx.shape[2], video_ctx.shape[3]
    audio = audio_ctx
    video = conv1x1_channels(video_ctx, params.entry)
    for blk in params.blocks:
        audio_b = (conv1d_causal(audio, blk.audio_kernel, 1) + audio).relu()
        video_b = res_block_3d(video, blk.video_block)
        audio = audio_b + scalar_scale(video_to_audio(video_b, blk.v2a),
                                       blk.gate_av)
        inject = audio_to_video(audio_b, blk.a2v, h, w)
        video = video_b + scalar_scale(expand_axis(inject, 1, n), blk.gate_va)
    return linear(audio, params.head_w, params.head_b).tanh()


# -- wavenet ------------------------------------------------------------------


@dataclass
class WavenetParams:
    embedder: VideoEmbedderParams
    entry: Tensor                   # (R, 2, K) causal entry conv
    blocks: list                    # [(kernel, dilation)]
    head_mix: Tensor                # (2, R)
    head_b: Tensor                  # (2,)


def _build_wavenet(cfg: ModelConfig, rng) -> WavenetParams:
    R, K = cfg.wn_channels, cfg.wn_kernel
    blocks = []
    for _ in range(cfg.wn_rounds):
        for d in cfg.wn_dilations:
            blocks.append((_init(rng, R, R, K), d))
    return WavenetParams(
        embedder=VideoEmbedderParams.create(
            rng, cfg.frame_h, cfg.frame_w, cfg.audio_ctx_len,
            channels=cfg.embed_channels, n_blocks=cfg.embed_blocks),
        entry=_init(rng, R, 2, K),
        blocks=blocks,
        head_mix=_init(rng, 2, R),
        head_b=Tensor(np.zeros(2), requires_grad=True),
    )


def wavenet_receptive_field(cfg: ModelConfig) -> int:
    """1 + sum over conv layers of (K-1)*dilation, entry conv included."""
    k = cfg.wn_kernel
    rf = 1 + (k - 1)  # entry conv at dilation 1
    rf += cfg.wn_rounds * sum((k - 1) * d for d in cfg.wn_dilations)
    return rf


def wavenet_forward(audio_ctx: Tensor, video_embed: Tensor,
                    params: WavenetParams) -> Tensor:
    """Dilated causal stack over audio+video sum; returns the last column (2,)."""
    if audio_ctx.shape != video_embed.shape:
        raise ShapeError(
            f"wavenet: audio context {audio_ctx.shape} and video embedding "
            f"{video_embed.shape} must match for elementwise addition"
        )
    x = audio_ctx + video_embed
    h = conv1d_causal(x, params.entry, 1)
    for kernel, d in params.blocks:
        h = h + conv1d_causal(h, kernel, d).relu()
    T = h.shape[1]
    y = conv1x1_channels(h, params.head_mix)
    y = (y + expand_axis(params.head_b, 1, T)).tanh()
    return y[:, T - 1]


# -- transformer --------------------------------------------------------------


@dataclass
class TransformerBlockParams:
    attn: AttentionParams
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor


@dataclass
class TransformerParams:
    embedder: VideoEmbedderParams
    strided: list                   # [(c_out, c_in, K)] stride-2 kernels
    lift_w: Tensor                  # raw_short: per-sample (2, d_model) lift
    lift_b: Tensor
    pos: Tensor                     # (pos_table_len, d_model)
    blocks: list
    dec_w: Tensor                   # (d_model, 2) or (d_model, 512) quantized
    dec_b: Tensor


def _build_transformer(cfg: ModelConfig, rng) -> TransformerParams:
    dm = cfg.d_model
    strided = []
    c_in = 2
    for _ in cfg.strided_schedule:
        strided.append(_init(rng, dm, c_in, 2))
        c_in = dm
    blocks = []
    for _ in range(cfg.tf_blocks):
        attn = AttentionParams(
            wq=_init(rng, dm, dm), wk=_init(rng, dm, dm),
            wv=_init(rng, dm, dm), wo=_init(rng, dm, dm),
            bq=Tensor(np.zeros(dm), requires_grad=True),
            bk=Tensor(np.zeros(dm), requires_grad=True),
            bv=Tensor(np.zeros(dm), requires_grad=True),
            bo=Tensor(np.zeros(dm), requires_grad=True),
            heads=cfg.heads,
        )
        blocks.append(TransformerBlockParams(
            attn=attn,
            ff_w1=_init(rng, dm, cfg.ff_hidden),
            ff_b1=Tensor(np.zeros(cfg.ff_hidden), requires_grad=True),
            ff_w2=_init(rng, cfg.ff_hidden, dm),
            ff_b2=Tensor(np.zeros(dm), requires_grad=True),
        ))
    out_dim = 512 if cfg.quantized else 2
    return TransformerParams(
        embedder=VideoEmbedderParams.create(
            rng, cfg.frame_h, cfg.frame_w, cfg.audio_ctx_len,
            channels=cfg.embed_channels, n_blocks=cfg.embed_blocks),
        strided=strided,
        lift_w=_init(rng, 2, dm),
        lift_b=Tensor(np.zeros(dm), requires_grad=True),
        pos=_init(rng, cfg.pos_table_len, dm, scale=0.1),
        blocks=blocks,
        dec_w=_init(rng, dm, out_dim),
        dec_b=Tensor(np.zeros(out_dim), requires_grad=True),
    )


def transformer_forward(audio_ctx: Tensor, video_embed: Tensor,
                        params: TransformerParams, ctx_mode: str,
                        quantized: bool = False) -> Tensor:
    """Causal attention over audio+video tokens; emits the next sample.

    Returns (2,) in [-1, 1], or (2, 256) logits when quantized.
    """
    if audio_ctx.shape != video_embed.shape:
        raise ShapeError(
            f"transformer: audio context {audio_ctx.shape} and video "
            f"embedding {video_embed.shape} must match"
        )
    x = audio_ctx + video_embed                       # (2, A)
    if ctx_mode == "strided_embed":
        h = x
        for kernel in params.strided:
            h = conv1d_strided(h, kernel, 2).relu()
        tokens = h.T                                  # (T_tok, d_model)
    elif ctx_mode == "raw_short":
        tokens = linear(x.T, params.lift_w, params.lift_b)
    else:
        raise ParameterError(f"unknown ctx_mode {ctx_mode!r}")
    t_tok = tokens.shape[0]
    if t_tok > params.pos.shape[0]:
        raise ParameterError(
            f"{t_tok} tokens exceed positional table of {params.pos.shape[0]}"
        )
    tokens = tokens + params.pos[:t_tok]
    for blk in params.blocks:
        tokens = tokens + multi_head_attention(tokens, blk.attn,
                                               causal_mask=True)
        ff = linear(linear(tokens, blk.ff_w1, blk.ff_b1).relu(),
                    blk.ff_w2, blk.ff_b2)
        tokens = tokens + ff
    last = tokens[t_tok - 1: t_tok]                   # (1, d_model)
    dec = linear(last, params.dec_w, params.dec_b)
    if quantized:
        return dec.reshape(2, 256)
    return dec.reshape(2).tanh()


# -- model wrappers -----------------------------------------------------------


class Model:
    """Common surface: config, named parameters, and window-based forward."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.embed_calls = 0

    @property
    def mode(self) -> str:
        return "sequence" if self.config.kind == "deep_fusion" else "sample"

    def param_count(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def forward_window(self, window) -> Tensor:
        raise NotImplementedError

    def _audio_tensor(self, audio_ctx) -> Tensor:
        return Tensor(np.asarray(audio_ctx).T)        # (A, 2) -> (2, A)

    def _video_tensor(self, video_ctx) -> Tensor:
        return Tensor(np.asarray(video_ctx).transpose(1, 0, 2, 3))  # -> (3,n,H,W)


class DeepFusionModel(Model):
    def __init__(self, config: ModelConfig, rng):
        super().__init__(config)
        self.p = _build_deep_fusion(config, rng)
        self.params = _collect_fusion(self.p)

    def forward_window(self, window) -> Tensor:
        return deep_fusion_forward(self._audio_tensor(window.audio_ctx),
                                   self._video_tensor(window.video_ctx),
                                   self.p)


class _EmbeddingModel(Model):
    """Shared base for the sample-mode models that embed video once per frame."""

    embedder: VideoEmbedderParams

    def embed(self, video_ctx) -> Tensor:
        self.embed_calls += 1
        return embed_video_context(self._video_tensor(video_ctx), self.embedder)

    def forward_core(self, audio_ctx: Tensor, video_embed: Tensor) -> Tensor:
        raise NotImplementedError

    def forward_window(self, window) -> Tensor:
        return self.forward_core(self._audio_tensor(window.audio_ctx),
                                 self.embed(window.video_ctx))


class WavenetModel(_EmbeddingModel):
    def __init__(self, config: ModelConfig, rng):
        super().__init__(config)
        self.p = _build_wavenet(config, rng)
        self.embedder = self.p.embedder
        self.params = _collect_wavenet(self.p)

    def receptive_field(self) -> int:
        return wavenet_receptive_field(self.config)

    def forward_core(self, audio_ctx, video_embed):
        return wavenet_forward(audio_ctx, video_embed, self.p)


class TransformerModel(_EmbeddingModel):
    def __init__(self, config: ModelConfig, rng):
        super().__init__(config)
        self.p = _build_transformer(config, rng)
        self.embedder = self.p.embedder
        self.params = _collect_transformer(self.p)

    def forward_core(self, audio_ctx, video_embed):
        return transformer_forward(audio_ctx, video_embed, self.p,
                                   self.config.ctx_mode,
                                   quantized=self.config.quantized)


def _collect_fusion(p: DeepFusionParams) -> dict:
    out = {"entry": p.entry, "head.w": p.head_w, "head.b": p.head_b}
    for i, blk in enumerate(p.blocks):
        pre = f"block{i}"
        out[f"{pre}.audio_kernel"] = blk.audio_kernel
        out.update(blk.video_block.tensors(f"{pre}.video"))
        out.update(blk.v2a.tensors(f"{pre}.v2a"))
        out.update(blk.a2v.tensors(f"{pre}.a2v"))
        out[f"{pre}.gate_av"] = blk.gate_av
        out[f"{pre}.gate_va"] = blk.gate_va
    return out


def _collect_wavenet(p: WavenetParams) -> dict:
    out = p.embedder.tensors("embed")
    out["entry"] = p.entry
    for i, (kernel, _) in enumerate(p.blocks):
        out[f"block{i}.kernel"] = kernel
    out["head.mix"] = p.head_mix
    out["head.b"] = p.head_b
    return out


def _collect_transformer(p: TransformerParams) -> dict:
    out = p.embedder.tensors("embed")
    for i, k in enumerate(p.strided):
        out[f"strided{i}"] = k
    out["lift.w"] = p.lift_w
    out["lift.b"] = p.lift_b
    out["pos"] = p.pos
    for i, blk in enumerate(p.blocks):
        for name, t in blk.attn.tensors().items():
            out[f"block{i}.attn.{name}"] = t
        out[f"block{i}.ff.w1"] = blk.ff_w1
        out[f"block{i}.ff.b1"] = blk.ff_b1
        out[f"block{i}.ff.w2"] = blk.ff_w2
        out[f"block{i}.ff.b2"] = blk.ff_b2
    return out


def build_model(config: ModelConfig, seed: int = 0) -> Model:
    rng = np.random.default_rng(seed)
    if config.kind == "deep_fusion":
        return DeepFusionModel(config, rng)
    if config.kind == "wavenet":
        return WavenetModel(config, rng)
    return TransformerModel(config, rng)


# -- checkpoints --------------------------------------------------------------

_CKPT_MAGIC = b"FGCK"
_CKPT_VERSION = 1


def save_checkpoint(model: Model, path) -> None:
    """Binary checkpoint: magic, version, JSON config, float32 parameters."""
    cfg_bytes = model.config.to_json().encode()
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", _CKPT_VERSION))
        f.write(struct.pack("<I", len(cfg_bytes)))
        f.write(cfg_bytes)
        f.write(struct.pack("<I", len(model.params)))
        for name in sorted(model.params):
            t = model.params[name]
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", t.data.ndim))
            for dim in t.data.shape:
                f.write(struct.pack("<I", dim))
            f.write(t.data.astype("<f4").tobytes())


def load_checkpoint(path) -> Model:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != _CKPT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    view, pos = memoryview(raw), 4

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(raw):
            raise FormatError(
                f"{path}: truncated: needs {pos + n} bytes, has {len(raw)}"
            )
        pos += n
        return view[pos - n: pos]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    (version,) = unpack("<I")
    if version != _CKPT_VERSION:
        raise UnsupportedError(f"{path}: checkpoint version {version}")
    (clen,) = unpack("<I")
    try:
        config = ModelConfig.from_json(bytes(take(clen)).decode())
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError) as e:
        raise FormatError(f"{path}: unreadable model config: {e}") from None
    model = build_model(config, seed=0)
    (n,) = unpack("<I")
    if n != len(model.params):
        raise FormatError(
            f"{path}: {n} tensors in file, model expects {len(model.params)}"
        )
    for _ in range(n):
        (nlen,) = unpack("<H")
        name = bytes(take(nlen)).decode(errors="replace")
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        data = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4")
        if name not in model.params:
            raise FormatError(f"{path}: unknown tensor {name!r}")
        t = model.params[name]
        if tuple(shape) != t.data.shape:
            raise FormatError(
                f"{path}: tensor {name!r} shape {shape} != {t.data.shape}"
            )
        t.data = data.reshape(t.data.shape).astype(engine.dtype())
        t.grad = np.zeros_like(t.data)
    if pos != len(raw):
        raise FormatError(f"{path}: {len(raw) - pos} bytes after the last tensor")
    return model
