"""The three generator architectures behind one model step.

Deep fusion emits the whole audio segment for the next frame per step;
the wavenet and the transformer emit one stereo sample per step.
All architecture sizes are config-driven; defaults are desk-scale.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import typing
from dataclasses import asdict, dataclass
from itertools import zip_longest

import numpy as np

from .avio import read_input, replacing_file
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
    causal_residual,
    conv1d_causal,
    conv1d_strided,
    conv1x1_channels,
    expand_axis,
    linear,
    multi_head_attention,
    scalar_scale,
)
from .errors import (
    FormatError,
    ParameterError,
    RangeError,
    ShapeError,
    UnsupportedError,
    _is_int,
)

MODEL_KINDS = ("deep_fusion", "wavenet", "transformer")
_PRECISIONS = {"float64": np.float64, "float32": np.float32}


def _check_type(name: str, value, hint) -> None:
    """Refuse a config value that does not fit the field type ``hint``."""
    if value is None and type(None) in typing.get_args(hint):
        return
    base = next((t for t in typing.get_args(hint) if t is not type(None)), hint)
    if base is float:
        ok = _is_int(value) or isinstance(value, float)
    elif base is tuple:
        ok = isinstance(value, (tuple, list)) and all(map(_is_int, value))
    elif base is int:
        ok = _is_int(value)
    else:
        ok = isinstance(value, base)
    if not ok:
        want = "a tuple or list of ints" if base is tuple else base.__name__
        raise ParameterError(f"{name} must be {want}, got {value!r}")


class JsonConfig:
    """JSON round trip for a config dataclass, with typed errors on input.

    Each field value must have its field's type, checked on construction:
    an int field refuses str, float and bool, a float field also takes an
    int, a tuple field takes a tuple or list of ints. A subclass's
    ``__post_init__`` calls this one first.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # resolved once per class: per construction it cost ~0.16 ms
        # (ModelConfig, 2-vCPU Xeon VM), a visible share of load_checkpoint
        cls._field_types = typing.get_type_hints(cls)

    def __post_init__(self):
        for name, hint in self._field_types.items():
            _check_type(f"{type(self).__name__}.{name}", getattr(self, name),
                        hint)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str | bytes, **defaults):
        """Build from a JSON object whose keys override ``defaults``."""
        try:
            fields = json.loads(text)
        except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
            raise FormatError(f"malformed {cls.__name__} JSON: {e}") from None
        if not isinstance(fields, dict):
            raise FormatError(f"{cls.__name__} JSON must be an object")
        unknown = set(fields) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ParameterError(
                f"unknown {cls.__name__} field(s): {', '.join(sorted(unknown))}")
        return cls(**{**defaults, **fields})


# the least value of each size field
_SIZE_FLOORS = {
    **dict.fromkeys(
        ("audio_ctx_len", "video_ctx_len", "spf", "frame_h", "frame_w",
         "embed_channels", "fusion_kernel", "fusion_video_channels",
         "wn_kernel", "wn_channels", "d_model", "heads", "ff_hidden",
         "pos_table_len",
         # with no fusion block, deep fusion never reads its video
         "fusion_blocks"), 1),
    **dict.fromkeys(("embed_blocks", "wn_rounds", "tf_blocks"), 0),
}


@dataclass
class ModelConfig(JsonConfig):
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
        super().__post_init__()
        if self.kind not in MODEL_KINDS:
            raise ParameterError(f"unknown model kind {self.kind!r}")
        self.wn_dilations = tuple(self.wn_dilations)
        self.strided_schedule = tuple(self.strided_schedule)
        for name, low in _SIZE_FLOORS.items():
            if getattr(self, name) < low:
                raise ParameterError(
                    f"{name} must be >= {low}, got {getattr(self, name)}")
        if any(d < 1 for d in self.wn_dilations):
            raise ParameterError(
                f"wn_dilations entries must be >= 1, got {self.wn_dilations}")
        if self.ctx_mode not in ("strided_embed", "raw_short"):
            raise ParameterError(f"unknown ctx_mode {self.ctx_mode!r}")
        if self.d_model % self.heads != 0:
            raise ParameterError(
                f"d_model {self.d_model} not divisible by heads {self.heads}")
        # each strided layer has kernel size and stride 2; only the
        # schedule's length sets the depth
        if any(k != 2 for k in self.strided_schedule):
            raise ParameterError(
                f"strided_schedule entries must be 2, got {self.strided_schedule}")
        if self.quantized and self.kind != "transformer":
            raise ParameterError(
                f"only the transformer has a quantized head, not {self.kind}")
        if self.kind == "transformer":
            t = self.token_count
            if not 1 <= t <= self.pos_table_len:
                raise ParameterError(
                    f"{self.ctx_mode} makes {t} tokens from audio_ctx_len "
                    f"{self.audio_ctx_len}; the transformer needs 1 to "
                    f"pos_table_len = {self.pos_table_len}")

    @property
    def token_count(self) -> int:
        """The transformer's token count: one per sample for raw_short, and
        for strided_embed what each kernel-2 stride-2 layer leaves."""
        t = self.audio_ctx_len
        if self.ctx_mode == "strided_embed":
            for _ in self.strided_schedule:
                t = (t - 2) // 2 + 1
        return t


# -- amplitude quantization ---------------------------------------------------


def quantize(x):
    """Map amplitudes in [-1, 1] to bins in [0, 255] with half-up rounding."""
    arr = np.asarray(x, dtype=np.float64)
    # phrased so that NaN, which fails every comparison, is refused too
    if arr.size and not (arr.min() >= -1.0 and arr.max() <= 1.0):
        raise RangeError("amplitude outside [-1, 1] cannot be quantized")
    bins = np.clip(np.floor((arr + 1.0) / 2.0 * 255.0 + 0.5), 0, 255)
    bins = bins.astype(np.int64)
    return bins if arr.shape else int(bins)


def dequantize(bins):
    arr = np.asarray(bins, dtype=np.float64)
    if arr.size and not (arr.min() >= 0 and arr.max() <= 255):
        raise RangeError("bin outside [0, 255]")
    out = 2.0 * arr / 255.0 - 1.0
    return out if arr.shape else float(out)


# -- deep fusion --------------------------------------------------------------


@dataclass
class FusionBlockParams:
    audio_kernel: Tensor            # (2, 2, K) causal conv on the audio stream
    video_block: ResBlock3DParams
    v2a: ProjectionParams           # (H*W) -> A, c_vid -> 2
    # a2v and gate_va are None in the last block: no block after it reads
    # the video stream they would feed
    a2v: ProjectionParams | None    # A -> (H*W), 2 -> c_vid
    gate_av: Tensor                 # scalar: how much video enters audio
    gate_va: Tensor | None          # scalar: how much audio enters video


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
    for i in range(cfg.fusion_blocks):
        blk = FusionBlockParams(
            audio_kernel=_init(rng, 2, 2, cfg.fusion_kernel),
            video_block=ResBlock3DParams.create(rng, cv),
            v2a=ProjectionParams.create(rng, hw, cfg.audio_ctx_len, cv, 2),
            a2v=ProjectionParams.create(rng, cfg.audio_ctx_len, hw, 2, cv),
            gate_av=Tensor(np.ones(()), requires_grad=True),
            gate_va=Tensor(np.ones(()), requires_grad=True),
        )
        if i == cfg.fusion_blocks - 1:
            # the last a2v is still drawn, so entry and head_w keep
            # the values that the rng gives them
            blk.a2v = blk.gate_va = None
        blocks.append(blk)
    return DeepFusionParams(
        entry=_init(rng, cv, 3),
        blocks=blocks,
        head_w=_init(rng, cfg.audio_ctx_len, cfg.spf),
        head_b=Tensor(np.zeros(cfg.spf), requires_grad=True),
    )


def deep_fusion_forward(audio_ctx: Tensor, video_ctx: Tensor,
                        params: DeepFusionParams) -> Tensor:
    """Parallel audio/video residual towers with gated cross-injection.

    audio_ctx: (2, A), video_ctx: (3, n, H, W) -> (2, spf) in [-1, 1]; or
    the same with a leading batch axis B on all three.
    """
    if audio_ctx.data.ndim not in (2, 3) or audio_ctx.shape[-2] != 2:
        raise ShapeError(f"deep_fusion: audio context {audio_ctx.shape}")
    if (video_ctx.data.ndim != audio_ctx.data.ndim + 2
            or video_ctx.shape[-4] != 3):
        raise ShapeError(f"deep_fusion: video context {video_ctx.shape}")
    n, h, w = video_ctx.shape[-3:]
    audio = audio_ctx
    video = conv1x1_channels(video_ctx, params.entry, axis=-4)
    for blk in params.blocks:
        audio_b = (conv1d_causal(audio, blk.audio_kernel, 1) + audio).relu()
        video_b = res_block_3d(video, blk.video_block)
        audio = audio_b + scalar_scale(video_to_audio(video_b, blk.v2a),
                                       blk.gate_av)
        if blk.a2v is None:
            break
        inject = audio_to_video(audio_b, blk.a2v, h, w)
        video = video_b + scalar_scale(expand_axis(inject, -3, n), blk.gate_va)
    return linear(audio, params.head_w, params.head_b).tanh()


# -- wavenet ------------------------------------------------------------------


@dataclass
class WavenetParams:
    embedder: VideoEmbedderParams
    entry: Tensor                   # (R, 2, K) causal entry conv
    blocks: list                    # [(kernel, dilation)], kernel (R, R, taps)
    head_mix: Tensor                # (2, R)
    head_b: Tensor                  # (2,)


def _build_wavenet(cfg: ModelConfig, rng) -> WavenetParams:
    R, K = cfg.wn_channels, cfg.wn_kernel
    # Each residual branch starts at 1/sqrt(layers) of the fan-in scale, so
    # the stream h = h + relu(conv(h)) stays bounded over the whole stack
    # and the tanh head does not saturate (Fixup, arXiv:1901.09321).
    layers = max(cfg.wn_rounds * len(cfg.wn_dilations), 1)
    scale = 1.0 / math.sqrt(R * K * layers)
    blocks = []
    for _ in range(cfg.wn_rounds):
        for d in cfg.wn_dilations:
            # drawn whole, so later draws do not move; tap k reads
            # x[t - k*d], only zero padding once k*d >= A
            w = _init(rng, R, R, K, scale=scale).data
            taps = min(K, -(-cfg.audio_ctx_len // d))
            blocks.append((Tensor(w[:, :, :taps].copy(), requires_grad=True),
                           d))
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
    """Dilated causal stack over audio+video sum (2, A), or (B, 2, A);
    returns the last column (2,), or (B, 2)."""
    if audio_ctx.shape != video_embed.shape:
        raise ShapeError(
            f"wavenet: audio context {audio_ctx.shape} and video embedding "
            f"{video_embed.shape} must match for elementwise addition"
        )
    x = audio_ctx + video_embed
    h = conv1d_causal(x, params.entry, 1)
    for kernel, d in params.blocks:
        h = causal_residual(h, kernel, d)
    T = h.shape[-1]
    y = conv1x1_channels(h, params.head_mix, axis=-2)
    y = (y + expand_axis(params.head_b, 1, T)).tanh()
    return y[..., T - 1]


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
    strided: list                   # strided_embed: [(c_out, c_in, 2)] kernels
    lift_w: Tensor | None           # raw_short: per-sample (2, d_model) lift
    lift_b: Tensor | None
    pos: Tensor                     # (token_count, d_model)
    blocks: list
    dec_w: Tensor                   # (d_model, 2) or (d_model, 512) quantized
    dec_b: Tensor


def _build_transformer(cfg: ModelConfig, rng) -> TransformerParams:
    dm = cfg.d_model
    raw = cfg.ctx_mode == "raw_short"
    strided = []
    c_in = 2
    for _ in () if raw else cfg.strided_schedule:
        strided.append(_init(rng, dm, c_in, 2))
        c_in = dm
    blocks = []
    for _ in range(cfg.tf_blocks):
        attn = AttentionParams(
            wq=_init(rng, dm, dm), wk=_init(rng, dm, dm),
            wv=_init(rng, dm, dm), wo=_init(rng, dm, dm),
            bq=Tensor(np.zeros(dm), requires_grad=True),
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
        lift_w=_init(rng, 2, dm) if raw else None,
        lift_b=Tensor(np.zeros(dm), requires_grad=True) if raw else None,
        # drawn last, so its size moves no other tensor's seeded values
        pos=_init(rng, cfg.token_count, dm, scale=0.1),
        blocks=blocks,
        # zero, as Fixup starts the final layer: training grows the head
        # from a constant output instead of a random one
        dec_w=Tensor(np.zeros((dm, out_dim)), requires_grad=True),
        dec_b=Tensor(np.zeros(out_dim), requires_grad=True),
    )


def transformer_forward(audio_ctx: Tensor, video_embed: Tensor,
                        params: TransformerParams) -> Tensor:
    """Causal attention over audio+video tokens; emits the next sample.

    Takes (2, A) contexts and returns (2,) in [-1, 1], or (2, 256) logits
    for a quantized head (``dec_w`` 512 wide); with a leading batch axis B
    on the contexts, the result has it too.
    """
    if audio_ctx.shape != video_embed.shape:
        raise ShapeError(
            f"transformer: audio context {audio_ctx.shape} and video "
            f"embedding {video_embed.shape} must match"
        )
    x = audio_ctx + video_embed                       # (..., 2, A)
    if params.lift_w is None:                         # strided_embed
        h = x
        for kernel in params.strided:
            h = conv1d_strided(h, kernel, 2).relu()
        tokens = h.mT                                 # (..., T_tok, d_model)
    else:                                             # raw_short
        tokens = linear(x.mT, params.lift_w, params.lift_b)
    t_tok = tokens.shape[-2]
    tokens = tokens + params.pos
    # Only the last token is emitted. The final block attends from it alone,
    # so its residual, feed-forward and the decoder run on one row; earlier
    # blocks still give every token's keys and values to the next.
    final = len(params.blocks) - 1
    for i, blk in enumerate(params.blocks):
        n = 1 if i == final else None
        att = multi_head_attention(tokens, blk.attn, last_n=n)
        tokens = (tokens if n is None else tokens[..., t_tok - 1:, :]) + att
        ff = linear(linear(tokens, blk.ff_w1, blk.ff_b1).relu(),
                    blk.ff_w2, blk.ff_b2)
        tokens = tokens + ff
    # after a final block this is already the one row (..., 1, d_model)
    dec = linear(tokens[..., tokens.shape[-2] - 1:, :], params.dec_w,
                 params.dec_b)
    lead = dec.shape[:-2]
    if dec.shape[-1] == 2:
        return dec.reshape(lead + (2,)).tanh()
    return dec.reshape(lead + (2, 256))


# -- model wrappers -----------------------------------------------------------


def _named_tensors(tree, path: str = "") -> dict[str, Tensor]:
    """Every Tensor in a tree of parameter dataclasses, lists and tuples,
    named by its attribute path, e.g. ``embedder.blocks.0.conv1``."""
    if isinstance(tree, Tensor):
        return {path: tree}
    if dataclasses.is_dataclass(tree):
        items = vars(tree).items()
    elif isinstance(tree, (list, tuple)):
        items = enumerate(tree)
    else:
        return {}
    out = {}
    for key, item in items:
        out.update(_named_tensors(item, f"{path}.{key}" if path else str(key)))
    return out


class Model:
    """One step for every caller: ``forward_core(audio_ctx, embed(video_ctx))``.

    ``embed`` turns an (n, 3, H, W) video window into the frame context,
    once per frame; deep fusion has no embedder and keeps the raw video.
    Every array may carry a leading batch axis of B windows: ``embed``
    takes (B, n, 3, H, W), and ``forward_core`` takes (B, 2, A) audio with
    a (B, ...) frame context and returns (B, 2), (B, 2, spf) or
    (B, 2, 256). Training runs a stacked batch as one graph; generation
    and evaluation run one window at a time through the same code.
    ``p`` is copied into ``flat`` at ``precision`` here, once; each tensor's
    ``data`` and ``grad`` are views of ``flat`` and ``grad``, written in place.
    """

    # the ``avio.sample_window`` target a step emits: one sample (2,), or
    # for deep fusion the frame's spf samples (2, spf), also when spf is 1
    target_kind = "sample"

    def __init__(self, config: ModelConfig, p, precision: str):
        if precision not in _PRECISIONS:
            raise ParameterError(f"unknown precision {precision!r}")
        self.params = _named_tensors(p)
        ts = self.params.values()
        self.flat = np.concatenate([t.data.ravel() for t in ts]).astype(
            _PRECISIONS[precision], copy=False)
        self.grad = np.zeros_like(self.flat)
        cuts = np.cumsum([t.size for t in ts])[:-1]
        for t, d, g in zip(ts, np.split(self.flat, cuts),
                           np.split(self.grad, cuts)):
            t.data, t.grad = d.reshape(t.shape), g.reshape(t.shape)
        self.config = config
        self.p = p
        self.embedder = getattr(p, "embedder", None)

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    @property
    def step_samples(self) -> int:
        """Samples per ``forward_core`` call: spf for a frame target, else 1."""
        return self.config.spf if self.target_kind == "frame_sequence" else 1

    def param_count(self) -> int:
        return self.flat.size

    def embed(self, video_ctx) -> Tensor:
        # (..., n, 3, H, W) -> (..., 3, n, H, W)
        video = Tensor(np.asarray(video_ctx).swapaxes(-4, -3),
                       dtype=self.dtype)
        if self.embedder is None:
            return video
        return embed_video_context(video, self.embedder)

    def forward_core(self, audio_ctx: Tensor, frame_ctx: Tensor) -> Tensor:
        raise NotImplementedError

    def forward_window(self, window) -> Tensor:
        """The step for one window, or for a stacked batch of windows
        (``avio.stack_windows``)."""
        # (..., A, 2) -> (..., 2, A)
        audio = Tensor(np.asarray(window.audio_ctx).swapaxes(-1, -2),
                       dtype=self.dtype)
        return self.forward_core(audio, self.embed(window.video_ctx))


class DeepFusionModel(Model):
    target_kind = "frame_sequence"

    def forward_core(self, audio_ctx, frame_ctx):
        return deep_fusion_forward(audio_ctx, frame_ctx, self.p)


class WavenetModel(Model):
    def forward_core(self, audio_ctx, frame_ctx):
        return wavenet_forward(audio_ctx, frame_ctx, self.p)


class TransformerModel(Model):
    def forward_core(self, audio_ctx, frame_ctx):
        return transformer_forward(audio_ctx, frame_ctx, self.p)


_ARCHITECTURES = {  # kind -> (model class, parameter builder)
    "deep_fusion": (DeepFusionModel, _build_deep_fusion),
    "wavenet": (WavenetModel, _build_wavenet),
    "transformer": (TransformerModel, _build_transformer),
}


def _build(config: ModelConfig, rng, precision: str) -> Model:
    """The model of ``config``; every parameter zero when rng is None."""
    cls, build = _ARCHITECTURES[config.kind]
    return cls(config, build(config, rng), precision)


def build_model(config: ModelConfig, seed: int = 0,
                precision: str = "float64") -> Model:
    if not _is_int(seed) or seed < 0:
        raise ParameterError(f"seed must be an int >= 0, got {seed!r}")
    return _build(config, np.random.default_rng(seed), precision)


# -- checkpoints --------------------------------------------------------------

_CKPT_MAGIC = b"FGCK"
# 2: tensors named by their path in the parameter tree; 3: only the
# tensor elements that the forward pass reads; 4: one tensor table and
# ``model.flat`` as one payload
_CKPT_VERSION = 4


def _tensor_table(model: Model) -> list:
    """``[name, shape]`` per tensor, in the order of ``model.flat``."""
    return [[name, list(t.shape)] for name, t in model.params.items()]


def save_checkpoint(model: Model, path) -> None:
    """Binary checkpoint: magic, version, JSON config, JSON tensor table,
    then ``model.flat`` as little-endian float32."""
    cfg_bytes = model.config.to_json().encode()
    table = json.dumps(_tensor_table(model)).encode()
    with replacing_file(path) as f:
        f.write(_CKPT_MAGIC + struct.pack("<II", _CKPT_VERSION, len(cfg_bytes))
                + cfg_bytes)
        f.write(struct.pack("<I", len(table)) + table)
        f.write(model.flat.astype("<f4", copy=False))


def load_checkpoint(path, precision: str = "float64") -> Model:
    """Rebuild a saved model; its parameters get ``precision``."""
    raw = read_input(path)
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

    def block() -> bytes:
        (n,) = struct.unpack("<I", take(4))
        return bytes(take(n))

    (version,) = struct.unpack("<I", take(4))
    if version != _CKPT_VERSION:
        raise UnsupportedError(f"{path}: checkpoint version {version}")
    try:
        config = ModelConfig.from_json(block())
    except (FormatError, ParameterError) as e:
        raise FormatError(f"{path}: unreadable model config: {e}") from None
    # the payload overwrites every element, so nothing is drawn for them
    model = _build(config, None, precision)
    try:
        table = json.loads(block())
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise FormatError(f"{path}: unreadable tensor table: {e}") from None
    expected = _tensor_table(model)
    if table != expected:
        rows = table if isinstance(table, list) else [table]
        i, got, want = next(
            (i, a, b) for i, (a, b) in enumerate(zip_longest(rows, expected))
            if a != b)
        raise FormatError(f"{path}: tensor table row {i} is {json.dumps(got)}, "
                          f"model expects {json.dumps(want)}")
    payload = view[pos:]
    if len(payload) != 4 * model.flat.size:
        raise FormatError(f"{path}: {len(payload)} payload bytes, model "
                          f"expects {4 * model.flat.size}")
    raw = np.frombuffer(payload, dtype="<f4")
    # checked before the cast: a signalling NaN warns when cast to float64
    if not np.isfinite(raw).all():
        cuts = np.cumsum([t.size for t in model.params.values()])[:-1]
        name = next(name for name, part
                    in zip(model.params, np.split(raw, cuts))
                    if not np.isfinite(part).all())
        raise FormatError(f"{path}: tensor {name!r} holds NaN or inf")
    model.flat[...] = raw
    return model
