"""Video context embedding and the audio<->video shape projections.

The embedder runs a stack of 3D residual blocks over (channels, time, H, W),
mean-pools time, then projects spatial dims to the audio sequence length with
a shared linear layer and video channels to audio channels with a 1x1 mix.
The reverse projection (audio -> video) mirrors it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Tensor, conv1x1_channels, conv3d, linear
from .errors import ShapeError


def _init(rng, *shape, scale=None):
    """A fan-in scaled normal draw; zeros, drawing nothing, when rng is
    None (a model whose parameters a checkpoint fills)."""
    if rng is None:
        return Tensor(np.zeros(shape), requires_grad=True)
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
    s = scale if scale is not None else 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.standard_normal(shape) * s, requires_grad=True)


@dataclass
class ResBlock3DParams:
    """Two 3x3x3 conv kernels that keep the channel count."""
    conv1: Tensor  # (c, c, 3, 3, 3)
    conv2: Tensor  # (c, c, 3, 3, 3)

    @staticmethod
    def create(rng, channels: int) -> "ResBlock3DParams":
        return ResBlock3DParams(
            conv1=_init(rng, channels, channels, 3, 3, 3),
            conv2=_init(rng, channels, channels, 3, 3, 3),
        )


@dataclass
class ProjectionParams:
    """Shared spatial linear map plus a 1x1 channel mix."""
    w: Tensor      # (in_len, out_len)
    b: Tensor      # (out_len,)
    mix: Tensor    # (c_out, c_in)

    @staticmethod
    def create(rng, in_len: int, out_len: int, c_in: int, c_out: int):
        return ProjectionParams(
            w=_init(rng, in_len, out_len),
            b=Tensor(np.zeros(out_len), requires_grad=True),
            mix=_init(rng, c_out, c_in),
        )


@dataclass
class VideoEmbedderParams:
    """Entry channel lift, residual stack, and the video->audio projection."""
    entry: Tensor                      # (c_int, 3) channel lift
    blocks: list                       # [ResBlock3DParams], c_int channels
    proj: ProjectionParams             # (H*W) -> n_aud, c_int -> 2

    @staticmethod
    def create(rng, h: int, w: int, n_aud: int, channels: int, n_blocks: int):
        return VideoEmbedderParams(
            entry=_init(rng, channels, 3),
            blocks=[ResBlock3DParams.create(rng, channels)
                    for _ in range(n_blocks)],
            proj=ProjectionParams.create(rng, h * w, n_aud, channels, 2),
        )


def res_block_3d(x: Tensor, p: ResBlock3DParams) -> Tensor:
    """y = relu(conv2(relu(conv1(x))) + x); both convs pad 1, stride 1."""
    h = conv3d(x, p.conv1, stride=(1, 1, 1), padding=(1, 1, 1)).relu()
    h = conv3d(h, p.conv2, stride=(1, 1, 1), padding=(1, 1, 1))
    return (h + x).relu()


def video_to_audio(v: Tensor, p: ProjectionParams) -> Tensor:
    """(c_vid, H, W), (c_vid, T, H, W) or (B, c_vid, T, H, W)
    -> (c_aud, n_aud), with B leading if v has it.

    A time axis is mean-pooled first. Spatial dims are flattened and
    mapped by the shared linear layer, then channels are mixed 1x1.
    """
    if v.data.ndim not in (3, 4, 5):
        raise ShapeError(f"video_to_audio: expected 3-D to 5-D, got {v.shape}")
    h, w = v.shape[-2:]
    if h * w != p.w.shape[0]:
        raise ShapeError(
            f"video_to_audio: spatial size {h}x{w} does not match "
            f"projection input {p.w.shape[0]}"
        )
    if v.data.ndim > 3:
        v = v.mean_axis(-3)                             # (..., c, H, W)
    flat = v.reshape(v.shape[:-2] + (h * w,))
    seq = linear(flat, p.w, p.b)                        # (..., c, n_aud)
    return conv1x1_channels(seq, p.mix, axis=-2)        # (..., c_aud, n_aud)


def audio_to_video(a: Tensor, p: ProjectionParams, h: int, w: int) -> Tensor:
    """(c_aud, n_aud) -> (c_vid, H, W) via linear n_aud -> H*W and 1x1 mix,
    with B leading if a has it."""
    if a.data.ndim not in (2, 3):
        raise ShapeError(f"audio_to_video: expected 2-D or 3-D, got {a.shape}")
    if a.shape[-1] != p.w.shape[0]:
        raise ShapeError(
            f"audio_to_video: sequence length {a.shape[-1]} does not match "
            f"projection input {p.w.shape[0]}"
        )
    if p.w.shape[1] != h * w:
        raise ShapeError(
            f"audio_to_video: projection output {p.w.shape[1]} != {h}x{w}"
        )
    flat = linear(a, p.w, p.b)                          # (..., c_aud, H*W)
    mixed = conv1x1_channels(flat, p.mix, axis=-2)      # (..., c_vid, H*W)
    return mixed.reshape(mixed.shape[:-1] + (h, w))


def embed_video_context(frames: Tensor, p: VideoEmbedderParams) -> Tensor:
    """(3, n, H, W) -> (2, n_aud), with B leading if frames has it:
    residual stack, time mean-pool, projection."""
    if frames.data.ndim not in (4, 5):
        raise ShapeError(
            f"embed_video_context: expected 4-D or 5-D, got {frames.shape}")
    x = conv1x1_channels(frames, p.entry, axis=-4)
    for blk in p.blocks:
        x = res_block_3d(x, blk)
    return video_to_audio(x, p.proj)
