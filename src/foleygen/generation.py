"""Autoregressive audio generation with a frozen per-frame video context.

The rolling audio context contains only previously generated samples, never
ground truth. Each frame's video window is embedded exactly once and reused
for that frame's model steps: spf steps of one sample in sample mode, one
step of spf samples in sequence mode. Nothing is differentiated, so the
loop runs under ``engine.no_grad`` and records no tape.
"""

from __future__ import annotations

import struct

import numpy as np

from .avio import AudioBuffer, VideoClip, _is_int, left_context
from .engine import Tensor, no_grad
from .errors import ContractError, ParameterError
from .models import Model, dequantize


def generate(model: Model, video: VideoClip, total_frames: int | None = None) -> AudioBuffer:
    """Generate audio for a clip; output length is total_frames * spf."""
    cfg = model.config
    if total_frames is not None and not _is_int(total_frames):
        raise ParameterError(
            f"total_frames must be an int or None, got {total_frames!r}")
    frames = video.frame_count if total_frames is None else total_frames
    if frames < 1:
        raise ContractError("need at least one frame to generate for")
    if frames > video.frame_count:
        raise ContractError(
            f"requested {frames} frames but clip has {video.frame_count}"
        )
    spf, step, dt = cfg.spf, model.step_samples, model.dtype
    out = np.zeros((frames * spf, 2), dtype=np.float64)
    with no_grad():
        for f in range(frames):
            frame_ctx = model.embed(left_context(video.frames, f + 1,
                                                 cfg.video_ctx_len))
            for pos in range(f * spf, (f + 1) * spf, step):
                audio = Tensor(left_context(out, pos, cfg.audio_ctx_len).T,
                               dtype=dt)
                y = model.forward_core(audio, frame_ctx).data
                if model.quantized:
                    y = dequantize(np.argmax(y, axis=-1))
                out[pos:pos + step] = y.reshape(2, step).T
    out = np.clip(out, -1.0, 1.0)
    return AudioBuffer(samples=out, sample_rate=video.frame_rate * spf)


# -- WAV output ---------------------------------------------------------------


def write_wav(a: AudioBuffer, path) -> None:
    """Write 16-bit PCM stereo WAV; sample s encodes as round(s * 32767)."""
    pcm = np.rint(a.samples * 32767.0).astype("<i2")
    data = pcm.tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, 2, a.sample_rate, a.sample_rate * 4, 4, 16,
        b"data", len(data),
    )
    with open(path, "wb") as f:
        f.write(hdr)
        f.write(data)


def write_waveform_csv(a: AudioBuffer, path) -> None:
    """Dump the raw waveform as CSV rows (index, left, right)."""
    # the csv module's format: no field needs quoting, rows end in CRLF
    with open(path, "w", newline="") as f:
        f.write("index,left,right\r\n")
        f.write("".join(f"{i},{l!r},{r!r}\r\n"
                        for i, (l, r) in enumerate(a.samples.tolist())))


# -- diagnostics --------------------------------------------------------------


def frame_boundary_discontinuity(a: AudioBuffer, spf: int) -> float:
    """Ratio of frame-boundary jumps to overall sample-to-sample movement.

    score = mean_k |x[k*spf] - x[k*spf-1]| / (mean_t |x[t] - x[t-1]| + 1e-12)
    over both channels. A score near 1 means boundaries are no rougher than
    the rest of the signal; large scores flag the per-frame stitching artifact.
    """
    if spf < 1:
        raise ParameterError(f"spf must be >= 1, got {spf}")
    x = a.samples
    if len(x) % spf != 0:
        raise ContractError(f"length {len(x)} not divisible by spf {spf}")
    frames = len(x) // spf
    if frames < 2:
        raise ContractError("need at least 2 frames to measure boundaries")
    diffs = np.abs(np.diff(x, axis=0))                 # (N-1, 2)
    boundary_idx = np.arange(1, frames) * spf - 1      # diff x[k*spf]-x[k*spf-1]
    boundary = diffs[boundary_idx].mean()
    overall = diffs.mean()
    return float(boundary / (overall + 1e-12))
