"""Audio/video loading, downsampling, and temporal alignment.

Ingestion formats are deliberately codec-free: RIFF WAV for audio and a
JSON manifest pointing at a raw interleaved RGB8 frame file for video.
A one-line ffmpeg transcode produces both from any source container:

    ffmpeg -i in.mp4 -vn -acodec pcm_s16le out.wav
    ffmpeg -i in.mp4 -f rawvideo -pix_fmt rgb24 frames.rgb
"""

from __future__ import annotations

import json
import numbers
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import signal

from .errors import (
    AlignmentError,
    BoundsError,
    FormatError,
    ParameterError,
    UnsupportedError,
)


def _is_int(v) -> bool:
    """An int or numpy integer; a bool is not one."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass
class AudioBuffer:
    """Two-channel amplitude sequence in [-1, 1] plus its sample rate."""
    samples: np.ndarray  # (N, 2) float64
    sample_rate: int

    def __post_init__(self):
        x = np.asarray(self.samples)
        if x.ndim != 2 or x.shape[1] != 2:
            raise FormatError(f"audio samples must be (N, 2), got {x.shape}")
        if self.sample_rate <= 0:
            raise ParameterError("sample_rate must be positive")
        # phrased so that NaN, which fails every comparison, is rejected too;
        # checked before the cast, which warns on a float32 signalling NaN
        if x.size and not (x.min() >= -1.0 and x.max() <= 1.0):
            raise FormatError("audio amplitudes must be finite and lie in [-1, 1]")
        self.samples = x.astype(np.float64, copy=False)

    def __len__(self):
        return self.samples.shape[0]


@dataclass
class VideoClip:
    """Frame sequence (F, 3, H, W) with values in [0, 1] plus frame rate."""
    frames: np.ndarray
    frame_rate: int

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 4 or self.frames.shape[1] != 3:
            raise FormatError(
                f"video frames must be (F, 3, H, W), got {self.frames.shape}"
            )
        if self.frames.shape[0] < 1:
            raise FormatError("video must contain at least one frame")
        if min(self.frames.shape[2:]) < 1:
            raise FormatError(
                f"video frames must be at least 1x1, got {self.frames.shape}")
        if self.frame_rate <= 0:
            raise ParameterError("frame_rate must be positive")
        if not (self.frames.min() >= 0.0 and self.frames.max() <= 1.0):
            raise FormatError("pixel values must be finite and lie in [0, 1]")

    @property
    def frame_count(self):
        return self.frames.shape[0]


@dataclass
class AlignedAV:
    """Audio and video cut so that frame_count * spf == audio length exactly."""
    audio: AudioBuffer
    video: VideoClip
    spf: int

    def __post_init__(self):
        if self.audio.sample_rate != self.video.frame_rate * self.spf:
            raise AlignmentError(
                f"spf {self.spf} inconsistent with rates "
                f"{self.audio.sample_rate}/{self.video.frame_rate}"
            )
        if len(self.audio) % self.spf != 0:
            raise AlignmentError("audio length is not a multiple of spf")
        if self.video.frame_count * self.spf != len(self.audio):
            raise AlignmentError(
                f"{self.video.frame_count} frames x spf {self.spf} "
                f"!= {len(self.audio)} samples"
            )


@dataclass
class ContextWindow:
    """Zero-padded (audio context, video context, target) for one step, or
    for a batch of steps with a leading axis on each (``stack_windows``)."""
    audio_ctx: np.ndarray   # (A, 2)
    video_ctx: np.ndarray   # (n, 3, H, W)
    target: np.ndarray      # (2,) or (spf, 2)
    frame_index: int | tuple


# -- WAV --------------------------------------------------------------------


def load_wav(path) -> AudioBuffer:
    """Read a RIFF WAV file: PCM 16-bit or IEEE-float 32-bit, 1-2 channels.

    Mono is duplicated to two channels; 16-bit PCM is scaled by 1/32768.
    """
    raw = read_input(path)
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (csize,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8: pos + 8 + csize]
        if len(body) < csize:
            raise FormatError(
                f"{path}: {cid.decode('latin-1').strip()} chunk truncated: "
                f"declares {csize} bytes, file holds {len(body)}")
        if cid == b"fmt ":
            if csize < 16:
                raise FormatError(f"{path}: fmt chunk shorter than 16 bytes")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data = body
        pos += 8 + csize + (csize & 1)
    if fmt is None or data is None:
        raise FormatError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedError(f"{path}: {channels} channels not supported")
    codecs = {(1, 16): ("<i2", 1 / 32768.0), (3, 32): ("<f4", 1.0)}
    if (audio_format, bits) not in codecs:
        raise UnsupportedError(
            f"{path}: format tag {audio_format} / {bits}-bit not supported"
        )
    dtype, scale = codecs[audio_format, bits]
    if len(data) % (bits // 8) != 0:
        raise FormatError(f"{path}: data chunk not a whole number of samples")
    x = np.frombuffer(data, dtype=dtype)
    # checked before the cast: a signalling NaN warns when cast to float64
    if not np.isfinite(x).all():
        raise FormatError(f"{path}: float samples must be finite")
    x = x.astype(np.float64) * scale
    if x.size % channels != 0:
        raise FormatError(f"{path}: data chunk not a whole number of frames")
    x = x.reshape(-1, channels)
    if channels == 1:
        x = np.repeat(x, 2, axis=1)
    x = np.clip(x, -1.0, 1.0)
    return AudioBuffer(samples=x, sample_rate=rate)


# -- raw-RGB clip manifest ---------------------------------------------------


def _read_manifest(path, fields: tuple) -> dict:
    """The JSON object at ``path``, which must hold every one of ``fields``."""
    try:
        meta = json.loads(read_input(path))
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise FormatError(f"{path}: unreadable manifest ({e})") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    for field in fields:
        if field not in meta:
            raise FormatError(f"{path}: missing field {field!r}")
    return meta


def load_clip(manifest_path) -> VideoClip:
    """Read a clip manifest (JSON) and its raw RGB8 frame file.

    Manifest fields: frames_file, width, height, frame_count, frame_rate.
    frames_file is interleaved RGB8, frame-major, resolved relative to the
    manifest's directory.
    """
    mpath = Path(manifest_path)
    meta = _read_manifest(mpath, ("frames_file", "width", "height",
                                  "frame_count", "frame_rate"))
    if not isinstance(meta["frames_file"], str):
        raise FormatError(f"{manifest_path}: frames_file must be a string")
    for field in ("width", "height", "frame_count", "frame_rate"):
        v = meta[field]
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise FormatError(f"{manifest_path}: {field} must be a "
                              f"positive integer, got {v!r}")
    f, h, w = meta["frame_count"], meta["height"], meta["width"]
    raw = read_input(mpath.parent / meta["frames_file"])
    expected = f * 3 * h * w
    if len(raw) != expected:
        raise FormatError(
            f"{meta['frames_file']}: {len(raw)} bytes, expected {expected} "
            f"for frame_count={f} {w}x{h}"
        )
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(f, h, w, 3)
    frames = arr.transpose(0, 3, 1, 2).astype(np.float64) / 255.0
    return VideoClip(frames=frames, frame_rate=meta["frame_rate"])


# -- resampling --------------------------------------------------------------


def downsample_audio(a: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Integer-factor decimation after a 4th-order low-pass at 0.45*target.

    The IIR filter runs forward only, so the output preserves DC but is not
    zero-phase. Decimation keeps every ``factor``-th sample starting at 0.
    """
    if target_rate <= 0 or a.sample_rate % target_rate != 0:
        raise ParameterError(
            f"target rate {target_rate} does not divide sample rate "
            f"{a.sample_rate}"
        )
    factor = a.sample_rate // target_rate
    if factor == 1:
        return AudioBuffer(samples=a.samples.copy(), sample_rate=a.sample_rate)
    wn = 0.45 * target_rate / (a.sample_rate / 2.0)
    b, coef_a = signal.butter(4, wn)
    filtered = signal.lfilter(b, coef_a, a.samples, axis=0)
    out = np.clip(filtered[::factor], -1.0, 1.0)
    return AudioBuffer(samples=out, sample_rate=target_rate)


def resize_frames(v: VideoClip, h: int, w: int) -> VideoClip:
    """Bilinear per-frame resize with half-pixel sample centers."""
    if not (_is_int(h) and _is_int(w)) or h < 1 or w < 1:
        raise ParameterError(
            f"target size must be ints >= 1, got {h!r} x {w!r}")
    f, c, hi, wi = v.frames.shape

    def axis_weights(n_in, n_out):
        src = (np.arange(n_out) + 0.5) * n_in / n_out - 0.5
        src = np.clip(src, 0, n_in - 1)
        i0 = np.floor(src).astype(int)
        i1 = np.minimum(i0 + 1, n_in - 1)
        t = src - i0
        return i0, i1, t

    y0, y1, ty = axis_weights(hi, h)
    x0, x1, tx = axis_weights(wi, w)
    fr = v.frames
    top = fr[:, :, y0][:, :, :, x0] * (1 - tx) + fr[:, :, y0][:, :, :, x1] * tx
    bot = fr[:, :, y1][:, :, :, x0] * (1 - tx) + fr[:, :, y1][:, :, :, x1] * tx
    out = top * (1 - ty[:, None]) + bot * ty[:, None]
    return VideoClip(frames=np.clip(out, 0.0, 1.0), frame_rate=v.frame_rate)


# -- alignment ---------------------------------------------------------------


def align(a: AudioBuffer, v: VideoClip) -> AlignedAV:
    """Cut audio and video to an exact integer samples-per-frame relation.

    Audio is truncated to a multiple of spf, video to the matching frame
    count; both truncations drop the tail and keep the prefix unchanged.
    """
    if a.sample_rate % v.frame_rate != 0:
        raise AlignmentError(
            f"sample rate {a.sample_rate} not divisible by frame rate "
            f"{v.frame_rate}"
        )
    spf = a.sample_rate // v.frame_rate
    clipped_len = len(a) - (len(a) % spf)
    frames_needed = clipped_len // spf
    if frames_needed > v.frame_count:
        raise AlignmentError(
            f"audio needs {frames_needed} frames but clip has {v.frame_count}"
        )
    audio = AudioBuffer(samples=a.samples[:clipped_len], sample_rate=a.sample_rate)
    video = VideoClip(frames=v.frames[:frames_needed], frame_rate=v.frame_rate)
    return AlignedAV(audio=audio, video=video, spf=spf)


def sample_window(d: AlignedAV, frame_index: int, audio_ctx_len: int,
                  video_ctx_len: int, target_kind: str = "sample",
                  sample_offset: int = 0) -> ContextWindow:
    """Cut one zero-padded training/generation window out of an aligned pair.

    The audio context holds the ``audio_ctx_len`` samples immediately before
    the target position; the video context holds frames
    [frame_index - n + 1 .. frame_index]. Missing history is zero padding.
    """
    for name, v in (("frame_index", frame_index),
                    ("audio_ctx_len", audio_ctx_len),
                    ("video_ctx_len", video_ctx_len),
                    ("sample_offset", sample_offset)):
        if not _is_int(v):
            raise ParameterError(f"{name} must be an int, got {v!r}")
    F = d.video.frame_count
    if not 0 <= frame_index < F:
        raise BoundsError(f"frame_index {frame_index} out of range [0, {F})")
    if target_kind not in ("sample", "frame_sequence"):
        raise ParameterError(f"unknown target kind {target_kind!r}")
    if audio_ctx_len < 0 or video_ctx_len < 0:
        raise ParameterError(
            f"context lengths must be >= 0, got audio {audio_ctx_len} and "
            f"video {video_ctx_len}")
    if target_kind == "sample":
        if not 0 <= sample_offset < d.spf:
            raise BoundsError(
                f"sample_offset {sample_offset} out of range [0, {d.spf})"
            )
        pos = frame_index * d.spf + sample_offset
        target = d.audio.samples[pos].copy()
    else:
        pos = frame_index * d.spf
        target = d.audio.samples[pos: pos + d.spf].copy()

    return ContextWindow(
        audio_ctx=left_context(d.audio.samples, pos, audio_ctx_len),
        video_ctx=left_context(d.video.frames, frame_index + 1, video_ctx_len),
        target=target, frame_index=frame_index)


def stack_windows(windows) -> ContextWindow:
    """One window whose arrays hold the given windows along a leading batch
    axis, in order; ``frame_index`` is the tuple of their frame indices."""
    return ContextWindow(
        audio_ctx=np.stack([w.audio_ctx for w in windows]),
        video_ctx=np.stack([w.video_ctx for w in windows]),
        target=np.stack([w.target for w in windows]),
        frame_index=tuple(w.frame_index for w in windows))


def left_context(seq: np.ndarray, end: int, length: int) -> np.ndarray:
    """The ``length`` rows of ``seq`` before index ``end``, left-zero-padded."""
    ctx = np.zeros((length,) + seq.shape[1:], dtype=np.float64)
    lo = max(0, end - length)
    ctx[length - (end - lo):] = seq[lo:end]
    return ctx


# -- dataset container -------------------------------------------------------

_DS_MAGIC = b"FGDS"
_DS_VERSION = 1


@dataclass
class Dataset:
    """An aligned pair plus its time-ordered train/validation split."""
    av: AlignedAV
    train_fraction: float

    def __post_init__(self):
        # phrased so that NaN, which fails every comparison, is rejected too
        if not 0.0 <= self.train_fraction <= 1.0:
            raise ParameterError(
                f"train_fraction {self.train_fraction} outside [0, 1]")

    @property
    def split_frame(self) -> int:
        return int(self.av.video.frame_count * self.train_fraction)

    def train_frames(self) -> range:
        return range(0, self.split_frame)

    def val_frames(self) -> range:
        return range(self.split_frame, self.av.video.frame_count)


def save_dataset(ds: Dataset, path) -> None:
    """Write the dataset intermediate: binary header + aligned arrays."""
    a = ds.av.audio
    v = ds.av.video
    frames_u8 = np.round(v.frames * 255.0).astype(np.uint8)
    audio_f32 = a.samples.astype("<f4")
    header = struct.pack(
        "<4sIIIIIIId",
        _DS_MAGIC, _DS_VERSION,
        a.sample_rate, v.frame_rate, ds.av.spf,
        v.frame_count, v.frames.shape[2], v.frames.shape[3],
        ds.train_fraction,
    )
    with replacing_file(path) as f:
        f.write(header)
        f.write(audio_f32.tobytes())
        f.write(frames_u8.tobytes())


@contextmanager
def replacing_file(path):
    """A temp file beside ``path`` that replaces it once fully written."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
            # on disk before the rename, so a crash cannot swap in a stub
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_input(path) -> bytes:
    """The bytes of an input file; a missing or unreadable one is a FormatError."""
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise FormatError(f"{path}: cannot read: {e.strerror or e}") from None


def load_dataset(path) -> Dataset:
    raw = read_input(path)
    hsize = struct.calcsize("<4sIIIIIIId")
    if len(raw) < hsize:
        raise FormatError(f"{path}: truncated dataset header")
    magic, version, rate, fps, spf, F, H, W, frac = struct.unpack_from(
        "<4sIIIIIIId", raw, 0
    )
    if magic != _DS_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != _DS_VERSION:
        raise UnsupportedError(f"{path}: dataset version {version}")
    n_samples = F * spf
    audio_bytes = n_samples * 2 * 4
    frame_bytes = F * 3 * H * W
    if len(raw) != hsize + audio_bytes + frame_bytes:
        raise FormatError(
            f"{path}: size {len(raw)} != expected {hsize + audio_bytes + frame_bytes}"
        )
    audio = np.frombuffer(raw, dtype="<f4", count=n_samples * 2,
                          offset=hsize).reshape(-1, 2)
    frames = np.frombuffer(raw, dtype=np.uint8, count=frame_bytes,
                           offset=hsize + audio_bytes)
    frames = frames.reshape(F, 3, H, W).astype(np.float64) / 255.0
    try:
        av = AlignedAV(
            audio=AudioBuffer(samples=audio, sample_rate=rate),
            video=VideoClip(frames=frames, frame_rate=fps),
            spf=spf,
        )
        return Dataset(av=av, train_fraction=frac)
    except (FormatError, ParameterError) as e:
        raise FormatError(f"{path}: {e}") from None


def ingest(paired_manifest_path, target_rate: int = 8820,
           height: int = 36, width: int = 64) -> Dataset:
    """Run the full pipeline on a paired-clip manifest.

    Manifest fields: clip_manifest, wav_path, train_fraction. Paths resolve
    relative to the manifest's directory.
    """
    mpath = Path(paired_manifest_path)
    meta = _read_manifest(mpath, ("clip_manifest", "wav_path",
                                  "train_fraction"))
    for field in ("clip_manifest", "wav_path"):
        if not isinstance(meta[field], str):
            raise FormatError(
                f"{paired_manifest_path}: {field} must be a string")
    frac = meta["train_fraction"]
    if isinstance(frac, bool) or not isinstance(frac, (int, float)):
        raise FormatError(f"{paired_manifest_path}: train_fraction must be "
                          f"a number, got {frac!r}")
    audio = load_wav(mpath.parent / meta["wav_path"])
    video = load_clip(mpath.parent / meta["clip_manifest"])
    audio = downsample_audio(audio, target_rate)
    video = resize_frames(video, height, width)
    av = align(audio, video)
    return Dataset(av=av, train_fraction=float(frac))
