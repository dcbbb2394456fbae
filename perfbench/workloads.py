"""The benchmark's workloads and the seeded synthetic-clap source they ingest.

Every workload renders the same kind of clip: flashing frames paired with
10-ms click pairs, as in the synthetic-clap acceptance test. The seed picks
which frame of each pair flashes and where in each flashing frame the click
pair falls. Audio is written as 44.1-kHz 16-bit stereo WAV and
video as a raw-RGB8 clip, then ingested at 8,820 Hz (spf 294).
"""

from __future__ import annotations

import json
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SOURCE_RATE = 44100
TARGET_RATE = 8820
FPS = 30
CLICK_S = 0.010
MODEL_SEED = 3      # as in the synthetic-clap acceptance test
TRAIN_SEED = 0
LR = 1e-3
LOSS_KIND = "xent_bernoulli"


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int                 # clip length in frames
    source_hw: tuple            # (height, width) of the raw-RGB source
    frame_hw: tuple             # (height, width) after ingest
    model: dict                 # ModelConfig fields besides spf and frame size
    # leaves a validation split of a few frames (12, 9), which the capped
    # eval windows of a sample-mode model visit more than once
    train_fraction: float
    batch: int
    steps: int                  # train steps per episode
    loss_tail: int              # train_loss_final averages this many last steps
    eval_windows: int
    gen_frames: int
    why: str = ""
    not_expected: frozenset = field(default_factory=frozenset)


_CLICK = int(CLICK_S * TARGET_RATE)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="clap-tiny",
        why="tiny transformer of the clap acceptance test: interpreter- and "
            "tape-bound train and per-sample generation loops",
        frames=120, source_hw=(8, 8), frame_hw=(8, 8),
        model=dict(kind="transformer", ctx_mode="raw_short",
                   audio_ctx_len=_CLICK, video_ctx_len=2, embed_channels=2,
                   embed_blocks=1, d_model=16, heads=2, tf_blocks=1,
                   ff_hidden=32, pos_table_len=128),
        train_fraction=0.9, batch=2, steps=200, loss_tail=100,
        eval_windows=100, gen_frames=2,
        not_expected=frozenset({
            "engine.conv1d_causal", "engine.conv1d_strided",
            "crossmodal.audio_to_video", "models.deep_fusion_forward"}),
    ),
    Workload(
        name="paper-wavenet",
        why="paper-size frames, default embedder and wavenet: conv3d-bound "
            "training plus a per-sample generation loop",
        frames=450, source_hw=(180, 320), frame_hw=(36, 64),
        model=dict(kind="wavenet"),
        train_fraction=0.98, batch=4, steps=2, loss_tail=2,
        eval_windows=12, gen_frames=2,
        not_expected=frozenset({
            "engine.attention", "engine.conv1d_strided",
            "crossmodal.audio_to_video", "models.deep_fusion_forward"}),
    ),
    Workload(
        name="paper-fusion",
        why="paper-size frames, default deep fusion: largest model, one "
            "forward per generated frame, heaviest checkpoint",
        frames=450, source_hw=(180, 320), frame_hw=(36, 64),
        model=dict(kind="deep_fusion"),
        train_fraction=0.98, batch=4, steps=2, loss_tail=2,
        eval_windows=9, gen_frames=6,
        not_expected=frozenset({
            "engine.attention", "engine.conv1d_strided",
            "crossmodal.embed_video_context", "models.forward_core",
            "models.embed"}),
    ),
)}


def synthesize_source(w: Workload, seed: int, out_dir: Path) -> Path:
    """Write the seeded WAV, raw-RGB clip and paired manifest; return the latter."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    # one flash in every pair of frames, as in the alternating pattern of
    # the acceptance test: every video context of 3+ frames sees a flash
    flash = np.zeros(w.frames, dtype=bool)
    flash[2 * np.arange(w.frames // 2) + rng.integers(0, 2, w.frames // 2)] = True

    spf = SOURCE_RATE // FPS
    click = int(CLICK_S * SOURCE_RATE)
    ramp = np.rint(np.linspace(0.9, 0.1, click) * 32767).astype("<i2")
    pcm = np.zeros((w.frames * spf, 2), dtype="<i2")
    for f in np.flatnonzero(flash):
        start = f * spf + int(rng.integers(0, spf - 3 * click + 1))
        for s in (start, start + 2 * click):
            pcm[s: s + click] = ramp[:, None]
    with wave.open(str(out_dir / "audio.wav"), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(SOURCE_RATE)
        wf.writeframes(pcm.tobytes())

    h, wd = w.source_hw
    frames = np.zeros((w.frames, h, wd, 3), dtype=np.uint8)
    frames[flash] = 255
    frames.tofile(out_dir / "frames.rgb")
    (out_dir / "clip.json").write_text(json.dumps({
        "frames_file": "frames.rgb", "width": wd, "height": h,
        "frame_count": w.frames, "frame_rate": FPS,
    }))
    manifest = out_dir / "pair.json"
    manifest.write_text(json.dumps({
        "clip_manifest": "clip.json", "wav_path": "audio.wav",
        "train_fraction": w.train_fraction,
    }))
    return manifest
