import builtins

import numpy as np

from foleygen.avio import AlignedAV, AudioBuffer, Dataset, VideoClip
from foleygen.engine import Tensor
from foleygen.models import ModelConfig, build_model, save_checkpoint


def tiny_config(kind: str, **overrides) -> ModelConfig:
    """Sub-5k-parameter configurations used across the test modules."""
    base = dict(
        audio_ctx_len=16, video_ctx_len=2, spf=4, frame_h=4, frame_w=4,
        embed_channels=2, embed_blocks=1,
    )
    if kind == "wavenet":
        base.update(wn_channels=3, wn_dilations=(1, 2), wn_rounds=1)
    elif kind == "transformer":
        base.update(d_model=8, heads=2, tf_blocks=1, ff_hidden=16,
                    strided_schedule=(2, 2), pos_table_len=32)
    elif kind == "deep_fusion":
        base.update(fusion_video_channels=2, fusion_blocks=2)
    base.update(overrides)
    return ModelConfig(kind=kind, **base)


def fill_head(model, seed: int) -> None:
    """Draw the transformer's zero-initialised ``dec_w`` from a seeded rng.

    A zero head makes the output constant and every gradient behind it
    zero, so a test of what reaches the output needs a head that passes
    it on. The scale is the one the other weights get.
    """
    w = model.p.dec_w.data
    w[...] = (np.random.default_rng(seed).standard_normal(w.shape)
              / np.sqrt(w.shape[1]))


def save_with_both_front_ends(config: ModelConfig, path) -> None:
    """Save a transformer together with the token front-end its ctx_mode
    does not read, as earlier versions built and saved both."""
    model = build_model(config, seed=0)
    dm = config.d_model
    if config.ctx_mode == "strided_embed":
        unread = {"lift_w": (2, dm), "lift_b": (dm,)}
    else:
        unread = {f"strided.{i}": (dm, 2 if i == 0 else dm, 2)
                  for i in range(len(config.strided_schedule))}
    for name, shape in unread.items():
        model.params[name] = Tensor(np.zeros(shape))
    save_checkpoint(model, path)


def make_dataset(frames=12, spf=4, h=4, w=4, fps=5, seed=0,
                 train_fraction=0.75, audio=None, video=None) -> Dataset:
    rng = np.random.default_rng(seed)
    if audio is None:
        audio = rng.uniform(-0.9, 0.9, (frames * spf, 2))
    if video is None:
        video = rng.uniform(0, 1, (frames, 3, h, w))
    av = AlignedAV(
        audio=AudioBuffer(samples=audio, sample_rate=fps * spf),
        video=VideoClip(frames=video, frame_rate=fps),
        spf=spf,
    )
    return Dataset(av=av, train_fraction=train_fraction)


def fail_on_nth_write(monkeypatch, module, n: int) -> None:
    """Make the ``n``-th ``write`` on files that ``module`` opens raise OSError."""
    calls = []

    class FailingFile:
        def __init__(self, f):
            self.f = f

        def write(self, data):
            calls.append(len(data))
            if len(calls) == n:
                raise OSError("disk full")
            return self.f.write(data)

        def __getattr__(self, name):
            return getattr(self.f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.f.__exit__(*exc)

    monkeypatch.setattr(module, "open",
                        lambda *a, **k: FailingFile(builtins.open(*a, **k)),
                        raising=False)
