import builtins
import json
import math
import struct

import numpy as np

from foleygen.avio import (
    AlignedAV,
    AudioBuffer,
    Dataset,
    VideoClip,
    save_dataset,
)
from foleygen.engine import Tensor, backward, conv3d
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


# One config per ModelConfig size rule, each breaking that rule alone
# (on a tiny wavenet's other fields where a checkpoint is rewritten).
BAD_MODEL_SIZES = [
    *({name: 0} for name in (
        "audio_ctx_len", "video_ctx_len", "spf", "frame_h", "frame_w",
        "embed_channels", "fusion_kernel", "fusion_video_channels",
        "wn_kernel", "wn_channels", "ff_hidden", "pos_table_len",
        "fusion_blocks")),
    {"ff_hidden": -1},
    {"wn_dilations": [1, 0]},
    {"embed_blocks": -1},
    {"wn_rounds": -1},
    {"tf_blocks": -1},
    # strided_embed: 3 samples -> 1 -> 0 tokens
    {"kind": "transformer", "audio_ctx_len": 3, "strided_schedule": [2, 2]},
    # raw_short: 16 tokens, one more than the cap
    {"kind": "transformer", "ctx_mode": "raw_short", "audio_ctx_len": 16,
     "pos_table_len": 15},
]


def bad_size_id(fields: dict) -> str:
    return "-".join(f"{k}={v}" for k, v in fields.items() if k != "kind")


def rewrite_config(path, fields: dict) -> None:
    """Put ``fields`` into the model config of the checkpoint at ``path``."""
    raw = path.read_bytes()
    (clen,) = struct.unpack_from("<I", raw, 8)
    config = {**json.loads(raw[12:12 + clen]), **fields}
    text = json.dumps(config).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(text)) + text
                     + raw[12 + clen:])


def rewrite_table(path, edit) -> None:
    """Replace the tensor table and payload of the checkpoint at ``path``
    with ``edit(table, payload)``."""
    raw = path.read_bytes()
    (clen,) = struct.unpack_from("<I", raw, 8)
    head = 12 + clen
    (tlen,) = struct.unpack_from("<I", raw, head)
    table, payload = edit(json.loads(raw[head + 4:head + 4 + tlen]),
                          raw[head + 4 + tlen:])
    text = json.dumps(table).encode()
    path.write_bytes(raw[:head] + struct.pack("<I", len(text)) + text
                     + payload)


def save_with_both_front_ends(config: ModelConfig, path) -> None:
    """Save a transformer together with the token front-end its ctx_mode
    does not read, as earlier versions built and saved both: its rows
    follow the model's own in the table, its zeros follow the payload."""
    save_checkpoint(build_model(config, seed=0), path)
    dm = config.d_model
    if config.ctx_mode == "strided_embed":
        unread = {"lift_w": (2, dm), "lift_b": (dm,)}
    else:
        unread = {f"strided.{i}": (dm, 2 if i == 0 else dm, 2)
                  for i in range(len(config.strided_schedule))}
    rewrite_table(path, lambda table, payload: (
        table + [[name, list(shape)] for name, shape in unread.items()],
        payload + bytes(4 * sum(math.prod(s) for s in unread.values()))))


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


def save_zero_size_dataset(path, axis: str) -> None:
    """A dataset file whose header declares frames of height or width 0,
    with the audio it declares and no pixel bytes."""
    save_dataset(make_dataset(frames=4, spf=2), path)
    raw = bytearray(path.read_bytes())
    field = {"height": "<4sIIIIII", "width": "<4sIIIIIII"}[axis]
    struct.pack_into("<I", raw, struct.calcsize(field) - 4, 0)
    audio_bytes = 4 * 2 * 2 * 4
    path.write_bytes(bytes(raw[:struct.calcsize("<4sIIIIIIId") + audio_bytes]))


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


def conv3d_per_tap(x, k, g, stride, padding):
    """The original per-tap conv3d: forward, input and kernel gradients.

    One einsum per kernel tap in each direction. Kept as the reference the
    im2col implementation is checked against; g is the output gradient.
    """
    co, ci, kt, kh, kw = k.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    dims = x.shape[1:]
    To, Ho, Wo = [(d + 2 * p - kk) // s + 1
                  for d, kk, s, p in zip(dims, (kt, kh, kw), stride, padding)]
    xp = np.pad(x, ((0, 0), (pt, pt), (ph, ph), (pw, pw)))
    y = np.zeros((co, To, Ho, Wo))
    gk = np.zeros_like(k)
    gxp = np.zeros_like(xp)
    for a in range(kt):
        for b in range(kh):
            for c in range(kw):
                sl = (slice(None), slice(a, a + st * To, st),
                      slice(b, b + sh * Ho, sh), slice(c, c + sw * Wo, sw))
                y += np.einsum("oc,cthw->othw", k[:, :, a, b, c], xp[sl])
                gk[:, :, a, b, c] += np.einsum("othw,cthw->oc", g, xp[sl])
                gxp[sl] += np.einsum("oc,othw->cthw", k[:, :, a, b, c], g)
    gx = gxp[:, pt: pt + dims[0], ph: ph + dims[1], pw: pw + dims[2]]
    return y, gx, gk


def conv3d_with_grads(x, k, g, stride, padding):
    xt = Tensor(x, requires_grad=True)
    kt = Tensor(k, requires_grad=True)
    y = conv3d(xt, kt, stride, padding)
    backward((y * Tensor(g)).sum())
    return y.data, xt.grad, kt.grad
