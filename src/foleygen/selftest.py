"""Built-in verification suites: gradients, causality, alignment.

Runs quickly enough for a CLI smoke check; the pytest suite covers the
same ground with more cases.
"""

from __future__ import annotations

import numpy as np

from .avio import AudioBuffer, VideoClip, align, sample_window
from .engine import (
    AttentionParams,
    Tensor,
    causal_residual,
    conv1d_causal,
    conv3d,
    grad_check,
    linear,
    multi_head_attention,
)
from .models import ModelConfig, build_model, wavenet_receptive_field


def _tiny_wavenet_config():
    return ModelConfig(kind="wavenet", audio_ctx_len=16, video_ctx_len=2,
                       spf=4, frame_h=4, frame_w=4, embed_channels=2,
                       embed_blocks=1, wn_channels=3, wn_dilations=(1, 2),
                       wn_rounds=1)


def _gradient_suite(rng) -> list:
    failures = []
    x = Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, 3), requires_grad=True)
    err = grad_check(lambda x, w, b: linear(x, w, b).sum(), [x, w, b])
    if err >= 1e-4:
        failures.append(f"linear grad error {err:.2e}")

    x = Tensor(rng.uniform(-2, 2, (2, 8)), requires_grad=True)
    k = Tensor(rng.uniform(-2, 2, (2, 2, 3)), requires_grad=True)
    err = grad_check(lambda x, k: conv1d_causal(x, k, 2).sum(), [x, k])
    if err >= 1e-4:
        failures.append(f"conv1d_causal grad error {err:.2e}")

    err = grad_check(lambda x, k: (causal_residual(x, k, 2) ** 2).sum(),
                     [x, k])
    if err >= 1e-3:
        failures.append(f"causal_residual grad error {err:.2e}")

    # conv3d and attention also with a leading batch axis of 2 items
    for batch in ((), (2,)):
        x = Tensor(rng.uniform(-2, 2, batch + (2, 3, 4, 4)), requires_grad=True)
        k = Tensor(rng.uniform(-2, 2, (2, 2, 2, 2, 2)), requires_grad=True)
        err = grad_check(
            lambda x, k: (conv3d(x, k, (1, 2, 2), (0, 1, 1)) ** 2).sum(),
            [x, k])
        if err >= 1e-4:
            failures.append(f"conv3d grad error {err:.2e} at batch {batch}")

        d, h = 4, 2
        ap = AttentionParams(
            *(Tensor(rng.uniform(-1, 1, (d, d)), requires_grad=True)
              for _ in range(4)),
            *(Tensor(rng.uniform(-1, 1, d), requires_grad=True)
              for _ in range(3)),
            heads=h,
        )
        x = Tensor(rng.uniform(-1, 1, batch + (3, d)), requires_grad=True)
        inputs = [t for name, t in vars(ap).items() if name != "heads"]
        err = grad_check(
            lambda x, *ts: (multi_head_attention(x, ap, causal_mask=True)
                            ** 2).sum(),
            [x, *inputs],
        )
        if err >= 1e-4:
            failures.append(f"attention grad error {err:.2e} at batch {batch}")
    return failures


def _causality_suite(rng) -> list:
    failures = []
    cfg = _tiny_wavenet_config()
    model = build_model(cfg, seed=1)
    rf = wavenet_receptive_field(cfg)
    A = cfg.audio_ctx_len
    # a batch of two windows: only the first item is perturbed
    base = rng.uniform(-0.5, 0.5, (2, 2, A))
    embed = Tensor(rng.uniform(-0.5, 0.5, (2, 2, A)))
    y0 = model.forward_core(Tensor(base), embed).data
    # beyond the receptive field: exactly zero effect
    pert = base.copy()
    pert[0, :, 0] += 0.7
    if A - 1 >= rf:
        y1 = model.forward_core(Tensor(pert), embed).data
        if not np.array_equal(y0, y1):
            failures.append("wavenet output changed outside receptive field")
    # inside: must change, and only in the perturbed item
    pert = base.copy()
    pert[0, :, -1] += 0.7
    y2 = model.forward_core(Tensor(pert), embed).data
    if np.array_equal(y0[0], y2[0]):
        failures.append("wavenet output ignored an in-field perturbation")
    if not np.array_equal(y0[1], y2[1]):
        failures.append("a perturbation reached another item of the batch")
    return failures


def _alignment_suite(rng, cases: int = 200) -> list:
    failures = []
    for _ in range(cases):
        fps = int(rng.integers(1, 8))
        spf = int(rng.integers(1, 12))
        rate = fps * spf
        frames = int(rng.integers(1, 12))
        extra = int(rng.integers(0, spf))
        n_samples = frames * spf + extra if frames * spf + extra > 0 else spf
        audio = AudioBuffer(
            samples=rng.uniform(-1, 1, (n_samples, 2)), sample_rate=rate)
        video = VideoClip(
            frames=rng.uniform(0, 1, (frames + 2, 3, 2, 2)), frame_rate=fps)
        d = align(audio, video)
        ok = (
            d.spf == spf
            and len(d.audio) % d.spf == 0
            and d.video.frame_count * d.spf == len(d.audio)
        )
        if not ok:
            failures.append(f"alignment invariant broken for rate={rate} fps={fps}")
            break
        if d.video.frame_count:
            w = sample_window(d, 0, 5, 3, "sample", 0)
            if w.audio_ctx.shape != (5, 2) or np.any(w.audio_ctx):
                failures.append("frame-0 audio context is not all zeros")
                break
    return failures


def run(verbose: bool = False) -> int:
    rng = np.random.default_rng(7)
    suites = [
        ("gradients", _gradient_suite(rng)),
        ("causality", _causality_suite(rng)),
        ("alignment", _alignment_suite(rng)),
    ]
    failed = False
    for name, failures in suites:
        status = "ok" if not failures else "FAIL"
        if verbose:
            print(f"selftest {name}: {status}")
            for msg in failures:
                print(f"  - {msg}")
        failed = failed or bool(failures)
    return 1 if failed else 0
