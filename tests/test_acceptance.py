"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
``ACCEPTANCE <n> <name>: PASS/FAIL`` line. The synthetic-clap test is the
slowest (a couple of minutes of CPU training); everything else is fast.
"""

import json
import time
from xml.etree import ElementTree as ET

import numpy as np
import numpy.testing as npt

from foleygen import cli
from foleygen.avio import (
    AlignedAV,
    AudioBuffer,
    Dataset,
    VideoClip,
    align,
    load_wav,
    sample_window,
)
from foleygen.engine import (
    AttentionParams,
    Tensor,
    conv1d_causal,
    conv1d_strided,
    conv1x1_channels,
    conv3d,
    expand_axis,
    grad_check,
    linear,
    multi_head_attention,
    scalar_scale,
)
from foleygen.generation import frame_boundary_discontinuity, generate, write_wav
from foleygen.models import (
    build_model,
    dequantize,
    quantize,
    wavenet_receptive_field,
)
from foleygen.training import TrainConfig, loss, train
from conftest import fill_head, tiny_config


def _verdict(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {name}: {status}" + (f" ({detail})" if detail else ""),
          flush=True)
    assert ok, f"criterion {n} ({name}): {detail}"


def test_1_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0

    def check(fn, inputs):
        nonlocal worst
        worst = max(worst, grad_check(fn, inputs))

    def t(*shape, lo=-2.0, hi=2.0):
        return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)

    check(lambda a, b: (a + b).sum(), [t(3, 4), t(3, 4)])
    check(lambda a, b: (a * b).sum(), [t(3, 4), t(3, 4)])
    check(lambda a: (a ** 3).sum(), [t(5)])
    check(lambda a, b: (a @ b).sum(), [t(3, 4), t(4, 2)])
    check(lambda a: (a.mean() ** 2).sum(), [t(3, 4)])
    check(lambda a: (a.mean_axis(0) ** 2).sum(), [t(3, 4)])
    check(lambda a: (a.reshape(2, 6) ** 2).sum(), [t(3, 4)])
    check(lambda a: (a.transpose((1, 0)) ** 2).sum(), [t(3, 4)])
    check(lambda a: (a[1:, :2] ** 2).sum(), [t(3, 4)])
    check(lambda a: a.tanh().sum(), [t(3, 4)])
    check(lambda a: a.relu().sum(), [t(3, 4, lo=0.1, hi=2.0)])
    check(lambda a: a.log().sum(), [t(3, 4, lo=0.5, hi=2.0)])
    check(lambda a: a.abs().sum(), [t(3, 4, lo=0.2, hi=2.0)])
    check(lambda a: a.clamp(-1.0, 1.0).sum(), [t(3, 4, lo=-0.8, hi=0.8)])
    check(lambda a: (a.softmax_lastdim() ** 2).sum(), [t(3, 4)])
    check(lambda a: a.logsumexp_lastdim().sum(), [t(3, 4)])
    check(lambda a, s: (scalar_scale(a, s) ** 2).sum(), [t(3, 4), t(1)])
    check(lambda a: (expand_axis(a, 1, 3) ** 2).sum(), [t(2, 4)])
    check(lambda x, w, b: linear(x, w, b).sum(), [t(3, 4), t(4, 2), t(2)])
    check(lambda x, k: conv1d_causal(x, k, 2).sum(), [t(2, 8), t(2, 2, 3)])
    check(lambda x, k: conv1d_strided(x, k, 2).sum(), [t(2, 9), t(3, 2, 3)])
    check(lambda x, k: conv3d(x, k).sum(), [t(2, 3, 4, 4), t(2, 2, 3, 1, 3)])
    check(lambda x, k: (conv1x1_channels(x, k) ** 2).sum(), [t(3, 5), t(2, 3)])
    d, h = 4, 2
    ap = AttentionParams(
        *(t(d, d, lo=-1, hi=1) for _ in range(4)),
        *(t(d, lo=-1, hi=1) for _ in range(3)), heads=h)
    att_inputs = [v for name, v in vars(ap).items() if name != "heads"]
    check(lambda x, *ts: multi_head_attention(x, ap).sum(),
          [t(3, d, lo=-1, hi=1), *att_inputs])
    for kind in ("mse", "xent_bernoulli", "xent_paper_literal"):
        target = rng.uniform(-0.8, 0.8, 5)
        check(lambda o, kind=kind, target=target: loss(kind, o, target),
              [t(5, lo=-0.8, hi=0.8)])
    ops_ok = worst < 1e-4
    op_worst = worst

    # full tiny models
    worst = 0.0
    for kind in ("deep_fusion", "wavenet", "transformer"):
        cfg = tiny_config(kind, audio_ctx_len=8, spf=2, video_ctx_len=1)
        m = build_model(cfg, seed=20)
        if kind == "transformer":
            fill_head(m, 20)
        audio = Tensor(rng.uniform(-0.8, 0.8, (2, 8)))
        video = Tensor(rng.uniform(0.1, 0.9, (3, 1, 4, 4)))
        if kind == "deep_fusion":
            from foleygen.models import deep_fusion_forward
            fn = lambda *ts: (deep_fusion_forward(audio, video, m.p) ** 2).sum()
        else:
            def fn(*ts, m=m, audio=audio, video=video):
                from foleygen.crossmodal import embed_video_context
                e = embed_video_context(video, m.embedder)
                return (m.forward_core(audio, e) ** 2).sum()
        check(fn, list(m.params.values()))
    elapsed = time.time() - t0
    _verdict(1, "gradient-suite",
             ops_ok and worst < 1e-3 and elapsed < 120,
             f"ops {op_worst:.2e}, models {worst:.2e}, {elapsed:.1f}s")


def test_2_causality():
    rng = np.random.default_rng(1)
    # wavenet: exact-zero influence outside the receptive field
    cfg = tiny_config("wavenet")
    m = build_model(cfg, seed=1)
    rf = wavenet_receptive_field(cfg)
    layers = [(cfg.wn_kernel, 1)]                       # entry conv
    for _ in range(cfg.wn_rounds):
        layers += [(cfg.wn_kernel, d) for d in cfg.wn_dilations]
    closed_form = 1 + sum((k - 1) * d for k, d in layers)
    A = cfg.audio_ctx_len
    base = rng.uniform(-0.5, 0.5, (2, A))
    embed = Tensor(rng.uniform(-0.5, 0.5, (2, A)))
    y0 = m.forward_core(Tensor(base), embed).data
    outside_ok = True
    for pos in range(A - rf):
        pert = base.copy()
        pert[:, pos] += 0.5
        outside_ok &= np.array_equal(
            y0, m.forward_core(Tensor(pert), embed).data)
    pert = base.copy()
    pert[:, A - 1] += 0.5
    inside_ok = not np.array_equal(
        y0, m.forward_core(Tensor(pert), embed).data)

    # causal-masked attention: future rows have exactly zero influence
    d = 8
    ap = AttentionParams(
        *(Tensor(rng.uniform(-1, 1, (d, d))) for _ in range(4)),
        *(Tensor(rng.uniform(-1, 1, d)) for _ in range(3)), heads=2)
    x = rng.uniform(-1, 1, (6, d))
    a0 = multi_head_attention(Tensor(x), ap).data
    x2 = x.copy()
    x2[5] += 1.0
    a1 = multi_head_attention(Tensor(x2), ap).data
    attn_ok = (np.array_equal(a0[:5], a1[:5])
               and not np.array_equal(a0[5], a1[5]))
    _verdict(2, "causality",
             outside_ok and inside_ok and attn_ok and rf == closed_form,
             f"receptive field {rf}")


def test_3_alignment_properties():
    rng = np.random.default_rng(2)
    ok = True
    for case in range(1000):
        fps = int(rng.integers(1, 9))
        spf = int(rng.integers(1, 14))
        rate = fps * spf
        frames = int(rng.integers(1, 12))
        extra = int(rng.integers(0, spf))
        n = frames * spf + extra
        audio = AudioBuffer(samples=rng.uniform(-1, 1, (n, 2)),
                            sample_rate=rate)
        video = VideoClip(frames=rng.uniform(0, 1, (frames + 2, 3, 2, 2)),
                          frame_rate=fps)
        d = align(audio, video)
        ok &= (d.spf == spf
               and len(d.audio) % d.spf == 0
               and d.video.frame_count * d.spf == len(d.audio)
               and np.array_equal(d.audio.samples, audio.samples[:frames * spf]))
        # padding contract against a straight-line oracle
        A = int(rng.integers(1, 11))
        fi = int(rng.integers(0, d.video.frame_count))
        off = int(rng.integers(0, spf))
        w = sample_window(d, fi, A, 2, "sample", off)
        pos = fi * spf + off
        expected = np.zeros((A, 2))
        lo = max(0, pos - A)
        if pos > 0:
            expected[A - (pos - lo):] = d.audio.samples[lo:pos]
        ok &= np.array_equal(w.audio_ctx, expected)
        ok &= np.array_equal(w.target, d.audio.samples[pos])
        w0 = sample_window(d, 0, 6, 3, "sample", 0)
        ok &= not np.any(w0.audio_ctx)
        if not ok:
            break
    _verdict(3, "alignment-properties", ok, "1000 randomized cases")


def test_4_synthetic_clap_overfit():
    t0 = time.time()
    rate, fps = 8820, 30
    spf = rate // fps                   # 294
    n_frames = 300                      # 10 seconds
    click = int(0.010 * rate)           # 10 ms = 88 samples
    flash = np.zeros(n_frames, dtype=bool)
    flash[1::2] = True
    ramp = np.linspace(0.9, 0.1, click)
    audio = np.zeros((n_frames * spf, 2))
    for f in np.flatnonzero(flash):
        for start in (0, 2 * click):
            audio[f * spf + start: f * spf + start + click] = ramp[:, None]
    video = np.zeros((n_frames, 3, 8, 8))
    video[flash] = 1.0
    ds = Dataset(
        av=AlignedAV(audio=AudioBuffer(samples=audio, sample_rate=rate),
                     video=VideoClip(frames=video, frame_rate=fps), spf=spf),
        train_fraction=1.0,
    )
    from foleygen.models import ModelConfig
    cfg = ModelConfig(kind="transformer", ctx_mode="raw_short",
                      audio_ctx_len=click, video_ctx_len=2, spf=spf,
                      frame_h=8, frame_w=8, embed_channels=2, embed_blocks=1,
                      d_model=16, heads=2, tf_blocks=1, ff_hidden=32,
                      pos_table_len=128)
    model = build_model(cfg, seed=3)
    train(model, ds, TrainConfig(learning_rate=1e-3, steps=20000,
                                 batch_size=2, seed=0, loss_kind="mse"))
    gen_frames = 20
    out = generate(model, ds.av.video, total_frames=gen_frames)
    x = out.samples
    mask = np.repeat(flash[:gen_frames], spf)
    rms_flash = float(np.sqrt(np.mean(x[mask] ** 2)))
    rms_quiet = float(np.sqrt(np.mean(x[~mask] ** 2)))
    ratio = rms_flash / (rms_quiet + 1e-12)
    elapsed = time.time() - t0
    _verdict(4, "synthetic-clap-overfit",
             ratio >= 5.0 and elapsed < 600,
             f"RMS ratio {ratio:.1f}, {elapsed:.0f}s")


def test_5_discontinuity_metric():
    spf, frames = 100, 40
    n = spf * frames
    jumpy = np.zeros(n)
    for k in range(1, frames):
        jumpy[k * spf:] += (-1.0) ** k
    jumpy = np.clip(jumpy, -1, 1)
    score_jump = frame_boundary_discontinuity(
        AudioBuffer(samples=np.stack([jumpy] * 2, axis=1), sample_rate=8820),
        spf)
    t = np.arange(n)
    sine = 0.8 * np.sin(2 * np.pi * t / 37.0)
    score_sine = frame_boundary_discontinuity(
        AudioBuffer(samples=np.stack([sine] * 2, axis=1), sample_rate=8820),
        spf)
    # report the deep-fusion generation path's score (no threshold)
    cfg = tiny_config("deep_fusion", spf=8)
    m = build_model(cfg, seed=5)
    rng = np.random.default_rng(5)
    clip = VideoClip(frames=rng.uniform(0, 1, (6, 3, 4, 4)), frame_rate=5)
    score_df = frame_boundary_discontinuity(generate(m, clip), 8)
    _verdict(5, "discontinuity-metric", score_jump > 10 * score_sine,
             f"jump {score_jump:.1f}, sine {score_sine:.2f}, "
             f"deep-fusion generation {score_df:.3f}")


def test_6_loss_closed_forms():
    ln2 = loss("xent_bernoulli", Tensor([0.0]), np.array([0.0])).data
    mse = loss("mse", Tensor([1.0, -1.0]), np.zeros(2)).data
    mae = loss("mae", Tensor([0.5, -0.25]), np.zeros(2)).data
    neg = loss("xent_paper_literal", Tensor([-0.8]), np.array([0.0])).data
    _verdict(6, "loss-closed-forms",
             abs(ln2 - np.log(2)) <= 1e-12 and mse == 1.0
             and mae == 0.375 and neg < 0.0,
             f"ln2 err {abs(ln2 - np.log(2)):.1e}, literal {neg:.4f}")


def test_7_quantization():
    grid = np.linspace(-1.0, 1.0, 10001)
    err = np.abs(dequantize(quantize(grid)) - grid).max()
    endpoints = (quantize(-1.0) == 0 and quantize(1.0) == 255
                 and dequantize(0) == -1.0 and dequantize(255) == 1.0)
    _verdict(7, "quantization", err <= 1 / 255 + 1e-12 and endpoints,
             f"max round-trip error {err:.6f}")


def _end_to_end(root, seed=11):
    root.mkdir()
    rate, fps, frames = 8820, 30, 16
    spf = rate // fps
    rng = np.random.default_rng(99)     # same source data for both runs
    wav = AudioBuffer(samples=rng.uniform(-0.9, 0.9, (frames * spf, 2)),
                      sample_rate=rate)
    write_wav(wav, root / "clip.wav")
    pixels = rng.integers(0, 256, (frames, 8, 8, 3), dtype=np.uint8)
    (root / "frames.rgb").write_bytes(pixels.tobytes())
    (root / "clip.json").write_text(json.dumps({
        "frames_file": "frames.rgb", "width": 8, "height": 8,
        "frame_count": frames, "frame_rate": fps,
    }))
    (root / "pair.json").write_text(json.dumps({
        "clip_manifest": "clip.json", "wav_path": "clip.wav",
        "train_fraction": 0.75,
    }))
    ds = root / "data.bin"
    assert cli.main(["ingest", "--manifest", str(root / "pair.json"),
                     "--out", str(ds), "--rate", str(rate),
                     "--height", "8", "--width", "8"]) == 0
    (root / "train.json").write_text(json.dumps({
        "learning_rate": 1e-3, "steps": 50, "batch_size": 1, "seed": seed,
        "loss_kind": "mse", "clip_norm": 1.0, "checkpoint_interval": 50,
    }))
    (root / "model.json").write_text(json.dumps({
        "audio_ctx_len": 16, "video_ctx_len": 2, "embed_channels": 2,
        "embed_blocks": 1, "wn_channels": 3, "wn_dilations": [1, 2],
        "wn_rounds": 1,
    }))
    ckpt = root / "model.bin"
    assert cli.main(["train", "--dataset", str(ds),
                     "--config", str(root / "train.json"),
                     "--model", "wavenet",
                     "--model-config", str(root / "model.json"),
                     "--out", str(ckpt)]) == 0
    out_wav = root / "gen.wav"
    assert cli.main(["generate", "--checkpoint", str(ckpt),
                     "--dataset", str(ds), "--out", str(out_wav),
                     "--csv", str(root / "gen.csv"),
                     "--frames", "15"]) == 0       # 0.5 s at 30 fps
    return out_wav


def test_8_determinism(tmp_path):
    wav_a = _end_to_end(tmp_path / "run_a")
    wav_b = _end_to_end(tmp_path / "run_b")
    identical = wav_a.read_bytes() == wav_b.read_bytes()
    audio = load_wav(wav_a)
    length_ok = len(audio) == 15 * 294 and audio.sample_rate == 8820
    range_ok = bool(np.all(np.abs(audio.samples) <= 1.0))
    _verdict(8, "end-to-end-determinism",
             identical and length_ok and range_ok,
             f"{len(audio)} samples, byte-identical={identical}")


def test_9_cli_smoke(tmp_path):
    selftest_ok = cli.main(["selftest"]) == 0
    wav = _end_to_end(tmp_path / "run")
    svg = tmp_path / "gen.svg"
    plot_ok = cli.main(["plot", "--csv", str(wav.parent / "gen.csv"),
                        "--spf", "294", "--rate", "8820",
                        "--out", str(svg)]) == 0
    root = ET.parse(svg).getroot()
    markers = [e for e in root.iter() if e.get("class") == "frame-marker"]
    _verdict(9, "cli-smoke",
             selftest_ok and plot_ok and len(markers) == 15,
             f"selftest 0, {len(markers)} frame markers")
