"""Per-layer metrics computed from the traced episodes.

Totals are per traced episode (each episode is the same fixed work), per
train step, per generated sample or per call, as the unit says. A metric is
``None`` ("unmeasured") when a name it depends on could not be wrapped, or
when the name is expected to fire on the workload and never did; it is
never reported as 0 in that case.
"""

from __future__ import annotations

import statistics

import numpy as np

OPS = ("conv3d", "conv1d_causal", "conv1d_strided", "conv1x1_channels",
       "linear", "attention", "matmul", "pointwise")
AVIO_INGEST = ("load_wav", "load_clip", "downsample_audio", "resize_frames",
               "align", "save_dataset")

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    [m for op in OPS for m in (
        (f"engine.{op}.calls", "calls/episode", "lower"),
        (f"engine.{op}.fwd_self_ms", "ms/episode", "lower"),
        (f"engine.{op}.bwd_ms", "ms/episode", "lower"),
        (f"engine.{op}.train_share", "ratio", "lower"),
    )]
    + [
        ("engine.backward.ms_per_step", "ms/step", "lower"),
        ("engine.tape_nodes_per_step", "nodes/step", "lower"),
        ("engine.tape_nodes_per_sample", "nodes/sample", "lower"),
        ("crossmodal.embed_video_context.calls", "calls/episode", "lower"),
        ("crossmodal.embed_video_context.ms_per_call", "ms/call", "lower"),
        ("crossmodal.res_block_3d.ms_per_call", "ms/call", "lower"),
        ("crossmodal.video_to_audio.ms", "ms/episode", "lower"),
        ("crossmodal.audio_to_video.ms", "ms/episode", "lower"),
        ("models.forward_window.ms_per_call", "ms/call", "lower"),
        ("models.forward_core.ms_per_call", "ms/call", "lower"),
        ("models.save_checkpoint.ms", "ms/call", "lower"),
        ("models.load_checkpoint.ms", "ms/call", "lower"),
        ("models.checkpoint_bytes", "bytes", "lower"),
        ("models.param_count", "count", "lower"),
        ("training.step_ms.p50", "ms", "lower"),
        ("training.step_ms.tail", "ms", "lower"),
        ("training.step_ms.tail_pct", "%", "higher"),
        ("training.step_ms.n", "count", "higher"),
        ("training.data_wait_ms_per_step", "ms/step", "lower"),
        ("training.forward_ms_per_step", "ms/step", "lower"),
        ("training.loss_ms_per_step", "ms/step", "lower"),
        ("training.backward_ms_per_step", "ms/step", "lower"),
        ("training.optimizer_ms_per_step", "ms/step", "lower"),
        ("training.evaluate.embeds_per_val_frame", "embeds/frame", "lower"),
        ("training.write_loss_csv.ms", "ms/call", "lower"),
        ("generation.sample_ms.p50", "ms", "lower"),
        ("generation.sample_ms.tail", "ms", "lower"),
        ("generation.sample_ms.tail_pct", "%", "higher"),
        ("generation.sample_ms.n", "count", "higher"),
        ("generation.frame_ms.p50", "ms", "lower"),
        ("generation.embeds_per_frame", "embeds/frame", "lower"),
        ("generation.embed_ms_per_frame", "ms/frame", "lower"),
        ("generation.loop_self_ms_per_sample", "ms/sample", "lower"),
        ("generation.write_wav.ms", "ms/call", "lower"),
        ("generation.write_waveform_csv.ms", "ms/call", "lower"),
    ]
    + [(f"avio.{n}.ms", "ms", "lower") for n in AVIO_INGEST]
    + [
        ("avio.load_dataset.ms", "ms", "lower"),
        ("avio.ingest.peak_rss_mb", "MB", "lower"),
        ("avio.source_bytes", "bytes", "lower"),
        ("avio.sample_window.ms_per_call", "ms/call", "lower"),
        ("report.plot_waveform.ms", "ms/call", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Unmeasured(Exception):
    """A metric's source name is missing or never fired where expected."""


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 beyond.

    With fewer than 20 values no ladder step qualifies; the maximum is given
    as percentile 100, and the sample count is reported beside it.
    """
    n = len(values)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return 100.0, float(np.max(values))


class Spans:
    """Queries over a tracer's spans, raising Unmeasured per the rules above."""

    def __init__(self, tracer, not_expected):
        self.t = tracer
        self.c = tracer.arrays()
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        self.not_expected = not_expected

    def _mask(self, name, phase=None):
        base = name[:-4] if name.endswith(".bwd") else name
        if base in self.t.missing or name not in self.ids:
            raise Unmeasured(name)
        m = self.c["name"] == self.ids[name]
        if not m.any() and base not in self.not_expected:
            raise Unmeasured(name)
        if phase is not None:
            pid = self.t.phases.index(phase) if phase in self.t.phases else -1
            m = m & (self.c["phase"] == pid)
        return m

    def calls(self, name, phase=None) -> int:
        return int(self._mask(name, phase).sum())

    def durations(self, name, phase=None) -> np.ndarray:
        m = self._mask(name, phase)
        return self.c["end"][m] - self.c["start"][m]

    def total(self, name, phase=None) -> float:
        return float(self.durations(name, phase).sum())

    def self_total(self, name, phase=None) -> float:
        return float(self.c["self"][self._mask(name, phase)].sum())

    def starts(self, name, phase=None) -> np.ndarray:
        return self.c["start"][self._mask(name, phase)]

    def mean_ms(self, name, phase=None) -> float:
        d = self.durations(name, phase)
        return float(d.mean() * 1e3) if d.size else 0.0

    def results(self, phase) -> int:
        """Op results recorded on the tape during a phase."""
        if "engine.Tensor._result" in self.t.missing or not self.t.results:
            raise Unmeasured("engine.Tensor._result")
        pid = self.t.phases.index(phase) if phase in self.t.phases else -1
        return self.t.results.get(pid, 0)


def per_layer(tracer, w, traced_eps, untraced_eps, setups) -> dict:
    """name -> value (or None when unmeasured) for every PER_LAYER metric."""
    s = Spans(tracer, w.not_expected)
    E = len(traced_eps)
    steps = w.steps * E
    frames = w.gen_frames * E
    samples = traced_eps[0]["samples"] * E
    spf = traced_eps[0]["samples"] // w.gen_frames
    sample_mode = w.model["kind"] != "deep_fusion"
    out = {}

    def put(name, fn):
        try:
            out[name] = float(fn())
        except Unmeasured:
            out[name] = None

    train_s = lambda: s.total("training.train", "train")  # noqa: E731
    for op in OPS:
        n = f"engine.{op}"
        put(f"{n}.calls", lambda n=n: s.calls(n) / E)
        put(f"{n}.fwd_self_ms", lambda n=n: s.self_total(n) * 1e3 / E)
        put(f"{n}.bwd_ms", lambda n=n: s.self_total(n + ".bwd") * 1e3 / E)
        put(f"{n}.train_share", lambda n=n: (
            s.self_total(n, "train") + s.self_total(n + ".bwd", "train"))
            / train_s())
    put("engine.backward.ms_per_step",
        lambda: s.total("engine.backward", "train") * 1e3 / steps)
    put("engine.tape_nodes_per_step", lambda: s.results("train") / steps)
    put("engine.tape_nodes_per_sample", lambda: s.results("generate") / samples)

    put("crossmodal.embed_video_context.calls",
        lambda: s.calls("crossmodal.embed_video_context") / E)
    put("crossmodal.embed_video_context.ms_per_call",
        lambda: s.mean_ms("crossmodal.embed_video_context"))
    put("crossmodal.res_block_3d.ms_per_call",
        lambda: s.mean_ms("crossmodal.res_block_3d"))
    put("crossmodal.video_to_audio.ms",
        lambda: s.total("crossmodal.video_to_audio") * 1e3 / E)
    put("crossmodal.audio_to_video.ms",
        lambda: s.total("crossmodal.audio_to_video") * 1e3 / E)

    put("models.forward_window.ms_per_call",
        lambda: s.mean_ms("models.forward_window"))
    put("models.forward_core.ms_per_call",
        lambda: s.mean_ms("models.forward_core"))
    put("models.save_checkpoint.ms", lambda: s.mean_ms("models.save_checkpoint"))
    put("models.load_checkpoint.ms", lambda: s.mean_ms("models.load_checkpoint"))
    put("models.checkpoint_bytes", lambda: traced_eps[0]["checkpoint_bytes"])
    put("models.param_count", lambda: traced_eps[0]["param_count"])

    def step_ms():
        z = s.starts("training.zero_grad", "train")
        m = s._mask("training.adam_step", "train")
        if z.size != steps or int(m.sum()) != steps:
            raise Unmeasured("training step boundaries")
        return (s.c["end"][m] - z) * 1e3
    put("training.step_ms.p50", lambda: np.median(step_ms()))
    put("training.step_ms.tail", lambda: tail(step_ms())[1])
    put("training.step_ms.tail_pct", lambda: tail(step_ms())[0])
    put("training.step_ms.n", lambda: step_ms().size)
    per_step = lambda name: s.total(name, "train") * 1e3 / steps  # noqa: E731
    put("training.data_wait_ms_per_step", lambda: per_step("avio.sample_window"))
    put("training.forward_ms_per_step", lambda: per_step("models.forward_window"))
    put("training.loss_ms_per_step", lambda: per_step("training.loss"))
    put("training.backward_ms_per_step", lambda: per_step("engine.backward"))
    put("training.optimizer_ms_per_step", lambda: per_step("training.adam_step")
        + per_step("training.zero_grad"))
    put("training.evaluate.embeds_per_val_frame",
        lambda: s.calls("crossmodal.embed_video_context", "eval")
        / sum(e["eval_frames"] for e in traced_eps))
    put("training.write_loss_csv.ms", lambda: s.mean_ms("training.write_loss_csv"))

    def sample_ms():
        if sample_mode:
            return s.durations("models.forward_core", "generate") * 1e3
        return s.durations("models.deep_fusion_forward", "generate") * 1e3 / spf
    put("generation.sample_ms.p50", lambda: np.median(sample_ms()))
    put("generation.sample_ms.tail", lambda: tail(sample_ms())[1])
    put("generation.sample_ms.tail_pct", lambda: tail(sample_ms())[0])
    put("generation.sample_ms.n", lambda: sample_ms().size)

    def frame_ms():
        # a frame runs from its per-frame call to the next one, or to the
        # end of its generate call
        marker = "models.embed" if sample_mode else "models.deep_fusion_forward"
        marks = s.starts(marker, "generate")
        gm = s._mask("generation.generate", "generate")
        ends = s.c["end"][gm]
        if marks.size != frames or ends.size != E:
            raise Unmeasured("generation frame boundaries")
        per_ep = marks.reshape(E, w.gen_frames)
        bounds = np.concatenate([per_ep, ends[:, None]], axis=1)
        return np.diff(bounds, axis=1).ravel() * 1e3
    put("generation.frame_ms.p50", lambda: np.median(frame_ms()))
    put("generation.embeds_per_frame",
        lambda: s.calls("crossmodal.embed_video_context", "generate") / frames)
    put("generation.embed_ms_per_frame",
        lambda: s.total("crossmodal.embed_video_context", "generate") * 1e3
        / frames)
    put("generation.loop_self_ms_per_sample",
        lambda: s.self_total("generation.generate", "generate") * 1e3 / samples)
    put("generation.write_wav.ms", lambda: s.mean_ms("generation.write_wav"))
    put("generation.write_waveform_csv.ms",
        lambda: s.mean_ms("generation.write_waveform_csv"))

    def child_ms(name):
        vals = []
        for st in setups:
            if f"avio.{name}" in st.child["missing"]:
                raise Unmeasured(name)
            calls, incl, _ = st.child["spans"].get(f"avio.{name}", [0, 0.0, 0.0])
            if not calls:
                raise Unmeasured(name)
            vals.append(incl * 1e3)
        return statistics.median(vals)
    for n in AVIO_INGEST:
        put(f"avio.{n}.ms", lambda n=n: child_ms(n))
    put("avio.load_dataset.ms", lambda: s.mean_ms("avio.load_dataset", "setup"))
    put("avio.ingest.peak_rss_mb",
        lambda: statistics.median(st.child["peak_rss_mb"] for st in setups))
    put("avio.source_bytes", lambda: setups[0].source_bytes)
    put("avio.sample_window.ms_per_call", lambda: s.mean_ms("avio.sample_window"))
    put("report.plot_waveform.ms", lambda: s.mean_ms("report.plot_waveform"))

    put("trace.overhead_frac", lambda: statistics.median(
        e["episode_s"] for e in traced_eps)
        / statistics.median(e["episode_s"] for e in untraced_eps) - 1.0)
    assert list(out) == [m[0] for m in PER_LAYER]
    return out
