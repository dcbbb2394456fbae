"""Set-up and the measured episode: train, evaluate, generate, write artifacts.

Everything here calls foleygen through the public functions the CLI
dispatches to. Each operation (train step, eval window, generated frame,
artifact write) is counted as attempted, and as failed when it raises or
its output check fails; a failure never aborts the run.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np

from foleygen import avio, generation, models, report, training
from workloads import (LOSS_KIND, LR, MODEL_SEED, TARGET_RATE, TRAIN_SEED,
                       Workload, synthesize_source)

HERE = Path(__file__).resolve().parent
ARTIFACT_OPS = ("save_checkpoint", "load_checkpoint", "write_wav",
                "write_waveform_csv", "plot_waveform", "write_loss_csv")
# artifact writes are short, so each episode writes them several times
ARTIFACT_REPS = 8
INGEST_TIMEOUT_S = 120


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def add(self, attempted: int, failed: int, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(f"{failed}/{attempted} failed: {what}")


def _report_exception(what: str) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"{what} raised {sys.exc_info()[0].__name__}"


@dataclass
class Setup:
    dataset: avio.Dataset
    config: models.ModelConfig
    seconds: float
    child: dict
    source_bytes: int


def setup(w: Workload, seed: int, work: Path, traced: bool) -> Setup:
    """Synthesize the source, ingest it in a child process, load, build."""
    t0 = time.perf_counter()
    manifest = synthesize_source(w, seed, work / "source")
    ds_path = work / "dataset.bin"
    h, wd = w.frame_hw
    proc = subprocess.run(
        [sys.executable, str(HERE / "ingest_child.py"), str(manifest),
         str(ds_path), str(TARGET_RATE), str(h), str(wd), "1" if traced else "0"],
        capture_output=True, text=True, timeout=INGEST_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"ingest child exited {proc.returncode}:\n{proc.stderr}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    ds = avio.load_dataset(ds_path)
    cfg = models.ModelConfig(spf=ds.av.spf, frame_h=ds.av.video.frames.shape[2],
                             frame_w=ds.av.video.frames.shape[3], **w.model)
    models.build_model(cfg, seed=MODEL_SEED)
    seconds = time.perf_counter() - t0
    source_bytes = sum(p.stat().st_size for p in (work / "source").iterdir())
    # the dataset is in memory now; removing the files drops their pending
    # write-back, which would otherwise run during the measured episodes
    shutil.rmtree(work)
    return Setup(ds, cfg, seconds, child, source_bytes)


def _phase(tracer, name: str) -> None:
    if tracer is not None:
        tracer.set_phase(name)


def run_episode(w: Workload, s: Setup, work: Path, tally: Tally,
                tracer=None) -> dict:
    """One fixed-size pass over phases 2-5 from a freshly built model."""
    ds, cfg = s.dataset, s.config
    spf = ds.av.spf
    rec = {"samples": w.gen_frames * spf}
    model = models.build_model(cfg, seed=MODEL_SEED)
    tc = training.TrainConfig(learning_rate=LR, steps=w.steps,
                              batch_size=w.batch, seed=TRAIN_SEED,
                              loss_kind=LOSS_KIND)
    t_start = time.perf_counter()

    _phase(tracer, "train")
    t0 = time.perf_counter()
    try:
        rep = training.train(model, ds, tc)
    except Exception:  # noqa: BLE001 - a failed phase is counted, not fatal
        note = _report_exception("training.train")
        tally.add(w.steps, w.steps, note)
        later = w.eval_windows + w.gen_frames + ARTIFACT_REPS * len(ARTIFACT_OPS)
        tally.add(later, later, "skipped after failed training")
        return rec
    rec["train_s"] = time.perf_counter() - t0
    losses = np.asarray(rep.losses, dtype=np.float64)
    bad = w.steps - int(np.isfinite(losses).sum()) if len(losses) == w.steps \
        else w.steps
    tally.add(w.steps, bad, "train step loss not finite or missing")
    rec["train_loss_final"] = float(losses[-w.loss_tail:].mean())
    rec["loss_sha256"] = hashlib.sha256(losses.tobytes()).hexdigest()

    _phase(tracer, "eval")
    # the windows evaluate runs are counted at the model, not predicted
    visited = []
    forward_window = model.forward_window

    def counted(window):
        visited.append(window.frame_index)
        return forward_window(window)

    model.forward_window = counted
    t0 = time.perf_counter()
    try:
        val = training.evaluate(model, ds, LOSS_KIND, max_windows=w.eval_windows)
        ok = bool(np.isfinite(val))
        rec["val_loss"] = repr(float(val))
    except Exception:  # noqa: BLE001
        ok = False
        _report_exception("training.evaluate")
    finally:
        del model.forward_window
    rec["eval_s"] = time.perf_counter() - t0
    rec["windows"], rec["eval_frames"] = len(visited), len(set(visited))
    ok = ok and len(visited) == w.eval_windows
    tally.add(w.eval_windows, 0 if ok else w.eval_windows,
              f"validation loss finite over {len(visited)} of {w.eval_windows} windows")

    _phase(tracer, "generate")
    t0 = time.perf_counter()
    try:
        audio = generation.generate(model, ds.av.video, total_frames=w.gen_frames)
    except Exception:  # noqa: BLE001
        audio = None
        _report_exception("generation.generate")
    rec["gen_s"] = time.perf_counter() - t0
    tally.add(w.gen_frames, _bad_frames(audio, w.gen_frames, spf, ds),
              "generated frame check")

    _phase(tracer, "artifacts")
    if audio is None:
        ops = ARTIFACT_REPS * len(ARTIFACT_OPS)
        tally.add(ops, ops, "no audio to write")
    else:
        rec["artifact_s"] = []
        for _ in range(ARTIFACT_REPS):
            seconds, rec["wav_sha256"], rec["checkpoint_bytes"] = \
                _artifacts(model, rep, audio, spf, work, tally)
            rec["artifact_s"].append(seconds)
    rec["episode_s"] = time.perf_counter() - t_start
    rec["param_count"] = model.param_count()
    return rec


def _bad_frames(audio, frames: int, spf: int, ds: avio.Dataset) -> int:
    """Frames failing: exact length frames*spf*2, finite, in [-1, 1], rate."""
    if audio is None:
        return frames
    x = audio.samples
    if x.shape != (frames * spf, 2) or \
            audio.sample_rate != ds.av.video.frame_rate * spf:
        return frames
    per_frame = x.reshape(frames, spf * 2)
    good = (np.isfinite(per_frame) & (np.abs(per_frame) <= 1.0)).all(axis=1)
    return int(frames - good.sum())


def _artifacts(model, rep, audio, spf: int, work: Path, tally: Tally):
    """Write every artifact once, timing only the write calls; check each."""
    ckpt, wav = work / "model.bin", work / "gen.wav"
    wave_csv, svg, loss_csv = work / "gen.csv", work / "gen.svg", work / "loss.csv"
    n = len(audio)
    loaded = {}

    def load():
        loaded["model"] = models.load_checkpoint(ckpt)

    def check_roundtrip():
        m = loaded["model"]
        return m.params.keys() == model.params.keys() and all(
            np.array_equal(m.params[k].data, model.params[k].data.astype("<f4"))
            for k in model.params)

    def check_wav():
        back = avio.load_wav(wav)
        return len(back) == n and back.sample_rate == audio.sample_rate

    def check_csv():
        with open(wave_csv) as f:
            return sum(1 for _ in f) == n + 1

    def check_svg():
        root = ET.parse(svg).getroot()
        markers = [e for e in root.iter() if e.get("class") == "frame-marker"]
        return len(markers) == n // spf

    def check_loss_csv():
        with open(loss_csv) as f:
            rows = f.read().splitlines()[1:]
        return [float(r.split(",")[1]) for r in rows] == list(rep.losses)

    ops = (
        (lambda: models.save_checkpoint(model, ckpt), lambda: True),
        (load, check_roundtrip),
        (lambda: generation.write_wav(audio, wav), check_wav),
        (lambda: generation.write_waveform_csv(audio, wave_csv), check_csv),
        (lambda: report.plot_waveform(wave_csv, spf, svg,
                                      sample_rate=audio.sample_rate), check_svg),
        (lambda: training.write_loss_csv(rep, loss_csv), check_loss_csv),
    )
    total = 0.0
    for name, (write, check) in zip(ARTIFACT_OPS, ops):
        t0 = time.perf_counter()
        try:
            write()
            total += time.perf_counter() - t0
            ok = check()
        except Exception:  # noqa: BLE001
            ok = False
            _report_exception(name)
        tally.add(1, 0 if ok else 1, name)
    wav_sha = hashlib.sha256(wav.read_bytes()).hexdigest() if wav.exists() else ""
    ckpt_bytes = ckpt.stat().st_size if ckpt.exists() else 0
    return total, wav_sha, ckpt_bytes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
