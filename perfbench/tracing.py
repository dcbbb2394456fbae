"""Span tracer that times foleygen's public functions from outside the package.

A traced name is wrapped by rebinding it wherever foleygen holds a reference
to it: every ``foleygen.*`` module attribute that *is* the original function,
or the class attribute for a method. Nothing inside the package changes, and
:meth:`Tracer.restore` puts every original back.

Each call records a span (name, start, end, parent, phase) in flat arrays that
stay in memory until :meth:`Tracer.dump`. Self time is the span's duration
minus the time covered by its direct child spans. For engine ops the wrapper
also wraps the returned tensor's ``_backward`` closure, so backward time is
attributed to the op that built the node.

A name that cannot be found is recorded in :attr:`Tracer.missing`; the
per-layer report turns every metric that depends on it into "unmeasured"
instead of 0.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Engine ops: span name -> list of (owner, attribute). Owner "Tensor" means a
# method of engine.Tensor; anything else is a module-level function.
ENGINE_OPS = {
    "engine.conv3d": [("engine", "conv3d")],
    "engine.conv1d_causal": [("engine", "conv1d_causal")],
    "engine.conv1d_strided": [("engine", "conv1d_strided")],
    "engine.conv1x1_channels": [("engine", "conv1x1_channels")],
    "engine.linear": [("engine", "linear")],
    "engine.attention": [("engine", "multi_head_attention")],
    "engine.matmul": [("Tensor", "__matmul__")],
    "engine.pointwise": [("Tensor", a) for a in (
        "__add__", "__neg__", "__mul__", "__pow__", "tanh", "relu", "log",
        "abs", "clamp", "softmax_lastdim", "logsumexp_lastdim",
    )] + [("engine", "scalar_scale")],
}

# Layer functions and methods: span name -> (module, attribute or Class.method).
LAYER_NAMES = {
    "engine.backward": ("engine", "backward"),
    "crossmodal.embed_video_context": ("crossmodal", "embed_video_context"),
    "crossmodal.res_block_3d": ("crossmodal", "res_block_3d"),
    "crossmodal.video_to_audio": ("crossmodal", "video_to_audio"),
    "crossmodal.audio_to_video": ("crossmodal", "audio_to_video"),
    "models.forward_window": ("models", "*.forward_window"),
    "models.forward_core": ("models", "*.forward_core"),
    "models.embed": ("models", "*.embed"),
    "models.deep_fusion_forward": ("models", "deep_fusion_forward"),
    "models.save_checkpoint": ("models", "save_checkpoint"),
    "models.load_checkpoint": ("models", "load_checkpoint"),
    "training.train": ("training", "train"),
    "training.evaluate": ("training", "evaluate"),
    "training.loss": ("training", "loss"),
    "training.adam_step": ("training", "Adam.step"),
    "training.zero_grad": ("training", "Adam.zero_grad"),
    "training.write_loss_csv": ("training", "write_loss_csv"),
    "generation.generate": ("generation", "generate"),
    "generation.write_wav": ("generation", "write_wav"),
    "generation.write_waveform_csv": ("generation", "write_waveform_csv"),
    "report.plot_waveform": ("report", "plot_waveform"),
    "avio.sample_window": ("avio", "sample_window"),
    "avio.load_dataset": ("avio", "load_dataset"),
}

# Names wrapped inside the ingest child process.
INGEST_NAMES = {
    f"avio.{n}": ("avio", n)
    for n in ("load_wav", "load_clip", "downsample_audio", "resize_frames",
              "align", "save_dataset")
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.phases: list[str] = ["setup"]
        self.phase = 0
        self.sid = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.span_phase = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self._stack: list[list] = []
        self._next = 0
        self.missing: set[str] = set()
        self._patches: list[tuple] = []
        # op results recorded on the tape, per phase
        self.results: dict[int, int] = {}
        self._tensor = None

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def set_phase(self, phase: str) -> None:
        if phase not in self.phases:
            self.phases.append(phase)
        self.phase = self.phases.index(phase)

    def enter(self, nid: int) -> None:
        self._stack.append([nid, time.perf_counter(), 0.0, self._next])
        self._next += 1

    def exit(self) -> None:
        t1 = time.perf_counter()
        nid, t0, child, sid = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[3]
        else:
            parent = -1
        self.sid.append(sid)
        self.name.append(nid)
        self.parent.append(parent)
        self.span_phase.append(self.phase)
        self.start.append(t0)
        self.end.append(t1)
        self.self_s.append(dur - child)

    def _timed(self, fn, nid: int, bwd_nid: int | None):
        tensor = self._tensor

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if bwd_nid is not None and isinstance(out, tensor) \
                    and out._backward is not None:
                out._backward = self._timed(out._backward, bwd_nid, None)
            return out
        return wrapper

    # -- installing wrappers -------------------------------------------------

    def install(self, names: dict, ops: dict | None = None) -> None:
        """Wrap every name in ``names`` (and engine ``ops``, with backward)."""
        from foleygen import engine
        self._tensor = engine.Tensor
        for span, (mod, attr) in names.items():
            self._wrap(span, [(mod, attr)], with_backward=False)
        for span, targets in (ops or {}).items():
            self._wrap(span, targets, with_backward=True)

    def install_result_counter(self) -> None:
        """Count op results recorded on the tape at ``Tensor._result``."""
        from foleygen import engine
        raw = engine.Tensor.__dict__.get("_result")
        if not isinstance(raw, staticmethod):
            self.missing.add("engine.Tensor._result")
            return
        fn = raw.__func__

        def counted(data, parents, backward_fn):
            out = fn(data, parents, backward_fn)
            if out.requires_grad:
                self.results[self.phase] = self.results.get(self.phase, 0) + 1
            return out
        self._set(engine.Tensor, "_result", raw, staticmethod(counted))

    def _wrap(self, span: str, targets, with_backward: bool) -> None:
        nid = self.name_id(span)
        bwd = self.name_id(span + ".bwd") if with_backward else None
        found = False
        for mod, attr in targets:
            module = sys.modules.get(f"foleygen.{mod}")
            if module is None and mod != "Tensor":
                continue
            if mod == "Tensor":
                found |= self._wrap_method(
                    [sys.modules["foleygen.engine"].Tensor], attr, nid, bwd)
            elif "." in attr:
                cls_name, meth = attr.split(".")
                classes = [c for c in vars(module).values()
                           if isinstance(c, type)
                           and c.__module__ == module.__name__]
                if cls_name != "*":
                    classes = [c for c in classes if c.__name__ == cls_name]
                found |= self._wrap_method(classes, meth, nid, bwd)
            else:
                found |= self._wrap_function(module, attr, nid, bwd)
        if not found:
            self.missing.add(span)

    def _wrap_function(self, module, attr, nid, bwd) -> bool:
        orig = getattr(module, attr, None)
        if not callable(orig):
            return False
        wrapper = self._timed(orig, nid, bwd)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "foleygen"
                                   or name.startswith("foleygen.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, orig, wrapper)
        return True

    def _wrap_method(self, classes, attr, nid, bwd) -> bool:
        found = False
        for cls in classes:
            orig = cls.__dict__.get(attr)
            if not callable(orig):
                continue
            wrapper = self._timed(orig, nid, bwd)
            # aliases such as __radd__ = __add__ share the wrapper
            for key, value in list(cls.__dict__.items()):
                if value is orig:
                    self._set(cls, key, orig, wrapper)
            found = True
        return found

    def _set(self, owner, key, orig, new) -> None:
        setattr(owner, key, new)
        self._patches.append((owner, key, orig))

    def restore(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- reading back ----------------------------------------------------------

    def arrays(self) -> dict:
        """The recorded spans as numpy columns (times in seconds)."""
        return {
            "sid": np.frombuffer(self.sid, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "phase": np.frombuffer(self.span_phase, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "self": np.frombuffer(self.self_s, dtype=np.float64),
        }

    def dump(self, path, workload: str) -> None:
        """Write every span, with the name and phase tables, to an .npz file."""
        np.savez_compressed(path, names=np.array(self.names),
                            phases=np.array(self.phases),
                            workload=np.array(workload), **self.arrays())

    def totals(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds] over all spans."""
        cols = self.arrays()
        out = {}
        for nid, name in enumerate(self.names):
            sel = cols["name"] == nid
            out[name] = [int(sel.sum()),
                         float((cols["end"][sel] - cols["start"][sel]).sum()),
                         float(cols["self"][sel].sum())]
        return out
