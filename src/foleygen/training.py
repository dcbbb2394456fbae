"""Losses, the optimization loop, and evaluation over the validation split.

Five loss kinds are supported. ``xent_bernoulli`` treats each amplitude as
a Bernoulli parameter after shifting [-1,1] to [0,1]. ``xent_paper_literal``
keeps the raw output amplitude as the P factor, so it can go negative; it
exists to mirror the sign convention of published validation numbers.
``xent_categorical`` applies only to the quantized 256-bin transformer head.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .avio import Dataset, _is_int, sample_window, stack_windows
from .engine import Tensor, backward, no_grad
from .errors import ContractError, ParameterError, ShapeError, TrainingDivergedError
from .models import JsonConfig, Model, _check_type, quantize, save_checkpoint

LOSS_KINDS = ("mse", "mae", "xent_bernoulli", "xent_paper_literal",
              "xent_categorical")
_EPS = 1e-7
# Adam's moment decay rates and denominator floor (Kingma & Ba, 2014)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def loss(kind: str, output: Tensor, target: np.ndarray) -> Tensor:
    """Scalar loss between a model output tensor and a numpy target: the
    mean over every element, so over a batch it is the mean of the items'
    losses."""
    if kind not in LOSS_KINDS:
        raise ParameterError(f"unknown loss kind {kind!r}")
    target = np.asarray(target, dtype=np.float64)
    if kind == "xent_categorical":
        if output.data.ndim not in (2, 3) or output.shape[-1] != 256:
            raise ContractError(
                "xent_categorical needs (channels, 256) logits; got "
                f"{output.shape} — use a quantized model"
            )
        if target.shape != output.shape[:-1]:
            raise ShapeError(
                f"categorical target {target.shape} vs logits {output.shape}"
            )
        bins = quantize(target)
        lse = output.logsumexp_lastdim()            # (..., channels)
        picked = output[(*np.indices(bins.shape), bins)]
        return (lse - picked).mean()
    if output.shape != target.shape:
        raise ShapeError(
            f"loss: output {output.shape} vs target {target.shape}"
        )
    dt = output.data.dtype
    t = Tensor(target, dtype=dt)
    if kind == "mse":
        return ((output - t) ** 2).mean()
    if kind == "mae":
        return (output - t).abs().mean()
    if kind == "xent_bernoulli":
        p = (target + 1.0) / 2.0
        q = ((output + 1.0) * 0.5).clamp(_EPS, 1.0 - _EPS)
        pt = Tensor(p, dtype=dt)
        one_minus_pt = Tensor(1.0 - p, dtype=dt)
        term = pt * q.log() + one_minus_pt * (1.0 - q).log()
        return -term.mean()
    # xent_paper_literal: P is the raw output, Q is the shifted target
    q = np.clip((target + 1.0) / 2.0, _EPS, 1.0)
    return -(output * Tensor(np.log(q), dtype=dt)).mean()


# -- optimizer ----------------------------------------------------------------


class Adam:
    """Adaptive-moment estimation with optional global-norm gradient clip,
    in place on the model's ``flat`` and ``grad`` with two scratch arrays."""

    def __init__(self, model: Model, lr: float = 1e-3,
                 clip_norm: float | None = 1.0):
        self.model, self.lr, self.clip_norm, self.t = model, lr, clip_norm, 0
        self.m, self.v, self._a, self._b = (
            np.zeros_like(model.flat) for _ in range(4))

    def zero_grad(self):
        self.model.grad.fill(0)

    def step(self):
        self.t += 1
        g, m, v, a, b = self.model.grad, self.m, self.v, self._a, self._b
        if self.clip_norm is not None:
            # a sum of per-tensor sums; one flat sum would round differently
            total = np.sqrt(sum(float((p.grad ** 2).sum())
                                for p in self.model.params.values()))
            if total > self.clip_norm:
                # a numpy float64 scale would promote float32 to float64
                g *= float(self.clip_norm / total)
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
        # p -= lr*mhat / (sqrt(vhat) + eps): each in that float order
        m *= b1
        m += np.multiply(g, 1 - b1, out=a)
        v *= b2
        v += np.multiply(np.multiply(g, 1 - b2, out=a), g, out=a)
        np.multiply(np.divide(m, 1 - b1 ** self.t, out=a), self.lr, out=a)
        np.sqrt(np.divide(v, 1 - b2 ** self.t, out=b), out=b)
        b += ADAM_EPS
        self.model.flat -= np.divide(a, b, out=a)


# -- training loop ------------------------------------------------------------


@dataclass
class TrainConfig(JsonConfig):
    learning_rate: float = 1e-3
    steps: int = 100
    batch_size: int = 1
    seed: int = 0
    loss_kind: str = "xent_bernoulli"
    clip_norm: float | None = 1.0       # None: no clipping
    checkpoint_interval: int = 50

    def __post_init__(self):
        for name, hint in self._field_types.items():
            _check_type(f"TrainConfig.{name}", getattr(self, name), hint)
        # learning rate 0 is allowed: it makes "no update" testable. NaN
        # fails this test too; it would write a checkpoint of NaNs
        if not 0 <= self.learning_rate < np.inf:
            raise ParameterError("TrainConfig.learning_rate must be a finite "
                                 f"number >= 0, got {self.learning_rate}")
        if self.steps <= 0 or self.batch_size <= 0:
            raise ParameterError("steps and batch size must be > 0")
        if self.checkpoint_interval <= 0:
            raise ParameterError("checkpoint_interval must be > 0")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.loss_kind not in LOSS_KINDS:
            raise ParameterError(f"unknown loss kind {self.loss_kind!r}")
        # NaN fails this test too; it would silently disable clipping
        if self.clip_norm is not None and not 0 < self.clip_norm < np.inf:
            raise ParameterError("TrainConfig.clip_norm must be a positive "
                                 f"finite number or null, got {self.clip_norm}")


@dataclass
class TrainReport:
    losses: list = field(default_factory=list)          # per-step train loss


def _window_for(model: Model, ds: Dataset, frame_index: int,
                sample_offset: int):
    cfg = model.config
    kind = "frame_sequence" if model.mode == "sequence" else "sample"
    return sample_window(ds.av, frame_index, cfg.audio_ctx_len,
                         cfg.video_ctx_len, target_kind=kind,
                         sample_offset=sample_offset)


def train(model: Model, dataset: Dataset, cfg: TrainConfig,
          checkpoint_path=None, loss_csv_path=None) -> TrainReport:
    """Seeded SGD over uniformly sampled context windows from the train split.

    Each step stacks its ``batch_size`` windows and runs them as one graph:
    one ``forward_window``, one loss (the mean over the batch) and one
    backward. Deterministic under a fixed seed: the window sequence,
    updates, and loss curve depend only on (model state, dataset, cfg).
    """
    train_frames = list(dataset.train_frames())
    if not train_frames:
        raise ContractError("train split is empty; lower train_fraction?")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model, lr=cfg.learning_rate, clip_norm=cfg.clip_norm)
    report = TrainReport()
    spf = dataset.av.spf

    def draw_batch():
        windows = []
        for _ in range(cfg.batch_size):
            fi = int(rng.integers(0, len(train_frames)))
            offset = int(rng.integers(0, spf)) if model.mode == "sample" else 0
            windows.append(_window_for(model, dataset, train_frames[fi], offset))
        return stack_windows(windows)

    batch = draw_batch()
    for step in range(cfg.steps):
        opt.zero_grad()
        out = model.forward_window(batch)
        # (B, spf, 2) frame targets become the (B, 2, spf) output; (B, 2)
        # sample targets stay as they are
        total = loss(cfg.loss_kind, out, np.moveaxis(batch.target, -1, 1))
        backward(total)
        step_loss = float(total.data)
        # The next windows are cut while this step's graph is alive, so they
        # sit above it on the heap, and releasing the graph leaves its memory
        # below them for the next step. Released on top of the heap instead,
        # glibc returned the working set to the OS and the next step faulted
        # it back in: a 2-step paper-size batch-4 train call took ~27k minor
        # faults (wavenet; ~33k deep fusion) with the windows drawn at the
        # top of the step, against ~17k (~21k) in this order (2-vCPU Xeon VM).
        batch = draw_batch() if step + 1 < cfg.steps else None
        del out, total
        if not np.isfinite(step_loss):
            raise TrainingDivergedError(
                f"loss became {step_loss} at step {step}; try a lower "
                "learning rate or a tighter gradient clip"
            )
        opt.step()
        report.losses.append(step_loss)
        if (checkpoint_path is not None and step + 1 < cfg.steps
                and (step + 1) % cfg.checkpoint_interval == 0):
            save_checkpoint(model, checkpoint_path)
    if checkpoint_path is not None:     # the final state, once
        save_checkpoint(model, checkpoint_path)
    if loss_csv_path is not None:
        write_loss_csv(report, loss_csv_path)
    return report


def write_loss_csv(report: TrainReport, path) -> None:
    """Loss curve as CSV: step, train_loss."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "train_loss"])
        for i, tl in enumerate(report.losses):
            w.writerow([i, repr(tl)])


def evaluate(model: Model, dataset: Dataset, kind: str,
             max_windows: int | None = None) -> float:
    """Mean loss over the validation windows; no parameter updates, no tape.

    Sample-mode models have one window per (frame, offset) pair;
    ``max_windows`` caps the count by striding deterministically.
    """
    if max_windows is not None and not (_is_int(max_windows)
                                        and max_windows >= 1):
        raise ParameterError(
            f"max_windows must be an int >= 1, got {max_windows!r}")
    val_frames = list(dataset.val_frames())
    if not val_frames:
        raise ContractError("validation split is empty")
    offsets = range(0, dataset.av.spf, model.step_samples)
    pairs = [(f, off) for f in val_frames for off in offsets]
    if max_windows is not None and len(pairs) > max_windows:
        pairs = pairs[::len(pairs) // max_windows][:max_windows]
    total = 0.0
    with no_grad():
        for frame_index, offset in pairs:
            window = _window_for(model, dataset, frame_index, offset)
            out = model.forward_window(window)
            total += float(loss(kind, out, window.target.T).data)
    return total / len(pairs)
