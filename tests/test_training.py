import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from foleygen import training
from foleygen.avio import sample_window
from foleygen.engine import Tensor, backward, grad_check
from foleygen.errors import ContractError, ParameterError, TrainingDivergedError
from foleygen.models import (
    ModelConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from foleygen.training import (
    TrainConfig,
    evaluate,
    loss,
    train,
    write_loss_csv,
)
from conftest import make_dataset, tiny_config


class TestLossClosedForms:
    def test_mse_zero_on_match(self):
        o = Tensor([0.3, -0.5])
        assert loss("mse", o, np.array([0.3, -0.5])).data == 0.0

    def test_mae_hand_mean(self):
        assert loss("mae", Tensor([1.0, -1.0]), np.zeros(2)).data == 1.0

    def test_xent_bernoulli_ln2(self):
        v = loss("xent_bernoulli", Tensor([0.0]), np.array([0.0])).data
        assert abs(v - math.log(2)) < 1e-12

    def test_xent_paper_literal_endpoint(self):
        v = loss("xent_paper_literal", Tensor([-1.0]), np.array([1.0])).data
        assert v == 0.0

    def test_xent_paper_literal_can_be_negative(self):
        # negative output amplitude against a mid target: -P*log(Q) = P*|log Q|
        v = loss("xent_paper_literal", Tensor([-0.8]), np.array([0.0])).data
        assert v < 0.0

    def test_xent_categorical_picks_bin(self):
        logits = np.full((2, 256), -5.0)
        logits[0, 255] = 5.0
        logits[1, 0] = 5.0
        v = loss("xent_categorical", Tensor(logits),
                 np.array([1.0, -1.0])).data
        assert v < 0.02  # confident, correct bins

    def test_xent_categorical_needs_logits(self):
        with pytest.raises(ContractError):
            loss("xent_categorical", Tensor([0.0, 0.0]), np.zeros(2))

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            loss("hinge", Tensor([0.0]), np.zeros(1))


class TestLossProperties:
    @pytest.mark.parametrize("kind", ["mse", "mae", "xent_bernoulli",
                                      "xent_paper_literal"])
    def test_permutation_invariance(self, kind):
        rng = np.random.default_rng(0)
        o = rng.uniform(-0.9, 0.9, 6)
        t = rng.uniform(-0.9, 0.9, 6)
        perm = rng.permutation(6)
        a = loss(kind, Tensor(o), t).data
        b = loss(kind, Tensor(o[perm]), t[perm]).data
        npt.assert_allclose(a, b, atol=1e-15)

    @pytest.mark.parametrize("kind", ["mse", "mae", "xent_bernoulli"])
    def test_nonnegative(self, kind):
        rng = np.random.default_rng(1)
        for _ in range(20):
            o = rng.uniform(-0.99, 0.99, 4)
            t = rng.uniform(-0.99, 0.99, 4)
            assert loss(kind, Tensor(o), t).data >= 0.0

    @pytest.mark.parametrize("kind", ["mse", "xent_bernoulli",
                                      "xent_paper_literal"])
    def test_gradients_away_from_clamps(self, kind):
        rng = np.random.default_rng(2)
        t = rng.uniform(-0.8, 0.8, 5)
        o = Tensor(rng.uniform(-0.8, 0.8, 5), requires_grad=True)
        assert grad_check(lambda o: loss(kind, o, t), [o]) < 1e-4

    def test_mae_gradient_away_from_zero_diff(self):
        t = np.array([0.0, 0.0, 0.0])
        o = Tensor([0.5, -0.4, 0.3], requires_grad=True)
        assert grad_check(lambda o: loss("mae", o, t), [o]) < 1e-4

    def test_categorical_gradient(self):
        rng = np.random.default_rng(3)
        t = np.array([0.25, -0.5])
        o = Tensor(rng.uniform(-1, 1, (2, 256)), requires_grad=True)
        assert grad_check(lambda o: loss("xent_categorical", o, t), [o]) < 1e-4


class TestTrainLoop:
    def _config(self, **kw):
        base = dict(learning_rate=1e-2, steps=5, batch_size=1, seed=3,
                    loss_kind="mse", clip_norm=1.0, checkpoint_interval=50)
        base.update(kw)
        return TrainConfig(**base)

    def test_negative_seed_refused(self):
        with pytest.raises(ParameterError, match="seed"):
            self._config(seed=-3)

    @pytest.mark.parametrize("field", ["steps", "batch_size", "seed",
                                       "checkpoint_interval"])
    @pytest.mark.parametrize("value", [2.5, True, "2", None])
    def test_non_int_field_refused(self, field, value):
        with pytest.raises(ParameterError, match=field):
            self._config(**{field: value})

    def test_zero_learning_rate_keeps_params(self):
        ds = make_dataset(frames=8, spf=4)
        model = build_model(tiny_config("wavenet"), seed=0)
        before = {k: v.data.copy() for k, v in model.params.items()}
        train(model, ds, self._config(learning_rate=0.0, steps=1))
        for k, v in model.params.items():
            npt.assert_array_equal(v.data, before[k])

    def test_same_seed_identical_curves(self):
        ds = make_dataset(frames=8, spf=4)
        curves = []
        for _ in range(2):
            model = build_model(tiny_config("wavenet"), seed=1)
            rep = train(model, ds, self._config(steps=4))
            curves.append(rep.losses)
        assert curves[0] == curves[1]

    def test_overfit_constant_audio(self):
        # 50 frames x 4 spf = 200 constant samples
        audio = np.full((200, 2), 0.4)
        ds = make_dataset(frames=50, spf=4, audio=audio)
        cfg = tiny_config("transformer", ctx_mode="raw_short",
                          audio_ctx_len=8)
        model = build_model(cfg, seed=2)
        rep = train(model, ds, self._config(steps=200, learning_rate=3e-3))
        start = float(np.mean(rep.losses[:10]))
        end = float(np.mean(rep.losses[-10:]))
        assert end <= 0.1 * start

    @pytest.mark.parametrize("kind", ["deep_fusion", "wavenet", "transformer"])
    def test_clipped_float32_steps_stay_float32(self, monkeypatch, kind):
        opts = []

        class RecordingAdam(training.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opts.append(self)

        monkeypatch.setattr(training, "Adam", RecordingAdam)
        ds = make_dataset(frames=8, spf=4)
        model = build_model(tiny_config(kind), seed=5, precision="float32")
        # a bound this tight clips every step
        train(model, ds, self._config(steps=3, clip_norm=1e-6))
        (opt,) = opts
        for k, p in model.params.items():
            assert (p.data.dtype, p.grad.dtype) == (np.float32,) * 2, k
        assert (opt.m.dtype, opt.v.dtype) == (np.float32,) * 2

    def test_divergence_aborts(self):
        ds = make_dataset(frames=8, spf=4)
        model = build_model(tiny_config("wavenet"), seed=4)
        model.params["head_b"].data[...] = np.nan
        with pytest.raises(TrainingDivergedError):
            train(model, ds, self._config())

    def test_empty_train_split(self):
        ds = make_dataset(frames=8, train_fraction=0.0)
        model = build_model(tiny_config("wavenet"), seed=5)
        with pytest.raises(ContractError):
            train(model, ds, self._config())

    @pytest.mark.parametrize("steps,interval,saves", [(5, 50, 1), (4, 2, 2)])
    def test_final_checkpoint_written_once(self, monkeypatch, tmp_path,
                                           steps, interval, saves):
        calls = []
        monkeypatch.setattr(training, "save_checkpoint",
                            lambda model, path: calls.append(path))
        ds = make_dataset(frames=8, spf=4)
        model = build_model(tiny_config("wavenet"), seed=6)
        train(model, ds, self._config(steps=steps,
                                      checkpoint_interval=interval),
              checkpoint_path=tmp_path / "m.bin")
        assert len(calls) == saves

    def test_loss_csv(self, tmp_path):
        ds = make_dataset(frames=8, spf=4)
        model = build_model(tiny_config("wavenet"), seed=6)
        rep = train(model, ds, self._config(steps=3))
        p = tmp_path / "loss.csv"
        write_loss_csv(rep, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "step,train_loss"
        assert len(lines) == 4


class ReferenceAdam:
    """Adam as one loop over the named tensors, rebinding each ``data`` and
    ``grad``: the float order the flat update must reproduce bit for bit."""

    def __init__(self, params: dict, lr: float, clip_norm):
        self.params, self.lr, self.clip_norm, self.t = params, lr, clip_norm, 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self):
        self.t += 1
        if self.clip_norm is not None:
            total = np.sqrt(sum(float((p.grad ** 2).sum())
                                for p in self.params.values()))
            if total > self.clip_norm:
                scale = float(self.clip_norm / total)
                for p in self.params.values():
                    p.grad = p.grad * scale
        b1, b2, eps = 0.9, 0.999, 1e-8
        for k, p in self.params.items():
            g = p.grad
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / (1 - b1 ** self.t)
            vhat = self.v[k] / (1 - b2 ** self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + eps)


def _views_of_buffers(model) -> bool:
    return all(np.shares_memory(t.data, model.flat)
               and np.shares_memory(t.grad, model.grad)
               for t in model.params.values())


class TestFlatAdam:
    KINDS = ["deep_fusion", "wavenet", "transformer"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("clip_norm,grad_scale,clips", [
        (1.0, 10.0, True), (1e6, 1.0, False), (None, 10.0, False)])
    def test_step_matches_per_tensor_loop(self, kind, precision, clip_norm,
                                          grad_scale, clips):
        model = build_model(tiny_config(kind), seed=3, precision=precision)
        ref = {k: Tensor(t.data.copy(), dtype=t.data.dtype)
               for k, t in model.params.items()}
        opt = training.Adam(model, lr=1e-2, clip_norm=clip_norm)
        ref_opt = ReferenceAdam(ref, lr=1e-2, clip_norm=clip_norm)
        rng = np.random.default_rng(0)
        for _ in range(3):
            opt.zero_grad()
            for k, t in model.params.items():
                t.grad[...] = rng.standard_normal(t.shape) * grad_scale
                ref[k].grad = t.grad.copy()
            norm = np.sqrt(sum(float((p.grad ** 2).sum())
                               for p in ref.values()))
            assert (clip_norm is not None and norm > clip_norm) == clips
            opt.step()
            ref_opt.step()
        for k, t in model.params.items():
            assert t.data.dtype == ref[k].data.dtype == np.dtype(precision)
            assert t.data.tobytes() == ref[k].data.tobytes(), k
        assert _views_of_buffers(model)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_parameters_stay_views_of_the_buffers(self, tmp_path, kind,
                                                  precision):
        model = build_model(tiny_config(kind), seed=4, precision=precision)
        assert _views_of_buffers(model)
        assert model.flat.dtype == model.grad.dtype == np.dtype(precision)
        assert model.flat.size == model.param_count() == sum(
            t.data.size for t in model.params.values())
        ds = make_dataset(frames=8, spf=4)
        train(model, ds, TrainConfig(steps=2, clip_norm=1e-6))
        assert _views_of_buffers(model)
        w = training._window_for(model, ds, 2, 0)
        backward(loss("mse", model.forward_window(w), w.target.T))
        assert _views_of_buffers(model)
        assert np.array_equal(model.grad, np.concatenate(
            [t.grad.ravel() for t in model.params.values()]))
        save_checkpoint(model, tmp_path / "m.bin")
        loaded = load_checkpoint(tmp_path / "m.bin", precision=precision)
        assert _views_of_buffers(loaded)
        assert np.array_equal(loaded.flat, model.flat.astype("<f4"))


class TestDefaultWavenetLearns:
    """The default 14-layer wavenet keeps its tanh head out of saturation,
    so the clamped xent_bernoulli loss passes a gradient back."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_flows_and_loss_falls(self, seed):
        ds = make_dataset(frames=12, spf=294, h=8, w=8, fps=30)
        cfg = ModelConfig(kind="wavenet", spf=294, frame_h=8, frame_w=8)
        model = build_model(cfg, seed=seed)
        w = sample_window(ds.av, 5, cfg.audio_ctx_len, cfg.video_ctx_len,
                          sample_offset=40)
        backward(loss("xent_bernoulli", model.forward_window(w), w.target.T))
        assert sum((t.grad ** 2).sum() for t in model.params.values()) > 0
        rep = train(build_model(cfg, seed=seed), ds,
                    TrainConfig(steps=200, batch_size=2))
        assert np.mean(rep.losses[-10:]) < np.mean(rep.losses[:10])


class TestEvaluate:
    def test_deterministic(self):
        ds = make_dataset(frames=8, spf=4)
        model = build_model(tiny_config("wavenet"), seed=7)
        a = evaluate(model, ds, "mse")
        b = evaluate(model, ds, "mse")
        assert a == b

    def test_perfect_model_mse_zero(self):
        audio = np.zeros((32, 2))
        ds = make_dataset(frames=8, spf=4, audio=audio)
        model = build_model(tiny_config("wavenet"), seed=8)
        for t in model.params.values():
            t.data[...] = 0.0
        assert evaluate(model, ds, "mse") == 0.0

    def test_empty_validation_split(self):
        ds = make_dataset(frames=8, train_fraction=1.0)
        model = build_model(tiny_config("wavenet"), seed=9)
        with pytest.raises(ContractError):
            evaluate(model, ds, "mse")

    @pytest.mark.parametrize("max_windows", [0, -1])
    def test_max_windows_below_one_refused(self, max_windows):
        ds = make_dataset(frames=8, spf=4)
        model = build_model(tiny_config("wavenet"), seed=7)
        with pytest.raises(ParameterError, match="max_windows"):
            evaluate(model, ds, "mse", max_windows=max_windows)

    @pytest.mark.parametrize("max_windows", [1.5, "2"])
    def test_max_windows_not_an_int_refused(self, max_windows):
        ds = make_dataset(frames=8, spf=4)
        model = build_model(tiny_config("wavenet"), seed=7)
        with pytest.raises(ParameterError, match="max_windows"):
            evaluate(model, ds, "mse", max_windows=max_windows)

    def test_sequence_mode(self):
        ds = make_dataset(frames=8, spf=4)
        model = build_model(tiny_config("deep_fusion"), seed=10)
        v = evaluate(model, ds, "mse")
        assert np.isfinite(v)

    def test_deep_fusion_at_one_sample_per_frame(self):
        # one sample per step, as the other kinds, but as a (2, 1) frame
        ds = make_dataset(frames=8, spf=1)
        model = build_model(tiny_config("deep_fusion", spf=1), seed=10)
        assert model.step_samples == 1
        report = train(model, ds, TrainConfig(steps=2, batch_size=2,
                                              loss_kind="mse"))
        assert all(map(np.isfinite, report.losses))
        assert np.isfinite(evaluate(model, ds, "mse"))

    def test_checkpoint_cycle_preserves_loss(self, tmp_path):
        ds = make_dataset(frames=8, spf=4)
        model = build_model(tiny_config("wavenet"), seed=11)
        p = tmp_path / "ck.bin"
        save_checkpoint(model, p)
        m2 = load_checkpoint(p)
        save_checkpoint(m2, p)
        m3 = load_checkpoint(p)
        assert evaluate(m2, ds, "mse") == evaluate(m3, ds, "mse")


# Trains each model in a child process and prints sha256 digests of its
# loss curve and final parameters. The sizes put the batched weight-gradient
# GEMMs (K = batch x positions) at or past 262,144 multiply-adds, where
# OpenBLAS starts to split a GEMM across threads. The tiny configs never
# split conv3d's columns, so one paper-size conv3d (B=4, 8 ch, 4 x 36 x 64)
# runs its chunked GEMMs forward and backward.
_BLAS_CHILD = """
import hashlib, json
import numpy as np
from conftest import make_dataset, tiny_config
from foleygen.engine import Tensor, backward, conv3d
from foleygen.models import build_model
from foleygen.training import TrainConfig, train
sha = lambda a: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
configs = {
    "wavenet": tiny_config("wavenet", audio_ctx_len=128, wn_channels=32),
    "transformer": tiny_config("transformer", ctx_mode="raw_short",
                               audio_ctx_len=64, d_model=32, tf_blocks=2,
                               ff_hidden=64, pos_table_len=64),
}
out = {}
for kind, cfg in configs.items():
    m = build_model(cfg, seed=3)
    rep = train(m, make_dataset(frames=12, spf=4),
                TrainConfig(steps=3, batch_size=4, seed=1, learning_rate=1e-2))
    out[kind] = [sha(np.asarray(rep.losses)), sha(m.flat)]
rng = np.random.default_rng(5)
x = Tensor(rng.uniform(-1, 1, (4, 8, 4, 36, 64)), requires_grad=True)
k = Tensor(rng.uniform(-1, 1, (8, 8, 3, 3, 3)), requires_grad=True)
y = conv3d(x, k)
backward((y * y).sum())
out["conv3d"] = [sha(y.data), sha(x.grad), sha(k.grad)]
print(json.dumps(out))
"""


class TestBlasThreadDeterminism:
    def test_one_and_two_blas_threads_train_identically(self):
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here.parent / "src"), str(here)])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-c",
                 _BLAS_CHILD],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        assert set(runs[0]) == {"wavenet", "transformer", "conv3d"}
        assert runs[0] == runs[1]
