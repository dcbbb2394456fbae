import contextlib
import csv
import io

import numpy as np
import numpy.testing as npt
import pytest

from foleygen import engine, generation, training
from foleygen.avio import AudioBuffer, VideoClip, load_wav
from foleygen.errors import ContractError, ParameterError, RangeError
from foleygen.generation import (
    frame_boundary_discontinuity,
    generate,
    write_wav,
    write_waveform_csv,
)
from foleygen.models import build_model
from conftest import fill_head, make_dataset, tiny_config


def make_video(frames=3, h=4, w=4, fps=5, seed=0):
    rng = np.random.default_rng(seed)
    return VideoClip(frames=rng.uniform(0, 1, (frames, 3, h, w)),
                     frame_rate=fps)


class TestGenerate:
    def test_length_law_sequence_mode(self):
        cfg = tiny_config("deep_fusion", spf=294, audio_ctx_len=16)
        model = build_model(cfg, seed=0)
        audio = generate(model, make_video(frames=3))
        assert len(audio) == 882
        assert audio.sample_rate == 5 * 294

    def test_length_law_sample_mode(self):
        cfg = tiny_config("wavenet", spf=4)
        model = build_model(cfg, seed=1)
        audio = generate(model, make_video(frames=5))
        assert len(audio) == 20

    def test_embed_count_equals_frame_count(self):
        cfg = tiny_config("wavenet", spf=3)
        model = build_model(cfg, seed=2)
        calls = []
        inner = model.embed

        def spy(video_ctx):
            calls.append(video_ctx)
            return inner(video_ctx)

        model.embed = spy
        generate(model, make_video(frames=6))
        assert len(calls) == 6

    def test_first_context_all_zero_and_pure_autoregression(self):
        cfg = tiny_config("wavenet", spf=3, audio_ctx_len=8)
        model = build_model(cfg, seed=3)
        seen = []
        inner = model.forward_core

        def spy(audio_ctx, video_embed):
            seen.append(audio_ctx.data.copy())
            return inner(audio_ctx, video_embed)

        model.forward_core = spy
        audio = generate(model, make_video(frames=4))
        npt.assert_array_equal(seen[0], np.zeros((2, 8)))
        # every later context holds exactly the previously generated samples
        for pos in (1, 5, 11):
            expected = np.zeros((2, 8))
            lo = max(0, pos - 8)
            expected[:, 8 - (pos - lo):] = audio.samples[lo:pos].T
            npt.assert_array_equal(seen[pos], expected)

    def test_outputs_in_range(self):
        cfg = tiny_config("transformer", spf=3, ctx_mode="raw_short",
                          audio_ctx_len=8)
        model = build_model(cfg, seed=4)
        fill_head(model, 4)
        audio = generate(model, make_video(frames=4))
        assert np.all(np.abs(audio.samples) <= 1.0)

    def test_quantized_outputs_on_grid(self):
        cfg = tiny_config("transformer", spf=2, ctx_mode="raw_short",
                          audio_ctx_len=8, quantized=True)
        model = build_model(cfg, seed=5)
        fill_head(model, 5)
        audio = generate(model, make_video(frames=3))
        bins = (audio.samples + 1.0) / 2.0 * 255.0
        npt.assert_allclose(bins, np.round(bins), atol=1e-9)

    def test_deterministic(self):
        cfg = tiny_config("wavenet", spf=3)
        model = build_model(cfg, seed=6)
        a = generate(model, make_video(frames=3)).samples
        b = generate(model, make_video(frames=3)).samples
        npt.assert_array_equal(a, b)

    def test_frame_budget_checked(self):
        cfg = tiny_config("wavenet", spf=3)
        model = build_model(cfg, seed=7)
        with pytest.raises(ContractError):
            generate(model, make_video(frames=2), total_frames=5)

    @pytest.mark.parametrize("frames", [2.5, True, "2"])
    def test_non_int_frame_count_refused(self, frames):
        model = build_model(tiny_config("wavenet", spf=3), seed=7)
        with pytest.raises(ParameterError, match="total_frames"):
            generate(model, make_video(frames=3), total_frames=frames)


@pytest.mark.parametrize("field,size", [("frame_h", dict(h=5)),
                                        ("frame_w", dict(w=3))])
@pytest.mark.parametrize("kind", ["wavenet", "transformer", "deep_fusion"])
def test_other_frame_size_refused(kind, field, size):
    model = build_model(tiny_config(kind), seed=0)
    with pytest.raises(ContractError, match=f"model has {field} .* but clip"):
        generate(model, make_video(frames=2, **size))


TAPE_FREE_CASES = {
    "deep_fusion": (dict(), "mse"),
    "wavenet": (dict(), "mse"),
    "quantized_transformer": (dict(ctx_mode="raw_short", audio_ctx_len=8,
                                   quantized=True), "xent_categorical"),
}


def _tape_free_model(case, seed=12):
    overrides, _ = TAPE_FREE_CASES[case]
    kind = "transformer" if case.endswith("transformer") else case
    model = build_model(tiny_config(kind, spf=3, **overrides), seed=seed)
    if kind == "transformer":
        fill_head(model, seed)
    return model


class TestTapeFree:
    """generate/evaluate under no_grad against the same loops with a tape."""

    @pytest.mark.parametrize("case", sorted(TAPE_FREE_CASES))
    def test_generate_identical_with_and_without_tape(self, case,
                                                      monkeypatch):
        video = make_video(frames=4, seed=1)
        free = generate(_tape_free_model(case), video).samples
        monkeypatch.setattr(generation, "no_grad", contextlib.nullcontext)
        taped = generate(_tape_free_model(case), video).samples
        assert free.tobytes() == taped.tobytes()

    @pytest.mark.parametrize("case", sorted(TAPE_FREE_CASES))
    def test_evaluate_identical_with_and_without_tape(self, case,
                                                      monkeypatch):
        ds = make_dataset(frames=8, spf=3)
        kind = TAPE_FREE_CASES[case][1]
        free = training.evaluate(_tape_free_model(case), ds, kind)
        monkeypatch.setattr(training, "no_grad", contextlib.nullcontext)
        taped = training.evaluate(_tape_free_model(case), ds, kind)
        assert free.hex() == taped.hex()

    @pytest.mark.parametrize("case", sorted(TAPE_FREE_CASES))
    def test_no_tape_recorded_inside_generate(self, case, monkeypatch):
        recorded = []
        inner = engine.Tensor._result

        def spy(data, parents, backward_fn):
            out = inner(data, parents, backward_fn)
            recorded.append(out.requires_grad)
            return out

        monkeypatch.setattr(engine.Tensor, "_result", staticmethod(spy))
        generate(_tape_free_model(case), make_video(frames=2))
        assert recorded and not any(recorded)

    @pytest.mark.parametrize("case", sorted(TAPE_FREE_CASES))
    def test_training_after_generate_fills_every_gradient(self, case):
        ds = make_dataset(frames=8, spf=3)
        kind = TAPE_FREE_CASES[case][1]
        grads = []
        for run_generate_first in (False, True):
            model = _tape_free_model(case)
            if run_generate_first:
                generate(model, make_video(frames=2))
            window = training._window_for(model, ds, 1, 0)
            out = model.forward_window(window)
            engine.backward(training.loss(kind, out, window.target.T))
            grads.append({k: p.grad for k, p in model.params.items()})
        fresh, after = grads
        assert fresh.keys() == after.keys()
        for name in fresh:
            npt.assert_array_equal(after[name], fresh[name], err_msg=name)
        assert any(np.any(g != 0) for g in after.values())


class TestWriteWav:
    def test_round_trip_error_bound(self, tmp_path):
        rng = np.random.default_rng(8)
        buf = AudioBuffer(samples=rng.uniform(-1, 1, (500, 2)),
                          sample_rate=8820)
        p = tmp_path / "x.wav"
        write_wav(buf, p)
        back = load_wav(p)
        assert back.sample_rate == 8820
        # writer uses 1/32767, reader 1/32768; bound covers both
        assert np.abs(back.samples - buf.samples).max() <= 1.5 / 32767

    def test_zero_maps_to_pcm_zero(self, tmp_path):
        buf = AudioBuffer(samples=np.zeros((4, 2)), sample_rate=100)
        p = tmp_path / "z.wav"
        write_wav(buf, p)
        assert p.read_bytes()[44:] == b"\x00" * 16

    def test_header_duration(self, tmp_path):
        buf = AudioBuffer(samples=np.zeros((882, 2)), sample_rate=8820)
        p = tmp_path / "d.wav"
        write_wav(buf, p)
        back = load_wav(p)
        assert len(back) / back.sample_rate == pytest.approx(0.1)

    @pytest.mark.parametrize("rate", [2 ** 30, 2 ** 32])
    def test_byte_rate_past_32_bits_refused(self, tmp_path, rate):
        # the header's byte rate is 4 x rate in a 32-bit field
        buf = AudioBuffer(samples=np.zeros((2, 2)), sample_rate=rate)
        p = tmp_path / "r.wav"
        with pytest.raises(RangeError, match="32-bit"):
            write_wav(buf, p)
        assert not p.exists()

    def test_largest_byte_rate_written(self, tmp_path):
        rate = (2 ** 32 - 1) // 4
        p = tmp_path / "r.wav"
        write_wav(AudioBuffer(samples=np.zeros((2, 2)), sample_rate=rate), p)
        assert load_wav(p).sample_rate == rate


class TestDiscontinuityMetric:
    def test_constant_waveform_scores_zero(self):
        buf = AudioBuffer(samples=np.full((16, 2), 0.25), sample_rate=16)
        assert frame_boundary_discontinuity(buf, 4) == 0.0

    def test_boundary_jumps_match_brute_force(self):
        # unit jumps only at boundaries, 0 elsewhere: spf=4, 4 frames
        x = np.zeros(16)
        for k in range(1, 4):
            x[k * 4:] += (-1.0) ** k  # jump of magnitude 1 at each boundary
        x = np.clip(x, -1, 1)
        buf = AudioBuffer(samples=np.stack([x, x], axis=1), sample_rate=16)
        # independent brute-force ratio
        diffs = np.abs(np.diff(x))
        boundary = np.mean([abs(x[k * 4] - x[k * 4 - 1]) for k in (1, 2, 3)])
        expected = boundary / (diffs.mean() + 1e-12)
        got = frame_boundary_discontinuity(buf, 4)
        npt.assert_allclose(got, expected, rtol=1e-12)
        assert got > 4.0  # jumps concentrated at boundaries

    def test_smooth_sine_scores_near_one(self):
        n, spf = 4000, 100  # period != spf
        t = np.arange(n)
        x = 0.8 * np.sin(2 * np.pi * t / 37.0)
        buf = AudioBuffer(samples=np.stack([x, x], axis=1), sample_rate=8820)
        score = frame_boundary_discontinuity(buf, spf)
        assert abs(score - 1.0) < 0.2

    def test_needs_two_frames(self):
        buf = AudioBuffer(samples=np.zeros((4, 2)), sample_rate=4)
        with pytest.raises(ContractError):
            frame_boundary_discontinuity(buf, 4)

    def test_length_must_divide(self):
        buf = AudioBuffer(samples=np.zeros((10, 2)), sample_rate=4)
        with pytest.raises(ContractError):
            frame_boundary_discontinuity(buf, 4)

    @pytest.mark.parametrize("spf", [0, -1])
    def test_spf_below_one_refused(self, spf):
        buf = AudioBuffer(samples=np.zeros((8, 2)), sample_rate=4)
        with pytest.raises(ParameterError, match="spf"):
            frame_boundary_discontinuity(buf, spf)


class TestWaveformCsv:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        buf = AudioBuffer(samples=rng.uniform(-1, 1, (20, 2)),
                          sample_rate=100)
        p = tmp_path / "w.csv"
        write_waveform_csv(buf, p)
        rows = p.read_text().strip().splitlines()
        assert rows[0] == "index,left,right"
        vals = np.array([[float(c) for c in r.split(",")[1:]]
                         for r in rows[1:]])
        npt.assert_array_equal(vals, buf.samples)

    def test_bytes_match_the_csv_module(self, tmp_path):
        rng = np.random.default_rng(10)
        samples = rng.uniform(-1, 1, (20, 2))
        samples[:3] = [[-1.0, 1.0], [0.0, -0.0], [1e-300, -2.5e-8]]
        buf = AudioBuffer(samples=samples, sample_rate=100)
        p = tmp_path / "w.csv"
        write_waveform_csv(buf, p)
        ref = io.StringIO(newline="")
        w = csv.writer(ref)
        w.writerow(["index", "left", "right"])
        for i, (l, r) in enumerate(samples):
            w.writerow([i, repr(float(l)), repr(float(r))])
        assert p.read_bytes() == ref.getvalue().encode()
