import json
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foleygen import avio
from foleygen.avio import (
    AlignedAV,
    AudioBuffer,
    VideoClip,
    align,
    downsample_audio,
    ingest,
    load_clip,
    load_dataset,
    load_wav,
    resize_frames,
    sample_window,
    save_dataset,
)
from foleygen.errors import (
    AlignmentError,
    BoundsError,
    FormatError,
    ParameterError,
    UnsupportedError,
)
from foleygen.generation import frame_boundary_discontinuity
from foleygen.report import plot_waveform
from conftest import fail_on_nth_write, make_dataset, save_zero_size_dataset


def write_pcm16_wav(path, samples, rate):
    pcm = np.asarray(samples, dtype="<i2")
    data = pcm.tobytes()
    channels = 1 if pcm.ndim == 1 else pcm.shape[1]
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, channels, rate, rate * 2 * channels, 2 * channels, 16,
        b"data", len(data))
    path.write_bytes(hdr + data)


def write_clip(tmp_path, frames_u8, fps, name="clip"):
    raw = np.asarray(frames_u8, dtype=np.uint8)
    (tmp_path / f"{name}.rgb").write_bytes(raw.tobytes())
    manifest = tmp_path / f"{name}.json"
    manifest.write_text(json.dumps({
        "frames_file": f"{name}.rgb",
        "width": raw.shape[2], "height": raw.shape[1],
        "frame_count": raw.shape[0], "frame_rate": fps,
    }))
    return manifest


# float32 0x7f810000: casting it to float64 raises the invalid flag
SIGNALLING_NAN = b"\x00\x00\x81\x7f"


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_audio_buffer(self, bad):
        samples = np.zeros((4, 2))
        samples[2, 1] = bad
        with pytest.raises(FormatError):
            AudioBuffer(samples=samples, sample_rate=8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_video_clip(self, bad):
        frames = np.full((2, 3, 4, 4), 0.5)
        frames[1, 0, 2, 3] = bad
        with pytest.raises(FormatError):
            VideoClip(frames=frames, frame_rate=5)


class TestLoadWav:
    def test_full_scale_scaling(self, tmp_path):
        p = tmp_path / "a.wav"
        write_pcm16_wav(p, np.array([[32767, 0], [0, -32768]]), 100)
        buf = load_wav(p)
        assert buf.samples[0, 0] == pytest.approx(32767 / 32768)
        assert buf.samples[0, 1] == 0.0
        assert buf.samples[1, 1] == -1.0
        assert buf.sample_rate == 100

    def test_mono_duplicated(self, tmp_path):
        p = tmp_path / "m.wav"
        write_pcm16_wav(p, np.array([100, -100, 3]), 50)
        buf = load_wav(p)
        assert buf.samples.shape == (3, 2)
        npt.assert_array_equal(buf.samples[:, 0], buf.samples[:, 1])

    def test_float32_wav(self, tmp_path):
        p = tmp_path / "f.wav"
        data = np.array([[0.5, -0.25]], dtype="<f4").tobytes()
        hdr = struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE",
            b"fmt ", 16, 3, 2, 100, 800, 8, 32, b"data", len(data))
        p.write_bytes(hdr + data)
        buf = load_wav(p)
        npt.assert_allclose(buf.samples, [[0.5, -0.25]])

    @pytest.mark.parametrize("sample", [SIGNALLING_NAN, b"\x00\x00\x80\x7f"],
                             ids=["signalling_nan", "inf"])
    def test_non_finite_float32_wav(self, tmp_path, sample):
        # a signalling NaN or inf, refused before any cast to float64
        p = tmp_path / "f.wav"
        data = np.array([0.5], dtype="<f4").tobytes() + sample
        hdr = struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE",
            b"fmt ", 16, 3, 2, 100, 800, 8, 32, b"data", len(data))
        p.write_bytes(hdr + data)
        with pytest.raises(FormatError, match="f.wav: .*finite"):
            load_wav(p)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"NOTAWAVEFILE")
        with pytest.raises(FormatError):
            load_wav(p)

    def test_fmt_chunk_cut_off_by_end_of_file(self, tmp_path):
        p = tmp_path / "cut.wav"
        # the fmt chunk declares 16 bytes, but the file ends after 6
        p.write_bytes(struct.pack("<4sI4s4sIHHH", b"RIFF", 22, b"WAVE",
                                  b"fmt ", 16, 1, 2, 100))
        with pytest.raises(FormatError, match="fmt chunk truncated"):
            load_wav(p)

    def test_data_chunk_cut_off_by_end_of_file(self, tmp_path):
        p = tmp_path / "cut.wav"
        # the data chunk declares 1,000 bytes, but the file ends after 16
        hdr = struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + 1000, b"WAVE",
            b"fmt ", 16, 1, 2, 100, 400, 4, 16, b"data", 1000)
        p.write_bytes(hdr + b"\x00" * 16)
        with pytest.raises(FormatError, match="data chunk truncated"):
            load_wav(p)

    @pytest.mark.parametrize("fmt_tag,bits", [(1, 16), (3, 32)])
    def test_data_chunk_not_whole_samples(self, tmp_path, fmt_tag, bits):
        p = tmp_path / "odd.wav"
        data = b"\x00" * (bits // 8 + 1)
        hdr = struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE",
            b"fmt ", 16, fmt_tag, 1, 100, 100 * bits // 8, bits // 8, bits,
            b"data", len(data))
        p.write_bytes(hdr + data + b"\x00")   # pad byte of an odd chunk
        with pytest.raises(FormatError, match="whole number of samples"):
            load_wav(p)

    def test_unsupported_codec(self, tmp_path):
        p = tmp_path / "ulaw.wav"
        hdr = struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 38, b"WAVE",
            b"fmt ", 16, 7, 1, 8000, 8000, 1, 8, b"data", 2)
        p.write_bytes(hdr + b"\x00\x00")
        with pytest.raises(UnsupportedError):
            load_wav(p)


class TestLoadClip:
    def test_all_white_frame(self, tmp_path):
        m = write_clip(tmp_path, np.full((1, 2, 2, 3), 255), 30)
        clip = load_clip(m)
        npt.assert_array_equal(clip.frames, np.ones((1, 3, 2, 2)))
        assert clip.frame_rate == 30

    def test_byte_scaling(self, tmp_path):
        m = write_clip(tmp_path, np.full((1, 1, 1, 3), 128), 30)
        clip = load_clip(m)
        npt.assert_allclose(clip.frames, 128 / 255)

    def test_short_file_rejected(self, tmp_path):
        m = write_clip(tmp_path, np.zeros((9, 2, 2, 3)), 30)
        meta = json.loads(m.read_text())
        meta["frame_count"] = 10
        m.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="expected"):
            load_clip(m)


    @pytest.mark.parametrize("field,value", [
        ("width", "x"), ("width", 0), ("height", 0), ("frame_count", 0),
        ("frame_rate", 0), ("height", -2), ("width", 2.5), ("width", True),
        ("frames_file", 5), ("frames_file", None),
    ])
    def test_bad_field_is_format_error(self, tmp_path, field, value):
        m = write_clip(tmp_path, np.zeros((1, 2, 2, 3)), 30)
        meta = json.loads(m.read_text())
        meta[field] = value
        m.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=field):
            load_clip(m)

    def test_manifest_not_an_object(self, tmp_path):
        m = tmp_path / "clip.json"
        m.write_text("[1, 2]")
        with pytest.raises(FormatError):
            load_clip(m)

    def test_non_utf8_manifest(self, tmp_path):
        m = tmp_path / "clip.json"
        m.write_bytes(b"\xff\xfe{")
        with pytest.raises(FormatError, match="unreadable manifest"):
            load_clip(m)


class TestMissingInputFile:
    @pytest.mark.parametrize("load", [load_wav, load_dataset])
    def test_missing_file_is_format_error(self, tmp_path, load):
        with pytest.raises(FormatError, match="nope.bin"):
            load(tmp_path / "nope.bin")

    def test_directory_is_format_error(self, tmp_path):
        with pytest.raises(FormatError):
            load_dataset(tmp_path)

    def test_missing_frames_file_is_format_error(self, tmp_path):
        m = write_clip(tmp_path, np.zeros((1, 2, 2, 3)), 30)
        meta = json.loads(m.read_text())
        (m.parent / meta["frames_file"]).unlink()
        with pytest.raises(FormatError, match=meta["frames_file"]):
            load_clip(m)


class TestDownsample:
    def test_dc_preserved(self):
        a = AudioBuffer(samples=np.full((44100, 2), 0.5), sample_rate=44100)
        out = downsample_audio(a, 8820)
        assert out.sample_rate == 8820
        npt.assert_allclose(out.samples[-100:], 0.5, atol=1e-6)

    def test_decimation_arithmetic(self):
        a = AudioBuffer(samples=np.zeros((44100, 2)), sample_rate=44100)
        assert len(downsample_audio(a, 8820)) == 8820

    def test_identity_when_rate_matches(self):
        rng = np.random.default_rng(0)
        a = AudioBuffer(samples=rng.uniform(-1, 1, (64, 2)), sample_rate=100)
        out = downsample_audio(a, 100)
        npt.assert_array_equal(out.samples, a.samples)

    def test_non_divisor_rejected(self):
        a = AudioBuffer(samples=np.zeros((10, 2)), sample_rate=44100)
        with pytest.raises(ParameterError):
            downsample_audio(a, 8000)


def silence(n=40, rate=40):
    return AudioBuffer(np.zeros((n, 2)), rate)


def waveform_csv(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("index,left,right\n0,0.0,0.0\n1,0.1,0.1\n")
    return path


# a rate or samples-per-frame count is an int (a numpy integer is one, a
# bool is not) or a ParameterError, never a late struct.error or IndexError
@pytest.mark.parametrize("call", [
    lambda tmp: AudioBuffer(np.zeros((4, 2)), 2.5),
    lambda tmp: VideoClip(np.zeros((1, 3, 2, 2)), 2.5),
    lambda tmp: AlignedAV(silence(4, 4), VideoClip(np.zeros((2, 3, 1, 1)), 2),
                          2.0),
    lambda tmp: downsample_audio(silence(), 20.0),
    lambda tmp: downsample_audio(silence(), True),
    lambda tmp: frame_boundary_discontinuity(silence(), 2.0),
    lambda tmp: plot_waveform(waveform_csv(tmp), 1.5, tmp / "w.svg"),
], ids=["AudioBuffer", "VideoClip", "AlignedAV", "downsample-float",
        "downsample-bool", "frame_boundary_discontinuity", "plot_waveform"])
def test_non_integer_rate_or_spf_refused(call, tmp_path):
    with pytest.raises(ParameterError):
        call(tmp_path)


def test_numpy_integer_rate_accepted():
    a = downsample_audio(silence(40, np.int64(40)), np.int32(20))
    assert (a.sample_rate, len(a)) == (20, 20)


class TestResize:
    def test_same_size_identity(self):
        rng = np.random.default_rng(1)
        v = VideoClip(frames=rng.uniform(0, 1, (2, 3, 4, 6)), frame_rate=10)
        out = resize_frames(v, 4, 6)
        npt.assert_array_equal(out.frames, v.frames)

    def test_checkerboard_average(self):
        board = np.zeros((1, 3, 2, 2))
        board[:, :, 0, 1] = 1.0
        board[:, :, 1, 0] = 1.0
        v = VideoClip(frames=board, frame_rate=10)
        out = resize_frames(v, 1, 1)
        npt.assert_allclose(out.frames, 0.5)

    def test_zero_frames(self):
        v = VideoClip(frames=np.zeros((2, 3, 4, 4)), frame_rate=10)
        out = resize_frames(v, 8, 8)
        npt.assert_array_equal(out.frames, np.zeros((2, 3, 8, 8)))

    @pytest.mark.parametrize("h, w", [(2.5, 3), (3, 2.5), (True, 3),
                                      (3, "3")])
    def test_non_int_size_refused(self, h, w):
        v = VideoClip(frames=np.zeros((2, 3, 4, 4)), frame_rate=10)
        with pytest.raises(ParameterError, match="size"):
            resize_frames(v, h, w)


class TestAlign:
    def test_spf_from_rates(self):
        a = AudioBuffer(samples=np.zeros((44100, 2)), sample_rate=44100)
        v = VideoClip(frames=np.zeros((30, 3, 2, 2)), frame_rate=30)
        assert align(a, v).spf == 1470

    def test_tail_clipping(self):
        a = AudioBuffer(samples=np.zeros((44117, 2)), sample_rate=44100)
        v = VideoClip(frames=np.zeros((70, 3, 2, 2)), frame_rate=60)
        d = align(a, v)
        assert d.spf == 735
        assert len(d.audio) == 44100
        assert d.video.frame_count == 60

    def test_exact_fit_untouched(self):
        rng = np.random.default_rng(2)
        samples = rng.uniform(-1, 1, (40, 2))
        a = AudioBuffer(samples=samples, sample_rate=20)
        v = VideoClip(frames=rng.uniform(0, 1, (8, 3, 2, 2)), frame_rate=4)
        d = align(a, v)
        assert len(d.audio) == 40 and d.video.frame_count == 8
        npt.assert_array_equal(d.audio.samples, samples)

    def test_indivisible_rate_rejected(self):
        a = AudioBuffer(samples=np.zeros((100, 2)), sample_rate=44100)
        v = VideoClip(frames=np.zeros((3, 3, 2, 2)), frame_rate=29)
        with pytest.raises(AlignmentError):
            align(a, v)

    def test_too_few_frames_rejected(self):
        a = AudioBuffer(samples=np.zeros((100, 2)), sample_rate=20)
        v = VideoClip(frames=np.zeros((2, 3, 2, 2)), frame_rate=4)
        with pytest.raises(AlignmentError):
            align(a, v)

    @given(st.integers(1, 8), st.integers(1, 12), st.integers(1, 10),
           st.integers(0, 11))
    @settings(max_examples=80, deadline=None)
    def test_invariants_property(self, fps, spf, frames, extra):
        rate = fps * spf
        n = frames * spf + min(extra, spf - 1)
        a = AudioBuffer(samples=np.zeros((n, 2)), sample_rate=rate)
        v = VideoClip(frames=np.zeros((frames + 1, 3, 2, 2)), frame_rate=fps)
        d = align(a, v)
        assert d.spf == spf
        assert len(d.audio) % d.spf == 0
        assert d.video.frame_count * d.spf == len(d.audio)


class TestSampleWindow:
    def test_frame0_audio_context_all_zero(self):
        d = make_dataset().av
        w = sample_window(d, 0, 6, 3, "sample", 0)
        npt.assert_array_equal(w.audio_ctx, np.zeros((6, 2)))

    def test_frame0_video_padding(self):
        d = make_dataset().av
        w = sample_window(d, 0, 6, 4, "sample", 0)
        npt.assert_array_equal(w.video_ctx[:3], 0.0)
        npt.assert_array_equal(w.video_ctx[3], d.video.frames[0])

    def test_index_arithmetic(self):
        ds = make_dataset(frames=4, spf=4)
        d = ds.av
        w = sample_window(d, 2, 3, 2, "sample", 1)
        # target position 2*4+1 = 9; context = samples 6,7,8
        npt.assert_array_equal(w.audio_ctx, d.audio.samples[6:9])
        npt.assert_array_equal(w.target, d.audio.samples[9])

    def test_frame_sequence_target(self):
        d = make_dataset(frames=4, spf=4).av
        w = sample_window(d, 1, 4, 2, "frame_sequence")
        npt.assert_array_equal(w.target, d.audio.samples[4:8])
        npt.assert_array_equal(w.audio_ctx, d.audio.samples[0:4])

    def test_constant_context_sizes_everywhere(self):
        d = make_dataset(frames=6, spf=3).av
        for fi in range(6):
            for off in range(3):
                w = sample_window(d, fi, 7, 4, "sample", off)
                assert w.audio_ctx.shape == (7, 2)
                assert w.video_ctx.shape == (4, 3, 4, 4)

    def test_bounds(self):
        d = make_dataset().av
        with pytest.raises(BoundsError):
            sample_window(d, 99, 4, 2)
        with pytest.raises(BoundsError):
            sample_window(d, 0, 4, 2, "sample", d.spf)

    @pytest.mark.parametrize("offset", [1, 3, 99, -1])
    def test_frame_target_refuses_an_offset(self, offset):
        # a frame target starts at its frame; an offset would be ignored
        d = make_dataset(frames=4, spf=4).av
        with pytest.raises(BoundsError, match="frame_sequence"):
            sample_window(d, 1, 4, 2, "frame_sequence", sample_offset=offset)

    @pytest.mark.parametrize("audio_ctx_len,video_ctx_len", [(-1, 2), (4, -1)])
    def test_negative_context_length_refused(self, audio_ctx_len,
                                             video_ctx_len):
        d = make_dataset().av
        with pytest.raises(ParameterError, match="context"):
            sample_window(d, 0, audio_ctx_len, video_ctx_len)

    @pytest.mark.parametrize("args", [
        (1.5, 4, 2), (1, 2.5, 2), (1, 4, 2.5), (True, 4, 2),
        (1, 4, 2, "sample", 0.5), (1, 4, 2, "sample", "1")])
    def test_non_int_index_or_length_refused(self, args):
        d = make_dataset().av
        with pytest.raises(ParameterError):
            sample_window(d, *args)

    def test_numpy_int_index_accepted(self):
        d = make_dataset(frames=4, spf=4).av
        a = sample_window(d, np.int64(2), np.int64(3), 2, "sample",
                          np.int64(1))
        b = sample_window(d, 2, 3, 2, "sample", 1)
        npt.assert_array_equal(a.audio_ctx, b.audio_ctx)
        npt.assert_array_equal(a.target, b.target)


class TestDataset:
    def test_save_load_round_trip(self, tmp_path):
        ds = make_dataset(frames=5, spf=3, seed=4)
        p = tmp_path / "ds.bin"
        save_dataset(ds, p)
        back = load_dataset(p)
        assert back.av.spf == ds.av.spf
        assert back.train_fraction == ds.train_fraction
        npt.assert_allclose(back.av.audio.samples, ds.av.audio.samples,
                            atol=1e-6)
        npt.assert_allclose(back.av.video.frames, ds.av.video.frames,
                            atol=1 / 255 + 1e-12)

    def test_truncated_rejected(self, tmp_path):
        ds = make_dataset()
        p = tmp_path / "ds.bin"
        save_dataset(ds, p)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(FormatError):
            load_dataset(p)

    def test_split(self):
        ds = make_dataset(frames=8, train_fraction=0.75)
        assert list(ds.train_frames()) == [0, 1, 2, 3, 4, 5]
        assert list(ds.val_frames()) == [6, 7]

    @pytest.mark.parametrize("frac", [-0.1, 1.5, float("nan"), float("inf")])
    def test_train_fraction_outside_unit_interval(self, frac, tmp_path):
        with pytest.raises(ParameterError):
            make_dataset(train_fraction=frac)
        # the same value read back from a file is a format error
        p = tmp_path / "ds.bin"
        save_dataset(make_dataset(train_fraction=1.0), p)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<d", raw, struct.calcsize("<4sIIIIIII"), frac)
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_dataset(p)

    def test_signalling_nan_audio_is_format_error(self, tmp_path):
        p = tmp_path / "ds.bin"
        save_dataset(make_dataset(), p)
        raw = bytearray(p.read_bytes())
        at = struct.calcsize("<4sIIIIIIId") + 4
        raw[at: at + 4] = SIGNALLING_NAN
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=r"ds.bin: .*\[-1, 1\]"):
            load_dataset(p)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, 3.5])
    def test_out_of_range_audio_is_format_error(self, tmp_path, value):
        # a saved sample lies in [-1, 1]; anything else is a corrupt file,
        # not a value to clip
        p = tmp_path / "ds.bin"
        save_dataset(make_dataset(), p)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<f", raw, struct.calcsize("<4sIIIIIIId") + 4, value)
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=r"ds.bin: .*\[-1, 1\]"):
            load_dataset(p)

    @pytest.mark.parametrize("axis", ["height", "width"])
    def test_zero_frame_size_is_format_error(self, tmp_path, axis):
        p = tmp_path / "ds.bin"
        save_zero_size_dataset(p, axis)
        with pytest.raises(FormatError, match="1x1"):
            load_dataset(p)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        p = tmp_path / "ds.bin"
        save_dataset(make_dataset(seed=1), p)
        before = p.read_bytes()
        fail_on_nth_write(monkeypatch, avio, 2)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(make_dataset(seed=2), p)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["ds.bin"]


    def test_save_syncs_before_replacing(self, tmp_path, monkeypatch):
        events = []
        fsync, replace = avio.os.fsync, avio.os.replace
        monkeypatch.setattr(avio.os, "fsync",
                            lambda fd: (events.append("fsync"), fsync(fd)))
        monkeypatch.setattr(avio.os, "replace",
                            lambda a, b: (events.append("replace"),
                                          replace(a, b)))
        save_dataset(make_dataset(), tmp_path / "ds.bin")
        assert events == ["fsync", "replace"]


class TestIngest:
    def test_end_to_end(self, tmp_path):
        rng = np.random.default_rng(5)
        fps, rate, spf = 5, 40, 8
        write_pcm16_wav(tmp_path / "a.wav",
                        (rng.uniform(-0.5, 0.5, (rate * 2, 2)) * 32767)
                        .astype("<i2"), rate)
        write_clip(tmp_path, rng.integers(0, 256, (fps * 2 + 1, 6, 8, 3)), fps)
        paired = tmp_path / "pair.json"
        paired.write_text(json.dumps({
            "clip_manifest": "clip.json", "wav_path": "a.wav",
            "train_fraction": 0.8,
        }))
        ds = ingest(paired, target_rate=rate, height=4, width=4)
        assert ds.av.spf == spf
        assert ds.av.video.frames.shape[2:] == (4, 4)
        assert len(ds.av.audio) == ds.av.video.frame_count * spf

    def test_missing_field(self, tmp_path):
        paired = tmp_path / "pair.json"
        paired.write_text(json.dumps({"wav_path": "a.wav"}))
        with pytest.raises(FormatError, match="clip_manifest"):
            ingest(paired)

    def test_non_utf8_manifest(self, tmp_path):
        paired = tmp_path / "pair.json"
        paired.write_bytes(b"\xff\xfe{")
        with pytest.raises(FormatError, match="unreadable manifest"):
            ingest(paired)
