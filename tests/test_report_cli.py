import json
import re
import resource
import struct
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from foleygen import __version__, avio, cli, generation, training
from foleygen.avio import AudioBuffer, load_dataset, load_wav
from foleygen.errors import FormatError, ParameterError
from foleygen.generation import write_wav, write_waveform_csv
from foleygen.report import format_loss, loss_table, plot_waveform
from foleygen.models import build_model, load_checkpoint, save_checkpoint
from conftest import (
    BAD_MODEL_SIZES,
    bad_size_id,
    fail_on_nth_write,
    make_dataset,
    rewrite_config,
    save_with_both_front_ends,
    save_zero_size_dataset,
    tiny_config,
)


class TestFormatLoss:
    @pytest.mark.parametrize("value,text", [
        (0.0, "0.00000"),
        (1.65133e-05, "1.65133e-05"),
        (-0.03785, "-0.03785"),
        (-0.219996, "-0.22000"),
        (0.5, "0.50000"),
        (-9.9999e-04, "-9.99990e-04"),
    ])
    def test_cases(self, value, text):
        assert format_loss(value) == text

    def test_round_trip_precision(self):
        rng = np.random.default_rng(0)
        for v in rng.uniform(-1, 1, 50):
            back = float(format_loss(v))
            assert abs(back - v) <= 5e-6 * max(1.0, abs(v))


class TestLossTable:
    def test_header_and_values(self):
        rows = [
            ("clip_a", "deep_fusion", -0.03785),
            ("clip_a", "wavenet", 1.65133e-05),
            ("clip_a", "transformer", -0.219996),
        ]
        text = loss_table(rows)
        lines = text.splitlines()
        assert lines[0].split(" | ")[0].strip() == "Test Video"
        assert "Deep Fusion" in lines[0]
        assert "Wavenet-based" in lines[0]
        assert "Aud & Vid Transformer" in lines[0]
        assert "-0.03785" in lines[2]
        assert "1.65133e-05" in lines[2]
        assert "-0.22000" in lines[2]

    def test_missing_cells_blank(self):
        text = loss_table([("clip_b", "wavenet", 0.5)])
        row = text.splitlines()[2]
        cells = [c.strip() for c in row.split("|")]
        assert cells[0] == "clip_b"
        assert cells[1] == ""
        assert cells[2] == "0.50000"

    def test_empty_rows(self):
        with pytest.raises(FormatError):
            loss_table([])


class TestPlotWaveform:
    def _csv(self, tmp_path, n=12):
        rng = np.random.default_rng(1)
        buf = AudioBuffer(samples=rng.uniform(-1, 1, (n, 2)), sample_rate=12)
        p = tmp_path / "wave.csv"
        write_waveform_csv(buf, p)
        return p

    def test_valid_svg_with_markers(self, tmp_path):
        csv_path = self._csv(tmp_path, n=12)
        out = tmp_path / "wave.svg"
        plot_waveform(csv_path, 4, out)
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")
        markers = [e for e in root.iter()
                   if e.get("class") == "frame-marker"]
        assert len(markers) == 3  # 12 samples / spf 4
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2

    @pytest.mark.parametrize("n", [1, 12, 589])
    def test_points_match_per_sample_formatting(self, tmp_path, n):
        csv_path = self._csv(tmp_path, n=n)
        out = tmp_path / "wave.svg"
        plot_waveform(csv_path, 4, out)
        wave = np.loadtxt(csv_path, delimiter=",", skiprows=1,
                          ndmin=2)[:, 1:]
        polylines = [e for e in ET.parse(out).getroot().iter()
                     if e.tag.endswith("polyline")]
        for ch, line in enumerate(polylines):
            # reference: each point computed and formatted on its own
            expected = " ".join(
                f"{40.0 + 820.0 * (i / max(n - 1, 1)):.2f},"
                f"{150.0 - wave[i, ch] * 110.0:.2f}" for i in range(n))
            assert line.get("points") == expected

    def test_empty_csv_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(FormatError):
            plot_waveform(p, 4, tmp_path / "o.svg")

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("index,left,right\n0,0.1\n")
        with pytest.raises(FormatError):
            plot_waveform(p, 4, tmp_path / "o.svg")

    @pytest.mark.parametrize("spf,rate", [(0, 12), (-2, 12), (4, 0), (4, -5)])
    def test_bad_spf_or_rate_rejected(self, tmp_path, spf, rate):
        out = tmp_path / "o.svg"
        with pytest.raises(ParameterError):
            plot_waveform(self._csv(tmp_path), spf, out, sample_rate=rate)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "5.0"])
    def test_amplitude_outside_unit_range_rejected(self, tmp_path, value):
        p = tmp_path / "bad.csv"
        p.write_text(f"index,left,right\n0,0.1,0.2\n1,{value},0.0\n")
        out = tmp_path / "o.svg"
        with pytest.raises(FormatError, match="amplitudes"):
            plot_waveform(p, 1, out)
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--spf", "0"), ("--spf", "-2"), ("--rate", "0"), ("--rate", "-5"),
    ])
    def test_cli_bad_spf_or_rate_exit_code(self, tmp_path, capsys, flag,
                                           value):
        svg = tmp_path / "wave.svg"
        args = {"--spf": "4", "--rate": "12", flag: value}
        argv = ["plot", "--csv", str(self._csv(tmp_path)), "--out", str(svg)]
        for name, v in args.items():
            argv += [name, v]
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not svg.exists()


# -- CLI end to end -----------------------------------------------------------


def make_fixture(root, frames=6, fps=5, wav_rate=40, extra_samples=0, seed=2):
    """Synthetic paired clip: PCM16 stereo WAV plus raw RGB8 frames."""
    rng = np.random.default_rng(seed)
    n = frames * (wav_rate // fps) + extra_samples
    audio = AudioBuffer(samples=rng.uniform(-0.9, 0.9, (n, 2)),
                        sample_rate=wav_rate)
    write_wav(audio, root / "clip.wav")
    pixels = rng.integers(0, 256, (frames, 4, 4, 3), dtype=np.uint8)
    (root / "frames.rgb").write_bytes(pixels.tobytes())
    (root / "clip.json").write_text(json.dumps({
        "frames_file": "frames.rgb", "width": 4, "height": 4,
        "frame_count": frames, "frame_rate": fps,
    }))
    (root / "pair.json").write_text(json.dumps({
        "clip_manifest": "clip.json", "wav_path": "clip.wav",
        "train_fraction": 0.75,
    }))
    return root / "pair.json"


TINY_WAVENET = {
    "audio_ctx_len": 16, "video_ctx_len": 2, "embed_channels": 2,
    "embed_blocks": 1, "wn_channels": 3, "wn_dilations": [1, 2],
    "wn_rounds": 1,
}


def run_pipeline(tmp_path, steps=3, seed=0):
    manifest = make_fixture(tmp_path)
    ds_path = tmp_path / "data.bin"
    rc = cli.main(["ingest", "--manifest", str(manifest),
                   "--out", str(ds_path), "--rate", "20",
                   "--height", "4", "--width", "4"])
    assert rc == 0
    (tmp_path / "train.json").write_text(json.dumps({
        "learning_rate": 1e-3, "steps": steps, "batch_size": 1,
        "seed": seed, "loss_kind": "mse", "clip_norm": 1.0,
        "checkpoint_interval": 50,
    }))
    (tmp_path / "model.json").write_text(json.dumps(TINY_WAVENET))
    ckpt = tmp_path / "model.bin"
    rc = cli.main(["train", "--dataset", str(ds_path),
                   "--config", str(tmp_path / "train.json"),
                   "--model", "wavenet",
                   "--model-config", str(tmp_path / "model.json"),
                   "--out", str(ckpt)])
    assert rc == 0
    return ds_path, ckpt


class TestCliPipeline:
    def test_ingest_output_and_manifest(self, tmp_path):
        manifest = make_fixture(tmp_path, extra_samples=3)
        out = tmp_path / "ds.bin"
        rc = cli.main(["ingest", "--manifest", str(manifest),
                       "--out", str(out), "--rate", "20",
                       "--height", "4", "--width", "4"])
        assert rc == 0
        ds = load_dataset(out)
        assert ds.av.spf == 4
        assert ds.av.video.frame_count * 4 == len(ds.av.audio)
        side = json.loads((tmp_path / "ds.bin.manifest.json").read_text())
        assert side["command"] == "ingest"
        assert str(manifest) in side["inputs"]
        assert len(side["inputs"][str(manifest)]) == 64  # sha256 hex

    def test_train_generate_eval_plot(self, tmp_path, capsys):
        ds_path, ckpt = run_pipeline(tmp_path)
        assert (tmp_path / "model.loss.csv").exists()
        wav = tmp_path / "out.wav"
        csv_path = tmp_path / "out.csv"
        rc = cli.main(["generate", "--checkpoint", str(ckpt),
                       "--dataset", str(ds_path), "--out", str(wav),
                       "--csv", str(csv_path), "--frames", "2"])
        assert rc == 0
        audio = load_wav(wav)
        assert len(audio) == 8          # 2 frames x spf 4
        assert audio.sample_rate == 20
        rc = cli.main(["eval", "--checkpoint", str(ckpt),
                       "--dataset", str(ds_path), "--loss", "mse"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Test Video" in out and "Wavenet-based" in out
        svg = tmp_path / "out.svg"
        rc = cli.main(["plot", "--csv", str(csv_path), "--spf", "4",
                       "--rate", "20", "--out", str(svg)])
        assert rc == 0
        ET.parse(svg)  # well-formed XML

    def test_sidecars_record_version_seconds_and_real_time_factor(
            self, tmp_path, capsys):
        ds_path, ckpt = run_pipeline(tmp_path)
        wav, csv_path, svg = (tmp_path / n for n in ("out.wav", "out.csv",
                                                     "out.svg"))
        capsys.readouterr()
        assert cli.main(["generate", "--checkpoint", str(ckpt),
                         "--dataset", str(ds_path), "--out", str(wav),
                         "--csv", str(csv_path), "--frames", "2"]) == 0
        out = capsys.readouterr().out
        assert cli.main(["plot", "--csv", str(csv_path), "--spf", "4",
                         "--rate", "20", "--out", str(svg)]) == 0
        sides = {}
        for command, path in [("ingest", ds_path), ("train", ckpt),
                              ("generate", wav), ("plot", svg)]:
            side = json.loads(Path(f"{path}.manifest.json").read_text())
            assert side["command"] == command
            assert side["version"] == __version__
            assert 0 < side["seconds"] < 600
            assert ("real_time_factor" in side) == (command == "generate")
            sides[command] = side
        rtf = sides["generate"]["real_time_factor"]
        assert f" s (real-time factor {rtf:.3g}) -> " in out
        # 8 samples at 20 Hz last 0.4 s; generation is part of the command
        assert 0.4 / sides["generate"]["seconds"] <= rtf < float("inf")

    def test_sidecars_record_configs_and_peak_rss(self, tmp_path):
        ds_path, ckpt = run_pipeline(tmp_path)
        wav = tmp_path / "out.wav"
        assert cli.main(["generate", "--checkpoint", str(ckpt),
                         "--dataset", str(ds_path), "--out", str(wav),
                         "--frames", "1"]) == 0
        sides = {command: json.loads(Path(f"{path}.manifest.json").read_text())
                 for command, path in [("ingest", ds_path), ("train", ckpt),
                                       ("generate", wav)]}
        peak_now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for side in sides.values():
            assert 0 < side["peak_rss_mb"] <= peak_now
        saved = json.loads(load_checkpoint(ckpt).config.to_json())
        assert sides["train"]["model_config"] == saved
        assert sides["generate"]["model_config"] == saved
        assert saved["wn_channels"] == TINY_WAVENET["wn_channels"]
        assert sides["train"]["train_config"] == json.loads(
            (tmp_path / "train.json").read_text())
        assert "model_config" not in sides["ingest"]
        assert "train_config" not in sides["generate"]

    def test_failed_sidecar_write_keeps_the_previous_one(self, tmp_path,
                                                         monkeypatch, capsys):
        csv_path = TestPlotWaveform()._csv(tmp_path)
        svg = tmp_path / "wave.svg"
        argv = ["plot", "--csv", str(csv_path), "--spf", "4",
                "--rate", "12", "--out", str(svg)]
        assert cli.main(argv) == 0
        side = Path(f"{svg}.manifest.json")
        before, names = side.read_bytes(), sorted(tmp_path.iterdir())
        fail_on_nth_write(monkeypatch, avio, 1)
        assert cli.main(argv) == 1
        assert "disk full" in capsys.readouterr().err
        assert side.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == names

    @pytest.mark.parametrize("command,target", [
        ("generate", (generation, "generate")),
        ("eval", (training, "evaluate")),
        ("train", (training, "train")),
    ])
    def test_float32_precision_reaches_parameters(self, tmp_path, monkeypatch,
                                                  command, target):
        ds_path, ckpt = run_pipeline(tmp_path, steps=1)
        module, name = target
        real = getattr(module, name)
        seen = []

        def spy(model, *args, **kwargs):
            seen.extend(t.data.dtype for t in model.params.values())
            result = real(model, *args, **kwargs)
            seen.extend(t.data.dtype for t in model.params.values())
            return result

        monkeypatch.setattr(module, name, spy)
        argv = [command, "--dataset", str(ds_path), "--precision", "float32"]
        if command == "train":
            # a bound this tight clips every step
            (tmp_path / "train.json").write_text(json.dumps({
                "steps": 3, "loss_kind": "mse", "clip_norm": 1e-6}))
            argv += ["--config", str(tmp_path / "train.json"),
                     "--model", "wavenet",
                     "--model-config", str(tmp_path / "model.json"),
                     "--out", str(tmp_path / "m32.bin")]
        else:
            argv += ["--checkpoint", str(ckpt)]
        if command == "generate":
            argv += ["--out", str(tmp_path / "out.wav"), "--frames", "1"]
        elif command == "eval":
            argv += ["--loss", "mse", "--max-windows", "2"]
        assert cli.main(argv) == 0
        assert seen and set(seen) == {np.dtype(np.float32)}

    def test_out_dir_env_redirect(self, tmp_path, monkeypatch):
        manifest = make_fixture(tmp_path)
        sink = tmp_path / "sink"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(sink))
        rc = cli.main(["ingest", "--manifest", str(manifest),
                       "--out", "nested/ds.bin", "--rate", "20",
                       "--height", "4", "--width", "4"])
        assert rc == 0
        assert (sink / "nested" / "ds.bin").exists()

    def test_validation_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        rc = cli.main(["ingest", "--manifest", str(missing),
                       "--out", str(tmp_path / "x.bin")])
        assert rc == 2

    def test_bad_dataset_exit_code(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(struct.pack("<4s", b"NOPE") + b"\x00" * 64)
        (tmp_path / "t.json").write_text(json.dumps({"steps": 1}))
        rc = cli.main(["train", "--dataset", str(bad),
                       "--config", str(tmp_path / "t.json"),
                       "--model", "wavenet", "--out", str(tmp_path / "m.bin")])
        assert rc == 2

    @pytest.mark.parametrize("axis", ["height", "width"])
    def test_zero_frame_size_dataset_exit_code(self, tmp_path, capsys, axis):
        bad = tmp_path / "bad.bin"
        save_zero_size_dataset(bad, axis)
        (tmp_path / "t.json").write_text(json.dumps({"steps": 1}))
        capsys.readouterr()
        assert cli.main(["train", "--dataset", str(bad),
                         "--config", str(tmp_path / "t.json"),
                         "--model", "wavenet",
                         "--out", str(tmp_path / "m.bin")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_generate_rate_past_the_wav_header_exit_code(self, tmp_path,
                                                          capsys):
        # fps 2^30 at spf 1: a tiny dataset whose WAV byte rate, 4 x 2^30,
        # does not fit the header's 32-bit field
        data, ckpt = tmp_path / "ds.bin", tmp_path / "m.bin"
        avio.save_dataset(make_dataset(frames=4, spf=1, fps=2 ** 30), data)
        save_checkpoint(build_model(tiny_config("wavenet", spf=1)), ckpt)
        wav = tmp_path / "out.wav"
        capsys.readouterr()
        assert cli.main(["generate", "--checkpoint", str(ckpt),
                         "--dataset", str(data), "--out", str(wav)]) == 2
        assert "32-bit" in capsys.readouterr().err
        assert not wav.exists()

    @pytest.mark.parametrize("command", ["generate", "eval"])
    @pytest.mark.parametrize("ingest_args,key,values", [
        (["--rate", "40", "--height", "4", "--width", "4"], "spf", ("4", "8")),
        (["--rate", "20", "--height", "2", "--width", "4"], "frame_h", ("4", "2")),
        (["--rate", "20", "--height", "4", "--width", "3"], "frame_w", ("4", "3")),
    ])
    def test_checkpoint_for_other_dataset_refused(self, tmp_path, capsys,
                                                  command, ingest_args, key,
                                                  values):
        _, ckpt = run_pipeline(tmp_path, steps=1)
        other = tmp_path / "other.bin"
        assert cli.main(["ingest", "--manifest", str(tmp_path / "pair.json"),
                         "--out", str(other)] + ingest_args) == 0
        capsys.readouterr()
        argv = [command, "--checkpoint", str(ckpt), "--dataset", str(other)]
        if command == "generate":
            argv += ["--out", str(tmp_path / "out.wav")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{key} {values[0]}" in err and f"{key} {values[1]}" in err
        assert not (tmp_path / "out.wav").exists()

    @pytest.mark.parametrize("key,value", [
        ("spf", 8), ("frame_h", 2), ("frame_w", 3),
    ])
    def test_model_config_for_other_dataset_refused(self, tmp_path, capsys,
                                                    key, value):
        manifest = make_fixture(tmp_path)
        ds_path = tmp_path / "data.bin"
        assert cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(ds_path), "--rate", "20",
                         "--height", "4", "--width", "4"]) == 0
        (tmp_path / "train.json").write_text(json.dumps({"steps": 1}))
        (tmp_path / "model.json").write_text(
            json.dumps({**TINY_WAVENET, key: value}))
        capsys.readouterr()
        ckpt = tmp_path / "m.bin"
        assert cli.main(["train", "--dataset", str(ds_path),
                         "--config", str(tmp_path / "train.json"),
                         "--model", "wavenet",
                         "--model-config", str(tmp_path / "model.json"),
                         "--out", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert f"{key} {value}" in err and f"{key} 4" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag,text", [
        ("--config", '{"steps": 1,'),
        ("--config", '{"steps": 1, "stepz": 2}'),
        ("--model-config", '{"wn_channelz": 3}'),
        ("--model-config", '{"audio_ctx_len": 0}'),
        ("--config", '{"steps": "3"}'),
        ("--config", '{"learning_rate": true}'),
        ("--model-config", '{"spf": "3"}'),
        ("--model-config", '{"wn_rounds": "2"}'),
        ("--config", '{"steps": 1, "clip_norm": -1.0}'),
        ("--config", '{"steps": 1, "clip_norm": 0}'),
        ("--config", '{"steps": 1, "clip_norm": NaN}'),
        ("--config", '{"steps": 1, "clip_norm": Infinity}'),
        ("--config", '{"steps": 1, "learning_rate": NaN}'),
        ("--config", '{"steps": 1, "learning_rate": Infinity}'),
        ("--config", '{"steps": 1, "learning_rate": -Infinity}'),
    ])
    def test_bad_config_file_exit_code(self, tmp_path, capsys, flag, text):
        manifest = make_fixture(tmp_path)
        ds_path = tmp_path / "data.bin"
        assert cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(ds_path), "--rate", "20",
                         "--height", "4", "--width", "4"]) == 0
        files = {"--config": '{"steps": 1}', "--model-config": "{}"}
        files[flag] = text
        argv = ["train", "--dataset", str(ds_path), "--model", "wavenet",
                "--out", str(tmp_path / "m.bin")]
        for name, body in files.items():
            path = tmp_path / f"{name.strip('-')}.json"
            path.write_text(body)
            argv += [name, str(path)]
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("fields", [
        {"heads": 0}, {"heads": -2}, {"d_model": 0},
    ])
    def test_bad_attention_shape_exit_code(self, tmp_path, capsys, fields):
        # refused with the config, before a forward pass divides by the
        # head count or reshapes to a negative head width
        manifest = make_fixture(tmp_path)
        ds_path = tmp_path / "data.bin"
        assert cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(ds_path), "--rate", "20",
                         "--height", "4", "--width", "4"]) == 0
        (tmp_path / "train.json").write_text(json.dumps({"steps": 1}))
        (tmp_path / "model.json").write_text(json.dumps({
            "audio_ctx_len": 16, "video_ctx_len": 2, "embed_channels": 2,
            "embed_blocks": 1, "d_model": 8, "heads": 2, "tf_blocks": 1,
            "ff_hidden": 16, "pos_table_len": 32, **fields}))
        ckpt = tmp_path / "m.bin"
        capsys.readouterr()
        assert cli.main(["train", "--dataset", str(ds_path),
                         "--config", str(tmp_path / "train.json"),
                         "--model", "transformer",
                         "--model-config", str(tmp_path / "model.json"),
                         "--out", str(ckpt)]) == 2
        err = capsys.readouterr().err
        # the message names the refused field
        assert err.startswith("error: ") and next(iter(fields)) in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("missing", [
        "config", "model-config", "dataset",
    ])
    def test_train_missing_input_file_exit_code(self, tmp_path, capsys,
                                                missing):
        ds_path, _ = run_pipeline(tmp_path, steps=1)
        paths = {"config": tmp_path / "train.json",
                 "model-config": tmp_path / "model.json",
                 "dataset": ds_path}
        paths[missing] = tmp_path / "nope.bin"
        argv = ["train", "--model", "wavenet",
                "--out", str(tmp_path / "m2.bin")]
        for name, path in paths.items():
            argv += [f"--{name}", str(path)]
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.bin" in err

    def test_train_refuses_quantized_wavenet(self, tmp_path, capsys):
        ds_path, _ = run_pipeline(tmp_path, steps=1)
        (tmp_path / "model.json").write_text(
            json.dumps({**TINY_WAVENET, "quantized": True}))
        out = tmp_path / "q.bin"
        capsys.readouterr()
        assert cli.main(["train", "--dataset", str(ds_path),
                         "--config", str(tmp_path / "train.json"),
                         "--model", "wavenet",
                         "--model-config", str(tmp_path / "model.json"),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "quantized" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind,rc", [("wavenet", 0), ("transformer", 2)])
    def test_model_config_kind_must_be_the_model_flag(self, tmp_path, capsys,
                                                      kind, rc):
        ds_path, _ = run_pipeline(tmp_path, steps=1)
        (tmp_path / "model.json").write_text(json.dumps(
            {**TINY_WAVENET, "kind": kind, "ctx_mode": "raw_short"}))
        out = tmp_path / "k.bin"
        capsys.readouterr()
        assert cli.main(["train", "--dataset", str(ds_path),
                         "--config", str(tmp_path / "train.json"),
                         "--model", "wavenet",
                         "--model-config", str(tmp_path / "model.json"),
                         "--out", str(out)]) == rc
        if rc == 2:
            err = capsys.readouterr().err
            assert "kind transformer" in err and "kind wavenet" in err
            assert err.startswith("error: ")
        sidecar = Path(f"{out}.manifest.json")
        assert out.exists() == sidecar.exists() == (rc == 0)

    def test_negative_seed_in_train_config_refused(self, tmp_path, capsys):
        ds_path, _ = run_pipeline(tmp_path, steps=1)
        (tmp_path / "train.json").write_text(
            json.dumps({"steps": 1, "seed": -3}))
        out = tmp_path / "s.bin"
        capsys.readouterr()
        assert cli.main(["train", "--dataset", str(ds_path),
                         "--config", str(tmp_path / "train.json"),
                         "--model", "wavenet",
                         "--model-config", str(tmp_path / "model.json"),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [
        ["--ctx-mode", "strided"], ["--quantized"], ["--loss", "mse"],
        ["--seed", "1"],
    ], ids=lambda flag: flag[0])
    def test_train_has_no_flag_for_a_config_field(self, tmp_path, flag):
        # the settings come from --config and --model-config alone
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--dataset", "d.bin", "--config", "t.json",
                      "--model", "wavenet", "--out", str(tmp_path / "m.bin"),
                      *flag])
        assert exc.value.code == 2
        assert not (tmp_path / "m.bin").exists()

    def test_train_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "-h"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) == {
            "--help", "--dataset", "--config", "--model", "--model-config",
            "--out", "--precision"}

    def test_no_sidecar_records_a_seed_key(self, tmp_path):
        # the seed a run used is its train config's
        ds_path, ckpt = run_pipeline(tmp_path, seed=5)
        wav, csv_path, svg = (tmp_path / n for n in ("out.wav", "out.csv",
                                                     "out.svg"))
        assert cli.main(["generate", "--checkpoint", str(ckpt),
                         "--dataset", str(ds_path), "--out", str(wav),
                         "--csv", str(csv_path), "--frames", "1"]) == 0
        assert cli.main(["plot", "--csv", str(csv_path), "--spf", "4",
                         "--rate", "20", "--out", str(svg)]) == 0
        sides = [json.loads(Path(f"{p}.manifest.json").read_text())
                 for p in (ds_path, ckpt, wav, svg)]
        assert [s["command"] for s in sides] == [
            "ingest", "train", "generate", "plot"]
        assert not any("seed" in s for s in sides)
        assert sides[1]["train_config"]["seed"] == 5

    @pytest.mark.parametrize("command", ["generate", "eval"])
    @pytest.mark.parametrize("missing", ["checkpoint", "dataset"])
    def test_generate_eval_missing_input_file_exit_code(self, tmp_path,
                                                        capsys, command,
                                                        missing):
        ds_path, ckpt = run_pipeline(tmp_path, steps=1)
        paths = {"checkpoint": ckpt, "dataset": ds_path}
        paths[missing] = tmp_path / "nope.bin"
        argv = [command, "--checkpoint", str(paths["checkpoint"]),
                "--dataset", str(paths["dataset"])]
        if command == "generate":
            argv += ["--out", str(tmp_path / "out.wav")]
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.bin" in err
        assert not (tmp_path / "out.wav").exists()

    @pytest.mark.parametrize("max_windows", ["0", "-1"])
    def test_eval_refuses_max_windows_below_one(self, tmp_path, capsys,
                                                max_windows):
        ds_path, ckpt = run_pipeline(tmp_path, steps=1)
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--dataset", str(ds_path),
                         "--max-windows", max_windows]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "max_windows" in err

    @pytest.mark.parametrize("name", ["pair.json", "clip.json"])
    def test_ingest_non_utf8_manifest_exit_code(self, tmp_path, capsys,
                                                name):
        manifest = make_fixture(tmp_path)
        (tmp_path / name).write_bytes(b"\xff\xfe{")
        out = tmp_path / "ds.bin"
        capsys.readouterr()
        assert cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unreadable manifest" in err
        assert not out.exists()

    @pytest.mark.parametrize("width", ["x", 0])
    def test_ingest_bad_clip_manifest_exit_code(self, tmp_path, capsys,
                                                width):
        manifest = make_fixture(tmp_path)
        clip = tmp_path / "clip.json"
        meta = json.loads(clip.read_text())
        meta["width"] = width
        clip.write_text(json.dumps(meta))
        out = tmp_path / "ds.bin"
        capsys.readouterr()
        assert cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "width" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit,named", [
        (lambda meta: 5, "object"),
        (lambda meta: {**meta, "wav_path": 5}, "wav_path"),
        (lambda meta: {**meta, "train_fraction": "abc"}, "train_fraction"),
    ], ids=["not-an-object", "wav_path-int", "train_fraction-str"])
    def test_ingest_bad_paired_manifest_exit_code(self, tmp_path, capsys,
                                                  edit, named):
        manifest = make_fixture(tmp_path)
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        out = tmp_path / "ds.bin"
        capsys.readouterr()
        assert cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(out), "--rate", "20",
                         "--height", "4", "--width", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    def test_generate_refuses_version_1_checkpoint(self, tmp_path, capsys):
        ds_path, ckpt = run_pipeline(tmp_path, steps=1)
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        capsys.readouterr()
        assert cli.main(["generate", "--checkpoint", str(ckpt),
                         "--dataset", str(ds_path),
                         "--out", str(tmp_path / "out.wav")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "version 1" in err
        assert not (tmp_path / "out.wav").exists()

    def test_generate_refuses_version_2_checkpoint(self, tmp_path, capsys):
        ds_path, ckpt = run_pipeline(tmp_path, steps=1)
        raw = ckpt.read_bytes()
        for version in (2, 3):
            ckpt.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
            capsys.readouterr()
            assert cli.main(["generate", "--checkpoint", str(ckpt),
                             "--dataset", str(ds_path),
                             "--out", str(tmp_path / "out.wav")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"version {version}" in err
            assert not (tmp_path / "out.wav").exists()

    def test_generate_refuses_non_finite_checkpoint(self, tmp_path, capsys):
        ds_path, ckpt = run_pipeline(tmp_path, steps=1)
        m = load_checkpoint(ckpt)
        m.params["head_b"].data[:] = np.nan
        save_checkpoint(m, ckpt)
        capsys.readouterr()
        assert cli.main(["generate", "--checkpoint", str(ckpt),
                         "--dataset", str(ds_path),
                         "--out", str(tmp_path / "out.wav")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'head_b'" in err
        assert not (tmp_path / "out.wav").exists()

    @pytest.mark.parametrize("fields", BAD_MODEL_SIZES, ids=bad_size_id)
    def test_generate_refuses_checkpoint_size_that_would_crash(
            self, tmp_path, capsys, fields):
        manifest = make_fixture(tmp_path)
        ds_path = tmp_path / "data.bin"
        assert cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(ds_path), "--rate", "20",
                         "--height", "4", "--width", "4"]) == 0
        ckpt = tmp_path / "m.bin"
        save_checkpoint(build_model(tiny_config("wavenet"), seed=0), ckpt)
        rewrite_config(ckpt, fields)
        capsys.readouterr()
        assert cli.main(["generate", "--checkpoint", str(ckpt),
                         "--dataset", str(ds_path),
                         "--out", str(tmp_path / "out.wav")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "model config" in err
        assert not (tmp_path / "out.wav").exists()

    def test_generate_refuses_checkpoint_with_unread_front_end(self, tmp_path,
                                                               capsys):
        ds_path, _ = run_pipeline(tmp_path, steps=1)
        ckpt = tmp_path / "old.bin"
        save_with_both_front_ends(
            tiny_config("transformer", ctx_mode="raw_short"), ckpt)
        capsys.readouterr()
        assert cli.main(["generate", "--checkpoint", str(ckpt),
                         "--dataset", str(ds_path),
                         "--out", str(tmp_path / "out.wav")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tensor table row" in err
        assert not (tmp_path / "out.wav").exists()

    def test_selftest_passes(self):
        assert cli.main(["selftest"]) == 0
