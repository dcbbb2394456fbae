"""Command-line entry points tying the pipeline together.

Subcommands: ingest, train, generate, eval, plot, selftest.
Exit codes: 0 success, 2 validation/usage error, 1 internal error.
Every produced artifact gets a JSON run-manifest sidecar, replaced whole,
recording the package version, the command, wall seconds, peak RSS and
content hashes of its inputs; training also records its model and train
configs, generation the checkpoint's model config and its real-time factor.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__, avio, generation, models, report, training
from .errors import FoleygenError

_LOSS_FLAG = {
    "mse": "mse",
    "mae": "mae",
    "xent": "xent_bernoulli",
    "xent-literal": "xent_paper_literal",
    "xent-cat": "xent_categorical",
}
_MODEL_FLAG = {
    "deep-fusion": "deep_fusion",
    "wavenet": "wavenet",
    "transformer": "transformer",
}

OUT_DIR_ENV = "FOLEYGEN_OUT_DIR"


def _out_path(p) -> Path:
    path = Path(p)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(command: str, args, inputs, outputs, **extra) -> None:
    """Replace the sidecar whole; seconds and peak RSS are the run's so far."""
    manifest = {
        "version": __version__,
        "command": command,
        "argv": sys.argv[1:],
        "seconds": time.perf_counter() - args.started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        **extra,
    }
    with avio.replacing_file(f"{outputs[0]}.manifest.json") as f:
        f.write((json.dumps(manifest, indent=2) + "\n").encode())


# -- subcommands --------------------------------------------------------------


def _cmd_ingest(args) -> int:
    ds = avio.ingest(args.manifest, target_rate=args.rate,
                     height=args.height, width=args.width)
    out = _out_path(args.out)
    avio.save_dataset(ds, out)
    _write_manifest("ingest", args, [args.manifest], [out])
    print(f"ingested {ds.av.video.frame_count} frames, spf {ds.av.spf} -> {out}")
    return 0


def _model_config_for(args, ds: avio.Dataset) -> models.ModelConfig:
    text = avio.read_input(args.model_config) if args.model_config else "{}"
    kind = {"kind": _MODEL_FLAG[args.model]}
    mc = models.ModelConfig.from_json(text, **kind, **ds.geometry)
    what = f"model config {args.model_config}"
    mc.check_fields(kind, what, "--model")
    mc.check_fields(ds.geometry, what, f"dataset {args.dataset}")
    return mc


def _load_for_dataset(args):
    """Load checkpoint and dataset; refuse a model built for other data."""
    model = models.load_checkpoint(args.checkpoint, precision=args.precision)
    ds = avio.load_dataset(args.dataset)
    model.config.check_fields(ds.geometry, f"checkpoint {args.checkpoint}",
                              f"dataset {args.dataset}")
    return model, ds


def _cmd_train(args) -> int:
    ds = avio.load_dataset(args.dataset)
    tc = training.TrainConfig.from_json(avio.read_input(args.config))
    mc = _model_config_for(args, ds)
    model = models.build_model(mc, seed=tc.seed, precision=args.precision)
    out = _out_path(args.out)
    csv_path = out.with_suffix(".loss.csv")
    rep = training.train(model, ds, tc, checkpoint_path=out,
                         loss_csv_path=csv_path)
    inputs = [args.dataset, args.config]
    if args.model_config:
        inputs.append(args.model_config)
    _write_manifest("train", args, inputs, [out, csv_path],
                    model_config=asdict(mc), train_config=asdict(tc))
    print(f"trained {mc.kind} for {tc.steps} steps; "
          f"final loss {rep.losses[-1]:.6g} -> {out}")
    return 0


def _cmd_generate(args) -> int:
    model, ds = _load_for_dataset(args)
    t0 = time.perf_counter()
    audio = generation.generate(model, ds.av.video, total_frames=args.frames)
    wall = time.perf_counter() - t0
    rtf = len(audio) / audio.sample_rate / wall
    out = _out_path(args.out)
    generation.write_wav(audio, out)
    outputs = [out]
    if args.csv:
        csv_path = _out_path(args.csv)
        generation.write_waveform_csv(audio, csv_path)
        outputs.append(csv_path)
    _write_manifest("generate", args, [args.checkpoint, args.dataset], outputs,
                    real_time_factor=rtf, model_config=asdict(model.config))
    print(f"generated {len(audio)} samples at {audio.sample_rate} Hz in "
          f"{wall:.3g} s (real-time factor {rtf:.3g}) -> {out}")
    return 0


def _cmd_eval(args) -> int:
    model, ds = _load_for_dataset(args)
    kind = _LOSS_FLAG[args.loss]
    value = training.evaluate(model, ds, kind, max_windows=args.max_windows)
    table = report.loss_table([(args.video, model.config.kind, value)])
    print(table, end="")
    return 0


def _cmd_plot(args) -> int:
    out = _out_path(args.out)
    report.plot_waveform(args.csv, args.spf, out, sample_rate=args.rate)
    _write_manifest("plot", args, [args.csv], [out])
    print(f"wrote {out}")
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest
    return selftest.run(verbose=True)


# -- parser -------------------------------------------------------------------


def _add_precision(p):
    p.add_argument("--precision", choices=models._PRECISIONS,
                   default="float64")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="foleygen",
        description="Learn and generate stereo audio for silent video.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="WAV + clip manifest -> aligned dataset")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--rate", type=int, default=8820)
    sp.add_argument("--width", type=int, default=64)
    sp.add_argument("--height", type=int, default=36)
    sp.set_defaults(fn=_cmd_ingest)

    sp = sub.add_parser("train", help="dataset + config -> checkpoint + loss CSV")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--config", required=True, help="TrainConfig JSON file")
    sp.add_argument("--model", choices=sorted(_MODEL_FLAG), required=True)
    sp.add_argument("--model-config", help="ModelConfig JSON overrides")
    sp.add_argument("--out", required=True)
    _add_precision(sp)
    sp.set_defaults(fn=_cmd_train)

    sp = sub.add_parser("generate", help="checkpoint + dataset -> WAV (+CSV)")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--csv")
    sp.add_argument("--frames", type=int)
    _add_precision(sp)
    sp.set_defaults(fn=_cmd_generate)

    sp = sub.add_parser("eval", help="checkpoint + dataset -> loss table row")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--loss", choices=sorted(_LOSS_FLAG), default="xent")
    sp.add_argument("--video", default="video")
    sp.add_argument("--max-windows", type=int, default=2000)
    _add_precision(sp)
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("plot", help="waveform CSV -> SVG with frame markers")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--spf", type=int, required=True)
    sp.add_argument("--rate", type=int, default=8820)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_plot)

    sp = sub.add_parser("selftest",
                        help="run gradient, causality, and alignment suites")
    sp.set_defaults(fn=_cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    try:
        return args.fn(args)
    except FoleygenError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
