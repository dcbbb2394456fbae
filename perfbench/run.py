#!/usr/bin/env python3
"""foleygen benchmark: seeded train / eval / generate / write workloads.

    python3 perfbench/run.py --workload clap-tiny --seed 1 --seconds 32 --trace 0

Run from the root of a foleygen checkout; the package is imported from its
``src`` directory. One process drives a closed loop with one client: set-up
runs several times (its median is ``setup_s``), then fixed-size episodes of
phases 2-5 repeat until ``--seconds`` is used up. The first episode is a
warm-up; each end-to-end metric is the median over the others. ``--trace 1``
runs the warm-up, one untraced episode, then traced ones, and reports the
per-layer metrics instead.

The last line of standard output is the JSON result; the lines before it are
a readable summary, the environment and the output digests. The full record
is also written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
WORKLOAD_NAMES = ("clap-tiny", "paper-wavenet", "paper-fusion")

END_TO_END = (
    ("setup_s", "s"),
    ("train_windows_per_s", "windows/s"),
    ("train_loss_final", "loss"),
    ("eval_windows_per_s", "windows/s"),
    ("gen_samples_per_s", "samples/s"),
    ("artifacts_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _prepare_process() -> int:
    """Cap BLAS threads at the CPUs this process may use, and make ``src``
    importable here and in child processes. Runs before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(n)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    return n


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown (not a git checkout)"


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when it can be asked."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": nproc,
        "cpu": cpu,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _cpu_steal() -> tuple[int, int] | None:
    """(steal, total) jiffies of the machine so far, where Linux reports them."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except (OSError, IndexError):
        return None
    ticks = [int(f) for f in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def run(args) -> tuple[dict, dict]:
    import episode
    from tracing import ENGINE_OPS, LAYER_NAMES, Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=OUT))
    tally = episode.Tally()
    tracer = Tracer() if args.trace else None

    def install():
        tracer.install(LAYER_NAMES, ENGINE_OPS)
        tracer.install_result_counter()

    try:
        if tracer:
            install()
        setups = [episode.setup(w, args.seed, work / f"setup{i}", bool(tracer))
                  for i in range(SETUP_REPS)]
        if tracer:
            tracer.restore()
        s = setups[-1]
        # the first episode warms caches and lazy set-up and is not timed; in
        # a traced run the second is the untraced baseline for the overhead
        records = []
        steal0 = _cpu_steal()
        t_start = time.perf_counter()
        while True:
            traced = tracer is not None and len(records) >= 2
            if traced:
                install()
            try:
                records.append(episode.run_episode(
                    w, s, work, tally, tracer if traced else None))
            finally:
                if traced:
                    tracer.restore()
            last = records[-1]
            if "artifact_s" not in last:
                break
            elapsed = time.perf_counter() - t_start
            if len(records) >= (3 if tracer else 2) and \
                    elapsed + last["episode_s"] > args.seconds:
                break
        warmup = records[:1]
        untraced = records[1:2] if tracer else []
        eps = records[2:] if tracer else records[1:]
        rss = episode.peak_rss_mb()
        steal1 = _cpu_steal()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = [e for e in records if "artifact_s" in e]
    digests = sorted({(e["loss_sha256"], e.get("val_loss"), e["wav_sha256"])
                      for e in done})
    deterministic = len(digests) == 1
    if not deterministic:
        tally.notes.append("episodes of one seed gave different digests")
    info = {
        "workload": w.name, "why": w.why, "episodes": len(records),
        "warmup_records": warmup,
        "digests": [{"loss_sha256": a, "val_loss": v, "wav_sha256": b}
                    for a, v, b in digests],
        "deterministic": deterministic, "failures": tally.notes,
        "attempted": tally.attempted, "failed": tally.failed,
        "episode_records": eps, "untraced_records": untraced,
        "setup_s": [st.seconds for st in setups],
        # share of the machine's CPU time taken by its hypervisor while the
        # episodes ran: the main source of run-to-run noise on a shared host
        "cpu_steal_frac": (steal1[0] - steal0[0]) / max(steal1[1] - steal0[1], 1)
        if steal0 and steal1 else None,
    }
    if len(done) != len(records):
        return info, {}

    if tracer:
        from layers import per_layer
        tracer.dump(OUT / f"spans-{w.name}-seed{args.seed}.npz", w.name)
        info["missing"] = sorted(tracer.missing)
        return info, per_layer(tracer, w, eps, untraced, setups)

    rate = s.dataset.av.audio.sample_rate
    metrics = {
        "setup_s": statistics.median(st.seconds for st in setups),
        "train_windows_per_s": statistics.median(w.batch * w.steps / e["train_s"] for e in eps),
        "train_loss_final": eps[0]["train_loss_final"],
        "eval_windows_per_s": statistics.median(e["windows"] / e["eval_s"] for e in eps),
        "gen_samples_per_s": statistics.median(e["samples"] / e["gen_s"] for e in eps),
        # one round of artifact writes: median over every round of the run
        "artifacts_s": statistics.median(t for e in eps for t in e["artifact_s"]),
        "peak_rss_mb": rss,
    }
    info["real_time_factor"] = metrics["gen_samples_per_s"] / rate
    info["sample_rate"] = rate
    return info, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "foleygen" / "__init__.py").is_file():
        print(f"error: no foleygen package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    nproc = _prepare_process()
    info, values = run(args)
    env = environment(args.seed, nproc)

    from layers import PER_LAYER
    spec = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit, *_ in spec:
        metrics[name] = {"value": values.get(name), "unit": unit}
    correct = bool(values) and info["failed"] == 0 and info["deterministic"]

    for name, m in metrics.items():
        shown = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        extra = ""
        if name == "gen_samples_per_s" and m["value"] is not None:
            extra = f"   (real-time factor {info['real_time_factor']:.4f})"
        print(f"{name:48s} {shown:>14s} {m['unit']}{extra}")
    rate = info["failed"] / max(info["attempted"], 1)
    print(f"{'error_rate':48s} {rate:>14.6g} ratio "
          f"({info['failed']} of {info['attempted']} operations)")
    print("digests " + json.dumps(info["digests"]))
    print("env " + json.dumps(env))
    record = {"info": info, "env": env, "metrics": metrics, "correct": correct}
    (OUT / f"result-{info['workload']}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(info["attempted"], 1),
                      "failed": info["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
