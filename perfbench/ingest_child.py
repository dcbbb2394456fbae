"""Ingest one synthesized source in its own process and report its cost.

Run by ``run.py`` so that the float64 decode of the source video peaks in
this process, not in the one whose peak RSS the benchmark reports:

    python3 perfbench/ingest_child.py MANIFEST OUT.bin RATE HEIGHT WIDTH TRACE

Prints one JSON line: peak RSS, and with TRACE=1 the avio span totals.
"""

import json
import resource
import sys

from foleygen import avio
from tracing import INGEST_NAMES, Tracer


def main(argv) -> int:
    manifest, out, rate, height, width, traced = argv
    tracer = None
    if traced == "1":
        tracer = Tracer()
        tracer.install(INGEST_NAMES)
    try:
        ds = avio.ingest(manifest, target_rate=int(rate), height=int(height),
                         width=int(width))
        avio.save_dataset(ds, out)
    finally:
        if tracer is not None:
            tracer.restore()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "peak_rss_mb": rss_kb / 1024.0,
        "spans": tracer.totals() if tracer else {},
        "missing": sorted(tracer.missing) if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
