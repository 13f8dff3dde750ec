"""``python -m repro.serve start`` on a free loopback port, for the
serve-mixed workload.

    python3 perfbench/perf_daemon.py --cache-dir DIR [--trace-out FILE]

Prints the daemon's ``# serving on HOST:PORT`` line and serves until
SIGTERM.  With ``--trace-out`` the daemon runs traced and writes its
spans and counters there as JSON once it has drained.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    tracer = None
    if args.trace_out:
        import perf_trace

        tracer = perf_trace.Tracer()
        perf_trace.instrument(tracer)
    from repro.serve.cli import main as serve_main

    rc = serve_main(["start", "--address", "127.0.0.1:0",
                     "--cache-dir", args.cache_dir])
    if tracer is not None:
        Path(args.trace_out).write_text(json.dumps(tracer.payload()))
    return rc


if __name__ == "__main__":
    sys.exit(main())
