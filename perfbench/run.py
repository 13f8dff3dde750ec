"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reference-sweep --seed 0 \\
        --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  Lines ahead of the result name every metric of the
workload's own path (with sample counts); the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones of
a separate traced run, whose spans are written under
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    import perf_workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(perf_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=perf_workloads.DEFAULT_SEED,
                        help="workload seed; every pin holds exactly at "
                             f"{perf_workloads.DEFAULT_SEED}")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import perf_host
    import perf_stats
    import perf_trace

    ctx = perf_workloads.Ctx(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    if ctx.trace:
        ctx.tracer = perf_trace.Tracer()
    try:
        perf_workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if ctx.trace:
        ctx.tracer.flush_all()
        spans = ctx.tracer.spans()
        layers = perf_trace.layer_metrics(spans, ctx.tracer.counts(),
                                          ctx.passes, ctx.layer_extra)
        out_dir = ROOT / ".perfbench" / "traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}.jsonl.gz"
        ctx.tracer.save(str(path))
        print(f"# {len(spans)} spans -> {path.relative_to(ROOT)}; "
              f"per-layer totals are per pass ({ctx.passes} traced)")
        metrics = {name: (value, perf_trace.LAYER_UNITS[name])
                   for name, value in layers.items()}
    else:
        # set-up runs fresh processes between its probes, which leaves
        # those few probes noisy: scale it by every probe of the run
        scale = ctx.host.scale()
        setup_s = (ctx.import_s + perf_stats.percentile(
            ctx.samples["setup"], 50)) * scale
        ctx.metric("setup_s", setup_s, "s")
        ctx.line("setup_s", setup_s, "s",
                 f"imports + median of {len(ctx.samples['setup'])} set-ups")
        phases = ", ".join(
            f"{phase} {ctx.host.probe_s(phase) * 1e3:.4g} ms (n={len(xs)})"
            for phase, xs in ctx.host.samples.items())
        ctx.report.append(
            f"host_probe_ms = {ctx.host.probe_s() * 1e3:.4g} ms  (the "
            f"timings above are scaled by the reference host's "
            f"{perf_host.REFERENCE_PROBE_S * 1e3:g} ms over a mean probe, "
            f"see perfbench/README.md; by phase: {phases})")
        peak = ctx.peak_rss_mb()
        ctx.metric("peak_rss_mb", peak, "MB")
        ctx.line("peak_rss_mb", peak, "MB")
        metrics = ctx.metrics
    for line in ctx.report:
        print(line)
    print(f"error_rate = {ctx.failed / max(1, ctx.attempted):.6g}  "
          f"({ctx.failed} of {ctx.attempted} operations failed)")
    for what in ctx.failures[:20]:
        print(f"FAILED: {what}", file=sys.stderr)
    if ctx.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        if metrics["trace.overhead_pct"][0] < 0:
            print("# trace.overhead_pct < 0: the tracing overhead is below "
                  "the noise between untraced and traced passes")
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
