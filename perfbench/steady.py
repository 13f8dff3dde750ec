"""Steadiness check: run workloads in fresh processes and report each
end-to-end metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workload NAME ...]

Every run measures ``run_seconds`` of ``BENCHMARK.json``, the length
its bounds hold for.  Run ``i`` of set ``k`` uses seed
``first_seed + k * runs + i``, so no two runs share inputs.  ``spread``
is the distance between the first and third quartile as a share of
the median (``statistics.quantiles`` with ``n=4``); it must stay
within the bound for every metric, and ``spread/bound`` should stay
well below 1.  With two sets, ``shift`` is how much the second set's
median is worse than the first's, as a share of the first; it must
stay within the bound for every metric.  The exit status is 1 when
either check fails.  The last line is the whole summary as JSON, raw
values included.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import perf_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(command: List[str], workload: str, seed: int, seconds: int,
             trace: int) -> Dict:
    """One fresh-process run of the benchmark command; its result, with
    the run's mean host probe (ms) added as ``host_probe_ms``."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("host_probe_ms = "):
            result["host_probe_ms"] = float(line.split()[2])
    return result


def worse_share(first: float, second: float, better: str) -> float:
    """How much ``second`` is worse than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    summary: Dict[str, Dict] = {}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: List[Dict[str, List[float]]] = []
        for k in range(args.sets):
            per_metric: Dict[str, List[float]] = {m: [] for m in metrics}
            per_metric["host_probe_ms"] = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                result = run_once(spec["command"], workload, seed,
                                  seconds, 0)
                if not result["correct"]:
                    ok = False
                    print(f"{workload} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} operations failed")
                for name in metrics:
                    per_metric[name].append(
                        result["metrics"][name]["value"])
                per_metric["host_probe_ms"].append(result["host_probe_ms"])
            values.append(per_metric)
        print(f"\n{workload}: {args.sets} x {args.runs} runs of "
              f"{seconds}s")
        print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'spr/bnd':>7}"
              + (f" {'shift':>7}" if args.sets == 2 else ""))
        rows = {}
        for name, m in metrics.items():
            row = {"bound": m["bound"], "sets": []}
            for per_metric in values:
                xs = per_metric[name]
                q1, med, q3 = perf_stats.quartiles(xs)
                spread = perf_stats.spread(xs)
                row["sets"].append({"median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "values": xs})
                line = (f"{name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                        f"{spread:>7.3f} {m['bound']:>6.2f} "
                        f"{spread / m['bound']:>7.2f}")
                if spread > m["bound"]:
                    ok = False
                if len(row["sets"]) == 2:
                    shift = worse_share(row["sets"][0]["median"], med,
                                        m["better"])
                    row["shift"] = shift
                    line += f" {shift:>7.3f}"
                    if shift > m["bound"]:
                        ok = False
                print(line)
            rows[name] = row
        # how far the host's own speed moved (not a metric, no bound)
        probes = [perf_stats.spread(v["host_probe_ms"]) for v in values]
        median = perf_stats.quartiles(values[0]["host_probe_ms"])[1]
        print(f"{'host_probe_ms':<18} {median:>12.6g}  spread "
              + " / ".join(f"{p:.3f}" for p in probes))
        rows["host_probe_ms"] = {"spreads": probes}
        summary[workload] = rows
    print(json.dumps({"steady": ok, "workloads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
