"""S2 — reference-path benchmark: the churn grids' execution cost.

``test_reference_grids`` executes every point of the two recovery
grids serially (the churn-grid inner loop every sweep pays) against
the recorded pre-PR-5 baseline in ``benchmarks/BENCH_reference.json``
(tuple agenda + reschedule + lazy compaction, reshare solve cache,
deployment template cache and the persistent trace cache landed at
≥2× on the end-to-end sweep there).  Wall-clock ratios vs the
recorded dev-machine baseline are informational; the *enforced*
regression guard is machine-independent: the total ``sim_events``
over each grid must equal the recorded value exactly — the fast core
must never change which events execute.
"""

import json
import pathlib
import time

from conftest import append_bench_record

from repro.analysis import format_table
from repro.scenarios import SCENARIOS
from repro.scenarios.runner import run_scenario

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_reference.json"
GRIDS = ("coordinator-grid", "recovery-grid")


def test_reference_grids():
    baseline = json.loads(BASELINE_PATH.read_text())
    rows = []
    record = {}
    for grid in GRIDS:
        specs = SCENARIOS[grid].points()
        run_scenario(specs[0])  # warm the workload calibration
        t0 = time.perf_counter()
        results = [run_scenario(spec) for spec in specs]
        wall = time.perf_counter() - t0
        events = int(sum(r.metrics.get("sim_events", 0) for r in results))
        pre = baseline["pre_pr5"][grid]
        post = baseline["post_pr5"][grid]
        rows.append([
            grid, str(len(specs)),
            f"{pre['reference_wall_s']:.2f}", f"{wall:.2f}",
            f"{pre['reference_wall_s'] / wall:.2f}x",
            f"{pre['sweep_wall_s'] / post['sweep_wall_s']:.2f}x",
            str(events),
        ])
        record[grid] = {"wall_s": round(wall, 3), "sim_events": events}
        # the machine-independent contract: the fast core must not
        # change which events execute
        assert events == pre["sim_events_total"], (
            f"{grid}: sim_events drifted from the recorded baseline "
            f"({events} != {pre['sim_events_total']}) — the reference "
            f"fast core changed simulation behaviour"
        )
        assert events == post["sim_events_total"]
    print(format_table(
        ["grid", "points", "pre-PR5 [s]", "now [s]", "speedup",
         "sweep speedup (recorded)", "sim events"],
        rows,
    ))
    append_bench_record("reference_grids", record)

