"""Command-line front end for the sweep fleet and the results store.

::

    python -m repro.fleet run churn-grid --workers 4
    python -m repro.fleet run fig10-cluster-o3 \
        --set n_peers=2,4,8 --set seed=2011,2013 --label churn-b
    python -m repro.fleet worker --fleet-dir .scenario-cache/fleet/churn-b
    python -m repro.fleet stats churn-b
    python -m repro.fleet store
    python -m repro.fleet store compact
    python -m repro.fleet compare churn-a churn-b --html report.html

``run`` is the dispatcher: it expands the grid exactly like
``repro.scenarios sweep`` (same ``--set`` grammar, shared parser),
resolves cache hits in-process, and hands the remaining points to a
work-stealing worker fleet — local processes it spawns, plus any
remote ``worker`` attached to the same fleet directory over a shared
mount.  The resulting manifest is byte-identical to a serial sweep of
the same grid.  The fleet is the one way to split a grid across
machines.

``store`` lists what the consolidated ``<cache>/store/index.jsonl``
holds (every label a fleet recorded) and ``store compact`` rewrites
it newest-per-key; ``stats`` prints a live per-worker throughput view
of a fleet directory with stragglers flagged; ``compare`` diffs two
labels **from the store** (falling back to sweep manifests for
serial-sweep labels) and can render a static HTML regression report
with ``--html``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from ..params import parse_grid_sets
from ..scenarios.cli import (
    DEFAULT_CACHE_DIR,
    _check_label,
    _load_manifest,
    _resolve,
    _UsageError,
    report_comparison,
)
from ..scenarios.registry import get_scenario
from ..scenarios.runner import expand_grid
from .dispatcher import FleetDispatcher, FleetError, FleetOutcome
from .protocol import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_LIVENESS_TIMEOUT,
    DEFAULT_MAX_RETRIES,
    HEARTBEAT_INTERVAL,
)
from .store import ResultStore
from .telemetry import fleet_stats, format_stats
from .worker import FleetWorker


def _print_outcome(outcome: FleetOutcome) -> None:
    print(f"# fleet {outcome.label!r}: {len(outcome.points)} points "
          f"({outcome.cached} from cache, {outcome.computed} computed) "
          f"in {outcome.wall:.1f}s")
    for worker, n in outcome.worker_points.items():
        if worker != "cache":
            print(f"#   {worker}: {n} points")
    if outcome.reassignments:
        moved = ", ".join(f"p{i} ×{n}" for i, n in
                          sorted(outcome.reassignments.items()))
        print(f"# reassigned after worker death: {moved}")
    if outcome.poisoned:
        for index, record in outcome.poisoned.items():
            print(f"# POISON p{index} {record.get('name', '?')!r}: "
                  f"{record.get('reason', 'retry budget exhausted')}")
        print(f"# manifest is PARTIAL ({len(outcome.poisoned)} poisoned "
              f"points); compare will refuse it until they resolve")
    for stat in outcome.worker_stats:
        if stat.get("straggler"):
            reasons = "; ".join(stat.get("reasons") or ())
            print(f"# STRAGGLER {stat['worker']}: {reasons}")
    if outcome.compaction is not None:
        c = outcome.compaction
        print(f"# store compacted at finalize: {c['records_before']} -> "
              f"{c['records_after']} records ({c['dropped']} dropped, "
              f"generation {c['generation']})")
    if outcome.manifest_path is not None:
        print(f"# sweep manifest: {outcome.manifest_path}")


def cmd_run(args: argparse.Namespace) -> int:
    entry = _resolve(get_scenario, args.name)
    try:
        grid = parse_grid_sets(args.set or [])
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    specs = (_resolve(expand_grid, entry.base, grid) if grid
             else entry.points())
    label = args.label or entry.name
    _check_label(label)
    try:
        dispatcher = FleetDispatcher(
            specs, label=label, scenario=entry.name,
            cache_dir=args.cache_dir, workers=args.workers,
            liveness_timeout=args.liveness_timeout,
            max_retries=args.max_retries,
            backoff_base=args.backoff_base,
            wall_timeout=args.wall_timeout,
            compact_threshold=args.compact_threshold,
        )
        outcome = dispatcher.run()
    except FleetError as exc:
        raise _UsageError(str(exc)) from None
    _print_outcome(outcome)
    return 0 if outcome.complete else 1


def cmd_worker(args: argparse.Namespace) -> int:
    try:
        worker = FleetWorker(
            args.fleet_dir, cache_dir=args.cache_dir,
            worker_id=args.worker_id,
            heartbeat_interval=args.heartbeat_interval,
            poll_interval=args.poll_interval,
        )
    except (OSError, ValueError, KeyError) as exc:
        raise _UsageError(f"cannot attach to fleet "
                          f"{args.fleet_dir!r}: {exc}") from None
    done = worker.run()
    print(f"# worker {worker.worker_id}: {done} points computed")
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir)
    if args.action == "compact":
        stats = store.compact()
        print(f"# store compacted: {stats['records_before']} -> "
              f"{stats['records_after']} records "
              f"({stats['dropped']} superseded dropped, "
              f"{stats['bytes_after']} bytes, "
              f"generation {stats['generation']})")
        return 0
    labels = store.labels()
    if not labels:
        print(f"# store is empty ({store.index_path}); run a fleet "
              f"first (`python -m repro.fleet run`)")
        return 0
    width = max(len(label) for label in labels)
    for label in sorted(labels):
        print(f"{label:<{width}}  {labels[label]:>5} pt")
    print(f"# {len(store)} records at {store.index_path}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .protocol import FleetDirs

    fleet_dir = Path(args.cache_dir) / "fleet" / args.label
    if not fleet_dir.is_dir():
        raise _UsageError(f"no fleet directory for label {args.label!r} "
                          f"under {args.cache_dir!r}")
    print(format_stats(fleet_stats(FleetDirs(fleet_dir))), end="")
    return 0


def _sweep_data(ref: str, store: ResultStore, cache_dir: str):
    """A label's points — store-first, manifests as the fallback."""
    from ..analysis import SweepData

    points = store.sweep_points(ref)
    if points:
        return SweepData(label=ref, points=points)
    return SweepData.from_manifest(_load_manifest(ref, cache_dir))


def _html_worker_stats(label: str, cache_dir: str):
    """Worker throughput rows for the HTML report's stragglers
    section — from the candidate label's fleet directory, when one
    exists and has heartbeats."""
    from .protocol import FleetDirs
    from .telemetry import worker_stats

    fleet_dir = Path(cache_dir) / "fleet" / label
    if not fleet_dir.is_dir():
        return None
    stats = worker_stats(FleetDirs(fleet_dir))
    return [s.to_dict() for s in stats] or None


def cmd_compare(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir)
    a = _sweep_data(args.a, store, args.cache_dir)
    b = _sweep_data(args.b, store, args.cache_dir)
    if not args.html:
        return report_comparison(a, b, args, args.format, args.out)
    # worker rows come from the candidate label's fleet dir, falling
    # back to the baseline's (whichever was fleet-run)
    stats = _html_worker_stats(args.b, args.cache_dir) \
        or _html_worker_stats(args.a, args.cache_dir)
    return report_comparison(a, b, args, "html", args.html,
                             worker_stats=stats)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.fleet`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Work-stealing sweep fleet over the shared "
                    "result cache, plus the consolidated results store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=f"shared cache root "
                            f"(default {DEFAULT_CACHE_DIR})")

    run = sub.add_parser(
        "run", help="drive a scenario grid over a work-stealing fleet"
    )
    run.add_argument("name", help="registered scenario name")
    run.add_argument("--set", action="append", metavar="PATH=V1,V2,...",
                     help="grid values for one (dotted) spec field; "
                          "repeatable — same grammar as scenarios sweep")
    run.add_argument("--label", default=None,
                     help="sweep/store label (default: the scenario name)")
    run.add_argument("--workers", type=int, default=2,
                     help="local worker processes to spawn (default 2; "
                          "0 = remote workers only)")
    run.add_argument("--liveness-timeout", type=float,
                     default=DEFAULT_LIVENESS_TIMEOUT,
                     help="seconds of heartbeat silence before a worker "
                          "is presumed dead and its points requeued")
    run.add_argument("--max-retries", type=int,
                     default=DEFAULT_MAX_RETRIES,
                     help="per-point retry budget before quarantine")
    run.add_argument("--backoff-base", type=float,
                     default=DEFAULT_BACKOFF_BASE,
                     help="exponential requeue backoff base (seconds)")
    run.add_argument("--wall-timeout", type=float, default=None,
                     help="abort the fleet after this many seconds")
    run.add_argument("--compact-threshold", type=float, default=0.5,
                     help="compact the consolidated store at finalize "
                          "once this fraction of its records is "
                          "superseded history (default 0.5; 1.0 "
                          "disables auto-compaction)")
    add_cache_dir(run)

    worker = sub.add_parser(
        "worker", help="attach one work-stealing worker to a fleet dir"
    )
    worker.add_argument("--fleet-dir", required=True,
                        help="the fleet coordination directory "
                             "(<cache>/fleet/<label>)")
    worker.add_argument("--cache-dir", default=None,
                        help="shared cache root (default: the fleet "
                             "dir's grandparent)")
    worker.add_argument("--worker-id", default=None,
                        help="stable worker id (default: <host>-<pid>)")
    worker.add_argument("--heartbeat-interval", type=float,
                        default=HEARTBEAT_INTERVAL)
    worker.add_argument("--poll-interval", type=float, default=0.1)

    store = sub.add_parser(
        "store", help="list the consolidated store's labels, or "
                      "compact its index"
    )
    store.add_argument("action", nargs="?", default="list",
                       choices=("list", "compact"),
                       help="'list' labels (default) or 'compact' the "
                            "index to the newest record per point")
    add_cache_dir(store)

    stats = sub.add_parser(
        "stats", help="per-worker throughput for a fleet directory, "
                      "stragglers flagged"
    )
    stats.add_argument("label", help="fleet label (<cache>/fleet/<label>)")
    add_cache_dir(stats)

    compare = sub.add_parser(
        "compare",
        help="diff two labels from the consolidated store",
    )
    compare.add_argument("a", help="store label, sweep label, or "
                                   "manifest path (baseline)")
    compare.add_argument("b", help="store label, sweep label, or "
                                   "manifest path")
    compare.add_argument("--metric", default="t",
                         help="result field or metric to compare "
                              "(default: t)")
    compare.add_argument("--over", action="append", metavar="AXIS",
                         help="aggregate over this shared grid axis "
                              "instead of matching on it (repeatable)")
    compare.add_argument("--percentiles", default=None,
                         metavar="P1,P2,...",
                         help="add per-side percentile columns")
    compare.add_argument("--format", choices=("markdown", "json"),
                         default="markdown", help="text report format")
    compare.add_argument("--out", default=None,
                         help="write the text report to a file")
    compare.add_argument("--html", default=None, metavar="PATH",
                         help="write a static HTML regression report "
                              "instead of the text formats")
    add_cache_dir(compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "worker": cmd_worker,
        "store": cmd_store,
        "stats": cmd_stats,
        "compare": cmd_compare,
    }[args.command]
    try:
        return handler(args)
    except _UsageError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
