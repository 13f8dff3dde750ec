"""Command-line front end for the scenario engine.

::

    python -m repro.scenarios list
    python -m repro.scenarios show fig10-cluster-o3
    python -m repro.scenarios run fig10-cluster-o3 --workers 4
    python -m repro.scenarios sweep fig10-cluster-o3 \
        --set n_peers=2,4,8 --set workload.level=O0,O3

``run`` executes a named scenario's registered points; ``sweep``
replaces the registered grid with ``--set`` overrides (cartesian
product).  Both go through the cached parallel runner: repeated
invocations with the same cache directory are served from disk.

Each ``run``/``sweep`` with an on-disk cache also records a *sweep
manifest* (point names, spec hashes, and results) under
``<cache-dir>/sweeps/<label>.json`` (``--label`` defaults to the
scenario name; with ``--no-cache`` no manifest is written and
``--label`` is rejected).  Manifests are written incrementally — a
killed sweep leaves a ``"partial": true`` manifest of what finished,
and because workers cache each result on completion, the rerun
resumes instead of recomputing.  ``compare`` diffs two
manifests — by label in the cache directory, or by explicit path —
and renders a markdown (default) or JSON report; ``--over AXIS``
aggregates over a shared axis (e.g. seeds) instead of matching on
it::

    python -m repro.scenarios compare churn-base churn-grid
    python -m repro.scenarios compare a b --format json --out diff.json
    python -m repro.scenarios compare norejoin rejoin \
        --metric makespan --over seed

``gap`` reads a single policy-ablation sweep (the prediction grid)
and renders each cell's makespan divided by the omniscient-oracle
cell it shadows — the prediction-gap table of docs/prediction-grid.md::

    python -m repro.scenarios gap prediction-grid
    python -m repro.scenarios gap prediction-grid \
        --over seed --over prediction_error.kind

To split one grid across machines, run it as a fleet (``python -m
repro.fleet run``, docs/fleet.md): its manifest is byte-identical to
the serial sweep's.

See ``repro.analysis.compare_sweeps`` for the matching rules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, Sequence, Tuple

from ..params import parse_grid_sets, parse_value
from .manifest import dump_manifest, manifest_payload, point_entry, sweeps_dir
from .registry import get_scenario, scenario_names, SCENARIOS
from .runner import ScenarioResult, SweepRunner, expand_grid
from .spec import ScenarioSpec

#: Default on-disk cache location (overridable per invocation).
DEFAULT_CACHE_DIR = os.environ.get(
    "REPRO_SCENARIO_CACHE", os.path.join(".", ".scenario-cache")
)

# the one --set grammar, shared with repro.serve's with_override and
# repro.fleet run (repro.params) — kept under the historical private
# names this module always exported
_parse_value = parse_value


def _parse_sets(pairs: Sequence[str]) -> Dict[str, Tuple[Any, ...]]:
    try:
        return parse_grid_sets(pairs)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _print_results(results: Sequence[ScenarioResult],
                   runner: SweepRunner) -> None:
    width = max((len(r.name) for r in results), default=4)
    print(f"{'scenario':<{width}}  {'kind':<9} {'t [s]':>12}  status")
    for r in results:
        status = "ok" if r.ok else f"FAILED: {r.reason}"
        print(f"{r.name:<{width}}  {r.kind:<9} {r.t:>12.4f}  {status}")
    total = runner.hits + runner.misses
    print(f"# {total} points: {runner.hits} from cache, "
          f"{runner.misses} executed")


def _runner(args: argparse.Namespace) -> SweepRunner:
    cache_dir = None if args.no_cache else args.cache_dir
    return SweepRunner(cache_dir=cache_dir, max_workers=args.workers)


def cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(n) for n in scenario_names())
    for name in scenario_names():
        entry = SCENARIOS[name]
        print(f"{name:<{width}}  {entry.base.kind:<9} "
              f"{entry.n_points:>3} pt  {entry.title}")
    return 0


class _UsageError(Exception):
    """A bad scenario name or grid field — reported without traceback."""


def _resolve(fn, *args):
    """Run a name/field resolution step, turning KeyError into a clean
    usage error — execution errors keep their tracebacks."""
    try:
        return fn(*args)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None


def cmd_show(args: argparse.Namespace) -> int:
    entry = _resolve(get_scenario, args.name)
    payload = {
        "name": entry.name,
        "title": entry.title,
        "grid": {k: list(v) for k, v in entry.grid_dict().items()},
        "base": entry.base.to_dict(),
        "points": [s.spec_hash() for s in entry.points()],
    }
    if entry.extra:
        payload["extra_grids"] = [
            {path: list(values) for path, values in sheet}
            for sheet in entry.extra
        ]
    print(json.dumps(payload, indent=2))
    return 0


# canonical manifest helpers live in .manifest (shared with the fleet
# dispatcher — byte-identity across writers); historical private names
# kept for this module's own call sites
_sweeps_dir = sweeps_dir
_dump_manifest = dump_manifest
_manifest_payload = manifest_payload
_point_entry = point_entry


def _check_label(label: str | None) -> None:
    """Reject labels that would escape the sweeps directory — before
    the (possibly long) sweep runs, not after."""
    if label is None:
        return
    if not label or label != Path(label).name or label in (".", ".."):
        raise _UsageError(
            f"--label must be a plain file name, got {label!r}"
        )


def _check_label_args(args: argparse.Namespace) -> None:
    _check_label(args.label)
    if args.label is not None and args.no_cache:
        raise _UsageError(
            "--label needs the on-disk cache to record a sweep "
            "manifest; drop --no-cache"
        )


def _write_manifest(args: argparse.Namespace, scenario: str,
                    specs: Sequence[ScenarioSpec],
                    results: Sequence[ScenarioResult],
                    partial: bool = False) -> None:
    """Record the sweep (points + results) for later `compare` calls.

    ``partial`` marks an in-flight incremental manifest.
    """
    if args.no_cache:
        return
    label = args.label or scenario
    points = [_point_entry(s, r) for s, r in zip(specs, results)]
    payload = _manifest_payload(label, scenario, points)
    if partial:
        payload["partial"] = True
    path = _sweeps_dir(args.cache_dir) / f"{label}.json"
    _dump_manifest(payload, path)
    if not partial:
        print(f"# sweep manifest: {path}")


def _load_manifest(ref: str, cache_dir: str) -> Dict[str, Any]:
    """A manifest by label under <cache-dir>/sweeps/, or by path.

    Bare labels resolve in the sweeps directory *first*, so an
    unrelated same-named file in the working directory cannot shadow
    a recorded sweep.
    """
    looks_like_path = os.sep in ref or ref.endswith(".json")
    candidates = [_sweeps_dir(cache_dir) / f"{ref}.json", Path(ref)]
    if looks_like_path:
        candidates.reverse()
    for path in candidates:
        if path.is_file():
            try:
                payload = json.loads(path.read_text())
            except ValueError as exc:
                raise _UsageError(
                    f"{path} is not a sweep manifest ({exc})"
                ) from None
            if (not isinstance(payload, dict)
                    or "points" not in payload or "label" not in payload):
                raise _UsageError(f"{path} is not a sweep manifest")
            if payload.get("partial"):
                raise _UsageError(
                    f"{path} is a partial manifest — its sweep was "
                    f"killed after {len(payload['points'])} points; "
                    f"rerun the sweep (it resumes from its cache), "
                    f"then compare"
                )
            return payload
    known = sorted(
        p.stem for p in _sweeps_dir(cache_dir).glob("*.json")
    ) if _sweeps_dir(cache_dir).is_dir() else []
    raise _UsageError(
        f"no sweep manifest {ref!r} (looked for "
        f"{' and '.join(str(c) for c in candidates)}); "
        f"known labels: {', '.join(known) or '(none)'}"
    )


def _incremental_writer(args: argparse.Namespace, scenario: str,
                        specs: Sequence[ScenarioSpec]):
    """The incremental-manifest hook: after every computed point the
    manifest is rewritten (atomically) with everything completed so
    far, so a killed sweep leaves a ``"partial": true`` record of its
    progress — and its worker-written cache entries make the rerun
    resume instead of recompute."""
    if args.no_cache:
        return None
    landed: Dict[str, ScenarioResult] = {}

    def on_result(spec: ScenarioSpec, result: ScenarioResult) -> None:
        landed[spec.spec_hash()] = result
        done = [s for s in specs if s.spec_hash() in landed]
        _write_manifest(args, scenario, done,
                        [landed[s.spec_hash()] for s in done],
                        partial=True)

    return on_result


def _execute(args: argparse.Namespace, scenario: str,
             specs: Sequence[ScenarioSpec]) -> int:
    """Run ``specs`` through the cached runner, recording the manifest
    incrementally and once more when the sweep completes."""
    runner = _runner(args)
    on_result = _incremental_writer(args, scenario, specs)
    results = runner.run(specs, parallel=not args.serial,
                         on_result=on_result)
    _print_results(results, runner)
    _write_manifest(args, scenario, specs, results)
    return 0 if all(r.ok for r in results) else 1


def cmd_run(args: argparse.Namespace) -> int:
    _check_label_args(args)
    entry = _resolve(get_scenario, args.name)
    return _execute(args, entry.name, entry.points())


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_label_args(args)
    entry = _resolve(get_scenario, args.name)
    grid = _parse_sets(args.set or [])
    # --set replaces the registered grid wholesale; without it the
    # entry's own points run — *including* extra grid sheets
    # (prediction-grid's error ablation) that one cartesian product
    # over the main grid cannot express
    specs = (_resolve(expand_grid, entry.base, grid) if grid
             else entry.points())
    return _execute(args, entry.name, specs)


def report_comparison(a, b, args: argparse.Namespace, fmt: str,
                      out: str | None, worker_stats=None) -> int:
    """Diff two loaded sweeps and emit the report — the compare body
    shared by ``repro.scenarios compare`` and ``repro.fleet compare``
    (which differ only in how they load ``a`` and ``b``)."""
    from ..analysis import compare_sweeps

    percentiles: Tuple[float, ...] = ()
    if args.percentiles:
        try:
            percentiles = tuple(
                float(p) for p in args.percentiles.split(",") if p.strip()
            )
        except ValueError:
            raise _UsageError(
                f"--percentiles expects comma-separated numbers, "
                f"got {args.percentiles!r}"
            ) from None
    try:
        comparison = compare_sweeps(a, b, metric=args.metric,
                                    over=tuple(args.over or ()),
                                    percentiles=percentiles)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if fmt == "html":
        text = comparison.to_html(worker_stats=worker_stats)
    elif fmt == "json":
        text = comparison.to_json()
    else:
        text = comparison.to_markdown()
    if out:
        Path(out).write_text(text)
        print(f"# report written to {out}")
    else:
        print(text, end="")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from ..analysis import SweepData

    a = SweepData.from_manifest(_load_manifest(args.a, args.cache_dir))
    b = SweepData.from_manifest(_load_manifest(args.b, args.cache_dir))
    return report_comparison(a, b, args, args.format, args.out)


def cmd_gap(args: argparse.Namespace) -> int:
    from ..analysis import SweepData, prediction_gap

    data = SweepData.from_manifest(
        _load_manifest(args.label, args.cache_dir)
    )
    try:
        report = prediction_gap(
            data, metric=args.metric, policy_axis=args.policy_axis,
            baseline=args.baseline,
            over=tuple(args.over) if args.over else ("seed",),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    text = (report.to_json() if args.format == "json"
            else report.to_markdown())
    if args.out:
        Path(args.out).write_text(text)
        print(f"# report written to {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.scenarios`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="List and run declarative evaluation scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the named scenarios")

    show = sub.add_parser("show", help="dump one scenario's spec as JSON")
    show.add_argument("name")

    def add_exec_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("name")
        p.add_argument("--serial", action="store_true",
                       help="run cache misses in-process, no pool")
        p.add_argument("--workers", type=int, default=None,
                       help="process-pool width (default: cpu count)")
        p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=f"on-disk result cache "
                            f"(default {DEFAULT_CACHE_DIR})")
        p.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk cache entirely")
        p.add_argument("--label", default=None,
                       help="sweep-manifest name for `compare` "
                            "(default: the scenario name)")

    run = sub.add_parser("run", help="run a named scenario's points")
    add_exec_options(run)

    sweep = sub.add_parser(
        "sweep", help="run a parameter grid over a scenario's base spec"
    )
    add_exec_options(sweep)
    sweep.add_argument(
        "--set", action="append", metavar="PATH=V1,V2,...",
        help="grid values for one (dotted) spec field; repeatable",
    )
    compare = sub.add_parser(
        "compare", help="diff two cached sweeps into a report"
    )
    compare.add_argument("a", help="sweep label or manifest path (baseline)")
    compare.add_argument("b", help="sweep label or manifest path")
    compare.add_argument("--metric", default="t",
                         help="result field or metric to compare "
                              "(default: t; e.g. makespan, sim_events)")
    compare.add_argument("--over", action="append", metavar="AXIS",
                         help="aggregate over this shared grid axis "
                              "instead of matching on it (repeatable; "
                              "e.g. --over seed)")
    compare.add_argument("--percentiles", default=None, metavar="P1,P2,...",
                         help="add per-side percentile columns over the "
                              "aggregated points (e.g. 50,99 — the same "
                              "estimator repro.serve answers SLO queries "
                              "with)")
    compare.add_argument("--format", choices=("markdown", "json", "html"),
                         default="markdown", help="report format")
    compare.add_argument("--out", default=None,
                         help="write the report to a file instead of stdout")
    compare.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                         help=f"where sweep manifests live "
                              f"(default {DEFAULT_CACHE_DIR})")

    gap = sub.add_parser(
        "gap",
        help="predicted-vs-oracle gap table of one cached sweep",
    )
    gap.add_argument("label", help="sweep label or manifest path")
    gap.add_argument("--metric", default="makespan",
                     help="metric each cell averages (default: makespan)")
    gap.add_argument("--baseline", default="oracle",
                     help="policy every cell is divided by "
                          "(default: oracle)")
    gap.add_argument("--policy-axis", default="selection_policy",
                     help="grid axis carrying the policy "
                          "(default: selection_policy)")
    gap.add_argument("--over", action="append", metavar="AXIS",
                     help="aggregate over this grid axis instead of "
                          "keeping it as a cell axis (repeatable; "
                          "default: seed)")
    gap.add_argument("--format", choices=("markdown", "json"),
                     default="markdown", help="report format")
    gap.add_argument("--out", default=None,
                     help="write the report to a file instead of stdout")
    gap.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                     help=f"where sweep manifests live "
                          f"(default {DEFAULT_CACHE_DIR})")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "show": cmd_show,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "compare": cmd_compare,
        "gap": cmd_gap,
    }[args.command]
    try:
        return handler(args)
    except _UsageError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
