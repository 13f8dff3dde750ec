"""The work-stealing dispatcher: points out, liveness in, one manifest.

``FleetDispatcher`` is the one way to split a grid across machines,
by dynamic stealing: every grid point is an individually claimable
task in a shared fleet directory, local worker processes are spawned
(and respawned) by the dispatcher, and remote machines join by
pointing ``python -m repro.fleet worker`` at the same directory.  A slow
worker strands nothing — whatever it doesn't claim, someone else
does; a *dead* worker's claimed points are detected by heartbeat
silence and requeued with exponential backoff; a point that keeps
killing workers is quarantined as poison after its retry budget and
reported, never retried forever.

The output contract is the sweep's: the dispatcher writes a sweep
manifest through the shared canonical serializer, **byte-identical**
to the manifest a serial sweep of the same grid produces
(pinned by ``tests/test_fleet.py``), and syncs every result into the
consolidated :class:`~repro.fleet.store.ResultStore`.  If any point
was quarantined the manifest is marked ``"partial": true`` — the same
refuse-to-compare semantics a killed sweep has.

Re-running a fleet over the same grid *resumes*: done records and
cached results survive in the fleet directory and result cache, so
only unresolved points are re-enqueued.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..scenarios import manifest as sweep_manifest
from ..scenarios import platforms, workloads
from ..scenarios.runner import ResultCache, ScenarioResult, memo_get
from ..scenarios.spec import ScenarioSpec
from .protocol import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_LIVENESS_TIMEOUT,
    DEFAULT_MAX_RETRIES,
    HEARTBEAT_INTERVAL,
    FleetDirs,
    requeue_task,
)
from .store import ResultStore
from .telemetry import worker_stats as snapshot_worker_stats


class FleetError(RuntimeError):
    """A fleet-level failure (bad config, wall-clock blowout)."""


@dataclass
class FleetOutcome:
    """What one fleet run produced (the dispatcher's return value)."""

    label: str
    scenario: str
    manifest_path: Optional[Path]
    #: Manifest-shaped entries (grid order, resolved points only).
    points: List[Dict[str, Any]] = field(default_factory=list)
    #: Grid index → poison record for quarantined points.
    poisoned: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: Grid index → times the dispatcher requeued it (dead workers).
    reassignments: Dict[int, int] = field(default_factory=dict)
    #: Worker id → points it completed (stragglers are visible).
    worker_points: Dict[str, int] = field(default_factory=dict)
    #: Final per-worker throughput rows (see
    #: :mod:`repro.fleet.telemetry`): points/min, claim-to-done
    #: latency, straggler flags — the end-of-run straggler report.
    worker_stats: List[Dict[str, Any]] = field(default_factory=list)
    cached: int = 0
    computed: int = 0
    store_records: int = 0
    #: ``store.compact()`` stats when the finalize-time auto-compaction
    #: fired (superseded fraction above the threshold), else None.
    compaction: Optional[Dict[str, int]] = None
    wall: float = 0.0

    @property
    def complete(self) -> bool:
        return not self.poisoned

    def results(self) -> List[ScenarioResult]:
        return [ScenarioResult.from_dict(p["result"]) for p in self.points]


class FleetDispatcher:
    """Drive one grid to resolution over a worker fleet (module doc).

    Parameters
    ----------
    specs:
        The grid, in manifest order (e.g. ``entry.points()`` or an
        ``expand_grid`` product).
    label / scenario:
        Manifest identity — the same pair a sweep records.
    cache_dir:
        Shared cache root; the fleet directory is created at
        ``<cache_dir>/fleet/<label>``.
    workers:
        Local worker processes to spawn (0 = none; attach remote
        workers by hand).
    liveness_timeout:
        Heartbeat silence (seconds) after which a worker is presumed
        dead and its claims are requeued.
    max_retries / backoff_base:
        Per-point retry budget and exponential backoff base.
    wall_timeout:
        Optional overall ceiling (seconds); exceeding it raises
        :class:`FleetError` after stopping the fleet.
    compact_threshold:
        Superseded-record fraction above which the consolidated store
        is compacted at finalize (default 0.5 — compact once more than
        half the index is shadowed history).  ``1.0`` disables the
        auto-compaction (the fraction can never exceed 1).  Finalize
        is the one moment the dispatcher knows no fleet worker is
        appending, which is compaction's safety precondition.
    """

    def __init__(
        self,
        specs: Sequence[ScenarioSpec],
        *,
        label: str,
        scenario: str,
        cache_dir: os.PathLike | str,
        workers: int = 2,
        liveness_timeout: float = DEFAULT_LIVENESS_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        poll_interval: float = 0.1,
        wall_timeout: Optional[float] = None,
        compact_threshold: float = 0.5,
        spawn_env: Optional[Dict[str, str]] = None,
    ) -> None:
        if not specs:
            raise FleetError("fleet needs at least one grid point")
        if workers < 0:
            raise FleetError(f"workers must be >= 0, got {workers!r}")
        if liveness_timeout <= 0:
            raise FleetError("liveness_timeout must be > 0")
        if max_retries < 1:
            raise FleetError("max_retries must be >= 1")
        if not 0.0 <= compact_threshold <= 1.0:
            raise FleetError(
                f"compact_threshold must be in [0, 1], "
                f"got {compact_threshold!r}")
        self.specs = list(specs)
        self.label = label
        self.scenario = scenario
        self.cache_dir = Path(cache_dir)
        self.workers = workers
        self.liveness_timeout = liveness_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.wall_timeout = wall_timeout
        self.compact_threshold = compact_threshold
        self.spawn_env = spawn_env
        self.dirs = FleetDirs(self.cache_dir / "fleet" / label)
        self._procs: Dict[str, subprocess.Popen] = {}
        self._next_worker = 0
        self._respawns = 0
        # enough respawn budget to burn the whole retry budget of one
        # poison point and still keep the fleet staffed
        self.max_respawns = workers + max_retries + 1

    # -- setup --------------------------------------------------------------
    def _grid_points(self) -> List[Dict[str, Any]]:
        return [
            {"index": i, "name": s.name, "spec_hash": s.spec_hash()}
            for i, s in enumerate(self.specs)
        ]

    def _prepare_dirs(self) -> None:
        """Create (or resume) the fleet directory.

        A directory whose recorded grid matches ours is a resume: its
        ``done/`` records survive.  Anything else — a different grid
        under the same label, stale queue/claims/poison from a crashed
        run — is wiped back to a clean slate; re-running a fleet is an
        explicit request to retry even its quarantined points.
        """
        grid = {
            "label": self.label, "scenario": self.scenario,
            "n_points": len(self.specs),
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
            "points": self._grid_points(),
        }
        if self.dirs.grid_path.exists():
            try:
                previous = self.dirs.read_grid()
            except (OSError, ValueError):
                previous = None
            if previous is not None and previous.get("points") == \
                    grid["points"]:
                # resume: keep done records, clear transient state
                for d in (self.dirs.queue, self.dirs.active,
                          self.dirs.workers, self.dirs.poison):
                    shutil.rmtree(d, ignore_errors=True)
                try:
                    os.unlink(self.dirs.stop_path)
                except FileNotFoundError:
                    pass
            else:
                shutil.rmtree(self.dirs.root, ignore_errors=True)
        else:
            shutil.rmtree(self.dirs.root, ignore_errors=True)
        self.dirs.create()
        self.dirs.write_grid(grid)

    def _seed_from_cache(self, cache: ResultCache) -> int:
        """Resolve memo/disk hits in-parent; enqueue the rest.

        A point already answered by the shared cache (an earlier
        sweep, another fleet) never reaches a worker — the same
        cache-first contract ``SweepRunner.run`` has.
        """
        done = self.dirs.done_indices()
        hits = 0
        for i, spec in enumerate(self.specs):
            if i in done:
                hits += 1  # resumed from a previous run of this fleet
                continue
            result = memo_get(spec.spec_hash()) or cache.get(spec)
            if result is not None:
                self.dirs.mark_done({
                    "index": i, "name": spec.name,
                    "spec_hash": result.spec_hash, "worker": "cache",
                    "result": result.to_dict(),
                })
                hits += 1
                continue
            self.dirs.enqueue({
                "index": i, "name": spec.name,
                "spec_hash": spec.spec_hash(),
                "spec": spec.to_dict(), "attempt": 1,
            })
        return hits

    def _prime_traces(self) -> None:
        """Pay the dPerf calibration once, into the persistent trace
        cache, so fresh worker processes load pickles instead of
        interpreting mini-C (mirrors ``SweepRunner._prime_templates``,
        minus the fork-inherited platform builds — fleet workers are
        not forks)."""
        workloads.set_trace_cache_dir(str(self.cache_dir / "traces"))
        seen = set()
        for spec in self.specs:
            platforms.build_platform(spec.platform)
            if spec.kind not in ("reference", "predict"):
                continue
            w = spec.workload
            recipe = (w.app, spec.n_peers, w.level, w.n, w.nit)
            if recipe not in seen:
                seen.add(recipe)
                workloads.traces(*recipe)

    # -- worker processes ---------------------------------------------------
    def _spawn_worker(self) -> None:
        wid = f"w{self._next_worker}"
        self._next_worker += 1
        log = open(self.dirs.workers / f"{wid}.log", "ab")
        env = dict(os.environ if self.spawn_env is None else self.spawn_env)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.fleet", "worker",
             "--fleet-dir", str(self.dirs.root),
             "--cache-dir", str(self.cache_dir),
             "--worker-id", wid,
             "--heartbeat-interval", str(self.heartbeat_interval),
             "--poll-interval", str(self.poll_interval)],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
        log.close()  # the child holds its own copy of the fd
        self._procs[wid] = proc

    def _dead_local_workers(self) -> List[str]:
        return [wid for wid, proc in self._procs.items()
                if proc.poll() is not None]

    def _worker_is_dead(self, wid: str, now: float) -> bool:
        """Local process exit is authoritative; otherwise heartbeat
        silence decides (covers remote workers too)."""
        proc = self._procs.get(wid)
        if proc is not None and proc.poll() is not None:
            return True
        beat = self.dirs.heartbeats().get(wid)
        if beat is None:
            # never beat: judge by how long its claim has existed —
            # a worker beats before claiming, so this is a crash
            return proc is None or proc.poll() is not None
        return now - beat["ts"] > self.liveness_timeout

    def _reap(self, reassignments: Dict[int, int]) -> None:
        """Requeue (or poison) every claim owned by a dead worker."""
        now = time.time()
        dead_cache: Dict[str, bool] = {}
        done_indices: Optional[set] = None
        for claim in self.dirs.active_claims():
            wid = claim["worker"]
            if wid not in dead_cache:
                dead_cache[wid] = self._worker_is_dead(wid, now)
            if not dead_cache[wid]:
                continue
            index = claim["index"]
            if done_indices is None:
                # listed once per reap, filename-only — not one full
                # record parse per dead claim
                done_indices = self.dirs.done_indices()
            if index in done_indices:
                # finished but died before releasing the claim: the
                # done record is authoritative, just drop the claim
                try:
                    os.unlink(claim["_path"])
                except FileNotFoundError:
                    pass
                continue
            requeue_task(
                self.dirs, claim, max_retries=self.max_retries,
                backoff_base=self.backoff_base,
                reason=f"worker {wid} died",
            )
            reassignments[index] = reassignments.get(index, 0) + 1

    def _keep_staffed(self, unresolved: int) -> None:
        if unresolved <= 0 or self.workers == 0:
            return
        alive = sum(1 for p in self._procs.values() if p.poll() is None)
        want = min(self.workers, unresolved)
        while alive < want and self._respawns < self.max_respawns:
            self._spawn_worker()
            self._respawns += 1
            alive += 1

    # -- the run ------------------------------------------------------------
    def run(self) -> FleetOutcome:
        started = time.monotonic()
        self._prepare_dirs()
        cache = ResultCache(self.cache_dir)
        cached = self._seed_from_cache(cache)
        reassignments: Dict[int, int] = {}
        unresolved = len(self.specs) - len(self.dirs.done_indices())
        if unresolved > 0:
            self._prime_traces()
            for _ in range(min(self.workers, unresolved)):
                self._spawn_worker()
        try:
            while True:
                # filename-only progress listing: the supervision loop
                # never parses record payloads, only `_reap` (for dead
                # claims) and `_finalize` do
                resolved = len(self.dirs.done_indices()) + \
                    len(self.dirs.poison_indices())
                if resolved >= len(self.specs):
                    break
                self._reap(reassignments)
                self._keep_staffed(len(self.specs) - resolved)
                if self.wall_timeout is not None and \
                        time.monotonic() - started > self.wall_timeout:
                    raise FleetError(
                        f"fleet {self.label!r} exceeded its "
                        f"{self.wall_timeout}s wall timeout with "
                        f"{len(self.specs) - resolved} "
                        f"points unresolved"
                    )
                time.sleep(self.poll_interval)
        finally:
            self.dirs.signal_stop()
            self._join_workers()
        done = self.dirs.done_records()
        poison = self.dirs.poison_records()
        # the store is opened *after* the workers finish, so its dedup
        # set already holds everything their on_put hooks indexed —
        # the sync below only adds cache hits and resumed points
        store = ResultStore(self.cache_dir)
        outcome = self._finalize(store, done, poison, reassignments,
                                 cached)
        outcome.wall = time.monotonic() - started
        return outcome

    def _join_workers(self) -> None:
        deadline = time.monotonic() + max(5.0, 4 * self.poll_interval)
        for proc in self._procs.values():
            remaining = deadline - time.monotonic()
            try:
                proc.wait(timeout=max(0.1, remaining))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def _finalize(
        self,
        store: ResultStore,
        done: Dict[int, Dict[str, Any]],
        poison: Dict[int, Dict[str, Any]],
        reassignments: Dict[int, int],
        cached: int,
    ) -> FleetOutcome:
        points = []
        worker_points: Dict[str, int] = {}
        store_records = 0
        for i in range(len(self.specs)):
            record = done.get(i)
            if record is None:
                continue
            points.append({"name": record["name"],
                           "spec_hash": record["spec_hash"],
                           "result": record["result"]})
            worker_points[record["worker"]] = \
                worker_points.get(record["worker"], 0) + 1
            # the final store sync: workers indexed what they computed
            # (the on_put hook); this dedup'd pass picks up cache hits
            # and resumed points
            if store.record_raw({
                "spec_hash": record["spec_hash"],
                "name": record["name"], "label": self.label,
                "scenario": self.scenario, "result": record["result"],
            }):
                store_records += 1
        payload = sweep_manifest.manifest_payload(
            self.label, self.scenario, points
        )
        if poison:
            payload["partial"] = True
        manifest_path = sweep_manifest.sweeps_dir(self.cache_dir) / \
            f"{self.label}.json"
        sweep_manifest.dump_manifest(payload, manifest_path)
        # auto-compaction: reassignment races and resumed fleets leave
        # superseded records behind; once they dominate the index,
        # every streaming read pays for history.  Finalize is safe —
        # the workers are joined, nobody is appending.
        compaction = None
        if self.compact_threshold < 1.0 and \
                store.superseded_fraction() > self.compact_threshold:
            compaction = store.compact()
        return FleetOutcome(
            label=self.label, scenario=self.scenario,
            manifest_path=manifest_path, points=points,
            poisoned=dict(sorted(poison.items())),
            reassignments=reassignments,
            worker_points=dict(sorted(worker_points.items())),
            # final heartbeats survive worker exit: the end-of-run
            # throughput/straggler rows ride on the outcome
            worker_stats=[s.to_dict()
                          for s in snapshot_worker_stats(self.dirs)],
            cached=cached,
            # points resolved by workers *this run* (resumed and
            # cache-hit points count as cached, poison as neither)
            computed=max(0, len(points) - cached),
            store_records=store_records,
            compaction=compaction,
        )
