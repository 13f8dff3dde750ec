"""Scenario execution: one pure runner, a two-level cache, a sweep.

``run_scenario`` maps a :class:`ScenarioSpec` to a
:class:`ScenarioResult` with no ambient inputs — the same spec always
produces byte-identical results, which is what makes the two cache
levels sound:

* an in-process memo (dict keyed by spec hash) shared by every caller
  in this interpreter — the experiment runners and the test suite ride
  on it;
* an optional on-disk JSON cache (one file per spec hash) that
  survives processes, so a repeated sweep is served without
  recomputing anything.

``SweepRunner`` expands parameter grids and executes cache misses
through a ``ProcessPoolExecutor``; because the runner is pure, the
parallel results equal the serial ones.

Usage::

    from repro.scenarios import SweepRunner, get_scenario

    runner = SweepRunner(cache_dir=".scenario-cache", max_workers=4)
    results = runner.run(get_scenario("churn-grid").points())
    [r.metrics["completed"] for r in results]   # completion per point
    runner.cache_ratio                          # how much came cached

    # or a custom grid over any spec fields (dotted paths):
    from repro.scenarios import ScenarioSpec, expand_grid
    specs = expand_grid(ScenarioSpec(name="probe"),
                        {"n_peers": (2, 4), "tcp.window": (65536, 4194304)})
    runner.run(specs)

Reference-kind results carry ``metrics["completed"]`` plus the churn
and recovery counters (``churn_failures``, ``rejoined_peers``,
``redispatched_subtasks``); under failure injection a non-completion
is ``ok`` — the datum, not an error.
"""

from __future__ import annotations

import json
import logging
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .spec import ScenarioSpec

#: In-process memo: spec hash → result.  Shared by every SweepRunner
#: and by run_cached, so repeated experiment calls are near-free.
_MEMO: Dict[str, "ScenarioResult"] = {}

_LOG = logging.getLogger("repro.scenarios.cache")


@dataclass
class ScenarioResult:
    """Outcome of one scenario execution.

    ``t`` is the headline seconds for the scenario kind (compute
    window for ``reference``, ``t_predicted`` for ``predict``, settle
    time for ``deploy``); ``metrics`` carries secondary numbers.
    """

    name: str
    spec_hash: str
    kind: str
    t: float
    ok: bool = True
    reason: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-safe)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        """Rebuild a result from its to_dict() form."""
        return cls(**dict(data))

    def canonical_json(self) -> str:
        """Deterministic serialization (the byte-identity contract)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


# ---------------------------------------------------------------------------
# the pure runner
# ---------------------------------------------------------------------------

def _auto_zones(n_peers: int) -> int:
    return max(1, min(4, n_peers // 8))


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one scenario (no caching — see :func:`run_cached`)."""
    if spec.kind == "predict":
        return _run_predict(spec)
    if spec.kind == "reference":
        return _run_reference(spec)
    if spec.kind == "deploy":
        return _run_deploy(spec)
    raise ValueError(f"unknown scenario kind {spec.kind!r}")


def _tcp_model(spec: ScenarioSpec):
    from ..net import TcpModel

    return TcpModel(bandwidth_factor=spec.tcp.bandwidth_factor,
                    window=spec.tcp.window)


# ---------------------------------------------------------------------------
# the deployment template cache
# ---------------------------------------------------------------------------

@dataclass
class _DeployTemplate:
    """Everything about a deployment that is pure in the spec's
    platform/topology sub-space: the built platform, the shared TCP
    model, the resolved peer/zone counts, the zone layout, and a
    per-(platform, tcp) route-intern store.  Grid points that differ
    only in churn/policy/seed axes hit one template and skip
    re-deriving platforms, routes and zone groupings."""

    platform: Any
    tcp: Any
    deploy_n: int
    n_zones: int
    plan: Any
    route_intern: Dict[Any, Any] = field(default_factory=dict)


#: Per-process template cache, keyed on the frozen sub-plans that
#: define the deployment shape.
_TEMPLATES: Dict[Any, _DeployTemplate] = {}


def _deploy_template(spec: ScenarioSpec) -> _DeployTemplate:
    from ..p2pdc import plan_zones
    from . import platforms

    # the single owner of the shape derivation: _deploy reads these
    # back off the template, so key and deployment cannot diverge
    deploy_n = spec.deploy_peers or spec.n_peers
    n_zones = spec.n_zones or _auto_zones(deploy_n)
    key = (spec.platform, deploy_n, n_zones, spec.tcp)
    template = _TEMPLATES.get(key)
    if template is None:
        platform = platforms.build_platform(spec.platform)
        template = _DeployTemplate(
            platform=platform,
            tcp=_tcp_model(spec),
            deploy_n=deploy_n,
            n_zones=n_zones,
            plan=plan_zones(platform, deploy_n, n_zones),
        )
        _TEMPLATES[key] = template
    return template


def _run_predict(spec: ScenarioSpec) -> ScenarioResult:
    from . import platforms, workloads

    platform = platforms.build_platform(spec.platform)
    hosts = platforms.pick_hosts(platform, spec.n_peers, spec.host_policy)
    w = spec.workload
    traces = workloads.traces(w.app, spec.n_peers, w.level, w.n, w.nit)
    prediction = workloads.predictor(w.app).predict(
        traces, platform, hosts=hosts, tcp=_tcp_model(spec)
    )
    replay = prediction.replay
    return ScenarioResult(
        name=spec.name, spec_hash=spec.spec_hash(), kind=spec.kind,
        t=prediction.t_predicted,
        metrics={
            "compute_max": max(replay.compute_time),
            "blocked_max": max(replay.blocked_time),
        },
    )


def _deploy(spec: ScenarioSpec):
    from ..desim.rng import derive_seed
    from ..p2pdc import (
        ChurnEvent,
        ChurnPlan,
        CoordinatorChurn,
        OverlayConfig,
        PredictionError,
        deploy_overlay,
        poisson_peer_failures,
        rejoin_events,
    )
    template = _deploy_template(spec)
    deploy_n = template.deploy_n
    n_zones = template.n_zones
    t = spec.timers
    profile = spec.churn_profile
    config = OverlayConfig(
        cmax=spec.protocol.cmax,
        grouping=spec.protocol.grouping,
        selection_policy=spec.selection_policy,
        state_update_interval=t.state_update_interval,
        peer_expiry=t.peer_expiry,
        update_ack_timeout=t.update_ack_timeout,
        reserve_timeout=t.reserve_timeout,
        # rejoin_rate is the recovery axis: > 0 turns on coordinator
        # liveness monitoring and subtask re-dispatch; at 0 the
        # protocol runs exactly as before (SCHEMA_VERSION 2 dynamics)
        recovery=profile.rejoin_rate > 0,
        # election rides on recovery: with it off, v3 dynamics
        # reproduce bit for bit (no CoordPing, checkpoints, elections)
        election=spec.recovery.election,
        # the prediction-error ablation axis; its own seed field (not
        # derived from spec.seed) so sweeping corruption draws never
        # perturbs churn/selection streams
        prediction_error=PredictionError(
            kind=spec.prediction_error.kind,
            level=spec.prediction_error.level,
            seed=spec.prediction_error.seed,
        ),
        # the lossy-network hardening rides the fault axis: with no
        # active fault plan (or retries ablated off) every send stays
        # on the plain path — v5 dynamics bit for bit
        reliability=spec.fault_plan.active and spec.fault_plan.retries,
    )
    dep = deploy_overlay(
        template.platform, n_peers=deploy_n, n_zones=n_zones, config=config,
        seed=spec.seed, tcp=template.tcp, plan=template.plan,
        route_intern=template.route_intern,
    )
    plan = spec.fault_plan
    if plan.active:
        from ..net import FaultInjector

        # host name → zone index, from the same layout the deployment
        # realized (trackers are co-located on their zone's first peer
        # host; server and submitter share zone 0's first host)
        zone_of = {
            host.name: z
            for z, (_tname, _tip, zone_peers) in enumerate(template.plan.zones)
            for _pname, _pip, host in zone_peers
        }
        # the injector draws from plan.seed's derived streams, never
        # spec.seed: sweeping fault probabilities cannot perturb the
        # churn/rejoin/selection draws (and vice versa)
        dep.overlay.faults = FaultInjector(
            dep.sim,
            loss=plan.loss, duplication=plan.duplication,
            jitter=plan.jitter, jitter_delay=plan.jitter_delay,
            partition_start=plan.partition_start,
            partition_duration=plan.partition_duration,
            partition_zones=plan.partition_zones,
            zone_of=zone_of, seed=plan.seed,
        )
    if spec.failure_history:
        # failure-history seeding: the reputation store rides the spec
        # across runs, so a single-task scenario starts with informed
        # counts instead of a cold store; seeded before any selection
        # happens (the overlay has only settled at this point)
        dep.overlay.failure_history.update(
            {name: count for name, count in spec.failure_history}
        )
    if profile.coordinator_churn_rate > 0:
        # coordinators only exist once allocation appoints them: the
        # submitter draws and arms this schedule at dispatch time
        dep.overlay.coordinator_churn = CoordinatorChurn(
            rate=profile.coordinator_churn_rate,
            seed=derive_seed(spec.seed, "coordinator-churn"),
            start=profile.start,
            horizon=profile.horizon,
            max_failures=profile.max_failures,
        )
    events = [ChurnEvent(e.time, e.kind, e.target) for e in spec.churn]
    if profile.rate > 0:
        events.extend(poisson_peer_failures(
            profile.rate,
            [p.name for p in dep.peers],
            derive_seed(spec.seed, "churn"),
            start=profile.start,
            horizon=profile.horizon,
            max_failures=profile.max_failures,
        ))
    if profile.tracker_churn_rate > 0:
        events.extend(poisson_peer_failures(
            profile.tracker_churn_rate,
            [t.name for t in dep.trackers],
            derive_seed(spec.seed, "tracker-churn"),
            start=profile.start,
            horizon=profile.horizon,
            kind="tracker",
        ))
    if profile.rejoin_rate > 0 and events:
        # a separate seed stream: sweeping the rejoin rate never
        # perturbs the crash schedule it recovers from
        events.extend(rejoin_events(
            [e for e in events if e.kind == "peer"],
            profile.rejoin_rate,
            derive_seed(spec.seed, "rejoin"),
            delay=profile.rejoin_delay,
        ))
    if events:
        dep.arm_churn(ChurnPlan(events=sorted(events, key=lambda e: e.time)))
    return dep


def _submit_reference(spec: ScenarioSpec):
    """Deploy the overlay and submit the workload; ``(dep, signal)``."""
    from ..p2pdc import TaskSpec
    from ..p2psap import Scheme
    from . import workloads

    dep = _deploy(spec)
    scheme = Scheme.ASYNC if spec.protocol.scheme == "async" else Scheme.SYNC
    workload = workloads.make_workload(spec.workload, spec.n_peers, scheme)
    task = TaskSpec(workload=workload, n_peers=spec.n_peers,
                    spares=spec.spares)
    if spec.time_limit > 0:
        task.task_timeout = spec.time_limit
    if spec.protocol.allocation == "flat":
        sig = dep.submitter.submit_flat(task)
    else:
        sig = dep.submitter.submit(task)
    return dep, sig


def execute_reference(spec: ScenarioSpec):
    """Run a reference scenario and return ``(deployment, outcome)``.

    The property-test harness uses this to assert protocol-level
    invariants (subtask conservation, rank uniqueness) that the
    aggregated :class:`ScenarioResult` cannot express; an engine-level
    ``RuntimeError`` propagates to the caller.
    """
    dep, sig = _submit_reference(spec)
    dep.overlay.run_until(sig, limit=1e7)
    return dep, sig.value


def _recovery_metrics(dep) -> Dict[str, float]:
    stats = dep.overlay.stats
    counters = stats.counters
    metrics = {
        "churn_failures": float(len(dep.crash_events)),
        "rejoined_peers": float(counters.get("peer_rejoins", 0)),
        "redispatched_subtasks": float(
            counters.get("redispatched_subtasks", 0)
        ),
        "coordinator_crashes": float(
            len([e for e in dep.crash_events if e.kind == "coordinator"])
        ),
        "elections": float(counters.get("coordinator_elections", 0)),
    }
    if counters.get("coordinator_elections"):
        # mean blackout a group saw between last coordinator contact
        # and its stand-in's claim.  Absent (not 0.0) when no election
        # ran, so `compare` aggregates over real hand-offs only — a
        # zero-fill would dilute the pool's headline latency.
        metrics["handoff_latency"] = stats.mean("handoff_latency")
    if counters.get("prediction_candidates"):
        # candidate groups scored by the prediction-guided policies;
        # absent (not 0.0) under the classic policies — the same
        # absent-when-idle contract as handoff_latency
        metrics["prediction_candidates"] = float(
            counters["prediction_candidates"]
        )
    if dep.overlay.faults is not None:
        # fault-injection telemetry: what the injector actually did,
        # plus the hardening's response.  Present exactly when a fault
        # plan is active (absent-when-idle, like handoff_latency).
        metrics.update(dep.overlay.faults.stats.as_metrics())
        metrics["reliable_retries"] = float(
            counters.get("reliable_retries", 0))
        metrics["reliable_abandoned"] = float(
            counters.get("reliable_abandoned", 0))
        metrics["duplicate_deliveries"] = float(
            counters.get("duplicate_deliveries", 0))
    return metrics


def _run_reference(spec: ScenarioSpec) -> ScenarioResult:
    dep, sig = _submit_reference(spec)

    def failed(reason: str, ok: bool, **extra: float) -> ScenarioResult:
        return ScenarioResult(
            name=spec.name, spec_hash=spec.spec_hash(), kind=spec.kind,
            t=0.0, ok=ok, reason=reason,
            metrics={"completed": 0.0, **_recovery_metrics(dep), **extra},
        )

    try:
        dep.overlay.run_until(sig, limit=1e7)
    except RuntimeError as exc:
        # engine-level failure (deadlock, event-limit blowup): a hard
        # error even under churn — never a completion-probability datum
        return failed(str(exc), ok=False)
    outcome = sig.value
    timings = outcome.timings
    if not outcome.ok:
        # Under failure injection (churn or network faults) a
        # protocol-level non-completion is the measured outcome
        # (completion probability), not an error.
        return failed(outcome.reason, ok=spec.has_churn or spec.has_faults,
                      sim_events=float(dep.sim.event_count))
    metrics = {
        "completed": 1.0,
        **_recovery_metrics(dep),
        "makespan": timings.total_time,
        "collection_time": timings.collection_time,
        "allocation_time": timings.allocation_time,
        "n_groups": float(len(outcome.groups)) if outcome.groups else 1.0,
        "sim_events": float(dep.sim.event_count),
    }
    return ScenarioResult(
        name=spec.name, spec_hash=spec.spec_hash(), kind=spec.kind,
        t=timings.completed_at - timings.compute_started_at,
        metrics=metrics,
    )


def _run_deploy(spec: ScenarioSpec) -> ScenarioResult:
    dep = _deploy(spec)
    overlay = dep.overlay
    return ScenarioResult(
        name=spec.name, spec_hash=spec.spec_hash(), kind=spec.kind,
        t=overlay.now,
        metrics={
            "n_peers": float(len(dep.peers)),
            "n_trackers": float(len(dep.trackers)),
            "control_messages": float(overlay.stats.control_messages),
            "control_bytes": overlay.stats.control_bytes,
            "sim_events": float(overlay.sim.event_count),
        },
    )


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def atomic_write_bytes(path: os.PathLike | str, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via tempfile + ``os.replace``.

    The one atomic-write primitive for every on-disk store in the
    sweep stack (results, manifests, traces, bench trajectories):
    readers racing the write — fleet workers sharing a cache
    directory, a ``compare`` during a sweep — see either the old file
    or the complete new one, never a truncated file.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: os.PathLike | str, text: str) -> None:
    """:func:`atomic_write_bytes` for str content."""
    atomic_write_bytes(path, text.encode())


class JsonCache:
    """Content-addressed on-disk JSON store: one ``<hash>.json`` per
    entry.

    The shared substrate of every durable cache tier in the stack —
    scenario results here, SLO answers in ``repro.serve`` — factored
    so each tier inherits the same contract: atomic writes (tempfile +
    ``os.replace``, so concurrent readers never see a truncated
    entry) and torn-entry-reads-as-miss.
    The directory is opened (and created) exactly once, at
    construction; ``disk_reads``/``disk_writes`` count every
    filesystem touch afterwards, which is what lets the serve tier
    *pin* its hot path as syscall-free instead of asserting it.

    Read-error semantics: a *missing file* and a *torn entry*
    (interrupted ``os.replace``, half-written JSON) are legitimate
    misses — recompute and move on.  An *environmental* read error
    (permissions, I/O failure, a directory where a file should be) is
    not: silently recomputing would mask a broken cache forever.
    Those bump ``cache_read_errors``, log the path once, and the
    **second consecutive** failure of the same entry re-raises — one
    transient blip recovers, a persistent fault surfaces.
    """

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.disk_reads = 0
        self.disk_writes = 0
        self.cache_read_errors = 0
        self._read_failures: Dict[str, int] = {}
        self._logged_paths: set = set()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload under ``key``, or None (torn entry,
        non-dict payload, and missing file all read as a miss).

        Environmental read errors — anything besides a missing file —
        are counted, logged once per path, tolerated once, and
        re-raised on the second consecutive failure of the same entry
        (see the class doc).
        """
        self.disk_reads += 1
        path = self._path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            self._read_failures.pop(key, None)
            return None
        except OSError as exc:
            self.cache_read_errors += 1
            failures = self._read_failures.get(key, 0) + 1
            self._read_failures[key] = failures
            if str(path) not in self._logged_paths:
                self._logged_paths.add(str(path))
                _LOG.warning(
                    "cache read failed for %s (%s); treating as a miss",
                    path, exc,
                )
            if failures >= 2:
                raise
            return None
        self._read_failures.pop(key, None)
        try:
            payload = json.loads(text)
        except ValueError:
            # torn entry (interrupted write): a legitimate miss
            return None
        return payload if isinstance(payload, dict) else None

    def store(self, key: str, payload: Mapping[str, Any]) -> None:
        """Atomically write ``payload`` under ``key``."""
        self.disk_writes += 1
        atomic_write_text(
            self._path(key),
            json.dumps(payload, sort_keys=True, indent=1),
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


class ResultCache(JsonCache):
    """On-disk JSON cache: one ``<spec-hash>.json`` file per result.

    Each entry stores the full spec alongside the result; a hash
    collision or a stale schema is treated as a miss.  Atomicity,
    miss semantics and the I/O counters come from :class:`JsonCache`.

    ``on_put`` is the consolidated-store index hook: when set (fleet
    workers point it at :class:`repro.fleet.store.ResultStore`), every
    newly computed result is appended to the cross-sweep index the
    moment it becomes durable — the cache stays the single producer of
    durable results, and the index can never record a result the cache
    doesn't hold.
    """

    def __init__(self, root: os.PathLike | str,
                 on_put: Optional[Any] = None) -> None:
        super().__init__(root)
        #: Optional ``callable(spec, result)`` invoked after each put.
        self.on_put = on_put

    def get(self, spec: ScenarioSpec) -> Optional[ScenarioResult]:
        """The cached result for ``spec``, or None."""
        payload = self.load(spec.spec_hash())
        if payload is None or payload.get("spec") != spec.hash_payload():
            return None
        return ScenarioResult.from_dict(payload["result"])

    def put(self, spec: ScenarioSpec, result: ScenarioResult) -> None:
        """Store ``result`` under ``spec``'s hash (atomic write),
        then fire the index hook."""
        self.store(spec.spec_hash(),
                   {"spec": spec.hash_payload(), "result": result.to_dict()})
        if self.on_put is not None:
            self.on_put(spec, result)


def run_cached(
    spec: ScenarioSpec, cache: Optional[ResultCache] = None
) -> ScenarioResult:
    """Memoized scenario execution: memo → disk cache → compute."""
    key = spec.spec_hash()
    result = _MEMO.get(key)
    if result is not None:
        return result
    if cache is not None:
        result = cache.get(spec)
        if result is not None:
            _MEMO[key] = result
            return result
    result = run_scenario(spec)
    _MEMO[key] = result
    if cache is not None:
        cache.put(spec, result)
    return result


def memo_get(spec_hash: str) -> Optional["ScenarioResult"]:
    """The in-process memo entry for ``spec_hash``, or None.

    The serve tier resolves its scenario pools through the memo
    *explicitly* (memo → disk → compute) instead of via
    :func:`run_cached`, because it has to count each level's traffic:
    a memo probe is free, a disk probe bumps the cache's I/O counters,
    and a compute bumps the daemon's ``scenario_runs`` — the numbers
    its no-resimulation and syscall-free-hot-path tests pin.
    """
    return _MEMO.get(spec_hash)


def memo_put(spec_hash: str, result: "ScenarioResult") -> None:
    """Install ``result`` in the in-process memo (see :func:`memo_get`)."""
    _MEMO[spec_hash] = result


def clear_memo() -> None:
    """Drop the in-process memo (tests only)."""
    _MEMO.clear()


# ---------------------------------------------------------------------------
# grid expansion + the sweep runner
# ---------------------------------------------------------------------------

def expand_grid(
    base: ScenarioSpec, grid: Mapping[str, Sequence[Any]]
) -> List[ScenarioSpec]:
    """Cartesian product of field overrides applied to ``base``.

    Keys are (dotted) spec paths, e.g. ``{"n_peers": (2, 4),
    "workload.level": ("O0", "O3")}`` → 4 specs, named
    ``base[n_peers=2,workload.level=O0]`` etc. in deterministic order.
    """
    if not grid:
        return [base]
    paths = list(grid)
    specs: List[ScenarioSpec] = []
    for combo in product(*(grid[p] for p in paths)):
        spec = base
        for path, value in zip(paths, combo):
            spec = spec.with_override(path, value)
        label = ",".join(f"{p}={v}" for p, v in zip(paths, combo))
        specs.append(spec.with_override("name", f"{base.name}[{label}]"))
    return specs


def _pool_run(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: rebuild the spec, run it, ship plain data.

    The worker writes its own result into the shared on-disk cache
    *before* returning, so a killed sweep resumes from
    everything it completed rather than recomputing the whole grid.
    """
    from . import workloads

    # unconditional: a forked worker inherits the parent's module
    # global, which may point at a different sweep's cache directory
    workloads.set_trace_cache_dir(payload.get("trace_cache"))
    spec = ScenarioSpec.from_dict(payload["spec"])
    cache_dir = payload.get("cache_dir")
    cache = ResultCache(cache_dir) if cache_dir else None
    return run_cached(spec, cache).to_dict()


class SweepRunner:
    """Executes scenario lists with memoization and process parallelism.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk result cache (None → in-process memo
        only).  Also hosts the persistent trace cache (``traces/``
        subdirectory) that spares every pool worker the multi-second
        dPerf calibration cold start.
    max_workers:
        Process pool width for cache misses (None → ``os.cpu_count()``,
        capped by the number of misses; 1 forces serial in-process).
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike | str] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.trace_cache_dir = (
            str(Path(cache_dir) / "traces") if cache_dir is not None else None
        )
        self.max_workers = max_workers
        self.hits = 0
        self.misses = 0

    # -- execution ---------------------------------------------------------
    def run(
        self,
        specs: Sequence[ScenarioSpec],
        parallel: bool = True,
        on_result: Optional[Any] = None,
    ) -> List[ScenarioResult]:
        """Run ``specs`` (cache-first), preserving input order.

        Duplicate spec hashes are computed once.  With ``parallel``
        (the default) cache misses execute in a process pool; results
        are identical to a serial run because the runner is pure.

        ``on_result(spec, result)`` — when given — is invoked once per
        *computed* miss as it lands (completion order), which is the
        incremental-manifest hook: a sweep killed mid-flight has
        recorded everything it finished.  Cache hits are returned but
        not streamed (they were already durable).
        """
        results: List[Optional[ScenarioResult]] = [None] * len(specs)
        miss_index: Dict[str, List[int]] = {}
        for i, spec in enumerate(specs):
            key = spec.spec_hash()
            cached = _MEMO.get(key)
            if cached is None and self.cache is not None:
                cached = self.cache.get(spec)
                if cached is not None:
                    _MEMO[key] = cached
            if cached is not None:
                results[i] = cached
                self.hits += 1
            else:
                miss_index.setdefault(key, []).append(i)
        misses = [specs[slots[0]] for slots in miss_index.values()]
        self.misses += len(misses)
        workers = self._effective_workers(len(misses))
        pooled = parallel and workers > 1
        if pooled:
            computed = self._run_pool(misses, workers, on_result)
        else:
            from . import workloads

            # unconditional: clears a previous runner's directory too
            workloads.set_trace_cache_dir(self.trace_cache_dir)
            computed = []
            for spec in misses:
                result = run_scenario(spec)
                computed.append(result)
                if on_result is not None:
                    on_result(spec, result)
        for spec, result in zip(misses, computed):
            key = spec.spec_hash()
            _MEMO[key] = result
            if self.cache is not None and not pooled:
                # pool workers already persisted their own results
                # (run_cached in _pool_run) — re-writing identical
                # entries here would double the sweep's cache I/O
                self.cache.put(spec, result)
            for i in miss_index[key]:
                results[i] = result
        return [r for r in results if r is not None]

    def run_grid(
        self,
        base: ScenarioSpec,
        grid: Mapping[str, Sequence[Any]],
        parallel: bool = True,
    ) -> List[ScenarioResult]:
        """Expand ``grid`` over ``base`` and run every point."""
        return self.run(expand_grid(base, grid), parallel=parallel)

    # -- internals ---------------------------------------------------------
    def _effective_workers(self, n_misses: int) -> int:
        if n_misses <= 1:
            return 1
        width = self.max_workers or os.cpu_count() or 1
        return max(1, min(width, n_misses))

    def _prime_templates(self, misses: Sequence[ScenarioSpec]) -> None:
        """Pay per-sweep one-time costs once, in the parent.

        Trace generation (the dPerf calibration) lands in the
        persistent trace cache, so workers load a pickle instead of
        re-interpreting mini-C; platforms are built so fork-started
        workers inherit them copy-on-write.  Both are pure derivations
        of the spec, so priming cannot change any result.
        """
        from . import platforms, workloads

        workloads.set_trace_cache_dir(self.trace_cache_dir)
        seen = set()
        for spec in misses:
            platforms.build_platform(spec.platform)
            if spec.kind not in ("reference", "predict"):
                continue
            w = spec.workload
            recipe = (w.app, spec.n_peers, w.level, w.n, w.nit)
            if recipe not in seen:
                seen.add(recipe)
                workloads.traces(*recipe)

    def _run_pool(
        self, misses: Sequence[ScenarioSpec], workers: int,
        on_result: Optional[Any] = None,
    ) -> List[ScenarioResult]:
        self._prime_templates(misses)
        cache_dir = str(self.cache.root) if self.cache is not None else None
        payloads = [
            {"spec": spec.to_dict(), "cache_dir": cache_dir,
             "trace_cache": self.trace_cache_dir}
            for spec in misses
        ]
        computed: List[Optional[ScenarioResult]] = [None] * len(misses)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_pool_run, payload): i
                for i, payload in enumerate(payloads)
            }
            for future in as_completed(futures):
                i = futures[future]
                result = ScenarioResult.from_dict(future.result())
                computed[i] = result
                if on_result is not None:
                    on_result(misses[i], result)
        # every slot must be filled: a silent gap here would shift the
        # caller's zip(misses, computed) and cache results under wrong
        # spec hashes
        assert all(r is not None for r in computed)
        return computed  # type: ignore[return-value]

    # -- reporting ---------------------------------------------------------
    @property
    def cache_ratio(self) -> float:
        """Fraction of requested points served from a cache level."""
        total = self.hits + self.misses
        return self.hits / total if total else math.nan
