"""The work-stealing fleet and the consolidated results store.

Contracts pinned here:

- **claims are exclusive** — the atomic-rename steal has exactly one
  winner per point;
- **store appends are deduplicated and torn-tolerant** — one record
  per (label, spec hash), readers skip a killed writer's trailing
  line;
- **byte-identity** — a fleet run's manifest is byte-for-byte the
  manifest a serial sweep writes;
- **fault paths** — a worker SIGKILLed mid-point is detected and its
  point reassigned *exactly once* with no duplicate store/cache
  writes; a point that keeps killing workers is quarantined as poison
  after its retry budget, with a monotone backoff trail, while every
  other point still completes.
"""

import json
import os
import signal
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.fleet import (
    FleetDirs,
    FleetDispatcher,
    FleetWorker,
    ResultStore,
    backoff_delay,
    fleet_stats,
    format_stats,
    requeue_task,
    worker_stats,
)
from repro.fleet.cli import main as fleet_main
from repro.fleet.telemetry import WorkerStat, flag_stragglers
from repro.scenarios import SCENARIOS, expand_grid, run_scenario
from repro.scenarios.cli import main as scenarios_main
from repro.scenarios.runner import ResultCache, clear_memo
from repro.scenarios.spec import PlatformPlan, ScenarioSpec

#: The cheap all-deploy grid of test_scenarios.py: 12 points, each only
#: builds and settles a small overlay (~tens of ms).
DEPLOY_ARGS = [
    "--set", "platform.n_hosts=32", "--set", "n_peers=4,6,8",
    "--set", "n_zones=1,2", "--set", "seed=2011,2013",
]
DEPLOY_GRID = {
    "platform.n_hosts": (32,), "n_peers": (4, 6, 8),
    "n_zones": (1, 2), "seed": (2011, 2013),
}
SCENARIO = "large-overlay-512"


def _specs():
    return expand_grid(SCENARIOS[SCENARIO].base, DEPLOY_GRID)


def _spawn_env(**extra):
    """Worker-subprocess env with the repo's src on PYTHONPATH, so the
    fleet tests pass regardless of how pytest itself was launched."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FLEET_FAULT", None)
    env.update(extra)
    return env


def _serial_manifest(cache: Path) -> Path:
    assert scenarios_main(
        ["sweep", SCENARIO, "--serial", "--label", "g",
         "--cache-dir", str(cache)] + DEPLOY_ARGS
    ) == 0
    return cache / "sweeps" / "g.json"


def _probe_result(seed=1):
    spec = ScenarioSpec(
        name="store-probe", kind="deploy", seed=seed,
        platform=PlatformPlan(kind="cluster", n_hosts=8), n_peers=4,
    )
    return spec, run_scenario(spec)


def _synthetic_manifest(result, label, t):
    """A three-point manifest over one axis ``x`` whose ``t`` grows
    as ``t * (1 + x)`` — regressions are then a plain ratio."""
    return {
        "label": label, "scenario": SCENARIO,
        "points": [
            {"name": f"p[x={x}]",
             "spec_hash": f"{result.spec_hash[:-2]}{x:02d}",
             "result": dict(result.to_dict(), t=t * (1 + x))}
            for x in range(3)
        ],
    }


def _append_line(store, record):
    """A concurrent writer's raw append: lands a physical line past
    this process's dedup (the two-process refresh→write window)."""
    with open(store.index_path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True,
                            separators=(",", ":")) + "\n")


# -- the consolidated store ---------------------------------------------------

class TestResultStore:
    def test_record_dedups_on_label_and_hash(self, tmp_path):
        store = ResultStore(tmp_path)
        spec, result = _probe_result()
        assert store.record(spec, result, "a", SCENARIO) is True
        assert store.record(spec, result, "a", SCENARIO) is False
        # same hash under a different label is a distinct record
        assert store.record(spec, result, "b", SCENARIO) is True
        assert len(store) == 2
        assert store.labels() == {"a": 1, "b": 1}
        assert store.skipped == 1

    def test_dedup_survives_reopening(self, tmp_path):
        spec, result = _probe_result()
        ResultStore(tmp_path).record(spec, result, "a", SCENARIO)
        again = ResultStore(tmp_path)  # _seen loaded from disk
        assert again.record(spec, result, "a", SCENARIO) is False
        assert len(again) == 1

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        spec, result = _probe_result()
        store.record(spec, result, "a", SCENARIO)
        with open(store.index_path, "a") as fh:
            fh.write('{"label": "a", "spec_hash": "beef", "trunc')
        entries = list(ResultStore(tmp_path).entries())
        assert len(entries) == 1
        assert entries[0]["label"] == "a"

    def test_sweep_points_dedups_per_hash_newest_wins(self, tmp_path):
        spec, result = _probe_result()
        old = dict(name=spec.name, spec_hash=result.spec_hash,
                   label="a", scenario=SCENARIO,
                   result=dict(result.to_dict(), t=1.0))
        new = dict(old, result=dict(result.to_dict(), t=2.0))
        # two appends of the same (label, hash) — the double-index a
        # reassignment race could produce; the second lands as a raw
        # duplicate line, past any single instance's dedup
        store = ResultStore(tmp_path)
        store.record_raw(old)
        _append_line(store, new)
        points = ResultStore(tmp_path).sweep_points("a")
        assert len(points) == 1
        assert points[0]["result"]["t"] == 2.0

    def test_len_and_labels_dedup_duplicate_lines(self, tmp_path):
        """Accounting must match what readers actually return: a
        duplicate physical line from a concurrent writer counts
        once in ``len``/``labels``, like it reads once."""
        spec, result = _probe_result()
        store = ResultStore(tmp_path)
        store.record(spec, result, "a", SCENARIO)
        _append_line(store, {
            "spec_hash": result.spec_hash, "name": spec.name,
            "label": "a", "scenario": SCENARIO,
            "result": result.to_dict(),
        })
        assert store.index_path.read_text().count('"label":"a"') == 2
        fresh = ResultStore(tmp_path)
        assert len(fresh) == 1

    def test_superseded_fraction_counts_shadowed_records(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.superseded_fraction() == 0.0  # empty: nothing to do
        spec, result = _probe_result()
        store.record(spec, result, "a", SCENARIO)
        assert store.superseded_fraction() == 0.0  # all live
        record = {
            "spec_hash": result.spec_hash, "name": spec.name,
            "label": "a", "scenario": SCENARIO,
            "result": result.to_dict(),
        }
        _append_line(store, record)
        _append_line(store, record)
        # 3 physical records, 1 live key: two thirds are history
        fresh = ResultStore(tmp_path)
        assert fresh.superseded_fraction() == pytest.approx(2 / 3)
        fresh.compact()
        assert ResultStore(tmp_path).superseded_fraction() == 0.0
        assert fresh.labels() == {"a": 1}

    def test_record_raw_dedups_and_stamps_time(self, tmp_path):
        """The dispatcher's finalize sync: one record per (label,
        hash), stamped when it lands unless the caller stamped it."""
        spec, result = _probe_result()
        raw = {"name": spec.name, "spec_hash": result.spec_hash,
               "label": "a", "scenario": SCENARIO,
               "result": result.to_dict()}
        store = ResultStore(tmp_path)
        assert store.record_raw(raw) is True
        assert store.record_raw(raw) is False
        assert ResultStore(tmp_path).record_raw(raw) is False
        assert store.record_raw(dict(raw, label="b", ts=7.0)) is True
        assert store.appended == 2 and store.skipped == 1
        by_label = {r["label"]: r for r in ResultStore(tmp_path).entries()}
        assert by_label["b"]["ts"] == 7.0
        assert isinstance(by_label["a"]["ts"], float)

    def test_record_raw_serves_every_read(self, tmp_path):
        """A raw record is a full citizen of the index: the compare
        path's label scan and the serve tier's hash probe both see
        it."""
        spec, result = _probe_result()
        ResultStore(tmp_path).record_raw({
            "name": spec.name, "spec_hash": result.spec_hash,
            "label": "a", "scenario": SCENARIO,
            "result": result.to_dict(),
        })
        reopened = ResultStore(tmp_path)
        assert reopened.labels() == {"a": 1}
        assert reopened.sweep_points("a") == [{
            "name": spec.name, "spec_hash": result.spec_hash,
            "result": result.to_dict(),
        }]
        assert reopened.get_result(result.spec_hash).to_dict() \
            == result.to_dict()

    def test_get_result_returns_newest(self, tmp_path):
        spec, result = _probe_result()
        store = ResultStore(tmp_path)
        store.record(spec, result, "a", SCENARIO)
        assert store.get_result(result.spec_hash).canonical_json() \
            == result.canonical_json()
        assert store.get_result("nope") is None

    def test_persisted_sidecar_is_adopted_not_rebuilt(self, tmp_path):
        pairs = [_probe_result(seed=s) for s in (1, 2, 3)]
        store = ResultStore(tmp_path)
        for spec, result in pairs:
            store.record(spec, result, "a", SCENARIO)
        store.compact()  # persists a snapshot covering every record
        assert store.offsets_path.exists()
        fresh = ResultStore(tmp_path)
        for _spec, result in pairs:
            assert fresh.get_result(result.spec_hash).canonical_json() \
                == result.canonical_json()
        # the lookups went through the adopted sidecar: no full scan
        assert fresh.sidecar_rebuilds == 0

    def test_torn_sidecar_is_rebuilt_from_the_index(self, tmp_path):
        spec, result = _probe_result()
        store = ResultStore(tmp_path)
        store.record(spec, result, "a", SCENARIO)
        store.offsets_path.write_text('{"generation": 0, "cov')
        fresh = ResultStore(tmp_path)
        assert fresh.get_result(result.spec_hash).canonical_json() \
            == result.canonical_json()
        assert fresh.sidecar_rebuilds == 1
        # the rebuild repaired the on-disk sidecar too
        payload = json.loads(store.offsets_path.read_text())
        assert payload["offsets"][result.spec_hash] == 0
        assert payload["covers"] == store.index_path.stat().st_size

    def test_lying_offsets_caught_by_hash_check(self, tmp_path):
        """A sidecar with the right generation but wrong offsets (the
        compaction-swap window) is caught by the read-back hash
        mismatch and rebuilt — the sidecar can be stale, never
        wrong."""
        (s1, r1), (s2, r2) = _probe_result(seed=1), _probe_result(seed=2)
        store = ResultStore(tmp_path)
        store.record(s1, r1, "a", SCENARIO)
        store.record(s2, r2, "a", SCENARIO)
        store.compact()
        payload = json.loads(store.offsets_path.read_text())
        payload["offsets"][r1.spec_hash] = \
            payload["offsets"][r2.spec_hash]
        store.offsets_path.write_text(json.dumps(payload))
        fresh = ResultStore(tmp_path)
        assert fresh.get_result(r1.spec_hash).canonical_json() \
            == r1.canonical_json()
        assert fresh.sidecar_rebuilds == 1

    def test_compaction_invalidates_warm_readers(self, tmp_path):
        """A reader holding pre-compaction offsets sees the generation
        bump on its next refresh and rebuilds instead of seeking into
        the rewritten file."""
        spec, result = _probe_result()
        old = {"spec_hash": result.spec_hash, "name": spec.name,
               "label": "a", "scenario": SCENARIO,
               "result": dict(result.to_dict(), t=1.0)}
        writer = ResultStore(tmp_path)
        writer.record_raw(old)
        reader = ResultStore(tmp_path)
        assert reader.get_result(result.spec_hash).t == 1.0
        # a concurrent writer lands a newer duplicate, then compacts
        _append_line(writer, dict(old, result=dict(result.to_dict(),
                                                   t=2.0)))
        writer.compact()
        assert reader.get_result(result.spec_hash).t == 2.0
        assert reader.sidecar_rebuilds >= 1

    def test_compaction_preserves_every_read(self, tmp_path):
        """Compacted and uncompacted stores answer identically:
        ``sweep_points`` (order included), ``labels``, ``len``, and
        per-hash ``get_result`` — pinned via canonical JSON."""
        pairs = [_probe_result(seed=s) for s in (1, 2, 3)]
        store = ResultStore(tmp_path)
        for spec, result in pairs:
            store.record(spec, result, "a", SCENARIO)
        store.record(pairs[0][0], pairs[0][1], "b", SCENARIO)
        # a newer duplicate for one key: compaction must keep it
        s1, r1 = pairs[1]
        _append_line(store, {
            "spec_hash": r1.spec_hash, "name": s1.name, "label": "a",
            "scenario": SCENARIO,
            "result": dict(r1.to_dict(), t=99.0),
        })

        def snapshot(view):
            return (
                json.dumps(view.sweep_points("a"), sort_keys=True),
                json.dumps(view.sweep_points("b"), sort_keys=True),
                view.labels(), len(view),
                {r.spec_hash: view.get_result(r.spec_hash)
                               .canonical_json()
                 for _s, r in pairs},
            )

        before = snapshot(ResultStore(tmp_path))
        stats = store.compact()
        assert stats["records_before"] == 5
        assert stats["records_after"] == 4 and stats["dropped"] == 1
        assert stats["generation"] == 1
        assert snapshot(ResultStore(tmp_path)) == before
        # compaction is idempotent (apart from the generation bump)
        again = store.compact()
        assert again["dropped"] == 0 and again["generation"] == 2
        assert snapshot(ResultStore(tmp_path)) == before


# -- the steal protocol -------------------------------------------------------

class TestProtocol:
    def test_claim_has_exactly_one_winner(self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        dirs.enqueue({"index": 0, "name": "p", "spec_hash": "h",
                      "attempt": 1})
        first = dirs.claim(0, "w0")
        second = dirs.claim(0, "w1")
        assert first is not None
        assert second is None
        claims = dirs.active_claims()
        assert [c["worker"] for c in claims] == ["w0"]

    def test_grid_is_queued_once_and_claims_partition_it(self,
                                                           tmp_path):
        """The fleet's split of a grid: every point is queued exactly
        once, in grid order, and claimers racing over the queue from
        opposite ends divide it disjointly and completely."""
        clear_memo()
        specs = _specs()
        dispatcher = FleetDispatcher(specs, label="g", scenario=SCENARIO,
                                     cache_dir=tmp_path, workers=0)
        dispatcher._prepare_dirs()
        assert dispatcher._seed_from_cache(ResultCache(tmp_path)) == 0
        queued = dispatcher.dirs.queued_tasks()
        assert [t["index"] for t in queued] == list(range(len(specs)))
        assert [t["spec_hash"] for t in queued] \
            == [s.spec_hash() for s in specs]
        claims = {"w0": [], "w1": []}
        last = len(specs) - 1
        for i in range(len(specs)):
            for wid, index in (("w0", i), ("w1", last - i)):
                if dispatcher.dirs.claim(index, wid) is not None:
                    claims[wid].append(index)
        assert claims["w0"] and claims["w1"]
        assert not set(claims["w0"]) & set(claims["w1"])
        assert sorted(claims["w0"] + claims["w1"]) \
            == list(range(len(specs)))
        assert dispatcher.dirs.queued_tasks() == []

    def test_claim_returns_the_payload_it_renamed(self, tmp_path,
                                                  monkeypatch):
        """The requeue/claim interleave: a bumped payload re-enqueued
        in the window just before the claim's rename must be what the
        winner receives.  Read-then-rename handed back the *stale*
        payload — attempt counter and backoff trail reset — which
        could defeat the retry budget."""
        dirs = FleetDirs(tmp_path / "f").create()
        v1 = {"index": 0, "name": "p", "spec_hash": "h", "attempt": 1}
        dirs.enqueue(v1)
        real_rename = os.rename

        def racing_rename(src, dst):
            # the requeue lands its bumped payload first (enqueue is
            # os.replace-based, so no recursion), then the claim's
            # rename moves that fresh file
            dirs.enqueue(dict(v1, attempt=2, not_before=123.0,
                              attempts=[{"attempt": 2}]))
            return real_rename(src, dst)

        monkeypatch.setattr(os, "rename", racing_rename)
        claimed = dirs.claim(0, "w0")
        assert claimed is not None
        assert claimed["attempt"] == 2
        assert claimed["not_before"] == 123.0

    def test_worker_hands_back_a_raced_backoff(self, tmp_path,
                                               monkeypatch):
        """A claim that comes back carrying a future ``not_before``
        (the requeue raced us) is re-enqueued verbatim and the claim
        released — the worker must not compute through a backoff."""
        cache = tmp_path / "cache"
        dirs = FleetDirs(cache / "fleet" / "g").create()
        dirs.write_grid({"label": "g", "scenario": SCENARIO,
                         "n_points": 1})
        worker = FleetWorker(dirs.root, cache_dir=cache,
                             worker_id="w0")
        dirs.enqueue({"index": 0, "name": "p", "spec_hash": "h",
                      "attempt": 1})
        future = time.time() + 60.0
        real_claim = FleetDirs.claim

        def racing_claim(self, index, worker_id):
            claimed = real_claim(self, index, worker_id)
            return None if claimed is None \
                else dict(claimed, attempt=2, not_before=future)

        monkeypatch.setattr(FleetDirs, "claim", racing_claim)
        assert worker._try_claim() is None  # noqa: SLF001
        (task,) = worker.dirs.queued_tasks()
        assert task["attempt"] == 2 and task["not_before"] == future
        assert worker.dirs.active_claims() == []

    def test_backoff_is_monotone_exponential(self):
        delays = [backoff_delay(a, 0.5) for a in range(1, 6)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0]

    def test_requeue_exhausts_into_poison_with_history(self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        task = {"index": 3, "name": "p", "spec_hash": "h", "attempt": 1}
        assert requeue_task(dirs, task, max_retries=2,
                            backoff_base=0.01, reason="first") is True
        requeued = dirs.queued_tasks()[0]
        assert requeued["attempt"] == 2
        assert requeued["not_before"] > 0
        assert requeue_task(dirs, requeued, max_retries=2,
                            backoff_base=0.01, reason="second") is False
        assert dirs.queued_tasks() == []
        poison = dirs.poison_records()[3]
        history = poison["attempts"]
        assert [h["attempt"] for h in history] == [2, 3]
        assert "second" in poison["reason"]
        # monotone backoff: each retry waits strictly longer
        gaps = [h["not_before"] - h["at"] for h in history]
        assert gaps == sorted(gaps) and gaps[1] > gaps[0]

    def test_heartbeats_roundtrip(self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        dirs.beat("w0", 7, points_done=3)
        beat = dirs.heartbeats()["w0"]
        assert beat["point"] == 7 and beat["points_done"] == 3
        assert beat["pid"] == os.getpid()

    def test_resolved_counter_tracks_and_never_regresses(self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        from repro.fleet import ResolvedCounter

        counter = ResolvedCounter(dirs, recheck_interval=0.0)
        assert counter.count() == 0
        dirs.mark_done({"index": 0, "name": "p", "spec_hash": "h"})
        dirs.mark_poison({"index": 1, "name": "q", "spec_hash": "i"},
                         reason="bad")
        assert counter.count() == 2
        # resolved files never disappear mid-fleet, so a (simulated)
        # racy undercount must not walk the counter backwards
        os.unlink(dirs.done / dirs.task_name(0))
        assert counter.count() == 2

    def test_resolved_counter_caches_between_mtime_changes(
            self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        from repro.fleet import ResolvedCounter

        counter = ResolvedCounter(dirs, recheck_interval=3600.0)
        dirs.mark_done({"index": 0, "name": "p", "spec_hash": "h"})
        assert counter.count() == 1
        calls = {"n": 0}
        real = dirs.done_indices

        def counted():
            calls["n"] += 1
            return real()

        dirs.done_indices = counted
        # unchanged directories + a fresh check: the cache answers
        assert counter.count() == 1
        assert calls["n"] == 0
        dirs.mark_done({"index": 1, "name": "q", "spec_hash": "i"})
        # force the mtime tick (filesystem granularity can be coarse)
        stat = os.stat(dirs.done)
        os.utime(dirs.done, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        assert counter.count() == 2
        assert calls["n"] == 1


# -- straggler telemetry ------------------------------------------------------

class TestTelemetry:
    def test_rate_rule_flags_slow_worker(self):
        fast = [WorkerStat(worker=f"w{i}", points_done=10,
                           points_per_min=10.0) for i in range(2)]
        slow = WorkerStat(worker="slow", points_done=1,
                          points_per_min=2.0)
        workers = fast + [slow]
        flag_stragglers(workers)
        assert slow.straggler
        assert "median" in slow.reasons[0]
        assert not any(w.straggler for w in fast)

    def test_rate_rule_needs_two_productive_workers(self):
        # one productive worker has no fleet to be slower than; an
        # idle worker is not a straggler, it just hasn't stolen yet
        only = WorkerStat(worker="w0", points_done=1,
                          points_per_min=0.01)
        idle = WorkerStat(worker="w1", points_done=0,
                          points_per_min=0.0)
        workers = [only, idle]
        flag_stragglers(workers)
        assert not any(w.straggler for w in workers)

    def test_stall_rule_flags_wedged_point(self):
        stuck = WorkerStat(worker="w0", points_done=5,
                           points_per_min=5.0, mean_latency=1.0,
                           point=7, point_age=10.0)
        flag_stragglers([stuck])
        assert stuck.straggler
        assert "in flight" in stuck.reasons[0]

    def test_worker_stats_reads_heartbeat_telemetry(self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        dirs.beat("w0", 3, points_done=4, telemetry={
            "points_per_min": 8.0, "mean_latency": 0.5,
            "last_latency": 0.4, "point_age": 0.2, "uptime": 30.0,
        })
        (stat,) = worker_stats(dirs, now=time.time() + 1.0)
        assert stat.worker == "w0" and stat.points_done == 4
        assert stat.points_per_min == 8.0
        assert stat.point == 3 and stat.point_age == 0.2
        assert stat.beat_age >= 1.0

    def test_fleet_stats_snapshot_and_format(self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        dirs.write_grid({"label": "g", "scenario": SCENARIO,
                         "n_points": 4})
        dirs.enqueue({"index": 2, "name": "p", "spec_hash": "h",
                      "attempt": 1})
        dirs.mark_done({"index": 0, "name": "p", "spec_hash": "h0"})
        dirs.beat("fast", None, points_done=2,
                  telemetry={"points_per_min": 10.0})
        dirs.beat("slow", None, points_done=1,
                  telemetry={"points_per_min": 1.0})
        stats = fleet_stats(dirs)
        assert stats.label == "g" and stats.n_points == 4
        assert stats.done == 1 and stats.queued == 1
        assert stats.active == 0
        assert [w.worker for w in stats.stragglers] == ["slow"]
        text = format_stats(stats)
        assert "1/4 done" in text
        assert "fast" in text and "slow" in text
        assert "STRAGGLER" in text


# -- the dispatcher -----------------------------------------------------------

class TestFleetRuns:
    def test_fleet_manifest_byte_identical_to_serial_sweep(self, tmp_path):
        serial = _serial_manifest(tmp_path / "serial")
        clear_memo()  # the fleet must earn its points, not inherit them
        specs = _specs()
        # one point hangs its worker until another worker has finished
        # a point, so both workers compute however fast the first one
        # drains the cheap grid
        held = specs[0].spec_hash()
        dispatcher = FleetDispatcher(
            specs, label="g", scenario=SCENARIO,
            cache_dir=tmp_path / "fleet", workers=2,
            heartbeat_interval=0.1, poll_interval=0.05,
            wall_timeout=120.0,
            spawn_env=_spawn_env(REPRO_FLEET_FAULT=f"{held[:16]}=hang"),
        )
        box = {}

        def drive():
            box["outcome"] = dispatcher.run()

        thread = threading.Thread(target=drive)
        thread.start()
        try:
            holder = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if holder is None:
                    for c in dispatcher.dirs.active_claims():
                        if c["spec_hash"] == held:
                            holder = c["worker"]
                elif any(r["worker"] != holder for r in
                         dispatcher.dirs.done_records().values()):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("no second worker finished a point")
        finally:
            (dispatcher.dirs.root / "fault-disarmed").write_text("")
            thread.join(timeout=120.0)
        assert not thread.is_alive()
        outcome = box["outcome"]
        assert outcome.complete
        assert not outcome.reassignments
        assert outcome.computed == 12 and outcome.cached == 0
        # at least two workers actually stole work
        assert len(outcome.worker_points) >= 2
        assert outcome.manifest_path.read_bytes() == serial.read_bytes()
        # every computed point was indexed exactly once
        assert len(ResultStore(tmp_path / "fleet")) == 12

    def test_fleet_resolves_from_shared_cache_without_workers(
            self, tmp_path):
        cache = tmp_path / "shared"
        serial = _serial_manifest(cache)
        # same cache dir: every point is already answered on disk, so
        # zero workers is enough and nothing recomputes
        outcome = FleetDispatcher(
            _specs(), label="g", scenario=SCENARIO, cache_dir=cache,
            workers=0, wall_timeout=60.0,
        ).run()
        assert outcome.complete
        assert outcome.cached == 12 and outcome.computed == 0
        assert outcome.manifest_path.read_bytes() == serial.read_bytes()

    def test_cache_hits_and_queue_split_the_grid(self, tmp_path):
        """Points an earlier sweep answered resolve in the dispatcher;
        only the rest reach the queue — together exactly the grid."""
        cache = tmp_path / "shared"
        clear_memo()  # memo hits are not written back to the disk cache
        assert scenarios_main(
            ["sweep", SCENARIO, "--serial", "--label", "half",
             "--cache-dir", str(cache)]
            + DEPLOY_ARGS[:-2] + ["--set", "seed=2011"]
        ) == 0
        clear_memo()
        specs = _specs()
        dispatcher = FleetDispatcher(specs, label="g", scenario=SCENARIO,
                                     cache_dir=cache, workers=0)
        dispatcher._prepare_dirs()
        assert dispatcher._seed_from_cache(ResultCache(cache)) == 6
        done = dispatcher.dirs.done_indices()
        queued = {t["index"] for t in dispatcher.dirs.queued_tasks()}
        assert not done & queued
        assert done | queued == set(range(len(specs)))
        assert {specs[i].seed for i in done} == {2011}
        assert {specs[i].seed for i in queued} == {2013}

    def test_new_grid_under_a_label_starts_clean(self, tmp_path):
        """Re-running a label over the same grid resumes its done
        records; over a different grid it is a new fleet, and the old
        records must not leak into it."""
        specs = _specs()

        def prepared(grid):
            dispatcher = FleetDispatcher(
                grid, label="g", scenario=SCENARIO, cache_dir=tmp_path,
                workers=0,
            )
            dispatcher._prepare_dirs()
            return dispatcher.dirs

        prepared(specs).mark_done({
            "index": 0, "name": specs[0].name,
            "spec_hash": specs[0].spec_hash(), "worker": "w0",
            "result": {},
        })
        assert prepared(specs).done_indices() == {0}
        dirs = prepared(specs[::-1])
        assert dirs.done_indices() == set()
        assert [p["spec_hash"] for p in dirs.read_grid()["points"]] \
            == [s.spec_hash() for s in specs[::-1]]

    def test_store_indexes_only_fleet_labels(self, tmp_path, capsys):
        """A serial sweep writes its manifest and cache entries but no
        store records; a fleet over the same cache indexes its own
        label, every point once."""
        cache = tmp_path / "shared"
        _serial_manifest(cache)
        assert ResultStore(cache).labels() == {}
        outcome = FleetDispatcher(
            _specs(), label="f", scenario=SCENARIO, cache_dir=cache,
            workers=0, wall_timeout=60.0,
        ).run()
        assert outcome.complete and outcome.cached == 12
        assert outcome.store_records == 12
        assert ResultStore(cache).labels() == {"f": 12}
        capsys.readouterr()
        assert fleet_main(["store", "--cache-dir", str(cache)]) == 0
        listing = capsys.readouterr().out.splitlines()
        assert listing[0].split() == ["f", "12", "pt"]
        assert listing[1].startswith("# 12 records at ")

    def test_rerun_resumes_from_done_records(self, tmp_path):
        cache = tmp_path / "fleet"
        specs = _specs()
        clear_memo()
        first = FleetDispatcher(
            specs, label="g", scenario=SCENARIO, cache_dir=cache,
            workers=2, heartbeat_interval=0.1, poll_interval=0.05,
            wall_timeout=120.0, spawn_env=_spawn_env(),
        ).run()
        assert first.complete
        again = FleetDispatcher(
            specs, label="g", scenario=SCENARIO, cache_dir=cache,
            workers=0, wall_timeout=60.0,
        ).run()
        assert again.complete and again.computed == 0
        assert again.manifest_path.read_bytes() \
            == first.manifest_path.read_bytes()
        # resume did not double-index the store
        assert len(ResultStore(cache)) == 12

    def test_finalize_compacts_a_history_heavy_store(self, tmp_path):
        """Once superseded records cross the threshold, finalize
        compacts — and a threshold of 1.0 never does."""
        cache = tmp_path / "shared"
        _serial_manifest(cache)
        specs = _specs()
        first = FleetDispatcher(
            specs, label="g", scenario=SCENARIO, cache_dir=cache,
            workers=0, wall_timeout=60.0,
        ).run()
        assert first.complete and first.compaction is None  # all live
        # shadow every record once (the double-index a reassignment
        # race leaves behind): half the index is now history
        store = ResultStore(cache)
        for record in list(store.entries()):
            _append_line(store, record)
        polluted = ResultStore(cache)
        assert polluted.superseded_fraction() == pytest.approx(0.5)
        # threshold 1.0: auto-compaction is off, history survives
        off = FleetDispatcher(
            specs, label="g", scenario=SCENARIO, cache_dir=cache,
            workers=0, wall_timeout=60.0, compact_threshold=1.0,
        ).run()
        assert off.complete and off.compaction is None
        assert ResultStore(cache).superseded_fraction() \
            == pytest.approx(0.5)
        # a threshold under the fraction: finalize rewrites the index
        outcome = FleetDispatcher(
            specs, label="g", scenario=SCENARIO, cache_dir=cache,
            workers=0, wall_timeout=60.0, compact_threshold=0.4,
        ).run()
        assert outcome.complete
        assert outcome.compaction is not None
        assert outcome.compaction["records_before"] == 24
        assert outcome.compaction["records_after"] == 12
        assert outcome.compaction["dropped"] == 12
        compacted = ResultStore(cache)
        assert compacted.superseded_fraction() == 0.0
        assert len(compacted.sweep_points("g")) == 12

    def test_compact_threshold_validated(self, tmp_path):
        from repro.fleet.dispatcher import FleetError

        with pytest.raises(FleetError, match="compact_threshold"):
            FleetDispatcher(
                _specs(), label="g", scenario=SCENARIO,
                cache_dir=tmp_path, compact_threshold=1.5,
            )


class TestFleetFaults:
    def test_sigkilled_worker_point_reassigned_exactly_once(
            self, tmp_path):
        """SIGKILL a worker mid-point: the dispatcher notices the dead
        process, requeues its claimed point once, a surviving worker
        computes it, and the sweep still lands byte-identical with no
        duplicate store writes."""
        serial = _serial_manifest(tmp_path / "serial")
        clear_memo()
        specs = _specs()
        victim = specs[5].spec_hash()
        dispatcher = FleetDispatcher(
            specs, label="g", scenario=SCENARIO,
            cache_dir=tmp_path / "fleet", workers=2,
            heartbeat_interval=0.1, poll_interval=0.05,
            backoff_base=0.05, wall_timeout=120.0,
            spawn_env=_spawn_env(
                REPRO_FLEET_FAULT=f"{victim[:16]}=hang"
            ),
        )
        box = {}

        def drive():
            box["outcome"] = dispatcher.run()

        thread = threading.Thread(target=drive)
        thread.start()
        try:
            # wait for a worker to claim the victim point (it hangs
            # there, heartbeating, simulating a wedged machine)
            claim = None
            deadline = time.monotonic() + 60.0
            while claim is None and time.monotonic() < deadline:
                for c in dispatcher.dirs.active_claims():
                    if c["spec_hash"] == victim:
                        claim = c
                time.sleep(0.02)
            assert claim is not None, "victim point never claimed"
            proc = dispatcher._procs[claim["worker"]]  # noqa: SLF001
            os.kill(proc.pid, signal.SIGKILL)
            while proc.poll() is None:
                time.sleep(0.02)
            # only now disarm: the requeued point must compute cleanly
            (dispatcher.dirs.root / "fault-disarmed").write_text("")
        finally:
            thread.join(timeout=120.0)
        assert not thread.is_alive()
        outcome = box["outcome"]
        assert outcome.complete
        assert outcome.reassignments == {5: 1}
        # exactly one done record per grid index, one store record per
        # point: the reassignment produced no duplicate writes
        done = dispatcher.dirs.done_records()
        assert sorted(done) == list(range(12))
        assert len(ResultStore(tmp_path / "fleet")) == 12
        assert outcome.manifest_path.read_bytes() == serial.read_bytes()

    def test_poison_point_quarantined_after_retry_budget(self, tmp_path):
        """A point that crashes every worker that touches it burns its
        retry budget (with monotone backoff), lands in poison/, and the
        rest of the grid still completes — reported, never retried
        forever."""
        clear_memo()
        specs = _specs()
        victim = specs[3].spec_hash()
        outcome = FleetDispatcher(
            specs, label="g", scenario=SCENARIO,
            cache_dir=tmp_path / "fleet", workers=1,
            heartbeat_interval=0.1, poll_interval=0.05,
            max_retries=2, backoff_base=0.05, wall_timeout=120.0,
            spawn_env=_spawn_env(
                REPRO_FLEET_FAULT=f"{victim[:16]}=exit"
            ),
        ).run()
        assert not outcome.complete
        assert sorted(outcome.poisoned) == [3]
        assert len(outcome.points) == 11
        record = outcome.poisoned[3]
        assert record["spec_hash"] == victim
        history = record["attempts"]
        assert [h["attempt"] for h in history] == [2, 3]
        # monotone backoff timestamps: attempts in order, each waiting
        # strictly longer than the last
        ats = [h["at"] for h in history]
        assert ats == sorted(ats)
        gaps = [h["not_before"] - h["at"] for h in history]
        assert gaps[1] > gaps[0] > 0
        # the manifest is partial — and compare refuses it, same as a
        # killed sweep's
        payload = json.loads(outcome.manifest_path.read_text())
        assert payload["partial"] is True
        assert scenarios_main(
            ["compare", "g", "g", "--cache-dir",
             str(tmp_path / "fleet")]
        ) == 2


# -- the fleet CLI ------------------------------------------------------------

class TestFleetCli:
    def test_run_rejects_path_labels(self, tmp_path, capsys):
        assert fleet_main(
            ["run", SCENARIO, "--label", "../evil",
             "--cache-dir", str(tmp_path)]
        ) == 2
        assert "plain file name" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [".", "..", "a/b"])
    def test_run_rejects_non_file_labels(self, tmp_path, capsys, label):
        """`fleet run` applies the sweep CLI's label check before any
        fleet directory exists."""
        assert fleet_main(
            ["run", SCENARIO, "--label", label,
             "--cache-dir", str(tmp_path)]
        ) == 2
        assert "plain file name" in capsys.readouterr().err
        assert not (tmp_path / "fleet").exists()

    def test_backfill_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            fleet_main(["backfill"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_run_rejects_unknown_scenario(self, tmp_path, capsys):
        assert fleet_main(
            ["run", "no-such", "--cache-dir", str(tmp_path)]
        ) == 2

    def test_store_empty_listing(self, tmp_path, capsys):
        assert fleet_main(["store", "--cache-dir", str(tmp_path)]) == 0
        assert "store is empty" in capsys.readouterr().out

    def test_store_compact_reports_the_rewrite(self, tmp_path, capsys):
        spec, result = _probe_result()
        ResultStore(tmp_path).record(spec, result, "a", SCENARIO)
        assert fleet_main(["store", "compact",
                           "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "store compacted: 1 -> 1 records" in out
        assert "generation 1" in out

    def test_stats_unknown_label(self, tmp_path, capsys):
        assert fleet_main(["stats", "nope",
                           "--cache-dir", str(tmp_path)]) == 2
        assert "no fleet directory" in capsys.readouterr().err

    def test_stats_lists_workers_and_stragglers(self, tmp_path, capsys):
        dirs = FleetDirs(tmp_path / "fleet" / "g").create()
        dirs.write_grid({"label": "g", "scenario": SCENARIO,
                         "n_points": 3})
        dirs.beat("fast", None, points_done=2,
                  telemetry={"points_per_min": 10.0})
        dirs.beat("slow", None, points_done=1,
                  telemetry={"points_per_min": 1.0})
        assert fleet_main(["stats", "g",
                           "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fleet 'g'" in out
        assert "fast" in out and "slow" in out
        assert "STRAGGLER" in out

    def test_compare_html_from_store(self, tmp_path):
        """The history-to-report path: two labels recorded in the
        store render the HTML regression report straight from the
        index — no manifest re-reads, regressions highlighted."""
        sweeps = tmp_path / "sweeps"
        sweeps.mkdir()
        _, result = _probe_result()
        store = ResultStore(tmp_path)
        for label, t in (("base", 1.0), ("slow", 2.0)):
            payload = _synthetic_manifest(result, label, t)
            (sweeps / f"{label}.json").write_text(json.dumps(payload))
            for point in payload["points"]:
                assert store.record_raw(dict(point, label=label,
                                             scenario=SCENARIO))
        assert store.labels() == {"base": 3, "slow": 3}
        # the manifests are redundant: compare reads the store
        (sweeps / "base.json").unlink()
        (sweeps / "slow.json").unlink()
        out = tmp_path / "report.html"
        assert fleet_main(
            ["compare", "base", "slow", "--cache-dir", str(tmp_path),
             "--html", str(out)]
        ) == 0
        html = out.read_text()
        assert "<!DOCTYPE html>" in html
        assert 'class="regression"' in html  # every row doubled
        assert "base" in html and "slow" in html

    def test_compare_markdown_falls_back_to_manifests(self, tmp_path,
                                                      capsys):
        _serial_manifest(tmp_path)
        assert fleet_main(
            ["compare", "g", "g", "--cache-dir", str(tmp_path),
             "--over", "seed"]
        ) == 0
        out = capsys.readouterr().out
        assert "Sweep comparison" in out

    def test_compare_reads_the_store_before_manifests(self, tmp_path):
        """A stored label compares from the store even when a stale
        manifest of the same label sits in sweeps/; a label only a
        serial sweep recorded compares from its manifest."""
        _, result = _probe_result()
        store = ResultStore(tmp_path)
        for point in _synthetic_manifest(result, "fleet", 1.0)["points"]:
            assert store.record_raw(dict(point, label="fleet",
                                         scenario=SCENARIO))
        sweeps = tmp_path / "sweeps"
        sweeps.mkdir()
        for label, t in (("fleet", 5.0), ("serial", 2.0)):
            (sweeps / f"{label}.json").write_text(
                json.dumps(_synthetic_manifest(result, label, t)))
        out = tmp_path / "diff.json"
        assert fleet_main(
            ["compare", "fleet", "serial", "--cache-dir", str(tmp_path),
             "--format", "json", "--out", str(out)]
        ) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [row["ratio"] for row in rows] == pytest.approx([2.0] * 3)

    def test_compare_unknown_label_is_usage_error(self, tmp_path, capsys):
        assert fleet_main(["compare", "nope", "nope",
                           "--cache-dir", str(tmp_path)]) == 2
        assert "no sweep manifest" in capsys.readouterr().err


# -- the compare body both CLIs share ----------------------------------------

CLIS = {"scenarios": scenarios_main, "fleet": fleet_main}


class TestSharedCompare:
    """`repro.scenarios compare` and `repro.fleet compare` run one
    compare body: over the same manifests they write the same bytes
    and fail the same way."""

    @pytest.mark.parametrize("fmt", ["markdown", "json"])
    def test_both_clis_write_the_same_report(self, tmp_path, fmt):
        _serial_manifest(tmp_path)
        reports = []
        for name, cli in CLIS.items():
            out = tmp_path / f"{name}.{fmt}"
            assert cli(
                ["compare", "g", "g", "--cache-dir", str(tmp_path),
                 "--over", "seed", "--percentiles", "50,99",
                 "--format", fmt, "--out", str(out)]
            ) == 0
            reports.append(out.read_text())
        assert reports[0] == reports[1]
        if fmt == "json":
            assert json.loads(reports[0])["percentiles"] == [50.0, 99.0]
        else:
            assert "P99 A" in reports[0]

    @pytest.mark.parametrize("cli", sorted(CLIS))
    def test_bad_percentiles_are_usage_errors(self, tmp_path, capsys, cli):
        _serial_manifest(tmp_path)
        capsys.readouterr()
        argv = ["compare", "g", "g", "--cache-dir", str(tmp_path)]
        assert CLIS[cli](argv + ["--percentiles", "50,x"]) == 2
        assert "comma-separated numbers" in capsys.readouterr().err
        assert CLIS[cli](argv + ["--percentiles", "150"]) == 2
        assert "percentile must be in [0, 100]" in capsys.readouterr().err

    @pytest.mark.parametrize("cli", sorted(CLIS))
    def test_unknown_over_axis_is_usage_error(self, tmp_path, capsys, cli):
        _serial_manifest(tmp_path)
        capsys.readouterr()
        assert CLIS[cli](["compare", "g", "g", "--cache-dir",
                          str(tmp_path), "--over", "nope"]) == 2
        assert "--over axis 'nope'" in capsys.readouterr().err
