"""The warm query engine behind the daemon.

:class:`QueryEngine` is the serving tier's in-process core: it opens
every durable store **once, at startup** — the scenario
:class:`~repro.scenarios.runner.ResultCache`, the on-disk
:class:`AnswerCache` tier, and the persistent dPerf trace cache — and
then answers queries through a three-level resolution:

1. **LRU answer memo** (in-memory, lock-guarded): the hot path.  A hit
   touches no file, opens nothing, runs nothing — pinned via the
   engine's counters, not asserted in prose.
2. **On-disk answer tier** (:class:`AnswerCache`, one JSON file per
   query hash): survives restarts, so a killed daemon re-answers its
   whole history without re-simulating anything.
3. **Compute**: the seed pool's reference scenarios, each resolved
   through the scenario memo → result cache → simulation, every level
   counted.

Cold computes are serialized behind one lock: the scenario runner's
shared per-process state (deployment templates, route-intern stores)
is written during a run, and two interleaved simulations must never
share it.  Hot hits never take that lock, which is where the
memoized-vs-cold throughput ratio comes from.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from pathlib import Path
from threading import Lock, RLock
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..p2pdc import GroupPricer
from ..scenarios import workloads
from ..scenarios.runner import (
    JsonCache,
    ResultCache,
    memo_get,
    memo_put,
    run_scenario,
)
from ..scenarios.spec import PlatformPlan, WorkloadPlan
from .query import Answer, QuerySpec, compute_answer

#: Default capacity of the in-memory answer memo.
DEFAULT_MEMO_CAPACITY = 4096


class ComputeAbandoned(RuntimeError):
    """A compute noticed its request's deadline had already expired.

    The cooperative-cancellation signal: the daemon replies
    ``timeout`` the moment ``future.result(timeout=...)`` expires, but
    the worker thread it abandoned used to keep simulating the whole
    seed pool *while holding the compute lock* — a stampede of
    timed-out queries could wedge every later request behind work
    nobody was waiting for.  The engine now consults the request's
    deadline at every cheap boundary (before taking the compute lock,
    after acquiring it, and between seed-pool members) and raises this
    instead of continuing, bounding the stale window to one scenario
    run.  Each abandonment bumps the ``stale_computes`` counter.
    """


class ServeStats:
    """Thread-safe monotonic counters (the daemon's observability).

    Every counter is bumped under one lock and read out via
    :meth:`snapshot`; the concurrency harness pins cache behaviour on
    these numbers (e.g. "repeats add ``memo_hits`` and nothing else").
    """

    def __init__(self) -> None:
        self._lock = Lock()
        self._counters: Dict[str, int] = {}

    def bump(self, name: str, by: int = 1) -> None:
        """Increment ``name`` by ``by``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """A sorted copy of every counter."""
        with self._lock:
            return dict(sorted(self._counters.items()))


class AnswerCache(JsonCache):
    """On-disk answer tier: one ``<query-hash>.json`` per answer.

    The restart-recovery memo.  Each entry stores the full query hash
    payload alongside the answer, so a hash collision or a stale
    schema reads as a miss — the same contract as
    :class:`~repro.scenarios.runner.ResultCache`, inherited from the
    same :class:`~repro.scenarios.runner.JsonCache` substrate
    (atomic writes, torn-entry-as-miss, counted I/O).
    """

    def get(self, query: QuerySpec) -> Optional[Answer]:
        """The cached answer for ``query``, or None."""
        payload = self.load(query.query_hash())
        if payload is None or payload.get("query") != query.hash_payload():
            return None
        return Answer.from_dict(payload["answer"])

    def put(self, query: QuerySpec, answer: Answer) -> None:
        """Store ``answer`` under ``query``'s hash (atomic write)."""
        self.store(query.query_hash(),
                   {"query": query.hash_payload(),
                    "answer": answer.to_dict()})


class QueryEngine:
    """Warm state + three-level answer resolution (see module doc).

    Parameters
    ----------
    cache_dir:
        Root of the durable tiers: scenario results at the top level
        (shared with ``python -m repro.scenarios`` sweeps — the
        "query the grid you just swept" path), answers under
        ``answers/``, dPerf traces under ``traces/``.  ``None`` runs
        memory-only (no restart recovery).
    memo_capacity:
        LRU answer-memo size; evicted answers fall back to the disk
        tier, never to recomputation.
    """

    def __init__(
        self,
        cache_dir: Optional[Path | str] = None,
        memo_capacity: int = DEFAULT_MEMO_CAPACITY,
    ) -> None:
        if memo_capacity < 1:
            raise ValueError(f"memo_capacity must be >= 1, "
                             f"got {memo_capacity!r}")
        self.stats = ServeStats()
        # every durable store is opened here, once: the per-query cold
        # path below never constructs a cache or re-points the trace
        # directory (the hoist the syscall-free hot-path test pins)
        if cache_dir is not None:
            from ..fleet.store import ResultStore

            root = Path(cache_dir)
            self.result_cache: Optional[ResultCache] = ResultCache(root)
            self.answer_cache: Optional[AnswerCache] = AnswerCache(
                root / "answers"
            )
            # the consolidated cross-sweep index: results computed by
            # any fleet resolve here without re-simulating
            self.result_store: Optional[ResultStore] = ResultStore(root)
            workloads.set_trace_cache_dir(root / "traces")
        else:
            self.result_cache = None
            self.answer_cache = None
            self.result_store = None
        self.memo_capacity = memo_capacity
        self._memo: "OrderedDict[str, Answer]" = OrderedDict()
        self._memo_lock = RLock()
        self._compute_lock = Lock()
        self._pricer = GroupPricer()

    # -- startup warm-up ----------------------------------------------------
    def preload_answers(self) -> int:
        """Load every on-disk answer into the LRU memo (startup only).

        Entries are content-addressed (file stem == query hash), so
        trusting them is exactly as safe as trusting a per-query disk
        read.  Returns the number of answers preloaded.
        """
        if self.answer_cache is None:
            return 0
        loaded = 0
        for path in sorted(self.answer_cache.root.glob("*.json")):
            payload = self.answer_cache.load(path.stem)
            if payload is None or "answer" not in payload:
                continue  # torn or foreign file: ignore, don't serve it
            self._memo_insert(path.stem, Answer.from_dict(payload["answer"]))
            loaded += 1
        self.stats.bump("preloaded_answers", loaded)
        return loaded

    def warm_pool(self, query: QuerySpec) -> None:
        """Pay a query's one-time costs (platform build, dPerf traces)
        without answering it — the daemon-startup warm-up hook."""
        from ..scenarios import platforms

        platforms.build_platform(query.platform)
        w = query.workload
        workloads.traces(w.app, query.n_peers, w.level, w.n, w.nit)

    # -- the answer path ----------------------------------------------------
    def _check_deadline(self, deadline: Optional[float]) -> None:
        """Raise :class:`ComputeAbandoned` (and count it) when the
        request's deadline has already passed — nobody is waiting for
        this answer any more."""
        if deadline is not None and time.monotonic() >= deadline:
            self.stats.bump("stale_computes")
            raise ComputeAbandoned(
                "request deadline expired; compute abandoned"
            )

    def answer(self, query: QuerySpec,
               deadline: Optional[float] = None) -> Answer:
        """Answer one query (memo → disk tier → compute).

        ``deadline`` is a ``time.monotonic()`` instant after which the
        caller has stopped waiting (the daemon's request timeout); an
        expired deadline abandons the compute with
        :class:`ComputeAbandoned` instead of holding the compute lock
        for an answer nobody will read.  Cache hits always answer —
        they're free.
        """
        self.stats.bump("queries")
        qh = query.query_hash()
        with self._memo_lock:
            hit = self._memo.get(qh)
            if hit is not None:
                self._memo.move_to_end(qh)
                self.stats.bump("memo_hits")
                return hit
        if self.answer_cache is not None:
            answer = self.answer_cache.get(query)
            if answer is not None:
                self.stats.bump("answer_disk_hits")
                self._memo_insert(qh, answer)
                return answer
        self._check_deadline(deadline)
        with self._compute_lock:
            # the deadline may have expired while we queued on the
            # lock behind another compute — bail before simulating
            self._check_deadline(deadline)
            # double-checked: a concurrent thread may have computed
            # this exact query while we waited on the lock
            with self._memo_lock:
                hit = self._memo.get(qh)
                if hit is not None:
                    self._memo.move_to_end(qh)
                    self.stats.bump("memo_hits")
                    return hit
            answer = self._compute(query, deadline)
        if self.answer_cache is not None:
            self.answer_cache.put(query, answer)
        self._memo_insert(qh, answer)
        return answer

    def batch(self, queries: Sequence[QuerySpec],
              deadline: Optional[float] = None) -> List[Answer]:
        """Answer a batch in order (amortizes warm state across it)."""
        return [self.answer(q, deadline) for q in queries]

    def _compute(self, query: QuerySpec,
                 deadline: Optional[float] = None) -> Answer:
        """Price the seed pool (each level of the scenario stack
        counted: memo probe free, disk probes counted by the caches,
        store probe bumps ``store_hits``, simulation bumps
        ``scenario_runs``).  The deadline is consulted between pool
        members: one scenario run is the staleness bound."""
        self.stats.bump("computed")
        results = []
        for spec in query.scenario_specs():
            self._check_deadline(deadline)
            key = spec.spec_hash()
            result = memo_get(key)
            if result is None and self.result_cache is not None:
                result = self.result_cache.get(spec)
                if result is not None:
                    self.stats.bump("result_disk_hits")
                    memo_put(key, result)
            if result is None and self.result_store is not None:
                result = self.result_store.get_result(key)
                if result is not None:
                    # promote the store hit into the faster tiers so
                    # the next probe never re-scans the index
                    self.stats.bump("store_hits")
                    memo_put(key, result)
                    if self.result_cache is not None:
                        self.result_cache.put(spec, result)
            if result is None:
                self.stats.bump("scenario_runs")
                result = run_scenario(spec)
                memo_put(key, result)
                if self.result_cache is not None:
                    self.result_cache.put(spec, result)
            results.append(result)
        return compute_answer(query, results)

    def _memo_insert(self, qh: str, answer: Answer) -> None:
        with self._memo_lock:
            self._memo[qh] = answer
            self._memo.move_to_end(qh)
            while len(self._memo) > self.memo_capacity:
                self._memo.popitem(last=False)
                self.stats.bump("memo_evictions")

    # -- batch pricing (the analytic fast path) -----------------------------
    def price_batch(
        self,
        platform: PlatformPlan,
        pool: int,
        n_peers: int,
        workload_plans: Sequence[WorkloadPlan],
    ) -> List[Dict[str, Any]]:
        """Analytic makespan pricing of many workloads on one platform.

        No simulation: the pool is the platform's ``pool`` fastest
        hosts (speed-descending, name tie-break — the single-member
        makespan order under the max model, so the windowed
        enumeration fallback stays optimal), and each workload is
        priced over the candidate groups via the shared
        :class:`~repro.p2pdc.prediction.GroupPricer`, which enumerates
        the groups once for the whole batch.
        """
        from ..scenarios import platforms

        if pool < n_peers:
            raise ValueError(
                f"pricing pool ({pool}) must be >= n_peers ({n_peers})"
            )
        spec = platforms.build_platform(platform)
        if pool > len(spec.hosts):
            raise ValueError(
                f"pricing pool ({pool}) exceeds platform size "
                f"({len(spec.hosts)})"
            )
        hosts = sorted(spec.hosts, key=lambda h: (-h.speed, h.name))[:pool]
        members = tuple((h.name, h.speed) for h in hosts)
        priced = []
        for plan in workload_plans:
            workload = workloads.make_workload(plan, n_peers)
            group, makespan = self._pricer.best_group(
                workload, members, n_peers
            )
            self.stats.bump("priced")
            priced.append({
                "workload": workload.name,
                "members": [name for name, _speed in group],
                "makespan": makespan,
            })
        return priced

    # -- observability ------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Engine counters plus the durable tiers' I/O counters."""
        snap = self.stats.snapshot()
        snap["memo_size"] = len(self._memo)
        snap["pricer_enumerations"] = self._pricer.enumerations
        if self.result_cache is not None:
            snap["result_cache_disk_reads"] = self.result_cache.disk_reads
            snap["result_cache_disk_writes"] = self.result_cache.disk_writes
            snap["result_cache_read_errors"] = \
                self.result_cache.cache_read_errors
        if self.answer_cache is not None:
            snap["answer_cache_disk_reads"] = self.answer_cache.disk_reads
            snap["answer_cache_disk_writes"] = self.answer_cache.disk_writes
            snap["answer_cache_read_errors"] = \
                self.answer_cache.cache_read_errors
        if self.result_store is not None:
            snap["store_sidecar_rebuilds"] = \
                self.result_store.sidecar_rebuilds
            snap["store_sidecar_tail_refreshes"] = \
                self.result_store.sidecar_tail_refreshes
            snap["store_sidecar_persists"] = \
                self.result_store.sidecar_persists
        return snap

    def disk_io(self) -> int:
        """Total on-disk cache touches — the syscall-free-hot-path pin."""
        total = 0
        for cache in (self.result_cache, self.answer_cache):
            if cache is not None:
                total += cache.disk_reads + cache.disk_writes
        return total
