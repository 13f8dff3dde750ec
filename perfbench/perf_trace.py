"""Spans and counters around calls into each ``src/repro`` layer.

The traced run wraps public functions of the program from here, the
benchmark's own files: the program itself carries no tracing code.
Every wrapped call records a span ``(id, name, start, end, parent,
request, thread)`` in memory; the spans are written out once, when
the run ends.  Counters are read at the same boundaries, from the
objects the program already keeps (``Simulator.event_count``,
``ChannelStats``, ``OverlayStats``, ...), so ratios are measured
where the work happens.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans.
"""

from __future__ import annotations

import collections
import functools
import gzip
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional

import perf_stats


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    req: int
    tid: int


class _ThreadState:
    """One thread's open-span stack, finished spans, counters and the
    program objects whose counters are read at the next flush."""

    __slots__ = ("spans", "stack", "counts", "live", "req", "tid")

    def __init__(self, tid: int) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.live: List[tuple] = []
        self.req = -1
        self.tid = tid


class Tracer:
    """In-memory span and counter recorder (lock-free per thread)."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._foreign: List[Span] = []
        self._foreign_counts: collections.Counter = collections.Counter()
        self._absorbed = 0

    def state(self) -> _ThreadState:
        """The calling thread's state (created on first use)."""
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(st)
            self._local.st = st
        return st

    def set_request(self, req: int) -> None:
        """Tag the calling thread's next spans with request id ``req``."""
        self.state().req = req

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span named ``name`` per call.

        ``before(st, args)`` runs ahead of the span and its return
        value reaches ``after(st, args, result, token)``, which runs
        once the span is closed (``result`` is None when ``fn``
        raised)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            st = tracer.state()
            token = before(st, args) if before is not None else None
            sid = next(tracer._ids)
            parent = st.stack[-1] if st.stack else 0
            st.stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                st.stack.pop()
                st.spans.append(Span(sid, name, start, end, parent,
                                     st.req, st.tid))
                if after is not None:
                    after(st, args, result, token)

        return traced

    def hook(self, fn: Callable, after: Callable) -> Callable:
        """``fn`` calling ``after(st, args, result)`` per call, no span
        (for calls too frequent or too short to be worth one)."""
        tracer = self

        @functools.wraps(fn)
        def hooked(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            after(tracer.state(), args, result)
            return result

        return hooked

    # -- read-out -----------------------------------------------------------
    def flush_all(self) -> None:
        """Read the counters of every object still awaiting a flush."""
        for st in list(self._threads):
            flush(st)

    def spans(self) -> List[Span]:
        out = list(self._foreign)
        for st in list(self._threads):
            out.extend(st.spans)
        out.sort(key=lambda s: s.id)
        return out

    def counts(self) -> collections.Counter:
        total = collections.Counter(self._foreign_counts)
        for st in list(self._threads):
            total.update(st.counts)
        return total

    def payload(self) -> Dict[str, Any]:
        """Plain-data form, for handing spans across processes."""
        self.flush_all()
        return {"spans": [list(s) for s in self.spans()],
                "counts": dict(self.counts())}

    def absorb(self, payload: Dict[str, Any]) -> None:
        """Merge another process's :meth:`payload`, renumbering its
        span and request ids into a range of their own."""
        self._absorbed += 1
        offset = self._absorbed * 10 ** 12
        for raw in payload["spans"]:
            sid, name, start, end, parent, req, tid = raw
            self._foreign.append(Span(sid + offset, name, start, end,
                                      parent + offset if parent else 0,
                                      req + offset if req >= 0 else req,
                                      tid))
        self._foreign_counts.update(payload["counts"])

    def save(self, path: str) -> int:
        """Write every span as one JSON line (gzip); returns the count."""
        spans = self.spans()
        with gzip.open(path, "wt") as fh:
            for s in spans:
                fh.write(json.dumps(s._asdict()) + "\n")
        return len(spans)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's
    intervals (each clipped to the parent's own interval)."""
    spans = list(spans)
    children: Dict[int, List[tuple]] = collections.defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = (s.end - s.start) - covered
    return out


def outermost(spans: Iterable[Span], name: str) -> List[Span]:
    """Spans named ``name`` with no ancestor of the same name."""
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# the program's layers
# ---------------------------------------------------------------------------

def flush(st: _ThreadState) -> None:
    """Add the counters of the objects a thread created since its last
    flush, then let them go (they are read once their run is over)."""
    counts = st.counts
    for kind, obj in st.live:
        if kind == "net":
            counts["net.reshares"] += obj.reshare_count
        elif kind == "channel":
            counts["p2psap.messages"] += obj.stats.messages_sent
            counts["p2psap.bytes"] += obj.stats.bytes_sent
        elif kind == "deployment":
            stats = obj.overlay.stats
            counts["p2pdc.control_messages"] += stats.control_messages
            counts["p2pdc.control_bytes"] += stats.control_bytes
            counts["p2pdc.reliable_retries"] += \
                stats.counters.get("reliable_retries", 0)
    st.live.clear()


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layer boundaries of ``repro``; returns the undo."""
    import repro.dperf.predictor as dperf_predictor
    import repro.net.engine as net_engine
    import repro.p2pdc as p2pdc
    import repro.p2pdc.deploy as p2pdc_deploy
    import repro.scenarios.cli as scenarios_cli
    import repro.scenarios.runner as runner
    import repro.serve.daemon as serve_daemon
    import repro.serve.engine as serve_engine
    from repro.desim.simulator import Simulator
    from repro.fleet.store import ResultStore
    from repro.p2psap.channel import Channel, ChannelEndpoint

    undo: List[tuple] = []

    def patch(owners: Iterable[Any], attr: str, make: Callable) -> None:
        owners = list(owners)
        wrapped = make(getattr(owners[0], attr))
        for owner in owners:
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def register(kind: str, pick: Callable) -> Callable:
        def after(st, args, result, *_token):
            obj = pick(args, result)
            if obj is not None:
                st.live.append((kind, obj))
        return after

    def count(key: str, amount: Callable) -> Callable:
        def after(st, args, result, *_token):
            if result is not None:
                st.counts[key] += amount(result)
        return after

    def flush_after(st, _args, _result, _token) -> None:
        flush(st)

    # desim: the event loop
    def events_before(_st, args):
        return args[0].event_count

    def events_after(st, args, _result, before):
        st.counts["desim.events"] += args[0].event_count - before

    for attr in ("run", "run_until_triggered"):
        patch([Simulator], attr, lambda fn: tracer.wrap(
            fn, "desim.run", after=events_after, before=events_before))

    # net: the fluid engine and its solver
    patch([net_engine.FluidNetwork], "__init__", lambda fn: tracer.hook(
        fn, register("net", lambda args, _r: args[0])))

    def sends_after(st, _args, _result):
        st.counts["net.sends"] += 1

    patch([net_engine.FluidNetwork], "send",
          lambda fn: tracer.hook(fn, sends_after))
    patch([net_engine], "progressive_fill",
          lambda fn: tracer.wrap(fn, "net.solver"))

    # p2psap: channels
    patch([Channel], "__init__", lambda fn: tracer.hook(
        fn, register("channel", lambda args, _r: args[0])))
    patch([ChannelEndpoint], "send",
          lambda fn: tracer.wrap(fn, "p2psap.send"))

    # p2pdc: overlay deployment (its counters are read at the flush)
    patch([p2pdc, p2pdc_deploy], "deploy_overlay", lambda fn: tracer.wrap(
        fn, "p2pdc.deploy", after=register("deployment", lambda _a, r: r)))

    # scenarios: one point, the result cache, the manifests
    patch([runner, serve_engine], "run_scenario", lambda fn: tracer.wrap(
        fn, "scenarios.point", after=flush_after))
    patch([runner.ResultCache], "put",
          lambda fn: tracer.wrap(fn, "scenarios.cache_put"))
    patch([scenarios_cli], "_dump_manifest",
          lambda fn: tracer.wrap(fn, "scenarios.manifest"))

    # dperf: calibration (the mini-C interpreter) and trace synthesis
    patch([dperf_predictor.DPerfPredictor], "execute", lambda fn: tracer.wrap(
        fn, "dperf.calibration", after=count(
            "dperf.block_execs",
            lambda runs: sum(sum(r.block_exec_counts.values())
                             for r in runs))))
    patch([dperf_predictor.DPerfPredictor], "traces_for",
          lambda fn: tracer.wrap(fn, "dperf.synthesis", after=count(
              "dperf.trace_events",
              lambda traces: sum(len(t.events) for t in traces))))

    # simx: trace replay, as the predictor binds it
    replayed = count("simx.events_replayed", lambda r: r.events_replayed)

    def replay_after(st, args, result, token):
        replayed(st, args, result, token)
        flush(st)

    patch([dperf_predictor], "replay_traces", lambda fn: tracer.wrap(
        fn, "simx.replay", after=replay_after))

    # serve: one request per dispatch, the engine's tiers
    request_ids = itertools.count(1)

    def new_request(st, _args):
        st.req = next(request_ids)

    patch([serve_daemon.ServeDaemon], "_dispatch", lambda fn: tracer.wrap(
        fn, "serve.dispatch", before=new_request))
    patch([serve_engine.QueryEngine], "answer",
          lambda fn: tracer.wrap(fn, "serve.answer"))
    patch([serve_engine.QueryEngine], "_compute",
          lambda fn: tracer.wrap(fn, "serve.compute"))
    patch([serve_engine.QueryEngine], "preload_answers",
          lambda fn: tracer.wrap(fn, "serve.preload"))
    patch([serve_engine.AnswerCache], "put",
          lambda fn: tracer.wrap(fn, "serve.answer_put"))

    # fleet: the consolidated store, as the serve cold path probes it
    patch([ResultStore], "get_result",
          lambda fn: tracer.wrap(fn, "fleet.store_get"))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: name -> unit, in the order they are printed.
LAYER_UNITS = {
    "desim.events": "count",
    "desim.run_s": "s",
    "desim.self_s": "s",
    "desim.events_per_s": "1/s",
    "net.sends": "count",
    "net.reshares": "count",
    "net.solver_calls": "count",
    "net.solver_s": "s",
    "net.solver_calls_per_reshare": "ratio",
    "p2psap.messages": "count",
    "p2psap.bytes": "B",
    "p2psap.send_s": "s",
    "p2pdc.deploy_s": "s",
    "p2pdc.control_messages": "count",
    "p2pdc.control_bytes": "B",
    "p2pdc.reliable_retries": "count",
    "scenarios.point_s": "s",
    "scenarios.cache_put_s": "s",
    "scenarios.manifest_s": "s",
    "scenarios.cache_bytes": "B",
    "dperf.calibration_s": "s",
    "dperf.block_execs": "count",
    "dperf.block_execs_per_s": "1/s",
    "dperf.synthesis_s": "s",
    "dperf.trace_events": "count",
    "simx.replay_s": "s",
    "simx.events_replayed": "count",
    "serve.answer_memo_ms": "ms",
    "serve.answer_compute_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.answer_put_ms": "ms",
    "serve.preload_s": "s",
    "serve.memo_hits": "count",
    "serve.scenario_runs": "count",
    "serve.disk_writes": "count",
    "fleet.store_lookups": "count",
    "fleet.store_get_ms": "ms",
    "trace.overhead_pct": "%",
}


def layer_metrics(spans: List[Span], counts: collections.Counter,
                  per: int, extra: Dict[str, float]) -> Dict[str, float]:
    """Every metric in :data:`LAYER_UNITS` from one traced run.

    Totals (times and counts) are divided by ``per``, the number of
    passes the run made, so they read per pass of the workload; a
    metric whose layer did no work reads 0.  ``extra`` supplies what
    the workload measures itself (client latency, the daemon's
    ``stats``, bytes on disk, the tracing overhead)."""
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = collections.defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name: str) -> float:
        return sum(s.end - s.start for s in outermost(spans, name)) / per

    def median(durations: List[float], scale: float = 1.0) -> float:
        return perf_stats.percentile(durations, 50.0) * scale \
            if durations else 0.0

    def durations(name: str) -> List[float]:
        return [s.end - s.start for s in by_name.get(name, ())]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: Dict[str, float] = {}
    desim_runs = outermost(spans, "desim.run")
    m["desim.events"] = counts["desim.events"] / per
    m["desim.run_s"] = total("desim.run")
    m["desim.self_s"] = sum(selfs[s.id] for s in desim_runs) / per
    m["desim.events_per_s"] = ratio(m["desim.events"], m["desim.run_s"])
    m["net.sends"] = counts["net.sends"] / per
    m["net.reshares"] = counts["net.reshares"] / per
    m["net.solver_calls"] = len(by_name.get("net.solver", ())) / per
    m["net.solver_s"] = total("net.solver")
    m["net.solver_calls_per_reshare"] = ratio(m["net.solver_calls"],
                                              m["net.reshares"])
    m["p2psap.messages"] = counts["p2psap.messages"] / per
    m["p2psap.bytes"] = counts["p2psap.bytes"] / per
    m["p2psap.send_s"] = total("p2psap.send")
    m["p2pdc.deploy_s"] = total("p2pdc.deploy")
    m["p2pdc.control_messages"] = counts["p2pdc.control_messages"] / per
    m["p2pdc.control_bytes"] = counts["p2pdc.control_bytes"] / per
    m["p2pdc.reliable_retries"] = counts["p2pdc.reliable_retries"] / per
    m["scenarios.point_s"] = median(durations("scenarios.point"))
    m["scenarios.cache_put_s"] = total("scenarios.cache_put")
    m["scenarios.manifest_s"] = total("scenarios.manifest")
    m["dperf.calibration_s"] = total("dperf.calibration")
    m["dperf.block_execs"] = counts["dperf.block_execs"] / per
    m["dperf.block_execs_per_s"] = ratio(m["dperf.block_execs"],
                                         m["dperf.calibration_s"])
    m["dperf.synthesis_s"] = total("dperf.synthesis")
    m["dperf.trace_events"] = counts["dperf.trace_events"] / per
    m["simx.replay_s"] = total("simx.replay")
    m["simx.events_replayed"] = counts["simx.events_replayed"] / per
    computing = {s.parent for s in by_name.get("serve.compute", ())}
    answers = by_name.get("serve.answer", ())
    m["serve.answer_memo_ms"] = median(
        [s.end - s.start for s in answers if s.id not in computing], 1e3)
    m["serve.answer_compute_ms"] = median(
        [s.end - s.start for s in answers if s.id in computing], 1e3)
    m["serve.answer_put_ms"] = median(durations("serve.answer_put"), 1e3)
    m["serve.preload_s"] = median(durations("serve.preload"))
    m["fleet.store_lookups"] = len(by_name.get("fleet.store_get", ())) / per
    m["fleet.store_get_ms"] = median(durations("fleet.store_get"), 1e3)
    # client latency of a memo hit minus the engine's time for one
    m["serve.wire_ms"] = (extra["client_memo_ms"] - m["serve.answer_memo_ms"]
                          if "client_memo_ms" in extra else 0.0)
    for key in ("serve.memo_hits", "serve.scenario_runs",
                "serve.disk_writes", "scenarios.cache_bytes",
                "trace.overhead_pct"):
        m[key] = float(extra.get(key, 0.0))
    return {name: m[name] for name in LAYER_UNITS}
