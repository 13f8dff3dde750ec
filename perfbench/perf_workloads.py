"""The three workloads, each a function ``(Ctx) -> None``.

Every workload fills the same end-to-end metrics (see ``README.md``
for how the names map onto each path) and checks the program's
outputs as it goes: each operation either passes its checks or
counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import perf_host
import perf_stats
import perf_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = json.loads((HERE / "pins.json").read_text())

#: The seed at which every pin in ``pins.json`` holds exactly.
DEFAULT_SEED = 0

#: In-process set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fresh-interpreter imports timed per run; the import part of
#: ``setup_s`` is their median.  Most of it is third-party modules
#: loading from disk, which spreads more than the set-ups do.
IMPORT_REPEATS = 7


class Ctx:
    """One workload run: its inputs, its samples and its verdicts."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.import_s = 0.0
        self.attempted = 0
        self.failures: List[str] = []
        self.samples: Dict[str, List[float]] = {}
        #: end-to-end metric name -> (value, unit)
        self.metrics: Dict[str, tuple] = {}
        #: lines printed ahead of the result, path-specific names
        self.report: List[str] = []
        self.layer_extra: Dict[str, float] = {}
        self.tracer: Optional[perf_trace.Tracer] = None
        #: probes of the host's speed; every reported timing is scaled
        #: by ``host.scale(phase)`` (see ``perf_host``)
        self.host = perf_host.HostClock()
        #: traced passes, the unit per-layer totals are divided by
        self.passes = 1
        self._requests = 0
        self.work = ROOT / ".perfbench" / "work" / f"{workload}-{os.getpid()}"

    # -- verdicts -----------------------------------------------------------
    def op(self, ok: bool, what: str = "") -> bool:
        """Count one operation; a failed check makes it a failure."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    def next_request(self) -> None:
        """Tag the spans that follow with a new request id (traced
        runs only)."""
        self._requests += 1
        if self.tracer is not None:
            self.tracer.set_request(self._requests)

    # -- samples ------------------------------------------------------------
    def time_imports(self, *modules: str) -> None:
        """Time importing ``modules`` in :data:`IMPORT_REPEATS` fresh
        interpreters (``import_s`` is the median), then import them
        here."""
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); "
                + "; ".join(f"import {m}" for m in modules)
                + "; print(time.perf_counter() - t)")
        times = []
        for _ in range(IMPORT_REPEATS):
            out = subprocess.run(
                [sys.executable, "-c", code, str(ROOT / "src")],
                capture_output=True, text=True, check=True, timeout=120)
            times.append(float(out.stdout.split()[-1]))
            self.host.tick("setup", force=True)
        self.import_s = perf_stats.percentile(times, 50)
        for module in modules:
            importlib.import_module(module)

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def fresh_dir(self, name: str) -> str:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return str(path)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def line(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.report.append(f"{name} = {value:.6g} {unit}"
                           + (f"  ({note})" if note else ""))

    def timing(self, name: str, key: str, scale: float, unit: str,
               tails: bool = True) -> Dict[str, float]:
        """Report a timing's median under ``name`` and each supported
        tail under ``name`` with ``p50`` replaced, each with its sample
        count; returns the summary."""
        s = perf_stats.summary(self.samples.get(key, []))
        n = s["n"]
        for label, value in s.items():
            if label == "n" or (label != "p50" and not tails):
                continue
            self.line(name.replace("p50", label), value * scale, unit,
                      f"n={n}")
        return s

    def peak_rss_mb(self) -> float:
        """Peak resident set of this process and its waited-for
        children (the serve daemon), whichever is larger."""
        peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return peak / 1024.0  # ru_maxrss is KiB on Linux


def run_passes(ctx: Ctx, one_pass: Callable[[int], None],
               min_passes: int = 1) -> List[float]:
    """Call ``one_pass(i)`` until the run has measured about
    ``ctx.seconds``: another pass starts only when it should end no
    more than half a pass past the budget, or while fewer than
    ``min_passes`` have run.  Returns pass durations."""
    durations: List[float] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        one_pass(len(durations))
        durations.append(time.perf_counter() - t)
        if (len(durations) >= min_passes and time.perf_counter() - start
                + 0.5 * durations[-1] >= ctx.seconds):
            return durations


def digest(parts: Sequence[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def dir_bytes(path: str) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# reference-sweep
# ---------------------------------------------------------------------------

GRIDS = ("churn-grid", "coordinator-grid", "partition-grid")

#: Re-sweeps served from the filled result cache, per cold pass.  One
#: takes a few tens of ms, and the host's speed dips in bursts of up to
#: a second, so the median needs a few seconds of them.
WARM_RESWEEPS = 100


def grid_sets(grid: str, offset: int) -> List[str]:
    """``--set`` arguments spelling out a registry grid, with its seed
    axis moved by ``offset`` (offset 0 is the registry's own grid, and
    its manifest is byte-identical to a plain ``sweep <grid>``)."""
    from repro.scenarios import get_scenario

    args: List[str] = []
    for path, values in get_scenario(grid).grid:
        if path == "seed":
            values = tuple(v + offset for v in values)
        args += ["--set", f"{path}={','.join(str(v) for v in values)}"]
    return args


def check_grid(ctx: Ctx, grid: str, observed: Dict[str, Any],
               pin: Optional[Dict[str, Any]]) -> bool:
    """One grid's output against its pin (``None`` off the default
    seed, where only the sweep's own exit status is checked)."""
    if observed["rc"] != 0:
        return ctx.op(False, f"{grid}: sweep exited {observed['rc']}")
    if pin is None:
        return ctx.op(True)
    wrong = {k: observed[k]
             for k in ("sim_events", "completed", "manifest_sha256")
             if observed[k] != pin[k]}
    return ctx.op(not wrong, f"{grid}: differs from its pin in {wrong}")


def reference_sweep(ctx: Ctx) -> None:
    ctx.time_imports("repro.scenarios.cli", "repro.scenarios.runner")
    import repro.scenarios.cli as scenarios_cli
    import repro.scenarios.runner as runner
    from repro.scenarios import get_scenario, workloads

    base = get_scenario(GRIDS[0]).base
    recipe = (base.workload.app, base.n_peers, base.workload.level,
              base.workload.n, base.workload.nit)

    def calibrate() -> None:
        """The one dPerf calibration recipe, from scratch."""
        workloads.set_trace_cache_dir(None)
        workloads.clear_caches()
        workloads.traces(*recipe)

    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        calibrate()
        ctx.sample("setup", time.perf_counter() - t)
        ctx.host.tick("setup", force=True)
    sets = {grid: grid_sets(grid, ctx.seed) for grid in GRIDS}
    pins = PINS["reference-sweep"] if ctx.seed == DEFAULT_SEED else None

    first: Dict[str, bytes] = {}

    def sweep(cache_dir: str) -> Dict[str, tuple]:
        runner.clear_memo()
        out = {}
        for grid in GRIDS:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = scenarios_cli.main(["sweep", grid, "--serial",
                                         "--cache-dir", cache_dir]
                                        + sets[grid])
            path = Path(cache_dir) / "sweeps" / f"{grid}.json"
            out[grid] = (rc, path.read_bytes() if path.is_file() else b"")
        return out

    def one_pass(i: int, timed: bool = True) -> None:
        if ctx.trace:
            # the set-up's calibration again, so that the traced passes
            # show the calibration cost ``setup_s`` carries
            calibrate()
        cache_dir = ctx.fresh_dir(f"pass{i}")
        run_point = runner.run_scenario  # the traced one, when tracing

        def timed_point(spec):
            ctx.next_request()
            t0 = time.perf_counter()
            result = run_point(spec)
            ctx.sample("point", time.perf_counter() - t0)
            ctx.op(result.ok, f"{result.name}: {result.reason}")
            ctx.host.tick("cold")
            return result

        runner.run_scenario = timed_point
        try:
            t0, probed = time.perf_counter(), ctx.host.spent
            cold = sweep(cache_dir)
            wall = time.perf_counter() - t0 - (ctx.host.spent - probed)
        finally:
            runner.run_scenario = run_point
        if timed:
            ctx.sample("sweep_wall", wall)
            ctx.sample("sweep_points", float(sum(
                len(json.loads(blob)["points"]) if blob else 0
                for _rc, blob in cold.values())))
            ctx.layer_extra["scenarios.cache_bytes"] = dir_bytes(cache_dir)
        for grid, (rc, blob) in cold.items():
            manifest = json.loads(blob) if blob else {"points": []}
            metrics = [p["result"]["metrics"] for p in manifest["points"]]
            observed = {
                "rc": rc,
                "sim_events": int(sum(m.get("sim_events", 0)
                                      for m in metrics)),
                "completed": int(sum(m.get("completed", 0)
                                     for m in metrics)),
                "manifest_sha256": hashlib.sha256(blob).hexdigest(),
            }
            if pins:
                pin = pins[grid]
            elif grid in first:
                # off the default seed, a repeated pass must reproduce
                # the first one byte for byte
                pin = dict(observed, manifest_sha256=hashlib.sha256(
                    first[grid]).hexdigest())
            else:
                pin = None
            first.setdefault(grid, blob)
            check_grid(ctx, grid, observed, pin)
        for _ in range(WARM_RESWEEPS):
            t0 = time.perf_counter()
            warm = sweep(cache_dir)
            if timed:
                ctx.sample("warm", time.perf_counter() - t0)
            ctx.host.tick("warm")
            for grid, (rc, blob) in warm.items():
                ctx.op(rc == 0 and blob == cold[grid][1],
                       f"{grid}: re-sweep from the result cache is not "
                       f"byte-identical to the cold sweep")
    _measure(ctx, one_pass)

    scale, warm_scale = ctx.host.scale("cold"), ctx.host.scale("warm")
    points = sum(ctx.samples["sweep_points"])
    throughput = points / (sum(ctx.samples["sweep_wall"]) * scale)
    ctx.metric("throughput_per_s", throughput, "1/s")
    ctx.line("sweep_points_per_s", throughput, "1/s",
             f"{int(points)} points in {len(ctx.samples['sweep_wall'])} "
             f"cold sweeps")
    ctx.metric("cold_p50_ms", perf_stats.percentile(
        ctx.samples["point"], 50) * 1e3 * scale, "ms")
    ctx.timing("sweep_point_p50_ms", "point", 1e3 * scale, "ms")
    ctx.metric("warm_p50_ms", perf_stats.percentile(
        ctx.samples["warm"], 50) * 1e3 * warm_scale, "ms")
    ctx.timing("resweep_from_cache_p50_ms", "warm", 1e3 * warm_scale, "ms")
    ctx.report.append("output_digest = " + digest(
        [hashlib.sha256(first[g]).hexdigest() for g in GRIDS]))


# ---------------------------------------------------------------------------
# predict-fig11
# ---------------------------------------------------------------------------

LEVELS = ("O0", "O1", "O2", "O3", "Os")


def check_prediction(ctx: Ctx, level: str, result: Any,
                     pins: Dict[str, float]) -> bool:
    """One prediction: it must succeed and reproduce its pinned
    ``t_predicted`` exactly."""
    return ctx.op(result.ok and result.t == pins[level],
                  f"{level}: t_predicted {result.t!r} != pin "
                  f"{pins[level]!r} (ok={result.ok})")


def predict_fig11(ctx: Ctx) -> None:
    ctx.time_imports("repro.scenarios.runner")
    import repro.scenarios.runner as runner
    from repro.scenarios import get_scenario, platforms, workloads

    spec = next(s for s in get_scenario("fig11-xdsl-o0").points()
                if s.n_peers == 16)
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        platforms.build_platform.cache_clear()
        platforms.build_platform(spec.platform)
        ctx.sample("setup", time.perf_counter() - t)
        ctx.host.tick("setup", force=True)
    pins = PINS["predict-fig11"]["t_predicted"]
    specs = {lvl: spec.with_override("workload.level", lvl)
             for lvl in LEVELS}
    outputs: List[str] = []

    def one_pass(_i: int, timed: bool = True) -> None:
        # cold: no in-process calibration caches, no trace disk cache
        workloads.set_trace_cache_dir(None)
        workloads.clear_caches()
        for level in LEVELS:
            ctx.next_request()
            t0 = time.perf_counter()
            result = runner.run_scenario(specs[level])
            elapsed = time.perf_counter() - t0
            kind = "cold" if level == LEVELS[0] else "warm"
            if timed:
                ctx.sample(kind, elapsed)
            check_prediction(ctx, level, result, pins)
            outputs.append(f"{level}={result.t!r}")
            ctx.host.tick(kind, force=True)

    if not ctx.trace:
        # one discarded cold prediction first (the traced run has its
        # own warm-up pass): the first in a process was slower than the
        # next, by an amount that varied from process to process
        workloads.set_trace_cache_dir(None)
        workloads.clear_caches()
        check_prediction(ctx, LEVELS[0], runner.run_scenario(
            specs[LEVELS[0]]), pins)
        ctx.host.tick("cold", force=True)
    # a pass makes one cold prediction; two give its median a second
    # sample even when the host is slow
    durations = _measure(ctx, one_pass, min_passes=2)
    # the probes right after a cold prediction follow its 16 rank
    # threads and read noisy, so cold timings are scaled by every
    # probe of the run (on six runs: spread 0.12, against 0.25 by the
    # cold probes alone and 0.15 unscaled)
    scale = ctx.host.scale()
    busy = sum(ctx.samples["cold"]) + sum(ctx.samples["warm"])
    throughput = len(LEVELS) * len(durations) / (busy * scale)
    ctx.metric("throughput_per_s", throughput, "1/s")
    ctx.line("predictions_per_s", throughput, "1/s",
             f"{len(durations)} passes of {len(LEVELS)} levels")
    ctx.metric("cold_p50_ms", perf_stats.percentile(
        ctx.samples["cold"], 50) * 1e3 * scale, "ms")
    ctx.timing("predict_cold_s", "cold", scale, "s", tails=False)
    ctx.metric("warm_p50_ms", perf_stats.percentile(
        ctx.samples["warm"], 50) * 1e3 * ctx.host.scale("warm"), "ms")
    ctx.timing("predict_warm_s", "warm", ctx.host.scale("warm"), "s",
               tails=False)
    ctx.report.append("output_digest = " + digest(outputs[:len(LEVELS)]))


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

#: Closed-loop clients (one connection each); at most ``nproc`` = 2.
CLIENTS = 2
#: Requests per client per second of ``--seconds``: the mix is a fixed
#: seeded schedule, so how many answers land on disk (and so what a
#: restart preloads) depends on the inputs only, never on speed.
REQUESTS_PER_CLIENT_SECOND = 120
#: Share of requests whose seed pool was never simulated.
COLD_SHARE = 0.06
#: Restarts timed after the mix.
RESTARTS = 30
#: Times the clients pause together during the mix, so that the host's
#: speed is probed while no query is in flight.
MIX_PAUSES = 40
#: Pool size: each cold query simulates this many scenarios.
POOL = 3
#: The warm-up query's seed base (pool seeds 0..POOL-1); schedule
#: pools start at POOL, so no cold query reuses a warm-up scenario.
WARMUP_BASE = 0


def query_payload(seed_base: int) -> Dict[str, Any]:
    """The ``heat`` n=64, cluster-8, pool=3 query of docs/serving.md."""
    return {
        "deadline": 2.0, "percentile": 99.0, "pool": POOL,
        "seed_base": seed_base, "n_peers": 2,
        "workload": {"app": "heat", "n": 64, "nit": 20, "level": "O1"},
        "platform": {"kind": "cluster", "n_hosts": 8},
    }


def serve_schedule(seed: int, clients: int,
                   per_client: int) -> List[List[int]]:
    """Each client's request sequence as seed bases.

    A seed base's first appearance is a cold query (its pool was never
    simulated); every later one repeats a query that client already
    had answered.  Exactly ``round(per_client * COLD_SHARE)`` requests
    per client are cold, the first one included, and no two cold
    queries share a pool seed."""
    rng = random.Random(f"serve-mixed:{seed}")
    n_cold = max(1, round(per_client * COLD_SHARE))
    blocks = rng.sample(range(1, 10 ** 6), n_cold * clients)
    schedules = []
    for c in range(clients):
        pools = iter(POOL * b for b in blocks[c * n_cold:(c + 1) * n_cold])
        cold_at = {0, *rng.sample(range(1, per_client), n_cold - 1)}
        answered: List[int] = []
        sequence = []
        for i in range(per_client):
            if i in cold_at:
                answered.append(next(pools))
                sequence.append(answered[-1])
            else:
                sequence.append(rng.choice(answered))
        schedules.append(sequence)
    return schedules


class Daemon:
    """A ``repro.serve`` daemon in its own process, on loopback."""

    def __init__(self, cache_dir: str, trace_out: Optional[str]) -> None:
        cmd = [sys.executable, str(HERE / "perf_daemon.py"),
               "--cache-dir", cache_dir]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 120.0)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("# serving on "):
            self.stop()
            raise RuntimeError(f"serve daemon did not start: {line!r}")
        self.address = line.split()[3]

    def stop(self) -> int:
        """SIGTERM (the daemon drains), then wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def _start_daemon(ctx: Ctx, cache_dir: str,
                  trace_out: Optional[str] = None) -> tuple:
    """Start a daemon and have it answer one warm-up query (its first
    calibration and simulations); returns ``(daemon, seconds)``."""
    from repro.serve import ServeClient

    t = time.perf_counter()
    daemon = Daemon(cache_dir, trace_out)
    try:
        with ServeClient(daemon.address, timeout=120.0) as client:
            reply = client.request({"op": "query",
                                    "query": query_payload(WARMUP_BASE)})
    except BaseException:
        daemon.stop()
        raise
    ctx.op(bool(reply.get("ok")), f"warm-up query failed: {reply}")
    return daemon, time.perf_counter() - t


def _mix(ctx: Ctx, daemon: Daemon, schedules: List[List[int]],
         lat: Dict[str, List[float]]) -> tuple:
    """Run every client's schedule closed-loop; returns ``(wall,
    first replies by seed base)``.  Every client pauses after each
    ``len // MIX_PAUSES`` requests until all have, the host is probed,
    and they go on; the wall leaves the probes out."""
    from repro.serve import ServeClient

    first: Dict[int, str] = {}
    errors: List[BaseException] = []
    # verdicts are kept per client and counted after the join, so the
    # two threads never update the run's counters concurrently
    verdicts: List[List[tuple]] = [[] for _ in schedules]
    every = max(1, len(schedules[0]) // MIX_PAUSES)
    pauses = (len(schedules[0]) - 1) // every
    paused = threading.Barrier(len(schedules) + 1, timeout=120.0)
    resumed = threading.Barrier(len(schedules) + 1, timeout=120.0)

    def client(sequence: List[int], checks: List[tuple]) -> None:
        seen: Dict[int, str] = {}
        try:
            with ServeClient(daemon.address, timeout=120.0) as conn:
                for i, base in enumerate(sequence):
                    if i and i % every == 0:
                        paused.wait()
                        resumed.wait()
                    message = {"op": "query", "query": query_payload(base)}
                    t0 = time.perf_counter()
                    reply = conn.request(message)
                    elapsed = time.perf_counter() - t0
                    text = json.dumps(reply, sort_keys=True)
                    if base in seen:
                        lat["memo"].append(elapsed)
                        checks.append((text == seen[base], base, "memo reply "
                                       "differs from the query's first reply"))
                    else:
                        lat["cold"].append(elapsed)
                        seen[base] = text
                        checks.append((bool(reply.get("ok")), base, text))
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
            paused.abort()
            resumed.abort()
        first.update(seen)

    assert all(len(s) == len(schedules[0]) for s in schedules)
    threads = [threading.Thread(target=client, args=(s, v))
               for s, v in zip(schedules, verdicts)]
    t, probed = time.perf_counter(), ctx.host.spent
    for th in threads:
        th.start()
    try:
        for _ in range(pauses):
            paused.wait()
            ctx.host.tick("mix", force=True)
            resumed.wait()
    except threading.BrokenBarrierError:
        pass  # a client failed; its error is raised below
    for th in threads:
        th.join()
    wall = time.perf_counter() - t - (ctx.host.spent - probed)
    if errors:
        raise errors[0]
    for checks in verdicts:
        for ok, base, what in checks:
            ctx.op(ok, f"query with seed base {base}: {what}")
    return wall, first


def _stats(daemon: Daemon) -> Dict[str, int]:
    from repro.serve import ServeClient

    with ServeClient(daemon.address, timeout=60.0) as client:
        return client.request({"op": "stats"})["stats"]


def _session(ctx: Ctx, schedules: List[List[int]], traced: bool) -> Dict:
    """Start a daemon, run the mix, stop it; one session's numbers."""
    cache_dir = ctx.fresh_dir("traced" if traced else "serve")
    trace_out = str(ctx.work / "daemon-spans.json") if traced else None
    daemon, setup = _start_daemon(ctx, cache_dir, trace_out)
    lat: Dict[str, List[float]] = {"memo": [], "cold": []}
    try:
        before = _stats(daemon)
        wall, first = _mix(ctx, daemon, schedules, lat)
        after = _stats(daemon)
    finally:
        rc = daemon.stop()
    ctx.op(rc == 0, f"serve daemon exited {rc}")
    cold = sum(len(set(s)) for s in schedules)

    def delta(*keys: str) -> int:
        return sum(after.get(k, 0) - before.get(k, 0) for k in keys)

    ctx.op(delta("scenario_runs") == POOL * cold,
           f"scenario_runs grew by {delta('scenario_runs')}, expected "
           f"{POOL} x {cold} cold queries")
    out = {"cache_dir": cache_dir, "setup": setup, "wall": wall,
           "lat": lat, "first": first,
           "memo_hits": delta("memo_hits"),
           "scenario_runs": delta("scenario_runs"),
           "disk_writes": delta("answer_cache_disk_writes",
                                "result_cache_disk_writes"),
           "cache_bytes": dir_bytes(cache_dir)}
    if traced and ctx.tracer is not None:
        ctx.tracer.absorb(json.loads(Path(trace_out).read_text()))
    return out


def serve_mixed(ctx: Ctx) -> None:
    ctx.time_imports("repro.serve")  # restarts run in this process

    per_client = max(1, int(REQUESTS_PER_CLIENT_SECOND * ctx.seconds))
    schedules = serve_schedule(ctx.seed, CLIENTS, per_client)
    if ctx.trace:
        # the untraced baseline the tracing overhead is measured
        # against; each session starts its own daemon process, so this
        # one carries no warm-up the traced session is spared
        plain = _session(ctx, schedules, traced=False)
        restore = perf_trace.instrument(ctx.tracer)
        try:
            session = _session(ctx, schedules, traced=True)
            _restarts(ctx, session, schedules[0][0])
        finally:
            restore()
        ctx.layer_extra.update({
            "client_memo_ms": perf_stats.percentile(
                session["lat"]["memo"], 50) * 1e3,
            "serve.memo_hits": session["memo_hits"],
            "serve.scenario_runs": session["scenario_runs"],
            "serve.disk_writes": session["disk_writes"],
            "scenarios.cache_bytes": session["cache_bytes"],
            "trace.overhead_pct": (session["wall"] / plain["wall"] - 1) * 100,
        })
        ctx.passes = 1
        return

    # set-up is timed several times, each on a fresh directory; the
    # mix runs against the last daemon started
    for i in range(SETUP_REPEATS - 1):
        daemon, setup = _start_daemon(ctx, ctx.fresh_dir(f"setup{i}"))
        ctx.sample("setup", setup)
        ctx.op(daemon.stop() == 0, "serve daemon did not drain cleanly")
        ctx.host.tick("setup", force=True)
    session = _session(ctx, schedules, traced=False)
    ctx.sample("setup", session["setup"])
    lat = session["lat"]
    ctx.samples["memo"], ctx.samples["cold"] = lat["memo"], lat["cold"]
    _restarts(ctx, session, schedules[0][0])

    scale = ctx.host.scale("mix")
    qps = (len(lat["memo"]) + len(lat["cold"])) / (session["wall"] * scale)
    ctx.metric("throughput_per_s", qps, "1/s")
    ctx.line("serve_qps", qps, "1/s",
             f"{CLIENTS} closed-loop clients, "
             f"{len(lat['memo']) + len(lat['cold'])} queries")
    ctx.metric("cold_p50_ms", perf_stats.percentile(
        lat["cold"], 50) * 1e3 * scale, "ms")
    ctx.timing("serve_cold_p50_ms", "cold", 1e3 * scale, "ms")
    ctx.metric("warm_p50_ms", perf_stats.percentile(
        lat["memo"], 50) * 1e3 * scale, "ms")
    ctx.timing("serve_memo_p50_ms", "memo", 1e3 * scale, "ms")
    ctx.timing("serve_restart_s", "restart", ctx.host.scale("restart"), "s",
               tails=False)
    ctx.report.append("output_digest = " + digest(
        [session["first"][b] for b in sorted(session["first"])]))


def _restarts(ctx: Ctx, session: Dict, base: int) -> None:
    """Restart on the filled directory as ``serve start`` does (fresh
    engine, preload the on-disk answers) and answer the query with
    seed base ``base``; the answer must equal the daemon's."""
    from repro.serve import QueryEngine, QuerySpec

    expected = json.loads(session["first"][base])["answer"]
    query = QuerySpec.from_dict(query_payload(base))
    for _ in range(RESTARTS):
        ctx.next_request()
        t = time.perf_counter()
        engine = QueryEngine(cache_dir=session["cache_dir"])
        engine.preload_answers()
        answer = engine.answer(query)
        ctx.sample("restart", time.perf_counter() - t)
        ctx.op(answer.to_dict() == expected,
               "restarted engine answered differently from the daemon")
        ctx.host.tick("restart", force=True)


# ---------------------------------------------------------------------------
# shared driver for the pass-based workloads
# ---------------------------------------------------------------------------

def _measure(ctx: Ctx, one_pass: Callable,
             min_passes: int = 1) -> List[float]:
    """Untraced: passes for ``ctx.seconds``.  Traced: a discarded
    warm-up pass, then an untraced and a traced pass in turn until the
    traced ones have measured about ``ctx.seconds``; the overhead is
    the median traced pass against the median untraced one."""
    if not ctx.trace:
        return run_passes(ctx, one_pass, min_passes)
    one_pass(-1, timed=False)
    plain: List[float] = []
    traced: List[float] = []
    while not traced or sum(traced) + 0.5 * traced[-1] < ctx.seconds:
        t = time.perf_counter()
        one_pass(-2 - len(plain), timed=False)
        plain.append(time.perf_counter() - t)
        restore = perf_trace.instrument(ctx.tracer)
        try:
            t = time.perf_counter()
            one_pass(len(traced))
            traced.append(time.perf_counter() - t)
        finally:
            restore()
    ctx.passes = len(traced)
    ctx.layer_extra["trace.overhead_pct"] = (
        perf_stats.percentile(traced, 50)
        / perf_stats.percentile(plain, 50) - 1) * 100
    return traced


WORKLOADS: Dict[str, Callable[[Ctx], None]] = {
    "reference-sweep": reference_sweep,
    "predict-fig11": predict_fig11,
    "serve-mixed": serve_mixed,
}
