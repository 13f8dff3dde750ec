"""Tests of the benchmark's own arithmetic, schedules and verdicts.

    python3 -m pytest perfbench/test_perfbench.py -q

They import no part of the program under test.
"""

import pytest

import perf_host
import perf_stats
import perf_trace
import perf_workloads
from perf_trace import Span


# -- the percentile rule -------------------------------------------------------

def test_tail_needs_ten_samples_beyond_it():
    values = list(range(1000))
    assert perf_stats.beyond(1000, 99.0) == 10
    assert perf_stats.tail(values, 99.0) == pytest.approx(989.01)
    assert perf_stats.tail(values[:999], 99.0) is None
    assert perf_stats.tail(list(range(100)), 90.0) is not None
    assert perf_stats.tail(list(range(99)), 90.0) is None


def test_summary_reports_count_median_and_supported_tails_only():
    s = perf_stats.summary([float(i) for i in range(200)])
    assert s["n"] == 200
    assert s["p50"] == pytest.approx(99.5)
    assert "p90" in s and "p99" not in s and "p99.9" not in s
    assert perf_stats.summary([3.0]) == {"n": 1, "p50": 3.0}


def test_spread_is_interquartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, med, q3 = perf_stats.quartiles(values)
    assert med == 3.0
    assert perf_stats.spread(values) == pytest.approx((q3 - q1) / 3.0)


# -- span self-time arithmetic -------------------------------------------------

def span(sid, start, end, parent=0, name="x"):
    return Span(sid, name, start, end, parent, -1, 1)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 3.0, parent=1),
        span(3, 2.0, 4.0, parent=1),   # overlaps child 2: covered once
        span(4, 6.0, 7.0, parent=1),
        span(5, 6.5, 6.8, parent=4),   # grandchild: not the root's child
    ]
    selfs = perf_trace.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0 - 0.3)
    assert selfs[2] == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, 0.0, 5.0), span(2, 4.0, 9.0, parent=1)]
    assert perf_trace.self_times(spans)[1] == pytest.approx(4.0)


def test_outermost_skips_spans_nested_in_the_same_name():
    spans = [
        span(1, 0.0, 5.0, name="desim.run"),
        span(2, 1.0, 2.0, parent=1, name="net.solver"),
        span(3, 1.2, 1.5, parent=2, name="desim.run"),
        span(4, 6.0, 7.0, name="desim.run"),
    ]
    assert [s.id for s in perf_trace.outermost(spans, "desim.run")] == [1, 4]


def test_tracer_records_parent_and_request():
    tracer = perf_trace.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    tracer.set_request(7)
    outer()
    spans = {s.name: s for s in tracer.spans()}
    assert spans["inner"].parent == spans["outer"].id
    assert spans["outer"].parent == 0
    assert spans["inner"].req == spans["outer"].req == 7


# -- seeds -> schedules --------------------------------------------------------

def test_same_seed_same_schedule():
    a = perf_workloads.serve_schedule(5, 2, 400)
    assert a == perf_workloads.serve_schedule(5, 2, 400)
    assert a != perf_workloads.serve_schedule(6, 2, 400)


def test_schedule_cold_share_and_disjoint_pools():
    schedules = perf_workloads.serve_schedule(3, 2, 1000)
    pools = [set(s) for s in schedules]
    n_cold = round(1000 * perf_workloads.COLD_SHARE)
    assert [len(p) for p in pools] == [n_cold, n_cold]
    assert not pools[0] & pools[1]
    seeds = [b + i for p in pools for b in p
             for i in range(perf_workloads.POOL)]
    assert len(seeds) == len(set(seeds))  # no pool seed simulated twice
    assert perf_workloads.WARMUP_BASE + perf_workloads.POOL <= min(seeds)
    assert [len(s) for s in schedules] == [1000, 1000]


# -- pins ----------------------------------------------------------------------

def ctx():
    return perf_workloads.Ctx("reference-sweep", 0, 1.0, False)


def test_grid_pin_mismatch_counts_as_a_failure():
    pin = perf_workloads.PINS["reference-sweep"]["churn-grid"]
    c = ctx()
    assert perf_workloads.check_grid(c, "churn-grid", {"rc": 0, **pin}, pin)
    wrong = {"rc": 0, **pin, "sim_events": pin["sim_events"] + 1}
    assert not perf_workloads.check_grid(c, "churn-grid", wrong, pin)
    assert (c.attempted, c.failed) == (2, 1)


def test_prediction_pin_mismatch_counts_as_a_failure():
    class Result:
        ok = True
        t = 32.88580492246834

    pins = perf_workloads.PINS["predict-fig11"]["t_predicted"]
    c = ctx()
    assert perf_workloads.check_prediction(c, "O0", Result, pins)
    Result.t += 1e-12
    assert not perf_workloads.check_prediction(c, "O0", Result, pins)
    assert (c.attempted, c.failed) == (2, 1)


# -- host-speed scaling --------------------------------------------------------

def test_host_scale_is_reference_over_the_mean_probe_of_the_phase():
    ref = perf_host.REFERENCE_PROBE_S
    clock = perf_host.HostClock()
    clock.samples = {"setup": [ref, 3 * ref], "cold": [4 * ref]}
    assert clock.scale("setup") == pytest.approx(0.5)
    assert clock.scale("cold") == pytest.approx(0.25)
    assert clock.scale("setup", "cold") == pytest.approx(3 / 8)
    # a phase without probes falls back on every probe of the run
    assert clock.scale("warm") == pytest.approx(3 / 8)


def test_host_tick_catches_up_on_long_operations(monkeypatch):
    monkeypatch.setattr(perf_host, "probe", lambda: 0.001)
    clock = perf_host.HostClock()
    clock.every = 10.0
    clock.tick("a")                      # the first tick always probes
    clock.tick("a")                      # not due yet
    assert clock.samples == {"a": [0.001]}
    clock.tick("b", force=True)
    assert len(clock.samples["b"]) == 1
    clock.every = 1e-9                   # "long" since the last probe
    clock.tick("b")
    assert len(clock.samples["b"]) == 1 + perf_host.MAX_CATCH_UP
