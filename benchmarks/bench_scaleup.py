"""Future work (paper §V): scale prediction beyond the paper's 32 peers.

"Another near-future goal is to be able to supply application
prediction with P2PDC for a few hundreds up to a few thousand machines
by scaling-up static analysis obtained with dPerf."  The block-
benchmark representation makes that cheap: one small calibration
execution per rank count, then analytic scaling and a replay whose
cost grows only with the number of communication events.
"""

from conftest import emit

from repro.analysis import format_table
from repro.apps import obstacle
from repro.dperf import DPerfPredictor, ScalePlan
from repro.experiments import calibration as C
from repro.platforms import build_cluster, build_lan

PEER_COUNTS = (32, 64, 128)
#: a 100-iteration slice of the target instance: prediction cost grows
#: with communication events, and the scaling *ratios* the assertions
#: check are iteration-count-invariant.
TARGET_N, NIT = 1024, 100
#: checks every 5 iterations here (vs 10 in the main experiments):
#: halves the calibration cost, which matters at 128 ranks.
CHECK = 5


def predict_large(nprocs: int):
    predictor = DPerfPredictor(obstacle.obstacle_source(), obstacle.ENTRY)
    cal_n = max(32, nprocs)  # rows ≥ 1 in the calibration instance
    runs = predictor.execute(nprocs, args=[cal_n, 2 * CHECK, CHECK])
    plan = ScalePlan(
        env_cal=obstacle.scale_env(cal_n, nprocs),
        env_target=obstacle.scale_env(TARGET_N, nprocs),
        nit_target=NIT, cycle_len=CHECK, warmup_cycles=1,
    )
    traces = predictor.traces_for(runs, "O0", scale=plan, app="obstacle")
    cluster = build_cluster(nprocs + 1)
    lan = build_lan(max(nprocs, 2))
    t_cluster = predictor.predict(
        traces, cluster, hosts=cluster.take_hosts(nprocs)).t_predicted
    t_lan = predictor.predict(
        traces, lan, hosts=lan.take_hosts(nprocs)).t_predicted
    events = sum(len(t.events) for t in traces)
    return t_cluster, t_lan, events


def run_sweep():
    return [(n, *predict_large(n)) for n in PEER_COUNTS]


def test_scaleup_beyond_paper(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    emit("scaleup", format_table(
        ["peers", "t_pred cluster [s]", "t_pred LAN [s]", "trace events"],
        [[n, f"{tc:.3f}", f"{tl:.3f}", ev] for n, tc, tl, ev in rows],
    ))

    by_n = {n: (tc, tl) for n, tc, tl, _ev in rows}
    # the cluster keeps scaling to 128 peers…
    assert by_n[128][0] < by_n[64][0] < by_n[32][0]
    # …while LAN efficiency collapses: 4× peers buy < 2.5× speedup
    assert by_n[32][1] / by_n[128][1] < 2.5
    # LAN overhead grows with the peer count
    overhead_32 = by_n[32][1] / by_n[32][0]
    overhead_128 = by_n[128][1] / by_n[128][0]
    assert overhead_128 > overhead_32
