"""Byte-identity pins for dPerf calibration runs.

Each pin is a sha256 over the *canonical content* of one rank's run:
skeleton entries in order (every compute gap's per-block census in
insertion order, every comm record and region mark field by field),
the return value, the printf output and the block execution counts.
The digests were recorded from the tree-walking interpreter on free
threads; the compiled runtime and its rank-order scheduler must
reproduce them exactly, so census key order, comm records and the
traces priced from them cannot drift.
"""

import hashlib

import pytest

from repro.dperf import (
    CommRecord, ComputeGap, DPerfPredictor, RegionMark, run_single,
)
from repro.dperf.minic import parse
from repro.scenarios import workloads


def rank_digest(run) -> str:
    parts = []
    for entry in run.entries:
        if isinstance(entry, ComputeGap):
            parts.append(("gap", [
                (block, list(census.items()))
                for block, census in entry.by_block.items()
            ]))
        elif isinstance(entry, CommRecord):
            parts.append(("comm", entry.api, entry.kind, entry.peer,
                          entry.count, repr(entry.count_expr),
                          entry.elem_bytes, entry.tag))
        elif isinstance(entry, RegionMark):
            parts.append(("region", entry.name, entry.which))
        else:  # pragma: no cover - new entry kinds must be pinned
            raise TypeError(type(entry).__name__)
    parts.append(("value", repr(run.value)))
    parts.append(("output", list(run.output)))
    parts.append(("blocks", list(run.block_exec_counts.items())))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


#: Covers while/for, break/continue, ternary, every compound
#: assignment, ++/--, globals, recursion, printf, a region, all four
#: comm kinds, and an ``if`` inside a function called from a loop body
#: (attributed to the caller's loop-control block at run time).
SYNTHETIC = r"""
int counter = 0;
double acc = 1.5;

int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }

int classify(int x) {
    if (x % 3 == 0) { counter++; return 1; }
    else if (x % 3 == 1) { counter--; return -1; }
    return 0;
}

double main(int n) {
    int rank = p2psap_rank();
    int size = p2psap_size();
    double buf[4];
    int s = 0;
    dperf_region_begin("iter");
    for (int i = 0; i < n; i++) {
        if (i == 7) continue;
        if (i > n - 3) break;
        s += classify(i + rank);
        s = s > 2 ? s - 1 : s + 2;
        buf[i % 4] += (double)i * 0.5;
    }
    dperf_region_end("iter");
    int k = 100 + rank;
    int rounds = 0;
    while (k > 1) {
        rounds++;
        k /= 2;
        if (k % 5 == 0) { k -= 3; continue; }
        k %= 37;
        k *= 3;
        k--;
        ++k;
        --k;
        if (rounds > 6) break;
    }
    acc *= 2.0; acc -= 0.25; acc /= 3.0; acc += (double)fib(8);
    long big = 1234567;
    big /= 7; big %= 1000;
    int neg = -17;
    neg /= 4;
    neg %= 3;
    printf("rank %d s=%d k=%d acc=%f big=%d neg=%d\n", rank, s, k, acc, big, neg);
    if (size > 1) {
        buf[0] = (double)(s + k);
        if (rank == 0) { p2psap_send(1, buf, 4); p2psap_recv(1, buf, 2); }
        else { p2psap_recv(0, buf, 4); buf[1] = buf[0] * 2.0; p2psap_isend(0, buf, 2); }
        p2psap_barrier();
    }
    double m = p2psap_allreduce_max(buf[0] + (double)counter);
    return m + acc + (double)(neg + big) + (double)(s * k);
}
"""

OBSTACLE_16 = [
    "5c9ef1acd33a4fec3f8dc933de671397928b1fd8a3d24fa1b648b292bf8b1cec",
    "f278d7a66ae653138b2e55d274e28e85e4fc76199a8f7c376abdd186e2c4cfd4",
    "00902c529bd9dd1a97bdebf2b04b1e78ebf6df696d13855df44e17010e812596",
    "b56b25d41fe61cee1c3c4a3e26369ee221c0e24497d3f1d81979c2d3cc67b356",
    "7308a88f4b0b0b938f7f80bd33e69bd89b655143b434e1e2a8c025b0b5426bc7",
    "e7c72d475eb336594d2fa385cecc21a5a92912fdc684ac97740252621904e53c",
    "4adeeac4b5a0c674f6beea4127f51efaa800d8b84a28787202aed67e8fb89870",
    "e7c49061d69e0cd7888f395903c726fa33c837f0660bfaee379b41c13137a82d",
    "ed76af0fda0dd9f7a068189aa7ffb66cf6e953c5d8fd1ecd342e4c3b3c35f777",
    "66c36767c16a41dc50f6edf1b7824e25e67067dfa832e9c289a1862b93dad445",
    "327f9b6d4ece41d3897c026914e1e928d7ba9a95e61c7666d0062b855600445c",
    "75a9d58cf6d993bc938c0ccfa3de16da7f2ec71ae5c9bc496b5086493cfd28fc",
    "abf88b8f87a7c0d9571ccdb7677d752fbfd0541f638594bd385ca183ab1afd6e",
    "f5b81dd7a6028e5dcf014bd20f6e787a8a1ef0fd0e478871cbd60e1e36fc835b",
    "ba87fd3969e7efb370a7aed70a58c713e6901f9be0d6a39afe72ce752359e1bc",
    "418459f5f8ae620fa02e54cb2856d09bd3faa47aaa5b3f8fe87dd46ddd3b60c2",
]

HEAT_2 = [
    "14d71322b6fe2129f5e0dd36104d8a42a2b8c2e734518c57fb449120e1cb6f59",
    "1ba3e85d953e70a3f489dffc8f9c7447c61141fbe2d9b710941a0c327c950eca",
]

SYNTHETIC_DIGESTS = {
    1: ["817cf6ec031f36a6cbab1366a467da40b3f57b503b80dcc38566015e04f426eb"],
    2: [
        "db851216923c54d20a6da55e260bdd2d4fcc322ba980594cd4f4741c049eca7a",
        "93659ed5e3ec3c6dd337501c09535e2cba5923c7d19e2e54cc43e88c1566818d",
    ],
}

SYNTHETIC_PLAIN = [
    "059c88433dd5c6a6d2c60c66a9065e86fa2b5d0bc3ece5f4f34d591313fd5440",
]


def digests(runs):
    return [rank_digest(run) for run in runs]


def test_obstacle_16_rank_calibration_is_byte_identical():
    assert digests(workloads.calibration_runs("obstacle", 16)) == OBSTACLE_16


def test_heat_calibration_is_byte_identical():
    assert digests(workloads.calibration_runs("heat", 2)) == HEAT_2


@pytest.mark.parametrize("nprocs", [1, 2])
def test_synthetic_program_is_byte_identical(nprocs):
    runs = DPerfPredictor(SYNTHETIC, "main").execute(nprocs, args=[12])
    assert digests(runs) == SYNTHETIC_DIGESTS[nprocs]


def test_uninstrumented_synthetic_program_is_byte_identical():
    run = run_single(parse(SYNTHETIC), "main", [12])
    assert digests([run]) == SYNTHETIC_PLAIN
