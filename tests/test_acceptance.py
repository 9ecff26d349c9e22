"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with `pytest -s tests/test_acceptance.py` to see the lines. The
oracle-equivalence matrix (criterion 1) is executed once per session, shared
with the golden gate (`conftest.py`), and its results are reused by the
criteria that quantify over "every corpus run". The claims sweeps of
`scripts/claims.py` also run once per session; their records must equal the
checked-in `results/claims` files byte for byte, and criteria 2, 3 and 10
read them.
"""

import csv
import hashlib
import io
import random

import pytest

from claims import OUT_DIR as CLAIMS_DIR
from conftest import P_VALUES, WATCHDOG
from hmtsim.isa import assemble
from hmtsim.kernels import (
    kernel_chain,
    kernel_heterogeneous,
    kernel_loaduse,
    kernel_regular,
    kernel_starvation,
)
from hmtsim.sim import ChipConfig, Outcome, run
from hmtsim.tmu import distribute
from test_noc import adjacent, path


@pytest.fixture(scope="module")
def matrix(matrix_runs):
    """All matrix cells: (kernel, p, hints, coherency) -> (spec, result)."""
    return {(c.spec.name, c.config.p, c.config.hints, c.config.coherency):
            (c.spec, c.result) for c in matrix_runs.values()}


def records(text):
    """The records of a sweep's CSV, each a dict of strings."""
    return list(csv.DictReader(io.StringIO(text)))


def test_claims_files_are_the_sweeps_records(claims):
    assert sorted(p.name for p in CLAIMS_DIR.iterdir()) == \
        sorted(f"{claim}.csv" for claim in claims)
    for claim, text in claims.items():
        assert (CLAIMS_DIR / f"{claim}.csv").read_bytes() == text.encode(), \
            f"results/claims/{claim}.csv is stale: run scripts/claims.py"
        assert {r["outcome"] for r in records(text)} == {"completed"}, claim


def test_criterion_1_oracle_equivalence(matrix):
    assert len(matrix) == 80
    for (name, p, hints, coh), (spec, result) in matrix.items():
        assert result.outcome is Outcome.COMPLETED, \
            (name, p, hints, coh, result.diagnostic)
        assert result.final_memory == spec.expected_image(), (name, p, hints, coh)
    print(f"\nPASS [1] oracle equivalence: {len(matrix)} cells bit-identical "
          f"to the sequential schedule")


def test_criterion_2_binary_compatibility(matrix, claims):
    for spec in (kernel_regular(), kernel_heterogeneous(), kernel_chain(),
                 kernel_loaduse()):
        hashes = {matrix[(spec.name, p, True, "eager")][1].memory_hash()
                  for p in P_VALUES}
        assert len(hashes) == 1, spec.name
    chain_cycles = [matrix[("chain", p, True, "eager")][1].metrics.cycles
                    for p in P_VALUES]
    assert len(set(chain_cycles)) > 1
    # the portability sweep: chain over p, slots, topology and hop latency
    sweep = records(claims["portability"])
    assert len({r["memory_hash"] for r in sweep}) == 1
    sweep_cycles = sorted({int(r["cycles"]) for r in sweep})
    assert len(sweep_cycles) > 1
    print(f"PASS [2] binary compatibility: memory constant across P; chain "
          f"cycles vary {chain_cycles}, and {sweep_cycles[0]} to "
          f"{sweep_cycles[-1]} over {len(sweep)} configs at one memory hash")


def test_criterion_3_switch_hint_utilization(claims):
    probe = {(r["params"], r["hints"]): r for r in records(claims["hints"])}
    on, off, single = (probe[f"threads={n};iters=8;fillers=13", hints]
                       for n, hints in ((4, "on"), (4, "off"), (1, "on")))
    assert int(on["flushes"]) == 0
    assert int(off["flushes"]) > 0
    assert float(on["utilization"]) > float(off["utilization"])
    assert int(single["flushes"]) > 0
    print(f"PASS [3] switch hints: 4 threads flushes {on['flushes']} (on) "
          f"< {off['flushes']} (off), utilization "
          f"{float(on['utilization']):.4f} > {float(off['utilization']):.4f}; "
          f"1 thread flushes {single['flushes']} > 0")


def test_criterion_4_bulk_coherency_traffic(matrix):
    spec, eager = matrix[("regular", 4, True, "eager")]
    _, bulk = matrix[("regular", 4, True, "bulk")]
    assert bulk.metrics.propagation_messages < eager.metrics.propagation_messages
    assert bulk.final_memory == eager.final_memory
    # per-line accounting: messages bounded by the distinct dirty lines
    n = spec.params["n"]
    line_words = 16 // 4
    dirty_lines = n // line_words + n // line_words   # x array + out array
    assert bulk.metrics.propagation_messages <= dirty_lines
    print(f"PASS [4] bulk coherency: {bulk.metrics.propagation_messages} (bulk) "
          f"< {eager.metrics.propagation_messages} (eager) messages, "
          f"bulk <= {dirty_lines} dirty lines, memory identical")


def test_criterion_5_distribution_and_imbalance(matrix):
    rng = random.Random(0xD157)
    for _ in range(10_000):
        n, p = rng.randrange(0, 10_001), rng.randrange(1, 65)
        counts = distribute(n, p)
        assert sum(counts) == n
        assert max(counts) - min(counts) <= 1
    spec, het = matrix[("heterogeneous", 4, True, "eager")]
    assert spec.params == {"n": 64, "scale": 16}
    commits = [c.commits for c in het.metrics.per_core]
    assert commits[-1] == max(commits) and commits[-1] > min(commits)
    assert all(commits[-1] > c for c in commits[:-1])
    ideal = het.metrics.commits / 4
    assert het.metrics.cycles > ideal
    # the even split of index-proportional work: makespan over ideal,
    # cycles x P / commits, is at least the closed form (2P-1)/P and within
    # 1.5% of it
    ratios = {}
    for p in (2, 4, 8):
        metrics = matrix[("heterogeneous", p, True, "eager")][1].metrics
        ratio = metrics.cycles * p / metrics.commits
        closed = (2 * p - 1) / p
        assert closed <= ratio <= closed * 1.015, (p, ratio, closed)
        ratios[p] = f"{ratio:.3f} vs {closed:.3f}"
    print(f"PASS [5] N/P distribution: 10k random pairs even; heterogeneous "
          f"per-core commits {commits} peak on the last core; makespan "
          f"{het.metrics.cycles} > ideal {ideal:.0f}; makespan/ideal by P "
          f"against (2P-1)/P: {ratios}")


def _bfs_links(p, topology, src, dst):
    route = path(topology, p, src, dst)
    return {(min(a, b), max(a, b)) for a, b in zip(route, route[1:])}


def test_criterion_6_adjacency(matrix):
    for (name, p, hints, coh), (_, result) in matrix.items():
        for (a, b), count in result.metrics.hop_log.items():
            assert adjacent("ring", p, a, b), (name, p, a, b)
    # a family on a remote sub-span: traffic only inside span + owner path
    sub = """
    .body main
      addi r9, r0, 2
      allocate r1, 4, r9
      addi r14, r0, 0
      addi r15, r0, 0
      addi r16, r0, 0
      create r2, r1, w, 0, 8, 1
      addi r17, r0, 0
      addi r18, r0, 0
      addi r19, r0, 0
      sync r3, r2
      add r0, r3, r0
      release r1
      halt
    .body w
      getidx r1
      addi r2, r0, 4
      mul r3, r1, r2
      addi r4, r0, 0x2000
      add r4, r4, r3
      st r1, 0(r4)
      halt
    """
    program = assemble(sub)
    for topology in ("line", "ring"):
        res = run(ChipConfig(p=8, topology=topology, watchdog_cycles=WATCHDOG),
                  program)
        assert res.outcome is Outcome.COMPLETED
        span, owner = (2, 3, 4, 5), 0
        allowed = set()
        for member in span:
            allowed |= _bfs_links(8, topology, owner, member)
        for a in span:
            for b in span:
                if abs(a - b) == 1:
                    allowed.add((min(a, b), max(a, b)))
        used = {link for link, n in res.metrics.hop_log.items() if n}
        assert used <= allowed, (topology, used - allowed)
    print("PASS [6] adjacency: all corpus traffic on adjacent links; "
          "sub-span family confined to span plus owner path")


def test_criterion_7_dataflow_cap(matrix):
    worst = max(res.metrics.max_pending_cells for _, res in matrix.values())
    assert worst <= 31
    print(f"PASS [7] dataflow cap: max concurrent pending cells per thread "
          f"{worst} <= 31 across all runs")


def test_criterion_8_deadlock_classification(matrix):
    starve = run(ChipConfig(p=2, watchdog_cycles=WATCHDOG),
                 kernel_starvation(2).program)
    assert starve.outcome is Outcome.DEADLOCK_STARVATION
    cycle_src = """
    .body main
      allocate r1, 1
      create r2, r1, waiter, 0, 1, 1
      getsh r3, r2
      add r0, r3, r0
      sync r4, r2
      release r1
      halt
    .body waiter
      getsh r5
      putsh r5
      halt
    """
    dataflow = run(ChipConfig(p=1, watchdog_cycles=WATCHDOG),
                   assemble(cycle_src))
    assert dataflow.outcome is Outcome.DEADLOCK_DATAFLOW
    assert starve.metrics.cycles < WATCHDOG
    assert dataflow.metrics.cycles < WATCHDOG
    for (name, p, hints, coh), (_, result) in matrix.items():
        assert result.outcome is not Outcome.WATCHDOG_TIMEOUT
    print(f"PASS [8] deadlock classification: starvation at cycle "
          f"{starve.metrics.cycles}, dataflow cycle at "
          f"{dataflow.metrics.cycles}, no corpus watchdog timeouts")


def test_criterion_9_sweep_determinism(determinism_sweeps):
    a, b = determinism_sweeps
    assert a.code == b.code == 0
    outs = [a.out, b.out]
    assert outs[0] == outs[1]
    a_traces = sorted(a.traces.iterdir())
    b_traces = sorted(b.traces.iterdir())
    assert [t.name for t in a_traces] == [t.name for t in b_traces]
    # one trace file per record: no two cells share a file name
    assert len(a_traces) == len(outs[0].splitlines()) - 1 == 16
    for ta, tb in zip(a_traces, b_traces):
        assert ta.read_bytes() == tb.read_bytes()
    print(f"PASS [9] determinism: sweep twice byte-identical "
          f"({len(a_traces)} trace files compared)")


def test_criterion_10_latency_tolerance(claims):
    # with enough thread slots, dataflow scheduling hides a long D-miss
    # latency: kernel_regular(n=256) on one core keeps its utilization
    # with 64 slots and loses it with 2 (the latency sweep at 16-byte lines)
    latency = 320
    sweep = records(claims["latency"])
    image = hashlib.sha256(kernel_regular(n=256).expected_image()).hexdigest()
    assert {(r["kernel"], r["outcome"], r["memory_hash"]) for r in sweep} == \
        {("regular", "completed", image)}
    utilization = {(int(r["thread_slots"]), int(r["d_miss_latency"])):
                   float(r["utilization"])
                   for r in sweep if r["line_bytes"] == "16"}
    few, many = utilization[2, latency], utilization[64, latency]
    short = utilization[64, 5]
    assert many >= 4 * few
    assert many >= 0.95 * short
    print(f"PASS [10] latency tolerance: at d_miss_latency {latency}, "
          f"utilization {many:.3f} with 64 slots >= 4 x {few:.3f} with 2, "
          f"and {1 - many / short:.1%} below {short:.3f} at latency 5")
