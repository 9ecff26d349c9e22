import gc
import tracemalloc

import pytest

from hmtsim import sim
from hmtsim.core import Core
from hmtsim.errors import SimFault
from hmtsim.isa import assemble
from hmtsim.kernels import (GENERATORS, kernel_chain, kernel_heterogeneous,
                            kernel_loaduse, kernel_regular, kernel_starvation)
from hmtsim.oracle import sequential_oracle
from hmtsim.memory import CacheConfig
from hmtsim.sim import Chip, ChipConfig, Outcome, format_trace, run
from hmtsim.tmu import Tmu


def test_empty_program_completes_with_one_commit():
    res = run(ChipConfig(p=1), assemble(".body main\nhalt"))
    assert res.outcome is Outcome.COMPLETED
    assert res.metrics.commits == 1
    assert res.final_memory is not None


def test_determinism_bit_identical():
    spec = kernel_regular(n=32)
    for p in (1, 4):
        cfg = ChipConfig(p=p, coherency="bulk", trace=True)
        first = run(cfg, spec.program)
        second = run(cfg, spec.program)
        assert first.result_hash() == second.result_hash()
        assert first.trace == second.trace
        assert first.final_memory == second.final_memory


def test_final_memory_constant_across_cores():
    spec = kernel_regular(n=64)
    expected = spec.expected_image()
    hashes = set()
    for p in (1, 2, 4, 8):
        res = run(ChipConfig(p=p), spec.program)
        assert res.outcome is Outcome.COMPLETED
        assert res.final_memory == expected
        hashes.add(res.memory_hash())
    assert len(hashes) == 1


def test_chain_cycles_vary_with_cores_but_memory_does_not():
    spec = kernel_chain(n=24)
    cycles = {}
    for p in (1, 2, 4, 8):
        res = run(ChipConfig(p=p), spec.program)
        assert res.final_memory == spec.expected_image()
        cycles[p] = res.metrics.cycles
    assert len(set(cycles.values())) > 1


def test_dataflow_deadlock_classified():
    src = """
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
    res = run(ChipConfig(p=1, watchdog_cycles=100_000), assemble(src))
    assert res.outcome is Outcome.DEADLOCK_DATAFLOW
    assert "waits-for cycle" in res.diagnostic
    assert res.final_memory is None


# main waits on the tail of a family whose only thread waits on a channel
# value main never sends
TAIL_DEADLOCK = """
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

# main waits on the sync of a family whose first thread waits on the same
# unsent channel value
SYNC_DEADLOCK = """
.body main
  allocate r1, 0
  create r2, r1, waiter, 0, 3, 1
  sync r4, r2
  add r0, r4, r0
  release r1
  halt
.body waiter
  getsh r5
  putsh r5
  halt
"""


@pytest.mark.parametrize("src, p, cycles", [
    (TAIL_DEADLOCK, 1, 35), (TAIL_DEADLOCK, 2, 35),
    (SYNC_DEADLOCK, 1, 33), (SYNC_DEADLOCK, 2, 47),
], ids=["tail-p1", "tail-p2", "sync-p1", "sync-p2"])
def test_deadlock_diagnostic_pinned(src, p, cycles):
    res = run(ChipConfig(p=p, watchdog_cycles=100_000), assemble(src))
    assert res.outcome is Outcome.DEADLOCK_DATAFLOW
    assert res.diagnostic == ("waits-for cycle: family 1 index 0 -> "
                              "family 2 index 0")
    assert res.metrics.cycles == cycles


# thread 1 of w faults on core 1 while core 0 holds only main, suspended on
# its sync
CORE1_FAULT = """
.body main
  allocate r1, 2
  create r2, r1, w, 0, 2, 1
  sync r4, r2
  add r0, r4, r0
  release r1
  halt
.body w
  getidx r5
  beq r5, r0, done
  ld r6, 2(r0)
done:
  halt
"""

# main waits on the tail of a four-thread family spread over both cores,
# whose first thread waits on a channel value main never sends
TAIL_DEADLOCK_P2 = TAIL_DEADLOCK.replace("allocate r1, 1", "allocate r1, 0") \
    .replace("waiter, 0, 1, 1", "waiter, 0, 4, 1")


# (id, program factory, config fields, outcome, cycles, per-core bubbles,
# traced result_hash)
NON_COMPLETED_RUNS = [
    ("fault-core1", lambda: assemble(CORE1_FAULT), dict(p=2), Outcome.FAULT,
     44, [30, 16],
     "dfa6560386d7edf23e8f73ba012b83f0b5df82badc70da6a4ee82bbbfba28c8c"),
    ("deadlock-p2", lambda: assemble(TAIL_DEADLOCK_P2), dict(p=2),
     Outcome.DEADLOCK_DATAFLOW, 46, [30, 17],
     "a16f06514d3c1d0c89441fb31089ad13a641566ce08007cf78b49485b813482f"),
    ("starvation-p2", lambda: kernel_starvation(2).program, dict(p=2),
     Outcome.DEADLOCK_STARVATION, 2048, [1475, 1469],
     "1650002eb1927b7d7d0c7868c149e9ea1437c7509df82432472ee1a4b4818bfd"),
    ("watchdog-p4", lambda: kernel_chain(n=200).program,
     dict(p=4, watchdog_cycles=900), Outcome.WATCHDOG_TIMEOUT, 900,
     [235, 502, 725, 727],
     "eafbfb3ef9f981a6e66ef6af312133e5aac62a8d536cae53b14f1e1391c63517"),
]


@pytest.mark.parametrize("make, cfg, outcome, cycles, bubbles, digest",
                         [run[1:] for run in NON_COMPLETED_RUNS],
                         ids=[run[0] for run in NON_COMPLETED_RUNS])
def test_non_completed_outcome_pinned(make, cfg, outcome, cycles, bubbles,
                                      digest):
    # golden.json pins completed runs only; these pin the per-core bubbles
    # of runs that end early, where idle cores must be settled exactly
    res = run(ChipConfig(trace=True, **cfg), make())
    assert res.outcome is outcome
    assert res.metrics.cycles == cycles
    assert [c.bubbles for c in res.metrics.per_core] == bubbles
    assert res.result_hash() == digest


def test_starvation_deadlock_classified():
    spec = kernel_starvation(2)
    res = run(ChipConfig(p=2, starvation_window=400, starvation_check=32,
                         watchdog_cycles=100_000), spec.program)
    assert res.outcome is Outcome.DEADLOCK_STARVATION
    assert "denied" in res.diagnostic


def test_starvation_satisfiable_completes():
    spec = kernel_starvation(2, satisfiable=True)
    res = run(ChipConfig(p=2, watchdog_cycles=200_000), spec.program)
    assert res.outcome is Outcome.COMPLETED
    assert res.final_memory == spec.expected_image()


def test_watchdog_fires_on_busy_nonprogress():
    # an endless arithmetic loop is neither quiescent nor starved
    src = ".body main\nloop:\n  addi r1, r1, 1\n  jmp loop"
    res = run(ChipConfig(p=1, watchdog_cycles=5_000), assemble(src))
    assert res.outcome is Outcome.WATCHDOG_TIMEOUT


def test_fault_on_double_sync():
    src = """
    .body main
      allocate r1, 1
      create r2, r1, w, 0, 1, 1
      sync r3, r2
      add r0, r3, r0
      sync r4, r2
      add r0, r4, r0
      release r1
      halt
    .body w
      halt
    """
    res = run(ChipConfig(p=1), assemble(src))
    assert res.outcome is Outcome.FAULT
    assert "double sync" in res.diagnostic


def test_fault_on_double_release():
    src = """
    .body main
      allocate r1, 1
      add r5, r1, r0
      release r1
      release r5
      halt
    """
    res = run(ChipConfig(p=1), assemble(src))
    assert res.outcome is Outcome.FAULT
    assert "release" in res.diagnostic


def test_fault_on_release_with_live_family():
    src = """
    .body main
      allocate r1, 1
      create r2, r1, w, 0, 1, 1
      release r1
      halt
    .body w
      getsh r9
      halt
    """
    res = run(ChipConfig(p=1), assemble(src))
    assert res.outcome is Outcome.FAULT
    assert "live families" in res.diagnostic


def test_fault_on_unaligned_access():
    src = ".body main\n  addi r1, r0, 2\n  ld r2, 0(r1)\n  halt"
    res = run(ChipConfig(p=1), assemble(src))
    assert res.outcome is Outcome.FAULT
    assert "unaligned" in res.diagnostic


def test_create_on_released_allocation_faults():
    src = """
    .body main
      allocate r1, 1
      release r1
      addi r9, r0, 0
      addi r10, r0, 0
      create r2, r1, w, 0, 1, 1
      sync r3, r2
      halt
    .body w
      halt
    """
    res = run(ChipConfig(p=1), assemble(src))
    assert res.outcome is Outcome.FAULT
    assert "unknown or released allocation" in res.diagnostic


def test_trace_format_and_per_thread_commit_order():
    spec = kernel_chain(n=6)
    cfg = ChipConfig(p=2, trace=True)
    res = run(cfg, spec.program)
    text = format_trace(res.trace)
    lines = text.splitlines()
    assert len(lines) == res.metrics.commits
    # normative field order: cycle core slot family index pc opcode
    first = lines[0].split()
    assert len(first) == 7
    assert first[6].isalpha()
    cycles = [int(l.split()[0]) for l in lines]
    assert cycles == sorted(cycles)

    oracle = sequential_oracle(spec.program)
    per_thread = {}
    for row in res.trace:
        _, _, _, fam, idx, pc, _ = row
        per_thread.setdefault((fam, idx), []).append(pc)
    assert per_thread == oracle.traces


def test_simulated_memory_image_equals_oracle_with_init():
    src = """
    .body main
      addi r1, r0, 0x100
      ld r2, 0(r1)
      addi r2, r2, 5
      st r2, 4(r1)
      halt
    """
    program = assemble(src)
    init = bytearray(1 << 20)
    init[0x100:0x104] = (37).to_bytes(4, "little")
    res = run(ChipConfig(p=1), program, bytes(init))
    oracle = sequential_oracle(program, init_mem=bytes(init))
    assert res.final_memory == oracle.final_memory
    assert res.final_memory[0x104:0x108] == (42).to_bytes(4, "little")


def test_n_zero_family_syncs_immediately():
    src = """
    .body main
      allocate r1, 0
      addi r10, r0, 0
      addi r11, r0, 0
      create r2, r1, w, 4, 4, 1
      sync r3, r2
      add r0, r3, r0
      release r1
      halt
    .body w
      halt
    """
    res = run(ChipConfig(p=4), assemble(src))
    assert res.outcome is Outcome.COMPLETED


def test_slot_multiplexing_runs_all_logical_threads():
    src = """
    .body main
      allocate r1, 0
      addi r10, r0, 0
      addi r11, r0, 0
      create r2, r1, w, 0, 40, 1
      sync r3, r2
      add r0, r3, r0
      release r1
      halt
    .body w
      getidx r1
      addi r2, r0, 4
      mul r3, r1, r2
      addi r4, r0, 0x1000
      add r4, r4, r3
      st r1, 0(r4)
      halt
    """
    program = assemble(src)
    oracle = sequential_oracle(program)
    res = run(ChipConfig(p=2, thread_slots=8), program)
    assert res.outcome is Outcome.COMPLETED
    assert res.final_memory == oracle.final_memory


def test_pending_cells_capped_at_31():
    # thirty outstanding loads to distinct registers and cold lines
    loads = "\n".join(f"  ld r{i}, {i * 64}(r31)" for i in range(1, 31))
    uses = "\n".join(f"  add r0, r{i}, r0" for i in range(1, 31))
    src = f".body main\n  addi r31, r0, 0x8000\n{loads}\n{uses}\n  halt"
    cfg = ChipConfig(p=1, cache=CacheConfig(d_miss_latency=64))
    res = run(cfg, assemble(src))
    assert res.outcome is Outcome.COMPLETED
    assert 30 <= res.metrics.max_pending_cells <= 31


def test_run_rejects_image_larger_than_memory():
    with pytest.raises(ValueError, match="68 bytes exceeds the 64-byte memory"):
        run(ChipConfig(p=1, mem_bytes=64), assemble(".body main\nhalt"),
            bytes(68))


def test_run_rejects_invalid_program():
    bad = assemble(".body main\n  create r1, r2, nosuch, 0, 1, 1\n  halt")
    with pytest.raises(ValueError, match="unknown entry"):
        run(ChipConfig(p=1), bad)


def test_no_lost_wakeups_waiter_ledger_empty_at_completion():
    spec = kernel_chain(n=16)
    res = run(ChipConfig(p=4, thread_slots=4), spec.program)
    assert res.outcome is Outcome.COMPLETED
    assert res.metrics.suspended_at_end == 0


def test_family_with_stride_and_negative_step():
    src = """
    .body main
      allocate r1, 0
      addi r10, r0, 0
      addi r11, r0, 0
      create r2, r1, w, 10, 0, -2
      sync r3, r2
      add r0, r3, r0
      release r1
      halt
    .body w
      getidx r1
      addi r2, r0, 4
      mul r3, r1, r2
      addi r4, r0, 0x3000
      add r4, r4, r3
      st r1, 0(r4)
      halt
    """
    program = assemble(src)
    oracle = sequential_oracle(program)
    for p in (1, 3):
        res = run(ChipConfig(p=p), program)
        assert res.outcome is Outcome.COMPLETED
        assert res.final_memory == oracle.final_memory
    got = [int.from_bytes(res.final_memory[0x3000 + 4 * i:0x3004 + 4 * i],
                          "little") for i in (2, 4, 6, 8, 10)]
    assert got == [2, 4, 6, 8, 10]


def test_bulk_store_invisible_to_concurrent_family():
    # writer family stores then spins; a probe family created while the
    # writer is live must not see the store under BULK, and a second probe
    # created after the writer's sync must
    src = """
    .body main
      allocate r1, 1
      addi r20, r0, 0
      addi r21, r0, 0
      create r2, r1, writer, 0, 1, 1
      addi r22, r0, 0
      addi r23, r0, 0
      create r3, r1, early, 0, 1, 1
      sync r4, r3
      add r0, r4, r0
      sync r5, r2
      add r0, r5, r0
      create r6, r1, late, 0, 1, 1
      sync r7, r6
      add r0, r7, r0
      release r1
      halt
    .body writer
      addi r1, r0, 42
      addi r2, r0, 0x600
      st r1, 0(r2)
      addi r3, r0, 150
    spin:
      addi r3, r3, -1
      bne r3, r0, spin
      halt
    .body early
      addi r1, r0, 0x600
      ld r2, 0(r1)
      addi r3, r0, 0x700
      st r2, 0(r3)
      halt
    .body late
      addi r1, r0, 0x600
      ld r2, 0(r1)
      addi r3, r0, 0x704
      st r2, 4(r3)
      halt
    """
    program = assemble(src)

    def words(res):
        early = int.from_bytes(res.final_memory[0x700:0x704], "little")
        late = int.from_bytes(res.final_memory[0x708:0x70c], "little")
        return early, late

    bulk = run(ChipConfig(p=1, coherency="bulk"), program)
    assert bulk.outcome is Outcome.COMPLETED
    assert words(bulk) == (0, 42)    # invisible before flush, visible after
    eager = run(ChipConfig(p=1, coherency="eager"), program)
    assert words(eager) == (42, 42)  # propagated as soon as it was stored


def test_family_ids_follow_creation_order():
    # three levels: the root creates outer on core 0, outer creates leaf on
    # the free core 1 (sibling spans must be disjoint, so the nested
    # allocation has to go remote)
    src = """
    .body main
      allocate r1, 1
      addi r10, r0, 0
      addi r11, r0, 0
      create r2, r1, outer, 0, 1, 1
      sync r3, r2
      add r0, r3, r0
      release r1
      halt
    .body outer
      addi r9, r0, 1
      allocate r4, 1, r9
      addi r12, r0, 0
      addi r13, r0, 0
      create r5, r4, leaf, 0, 1, 1
      sync r6, r5
      add r0, r6, r0
      release r4
      halt
    .body leaf
      halt
    """
    res = run(ChipConfig(p=2, trace=True), assemble(src))
    assert res.outcome is Outcome.COMPLETED
    first_commit = {}
    for row in res.trace:
        first_commit.setdefault(row[3], row[0])
    assert sorted(first_commit) == [1, 2, 3]
    # a creator commits before any thread of the family it created: ids are
    # strictly hierarchical
    assert first_commit[1] < first_commit[2] < first_commit[3]


def test_contiguous_index_partition_under_multiplexing():
    # 100 logical threads on 2 cores with 8 slots each: each core runs its
    # contiguous 50-index share, multiplexed over the slots in index order
    src = """
    .body main
      allocate r1, 0
      addi r10, r0, 0
      addi r11, r0, 0
      create r2, r1, w, 0, 100, 1
      sync r3, r2
      add r0, r3, r0
      release r1
      halt
    .body w
      getidx r1
      addi r2, r0, 4
      mul r3, r1, r2
      addi r4, r0, 0x4000
      add r4, r4, r3
      st r1, 0(r4)
      halt
    """
    program = assemble(src)
    res = run(ChipConfig(p=2, thread_slots=8, trace=True), program)
    assert res.outcome is Outcome.COMPLETED
    assert res.final_memory == sequential_oracle(program).final_memory
    core_of = {}
    start_cycle = {}
    for cycle, core, slot, fam, idx, pc, op in res.trace:
        if fam == 2:
            core_of.setdefault(idx, core)
            start_cycle.setdefault(idx, cycle)
    assert sorted(core_of) == list(range(100))      # completion set
    assert all(core_of[i] == 0 for i in range(50))
    assert all(core_of[i] == 1 for i in range(50, 100))
    # slot reuse starts logical indices in ascending order per core
    for lo, hi in ((0, 50), (50, 100)):
        starts = [start_cycle[i] for i in range(lo, hi)]
        assert starts == sorted(starts)


def test_runs_do_not_pile_up_memory_images():
    # each chip is a reference cycle, freed only by a full collection; its
    # 1 MB memory image must not wait for one
    program = kernel_regular(n=8).program
    run(ChipConfig(p=2), program)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            run(ChipConfig(p=2), program)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 3 << 20


def test_quiescent_false_while_request_queued_or_fill_due():
    def chip():
        return Chip(ChipConfig(p=2), assemble(".body main\nhalt"))

    idle = chip()
    assert idle.quiescent()
    idle.tmus[1].enqueue(lambda cycle: None)
    assert not idle.quiescent()

    for start_fill in (lambda m: m.icache_probe(1, 0, 0),
                       lambda m: m.load(0, 0x100, 1, 0, lambda v: None)):
        filling = chip()
        start_fill(filling.memory)
        assert not filling.quiescent()
        for c in range(filling.config.cache.d_miss_latency + 1):
            for cb, value in filling.memory.step(c):
                cb(value)
        assert filling.quiescent()


def test_tmus_run_the_cycle_after_their_requests_in_core_order(monkeypatch):
    # every request queued in a core phase runs in the next cycle's TMU phase,
    # one step per TMU, in ascending core id
    queued, stepped = [], []
    enqueue, step = Tmu.enqueue, Tmu.step

    def record_enqueue(tmu, method, *args):
        queued.append((tmu.chip.cycle, tmu.cid))
        enqueue(tmu, method, *args)

    def record_step(tmu, cycle):
        stepped.append((cycle, tmu.cid))
        step(tmu, cycle)

    monkeypatch.setattr(Tmu, "enqueue", record_enqueue)
    monkeypatch.setattr(Tmu, "step", record_step)
    res = run(ChipConfig(p=4), kernel_regular(n=16).program)
    assert res.outcome is Outcome.COMPLETED
    assert stepped == sorted({(c + 1, cid) for c, cid in queued})
    per_cycle = {}
    for c, cid in set(queued):
        per_cycle.setdefault(c, []).append(cid)
    assert any(len(cids) > 1 for cids in per_cycle.values())


# -- runs whose deciding event falls while one core is the only awake core ----

# main spins alone, then faults on an unaligned load
SPIN_FAULT = """
.body main
  addi r1, r0, 200
loop:
  addi r1, r1, -1
  bne r1, r0, loop
  addi r2, r0, 2
  ld r3, 0(r2)
  halt
"""

# a two-thread family over two cores: thread {faulting} spins alone and then
# faults, while main waits on its sync and the other thread on a channel
# value that never comes, so the other core idles
LONE_FAULT = """
.body main
  allocate r1, 2
  create r2, r1, w, 0, 2, 1
  sync r4, r2
  add r0, r4, r0
  release r1
  halt
.body w
  getidx r5
  addi r6, r0, {faulting}
  bne r5, r6, wait
  addi r7, r0, 100
spin:
  addi r7, r7, -1
  bne r7, r0, spin
  ld r6, 2(r0)
  halt
wait:
  getsh r8
  halt
"""

# main halts without syncing its family, so the root family completes while
# the family's thread is still spinning on the same core; the run ends only
# when that family has completed too
ROOT_DONE_EARLY = """
.body main
  allocate r1, 1
  addi r10, r0, 0
  addi r11, r0, 0
  create r2, r1, w, 0, 1, 1
  addi r5, r0, 60
wait:
  addi r5, r5, -1
  bne r5, r0, wait
  halt
.body w
  addi r3, r0, 300
spin:
  addi r3, r3, -1
  bne r3, r0, spin
  halt
"""


# main spins alone, then waits on a channel value that never comes
SPIN_DEADLOCK = """
.body main
  addi r1, r0, 200
loop:
  addi r1, r1, -1
  bne r1, r0, loop
  getsh r2
  halt
"""

# main asks for more cores than there are and spins alone between denials,
# so the starvation check fires while it spins
STARVE_BACKOFF = """
.body main
retry:
  allocate r1, 2
  beq r1, r0, backoff
  release r1
  halt
backoff:
  addi r2, r0, 300
wait:
  addi r2, r2, -1
  bne r2, r0, wait
  jmp retry
"""


def _miss_latency(n):
    return dict(p=1, cache=CacheConfig(d_miss_latency=n, i_miss_latency=n))


# (id, program factory, config fields, outcome, cycles, per-core bubbles,
# traced result_hash); scripts/stress_grid.py runs these too
LONE_CORE_RUNS = [
    ("watchdog-p1", lambda: kernel_heterogeneous().program,
     dict(p=1, watchdog_cycles=997), Outcome.WATCHDOG_TIMEOUT, 997, [10],
     "b4cf058d3a03331536e1c5be32ddf0557acdbe36b0980fe3dd831a83f8412fae"),
    ("fault-p1", lambda: assemble(SPIN_FAULT), dict(p=1), Outcome.FAULT,
     1017, [613],
     "3f9f7246ab8683a3c4db311ebfd9f533fdb40b6628fa2b2b9fed33cf72066b15"),
    ("fault-p2-core0", lambda: assemble(LONE_FAULT.format(faulting=0)),
     dict(p=2), Outcome.FAULT, 535, [317, 506],
     "db8227cfa60845ddaa67d38570a07320de35aa1e75baef66e415d6ffaca06841"),
    ("fault-p2-core1", lambda: assemble(LONE_FAULT.format(faulting=1)),
     dict(p=2), Outcome.FAULT, 546, [530, 316],
     "400878cffc2078ce0f244bb72b38ea125e55fef0c26ad50441139d938d87c9c6"),
    ("fills-latency-1", lambda: kernel_loaduse(threads=2, iters=4).program,
     _miss_latency(1), Outcome.COMPLETED, 565, [117],
     "e5aef24f774ce3f5b7990e28f040a5a3abae19958499bf689eeb1647a4c75299"),
    ("fills-latency-3", lambda: kernel_loaduse(threads=2, iters=4).program,
     _miss_latency(3), Outcome.COMPLETED, 590, [139],
     "a5e1473de32513a3c8329301074e9e5f60267f34741d488258a5031429c3455c"),
    ("fills-latency-40", lambda: kernel_loaduse(threads=2, iters=4).program,
     _miss_latency(40), Outcome.COMPLETED, 766, [316],
     "d914e8596325ff825b16b489db02cfc107ddaa8ac8fbb322724bdd8848d6628b"),
    ("deadlock-p1", lambda: assemble(SPIN_DEADLOCK),
     dict(p=1, watchdog_cycles=100_000),
     Outcome.DEADLOCK_DATAFLOW, 1023, [620],
     "a9fceda6bf980410d79737f90f34cb92668ba1fb1b3d86f4ced36d45d1030d97"),
    ("starvation-p1", lambda: assemble(STARVE_BACKOFF),
     dict(p=1, watchdog_cycles=100_000),
     Outcome.DEADLOCK_STARVATION, 2048, [1233],
     "a853479fd9b8adc1bd115b3a3db83abc68d598daa644b4b87e90491ee5123925"),
    ("root-done-early-p1", lambda: assemble(ROOT_DONE_EARLY), dict(p=1),
     Outcome.COMPLETED, 1533, [799],
     "8cd87478eedb835891587caa70020fc37b1c5f858ed627a5d36d7a69aa0d18a0"),
]


@pytest.mark.parametrize("make, cfg, outcome, cycles, bubbles, digest",
                         [run[1:] for run in LONE_CORE_RUNS],
                         ids=[run[0] for run in LONE_CORE_RUNS])
def test_lone_core_run_pinned(make, cfg, outcome, cycles, bubbles, digest):
    res = run(ChipConfig(trace=True, **cfg), make())
    assert res.outcome is outcome
    assert res.metrics.cycles == cycles
    assert [c.bubbles for c in res.metrics.per_core] == bubbles
    assert res.result_hash() == digest


# -- runs whose deciding event falls while two or more cores are awake --------

# a three-thread family over three cores: thread 1 spins briefly and then
# stores to an unaligned address on core 1, while threads 0 and 2 still spin
# on cores 0 and 2
SPIN_STORE_FAULT = """
.body main
  allocate r1, 3
  create r2, r1, w, 0, 3, 1
  sync r4, r2
  add r0, r4, r0
  release r1
  halt
.body w
  getidx r5
  addi r6, r0, 1
  addi r7, r0, 150
  bne r5, r6, spin
  addi r7, r0, 40
spin:
  addi r7, r7, -1
  bne r7, r0, spin
  bne r5, r6, done
  addi r8, r0, 2
  st r8, 0(r8)
done:
  halt
"""

# a two-thread family over two cores: each thread spins, then waits on a
# channel value that never comes; core 1 goes idle three cycles before core 0
STAGGERED_IDLE = """
.body main
  allocate r1, 2
  create r2, r1, w, 0, 2, 1
  sync r4, r2
  add r0, r4, r0
  release r1
  halt
.body w
  getidx r5
  addi r7, r0, 40
  beq r5, r0, spin
  addi r7, r0, 37
spin:
  addi r7, r7, -1
  bne r7, r0, spin
  getsh r8
  halt
"""


# a two-thread family over two of four cores: each thread asks for all four
# cores, and after each denial spins 250 or 310 times before it asks again,
# so the starvation check fires while both cores spin
BACKOFF_STARVATION = """
.body main
  allocate r1, 2
  create r2, r1, w, 0, 2, 1
  sync r3, r2
  add r0, r3, r0
  release r1
  halt
.body w
  getidx r6
  addi r7, r0, 250
  beq r6, r0, retry
  addi r7, r0, 310
retry:
  allocate r4, 4
  beq r4, r0, backoff
  release r4
  halt
backoff:
  add r5, r7, r0
wait:
  addi r5, r5, -1
  bne r5, r0, wait
  jmp retry
"""


def _cold_icache(n):
    return dict(p=4, cache=CacheConfig(i_miss_latency=n))


# (id, program factory, config fields, outcome, cycles, per-core bubbles,
# traced result_hash); scripts/stress_grid.py runs these too
MANY_AWAKE_RUNS = [
    ("watchdog-p4", lambda: kernel_heterogeneous().program,
     dict(p=4, watchdog_cycles=997), Outcome.WATCHDOG_TIMEOUT, 997,
     [10, 10, 10, 10],
     "9c3a357dd6ad71fadfeab1b2c2422928077d46d7b166aa0623d15e582c0e1abd"),
    ("store-fault-core1", lambda: assemble(SPIN_STORE_FAULT), dict(p=3),
     Outcome.FAULT, 252, [147, 139, 139],
     "bc319f31fdb555763156a085a5da99006faac767b4ca5f210e26d303035960c0"),
    ("starvation-check7-p4", lambda: kernel_starvation(4).program,
     dict(p=4, starvation_check=7), Outcome.DEADLOCK_STARVATION, 2044,
     [1470, 0, 1461, 0],
     "827be41a1cd731c3207cd76e01713c0c2d86fad1170bf77eea512cb7a3b7f383"),
    ("backoff-starvation-check7-p4", lambda: assemble(BACKOFF_STARVATION),
     dict(p=4, starvation_check=7), Outcome.DEADLOCK_STARVATION, 2030,
     [1216, 1207, 0, 0],
     "f6669a0381a117c1bb962c932707f33633c7fee1365c0d9c9da66d52942a99ee"),
    ("cold-icache-latency-1", lambda: kernel_heterogeneous(n=16).program,
     _cold_icache(1), Outcome.COMPLETED, 1866, [1614, 70, 70, 70],
     "0534deebea4aad3e6351afa99d9c5d7b6b3b715c2949bff31a422033f519c671"),
    ("cold-icache-latency-2", lambda: kernel_heterogeneous(n=16).program,
     _cold_icache(2), Outcome.COMPLETED, 1868, [1616, 71, 71, 71],
     "227b790f45f68c6373b31f3138dd6c83dbfeda2d581927d84c1cecf358f1e436"),
    ("cold-icache-latency-3", lambda: kernel_heterogeneous(n=16).program,
     _cold_icache(3), Outcome.COMPLETED, 1870, [1618, 72, 72, 72],
     "37e1bdc86a6f281573f182542a47a2baac41c8b9864f192a133a03f1281db9ce"),
    ("staggered-idle-deadlock-p2", lambda: assemble(STAGGERED_IDLE),
     dict(p=2), Outcome.DEADLOCK_DATAFLOW, 240, [143, 136],
     "e490d29a771354f212cdacd2f59098865dc00c3f0bc6bc15261e402c75aa039a"),
]


@pytest.mark.parametrize("make, cfg, outcome, cycles, bubbles, digest",
                         [run[1:] for run in MANY_AWAKE_RUNS],
                         ids=[run[0] for run in MANY_AWAKE_RUNS])
def test_many_awake_run_pinned(make, cfg, outcome, cycles, bubbles, digest):
    res = run(ChipConfig(trace=True, **cfg), make())
    assert res.outcome is outcome
    assert res.metrics.cycles == cycles
    assert [c.bubbles for c in res.metrics.per_core] == bubbles
    assert res.result_hash() == digest


# -- runs whose cycles are mostly spent with no core awake --------------------

# main loads a cold word, uses it, then waits on a channel value that never
# comes: the load's fill is the only event in a long idle stretch, and the
# deadlock verdict falls just after it
LOAD_THEN_DEADLOCK = """
.body main
  addi r1, r0, 0x100
  ld r2, 0(r1)
  add r3, r2, r2
  getsh r4
  halt
"""


def _latency_slots2(n, **cfg):
    return dict(p=1, thread_slots=2, cache=CacheConfig(d_miss_latency=n),
                **cfg)


# (id, program factory, config fields, outcome, cycles, commits, per-core
# bubbles, traced result_hash); kernel_regular(n=256) with two thread slots
# and 10,000-cycle D-fills idles on 642,324 of its 647,660 cycles, and the
# watchdog deadlines and starvation checks below fall inside those stretches;
# scripts/stress_grid.py runs these too
IDLE_STRETCH_RUNS = [
    ("latency-10000", lambda: kernel_regular(n=256).program,
     _latency_slots2(10_000), Outcome.COMPLETED, 647_660, 5_140, [642_324],
     "68285a7c71906a6aee45ab9887d736c0b816b51a90443727125e7c345a33c408"),
    ("latency-10000-watchdog-5000", lambda: kernel_regular(n=256).program,
     _latency_slots2(10_000, watchdog_cycles=5_000),
     Outcome.WATCHDOG_TIMEOUT, 5_000, 1_816, [3_180],
     "e23ac70503b0f0c15675741e0ee97a721dfd38877ac4282518d82979d815d5a5"),
    ("latency-10000-watchdog-30001", lambda: kernel_regular(n=256).program,
     _latency_slots2(10_000, watchdog_cycles=30_001),
     Outcome.WATCHDOG_TIMEOUT, 30_001, 1_920, [28_071],
     "170f9faa846695ca24f71c54f5356c18d478f11f8fa300f319312e67a73c80f9"),
    ("latency-10000-check7", lambda: kernel_regular(n=256).program,
     _latency_slots2(10_000, starvation_check=7), Outcome.COMPLETED,
     647_660, 5_140, [642_324],
     "68285a7c71906a6aee45ab9887d736c0b816b51a90443727125e7c345a33c408"),
    ("latency-10000-check997", lambda: kernel_regular(n=256).program,
     _latency_slots2(10_000, starvation_check=997), Outcome.COMPLETED,
     647_660, 5_140, [642_324],
     "68285a7c71906a6aee45ab9887d736c0b816b51a90443727125e7c345a33c408"),
    ("load-then-deadlock-p1", lambda: assemble(LOAD_THEN_DEADLOCK),
     dict(p=1, cache=CacheConfig(d_miss_latency=5_000)),
     Outcome.DEADLOCK_DATAFLOW, 5_023, 3, [5_015],
     "264dd1c47f65ad1ea37c6959c81794715d664e0bff2734ad64cb64fd06e373f0"),
    ("load-then-deadlock-p2", lambda: assemble(LOAD_THEN_DEADLOCK),
     dict(p=2, cache=CacheConfig(d_miss_latency=5_000)),
     Outcome.DEADLOCK_DATAFLOW, 5_023, 3, [5_015, 0],
     "b10285b326eb7d71f45ac5a38ae0d318f7991ea98219a21266c2bdb693779c21"),
]


@pytest.mark.parametrize(("make, cfg, outcome, cycles, commits, bubbles, "
                          "digest"), [run[1:] for run in IDLE_STRETCH_RUNS],
                         ids=[run[0] for run in IDLE_STRETCH_RUNS])
def test_idle_stretch_run_pinned(make, cfg, outcome, cycles, commits, bubbles,
                                 digest):
    res = run(ChipConfig(trace=True, **cfg), make())
    assert res.outcome is outcome
    assert res.metrics.cycles == cycles
    assert res.metrics.commits == commits
    assert [c.bubbles for c in res.metrics.per_core] == bubbles
    assert res.result_hash() == digest


# -- runs whose memory, NoC or TMU phase acts while one core is awake ---------

# main spins on core 0 while the family's creation reaches core 1, then waits
# on the family's tail; thread 0 spins on core 0 and sends its channel value
# to thread 1 on core 1, which spins alone, sends the tail to main on core 0
# and spins on
CROSS_WAKE = """
.body main
  allocate r1, 2
  create r2, r1, w, 0, 2, 1
  addi r9, r0, 60
spin:
  addi r9, r9, -1
  bne r9, r0, spin
  getsh r8, r2
  add r0, r8, r0
  sync r4, r2
  add r0, r4, r0
  release r1
  halt
.body w
  getidx r5
  bne r5, r0, second
  addi r7, r0, 100
first:
  addi r7, r7, -1
  bne r7, r0, first
  addi r6, r0, 7
  putsh r6
  halt
second:
  getsh r6
  addi r7, r0, 100
loop:
  addi r7, r7, -1
  bne r7, r0, loop
  add r6, r6, r6
  putsh r6
  addi r7, r0, 20
after:
  addi r7, r7, -1
  bne r7, r0, after
  halt
"""

# thread 1 spins alone on core 1 and releases an allocation that does not
# exist, while main waits on core 0 for the family's sync
UNKNOWN_RELEASE = """
.body main
  allocate r1, 2
  create r2, r1, w, 0, 2, 1
  sync r4, r2
  add r0, r4, r0
  release r1
  halt
.body w
  getidx r5
  beq r5, r0, done
  addi r7, r0, 50
spin:
  addi r7, r7, -1
  bne r7, r0, spin
  addi r6, r0, 99
  release r6
done:
  halt
"""

# (id, program factory, config fields, outcome, diagnostic, cycles, per-core
# bubbles, traced result_hash): the creation, the channel value and the tail
# of cross-wake each wake the other core, and unknown-release faults in its
# TMU phase while core 1 is the only awake core; scripts/stress_grid.py runs
# these too
LONE_PHASE_RUNS = [
    ("cross-wake-p2", lambda: assemble(CROSS_WAKE), dict(p=2),
     Outcome.COMPLETED, None, 1164, [817, 874],
     "e8329fc560542d60b85dfc54d7cf732372fcf6910617115187118caa425500a7"),
    ("unknown-release-core1", lambda: assemble(UNKNOWN_RELEASE), dict(p=2),
     Outcome.FAULT, "release of unknown or already released allocation 99",
     296, [281, 166],
     "0c11f3659feab5741ce365917b8b64a7cd3eb5c9698423ed8e2f3ab83ae2622f"),
]


@pytest.mark.parametrize(("make, cfg, outcome, diagnostic, cycles, bubbles, "
                          "digest"), [run[1:] for run in LONE_PHASE_RUNS],
                         ids=[run[0] for run in LONE_PHASE_RUNS])
def test_lone_phase_run_pinned(make, cfg, outcome, diagnostic, cycles,
                               bubbles, digest):
    res = run(ChipConfig(trace=True, **cfg), make())
    assert res.outcome is outcome
    assert res.diagnostic == diagnostic
    assert res.metrics.cycles == cycles
    assert [c.bubbles for c in res.metrics.per_core] == bubbles
    assert res.result_hash() == digest


def test_lone_step_that_wakes_a_core_hands_the_chip_its_cycle(monkeypatch):
    # a phase run in a lone core's step that wakes another core ends the
    # call; the chip then steps both cores from the cycle it returned, never
    # the woken core from the cycle the lone call began
    calls = []
    step = Core.step

    def record(core, cycle, stop):
        alone = len(core.chip.awake) == 1
        end = step(core, cycle, stop)
        calls.append((core.cid, cycle, end,
                      alone and len(core.chip.awake) > 1))
        return end

    monkeypatch.setattr(Core, "step", record)
    res = run(ChipConfig(p=2), assemble(CROSS_WAKE))
    assert res.outcome is Outcome.COMPLETED
    woke = [i for i, call in enumerate(calls) if call[3]]
    # the creation and the channel value wake core 1, the tail core 0
    assert [calls[i][0] for i in woke] == [0, 0, 1]
    for i in woke:
        assert [call[:2] for call in calls[i + 1:i + 3]] == \
            [(0, calls[i][2]), (1, calls[i][2])]


def test_phase_fault_in_a_lone_step_comes_before_the_core_phase(monkeypatch):
    # unknown-release faults in the TMU phase that core 1's step runs alone;
    # as for a fault in the chip loop's phases, idle core 0 has not passed
    # that cycle and counts no bubble for it
    faults = []
    step = Core.step

    def record(core, cycle, stop):
        try:
            return step(core, cycle, stop)
        except SimFault:
            faults.append((core.cid, core.chip.cycle))
            raise

    monkeypatch.setattr(Core, "step", record)
    res = run(ChipConfig(p=2), assemble(UNKNOWN_RELEASE))
    assert res.outcome is Outcome.FAULT
    assert faults == [(1, res.metrics.cycles)]
    assert [c.bubbles for c in res.metrics.per_core] == [281, 166]


def test_idle_jump_does_not_stop_at_starvation_checks(monkeypatch):
    # with no core awake every live thread is suspended, so a starvation
    # check there finds no runnable thread; the 10,000-latency run, idle on
    # 642,324 of its cycles, made 5,059 checks while the jump stopped at them
    calls = []
    check = sim._check_starvation

    def record(chip, cycle):
        calls.append(cycle)
        return check(chip, cycle)

    monkeypatch.setattr(sim, "_check_starvation", record)
    make, cfg, outcome, cycles, *_ = IDLE_STRETCH_RUNS[0][1:]
    res = run(ChipConfig(**cfg), make())
    assert (res.outcome, res.metrics.cycles) == (outcome, cycles)
    assert len(calls) == 61


# (id, program factory, traced result_hash) of completed p=1 runs, which
# starvation_check 1, 7 and 128 must all leave unchanged;
# scripts/stress_grid.py runs these too
STARVATION_CHECK_RUNS = [
    ("regular", lambda: kernel_regular(n=32).program,
     "4f5c15a828eb970f548257725700eb11d8c1b351689ed34f3955d86431534e84"),
    ("heterogeneous", lambda: kernel_heterogeneous(n=16).program,
     "d6cb56e9e9672d89f773e96d0fd4d4df531a860f80b064169bd592b157621373"),
    ("chain", lambda: kernel_chain(n=24).program,
     "5a94bf7bad6ed1ba9fbd0be9c763b32cb7399caf217450140d7fcf971c509294"),
    ("loaduse", lambda: kernel_loaduse(threads=2, iters=4).program,
     "5d412f836d0b9f932b52f3b64de8156daa421f37a79eb7d6d17b81d6551a15bf"),
    ("starvation_ok", lambda: kernel_starvation(1, satisfiable=True).program,
     "6c9d2ff19b5a3246e54923a78a3f00a23f3e6aa990b7f1c3e2c5528544e1d066"),
]
STARVATION_CHECKS = (1, 7, 128)


@pytest.mark.parametrize("make, digest",
                         [run[1:] for run in STARVATION_CHECK_RUNS],
                         ids=[run[0] for run in STARVATION_CHECK_RUNS])
def test_completed_p1_hash_independent_of_starvation_check(make, digest):
    program = make()
    for check in STARVATION_CHECKS:
        res = run(ChipConfig(p=1, starvation_check=check, trace=True), program)
        assert res.outcome is Outcome.COMPLETED
        assert res.result_hash() == digest


# -- a run completes only when every family has completed ---------------------

# main creates a family and halts without syncing it; the family's thread
# spins, then stores 7 at 0x400 (or, with {tail} set, waits on a channel value
# that no thread sends)
UNSYNCED = """
.body main
  allocate r1, 1
  create r2, r1, w, 0, 1, 1
  halt
.body w
  addi r3, r0, 300
spin:
  addi r3, r3, -1
  bne r3, r0, spin
  {tail}
  addi r4, r0, 7
  st r4, 0x400(r0)
  halt
"""


@pytest.mark.parametrize("p", [1, 2, 8])
@pytest.mark.parametrize("coherency", ["eager", "bulk"])
def test_unsynced_family_runs_to_its_end(p, coherency):
    program = assemble(UNSYNCED.format(tail=""))
    res = run(ChipConfig(p=p, coherency=coherency), program)
    assert res.outcome is Outcome.COMPLETED
    assert res.final_memory == sequential_oracle(program).final_memory
    assert res.final_memory[0x400:0x404] == (7).to_bytes(4, "little")


def test_unsynced_family_runs_through_starvation_checks():
    # the family spins alone past many checks, each one past the window, and
    # none of them ends the run
    program = assemble(UNSYNCED.format(tail=""))
    res = run(ChipConfig(p=1, starvation_window=16, starvation_check=8),
              program)
    assert res.outcome is Outcome.COMPLETED
    assert res.metrics.cycles > 64 * 8
    assert res.final_memory == sequential_oracle(program).final_memory


@pytest.mark.parametrize("p", [1, 2])
def test_unsynced_family_deadlock_after_main_halts(p):
    res = run(ChipConfig(p=p, watchdog_cycles=100_000),
              assemble(UNSYNCED.format(tail="getsh r5")))
    assert res.outcome is Outcome.DEADLOCK_DATAFLOW
    assert res.diagnostic == "unsatisfiable waits: family 2 index 0"
    assert res.metrics.cycles > 1000
    assert res.final_memory is None


# -- instructions that read a cell they also write ------------------------------

# ld and st whose address register is also their destination or data; the
# addi behind the st overwrites the st's operands while the st is still in
# flight
SELF_MEMORY = """
.body main
  addi r7, r0, 0x100
  addi r8, r0, 0x108
  st r8, 0(r7)
  ld r7, 0(r7)
  st r7, 4(r7)
  addi r3, r0, 0x200
  st r3, 0(r3)
  addi r3, r0, 5
  st r3, 0x204(r0)
  halt
"""

# allocate, create and sync into the register they read, over every core; each
# thread stores its slot address at that address and loads it back into the
# same register
SELF_FAMILY = """
.body main
  allocate r6, 0, r6
  add r1, r6, r0
  create r1, r1, w, 0, 6, 1
  add r2, r1, r0
  sync r2, r2
  st r2, 0x300(r0)
  halt
.body w
  getidx r1
  addi r2, r0, 4
  mul r3, r1, r2
  addi r3, r3, 0x400
  st r3, 0(r3)
  ld r3, 0(r3)
  st r1, 0x40(r3)
  halt
"""

# a seeded channel chain whose tail main reads into the register that held
# the family id
SELF_TAIL = """
.body main
  allocate r1, 0
  addi r2, r0, 10
  create r3, r1, w, 0, 4, 1, r2
  add r4, r3, r0
  getsh r3, r3
  sync r5, r4
  add r0, r5, r0
  st r3, 0x500(r0)
  release r1
  halt
.body w
  getsh r1
  getidx r2
  add r1, r1, r2
  putsh r1
  halt
"""

# (id, program text, {(p, coherency): traced result_hash});
# scripts/stress_grid.py runs these too
SELF_OPERAND_RUNS = [
    ("memory", SELF_MEMORY, {
        (1, "eager"):
            "4029a03166586a2cfb17984503fdbc2f715c796f5b1defb0863e9dda234afae8",
        (1, "bulk"):
            "780a333d12d3ae05fb803e06801a494bc3cfcb303255e97f72bec1363d4ee66b",
        (2, "eager"):
            "8e2e85016c5d89bd2481469538544402a1848f9428c33bf6d47a91c85f23e1c6",
        (2, "bulk"):
            "811718a61b22cfbf158576e8962a5439112e0ed69d2c13d66a14eab351da8f7f",
    }),
    ("family", SELF_FAMILY, {
        (1, "eager"):
            "0843eb1e0e71c5d865c8cc54444276b4a0b3f9653ea896b008ffc9a1ae2d95f6",
        (1, "bulk"):
            "52c37a0d6b9152c1fa46d15fccee6910a2c1a0262ca536d52ba45cc5ad23654d",
        (2, "eager"):
            "7a5a5f510c47266093d0732e897c2f8b5c9c02373e02f31cf509d5d4f8353b3f",
        (2, "bulk"):
            "4a2accd80432c8d798cdd31309365d6766188789b4f9f1b31aa0f5b963da0123",
    }),
    ("tail", SELF_TAIL, {
        (1, "eager"):
            "ae66e1fa53515fabb2787ba2a3aec9d70021e5eb33911254614e558d9655934a",
        (1, "bulk"):
            "ae66e1fa53515fabb2787ba2a3aec9d70021e5eb33911254614e558d9655934a",
        (2, "eager"):
            "062f0097a9efd05a742e3a4f565a1df66a79fc216ebadb5446cb45bcc1fb98df",
        (2, "bulk"):
            "062f0097a9efd05a742e3a4f565a1df66a79fc216ebadb5446cb45bcc1fb98df",
    }),
]
SELF_OPERAND_CONFIGS = [(p, coherency) for p in (1, 2)
                        for coherency in ("eager", "bulk")]


@pytest.mark.parametrize("text, digests",
                         [run[1:] for run in SELF_OPERAND_RUNS],
                         ids=[run[0] for run in SELF_OPERAND_RUNS])
def test_self_operand_runs_match_oracle_pinned(text, digests):
    program = assemble(text)
    image = sequential_oracle(program).final_memory
    for p, coherency in SELF_OPERAND_CONFIGS:
        res = run(ChipConfig(p=p, coherency=coherency, trace=True), program)
        assert res.outcome is Outcome.COMPLETED
        assert res.final_memory == image
        assert res.result_hash() == digests[p, coherency]


# -- the fast chip loop against lockstep ----------------------------------------

def lockstep(chip, cycle):
    # sim._stop's stand-in for the lockstep loop: every core phase runs one
    # cycle, so each awake core steps one cycle per call and the clock never
    # jumps
    return cycle + 1


def pinned_runs():
    """(label, config, program, traced result_hash or None where none is
    pinned) for every run pinned above, in a fixed order; the lockstep test
    runs them, and scripts/stress_grid.py prints them after its grid."""
    for name, make, cfg, *_, digest in NON_COMPLETED_RUNS:
        yield name, ChipConfig(trace=True, **cfg), make(), digest
    for name, text in (("tail", TAIL_DEADLOCK), ("sync", SYNC_DEADLOCK)):
        for p in (1, 2):
            yield (f"{name}-deadlock-p{p}",
                   ChipConfig(p=p, watchdog_cycles=100_000, trace=True),
                   assemble(text), None)
    for prefix, runs in (("lone", LONE_CORE_RUNS), ("many", MANY_AWAKE_RUNS)):
        for name, make, cfg, *_, digest in runs:
            yield f"{prefix}-{name}", ChipConfig(trace=True, **cfg), make(), \
                digest
    for name, make, digest in STARVATION_CHECK_RUNS:
        for check in STARVATION_CHECKS:
            yield (f"{name}-p1-check{check}",
                   ChipConfig(p=1, starvation_check=check, trace=True), make(),
                   digest)
    for name, text, digests in SELF_OPERAND_RUNS:
        for p, coherency in SELF_OPERAND_CONFIGS:
            yield (f"self-{name}-p{p}-{coherency}",
                   ChipConfig(p=p, coherency=coherency, trace=True),
                   assemble(text), digests[p, coherency])
    for prefix, runs in (("idle", IDLE_STRETCH_RUNS),
                         ("phase", LONE_PHASE_RUNS)):
        for name, make, cfg, *_, digest in runs:
            yield f"{prefix}-{name}", ChipConfig(trace=True, **cfg), make(), \
                digest


def lockstep_cells():
    """Traced (config, program) cells: the corpus kernels (heterogeneous at
    n=16, to keep the test short; the stress grid runs it at full size) at
    p = 1, 2, 3, 4 and 8, eager and bulk; heterogeneous at p=4 with I-fills
    of 1 to 4 cycles; and a few cells with one or three thread slots, one- or
    two-line caches, hop latencies 0 and 5, and hints off."""
    def program(kernel, p):
        gen = GENERATORS[kernel]
        if kernel == "starvation":
            return gen(p, satisfiable=True).program
        return (gen(n=16) if kernel == "heterogeneous" else gen()).program

    cells = [(ChipConfig(p=p, coherency=coherency, trace=True),
              program(kernel, p))
             for kernel in GENERATORS for p in (1, 2, 3, 4, 8)
             for coherency in ("eager", "bulk")]
    cells += [(ChipConfig(p=4, cache=CacheConfig(i_miss_latency=n),
                          trace=True), program("heterogeneous", 4))
              for n in (1, 2, 3, 4)]
    for kernel, p, slots, lines, hop, hints in [
            ("chain", 3, 1, 1, 5, True), ("regular", 3, 3, 2, 0, False),
            ("loaduse", 8, 1, 2, 5, True), ("starvation", 8, 3, 1, 0, True)]:
        cells.append((ChipConfig(p=p, thread_slots=slots,
                                 cache=CacheConfig(i_lines=lines,
                                                   d_lines=lines),
                                 hop_latency=hop, hints=hints, trace=True),
                      program(kernel, p)))
    return cells


def test_fast_chip_loop_equals_lockstep(monkeypatch):
    # the chip loop's three fast paths (a lone core's run-ahead, windows
    # shared by two or more awake cores, the idle clock jump) against
    # lockstep, on every traced cell above and every pinned run: a run whose
    # digest is pinned is compared with that digest, any other with its fast
    # run
    cells, pinned = lockstep_cells(), list(pinned_runs())
    lone, windows, jumps = [], [], []
    step, stop = Core.step, sim._stop

    def record_step(core, cycle, limit):
        shared = len(core.chip.awake) > 1
        end = step(core, cycle, limit)
        if shared:
            windows.append(limit - cycle)
        else:
            lone.append(end - cycle)
        return end

    def record_stop(chip, cycle):
        end = stop(chip, cycle)
        if not chip.awake:
            jumps.append(end - cycle)
        return end

    monkeypatch.setattr(Core, "step", record_step)
    monkeypatch.setattr(sim, "_stop", record_stop)
    fast = [run(cfg, program).result_hash() for cfg, program in cells]
    unpinned = {label: run(cfg, program).result_hash()
                for label, cfg, program, digest in pinned if digest is None}
    # each fast path ran, and ran far, so that one that silently fell back
    # to lockstep fails here: windows of 2, 3 and 4 cycles, lone calls that
    # reach the starvation check and average over 50 cycles, and idle jumps
    # over a whole I-fill
    assert set(windows) >= {2, 3, 4} and max(windows) == 4
    assert sum(span > 1 for span in windows) > len(windows) / 4
    assert max(lone) == ChipConfig().starvation_check
    assert sum(lone) > 50 * len(lone)
    assert max(jumps) >= CacheConfig().i_miss_latency
    monkeypatch.setattr(Core, "step", step)
    monkeypatch.setattr(sim, "_stop", lockstep)
    assert [run(cfg, program).result_hash() for cfg, program in cells] == fast
    for label, cfg, program, digest in pinned:
        assert run(cfg, program).result_hash() == \
            (digest or unpinned[label]), label


# main creates a seeded channel chain of {n} threads (none: an empty family,
# whose seed is its tail), syncs it, and only then reads its tail: the read
# names the family by its id times the sync's result (1), so that it cannot
# issue before the family has completed
TAIL_AFTER_SYNC = """
.body main
  allocate r1, 0
  addi r3, r0, 100
  create r2, r1, w, 0, {n}, 1, r3
  sync r4, r2
  mul r9, r2, r4
  getsh r5, r9
  st r5, 0x100(r0)
  release r1
  halt
.body w
  getsh r6
  getidx r7
  add r6, r6, r7
  putsh r6
  halt
"""


@pytest.mark.parametrize("n, tail", [(6, 115), (0, 100)],
                         ids=["chain", "empty"])
def test_tail_read_after_sync(monkeypatch, n, tail):
    # Tmu.getsh_tail finds the completed family's tail already set
    program = assemble(TAIL_AFTER_SYNC.format(n=n))
    image = sequential_oracle(program).final_memory
    assert image[0x100:0x104] == tail.to_bytes(4, "little")
    found = []
    getsh_tail = Tmu.getsh_tail

    def record(tmu, ctx, dst, fid, cycle):
        found.append(tmu.chip.families[fid].tail_value)
        getsh_tail(tmu, ctx, dst, fid, cycle)

    monkeypatch.setattr(Tmu, "getsh_tail", record)
    configs = [ChipConfig(p=p, coherency=coherency, trace=True)
               for p in (1, 2, 3) for coherency in ("eager", "bulk")]
    digests = []
    for cfg in configs:
        res = run(cfg, program)
        assert res.outcome is Outcome.COMPLETED
        assert res.final_memory == image
        digests.append(res.result_hash())
    assert found == [tail] * len(configs)
    monkeypatch.setattr(sim, "_stop", lockstep)
    assert [run(cfg, program).result_hash() for cfg in configs] == digests
