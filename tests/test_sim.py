import gc
import inspect
import linecache
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from typing import Callable, NamedTuple

import pytest

from hmtsim import sim
from hmtsim.core import DONE, Core, reach
from hmtsim.errors import SimFault
from hmtsim.isa import Instruction, Opcode, Program, assemble
from hmtsim.kernels import (GENERATORS, kernel_chain, kernel_heterogeneous,
                            kernel_loaduse, kernel_regular, kernel_starvation)
from hmtsim.oracle import OracleDeadlock, sequential_oracle
from hmtsim.memory import NEVER, CacheConfig
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

# main seeds a depth into a one-thread rec family on allocation 1; each level
# creates the next on that allocation and syncs it, and the last level
# creates an unseeded leaf that reads its channel, so that the last level and
# the leaf wait on each other below a chain of depth + 1 syncs
DEEP_NEST = """
.body main
  addi r2, r0, {depth}
  allocate r1, 1
  create r3, r1, rec, 0, 1, 1, r2
  sync r4, r3
  add r0, r4, r0
  release r1
  halt
.body rec
  getsh r2
  addi r1, r0, 1
  beq r2, r0, last
  addi r2, r2, -1
  create r3, r1, rec, 0, 1, 1, r2
  sync r4, r3
  add r0, r4, r0
  halt
last:
  create r3, r1, leaf, 0, 1, 1
  sync r4, r3
  add r0, r4, r0
  halt
.body leaf
  getsh r5
  halt
"""


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


def test_dataflow_deadlock_classified():
    res = run(ChipConfig(p=1, watchdog_cycles=100_000),
              assemble(TAIL_DEADLOCK))
    assert res.outcome is Outcome.DEADLOCK_DATAFLOW
    assert "waits-for cycle" in res.diagnostic
    assert res.final_memory is None


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


def test_run_holds_one_memory_image():
    # the result takes the chip's 1 MB image; a copy would double the peak
    program = kernel_regular(n=8).program
    run(ChipConfig(p=2), program)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run(ChipConfig(p=2), program)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(result.final_memory) == 1 << 20
    assert peak < 1.5 * (1 << 20)


def test_quiescent_false_while_request_queued_or_fill_due():
    def chip():
        return Chip(ChipConfig(p=2), assemble(".body main\nhalt"))

    idle = chip()
    assert idle.quiescent()
    idle.requests.append((1, lambda tmu, cycle: None, ()))
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


# four threads over two cores that each putsh and halt at once: a core
# queues one thread's termination and the next one's putsh in one cycle
PUTSH_AND_HALT = """
.body main
  allocate r1, 0
  create r2, r1, w, 0, 4, 1
  sync r3, r2
  add r0, r3, r0
  release r1
  halt
.body w
  addi r5, r0, 1
  putsh r5
  halt
"""


def test_tmus_run_the_cycle_after_their_requests_in_core_order(monkeypatch):
    # every request queued in a core phase runs in the next cycle's TMU
    # phase, in ascending core id and each core's in issue order
    queued, ran = [], []

    class Requests(list):
        # the chip's request list, recording each request as it is queued
        def __init__(self, chip):
            super().__init__()
            self.chip = chip

        def append(self, request):
            cid, method, _ = request
            queued.append((self.chip.cycle, cid, method.__name__))
            super().append(request)

    phases = Chip.phases

    def record_phases(chip, cycle):
        phases(chip, cycle)
        # a new chip's list, or the new one the TMU phase installed
        if type(chip.requests) is list:
            chip.requests = Requests(chip)

    def recorder(name, method):
        def record(tmu, *args):
            ran.append((args[-1], tmu.cid, name))
            return method(tmu, *args)
        record.__name__ = name
        return record

    for name in ("allocate", "create", "sync", "release", "putsh",
                 "putsh_head", "getsh_tail", "terminated"):
        monkeypatch.setattr(Tmu, name, recorder(name, getattr(Tmu, name)))
    monkeypatch.setattr(Chip, "phases", record_phases)
    cores, per_core = set(), set()
    for config, program in ((ChipConfig(p=4), kernel_regular(n=16).program),
                            (ChipConfig(p=2), assemble(PUTSH_AND_HALT))):
        queued.clear()
        ran.clear()
        assert run(config, program).outcome is Outcome.COMPLETED
        assert len(ran) > 8
        # sorted is stable: one core's requests of one cycle keep issue order
        assert ran == [(c + 1, cid, name) for c, cid, name
                       in sorted(queued, key=lambda q: q[:2])]
        for c, cid, name in queued:
            cores.add((c, cid))
            per_core.add((c, cid, name))
    # some cycle carries requests from more than one core, and some core
    # queues more than one request in a cycle
    assert len({c for c, _ in cores}) < len(cores)
    assert len(cores) < len(per_core)


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
    pin = pinned_with("idle-latency-10000")[0]
    res = run(pin.config(trace=False), pin.make())
    assert (res.outcome, res.metrics.cycles) == (pin.outcome, pin.cycles)
    assert len(calls) == 61


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


# main creates a seeded chain of four spinners on core 0, then a one-thread
# reader family on core 1 seeded with the chain's id; the reader waits for
# the chain's tail from core 1, so core 0's TMU sends it over the NoC
# (Tmu.on_tail_value). The tail is the seed 0 plus the indices 0..3.
REMOTE_TAIL = """
.body main
  allocate r1, 1
  create r2, r1, spin, 0, 4, 1, r0
  addi r6, r0, 1
  allocate r5, 1, r6
  create r4, r5, reader, 0, 1, 1, r2
  sync r7, r2
  sync r8, r4
  add r0, r7, r8
  release r1
  release r5
  halt
.body spin
  addi r3, r0, 500
loop:
  addi r3, r3, -1
  bne r3, r0, loop
  getsh r1
  getidx r2
  add r1, r1, r2
  putsh r1
  halt
.body reader
  getsh r1
  getsh r2, r1
  st r2, 0x400(r0)
  halt
"""


# main creates an unseeded family of six threads on its own core, then feeds
# the family's head with putsh r3, r2 (Tmu.putsh_head); each thread adds its
# index to the channel value and passes it on. main syncs the family, reads
# its tail (named by its id times the sync's result, 1, as in
# TAIL_AFTER_SYNC) and stores it: 100 plus the indices 0..5
HEAD_FED = """
.body main
  allocate r1, 0
  create r2, r1, w, 0, 6, 1
  addi r3, r0, 100
  putsh r3, r2
  sync r4, r2
  mul r9, r2, r4
  getsh r5, r9
  addi r6, r0, 0x4000
  st r5, 0(r6)
  halt
.body w
  getsh r1
  getidx r2
  add r1, r1, r2
  putsh r1
  halt
"""


# -- the pinned runs ----------------------------------------------------------

class Pinned(NamedTuple):
    """One pinned run: a label, a program factory, the config fields of its
    traced run, and what that run gives: outcome, cycles, commits, per-core
    bubbles, diagnostic and result_hash. The outcome decides its second
    route: a completed run's memory equals the sequential oracle's image,
    unless oracle_deadlock matches the OracleDeadlock that the oracle raises
    instead, and a run that does not complete has no image. Every run also
    equals its lockstep run and, trace dropped, its untraced run."""
    label: str
    make: Callable[[], Program]
    cfg: dict
    outcome: Outcome
    cycles: int
    commits: int
    bubbles: list[int]
    diagnostic: str | None
    digest: str
    oracle_deadlock: str | None = None

    def config(self, **fields) -> ChipConfig:
        return ChipConfig(**{"trace": True, **self.cfg, **fields})


UNALIGNED = "memory fault: unaligned access at 0x2"
WAITS_FOR = "waits-for cycle: family 1 index 0 -> family 2 index 0"
DENIED = "runnable thread(s) spinning on denied allocations since cycle"
UNSATISFIABLE = "unsatisfiable waits: family {} index 0"
CHECKS = (1, 7, 128)
COHERENCIES = ("eager", "bulk")

PINNED_RUNS = [
    # runs that end early, where idle cores must be settled exactly, and the
    # waits-for deadlocks of a tail read and of a sync
    Pinned("fault-core1", partial(assemble, CORE1_FAULT), dict(p=2),
           Outcome.FAULT, 44, 8, [30, 16], UNALIGNED,
           "dfa6560386d7edf23e8f73ba012b83f0b5df82badc70da6a4ee82bbbfba28c8c"),
    Pinned("deadlock-p2", partial(assemble, TAIL_DEADLOCK_P2), dict(p=2),
           Outcome.DEADLOCK_DATAFLOW, 46, 3, [30, 17], WAITS_FOR,
           "a16f06514d3c1d0c89441fb31089ad13a641566ce08007cf78b49485b813482f"),
    Pinned("starvation-p2", lambda: kernel_starvation(2).program, dict(p=2),
           Outcome.DEADLOCK_STARVATION, 2048, 749, [1475, 1469],
           f"1 {DENIED} 31",
           "1650002eb1927b7d7d0c7868c149e9ea1437c7509df82432472ee1a4b4818bfd"),
    Pinned("watchdog-p4", lambda: kernel_chain(n=200).program,
           dict(p=4, watchdog_cycles=900), Outcome.WATCHDOG_TIMEOUT, 900, 734,
           [235, 502, 725, 727], "no completion within 900 cycles",
           "eafbfb3ef9f981a6e66ef6af312133e5aac62a8d536cae53b14f1e1391c63517"),
    Pinned("tail-deadlock-p1", partial(assemble, TAIL_DEADLOCK),
           dict(p=1, watchdog_cycles=100_000), Outcome.DEADLOCK_DATAFLOW, 35,
           3, [21], WAITS_FOR,
           "0c0ef92e9fc7d050994d384d6ede604dd3d617dc78da1e3c868020603b6974c2"),
    Pinned("tail-deadlock-p2", partial(assemble, TAIL_DEADLOCK),
           dict(p=2, watchdog_cycles=100_000), Outcome.DEADLOCK_DATAFLOW, 35,
           3, [21, 0], WAITS_FOR,
           "89519869f43cc9fced5bdc359fcc3bf3f9f34a064195ccbdfb3fd5cff5d99622"),
    Pinned("sync-deadlock-p1", partial(assemble, SYNC_DEADLOCK),
           dict(p=1, watchdog_cycles=100_000), Outcome.DEADLOCK_DATAFLOW, 33,
           3, [15], WAITS_FOR,
           "d53e9dac65235f8f503c39e9fb64286d7998ededf155954e937b5ffcd098bb5e"),
    Pinned("sync-deadlock-p2", partial(assemble, SYNC_DEADLOCK),
           dict(p=2, watchdog_cycles=100_000), Outcome.DEADLOCK_DATAFLOW, 47,
           3, [31, 20], WAITS_FOR,
           "a3bf32668bef180f2986c398800e15d0090aa8a423acbe6fabd3bec1738d7da7"),
    # runs whose deciding event falls while one core is the only awake core
    Pinned("lone-watchdog-p1", lambda: kernel_heterogeneous().program,
           dict(p=1, watchdog_cycles=997), Outcome.WATCHDOG_TIMEOUT, 997, 980,
           [10], "no completion within 997 cycles",
           "b4cf058d3a03331536e1c5be32ddf0557acdbe36b0980fe3dd831a83f8412fae"),
    Pinned("lone-fault-p1", partial(assemble, SPIN_FAULT), dict(p=1),
           Outcome.FAULT, 1017, 402, [613], UNALIGNED,
           "3f9f7246ab8683a3c4db311ebfd9f533fdb40b6628fa2b2b9fed33cf72066b15"),
    Pinned("lone-fault-p2-core0",
           partial(assemble, LONE_FAULT.format(faulting=0)), dict(p=2),
           Outcome.FAULT, 535, 210, [317, 506], UNALIGNED,
           "db8227cfa60845ddaa67d38570a07320de35aa1e75baef66e415d6ffaca06841"),
    Pinned("lone-fault-p2-core1",
           partial(assemble, LONE_FAULT.format(faulting=1)), dict(p=2),
           Outcome.FAULT, 546, 210, [530, 316], UNALIGNED,
           "400878cffc2078ce0f244bb72b38ea125e55fef0c26ad50441139d938d87c9c6"),
    Pinned("lone-fills-latency-1",
           lambda: kernel_loaduse(threads=2, iters=4).program,
           _miss_latency(1), Outcome.COMPLETED, 565, 432, [117], None,
           "e5aef24f774ce3f5b7990e28f040a5a3abae19958499bf689eeb1647a4c75299"),
    Pinned("lone-fills-latency-3",
           lambda: kernel_loaduse(threads=2, iters=4).program,
           _miss_latency(3), Outcome.COMPLETED, 590, 432, [139], None,
           "a5e1473de32513a3c8329301074e9e5f60267f34741d488258a5031429c3455c"),
    Pinned("lone-fills-latency-40",
           lambda: kernel_loaduse(threads=2, iters=4).program,
           _miss_latency(40), Outcome.COMPLETED, 766, 432, [316], None,
           "d914e8596325ff825b16b489db02cfc107ddaa8ac8fbb322724bdd8848d6628b"),
    Pinned("lone-deadlock-p1", partial(assemble, SPIN_DEADLOCK),
           dict(p=1, watchdog_cycles=100_000), Outcome.DEADLOCK_DATAFLOW,
           1023, 401, [620], UNSATISFIABLE.format(1),
           "a9fceda6bf980410d79737f90f34cb92668ba1fb1b3d86f4ced36d45d1030d97"),
    Pinned("lone-starvation-p1", partial(assemble, STARVE_BACKOFF),
           dict(p=1, watchdog_cycles=100_000), Outcome.DEADLOCK_STARVATION,
           2048, 810, [1233], f"1 {DENIED} 0",
           "a853479fd9b8adc1bd115b3a3db83abc68d598daa644b4b87e90491ee5123925"),
    Pinned("lone-root-done-early-p1", partial(assemble, ROOT_DONE_EARLY),
           dict(p=1), Outcome.COMPLETED, 1533, 728, [799], None,
           "8cd87478eedb835891587caa70020fc37b1c5f858ed627a5d36d7a69aa0d18a0"),
    # runs whose deciding event falls while two or more cores are awake
    Pinned("many-watchdog-p4", lambda: kernel_heterogeneous().program,
           dict(p=4, watchdog_cycles=997), Outcome.WATCHDOG_TIMEOUT, 997,
           3855, [10, 10, 10, 10], "no completion within 997 cycles",
           "9c3a357dd6ad71fadfeab1b2c2422928077d46d7b166aa0623d15e582c0e1abd"),
    Pinned("many-store-fault-core1", partial(assemble, SPIN_STORE_FAULT),
           dict(p=3), Outcome.FAULT, 252, 268, [147, 139, 139], UNALIGNED,
           "bc319f31fdb555763156a085a5da99006faac767b4ca5f210e26d303035960c0"),
    Pinned("many-starvation-check7-p4", lambda: kernel_starvation(4).program,
           dict(p=4, starvation_check=7), Outcome.DEADLOCK_STARVATION, 2044,
           746, [1470, 0, 1461, 0], f"1 {DENIED} 38",
           "827be41a1cd731c3207cd76e01713c0c2d86fad1170bf77eea512cb7a3b7f383"),
    Pinned("many-backoff-starvation-check7-p4",
           partial(assemble, BACKOFF_STARVATION),
           dict(p=4, starvation_check=7), Outcome.DEADLOCK_STARVATION, 2030,
           1596, [1216, 1207, 0, 0], f"2 {DENIED} 24",
           "f6669a0381a117c1bb962c932707f33633c7fee1365c0d9c9da66d52942a99ee"),
    Pinned("many-cold-icache-latency-1",
           lambda: kernel_heterogeneous(n=16).program, _cold_icache(1),
           Outcome.COMPLETED, 1866, 4016, [1614, 70, 70, 70], None,
           "0534deebea4aad3e6351afa99d9c5d7b6b3b715c2949bff31a422033f519c671"),
    Pinned("many-cold-icache-latency-2",
           lambda: kernel_heterogeneous(n=16).program, _cold_icache(2),
           Outcome.COMPLETED, 1868, 4016, [1616, 71, 71, 71], None,
           "227b790f45f68c6373b31f3138dd6c83dbfeda2d581927d84c1cecf358f1e436"),
    Pinned("many-cold-icache-latency-3",
           lambda: kernel_heterogeneous(n=16).program, _cold_icache(3),
           Outcome.COMPLETED, 1870, 4016, [1618, 72, 72, 72], None,
           "37e1bdc86a6f281573f182542a47a2baac41c8b9864f192a133a03f1281db9ce"),
    Pinned("many-staggered-idle-deadlock-p2",
           partial(assemble, STAGGERED_IDLE), dict(p=2),
           Outcome.DEADLOCK_DATAFLOW, 240, 164, [143, 136], WAITS_FOR,
           "e490d29a771354f212cdacd2f59098865dc00c3f0bc6bc15261e402c75aa039a"),
    # completed p=1 runs, which starvation_check 1, 7 and 128 all leave
    # unchanged
    *[Pinned(f"regular-p1-check{check}", lambda: kernel_regular(n=32).program,
             dict(p=1, starvation_check=check), Outcome.COMPLETED, 810, 660,
             [122], None,
             "4f5c15a828eb970f548257725700eb11d8c1b351689ed34f3955d86431534e84")
      for check in CHECKS],
    *[Pinned(f"heterogeneous-p1-check{check}",
             lambda: kernel_heterogeneous(n=16).program,
             dict(p=1, starvation_check=check), Outcome.COMPLETED, 4107, 4016,
             [87], None,
             "d6cb56e9e9672d89f773e96d0fd4d4df531a860f80b064169bd592b157621373")
      for check in CHECKS],
    *[Pinned(f"chain-p1-check{check}", lambda: kernel_chain(n=24).program,
             dict(p=1, starvation_check=check), Outcome.COMPLETED, 358, 260,
             [23], None,
             "5a94bf7bad6ed1ba9fbd0be9c763b32cb7399caf217450140d7fcf971c509294")
      for check in CHECKS],
    *[Pinned(f"loaduse-p1-check{check}",
             lambda: kernel_loaduse(threads=2, iters=4).program,
             dict(p=1, starvation_check=check), Outcome.COMPLETED, 607, 432,
             [156], None,
             "5d412f836d0b9f932b52f3b64de8156daa421f37a79eb7d6d17b81d6551a15bf")
      for check in CHECKS],
    *[Pinned(f"starvation_ok-p1-check{check}",
             lambda: kernel_starvation(1, satisfiable=True).program,
             dict(p=1, starvation_check=check), Outcome.COMPLETED, 22, 4, [15],
             None,
             "6c9d2ff19b5a3246e54923a78a3f00a23f3e6aa990b7f1c3e2c5528544e1d066")
      for check in CHECKS],
    # programs whose instructions read a cell they also write
    Pinned("self-memory-p1-eager", partial(assemble, SELF_MEMORY),
           dict(p=1, coherency="eager"), Outcome.COMPLETED, 52, 10, [36], None,
           "4029a03166586a2cfb17984503fdbc2f715c796f5b1defb0863e9dda234afae8"),
    Pinned("self-memory-p1-bulk", partial(assemble, SELF_MEMORY),
           dict(p=1, coherency="bulk"), Outcome.COMPLETED, 32, 10, [16], None,
           "780a333d12d3ae05fb803e06801a494bc3cfcb303255e97f72bec1363d4ee66b"),
    Pinned("self-memory-p2-eager", partial(assemble, SELF_MEMORY),
           dict(p=2, coherency="eager"), Outcome.COMPLETED, 52, 10, [36, 0],
           None,
           "8e2e85016c5d89bd2481469538544402a1848f9428c33bf6d47a91c85f23e1c6"),
    Pinned("self-memory-p2-bulk", partial(assemble, SELF_MEMORY),
           dict(p=2, coherency="bulk"), Outcome.COMPLETED, 32, 10, [16, 0],
           None,
           "811718a61b22cfbf158576e8962a5439112e0ed69d2c13d66a14eab351da8f7f"),
    Pinned("self-family-p1-eager", partial(assemble, SELF_FAMILY),
           dict(p=1, coherency="eager"), Outcome.COMPLETED, 104, 55, [33],
           None,
           "0843eb1e0e71c5d865c8cc54444276b4a0b3f9653ea896b008ffc9a1ae2d95f6"),
    Pinned("self-family-p1-bulk", partial(assemble, SELF_FAMILY),
           dict(p=1, coherency="bulk"), Outcome.COMPLETED, 98, 55, [27], None,
           "52c37a0d6b9152c1fa46d15fccee6910a2c1a0262ca536d52ba45cc5ad23654d"),
    Pinned("self-family-p2-eager", partial(assemble, SELF_FAMILY),
           dict(p=2, coherency="eager"), Outcome.COMPLETED, 95, 55, [50, 28],
           None,
           "7a5a5f510c47266093d0732e897c2f8b5c9c02373e02f31cf509d5d4f8353b3f"),
    Pinned("self-family-p2-bulk", partial(assemble, SELF_FAMILY),
           dict(p=2, coherency="bulk"), Outcome.COMPLETED, 81, 55, [37, 15],
           None,
           "4a2accd80432c8d798cdd31309365d6766188789b4f9f1b31aa0f5b963da0123"),
    *[Pinned(f"self-tail-p1-{coherency}", partial(assemble, SELF_TAIL),
             dict(p=1, coherency=coherency), Outcome.COMPLETED, 82, 30, [32],
             None,
             "ae66e1fa53515fabb2787ba2a3aec9d70021e5eb33911254614e558d9655934a")
      for coherency in COHERENCIES],
    *[Pinned(f"self-tail-p2-{coherency}", partial(assemble, SELF_TAIL),
             dict(p=2, coherency=coherency), Outcome.COMPLETED, 79, 30,
             [45, 23], None,
             "062f0097a9efd05a742e3a4f565a1df66a79fc216ebadb5446cb45bcc1fb98df")
      for coherency in COHERENCIES],
    # runs that spend most of their cycles with no core awake:
    # kernel_regular(n=256) with two thread slots and 10,000-cycle D-fills
    # idles on 642,324 of its 647,660 cycles, and the watchdog deadlines and
    # starvation checks below fall inside those stretches
    Pinned("idle-latency-10000", lambda: kernel_regular(n=256).program,
           _latency_slots2(10_000), Outcome.COMPLETED, 647_660, 5_140,
           [642_324], None,
           "68285a7c71906a6aee45ab9887d736c0b816b51a90443727125e7c345a33c408"),
    Pinned("idle-latency-10000-watchdog-5000",
           lambda: kernel_regular(n=256).program,
           _latency_slots2(10_000, watchdog_cycles=5_000),
           Outcome.WATCHDOG_TIMEOUT, 5_000, 1_816, [3_180],
           "no completion within 5000 cycles",
           "e23ac70503b0f0c15675741e0ee97a721dfd38877ac4282518d82979d815d5a5"),
    Pinned("idle-latency-10000-watchdog-30001",
           lambda: kernel_regular(n=256).program,
           _latency_slots2(10_000, watchdog_cycles=30_001),
           Outcome.WATCHDOG_TIMEOUT, 30_001, 1_920, [28_071],
           "no completion within 30001 cycles",
           "170f9faa846695ca24f71c54f5356c18d478f11f8fa300f319312e67a73c80f9"),
    *[Pinned(f"idle-latency-10000-check{check}",
             lambda: kernel_regular(n=256).program,
             _latency_slots2(10_000, starvation_check=check),
             Outcome.COMPLETED, 647_660, 5_140, [642_324], None,
             "68285a7c71906a6aee45ab9887d736c0b816b51a90443727125e7c345a33c408")
      for check in (7, 997)],
    Pinned("idle-load-then-deadlock-p1", partial(assemble, LOAD_THEN_DEADLOCK),
           dict(p=1, cache=CacheConfig(d_miss_latency=5_000)),
           Outcome.DEADLOCK_DATAFLOW, 5_023, 3, [5_015],
           UNSATISFIABLE.format(1),
           "264dd1c47f65ad1ea37c6959c81794715d664e0bff2734ad64cb64fd06e373f0"),
    Pinned("idle-load-then-deadlock-p2", partial(assemble, LOAD_THEN_DEADLOCK),
           dict(p=2, cache=CacheConfig(d_miss_latency=5_000)),
           Outcome.DEADLOCK_DATAFLOW, 5_023, 3, [5_015, 0],
           UNSATISFIABLE.format(1),
           "b10285b326eb7d71f45ac5a38ae0d318f7991ea98219a21266c2bdb693779c21"),
    # the creation, the channel value and the tail of cross-wake each wake
    # the other core, and unknown-release faults in its TMU phase while core
    # 1 is the only awake core
    Pinned("phase-cross-wake-p2", partial(assemble, CROSS_WAKE), dict(p=2),
           Outcome.COMPLETED, 1164, 583, [817, 874], None,
           "e8329fc560542d60b85dfc54d7cf732372fcf6910617115187118caa425500a7"),
    Pinned("phase-unknown-release-core1", partial(assemble, UNKNOWN_RELEASE),
           dict(p=2), Outcome.FAULT, 296, 109, [281, 166],
           "release of unknown or already released allocation 99",
           "0c11f3659feab5741ce365917b8b64a7cd3eb5c9698423ed8e2f3ab83ae2622f"),
    # kernel_chain(n=8) with two thread slots per core: a channel value for a
    # position that has no slot yet waits in its family's buffer until one
    # frees (Tmu.on_channel)
    Pinned("buffered-channel-p1", lambda: kernel_chain(n=8).program,
           dict(p=1, thread_slots=2), Outcome.COMPLETED, 171, 100, [65], None,
           "a6543629bf4c9cc1dfcdaa102f146ee2cfe15891cb8a088ac46843659a22a697"),
    Pinned("buffered-channel-p2", lambda: kernel_chain(n=8).program,
           dict(p=2, thread_slots=2), Outcome.COMPLETED, 148, 100, [82, 62],
           None,
           "9b69993de7e05a67dcbc06a2c51fcf659c611c3723fa96b8bed8c588506897b5"),
    # the oracle's family map is shared by its threads, so its reader finds
    # the tail of the family main created
    Pinned("remote-tail-p2", partial(assemble, REMOTE_TAIL), dict(p=2),
           Outcome.COMPLETED, 4097, 4039, [40, 4031], None,
           "ac5d653fbc935af1ede51432fa977c98a37e2f37bea17f3c951ae71cb5f6ca2b"),
    Pinned("remote-tail-p3", partial(assemble, REMOTE_TAIL), dict(p=3),
           Outcome.COMPLETED, 4097, 4039, [40, 4031, 0], None,
           "13e574af86aa51423e66c87ac6dc46a6197c8ac12f8239142717bc15df8586a7"),
    # the oracle runs a family at its creation point, before main's putsh to
    # its head, so lockstep is these runs' only second route
    Pinned("head-fed-p1", partial(assemble, HEAD_FED), dict(p=1),
           Outcome.COMPLETED, 105, 40, [41], None,
           "d85ee5a2fba8201a458309facc3cd2c9f945988c257dad7bd7001cbc216c96e3",
           oracle_deadlock="reads its input channel"),
    Pinned("head-fed-p2", partial(assemble, HEAD_FED), dict(p=2),
           Outcome.COMPLETED, 99, 40, [59, 34], None,
           "e843e89ebe79d8545b143e2b6ffd2d4d215ce5e401fb0b13f44ca6dc862d3300",
           oracle_deadlock="reads its input channel"),
    Pinned("head-fed-p4", partial(assemble, HEAD_FED), dict(p=4),
           Outcome.COMPLETED, 100, 40, [68, 23, 39, 51], None,
           "50bcf65529d8f7d741685447b11b11ac0b9be4084164e7b315d415415c4db7f5",
           oracle_deadlock="reads its input channel"),
    # the waits-for search follows the chain of syncs as deep as the
    # families nest, past the interpreter's recursion limit, to the cycle at
    # its end
    Pinned("deep-nest-20", partial(assemble, DEEP_NEST.format(depth=20)),
           dict(p=1, thread_slots=2000), Outcome.DEADLOCK_DATAFLOW, 308, 129,
           [63], "waits-for cycle: family 22 index 0 -> family 23 index 0",
           "477eff734665a34a89144a10b04ac05a28226d9f2c7574964a9eed7186955629"),
    Pinned("deep-nest-1200", partial(assemble, DEEP_NEST.format(depth=1200)),
           dict(p=1, thread_slots=2000), Outcome.DEADLOCK_DATAFLOW, 15_648,
           7_209, [2_423],
           "waits-for cycle: family 1202 index 0 -> family 1203 index 0",
           "76722d871580ae18756f4ac49c4aded1e8d0248b103f974196d955eb4150e8d4"),
    # a family that main does not sync runs to its end, through starvation
    # checks each one past the window, or deadlocks after main halts
    *[Pinned(f"unsynced-p1-{coherency}",
             partial(assemble, UNSYNCED.format(tail="")),
             dict(p=1, coherency=coherency), Outcome.COMPLETED, 1535, 607,
             [923], None,
             "f18499ce9d086c338baa96997d7d8d04e7a28634490b9e26ef34817ec1a30a92")
      for coherency in COHERENCIES],
    *[Pinned(f"unsynced-p2-{coherency}",
             partial(assemble, UNSYNCED.format(tail="")),
             dict(p=2, coherency=coherency), Outcome.COMPLETED, 1535, 607,
             [923, 0], None,
             "f316f070687cec64bef34d2621251da763245791a6d79c237f8ecfca1d0f8d2f")
      for coherency in COHERENCIES],
    *[Pinned(f"unsynced-p8-{coherency}",
             partial(assemble, UNSYNCED.format(tail="")),
             dict(p=8, coherency=coherency), Outcome.COMPLETED, 1535, 607,
             [923, 0, 0, 0, 0, 0, 0, 0], None,
             "6088986a8805d3c287dad97eacb5e4174a8e40f62cfa48559b49ba15587c80ff")
      for coherency in COHERENCIES],
    Pinned("unsynced-p1-check8", partial(assemble, UNSYNCED.format(tail="")),
           dict(p=1, starvation_window=16, starvation_check=8),
           Outcome.COMPLETED, 1535, 607, [923], None,
           "f18499ce9d086c338baa96997d7d8d04e7a28634490b9e26ef34817ec1a30a92"),
    Pinned("unsynced-tail-deadlock-p1",
           partial(assemble, UNSYNCED.format(tail="getsh r5")),
           dict(p=1, watchdog_cycles=100_000), Outcome.DEADLOCK_DATAFLOW,
           1537, 604, [928], UNSATISFIABLE.format(2),
           "0986c53e6124a30c8619f3c3c1842b6d92b691c5673da11c9171dc635f5a7ffb"),
    Pinned("unsynced-tail-deadlock-p2",
           partial(assemble, UNSYNCED.format(tail="getsh r5")),
           dict(p=2, watchdog_cycles=100_000), Outcome.DEADLOCK_DATAFLOW,
           1537, 604, [928, 0], UNSATISFIABLE.format(2),
           "b0792c7150c66b070dc4ca47893ade399bbf3eec981eabd44e7bd9664f637cc1"),
    # a tail read after the sync finds the completed family's tail already
    # set, for a channel chain and for an empty family
    *[Pinned(f"tail-after-sync-chain-p1-{coherency}",
             partial(assemble, TAIL_AFTER_SYNC.format(n=6)),
             dict(p=1, coherency=coherency), Outcome.COMPLETED, 109, 39,
             [42], None,
             "6ef61d4ba953986e305be74cbb6b50851cb84ea044c6f505dd4e80e4bf955358")
      for coherency in COHERENCIES],
    *[Pinned(f"tail-after-sync-chain-p2-{coherency}",
             partial(assemble, TAIL_AFTER_SYNC.format(n=6)),
             dict(p=2, coherency=coherency), Outcome.COMPLETED, 103, 39,
             [60, 34], None,
             "44e3e876499e62e99e355d70fbde3e707529e3c7714e3d085d832d35562f85d9")
      for coherency in COHERENCIES],
    *[Pinned(f"tail-after-sync-chain-p3-{coherency}",
             partial(assemble, TAIL_AFTER_SYNC.format(n=6)),
             dict(p=3, coherency=coherency), Outcome.COMPLETED, 102, 39,
             [67, 23, 41], None,
             "8a25c427c5a515697b3cdb9e3d7f06207b0da20015f365a4399e5e1837d123ff")
      for coherency in COHERENCIES],
    *[Pinned(f"tail-after-sync-empty-p1-{coherency}",
             partial(assemble, TAIL_AFTER_SYNC.format(n=0)),
             dict(p=1, coherency=coherency), Outcome.COMPLETED, 45, 9,
             [21], None,
             "45a395adb07bd24b6618341ae9a32aad763b306a5063fa337b8117c602eab3cb")
      for coherency in COHERENCIES],
    *[Pinned(f"tail-after-sync-empty-p2-{coherency}",
             partial(assemble, TAIL_AFTER_SYNC.format(n=0)),
             dict(p=2, coherency=coherency), Outcome.COMPLETED, 45, 9,
             [21, 0], None,
             "ef6208d2924173c55186c9d6f22a158510d0dfbe610772510be257124249a226")
      for coherency in COHERENCIES],
    *[Pinned(f"tail-after-sync-empty-p3-{coherency}",
             partial(assemble, TAIL_AFTER_SYNC.format(n=0)),
             dict(p=3, coherency=coherency), Outcome.COMPLETED, 45, 9,
             [21, 0, 0], None,
             "c7bc6b35d1806295232ca2b70597704b6bcc5504858f56975f32ae944d0861f3")
      for coherency in COHERENCIES],
]


def pinned_runs() -> list[Pinned]:
    """Every pinned run, in a fixed order: test_pinned_run checks each, the
    lockstep and untraced tests below run them all, and
    scripts/stress_grid.py prints them after its grid. New runs go at the
    end, so that the grid's earlier lines keep their place."""
    return PINNED_RUNS


def pinned_with(prefix: str) -> list[Pinned]:
    return [pin for pin in PINNED_RUNS if pin.label.startswith(prefix)]


@pytest.mark.parametrize("pin", PINNED_RUNS,
                         ids=[pin.label for pin in PINNED_RUNS])
def test_pinned_run(pin):
    program = pin.make()
    res = run(pin.config(), program)
    assert res.outcome is pin.outcome
    assert res.diagnostic == pin.diagnostic
    assert res.metrics.cycles == pin.cycles
    assert res.metrics.commits == pin.commits
    assert [c.bubbles for c in res.metrics.per_core] == pin.bubbles
    assert res.result_hash() == pin.digest
    if pin.outcome is not Outcome.COMPLETED:
        assert res.final_memory is None
    elif pin.oracle_deadlock:
        with pytest.raises(OracleDeadlock, match=pin.oracle_deadlock):
            sequential_oracle(program)
    else:
        assert res.final_memory == sequential_oracle(program).final_memory


STORED_WORDS = [("unsynced", 0x400, 7), ("remote-tail", 0x400, 6),
                ("head-fed", 0x4000, 115), ("tail-after-sync-chain", 0x100, 115),
                ("tail-after-sync-empty", 0x100, 100)]


@pytest.mark.parametrize("prefix, addr, value", STORED_WORDS,
                         ids=[prefix for prefix, *_ in STORED_WORDS])
def test_pinned_runs_store_their_word(prefix, addr, value):
    # the unsynced family's store, the remote reader's tail (the seed 0 plus
    # the indices 0..3), the head-fed family's tail (100 plus the indices
    # 0..5) and the tails read after a sync, in every completed run
    pins = [pin for pin in pinned_with(prefix)
            if pin.outcome is Outcome.COMPLETED]
    assert pins
    for pin in pins:
        image = run(pin.config(trace=False), pin.make()).final_memory
        assert image[addr:addr + 4] == value.to_bytes(4, "little"), pin.label


@pytest.mark.parametrize("name, tail", [("chain", 115), ("empty", 100)],
                         ids=["chain", "empty"])
def test_tail_read_after_sync(monkeypatch, name, tail):
    # Tmu.getsh_tail finds the completed family's tail already set
    found = []
    getsh_tail = Tmu.getsh_tail

    def record(tmu, ctx, dst, fid, cycle):
        found.append(tmu.chip.families[fid].tail_value)
        getsh_tail(tmu, ctx, dst, fid, cycle)

    monkeypatch.setattr(Tmu, "getsh_tail", record)
    pins = pinned_with(f"tail-after-sync-{name}-")
    for pin in pins:
        assert run(pin.config(), pin.make()).outcome is Outcome.COMPLETED
    assert pins and found == [tail] * len(pins)


def test_tmu_path_runs_reach_buffer_and_remote_tail_lines():
    # a line tracer on tmu.py: the buffered-channel, remote-tail and
    # head-fed runs buffer a channel value for an unplaced position, send a
    # tail to a remote waiter and deliver it there, and feed a family's head
    reached = set()
    tmu_file = inspect.getsourcefile(Tmu)

    def trace_lines(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_name, linecache.getline(
                tmu_file, frame.f_lineno).strip()))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename == tmu_file else None

    pins = [pin for prefix in ("buffered-channel-", "remote-tail-", "head-fed-")
            for pin in pinned_with(prefix)]
    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        for pin in pins:
            run(pin.config(), pin.make())
    finally:
        sys.settrace(previous)
    assert ("on_channel", "lf.buffer[pos] = value") in reached
    assert ("on_tail", "self.chip.noc.send(Tmu.on_tail_value, self.cid, "
            "core,") in reached
    assert ("on_tail_value", "self.core.writeback(ctx, dst, value)") in reached
    assert ("putsh_head", "self._forward_channel(fam, 0, value, cycle)") \
        in reached


# -- sim._stop's window for two or more awake cores -----------------------------

ACTING = Instruction(Opcode.LD, dst=1, src1=2)      # acts outside the core
QUIET = Instruction(Opcode.ADD, dst=1, src1=1, src2=1)


def window_chip(*acting, empty=False, **cfg):
    """A p=2 chip with both cores on the awake list and every latch holding a
    quiet instruction (or empty), except each (core, latch) in acting, which
    holds one that acts outside the core."""
    chip = Chip(ChipConfig(p=2, **cfg), assemble(".body main\nhalt"))
    chip.awake = list(chip.cores)
    for core in chip.cores:
        for latch in "fdremw":
            setattr(core, latch, None if empty else (None, QUIET, 0))
    for cid, latch in acting:
        setattr(chip.cores[cid], latch, (None, ACTING, 0))
    return chip


@pytest.mark.parametrize("cid", [0, 1])
@pytest.mark.parametrize("latch, span", [
    ("w", 1), ("m", 1), ("e", 1), ("r", 1), ("d", 2), ("f", 3)])
def test_stop_window_ends_at_the_acting_instruction(cid, latch, span):
    # from read onwards an acting instruction can act the next cycle, in
    # decode two cycles on, in fetch three
    assert sim._stop(window_chip((cid, latch)), 1000) == 1000 + span


@pytest.mark.parametrize("empty", [False, True])
def test_stop_window_without_acting_instruction_is_the_pipe_depth(empty):
    assert sim._stop(window_chip(empty=empty), 1000) == 1004


@pytest.mark.parametrize("acting, span", [
    (((0, "d"), (1, "f")), 2), (((0, "f"), (1, "d")), 2),
    (((0, "f"), (1, "r")), 1), (((0, "f"), (1, "f")), 3),
    (((0, "d"), (0, "f")), 2)])
def test_stop_window_takes_the_smallest_horizon(acting, span):
    assert sim._stop(window_chip(*acting), 1000) == 1000 + span


@pytest.mark.parametrize("latency", [1, 2, 3, 4, 5])
def test_stop_window_shorter_than_an_i_fill(latency):
    for acting, span in (((), 4), (((1, "f"),), 3), (((0, "d"),), 2),
                         (((0, "r"),), 1)):
        chip = window_chip(*acting, cache=CacheConfig(i_miss_latency=latency))
        assert sim._stop(chip, 1000) == 1000 + min(span, latency)


def test_stop_window_capped_by_starvation_check_and_watchdog():
    # the cap is the next multiple of starvation_check, then the watchdog
    assert sim._stop(window_chip(), 126) == 128
    assert sim._stop(window_chip(), 128) == 132
    assert sim._stop(window_chip(starvation_check=7), 12) == 14
    assert sim._stop(window_chip((1, "f"), starvation_check=7), 13) == 14
    assert sim._stop(window_chip(watchdog_cycles=1002), 1000) == 1002
    assert sim._stop(window_chip((0, "f"), watchdog_cycles=1002), 1000) \
        == 1002
    assert sim._stop(window_chip((0, "r"), watchdog_cycles=1002), 1000) \
        == 1001


# -- a quiet core's horizon: the reach of its queued threads' pcs --------------

@pytest.mark.parametrize("src, expected", [
    # straight-line code
    (".body main\n  addi r1, r1, 1\n  addi r1, r1, 1\n  st r1, 0(r0)\n"
     "  halt", [2, 1, 0, 0]),
    # a quiet loop with an exit: the branch's fall-through is nearest
    (".body main\n  addi r2, r0, 3\nloop:\n  addi r1, r1, 1\n"
     "  addi r2, r2, -1\n  bne r2, r0, loop\n  halt", [4, 3, 2, 1, 0]),
    # a jmp has its target as its one successor, not the store after it
    (".body main\n  jmp far\n  st r0, 0(r0)\nfar:\n  addi r1, r1, 1\n"
     "  addi r1, r1, 1\n  halt", [3, 0, 2, 1, 0]),
    # a branch to a label in another body, which is nearer than the
    # fall-through; a plain getsh stays in the core, a tail read does not
    (".body main\n  beq r1, r0, near\n  addi r1, r1, 1\n  getsh r3\n"
     "  getsh r4, r1\n  halt\n.body w\nnear:\n  addi r2, r2, 1\n  halt",
     [2, 2, 1, 0, 0, 1, 0]),
    # a quiet loop with no exit never reaches an acting instruction
    (".body main\n  addi r1, r1, 1\nspin:\n  addi r1, r1, 1\n  jmp spin\n"
     ".body w\n  halt", [NEVER, NEVER, NEVER, 0]),
])
def test_reach_counts_the_fetches_before_an_acting_instruction(src, expected):
    assert reach(assemble(src).instructions) == expected


# twelve quiet instructions, then a TMU request: reach[pc] is 12 - pc
TWELVE_THEN_PUTSH = ".body main\n" + "  addi r1, r1, 1\n" * 12 + \
    "  putsh r1\n  halt"


def quiet_chip(*pcs, src=TWELVE_THEN_PUTSH, latency=100, **cfg):
    """A chip with one core per entry of pcs, all of them awake and quiet
    with empty latches, and a queued thread at each pc of a core's entry;
    I-fills take latency cycles."""
    chip = Chip(ChipConfig(p=len(pcs), cache=CacheConfig(
        i_miss_latency=latency), **cfg), assemble(src))
    for core, at in zip(chip.cores, pcs):
        for pc in at:
            core.start_context(core.take_free_slot(), fid=1, position=0,
                               logical_index=0, pc=pc)
        core.quiet = True
    chip.awake = list(chip.cores)
    return chip


@pytest.mark.parametrize("pcs, least", [
    (([0], [0]), 12), (([5], [0]), 7), (([0, 3], [7, 0]), 5),
    (([10], [2]), 2), (([0], [11]), 1), (([12, 1], [3]), 0),
    (([0], [0], [0, 9, 4]), 3)])
def test_stop_window_of_quiet_cores_is_the_least_reach_plus_four(pcs, least):
    # a queued thread of a quiet core sits at its next fetch, so it fetches
    # no acting instruction for reach[pc] cycles, and one fetched then acts
    # four cycles on
    assert sim._stop(quiet_chip(*pcs), 1000) == 1000 + 4 + least


def test_stop_window_of_quiet_cores_capped_by_i_fill_and_starvation_check():
    assert sim._stop(quiet_chip([0], [0], latency=10), 1000) == 1010
    assert sim._stop(quiet_chip([0], [0], latency=7), 1000) == 1007
    assert sim._stop(quiet_chip([0], [0]), 1020) == 1024
    assert sim._stop(quiet_chip([0], [0], starvation_check=9), 1000) == 1008
    assert sim._stop(quiet_chip([0], [0], watchdog_cycles=1006), 1000) == 1006
    # quiet cores with no queued thread: only the caps are left
    assert sim._stop(quiet_chip([], []), 1000) == 1024
    assert sim._stop(quiet_chip([], [], latency=10), 1000) == 1010


@pytest.mark.parametrize("latch", ["f", "d", "r", "e"])
def test_stop_window_of_a_quiet_core_whose_branch_is_in_flight(latch):
    # a branch in flight when core 0's stretch starts executes then, as in
    # its own execute cycle: its thread sits at the target, blocked until
    # that cycle, and DONE takes the branch's place. From the target, one
    # quiet instruction and a TMU request follow, which executes five
    # cycles after the branch did. The window from the next cycle runs four
    # cycles past the thread's reach, so it ends right before the request
    # where the thread may fetch in its first cycle (from e and r)
    src = ".body main\n  bne r1, r0, out\n" + "  addi r1, r1, 1\n" * 12 + \
        "  halt\n.body w\nout:\n  addi r1, r1, 1\n  putsh r1\n  halt"
    chip = quiet_chip([], [5], src=src)
    core = chip.cores[0]
    core.quiet = False
    # every line of the 18-instruction program resident in core 0
    chip.memory._itags[0].update(dict.fromkeys(range(5), True))
    ctx = core.start_context(core.take_free_slot(), fid=1, position=0,
                             logical_index=0, pc=0)
    ctx.value[1] = 1
    ctx.fetch_blocked = NEVER
    setattr(core, latch, (ctx, chip.program.instructions[0], 0))
    out = chip.program.labels["out"]
    executes = 999 + "erdf".index(latch)
    assert core.step(999, 1000) == 1000 and core.quiet
    assert ctx.fetch_blocked == executes
    assert ctx.pc == (out + 1 if latch == "e" else out)
    assert core.f is None or core.f[1] is DONE
    assert {x[1] for x in (core.d, core.r, core.e, core.m) if x} == {DONE}
    end = sim._stop(chip, 1000)
    assert end == 1000 + 4 + chip.reach[ctx.pc]
    assert end == min(executes, 1000) + 5
    chip.awake = [core]
    assert core.step(1000, end) == end and not chip.requests
    cycle = end
    while not chip.requests and cycle < end + 8:
        cycle = core.step(cycle, cycle + 1)
    # the request came from the execute cycle before the call's return
    assert cycle - 1 == executes + 5


@pytest.mark.parametrize("acting, span", [((), 4), (("f",), 3), (("d",), 2),
                                          (("r",), 1)])
def test_stop_window_with_a_core_that_is_not_quiet(acting, span):
    # a core that is not quiet keeps the window to its latch rule, however
    # far the quiet core's threads are from an acting instruction
    chip = quiet_chip([0], [0], [0])
    core = chip.cores[1]
    core.quiet = False
    for latch in "fdremw":
        setattr(core, latch, (None, ACTING if latch in acting else QUIET, 0))
    assert sim._stop(chip, 1000) == 1000 + span


# -- the fast chip loop against lockstep ----------------------------------------

def lockstep(chip, cycle):
    # sim._stop's stand-in for the lockstep loop: every core phase runs one
    # cycle, so each awake core steps one cycle per call and the clock never
    # jumps
    return cycle + 1


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
    # lockstep, on every traced cell above and every pinned run, which is
    # compared with its pinned digest
    cells = lockstep_cells()
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
    for pin in PINNED_RUNS:
        assert run(pin.config(), pin.make()).result_hash() == pin.digest, \
            pin.label


def test_untraced_runs_equal_traced_runs(matrix_runs, monkeypatch):
    # a traced run retires every commit, so it never takes a quiet stretch
    # (core.py): every matrix cell and every pinned run, run untraced, must
    # give its traced result with the trace dropped
    step, quiet_calls = Core.step, []

    def record_step(core, cycle, limit):
        end = step(core, cycle, limit)
        quiet_calls.append(core.quiet)
        return end

    monkeypatch.setattr(Core, "step", record_step)
    for key, cell in matrix_runs.items():
        untraced = run(replace(cell.config, trace=False), cell.spec.program)
        assert untraced.result_hash() == cell.result.result_hash(), key
    # the untraced runs did take quiet stretches
    assert sum(quiet_calls) > len(quiet_calls) / 10
    for pin in PINNED_RUNS:
        program = pin.make()
        traced = run(pin.config(), program)
        traced.trace = None
        untraced = run(pin.config(trace=False), program)
        assert untraced.result_hash() == traced.result_hash(), pin.label


@pytest.mark.parametrize("p", [4, 8])
def test_untraced_windows_of_quiet_cores_run_past_the_pipe_depth(
        matrix_runs, monkeypatch, p):
    # a traced run never takes a quiet stretch, so the traced cells above
    # keep every shared window at 4 cycles or less; untraced, most shared
    # windows of the heterogeneous cell run longer, from the reach of the
    # quiet cores' threads, and the run still gives its traced result
    cell = matrix_runs[f"heterogeneous-p{p}-hints_on-eager"]
    step, windows = Core.step, []

    def record_step(core, cycle, limit):
        if len(core.chip.awake) > 1:
            windows.append(limit - cycle)
        return step(core, cycle, limit)

    monkeypatch.setattr(Core, "step", record_step)
    untraced = run(replace(cell.config, trace=False), cell.spec.program)
    assert untraced.result_hash() == cell.result.result_hash()
    assert sum(span > 4 for span in windows) > len(windows) / 2
