import gc
import itertools
import tracemalloc

import pytest

from hmtsim.core import CHANNEL_CELL, DONE_ENTRY, EMPTY, FULL
from hmtsim.errors import SimFault
from hmtsim.isa import Instruction, Opcode, assemble
from hmtsim.memory import NEVER, MemorySystem
from hmtsim.sim import Chip, ChipConfig, run


def make_chip(src=".body main\nhalt", **cfg):
    return Chip(ChipConfig(**cfg), assemble(src))


def spawn(chip, n, pc=0):
    """Start n bare contexts on core 0 outside any real family."""
    core = chip.cores[0]
    out = []
    for i in range(n):
        slot = core.take_free_slot()
        out.append(core.start_context(slot, fid=1, position=i,
                                      logical_index=i, pc=pc))
    return out


def plant(core, **latches):
    """Set latches of core and restart its step, which holds the latches in
    its own frame between calls and reads them from the core when it
    starts."""
    for latch, inf in latches.items():
        setattr(core, latch, inf)
    core.restart()


def read_stage(core, inf, cycle=0):
    """Step inf, a (ctx, instr, pc) tuple, through the read stage: the values
    of its source cells once it reaches execute, or None if it suspended
    there instead."""
    plant(core, r=inf)
    core.quiet = False      # a planted latch may break a quiet stretch
    core._checks = False    # and a stretch would execute a quiet inf first
    core.step(cycle, cycle + 1)
    if core.e is not inf:
        return None
    ctx, instr, _ = inf
    return tuple(ctx.value[cell] for cell in instr.source_cells)


# non-blocking instructions from pc 0 through pc 1000, so that a thread can
# fetch wherever a test starts it
STRAIGHT = ".body main\n" + "  addi r1, r1, 1\n" * 1001 + "  halt"


def fetched(core, cycle):
    """Step core through one cycle: the thread it fetched and the pc it
    fetched from, or None if it fetched nothing. They are f's unless f is
    DONE_ENTRY: a quiet stretch executes at fetch, so then they are the one
    thread whose pc or fetch block the call moved, and its pc before it."""
    before = {ctx: (ctx.pc, ctx.fetch_blocked)
              for ctx in core.contexts.values()}
    core.step(cycle, cycle + 1)
    if core.f is None:
        return None
    if core.f is not DONE_ENTRY:
        return core.f[0], core.f[2]
    (ctx, pc), = [(ctx, pc) for ctx, (pc, blocked) in before.items()
                  if (ctx.pc, ctx.fetch_blocked) != (pc, blocked)]
    return ctx, pc


def fetch_stage(core, cycle):
    """Step core through one cycle: the slot of the thread it fetched, or
    None if it fetched nothing."""
    out = fetched(core, cycle)
    return None if out is None else out[0].slot


HINTED_ADD = Instruction(Opcode.ADD, dst=1, src1=1, src2=1, switch_hint=True)
PLAIN_ADD = Instruction(Opcode.ADD, dst=1, src1=1, src2=1)


def test_fetch_select_single_thread_resident():
    chip = make_chip(STRAIGHT)
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    chip.memory.icache_probe(0, 0, 0)
    for c in range(11):
        chip.memory.step(c)
    assert fetch_stage(core, 11) == ctx.slot


def test_fetch_skips_missing_line_and_requests_fill():
    # thread A sits at a cold line far away; thread B's line is warm
    chip = make_chip(STRAIGHT)
    core = chip.cores[0]
    a, b = spawn(chip, 2)
    a.pc = 1000
    a_line = (1000 * 4) // 16
    chip.memory.icache_probe(0, 0, 0)          # warm B's line
    for c in range(11):
        chip.memory.step(c)
    assert fetch_stage(core, 11) == b.slot
    assert (0, a_line) in chip.memory._i_pending   # fill requested for A
    for c in range(11, 25):
        chip.memory.step(c)
    # B holds the front until its own switch event; once it blocks, A runs
    assert fetch_stage(core, 25) == b.slot
    b.fetch_blocked = NEVER
    assert fetch_stage(core, 26) == a.slot


def test_hinted_rotation_barrel_order():
    # three threads running hinted instructions rotate A B C A B C ...
    chip = make_chip()
    core = chip.cores[0]
    chip.program = None  # not consulted: instructions injected via resume
    ctxs = spawn(chip, 3)
    order = []
    for cycle in range(9):
        # hand each thread its next hinted instruction
        for ctx in ctxs:
            if ctx.resume is None:
                ctx.resume = (ctx, HINTED_ADD, 0)
        core.step(cycle, cycle + 1)
        if core.f is not None:
            order.append(core.f[0].slot)
    # hand-executed round-robin oracle
    slots = [c.slot for c in ctxs]
    assert order == [slots[i % 3] for i in range(len(order))]
    assert len(order) == 9


def test_fresh_context_register_window():
    # r0..r31 read FULL 0; the channel cell is EMPTY unless seeded
    chip = make_chip()
    core = chip.cores[0]
    plain, = spawn(chip, 1)
    seeded = core.start_context(core.take_free_slot(), fid=1, position=1,
                                logical_index=1, pc=0, channel_value=-7)
    for ctx in (plain, seeded):
        assert len(ctx.state) == len(ctx.value) == CHANNEL_CELL + 1
        assert ctx.state[:32] == [FULL] * 32 and ctx.value[:32] == [0] * 32
        assert ctx.parked is None and ctx.pending_cells == 0
    assert plain.state[CHANNEL_CELL] == EMPTY
    assert plain.value[CHANNEL_CELL] == 0
    assert seeded.state[CHANNEL_CELL] == FULL
    assert seeded.value[CHANNEL_CELL] == -7
    # every context owns its window: a write to one leaves the other alone
    core._mark_pending(plain, 3)
    assert seeded.state[3] == FULL


def test_read_operands_ready_and_values():
    chip = make_chip()
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    ctx.value[2] = 21
    ctx.value[3] = 14
    inf = (ctx, Instruction(Opcode.ADD, dst=1, src1=2, src2=3), 0)
    assert read_stage(core, inf) == (21, 14)


def test_read_operands_suspends_on_pending_source():
    chip = make_chip()
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    core._mark_pending(ctx, 2)
    inf = (ctx, Instruction(Opcode.ADD, dst=1, src1=2, src2=3), 5)
    assert read_stage(core, inf) is None
    assert ctx.parked == (2, inf)
    assert ctx.pc == 6                     # successor-restart point
    assert ctx.slot not in [t.slot for t in core.queue]


def test_read_operands_suspends_on_empty_channel():
    chip = make_chip()
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    inf = (ctx, Instruction(Opcode.GETSH, dst=4), 0)
    assert read_stage(core, inf) is None
    assert ctx.parked == (CHANNEL_CELL, inf)
    # PUTSH delivery wakes it again
    core.writeback(ctx, CHANNEL_CELL, 99)
    assert ctx.parked is None and not ctx.fetch_blocked and ctx.resume is inf
    assert read_stage(core, inf) == (99,)


def test_read_operands_suspends_on_busy_destination():
    chip = make_chip()
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    core._mark_pending(ctx, 1)
    inf = (ctx, Instruction(Opcode.LD, dst=1, src1=2, imm=0), 3)
    assert read_stage(core, inf) is None
    assert ctx.parked == (1, inf)


def test_flush_younger_exhaustive_occupancy():
    # all 3-thread occupancy patterns over the six latches: only the
    # suspending thread's fetch/decode entries go, everything else stays
    chip = make_chip()
    core = chip.cores[0]
    ctxs = spawn(chip, 3)
    for pattern in itertools.product([None, 0, 1, 2], repeat=6):
        for who in range(3):
            for latch, owner in zip("fdremw", pattern):
                setattr(core, latch, None if owner is None else
                        (ctxs[owner], PLAIN_ADD, 0))
            before = core.metrics.flushes
            expect = sum(1 for latch, owner in zip("fd", pattern[:2])
                         if owner == who)
            n = core.flush_younger(ctxs[who], 7)
            assert n == expect
            assert core.metrics.flushes - before == expect
            assert (core.f is None or core.f[0] is not ctxs[who])
            assert (core.d is None or core.d[0] is not ctxs[who])
            for latch, owner in zip("remw", pattern[2:]):
                got = getattr(core, latch)
                assert (got is None) == (owner is None)
            assert ctxs[who].pc == 7


def test_second_park_of_a_parked_thread_faults():
    # a thread parks at most one instruction: _suspend flushes its younger
    # ones, so a second park is a broken invariant, also under python -O
    chip = make_chip()
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    core._mark_pending(ctx, 2)
    core._mark_pending(ctx, 4)
    first = (ctx, Instruction(Opcode.ADD, dst=1, src1=2, src2=3), 0)
    core._suspend(first, 2)
    with pytest.raises(SimFault, match="second instruction parked"):
        core._suspend((ctx, Instruction(Opcode.ADD, dst=1, src1=4, src2=3),
                       1), 4)
    assert ctx.parked == (2, first)


def test_woken_register_leaves_no_waiter_entry():
    chip = make_chip()
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    core._mark_pending(ctx, 2)
    inf = (ctx, Instruction(Opcode.ADD, dst=1, src1=2, src2=3), 0)
    assert read_stage(core, inf) is None
    assert ctx.parked == (2, inf)
    core.writeback(ctx, 2, 8)
    assert ctx.parked is None
    assert ctx.resume is inf and read_stage(core, inf) == (8, 0)
    assert ctx.parked is None


def test_writeback_to_r0_discarded():
    chip = make_chip()
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    core.writeback(ctx, 0, 123)
    assert ctx.state[0] == FULL and ctx.value[0] == 0


def test_double_write_full_cell_faults():
    chip = make_chip()
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    with pytest.raises(SimFault, match="double write"):
        core.writeback(ctx, 3, 1)          # cell starts FULL


def test_set_reg_on_pending_cell_faults():
    # a one-cycle result may only overwrite a FULL cell: the read stage waits
    # out a PENDING destination, so reaching one is a broken invariant
    chip = make_chip()
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    core._mark_pending(ctx, 4)
    with pytest.raises(SimFault, match="non-full cell r4"):
        core._set_reg(ctx, 4, 7)


def test_mark_pending_on_pending_cell_faults():
    # the read stage suspends on a PENDING destination, so marking one again
    # is a broken invariant: pending_cells, which the read stage trusts to
    # skip its checks, would count the cell twice
    chip = make_chip()
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    core._mark_pending(ctx, 4)
    with pytest.raises(SimFault, match="pending cell r4"):
        core._mark_pending(ctx, 4)
    assert ctx.pending_cells == 1


def allow_stretch(core, stretch):
    """Let step start a quiet stretch at cycle 0, or keep it in the generic
    loop: step runs an ALU operation or a branch in execute with either
    loop's copy of the execute code, so a test that plants one runs both."""
    core._checks = stretch


def test_step_one_cycle_write_to_pending_cell_faults():
    # step writes the results of add/sub/mul/addi itself; a PENDING
    # destination there faults through _set_reg's guard. The thread has left
    # the queue, as a thread that a younger instruction suspended has: a
    # queued thread with a pending cell keeps step out of a quiet stretch
    for stretch in (True, False):
        chip = make_chip()
        core = chip.cores[0]
        ctx, = spawn(chip, 1)
        core._remove_from_queue(ctx)
        core._mark_pending(ctx, 4)
        ctx.value[1], ctx.value[2] = 3, 4
        core.e = (ctx, Instruction(Opcode.ADD, dst=4, src1=1, src2=2), 0)
        allow_stretch(core, stretch)
        with pytest.raises(SimFault, match="non-full cell r4"):
            core.step(0, 1)
        assert core.quiet is stretch


@pytest.mark.parametrize("latch", ["f", "d", "r"])
def test_quiet_stretch_waits_for_a_thread_with_a_pending_cell(latch):
    # a plain add that reads its thread's PENDING r4, planted in fetch,
    # decode or read, keeps step out of a quiet stretch, so it suspends at
    # read
    chip = make_chip()
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    core._mark_pending(ctx, 4)
    inf = (ctx, Instruction(Opcode.ADD, dst=2, src1=4, src2=4), 0)
    setattr(core, latch, inf)
    allow_stretch(core, True)
    core.step(0, 3 - "fdr".index(latch))
    assert not core.quiet
    assert ctx.parked == (4, inf)


# a loop of three addi and a taken beq, on one I-line
QUIET_LOOP = """
.body main
top:
  addi r1, r1, 1
  addi r1, r1, 1
  addi r1, r1, 1
  beq r0, r0, top
"""


def test_quiet_stretch_ends_at_a_thread_with_a_pending_cell():
    # a stretch fetches thread a's beq, which blocks a's fetch; then
    # writeback wakes thread b, parked on r5 with its plain add, which also
    # reads b's PENDING r4: the wake ends the stretch, fetch takes b's add,
    # and b's add suspends at read on r4
    chip = make_chip(QUIET_LOOP)
    core = chip.cores[0]
    a, b = spawn(chip, 2, pc=3)
    b_add = (b, Instruction(Opcode.ADD, dst=2, src1=4, src2=5), 0)
    core._mark_pending(b, 4)
    core._mark_pending(b, 5)
    core._suspend(b_add, 5)
    chip.memory.icache_probe(0, 0, 0)       # warm the line of pc 0..3
    for c in range(11):
        chip.memory.step(c)
    assert fetched(core, 11) == (a, 3)
    assert core.quiet and core.f is DONE_ENTRY
    core.writeback(b, 5, 0)
    core.step(12, 13)
    assert not core.quiet and core.f is b_add
    core.step(13, 16)
    assert b.parked == (4, b_add)


@pytest.mark.parametrize("wait", ["pending", "resume"])
def test_no_quiet_stretch_while_a_queued_thread_waits(wait):
    # thread b, queued behind a, holds a pending cell or a resume: no stretch
    # starts, though every latch is empty or quiet; once b holds neither,
    # the next check starts one
    chip = make_chip(STRAIGHT)
    core = chip.cores[0]
    a, b = spawn(chip, 2)
    b.fetch_blocked = NEVER
    if wait == "pending":
        core._mark_pending(b, 4)
    else:
        b.resume = (b, PLAIN_ADD, 0)
    chip.memory.icache_probe(0, 0, 0)
    for c in range(11):
        chip.memory.step(c)
    for cycle in range(11, 20):
        core.step(cycle, cycle + 1)
        assert not core.quiet
    if wait == "pending":
        core.writeback(b, 4, 0)
    else:
        b.resume = None
    core.step(20, 30)
    assert core.quiet and core.metrics.commits > 0


# thread b loads a word and doubles it, then spins in a quiet loop, where
# thread a starts; all four instructions share one I-line
LOAD_AND_SPIN = """
.body main
  ld r7, 256(r0)
  add r8, r7, r7
spin:
  addi r2, r2, 1
  bne r2, r0, spin
"""


def test_wake_in_a_lone_cores_phases_ends_its_stretch():
    # b's add parks on its load's long miss while a spins, so the core goes
    # quiet. One step call then reaches the fill and runs the memory phase
    # itself; its writeback queues b on the quiet core, which ends the
    # stretch, so b's parked add runs in that same call. A stretch, which
    # fetches no resume, would skip the add and leave r8 at 0
    chip = make_chip(LOAD_AND_SPIN, d_miss_latency=200)
    chip.memory.mem[256:260] = (21).to_bytes(4, "little")
    core = chip.cores[0]
    b, a = spawn(chip, 2)
    a.pc = chip.program.labels["spin"]
    step_core0(chip, 0, 40, False)
    assert b.parked is not None and b.pending_cells == 1
    core.step(40, 41)
    assert core.quiet and 200 < chip.memory.next_due < 400
    ends, _, _ = step_core0(chip, 41, 400, False)
    assert ends == [400]
    assert b.parked is None and b.resume is None and b.value[8] == 42


def latches(core):
    """Core's latches, oldest first."""
    return [core.w, core.m, core.e, core.r, core.d, core.f]


def test_fault_at_a_stretch_fetch_publishes_its_rebuilt_latches():
    # a stretch executes each quiet instruction at its fetch, so an addi
    # whose destination is not FULL (set by hand: a stretch's threads hold
    # no pending cell) faults there, in cycle 21, its eleventh. The step
    # publishes the latches rebuilt as they stood before that cycle's
    # fetch, DONE_ENTRY for each of the last six instructions fetched, and
    # the commits of the four that had shifted out
    src = ".body main\n" + "  addi r1, r1, 1\n" * 10 + "  addi r2, r2, 1\n" \
        "  halt"
    chip = make_chip(src)
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    for pc in (0, 4, 8):
        chip.memory.icache_probe(0, pc, 0)
    for c in range(11):
        chip.memory.step(c)
    ctx.state[2] = EMPTY
    with pytest.raises(SimFault, match="non-full cell r2"):
        core.step(11, 40)
    assert core.quiet and chip.cycle == 21
    assert latches(core) == [DONE_ENTRY] * 6
    assert core.metrics.commits == 4 and ctx.value[1] == 10
    assert ctx.pc == 10


def bne_loop_chip(addis, stretch=True):
    """One thread in a loop of addis addi and a bne back, on one I-line:
    each bne blocks its fetch for three cycles, so from its first fetch, at
    cycle 11, its fetches fail in 3 of every addis + 4 cycles."""
    chip = make_chip(".body main\ntop:\n" + "  addi r1, r1, 1\n" * addis
                     + "  bne r1, r0, top\n")
    spawn(chip, 1)
    allow_stretch(chip.cores[0], stretch)
    chip.memory.icache_probe(0, 0, 0)       # the loop's line, due at 10
    for c in range(11):
        chip.memory.step(c)
    return chip


# (addi per loop, cycles the first call runs): one addi, so that 3 fetches
# in 5 fail, and five, so that six fetches succeed after a failed one
BNE_LOOP_STOPS = [(1, run_in) for run_in in range(5)] + \
    [(5, run_in) for run_in in range(9)]


@pytest.mark.parametrize("addis, run_in", BNE_LOOP_STOPS)
def test_stretch_rebuilds_its_latches_from_the_failed_fetches(addis, run_in):
    # a first call runs the bne loop's stretch for run_in cycles from cycle
    # 11, and a second one stops it 1 to 8 cycles on, or 49: each stop falls
    # at another offset into the loop, with the latches the second call began
    # from still in flight or shifted out. The published latches are None
    # at the failed fetches (and before cycle 11) and DONE_ENTRY elsewhere,
    # and commits, bubbles and the rest of the core and chip are what
    # one-cycle calls leave; the generic loop fails the same fetches
    def failed(cycle):
        return (cycle - 11) % (addis + 4) > addis

    for k in (*range(1, 9), 49):
        whole, single, plain = bne_loop_chip(addis), bne_loop_chip(addis), \
            bne_loop_chip(addis, stretch=False)
        end = 11 + run_in + k
        step_core0(whole, 11, 11 + run_in, False)
        step_core0(whole, 11 + run_in, end, False)
        step_core0(single, 11, end, True)
        step_core0(plain, 11, end, True)
        core = whole.cores[0]
        assert core.quiet
        assert latches(core) == [None if c < 11 or failed(c) else DONE_ENTRY
                                 for c in range(end - 6, end)]
        assert [x is None for x in latches(plain.cores[0])] == \
            [x is None for x in latches(core)]
        m = core.metrics
        assert m.commits == sum(not failed(c) for c in range(11, end - 6))
        assert m.bubbles == sum(map(failed, range(11, end)))
        assert (m.commits, m.bubbles) == (plain.cores[0].metrics.commits,
                                          plain.cores[0].metrics.bubbles)
        assert core_state(whole) == core_state(single)


def test_fault_at_a_stretch_fetch_right_after_failed_fetches():
    # the loop runs twice (r1 reaches r3's 2), then the addi after it faults
    # at its fetch in cycle 21, behind the three fetches that failed while
    # the second bne blocked the thread: the latches are those of cycles 15
    # to 20, and the two instructions fetched at 11 and 12 have committed
    src = ".body main\ntop:\n  addi r1, r1, 1\n  bne r1, r3, top\n" \
        "  addi r2, r2, 1\n"
    chip = make_chip(src)
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    ctx.value[3] = 2
    chip.memory.icache_probe(0, 0, 0)
    for c in range(11):
        chip.memory.step(c)
    ctx.state[2] = EMPTY
    with pytest.raises(SimFault, match="non-full cell r2"):
        core.step(11, 40)
    assert core.quiet and chip.cycle == 21
    assert latches(core) == [None, DONE_ENTRY, DONE_ENTRY, None, None, None]
    assert (core.metrics.commits, core.metrics.bubbles) == (2, 6)
    assert (ctx.pc, ctx.value[1], ctx.value[2]) == (2, 2, 0)


# (opcode, r1, r2 or addi's immediate, wrapped result): a plain result, each
# end of the signed 32-bit range reached without wrapping, then one past each
# end; the products also wrap from far outside the range
ONE_CYCLE_RESULTS = [
    (Opcode.ADD, 2, 3, 5),
    (Opcode.ADD, 0x7FFFFFFE, 1, 0x7FFFFFFF),
    (Opcode.ADD, 0x7FFFFFFF, 1, -0x80000000),
    (Opcode.ADD, -0x80000000, -1, 0x7FFFFFFF),
    (Opcode.SUB, 2, 3, -1),
    (Opcode.SUB, -0x7FFFFFFF, 1, -0x80000000),
    (Opcode.SUB, 0x7FFFFFFF, -1, -0x80000000),
    (Opcode.SUB, -0x80000000, 1, 0x7FFFFFFF),
    (Opcode.MUL, -6, 7, -42),
    (Opcode.MUL, 0x10000, 0x8000, -0x80000000),
    (Opcode.MUL, 0x10000, -0x8001, 0x7FFF0000),
    (Opcode.MUL, 0x7FFFFFFF, 0x7FFFFFFF, 1),
    (Opcode.MUL, -0x80000000, -1, -0x80000000),
    (Opcode.ADDI, 2, 3, 5),
    (Opcode.ADDI, 0x7FFFFFFF, 1, -0x80000000),
    (Opcode.ADDI, -0x80000000, -1, 0x7FFFFFFF),
]


def test_step_wraps_one_cycle_results_and_keeps_r0_zero():
    for stretch in (True, False):
        wraps_one_cycle_results(stretch)


def wraps_one_cycle_results(stretch):
    chip = make_chip()
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    allow_stretch(core, stretch)
    for op, a, b, want in ONE_CYCLE_RESULTS:
        operands = dict(src1=1, imm=b) if op is Opcode.ADDI \
            else dict(src1=1, src2=2)
        for dst, result in ((5, want), (0, 0)):
            ctx.value[1], ctx.value[2] = a, b
            plant(core, e=(ctx, Instruction(op, dst=dst, **operands), 0))
            core.step(0, 1)
            assert core.quiet is stretch
            assert ctx.value[dst] == result, (op, a, b)
            assert ctx.value[1:3] == [a, b]


@pytest.mark.parametrize("op, a, b, taken", [
    (Opcode.BEQ, 4, 4, True), (Opcode.BEQ, 4, 5, False),
    (Opcode.BNE, 4, 5, True), (Opcode.BNE, 4, 4, False)])
def test_step_resolves_branches_and_unblocks_fetch(op, a, b, taken):
    for stretch in (True, False):
        resolves_branch(op, a, b, taken, stretch)


def resolves_branch(op, a, b, taken, stretch):
    # the branch at pc 7 resolves in execute: the thread's pc becomes the
    # target or the next pc, and fetch may go on; the cold I-cache keeps the
    # same cycle's fetch from moving the pc on. Both pcs lie in the program,
    # as fetch's per-pc line table needs
    chip = make_chip(STRAIGHT)
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    ctx.value[1], ctx.value[2] = a, b
    ctx.pc, ctx.fetch_blocked = 8, NEVER
    core.e = (ctx, Instruction(op, src1=1, src2=2, imm=40), 7)
    allow_stretch(core, stretch)
    core.step(0, 1)
    assert core.quiet is stretch
    assert ctx.pc == (40 if taken else 8)
    assert not ctx.fetch_blocked
    assert core.f is None


def test_step_fetches_front_thread_once_its_pending_line_is_installed(
        monkeypatch):
    # the front thread's line misses; step reads the probe memo (not
    # resident) until the fill installs the line and clears the memo, then
    # fetches in that same cycle, after one probe on either side
    probes = []
    probe = MemorySystem.icache_probe

    def record_probe(memory, core, pc, cycle):
        probes.append(cycle)
        return probe(memory, core, pc, cycle)

    monkeypatch.setattr(MemorySystem, "icache_probe", record_probe)
    chip = make_chip()
    core, memory = chip.cores[0], chip.memory
    spawn(chip, 1)
    due = chip.config.i_miss_latency
    for cycle in range(due + 1):
        if cycle in memory.fills:
            memory.step(cycle)
        core.step(cycle, cycle + 1)
        assert (core.f is not None) == (cycle == due)
    assert probes == [0, due]
    assert memory.i_probed[0] == {0: True}


def test_step_fetches_past_blocked_front_thread_as_fetch_select_does():
    chip = make_chip(STRAIGHT)
    core = chip.cores[0]
    a, b, c = spawn(chip, 3)
    chip.memory.icache_probe(0, 0, 0)       # warm the shared line
    for cycle in range(11):
        chip.memory.step(cycle)
    a.fetch_blocked = NEVER
    assert fetch_stage(core, 11) == b.slot
    assert [t.slot for t in core.queue] == [b.slot, c.slot, a.slot]


# two threads whose jumps to themselves block their fetch until decode
# resolves them, so fetch alternates between them and their two lines
TWO_LOOPS = """
.body main
a:
  jmp a
  halt
  halt
  halt
b:
  jmp b
"""


def test_fetch_probes_each_line_once_between_fills_into_its_core(
        monkeypatch):
    probes = []
    probe = MemorySystem.icache_probe

    def record_probe(memory, core, pc, cycle):
        probes.append((cycle, core, pc * 4 // 16))
        return probe(memory, core, pc, cycle)

    chip = make_chip(TWO_LOOPS, p=2)
    core, memory = chip.cores[0], chip.memory
    a, b = spawn(chip, 2)
    b.pc = 4
    # warm lines 0 and 1, and the fetch-ahead lines their probes request
    warm = {0: 0, 11: 4}                    # cycle -> pc
    for cycle in range(22):
        if cycle in warm:
            probe(memory, 0, warm[cycle], cycle)
        if cycle in memory.fills:
            memory.step(cycle)
    monkeypatch.setattr(MemorySystem, "icache_probe", record_probe)

    lines = []

    def run_core(cycles):
        for cycle in cycles:
            if cycle in memory.fills:
                memory.step(cycle)
            lines.append(fetched(core, cycle)[1] // 4)
            # a memo hit still marks the fetched line most recently used
            assert next(reversed(memory._itags[0])) == lines[-1]

    run_core(range(22, 42))
    assert lines == [0, 1] * 10
    assert probes == [(22, 0, 0), (23, 0, 1)]
    probe(memory, 1, 400, 42)               # a fill into core 1
    run_core(range(42, 57))
    assert probes == [(22, 0, 0), (23, 0, 1)]
    probe(memory, 0, 400, 57)               # a fill into core 0, due at 67
    run_core(range(57, 71))
    assert probes[2:] == [(67, 0, lines[67 - 22]), (68, 0, lines[68 - 22])]
    assert lines == [0, 1] * 24 + [0]


# three loops of three addi and a jump, one per 16-byte I-line
THREE_LINE_LOOPS = """
.body main
a:
  addi r1, r1, 1
  addi r1, r1, 1
  addi r1, r1, 1
  jmp a
b:
  addi r2, r2, 1
  addi r2, r2, 1
  addi r2, r2, 1
  jmp b
c:
  addi r3, r3, 1
  addi r3, r3, 1
  addi r3, r3, 1
  jmp c
"""


def step_core0(chip, cycle, stop, single):
    """Run the chip from cycle to stop as the chip loop runs it with core 0
    the only core that steps: each cycle's memory, NoC and TMU phases, then,
    while core 0 is awake, a call of its step, one cycle long or as long as
    step allows. Where the chip has no family (spawn's bare threads), a
    request that core 0 queued for its TMU is recorded and dropped after the
    call; otherwise the TMU phase runs it. Returns the cycles the calls
    returned, the due cycles of every fill seen after a call, and (returned
    cycle, request) pairs."""
    memory, core = chip.memory, chip.cores[0]
    ends, due, requests = [], set(), []
    while cycle < stop:
        chip.phases(cycle)
        if not core.awake:
            cycle += 1
            continue
        cycle = core.step(cycle, cycle + 1 if single else stop)
        ends.append(cycle)
        due.update(memory.fills)
        if chip.requests and not chip.families:
            requests += [(cycle, method.__name__)
                         for _, method, _ in chip.requests]
            chip.requests.clear()
    return ends, due, requests


def core_state(chip):
    """Core 0's threads, queue, latches and counters, its caches, and the
    families, TMU, NoC and memory state of the chip."""
    core, memory, noc = chip.cores[0], chip.memory, chip.noc
    threads = [(slot, ctx.pc, ctx.state, ctx.value, ctx.fetch_blocked,
                ctx.parked and (ctx.parked[0], ctx.parked[1][2]),
                ctx.pending_cells)
               for slot, ctx in core.contexts.items()]
    latches = [x if x is None else "done" if x is DONE_ENTRY
               else (x[0].slot, x[2])
               for x in (core.f, core.d, core.r, core.e, core.m, core.w)]
    m = core.metrics
    families = [(f.fid, f.outstanding, f.completed, f.tail_value)
                for f in chip.families.values()]
    local = [(fid, lf.pos_next, lf.running, lf.buffer)
             for fid, lf in chip.tmus[0].local_fams.items()]
    return (threads, [t.slot for t in core.queue], latches, core.awake,
            (m.commits, m.bubbles, m.flushes, m.switch_events),
            list(memory._itags[0]), list(memory._dtags[0]),
            sorted(memory.fills), vars(memory.stats), bytes(memory.mem),
            families, local, chip.open_families, chip.last_effect,
            noc.injected, noc.hop_log(),
            [(at, len(noc.arrivals[at])) for at in sorted(noc.arrivals)])


def test_one_step_call_equals_single_cycle_steps():
    # three threads fetch from three lines through a two-line I-cache, so the
    # line each I-fill evicts depends on the recency of every fetch; one call
    # over many cycles must leave what as many one-cycle calls leave
    def setup():
        chip = make_chip(THREE_LINE_LOOPS, i_lines=2, i_miss_latency=100)
        memory = chip.memory
        for ctx, pc in zip(spawn(chip, 3), (0, 4, 8)):
            ctx.pc = pc
        memory.icache_probe(0, 0, 0)        # lines 0 and 1, due at 100
        memory.step(100)
        return chip

    whole, single = setup(), setup()
    # no fill falls due in the first 60 cycles: one call runs them all
    assert whole.cores[0].step(101, 161) == 161
    step_core0(single, 101, 161, True)
    assert core_state(whole) == core_state(single)
    assert whole.cores[0].metrics.commits > 30
    # then through fills that evict a line from the full I-cache
    step_core0(whole, 161, 600, False)
    step_core0(single, 161, 600, True)
    assert core_state(whole) == core_state(single)
    assert whole.memory.stats.i_misses > 4


# thread 0 starts at pc 0 (a load whose value it then uses), 4 (a putsh) or 7
# (a halt); thread 1 spins from pc 8 on opcodes that step runs itself, so
# that the core stays awake throughout and only thread 0 calls execute-table
# entries
STOP_POINTS = """
.body main
  addi r1, r0, 0x100
  ld r2, 0(r1)
  add r3, r2, r2
  jmp park
  addi r1, r0, 5
  putsh r1
park:
  jmp park
  halt
spin:
  addi r5, r5, -1
  bne r5, r0, spin
"""


def share_the_chip(chip):
    """Wake core 1 with a thread of its own, so that core 0 steps in a window
    shared with another awake core; core 1 is never stepped."""
    chip.cores[1].start_context(0, fid=1, position=9, logical_index=9, pc=8)


def stop_point_chip(pc, **cache):
    chip = make_chip(STOP_POINTS, p=2, **cache)
    for ctx, start in zip(spawn(chip, 2), (pc, 8)):
        ctx.pc = start
    share_the_chip(chip)
    chip.memory.mem[0x100:0x104] = (21).to_bytes(4, "little")
    chip.memory.icache_probe(0, 0, 0)       # lines 0-3, due at 10
    chip.memory.step(10)
    return chip


@pytest.mark.parametrize("latency", [1, 2, 3])
def test_step_call_returns_at_the_d_fill_its_own_load_created(latency):
    # in a window shared with another awake core, as in the three tests
    # below; the only awake core runs on through such a cycle instead
    whole, single = (stop_point_chip(0, d_miss_latency=latency)
                     for _ in range(2))
    ends, due, _ = step_core0(whole, 11, 40, False)
    single_ends, single_due, _ = step_core0(single, 11, 40, True)
    assert whole.memory.stats.d_misses == 1
    assert due == single_due and due <= set(ends)
    assert len(ends) < len(single_ends)
    assert core_state(whole) == core_state(single)
    assert whole.cores[0].contexts[0].value[3] == 42    # the loaded word, x2


@pytest.mark.parametrize("latency", [1, 2])
def test_step_call_returns_at_the_i_fill_its_own_probe_created(latency):
    # one thread streams through cold I-lines; each new line's probe asks
    # for a line further ahead, due latency cycles on
    def setup():
        chip = make_chip(STRAIGHT, p=2,
                         i_miss_latency=latency)
        spawn(chip, 1)
        share_the_chip(chip)
        return chip

    whole, single = setup(), setup()
    ends, due, _ = step_core0(whole, 0, 60, False)
    single_ends, single_due, _ = step_core0(single, 0, 60, True)
    assert whole.memory.stats.i_misses > 10
    assert due == single_due and due <= set(ends)
    assert len(ends) < len(single_ends)
    assert core_state(whole) == core_state(single)


@pytest.mark.parametrize("pc, queued", [(4, "putsh"), (7, "terminated")])
def test_step_call_returns_the_cycle_after_it_queued_a_tmu_request(pc,
                                                                   queued):
    whole, single = stop_point_chip(pc), stop_point_chip(pc)
    ends, _, requests = step_core0(whole, 11, 40, False)
    _, _, single_requests = step_core0(single, 11, 40, True)
    assert [name for _, name in requests] == [queued]
    assert requests == single_requests
    assert requests[0][0] in ends
    assert core_state(whole) == core_state(single)


# a family of three threads on one core: thread 0 loads a cold word and sends
# it on, thread 1 doubles it and sends it on, thread 2 spins meanwhile and
# then stores it; the code spans eight I-lines
LONE_FAMILY = """
.body main
  halt
.body w
  getidx r5
  addi r6, r0, 2
  beq r5, r6, last
  bne r5, r0, middle
  addi r1, r0, 0x100
  ld r2, 0(r1)
  putsh r2
  halt
middle:
  getsh r3
  add r3, r3, r3
  putsh r3
  halt
last:
  addi r7, r0, 60
spin:
  addi r7, r7, -1
  bne r7, r0, spin
  getsh r3
  st r3, 0x104(r0)
  halt
"""


def test_lone_step_call_runs_the_phases_at_its_stops():
    # the only awake core runs the phases of a cycle with a fill due, a
    # message arriving or a request it queued, and carries on: one call
    # runs the family to its end, as one-cycle steps of the whole chip do
    def setup():
        chip = make_chip(LONE_FAMILY)
        fam = chip.new_family(owner=0, aid=None, entry="w", start=0, step=1,
                              n=3, head=0, creator=None)
        chip.tmus[0].on_create(fam.fid, 0, 3, 0)
        chip.memory.mem[0x100:0x104] = (21).to_bytes(4, "little")
        return chip

    whole, single = setup(), setup()
    ends, _, _ = step_core0(whole, 0, 600, False)
    single_ends, _, _ = step_core0(single, 0, 600, True)
    assert core_state(whole) == core_state(single)
    # one call, through a D-fill, I-fills, the terminations' arrivals and
    # the putsh and halt requests, until the core went idle
    assert len(ends) == 1 and len(single_ends) == ends[0] > 250
    stats = whole.memory.stats
    assert (stats.d_misses, stats.i_misses > 3) == (1, True)
    assert whole.noc.injected == 3 and not whole.noc.in_flight
    assert not whole.open_families
    assert whole.memory.mem[0x104:0x108] == (42).to_bytes(4, "little")


def test_lone_step_call_probes_again_after_a_phase_fills_a_line():
    # a fill completing in a phase the step runs can evict the line the call
    # last fetched from, so the call must probe that line again
    def setup():
        chip = make_chip(STRAIGHT, i_lines=1, i_miss_latency=1)
        spawn(chip, 1)
        chip.memory.icache_probe(0, 0, 0)
        chip.memory.step(1)
        chip.memory.icache_probe(0, 400, 2)         # line 100, due at 3
        return chip

    whole, single = setup(), setup()
    ends, _, _ = step_core0(whole, 2, 12, False)
    step_core0(single, 2, 12, True)
    assert ends == [12]
    assert core_state(whole) == core_state(single)
    # pc 1 missed at cycle 3, once line 100 had evicted line 0, and pc 4
    # on line 1
    assert whole.memory.stats.i_misses == 4


def test_fetch_probes_the_line_it_fetched_last_again_in_the_next_call():
    # the step forgets the line it fetched from last once a fill into its
    # core has emptied the memo: a fill between two calls can evict that line
    chip = make_chip(STRAIGHT, i_lines=1, i_miss_latency=1)
    core, memory = chip.cores[0], chip.memory
    spawn(chip, 1)
    memory.icache_probe(0, 0, 0)
    memory.step(1)
    assert fetch_stage(core, 2) == 0            # pc 0, on line 0
    memory.icache_probe(0, 400, 2)              # line 100, due at 3
    memory.step(3)                              # evicts line 0
    assert list(memory._itags[0]) == [100]
    assert fetch_stage(core, 3) is None         # pc 1 misses
    assert (0, 0) in memory._i_pending


def test_fetch_keeps_the_line_it_fetched_last_until_a_fill_into_its_core(
        monkeypatch):
    # the line fetch last found resident stays resident and most recently
    # used until an I-fill into the core, which empties the memo: later
    # calls fetch from it with no memo lookup, probe or touch, through a
    # fill into another core, and probe again once a fill into this core
    chip = make_chip(STRAIGHT, p=2)
    core, memory = chip.cores[0], chip.memory
    spawn(chip, 1)
    probe, probes, touches = MemorySystem.icache_probe, [], []
    probe(memory, 0, 0, 0)          # lines 0 to 3, due at 10
    memory.step(10)
    probe(memory, 1, 400, 3)        # a fill into core 1, due at 13
    probe(memory, 0, 400, 8)        # a fill into core 0, due at 18

    def record_probe(memory, cid, pc, cycle):
        probes.append((cycle, pc))
        return probe(memory, cid, pc, cycle)

    def record_touch(line):
        touches.append(line)
        memory.i_touch[0](line)

    monkeypatch.setattr(MemorySystem, "icache_probe", record_probe)
    core._touch = record_touch      # read when the resident step starts
    for cycle in range(11, 27):     # pcs 0 to 15, one call each
        if cycle in memory.fills:
            memory.step(cycle)
        assert fetched(core, cycle)[1] == cycle - 11
        assert next(reversed(memory._itags[0])) == (cycle - 11) // 4
    # line 4, which the probe at 15 fetched ahead, is a fill into core 0 too
    assert probes == [(11, 0), (15, 4), (18, 7), (19, 8), (23, 12), (25, 14)]
    assert touches == []


def test_quiet_stretch_leaves_the_awake_list_once_its_latches_drain():
    # the core's only thread parks at read on its pending r4, behind three
    # quiet addi in e, m and w. The next call starts a stretch with an empty
    # queue, whose fetches find no thread; once the addi have shifted out,
    # the core leaves the awake list, with the commits, bubbles and state of
    # one-cycle steps that take no stretch
    def setup(stretch):
        chip = make_chip()
        core = chip.cores[0]
        ctx, = spawn(chip, 1)
        core._mark_pending(ctx, 4)
        addi = Instruction(Opcode.ADDI, dst=1, src1=1, imm=1)
        plant(core, w=(ctx, addi, 0), m=(ctx, addi, 1), e=(ctx, addi, 2),
              r=(ctx, Instruction(Opcode.ADD, dst=2, src1=4, src2=4), 3))
        allow_stretch(core, stretch)
        return chip

    whole, single = setup(True), setup(False)
    core = whole.cores[0]
    assert core.step(0, 1) == 1
    assert not core.quiet and not core.queue
    ends, _, _ = step_core0(whole, 1, 40, False)
    single_ends, _, _ = step_core0(single, 0, 40, True)
    assert core.quiet and not single.cores[0].quiet
    assert ends == [single_ends[-1]] == [3]
    assert not core.awake and whole.awake == []
    assert (core.metrics.commits, core.metrics.bubbles) == (3, 3)
    assert core_state(whole) == core_state(single)


def test_pending_cap_is_structural():
    chip = make_chip()
    core = chip.cores[0]
    ctx, = spawn(chip, 1)
    for reg in range(1, 32):
        core._mark_pending(ctx, reg)
    assert ctx.pending_cells == 31
    assert chip.max_pending == 31


def test_step_core_ideal_pipeline_throughput():
    # an independent add stream commits one instruction per cycle once warm
    body = "\n".join(f"  addi r{1 + i % 8}, r0, {i}" for i in range(40))
    res = run(ChipConfig(p=1), assemble(f".body main\n{body}\n  halt"))
    m = res.metrics
    assert m.commits == 41
    # warm-up: one I-miss, the five-stage ramp, and the final drain
    stalls = m.cycles - m.commits
    assert stalls <= 30
    # the last 30 commits proceed back to back: re-run with a longer stream
    body2 = "\n".join(f"  addi r{1 + i % 8}, r0, {i}" for i in range(140))
    res2 = run(ChipConfig(p=1), assemble(f".body main\n{body2}\n  halt"))
    assert res2.metrics.cycles - res2.metrics.commits == stalls  # same overhead


def test_step_core_load_use_bubble_cold_cache():
    res = run(ChipConfig(p=1), assemble(
        ".body main\n  addi r1, r0, 0x100\n  ld r2, 0(r1)\n"
        "  add r3, r2, r2\n  st r3, 4(r1)\n  halt"))
    assert res.outcome.value == "completed"
    assert res.metrics.flushes > 0        # the speculation cost


def test_free_slots_smallest_first():
    chip = make_chip(thread_slots=4)
    core = chip.cores[0]
    assert [core.take_free_slot() for _ in range(3)] == [0, 1, 2]
    core.release_slot(2)
    core.release_slot(0)
    assert [core.take_free_slot() for _ in range(4)] == [0, 2, 3, None]
    core.release_slot(1)
    assert core.take_free_slot() == 1
    assert core.take_free_slot() is None


def test_thread_slots_are_not_built_up_front():
    # the slot count has no upper bound, so a chip must not spend memory
    # on the slots its threads never take
    gc.collect()
    tracemalloc.start()
    try:
        chip = make_chip(p=4, thread_slots=10**6, mem_bytes=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert chip.cores[3].take_free_slot() == 0
