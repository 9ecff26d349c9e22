"""One in-order single-issue core: six pipeline stages, hardware-multithreaded
fetch coupled to the I-cache, and dataflow scheduling with the register file
as the matching store.

Stage work runs back to front each cycle (writeback, memory, execute, read,
decode, then fetch), so a value produced by a one-cycle operation in execute
is visible to a dependent instruction sitting in read the same cycle; that
stands in for the usual bypass network. Operand availability is only tested
at the read stage: an instruction whose source is still PENDING suspends
there, parks itself on the cell, and its younger same-thread instructions are
flushed from the front of the pipe. The thread rejoins the schedule queue
when the cell is written and the parked instruction is re-injected without an
I-cache probe.

The read stage checks cells only when one can fail the check. Registers
r1..r31 start FULL and are not FULL only while PENDING, a thread's
`pending_cells` counts exactly those cells, and only the channel cell can be
EMPTY. So an instruction passes the read stage untouched when its thread has
no pending cell and it does not read the channel (`Instruction.reads_channel`).
Otherwise the read stage walks its cells: the first source that is not FULL,
else a PENDING destination, is the cell it suspends on.

A thread's register window is flat: two 33-entry lists, `state` and `value`
(r0..r31, then the channel cell), copied from templates at thread start.
Waiter lists exist only on demand: `waiters` maps a register to the
instructions parked on it, from the first park until the writeback wakes them.

An instruction in flight is a plain tuple, `(ctx, instr, pc)`, from fetch to
retirement; a parked waiter and a thread's `resume` hold the same tuple. No
stage carries operand values: each consumer reads the cells it needs from
`ctx.value` when it runs. The execute stage reads its sources there, in
`step`'s own frame or in an execute-table entry called with `(core, ctx,
instr, pc)`; `_load` and `_store` read their address and data cells at the
memory stage. That reads the values the read stage found FULL, because a
cell that an instruction read as FULL keeps its value until that
instruction has used it:

- `writeback` faults on a write to a FULL cell, so no split-phase result
  lands in it;
- `_mark_pending` changes a cell's state, never its value, so an
  instruction that marks its own source PENDING (`ld r7, 0(r7)`) still reads
  the old value;
- the thread's older instructions have all executed by its read stage, so
  none of their one-cycle writes comes later;
- its younger instructions execute after its memory stage in the same cycle,
  because the stages run writeback, memory, execute, read, so a one-cycle
  result they write comes after the last use.

The common path of a cycle runs in `step`'s own frame. `step` counts the
commit; executes add, sub, mul and addi (writing the result wrapped to 32
bits) and beq and bne itself, and any other opcode through its execute-table
entry (indexed by the decoded `Instruction.op`), its one Python call; runs
the read stage; and fetches. Fetch is one walk of the schedule queue, after
any pending switch-hint rotation: the first thread that is resumable, or not
fetch-blocked with its I-line resident, is rotated to the front and fetched
from. Residency comes from the I-probe memo (`MemorySystem.i_probed`) for a
line already probed since the last I-fill into this core, with a recency
touch (`MemorySystem.i_touch`) for a resident one, and from
`MemorySystem.icache_probe` otherwise. A thread whose pc lies on the line
that the same `step` call last found resident, and fetched from, skips both:
that line is still resident and still the most recently used, because only
fetch's own touches reorder the core's I-tags and only a fill evicts a
line, and the remembered line is reset at every call and after every phase
that the call runs (see below). The rest runs only where it is
needed: `_retire` for a halt or a traced run, `_suspend` when an operand is
not ready, `_set_reg` (which faults) when a one-cycle result meets a cell
that is not FULL, and the memory system for a load or store.

A core is stepped only while it is on the chip's awake list (see `sim.py`).
An idle core that still holds threads counts one bubble per cycle: it
remembers the cycle it went idle and adds those bubbles at once when it
wakes or the run ends.

`step(cycle, limit)` runs cycle after cycle in one call, with the latches,
the commit and bubble counts and the core's invariants in locals, and
returns the next cycle to run. Each cycle ends with one test, `cycle >=
stop`, where `stop` is the first cycle with work outside the core: it starts
at `limit`, lowered to `MemorySystem.next_due` and `Noc.next_arrival`, and
the step lowers it where the core makes such work itself (a load or an
I-cache probe that requests a fill, an execute-table entry or a halt's
retirement that queues a TMU request), since nothing else does while a core
steps (`test_step_call_returns_*`). At a stop below `limit`, a core that
shares the chip with another awake core returns; the only awake core runs
that cycle's phases itself (`_phases_alone`), and carries on unless they
woke another core, with `stop` folded again and the remembered I-line
forgotten, since a fill may have evicted it (`test_lone_step_call_*`). The
call sets `chip.cycle` before each cycle, because load-hit callbacks and
`_enlist` read it and, in a shared window, the core stepped before this one
has left it at a later cycle.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappop, heappush
from operator import attrgetter

from .errors import SimFault
from .isa import CHANNEL_CELL, Opcode, s32

# register cell states
EMPTY, FULL, PENDING = 0, 1, 2

_CID = attrgetter("cid")        # order of the chip's awake list

# the opcodes step runs in its own frame, as Instruction.op's plain ints; the
# one-cycle results are the opcodes below _LD
_ADD, _SUB, _MUL, _ADDI, _LD, _BEQ, _BNE = map(int, (
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.ADDI, Opcode.LD, Opcode.BEQ,
    Opcode.BNE))


# a fresh thread's register window: r0..r31 FULL 0, then an EMPTY channel
_STATE = (FULL,) * 32 + (EMPTY,)
_VALUE = (0,) * 33


class ThreadContext:
    __slots__ = ("slot", "fid", "position", "logical_index", "pc", "state",
                 "value", "waiters", "waits_on", "suspended", "fetch_blocked",
                 "resume", "pending_cells", "last_denial")

    def __init__(self, slot, fid, position, logical_index, pc,
                 channel_value=None):
        self.slot = slot
        self.fid = fid
        self.position = position
        self.logical_index = logical_index
        self.pc = pc
        self.state = list(_STATE)
        self.value = list(_VALUE)
        if channel_value is not None:
            self.state[CHANNEL_CELL] = FULL
            self.value[CHANNEL_CELL] = channel_value
        self.waiters = {}           # register -> parked instructions, FIFO
        # register -> family its PENDING cell waits on (sync, getsh of a
        # tail) or None, set as it turns PENDING; read by deadlock diagnosis
        self.waits_on = {}
        self.suspended = False      # parked on a cell at the read stage
        self.fetch_blocked = False
        self.resume = None
        self.pending_cells = 0
        self.last_denial = -1


class CoreMetrics:
    __slots__ = ("commits", "bubbles", "flushes", "switch_events")

    def __init__(self):
        self.commits = 0
        self.bubbles = 0
        self.flushes = 0
        self.switch_events = 0


class Core:
    def __init__(self, cid: int, chip, thread_slots: int):
        self.cid = cid
        self.chip = chip
        self.instructions = chip.program.instructions
        # this core's I-probe memo and I-line recency touch, read by fetch
        # (see MemorySystem.icache_probe)
        self._probed = chip.memory.i_probed[cid]
        self._touch = chip.memory.i_touch[cid]
        self._line_bytes = chip.memory.config.line_bytes
        self.traced = chip.config.trace     # retire every commit, not just halts
        self.contexts: dict[int, ThreadContext] = {}
        # free slots, smallest first: released ones on a heap, then the
        # never-used ones from _fresh up to thread_slots
        self._released: list[int] = []
        self._fresh = 0
        self._slots = thread_slots
        self.queue: deque[int] = deque()
        self.metrics = CoreMetrics()
        self._rotate_pending = None
        # latches: fetch, decode, read, execute, memory, writeback
        self.f = self.d = self.r = self.e = self.m = self.w = None
        self.awake = False          # on the chip's awake list
        self.idle_since = None      # first unsettled bubble cycle while idle

    # -- slot management (driven by the TMU) -----------------------------------

    def take_free_slot(self):
        if self._released:
            return heappop(self._released)
        if self._fresh < self._slots:
            self._fresh += 1
            return self._fresh - 1
        return None

    def release_slot(self, slot: int):
        heappush(self._released, slot)

    def start_context(self, slot, fid, position, logical_index, pc,
                      channel_value=None):
        ctx = ThreadContext(slot, fid, position, logical_index, pc,
                            channel_value)
        self.contexts[slot] = ctx
        self.queue.append(slot)
        if not self.awake:
            self._enlist()
        return ctx

    # -- dataflow cell writes ----------------------------------------------------

    def writeback(self, ctx: ThreadContext, reg: int, value: int) -> list:
        """Split-phase completion into a PENDING or EMPTY cell; wakes waiters."""
        if reg == 0:
            return []
        state = ctx.state
        if state[reg] == FULL:
            raise SimFault(
                f"double write to full cell r{reg} of thread "
                f"(family {ctx.fid}, index {ctx.logical_index})")
        if state[reg] == PENDING:
            ctx.pending_cells -= 1
        state[reg] = FULL
        ctx.value[reg] = value
        woken = ctx.waiters.pop(reg, [])
        for inf in woken:
            self._wake(inf)
        return woken

    def write_channel(self, slot: int, value: int):
        self.writeback(self.contexts[slot], CHANNEL_CELL, value)

    def _set_reg(self, ctx, reg, value):
        # same-cycle completion of a one-cycle result into a cell the read
        # stage has already seen FULL: getidx and a plain getsh write here,
        # and step's own write of an add/sub/mul/addi result faults here
        if reg == 0:
            return
        if ctx.state[reg] != FULL:
            raise SimFault(
                f"one-cycle write to non-full cell r{reg} of thread "
                f"(family {ctx.fid}, index {ctx.logical_index})")
        ctx.value[reg] = value

    def _mark_pending(self, ctx, reg, waits_on=None):
        if reg == 0:
            return
        # the read stage suspends on a PENDING destination, so reaching one
        # here is a broken invariant, and pending_cells would overcount
        if ctx.state[reg] == PENDING:
            raise SimFault(
                f"pending cell r{reg} of thread (family {ctx.fid}, index "
                f"{ctx.logical_index}) marked pending again")
        ctx.state[reg] = PENDING
        ctx.waits_on[reg] = waits_on
        ctx.pending_cells += 1
        if ctx.pending_cells > self.chip.max_pending:
            self.chip.max_pending = ctx.pending_cells

    def _wake(self, inf: tuple):
        ctx = inf[0]
        ctx.suspended = False
        ctx.resume = inf
        self.queue.append(ctx.slot)
        if not self.awake:
            self._enlist()

    # -- awake list ------------------------------------------------------------------

    def _enlist(self):
        self.settle_bubbles(self.chip.cycle)
        self.awake = True
        # a new list: the chip loop may be walking the old one
        awake = self.chip.awake[:]
        insort(awake, self, key=_CID)
        self.chip.awake = awake

    def settle_bubbles(self, end: int):
        """Count the bubbles of the idle cycles before end."""
        if self.idle_since is not None:
            self.metrics.bubbles += end - self.idle_since
            self.idle_since = None

    # -- queue -----------------------------------------------------------------

    def _remove_from_queue(self, slot):
        try:
            self.queue.remove(slot)
        except ValueError:
            pass
        if self._rotate_pending == slot:
            self._rotate_pending = None

    # -- read stage (its ready path runs in step) ----------------------------------

    def _suspend(self, inf: tuple, cell: int):
        """Park inf, a (ctx, instr, pc) tuple, on a cell that is not ready: its
        thread leaves the queue and its younger instructions are flushed."""
        ctx, instr, pc = inf
        ctx.waiters.setdefault(cell, []).append(inf)
        ctx.suspended = True
        self._remove_from_queue(ctx.slot)
        self.flush_younger(ctx, pc + 1)
        # a fetch block imposed by a younger, now-flushed control transfer
        # must not outlive it; a suspended branch keeps its own block
        if not instr.is_branch:
            ctx.fetch_blocked = False

    def flush_younger(self, ctx, restart_pc: int) -> int:
        """Drop this thread's younger instructions from fetch/decode and point
        its pc at the suspended instruction's successor (the suspended
        instruction itself re-enters at wakeup)."""
        n = 0
        if self.f is not None and self.f[0] is ctx:
            self.f = None
            n += 1
        if self.d is not None and self.d[0] is ctx:
            self.d = None
            n += 1
        ctx.pc = restart_pc
        self.metrics.flushes += n
        return n

    # -- memory stage ---------------------------------------------------------------

    def _load(self, inf: tuple, cycle: int):
        ctx, instr, _ = inf
        addr = s32(ctx.value[instr.src1] + instr.imm)
        dst = instr.dst

        def deliver(value, ctx=ctx, dst=dst):
            self.writeback(ctx, dst, value)
            self.chip.last_effect = self.chip.cycle

        if dst == 0:
            deliver = lambda value: None
        self.chip.memory.load(self.cid, addr, ctx.fid, cycle, deliver)

    def _store(self, inf: tuple, cycle: int):
        ctx, instr, _ = inf
        value = ctx.value
        addr = s32(value[instr.src2] + instr.imm)
        self.chip.memory.store(self.cid, addr, value[instr.src1], ctx.fid,
                               cycle)

    # -- retirement -------------------------------------------------------------------

    def _retire(self, inf: tuple, cycle: int):
        """Trace a commit and terminate a halting thread; step counts it."""
        ctx, instr, pc = inf
        chip = self.chip
        if chip.trace is not None:
            chip.trace.append((cycle, self.cid, ctx.slot, ctx.fid,
                               ctx.logical_index, pc, instr.mnemonic))
        if instr.is_halt:
            self._remove_from_queue(ctx.slot)
            del self.contexts[ctx.slot]
            tmu = chip.tmus[self.cid]
            tmu.enqueue(tmu.terminated, ctx.slot, ctx.fid, ctx.position)

    # -- cycles -------------------------------------------------------------------------

    def _phases_alone(self, cycle: int) -> bool:
        """Run the cycle's memory, NoC and TMU phases if this core is the
        only awake core; true if it still is, so that its step carries on.
        Kept out of step's frame, where this rare branch cost spin-p1
        1.4-2.5% of its commits per second (2-vCPU x86_64, CPython 3.11)."""
        chip = self.chip
        if len(chip.awake) > 1:
            return False
        try:
            chip.phases(cycle)
        except SimFault:
            chip.fault_before_cores = True
            raise
        return len(chip.awake) == 1

    def step(self, cycle: int, limit: int) -> int:
        """Run cycles from cycle until limit, until the core goes idle, or
        until a stop the module docstring describes; returns the next cycle
        to run."""
        chip = self.chip
        memory, noc = chip.memory, chip.noc
        # the first cycle with work outside the core, lowered below as the
        # core makes such work itself
        stop = limit
        if memory.next_due < stop:
            stop = memory.next_due
        if noc.next_arrival < stop:
            stop = noc.next_arrival
        cid, queue, contexts = self.cid, self.queue, self.contexts
        probed, touch, line_bytes = self._probed, self._touch, self._line_bytes
        instructions, traced, metrics = self.instructions, self.traced, \
            self.metrics
        busy_tmus = chip.busy_tmus
        f, d, r, e, m, w = self.f, self.d, self.r, self.e, self.m, self.w
        commits = bubbles = 0
        fetched_line = -1       # the line this call last found resident
        try:
            while True:
                chip.cycle = cycle
                if w is not None:
                    commits += 1
                    if w[1].is_halt or traced:
                        self._retire(w, cycle)
                        if busy_tmus:           # a halt's termination
                            stop = cycle + 1
                if m is not None:
                    instr = m[1]
                    if instr.is_load:
                        self._load(m, cycle)
                        if memory.next_due < stop:      # a D-fill it made
                            stop = memory.next_due
                    elif instr.is_store:
                        self._store(m, cycle)
                if e is not None:
                    ctx, instr, pc = e
                    op = instr.op
                    if op < _LD:
                        # add, sub, mul, addi: a one-cycle result, wrapped to
                        # 32 bits and written into a cell the read stage saw
                        # FULL (r0 stays 0)
                        value = ctx.value
                        if op == _ADDI:
                            result = value[instr.src1] + instr.imm
                        elif op == _ADD:
                            result = value[instr.src1] + value[instr.src2]
                        elif op == _SUB:
                            result = value[instr.src1] - value[instr.src2]
                        else:
                            result = value[instr.src1] * value[instr.src2]
                        dst = instr.dst
                        if dst:
                            if ctx.state[dst] != FULL:
                                self._set_reg(ctx, dst, result)     # faults
                            value[dst] = result if -0x80000000 <= \
                                result <= 0x7FFFFFFF else s32(result)
                    elif op == _BNE:
                        value = ctx.value
                        ctx.pc = instr.imm if value[instr.src1] != \
                            value[instr.src2] else pc + 1
                        ctx.fetch_blocked = False
                    elif op == _BEQ:
                        value = ctx.value
                        ctx.pc = instr.imm if value[instr.src1] == \
                            value[instr.src2] else pc + 1
                        ctx.fetch_blocked = False
                    else:
                        EXECUTE[op](self, ctx, instr, pc)
                        if busy_tmus:           # a TMU request it queued
                            stop = cycle + 1
                # read: with a pending cell in the thread, or a channel
                # source, suspend on the first cell that is not FULL (sources
                # first, then a PENDING destination); else pass untouched
                if r is not None:
                    ctx, instr, _ = r
                    if ctx.pending_cells or instr.reads_channel:
                        state = ctx.state
                        for cell in instr.source_cells:
                            if state[cell] != FULL:
                                break
                        else:
                            cell = instr.dst
                            if not cell or state[cell] != PENDING:
                                cell = None
                        if cell is not None:
                            # the flush reads and clears the fetch and decode
                            # latches
                            self.f, self.d = f, d
                            self._suspend(r, cell)
                            f, d, r = self.f, self.d, None
                if d is not None:
                    instr = d[1]
                    if instr.is_jump:
                        ctx = d[0]
                        ctx.pc = instr.imm
                        ctx.fetch_blocked = False

                # advance the latches one stage
                w, m, e, r, d = m, e, r, d, f

                # fetch: after any pending switch-hint rotation (it names a
                # queued thread), the first thread in queue order that is
                # resumable, or not fetch-blocked with its I-line resident, is
                # rotated to the front. The line this call last found
                # resident is still resident and most recently used; the memo
                # answers for a line probed since the last I-fill into this
                # core; any other line is probed, which requests it on a miss.
                rotated = self._rotate_pending
                if rotated is not None:
                    self._rotate_pending = None
                    queue.remove(rotated)
                    queue.append(rotated)
                slot = None
                k = 0
                for s in queue:
                    ctx = contexts[s]
                    if ctx.resume is None:
                        if ctx.fetch_blocked:
                            k += 1
                            continue
                        line = ctx.pc * 4 // line_bytes
                        if line != fetched_line:
                            resident = probed.get(line)
                            if resident is None:
                                resident = memory.icache_probe(cid, ctx.pc,
                                                               cycle)
                                if memory.next_due < stop:  # an I-fill
                                    stop = memory.next_due
                            elif resident:
                                touch(line)
                            if not resident:
                                k += 1
                                continue
                            fetched_line = line
                    if k:
                        queue.rotate(-k)
                    slot = s
                    break
                if slot is None:
                    f = None
                    if contexts:
                        bubbles += 1
                    if not queue and d is None and r is None and e is None \
                            and m is None and w is None:
                        self.awake = False
                        if contexts:
                            self.idle_since = cycle + 1
                        return cycle + 1
                else:
                    f = ctx.resume
                    if f is None:
                        pc = ctx.pc
                        instr = instructions[pc]
                        f = (ctx, instr, pc)
                        if instr.ends_block:
                            ctx.fetch_blocked = True
                        else:
                            ctx.pc = pc + 1
                    else:
                        ctx.resume = None
                        instr = f[1]
                    if instr.switch_hint:
                        self._rotate_pending = slot
                        metrics.switch_events += 1

                cycle += 1
                if cycle >= stop:
                    if cycle >= limit or not self._phases_alone(cycle):
                        return cycle
                    stop = limit
                    if memory.next_due < stop:
                        stop = memory.next_due
                    if noc.next_arrival < stop:
                        stop = noc.next_arrival
                    busy_tmus = chip.busy_tmus      # a new, empty list
                    fetched_line = -1   # a fill may have evicted it
        finally:
            self.f, self.d, self.r, self.e, self.m, self.w = f, d, r, e, m, w
            metrics.commits += commits
            metrics.bubbles += bubbles


# -- execute stage: one entry per opcode that step does not run itself --------
# add, sub, mul, addi, beq and bne run in step's frame. An entry reads its
# source cells from ctx.value and writes any result itself.


def _ld(core, ctx, instr, pc):
    core._mark_pending(ctx, instr.dst)


def _nothing(core, ctx, instr, pc):
    # st: the memory stage stores; jmp: resolved in decode; halt: retirement
    # drives termination
    pass


def _getidx(core, ctx, instr, pc):
    core._set_reg(ctx, instr.dst, ctx.logical_index)


def _getsh(core, ctx, instr, pc):
    if instr.src1 is None:
        core._set_reg(ctx, instr.dst, ctx.value[CHANNEL_CELL])
    else:
        fid = ctx.value[instr.src1]
        core._mark_pending(ctx, instr.dst, fid)
        tmu = core.chip.tmus[core.cid]
        tmu.enqueue(tmu.getsh_tail, ctx, instr.dst, fid)


def _putsh(core, ctx, instr, pc):
    v = ctx.value
    tmu = core.chip.tmus[core.cid]
    if instr.src2 is None:
        tmu.enqueue(tmu.putsh, ctx, v[instr.src1])
    else:
        tmu.enqueue(tmu.putsh_head, v[instr.src2], v[instr.src1])


def _allocate(core, ctx, instr, pc):
    hint = ctx.value[instr.src1] if instr.src1 is not None else None
    core._mark_pending(ctx, instr.dst)
    tmu = core.chip.tmus[core.cid]
    tmu.enqueue(tmu.allocate, ctx, instr.dst, instr.imm, hint)


def _create(core, ctx, instr, pc):
    v = ctx.value
    aid = v[instr.src1]
    seed = v[instr.src2] if instr.src2 is not None else None
    core._mark_pending(ctx, instr.dst)
    tmu = core.chip.tmus[core.cid]
    tmu.enqueue(tmu.create, ctx, instr.dst, aid, instr.entry,
                instr.create_range, seed)


def _sync(core, ctx, instr, pc):
    fid = ctx.value[instr.src1]
    core._mark_pending(ctx, instr.dst, fid)
    tmu = core.chip.tmus[core.cid]
    tmu.enqueue(tmu.sync, ctx, instr.dst, fid)


def _release(core, ctx, instr, pc):
    tmu = core.chip.tmus[core.cid]
    tmu.enqueue(tmu.release, ctx.value[instr.src1])


_EXECUTE_BY_OPCODE = {
    Opcode.LD: _ld, Opcode.ST: _nothing, Opcode.JMP: _nothing,
    Opcode.HALT: _nothing, Opcode.ALLOCATE: _allocate, Opcode.CREATE: _create,
    Opcode.SYNC: _sync, Opcode.RELEASE: _release, Opcode.GETIDX: _getidx,
    Opcode.PUTSH: _putsh, Opcode.GETSH: _getsh,
}
# indexed by Instruction.op, None where step runs the opcode itself; building
# it fails at import if any other opcode has no entry
EXECUTE = tuple(None if op in (_ADD, _SUB, _MUL, _ADDI, _BEQ, _BNE)
                else _EXECUTE_BY_OPCODE[op] for op in Opcode)
