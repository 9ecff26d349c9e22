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
A thread parks at most one instruction, because `_suspend` flushes its
younger ones: `parked` holds `(cell, inf)` from the park until the writeback
of that cell wakes it, and is None while the thread is not suspended.

An instruction in flight is a plain tuple, `(ctx, instr, pc)`, from fetch to
retirement, except that each one a quiet stretch has executed is one shared
entry, `DONE_ENTRY` (see below); a thread's `parked` and `resume` hold the
same tuple. No
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

The common path of a cycle runs in the step's own frame. The step counts
the commit; executes add, sub, mul and addi (writing the result wrapped to
32 bits) and beq and bne itself, skips st, jmp and halt, which have no
execute work, and runs any other opcode through its execute-table entry
(indexed by the decoded `Instruction.op`), its one Python call; runs the
read stage; and fetches. The memory stage runs only at a cycle mark, `m_at`:
execute sets it to the next cycle for a ld or st, and the resident step (see
below) derives it from the `m` latch when it starts. One mark is enough
because an instruction reaches memory the cycle after execute and the stage
reads the mark before execute sets it again; writeback (halts, traced
commits) and decode (jumps) test each instruction instead, because a mark
set two or more cycles ahead would be overwritten by the next instruction's
before it was read. Fetch is one walk of the schedule queue, which holds the
queued threads' contexts, after any pending switch-hint rotation
(`_rotate_pending`, a context): the first thread that is resumable, or not
fetch-blocked with its I-line resident, is rotated to the front and fetched
from. Residency comes from the I-probe memo (`MemorySystem.i_probed`) for a
line already probed since the last I-fill into this core, with a recency
touch (`MemorySystem.i_touch`) for a resident one, and from
`MemorySystem.icache_probe` otherwise. A thread whose pc lies on the line
that fetch last found resident, and fetched from, skips both: that line is
still resident and still the most recently used, because only fetch's own
touches reorder the core's I-tags and only an I-fill into the core evicts a
line or reorders them. Such a fill empties the memo, so the step keeps the
remembered line across calls and stops and forgets it only when it finds
the memo empty, at a call's start and after every phase that the call runs
(see below). The rest runs only where it is needed: `_retire` for a halt or
a traced run, `_suspend` when an operand is not ready, `_set_reg` (which
faults) when a one-cycle result meets a cell that is not FULL, and the
memory system for a load or store.

A quiet stretch is a second inner loop of the step, for cycles in which only
execute and fetch have work. An instruction is quiet (`Instruction.quiet`)
when it is add, sub, mul, addi, beq or bne with no switch hint. The stretch
runs while every instruction in flight is quiet and no queued thread has a
pending cell or a resume. The latches' threads are queued threads (a thread
that suspends or halts has nothing younger in flight), so under that
invariant each check that the generic loop makes outside execute and fetch
is a no-op:

- writeback has nothing to retire: no halt is in flight, and a traced run,
  which retires every commit, never starts a stretch;
- the memory stage has no load or store, so the mark `m_at` lies behind;
- every read passes untouched: its thread has no pending cell, so every
  register is FULL, and no quiet instruction reads the channel;
- decode has no jump to resolve;
- no switch-hint rotation is pending, because the instruction fetched the
  cycle before has no hint;
- fetch finds no resume, so it takes each thread's next instruction from
  its pc.

Only a thread's own quiet instructions then read or write its registers,
in the order it fetched them, and no instruction acts outside the core. So
the stretch executes each quiet instruction at its fetch, four cycles before
execute would, and leaves `DONE_ENTRY`, `(NOBODY, DONE, -1)`, in flight for
it: `DONE` is `add r0, r0, r0`, and `NOBODY` a context of no thread, with
slot -1 and no pending cell. One entry stands in exactly for every such
instruction, because no stage reads its thread or pc:

- writeback: it is not a halt, and a traced run never takes a stretch;
- memory: `m_at` is never set for it;
- execute: it runs `add r0, r0, r0` on `NOBODY`'s r0;
- read: `NOBODY` has no pending cell, and r0 is always FULL;
- decode: it is not a jump;
- `sim._stop`: its `acts_outside` is False.

`flush_younger` matches entries by thread, but it never needs to drop a
`DONE_ENTRY`: a stretch starts only with quiet instructions in flight, and
it ends at its first fetch that is not quiet or before a woken thread's
resume fetch, so no `DONE_ENTRY` is younger than an instruction of its own
thread that can suspend.

The stretch's execute code is the generic loop's, node for node,
`_set_reg`'s FULL guard included (`test_quiet_execute_copies_match`); its
fetch is the generic fetch without the resume branch and the rotation, and
its walk of the queue is the generic one's (`test_fetch_walks_match`). A
branch resolves there too, so
`ThreadContext.fetch_blocked` is a cycle, the first one at which the thread
may fetch: its fetch cycle plus four after a branch that a stretch ran, as
when execute resolves it; NEVER after the generic fetch of a block ender,
until the generic execute or decode resolves it and sets 0. The generic
fetch tests the block before it compares it with the cycle, so a thread
with none costs one test.

A stretch cycle thus only fetches, and the latches only shift. With every
executed entry the same object, the six latches depend only on which
fetches failed, so the stretch keeps the latches it began from and records
the cycles whose fetch failed, the last six of them. Wherever it stops (a
call's end, a stop's phases, a `SimFault`, going idle), it rebuilds the six
latches: all `DONE_ENTRY` once it has run six cycles or more and none of the
last six fetches failed, else the latches it began from that are still in
flight, then None or `DONE_ENTRY` for each cycle it ran; and the
instruction that ended it in f. After a stop it begins again from those.
Writeback commits the latch that each cycle pushes out unless it is empty,
so the commits are the cycles run, less the empty latches it began from and
the failed fetches, plus the empty latches left at the end.

A stretch that starts first executes the quiet instructions in e, r, d and
f that have not executed, oldest first, each as in its own execute cycle
(`_execute_in_flight`): a branch among them unblocks its thread from that
cycle. A resident step that starts on a quiet core does the same. After
that every queued thread of a quiet core sits at its next fetch, which
`sim._stop` reads as the core's horizon.

Nothing inside the stretch breaks the invariant: only a non-quiet
instruction's execute marks a cell PENDING, and a fresh thread
(`start_context`) has neither a pending cell nor a resume. A thread that
holds either joins the queue only when `writeback` wakes it, and that clears
`Core.quiet`: a quiet step tests `quiet` again at every call's start and
after the phases that a lone core runs at a stop, the only places where a
writeback reaches a core between its cycles, so the stretch ends before the
woken thread's next fetch. Otherwise it ends at the fetch of an instruction
that is not quiet; that fetch does a hinted instruction's rotation
bookkeeping, and the generic loop runs from the next cycle, on latches that
hold `DONE_ENTRY` for what the stretch executed.

A stretch starts only at a call's start or after a stop. The check there
tests that all six latches hold only quiet instructions (or none), then
that no queued thread has a pending cell or a resume. Every untraced core
checks there (`Core._checks`); a core in a traced run never does.

A core is stepped only while it is on the chip's awake list (see `sim.py`):
it joins the list in `_enlist` and leaves it itself when its step ends idle.
An idle core that still holds threads counts one bubble per cycle: it
remembers the cycle it went idle and adds those bubbles at once when it
wakes or the run ends.

`step(cycle, limit)` resumes the core's resident step, a generator
(`_steps`) that keeps the latches, the per-core constants, the mark `m_at`
and the remembered I-line as locals from one call to the next, runs cycle
after cycle, and returns the next cycle to run from its one yield point.
There it publishes what other code reads: the six latch attributes (read by
`sim._stop` and the tests) and the call's commit and bubble counts, added to
`Core.metrics`; `Core.quiet` is kept current as a stretch starts and ends.
It starts when first called, and again after `restart`, reading the latches,
`quiet` and `_checks` from the core; a `SimFault` publishes the same (the
latches rebuilt from the failed fetches if a stretch raised it), restarts
it and re-raises. A generic cycle starts with one test, `cycle <
stop`, and a stretch cycle ends with `cycle >= stop`, where `stop` is the
first cycle with work outside the core (a call starts below it): it starts
at `limit`, lowered to `MemorySystem.next_due` and `Noc.next_arrival`, and
the step lowers it where the core makes such work itself (a load or an
I-cache probe that requests a fill, an execute-table entry or a halt's
retirement that appends a TMU request to the chip's request list,
`chip.requests`), since nothing else does while a core steps
(`test_step_call_returns_*`). At a stop below `limit`, a core that shares
the chip with another awake core returns; the only awake core runs that
cycle's phases itself (`_phases_alone`), and carries on unless they woke
another core, with `stop` folded again, the request list read again (the
TMU phase installs a new one) and the remembered I-line forgotten if a fill
into the core emptied its memo (`test_lone_step_call_*`).

`chip.cycle` is current only where something reads it. The step writes it
before a load (a hit's callback records `chip.last_effect` from it), before
an execute-table entry and `_retire` (each may queue a TMU request, in the
cycle the chip's clock then shows), and in an `except SimFault` that
re-raises, since `sim.run` reads a fault's cycle there; `Chip.phases` sets it
for the phases a lone core runs. Between those writes it may lag the call's
cycle, or, in a shared window, lead it where the core stepped before this
one left it; `_enlist`, its other reader, runs only for a core that is not
awake, so never inside that core's own call.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter

from .errors import SimFault
from .isa import CHANNEL_CELL, Instruction, Opcode, s32
from .memory import NEVER
from .tmu import Tmu

# register cell states
EMPTY, FULL, PENDING = 0, 1, 2

_CID = attrgetter("cid")        # order of the chip's awake list

# the opcodes step runs in its own frame, as Instruction.op's plain ints; the
# one-cycle results are the opcodes below _LD
_ADD, _SUB, _MUL, _ADDI, _LD, _ST, _BEQ, _BNE = map(int, (
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.ADDI, Opcode.LD, Opcode.ST,
    Opcode.BEQ, Opcode.BNE))


# the instruction of DONE_ENTRY: add r0, r0, r0, which every stage passes
# untouched
DONE = Instruction(Opcode.ADD, dst=0, src1=0, src2=0)

# the pipeline's stages, each a latch: fetch, decode, read, execute, memory,
# writeback
_DEPTH = 6


def reach(instructions) -> list[int]:
    """For each pc, the fewest instructions that any path from it fetches
    before one that acts outside the core (`Instruction.acts_outside`), or
    NEVER where no path reaches one. A pc's successors are its fall-through
    and a branch's target, or a jmp's target alone; a halt acts outside.
    `sim._stop` reads it as a quiet core's horizon (see `sim.py`)."""
    n = len(instructions)
    out = [NEVER] * n
    before = [[] for _ in range(n)]     # pc -> the pcs it succeeds
    found = []                          # breadth first, against the edges
    for pc, instr in enumerate(instructions):
        if instr.acts_outside:
            out[pc] = 0
            found.append(pc)
        elif instr.is_jump:
            before[instr.imm].append(pc)
        else:
            if instr.is_branch:
                before[instr.imm].append(pc)
            if pc + 1 < n:
                before[pc + 1].append(pc)
    for pc in found:
        for prev in before[pc]:
            if out[prev] == NEVER:
                out[prev] = out[pc] + 1
                found.append(prev)
    return out


# a fresh thread's register window: r0..r31 FULL 0, then an EMPTY channel
_STATE = (FULL,) * 32 + (EMPTY,)
_VALUE = (0,) * 33


class ThreadContext:
    __slots__ = ("slot", "fid", "position", "logical_index", "pc", "state",
                 "value", "parked", "waits_on", "fetch_blocked", "resume",
                 "pending_cells", "last_denial")

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
        self.parked = None          # (cell, inf) while suspended at read
        # register -> family its PENDING cell waits on (sync, getsh of a
        # tail) or None, set as it turns PENDING; read by deadlock diagnosis
        self.waits_on = {}
        # the first cycle the thread may fetch: 0, a branch's execute cycle
        # once a quiet stretch has run it, or NEVER behind a block ender
        # that has yet to resolve
        self.fetch_blocked = 0
        self.resume = None
        self.pending_cells = 0
        self.last_denial = -1


# what a quiet stretch leaves in flight for an instruction it executed at
# fetch, one entry for all of them: DONE on NOBODY, a thread that holds no
# slot and no pending cell (see the module docstring)
NOBODY = ThreadContext(-1, -1, -1, -1, -1)
DONE_ENTRY = (NOBODY, DONE, -1)


def _shifted(latches, n, failed, cycle):
    """The six latches, oldest first, after a quiet stretch ran the n cycles
    before cycle from latches: those still in flight, then for each of the
    last six cycles it ran, None if the cycle is in failed (the cycles whose
    fetch failed) and DONE_ENTRY if not."""
    return latches[n:] + [None if c in failed else DONE_ENTRY
                          for c in range(cycle - min(n, _DEPTH), cycle)]


@dataclass(slots=True)
class PerCoreMetrics:
    """A core's counters as it runs; `sim.run` sets utilization at the end
    and reports the record itself."""
    commits: int = 0
    bubbles: int = 0
    flushes: int = 0
    switch_events: int = 0
    utilization: float = 0.0


class Core:
    def __init__(self, cid: int, chip):
        self.cid = cid
        self.chip = chip
        self.instructions = chip.program.instructions
        # this core's I-probe memo and I-line recency touch, read by fetch
        # (see MemorySystem.icache_probe)
        self._probed = chip.memory.i_probed[cid]
        self._touch = chip.memory.i_touch[cid]
        self._line_of = chip.line_of
        self.traced = chip.config.trace     # retire every commit, not just halts
        self.contexts: dict[int, ThreadContext] = {}
        # free slots, smallest first: released ones on a heap, then the
        # never-used ones from _fresh up to thread_slots
        self._released: list[int] = []
        self._fresh = 0
        self._slots = chip.config.thread_slots
        self.queue: deque[ThreadContext] = deque()
        self.metrics = PerCoreMetrics()
        self._rotate_pending = None
        # latches: fetch, decode, read, execute, memory, writeback
        self.f = self.d = self.r = self.e = self.m = self.w = None
        self.awake = False          # on the chip's awake list
        # in a quiet stretch (see the module docstring), and whether step
        # checks for one: never in a traced run
        self.quiet = False
        self._checks = not self.traced
        self.idle_since = None      # first unsettled bubble cycle while idle
        self._send = self._start    # resumes the resident step

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
        self.queue.append(ctx)
        if not self.awake:
            self._enlist()
        return ctx

    # -- dataflow cell writes ----------------------------------------------------

    def writeback(self, ctx: ThreadContext, reg: int, value: int):
        """Split-phase completion into a PENDING or EMPTY cell; wakes the
        instruction parked on it."""
        if reg == 0:
            return
        state = ctx.state
        if state[reg] == FULL:
            raise SimFault(
                f"double write to full cell r{reg} of thread "
                f"(family {ctx.fid}, index {ctx.logical_index})")
        if state[reg] == PENDING:
            ctx.pending_cells -= 1
        state[reg] = FULL
        ctx.value[reg] = value
        parked = ctx.parked
        if parked is not None and parked[0] == reg:
            ctx.parked = None
            ctx.resume = parked[1]
            self.queue.append(ctx)
            self.quiet = False      # a stretch fetches no resume
            if not self.awake:
                self._enlist()

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

    def _remove_from_queue(self, ctx):
        try:
            self.queue.remove(ctx)
        except ValueError:
            pass
        if self._rotate_pending is ctx:
            self._rotate_pending = None

    # -- read stage (its ready path runs in step) ----------------------------------

    def _suspend(self, inf: tuple, cell: int):
        """Park inf, a (ctx, instr, pc) tuple, on a cell that is not ready: its
        thread leaves the queue and its younger instructions are flushed."""
        ctx, instr, pc = inf
        if ctx.parked is not None:
            raise SimFault(
                f"second instruction parked by thread (family {ctx.fid}, "
                f"index {ctx.logical_index})")
        ctx.parked = (cell, inf)
        self._remove_from_queue(ctx)
        self.flush_younger(ctx, pc + 1)
        # a fetch block imposed by a younger, now-flushed control transfer
        # must not outlive it; a suspended branch keeps its own block
        if not instr.is_branch:
            ctx.fetch_blocked = 0

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
            self._remove_from_queue(ctx)
            del self.contexts[ctx.slot]
            chip.requests.append((self.cid, Tmu.terminated,
                                  (ctx.slot, ctx.fid, ctx.position)))

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
        to run. Resumes the core's resident step (`_steps`)."""
        return self._send((cycle, limit))

    def restart(self):
        """Drop the resident step: the next `step` call starts a new one,
        which reads the latches, `quiet` and `_checks` from the core."""
        self._send = self._start

    def _start(self, args):
        steps = self._steps(*args)
        self._send = steps.send
        return next(steps)

    def _steps(self, cycle: int, limit: int):
        """The resident step: one generator per core, resumed by each `step`
        call with (cycle, limit), yielding the next cycle to run."""
        chip = self.chip
        memory, noc = chip.memory, chip.noc
        cid, queue, contexts = self.cid, self.queue, self.contexts
        probed, touch, line_of = self._probed, self._touch, self._line_of
        instructions, traced, metrics = self.instructions, self.traced, \
            self.metrics
        f, d, r, e, m, w = self.f, self.d, self.r, self.e, self.m, self.w
        # the cycle at which m holds a load or store: set by execute, so the
        # memory stage need not test what every instruction is
        m_at = cycle if m is not None and (m[1].is_load or m[1].is_store) \
            else -1
        # whether the core checks for a quiet stretch
        checks = self._checks
        # the line that fetch last found resident and fetched from
        fetched_line = -1
        # in a quiet stretch: the cycle it began at from the latches in the
        # locals, -1 where they are current; the last six cycles whose fetch
        # failed (those of an earlier stretch lie before begun, since the
        # cycles only grow); and the instruction that ended it (see the
        # stretch below)
        begun = -1
        failed = deque((), _DEPTH)
        fail = failed.append
        ender = None
        # in a quiet stretch: self.quiet, which only a wake clears from
        # outside the step
        quiet = self.quiet
        try:
            if quiet:
                # a stretch resumed on latches read from the core
                e, r, d, f = self._execute_in_flight((e, r, d, f), cycle)
            while True:
                commits = bubbles = 0
                while True:
                    # at the call's start and after a stop's phases: the
                    # first cycle with work outside the core, lowered below
                    # as the core makes such work itself
                    stop = limit
                    if memory.next_due < stop:
                        stop = memory.next_due
                    if noc.next_arrival < stop:
                        stop = noc.next_arrival
                    requests = chip.requests    # the phases install new ones
                    # the remembered line is forgotten once an I-fill into
                    # the core, which empties the memo, may have evicted it
                    if not probed:
                        fetched_line = -1
                    if quiet and not self.quiet:
                        # a wake, in the phases or before the call, ended
                        # the stretch
                        quiet = False
                    # a quiet stretch starts if every instruction in flight
                    # is quiet and no queued thread has a pending cell or a
                    # resume; it first executes those in f, d, r and e
                    if not quiet and checks \
                            and (f is None or f[1].quiet) \
                            and (d is None or d[1].quiet) \
                            and (r is None or r[1].quiet) \
                            and (e is None or e[1].quiet) \
                            and (m is None or m[1].quiet) \
                            and (w is None or w[1].quiet):
                        for ctx in queue:
                            if ctx.pending_cells or ctx.resume is not None:
                                break
                        else:
                            quiet = self.quiet = True
                            e, r, d, f = self._execute_in_flight(
                                (e, r, d, f), cycle)
                    if quiet:
                        # the quiet stretch: fetch executes each quiet
                        # instruction and leaves DONE_ENTRY in flight for it,
                        # so no stage has work and the latches only shift.
                        # The locals keep the latches it began from, at
                        # begun, and failed records the cycles whose fetch
                        # failed, from which the latches are rebuilt where
                        # it stops. Each cycle commits the latch it pushes
                        # out unless that one is empty, so the commits are
                        # the cycles run less the empty latches pushed out:
                        # ran is the first cycle plus its empty latches and
                        # the failed fetches, and the empty latches left at
                        # the end are added back
                        begun = cycle
                        ran = cycle + (w, m, e, r, d, f).count(None)
                        while True:
                            k = 0
                            for ctx in queue:
                                if ctx.fetch_blocked > cycle:
                                    k += 1
                                    continue
                                pc = ctx.pc
                                line = line_of[pc]
                                if line != fetched_line:
                                    resident = probed.get(line)
                                    if resident is None:
                                        resident = memory.icache_probe(
                                            cid, pc, cycle)
                                        if memory.next_due < stop:
                                            stop = memory.next_due
                                    elif resident:
                                        touch(line)
                                    if not resident:
                                        k += 1
                                        continue
                                    fetched_line = line
                                if k:
                                    queue.rotate(-k)
                                instr = instructions[pc]
                                if instr.quiet:
                                    # execute at fetch, as execute would four
                                    # cycles on: a branch's thread fetches
                                    # again from then
                                    op = instr.op
                                    if op < _LD:
                                        value = ctx.value
                                        if op == _ADDI:
                                            result = value[instr.src1] + \
                                                instr.imm
                                        elif op == _ADD:
                                            result = value[instr.src1] + \
                                                value[instr.src2]
                                        elif op == _SUB:
                                            result = value[instr.src1] - \
                                                value[instr.src2]
                                        else:
                                            result = value[instr.src1] * \
                                                value[instr.src2]
                                        dst = instr.dst
                                        if dst:
                                            if ctx.state[dst] != FULL:
                                                # faults
                                                self._set_reg(ctx, dst, result)
                                            # nonzero exactly outside
                                            # -2**31 .. 2**31-1
                                            value[dst] = s32(result) if \
                                                (result + 0x80000000) >> 32 \
                                                else result
                                        # after a fault, the thread is
                                        # still at the instruction
                                        ctx.pc = pc + 1
                                    elif op == _BNE:
                                        value = ctx.value
                                        ctx.pc = instr.imm \
                                            if value[instr.src1] \
                                            != value[instr.src2] else pc + 1
                                        ctx.fetch_blocked = cycle + 4
                                    else:
                                        value = ctx.value
                                        ctx.pc = instr.imm \
                                            if value[instr.src1] \
                                            == value[instr.src2] else pc + 1
                                        ctx.fetch_blocked = cycle + 4
                                else:
                                    # the stretch ends behind it
                                    ender = (ctx, instr, pc)
                                    if instr.ends_block:
                                        ctx.fetch_blocked = NEVER
                                    else:
                                        ctx.pc = pc + 1
                                    quiet = self.quiet = False
                                    if instr.switch_hint:
                                        self._rotate_pending = ctx
                                        metrics.switch_events += 1
                                break
                            else:
                                fail(cycle)
                                ran += 1
                                if contexts:
                                    bubbles += 1
                                # with no queued thread, every fetch since
                                # begun failed: idle once the latches it
                                # began from have shifted out
                                if not queue and not any(
                                        (w, m, e, r, d, f)[cycle + 1 - begun:]):
                                    self._leave_awake(cycle)
                                    cycle += 1
                                    stop = limit = cycle    # yield it
                                    break

                            cycle += 1
                            if cycle >= stop or not quiet:
                                break
                        # the six latches, rebuilt: a fetch of the last six
                        # cycles failed, or none did and every latch is
                        # DONE_ENTRY, or none did in the k cycles run, fewer
                        # than six
                        k = cycle - begun
                        if failed and failed[-1] >= begun \
                                and failed[-1] >= cycle - _DEPTH:
                            w, m, e, r, d, f = latches = _shifted(
                                [w, m, e, r, d, f], k, failed, cycle)
                            commits += cycle + latches.count(None) - ran
                        elif k >= _DEPTH:
                            commits += cycle - ran
                            w = m = e = r = d = f = DONE_ENTRY
                        else:
                            w, m, e, r, d, f = latches = \
                                [w, m, e, r, d, f][k:] + [DONE_ENTRY] * k
                            commits += cycle + latches.count(None) - ran
                        # rebuilt: a fault in the phases of a stop adds none
                        begun = -1
                        if not quiet:
                            f = ender

                    # the generic loop, until the next stop
                    while cycle < stop:
                        if w is not None:
                            commits += 1
                            if w[1].is_halt or traced:
                                chip.cycle = cycle
                                self._retire(w, cycle)
                                if requests:            # a halt's termination
                                    stop = cycle + 1
                        if cycle == m_at:
                            if m[1].is_load:
                                # read by a load hit's callback
                                chip.cycle = cycle
                                self._load(m, cycle)
                                if memory.next_due < stop:  # a D-fill it made
                                    stop = memory.next_due
                            else:
                                self._store(m, cycle)
                        if e is not None:
                            ctx, instr, pc = e
                            op = instr.op
                            if op < _LD:
                                # add, sub, mul, addi: a one-cycle result,
                                # wrapped to 32 bits and written into a cell
                                # the read stage saw FULL (r0 stays 0)
                                value = ctx.value
                                if op == _ADDI:
                                    result = value[instr.src1] + instr.imm
                                elif op == _ADD:
                                    result = value[instr.src1] + \
                                        value[instr.src2]
                                elif op == _SUB:
                                    result = value[instr.src1] - \
                                        value[instr.src2]
                                else:
                                    result = value[instr.src1] * \
                                        value[instr.src2]
                                dst = instr.dst
                                if dst:
                                    if ctx.state[dst] != FULL:
                                        # faults
                                        self._set_reg(ctx, dst, result)
                                    # nonzero exactly outside -2**31 .. 2**31-1
                                    value[dst] = s32(result) if \
                                        (result + 0x80000000) >> 32 \
                                        else result
                            elif op == _BNE:
                                value = ctx.value
                                ctx.pc = instr.imm if value[instr.src1] \
                                    != value[instr.src2] else pc + 1
                                ctx.fetch_blocked = 0
                            elif op == _BEQ:
                                value = ctx.value
                                ctx.pc = instr.imm if value[instr.src1] \
                                    == value[instr.src2] else pc + 1
                                ctx.fetch_blocked = 0
                            else:
                                if op <= _ST:       # ld, st: memory stage next
                                    m_at = cycle + 1
                                entry = EXECUTE[op]     # None: st, jmp, halt
                                if entry is not None:
                                    chip.cycle = cycle
                                    entry(self, ctx, instr, pc)
                                    if requests:    # a TMU request it queued
                                        stop = cycle + 1
                        # read: with a pending cell in the thread, or a
                        # channel source, suspend on the first cell that is
                        # not FULL (sources first, then a PENDING
                        # destination); else pass untouched
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
                                    # the flush reads and clears the fetch
                                    # and decode latches
                                    self.f, self.d = f, d
                                    self._suspend(r, cell)
                                    f, d, r = self.f, self.d, None
                        if d is not None:
                            instr = d[1]
                            if instr.is_jump:
                                ctx = d[0]
                                ctx.pc = instr.imm
                                ctx.fetch_blocked = 0

                        # advance the latches one stage
                        w, m, e, r, d = m, e, r, d, f

                        # fetch: after any pending switch-hint rotation (it
                        # names a queued context), the first thread in queue
                        # order that is resumable, or not fetch-blocked (0,
                        # or a cycle not after this one) with its I-line
                        # resident, is rotated to the front. The
                        # line fetch last found resident is still resident
                        # and most recently used; the memo answers
                        # for a line probed since the last I-fill into this
                        # core; any other line is probed, which requests it
                        # on a miss.
                        rotated = self._rotate_pending
                        if rotated is not None:
                            self._rotate_pending = None
                            queue.remove(rotated)
                            queue.append(rotated)
                        k = 0
                        for ctx in queue:
                            f = ctx.resume
                            if f is None:
                                if ctx.fetch_blocked \
                                        and ctx.fetch_blocked > cycle:
                                    k += 1
                                    continue
                                pc = ctx.pc
                                line = line_of[pc]
                                if line != fetched_line:
                                    resident = probed.get(line)
                                    if resident is None:
                                        resident = memory.icache_probe(
                                            cid, pc, cycle)
                                        if memory.next_due < stop:  # I-fill
                                            stop = memory.next_due
                                    elif resident:
                                        touch(line)
                                    if not resident:
                                        k += 1
                                        continue
                                    fetched_line = line
                                instr = instructions[pc]
                                f = (ctx, instr, pc)
                                if instr.ends_block:
                                    ctx.fetch_blocked = NEVER
                                else:
                                    ctx.pc = pc + 1
                            else:
                                ctx.resume = None
                                instr = f[1]
                            if k:
                                queue.rotate(-k)
                            if instr.switch_hint:
                                self._rotate_pending = ctx
                                metrics.switch_events += 1
                            break
                        else:
                            f = None
                            if contexts:
                                bubbles += 1
                            if not queue and d is None and r is None \
                                    and e is None and m is None and w is None:
                                self._leave_awake(cycle)
                                cycle += 1
                                stop = limit = cycle        # yield it
                                break

                        cycle += 1

                    # a stop
                    if cycle >= limit or not self._phases_alone(cycle):
                        break

                # the one yield point: publish what others read, then wait
                # for the next call
                self.f, self.d, self.r, self.e, self.m, self.w = \
                    f, d, r, e, m, w
                metrics.commits += commits
                metrics.bubbles += bubbles
                cycle, limit = yield cycle
        except SimFault:
            if begun >= 0:
                # raised at a stretch's fetch, the latches are the cycle's
                # before it shifts, and the cycles before it commit;
                # raised in a stop's phases, all have been counted
                w, m, e, r, d, f = latches = _shifted(
                    [w, m, e, r, d, f], cycle - begun, failed, cycle)
                commits += cycle + latches.count(None) - ran
            self.f, self.d, self.r, self.e, self.m, self.w = f, d, r, e, m, w
            metrics.commits += commits
            metrics.bubbles += bubbles
            chip.cycle = cycle      # sim.run reads the fault's cycle here
            self.restart()
            raise

    def _execute_in_flight(self, latches, cycle):
        """Start a quiet stretch: execute the quiet instructions in
        latches, (e, r, d, f), that have not executed, oldest first, each as
        in its own execute cycle, cycle for e's and one later for each
        stage before it; returns the latches with DONE_ENTRY in their
        place. A branch's thread may fetch from its execute cycle on. The
        copies of the execute code are the generic loop's, node for node
        (`test_quiet_execute_copies_match`)."""
        out = []
        for inf in latches:
            if inf is not None and inf is not DONE_ENTRY:
                ctx, instr, pc = inf
                op = instr.op
                if op < _LD:
                    value = ctx.value
                    if op == _ADDI:
                        result = value[instr.src1] + instr.imm
                    elif op == _ADD:
                        result = value[instr.src1] + \
                            value[instr.src2]
                    elif op == _SUB:
                        result = value[instr.src1] - \
                            value[instr.src2]
                    else:
                        result = value[instr.src1] * \
                            value[instr.src2]
                    dst = instr.dst
                    if dst:
                        if ctx.state[dst] != FULL:
                            # faults
                            self._set_reg(ctx, dst, result)
                        # nonzero exactly outside -2**31 .. 2**31-1
                        value[dst] = s32(result) if \
                            (result + 0x80000000) >> 32 \
                            else result
                elif op == _BNE:
                    value = ctx.value
                    ctx.pc = instr.imm if value[instr.src1] \
                        != value[instr.src2] else pc + 1
                    ctx.fetch_blocked = cycle
                else:
                    value = ctx.value
                    ctx.pc = instr.imm if value[instr.src1] \
                        == value[instr.src2] else pc + 1
                    ctx.fetch_blocked = cycle
                inf = DONE_ENTRY
            out.append(inf)
            cycle += 1
        return out

    def _leave_awake(self, cycle: int):
        """Leave the chip's awake list at the end of an idle cycle: a new
        list, as in _enlist."""
        self.awake = False
        chip = self.chip
        chip.awake = [c for c in chip.awake if c is not self]
        if self.contexts:
            self.idle_since = cycle + 1


# -- execute stage: one entry per opcode that step does not run itself --------
# add, sub, mul, addi, beq and bne run in step's frame. An entry reads its
# source cells from ctx.value and writes any result itself.


def _ld(core, ctx, instr, pc):
    core._mark_pending(ctx, instr.dst)


def _getidx(core, ctx, instr, pc):
    core._set_reg(ctx, instr.dst, ctx.logical_index)


def _getsh(core, ctx, instr, pc):
    if instr.src1 is None:
        core._set_reg(ctx, instr.dst, ctx.value[CHANNEL_CELL])
    else:
        fid = ctx.value[instr.src1]
        core._mark_pending(ctx, instr.dst, fid)
        core.chip.requests.append((core.cid, Tmu.getsh_tail,
                                   (ctx, instr.dst, fid)))


def _putsh(core, ctx, instr, pc):
    v = ctx.value
    if instr.src2 is None:
        core.chip.requests.append((core.cid, Tmu.putsh, (ctx, v[instr.src1])))
    else:
        core.chip.requests.append((core.cid, Tmu.putsh_head,
                                   (v[instr.src2], v[instr.src1])))


def _allocate(core, ctx, instr, pc):
    hint = ctx.value[instr.src1] if instr.src1 is not None else None
    core._mark_pending(ctx, instr.dst)
    core.chip.requests.append((core.cid, Tmu.allocate,
                               (ctx, instr.dst, instr.imm, hint)))


def _create(core, ctx, instr, pc):
    v = ctx.value
    aid = v[instr.src1]
    seed = v[instr.src2] if instr.src2 is not None else None
    core._mark_pending(ctx, instr.dst)
    core.chip.requests.append((core.cid, Tmu.create, (
        ctx, instr.dst, aid, instr.entry, instr.create_range, seed)))


def _sync(core, ctx, instr, pc):
    fid = ctx.value[instr.src1]
    core._mark_pending(ctx, instr.dst, fid)
    core.chip.requests.append((core.cid, Tmu.sync, (ctx, instr.dst, fid)))


def _release(core, ctx, instr, pc):
    core.chip.requests.append((core.cid, Tmu.release,
                               (ctx.value[instr.src1],)))


# st, jmp and halt have no execute work (the memory stage stores, decode
# resolves a jump, retirement drives termination), so step calls nothing
_EXECUTE_BY_OPCODE = {
    Opcode.LD: _ld, Opcode.ST: None, Opcode.JMP: None, Opcode.HALT: None,
    Opcode.ALLOCATE: _allocate, Opcode.CREATE: _create, Opcode.SYNC: _sync,
    Opcode.RELEASE: _release, Opcode.GETIDX: _getidx, Opcode.PUTSH: _putsh,
    Opcode.GETSH: _getsh,
}
# indexed by Instruction.op, None where step runs the opcode itself or it has
# no execute work; building it fails at import if any other opcode has no
# entry
EXECUTE = tuple(None if op in (_ADD, _SUB, _MUL, _ADDI, _BEQ, _BNE)
                else _EXECUTE_BY_OPCODE[op] for op in Opcode)
