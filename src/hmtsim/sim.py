"""Deterministic cycle-synchronous kernel composing cores, TMUs, control NoC
and the memory system.

Each cycle runs the components in one fixed order: memory fill completions,
NoC deliveries, TMU steps (ascending core id), then core pipelines (ascending
core id). Effects aimed at a component earlier in that order land the next
cycle, giving a single total order equivalent to a two-phase commit; two runs
over identical inputs are bit-identical.

A component is stepped only when it has work, as in dataflow scheduling where
a waiting thread costs nothing until its cell is written, and each test for
work is one comparison or one truth test per cycle:

- the memory system on the cycle `MemorySystem.next_due`, the first
  completion cycle of its fills, which it keeps as fills are requested and
  completed;
- the NoC on the cycle `Noc.next_arrival`, kept likewise as messages are
  sent and delivered;
- a TMU on the cycle after it was given requests: its first request puts it
  on the chip's busy TMU list (kept in ascending core id), which the TMU
  phase takes whole and empties;
- a core while it is on the chip's awake list.

A core is awake while a thread is queued or a latch is occupied. It joins
the list (kept in ascending core id) when a thread starts on it or a cell
write wakes one of its threads, the only ways anything but its own step
gives it work, and it leaves the list when one of its cycles ends with an
empty queue and empty latches. No core's step wakes another core, so the
list read at the start of the core phase holds exactly the cores with work
that cycle; the phase rebuilds it only on a cycle when some core left.
Requests are only queued in the core phase, so the busy TMU list likewise
holds exactly the TMUs with work at the start of the next cycle's TMU phase.

A run completes only when every family created in it has completed: the
root family, which runs `main`, and every family created since, synced or
not. That is the sequential oracle's meaning, which runs each family to its
end at its creation point. The chip counts the families not yet completed,
and the run ends after the cycle whose TMU phase completes the last of them,
then drains the NoC, running the phases until no message is in flight. A
fill that completes there changes no result: every thread has halted, so
its cell has no instruction parked on it.

When no core is awake in a cycle's core phase, no TMU is busy either (only a
core queues requests), and nothing happens until the next fill or arrival,
since only those give a TMU or a core work. The chip jumps to the earliest
of `next_due`, `next_arrival` and the watchdog; with no fill or message
pending (both values are `NEVER`, a cycle no run reaches) the system is
quiescent and the chip steps one cycle, so that the verdict keeps its cycle.
The jump is exact: no phase would run on the cycles it skips, so no family
completes on them; the system is not quiescent on them, because a fill or a
message is pending; the watchdog is tested only at its deadline, where the
jump stops; a starvation check on them would find no runnable thread,
because a thread that is not suspended is queued and a queued thread keeps
its core awake, so with no core awake every live thread is suspended; and
idle cores settle the skipped bubbles in one addition.

A core that is the only awake core runs ahead: one `Core.step` call runs its
cycles up to the next multiple of `starvation_check` (or the watchdog), and
returns earlier only when the core goes idle or a phase wakes another core.
On a cycle with a fill due, a message arriving or a request it queued for
its TMU (see `core.py`: the step folds `next_due` and `next_arrival` into
its stop and lowers it as it makes such work, so each of its cycles ends
with one comparison), the step runs that cycle's memory, NoC and TMU phases
itself, through `Chip.phases`, the method the chip loop runs at the start of
each of its cycles. If they woke another core, the step returns that cycle
with its phases done, and the chip loop's own call finds nothing left to do
on it: the phases request no fill, the messages they send arrive on a later
cycle, and only cores queue requests. The next cycle is the one the step
returns. This is exact, cycle for cycle:

- with one awake core, a cycle's core phase is that core alone, and the
  step runs the cycle's phases before it, as the chip loop would;
- the phases write the cells and queues of threads, start threads, or wake
  a core; the lone core reads its threads' cells and queue afresh each
  cycle, and a wake of another core ends the call; the core's latches are
  its own, and after the phases it folds `next_due` and `next_arrival` into
  its stop again and forgets the I-line it last fetched from, which a fill
  may have evicted;
- a core is awake only while one of its threads is live, so no family
  completes on a cycle whose phases a step runs: no core is awake once
  every family has completed;
- no core's own step wakes another core, so the lone core stays alone
  until a phase wakes one, and the chip loop reads the awake list again
  rather than walking it, so that the woken core starts at the cycle the
  call returned;
- quiescence needs an empty awake list, which the lone core leaves only by
  returning;
- starvation is tested only on multiples of `starvation_check` and the
  watchdog only at its deadline, where the step returns without running
  the phases.

Two or more awake cores share a window: each, in ascending core id, runs
the cycles from `cycle` up to one stop `cycle + w` in one `Core.step` call,
and the chip continues at the largest cycle the calls returned. `w` counts
the coming cycles in which no awake core's instruction can act outside its
core (`Instruction.acts_outside`: a load or store, a TMU request, or a
halt). A core's horizon follows from the latch holding its oldest such
instruction: 0 in execute, memory or writeback, 1 in read, 2 in decode, 3 in
fetch, else 4, the fetch-to-execute depth, since nothing fetched now
executes sooner. `w` is the smallest horizon, capped by `i_miss_latency`,
the next starvation check and the watchdog; with `w <= 1` the cycle runs
alone. After a window closed by an instruction in execute or memory, the
cycles it still spends in memory and writeback run alone untested. A
window's cycles touch only the stepping core's own threads, latches, I-tags
and I-probe memo, so running the cores one after another is exact, cycle
for cycle:

- no TMU request, memory access, halt or NoC message happens in it, so no
  TMU, no cache line and no family changes;
- no core wakes another: only a cell write from outside the core wakes a
  thread;
- every I-fill requested inside it falls due after it, because an I-fill
  takes `i_miss_latency` cycles; so no fill lands in it, and fills due on
  one cycle keep their ascending-core order;
- the instructions that run in it fault only on a broken core invariant
  (a one-cycle result into a cell that is not FULL), which the read stage
  rules out;
- each step returns at a due fill or arrival, so the cores that stay awake
  all stop at the same cycle, and one that goes idle stops no later;
  quiescence, starvation and the watchdog are tested as for a lone core.

A traced run's commit rows are stable-sorted by cycle at its end, which
restores the (cycle, core) order that the windows' core-by-core stepping
leaves out.

An idle core whose threads are all suspended or fetch-blocked counts one
bubble per cycle. It records the cycle it went idle and settles those
bubbles in one addition: when it wakes, and on every way out of the main
loop. A SimFault raised in a core's own cycle ends the run part-way through
the core phase of the cycle in `chip.cycle`: the idle cores with a lower id
have already passed that cycle and count its bubble, those with a higher id
have not. One raised in the phases, whether the chip loop or a lone core's
step runs them (the step then sets `chip.fault_before_cores`), comes before
the core phase, and no idle core counts that cycle. The system can only be
quiescent when the awake list is empty, so Chip.quiescent() is consulted
only then; it reads the two lists, the NoC's in-flight count and the fills.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from operator import itemgetter

from .core import Core, CHANNEL_CELL
from .errors import SimFault
from .isa import Program, annotate_hints, validate
from .memory import NEVER, CacheConfig, MemorySystem
from .noc import Noc, Topology
from .tmu import Family, SpanPool, Tmu


@dataclass(frozen=True)
class ChipConfig:
    p: int = 1
    topology: str = "ring"              # ring | line
    thread_slots: int = 64
    cache: CacheConfig = field(default_factory=CacheConfig)
    hints: bool = True
    coherency: str = "eager"            # eager | bulk
    hop_latency: int = 2
    watchdog_cycles: int = 10_000_000
    mem_bytes: int = 1 << 20
    starvation_window: int = 2000
    starvation_check: int = 128
    trace: bool = False

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"core count must be >= 1, got {self.p}")
        if self.thread_slots < 1:
            raise ValueError(f"thread slots must be >= 1, got {self.thread_slots}")
        if self.hop_latency < 0:
            raise ValueError(f"hop latency must be >= 0, got {self.hop_latency}")
        if self.watchdog_cycles < 1:
            raise ValueError(f"watchdog must be >= 1 cycle, got {self.watchdog_cycles}")
        if self.starvation_check < 1:
            raise ValueError(f"starvation check interval must be >= 1 cycle, "
                             f"got {self.starvation_check}")
        if self.topology not in ("ring", "line"):
            raise ValueError(f"topology must be ring or line, got {self.topology!r}")
        if self.coherency not in ("eager", "bulk"):
            raise ValueError(f"coherency must be eager or bulk, got {self.coherency!r}")


class Outcome(enum.Enum):
    COMPLETED = "completed"
    DEADLOCK_STARVATION = "deadlock_starvation"
    DEADLOCK_DATAFLOW = "deadlock_dataflow"
    WATCHDOG_TIMEOUT = "watchdog_timeout"
    FAULT = "fault"


@dataclass
class PerCoreMetrics:
    commits: int
    bubbles: int
    flushes: int
    switch_events: int
    utilization: float


@dataclass
class Metrics:
    cycles: int
    per_core: list[PerCoreMetrics]
    propagation_messages: int
    control_messages: int
    hop_traversals: int
    hop_log: dict[tuple[int, int], int]
    loads: int
    stores: int
    d_misses: int
    i_misses: int
    max_pending_cells: int
    # waiter-ledger audit: threads still parked on a cell when the run ended
    suspended_at_end: int = 0

    @property
    def commits(self) -> int:
        return sum(c.commits for c in self.per_core)

    @property
    def flushes(self) -> int:
        return sum(c.flushes for c in self.per_core)

    @property
    def utilization(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.commits / (self.cycles * len(self.per_core))


@dataclass
class RunResult:
    outcome: Outcome
    metrics: Metrics
    final_memory: bytes | None = None
    diagnostic: str | None = None
    trace: list[tuple] | None = None

    def memory_hash(self) -> str:
        if self.final_memory is None:
            return ""
        return hashlib.sha256(self.final_memory).hexdigest()

    def result_hash(self) -> str:
        h = hashlib.sha256()
        h.update(repr((self.outcome.value, self.diagnostic,
                       self.metrics)).encode())
        if self.final_memory is not None:
            h.update(self.final_memory)
        if self.trace is not None:
            h.update(repr(self.trace).encode())
        return h.hexdigest()


class Chip:
    def __init__(self, config: ChipConfig, program: Program,
                 init_mem: bytes | None = None):
        self.config = config
        self.program = program
        self.noc = Noc(Topology(config.topology, config.p, config.hop_latency))
        self.memory = MemorySystem(config.p, config.cache, config.mem_bytes,
                                   bulk=config.coherency == "bulk")
        if init_mem:
            if len(init_mem) > config.mem_bytes:
                raise ValueError(f"memory image of {len(init_mem)} bytes exceeds "
                                 f"the {config.mem_bytes}-byte memory")
            self.memory.mem[:len(init_mem)] = init_mem
        self.span_pool = SpanPool(config.p)
        self.cores = [Core(c, self, config.thread_slots) for c in range(config.p)]
        self.awake: list[Core] = []     # cores with work, ascending core id
        self.tmus = [Tmu(c, self) for c in range(config.p)]
        self.busy_tmus: list[Tmu] = []  # TMUs with requests, ascending core id
        self.families: dict[int, Family] = {}
        self.open_families = 0          # created and not yet completed
        self.allocations: dict = {}
        self._fid = 0
        self._aid = 0
        self._req = 0
        self._open_reqs: set[int] = set()
        self.cycle = 0
        # set when a SimFault is raised in phases that a lone core's step ran
        self.fault_before_cores = False
        self.last_effect = 0
        self.max_pending = 0
        self.trace = [] if config.trace else None

    def new_family(self, owner, aid, entry, start, step, n, creator) -> Family:
        self._fid += 1
        fid = self._fid
        fam = Family(fid, owner, aid, entry, start, step, n, ranges={},
                     outstanding=n, creator=creator)
        self.families[fid] = fam
        self.open_families += 1
        self.memory.open_epoch(fid)
        return fam

    def next_aid(self) -> int:
        self._aid += 1
        return self._aid

    def next_req_id(self) -> int:
        self._req += 1
        self._open_reqs.add(self._req)
        return self._req

    def pair_response(self, req_id: int):
        self._open_reqs.discard(req_id)

    def phases(self, cycle: int):
        """The memory, NoC and TMU phases of a cycle, each run only when it
        has work; run again on that cycle, they find none."""
        self.cycle = cycle
        memory = self.memory
        if cycle == memory.next_due:
            for cb, value in memory.step(cycle):
                cb(value)
        noc = self.noc
        if cycle == noc.next_arrival:
            tmus = self.tmus
            for msg in noc.step(cycle):
                tmus[msg.dst].handle_message(msg, cycle)
        if self.busy_tmus:
            busy, self.busy_tmus = self.busy_tmus, []
            for tmu in busy:
                tmu.step(cycle)

    # -- progress analysis ----------------------------------------------------

    def quiescent(self) -> bool:
        return not (self.awake or self.busy_tmus or self.noc.in_flight
                    or self.memory.busy)

    def threads(self):
        """Every resident thread, by core then slot start order."""
        for core in self.cores:
            yield from core.contexts.values()

    def live_threads_of(self, fid: int):
        return [ctx for ctx in self.threads() if ctx.fid == fid]

    def suspended_threads(self):
        return [ctx for ctx in self.threads() if ctx.suspended]


def detect_deadlock(chip: Chip) -> str | None:
    """Diagnose a stalled system via the waits-for graph over suspended
    threads: the waits-for cycle, else the unsatisfiable waits. None when no
    thread is suspended."""
    suspended = chip.suspended_threads()
    if not suspended:
        return None
    ids = {id(ctx): f"family {ctx.fid} index {ctx.logical_index}"
           for ctx in suspended}
    edges: dict[int, list[int]] = {id(ctx): [] for ctx in suspended}

    def link(a, b_ctx):
        if b_ctx is not None and id(b_ctx) in edges:
            edges[id(a)].append(id(b_ctx))

    def thread_at(fam, pos):
        for ctx in chip.live_threads_of(fam.fid):
            if ctx.position == pos:
                return ctx
        return None

    for ctx in suspended:
        fam = chip.families[ctx.fid]
        for idx in sorted(ctx.waiters):
            if idx == CHANNEL_CELL:
                if ctx.position > 0:
                    link(ctx, thread_at(fam, ctx.position - 1))
                else:
                    link(ctx, fam.creator)
            elif ctx.waits_on[idx] is not None:
                for member in chip.live_threads_of(ctx.waits_on[idx]):
                    link(ctx, member)
    # cycle search
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in edges}

    def dfs(n, stack):
        color[n] = GREY
        for m in edges[n]:
            if color[m] == GREY:
                return stack[stack.index(m):]
            if color[m] == WHITE:
                found = dfs(m, stack + [m])
                if found:
                    return found
        color[n] = BLACK
        return None

    for n in edges:
        if color[n] == WHITE:
            cyc = dfs(n, [n])
            if cyc:
                names = " -> ".join(ids[x] for x in cyc)
                return f"waits-for cycle: {names}"
    waiting = ", ".join(ids[id(c)] for c in suspended)
    return f"unsatisfiable waits: {waiting}"


def _check_starvation(chip: Chip, cycle: int) -> str | None:
    if cycle - chip.last_effect < chip.config.starvation_window:
        return None
    runnable = [ctx for ctx in chip.threads() if not ctx.suspended]
    if not runnable:
        return None
    if all(ctx.last_denial > chip.last_effect for ctx in runnable):
        return (f"{len(runnable)} runnable thread(s) spinning on denied "
                f"allocations since cycle {chip.last_effect}")
    return None


def _window(awake: list, span: int) -> int:
    """The window of the awake cores (see the module docstring): the number
    of coming cycles, at most span, in which none of their in-flight
    instructions acts outside its core. Where an instruction in execute or
    memory closes it, the result is minus the further cycles that
    instruction still spends in the pipeline (-2 from execute, -1 from
    memory), so that the chip need not test them."""
    for core in awake:
        x = core.e
        if x and x[1].acts_outside:
            return -2
        x = core.m
        if x and x[1].acts_outside:
            return -1
        x = core.w
        if x and x[1].acts_outside:
            return 0
        x = core.r
        if x and x[1].acts_outside:
            return 1
        x = core.d
        if x and x[1].acts_outside:
            span = min(span, 2)
        elif span > 3:
            x = core.f
            if x and x[1].acts_outside:
                span = 3
    return span


def _bootstrap_root(chip: Chip):
    fam = chip.new_family(owner=0, aid=None, entry="main", start=0, step=1,
                          n=1, creator=None)
    fam.ranges[0] = (0, 1)
    chip.tmus[0].on_create(fam.fid, 0, 1, 0)


def run(config: ChipConfig, program: Program,
        init_mem: bytes | None = None) -> RunResult:
    """Execute a program to completion, deadlock, fault or watchdog expiry."""
    diags = validate(program)
    if diags:
        raise ValueError("program failed validation: " + "; ".join(diags))
    if "main" not in program.entries:
        raise ValueError("program has no 'main' thread body")
    if config.hints:
        program = annotate_hints(program)

    chip = Chip(config, program, init_mem)
    _bootstrap_root(chip)

    outcome = None
    diagnostic = None
    cycle = 0
    # a SimFault raised in a core's own cycle: the core phase of that cycle
    # had already reached every core with a lower id
    fault_cid = 0
    memory, noc, cores = chip.memory, chip.noc, chip.cores
    watchdog, check = config.watchdog_cycles, config.starvation_check
    # windows: at most the fetch-to-execute depth, and shorter than I-fills
    depth, hold = min(4, config.cache.i_miss_latency), 0
    try:
        while cycle < watchdog:
            chip.phases(cycle)
            awake = chip.awake
            if not awake:
                # no core awake: jump to the next fill or arrival, stopping
                # at the watchdog (see the docstring)
                nxt = min(memory.next_due, noc.next_arrival)
                cycle = cycle + 1 if nxt == NEVER else min(nxt, watchdog)
            else:
                try:
                    if len(awake) == 1:
                        # run ahead alone (see the docstring); a phase the
                        # step runs may wake another core, so the list is
                        # read again, not walked
                        core = awake[0]
                        cycle = core.step(cycle, min(
                            watchdog, cycle - cycle % check + check))
                        if not core.awake:
                            chip.awake = awake = []
                    else:
                        # a shared window (see the docstring); the awake
                        # cores stop together, no earlier than any that idled
                        stop = cycle + 1
                        if cycle >= hold:
                            span = _window(awake, depth)
                            hold = cycle + 1 - span
                            if span > 1:
                                stop = min(cycle + span, watchdog,
                                           cycle - cycle % check + check)
                        nxt = cycle
                        left = False
                        for core in awake:
                            end = core.step(cycle, stop)
                            if core.awake:
                                nxt = end
                            else:
                                left = True
                                if end > nxt:
                                    nxt = end
                        if left:
                            chip.awake = awake = [c for c in awake if c.awake]
                        cycle = nxt
                except SimFault:
                    # a fault in a core's own cycle, not in the phases its
                    # step ran, comes after the idle cores with a lower id
                    if not chip.fault_before_cores:
                        fault_cid = core.cid
                    cycle = chip.cycle
                    raise
            if not chip.open_families:
                outcome = Outcome.COMPLETED
                break
            if not awake and chip.quiescent():
                diagnostic = detect_deadlock(chip)
                if diagnostic is None:
                    raise SimFault("quiescent system with no suspended "
                                   "threads and unfinished families")
                outcome = Outcome.DEADLOCK_DATAFLOW
                break
            if cycle % check == 0:
                why = _check_starvation(chip, cycle)
                if why is not None:
                    outcome = Outcome.DEADLOCK_STARVATION
                    diagnostic = why
                    break
        else:
            outcome = Outcome.WATCHDOG_TIMEOUT
            diagnostic = f"no completion within {config.watchdog_cycles} cycles"
        for core in cores:
            core.settle_bubbles(cycle)

        if outcome is Outcome.COMPLETED:
            # drain stragglers (release acknowledgements and the like), then
            # audit that every allocate request got exactly one response
            drain_limit = cycle + 4 * config.p * config.hop_latency + 8
            while noc.in_flight and cycle < drain_limit:
                chip.phases(cycle)
                cycle += 1
            if chip._open_reqs:
                raise SimFault(f"unpaired allocation requests at end of run: "
                               f"{sorted(chip._open_reqs)}")
    except SimFault as fault:
        outcome = Outcome.FAULT
        diagnostic = str(fault)
        for core in cores:
            core.settle_bubbles(cycle + (core.cid < fault_cid))

    per_core = [
        PerCoreMetrics(c.metrics.commits, c.metrics.bubbles, c.metrics.flushes,
                       c.metrics.switch_events,
                       c.metrics.commits / cycle if cycle else 0.0)
        for c in chip.cores
    ]
    hop_log = chip.noc.hop_log()
    stats = chip.memory.stats
    metrics = Metrics(
        cycles=cycle,
        per_core=per_core,
        propagation_messages=stats.propagation_messages,
        control_messages=chip.noc.injected,
        hop_traversals=sum(hop_log.values()),
        hop_log=hop_log,
        loads=stats.loads,
        stores=stats.stores,
        d_misses=stats.d_misses,
        i_misses=stats.i_misses,
        max_pending_cells=chip.max_pending,
        suspended_at_end=len(chip.suspended_threads()),
    )
    if chip.trace is not None:
        # a window's cores appended their commits one core after another
        chip.trace.sort(key=itemgetter(0))
    final_memory = bytes(chip.memory.mem) if outcome is Outcome.COMPLETED else None
    # the chip is a reference cycle that the collector frees only in a rare
    # full collection; let the image go now rather than with it
    chip.memory.mem = None
    return RunResult(outcome, metrics, final_memory, diagnostic, chip.trace)


def format_trace(trace: list[tuple]) -> str:
    """One line per commit: cycle core slot family index pc opcode."""
    return "".join(" ".join(str(x) for x in row) + "\n" for row in trace)
