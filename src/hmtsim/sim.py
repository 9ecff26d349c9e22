"""Deterministic cycle-synchronous kernel composing cores, TMUs, control NoC
and the memory system.

Each cycle runs the components in one fixed order: memory fill completions,
NoC deliveries, TMU requests (ascending core id), then core pipelines
(ascending core id). Effects aimed at a component earlier in that order land
the next cycle, giving a single total order equivalent to a two-phase
commit; two runs over identical inputs are bit-identical.

A component is stepped only when it has work, as in dataflow scheduling where
a waiting thread costs nothing until its cell is written:

- the memory system on the cycle `MemorySystem.next_due`, the first
  completion cycle of its fills;
- the NoC on the cycle `Noc.next_arrival`, its first arrival;
- the TMUs on the cycle after a core queued requests: a core appends each
  request to the chip's request list as `(core id, Tmu method, args)`, and
  the TMU phase takes the list whole and calls each method on that core's
  Tmu in list order. The list is always in ascending core id, each core's
  requests in issue order, with no sort: only cores queue requests, cores
  step in ascending core id, a shared window's requests all fall in its
  last cycle (the window ends where an instruction can first act outside
  its core), and a lone core is alone
  (`test_tmus_run_the_cycle_after_their_requests_in_core_order`);
- a core while it is on the chip's awake list (ascending core id): while a
  thread is queued or a latch is occupied. It joins when a thread starts on
  it or a cell write wakes one of its threads, and leaves itself when one of
  its cycles ends with an empty queue and empty latches, each time by
  installing a new list, so that the loop walks the list it started with.
  Only cores queue requests, and no core's own step wakes another core.

A run completes only when every family created in it has completed, synced
or not, as in the sequential oracle, which runs each family to its end at
its creation point. The run ends after the cycle whose TMU phase completes
the last family, then drains the NoC, running the phases until no message is
in flight; a fill that completes there changes no result, because every
thread has halted.

`_stop(chip, cycle)` is the one decision of how far the chip runs before it
looks again; `sim.run` runs the phases of `cycle`, then either jumps the idle
clock to the stop or steps every awake core, in ascending core id, with
`Core.step(cycle, stop)`, which resumes the core's resident step where its
last call left it (see `core.py`). With `_stop` returning `cycle + 1` the
loop is plain lockstep, and `check` in `tests/differential.py` runs each
pinned run and, through `scripts/stress_grid.py`, each grid and sweep
configuration, traced and untraced, both ways and compares the results.
The stop is:

- no core awake: the next fill or arrival, capped by the watchdog. It is
  `cycle + 1` when neither is pending, so that a quiescent verdict keeps
  its cycle, and when the phases of `cycle` completed the run's last
  family: the run's last completion stops the jump, so a fill still
  pending there, which changes no result, adds no cycles (the `unsynced-*`
  pinned runs).
  Nothing runs on the cycles skipped, and with no core awake every live
  thread is suspended (a queued thread keeps its core awake), so no
  starvation check could fire there; idle cores settle the skipped bubbles
  in one addition (the `idle-*` pinned runs in `tests/test_sim.py`,
  `test_idle_jump_does_not_stop_at_starvation_checks`).
- one awake core: the next multiple of `starvation_check`, capped by the
  watchdog. The core's step runs the memory, NoC and TMU phases itself at a
  fill due, an arrival or its own request (`Chip.phases`, see `core.py`),
  which is exact because a cycle's core phase is then that core alone; if
  they wake another core the step returns that cycle with its phases done,
  and running them again finds nothing (the `lone-*` and `phase-*` pinned
  runs, `test_lone_step_*`). The same lone-core rule
  holds in a shared window once the window's other cores have gone idle and
  left the list: the core left alone runs a stop's phases itself, which is
  exact for the same reason.
- two or more awake cores: a shared window, the smallest horizon of the
  awake cores, shorter than an I-fill and capped as for one core. A core's
  horizon is the number of coming cycles before an instruction that acts
  outside the core (`Instruction.acts_outside`: a load or store, a TMU
  request, a halt) can do so.
  - A core that is not quiet: from its oldest such instruction in flight,
    1 or less from read onwards, 2 in decode, 3 in fetch; with none in
    flight, the fetch-to-execute depth (4), since an instruction fetched in
    the window's first cycle executes four cycles on.
  - A core in a quiet stretch (`Core.quiet`, see `core.py`): the least
    `4 + reach[ctx.pc]` over its queued threads, where `Chip.reach`
    (`core.reach`, built once per run) gives for each pc the fewest
    instructions that any path from it fetches before an acting one. Its
    latches are not walked: the stretch has executed every instruction in
    flight, branches included, and no queued thread holds a resume or a
    pending cell, so each queued thread's pc is its next fetch (one behind
    a branch fetches from the branch's execute cycle on,
    `ThreadContext.fetch_blocked`), and the core fetches at most one
    instruction a cycle. An acting instruction is then fetched no sooner
    than reach cycles on, and executes four cycles after its fetch
    (`test_stop_window_of_a_quiet_core_whose_branch_is_in_flight`). A
    quiet core with no queued thread has no horizon.
  A window's cycles touch only each core's own threads, latches and I-tags,
  so stepping the cores one after another is exact: the window resumes each
  core's resident step once, and that call runs the whole window. Every core
  that stays awake stops at the same due fill or arrival
  (the `many-*` pinned runs), and the loop goes on at the largest cycle
  the steps returned. Its commit rows, appended core by core, are
  stable-sorted by cycle at the end of a traced run.

An idle core whose threads are all suspended or fetch-blocked counts one
bubble per cycle, settled in one addition when it wakes and on every way out
of the main loop. A SimFault raised in a core's own cycle comes after the
idle cores with a lower id, which count that cycle's bubble; one raised in
the phases, whether the loop or a lone core's step ran them (the step then
sets `chip.fault_before_cores`), comes before the core phase, and no idle
core counts that cycle. The system can only be quiescent with the awake list
empty, so `Chip.quiescent()` is consulted only then.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from operator import itemgetter

from .core import CHANNEL_CELL, Core, PerCoreMetrics, reach
from .errors import ConfigError, SimFault
from .isa import Program, annotate_hints, validate
from .memory import NEVER, MemorySystem, image_digest
from .noc import Noc
from .tmu import Family, SpanPool, Tmu

# memory bytes past 2**31 are out of reach of every s32 address
MEM_BYTES_MAX = 1 << 31


@dataclass(frozen=True)
class ChipConfig:
    p: int = 1
    topology: str = "ring"              # ring | line
    thread_slots: int = 64
    line_bytes: int = 16
    d_lines: int = 64
    i_lines: int = 32
    d_miss_latency: int = 20
    i_miss_latency: int = 10
    hints: bool = True
    coherency: str = "eager"            # eager | bulk
    hop_latency: int = 2
    watchdog_cycles: int = 10_000_000
    mem_bytes: int = 1 << 20
    starvation_window: int = 2000
    starvation_check: int = 128
    trace: bool = False

    def __post_init__(self):
        if self.line_bytes < 1 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("line_bytes", "must be a power of two",
                              self.line_bytes)
        for name in ("d_lines", "i_lines", "d_miss_latency", "i_miss_latency"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1", getattr(self, name))
        if self.p < 1:
            raise ConfigError("p", "must be >= 1", self.p, "core count")
        if self.thread_slots < 1:
            raise ConfigError("thread_slots", "must be >= 1", self.thread_slots)
        if self.hop_latency < 0:
            raise ConfigError("hop_latency", "must be >= 0", self.hop_latency)
        if self.watchdog_cycles < 1:
            raise ConfigError("watchdog_cycles", "must be >= 1 cycle",
                              self.watchdog_cycles, "watchdog")
        if not 4 <= self.mem_bytes <= MEM_BYTES_MAX:
            raise ConfigError("mem_bytes", f"must be 4 to {MEM_BYTES_MAX}",
                              self.mem_bytes, "memory bytes")
        if self.starvation_check < 1:
            raise ConfigError("starvation_check", "must be >= 1 cycle",
                              self.starvation_check,
                              "starvation check interval")
        if self.topology not in ("ring", "line"):
            raise ConfigError("topology", "must be ring or line", self.topology)
        if self.coherency not in ("eager", "bulk"):
            raise ConfigError("coherency", "must be eager or bulk",
                              self.coherency)


class Outcome(enum.Enum):
    COMPLETED = "completed"
    DEADLOCK_STARVATION = "deadlock_starvation"
    DEADLOCK_DATAFLOW = "deadlock_dataflow"
    WATCHDOG_TIMEOUT = "watchdog_timeout"
    FAULT = "fault"


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
    final_memory: bytearray | None = None   # the run's own image
    diagnostic: str | None = None
    trace: list[tuple] | None = None

    def memory_hash(self) -> str:
        if self.final_memory is None:
            return ""
        return image_digest(self.final_memory)

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
        self.noc = Noc(config)
        self.memory = MemorySystem(config)
        if init_mem:
            if len(init_mem) > config.mem_bytes:
                raise ValueError(f"memory image of {len(init_mem)} bytes exceeds "
                                 f"the {config.mem_bytes}-byte memory")
            self.memory.mem[:len(init_mem)] = init_mem
        self.span_pool = SpanPool(config.p)
        # per pc, the fetches before an instruction that acts outside a core
        # (see sim._stop)
        self.reach = reach(program.instructions)
        # per pc, the I-line that holds it, read by fetch
        line_bytes = config.line_bytes
        self.line_of = [pc * 4 // line_bytes
                        for pc in range(len(program.instructions))]
        self.cores = [Core(c, self) for c in range(config.p)]
        self.awake: list[Core] = []     # cores with work, ascending core id
        self.tmus = [Tmu(c, self) for c in range(config.p)]
        # (core id, Tmu method, args) requests queued by the core phase
        self.requests: list[tuple] = []
        self.families: dict[int, Family] = {}
        self.open_families = 0          # created and not yet completed
        self._fid = 0
        self._req = 0
        self._open_reqs: set[int] = set()
        self.cycle = 0
        # set when a SimFault is raised in phases that a lone core's step ran
        self.fault_before_cores = False
        self.last_effect = 0
        self.max_pending = 0
        self.trace = [] if config.trace else None

    def new_family(self, owner, aid, entry, start, step, n, head,
                   creator) -> Family:
        self._fid += 1
        fid = self._fid
        fam = Family(fid, owner, aid, entry, start, step, n, head,
                     outstanding=n, creator=creator)
        self.families[fid] = fam
        self.open_families += 1
        self.memory.open_epoch(fid)
        return fam

    def next_req_id(self) -> int:
        self._req += 1
        self._open_reqs.add(self._req)
        return self._req

    def pair_response(self, req_id: int):
        self._open_reqs.discard(req_id)

    def phases(self, cycle: int):
        """The memory, NoC and TMU phases of a cycle, each run only when it
        has work; run again on that cycle, they find none. A delivered
        message and a queued request are each one direct call of its Tmu
        method on the receiving or requesting core's Tmu."""
        self.cycle = cycle
        memory = self.memory
        if cycle == memory.next_due:
            for cb, value in memory.step(cycle):
                cb(value)
        noc = self.noc
        if cycle == noc.next_arrival:
            tmus = self.tmus
            for dst, handler, payload in noc.step(cycle):
                handler(tmus[dst], *payload, cycle)
        requests = self.requests
        if requests:
            # a new list: a lone core's step re-reads it after the phases
            self.requests = []
            tmus = self.tmus
            for cid, method, args in requests:
                method(tmus[cid], *args, cycle)

    # -- progress analysis ----------------------------------------------------

    def quiescent(self) -> bool:
        return not (self.awake or self.requests or self.noc.in_flight
                    or self.memory.busy)

    def threads(self):
        """Every resident thread, by core then slot start order."""
        for core in self.cores:
            yield from core.contexts.values()

    def suspended_threads(self):
        return [ctx for ctx in self.threads() if ctx.parked is not None]


def _name(ctx) -> str:
    return f"family {ctx.fid} index {ctx.logical_index}"


def detect_deadlock(chip: Chip) -> str | None:
    """Diagnose a stalled system via the waits-for graph over suspended
    threads: the waits-for cycle, else the unsatisfiable waits. None when no
    thread is suspended.

    A thread parked on its channel waits for the thread at the position
    before it, or for the family's creator at position 0; one parked on a
    sync or a tail read waits for every resident thread of that family. The
    graph is keyed by the contexts, and the search follows only the edges
    between suspended threads: depth first from each of them in turn, in
    resident order, with an explicit path."""
    suspended, at, members = [], {}, {}
    for ctx in chip.threads():
        if ctx.parked is not None:
            suspended.append(ctx)
        at.setdefault((ctx.fid, ctx.position), ctx)
        members.setdefault(ctx.fid, []).append(ctx)
    if not suspended:
        return None
    edges = {}
    for ctx in suspended:
        cell = ctx.parked[0]
        if cell != CHANNEL_CELL:
            edges[ctx] = members.get(ctx.waits_on[cell], ())
        elif ctx.position > 0:
            edges[ctx] = (at.get((ctx.fid, ctx.position - 1)),)
        else:
            edges[ctx] = (chip.families[ctx.fid].creator,)
    # the path, in order, maps each of its threads to its depth; walks holds
    # the edges each of them has yet to follow
    done, path = set(), {}
    for root in suspended:
        if root in done:
            continue
        path[root] = 0
        walks = [iter(edges[root])]
        while walks:
            for m in walks[-1]:
                if m in path:
                    names = " -> ".join(map(_name, list(path)[path[m]:]))
                    return f"waits-for cycle: {names}"
                if m in edges and m not in done:
                    path[m] = len(path)
                    walks.append(iter(edges[m]))
                    break
            else:
                walks.pop()
                done.add(path.popitem()[0])
    waiting = ", ".join(map(_name, suspended))
    return f"unsatisfiable waits: {waiting}"


def _check_starvation(chip: Chip, cycle: int) -> str | None:
    if cycle - chip.last_effect < chip.config.starvation_window:
        return None
    runnable = [ctx for ctx in chip.threads() if ctx.parked is None]
    if not runnable:
        return None
    if all(ctx.last_denial > chip.last_effect for ctx in runnable):
        return (f"{len(runnable)} runnable thread(s) spinning on denied "
                f"allocations since cycle {chip.last_effect}")
    return None


def _stop(chip: Chip, cycle: int) -> int:
    """The one stop rule: the cycle the chip runs to from cycle before it
    looks again (see the module docstring). Returning cycle + 1 makes the
    loop lockstep. A quiet core's latches are skipped: its stretch has
    executed every instruction it has in flight, and none of them acts
    outside the core. Its queued threads are walked instead: each sits at
    its next fetch, whose reach bounds how soon the thread can fetch an
    instruction that does, and that one acts four cycles after its fetch."""
    awake = chip.awake
    span = NEVER    # a lone core has no window
    if len(awake) > 1:
        # the smallest horizon of the awake cores, shorter than an I-fill:
        # at most the fetch-to-execute depth for a core that is not quiet,
        # and from the least reach of its queued threads' pcs for one that is
        reach = chip.reach
        least = NEVER
        for core in awake:
            if core.quiet:
                for ctx in core.queue:
                    x = reach[ctx.pc]
                    if x < least:
                        least = x
                continue
            if span > 4:
                span = 4
            x = core.e
            if x and x[1].acts_outside:
                return cycle + 1
            x = core.m
            if x and x[1].acts_outside:
                return cycle + 1
            x = core.w
            if x and x[1].acts_outside:
                return cycle + 1
            x = core.r
            if x and x[1].acts_outside:
                return cycle + 1
            x = core.d
            if x and x[1].acts_outside:
                span = 2
            elif span > 3:
                x = core.f
                if x and x[1].acts_outside:
                    span = 3
        # a quiet core's thread fetches an acting instruction no sooner
        # than least cycles on, and it acts four cycles after its fetch
        if 4 + least < span:
            span = 4 + least
        if span > chip.config.i_miss_latency:
            span = chip.config.i_miss_latency
    elif not awake:
        # the phases of cycle may have completed the run's last family,
        # with a fill still pending that changes no result
        nxt = min(chip.memory.next_due, chip.noc.next_arrival)
        return cycle + 1 if nxt == NEVER or not chip.open_families else \
            min(nxt, chip.config.watchdog_cycles)
    config = chip.config
    check = config.starvation_check
    return min(cycle + span, config.watchdog_cycles,
               cycle - cycle % check + check)


def _bootstrap_root(chip: Chip):
    fam = chip.new_family(owner=0, aid=None, entry="main", start=0, step=1,
                          n=1, head=0, creator=None)
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
    noc, cores = chip.noc, chip.cores
    watchdog, check = config.watchdog_cycles, config.starvation_check
    try:
        while cycle < watchdog:
            chip.phases(cycle)
            stop = _stop(chip, cycle)
            # every awake core steps to the stop in ascending core id, and
            # the loop goes on at the largest cycle the steps returned; with
            # none awake the clock jumps to the stop. A core that goes idle,
            # and one that a lone core's phases wake, install a new awake
            # list rather than change the one walked here
            awake = chip.awake
            nxt = cycle if awake else stop
            try:
                for core in awake:
                    end = core.step(cycle, stop)
                    if end > nxt:
                        nxt = end
            except SimFault:
                # a fault in a core's own cycle, not in the phases its step
                # ran, comes after the idle cores with a lower id
                if not chip.fault_before_cores:
                    fault_cid = core.cid
                cycle = chip.cycle
                raise
            cycle = nxt
            if not chip.open_families:
                outcome = Outcome.COMPLETED
                break
            if not chip.awake and chip.quiescent():
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

    per_core = [c.metrics for c in chip.cores]
    for m in per_core:
        m.utilization = m.commits / cycle if cycle else 0.0
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
    # the result takes the chip's own image, not a copy, and the chip lets
    # go of it now: the chip is a reference cycle that the collector frees
    # only in a rare full collection
    final_memory = chip.memory.mem if outcome is Outcome.COMPLETED else None
    chip.memory.mem = None
    return RunResult(outcome, metrics, final_memory, diagnostic, chip.trace)


def format_trace(trace: list[tuple]) -> str:
    """One line per commit: cycle core slot family index pc opcode."""
    return "".join(" ".join(str(x) for x in row) + "\n" for row in trace)
