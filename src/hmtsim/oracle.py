"""Reference interpreter for the canonical sequential schedule.

A program's meaning is defined by running it single-threaded: at every family
creation the logical threads execute to completion in ascending index order,
depth-first into sub-families at their creation points. Under that schedule a
channel read always finds its producer already run, so no scheduling, caches
or timing enter the semantics. A run completes only when every family created
in it has completed, whether or not any thread syncs it, and the simulator
ends a run only once the last of its families has completed. A thread may
sync, or read the tail of, any family that has run, whichever thread created
it. The simulator's final memory must match this interpreter's bit for bit
on every completed run.

The interpreter is one loop over an explicit stack of thread frames, so no
nesting depth reaches Python's recursion limit. `create` pushes the new
family's thread 0 above its creator; `halt` pops the thread and pushes the
family's next index, or records the family's tail (its last thread's
output, or for an empty family its seed) in the map of families that have
run, and the thread below runs on. Three rules follow what the simulator
does with a family fed through its head (`putsh rS, rA`):

- thread 0 of an unseeded family that reads its unwritten input channel is
  set aside, and its creator runs on;
- a head `putsh` from any thread resumes a family set aside, right there,
  with the value as thread 0's input. The creator's accesses between
  `create` and that `putsh` run first, which is exact for race-free
  programs: only `create` and `sync` order memory;
- a head `putsh` to an empty unseeded family writes its tail, as the
  simulator's channel forwarding does past a family's last position.

A `sync` or tail read of a family still set aside, or a family still set
aside when the run ends, raises `OracleDeadlock`: thread 0 of that family
reads its input channel before any producer wrote it.

A program that makes a model fault under this schedule raises `OracleFault`
with the simulator's wording, where a run faults with that diagnostic: an
unaligned or out-of-range access, `sync`, a tail `getsh` or a head `putsh`
on a family that was never created, `sync` or a tail `getsh` on the
thread's own family or an ancestor's, a head `putsh` to an empty family
whose tail is already written (by its seed or an earlier `putsh`), and
`allocate` with a negative size.
An `allocate` hint outside 0..p-1 faults a run but not the oracle, which
has no core count, so that difference stays.

Kept deliberately free of any simulator machinery; this is the independent
half of the dual-route check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .isa import Opcode, Program, s32


class OracleDeadlock(Exception):
    """The program has no sequential schedule (a channel is read before any
    producer in program order could have written it)."""


class OracleFault(Exception):
    """The program makes a model fault under the sequential schedule; the
    message is the simulator's diagnostic for it."""


@dataclass
class OracleResult:
    final_memory: bytes
    traces: dict[tuple[int, int], list[int]]    # (family, logical index) -> pcs
    loads: int = 0
    stores: int = 0


class _Family:
    """A created family: the pc of its thread body, its index range, its
    creator (None for main's), the channel value its next thread reads
    (None while unwritten) and the position of that thread."""
    __slots__ = ("fid", "pc", "start", "step", "n", "creator", "chan", "pos")

    def __init__(self, fid, pc, start, limit, step, chan, creator):
        if step == 0:
            raise ValueError("family with zero index step")
        self.n = len(range(start, limit, step))
        self.fid, self.pc, self.start, self.step = fid, pc, start, step
        self.chan, self.creator, self.pos = chan, creator, 0


class _Frame:
    """The thread of fam at fam.pos: its logical index, its input and output
    channel values (None while unwritten), registers, pc and trace."""
    __slots__ = ("fam", "index", "chan", "out", "regs", "pc", "trace")

    def __init__(self, fam, traces):
        self.fam, self.chan, self.out = fam, fam.chan, None
        self.index = fam.start + fam.pos * fam.step
        self.regs, self.pc = [0] * 32, fam.pc
        self.trace = traces.setdefault((fam.fid, self.index), [])


def _check(mem, addr):
    if addr % 4 != 0:
        raise OracleFault(f"memory fault: unaligned access at {addr:#x}")
    if not 0 <= addr <= len(mem) - 4:
        raise OracleFault(f"memory fault: address {addr:#x} out of bounds")
    return addr


def _unfed(frame):
    return OracleDeadlock(f"thread {frame.index} of family {frame.fam.fid} "
                          f"reads its input channel before any producer "
                          f"wrote it")


def sequential_oracle(program: Program, mem_bytes: int = 1 << 20,
                      init_mem: bytes | None = None,
                      max_steps: int = 50_000_000) -> OracleResult:
    """Interpret the program under the canonical sequential schedule."""
    if "main" not in program.entries:
        raise ValueError("program has no 'main' thread body")
    mem = bytearray(mem_bytes)
    if init_mem:
        if len(init_mem) > mem_bytes:
            raise ValueError(f"memory image of {len(init_mem)} bytes exceeds "
                             f"the {mem_bytes}-byte memory")
        mem[:len(init_mem)] = init_mem
    instructions, entries = program.instructions, program.entries
    traces = {}
    families = {1: _Family(1, entries["main"], 0, 1, 1, None, None)}
    tails = {}      # fid -> the tail of each family that has run, or None
    aside = {}      # fid -> the thread 0 of each family set aside
    stack = [_Frame(families[1], traces)]   # the running thread on top
    loads = stores = steps = aid = 0

    def unfinished(frame, fid, op, role):
        """Why the thread of frame cannot wait on family fid, which has not
        run to its end: the simulator's fault, or a deadlock."""
        if fid not in families:
            return OracleFault(f"{op} on unknown family {fid}")
        while frame is not None:
            if frame.fam.fid == fid:
                return OracleFault(f"{op} on family {fid}, which is still "
                                   f"running the {role} thread")
            frame = frame.fam.creator
        if fid in aside:
            return _unfed(aside[fid])
        # a thread of fid fed the head of a family that now waits on fid
        return OracleDeadlock(f"family {fid} is below a family waiting on it")

    while stack:
        frame = stack[-1]
        regs, trace, pc = frame.regs, frame.trace, frame.pc
        while True:
            steps += 1
            if steps > max_steps:
                raise OracleDeadlock("oracle step budget exhausted (runaway "
                                     "loop)")
            ins = instructions[pc]
            trace.append(pc)
            op = ins.opcode
            nxt = pc + 1
            if op is Opcode.ADD:
                if ins.dst:
                    regs[ins.dst] = s32(regs[ins.src1] + regs[ins.src2])
            elif op is Opcode.SUB:
                if ins.dst:
                    regs[ins.dst] = s32(regs[ins.src1] - regs[ins.src2])
            elif op is Opcode.MUL:
                if ins.dst:
                    regs[ins.dst] = s32(regs[ins.src1] * regs[ins.src2])
            elif op is Opcode.ADDI:
                if ins.dst:
                    regs[ins.dst] = s32(regs[ins.src1] + ins.imm)
            elif op is Opcode.LD:
                loads += 1
                addr = _check(mem, s32(regs[ins.src1] + ins.imm))
                if ins.dst:
                    regs[ins.dst] = int.from_bytes(mem[addr:addr + 4],
                                                   "little", signed=True)
            elif op is Opcode.ST:
                stores += 1
                addr = _check(mem, s32(regs[ins.src2] + ins.imm))
                mem[addr:addr + 4] = (regs[ins.src1] & 0xFFFFFFFF).to_bytes(
                    4, "little")
            elif op is Opcode.BEQ:
                if regs[ins.src1] == regs[ins.src2]:
                    nxt = ins.imm
            elif op is Opcode.BNE:
                if regs[ins.src1] != regs[ins.src2]:
                    nxt = ins.imm
            elif op is Opcode.JMP:
                nxt = ins.imm
            elif op is Opcode.HALT:
                # the next thread's input is exactly this thread's output; a
                # thread that never writes breaks the chain
                fam = frame.fam
                fam.chan, fam.pos = frame.out, fam.pos + 1
                if fam.pos < fam.n:
                    stack[-1] = _Frame(fam, traces)
                else:
                    tails[fam.fid] = stack.pop().out
                break
            elif op is Opcode.ALLOCATE:
                if ins.imm < 0:
                    raise OracleFault(f"allocate with negative size {ins.imm}")
                # the sequential schedule never contends for cores
                aid += 1
                if ins.dst:
                    regs[ins.dst] = aid
            elif op is Opcode.CREATE:
                fid = len(families) + 1
                fam = families[fid] = _Family(
                    fid, entries[ins.entry], *ins.create_range,
                    regs[ins.src2] if ins.src2 is not None else None, frame)
                if ins.dst:
                    regs[ins.dst] = fid
                if not fam.n:
                    tails[fid] = fam.chan   # its head is its tail
                else:
                    stack.append(_Frame(fam, traces))
                    break
            elif op is Opcode.SYNC:
                fid = regs[ins.src1]
                if fid not in tails:
                    raise unfinished(frame, fid, "sync", "syncing")
                if ins.dst:
                    regs[ins.dst] = 1
            elif op is Opcode.GETIDX:
                if ins.dst:
                    regs[ins.dst] = frame.index
            elif op is Opcode.GETSH:
                if ins.src1 is None:
                    if frame.chan is None:
                        if frame.fam.pos:
                            raise _unfed(frame)
                        # thread 0 waits for a head putsh, to read again (and
                        # be traced once); the thread below, its creator,
                        # runs on
                        nxt = trace.pop()
                        aside[frame.fam.fid] = stack.pop()
                        break
                    if ins.dst:
                        regs[ins.dst] = frame.chan
                else:
                    fid = regs[ins.src1]
                    if fid not in tails:
                        raise unfinished(frame, fid, "getsh", "reading")
                    if tails[fid] is None:
                        raise OracleDeadlock(f"tail of family {fid} read but "
                                             f"never written")
                    if ins.dst:
                        regs[ins.dst] = tails[fid]
            elif op is Opcode.PUTSH:
                if ins.src2 is None:
                    frame.out = regs[ins.src1]
                else:
                    fid = regs[ins.src2]
                    if fid not in families:
                        raise OracleFault(f"putsh to unknown family {fid}")
                    if fid in aside:
                        # the family set aside runs on from its read, fed
                        aside[fid].chan = regs[ins.src1]
                        stack.append(aside.pop(fid))
                        break
                    if families[fid].n:
                        raise OracleDeadlock(f"head of family {fid} written "
                                             f"after the family ran")
                    if tails[fid] is not None:
                        raise OracleFault(f"double write to tail of family {fid}")
                    tails[fid] = regs[ins.src1]     # an empty family's tail
            elif op is not Opcode.RELEASE:
                raise AssertionError(f"unhandled opcode {op}")
            pc = nxt
        frame.pc = nxt      # where the thread goes on once it runs again
    if aside:
        raise _unfed(next(iter(aside.values())))
    return OracleResult(bytes(mem), traces, loads, stores)
