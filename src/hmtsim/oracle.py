"""Reference interpreter for the canonical sequential schedule.

A program's meaning is defined by running it single-threaded: at every family
creation the logical threads execute to completion in ascending index order,
depth-first into sub-families at their creation points. Under that schedule a
channel read always finds its producer already run, so no scheduling, caches
or timing enter the semantics. A run completes only when every family created
in it has completed, whether or not any thread syncs it: here each family runs
to its end at its creation point, and the simulator ends a run only once the
last of its families has completed. A thread may sync, or read the tail of,
any family that has run, whichever thread created it. The simulator's final
memory must match this interpreter's bit for bit on every completed run.

Kept deliberately free of any simulator machinery; this is the independent
half of the dual-route check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import Opcode, Program, s32


class OracleDeadlock(Exception):
    """The program has no sequential schedule (a channel is read before any
    producer in program order could have written it)."""


@dataclass
class OracleResult:
    final_memory: bytes
    traces: dict[tuple[int, int], list[int]]    # (family, logical index) -> pcs
    loads: int = 0
    stores: int = 0


@dataclass
class _State:
    program: Program
    mem: bytearray
    max_steps: int = 50_000_000
    traces: dict = field(default_factory=dict)
    # every family that has run to its end, by id: any thread that holds
    # the id may sync the family or read its tail, whichever thread created it
    families: dict = field(default_factory=dict)
    loads: int = 0
    stores: int = 0
    next_fid: int = 1
    next_aid: int = 0
    steps: int = 0


@dataclass
class _FamilyCtx:
    fid: int
    tail: int | None = None


def _read_word(state, addr):
    if addr % 4 != 0:
        raise ValueError(f"unaligned access at 0x{addr:x}")
    if not 0 <= addr <= len(state.mem) - 4:
        raise ValueError(f"address 0x{addr:x} out of bounds")
    return int.from_bytes(state.mem[addr:addr + 4], "little", signed=True)


def _write_word(state, addr, value):
    if addr % 4 != 0:
        raise ValueError(f"unaligned access at 0x{addr:x}")
    if not 0 <= addr <= len(state.mem) - 4:
        raise ValueError(f"address 0x{addr:x} out of bounds")
    state.mem[addr:addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")


def _run_family(state: _State, entry: str, start: int, limit: int, step: int,
                seed: int | None) -> _FamilyCtx:
    if step == 0:
        raise ValueError("family with zero index step")
    if step > 0:
        n = max(0, -(-(limit - start) // step))
    else:
        n = max(0, -(-(start - limit) // -step))
    fam = _FamilyCtx(fid=state.next_fid)
    state.next_fid += 1
    chan = seed
    chan_written = seed is not None
    for pos in range(n):
        chan, chan_written = _run_thread(
            state, fam, entry, start + pos * step, chan, chan_written)
    if n == 0 and seed is not None:
        fam.tail = seed      # an empty family forwards its head to its tail
    elif n > 0 and chan_written:
        fam.tail = chan
    state.families[fam.fid] = fam
    return fam


def _run_thread(state: _State, fam: _FamilyCtx, entry: str, index: int,
                chan_in: int | None, chan_in_written: bool):
    program = state.program
    regs = [0] * 32
    pc = program.entries[entry]
    trace = state.traces.setdefault((fam.fid, index), [])
    out_value = chan_in
    out_written = False
    families = state.families

    while True:
        state.steps += 1
        if state.steps > state.max_steps:
            raise OracleDeadlock("oracle step budget exhausted (runaway loop)")
        ins = program.instructions[pc]
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
            state.loads += 1
            value = _read_word(state, s32(regs[ins.src1] + ins.imm))
            if ins.dst:
                regs[ins.dst] = value
        elif op is Opcode.ST:
            state.stores += 1
            _write_word(state, s32(regs[ins.src2] + ins.imm), regs[ins.src1])
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
            return out_value, out_written
        elif op is Opcode.ALLOCATE:
            # the sequential schedule never contends for cores
            state.next_aid += 1
            if ins.dst:
                regs[ins.dst] = state.next_aid
        elif op is Opcode.CREATE:
            seed = regs[ins.src2] if ins.src2 is not None else None
            start, limit, stp = ins.create_range
            child = _run_family(state, ins.entry, start, limit, stp, seed)
            if ins.dst:
                regs[ins.dst] = child.fid
        elif op is Opcode.SYNC:
            if regs[ins.src1] not in families:
                raise ValueError(f"sync on unknown family {regs[ins.src1]}")
            if ins.dst:
                regs[ins.dst] = 1
        elif op is Opcode.RELEASE:
            pass
        elif op is Opcode.GETIDX:
            if ins.dst:
                regs[ins.dst] = index
        elif op is Opcode.GETSH:
            if ins.src1 is None:
                if not chan_in_written:
                    raise OracleDeadlock(
                        f"thread {index} of family {fam.fid} reads its input "
                        f"channel before any producer wrote it")
                if ins.dst:
                    regs[ins.dst] = chan_in
            else:
                child = families.get(regs[ins.src1])
                if child is None or child.tail is None:
                    raise OracleDeadlock(
                        f"tail of family {regs[ins.src1]} read but never "
                        f"written")
                if ins.dst:
                    regs[ins.dst] = child.tail
        elif op is Opcode.PUTSH:
            if ins.src2 is None:
                out_value = regs[ins.src1]
                out_written = True
            else:
                # the child family already ran at its creation point; a head
                # written now can never be read in the sequential schedule
                raise OracleDeadlock(
                    f"head of family {regs[ins.src2]} written after the "
                    f"family ran")
        else:
            raise AssertionError(f"unhandled opcode {op}")
        pc = nxt


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
    state = _State(program, mem, max_steps=max_steps)
    _run_family(state, "main", 0, 1, 1, seed=None)
    return OracleResult(bytes(state.mem), state.traces, state.loads,
                        state.stores)
