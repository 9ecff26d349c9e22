"""Toy RISC instruction set with thread-management extensions.

Assembly dialect (one instruction per line, ``;`` starts a comment):

    .body <name>            opens a thread body; <name> becomes an entry point
    <label>:                labels the next instruction (may share its line)

    add  rD, rA, rB         rD = rA + rB            (sub, mul likewise)
    addi rD, rA, imm        rD = rA + imm
    ld   rD, imm(rA)        rD = mem32[rA + imm]
    st   rS, imm(rA)        mem32[rA + imm] = rS
    beq  rA, rB, label      branch if rA == rB      (bne: if rA != rB)
    jmp  label
    halt                    terminate this thread

    allocate rD, size [, rH]              acquire a core span; rD = handle, 0 on denial
                                          (rH present: span starts at core id in rH;
                                           size 0: largest free span available)
    create rD, rA, entry, s, l, t [, rS]  bulk-create threads with logical indices
                                          s, s+t, ... below l over span rA; rD = family
                                          handle; rS seeds the first thread's channel
    sync rD, rA                           rD receives 1 once family rA has drained
    release rA                            return span rA to the free pool
    getidx rD                             rD = this thread's logical index
    getsh rD [, rA]                       read input channel (or family rA's tail)
    putsh rS [, rA]                       write output channel (or family rA's head)

Immediates are decimal or 0x-prefixed hex, registers are r0-r31. Register 0
reads as zero and discards writes. All arithmetic wraps at 32 bits, signed.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace


def s32(v: int) -> int:
    """Wrap to signed 32-bit, the arithmetic domain of the whole machine."""
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v & 0x80000000 else v


class Opcode(enum.IntEnum):
    ADD = 0
    SUB = 1
    MUL = 2
    ADDI = 3
    LD = 4
    ST = 5
    BEQ = 6
    BNE = 7
    JMP = 8
    HALT = 9
    ALLOCATE = 10
    CREATE = 11
    SYNC = 12
    RELEASE = 13
    GETIDX = 14
    PUTSH = 15
    GETSH = 16


# Opcodes whose result lands in the destination register an unpredictable
# number of cycles after issue. Consumers of these results are the switch-hint
# candidates.
LONG_LATENCY_PRODUCERS = frozenset(
    {Opcode.LD, Opcode.ALLOCATE, Opcode.CREATE, Opcode.SYNC, Opcode.GETSH}
)

# Opcodes that end a basic block; fetch stops behind them until they resolve.
CONTROL_TRANSFERS = frozenset({Opcode.BEQ, Opcode.BNE, Opcode.JMP, Opcode.HALT})

# Opcodes that act outside their core (a memory access, a TMU request, a
# halt); so does a getsh of a family's tail, but not a plain getsh.
ACTS_OUTSIDE = frozenset({Opcode.LD, Opcode.ST, Opcode.HALT, Opcode.ALLOCATE,
                          Opcode.CREATE, Opcode.SYNC, Opcode.RELEASE,
                          Opcode.PUTSH})

CHANNEL_CELL = 32       # the thread's input channel sits after r0..r31


@dataclass(frozen=True)
class Instruction:
    opcode: Opcode
    dst: int | None = None
    src1: int | None = None
    src2: int | None = None
    imm: int | None = None          # addi constant, ld/st offset, branch target,
                                    # allocate size
    entry: str | None = None        # create: thread-body name
    create_range: tuple[int, int, int] | None = None   # create: (start, limit, step)
    switch_hint: bool = False
    # Decoded once, so the pipeline tests plain attributes instead of enum
    # members: the opcode as a plain int (the execute table's index), the
    # register-file cells read at the read stage (the operand registers, or
    # the input channel for a plain getsh), whether one is the channel or it
    # acts outside its core, and which stages have work beyond execute.
    op: int = field(init=False, compare=False, repr=False)
    source_cells: tuple[int, ...] = field(init=False, compare=False, repr=False)
    reads_channel: bool = field(init=False, compare=False, repr=False)
    acts_outside: bool = field(init=False, compare=False, repr=False)
    ends_block: bool = field(init=False, compare=False, repr=False)
    is_branch: bool = field(init=False, compare=False, repr=False)
    is_jump: bool = field(init=False, compare=False, repr=False)
    is_halt: bool = field(init=False, compare=False, repr=False)
    is_load: bool = field(init=False, compare=False, repr=False)
    is_store: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        op = self.opcode
        cells = self.regs_read()
        if op is Opcode.GETSH and self.src1 is None:
            cells = (CHANNEL_CELL,)
        set_ = object.__setattr__     # the dataclass is frozen
        set_(self, "op", int(op))
        set_(self, "source_cells", cells)
        set_(self, "reads_channel", CHANNEL_CELL in cells)
        set_(self, "acts_outside", op in ACTS_OUTSIDE
             or op is Opcode.GETSH and self.src1 is not None)
        set_(self, "ends_block", op in CONTROL_TRANSFERS)
        set_(self, "is_branch", op in (Opcode.BEQ, Opcode.BNE))
        set_(self, "is_jump", op is Opcode.JMP)
        set_(self, "is_halt", op is Opcode.HALT)
        set_(self, "is_load", op is Opcode.LD)
        set_(self, "is_store", op is Opcode.ST)

    @property
    def mnemonic(self) -> str:
        return self.opcode.name.lower()

    def regs_read(self) -> tuple[int, ...]:
        """Register operands this instruction reads at the read stage."""
        op = self.opcode
        if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.BEQ, Opcode.BNE,
                  Opcode.ST):
            return (self.src1, self.src2)
        if op in (Opcode.ADDI, Opcode.LD, Opcode.SYNC, Opcode.RELEASE):
            return (self.src1,)
        if op in (Opcode.ALLOCATE, Opcode.CREATE, Opcode.PUTSH, Opcode.GETSH):
            out = []
            if self.src1 is not None:
                out.append(self.src1)
            if self.src2 is not None:
                out.append(self.src2)
            return tuple(out)
        return ()


@dataclass(frozen=True)
class Program:
    instructions: tuple[Instruction, ...]
    labels: dict[str, int] = field(default_factory=dict)
    entries: dict[str, int] = field(default_factory=dict)
    # body name -> (first index, one past last index), in source order
    body_spans: dict[str, tuple[int, int]] = field(default_factory=dict)
    name: str = "program"

    def __len__(self) -> int:
        return len(self.instructions)


class AsmError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_LABEL_RE = re.compile(r"^([A-Za-z_]\w*):(.*)$")
_MEM_RE = re.compile(r"^(-?(?:0x[0-9A-Fa-f]+|\d+))\((r\d+)\)$", re.IGNORECASE)


def _parse_reg(tok: str, line: int) -> int:
    if not re.fullmatch(r"[rR]\d+", tok):
        raise AsmError(f"expected register, got {tok!r}", line)
    n = int(tok[1:])
    if not 0 <= n <= 31:
        raise AsmError(f"register index out of 0..31: {tok}", line)
    return n


def _parse_imm(tok: str, line: int) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmError(f"expected immediate, got {tok!r}", line) from None


def assemble(source: str, name: str = "program") -> Program:
    """Assemble the text dialect above into a Program.

    Branch targets must resolve; unknown create entry names are left to
    validate() so a partially written corpus can still be assembled.
    """
    instrs: list[Instruction] = []
    labels: dict[str, int] = {}
    entries: dict[str, int] = {}
    body_starts: list[tuple[str, int]] = []
    # (instr index, label name, source line) fixed up after the first pass
    fixups: list[tuple[int, str, int]] = []

    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split(";", 1)[0].strip()
        if not text:
            continue
        if text.startswith(".body"):
            parts = text.split()
            if len(parts) != 2 or not re.fullmatch(r"[A-Za-z_]\w*", parts[1]):
                raise AsmError("malformed .body directive", lineno)
            bname = parts[1]
            if bname in entries:
                raise AsmError(f"duplicate body '{bname}'", lineno)
            entries[bname] = len(instrs)
            labels[bname] = len(instrs)
            body_starts.append((bname, len(instrs)))
            continue
        m = _LABEL_RE.match(text)
        if m:
            lname = m.group(1)
            if lname in labels:
                raise AsmError(f"duplicate label '{lname}'", lineno)
            labels[lname] = len(instrs)
            text = m.group(2).strip()
            if not text:
                continue
        if not body_starts:
            raise AsmError("instruction before any .body directive", lineno)

        parts = text.split(None, 1)
        mnem = parts[0].lower()
        ops = [o.strip() for o in parts[1].split(",")] if len(parts) > 1 else []

        def need(n):
            if len(ops) != n:
                raise AsmError(f"{mnem} takes {n} operand(s), got {len(ops)}", lineno)

        if mnem in ("add", "sub", "mul"):
            need(3)
            instrs.append(Instruction(Opcode[mnem.upper()],
                                      dst=_parse_reg(ops[0], lineno),
                                      src1=_parse_reg(ops[1], lineno),
                                      src2=_parse_reg(ops[2], lineno)))
        elif mnem == "addi":
            need(3)
            instrs.append(Instruction(Opcode.ADDI,
                                      dst=_parse_reg(ops[0], lineno),
                                      src1=_parse_reg(ops[1], lineno),
                                      imm=_parse_imm(ops[2], lineno)))
        elif mnem in ("ld", "st"):
            need(2)
            mm = _MEM_RE.match(ops[1])
            if not mm:
                raise AsmError(f"expected imm(rN) memory operand, got {ops[1]!r}",
                               lineno)
            off = _parse_imm(mm.group(1), lineno)
            base = _parse_reg(mm.group(2), lineno)
            if mnem == "ld":
                instrs.append(Instruction(Opcode.LD, dst=_parse_reg(ops[0], lineno),
                                          src1=base, imm=off))
            else:
                instrs.append(Instruction(Opcode.ST, src1=_parse_reg(ops[0], lineno),
                                          src2=base, imm=off))
        elif mnem in ("beq", "bne"):
            need(3)
            fixups.append((len(instrs), ops[2], lineno))
            instrs.append(Instruction(Opcode[mnem.upper()],
                                      src1=_parse_reg(ops[0], lineno),
                                      src2=_parse_reg(ops[1], lineno)))
        elif mnem == "jmp":
            need(1)
            fixups.append((len(instrs), ops[0], lineno))
            instrs.append(Instruction(Opcode.JMP))
        elif mnem == "halt":
            need(0)
            instrs.append(Instruction(Opcode.HALT))
        elif mnem == "allocate":
            if len(ops) not in (2, 3):
                raise AsmError("allocate takes 2 or 3 operands", lineno)
            hint = _parse_reg(ops[2], lineno) if len(ops) == 3 else None
            instrs.append(Instruction(Opcode.ALLOCATE,
                                      dst=_parse_reg(ops[0], lineno),
                                      src1=hint,
                                      imm=_parse_imm(ops[1], lineno)))
        elif mnem == "create":
            if len(ops) not in (6, 7):
                raise AsmError("create takes 6 or 7 operands", lineno)
            if not re.fullmatch(r"[A-Za-z_]\w*", ops[2]):
                raise AsmError(f"expected entry name, got {ops[2]!r}", lineno)
            seed = _parse_reg(ops[6], lineno) if len(ops) == 7 else None
            instrs.append(Instruction(
                Opcode.CREATE,
                dst=_parse_reg(ops[0], lineno),
                src1=_parse_reg(ops[1], lineno),
                src2=seed,
                entry=ops[2],
                create_range=(_parse_imm(ops[3], lineno),
                              _parse_imm(ops[4], lineno),
                              _parse_imm(ops[5], lineno))))
        elif mnem == "sync":
            need(2)
            instrs.append(Instruction(Opcode.SYNC, dst=_parse_reg(ops[0], lineno),
                                      src1=_parse_reg(ops[1], lineno)))
        elif mnem == "release":
            need(1)
            instrs.append(Instruction(Opcode.RELEASE,
                                      src1=_parse_reg(ops[0], lineno)))
        elif mnem == "getidx":
            need(1)
            instrs.append(Instruction(Opcode.GETIDX,
                                      dst=_parse_reg(ops[0], lineno)))
        elif mnem == "getsh":
            if len(ops) not in (1, 2):
                raise AsmError("getsh takes 1 or 2 operands", lineno)
            fam = _parse_reg(ops[1], lineno) if len(ops) == 2 else None
            instrs.append(Instruction(Opcode.GETSH, dst=_parse_reg(ops[0], lineno),
                                      src1=fam))
        elif mnem == "putsh":
            if len(ops) not in (1, 2):
                raise AsmError("putsh takes 1 or 2 operands", lineno)
            fam = _parse_reg(ops[1], lineno) if len(ops) == 2 else None
            instrs.append(Instruction(Opcode.PUTSH, src1=_parse_reg(ops[0], lineno),
                                      src2=fam))
        else:
            raise AsmError(f"unknown mnemonic {mnem!r}", lineno)

    for idx, lname, lineno in fixups:
        if lname not in labels:
            raise AsmError(f"undefined label '{lname}'", lineno)
        if labels[lname] >= len(instrs):
            raise AsmError(f"label '{lname}' addresses no instruction", lineno)
        instrs[idx] = replace(instrs[idx], imm=labels[lname])

    spans: dict[str, tuple[int, int]] = {}
    for i, (bname, start) in enumerate(body_starts):
        end = body_starts[i + 1][1] if i + 1 < len(body_starts) else len(instrs)
        spans[bname] = (start, end)

    return Program(tuple(instrs), labels, entries, spans, name)


def _block_boundaries(program: Program) -> set[int]:
    """Indices that start a new basic block."""
    leaders = set(program.entries.values())
    leaders.update(program.labels.values())
    for i, ins in enumerate(program.instructions):
        if ins.ends_block:
            leaders.add(i + 1)
            if ins.imm is not None:
                leaders.add(ins.imm)
    return leaders


def annotate_hints(program: Program) -> Program:
    """Mark instructions likely to bubble so the fetch stage can rotate early.

    Within each basic block, any instruction reading a register last written
    by a long-latency producer gets switch_hint=True. Existing hints are kept;
    the pass is idempotent and touches nothing else.
    """
    leaders = _block_boundaries(program)
    out = list(program.instructions)
    producers: dict[int, bool] = {}
    for i, ins in enumerate(out):
        if i in leaders:
            producers.clear()
        if any(producers.get(r) for r in ins.regs_read()):
            out[i] = replace(ins, switch_hint=True)
        if ins.dst is not None and ins.dst != 0:
            producers[ins.dst] = ins.opcode in LONG_LATENCY_PRODUCERS
    return replace(program, instructions=tuple(out))


def validate(program: Program) -> list[str]:
    """Static well-formedness diagnostics; empty means runnable."""
    diags = []
    for ins in program.instructions:
        if ins.opcode is Opcode.CREATE and ins.entry not in program.entries:
            diags.append(f"unknown entry '{ins.entry}'")
    for bname, (start, end) in program.body_spans.items():
        if start == end:
            diags.append(f"thread body '{bname}' does not terminate")
            continue
        last = program.instructions[end - 1]
        if last.opcode not in (Opcode.HALT, Opcode.JMP):
            diags.append(f"thread body '{bname}' does not terminate")
    return diags
