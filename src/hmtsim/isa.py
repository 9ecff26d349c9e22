"""Toy RISC instruction set with thread-management extensions.

Assembly dialect (one instruction per line, ``;`` starts a comment):

    .body <name>            opens a thread body; <name> becomes an entry point
                            and a label, so no other label may share it
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

An immediate is an optional ``-``, then ASCII decimal digits or ``0x`` and hex
digits; a decimal that starts with 0 must be all zeros, as in Python. So
``0b101``, ``0o17``, ``+5``, ``1_000`` and ``007`` are refused. Registers are
r0-r31, also in ASCII; names are ASCII identifiers. ``OPERANDS`` below is the
one table of operand forms. Register 0 reads as zero and discards writes. All
arithmetic wraps at 32 bits, signed.

A program is analysed once, not once per run. `assemble` keeps the Programs
of the last ASSEMBLED_KEPT (32) distinct (source, name) pairs it assembled
and returns the kept object for the same pair again; an AsmError is not
kept. A Program computes its `validate` diagnostics, its `annotate_hints`
twin and its `reach` table on first use and keeps them (`diagnostics`,
`hinted`, `reach`), so every run of it, and every holder of the same
object, reads the same results. A Program is therefore never changed after
it is built: nothing writes to its `labels`, `entries` or `body_spans`
dicts or to its `reach` list, and a variant is a new Program
(`dataclasses.replace`), which starts with no analyses of its own.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from sys import maxsize as NEVER   # no acting instruction on any path


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

# Opcodes that only execute: a one-cycle result or a branch. Without a
# switch hint such an instruction is quiet (Instruction.quiet).
QUIET = frozenset({Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.ADDI,
                   Opcode.BEQ, Opcode.BNE})

CHANNEL_CELL = 32       # the thread's input channel sits after r0..r31

# assemble's memo: the most recently used distinct (source, name) pairs kept
ASSEMBLED_KEPT = 32


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
    # acts outside its core, whether it is quiet (a one-cycle ALU operation
    # or a branch with no switch hint: no stage but execute has work for it,
    # see core.py), and which stages have work beyond execute.
    op: int = field(init=False, compare=False, repr=False)
    source_cells: tuple[int, ...] = field(init=False, compare=False, repr=False)
    reads_channel: bool = field(init=False, compare=False, repr=False)
    acts_outside: bool = field(init=False, compare=False, repr=False)
    quiet: bool = field(init=False, compare=False, repr=False)
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
        set_(self, "quiet", op in QUIET and not self.switch_hint)
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
        return tuple(r for r in (self.src1, self.src2) if r is not None)


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

    # Each static analysis that a run reads, computed on first use and kept;
    # a copy made with dataclasses.replace starts with none of them.
    @cached_property
    def diagnostics(self) -> tuple[str, ...]:
        """`validate`'s diagnostics; empty means runnable."""
        return tuple(validate(self))

    @cached_property
    def hinted(self) -> Program:
        """The program with `annotate_hints`' switch hints."""
        return annotate_hints(self)

    @cached_property
    def reach(self) -> list[int]:
        """`reach` of the instructions, read by `sim._stop`."""
        return reach(self.instructions)


class AsmError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Each opcode's operands in assembly order, named by what they fill: dst, src1,
# src2 a register; imm an immediate; label imm with a label's index; entry a
# body name; start, limit, step create's range; imm(src1), imm(src2) a memory
# operand's offset and base. A bracketed last operand may be left out. Every
# register a form puts in src1 or src2 is one the instruction reads.
OPERANDS = {
    Opcode.ADD: "dst src1 src2",
    Opcode.SUB: "dst src1 src2",
    Opcode.MUL: "dst src1 src2",
    Opcode.ADDI: "dst src1 imm",
    Opcode.LD: "dst imm(src1)",
    Opcode.ST: "src1 imm(src2)",
    Opcode.BEQ: "src1 src2 label",
    Opcode.BNE: "src1 src2 label",
    Opcode.JMP: "label",
    Opcode.HALT: "",
    Opcode.ALLOCATE: "dst imm [src1]",
    Opcode.CREATE: "dst src1 entry start limit step [src2]",
    Opcode.SYNC: "dst src1",
    Opcode.RELEASE: "src1",
    Opcode.GETIDX: "dst",
    Opcode.PUTSH: "src1 [src2]",
    Opcode.GETSH: "dst [src1]",
}

# mnemonic -> (opcode, operand kinds, whether the last one is optional)
_FORMS = {op.name.lower(): (op, text.replace("[", "").replace("]", "").split(),
                            "[" in text) for op, text in OPERANDS.items()}

_IMM_RE = re.compile(r"-?(?:0x[0-9a-f]+|[0-9]+)", re.ASCII | re.IGNORECASE)
_REG_RE = re.compile(r"r[0-9]+", re.ASCII | re.IGNORECASE)
_MEM_RE = re.compile(rf"({_IMM_RE.pattern})\(({_REG_RE.pattern})\)",
                     re.ASCII | re.IGNORECASE)
_NAME_RE = re.compile(r"[A-Za-z_]\w*", re.ASCII)
_LABEL_RE = re.compile(rf"({_NAME_RE.pattern}):(.*)", re.ASCII)


def _parse_reg(tok: str, line: int) -> int:
    if not _REG_RE.fullmatch(tok):
        raise AsmError(f"expected register, got {tok!r}", line)
    if int(tok[1:]) > 31:
        raise AsmError(f"register index out of 0..31: {tok}", line)
    return int(tok[1:])


def _parse_imm(tok: str, line: int) -> int:
    try:
        if _IMM_RE.fullmatch(tok):
            return int(tok, 0)      # refuses a decimal with a leading 0
    except ValueError:
        pass
    raise AsmError(f"expected immediate, got {tok!r}", line)


def assemble(source: str, name: str = "program") -> Program:
    """Assemble the text dialect above into a Program.

    Branch targets must resolve; unknown create entry names are left to
    validate() so a partially written corpus can still be assembled. The
    same source and name give the same Program object while it is among the
    last ASSEMBLED_KEPT assembled; an AsmError is raised anew on each call.
    """
    return _assemble(source, name)


@lru_cache(maxsize=ASSEMBLED_KEPT)
def _assemble(source: str, name: str) -> Program:
    instrs: list[Instruction] = []
    labels: dict[str, int] = {}
    entries: dict[str, int] = {}
    # (instr index, label name, source line) fixed up after the first pass
    fixups: list[tuple[int, str, int]] = []

    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split(";", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if parts[0] == ".body":
            if len(parts) != 2 or not _NAME_RE.fullmatch(parts[1]):
                raise AsmError("malformed .body directive", lineno)
            bname = parts[1]
            if bname in labels:     # a body name is a label too
                kind = "body" if bname in entries else "label"
                raise AsmError(f"duplicate {kind} '{bname}'", lineno)
            entries[bname] = labels[bname] = len(instrs)
            continue
        m = _LABEL_RE.fullmatch(text)
        if m:
            lname, text = m[1], m[2].strip()
            if lname in labels:
                raise AsmError(f"duplicate label '{lname}'", lineno)
            labels[lname] = len(instrs)
            if not text:
                continue
        if not entries:
            raise AsmError("instruction before any .body directive", lineno)

        parts = text.split(None, 1)
        mnem = parts[0].lower()
        if mnem not in _FORMS:
            raise AsmError(f"unknown mnemonic {mnem!r}", lineno)
        op, kinds, optional = _FORMS[mnem]
        ops = [o.strip() for o in parts[1].split(",")] if len(parts) > 1 else []
        n = len(kinds)
        if optional and len(ops) not in (n - 1, n):
            raise AsmError(f"{mnem} takes {n - 1} or {n} operands", lineno)
        if not optional and len(ops) != n:
            raise AsmError(f"{mnem} takes {n} operand(s), got {len(ops)}", lineno)
        fields = {}
        bounds = []
        for kind, tok in zip(kinds, ops):
            if kind in ("dst", "src1", "src2"):
                fields[kind] = _parse_reg(tok, lineno)
            elif kind == "imm":
                fields["imm"] = _parse_imm(tok, lineno)
            elif kind == "label":
                fixups.append((len(instrs), tok, lineno))
            elif kind == "entry":
                if not _NAME_RE.fullmatch(tok):
                    raise AsmError(f"expected entry name, got {tok!r}", lineno)
                fields["entry"] = tok
            elif kind in ("start", "limit", "step"):
                bounds.append(_parse_imm(tok, lineno))
            else:               # imm(src1) or imm(src2)
                mm = _MEM_RE.fullmatch(tok)
                if not mm:
                    raise AsmError(f"expected imm(rN) memory operand, got {tok!r}",
                                   lineno)
                fields["imm"] = _parse_imm(mm[1], lineno)
                fields[kind[4:-1]] = _parse_reg(mm[2], lineno)
        if bounds:
            fields["create_range"] = tuple(bounds)
        instrs.append(Instruction(op, **fields))

    for idx, lname, lineno in fixups:
        if lname not in labels:
            raise AsmError(f"undefined label '{lname}'", lineno)
        if labels[lname] >= len(instrs):
            raise AsmError(f"label '{lname}' addresses no instruction", lineno)
        instrs[idx] = replace(instrs[idx], imm=labels[lname])

    starts = list(entries.items())
    ends = [start for _, start in starts[1:]] + [len(instrs)]
    spans = {bname: (start, end) for (bname, start), end in zip(starts, ends)}
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
        if ins.opcode is Opcode.CREATE:
            if ins.entry not in program.entries:
                diags.append(f"unknown entry '{ins.entry}'")
            if ins.create_range[2] == 0:
                diags.append(f"create of '{ins.entry}' has a zero index step")
    for bname, (start, end) in program.body_spans.items():
        if (start == end or program.instructions[end - 1].opcode
                not in (Opcode.HALT, Opcode.JMP)):
            diags.append(f"thread body '{bname}' does not terminate")
    return diags


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
