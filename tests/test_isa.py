from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from hmtsim import isa
from hmtsim.isa import (
    ASSEMBLED_KEPT,
    LONG_LATENCY_PRODUCERS,
    AsmError,
    Opcode,
    annotate_hints,
    assemble,
    reach,
    validate,
)
from hmtsim.kernels import GENERATORS, kernel_starvation


def asm(body):
    return assemble(".body main\n" + body)


def test_assemble_add():
    p = asm("add r1, r2, r3\nhalt")
    ins = p.instructions[0]
    assert ins.opcode is Opcode.ADD
    assert (ins.dst, ins.src1, ins.src2) == (1, 2, 3)
    assert ins.switch_hint is False


def test_assemble_load_use_pair():
    p = asm("ld r1, 0(r4)\nadd r2, r1, r1\nhalt")
    ld, add = p.instructions[0], p.instructions[1]
    assert ld.opcode is Opcode.LD and ld.dst == 1 and ld.src1 == 4 and ld.imm == 0
    assert add.opcode is Opcode.ADD
    assert not ld.switch_hint and not add.switch_hint


def test_assemble_undefined_label():
    with pytest.raises(AsmError, match="undefined label 'missing_label'"):
        asm("beq r1, r0, missing_label\nhalt")


def test_assemble_register_range():
    with pytest.raises(AsmError, match="out of 0..31"):
        asm("add r32, r0, r0\nhalt")


def test_assemble_reports_line_numbers():
    with pytest.raises(AsmError, match="line 3"):
        assemble(".body main\nadd r1, r2, r3\nbogus r1\nhalt")


def test_body_after_label_of_same_name_is_duplicate():
    with pytest.raises(AsmError) as exc:
        assemble(".body main\nfoo: addi r1, r0, 1\njmp foo\n.body foo\nhalt")
    assert str(exc.value) == "line 4: duplicate label 'foo'"
    with pytest.raises(AsmError) as exc:
        assemble(".body main\nhalt\n.body foo\nfoo: halt")
    assert str(exc.value) == "line 4: duplicate label 'foo'"
    with pytest.raises(AsmError) as exc:
        assemble(".body main\nhalt\n.body main\nhalt")
    assert str(exc.value) == "line 3: duplicate body 'main'"


def test_assemble_labels_and_hex():
    p = asm("start:\naddi r1, r0, 0x10\nbne r1, r0, start\nhalt")
    assert p.labels["start"] == 0
    assert p.instructions[0].imm == 16
    assert p.instructions[1].imm == 0  # resolved branch target


def test_assemble_create_and_channels():
    p = assemble(
        """
        .body main
        allocate r1, 2
        create r2, r1, work, 0, 8, 1, r3
        sync r4, r2
        putsh r5, r2
        getsh r6, r2
        release r1
        halt
        .body work
        getidx r1
        getsh r2
        putsh r2
        halt
        """
    )
    cr = p.instructions[1]
    assert cr.opcode is Opcode.CREATE
    assert cr.entry == "work" and cr.create_range == (0, 8, 1) and cr.src2 == 3
    assert p.entries == {"main": 0, "work": 7}
    assert validate(p) == []
    # only a plain getsh reads the channel cell; a tail getsh reads a register
    assert [ins.reads_channel for ins in p.instructions] == [
        False, False, False, False, False, False, False,
        False, True, False, False]


# each opcode's assembly forms: whether each acts outside its core (a memory
# access, a TMU request or a halt), the fields it fills as (dst, src1, src2,
# imm, entry, create_range) and the registers it reads; a new opcode needs an
# entry here. Every form follows ".body main", so the label main is 0.
FORMS = {
    Opcode.ADD: [("add r1, r2, r3", False, (1, 2, 3, None, None, None), (2, 3))],
    Opcode.SUB: [("sub r1, r2, r3", False, (1, 2, 3, None, None, None), (2, 3))],
    Opcode.MUL: [("mul r1, r2, r3", False, (1, 2, 3, None, None, None), (2, 3))],
    Opcode.ADDI: [("addi r1, r2, 5", False, (1, 2, None, 5, None, None), (2,))],
    Opcode.LD: [("ld r1, 4(r2)", True, (1, 2, None, 4, None, None), (2,))],
    Opcode.ST: [("st r1, 4(r2)", True, (None, 1, 2, 4, None, None), (1, 2))],
    Opcode.BEQ: [("beq r1, r2, main", False, (None, 1, 2, 0, None, None),
                  (1, 2))],
    Opcode.BNE: [("bne r1, r2, main", False, (None, 1, 2, 0, None, None),
                  (1, 2))],
    Opcode.JMP: [("jmp main", False, (None, None, None, 0, None, None), ())],
    Opcode.HALT: [("halt", True, (None, None, None, None, None, None), ())],
    Opcode.ALLOCATE: [
        ("allocate r1, 2", True, (1, None, None, 2, None, None), ()),
        ("allocate r1, 0, r3", True, (1, 3, None, 0, None, None), (3,))],
    Opcode.CREATE: [
        ("create r2, r1, main, 0, 4, 1", True,
         (2, 1, None, None, "main", (0, 4, 1)), (1,)),
        ("create r2, r1, main, -2, 0x10, 3, r3", True,
         (2, 1, 3, None, "main", (-2, 16, 3)), (1, 3))],
    Opcode.SYNC: [("sync r4, r2", True, (4, 2, None, None, None, None), (2,))],
    Opcode.RELEASE: [("release r1", True, (None, 1, None, None, None, None),
                      (1,))],
    Opcode.GETIDX: [("getidx r1", False, (1, None, None, None, None, None),
                     ())],
    Opcode.PUTSH: [
        ("putsh r1", True, (None, 1, None, None, None, None), (1,)),
        ("putsh r1, r2", True, (None, 1, 2, None, None, None), (1, 2))],
    Opcode.GETSH: [
        ("getsh r1", False, (1, None, None, None, None, None), ()),
        ("getsh r1, r2", True, (1, 2, None, None, None, None), (2,))],
}


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name.lower())
def test_acts_outside_for_every_opcode(op):
    for line, outside, _, _ in FORMS[op]:
        ins = asm(line + "\nhalt").instructions[0]
        assert ins.opcode is op
        assert ins.acts_outside is outside, line


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name.lower())
def test_operand_fields_for_every_opcode(op):
    for line, _, fields, reads in FORMS[op]:
        ins = asm(line + "\nhalt").instructions[0]
        assert ins.opcode is op and ins.mnemonic == line.split()[0]
        assert (ins.dst, ins.src1, ins.src2, ins.imm, ins.entry,
                ins.create_range) == fields, line
        assert ins.regs_read() == reads, line


# each line follows ".body main", so it is line 2
@pytest.mark.parametrize("line, message", [
    ("add r1, r2", "add takes 3 operand(s), got 2"),
    ("sub r1", "sub takes 3 operand(s), got 1"),
    ("mul r1, r2, r3, r4", "mul takes 3 operand(s), got 4"),
    ("addi r1, r0", "addi takes 3 operand(s), got 2"),
    ("ld r1", "ld takes 2 operand(s), got 1"),
    ("st r1, 0(r2), r3", "st takes 2 operand(s), got 3"),
    ("beq r1, r2", "beq takes 3 operand(s), got 2"),
    ("bne r1, r2, main, main", "bne takes 3 operand(s), got 4"),
    ("jmp", "jmp takes 1 operand(s), got 0"),
    ("halt r1", "halt takes 0 operand(s), got 1"),
    ("allocate r1", "allocate takes 2 or 3 operands"),
    ("allocate r1, 2, r3, r4", "allocate takes 2 or 3 operands"),
    ("create r2, r1, main, 0, 4", "create takes 6 or 7 operands"),
    ("create r2, r1, main, 0, 4, 1, r3, r4", "create takes 6 or 7 operands"),
    ("sync r4", "sync takes 2 operand(s), got 1"),
    ("release", "release takes 1 operand(s), got 0"),
    ("getidx r1, r2", "getidx takes 1 operand(s), got 2"),
    ("getsh", "getsh takes 1 or 2 operands"),
    ("getsh r1, r2, r3", "getsh takes 1 or 2 operands"),
    ("putsh", "putsh takes 1 or 2 operands"),
    ("putsh r1, r2, r3", "putsh takes 1 or 2 operands"),
    ("ld r1, 4[r2]", "expected imm(rN) memory operand, got '4[r2]'"),
    ("st r1, r2", "expected imm(rN) memory operand, got 'r2'"),
    ("ld r1, 0b1(r2)", "expected imm(rN) memory operand, got '0b1(r2)'"),
    ("ld r1, 4(r40)", "register index out of 0..31: r40"),
    ("ld r1, 007(r2)", "expected immediate, got '007'"),
    ("addi r1, r0, 007", "expected immediate, got '007'"),
    ("addi r1, r0, five", "expected immediate, got 'five'"),
    ("add r1, r2, 3", "expected register, got '3'"),
    ("create r2, r1, 9main, 0, 4, 1", "expected entry name, got '9main'"),
    ("create r2, r1, main-2, 0, 4, 1", "expected entry name, got 'main-2'"),
    ("bogus r1", "unknown mnemonic 'bogus'"),
    ("nop", "unknown mnemonic 'nop'"),
    # one immediate grammar, ASCII only, for standalone and offset immediates
    ("addi r1, r0, 0b101", "expected immediate, got '0b101'"),
    ("addi r1, r0, 0o17", "expected immediate, got '0o17'"),
    ("addi r1, r0, +5", "expected immediate, got '+5'"),
    ("addi r1, r0, 1_000", "expected immediate, got '1_000'"),
    ("addi r1, r0, \u0661\u0660", "expected immediate, got '\u0661\u0660'"),
    ("allocate r1, 0b1", "expected immediate, got '0b1'"),
    ("create r2, r1, main, 0, 1_0, 1", "expected immediate, got '1_0'"),
    ("ld r1, 0(r\u0663)", "expected imm(rN) memory operand, got '0(r\u0663)'"),
    ("ld r1, \u0661(r3)", "expected imm(rN) memory operand, got '\u0661(r3)'"),
    ("add r\u0661, r2, r3", "expected register, got 'r\u0661'"),
    ("create r2, r1, ma\u00efn, 0, 4, 1", "expected entry name, got 'ma\u00efn'"),
    (".bodyx work", "unknown mnemonic '.bodyx'"),
])
def test_assemble_error_messages(line, message):
    with pytest.raises(AsmError) as exc:
        asm(line + "\nhalt")
    assert str(exc.value) == f"line 2: {message}"


def test_validate_missing_halt():
    p = assemble(".body main\nhalt\n.body f\nadd r1, r1, r1")
    assert validate(p) == ["thread body 'f' does not terminate"]


def test_validate_unknown_entry():
    p = asm("allocate r1, 1\ncreate r2, r1, g, 0, 1, 1\nhalt")
    assert validate(p) == ["unknown entry 'g'"]


def test_validate_zero_index_step():
    p = assemble(".body main\nallocate r1, 0\ncreate r2, r1, w, 0, 3, 0\nhalt\n"
                 ".body w\nhalt")
    assert validate(p) == ["create of 'w' has a zero index step"]


def test_hint_load_use():
    p = annotate_hints(asm("ld r1, 0(r4)\nadd r2, r1, r1\nhalt"))
    assert p.instructions[1].switch_hint is True


def test_hint_independent_add():
    p = annotate_hints(asm("ld r1, 0(r4)\nadd r2, r3, r4\nhalt"))
    assert p.instructions[1].switch_hint is False


def test_hint_redefinition_in_block():
    # the store consumes the first load's r1; the add consumes the second one
    p = annotate_hints(
        asm("ld r1, 0(r4)\nst r1, 0(r5)\nld r1, 4(r4)\nadd r2, r1, r1\nhalt")
    )
    hints = [i.switch_hint for i in p.instructions]
    assert hints == [False, True, False, True, False]


def test_hint_cleared_by_short_producer():
    p = annotate_hints(
        asm("ld r1, 0(r4)\naddi r1, r0, 7\nadd r2, r1, r1\nhalt")
    )
    assert p.instructions[2].switch_hint is False


def test_hint_stops_at_block_boundary():
    p = annotate_hints(
        asm("ld r1, 0(r4)\njmp next\nnext:\nadd r2, r1, r1\nhalt")
    )
    assert p.instructions[2].switch_hint is False


def test_hint_idempotent_and_preserving():
    src = """
    .body main
    ld r1, 0(r4)
    add r2, r1, r1
    allocate r3, 1
    beq r3, r0, main
    halt
    """
    p = assemble(src)
    once = annotate_hints(p)
    twice = annotate_hints(once)
    assert once.instructions == twice.instructions
    stripped = [
        (i.opcode, i.dst, i.src1, i.src2, i.imm) for i in once.instructions
    ]
    original = [(i.opcode, i.dst, i.src1, i.src2, i.imm) for i in p.instructions]
    assert stripped == original and len(once) == len(p)


def scan_hints_oracle(program):
    """O(n^2) dependence scan per basic block, independent of annotate_hints."""
    from hmtsim.isa import _block_boundaries

    leaders = sorted(_block_boundaries(program) | {0, len(program)})
    hinted = set()
    for bi in range(len(leaders) - 1):
        lo, hi = leaders[bi], leaders[bi + 1]
        for i in range(lo, hi):
            ins = program.instructions[i]
            for r in ins.regs_read():
                if r == 0:
                    continue
                # latest earlier writer of r inside the block
                writer = None
                for j in range(lo, i):
                    if program.instructions[j].dst == r:
                        writer = program.instructions[j]
                if writer is not None and writer.opcode in LONG_LATENCY_PRODUCERS:
                    hinted.add(i)
    return hinted


_OPS = st.sampled_from(
    ["add", "addi", "ld", "st", "beq", "getidx", "allocate", "sync", "getsh"]
)


@st.composite
def random_program(draw):
    lines = [".body main"]
    n = draw(st.integers(1, 25))
    for k in range(n):
        op = draw(_OPS)
        r = lambda: draw(st.integers(0, 5))
        if op == "add":
            lines.append(f"add r{r()}, r{r()}, r{r()}")
        elif op == "addi":
            lines.append(f"addi r{r()}, r{r()}, {draw(st.integers(-9, 9))}")
        elif op == "ld":
            lines.append(f"ld r{r()}, 0(r{r()})")
        elif op == "st":
            lines.append(f"st r{r()}, 0(r{r()})")
        elif op == "beq":
            lines.append(f"beq r{r()}, r{r()}, main")
        elif op == "getidx":
            lines.append(f"getidx r{r()}")
        elif op == "allocate":
            lines.append(f"allocate r{r()}, 1")
        elif op == "sync":
            lines.append(f"sync r{r()}, r{r()}")
        elif op == "getsh":
            lines.append(f"getsh r{r()}")
    lines.append("halt")
    return assemble("\n".join(lines))


@given(random_program())
def test_hint_set_matches_quadratic_scan(program):
    annotated = annotate_hints(program)
    got = {i for i, ins in enumerate(annotated.instructions) if ins.switch_hint}
    assert got == scan_hints_oracle(program)


@given(random_program())
def test_annotate_never_reorders(program):
    annotated = annotate_hints(program)
    assert len(annotated) == len(program)
    for a, b in zip(annotated.instructions, program.instructions):
        assert (a.opcode, a.dst, a.src1, a.src2, a.imm) == (
            b.opcode, b.dst, b.src1, b.src2, b.imm)


def test_assemble_returns_the_kept_program_for_the_same_arguments():
    source = ".body main\n  addi r1, r0, 7\n  halt\n"
    program = assemble(source, "kept")
    assert assemble(source, "kept") is program
    assert assemble(source, name="kept") is program
    other = assemble(source, "other")
    assert other is not program and other.name == "other"
    assert other.instructions == program.instructions


def test_assemble_error_is_raised_on_every_call():
    source = ".body main\n  jmp nowhere\n"
    misses = isa._assemble.cache_info().misses
    for _ in range(2):
        with pytest.raises(AsmError, match="undefined label 'nowhere'"):
            assemble(source)
    # both calls ran the assembler: the error was not kept
    assert isa._assemble.cache_info().misses == misses + 2


def test_assemble_memo_is_bounded():
    source = ".body main\n  halt\n"
    first = assemble(source, "first")
    for i in range(ASSEMBLED_KEPT):
        assemble(f".body main\n  addi r1, r0, {i}\n  halt\n", "filler")
    assert isa._assemble.cache_info().maxsize == ASSEMBLED_KEPT
    assert isa._assemble.cache_info().currsize == ASSEMBLED_KEPT
    # the least recently used program was let go, and is built anew
    again = assemble(source, "first")
    assert again is not first and again == first


CORPUS_SPECS = [gen() for gen in GENERATORS.values()] + \
    [kernel_starvation(2, satisfiable=True)]


@pytest.mark.parametrize("spec", CORPUS_SPECS, ids=lambda s: s.name)
def test_program_analyses_equal_the_functions(spec):
    program = spec.program
    copy = replace(program)        # a new Program: no analyses kept yet
    assert program.diagnostics == tuple(validate(copy))
    assert program.hinted == annotate_hints(copy)
    assert program.reach == reach(copy.instructions)
    assert program.hinted.reach == reach(annotate_hints(copy).instructions)
    # computed once: the same objects on every later read
    assert program.hinted is program.hinted
    assert program.reach is program.reach
