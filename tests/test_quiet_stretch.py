"""The quiet stretch (core.py) against the generic pipeline: random quiet
code run both ways, and the copies of quiet execute and the two fetch walks
compared node for node.
"""

import ast
import inspect
from collections import Counter

from hypothesis import given, settings, strategies as st

from differential import check
from hmtsim import core
from hmtsim.core import DONE, Core
from hmtsim.isa import assemble
from hmtsim.sim import ChipConfig, Outcome

# operands and immediates: each end of the signed 32-bit range, next to it,
# and the values whose sums and products cross it
EXTREMES = [0, 1, -1, 2, 0x7FFFFFFF, -0x80000000, 0x7FFFFFFE, -0x7FFFFFFF,
            0x10000, 0x8000, -0x8001]
OUT = 0x4000                # thread i stores r1..r31 from OUT + 128 * i
WORK = range(2, 21)         # registers the ALU operations write
READ = range(0, 21)         # and read; r21.. count the loops


@st.composite
def alu_ops(draw, max_size=6):
    ops = []
    for _ in range(draw(st.integers(0, max_size))):
        op = draw(st.sampled_from(["add", "sub", "mul", "addi"]))
        dst = draw(st.sampled_from(WORK))
        a = draw(st.sampled_from(READ))
        if op == "addi":
            b = draw(st.sampled_from(EXTREMES))
            ops.append(f"  addi r{dst}, r{a}, {b}")
        else:
            b = draw(st.sampled_from(READ))
            ops.append(f"  {op} r{dst}, r{a}, r{b}")
    return ops


@st.composite
def quiet_programs(draw):
    """A main that creates 1 to 4 threads of a worker over every core and
    syncs them. The worker sets r2..r9 from EXTREMES, then runs blocks of
    add, sub, mul and addi, some of them as counted loops closed by a bne,
    or by a beq out and a beq back, and stores r1..r31, then halts."""
    threads = draw(st.integers(1, 4))
    lines = ["  getidx r1"]
    for reg in range(2, 10):
        lines.append(f"  addi r{reg}, r0, {draw(st.sampled_from(EXTREMES))}")
    for block in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["straight", "bne", "beq"]))
        body = draw(alu_ops(max_size=8 if kind == "straight" else 5))
        if kind == "straight":
            lines += body
            continue
        counter = 21 + block
        lines.append(f"  addi r{counter}, r0, {draw(st.integers(1, 6))}")
        lines.append(f"loop{block}:")
        lines += body
        lines.append(f"  addi r{counter}, r{counter}, -1")
        if kind == "bne":
            lines.append(f"  bne r{counter}, r0, loop{block}")
        else:
            lines.append(f"  beq r{counter}, r0, done{block}")
            lines.append(f"  beq r0, r0, loop{block}")
            lines.append(f"done{block}:")
    lines += ["  addi r30, r0, 128", "  mul r30, r1, r30",
              f"  addi r30, r30, {OUT}"]
    lines += [f"  st r{reg}, {4 * reg}(r30)" for reg in range(1, 32)]
    lines.append("  halt")
    return f""".body main
  allocate r1, 0
  create r2, r1, qwork, 0, {threads}, 1
  sync r3, r2
  add r0, r3, r0
  release r1
  halt
.body qwork
""" + "\n".join(lines)


def test_quiet_code_runs_alike_in_stretches_and_in_the_pipeline(monkeypatch):
    # a traced run retires every commit, so it never takes a stretch: each
    # program, at p = 1 and 2, goes through every second route
    # (differential.check), its untraced runs against its traced ones and
    # its image against the oracle's
    seen = Counter()
    execute_in_flight = Core._execute_in_flight

    def record(core_, latches, cycle):
        seen["stretches"] += 1
        for inf in latches:
            if inf is not None and inf[1] is not DONE:
                seen["branch" if inf[1].is_branch else "alu"] += 1
        return execute_in_flight(core_, latches, cycle)

    monkeypatch.setattr(Core, "_execute_in_flight", record)

    @settings(max_examples=40, deadline=None)
    @given(quiet_programs())
    def runs_alike(src):
        for p in (1, 2):
            assert check(ChipConfig(p=p), assemble(src)).outcome \
                is Outcome.COMPLETED

    runs_alike()
    # the untraced runs took stretches, and some started with ALU
    # operations and branches in flight that had yet to execute
    assert seen["stretches"] > 40
    assert seen["alu"] > 0 and seen["branch"] > 0


# -- the copies of quiet execute ----------------------------------------------

def quiet_execute_copies():
    """Each `if op < _LD:` chain in core.py, the start of a copy of quiet
    execute, as (ALU arm, bne arm, beq arm, fetch blocks): the arms as
    `ast.dump` strings with each `ctx.fetch_blocked = ...` value replaced by
    a placeholder, and the ALU arm without the pc advance that the
    stretch's copy makes at fetch; the fetch blocks are the replaced
    values, as source."""
    tree = ast.parse(inspect.getsource(core))
    copies = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.If)
                and ast.unparse(node.test) == "op < _LD"):
            continue
        blocks = []

        def arm(stmts, alu=False):
            out = []
            for stmt in stmts:
                target = ast.unparse(stmt.targets[0]) \
                    if isinstance(stmt, ast.Assign) else None
                if target == "ctx.fetch_blocked":
                    blocks.append(ast.unparse(stmt.value))
                    stmt = ast.Assign([stmt.targets[0]],
                                      ast.Name("BLOCK", ast.Load()))
                elif alu and ast.unparse(stmt) == "ctx.pc = pc + 1":
                    continue
                out.append(ast.dump(stmt))
            return out

        alu = arm(node.body, alu=True)
        bne_if, = node.orelse
        assert ast.unparse(bne_if.test) == "op == _BNE"
        bne = arm(bne_if.body)
        rest = bne_if.orelse
        if isinstance(rest[0], ast.If):     # the generic loop: elif beq
            assert ast.unparse(rest[0].test) == "op == _BEQ"
            rest = rest[0].body
        beq = arm(rest)
        copies.append((alu, bne, beq, blocks))
    return copies


def test_quiet_execute_copies_match():
    # the generic execute stage, the stretch's execute at fetch and the
    # start of a stretch run one ALU result chain, one 32-bit wrap behind
    # _set_reg's FULL guard, and one branch target expression, node for
    # node; they differ only in how each sets the fetch block
    copies = quiet_execute_copies()
    assert len(copies) == 3
    first, *others = copies
    for alu, bne, beq, _ in others:
        assert (alu, bne, beq) == first[:3]
    assert any("_set_reg" in stmt for stmt in first[0])
    # generic execute unblocks at once, the stretch's fetch four cycles on,
    # the start of a stretch at each instruction's own execute cycle
    assert sorted(blocks for *_, blocks in copies) == [
        ["0", "0"], ["cycle", "cycle"], ["cycle + 4", "cycle + 4"]]


# -- the two fetch walks ------------------------------------------------------

def fetch_walks():
    """Each fetch's walk of the schedule queue in core.py, from `for ctx in
    queue:` through its I-line residency test, as `ast.dump` strings, by
    kind: the generic fetch's with its resume branch unwrapped and its block
    test (`ctx.fetch_blocked and ctx.fetch_blocked > cycle`) cut to its
    comparison, which the stretch's fetch makes alone."""
    tree = ast.parse(inspect.getsource(core))
    walks = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.For)
                and ast.unparse(node.target) == "ctx"
                and ast.unparse(node.iter) == "queue"
                and "line = line_of[pc]" in ast.unparse(node)):
            continue
        body = node.body
        kind = "stretch"
        if ast.unparse(body[0]) == "f = ctx.resume":
            kind = "generic"
            # the generic fetch: a resume, else the walk
            resumes, = body[1:2]
            assert ast.unparse(resumes.test) == "f is None"
            body = resumes.body
            blocked = body[0].test
            assert ast.unparse(blocked) == \
                "ctx.fetch_blocked and ctx.fetch_blocked > cycle"
            body = [ast.If(blocked.values[1], body[0].body, body[0].orelse),
                    *body[1:]]
        out = [node.target, node.iter]
        for stmt in body:
            out.append(stmt)
            if isinstance(stmt, ast.If) \
                    and ast.unparse(stmt.test) == "line != fetched_line":
                break
        else:
            raise AssertionError("no I-line residency test in a fetch walk")
        assert kind not in walks
        walks[kind] = [ast.dump(x) for x in out]
    return walks


def test_fetch_walks_match():
    # the generic fetch and the stretch's fetch pick a thread alike: the
    # same skip of a fetch-blocked thread, the same I-line probe, memo
    # read and recency touch, and the same skip of a thread whose line is
    # not resident, node for node
    walks = fetch_walks()
    assert sorted(walks) == ["generic", "stretch"]
    assert walks["generic"] == walks["stretch"]
    assert any("icache_probe" in stmt for stmt in walks["generic"])
