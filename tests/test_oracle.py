import pytest

from hmtsim.isa import assemble
from hmtsim.oracle import OracleDeadlock, OracleFault, sequential_oracle
from hmtsim.sim import ChipConfig, Outcome, run

from differential import check
from test_sim import DEEP_NEST


def word(mem, addr):
    return int.from_bytes(mem[addr:addr + 4], "little", signed=True)


def test_single_thread_plain_interpreter():
    src = """
    .body main
      addi r1, r0, -3
      addi r2, r0, 5
      mul r3, r1, r2
      addi r4, r0, 0x100
      st r3, 0(r4)
      ld r5, 0(r4)
      sub r6, r0, r5
      st r6, 4(r4)
      halt
    """
    res = sequential_oracle(assemble(src))
    assert word(res.final_memory, 0x100) == -15
    assert word(res.final_memory, 0x104) == 15
    assert res.loads == 1 and res.stores == 2


def test_family_ascending_index_order():
    src = """
    .body main
      allocate r1, 0
      create r2, r1, w, 0, 4, 1
      sync r3, r2
      release r1
      halt
    .body w
      getidx r1
      addi r2, r0, 4
      mul r3, r1, r2
      addi r4, r0, 0x200
      add r4, r4, r3
      st r1, 0(r4)
      halt
    """
    res = sequential_oracle(assemble(src))
    assert [word(res.final_memory, 0x200 + 4 * i) for i in range(4)] == [0, 1, 2, 3]
    # per-thread traces exist for the root and each child
    assert (1, 0) in res.traces
    assert all((2, i) in res.traces for i in range(4))


def test_chain_prefix_sums():
    src = """
    .body main
      allocate r1, 0
      addi r9, r0, 0
      create r2, r1, w, 0, 4, 1, r9
      getsh r4, r2
      sync r3, r2
      addi r5, r0, 0x300
      st r4, 0(r5)
      release r1
      halt
    .body w
      getsh r1
      getidx r2
      add r3, r1, r2
      putsh r3
      halt
    """
    res = sequential_oracle(assemble(src))
    assert word(res.final_memory, 0x300) == 6     # 0+1+2+3


def test_unseeded_channel_deadlocks():
    src = """
    .body main
      allocate r1, 0
      create r2, r1, w, 0, 1, 1
      sync r3, r2
      release r1
      halt
    .body w
      getsh r1
      halt
    """
    with pytest.raises(OracleDeadlock, match="before any producer"):
        sequential_oracle(assemble(src))
    # one frame stack, however deep the families nest: the unseeded leaf of
    # DEEP_NEST is set aside, and the last level's sync of it deadlocks
    for depth in (1200, 5000):
        with pytest.raises(OracleDeadlock, match=f"thread 0 of family "
                           f"{depth + 3} reads its input channel"):
            sequential_oracle(assemble(DEEP_NEST.format(depth=depth)))


def test_unwritten_tail_deadlocks():
    src = """
    .body main
      allocate r1, 0
      addi r9, r0, 0
      create r2, r1, w, 0, 1, 1, r9
      getsh r4, r2
      halt
    .body w
      getsh r1
      halt
    """
    with pytest.raises(OracleDeadlock, match="tail"):
        sequential_oracle(assemble(src))


def test_runaway_loop_hits_step_budget():
    src = ".body main\nloop:\n  jmp loop"
    with pytest.raises(OracleDeadlock, match="budget"):
        sequential_oracle(assemble(src), max_steps=50_000)


def test_nested_families_depth_first():
    # outer thread i creates an inner pair writing to disjoint slots
    src = """
    .body main
      allocate r1, 0
      create r2, r1, outer, 0, 2, 1
      sync r3, r2
      release r1
      halt
    .body outer
      getidx r1
      allocate r4, 1
      addi r5, r0, 10
      mul r6, r1, r5
      create r7, r4, inner, 0, 2, 1
      sync r8, r7
      add r0, r8, r0
      release r4
      halt
    .body inner
      getidx r1
      addi r2, r0, 4
      mul r3, r1, r2
      addi r4, r0, 0x400
      add r4, r4, r3
      ld r5, 0(r4)
      addi r5, r5, 1
      st r5, 0(r4)
      halt
    """
    res = sequential_oracle(assemble(src))
    # both outer threads ran both inner indices: each slot incremented twice
    assert word(res.final_memory, 0x400) == 2
    assert word(res.final_memory, 0x404) == 2


def test_memory_op_counts_match_simulator_single_thread():
    src = """
    .body main
      addi r1, r0, 0x500
      addi r2, r0, 8
    loop:
      st r2, 0(r1)
      ld r3, 0(r1)
      addi r1, r1, 4
      addi r2, r2, -1
      bne r2, r0, loop
      halt
    """
    program = assemble(src)
    oracle = sequential_oracle(program)
    res = run(ChipConfig(p=1), program)
    assert res.metrics.loads == oracle.loads
    assert res.metrics.stores == oracle.stores
    assert res.final_memory == oracle.final_memory


def test_rejects_image_larger_than_memory_as_run_does():
    # the oracle's image keeps its size, as the simulator's memory does
    program = assemble(".body main\nhalt")
    message = "32 bytes exceeds the 16-byte memory"
    with pytest.raises(ValueError, match=message):
        sequential_oracle(program, mem_bytes=16, init_mem=bytes(32))
    with pytest.raises(ValueError, match=message):
        run(ChipConfig(p=1, mem_bytes=16), program, bytes(32))
    assert len(sequential_oracle(program, mem_bytes=16,
                                 init_mem=bytes(16)).final_memory) == 16


# main's body up to its halt, then an empty body w: main creates an empty
# family of w, seeded or not, and feeds its head
EMPTY_FAMILY = ("allocate r1, 0\n  addi r7, r0, 5\n"
                "  create r2, r1, w, 0, 0, 1{seed}\n  {feeds}\n"
                "  sync r4, r2\n  halt\n.body w")


def faults_alike(src, diagnostic, ps):
    """The oracle raises an OracleFault with diagnostic on src, and a run of
    it at each p in ps faults with it."""
    program = assemble(src)
    with pytest.raises(OracleFault) as fault:
        sequential_oracle(program)
    assert str(fault.value) == diagnostic
    for p in ps:
        res = run(ChipConfig(p=p), program)
        assert (res.outcome, res.diagnostic) == (Outcome.FAULT, diagnostic)


@pytest.mark.parametrize("body, diagnostic", [
    ("addi r1, r0, 2\n  ld r2, 0(r1)", "memory fault: unaligned access at 0x2"),
    ("addi r1, r0, -8\n  st r0, 0(r1)",
     "memory fault: address -0x8 out of bounds"),
    ("addi r1, r0, 0xFFFFE\n  ld r2, 2(r1)",
     "memory fault: address 0x100000 out of bounds"),
    ("allocate r1, -1", "allocate with negative size -1"),
    ("addi r2, r0, 99\n  sync r1, r2", "sync on unknown family 99"),
    ("addi r2, r0, 2\n  getsh r1, r2", "getsh on unknown family 2"),
    ("putsh r0, r0", "putsh to unknown family 0"),
    # a head putsh to an empty family writes its tail, which its seed or an
    # earlier putsh has written already
    (EMPTY_FAMILY.format(seed=", r7", feeds="putsh r3, r2"),
     "double write to tail of family 2"),
    (EMPTY_FAMILY.format(seed="", feeds="putsh r3, r2\n  putsh r3, r2"),
     "double write to tail of family 2")],
    ids=["unaligned", "negative-address", "past-the-end", "negative-size",
         "sync", "tail-getsh", "head-putsh", "seeded-empty-family-fed",
         "empty-family-fed-twice"])
def test_model_faults_give_the_simulators_diagnostic(body, diagnostic):
    faults_alike(f".body main\n  {body}\n  halt\n", diagnostic, (1, 2))


def test_sync_on_a_family_still_running_the_thread_faults_on_both_routes():
    # family 1 is main's own: it has been created, so it is no unknown
    # family, but it completes only after the thread that syncs it or reads
    # its tail; so does each ancestor of a worker's family. Here main syncs
    # it or reads its tail, then two workers of family 2, then a worker of
    # family 3, which family 2 created on core 1
    workers = ("  allocate r1, 1{hint}\n  create r2, r1, {body}, 0, {n}, 1\n"
               "  sync r3, r2\n  add r0, r3, r0\n  release r1\n  halt\n")
    for op, role in (("sync", "syncing"), ("getsh", "reading")):
        on_1 = f"  addi r2, r0, 1\n  {op} r1, r2\n  halt\n"
        line = f"{op} on family 1, which is still running the {role} thread"
        faults_alike(".body main\n" + on_1, line, (1, 2))
        faults_alike(".body main\n" + workers.format(hint="", body="w", n=2)
                     + ".body w\n" + on_1, line, (1, 2))
        faults_alike(".body main\n" + workers.format(hint="", body="w", n=1)
                     + ".body w\n  addi r4, r0, 1\n"
                     + workers.format(hint=", r4", body="v", n=1)
                     + ".body v\n" + on_1, line, (2,))


def test_empty_family_fed_through_its_head():
    # main's head putsh writes the tail of an unseeded family of no threads,
    # as the simulator forwards a value past a family's last position
    program = assemble(
        ".body main\n  allocate r1, 0\n  create r2, r1, w, 0, 0, 1\n"
        "  addi r3, r0, 100\n  putsh r3, r2\n  sync r4, r2\n  getsh r5, r2\n"
        "  addi r6, r0, 0x4000\n  st r5, 0(r6)\n  halt\n.body w\n  halt\n")
    for p in (1, 2):
        assert word(check(ChipConfig(p=p), program).final_memory, 0x4000) \
            == 100


def test_deep_nest_that_completes_gives_the_simulators_image():
    # the leaf, seeded with the allocation id 1, stores it at 0x4000
    program = assemble(DEEP_NEST.format(depth=1200).replace(
        "leaf, 0, 1, 1\n", "leaf, 0, 1, 1, r1\n").replace(
        "getsh r5\n", "getsh r5\n  addi r6, r0, 0x4000\n  st r5, 0(r6)\n"))
    image = sequential_oracle(program).final_memory
    assert word(image, 0x4000) == 1
    assert run(ChipConfig(p=1, thread_slots=1210), program).final_memory \
        == image
