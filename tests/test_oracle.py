import pytest

from hmtsim.isa import assemble
from hmtsim.oracle import OracleDeadlock, sequential_oracle
from hmtsim.sim import ChipConfig, run


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
