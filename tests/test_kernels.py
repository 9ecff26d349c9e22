import pytest

from hmtsim.isa import validate
from hmtsim.kernels import (
    OUT_BASE,
    X_BASE,
    corpus,
    kernel_chain,
    kernel_heterogeneous,
    kernel_loaduse,
    kernel_regular,
    kernel_starvation,
)
from hmtsim.oracle import sequential_oracle
from hmtsim.sim import ChipConfig, Outcome, run


def word(mem, addr):
    return int.from_bytes(mem[addr:addr + 4], "little", signed=True)


def test_all_corpus_programs_validate():
    for spec in corpus():
        assert validate(spec.program) == [], spec.name


def test_regular_closed_form():
    # x[i] = i with unit scale, so out = [1, 3, 5, 7]
    spec = kernel_regular(n=4, a=2, b=1, x_scale=1, x_offset=0)
    img = spec.expected_image()
    assert [word(img, OUT_BASE + 4 * i) for i in range(4)] == [1, 3, 5, 7]
    assert [word(img, X_BASE + 4 * i) for i in range(4)] == [0, 1, 2, 3]


def test_regular_empty_family():
    spec = kernel_regular(n=0)
    img = spec.expected_image()
    assert all(b == 0 for b in img)
    res = run(ChipConfig(p=2), spec.program)
    assert res.outcome is Outcome.COMPLETED
    assert res.metrics.stores == 0


def test_regular_expected_matches_sim_image():
    spec = kernel_regular(n=48)
    res = run(ChipConfig(p=4), spec.program)
    assert res.final_memory == spec.expected_image()


def test_regular_refuses_input_reaching_output():
    room = OUT_BASE - X_BASE
    spec = kernel_regular(n=room // 4)
    assert spec.params["n"] == 3072
    assert validate(spec.program) == []
    with pytest.raises(ValueError, match=r"reaches out\[\]"):
        kernel_regular(n=room // 4 + 1)


def test_loaduse_refuses_input_reaching_output():
    # 16 bytes per (thread, iteration)
    room = OUT_BASE - X_BASE
    spec = kernel_loaduse(threads=room // (16 * 8), iters=8)
    assert spec.params["threads"] * 8 * 16 == room
    assert validate(spec.program) == []
    with pytest.raises(ValueError, match=r"reaches out\[\]"):
        kernel_loaduse(threads=room // (16 * 8), iters=9)
    with pytest.raises(ValueError, match=r"reaches out\[\]"):
        kernel_loaduse(threads=room // (16 * 8) + 1, iters=8)


# each size parameter at the least value that builds a program which runs to
# completion
LEAST_SIZES = [(kernel_regular, "n", 0), (kernel_heterogeneous, "n", 0),
               (kernel_heterogeneous, "scale", 0), (kernel_chain, "n", 0),
               (kernel_loaduse, "threads", 0), (kernel_loaduse, "iters", 1),
               (kernel_loaduse, "fillers", 0)]


@pytest.mark.parametrize("make, name, least", LEAST_SIZES,
                         ids=[f"{make.__name__}-{name}"
                              for make, name, _ in LEAST_SIZES])
def test_generator_refuses_a_size_below_its_least(make, name, least):
    spec = make(**{name: least})
    res = run(ChipConfig(p=2), spec.program)
    assert res.outcome is Outcome.COMPLETED
    assert res.final_memory == spec.expected_image()
    with pytest.raises(ValueError, match=f"^{spec.name}: {name} must be "
                                         f">= {least}, got {least - 1}$"):
        make(**{name: least - 1})


def test_chain_closed_form():
    spec = kernel_chain(n=4)
    img = spec.expected_image()
    # prefix sums per slot, total just past them
    assert [word(img, OUT_BASE + 4 * i) for i in range(4)] == [0, 1, 3, 6]
    assert word(img, OUT_BASE + 16) == 6
    assert word(spec.expected_image(), OUT_BASE) == 0


def test_chain_single_thread_outputs_zero():
    spec = kernel_chain(n=1)
    img = spec.expected_image()
    assert word(img, OUT_BASE) == 0
    assert word(img, OUT_BASE + 4) == 0   # the tail total


def test_heterogeneous_stores_indices():
    spec = kernel_heterogeneous(n=8, scale=4)
    img = spec.expected_image()
    assert [word(img, OUT_BASE + 4 * i) for i in range(8)] == list(range(8))


def test_loaduse_accumulates_doubled_values():
    spec = kernel_loaduse(threads=2, iters=3)
    img = spec.expected_image()
    # thread t sums 2 * x[j] over its own stride-4 window of x[j] = 3j + 5
    words_per_iter = 4
    for t in range(2):
        expect = sum(2 * (3 * j + 5)
                     for j in range(t * 3 * words_per_iter,
                                    (t + 1) * 3 * words_per_iter,
                                    words_per_iter))
        assert word(img, OUT_BASE + 4 * t) == expect


def test_starvation_single_core_trivially_completes():
    spec = kernel_starvation(1)
    res = run(ChipConfig(p=1), spec.program)
    assert res.outcome is Outcome.COMPLETED
    assert word(res.final_memory, OUT_BASE) == 1


@pytest.mark.parametrize("p", [0, -3])
@pytest.mark.parametrize("satisfiable", [False, True])
def test_starvation_refuses_fewer_than_one_core(p, satisfiable):
    with pytest.raises(ValueError, match="core count must be >= 1"):
        kernel_starvation(p, satisfiable=satisfiable)


def test_starvation_probe_scales_with_cores():
    for p in (2, 4):
        spec = kernel_starvation(p)
        res = run(ChipConfig(p=p, starvation_window=400, starvation_check=32,
                             watchdog_cycles=200_000), spec.program)
        assert res.outcome is Outcome.DEADLOCK_STARVATION, p


@pytest.mark.parametrize("lines", [1, 2, 3])
def test_corpus_completes_with_a_tiny_icache(lines):
    # fetch-ahead is capped at i_lines - 1, so its fills never evict the
    # demand line they arrive with
    for spec in corpus():
        res = run(ChipConfig(p=2, i_lines=lines, d_lines=lines,
                             watchdog_cycles=200_000), spec.program)
        assert res.outcome is Outcome.COMPLETED, (spec.name, lines)
        assert res.final_memory == spec.expected_image(), (spec.name, lines)


@pytest.mark.parametrize("lines, cycles, i_misses", [
    (1, 9604, 1255), (2, 7029, 1041), (3, 4444, 941)], ids=["1", "2", "3"])
def test_one_line_icache_run_pinned(lines, cycles, i_misses):
    # with two or three I-lines the LRU victim of each install decides what
    # misses next, so these pin the recency order of the I-tags as well
    res = run(ChipConfig(p=2, i_lines=lines, d_lines=lines),
              kernel_regular().program)
    assert res.outcome is Outcome.COMPLETED
    assert (res.metrics.cycles, res.metrics.i_misses) == (cycles, i_misses)


def test_every_spec_expected_is_oracle_output():
    for spec in corpus():
        assert spec.expected_image() == sequential_oracle(spec.program).final_memory
