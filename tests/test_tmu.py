import random

import pytest
from hypothesis import given, strategies as st

from hmtsim.errors import SimFault
from hmtsim.isa import assemble
from hmtsim.sim import Chip, ChipConfig, _bootstrap_root
from hmtsim.tmu import SpanPool, Tmu, distribute, index_count


def test_distribute_examples():
    assert distribute(8, 4) == [2, 2, 2, 2]
    assert distribute(10, 4) == [3, 3, 2, 2]
    assert distribute(0, 3) == [0, 0, 0]


@given(st.integers(0, 10_000), st.integers(1, 64))
def test_distribute_sum_and_evenness(n, p):
    counts = distribute(n, p)
    assert sum(counts) == n
    assert max(counts) - min(counts) <= 1
    # remainder goes to the lowest-numbered cores
    assert counts == sorted(counts, reverse=True)
    assert counts[: n % p] == [n // p + 1] * (n % p)


@pytest.mark.parametrize("n,p", [(-1, 4), (8, 0)])
def test_distribute_invalid_counts_fault(n, p):
    with pytest.raises(SimFault):
        distribute(n, p)


def count_oracle(start, limit, step):
    n, v = 0, start
    while (v < limit) if step > 0 else (v > limit):
        n += 1
        v += step
    return n


@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-5, 5).filter(lambda s: s != 0))
def test_index_count_matches_enumeration(start, limit, step):
    assert index_count(start, limit, step) == count_oracle(start, limit, step)


def test_index_count_zero_step_faults():
    with pytest.raises(SimFault):
        index_count(0, 4, 0)


def exhaustive_local_spans(held, owner, size):
    """All free spans of the given size containing the owner."""
    p = len(held)
    out = []
    sizes = range(1, p + 1) if size == 0 else [size]
    for k in sizes:
        for s in range(p - k + 1):
            span = list(range(s, s + k))
            if owner in span and not any(held[c] for c in span):
                out.append(tuple(span))
    return out


@given(st.lists(st.booleans(), min_size=1, max_size=10),
       st.integers(0, 9), st.integers(0, 4))
def test_find_local_matches_exhaustive_search(held, owner, size):
    p = len(held)
    owner %= p
    pool = SpanPool(p)
    for c, h in enumerate(held):
        if h:
            pool.hold((c,))
    got = pool.find_local(owner, size)
    legal = exhaustive_local_spans(held, owner, size)
    if not legal:
        assert got is None
    else:
        assert got in legal
        if size > 0:
            # deterministic tie-break: the span with the smallest start
            assert got == min(legal)
        else:
            assert got == max(legal, key=len)


def test_find_local_all_free_prefers_lowest_start():
    pool = SpanPool(8)
    assert pool.find_local(2, 4) == (0, 1, 2, 3)
    assert pool.find_local(2, 1) == (2,)


def test_find_remote_starts_exactly_at_anchor():
    pool = SpanPool(8)
    assert pool.find_remote(3, 2) == (3, 4)
    pool.hold((4,))
    assert pool.find_remote(3, 2) is None
    assert pool.find_remote(3, 1) == (3,)
    assert pool.find_remote(3, 0) == (3,)


def test_pool_denies_when_everything_held():
    pool = SpanPool(2)
    pool.hold((0, 1))
    assert pool.find_local(0, 1) is None
    assert pool.find_remote(1, 1) is None
    assert pool.find_local(0, 0) is None


def test_hold_of_held_core_faults():
    pool = SpanPool(4)
    pool.hold((1, 2))
    with pytest.raises(SimFault):
        pool.hold((2, 3))


def test_randomized_hold_release_matches_set_oracle():
    rng = random.Random(1234)
    pool = SpanPool(8)
    oracle = {}      # aid -> span
    next_aid = 1
    for _ in range(500):
        if oracle and rng.random() < 0.45:
            aid = rng.choice(sorted(oracle))
            pool.release(aid)
            del oracle[aid]
        else:
            owner = rng.randrange(8)
            size = rng.randrange(0, 4)
            span = pool.find_local(owner, size)
            held = {c for s in oracle.values() for c in s}
            if span is not None:
                assert not held & set(span)
                assert pool.hold(span) == next_aid
                oracle[next_aid] = span
                next_aid += 1
            else:
                legal = exhaustive_local_spans(
                    [c in held for c in range(8)], owner, size)
                assert not legal
        assert pool.spans == oracle


def core_of_position(ranges, pos):
    """Reference: scan a family's per-core [lo, hi) position ranges for the
    core that runs pos."""
    for core, (lo, hi) in ranges.items():
        if lo <= pos < hi:
            return core
    raise AssertionError(f"position {pos} outside every range")


@given(st.integers(1, 8), st.data())
def test_channel_goes_to_the_core_whose_range_holds_the_position(p, data):
    # a family created over any span: position 0 goes to its head, and a
    # value for pos > 0 goes from the core running pos - 1 to itself or to
    # the next core id; either way to the core whose on_create range holds
    # pos
    start = data.draw(st.integers(0, p - 1), label="span start")
    size = data.draw(st.integers(1, p - start), label="span size")
    n = data.draw(st.integers(1, 40), label="n")
    pos = data.draw(st.integers(0, n - 1), label="pos")
    chip = Chip(ChipConfig(p=p, mem_bytes=64),
                assemble(".body main\nhalt\n.body w\nhalt"))
    _bootstrap_root(chip)
    creator = chip.cores[0].contexts[0]
    chip.cores[0]._mark_pending(creator, 5)
    span = tuple(range(start, start + size))
    assert chip.span_pool.hold(span) == 1
    chip.tmus[0].create(creator, 5, 1, "w", (0, n, 1), None, 0)
    fam = chip.families[2]
    ranges = {dst: payload[1:] for msgs in chip.noc.arrivals.values()
              for dst, handler, payload in msgs
              if handler is Tmu.on_create and payload[0] == fam.fid}
    assert sorted(ranges) == list(span[:len(ranges)])
    assert fam.head == core_of_position(ranges, 0) == start

    sender = fam.head if pos == 0 else core_of_position(ranges, pos - 1)
    tmu = chip.tmus[sender]
    tmu.local_fams.clear()
    tmu.on_create(fam.fid, *ranges[sender], 1)
    local = []
    tmu.on_channel = lambda fid, q, value, cycle: local.append(q)
    chip.noc.arrivals.clear()
    tmu._forward_channel(fam, pos, 7, 2)
    sent = [(dst, payload) for msgs in chip.noc.arrivals.values()
            for dst, handler, payload in msgs if handler is Tmu.on_channel]
    expected = core_of_position(ranges, pos)
    if expected == sender:
        assert local == [pos] and not sent
    else:
        assert not local and sent == [(expected, (fam.fid, pos, 7))]
