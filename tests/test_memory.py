import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from hmtsim import memory
from hmtsim.errors import SimFault
from hmtsim.memory import (
    MemorySystem,
    dump_image_binary,
    dump_image_text,
    load_image_binary,
    load_image_text,
)
from hmtsim.sim import ChipConfig, Outcome, RunResult


def make(bulk=False, cores=2, **kw):
    return MemorySystem(ChipConfig(p=cores, mem_bytes=4096,
                                   coherency="bulk" if bulk else "eager", **kw))


def collect(sink):
    def cb(v):
        sink.append(v)
    return cb


def load(ms, core, addr, epoch, cycle, sink):
    """Load addr into sink: True on a hit, whose value arrives at once, False
    on a miss, whose value waits for a fill."""
    before = len(sink)
    ms.load(core, addr, epoch, cycle, collect(sink))
    return len(sink) > before


def test_load_miss_then_hit():
    ms = make()
    got = []
    assert not load(ms, 0, 0x100, 1, 0, got)
    assert got == [] and list(ms.fills) == [20]
    for c in range(1, 20):
        assert ms.step(c) == []
    done = ms.step(20)
    assert len(done) == 1
    cb, value = done[0]
    cb(value)
    assert got == [0]
    assert load(ms, 0, 0x100, 1, 21, got)
    assert got == [0, 0] and not ms.fills
    assert ms.stats.d_misses == 1 and ms.stats.loads == 2


def test_unaligned_and_out_of_bounds_fault():
    ms = make()
    with pytest.raises(SimFault, match="unaligned"):
        ms.load(0, 0x102, 1, 0, lambda v: None)
    with pytest.raises(SimFault, match="out of bounds"):
        ms.store(0, 1 << 20, 1, 1, 0)


def test_outstanding_misses_complete_in_issue_order():
    ms = make(cores=1, d_miss_latency=5)
    order = []
    issue_log = []
    for i in range(8):
        addr = 0x200 + i * 64   # distinct lines
        issue_log.append(addr)
        ms.load(0, addr, 1, cycle=0,
                on_value=(lambda a: lambda v: order.append(a))(addr))
    done = ms.step(5)
    for cb, v in done:
        cb(v)
    assert order == issue_log


def test_shared_line_single_fill():
    ms = make(cores=1)
    got = []
    assert not load(ms, 0, 0x100, 1, 0, got)
    assert not load(ms, 0, 0x104, 1, 1, got)    # same 16B line
    assert ms.stats.d_misses == 1
    assert list(ms.fills) == [20] and len(ms.fills[20][1]) == 1
    for c in range(25):
        for cb, v in ms.step(c):
            cb(v)
    assert got == [0, 0]


def test_eager_store_counts_and_invalidation():
    ms = make()
    # warm the line on both cores
    ms.load(0, 0x100, 1, 0, lambda v: None)
    ms.load(1, 0x100, 1, 0, lambda v: None)
    for c in range(25):
        for cb, v in ms.step(c):
            cb(v)
    before = ms.stats.propagation_messages
    ms.store(0, 0x100, 42, 1, 30)
    # one propagation plus one invalidation for core 1's stale copy
    assert ms.stats.propagation_messages - before == 2
    got = []
    assert not load(ms, 1, 0x100, 1, 31, got)   # invalidated
    assert list(ms.fills) == [51]
    assert load(ms, 0, 0x100, 1, 31, got)
    assert got == [42]


def test_bulk_store_buffers_without_messages():
    ms = make(bulk=True)
    ms.open_epoch(7)
    for i in range(100):
        ms.store(0, i * 4, i, 7, 0)
    assert ms.stats.propagation_messages == 0
    got = []
    assert load(ms, 0, 40, 7, 1, got)
    assert got == [10] and not ms.fills
    # other cores and other epochs do not see the buffered store
    ms.open_epoch(8)
    other = []
    ms.load(1, 40, 7, 1, collect(other))
    ms.load(0, 40, 8, 1, collect(other))
    for c in range(25):
        for cb, v in ms.step(c):
            cb(v)
    assert other == [0, 0]


def test_bulk_last_write_wins_single_entry():
    ms = make(bulk=True)
    ms.open_epoch(1)
    ms.store(0, 0x40, 1, 1, 0)
    ms.store(0, 0x40, 9, 1, 0)
    assert ms._write_sets[1][0] == {0x40: 9}
    assert ms.flush_epoch(1) == 1
    assert ms._read_word(0x40) == 9


def test_flush_counts_per_line_not_per_store():
    ms = make(bulk=True, cores=1)
    ms.open_epoch(3)
    for i in range(64):
        ms.store(0, i * 4, i + 1, 3, 0)   # 64 words over 16 lines
    assert ms.flush_epoch(3) == 16
    assert ms.stats.propagation_messages == 16


def test_flush_empty_and_unknown():
    ms = make(bulk=True)
    ms.open_epoch(5)
    assert ms.flush_epoch(5) == 0
    ms.store(0, 0x80, 4, 5, 1)      # epoch still open after a plain flush
    assert ms.flush_epoch(5, close=True) == 1
    with pytest.raises(SimFault, match="unknown epoch"):
        ms.flush_epoch(5)


def test_flush_invalidates_remote_copies():
    ms = make(bulk=True)
    ms.load(1, 0x100, 1, 0, lambda v: None)
    for c in range(25):
        ms.step(c)
    ms.open_epoch(2)
    ms.store(0, 0x100, 5, 2, 30)
    assert ms.flush_epoch(2) == 2   # one line published, one remote invalidate
    got = []
    assert not load(ms, 1, 0x100, 1, 31, got)
    assert list(ms.fills) == [51] and ms.stats.d_misses == 2


def test_flush_interleaved_stores_one_message_per_line_and_remote_copy():
    # core 0 stores to lines A, B and C in interleaved order; cores 1 and 2
    # hold copies of A and B, and core 0 of C
    A, B, C, D = 0x100, 0x140, 0x200, 0x300
    ms = make(bulk=True, cores=3)
    for core, addr in ((1, A), (1, B), (1, D), (2, A), (0, C)):
        ms.load(core, addr, 1, 0, lambda v: None)
    for c in range(25):
        ms.step(c)
    ms.open_epoch(4)
    for i, addr in enumerate((A, B, A + 4, C, B + 8, A + 8, C + 4, B)):
        ms.store(0, addr, i + 1, 4, 30)
    # three lines published, three remote copies dropped
    assert ms.flush_epoch(4) == 6
    assert ms.stats.propagation_messages == 6
    assert list(ms._dtags[1]) == [D // 16]     # 16-byte lines
    assert list(ms._dtags[2]) == []
    assert list(ms._dtags[0]) == []      # the writer's own stale copy too
    assert [ms._read_word(a) for a in (A, A + 4, A + 8, B, B + 8, C, C + 4)] \
        == [1, 3, 6, 8, 5, 4, 7]


def test_icache_probe_and_single_fill():
    ms = make(i_miss_latency=10)
    assert ms.icache_probe(0, 0, 0) is False
    assert ms.icache_probe(0, 1, 1) is False   # same line, no second fill
    # exactly one inflight fill for line 0 despite two probes (fetch-ahead
    # lines are separate)
    assert (0, 0) in ms._i_pending
    assert ms.stats.i_misses == 1 + ms.PREFETCH_LINES
    for c in range(11):
        ms.step(c)
    assert ms.icache_probe(0, 0, 10) is True
    assert ms.icache_probe(0, 3, 10) is True   # 4 instructions per 16B line


def test_icache_probe_memo_answers_and_marks_resident_lines_used():
    ms = make(i_miss_latency=10)
    ms.icache_probe(0, 0, 0)                   # lines 0..3 on their way in
    for c in range(11):
        ms.step(c)
    misses = ms.stats.i_misses
    for pc in (0, 4, 0):                       # lines 0, 1, then 0 again
        assert ms.icache_probe(0, pc, 11) is True
    assert ms.i_probed[0] == {0: True, 1: True}
    # the memo's answer for line 0 still made it most recently used, and
    # requested nothing: line 1's fetch-ahead line 4 was requested once
    assert next(reversed(ms._itags[0])) == 0
    assert ms.stats.i_misses == misses + 1
    for c in range(11, 22):
        ms.step(c)
    assert ms.i_probed[0] == {}                # emptied by line 4's fill


def test_i_and_d_fills_due_together_complete_i_first_then_d_in_issue_order():
    ms = make(cores=1, d_miss_latency=10, i_miss_latency=10)
    delivered = []

    def deliver(addr):
        # the instruction line due the same cycle is already resident
        return lambda v: delivered.append((addr, ms.icache_probe(0, 0, 10)))

    ms.load(0, 0x200, 1, 0, deliver(0x200))
    assert ms.icache_probe(0, 0, 0) is False
    ms.load(0, 0x300, 1, 0, deliver(0x300))
    ms.load(0, 0x204, 1, 0, deliver(0x204))    # rides the fill of 0x200
    for c in range(10):
        assert ms.step(c) == []
    for cb, v in ms.step(10):
        cb(v)
    assert delivered == [(0x200, True), (0x204, True), (0x300, True)]
    assert not ms.busy


def test_image_text_roundtrip():
    ms = make()
    ms.store(0, 0x10, -5, 1, 0)
    ms.store(0, 0x20, 123, 1, 0)
    text = dump_image_text(bytes(ms.mem))
    assert "0x00000010=-5" in text and "0x00000020=123" in text
    back = load_image_text(text, 4096)
    assert bytes(back) == bytes(ms.mem)


def reference_dump_text(mem) -> str:
    """dump_image_text's rendering, one word at a time."""
    lines = [f"0x{4 * i:08x}={word}" for i, (word,) in
             enumerate(struct.iter_unpack("<i", mem[:len(mem) & ~3])) if word]
    return "\n".join(lines) + "\n"


@st.composite
def images(draw):
    """Short images of any length, page-sized ones (all zero or all 0xff) and
    sparse 1 MiB ones, with some whole words and bytes written and a trailing
    partial word of any bytes."""
    size = draw(st.one_of(st.integers(0, 70),
                          st.sampled_from([4093, 4096, 8194, 1 << 20])))
    fill = draw(st.sampled_from([0x00, 0xFF])) if size < 1 << 20 else 0x00
    mem = bytearray([fill]) * size
    words = st.integers(-(1 << 31), (1 << 31) - 1)
    for i, word in draw(st.dictionaries(st.integers(0, size // 4), words,
                                        max_size=8)).items():
        if 4 * i + 4 <= size:
            mem[4 * i:4 * i + 4] = word.to_bytes(4, "little", signed=True)
    for pos, byte in draw(st.dictionaries(st.integers(0, size), st.integers(0, 255),
                                          max_size=8)).items():
        if pos < size:
            mem[pos] = byte
    tail = size % 4
    mem[size - tail:] = draw(st.binary(min_size=tail, max_size=tail))
    return mem


@settings(max_examples=50, deadline=None)
@given(images())
def test_image_text_equals_word_by_word_rendering(mem):
    text = dump_image_text(mem)
    assert text == reference_dump_text(mem)
    if len(mem) % 4 == 0:
        assert load_image_text(text, len(mem)) == mem


def test_image_binary_roundtrip():
    blob = bytes(range(16))
    mem = load_image_binary(blob, 64)
    assert dump_image_binary(mem)[:16] == blob


@pytest.mark.parametrize("text", ["0x1000=5", "0x0ffd=5", "-4=5", "0x12=5"])
def test_image_text_rejects_address_outside_or_unaligned(text):
    with pytest.raises(ValueError, match="unaligned or outside"):
        load_image_text(text, 4096)


@pytest.mark.parametrize("text", ["0x40=0x100000005", "0x40=0x100000000",
                                  "0x40=-0x80000001"])
def test_image_text_rejects_value_wider_than_32_bits(text):
    with pytest.raises(ValueError, match="does not fit in 32 bits"):
        load_image_text(text, 4096)


def test_image_text_accepts_32_bit_extremes():
    mem = load_image_text("0x0=0xffffffff\n0x4=-0x80000000", 4096)
    assert mem[:8] == b"\xff" * 4 + b"\x00\x00\x00\x80"


def test_image_text_accepts_last_word():
    mem = load_image_text("0x0ffc=-1", 4096)
    assert len(mem) == 4096 and mem[-4:] == b"\xff" * 4


def test_image_binary_rejects_oversize_blob():
    assert len(load_image_binary(bytes(64), 64)) == 64
    with pytest.raises(ValueError, match="65 bytes exceeds"):
        load_image_binary(bytes(65), 64)


# -- the one-image digest memo ------------------------------------------------

CHUNK = memory._CHUNK


def memory_hash(image) -> str:
    """A completed run's memory_hash over image, checked against a fresh
    SHA-256 of the image."""
    got = RunResult(Outcome.COMPLETED, None, image).memory_hash()
    assert got == hashlib.sha256(image).hexdigest()
    return got


def sparse(size, writes):
    mem = bytearray(size)
    for addr, byte in writes.items():
        mem[addr] = byte
    return mem


def test_memory_hash_reuses_the_last_images_digest_only_when_equal():
    first = sparse(1 << 20, {0x4000: 7, 0x4001: 1, 0x9FFFC: 3})
    digest = memory_hash(first)
    memo = memory._last_image
    # the same image twice, in a new bytearray: a hit, the memo unchanged
    assert memory_hash(bytearray(first)) == digest
    assert memory._last_image is memo
    # one byte changed inside a nonzero chunk
    changed = bytearray(first)
    changed[0x4002] = 9
    assert memory_hash(changed) != digest
    # a nonzero byte in a chunk that was zero in the previous image
    grown = bytearray(changed)
    grown[3 * CHUNK + 5] = 1
    assert memory_hash(grown) != memory_hash(changed)
    # all-zero images of two sizes, then equal nonzero content under two sizes
    assert memory_hash(bytearray(1 << 20)) != memory_hash(bytearray(1 << 16))
    small = sparse(1 << 16, {0x40: 5})
    assert memory_hash(small) != memory_hash(sparse(1 << 20, {0x40: 5}))
    assert memory_hash(bytearray(small)) == memory_hash(small)


def test_memory_hash_sees_an_image_changed_after_it_was_hashed():
    mem = sparse(1 << 20, {0x4000: 7})
    result = RunResult(Outcome.COMPLETED, None, mem)
    before = memory_hash(mem)
    mem[0x4000] = 8             # inside the one nonzero chunk
    inside = result.memory_hash()
    assert inside == hashlib.sha256(mem).hexdigest() != before
    mem[0x4000] = 7
    mem[5 * CHUNK] = 1          # in a chunk that was zero
    assert result.memory_hash() == hashlib.sha256(mem).hexdigest()
    assert result.memory_hash() not in (before, inside)


SIZES = [4, 1000, CHUNK - 4, CHUNK, CHUNK + 4, 3 * CHUNK + 8]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["fresh", "copy", "in place"]), st.sampled_from(SIZES),
    st.dictionaries(st.integers(0, 3 * CHUNK + 7), st.integers(0, 255),
                    max_size=3)), min_size=1, max_size=8))
def test_memory_hash_equals_sha256_over_any_run_of_sparse_images(steps):
    # each step hashes a fresh image, a copy of the last one or the last one
    # itself, after up to three byte writes: with none, a copy or the last
    # image is the same image again, and the memo's digest is reused
    mem = bytearray(4)
    for kind, size, writes in steps:
        if kind == "fresh":
            mem = bytearray(size)
        elif kind == "copy":
            mem = bytearray(mem)
        for addr, byte in writes.items():
            mem[addr % len(mem)] = byte
        memory_hash(mem)
