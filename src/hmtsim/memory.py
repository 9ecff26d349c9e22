"""Shared-memory hierarchy: per-core L1 instruction/data caches over one
flat backing store, with two store-propagation policies.

EAGER propagates every store to the backing store as it commits and
invalidates remote copies of the line, one message per event. BULK buffers a
family's stores in a per-core epoch write-set; the set is published when the
family's epoch is flushed, one message per dirty line. Cached lines carry no
data of their own (they are kept coherent with the backing store by
invalidation), so tags are all the caches track.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from sys import maxsize as NEVER   # no event pending: a cycle no run reaches

from .errors import SimFault


@dataclass
class MemoryStats:
    loads: int = 0
    stores: int = 0
    d_misses: int = 0
    i_misses: int = 0
    propagation_messages: int = 0


class _Fill:
    __slots__ = ("core", "line", "waiters")

    def __init__(self, core, line):
        self.core = core
        self.line = line
        self.waiters = []   # (addr, callback) in issue order


class MemorySystem:
    def __init__(self, config):
        """config is the chip's `ChipConfig`: the core count p, the cache
        geometry and miss latencies, mem_bytes and the coherency policy are
        read from it."""
        self.config = config
        self.bulk = config.coherency == "bulk"
        self.mem = bytearray(config.mem_bytes)
        self._n_cores = n_cores = config.p
        self.stats = MemoryStats()
        # tag-only caches: line index -> True, LRU order
        self._dtags = [OrderedDict() for _ in range(n_cores)]
        self._itags = [OrderedDict() for _ in range(n_cores)]
        # epoch -> core -> {addr: value}, populated only under BULK
        self._write_sets: dict[int, dict[int, dict[int, int]]] = {}
        # completion cycle -> (I-fill (core, line) keys, D-fills), each list
        # in issue order; next_due is its smallest key (NEVER when empty),
        # lowered as a key is made and recomputed as one is popped, so that
        # the chip and a core test for a due fill with one comparison
        self.fills: dict[int, tuple[list, list]] = {}
        self.next_due = NEVER
        self._d_pending: dict[tuple[int, int], _Fill] = {}
        self._i_pending: set[tuple[int, int]] = set()
        # icache_probe's memo, public so that fetch reads it without the
        # call. Per core: line -> resident, for every line probed since the
        # last I-fill into the core's I-tags, which empties it. An entry
        # stays true until then, because I-lines are evicted only when a
        # fill is installed: a resident line stays resident, a pending one
        # stays pending, and so do the fetch-ahead lines its probe
        # requested. Probing it again would only mark the line most
        # recently used, so a hit on a resident line must still do that,
        # with i_touch[core](line) (the I-tags' move_to_end), for each
        # install to evict the same victim.
        self.i_probed: list[dict[int, bool]] = [{} for _ in range(n_cores)]
        self.i_touch = [tags.move_to_end for tags in self._itags]
        self._fetch_ahead = min(self.PREFETCH_LINES, config.i_lines - 1)

    # -- word access ---------------------------------------------------------

    def _check(self, addr: int):
        if addr % 4 != 0:
            raise SimFault(f"memory fault: unaligned access at {addr:#x}")
        if not 0 <= addr <= len(self.mem) - 4:
            raise SimFault(f"memory fault: address {addr:#x} out of bounds")

    def _read_word(self, addr: int) -> int:
        return int.from_bytes(self.mem[addr:addr + 4], "little", signed=True)

    def _write_word(self, addr: int, value: int):
        self.mem[addr:addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    def _line(self, addr: int) -> int:
        return addr // self.config.line_bytes

    # -- epochs ---------------------------------------------------------------

    def open_epoch(self, epoch: int):
        self._write_sets[epoch] = {}

    def load(self, core: int, addr: int, epoch: int, cycle: int, on_value):
        """Call on_value with the word at addr: now on a hit, or from the
        step that completes the line's fill on a miss."""
        self._check(addr)
        self.stats.loads += 1
        if self.bulk:
            per_core = self._write_sets.get(epoch)
            if per_core is not None:
                buffered = per_core.get(core)
                if buffered is not None and addr in buffered:
                    on_value(buffered[addr])
                    return
        line = self._line(addr)
        tags = self._dtags[core]
        if line in tags:
            tags.move_to_end(line)
            on_value(self._read_word(addr))
            return
        key = (core, line)
        fill = self._d_pending.get(key)
        if fill is None:
            fill = _Fill(core, line)
            self._d_pending[key] = fill
            self.stats.d_misses += 1
            self._due(cycle + self.config.d_miss_latency)[1].append(fill)
        fill.waiters.append((addr, on_value))

    def store(self, core: int, addr: int, value: int, epoch: int, cycle: int):
        self._check(addr)
        self.stats.stores += 1
        if self.bulk:
            sets = self._write_sets.get(epoch)
            if sets is None:
                raise SimFault(f"store into unknown epoch {epoch}")
            sets.setdefault(core, {})[addr] = value   # last write wins
            return
        self._write_word(addr, value)
        self.stats.propagation_messages += 1
        line = self._line(addr)
        for other in range(self._n_cores):
            if other != core and self._dtags[other].pop(line, None) is not None:
                self.stats.propagation_messages += 1

    def flush_epoch(self, epoch: int, close: bool = False) -> int:
        """Publish an epoch's buffered stores, one message per dirty line.

        The epoch stays open for further stores unless close is set (done
        when its family terminates, as opposed to a sub-family creation).
        """
        if close:
            per_core = self._write_sets.pop(epoch, None)
        else:
            per_core = self._write_sets.get(epoch)
            if per_core is not None:
                self._write_sets[epoch] = {}
        if per_core is None:
            raise SimFault(f"flush of unknown epoch {epoch}")
        messages = 0
        line_bytes = self.config.line_bytes
        for core in sorted(per_core):
            buffered = per_core[core]
            for addr, value in buffered.items():
                self._write_word(addr, value)
            # the dirty lines, in first-store order
            lines = dict.fromkeys(addr // line_bytes for addr in buffered)
            messages += len(lines)
            for line in lines:
                # the writer's own cached copy is stale too: drop silently
                self._dtags[core].pop(line, None)
                for other in range(self._n_cores):
                    if other != core and self._dtags[other].pop(line, None) is not None:
                        messages += 1
        self.stats.propagation_messages += messages
        return messages

    # -- instruction fetch side ------------------------------------------------

    # Fetch-ahead distance: enough lines in flight that straight-line code
    # streams at one instruction per cycle (line consumption takes
    # line_bytes/4 cycles against i_miss_latency of fill time). A probe
    # requests at most i_lines - 1 of them: the fills of one probe complete
    # together, and with more lines than the I-cache holds, installing them
    # would evict the demand line before fetch could use it.
    PREFETCH_LINES = 3

    def _request_i_fill(self, core: int, line: int, cycle: int):
        key = (core, line)
        if key in self._i_pending or line in self._itags[core]:
            return
        self._i_pending.add(key)
        self.stats.i_misses += 1
        self._due(cycle + self.config.i_miss_latency)[0].append(key)

    def icache_probe(self, core: int, pc: int, cycle: int) -> bool:
        """True if the line holding pc is resident; otherwise start a fill.
        Either way, fetch-ahead keeps the next PREFETCH_LINES lines on the
        way in, or i_lines - 1 of them in a smaller I-cache.

        A resident line is marked most recently used, and the answer is
        remembered in `i_probed[core]`. A caller reads that memo first and
        probes only a line it does not hold: with no fill into the core's
        I-tags since the line's probe, the line is still resident or still
        pending, and so is each of its fetch-ahead lines, so probing it
        again would request nothing. Such a caller marks a resident line
        used with `i_touch[core]`, as this does.
        """
        line = (pc * 4) // self.config.line_bytes
        resident = self.i_probed[core][line] = line in self._itags[core]
        if resident:
            self.i_touch[core](line)
        else:
            self._request_i_fill(core, line, cycle)
        for ahead in range(1, self._fetch_ahead + 1):
            self._request_i_fill(core, line + ahead, cycle)
        return resident

    # -- split-phase completion -------------------------------------------------

    def _due(self, cycle: int) -> tuple[list, list]:
        due = self.fills.get(cycle)
        if due is None:
            due = self.fills[cycle] = ([], [])
            if cycle < self.next_due:
                self.next_due = cycle
        return due

    def step(self, cycle: int) -> list:
        """Complete fills due this cycle, I-fills first; returns the D-fills'
        (callback, value) pairs to run."""
        i_fills, d_fills = self.fills.pop(cycle, ((), ()))
        self.next_due = min(self.fills) if self.fills else NEVER
        for key in i_fills:
            self._i_pending.discard(key)
            core, line = key
            self._install(self._itags[core], line, self.config.i_lines)
            self.i_probed[core].clear()
        out = []
        for fill in d_fills:
            del self._d_pending[(fill.core, fill.line)]
            self._install(self._dtags[fill.core], fill.line, self.config.d_lines)
            for addr, cb in fill.waiters:
                out.append((cb, self._read_word(addr)))
        return out

    @staticmethod
    def _install(tags: OrderedDict, line: int, capacity: int):
        tags[line] = True
        tags.move_to_end(line)
        if len(tags) > capacity:
            tags.popitem(last=False)

    @property
    def busy(self) -> bool:
        return bool(self.fills)


# -- image formats ----------------------------------------------------------

_PAGE = 4096
_ZERO_PAGE = bytes(_PAGE)


def dump_image_text(mem: bytes) -> str:
    """Sparse `addr=value` rendering of the nonzero words, one per line; a
    trailing partial word is not rendered. Pages that are all zero are
    skipped with one comparison each."""
    end = len(mem) & ~3
    lines = []
    for page in range(0, end, _PAGE):
        if mem[page:page + _PAGE] == _ZERO_PAGE:
            continue
        for addr in range(page, min(page + _PAGE, end), 4):
            word = int.from_bytes(mem[addr:addr + 4], "little", signed=True)
            if word:
                lines.append(f"0x{addr:08x}={word}")
    return "\n".join(lines) + "\n"


_CHUNK = 1 << 14
_ZERO_CHUNK = bytes(_CHUNK)
# image_digest's memo: the last distinct image's length, its nonzero chunks
# by offset (private copies) and its digest. It is one tuple, replaced
# whole, and no digest returned depends on it, so the callers that share it
# (sweeps, tests, threads) cannot change each other's results
_last_image = (-1, {}, "")


def image_digest(mem: bytes) -> str:
    """SHA-256 hex digest of an image, computed once for a run of equal
    images: a sweep over p, coherency, slots or hop latency keeps producing
    the same final image.

    The digest of the last distinct image is reused when mem equals it, and
    equality is exact: the lengths match, and at each 16 KB offset mem holds
    that image's nonzero chunk, or the zero chunk where it had none. Each
    test compares one slice of mem in place. On a 2-vCPU x86_64 host with
    CPython 3.11 that reuse costs about 32 us for 1 MB, where SHA-256 costs
    about 890 us. Chunks of 16 to 64 KB scan alike and 4 KB ones take twice
    as long; the smallest of those keeps the zero chunk and the copies small.
    The memo holds one entry: the last image's nonzero chunks, copied, and
    its digest. So it holds at most one image, and changing a bytearray
    after hashing it cannot make the memo return a stale digest.
    """
    global _last_image
    size, chunks, digest = _last_image
    if len(mem) == size and all(
            mem.startswith(chunks.get(off, _ZERO_CHUNK), off)
            for off in range(0, size, _CHUNK)):
        return digest
    size = len(mem)
    chunks = {off: mem[off:off + _CHUNK] for off in range(0, size, _CHUNK)
              if not mem.startswith(_ZERO_CHUNK, off)}
    digest = hashlib.sha256(mem).hexdigest()
    _last_image = (size, chunks, digest)
    return digest


def load_image_text(text: str, size: int) -> bytearray:
    mem = bytearray(size)
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        addr_s, _, val_s = line.partition("=")
        addr, value = int(addr_s, 0), int(val_s, 0)
        if addr % 4 or not 0 <= addr <= size - 4:
            raise ValueError(f"image address {addr_s.strip()} is unaligned or "
                             f"outside the {size}-byte memory")
        if not -(1 << 31) <= value <= 0xFFFFFFFF:
            raise ValueError(f"image value {val_s.strip()} at {addr_s.strip()} "
                             f"does not fit in 32 bits")
        mem[addr:addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
    return mem


def dump_image_binary(mem: bytes) -> bytes:
    return bytes(mem)


def load_image_binary(blob: bytes, size: int) -> bytearray:
    if len(blob) > size:
        raise ValueError(f"image of {len(blob)} bytes exceeds the "
                         f"{size}-byte memory")
    mem = bytearray(size)
    mem[:len(blob)] = blob
    return mem
