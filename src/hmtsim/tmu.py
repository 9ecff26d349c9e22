"""Per-core thread management unit: family allocation, bulk creation with an
even N/P split over adjacent cores, bulk synchronization, and the forward-only
inter-thread channels.

Each core owns one Tmu, and each protocol step is one Tmu method named after
it, taking the step's payload as arguments. During a core's cycle the local
pipeline queues a request (allocate, create, sync, release, putsh, ...) on
the chip as `(core id, Tmu method, args)`; the next cycle's TMU phase calls
each `method(tmu, *args, cycle)` in ascending core id, and each core's in
the order it issued them. A control message carries its handler, one of the
on_* methods, which the delivering NoC phase calls on the receiving Tmu with
the payload. Everything crossing cores rides the control NoC
(`chip.noc.send`), including a core messaging itself, so all inter-TMU
effects take at least one cycle and land in a deterministic order.

An allocation is its span: the ids of the adjacent cores it holds, ascending
and never wrapping around a ring. The chip's `SpanPool` issues allocation ids,
from 1 up, and keeps each held allocation's span. A family's positions run in
ascending order over the span's leading cores, so a channel value for
position pos > 0 goes from the core running pos - 1 to itself or to the next
core id.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SimFault
from .isa import CHANNEL_CELL

def distribute(n: int, p: int) -> list[int]:
    """Even split of n logical threads over p cores.

    The first n % p cores get ceil(n/p) threads, the rest floor(n/p), so each
    core's share is one contiguous run of logical indices.
    """
    if n < 0 or p < 1:
        raise SimFault(f"cannot distribute {n} threads over {p} cores")
    base, extra = divmod(n, p)
    return [base + 1 if c < extra else base for c in range(p)]


def index_count(start: int, limit: int, step: int) -> int:
    """Cardinality of {start, start+step, ...} strictly before limit."""
    if step == 0:
        raise SimFault("family with zero index step")
    if step > 0:
        return max(0, -(-(limit - start) // step))
    return max(0, -(-(start - limit) // -step))


@dataclass
class Family:
    fid: int
    owner: int
    aid: int | None
    entry: str
    start: int
    step: int
    n: int
    head: int                               # the core of position 0
    outstanding: int
    creator: object = None                  # ThreadContext of the creating thread
    sync_target: tuple | None = None        # (core, ctx, reg) once synced
    completed: bool = False
    tail_value: int | None = None
    tail_waiters: list = field(default_factory=list)


class SpanPool:
    """Free/held bookkeeping for contiguous core spans."""

    def __init__(self, p: int):
        self.p = p
        self._held = [None] * p     # aid or None
        self.spans: dict[int, tuple[int, ...]] = {}     # held: aid -> span
        self._aid = 0

    def find_local(self, owner: int, size: int) -> tuple[int, ...] | None:
        """Free span containing the owner; smallest start wins. size 0 takes
        the largest free run around the owner."""
        if self._held[owner] is not None:
            return None
        if size == 0:
            s = owner
            while s > 0 and self._held[s - 1] is None:
                s -= 1
            return self.find_remote(s, 0)
        for s in range(max(0, owner - size + 1), owner + 1):
            span = self.find_remote(s, size)
            if span:
                return span
        return None

    def find_remote(self, anchor: int, size: int) -> tuple[int, ...] | None:
        """Free span starting exactly at the anchor core."""
        if self._held[anchor] is not None:
            return None
        if size == 0:
            end = anchor
            while end < self.p and self._held[end] is None:
                end += 1
            return tuple(range(anchor, end))
        if anchor + size <= self.p and all(self._held[c] is None
                                           for c in range(anchor, anchor + size)):
            return tuple(range(anchor, anchor + size))
        return None

    def hold(self, span: tuple[int, ...]) -> int:
        """Hold a free span under a new allocation id, and return the id."""
        for c in span:
            if self._held[c] is not None:
                raise SimFault(f"core {c} already held by allocation "
                               f"{self._held[c]}")
        self._aid += 1
        for c in span:
            self._held[c] = self._aid
        self.spans[self._aid] = span
        return self._aid

    def release(self, aid: int):
        for c in self.spans.pop(aid):
            self._held[c] = None


class _LocalFam:
    """Per-member-core view of a family: which positions run here."""

    __slots__ = ("pos_next", "pos_hi", "running", "buffer")

    def __init__(self, lo, hi):
        self.pos_next = lo
        self.pos_hi = hi
        self.running = {}       # position -> slot
        self.buffer = {}        # position -> buffered channel value


class Tmu:
    def __init__(self, cid: int, chip):
        self.cid = cid
        self.chip = chip
        self.core = chip.cores[cid]
        self.local_fams: dict[int, _LocalFam] = {}

    # -- pipeline requests (run the cycle after the core queued them) -----------

    def allocate(self, ctx, dst: int, size: int, hint: int | None, cycle: int):
        chip = self.chip
        req_id = chip.next_req_id()
        anchor = self.cid if hint is None else hint
        if not 0 <= anchor < chip.config.p:
            raise SimFault(f"allocate hint {anchor} is not a core id")
        chip.noc.send(Tmu.on_allocate_req, self.cid, anchor,
                      (req_id, self.cid, ctx, dst, size, hint is None), cycle)

    def create(self, ctx, dst: int, aid: int, entry: str, rng: tuple,
               seed: int | None, cycle: int):
        chip = self.chip
        span = chip.span_pool.spans.get(aid)
        if span is None:
            raise SimFault(f"create on unknown or released allocation {aid}")
        # parent's buffered stores become visible to the new sub-family
        chip.memory.flush_epoch(ctx.fid)
        start, limit, step = rng
        n = index_count(start, limit, step)
        fam = chip.new_family(self.cid, aid, entry, start, step, n, span[0],
                              creator=ctx)
        lo = 0
        for core, cnt in zip(span, distribute(n, len(span))):
            if cnt:
                chip.noc.send(Tmu.on_create, self.cid, core,
                              (fam.fid, lo, lo + cnt), cycle)
                lo += cnt
        if seed is not None:
            if n:
                chip.noc.send(Tmu.on_channel, self.cid, fam.head,
                              (fam.fid, 0, seed), cycle)
            else:
                self.on_tail(fam, seed, cycle)
        if n == 0:
            self._complete_family(fam, cycle)
        self.core.writeback(ctx, dst, fam.fid)

    def sync(self, ctx, dst: int, fid: int, cycle: int):
        fam = self._awaited(ctx, fid, "sync", "syncing")
        if fam.sync_target is not None:
            raise SimFault(f"double sync on family {fid}")
        fam.sync_target = (self.cid, ctx, dst)
        if fam.completed:
            self._fire_sync(fam, cycle)

    def release(self, aid: int, cycle: int):
        chip = self.chip
        span = chip.span_pool.spans.get(aid)
        if span is None:
            raise SimFault(f"release of unknown or already released "
                           f"allocation {aid}")
        # a family is live until its sync has fired
        live = [f.fid for f in chip.families.values() if f.aid == aid
                and not (f.completed and f.sync_target is not None)]
        if live:
            raise SimFault(f"release of allocation {aid} with live "
                           f"families {live}")
        for core in span:
            chip.noc.send(Tmu.on_release, self.cid, core, (aid,), cycle)
        chip.span_pool.release(aid)
        chip.last_effect = cycle

    def putsh(self, ctx, value: int, cycle: int):
        self._forward_channel(self.chip.families[ctx.fid], ctx.position + 1,
                              value, cycle)

    def putsh_head(self, fid: int, value: int, cycle: int):
        fam = self.chip.families.get(fid)
        if fam is None:
            raise SimFault(f"putsh to unknown family {fid}")
        self._forward_channel(fam, 0, value, cycle)

    def getsh_tail(self, ctx, dst: int, fid: int, cycle: int):
        fam = self._awaited(ctx, fid, "getsh", "reading")
        if fam.tail_value is not None:
            self.core.writeback(ctx, dst, fam.tail_value)
        else:
            fam.tail_waiters.append((self.cid, ctx, dst))

    def terminated(self, slot: int, fid: int, pos: int, cycle: int):
        chip = self.chip
        lf = self.local_fams.get(fid)
        if lf is None or lf.running.get(pos) != slot:
            raise SimFault(f"double termination of family {fid} position {pos}")
        del lf.running[pos]
        chip.noc.send(Tmu.on_terminated, self.cid, chip.families[fid].owner,
                      (fid, pos), cycle)
        chip.last_effect = cycle
        if lf.pos_next < lf.pos_hi:
            self._start_position(fid, lf, slot, cycle)     # reuse the same slot
        else:
            self.core.release_slot(slot)
            self._feed_starved_family(cycle)

    def _awaited(self, ctx, fid: int, op: str, role: str) -> Family:
        """Family fid, which ctx's thread syncs or reads the tail of (op):
        a fault if it was never created, or if it is the thread's own family
        or an ancestor's, which complete only after the thread has halted."""
        families = self.chip.families
        fam = families.get(fid)
        if fam is None:
            raise SimFault(f"{op} on unknown family {fid}")
        running = ctx
        while running is not None:
            if running.fid == fid:
                raise SimFault(f"{op} on family {fid}, which is still running "
                               f"the {role} thread")
            running = families[running.fid].creator
        return fam

    def _forward_channel(self, fam: Family, pos: int, value: int, cycle: int):
        if pos >= fam.n:
            # past the last thread: the value becomes the family's tail
            if fam.owner == self.cid:
                self.on_tail(fam, value, cycle)
            else:
                self.chip.noc.send(Tmu.on_tail, self.cid, fam.owner,
                                   (fam, value), cycle)
            return
        if pos == 0:
            core = fam.head
        elif pos < self.local_fams[fam.fid].pos_hi:
            core = self.cid         # the sender runs position pos - 1
        else:
            core = self.cid + 1
        if core == self.cid:
            self.on_channel(fam.fid, pos, value, cycle)
        else:
            self.chip.noc.send(Tmu.on_channel, self.cid, core,
                               (fam.fid, pos, value), cycle)

    # -- NoC message handlers --------------------------------------------------------

    def on_allocate_req(self, req_id: int, owner: int, ctx, dst: int,
                        size: int, local: bool, cycle: int):
        chip = self.chip
        if size < 0:
            raise SimFault(f"allocate with negative size {size}")
        if local:
            span = chip.span_pool.find_local(owner, size)
        else:
            span = chip.span_pool.find_remote(self.cid, size)
        aid = chip.span_pool.hold(span) if span else 0
        chip.noc.send(Tmu.on_allocate_rsp, self.cid, owner,
                      (req_id, aid, ctx, dst), cycle)

    def on_allocate_rsp(self, req_id: int, aid: int, ctx, dst: int,
                        cycle: int):
        chip = self.chip
        chip.pair_response(req_id)
        if aid == 0:
            ctx.last_denial = cycle
        else:
            chip.last_effect = cycle
        self.core.writeback(ctx, dst, aid)

    def on_create(self, fid: int, plo: int, phi: int, cycle: int):
        self.local_fams[fid] = _LocalFam(plo, phi)
        self._feed_starved_family(cycle)

    def on_terminated(self, fid: int, pos: int, cycle: int):
        fam = self.chip.families.get(fid)
        if fam is None:
            raise SimFault(f"termination for unknown family {fid}")
        if fam.completed:
            raise SimFault(f"termination after completion of family {fid}")
        fam.outstanding -= 1
        if fam.outstanding == 0:
            self._complete_family(fam, cycle)

    def on_sync_done(self, ctx, reg: int, cycle: int):
        self.core.writeback(ctx, reg, 1)
        self.chip.last_effect = cycle

    def on_release(self, aid: int, cycle: int):
        families = self.chip.families
        for fid in [f for f in self.local_fams if families[f].aid == aid]:
            del self.local_fams[fid]

    def on_channel(self, fid: int, pos: int, value: int, cycle: int):
        lf = self.local_fams.get(fid)
        if lf is None:
            raise SimFault(f"channel value for family {fid} on core "
                           f"{self.cid} before creation")
        slot = lf.running.get(pos)
        if slot is not None:
            core = self.core
            core.writeback(core.contexts[slot], CHANNEL_CELL, value)
            self.chip.last_effect = cycle
        elif pos >= lf.pos_next:
            lf.buffer[pos] = value
        # else: consumer already terminated without reading; value is dead

    def on_tail(self, fam: Family, value: int, cycle: int):
        if fam.tail_value is not None:
            raise SimFault(f"double write to tail of family {fam.fid}")
        fam.tail_value = value
        for core, ctx, dst in fam.tail_waiters:
            if core == self.cid:
                self.core.writeback(ctx, dst, value)
            else:
                self.chip.noc.send(Tmu.on_tail_value, self.cid, core,
                                   (ctx, dst, value), cycle)
        fam.tail_waiters.clear()
        self.chip.last_effect = cycle

    def on_tail_value(self, ctx, dst: int, value: int, cycle: int):
        # a remote waiter's getsh of a family tail
        self.core.writeback(ctx, dst, value)

    # -- thread lifecycle ---------------------------------------------------------

    def _start_position(self, fid: int, lf: _LocalFam, slot: int, cycle: int):
        chip = self.chip
        fam = chip.families[fid]
        pos = lf.pos_next
        lf.pos_next += 1
        lf.running[pos] = slot
        chan = lf.buffer.pop(pos, None)
        self.core.start_context(
            slot, fid, pos, fam.start + pos * fam.step,
            chip.program.entries[fam.entry], chan)
        chip.last_effect = cycle

    def _feed_starved_family(self, cycle: int):
        # fill free slots, oldest family first: a new family, or one queued
        # behind full slots that a freed slot unblocks
        for fid, lf in self.local_fams.items():
            while lf.pos_next < lf.pos_hi:
                slot = self.core.take_free_slot()
                if slot is None:
                    return
                self._start_position(fid, lf, slot, cycle)

    def _complete_family(self, fam: Family, cycle: int):
        chip = self.chip
        # publish before anyone can observe completion: sync implies visibility
        chip.memory.flush_epoch(fam.fid, close=True)
        fam.completed = True
        chip.open_families -= 1
        chip.last_effect = cycle
        if fam.sync_target is not None:
            self._fire_sync(fam, cycle)

    def _fire_sync(self, fam: Family, cycle: int):
        core, ctx, reg = fam.sync_target
        self.chip.noc.send(Tmu.on_sync_done, self.cid, core, (ctx, reg),
                           cycle)
