"""Control network-on-chip: hop-by-hop messaging between per-core TMUs.

Physically separate from the memory network. Messages travel along adjacent
cores only, on a ring or a line of the chip's cores; delivery takes hops *
hop_latency cycles (min 1 cycle for a core messaging itself). There is no
contention or buffering model.

A message is a `(dst, handler, payload)` tuple: the receiving core, the Tmu
method it calls and that method's arguments. Traffic is counted per
`(src, dst)` route, and `hop_log()` spreads each route's count over the links
of its arc.
"""

from __future__ import annotations

from operator import itemgetter
from sys import maxsize as NEVER   # no event pending: a cycle no run reaches
from typing import Callable

_DST = itemgetter(0)


class Noc:
    def __init__(self, config):
        """config is the chip's `ChipConfig`: the core count p, the topology
        (ring or line) and hop_latency are read from it."""
        self.p = config.p
        self.ring = config.topology == "ring"
        self.hop_latency = config.hop_latency
        # arrival cycle -> (dst, handler, payload) messages due then, each
        # list in injection order; next_arrival is its smallest key (NEVER
        # when empty), lowered by send and recomputed by step, so that the
        # chip and a core test for an arrival with one comparison
        self.arrivals: dict[int, list[tuple]] = {}
        self.next_arrival = NEVER
        self.injected = 0
        # (src, dst) -> messages sent along that route
        self._sent: dict[tuple[int, int], int] = {}
        # (src, dst) -> delivery latency, filled in as routes are used
        self._latency: dict[tuple[int, int], int] = {}

    def arc(self, src: int, dst: int) -> tuple[int, int]:
        """The links the route from src to dst crosses along the shorter
        side, as (first, count): link c joins cores c and (c + 1) % p, and
        the route crosses links first, first + 1, ..., mod p, whichever way
        it runs. Ties go clockwise (ascending core ids)."""
        if not self.ring:
            return (src, dst - src) if dst >= src else (dst, src - dst)
        fwd = (dst - src) % self.p
        bwd = (src - dst) % self.p
        return (src, fwd) if fwd <= bwd else (dst, bwd)

    def send(self, handler: Callable, src: int, dst: int, payload: tuple,
             cycle: int):
        route = (src, dst)
        latency = self._latency.get(route)
        if latency is None:
            latency = self._latency[route] = max(
                1, self.arc(src, dst)[1] * self.hop_latency)
        at = cycle + latency
        self.injected += 1
        sent = self._sent
        sent[route] = sent.get(route, 0) + 1
        self.arrivals.setdefault(at, []).append((dst, handler, payload))
        if at < self.next_arrival:
            self.next_arrival = at

    def step(self, cycle: int) -> list[tuple]:
        """Messages arriving this cycle, ordered by (dst core, injection order)."""
        due = self.arrivals.pop(cycle, [])
        self.next_arrival = min(self.arrivals) if self.arrivals else NEVER
        due.sort(key=_DST)      # stable: keeps injection order
        return due

    @property
    def in_flight(self) -> bool:
        return bool(self.arrivals)

    def hop_log(self) -> dict[tuple[int, int], int]:
        """Traversal count for every adjacent (low core, high core) link, in
        ascending order of the pair: `Metrics.hop_log` is part of the
        `result_hash`. The links are listed directly, not found among all
        pairs: (a, a + 1), and a ring of more than two cores also closes
        with (0, p - 1), right after (0, 1). Each route adds its count once
        at the start of its arc and takes it off past the end, so one
        running sum over the links gives their counts."""
        p = self.p
        diff = [0] * (p + 1)
        for (src, dst), n in self._sent.items():
            first, hops = self.arc(src, dst)
            end = first + hops
            diff[first] += n
            if end > p:                 # the arc wraps past link p - 1
                diff[0] += n
                end -= p
            diff[end] -= n
        counts = []
        total = 0
        for x in diff[:p]:
            total += x
            counts.append(total)
        out = {(a, a + 1): counts[a] for a in range(p - 1)}
        if self.ring:
            if p > 2:
                out = {(0, 1): counts[0], (0, p - 1): counts[p - 1], **out}
            elif p == 2:                # both links join cores 0 and 1
                out[(0, 1)] += counts[1]
        return out
