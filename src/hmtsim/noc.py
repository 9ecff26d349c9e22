"""Control network-on-chip: hop-by-hop messaging between per-core TMUs.

Physically separate from the memory network. Messages travel along adjacent
cores only; delivery takes hops * hop_latency cycles (min 1 cycle for a
core messaging itself). There is no contention or buffering model.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from sys import maxsize as NEVER   # no event pending: a cycle no run reaches
from typing import Callable

_DST = attrgetter("dst")


@dataclass
class ControlMessage:
    handler: Callable       # receiving Tmu method, called with the payload
    dst: int
    payload: tuple
    arrives_at: int = 0


@dataclass(frozen=True)
class Topology:
    kind: str = "ring"          # "ring" or "line"
    p: int = 1
    hop_latency: int = 2

    def adjacent(self, a: int, b: int) -> bool:
        d = abs(a - b)
        if self.kind == "ring":
            return d == 1 or d == self.p - 1 and self.p > 2
        return d == 1

    def path(self, src: int, dst: int) -> list[int]:
        """Cores visited from src to dst, inclusive, along the shorter side."""
        if src == dst:
            return [src]
        if self.kind == "line":
            step = 1 if dst > src else -1
            return list(range(src, dst + step, step))
        fwd = (dst - src) % self.p
        bwd = (src - dst) % self.p
        # ties go clockwise (ascending core ids)
        step = 1 if fwd <= bwd else -1
        out = [src]
        c = src
        while c != dst:
            c = (c + step) % self.p
            out.append(c)
        return out

    def hops(self, src: int, dst: int) -> int:
        return len(self.path(src, dst)) - 1


class Noc:
    def __init__(self, topology: Topology):
        self.topology = topology
        # arrival cycle -> messages due then, each list in injection order;
        # next_arrival is its smallest key (NEVER when empty), lowered by send
        # and recomputed by step, so that the chip and a core test for an
        # arrival with one comparison
        self.arrivals: dict[int, list[ControlMessage]] = {}
        self.next_arrival = NEVER
        self.injected = 0
        self.delivered = 0
        self._hop_counts: dict[tuple[int, int], int] = {}
        # (src, dst) -> (hops, links traversed), filled in as routes are used
        self._routes: dict[tuple[int, int], tuple[int, tuple]] = {}

    def _route(self, src: int, dst: int) -> tuple[int, tuple]:
        path = self.topology.path(src, dst)
        links = tuple((a, b) if a < b else (b, a)
                      for a, b in zip(path, path[1:]))
        route = self._routes[(src, dst)] = (len(links), links)
        return route

    def send(self, handler: Callable, src: int, dst: int, payload: tuple,
             cycle: int) -> ControlMessage:
        hops, links = self._routes.get((src, dst)) or self._route(src, dst)
        at = cycle + max(1, hops * self.topology.hop_latency)
        msg = ControlMessage(handler, dst, payload, arrives_at=at)
        self.injected += 1
        counts = self._hop_counts
        for link in links:
            counts[link] = counts.get(link, 0) + 1
        self.arrivals.setdefault(at, []).append(msg)
        if at < self.next_arrival:
            self.next_arrival = at
        return msg

    def step(self, cycle: int) -> list[ControlMessage]:
        """Messages arriving this cycle, ordered by (dst core, injection order)."""
        due = self.arrivals.pop(cycle, [])
        self.next_arrival = min(self.arrivals) if self.arrivals else NEVER
        due.sort(key=_DST)      # stable: keeps injection order
        self.delivered += len(due)
        return due

    @property
    def in_flight(self) -> int:
        return self.injected - self.delivered

    def hop_log(self) -> dict[tuple[int, int], int]:
        """Traversal count for every adjacent (low core, high core) link."""
        topo = self.topology
        out = {}
        for a in range(topo.p):
            for b in range(a + 1, topo.p):
                if topo.adjacent(a, b):
                    out[(a, b)] = self._hop_counts.get((a, b), 0)
        return out
