"""Control network-on-chip: hop-by-hop messaging between per-core TMUs.

Physically separate from the memory network. Messages travel along adjacent
cores only; delivery takes hops * hop_latency cycles (min 1 cycle for a
core messaging itself). There is no contention or buffering model.

A message is a `(dst, handler, payload)` tuple: the receiving core, the Tmu
method it calls and that method's arguments. Traffic is counted per
`(src, dst)` route, and `hop_log()` expands the routes into links.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from sys import maxsize as NEVER   # no event pending: a cycle no run reaches
from typing import Callable

_DST = itemgetter(0)


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

    def send(self, handler: Callable, src: int, dst: int, payload: tuple,
             cycle: int):
        route = (src, dst)
        latency = self._latency.get(route)
        if latency is None:
            topo = self.topology
            latency = self._latency[route] = max(
                1, topo.hops(src, dst) * topo.hop_latency)
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
        with (0, p - 1), right after (0, 1)."""
        topo = self.topology
        p = topo.p
        out = dict.fromkeys(((a, a + 1) for a in range(p - 1)), 0)
        if topo.kind == "ring" and p > 2:
            out = {(0, 1): 0, (0, p - 1): 0, **out}
        for (src, dst), n in self._sent.items():
            path = topo.path(src, dst)
            for a, b in zip(path, path[1:]):
                out[(a, b) if a < b else (b, a)] += n
        return out
