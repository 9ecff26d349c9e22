"""A fixed pure-Python reference loop that gauges how fast this host runs
Python at the moment.

On a shared host the speed of one process swings by up to 2x within seconds
as neighbours come and go. The benchmark runs this loop right before and
right after each timed unit of simulation and scales the unit's host time by
NOMINAL_S / (mean of the two readings), which expresses it at the host's
nominal speed. The loop does the kind of work the simulator does (attribute
access, method calls, small dicts, integer arithmetic) and never changes, so
the ratio of simulator time to loop time compares two commits fairly.
"""

from __future__ import annotations

import time

CLOCK = time.perf_counter

# Seconds for one loop on a quiet host: the fastest of 400 runs on a 2-vCPU
# x86_64 virtual machine with CPython 3.11.7.
NOMINAL_S = 0.0044


class _Node:
    __slots__ = ("value", "next", "seen")

    def __init__(self, value):
        self.value = value
        self.next = None
        self.seen = {}

    def visit(self, k):
        self.seen[k & 15] = self.value
        return (self.value * 31 + k) & 0xFFFF


def _reference_loop(steps: int = 30_000) -> int:
    nodes = [_Node(i) for i in range(64)]
    for i, node in enumerate(nodes):
        node.next = nodes[(i + 7) % 64]
    node, acc = nodes[0], 0
    for k in range(steps):
        acc ^= node.visit(k)
        node = node.next
    return acc


class Gauge:
    """Times units of work and scales each to the host's nominal speed."""

    def __init__(self):
        _reference_loop()               # let the interpreter specialise it
        self._last = self._read()

    @staticmethod
    def _read() -> float:
        t0 = CLOCK()
        _reference_loop()
        return CLOCK() - t0

    def time(self, fn, *args):
        """Call fn(*args); return its result, its host seconds, and those
        seconds scaled to the nominal speed."""
        before = self._last
        t0 = CLOCK()
        out = fn(*args)
        seconds = CLOCK() - t0
        self._last = self._read()
        return out, seconds, seconds * 2 * NOMINAL_S / (before + self._last)
