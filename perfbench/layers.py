"""Per-layer tracing from outside the program.

The tracer replaces the public functions of hmtsim's modules with wrappers
that count calls and accumulate self time, where self time is a call's wall
time minus the time of the wrapped calls it makes. Only aggregates are kept
for the ~10^6 per-cycle calls; spans are recorded at the coarse boundaries
(workload, pass, setup, sweep cell, oracle) and written out at the end.

A wrapper costs time of its own. ``calibrate`` measures that cost per call on
a no-op, split into the part inside the timed window (taken off the callee's
self time) and the part outside it (taken off the caller's), so that the
per-cycle loop in ``sim.run`` does not absorb the tracing cost. The sum of
all self times plus calls x cost then accounts for the traced wall time.
"""

from __future__ import annotations

import sys
import time
from types import ModuleType

CLOCK = time.perf_counter

# name -> (module, attribute path, variant). The variant adds a count of
# calls that found nothing to do, judged from public state only:
#   idle   -- core with no thread context and all six latches empty
#   queue  -- TMU with an empty request queue
#   busy   -- memory system with no fill outstanding in either cache
#   result -- NoC step that delivered no message
#   span   -- plain, and records a span per call (one per sweep cell)
TARGETS = {
    "sim.run": ("sim", "run", "span"),
    "sim.quiescent": ("sim", "Chip.quiescent", "plain"),
    "sim.check_starvation": ("sim", "_check_starvation", "plain"),
    "core.step": ("core", "Core.step", "idle"),
    "memory.step": ("memory", "MemorySystem.step", "busy"),
    "memory.icache_probe": ("memory", "MemorySystem.icache_probe", "plain"),
    "memory.load": ("memory", "MemorySystem.load", "plain"),
    "memory.store": ("memory", "MemorySystem.store", "plain"),
    "memory.flush_epoch": ("memory", "MemorySystem.flush_epoch", "plain"),
    "noc.step": ("noc", "Noc.step", "result"),
    "noc.send": ("noc", "Noc.send", "plain"),
    "tmu.step": ("tmu", "Tmu.step", "queue"),
    "tmu.handle_message": ("tmu", "Tmu.handle_message", "plain"),
    "isa.assemble": ("isa", "assemble", "plain"),
    "isa.validate": ("isa", "validate", "plain"),
    "isa.annotate_hints": ("isa", "annotate_hints", "plain"),
    "cli.main": ("cli", "main", "plain"),
    "cli.sweep": ("cli", "cmd_sweep", "plain"),
    "oracle.sequential_oracle": ("oracle", "sequential_oracle", "plain"),
    # every kernel_* generator shares this one entry
    "kernels.generate": ("kernels", "kernel_*", "plain"),
}
EMPTY_NAME = {"idle": "idle_calls", "queue": "empty_calls",
              "busy": "empty_calls", "result": "empty_calls"}


def _is_idle(core) -> bool:
    return not core.contexts and core.f is None and core.d is None \
        and core.r is None and core.e is None and core.m is None \
        and core.w is None


# variants whose emptiness is judged on the called object before the call
PRECHECKS = {
    "idle": _is_idle,
    "queue": lambda tmu: not tmu.requests,
    "busy": lambda memory: not memory.busy,
}


class _Probe:
    """Stands in for a Core, Tmu or MemorySystem with nothing to do."""
    contexts, requests = {}, []
    f = d = r = e = m = w = None

    @property
    def busy(self) -> bool:
        return False


class Stat:
    __slots__ = ("calls", "self_s", "empty")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.empty = 0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name in TARGETS}
        self.stack = [0.0]          # child time of each open wrapped call
        self.spans = []             # (id, parent id, name, start, end)
        self._open = [None]         # ids of open spans
        self.cost_in = {}           # variant -> per-call cost inside window
        self.cost_out = {}          # variant -> per-call cost outside it

    # -- wrappers ---------------------------------------------------------

    def wrapper(self, fn, stat: Stat, variant: str):
        stack, clock = self.stack, CLOCK
        c_in = self.cost_in.get(variant, 0.0)
        c_out = self.cost_out.get(variant, 0.0)

        def account(t0):
            el = clock() - t0
            stat.calls += 1
            stat.self_s += el - stack.pop() - c_in
            stack[-1] += el + c_out

        check = PRECHECKS.get(variant)
        if check is not None:
            def traced(obj, *args):
                if check(obj):
                    stat.empty += 1
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(obj, *args)
                finally:
                    account(t0)
        elif variant == "result":
            def traced(*args):
                stack.append(0.0)
                t0 = clock()
                try:
                    out = fn(*args)
                finally:
                    account(t0)
                if not out:
                    stat.empty += 1
                return out
        elif variant == "span":
            spans, opened = self.spans, self._open

            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    account(t0)
                    spans.append((len(spans), opened[-1], "cell", t0, clock()))
        else:
            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    account(t0)
        traced.__wrapped__ = fn
        return traced

    def calibrate(self, calls: int = 20_000, repeats: int = 30) -> None:
        """Measure each wrapper variant's own cost per call on a no-op. The
        variants take turns, and each loop's fastest repeat is used, as
        interference only adds time."""
        obj = _Probe()

        def noop(_self, _arg):
            return ()

        variants = ("plain", "idle", "queue", "busy", "result", "span")
        best = {v: [float("inf")] * 4 for v in variants}
        for _ in range(repeats):
            for variant in variants:
                stat = Stat()
                traced = self.wrapper(noop, stat, variant)
                t0 = CLOCK()
                for i in range(calls):
                    pass
                t1 = CLOCK()
                for i in range(calls):
                    noop(obj, i)
                t2 = CLOCK()
                for i in range(calls):
                    traced(obj, i)
                t3 = CLOCK()
                b = best[variant]
                b[:] = map(min, b, (t1 - t0, t2 - t1, t3 - t2, stat.self_s))
                self.stack[:] = [0.0]
        del self.spans[:]
        for variant, (loop, bare, wrapped, inside) in best.items():
            # the window also holds the no-op's own call, which an unwrapped
            # caller pays too
            self.cost_in[variant] = (inside - (bare - loop)) / calls
            self.cost_out[variant] = (wrapped - bare) / calls - self.cost_in[variant]

    def install(self, hm: ModuleType) -> None:
        """Wrap every target in every hmtsim module that refers to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "hmtsim" or name.startswith("hmtsim.")]
        for name, (mod_name, path, variant) in TARGETS.items():
            mod = getattr(hm, mod_name, None)
            if mod is None:
                print(f"perfbench: no module hmtsim.{mod_name}", file=sys.stderr)
                continue
            stat = self.stats[name]
            if path.endswith("*"):
                prefix = path[:-1]
                funcs = [getattr(mod, a) for a in sorted(vars(mod))
                         if a.startswith(prefix) and callable(getattr(mod, a))]
                for fn in funcs:
                    self._rebind(modules, fn, self.wrapper(fn, stat, variant))
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, attr, None)
            if fn is None:
                print(f"perfbench: no hmtsim.{mod_name}.{path}; "
                      f"{name} reads 0", file=sys.stderr)
                continue
            traced = self.wrapper(fn, stat, variant)
            if owner_name:
                setattr(owner, attr, traced)
            else:
                self._rebind(modules, fn, traced)

    def _rebind(self, modules, fn, traced) -> None:
        # a function imported by name elsewhere (cli.run, sim.validate, the
        # GENERATORS table) is rebound there too
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            value[k] = traced

    # -- spans and totals -------------------------------------------------

    def span(self, name: str):
        return _Span(self, name)

    def snapshot(self) -> dict:
        return {name: (s.calls, s.self_s, s.empty) for name, s in self.stats.items()}

    def wrapper_cost(self, calls_by_name: dict) -> float:
        return sum(n * (self.cost_in[TARGETS[name][2]] + self.cost_out[TARGETS[name][2]])
                   for name, n in calls_by_name.items())


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.id = len(t.spans)
        t.spans.append(None)        # reserve the id; filled in on exit
        self.parent = t._open[-1]
        t._open.append(self.id)
        self.start = CLOCK()
        return self

    def __exit__(self, *exc):
        self.end = CLOCK()
        t = self.tracer
        t._open.pop()
        t.spans[self.id] = (self.id, self.parent, self.name, self.start, self.end)
        return False
