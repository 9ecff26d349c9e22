#!/usr/bin/env python3
"""Differential check: one traced run per cell of a configuration grid.

Prints one line per run: the configuration, the outcome, the cycle count and
the traced `result_hash` (which covers the outcome, the diagnostic, every
metric, the final memory and the commit trace). Two trees that print the same
lines simulate these runs identically, so a change meant to keep simulated
results can be checked against its parent with

    diff <(python3 /path/to/parent/scripts/stress_grid.py) \\
         <(python3 scripts/stress_grid.py)

and against the lockstep chip loop, which steps every awake core one cycle
per call and never jumps the idle clock, by patching the loop's one stop
decision, `hmtsim.sim._stop`, to return the next cycle:

    diff <(python3 scripts/stress_grid.py) <(python3 -c 'if True:
        import runpy, sys; sys.path.insert(0, "src"); from hmtsim import sim
        sim._stop = lambda chip, cycle: cycle + 1
        runpy.run_path("scripts/stress_grid.py", run_name="__main__")')

The grid is the five corpus kernels x p in {1, 3, 8} x thread slots 1/3 x
i_lines = d_lines 1/2 x hop latency 0/5 x eager/bulk x hints on/off, with a
300,000-cycle watchdog (480 runs), followed by the 92 runs pinned in
tests/test_sim.py, read from its `pinned_runs()` so that the script and the
tests cannot drift. In their order:

- 4 non-completed runs (a core-1 fault, a p=2 deadlock, a p=2 starvation
  and a p=4 watchdog run) and 4 waits-for deadlocks of a tail read and a
  sync;
- 10 runs whose deciding event falls while one core is the only awake core,
  and 8 whose deciding event falls while two or more cores are awake;
- 5 completed p=1 runs at starvation_check 1, 7 and 128 (15);
- 3 programs whose instructions read a cell they also write, at p=1 and
  p=2, eager and bulk (12);
- 7 runs that spend most of their cycles with no core awake, and 2 whose
  memory, NoC or TMU phase wakes a core or faults while one core is awake;
- 2 buffered-channel, 2 remote-tail and 3 head-fed runs;
- the waits-for deadlock at the end of a 20- and a 1,200-deep nest;
- 9 runs of a family that main does not sync: to its end at p = 1, 2, 8,
  eager and bulk, and at starvation_check 8, or into a deadlock at p = 1, 2;
- 12 tail reads after a sync, of a channel chain and of an empty family, at
  p = 1, 2, 3, eager and bulk.

New pinned runs are appended, so earlier lines keep their place. One pass
takes 20-40 s on a 2-vCPU x86_64 VM with CPython 3.11 (about 22 s on a
2-vCPU Intel Xeon VM, a little longer in lockstep).

`quiet_sweep()` lists 750 more configurations, drawn with a fixed seed, for
untraced runs to be checked against traced ones (CI's stress-grid job does,
under the fast and the lockstep loop; `main` does not run them): a traced
run never takes a quiet stretch (`src/hmtsim/core.py`), so only untraced
runs exercise the stretch and the long windows of quiet cores. Its I-fills
of 1 to 1,000 cycles and I-caches of 1 to 32 lines of 4 to 64 bytes let
windows run past 10 cycles and stretches probe and miss.
"""

import importlib.util
import itertools
import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hmtsim.kernels import (corpus, kernel_chain, kernel_heterogeneous,
                            kernel_loaduse, kernel_regular, kernel_starvation)
from hmtsim.memory import CacheConfig
from hmtsim.sim import ChipConfig, run


def grid():
    """(label, config, program) for the 480 grid cells, in a fixed order."""
    for spec, p, slots, lines, hop, coherency, hints in itertools.product(
            corpus(), (1, 3, 8), (1, 3), (1, 2), (0, 5), ("eager", "bulk"),
            (True, False)):
        cfg = ChipConfig(p=p, thread_slots=slots,
                         cache=CacheConfig(i_lines=lines, d_lines=lines),
                         hop_latency=hop, coherency=coherency, hints=hints,
                         watchdog_cycles=300_000, trace=True)
        label = (f"{spec.name} p={p} slots={slots} lines={lines} hop={hop} "
                 f"{coherency} hints={'on' if hints else 'off'}")
        yield label, cfg, spec.program


def pinned():
    """(label, config, program) for the runs pinned in test_sim.py."""
    path = ROOT / "tests" / "test_sim.py"
    loader = importlib.util.spec_from_file_location("pinned_runs", path)
    src = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(src)
    for pin in src.pinned_runs():
        yield pin.label, pin.config(), pin.make()


def quiet_sweep(n=750, seed=27):
    """(label, config, program) for n untraced configurations: the five
    corpus kernels at small sizes and two heterogeneous spins, each run
    with an i_miss_latency of 1, 10, 37, 300 or 1000 cycles, 1 to 32
    I-lines of 4 to 64 bytes, p in {1, 2, 3, 5, 8}, 2, 7 or 64 thread slots
    and a hop latency of 0 or 3, each factor drawn from
    random.Random(seed)."""
    fixed = {
        "regular n=24": kernel_regular(n=24).program,
        "heterogeneous n=16 scale=4":
            kernel_heterogeneous(16, 4).program,
        "chain n=16": kernel_chain(n=16).program,
        "loaduse iters=3": kernel_loaduse(iters=3).program,
        "heterogeneous n=24 scale=5": kernel_heterogeneous(24, 5).program,
        "heterogeneous n=9 scale=40": kernel_heterogeneous(9, 40).program,
    }
    names = [*fixed, "starvation"]
    rng = random.Random(seed)
    for _ in range(n):
        name = rng.choice(names)
        latency = rng.choice((1, 10, 37, 300, 1000))
        lines = rng.randint(1, 32)
        line_bytes = rng.choice((4, 8, 16, 32, 64))
        p = rng.choice((1, 2, 3, 5, 8))
        slots = rng.choice((2, 7, 64))
        hop = rng.choice((0, 3))
        program = fixed[name] if name in fixed else \
            kernel_starvation(p, satisfiable=True).program
        cfg = ChipConfig(p=p, thread_slots=slots, hop_latency=hop,
                         cache=CacheConfig(i_miss_latency=latency,
                                           i_lines=lines,
                                           line_bytes=line_bytes))
        label = (f"{name} p={p} slots={slots} hop={hop} i_miss={latency} "
                 f"i_lines={lines} line_bytes={line_bytes}")
        yield label, cfg, program


def main():
    start = time.perf_counter()
    n = 0
    for label, cfg, program in itertools.chain(grid(), pinned()):
        res = run(cfg, program)
        print(f"{label} {res.outcome.value} {res.metrics.cycles} "
              f"{res.result_hash()}", flush=True)
        n += 1
    print(f"{n} runs in {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
