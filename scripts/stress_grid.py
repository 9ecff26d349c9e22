#!/usr/bin/env python3
"""The differential check: every run of a configuration grid through every
second route.

Sends each configuration through `check` (`tests/differential.py`), which
runs it traced and untraced, each on the fast chip loop and under the
lockstep loop (which steps every awake core one cycle per call and never
jumps the idle clock), and compares the four results and every completed
run's image with the sequential oracle's. Prints one line per
configuration: the configuration, the outcome, the cycle count and the
traced `result_hash` (which covers the outcome, the diagnostic, every
metric, the final memory and the commit trace). On the first disagreement it exits nonzero with the
configuration and the route that disagreed. Two trees that print the same
lines simulate these runs identically, so a change meant to keep simulated
results can be checked against its parent with

    diff <(python3 /path/to/parent/scripts/stress_grid.py) \\
         <(python3 scripts/stress_grid.py)

The configurations, in their order (1,322 lines):

- the grid: the five corpus kernels x p in {1, 3, 8} x thread slots 1/3 x
  i_lines = d_lines 1/2 x hop latency 0/5 x eager/bulk x hints on/off, with
  a 300,000-cycle watchdog (480 runs);
- the 92 runs pinned in tests/test_sim.py, read from its `pinned_runs()` so
  that the script and the tests cannot drift (the list below);
- `quiet_sweep()`, 750 configurations drawn with a fixed seed: the corpus
  kernels at small sizes and two heterogeneous spins, with I-fills of 1 to
  1,000 cycles and I-caches of 1 to 32 lines of 4 to 64 bytes, so that
  quiet cores' windows run past 10 cycles and stretches probe and miss,
  and with one-slot cores, D-caches of 1 or 2 lines and 5-cycle hops,
  which expose a quiet window that runs too long: with `sim._stop`'s quiet
  horizon mutated from `4 + least` to `6 + least`, 3 of the 750 disagree.
  A traced run never takes a quiet stretch (`src/hmtsim/core.py`), so
  only the untraced routes exercise stretches and the long windows of
  quiet cores.

The pinned runs, in their order:

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
runs 5,288 simulations and one oracle run per program (27), and takes
about 78 s on a 2-vCPU x86_64 VM with CPython 3.11.
"""

import itertools
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from differential import check
from test_sim import pinned_runs
from hmtsim.kernels import (corpus, kernel_chain, kernel_heterogeneous,
                            kernel_loaduse, kernel_regular, kernel_starvation)
from hmtsim.sim import ChipConfig


def grid():
    """(label, config, program) for the 480 grid cells, in a fixed order."""
    for spec, p, slots, lines, hop, coherency, hints in itertools.product(
            corpus(), (1, 3, 8), (1, 3), (1, 2), (0, 5), ("eager", "bulk"),
            (True, False)):
        cfg = ChipConfig(p=p, thread_slots=slots,
                         i_lines=lines, d_lines=lines,
                         hop_latency=hop, coherency=coherency, hints=hints,
                         watchdog_cycles=300_000)
        label = (f"{spec.name} p={p} slots={slots} lines={lines} hop={hop} "
                 f"{coherency} hints={'on' if hints else 'off'}")
        yield label, cfg, spec.program


def quiet_sweep(n=750, seed=27):
    """(label, config, program) for n configurations: the five
    corpus kernels at small sizes and two heterogeneous spins, each run
    with an i_miss_latency of 1, 10, 37, 300 or 1000 cycles, 1 to 32
    I-lines of 4 to 64 bytes, 1, 2 or 64 D-lines, p in {1, 2, 3, 5, 8}, 1,
    2, 7 or 64 thread slots and a hop latency of 0, 3 or 5, each factor
    drawn from random.Random(seed)."""
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
        d_lines = rng.choice((1, 2, 64))
        p = rng.choice((1, 2, 3, 5, 8))
        slots = rng.choice((1, 2, 7, 64))
        hop = rng.choice((0, 3, 5))
        program = fixed[name] if name in fixed else \
            kernel_starvation(p, satisfiable=True).program
        cfg = ChipConfig(p=p, thread_slots=slots, hop_latency=hop,
                         i_miss_latency=latency, i_lines=lines,
                         line_bytes=line_bytes, d_lines=d_lines)
        label = (f"{name} p={p} slots={slots} hop={hop} i_miss={latency} "
                 f"i_lines={lines} line_bytes={line_bytes} d_lines={d_lines}")
        yield label, cfg, program


def main():
    pinned = ((pin.label, pin.config(), pin.make()) for pin in pinned_runs())
    for label, cfg, program in itertools.chain(grid(), pinned, quiet_sweep()):
        try:
            res = check(cfg, program)
        except AssertionError as exc:
            sys.exit(f"{label}: {exc}")
        print(f"{label} {res.outcome.value} {res.metrics.cycles} "
              f"{res.result_hash()}", flush=True)


if __name__ == "__main__":
    main()
