#!/usr/bin/env python3
"""Differential check: one traced run per cell of a configuration grid.

Prints one line per run: the configuration, the outcome, the cycle count and
the traced `result_hash` (which covers the outcome, the diagnostic, every
metric, the final memory and the commit trace). Two trees that print the same
lines simulate these runs identically, so a change meant to keep simulated
results can be checked against its parent with

    diff <(python3 /path/to/parent/scripts/stress_grid.py) \\
         <(python3 scripts/stress_grid.py)

The grid is the five corpus kernels x p in {1, 3, 8} x thread slots 1/3 x
i_lines = d_lines 1/2 x hop latency 0/5 x eager/bulk x hints on/off, with a
300,000-cycle watchdog (480 runs), followed by 62 runs pinned in
tests/test_sim.py: the eight non-completed runs (a core-1 fault, a p=2
deadlock, a p=2 starvation and a p=4 watchdog run, and the four waits-for
deadlock diagnostics), the ten runs whose deciding event falls while one core
is the only awake core, the eight whose deciding event falls while two or
more cores are awake, five completed p=1 runs at starvation_check 1, 7 and
128, three programs whose instructions read a cell they also write, at
p=1 and p=2, eager and bulk, seven runs that spend most of their cycles
with no core awake, and two runs whose memory, NoC or TMU phase wakes a core
or faults while one core is awake. Their programs and configurations are
read from that file, so the script and the tests cannot drift. One pass
takes 30-40 s on a 2-vCPU x86_64 VM with CPython 3.11.
"""

import importlib.util
import itertools
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hmtsim.isa import assemble
from hmtsim.kernels import corpus, kernel_chain, kernel_starvation
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
    yield ("fault-core1", ChipConfig(p=2, trace=True),
           assemble(src.CORE1_FAULT))
    yield ("deadlock-p2", ChipConfig(p=2, trace=True),
           assemble(src.TAIL_DEADLOCK_P2))
    yield ("starvation-p2", ChipConfig(p=2, trace=True),
           kernel_starvation(2).program)
    yield ("watchdog-p4", ChipConfig(p=4, watchdog_cycles=900, trace=True),
           kernel_chain(n=200).program)
    for name, text in (("tail", src.TAIL_DEADLOCK), ("sync", src.SYNC_DEADLOCK)):
        for p in (1, 2):
            yield (f"{name}-deadlock-p{p}",
                   ChipConfig(p=p, watchdog_cycles=100_000, trace=True),
                   assemble(text))
    for name, make, cfg, *_ in src.LONE_CORE_RUNS:
        yield f"lone-{name}", ChipConfig(trace=True, **cfg), make()
    for name, make, cfg, *_ in src.MANY_AWAKE_RUNS:
        yield f"many-{name}", ChipConfig(trace=True, **cfg), make()
    for name, make, _ in src.STARVATION_CHECK_RUNS:
        for check in src.STARVATION_CHECKS:
            yield (f"{name}-p1-check{check}",
                   ChipConfig(p=1, starvation_check=check, trace=True), make())
    for name, text, _ in src.SELF_OPERAND_RUNS:
        for p, coherency in src.SELF_OPERAND_CONFIGS:
            yield (f"self-{name}-p{p}-{coherency}",
                   ChipConfig(p=p, coherency=coherency, trace=True),
                   assemble(text))
    for name, make, cfg, *_ in src.IDLE_STRETCH_RUNS:
        yield f"idle-{name}", ChipConfig(trace=True, **cfg), make()
    for name, make, cfg, *_ in src.LONE_PHASE_RUNS:
        yield f"phase-{name}", ChipConfig(trace=True, **cfg), make()


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
