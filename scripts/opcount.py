#!/usr/bin/env python3
"""Bytecodes per commit: an opcode tracer over `hmtsim.sim.run`.

Counts every bytecode that CPython executes in all frames under one
`sim.run` call (untraced, hints on), divided by the run's commits. Unlike a
wall-clock figure, the count does not move with host load, so it shows what a
change to the simulator's hot paths costs per simulated instruction. It
counts the traced run only: a `gc.collect()` before the trace starts
finalises what earlier runs left, such as their cores' resident `_steps`
generators, which a collection inside the traced run would otherwise
finalise and count: without it, spin-p1 at scale 16 read 1,855,476
bytecodes after the corpus cells and 1,855,444 alone. Nor does it count the
program's static analyses, which `sim.run` computes on a program's first
run and reads from it on every later one (`Program.diagnostics`, `hinted`
and `reach`): they are computed before the trace starts. So a run's count is
the simulation alone, the same whatever ran before it in the process.

It counts Python bytecodes only. Work done in C does not show: a builtin
such as `min(map(...))` is a few bytecodes however many items it walks, and
resuming a generator costs more than the bytecodes it runs. So cheap
bytecodes can replace costly work and leave the count flat or higher while
wall time falls, and the reverse. Both were seen on `sim._stop`'s walk of a
quiet core's queued threads: a `min(map(...))` walk counts fewer bytecodes
than a plain loop but took about 1.0 us per 8-thread queue against 0.33 us
(timeit, 2-vCPU x86_64, CPython 3.11), and the plain loop took
`kernel_heterogeneous()` at p=4 from 171.0 to 171.9 bytecodes per commit
while it halved the `Core.step` resumes and ran faster. For changes to the
chip loop and `_stop` the count is a guide, not the gate; the gate is wall
time in a `BENCH_*.json`.

Prints one line per run: the corpus matrix of `perfbench` (five corpus
kernels at their default sizes x p in {1, 4, 8} x eager/bulk, 30 cells) with
a total, then the spin-p1 and chain-p8 kernels at the given sizes:

    python3 scripts/opcount.py
    python3 scripts/opcount.py --kernels chain --cores 1 --coherency eager \\
        --spin-scale 0 --chain-n 0

`--kernels`, `--cores` and `--coherency` take comma lists that select matrix
cells, and an empty list selects none, so that a single run is counted
alone; a size of 0 leaves out that single run:

    python3 scripts/opcount.py --kernels '' --spin-scale 16 --chain-n 0

Tracing runs Python's per-opcode hook: the default runs take 9 to 17 s
on a 2-vCPU x86_64 VM with CPython 3.11, and read 101.0 bytecodes per
commit for spin-p1, 355.9 for chain-p8 and 148.3 for the corpus total.
They read 101.1, 356.1 and 148.9 while every run validated and
hint-annotated its program and built its reach table anew. Before that,
they read 101.1, 349.5 and 148.2 while a static check kept cores on
programs that cannot hold a quiet stretch from checking for one; every
untraced core now checks at a call's start and after a stop's phases.
"""

import argparse
import gc
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hmtsim import kernels, sim  # noqa: E402

KERNELS = ("regular", "heterogeneous", "chain", "loaduse", "starvation")
CORES = (1, 4, 8)
COHERENCY = ("eager", "bulk")


def bytecodes(config, program):
    """The run's result and the bytecodes executed under its `sim.run`."""
    count = 0

    def opcodes(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcodes

    def calls(frame, event, arg):
        # also called at each resumption of a generator frame
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcodes

    # the analyses that sim.run reads from the program, computed here once
    program.diagnostics
    (program.hinted if config.hints else program).reach
    gc.collect()
    sys.settrace(calls)
    try:
        result = sim.run(config, program)
    finally:
        sys.settrace(None)
    return result, count


def line(label, result, count):
    commits = result.metrics.commits
    return (f"{label:<32} {result.outcome.value:<10} {commits:>8} commits "
            f"{count:>11} bytecodes {count / commits:8.1f} per commit")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--kernels", default=",".join(KERNELS))
    ap.add_argument("--cores", default=",".join(map(str, CORES)))
    ap.add_argument("--coherency", default=",".join(COHERENCY))
    ap.add_argument("--spin-scale", type=int, default=128,
                    help="spin-p1: kernel_heterogeneous(n=32, scale) at p=1, "
                         "eager (0 leaves it out)")
    ap.add_argument("--chain-n", type=int, default=4000,
                    help="chain-p8: kernel_chain(n) at p=8, bulk (0 leaves "
                         "it out)")
    args = ap.parse_args(argv)
    chosen, policies, cores = (text.split(",") if text else []
                               for text in (args.kernels, args.coherency,
                                            args.cores))
    for name in chosen:
        if name not in KERNELS:
            ap.error(f"--kernels: unknown kernel {name!r}")
    for policy in policies:
        if policy not in COHERENCY:
            ap.error(f"--coherency: must be eager or bulk, got {policy!r}")
    try:
        cores = [int(p) for p in cores]
    except ValueError:
        ap.error(f"--cores: not a comma list of integers: {args.cores!r}")

    total_commits = total = 0
    for name in KERNELS:
        if name not in chosen:
            continue
        for p in cores:
            gen = kernels.GENERATORS[name]
            spec = gen(p, satisfiable=True) if name == "starvation" else gen()
            for coherency in policies:
                config = sim.ChipConfig(p=p, coherency=coherency)
                result, count = bytecodes(config, spec.program)
                print(line(f"{name} p={p} {coherency}", result, count),
                      flush=True)
                total_commits += result.metrics.commits
                total += count
    if total_commits:
        print(f"{'corpus total':<43} {total_commits:>8} commits "
              f"{total:>11} bytecodes {total / total_commits:8.1f} per commit")
    singles = []
    if args.spin_scale:
        singles.append((f"spin-p1 scale={args.spin_scale}",
                        kernels.kernel_heterogeneous(n=32,
                                                     scale=args.spin_scale),
                        sim.ChipConfig(p=1, coherency="eager")))
    if args.chain_n:
        singles.append((f"chain-p8 n={args.chain_n}",
                        kernels.kernel_chain(n=args.chain_n),
                        sim.ChipConfig(p=8, coherency="bulk")))
    for label, spec, config in singles:
        result, count = bytecodes(config, spec.program)
        print(line(label, result, count), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
