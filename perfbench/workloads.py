"""The benchmark's workloads: what each one simulates, why it was chosen, and
the guard that refuses kernel sizes whose data layout is racy.

A workload is built from a seed and a freshly imported ``hmtsim``. The
simulator only ever receives the generated programs; the seed stays here.

Every pass returns one row per simulation with the same keys as the
``hmtsim sweep`` CSV record (the simulated counters), so the checks and the
reported figures treat all workloads alike.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from dataclasses import dataclass

# Simulated counters carried by every row; all are integers.
COUNTERS = ("cycles", "commits", "bubbles", "flushes", "switch_events",
            "propagation_messages", "control_messages", "hop_traversals",
            "loads", "stores", "d_misses", "i_misses")


class RefusedSize(ValueError):
    """A generated kernel whose size the benchmark will not run."""


def guard_layout(hm, spec, mem_bytes: int) -> None:
    """Refuse a kernel whose input array reaches into its output area.

    ``kernel_regular`` keeps x[] at X_BASE and out[] at OUT_BASE, and
    ``kernel_loaduse`` initialises threads*iters*16 bytes from X_BASE. Past
    OUT_BASE - X_BASE bytes the two regions overlap: the run still completes,
    but loads race with stores of other threads and the final memory can
    differ from the oracle's. Such a size would report spurious failures, so
    the benchmark refuses it instead.
    """
    k = hm.kernels
    room = k.OUT_BASE - k.X_BASE
    p = spec.params
    if spec.name == "regular":
        in_bytes, out_words = 4 * p["n"], p["n"]
    elif spec.name == "loaduse":
        in_bytes, out_words = p["threads"] * p["iters"] * 16, p["threads"]
    elif spec.name == "heterogeneous":
        in_bytes, out_words = 0, p["n"]
    elif spec.name == "chain":
        in_bytes, out_words = 0, p["n"] + 1     # prefixes, then the tail
    else:
        in_bytes, out_words = 0, 2
    if in_bytes > room:
        raise RefusedSize(f"refusing racy size {spec.params} for {spec.name}: "
                         f"its {in_bytes}-byte input overlaps OUT_BASE")
    if k.OUT_BASE + 4 * out_words > mem_bytes:
        raise RefusedSize(f"refusing size {spec.params} for {spec.name}: "
                         f"output runs past {mem_bytes} bytes of memory")


def row_of(kernel: str, p: int, result) -> dict:
    """A sweep-record-like row for one RunResult."""
    m = result.metrics
    row = {"kernel": kernel, "cores": p, "outcome": result.outcome.value,
           "memory_hash": result.memory_hash(),
           "bubbles": sum(c.bubbles for c in m.per_core),
           "switch_events": sum(c.switch_events for c in m.per_core)}
    for name in COUNTERS:
        if name not in row:
            row[name] = getattr(m, name)
    return row


@dataclass
class Cell:
    """One simulation: a generated kernel on one chip configuration."""
    spec: object
    program: object
    config: object


class CorpusMatrix:
    name = "corpus-matrix"
    why = ("hmtsim sweep in-process over 5 corpus kernels x p in {1,4,8} x "
           "eager/bulk, hints on: the north-star matrix, with per-run fixed "
           "costs and both store policies")
    # Chosen because it is the ROADMAP's fixed matrix of 30 cells and the only
    # workload where the per-run fixed cost (validate, hint annotation, Chip
    # construction, CSV records) and both store policies carry weight. Its
    # inputs are fixed by definition, so it ignores the seed.
    KERNELS = ("regular", "heterogeneous", "chain", "loaduse", "starvation")
    CORES = (1, 4, 8)
    COHERENCY = ("eager", "bulk")

    def params(self, seed: int) -> dict:
        return {"kernels": list(self.KERNELS), "cores": list(self.CORES),
                "coherency": list(self.COHERENCY), "hints": "on"}

    def setup(self, hm, seed: int) -> list[Cell]:
        """Generate and assemble every (kernel, p) program the sweep runs."""
        cells = []
        for kname in self.KERNELS:
            gen = hm.kernels.GENERATORS[kname]
            for p in self.CORES:
                spec = gen(p, satisfiable=True) if kname == "starvation" else gen()
                config = hm.ChipConfig(p=p)
                guard_layout(hm, spec, config.mem_bytes)
                cells.append(Cell(spec, spec.program, config))
        return cells

    def sims(self, cells: list[Cell]) -> int:
        return len(cells) * len(self.COHERENCY)

    def run_pass(self, hm, cells: list[Cell], gauge):
        """One sweep of the matrix, run as one single-cell `hmtsim sweep` per
        cell so that each cell is timed on its own; the records are those of
        the whole sweep, in its order. Returns the CSV's SHA-256, the rows
        and (host seconds, scaled seconds) for each cell."""
        header, records, units = None, [], []
        for kname in self.KERNELS:
            for p in self.CORES:
                for coherency in self.COHERENCY:
                    argv = ["sweep", "--kernels", kname, "--cores", str(p),
                            "--hints", "on", "--coherency", coherency]
                    text, *times = gauge.time(_sweep, hm, argv)
                    units.append(times)
                    header, *lines = text.splitlines(keepends=True)
                    records += lines
        text = header + "".join(records)
        rows = []
        for rec in csv.DictReader(io.StringIO(text)):
            row = {"kernel": rec["kernel"], "cores": int(rec["cores"]),
                   "outcome": rec["outcome"], "memory_hash": rec["memory_hash"]}
            row.update({name: int(rec[name]) for name in COUNTERS})
            rows.append(row)
        return hashlib.sha256(text.encode()).hexdigest(), rows, units


def _sweep(hm, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hm.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hmtsim {' '.join(argv)} exited {code}")
    return out.getvalue()


class Single:
    """One long simulation of one generated kernel; the seed scales its size
    by up to +-1.5% so a claim can be rechecked on an unseen seed."""

    def __init__(self, name, why, kernel, base, vary, p, coherency):
        self.name, self.why, self.kernel = name, why, kernel
        self.base, self.vary, self.p, self.coherency = base, vary, p, coherency

    def params(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        out = dict(self.base)
        spread = max(1, round(0.015 * out[self.vary]))
        out[self.vary] += rng.randint(-spread, spread)
        return out

    def setup(self, hm, seed: int) -> list[Cell]:
        spec = hm.kernels.GENERATORS[self.kernel](**self.params(seed))
        config = hm.ChipConfig(p=self.p, topology="ring", hints=True,
                               coherency=self.coherency)
        guard_layout(hm, spec, config.mem_bytes)
        return [Cell(spec, spec.program, config)]

    def sims(self, cells: list[Cell]) -> int:
        return 1

    def run_pass(self, hm, cells: list[Cell], gauge):
        """One simulation: its result hash, its row and its (host seconds,
        scaled seconds)."""
        (cell,) = cells
        result, *times = gauge.time(hm.run, cell.config, cell.program)
        return (result.result_hash(), [row_of(cell.spec.name, self.p, result)],
                [times])


WORKLOADS = {w.name: w for w in (
    CorpusMatrix(),
    # Chosen to isolate Core.step cost per commit: one core commits almost
    # every cycle (IPC ~0.996) with no D-cache traffic and a few dozen NoC
    # messages, so idle-skip, the NoC and the store paths are bypassed and
    # changes to them are predicted to leave it unchanged.
    Single("spin-p1",
           "kernel_heterogeneous n=32 scale~128 at p=1, eager: one core busy "
           "every cycle, so host time per commit is Core.step cost",
           kernel="heterogeneous", base={"n": 32, "scale": 128}, vary="scale",
           p=1, coherency="eager"),
    # Chosen because the channel hand-off serialises threads across cores:
    # IPC ~0.1, a third of Core.step calls find an idle core, almost every
    # Tmu.step finds an empty queue, every thread sends one channel message
    # and the stores are published by one bulk epoch flush. It exercises what
    # spin-p1 bypasses.
    Single("chain-p8",
           "kernel_chain n~4000 at p=8, ring, bulk: serialised channel "
           "hand-off, so most core steps are idle and the NoC/TMU carry the run",
           kernel="chain", base={"n": 4000}, vary="n", p=8, coherency="bulk"),
)}
