"""hmtsim benchmark: host throughput end to end, and a per-layer split.

    python3 perfbench/run.py --workload corpus-matrix --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; hmtsim is imported from ./src. One
process, no threads. With ``--trace 0`` the last line of standard output is
a JSON object holding the end-to-end metrics, measured untraced; with
``--trace 1`` it holds the per-layer metrics of a separate traced run, whose
spans go to perfbench/out/. Every simulation is checked against the
sequential oracle, and every pass against the first (untimed warm-up) pass
of the same run. The line before the result records provenance. See
perfbench/README.md for the metrics, the workloads and why they were chosen.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

from layers import CLOCK, EMPTY_NAME, TARGETS, Tracer
from speed import Gauge
from workloads import COUNTERS, WORKLOADS, RefusedSize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9

# per-layer simulated counts: metric name -> row counter summed over a pass
SIM_COUNTS = {
    "core.commits": "commits", "core.bubbles": "bubbles",
    "core.flushes": "flushes", "core.switch_events": "switch_events",
    "memory.d_misses": "d_misses", "memory.i_misses": "i_misses",
    "memory.propagation_messages": "propagation_messages",
    "noc.control_messages": "control_messages",
    "noc.hop_traversals": "hop_traversals",
}


def fresh_import():
    """Import hmtsim (and its cli) anew from ./src, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "hmtsim" or n.startswith("hmtsim.")]:
        del sys.modules[name]
    hm = importlib.import_module("hmtsim")
    importlib.import_module("hmtsim.cli")
    if Path(hm.__file__).resolve().parent != SRC / "hmtsim":
        raise RuntimeError(f"imported hmtsim from {hm.__file__}, not {SRC}")
    return hm


def oracle_hashes(hm, cells) -> dict:
    """(kernel, cores) -> SHA-256 of the sequential oracle's final memory."""
    by_source, out = {}, {}
    for cell in cells:
        digest = by_source.get(cell.spec.source)
        if digest is None:
            image = hm.sequential_oracle(cell.program, cell.config.mem_bytes).final_memory
            digest = by_source[cell.spec.source] = hashlib.sha256(image).hexdigest()
        out[(cell.spec.name, cell.config.p)] = digest
    return out


class Checker:
    """Counts simulations attempted and failed.

    A simulation fails if it did not complete, if its final memory differs
    from the oracle image, or if its row differs from the same simulation in
    the reference pass. A pass whose result hash differs from the reference
    while every row agrees counts one more failure.
    """

    def __init__(self, oracle: dict, sims_per_pass: int):
        self.oracle, self.sims = oracle, sims_per_pass
        self.attempted = self.failed = 0
        self.ref_hash = self.ref_rows = None

    def check(self, result_hash: str, rows: list[dict]) -> None:
        self.attempted += self.sims
        bad = abs(self.sims - len(rows))
        for row, ref_row in zip(rows[:self.sims], self.ref_rows or rows):
            ok = row["outcome"] == "completed" and row == ref_row and \
                row["memory_hash"] == self.oracle.get((row["kernel"], row["cores"]))
            bad += not ok
        if self.ref_hash is None:
            self.ref_hash, self.ref_rows = result_hash, rows
        elif result_hash != self.ref_hash and bad == 0:
            bad = 1
        self.failed += bad


def totals(rows: list[dict]) -> dict:
    return {name: sum(r[name] for r in rows) for name in COUNTERS}


def timed_passes(workload, hm, cells, checker: Checker, gauge: Gauge,
                 seconds: float, before_pass=None) -> list[list[tuple]]:
    """Repeat checked passes while the next one still fits in the budget;
    returns (host seconds, scaled seconds) per timed unit, a list per pass."""
    passes, spent = [], 0.0
    while True:
        gc.collect()
        if before_pass is not None:
            before_pass()
        result_hash, rows, units = workload.run_pass(hm, cells, gauge)
        checker.check(result_hash, rows)
        passes.append(units)
        pass_s = sum(host for host, _ in units)
        spent += pass_s
        if spent + pass_s > seconds:
            return passes


def pass_seconds(passes: list[list[tuple]], scaled: bool = True) -> float:
    """Seconds of one pass: the sum over its units of each unit's median
    over the passes, scaled to the nominal host speed or as measured."""
    k = 1 if scaled else 0
    return sum(statistics.median(run[k] for run in unit) for unit in zip(*passes))


def _setup(workload, seed: int):
    hm = fresh_import()
    return hm, workload.setup(hm, seed)


def measure(workload, seed: int, seconds: float) -> tuple[dict, Checker, dict]:
    """End-to-end metrics from an untraced run, and the host-speed record."""
    gauge = Gauge()
    setups = []
    for _ in range(SETUP_REPEATS):
        (hm, cells), _, scaled = gauge.time(_setup, workload, seed)
        setups.append(scaled)
    checker = Checker(oracle_hashes(hm, cells), workload.sims(cells))
    checker.check(*workload.run_pass(hm, cells, gauge)[:2])     # untimed warm-up
    passes = timed_passes(workload, hm, cells, checker, gauge, seconds)
    scaled, host = pass_seconds(passes), pass_seconds(passes, scaled=False)
    ref = checker.ref_rows
    tot = totals(ref)
    core_cycles = sum(r["cycles"] * r["cores"] for r in ref)
    metrics = {
        "commits_per_s": (tot["commits"] / scaled, "commits/s"),
        "cycles_per_s": (tot["cycles"] / scaled, "cycles/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_cycles": (tot["cycles"], "cycles"),
        "sim_ipc": (tot["commits"] / core_cycles, "commits/cycle"),
        "ok_ratio": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
    }
    speed = {"timed_passes": len(passes), "as_measured_commits_per_s": tot["commits"] / host,
             "host_speed": scaled / host}
    return metrics, checker, speed


def measure_traced(workload, seed: int, seconds: float):
    """Per-layer metrics from a traced run; also returns the tracer."""
    gauge = Gauge()
    hm, cells = _setup(workload, seed)
    oracle = oracle_hashes(hm, cells)
    checker = Checker(oracle, workload.sims(cells))
    checker.check(*workload.run_pass(hm, cells, gauge)[:2])     # untimed warm-up
    # a third of the budget times untraced passes, the reference for the
    # tracing overhead; the rest times traced ones
    untraced = pass_seconds(timed_passes(workload, hm, cells, checker, gauge,
                                         seconds / 3))

    tracer = Tracer()
    tracer.calibrate()
    tracer.install(hm)
    setups = []

    def traced_setup():
        t0 = CLOCK()
        with tracer.span("setup"):
            workload.setup(hm, seed)
        setups.append(CLOCK() - t0)

    with tracer.span("workload"):
        with tracer.span("passes"):
            passes = timed_passes(workload, hm, cells, checker, gauge,
                                  seconds * 2 / 3, before_pass=traced_setup)
        traced = tracer.snapshot()
        with tracer.span("oracle"):
            if oracle_hashes(hm, cells) != oracle:
                checker.failed += 1
    after = tracer.snapshot()

    n = len(passes)
    units = [unit for units in passes for unit in units]
    speed = sum(scaled for _, scaled in units) / sum(host for host, _ in units)
    metrics = {}
    for name, (calls, self_s, empty) in traced.items():
        if name == "oracle.sequential_oracle":
            calls, self_s, _ = (a - b for a, b in zip(after[name], traced[name]))
            n_div = 1
        else:
            n_div = n
        metrics[f"{name}.calls"] = (calls / n_div, "count")
        metrics[f"{name}.self_s"] = (self_s * speed / n_div, "s")
        empty_name = EMPTY_NAME.get(TARGETS[name][2])
        if empty_name:
            metrics[f"{name}.{empty_name}"] = (empty / n_div, "count")
    ref = totals(checker.ref_rows)
    for name, counter in SIM_COUNTS.items():
        metrics[name] = (ref[counter], "count")
    step_calls = metrics["core.step.calls"][0]
    metrics["core.commits_per_call"] = (
        ref["commits"] / step_calls if step_calls else 0.0, "commits/call")
    cost = tracer.wrapper_cost({k: v[0] for k, v in traced.items()})
    self_total = sum(v[1] for v in traced.values())
    wall = sum(setups) + sum(host for host, _ in units)
    metrics["trace.overhead_s"] = (pass_seconds(passes) - untraced, "s")
    metrics["trace.wrapper_cost_s"] = (cost * speed / n, "s")
    metrics["trace.accounted_share"] = ((self_total + cost) / wall, "ratio")
    return metrics, checker, tracer


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload, seed: int, checker: Checker, speed: dict) -> dict:
    params = workload.params(seed)
    counters = totals(checker.ref_rows)
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    known = baseline.get(workload.name, {}).get(json.dumps(params, sort_keys=True))
    match = None if known is None else (
        known == {"result_hash": checker.ref_hash, "counters": counters})
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0)),
            "workload": workload.name, "seed": seed, "params": params,
            "result_hash": checker.ref_hash, "counters": counters,
            "matches_baseline": match, **speed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hmtsim" / "__init__.py").is_file():
        print(f"perfbench: no hmtsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, checker, tracer = measure_traced(workload, args.seed, args.seconds)
            speed = {}
        else:
            metrics, checker, speed = measure(workload, args.seed, args.seconds)
    except RefusedSize as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    prov = provenance(workload, args.seed, checker, speed)
    out = {"correct": checker.failed == 0, "attempted": checker.attempted,
           "failed": checker.failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        t0 = tracer.spans[0][3]
        spans = [{"id": i, "parent": parent, "name": name,
                  "start_s": start - t0, "end_s": end - t0}
                 for i, parent, name, start, end in tracer.spans]
        path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "provenance": prov, "result": out,
            "wrapper_cost_s": {"inside": tracer.cost_in, "outside": tracer.cost_out},
            "spans": spans}, indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
