"""Command-line driver: run one simulation, sweep a configuration matrix, or
execute the sequential reference interpreter.

Exit codes are a contract: 0 completed, 2 deadlock (or watchdog expiry), 3
model fault, 64 usage or input errors. The simulator is deterministic and
uses no randomness.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys

from .errors import SimFault
from .isa import AsmError, assemble, validate
from .kernels import GENERATORS, corpus, kernel_starvation
from .memory import CacheConfig, dump_image_binary, dump_image_text, load_image_binary, load_image_text
from .oracle import OracleDeadlock, sequential_oracle
from .sim import ChipConfig, Outcome, RunResult, format_trace, run

SCHEMA_VERSION = 1

# stable CSV header; new metrics may only be appended
RECORD_FIELDS = [
    "schema_version", "kernel", "params", "cores", "topology", "hints",
    "coherency", "thread_slots", "line_bytes", "d_lines", "i_lines",
    "d_miss_latency", "i_miss_latency", "hop_latency", "watchdog_cycles",
    "outcome", "diagnostic", "cycles", "commits", "bubbles", "flushes",
    "switch_events", "utilization", "propagation_messages",
    "control_messages", "hop_traversals", "loads", "stores", "d_misses",
    "i_misses", "max_pending_cells", "memory_hash",
]

EXIT_OK = 0
EXIT_DEADLOCK = 2
EXIT_FAULT = 3
EXIT_USAGE = 64


def _config_from_args(args, p: int, hints: str, coherency: str,
                      trace: bool) -> ChipConfig:
    """The machine flags of run and sweep, plus one cell's varying fields."""
    if hints not in ("on", "off"):
        raise UsageError(f"--hints takes on or off, got {hints!r}")
    cache = CacheConfig(
        line_bytes=args.line_bytes, d_lines=args.d_lines, i_lines=args.i_lines,
        d_miss_latency=args.d_miss_latency, i_miss_latency=args.i_miss_latency)
    return ChipConfig(
        p=p, topology=args.topology, thread_slots=args.thread_slots,
        cache=cache, hints=hints == "on", coherency=coherency,
        hop_latency=args.hop_latency, watchdog_cycles=args.watchdog,
        mem_bytes=args.mem_bytes, trace=trace)


def _record(kernel: str, params: str, config: ChipConfig,
            result: RunResult) -> dict:
    m = result.metrics
    cache = config.cache
    return {
        "schema_version": SCHEMA_VERSION,
        "kernel": kernel,
        "params": params,
        "cores": config.p,
        "topology": config.topology,
        "hints": "on" if config.hints else "off",
        "coherency": config.coherency,
        "thread_slots": config.thread_slots,
        "line_bytes": cache.line_bytes,
        "d_lines": cache.d_lines,
        "i_lines": cache.i_lines,
        "d_miss_latency": cache.d_miss_latency,
        "i_miss_latency": cache.i_miss_latency,
        "hop_latency": config.hop_latency,
        "watchdog_cycles": config.watchdog_cycles,
        "outcome": result.outcome.value,
        "diagnostic": result.diagnostic or "",
        "cycles": m.cycles,
        "commits": m.commits,
        "bubbles": sum(c.bubbles for c in m.per_core),
        "flushes": m.flushes,
        "switch_events": sum(c.switch_events for c in m.per_core),
        "utilization": f"{m.utilization:.6f}",
        "propagation_messages": m.propagation_messages,
        "control_messages": m.control_messages,
        "hop_traversals": m.hop_traversals,
        "loads": m.loads,
        "stores": m.stores,
        "d_misses": m.d_misses,
        "i_misses": m.i_misses,
        "max_pending_cells": m.max_pending_cells,
        "memory_hash": result.memory_hash(),
    }


def emit_records(records: list[dict], fmt: str, out=None) -> str:
    if fmt == "json":
        text = json.dumps(records, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=RECORD_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
        text = buf.getvalue()
    if out is not None:
        out.write(text)
    return text


def _exit_code(outcome: Outcome) -> int:
    if outcome is Outcome.COMPLETED:
        return EXIT_OK
    if outcome is Outcome.FAULT:
        return EXIT_FAULT
    return EXIT_DEADLOCK


def _load_program(path: str):
    try:
        with open(path) as fh:
            source = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read program file: {exc}")
    try:
        program = assemble(source, name=path.rsplit("/", 1)[-1].removesuffix(".masm"))
    except AsmError as exc:
        raise UsageError(f"{path}: {exc}")
    diags = validate(program)
    if diags:
        raise UsageError(f"{path}: " + "; ".join(diags))
    return program


def _load_init_mem(path: str, size: int):
    try:
        if path.endswith(".bin"):
            with open(path, "rb") as fh:
                return bytes(load_image_binary(fh.read(), size))
        with open(path) as fh:
            return bytes(load_image_text(fh.read(), size))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load memory image: {exc}")


def _write(path: str, data: str | bytes):
    """Write one output file; a path that cannot be written is a usage error."""
    try:
        with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
    except OSError as exc:
        raise UsageError(f"cannot write output file: {exc}")


def _dump_mem(path: str, image: bytes):
    _write(path, dump_image_binary(image) if path.endswith(".bin")
           else dump_image_text(image))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are one `error:` line, not a
    usage block; its subparsers are of the same class."""

    def error(self, message):
        raise UsageError(message)


def cmd_run(args) -> int:
    program = _load_program(args.program)
    config = _config_from_args(args, args.cores, args.hints, args.coherency,
                               args.trace is not None)
    init = _load_init_mem(args.init_mem, config.mem_bytes) if args.init_mem else None
    result = run(config, program, init)
    # output files first: one that cannot be written leaves no record
    if args.trace and result.trace is not None:
        _write(args.trace, format_trace(result.trace))
    if args.dump_mem and result.final_memory is not None:
        _dump_mem(args.dump_mem, result.final_memory)
    emit_records([_record(program.name, "", config, result)], args.format,
                 sys.stdout)
    return _exit_code(result.outcome)


# an integer flag's value, and each count in sweep's --cores list: ASCII
# decimal, as the assembler reads it, so that the config check, not the
# parse, refuses 0 and negative values
_DECIMAL = re.compile(r"-?(?:0|[1-9][0-9]*)")


def _decimal(flag: str):
    """argparse type of an integer flag. Its UsageError passes through
    argparse, whose message for a ValueError would not say what the flag
    takes."""
    def parse(text: str) -> int:
        if not _DECIMAL.fullmatch(text):
            raise UsageError(f"{flag} takes a decimal integer, got {text!r}")
        return int(text)
    return parse


def _sweep_cells(args) -> list:
    """(spec, config) per cell, all built and checked before any is run."""
    kernels = args.kernels.split(",")
    counts = args.cores.split(",")
    if not all(_DECIMAL.fullmatch(c) for c in counts):
        raise UsageError(f"--cores takes a comma list of decimal core counts, "
                         f"got {args.cores!r}")
    cores = [int(c) for c in counts]
    hints = args.hints.split(",")
    coherency = args.coherency.split(",")
    cells = []
    for kname in kernels:
        if kname not in GENERATORS:
            raise UsageError(f"unknown kernel '{kname}' "
                             f"(choose from {', '.join(sorted(GENERATORS))})")
        for p in cores:
            gen = GENERATORS[kname]
            spec = gen(p, satisfiable=True) if kname == "starvation" else gen()
            for h in hints:
                for c in coherency:
                    cells.append((spec, _config_from_args(
                        args, p, h, c, args.trace_dir is not None)))
    return cells


def cmd_sweep(args) -> int:
    cells = _sweep_cells(args)
    if args.trace_dir is not None and not os.path.isdir(args.trace_dir):
        raise UsageError(f"trace directory {args.trace_dir} does not exist")
    records = []
    traces = []
    for spec, config in cells:
        result = run(config, spec.program)
        params = ";".join(f"{k}={v}" for k, v in spec.params.items())
        rec = _record(spec.name, params, config, result)
        records.append(rec)
        if args.trace_dir is not None and result.trace is not None:
            traces.append((f"{spec.name}_p{config.p}_hints_{rec['hints']}_"
                           f"{config.coherency}.trace", result.trace))
    emit_records(records, args.format, sys.stdout)
    for fname, trace in traces:
        _write(f"{args.trace_dir}/{fname}", format_trace(trace))
    return EXIT_OK


def cmd_oracle(args) -> int:
    program = _load_program(args.program)
    init = _load_init_mem(args.init_mem, args.mem_bytes) if args.init_mem else None
    try:
        result = sequential_oracle(program, args.mem_bytes, init)
    except OracleDeadlock as exc:
        print(f"oracle deadlock: {exc}", file=sys.stderr)
        return EXIT_DEADLOCK
    if args.dump_mem:
        _dump_mem(args.dump_mem, result.final_memory)
    else:
        sys.stdout.write(dump_image_text(result.final_memory))
    return EXIT_OK


def cmd_gen(args) -> int:
    # build every kernel first, so that a bad size writes nothing
    specs = corpus(args.starvation_cores)
    # the deadlocking probe has no expected image: it never completes
    probe = kernel_starvation(args.starvation_cores)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory: {exc}")
    for spec in specs:
        _write(f"{args.out_dir}/{spec.name}.masm", spec.source + "\n")
        _write(f"{args.out_dir}/{spec.name}.expected",
               dump_image_text(spec.expected_image()))
    _write(f"{args.out_dir}/{probe.name}.masm", probe.source + "\n")
    print(f"wrote {args.out_dir}/<name>.masm for {len(specs) + 1} kernels "
          f"(.expected for the {len(specs)} that complete)")
    return EXIT_OK


# the integer machine flags of run and sweep: (flag, default, help); each
# default is read from the config field the flag sets
MACHINE_FLAGS = [
    ("--thread-slots", ChipConfig.thread_slots, "hardware thread slots per core"),
    ("--line-bytes", CacheConfig.line_bytes, "cache line size in bytes"),
    ("--d-lines", CacheConfig.d_lines, "D-cache lines per core"),
    ("--i-lines", CacheConfig.i_lines, "I-cache lines per core"),
    ("--d-miss-latency", CacheConfig.d_miss_latency, "D-cache miss cycles"),
    ("--i-miss-latency", CacheConfig.i_miss_latency, "I-cache miss cycles"),
    ("--hop-latency", ChipConfig.hop_latency, "cycles per NoC hop"),
    ("--watchdog", ChipConfig.watchdog_cycles,
     "cycle limit before WATCHDOG_TIMEOUT"),
    ("--mem-bytes", ChipConfig.mem_bytes, "memory image size in bytes"),
]


def _add_machine_flags(sp, cores_list=False):
    if cores_list:
        sp.add_argument("--cores", default="1,2,4,8",
                        help="comma list of core counts (default: %(default)s)")
    else:
        sp.add_argument("--cores", type=_decimal("--cores"),
                        default=ChipConfig.p,
                        help="core count (default: %(default)s)")
    sp.add_argument("--topology", choices=["ring", "line"],
                    default=ChipConfig.topology,
                    help="NoC topology (default: %(default)s)")
    for flag, default, text in MACHINE_FLAGS:
        sp.add_argument(flag, type=_decimal(flag), default=default,
                        help=f"{text} (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hmtsim",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("run", help="simulate one program on one configuration")
    rp.add_argument("--program", required=True, help="assembly source file")
    _add_machine_flags(rp)
    rp.add_argument("--hints", choices=["on", "off"], default="on",
                    help="automatic switch-hint annotation (default: %(default)s)")
    rp.add_argument("--coherency", choices=["eager", "bulk"],
                    default=ChipConfig.coherency,
                    help="store propagation policy (default: %(default)s)")
    rp.add_argument("--format", choices=["csv", "json"], default="csv")
    rp.add_argument("--trace", help="write one line per commit to this file")
    rp.add_argument("--dump-mem",
                    help="write final memory (addr=value text, or .bin raw)")
    rp.add_argument("--init-mem", help="preload memory from an image file")
    rp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep", help="cross-product of kernels and configs")
    sp.add_argument("--kernels", default="regular,heterogeneous,chain,loaduse",
                    help="comma list of generated kernels")
    _add_machine_flags(sp, cores_list=True)
    sp.add_argument("--hints", default="on,off", help="comma list: on,off")
    sp.add_argument("--coherency", default="eager,bulk",
                    help="comma list: eager,bulk")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--trace-dir", help="directory for per-cell trace files")
    sp.set_defaults(func=cmd_sweep)

    op = sub.add_parser("oracle",
                        help="run the sequential reference interpreter")
    op.add_argument("--program", required=True)
    op.add_argument("--mem-bytes", type=_decimal("--mem-bytes"),
                    default=ChipConfig.mem_bytes,
                    help="memory image size in bytes (default: %(default)s)")
    op.add_argument("--dump-mem", help="write image here instead of stdout")
    op.add_argument("--init-mem")
    op.set_defaults(func=cmd_oracle)

    gp = sub.add_parser("gen", help="write the kernel corpus to a directory")
    gp.add_argument("--out-dir", default="kernels")
    gp.add_argument("--starvation-cores", type=_decimal("--starvation-cores"),
                    default=2, help="core count the starvation kernels are "
                    "built for (default: %(default)s)")
    gp.set_defaults(func=cmd_gen)
    return ap


# one parser per process: building it costs about a millisecond, as much as
# a small simulation, and parse_args leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # --help; usage errors come from _Parser.error as UsageError
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, SimFault) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
