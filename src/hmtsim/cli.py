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
import inspect
import io
import itertools
import json
import os
import re
import sys

from .errors import ConfigError, SimFault
from .isa import AsmError, assemble, validate
from .kernels import GENERATORS, corpus, kernel_starvation
from .memory import dump_image_binary, dump_image_text, load_image_binary, load_image_text
from .oracle import OracleDeadlock, OracleFault, sequential_oracle
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


# an integer flag's value, and each integer element of a sweep list: ASCII
# decimal, as the assembler reads it, so that the config check, not the
# parse, refuses 0 and negative values
_DECIMAL = re.compile(r"-?(?:0|[1-9][0-9]*)")


def _decimal(flag: str, text: str) -> int:
    """Element parser of an integer flag. Its UsageError passes through
    argparse, whose message for a ValueError would not say what the flag
    takes."""
    if not _DECIMAL.fullmatch(text):
        raise UsageError(f"{flag} takes a decimal integer, got {text!r}")
    return int(text)


def _choice(*names: str):
    def parse(flag: str, text: str) -> str:
        if text not in names:
            raise UsageError(f"{flag} takes {' or '.join(names)}, "
                             f"got {text!r}")
        return text
    return parse


# every machine flag of run and sweep, declared once: (flag, config field,
# element parser, default, help); a default is read from the field the flag
# sets. Under sweep each flag takes a comma list, and the cells cross the
# flags in this order, inside --kernels.
MACHINE_FLAGS = [
    ("--cores", "p", _decimal, ChipConfig.p, "core count"),
    ("--hints", "hints", _choice("on", "off"), "on",
     "automatic switch-hint annotation: on or off"),
    ("--coherency", "coherency", _choice("eager", "bulk"),
     ChipConfig.coherency, "store propagation policy: eager or bulk"),
    ("--topology", "topology", _choice("ring", "line"), ChipConfig.topology,
     "NoC topology: ring or line"),
    ("--thread-slots", "thread_slots", _decimal, ChipConfig.thread_slots,
     "hardware thread slots per core"),
    ("--line-bytes", "line_bytes", _decimal, ChipConfig.line_bytes,
     "cache line size in bytes"),
    ("--d-lines", "d_lines", _decimal, ChipConfig.d_lines,
     "D-cache lines per core"),
    ("--i-lines", "i_lines", _decimal, ChipConfig.i_lines,
     "I-cache lines per core"),
    ("--d-miss-latency", "d_miss_latency", _decimal,
     ChipConfig.d_miss_latency, "D-cache miss cycles"),
    ("--i-miss-latency", "i_miss_latency", _decimal,
     ChipConfig.i_miss_latency, "I-cache miss cycles"),
    ("--hop-latency", "hop_latency", _decimal, ChipConfig.hop_latency,
     "cycles per NoC hop"),
    ("--watchdog", "watchdog_cycles", _decimal, ChipConfig.watchdog_cycles,
     "cycle limit before WATCHDOG_TIMEOUT"),
    ("--mem-bytes", "mem_bytes", _decimal, ChipConfig.mem_bytes,
     "memory image size in bytes"),
]
_DESTS = [flag[2:].replace("-", "_") for flag, *_ in MACHINE_FLAGS]
_FIELDS = [field for _, field, *_ in MACHINE_FLAGS]
_FLAG_OF_FIELD = dict(zip(_FIELDS, (flag for flag, *_ in MACHINE_FLAGS)))


def _checked(**fields) -> ChipConfig:
    """ChipConfig(**fields); a value it refuses is a usage error that
    names its flag."""
    try:
        return ChipConfig(**fields)
    except ConfigError as exc:
        raise UsageError(f"{_FLAG_OF_FIELD[exc.field]} {exc.rule}, "
                         f"got {exc.value!r}") from None


def _config(values, trace: bool) -> ChipConfig:
    """One cell's config, from one value per MACHINE_FLAGS entry in its
    order."""
    fields = dict(zip(_FIELDS, values))
    fields["hints"] = fields["hints"] == "on"
    return _checked(**fields, trace=trace)


def _record(kernel: str, params: str, config: ChipConfig,
            result: RunResult) -> dict:
    m = result.metrics
    return {
        "schema_version": SCHEMA_VERSION,
        "kernel": kernel,
        "params": params,
        "cores": config.p,
        "topology": config.topology,
        "hints": "on" if config.hints else "off",
        "coherency": config.coherency,
        "thread_slots": config.thread_slots,
        "line_bytes": config.line_bytes,
        "d_lines": config.d_lines,
        "i_lines": config.i_lines,
        "d_miss_latency": config.d_miss_latency,
        "i_miss_latency": config.i_miss_latency,
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
    config = _config([getattr(args, dest) for dest in _DESTS],
                     args.trace is not None)
    init = (None if args.init_mem is None
            else _load_init_mem(args.init_mem, config.mem_bytes))
    result = run(config, program, init)
    # output files first: one that cannot be written leaves no record
    if args.trace is not None:
        _write(args.trace, format_trace(result.trace))
    if args.dump_mem is not None:
        if result.final_memory is None:     # only a completed run has one
            print(f"no memory image written to {args.dump_mem}: the run "
                  f"ended in {result.outcome.value}", file=sys.stderr)
        else:
            _dump_mem(args.dump_mem, result.final_memory)
    emit_records([_record(program.name, "", config, result)], args.format,
                 sys.stdout)
    return _exit_code(result.outcome)


def _kernel(text: str) -> tuple[str, dict]:
    """One --kernels element, name[:key=value...], its parameters bound
    against the generator's signature."""
    name, *pairs = text.split(":")
    if name not in GENERATORS:
        raise UsageError(f"unknown kernel '{name}' "
                         f"(choose from {', '.join(sorted(GENERATORS))})")
    params = {}
    if not pairs:
        return name, params
    if name == "starvation":
        raise UsageError(f"--kernels starvation takes its core count from "
                         f"--cores and no parameters, got {text!r}")
    known = inspect.signature(GENERATORS[name]).parameters
    for pair in pairs:
        key, _, value = pair.partition("=")
        if key not in known:
            raise UsageError(f"--kernels {name} has no parameter {key!r} "
                             f"(it has {', '.join(known)})")
        if key in params:
            raise UsageError(f"--kernels {name} gives parameter {key!r} "
                             f"more than once")
        params[key] = _decimal(f"--kernels {name}:{key}", value)
    return name, params


def _sweep_cells(args) -> list:
    """(spec, config, trace file name or None) per cell, all built and
    checked before any is run."""
    axes = [getattr(args, dest) for dest in _DESTS]
    trace = args.trace_dir is not None
    # a trace file is named by its kernel element, cores, hints and
    # coherency, then by each other flag with more than one value
    named = [(i, MACHINE_FLAGS[i][0][2:]) for i in range(3, len(axes))
             if len(axes[i]) > 1]
    cells, fnames = [], set()
    for name, params in args.kernels:
        gen = GENERATORS[name]
        for p in axes[0]:
            spec = (gen(p, satisfiable=True) if name == "starvation"
                    else gen(**params))
            for values in itertools.product((p,), *axes[1:]):
                fname = None
                if trace:
                    fname = "_".join(
                        [spec.name, *(f"{k}{v}" for k, v in params.items()),
                         f"p{p}", "hints", values[1], values[2],
                         *(f"{flag}{values[i]}" for i, flag in named)]
                    ) + ".trace"
                    if fname in fnames:
                        raise UsageError(
                            f"--trace-dir: two cells would write {fname}")
                    fnames.add(fname)
                cells.append((spec, _config(values, trace), fname))
    return cells


def cmd_sweep(args) -> int:
    cells = _sweep_cells(args)
    if args.trace_dir is not None and not os.path.isdir(args.trace_dir):
        raise UsageError(f"trace directory {args.trace_dir} does not exist")
    records = []
    traces = []
    for spec, config, fname in cells:
        result = run(config, spec.program)
        params = ";".join(f"{k}={v}" for k, v in spec.params.items())
        records.append(_record(spec.name, params, config, result))
        if fname is not None:
            traces.append((fname, result.trace))
    emit_records(records, args.format, sys.stdout)
    for fname, trace in traces:
        _write(f"{args.trace_dir}/{fname}", format_trace(trace))
    return EXIT_OK


def cmd_oracle(args) -> int:
    # ChipConfig's bound on run's and sweep's memory, checked before the
    # oracle allocates its image
    _checked(mem_bytes=args.mem_bytes)
    program = _load_program(args.program)
    init = (None if args.init_mem is None
            else _load_init_mem(args.init_mem, args.mem_bytes))
    try:
        result = sequential_oracle(program, args.mem_bytes, init)
    except OracleDeadlock as exc:
        print(f"oracle deadlock: {exc}", file=sys.stderr)
        return EXIT_DEADLOCK
    except OracleFault as exc:
        print(f"oracle fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    if args.dump_mem is not None:
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


# sweep's defaults where they are not run's: the outer axes of the default
# sweep
_SWEEP_DEFAULTS = {"--kernels": "regular,heterogeneous,chain,loaduse",
                   "--cores": "1,2,4,8", "--hints": "on,off",
                   "--coherency": "eager,bulk"}


def _listed(parse):
    """argparse type of a sweep flag: a comma list, each element parsed."""
    return lambda text: list(map(parse, text.split(",")))


def _add_machine_flags(sp, listed: bool):
    for flag, _, element, default, text in MACHINE_FLAGS:
        parse = functools.partial(element, flag)
        if listed:
            parse = _listed(parse)
            default = parse(_SWEEP_DEFAULTS.get(flag, str(default)))
        shown = ",".join(map(str, default)) if listed else default
        sp.add_argument(flag, type=parse, default=default,
                        help=f"{text} (default: {shown})")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hmtsim",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("run", help="simulate one program on one configuration")
    rp.add_argument("--program", required=True, help="assembly source file")
    _add_machine_flags(rp, listed=False)
    rp.add_argument("--format", choices=["csv", "json"], default="csv")
    rp.add_argument("--trace", help="write one line per commit to this file")
    rp.add_argument("--dump-mem",
                    help="write final memory (addr=value text, or .bin raw)")
    rp.add_argument("--init-mem", help="preload memory from an image file")
    rp.set_defaults(func=cmd_run)

    sp = sub.add_parser(
        "sweep", help="cross-product of kernels and configs",
        description="Every flag but --format and --trace-dir takes a comma "
        "list. The cells cross the kernels, then the flags in the order "
        "listed here, the last varying fastest.")
    kernels = _listed(_kernel)
    sp.add_argument("--kernels", type=kernels,
                    default=kernels(_SWEEP_DEFAULTS["--kernels"]),
                    help="generated kernels, each name[:param=value...] "
                    f"(default: {_SWEEP_DEFAULTS['--kernels']})")
    _add_machine_flags(sp, listed=True)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--trace-dir", help="directory for per-cell trace files")
    sp.set_defaults(func=cmd_sweep)

    op = sub.add_parser("oracle",
                        help="run the sequential reference interpreter")
    op.add_argument("--program", required=True)
    op.add_argument("--mem-bytes",
                    type=functools.partial(_decimal, "--mem-bytes"),
                    default=ChipConfig.mem_bytes,
                    help="memory image size in bytes (default: %(default)s)")
    op.add_argument("--dump-mem", help="write image here instead of stdout")
    op.add_argument("--init-mem")
    op.set_defaults(func=cmd_oracle)

    gp = sub.add_parser("gen", help="write the kernel corpus to a directory")
    gp.add_argument("--out-dir", default="kernels")
    gp.add_argument("--starvation-cores",
                    type=functools.partial(_decimal, "--starvation-cores"),
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
