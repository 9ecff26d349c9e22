import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hmtsim
import hmtsim.cli as cli

from hmtsim.cli import (EXIT_DEADLOCK, EXIT_FAULT, EXIT_OK, EXIT_USAGE,
                        MACHINE_FLAGS, RECORD_FIELDS, _DESTS, _config,
                        build_parser, main)
from hmtsim.isa import assemble, validate
from hmtsim.kernels import kernel_loaduse, kernel_regular, kernel_starvation
from hmtsim.memory import dump_image_text
from hmtsim.oracle import sequential_oracle
from hmtsim.sim import ChipConfig

from test_sim import DEEP_NEST


@pytest.fixture
def regular_masm(tmp_path):
    path = tmp_path / "regular.masm"
    path.write_text(kernel_regular(n=16).source)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_completed_exit_zero_csv(regular_masm, capsys):
    code, out, _ = run_cli(capsys, "run", "--program", regular_masm,
                           "--cores", "2")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert row["outcome"] == "completed"
    assert row["cores"] == "2"
    assert float(row["utilization"]) > 0
    assert list(rows[0].keys()) == RECORD_FIELDS


def test_run_starvation_exit_two(tmp_path, capsys):
    path = tmp_path / "starve.masm"
    path.write_text(kernel_starvation(2).source)
    code, out, _ = run_cli(capsys, "run", "--program", str(path),
                           "--cores", "2", "--watchdog", "100000")
    assert code == EXIT_DEADLOCK
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["outcome"] == "deadlock_starvation"


def test_run_dump_mem_of_an_unfinished_run_says_no_image(tmp_path, capsys):
    # only a completed run has a final image: the exit code stays, no file
    # is written, and one stderr line says so
    program = Path(__file__).resolve().parent.parent / "kernels" / \
        "starvation.masm"
    mem = tmp_path / "m.mem"
    code, out, err = run_cli(capsys, "run", "--program", str(program),
                             "--cores", "2", "--watchdog", "100000",
                             "--dump-mem", str(mem))
    assert code == EXIT_DEADLOCK
    assert next(csv.DictReader(io.StringIO(out)))["outcome"] == \
        "deadlock_starvation"
    assert err == (f"no memory image written to {mem}: the run ended in "
                   f"deadlock_starvation\n")
    assert not mem.exists()


def test_run_deep_nest_deadlock_exit_two(tmp_path, capsys):
    # a deadlock below 1,200 nested families is diagnosed in the record
    path = tmp_path / "deep.masm"
    path.write_text(DEEP_NEST.format(depth=1200))
    code, out, _ = run_cli(capsys, "run", "--program", str(path),
                           "--thread-slots", "2000")
    assert code == EXIT_DEADLOCK
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["outcome"] == "deadlock_dataflow"
    assert row["diagnostic"] == ("waits-for cycle: family 1202 index 0 -> "
                                 "family 1203 index 0")


def test_run_fault_exit_three(tmp_path, capsys):
    path = tmp_path / "fault.masm"
    path.write_text(".body main\n  addi r1, r0, 2\n  ld r2, 0(r1)\n  halt\n")
    code, out, _ = run_cli(capsys, "run", "--program", str(path))
    assert code == EXIT_FAULT
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["outcome"] == "fault"
    assert "unaligned" in row["diagnostic"]


def test_missing_program_exit_64(capsys):
    code, _, err = run_cli(capsys, "run", "--program", "/nonexistent.masm")
    assert code == EXIT_USAGE
    assert "cannot read" in err


def test_bad_flags_exit_64(capsys):
    code, _, _ = run_cli(capsys, "run", "--program", "x", "--cores", "three")
    assert code == EXIT_USAGE


# (argv, the flag or command the message names): a bad choice, an unknown
# flag and a missing value for each command, a missing required flag, and an
# unknown command
USAGE_ERRORS = [
    (["run", "--program", "x", "--hints", "maybe"], "--hints"),
    (["run", "--program", "x", "--bogus", "1"], "--bogus"),
    (["run", "--program", "x", "--cores"], "--cores"),
    (["sweep", "--format", "xml"], "--format"),
    (["sweep", "--bogus", "1"], "--bogus"),
    (["sweep", "--cores"], "--cores"),
    (["oracle", "--program", "x", "--bogus", "1"], "--bogus"),
    (["oracle", "--program"], "--program"),
    (["oracle"], "--program"),
    (["gen", "--bogus", "1"], "--bogus"),
    (["gen", "--out-dir"], "--out-dir"),
    (["bogus"], "bogus"),
]


@pytest.mark.parametrize("argv, named", USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_error_is_one_line_exit_64(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_invalid_program_exit_64(tmp_path, capsys):
    path = tmp_path / "bad.masm"
    path.write_text(".body main\n  create r1, r2, ghost, 0, 1, 1\n  halt\n")
    code, _, err = run_cli(capsys, "run", "--program", str(path))
    assert code == EXIT_USAGE
    assert "unknown entry" in err


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_zero_index_step_exit_64(tmp_path, capsys, command):
    # refused before any simulation: it is not a fault of the model
    path = tmp_path / "zero.masm"
    path.write_text(".body main\n  allocate r1, 0\n  create r2, r1, w, 0, 3, 0\n"
                    "  halt\n.body w\n  halt\n")
    code, out, err = run_cli(capsys, command, "--program", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {path}: create of 'w' has a zero index step\n"


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("line, message", [
    ("add r1, r2", "add takes 3 operand(s), got 2"),
    ("ld r1, 4[r2]", "expected imm(rN) memory operand, got '4[r2]'"),
    ("addi r1, r0, 0b101", "expected immediate, got '0b101'"),
    ("bogus r1", "unknown mnemonic 'bogus'")])
def test_malformed_assembly_exit_64(tmp_path, capsys, command, line,
                                    message):
    path = tmp_path / "bad.masm"
    path.write_text(f".body main\n  addi r1, r0, 1\n  {line}\n  halt\n")
    code, out, err = run_cli(capsys, command, "--program", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {path}: line 3: {message}\n"


@pytest.mark.parametrize("argv", [["run", "--program", "x"], ["sweep"]],
                         ids=["run", "sweep"])
def test_machine_flag_defaults_are_the_config_defaults(capsys, argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    values = [getattr(args, dest) for dest in _DESTS]
    if argv[0] == "sweep":
        # each default list starts with the config default
        values = [listed[0] for listed in values]
    assert _config(values, False) == ChipConfig()
    if argv[0] == "run":
        assert (args.cores, args.hints, args.coherency) == (1, "on", "eager")
    assert parser.parse_args(["oracle", "--program", "x"]).mem_bytes == \
        ChipConfig().mem_bytes
    # --help shows each default; the options section follows the usage line,
    # so each flag's entry there is the one kept
    code, out, _ = run_cli(capsys, argv[0], "--help")
    assert code == EXIT_OK
    shown = {seg.split()[0]: seg for seg in " ".join(out.split()).split(" --")}
    sweep_lists = {"--cores": "1,2,4,8", "--hints": "on,off",
                   "--coherency": "eager,bulk"}
    for flag, _, _, default, _ in MACHINE_FLAGS:
        if argv[0] == "sweep":
            default = sweep_lists.get(flag, default)
        assert shown[flag[2:]].endswith(f"(default: {default})"), flag


@pytest.mark.parametrize("command, flag, default", [
    ("oracle", "--mem-bytes", ChipConfig.mem_bytes),
    ("gen", "--starvation-cores", 2)])
def test_integer_flag_help_shows_its_default(capsys, command, flag, default):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == EXIT_OK
    shown = {seg.split()[0]: seg for seg in " ".join(out.split()).split(" --")}
    assert shown[flag[2:]].endswith(f"(default: {default})")


def test_main_runs_commands_in_turn_in_one_process(regular_masm, capsys):
    # main keeps one parser for the process; no command's flags may leak
    # into the next
    code, out, err = run_cli(capsys, "sweep", "--kernels", "chain", "--cores",
                             "1", "--hints", "on", "--coherency", "eager")
    assert code == EXIT_OK and err == ""
    assert [(r["kernel"], r["cores"], r["hints"], r["outcome"])
            for r in csv.DictReader(io.StringIO(out))] == \
        [("chain", "1", "on", "completed")]
    code, out, err = run_cli(capsys, "run", "--program", regular_masm,
                             "--cores", "2", "--hints", "off", "--format",
                             "json")
    assert code == EXIT_OK and err == ""
    record, = json.loads(out)
    assert (record["kernel"], record["cores"], record["hints"],
            record["outcome"]) == ("regular", 2, "off", "completed")
    code, out, err = run_cli(capsys, "run", "--program", regular_masm,
                             "--no-such-flag")
    assert code == EXIT_USAGE and out == ""
    assert "unrecognized arguments: --no-such-flag" in err
    code, out, err = run_cli(capsys, "run", "--program", regular_masm)
    assert code == EXIT_OK and err == ""
    row, = csv.DictReader(io.StringIO(out))
    assert (row["cores"], row["hints"], row["outcome"]) == \
        ("1", "on", "completed")


def test_run_json_format(regular_masm, capsys):
    code, out, _ = run_cli(capsys, "run", "--program", regular_masm,
                           "--format", "json")
    assert code == EXIT_OK
    records = json.loads(out)
    assert records[0]["outcome"] == "completed"


def test_run_trace_and_dump(regular_masm, tmp_path, capsys):
    trace = tmp_path / "t.trace"
    mem = tmp_path / "m.mem"
    code, _, _ = run_cli(capsys, "run", "--program", regular_masm,
                         "--trace", str(trace), "--dump-mem", str(mem))
    assert code == EXIT_OK
    lines = trace.read_text().splitlines()
    assert lines and all(len(l.split()) == 7 for l in lines)
    assert "=" in mem.read_text()


def test_sweep_row_count_and_determinism(capsys):
    args = ["sweep", "--kernels", "regular,chain", "--cores", "1,4",
            "--hints", "on,off", "--coherency", "eager,bulk"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2                     # byte-identical record streams
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert len(rows) == 2 * 2 * 2 * 2
    # deterministic cross-product order: kernel, cores, hints, coherency
    key = [(r["kernel"], r["cores"], r["hints"], r["coherency"]) for r in rows]
    assert key == sorted(key, key=lambda k: (k[0] != "regular", int(k[1]),
                                             k[2] != "on", k[3] != "eager"))


def test_sweep_memory_hash_constant_across_cores(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--kernels", "chain",
                           "--cores", "1,2,4,8", "--hints", "on",
                           "--coherency", "eager")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len({r["memory_hash"] for r in rows}) == 1
    assert len({r["cycles"] for r in rows}) > 1


def test_sweep_assembles_each_kernel_once(capsys, monkeypatch):
    # two kernels (one per core count) run under 2 hint settings x 2
    # coherency policies: 8 runs, 2 assemblies
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(hmtsim.kernels, "assemble", counting)
    code, out, _ = run_cli(capsys, "sweep", "--kernels", "starvation",
                           "--cores", "1,2", "--hints", "on,off",
                           "--coherency", "eager,bulk")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 1 + 8
    assert len(calls) == 2


def test_sweep_rejects_hints_other_than_on_off(capsys):
    code, out, err = run_cli(capsys, "sweep", "--kernels", "chain",
                             "--cores", "1", "--hints", "yes")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


# each --cores list and its first element that is not an ASCII decimal
MALFORMED_CORES = {"1,x": "x", "1,,2": "", "+4": "+4", "1_0": "1_0",
                   "\u0663": "\u0663", "4,": ""}


@pytest.mark.parametrize("cores", list(MALFORMED_CORES))
def test_sweep_malformed_cores_exit_64(capsys, cores):
    code, out, err = run_cli(capsys, "sweep", "--kernels", "chain",
                             "--cores", cores)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: --cores takes a decimal integer, "
                   f"got {MALFORMED_CORES[cores]!r}\n")


@pytest.mark.parametrize("cores, count", [("0", 0), ("2,-1", -1)])
def test_sweep_cores_below_one_name_the_flag(capsys, cores, count):
    code, out, err = run_cli(capsys, "sweep", "--kernels", "chain",
                             "--cores", cores)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: --cores must be >= 1, got {count}\n"


def test_sweep_records_carry_machine_flags(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--kernels", "chain",
                           "--cores", "1,2", "--coherency", "eager",
                           "--hop-latency", "3", "--d-lines", "8")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert all(r["hop_latency"] == "3" and r["d_lines"] == "8" for r in rows)


def records(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def test_sweep_latency_by_slots_table_is_one_command(capsys):
    # the regular kernel at p=1: utilization by D-miss latency (rows) and
    # thread slots (columns), as the ROADMAP's latency-tolerance table
    # gives it
    table = {5: [0.644, 0.856, 0.856, 0.856, 0.856, 0.856],
             20: [0.575, 0.797, 0.843, 0.843, 0.845, 0.844],
             80: [0.402, 0.512, 0.783, 0.830, 0.831, 0.831],
             320: [0.183, 0.202, 0.361, 0.600, 0.802, 0.830],
             1000: [0.072, 0.075, 0.143, 0.264, 0.452, 0.668]}
    code, out, err = run_cli(
        capsys, "sweep", "--kernels", "regular", "--cores", "1", "--hints",
        "on", "--coherency", "eager", "--thread-slots", "2,4,8,16,32,64",
        "--d-miss-latency", "5,20,80,320,1000")
    assert (code, err) == (EXIT_OK, "")
    rows = records(out)
    assert len(rows) == 30
    # --thread-slots comes before --d-miss-latency in the flag table, so
    # latency varies fastest
    assert [(r["thread_slots"], r["d_miss_latency"]) for r in rows[:6]] == \
        [("2", "5"), ("2", "20"), ("2", "80"), ("2", "320"), ("2", "1000"),
         ("4", "5")]
    got = {}
    for r in rows:
        got.setdefault(int(r["d_miss_latency"]), []).append(
            round(float(r["utilization"]), 3))
    assert got == table
    # the even N/P split's imbalance, makespan over ideal: cycles x cores /
    # commits on the heterogeneous kernel
    code, out, err = run_cli(capsys, "sweep", "--kernels", "heterogeneous",
                             "--cores", "2,4,8", "--hints", "on",
                             "--coherency", "eager")
    assert (code, err) == (EXIT_OK, "")
    assert {int(r["cores"]): round(int(r["cycles"]) * int(r["cores"])
                                   / int(r["commits"]), 3)
            for r in records(out)} == {2: 1.506, 4: 1.761, 8: 1.894}


def test_multi_axis_sweep_equals_its_cells_run_one_by_one(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--kernels", "loaduse:threads=2:fillers=3",
        "--cores", "2", "--hints", "on", "--coherency", "bulk",
        "--thread-slots", "2,8", "--hop-latency", "0,5")
    assert (code, err) == (EXIT_OK, "")
    rows = records(out)
    assert [(r["thread_slots"], r["hop_latency"]) for r in rows] == \
        [("2", "0"), ("2", "5"), ("8", "0"), ("8", "5")]
    assert {r["params"] for r in rows} == {"threads=2;iters=8;fillers=3"}
    masm = tmp_path / "lu.masm"
    masm.write_text(kernel_loaduse(threads=2, fillers=3).source)
    for row in rows:
        code, out, err = run_cli(
            capsys, "run", "--program", str(masm), "--cores", "2",
            "--hints", "on", "--coherency", "bulk", "--thread-slots",
            row["thread_slots"], "--hop-latency", row["hop_latency"])
        assert (code, err) == (EXIT_OK, "")
        single, = records(out)
        assert (single["kernel"], single["params"]) == ("lu", "")
        assert {**single, "kernel": row["kernel"],
                "params": row["params"]} == row


# the machine flags other than the outer axes --cores, --hints and
# --coherency, each with a sweep list whose second element is bad
NEWLY_LISTED = [
    (flag, f"{default},{'star' if flag == '--topology' else 'x'}")
    for flag, _, _, default, _ in MACHINE_FLAGS
    if flag not in ("--cores", "--hints", "--coherency")]


@pytest.mark.parametrize("flag, value", NEWLY_LISTED,
                         ids=[flag for flag, _ in NEWLY_LISTED])
def test_sweep_list_flag_refuses_a_bad_element(capsys, flag, value):
    code, out, err = run_cli(capsys, "sweep", "--kernels", "chain", flag,
                             value)
    assert (code, out) == (EXIT_USAGE, "")
    takes = "ring or line" if flag == "--topology" else "a decimal integer"
    bad = value.split(",")[1]
    assert err == f"error: {flag} takes {takes}, got {bad!r}\n"


def no_run(*args):
    raise AssertionError("a cell ran before the sweep was checked")


@pytest.mark.parametrize("element, message", [
    ("regular:m=1", "--kernels regular has no parameter 'm' "
     "(it has n, a, b, x_scale, x_offset)"),
    ("regular:n=x", "--kernels regular:n takes a decimal integer, got 'x'"),
    ("starvation:p=2", "--kernels starvation takes its core count from "
     "--cores and no parameters, got 'starvation:p=2'"),
    ("regular:n=4000", "regular: x[] of n=4000 reaches out[]"),
    ("regular:n=-1", "regular: n must be >= 0, got -1"),
    ("regular:n=1:n=2", "--kernels regular gives parameter 'n' more than "
     "once")],
    ids=["unknown-parameter", "not-decimal", "starvation-p", "generator",
         "generator-least", "repeated-parameter"])
def test_sweep_bad_kernel_element_exit_64_before_running(
        capsys, monkeypatch, element, message):
    monkeypatch.setattr(cli, "run", no_run)
    code, out, err = run_cli(capsys, "sweep", "--kernels",
                             f"chain,{element}", "--cores", "1", "--hints",
                             "on", "--coherency", "eager")
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_sweep_trace_names_carry_parameters_and_listed_flags(tmp_path,
                                                             capsys):
    # the four outer axes name every file
    plain, listed = tmp_path / "plain", tmp_path / "listed"
    plain.mkdir()
    listed.mkdir()
    code, _, _ = run_cli(capsys, "sweep", "--kernels", "chain", "--cores",
                         "1,2", "--hints", "on,off", "--coherency", "eager",
                         "--hop-latency", "3", "--trace-dir", str(plain))
    assert code == EXIT_OK
    assert sorted(p.name for p in plain.iterdir()) == [
        "chain_p1_hints_off_eager.trace", "chain_p1_hints_on_eager.trace",
        "chain_p2_hints_off_eager.trace", "chain_p2_hints_on_eager.trace"]
    # an element's parameters and each other flag with more than one value
    # are added
    code, out, _ = run_cli(capsys, "sweep", "--kernels", "chain,chain:n=10",
                           "--cores", "1", "--hints", "on", "--coherency",
                           "eager", "--thread-slots", "2,4", "--trace-dir",
                           str(listed))
    assert code == EXIT_OK and len(records(out)) == 4
    assert sorted(p.name for p in listed.iterdir()) == [
        "chain_n10_p1_hints_on_eager_thread-slots2.trace",
        "chain_n10_p1_hints_on_eager_thread-slots4.trace",
        "chain_p1_hints_on_eager_thread-slots2.trace",
        "chain_p1_hints_on_eager_thread-slots4.trace"]


def test_sweep_two_cells_one_trace_file_exit_64_before_running(tmp_path,
                                                               capsys,
                                                               monkeypatch):
    monkeypatch.setattr(cli, "run", no_run)
    code, out, err = run_cli(capsys, "sweep", "--kernels", "chain,chain",
                             "--cores", "1", "--hints", "on", "--coherency",
                             "eager", "--trace-dir", str(tmp_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("error: --trace-dir: two cells would write "
                   "chain_p1_hints_on_eager.trace\n")
    assert not any(tmp_path.iterdir())


def test_oracle_command_matches_expected_file(tmp_path, capsys):
    spec = kernel_regular(n=8)
    masm = tmp_path / "r.masm"
    masm.write_text(spec.source)
    code, out, _ = run_cli(capsys, "oracle", "--program", str(masm))
    assert code == EXIT_OK
    assert out == dump_image_text(spec.expected_image())


def test_gen_writes_corpus(tmp_path, capsys):
    out_dir = tmp_path / "kernels"
    code, _, _ = run_cli(capsys, "gen", "--out-dir", str(out_dir))
    assert code == EXIT_OK
    names = {p.name for p in out_dir.iterdir()}
    for kernel in ("regular", "heterogeneous", "chain", "loaduse",
                   "starvation_ok"):
        assert f"{kernel}.masm" in names and f"{kernel}.expected" in names


def test_gen_corpus_round_trips_through_oracle(tmp_path, capsys):
    # every written source assembles, validates, and the oracle's image of
    # it is the .expected file written beside it
    code, _, _ = run_cli(capsys, "gen", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    expected = sorted(tmp_path.glob("*.expected"))
    assert len(expected) == 5
    for exp in expected:
        name = exp.name.removesuffix(".expected")
        program = assemble((tmp_path / f"{name}.masm").read_text(), name=name)
        assert validate(program) == [], name
        image = sequential_oracle(program).final_memory
        assert dump_image_text(image) == exp.read_text(), name


def test_init_mem_round_trip(tmp_path, capsys):
    prog = tmp_path / "p.masm"
    prog.write_text(
        ".body main\n  addi r1, r0, 0x40\n  ld r2, 0(r1)\n"
        "  add r3, r2, r2\n  st r3, 4(r1)\n  halt\n")
    init = tmp_path / "init.mem"
    init.write_text("0x00000040=21\n")
    dump = tmp_path / "out.mem"
    code, _, _ = run_cli(capsys, "run", "--program", str(prog),
                         "--init-mem", str(init), "--dump-mem", str(dump))
    assert code == EXIT_OK
    assert "0x00000044=42" in dump.read_text()


def test_gen_reproduces_checked_in_kernels(tmp_path, capsys):
    kernels = Path(__file__).resolve().parent.parent / "kernels"
    code, _, _ = run_cli(capsys, "gen", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    made = sorted(p.name for p in tmp_path.iterdir())
    assert made == sorted(p.name for p in kernels.iterdir())
    for name in made:
        assert (tmp_path / name).read_bytes() == (kernels / name).read_bytes(), name


INVALID_MACHINE_CONFIGS = [
    ("--cores", "0"), ("--cores", "-2"), ("--watchdog", "0"),
    ("--watchdog", "-1"), ("--line-bytes", "3"),
    ("--d-miss-latency", "0"), ("--thread-slots", "0"),
    ("--hop-latency", "-1"), ("--mem-bytes", "3"), ("--mem-bytes", "0"),
    ("--mem-bytes", "-4"), ("--mem-bytes", "2147483649"),
    ("--mem-bytes", "99999999999999"), ("--d-lines", "0"),
    ("--i-lines", "0"), ("--i-miss-latency", "0")]


@pytest.mark.parametrize("command, flag, value", [
    pytest.param(command, flag, value, id=f"{flag}-{value}"
                 if command == "run" else f"sweep-{flag}-{value}")
    for command in ("run", "sweep") for flag, value in INVALID_MACHINE_CONFIGS])
def test_invalid_machine_config_exit_64(regular_masm, capsys, command, flag,
                                        value):
    # one error line that names the flag, as a malformed value's does
    source = {"run": ["--program", regular_masm],
              "sweep": ["--kernels", "chain"]}[command]
    code, out, err = run_cli(capsys, command, *source, flag, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {flag} must be ") and \
        err.endswith(f", got {value}\n") and err.count("\n") == 1, err


@pytest.mark.parametrize("value", ["3", "0", "-4", "2147483649",
                                   "99999999999999"])
def test_invalid_machine_config_oracle_mem_bytes_exit_64(capsys, value):
    # refused before the program is read or any image allocated: x names no
    # file, which would otherwise be the first error
    code, out, err = run_cli(capsys, "oracle", "--program", "x",
                             "--mem-bytes", value)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: --mem-bytes must be 4 to 2147483648, got {value}\n"


# every integer flag, with arguments that reach it; --program x names no file,
# which would be the first error after a successful parse
INTEGER_FLAGS = [
    (command, flag) for command in ("run", "sweep")
    for flag, _, _, default, _ in MACHINE_FLAGS if isinstance(default, int)
] + [("oracle", "--mem-bytes"), ("gen", "--starvation-cores")]


@pytest.mark.parametrize("value", ["+2", "1_000", "\u0662", " 3", "0x10",
                                   "x", ""])
@pytest.mark.parametrize("command, flag", INTEGER_FLAGS,
                         ids=[" ".join(cf) for cf in INTEGER_FLAGS])
def test_malformed_integer_flag_exit_64(tmp_path, capsys, command, flag,
                                        value):
    # ASCII decimal only, as the assembler and sweep's --cores read it:
    # argparse's int() would take a sign, underscores, spaces and
    # non-ASCII digits
    out_dir = tmp_path / "out"
    argv = {"run": ["--program", "x"], "sweep": ["--kernels", "chain"],
            "oracle": ["--program", "x"], "gen": ["--out-dir", str(out_dir)]}
    code, out, err = run_cli(capsys, command, *argv[command], flag, value)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {flag} takes a decimal integer, got {value!r}\n"
    assert not out_dir.exists()


def test_invalid_config_exit_64_under_optimize(regular_masm):
    # the checks are not asserts, so python -O keeps them
    src = Path(hmtsim.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "hmtsim.cli", "run", "--program",
         regular_masm, "--cores", "0"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr == "error: --cores must be >= 1, got 0\n"


def assert_one_error_line(code, out, err):
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("name, image", [
    ("high.mem", "0x00100000=5\n"), ("negative.mem", "-4=5\n"),
    ("unaligned.mem", "0x42=5\n"), ("oversize.bin", bytes((1 << 20) + 4)),
    ("wide.mem", "0x40=0x100000005\n"), ("below.mem", "0x40=-0x80000001\n"),
    ("", None)],
    ids=["high", "negative", "unaligned", "oversize-bin", "wide-value",
         "below-int32", "empty-path"])
def test_init_mem_that_does_not_fit_exit_64(regular_masm, tmp_path, capsys,
                                            command, name, image):
    # an empty path is passed as it is: it names no file
    path = tmp_path / name if name else ""
    if isinstance(image, bytes):
        path.write_bytes(image)
    elif image is not None:
        path.write_text(image)
    assert_one_error_line(*run_cli(capsys, command, "--program", regular_masm,
                                   "--init-mem", str(path)))


# (command, flag, path): a file in a missing directory, and the empty path,
# which names no file at all
UNWRITABLE_OUTPUTS = [
    (command, flag, path) for path in ("missing/out", "")
    for command, flag in [("run", "--trace"), ("run", "--dump-mem"),
                          ("oracle", "--dump-mem")]]


@pytest.mark.parametrize(
    "command, flag, path", UNWRITABLE_OUTPUTS,
    ids=[f"{command}-{flag}" + ("" if path else "-empty-path")
         for command, flag, path in UNWRITABLE_OUTPUTS])
def test_unwritable_output_exit_64(regular_masm, tmp_path, capsys, command,
                                   flag, path):
    target = str(tmp_path / path) if path else ""
    assert_one_error_line(*run_cli(capsys, command, "--program", regular_masm,
                                   flag, target))


def test_gen_out_dir_under_regular_file_exit_64(tmp_path, capsys):
    blocker = tmp_path / "regular.masm"
    blocker.write_text("")
    assert_one_error_line(*run_cli(capsys, "gen", "--out-dir",
                                   str(blocker / "sub")))


@pytest.mark.parametrize("cores", ["0", "-3"])
def test_gen_starvation_cores_below_one_exit_64_writing_nothing(tmp_path,
                                                                capsys, cores):
    out_dir = tmp_path / "out"
    assert_one_error_line(*run_cli(capsys, "gen", "--out-dir", str(out_dir),
                                   "--starvation-cores", cores))
    assert not out_dir.exists()


def test_sweep_missing_trace_dir_exit_64_before_running(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(cli, "run", no_run)
    assert_one_error_line(*run_cli(capsys, "sweep", "--kernels", "chain",
                                   "--cores", "1", "--trace-dir",
                                   str(tmp_path / "missing")))
