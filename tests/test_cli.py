import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hmtsim

from hmtsim.cli import (EXIT_DEADLOCK, EXIT_FAULT, EXIT_OK, EXIT_USAGE,
                        MACHINE_FLAGS, RECORD_FIELDS, _config_from_args,
                        build_parser, main)
from hmtsim.isa import assemble, validate
from hmtsim.kernels import kernel_regular, kernel_starvation
from hmtsim.memory import dump_image_text
from hmtsim.oracle import sequential_oracle
from hmtsim.sim import ChipConfig


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
    assert _config_from_args(args, 1, "on", "eager", False) == ChipConfig()
    if argv[0] == "run":
        assert (args.cores, args.hints, args.coherency) == (1, "on", "eager")
    assert parser.parse_args(["oracle", "--program", "x"]).mem_bytes == \
        ChipConfig().mem_bytes
    # --help shows each default; the options section follows the usage line,
    # so each flag's entry there is the one kept
    code, out, _ = run_cli(capsys, argv[0], "--help")
    assert code == EXIT_OK
    shown = {seg.split()[0]: seg for seg in " ".join(out.split()).split(" --")}
    for flag, default, _ in MACHINE_FLAGS:
        assert shown[flag[2:]].endswith(f"(default: {default})"), flag
    assert shown["cores"].endswith(f"(default: {args.cores})")


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


def test_sweep_rejects_hints_other_than_on_off(capsys):
    code, out, err = run_cli(capsys, "sweep", "--kernels", "chain",
                             "--cores", "1", "--hints", "yes")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("cores", ["1,x", "1,,2", "+4", "1_0", "\u0663",
                                   "4,"])
def test_sweep_malformed_cores_exit_64(capsys, cores):
    code, out, err = run_cli(capsys, "sweep", "--kernels", "chain",
                             "--cores", cores)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: --cores takes a comma list of decimal core "
                   f"counts, got {cores!r}\n")


@pytest.mark.parametrize("cores, count", [("0", 0), ("2,-1", -1)])
def test_sweep_cores_below_one_keep_the_config_message(capsys, cores, count):
    code, out, err = run_cli(capsys, "sweep", "--kernels", "chain",
                             "--cores", cores)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: core count must be >= 1, got {count}\n"


def test_sweep_records_carry_machine_flags(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--kernels", "chain",
                           "--cores", "1,2", "--coherency", "eager",
                           "--hop-latency", "3", "--d-lines", "8")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert all(r["hop_latency"] == "3" and r["d_lines"] == "8" for r in rows)


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


@pytest.mark.parametrize("flag,value", [
    ("--cores", "0"), ("--cores", "-2"), ("--watchdog", "0"),
    ("--watchdog", "-1"), ("--line-bytes", "3"),
    ("--d-miss-latency", "0"), ("--thread-slots", "0"),
    ("--hop-latency", "-1")])
def test_invalid_machine_config_exit_64(regular_masm, capsys, flag, value):
    code, out, err = run_cli(capsys, "run", "--program", regular_masm,
                             flag, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


# every integer flag, with arguments that reach it; --program x names no file,
# which would be the first error after a successful parse
INTEGER_FLAGS = [("run", "--cores")] + [
    (command, flag) for command in ("run", "sweep")
    for flag, _, _ in MACHINE_FLAGS] + [
    ("oracle", "--mem-bytes"), ("gen", "--starvation-cores")]


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
    assert proc.stderr == "error: core count must be >= 1, got 0\n"


def assert_one_error_line(code, out, err):
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("name, image", [
    ("high.mem", "0x00100000=5\n"), ("negative.mem", "-4=5\n"),
    ("unaligned.mem", "0x42=5\n"), ("oversize.bin", bytes((1 << 20) + 4)),
    ("wide.mem", "0x40=0x100000005\n"), ("below.mem", "0x40=-0x80000001\n")],
    ids=["high", "negative", "unaligned", "oversize-bin", "wide-value",
         "below-int32"])
def test_init_mem_that_does_not_fit_exit_64(regular_masm, tmp_path, capsys,
                                            command, name, image):
    path = tmp_path / name
    if isinstance(image, bytes):
        path.write_bytes(image)
    else:
        path.write_text(image)
    assert_one_error_line(*run_cli(capsys, command, "--program", regular_masm,
                                   "--init-mem", str(path)))


@pytest.mark.parametrize("command, flag", [
    ("run", "--trace"), ("run", "--dump-mem"), ("oracle", "--dump-mem")])
def test_unwritable_output_exit_64(regular_masm, tmp_path, capsys, command,
                                   flag):
    assert_one_error_line(*run_cli(capsys, command, "--program", regular_masm,
                                   flag, str(tmp_path / "missing" / "out")))


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
    import hmtsim.cli as cli

    def no_run(*args):
        raise AssertionError("a cell ran before the trace directory was checked")

    monkeypatch.setattr(cli, "run", no_run)
    assert_one_error_line(*run_cli(capsys, "sweep", "--kernels", "chain",
                                   "--cores", "1", "--trace-dir",
                                   str(tmp_path / "missing")))
