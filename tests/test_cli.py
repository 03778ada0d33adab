from __future__ import annotations

import errno
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import protoforge
from protoforge.cli import main
from protoforge.encoder import encode
from protoforge.model import parse_spec
from protoforge.sim import run_baseline
from protoforge.smt import SmtDocument, emit_smtlib
from protoforge.solver import min_horizon, solve
from protoforge.trace import read_trace, validate, write_trace
from conftest import make_spec

LINE3 = """\
# three nodes in a line, one packet
processes = 3
packets = 1
horizon = 2
source = 0
topology = line
liveness = off
goal = all-know-all
"""

TIGHT = """\
processes = 2
packets = 2
horizon = 1
source = 0
topology = all
liveness = off
goal = all-know-all
"""


@pytest.fixture()
def line3(tmp_path):
    path = tmp_path / "line3.net"
    path.write_text(LINE3)
    return str(path)


# The fan-out bound decides line3 at horizons 0 and 1 without visiting a
# node; here horizon 0 is cut at the root and horizon 1 needs a search.
ALL3 = """\
processes = 3
packets = 1
horizon = 2
source = 0
topology = all
liveness = off
goal = all-know-all
"""


@pytest.fixture()
def all3(tmp_path):
    path = tmp_path / "all3.net"
    path.write_text(ALL3)
    return str(path)


@pytest.fixture()
def tight(tmp_path):
    path = tmp_path / "tight.net"
    path.write_text(TIGHT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_block(out):
    return json.loads(out[out.index("{"):])


def test_synth_validate_round_trip(capsys, line3, tmp_path):
    out_path = str(tmp_path / "t.json")
    code, out, _ = run_cli(capsys, "synth", line3, "--out", out_path)
    assert code == 0
    assert out.startswith("sat")
    trace = read_trace(Path(out_path).read_text())
    assert validate(trace) == []
    code, out, _ = run_cli(capsys, "validate", out_path)
    assert code == 0
    assert out == ""


def test_synth_prints_schedule_without_out(capsys, line3):
    code, out, _ = run_cli(capsys, "synth", line3)
    assert code == 0
    assert "t=0: tx:1 listen sleep" in out
    assert "t=1: sleep tx:1 listen" in out


def test_synth_json_block(capsys, line3, tmp_path):
    code, out, _ = run_cli(capsys, "synth", line3, "--out", str(tmp_path / "t.json"), "--json")
    assert code == 0
    block = machine_block(out)
    assert block["status"] == "sat"
    assert block["trace"]["actions"][0] == ["tx:1", "listen", "sleep"]


def test_synth_unsat_exit_and_core(capsys, tight):
    code, out, _ = run_cli(capsys, "synth", tight)
    assert code == 1
    assert out.splitlines()[0] == "unsat"
    assert "GOAL_Deadline" in out and "R7_CollisionFreeLearning" in out


def test_synth_budget_exit(capsys, line3):
    code, _, err = run_cli(capsys, "synth", line3, "--node-limit", "2")
    assert code == 5
    assert "budget" in err


def test_min_horizon_found(capsys, line3, tmp_path):
    out_path = str(tmp_path / "mh.json")
    code, out, _ = run_cli(capsys, "min-horizon", line3, "--max", "4", "--out", out_path, "--json")
    assert code == 0
    assert "t_min: 2" in out
    block = machine_block(out)
    assert block == {**block, "found": True, "t_min": 2}
    assert read_trace(Path(out_path).read_text()).spec.horizon == 2


def test_min_horizon_not_found(capsys, line3):
    code, out, _ = run_cli(capsys, "min-horizon", line3, "--max", "1")
    assert code == 1
    assert "no feasible horizon" in out


def test_min_horizon_budget(capsys, all3):
    code, _, err = run_cli(capsys, "min-horizon", all3, "--max", "4", "--node-limit", "1")
    assert code == 5
    assert "horizon 1" in err


def test_validate_reports_violations(capsys, line3, tmp_path):
    out_path = str(tmp_path / "t.json")
    run_cli(capsys, "synth", line3, "--out", out_path)
    doc = json.loads(Path(out_path).read_text())
    doc["actions"][1][1] = "sleep"
    del doc["knowledge"]
    bad_path = str(tmp_path / "bad.json")
    Path(bad_path).write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", bad_path, "--json")
    assert code == 2
    assert "GOAL_Deadline" in out
    block = machine_block(out)
    assert block["ok"] is False
    assert any(v["label"] == "GOAL_Deadline" for v in block["violations"])


def test_unsat_core_taxonomy_order(capsys, tight):
    code, out, _ = run_cli(capsys, "unsat-core", tight)
    assert code == 1
    assert out.splitlines() == ["R7_CollisionFreeLearning", "GOAL_Deadline"]


def test_unsat_core_on_sat_instance(capsys, line3):
    code, out, _ = run_cli(capsys, "unsat-core", line3)
    assert code == 0
    assert "sat (no unsat core)" in out


def test_unsat_core_decides_the_base_system_once(capsys, tight, monkeypatch):
    from protoforge import cli, solver
    from protoforge.encoder import encode
    from protoforge.model import STRUCTURAL_LABELS, parse_spec

    calls = []
    real_solve = solver.solve

    def counting_solve(cs, config=None):
        calls.append(cs.enabled)
        return real_solve(cs, config)

    monkeypatch.setattr(solver, "solve", counting_solve)
    monkeypatch.setattr(cli, "solve", counting_solve)
    assert run_cli(capsys, "unsat-core", tight)[0] == 1
    trials = encode(parse_spec(TIGHT)).enabled - STRUCTURAL_LABELS
    assert len(calls) == 1 + len(trials)


COMMANDS = ("synth", "min-horizon", "validate", "unsat-core", "emit-smt", "simulate",
            "baseline", "compare")


def test_usage_errors(capsys, line3):
    choices = ", ".join(map(repr, COMMANDS))
    for argv, line in [
        ([], "a subcommand is required"),
        (["--bogus"], "unrecognized arguments: --bogus"),
        (["--json", "synth", line3], "unrecognized arguments: --json"),
        (["frobnicate", line3], f"argument command: invalid choice: 'frobnicate' (choose from {choices})"),
        (["synth"], "the following arguments are required: spec"),
        (["min-horizon"], "the following arguments are required: spec, --max"),
        (["min-horizon", line3], "the following arguments are required: --max"),
        (["min-horizon", line3, "--max", "-1"], "argument --max: must be >= 0, got -1"),
        (["synth", line3, "--bogus"], "unrecognized arguments: --bogus"),
        (["synth", line3, "extra", "--bogus=1"], "unrecognized arguments: extra --bogus=1"),
        (["synth", line3, "--out"], "argument --out: expected one argument"),
        (["synth", line3, "--out", "--json"], "argument --out: expected one argument"),
        # a flag is spelled in full: a prefix of one is an unknown option
        (["synth", line3, "--node", "5"], "unrecognized arguments: --node 5"),
    ]:
        assert run_cli(capsys, *argv) == (3, "", f"usage error: {line}\n"), argv


@pytest.mark.parametrize(
    "flags, message",
    [
        (["synth", "--node-limit", "0"], "must be >= 1"),
        (["compare", "--node-limit", "-2"], "must be >= 1"),
        (["unsat-core", "--node-limit", "x"], "invalid int value: 'x'"),
        (["min-horizon", "--max", "-1"], "must be >= 0"),
        (["baseline", "--pw", "-1"], "must be >= 0"),
        (["baseline", "--max-slots", "-1"], "must be >= 0"),
        (["emit-smt", "--timeout", "0"], "must be > 0"),
        (["emit-smt", "--timeout", "soon"], "invalid float value: 'soon'"),
        (["emit-smt", "--solver", "/bin/cat", "--timeout", "inf"], "must be <= 1000000"),
        (["emit-smt", "--solver", "/bin/cat", "--timeout", "1e308"], "must be <= 1000000"),
        (["emit-smt", "--solver", "/bin/cat", "--timeout", "3e6"], "must be <= 1000000"),
        (["emit-smt", "--solver", "/bin/cat", "--timeout", "1e10"], "must be <= 1000000"),
        (["synth", "--node-limit", "0"], "argument --node-limit: must be >= 1, got 0"),
        (["synth", "--node-limit=0"], "argument --node-limit: must be >= 1, got 0"),
        (["unsat-core", "--node-limit", "x"], "argument --node-limit: invalid int value: 'x'"),
        (["synth", "--bogus", "--node-limit", "5"], "unrecognized arguments: --bogus"),
        (["synth", "extra"], "unrecognized arguments: extra"),
        (["synth", "--node-limit", "5", "--out"], "argument --out: expected one argument"),
        (["baseline", "--max", "2"], "unrecognized arguments: --max 2"),
    ],
)
def test_bad_flag_values_are_usage_errors(capsys, line3, flags, message):
    command, *rest = flags
    code, out, err = run_cli(capsys, command, line3, *rest)
    assert (code, out) == (3, "")
    assert err.startswith("usage error: ") and message in err
    assert err.count("\n") == 1


def test_out_equals_form_writes_the_same_bytes(capsys, line3, tmp_path):
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert run_cli(capsys, "synth", line3, "--out", str(spaced))[0] == 0
    assert run_cli(capsys, "synth", line3, f"--out={joined}")[0] == 0
    assert joined.read_bytes() == spaced.read_bytes()


def test_options_go_on_either_side_of_the_positional(capsys, line3):
    after = run_cli(capsys, "synth", line3, "--json")
    assert after[0] == 0 and machine_block(after[1])["status"] == "sat"
    assert run_cli(capsys, "synth", "--json", line3) == after
    assert run_cli(capsys, "synth", "--node-limit", "100", "--json", "--", line3) == after
    # after "--" every argument is positional, so this --json is an extra one
    assert run_cli(capsys, "synth", "--", line3, "--json")[2] == (
        "usage error: unrecognized arguments: --json\n")


def test_a_repeated_option_keeps_its_last_value(capsys, all3):
    assert run_cli(capsys, "synth", all3, "--node-limit", "1", "--node-limit", "100")[0] == 0
    assert run_cli(capsys, "synth", all3, "--node-limit", "100", "--node-limit", "1")[0] == 5


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["synth", "--help"], ["validate", "x", "-h"]])
def test_help_lists_every_command(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    listing = out[out.index("\nCommands:\n"):].splitlines()
    listed = [line.split()[0] for line in listing if line[:3].strip() and line[:2] == "  "]
    assert listed == list(COMMANDS)
    assert "  min-horizon spec --max [--out] [--node-limit]\n" in out


def test_importing_the_cli_leaves_argparse_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import protoforge.cli, sys; print('argparse' in sys.modules)"],
        capture_output=True,
        text=True,
        cwd=Path(protoforge.__file__).parent.parent,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("command", ["synth", "emit-smt", "baseline", "compare"])
def test_a_crlf_spec_reads_as_its_lf_twin(capsys, line3, tmp_path, command):
    crlf = tmp_path / "crlf.net"
    crlf.write_bytes(LINE3.replace("\n", "\r\n").encode())
    assert run_cli(capsys, command, str(crlf)) == run_cli(capsys, command, line3)


def test_a_malformed_crlf_trace_counts_each_line_end_as_one_char(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"spec": \r\n 1,\r\n x}')
    assert run_cli(capsys, "validate", str(path)) == (4, "", (
        "error: not valid JSON: Expecting property name enclosed in double quotes: "
        "line 3 column 2 (char 15)\n"))


def test_a_directory_input_names_its_path(capsys, tmp_path):
    assert run_cli(capsys, "synth", str(tmp_path)) == (
        4, "", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")


def test_a_bad_utf8_byte_is_reported_at_its_offset(capsys, tmp_path):
    path = tmp_path / "bad.net"
    path.write_bytes(b"#" * 20000 + b"\xff\n")
    assert run_cli(capsys, "synth", str(path)) == (4, "", (
        "error: 'utf-8' codec can't decode byte 0xff in position 20000: invalid start byte\n"))


def test_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "synth", str(tmp_path / "absent.net"))
    assert code == 4
    assert "error" in err


def test_malformed_spec_is_io_error(capsys, tmp_path):
    path = tmp_path / "broken.net"
    path.write_text("processes = many\n")
    code, _, err = run_cli(capsys, "synth", str(path))
    assert code == 4
    assert "line 1" in err


def test_deeply_nested_trace_is_io_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (4, "")
    assert "nested too deeply" in err and "internal error" not in err


# A one-line trace whose spec claims 1,864,135 packets (under the fact cap
# at P=3, T=2) next to a one-cell knowledge grid. Deriving its knowledge
# before checking the grid's shape took about 20 s.
OVERSIZED_PACKETS_TRACE = (
    '{"spec": {"processes": 3, "packets": 1864135, "horizon": 2, "source": 0, '
    '"topology": "line", "liveness": "off", "goal": "all-know-all"}, '
    '"actions": [["tx:1", "listen", "sleep"], ["sleep", "tx:1", "listen"]], '
    '"knowledge": [[[true]]]}'
)


def test_misshapen_knowledge_grid_is_rejected_before_deriving_knowledge(capsys, tmp_path):
    path = tmp_path / "oversized.json"
    path.write_text(OVERSIZED_PACKETS_TRACE)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "validate", str(path))
    assert time.perf_counter() - started < 2.0
    assert (code, out) == (4, "")
    assert "knowledge grid malformed" in err


def test_validate_caps_the_packet_lists_it_prints(capsys, tmp_path):
    # without a grid the trace reads; every process but the source then
    # misses 1,864,134 packets at the deadline
    doc = json.loads(OVERSIZED_PACKETS_TRACE)
    del doc["knowledge"]
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and err == ""
    assert len(out.encode()) < 4096
    assert out.splitlines() == [
        f"GOAL_Deadline t=2,p={p}: process {p} misses packet(s) "
        "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11, ...] (1864134 packets) at the deadline t=2"
        for p in (1, 2)
    ]


def test_simulate_counts_delivered_packets_per_distinct_mask(capsys, tmp_path, monkeypatch):
    # tabulating the 1,864,135-packet delivered row as booleans to count
    # each process's packets took seconds; the text report needs no table
    doc = json.loads(OVERSIZED_PACKETS_TRACE)
    del doc["knowledge"]
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(doc))

    def no_table(*args):
        raise AssertionError("the text report tabulated a knowledge row")

    monkeypatch.setattr("protoforge.sim.knowledge_table", no_table)
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [
        "completed: no",
        "delivered: p0:1864135/1864135 p1:1/1864135 p2:1/1864135",
    ]


def test_emit_smt_stdout(capsys, line3):
    code, out, _ = run_cli(capsys, "emit-smt", line3)
    assert code == 0
    assert "(set-logic QF_UFLIA)" in out
    assert "(check-sat)" in out


def test_emit_smt_writes_file(capsys, line3, tmp_path):
    out_path = str(tmp_path / "doc.smt2")
    code, out, _ = run_cli(capsys, "emit-smt", line3, "--out", out_path)
    assert code == 0
    assert "(exit)" in Path(out_path).read_text()
    assert "(set-logic" not in out


@pytest.mark.parametrize("to_file", [True, False], ids=["--out", "stdout"])
def test_emit_smt_writes_the_blocks_without_joining_the_text(capsys, line3, tmp_path, monkeypatch, to_file):
    from protoforge.smt import emit_smtlib

    emitted = []

    def recorded(spec):
        emitted.append(emit_smtlib(spec))
        return emitted[-1]

    monkeypatch.setattr("protoforge.cli.emit_smtlib", recorded)
    path = tmp_path / "doc.smt2"
    code, out, _ = run_cli(capsys, "emit-smt", line3, *(["--out", str(path)] if to_file else []))
    [doc] = emitted
    assert code == 0
    assert "text" not in doc.__dict__ and "assertions" not in doc.__dict__
    assert (path.read_text(encoding="utf-8") if to_file else out) == doc.text


# the --out commands, each with the arguments it needs besides the spec
OUT_COMMANDS = {"emit-smt": [], "synth": [], "min-horizon": ["--max", "2"]}


def _expected_out(command, spec_path):
    spec = parse_spec(Path(spec_path).read_text())
    if command == "emit-smt":
        return emit_smtlib(spec).text
    if command == "synth":
        return write_trace(solve(encode(spec)).trace)
    return write_trace(min_horizon(spec, 2)[1])


@pytest.mark.parametrize("command", OUT_COMMANDS)
@pytest.mark.parametrize("extra", [5000, -20, 0], ids=["longer", "shorter", "same-length"])
def test_out_overwrites_an_existing_file_with_exactly_the_new_output(capsys, line3, tmp_path, command, extra):
    expected = _expected_out(command, line3).encode("utf-8")
    path = tmp_path / "out"
    path.write_bytes(b"x" * (len(expected) + extra))
    code, out, err = run_cli(capsys, command, line3, *OUT_COMMANDS[command], "--out", str(path))
    assert (code, err) == (0, "")
    assert out.endswith(f"wrote {path}\n")
    assert path.read_bytes() == expected


@pytest.mark.parametrize("command", ["emit-smt", "synth"])
def test_out_is_opened_once_without_truncating(capsys, line3, tmp_path, monkeypatch, command):
    path = tmp_path / "out"
    path.write_text("x" * 5000)
    opened = []
    real_open = os.open

    def recording(file, flags, *args, **kwargs):
        opened.append((os.fspath(file), flags))
        return real_open(file, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    assert run_cli(capsys, command, line3, "--out", str(path))[0] == 0
    [flags] = [flags for name, flags in opened if name == str(path)]
    assert flags & os.O_CREAT and not flags & os.O_TRUNC


@pytest.mark.parametrize("command", ["emit-smt", "synth"])
def test_out_to_dev_null(capsys, line3, command):
    code, out, err = run_cli(capsys, command, line3, "--out", os.devnull)
    assert (code, err) == (0, "")
    assert out.endswith(f"wrote {os.devnull}\n")


def test_a_failed_write_leaves_only_the_prefix_that_reached_the_file(capsys, line3, tmp_path, monkeypatch):
    def failing(self, fh):
        fh.write(self.text[:100])
        raise OSError("disk full")

    monkeypatch.setattr(SmtDocument, "write", failing)
    path = tmp_path / "doc.smt2"
    path.write_text("x" * 100_000)
    assert run_cli(capsys, "emit-smt", line3, "--out", str(path)) == (4, "", "error: disk full\n")
    assert path.read_text(encoding="utf-8") == _expected_out("emit-smt", line3)[:100]


@pytest.mark.parametrize("command", ["emit-smt", "synth"])
def test_a_new_out_file_gets_the_mode_the_umask_leaves(capsys, line3, tmp_path, command):
    path = tmp_path / "out"
    umask = os.umask(0o027)
    try:
        code = run_cli(capsys, command, line3, "--out", str(path))[0]
    finally:
        os.umask(umask)
    assert code == 0
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


@pytest.mark.parametrize("command", ["emit-smt", "synth"])
def test_an_existing_out_file_keeps_its_inode_and_mode(capsys, line3, tmp_path, command):
    path = tmp_path / "out"
    path.write_text("x" * 5000)
    path.chmod(0o600)
    before = path.stat()
    assert run_cli(capsys, command, line3, "--out", str(path))[0] == 0
    after = path.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o600)
    assert path.read_text(encoding="utf-8") == _expected_out(command, line3)


@pytest.mark.parametrize("command", ["emit-smt", "synth"])
@pytest.mark.parametrize("target, code", [("missing/out", errno.ENOENT), ("", errno.EISDIR)],
                         ids=["missing-directory", "directory"])
def test_an_unwritable_out_is_an_io_error(capsys, line3, tmp_path, command, target, code):
    path = str(tmp_path / target)
    exit_code, _, err = run_cli(capsys, command, line3, "--out", path)
    assert exit_code == 4
    assert err == f"error: [Errno {code}] {os.strerror(code)}: {path!r}\n"


def _fake_solver(tmp_path, body):
    path = tmp_path / "fake.sh"
    path.write_text("#!/bin/sh\ncat > /dev/null\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def _full_sat_reply(tmp_path):
    from protoforge.encoder import encode
    from protoforge.solver import solve
    from test_smt import _response_for

    trace = solve(encode(make_spec())).trace
    reply = tmp_path / "reply.txt"
    reply.write_text(_response_for(trace))
    return _fake_solver(tmp_path, f'cat "{reply}"\n')


def test_emit_smt_with_solver_flag(capsys, line3, tmp_path):
    solver = _full_sat_reply(tmp_path)
    trace_out = str(tmp_path / "ext.json")
    code, out, _ = run_cli(
        capsys, "emit-smt", line3, "--solver", solver, "--trace-out", trace_out
    )
    assert code == 0
    assert out.splitlines()[0] == "sat"
    assert validate(read_trace(Path(trace_out).read_text())) == []


def test_emit_smt_solver_from_environment(capsys, line3, tmp_path, monkeypatch):
    monkeypatch.setenv("PROTOFORGE_SOLVER", _full_sat_reply(tmp_path))
    code, out, _ = run_cli(capsys, "emit-smt", line3)
    assert code == 0
    assert out.splitlines()[0] == "sat"


def test_emit_smt_unsat_status(capsys, tight, tmp_path):
    solver = _fake_solver(tmp_path, "echo unsat\n")
    code, out, _ = run_cli(capsys, "emit-smt", tight, "--solver", solver)
    assert code == 1
    assert out.splitlines()[0] == "unsat"


def test_emit_smt_unknown_status(capsys, line3, tmp_path):
    solver = _fake_solver(tmp_path, "echo unknown\n")
    code, _, err = run_cli(capsys, "emit-smt", line3, "--solver", solver)
    assert code == 4
    assert "unknown" in err


def test_emit_smt_solver_spawn_failure(capsys, line3):
    code, _, err = run_cli(capsys, "emit-smt", line3, "--solver", "/no/such/solver")
    assert code == 4
    assert "cannot run" in err


def test_simulate_report(capsys, line3, tmp_path):
    out_path = str(tmp_path / "t.json")
    run_cli(capsys, "synth", line3, "--out", out_path)
    code, out, _ = run_cli(capsys, "simulate", out_path, "--json")
    assert code == 0
    assert "total power: 4 pw" in out
    block = machine_block(out)
    assert block["total_power"] == 4
    assert block["per_process_power"] == [1, 2, 1]


def test_simulate_guard_failure_is_validation_exit(capsys, tmp_path):
    from protoforge.trace import ProtocolTrace, write_trace
    from protoforge.actions import LISTEN, transmit

    spec = make_spec(processes=2, packets=1, horizon=1, topology="all")
    bogus = ProtocolTrace.from_actions(spec, ((LISTEN, transmit(1)),))
    path = tmp_path / "bogus.json"
    path.write_text(write_trace(bogus))
    code, _, err = run_cli(capsys, "simulate", str(path))
    assert code == 2
    assert "not physically consistent" in err


def test_baseline_report(capsys, line3):
    code, out, _ = run_cli(capsys, "baseline", line3, "--json")
    assert code == 0
    assert "total power: 6 pw" in out
    block = machine_block(out)
    assert block["total_power"] == 6
    assert block["concurrent_tx_slots"] == 1


# Process 1 hears the source and learns one of 8,192 packets per slot for
# 8,192 slots: a baseline that kept a knowledge row per slot held 8,192
# rows of 8,192 masks here.
HOSTILE = """\
processes = 2
packets = 8192
horizon = 1
source = 0
topology = explicit
liveness = off
goal = all-know-all
hears 1 0
"""


def test_baseline_of_a_hostile_spec_builds_no_knowledge_rows(capsys, tmp_path):
    path = tmp_path / "hostile.net"
    path.write_text(HOSTILE)
    report = [
        "slots run: 8192",
        "total power: 16384 pw",
        "per-process power: 8192 8192",
        "concurrent tx slots: 0",
        "completed: yes (slot 8192)",
        "delivered: p0:8192/8192 p1:8192/8192",
    ]
    assert run_cli(capsys, "baseline", str(path)) == (0, "\n".join(report) + "\n", "")
    code, out, err = run_cli(capsys, "baseline", str(path), "--json")
    assert (code, err) == (0, "")
    assert out.splitlines()[:6] == report
    assert machine_block(out)["completion_slot"] == 8192
    trace, _ = run_baseline(parse_spec(HOSTILE))
    assert "knowledge" not in vars(trace)  # the rows view is built on first read


def test_compare_reproduces_power_numbers(capsys, line3):
    code, out, _ = run_cli(capsys, "compare", line3, "--pw", "1", "--json")
    assert code == 0
    block = machine_block(out)
    assert block["baseline"]["total_power"] == 6
    assert block["synthesized"]["total_power"] <= 5
    assert block["verdict"]["lower_power"] == "synthesized"
    assert block["verdict"]["collision_detection_needed"]["synthesized"] is False


def test_compare_unsat_exit(capsys, tight):
    code, out, _ = run_cli(capsys, "compare", tight)
    assert code == 1
    assert out.splitlines()[0] == "unsat"


def test_compare_json_unsat_block(capsys, tight):
    code, out, _ = run_cli(capsys, "compare", tight, "--json")
    assert code == 1
    assert out.rstrip().endswith("}")
    assert machine_block(out) == {
        "status": "unsat",
        "core": [
            "R1_ExactlyOneAction",
            "R2_ContentDomain",
            "R4_InitialKnowledge",
            "R5_TransmitOnlyKnown",
            "R6_NeverForgets",
            "R7_CollisionFreeLearning",
            "GOAL_Deadline",
            "TOPO_HearsRelation",
        ],
    }


@pytest.mark.parametrize(
    "argv, block",
    [
        (["synth", "--node-limit", "2"], {"status": "budget-exhausted"}),
        (["compare", "--node-limit", "2"], {"status": "budget-exhausted"}),
        (["unsat-core", "--node-limit", "2"], {"status": "budget-exhausted"}),
        (
            ["min-horizon", "--max", "4", "--node-limit", "1"],
            {"status": "budget-exhausted", "horizon": 1},
        ),
    ],
)
def test_budget_exhaustion_ends_in_a_json_block(capsys, line3, all3, argv, block):
    command, *rest = argv
    spec = all3 if command == "min-horizon" else line3
    code, out, err = run_cli(capsys, command, spec, *rest, "--json")
    assert code == 5
    assert err.startswith("budget exhausted")
    assert machine_block(out) == block


def test_unexpected_exception_is_internal_error(capsys, line3, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("protoforge.cli.solve", broken)
    code, _, err = run_cli(capsys, "synth", line3)
    assert code == 6
    assert err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("out, calls", [(False, 0), (True, 1)])
def test_synth_writes_the_trace_only_for_out(capsys, line3, tmp_path, monkeypatch, out, calls):
    import protoforge.cli

    seen = []
    real = protoforge.cli.write_trace

    def counting(trace):
        seen.append(trace)
        return real(trace)

    monkeypatch.setattr(protoforge.cli, "write_trace", counting)
    extra = ["--out", str(tmp_path / "t.json")] if out else []
    assert run_cli(capsys, "synth", line3, *extra)[0] == 0
    assert len(seen) == calls


def test_module_entry_point(line3):
    # run from the directory the package under test was imported from, so
    # `-m` finds it whether it came from PYTHONPATH, pytest's pythonpath or
    # an install
    proc = subprocess.run(
        [sys.executable, "-m", "protoforge", "synth", line3],
        capture_output=True,
        text=True,
        cwd=Path(protoforge.__file__).parent.parent,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("sat")


def test_bounds_decide_line3_short_horizons_without_a_node(capsys, line3):
    code, out, _ = run_cli(capsys, "min-horizon", line3, "--max", "1", "--node-limit", "1")
    assert code == 1
    assert "no feasible horizon up to 1" in out
