from __future__ import annotations

import json
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import protoforge
from protoforge.cli import main
from protoforge.trace import read_trace, validate
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


def test_usage_errors(capsys, line3):
    assert run_cli(capsys)[0] == 3
    assert run_cli(capsys, "frobnicate", line3)[0] == 3
    assert run_cli(capsys, "synth")[0] == 3
    assert run_cli(capsys, "min-horizon", line3)[0] == 3  # --max required
    assert run_cli(capsys, "min-horizon", line3, "--max", "-1")[0] == 3


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
    ],
)
def test_bad_flag_values_are_usage_errors(capsys, line3, flags, message):
    command, *rest = flags
    code, _, err = run_cli(capsys, command, line3, *rest)
    assert code == 3
    assert err.startswith("usage error: ") and message in err


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


def test_main_builds_the_parser_once(capsys, line3, monkeypatch):
    import protoforge.cli as cli

    built = []
    real_init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    assert run_cli(capsys, "synth", line3)[0] == 0
    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for argv in (["synth", line3], ["emit-smt", line3], ["bogus"]):
        run_cli(capsys, *argv)
    assert built == []


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
