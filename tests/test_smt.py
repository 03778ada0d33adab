from __future__ import annotations

import os
import stat

import pytest

from protoforge.actions import LISTEN, SLEEP, transmit
from protoforge.encoder import encode
from protoforge.model import LivenessMode, RequirementLabel, GoalKind
from protoforge.smt import (
    ExternalSolverError,
    SmtResponseError,
    SolverTimeout,
    emit_smtlib,
    label_of_assertion_name,
    parse_sexprs,
    parse_value_response,
    run_external,
    tokenize,
)
from protoforge.solver import solve
from protoforge.trace import validate
from conftest import make_spec

L = RequirementLabel


def test_one_exclusion_and_one_any_assertion_per_cell():
    doc = emit_smtlib(make_spec(processes=2, packets=1, horizon=1, topology="all"))
    excl = [a for a in doc.assertions if "|R1_ExactlyOneAction@" in a]
    any_ = [a for a in doc.assertions if "|R1_ExactlyOneAction.any@" in a]
    assert len(excl) == 2
    assert len(any_) == 2


def test_document_structure_and_options():
    doc = emit_smtlib(make_spec())
    assert doc.header[0] == "(set-option :produce-models true)"
    assert doc.header[1] == "(set-option :produce-unsat-cores true)"
    assert doc.header[2] == "(set-logic QF_UFLIA)"
    assert "(declare-fun transmit (Int Int) Int)" in doc.declarations
    assert "(declare-fun knows (Int Int Int) Bool)" in doc.declarations
    assert doc.footer[0] == "(check-sat)"
    assert doc.footer[-2] == "(get-unsat-core)"
    assert doc.footer[-1] == "(exit)"


def test_content_bounds_follow_packet_count():
    doc = emit_smtlib(make_spec(processes=2, packets=2, horizon=1, topology="all"))
    r2 = [a for a in doc.assertions if "R2_ContentDomain" in a]
    assert all("(<= (transmit" in a and " 2))" in a for a in r2)


def test_no_standalone_topology_assertions():
    doc = emit_smtlib(make_spec(processes=3, packets=1, horizon=2, topology="line"))
    assert not any("TOPO_HearsRelation" in a for a in doc.assertions)
    # the hears relation shows up inside the learning equalities instead
    r7 = [a for a in doc.assertions if "R7_CollisionFreeLearning" in a]
    assert len(r7) == 6


def test_liveness_assertions_per_kind_and_false_at_horizon_zero():
    live = make_spec(processes=2, packets=1, horizon=0, topology="all",
                     liveness=LivenessMode.EACH_ACTION_ONCE)
    doc = emit_smtlib(live)
    r3 = [a for a in doc.assertions if "R3_Liveness" in a]
    assert len(r3) == 6
    assert all("(! false :named" in a for a in r3)
    off = emit_smtlib(make_spec(processes=2, packets=1, horizon=1, topology="all"))
    assert not any("R3_Liveness" in a for a in off.assertions)


def test_emit_is_deterministic():
    spec = make_spec(processes=3, packets=2, horizon=2, topology="line")
    assert emit_smtlib(spec).text == emit_smtlib(spec).text


def test_tokenizer_preserves_document_tokens():
    doc = emit_smtlib(make_spec(processes=2, packets=1, horizon=1, topology="all"))
    tokens = tokenize(doc.text)
    assert tokens.count("(") == tokens.count(")")
    exprs = parse_sexprs(doc.text)
    assert len(exprs) == len(doc.header) + 4 + len(doc.assertions) + len(doc.footer)


def test_tokenizer_handles_quoted_forms():
    exprs = parse_sexprs('(error "not (really) nested") (|a b| 3)')
    assert exprs[0] == ["error", '"not (really) nested"']
    assert exprs[1] == ["|a b|", "3"]


def test_parse_sexprs_rejects_unbalanced_input():
    with pytest.raises(SmtResponseError):
        parse_sexprs("(a (b)")


@pytest.mark.parametrize(
    "name,label",
    [
        ("|R1_ExactlyOneAction@t=0,p=0|", L.R1_EXACTLY_ONE_ACTION),
        ("|R1_ExactlyOneAction.any@t=0,p=0|", L.R1_EXACTLY_ONE_ACTION),
        ("|R3_Liveness.transmit@p=1|", L.R3_LIVENESS),
        ("|GOAL_Deadline@t=2,p=1,k=2|", L.GOAL_DEADLINE),
    ],
)
def test_assertion_names_map_back_to_labels(name, label):
    assert label_of_assertion_name(name) is label


def test_unknown_assertion_name_rejected():
    with pytest.raises(SmtResponseError):
        label_of_assertion_name("|R9_Imaginary@t=0|")


def _response_for(trace):
    """Renders the trace the way a solver answers the emitted queries."""
    spec = trace.spec
    lines = ["sat"]
    for t, row in enumerate(trace.actions):
        for p, act in enumerate(row):
            asleep = "true" if act is SLEEP else "false"
            listening = "true" if act is LISTEN else "false"
            code = act.content if act.is_transmit else -1
            code_text = str(code) if code >= 0 else "(- 1)"
            lines.append(
                f"(((sleep {t} {p}) {asleep}) ((listen {t} {p}) {listening})"
                f" ((transmit {t} {p}) {code_text}))"
            )
    for t, krow in enumerate(trace.knowledge):
        for p, packets in enumerate(krow):
            pairs = " ".join(
                f"((knows {t} {p} {k + 1}) {'true' if val else 'false'})"
                for k, val in enumerate(packets)
            )
            if pairs:
                lines.append(f"({pairs})")
    lines.append('(error "unsat core is not available")')
    return "\n".join(lines) + "\n"


def test_value_response_round_trips_solved_trace():
    spec = make_spec()
    trace = solve(encode(spec)).trace
    recovered = parse_value_response(_response_for(trace), spec)
    assert recovered == trace
    assert validate(recovered) == []


def test_value_response_rejects_out_of_range_code():
    spec = make_spec(processes=1, packets=2, horizon=1, topology="all", goal=GoalKind.NONE)
    text = "(((sleep 0 0) false) ((listen 0 0) false) ((transmit 0 0) 5))"
    with pytest.raises(SmtResponseError, match="content code out of range"):
        parse_value_response(text, spec)


def test_value_response_rejects_inconsistent_triple():
    spec = make_spec(processes=1, packets=0, horizon=1, topology="all", goal=GoalKind.NONE)
    text = "(((sleep 0 0) true) ((listen 0 0) true) ((transmit 0 0) (- 1)))"
    with pytest.raises(SmtResponseError, match="inconsistent triple"):
        parse_value_response(text, spec)


def test_value_response_rejects_silent_nonaction():
    spec = make_spec(processes=1, packets=0, horizon=1, topology="all", goal=GoalKind.NONE)
    text = "(((sleep 0 0) false) ((listen 0 0) false) ((transmit 0 0) (- 1)))"
    with pytest.raises(SmtResponseError, match="inconsistent triple"):
        parse_value_response(text, spec)


def test_value_response_requires_every_cell():
    spec = make_spec(processes=2, packets=0, horizon=1, topology="all", goal=GoalKind.NONE)
    text = "(((sleep 0 0) true) ((listen 0 0) false) ((transmit 0 0) (- 1)))"
    with pytest.raises(SmtResponseError, match="missing value"):
        parse_value_response(text, spec)


def test_value_response_requires_and_checks_knows():
    spec = make_spec(processes=2, packets=1, horizon=1, topology="all")
    trace = solve(encode(spec)).trace
    full = _response_for(trace)
    missing = "\n".join(
        line for line in full.splitlines() if "knows 1 1 1" not in line
    )
    with pytest.raises(SmtResponseError, match="missing value for knows"):
        parse_value_response(missing, spec)
    flipped = full.replace("((knows 1 1 1) true)", "((knows 1 1 1) false)")
    with pytest.raises(SmtResponseError, match="knowledge mismatch"):
        parse_value_response(flipped, spec)


def test_value_response_skips_error_forms_and_status_atoms():
    spec = make_spec(processes=1, packets=0, horizon=0, topology="all", goal=GoalKind.NONE)
    text = 'sat\n(error "nothing to see")\n'
    trace = parse_value_response(text, spec)
    assert trace.actions == ()


def _script(tmp_path, body):
    path = tmp_path / "solver.sh"
    path.write_text("#!/bin/sh\ncat > /dev/null\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_run_external_classifies_status(tmp_path):
    doc = emit_smtlib(make_spec())
    sat = run_external(_script(tmp_path, 'echo sat\n'), doc)
    assert sat.status == "sat"
    unsat = run_external(_script(tmp_path, 'echo unsat\necho "(|GOAL_Deadline@t=1,p=1,k=1|)"\n'), doc)
    assert unsat.status == "unsat"
    unknown = run_external(_script(tmp_path, "echo unknown\n"), doc)
    assert unknown.status == "unknown"


def test_run_external_rejects_chatter_without_verdict(tmp_path):
    doc = emit_smtlib(make_spec())
    with pytest.raises(ExternalSolverError, match="verdict"):
        run_external(_script(tmp_path, "echo hello world\n"), doc)


def test_run_external_spawn_failure():
    with pytest.raises(ExternalSolverError, match="cannot run"):
        run_external("/nonexistent/smtsolver", emit_smtlib(make_spec()))


def test_run_external_zero_timeout():
    with pytest.raises(SolverTimeout):
        run_external("/bin/cat", emit_smtlib(make_spec()), timeout=0)


def test_run_external_kills_hung_solver(tmp_path):
    script = _script(tmp_path, "sleep 30\n")
    with pytest.raises(SolverTimeout):
        run_external(script, emit_smtlib(make_spec()), timeout=0.2)


def test_run_external_full_pipeline_with_scripted_solver(tmp_path):
    spec = make_spec()
    trace = solve(encode(spec)).trace
    reply = tmp_path / "reply.txt"
    reply.write_text(_response_for(trace))
    script = _script(tmp_path, f'cat "{reply}"\n')
    result = run_external(script, emit_smtlib(spec))
    assert result.status == "sat"
    assert parse_value_response(result.output, spec) == trace
