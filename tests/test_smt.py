from __future__ import annotations

import hashlib
import os
import stat
import subprocess

import pytest

from protoforge.actions import LISTEN, SLEEP, transmit
from protoforge.encoder import describe, encode
from protoforge.model import LivenessMode, RequirementLabel, GoalKind, Topology
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


EACH = LivenessMode.EACH_ACTION_ONCE
# name: (spec, sha256 of the SMT-LIB text, sha256 of describe(encode(spec)).render())
GOLDEN = {
    "line3": (
        make_spec(),
        "4b6881a74582d3cf0b563b87812da107747f66870eceb22ce695f1761ae19f23",
        "f61cd13855480cd1ef9a30f2231d9772a1ffeb94a05e0bb5eb6afc9b6ca578f3",
    ),
    "all P=4 M=2 T=2, liveness": (
        make_spec(processes=4, packets=2, horizon=2, topology="all", liveness=EACH),
        "a84ebd63c69527304c9fa8dc8990ded9f4426e5a466c16e20a61fd2f0f697783",
        "f7b227264757dcf26756e54416c1b5f166b39989c9b0b6c9ac2a54bf7568f766",
    ),
    "explicit, process 3 isolated": (
        make_spec(processes=4, packets=2, horizon=3, source=1,
                  topology=Topology(frozenset({(1, 0), (0, 1), (2, 1)}))),
        "38491bf129ccb419af064d5e03c8c86ffd47ffec3141a4509c58293efd7c0d95",
        "c12bc101e990aa2a5f421a3ece45855b06121a9c706a653385d78ce027bc4835",
    ),
    "T=0, liveness": (
        make_spec(horizon=0, liveness=EACH),
        "b7d9e87d4b85ae52ea486aae6f79122f68a8acb014fcc727458920d979a52249",
        "a85e0c31ac1aa84d7a5e2a59445a319788fb3774b204d43e1533922a495a5301",
    ),
    "M=0": (
        make_spec(packets=0, horizon=2, topology="all"),
        "b8b6cec2d3d09c9142bb04d425f0ba35fe0d672946e8dc9ee315a3f49564e957",
        "cd95ecd05d036ad7da4f5df2add06eca0e29a4b8b00c2518728d354fa6226c17",
    ),
    "P=1 T=1, liveness": (
        make_spec(processes=1, packets=2, horizon=1, liveness=EACH),
        "d78ede46c757a8caa6e17ff163077610b624d496172eeed91b0197b6c384c250",
        "8c0f5e89c6f7bb973ba8059aa15b12753479396ea9dfbe46097c088eb3c227f8",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_document_and_listing_bytes_are_pinned(name):
    spec, smt_sha, listing_sha = GOLDEN[name]
    assert hashlib.sha256(emit_smtlib(spec).text.encode()).hexdigest() == smt_sha
    assert hashlib.sha256(describe(encode(spec)).render().encode()).hexdigest() == listing_sha


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


@pytest.mark.parametrize("timeout", [float("inf"), 1e308, 3e6, 1e10])
def test_run_external_rejects_huge_timeout_before_spawning(monkeypatch, timeout):
    def no_spawn(*args, **kwargs):
        raise AssertionError("a solver process was started")

    monkeypatch.setattr(subprocess, "run", no_spawn)
    with pytest.raises(SolverTimeout, match="timeout must lie in"):
        run_external("/bin/cat", emit_smtlib(make_spec()), timeout=timeout)


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


@pytest.mark.parametrize(
    "text",
    [
        "(((sleep x 0) true))",  # int() on an index
        "sat\n" + "(" * 5000 + ")" * 5000 + "\n",  # deeper than the recursion limit
        "(((transmit 0 0) (- ²)))",  # a digit int() refuses
    ],
    ids=["non-integer-index", "deep-nesting", "unicode-digit"],
)
def test_value_response_raises_only_response_errors(text):
    spec = make_spec(processes=1, packets=0, horizon=1, topology="all", goal=GoalKind.NONE)
    with pytest.raises(SmtResponseError):
        parse_value_response(text, spec)
