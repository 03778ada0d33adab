from __future__ import annotations

import hashlib
import os
import random
import stat
import subprocess
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from protoforge.actions import LISTEN, SLEEP, action_domain, transmit
from protoforge.encoder import describe, encode
from protoforge.model import (
    GoalKind,
    LivenessMode,
    NetworkSpec,
    RequirementLabel,
    Topology,
    requirement_families,
    topology_all,
    topology_line,
)
from protoforge.smt import (
    ExternalSolverError,
    SmtDocument,
    SmtResponseError,
    SolverTimeout,
    emit_smtlib,
    label_of_assertion_name,
    parse_sexprs,
    parse_value_response,
    run_external,
    tokenize,
)
from protoforge.solver import SearchConfig, SolveStatus, solve
from protoforge.trace import ProtocolTrace, knowledge_table, validate
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
    r7 = [a for a in doc.assertions if "|R7_CollisionFreeLearning@" in a]
    assert len(r7) == 6
    # read through one sender count per slot and one heard code per listener
    assert sum("|R7_CollisionFreeLearning.senders@" in a for a in doc.assertions) == 2
    assert sum("|R7_CollisionFreeLearning.heard@" in a for a in doc.assertions) == 4


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


def test_text_is_rendered_once_and_stays_out_of_equality():
    spec = make_spec(processes=3, packets=2, horizon=2, topology="line")
    doc, twin = emit_smtlib(spec), emit_smtlib(spec)
    assert doc.text is doc.text
    assert doc == twin and hash(doc) == hash(twin)


def _r7_bytes(doc):
    return sum(len(a) for a in doc.assertions if "|R7_CollisionFreeLearning" in a)


def test_document_grows_linearly_in_processes():
    # R7 must stay O(T·P·(M + speakers)). Spelling out every other process's
    # silence in each learning equality is O(T·P²·M·speakers): 16.3 MB for
    # the first document, and R7 growing 3.45x from P=8 to P=16.
    assert len(emit_smtlib(make_spec(18, 6, 18, topology="all")).text) < 1_500_000
    small, large = (emit_smtlib(make_spec(P, 3, 10, topology="line")) for P in (8, 16))
    assert _r7_bytes(large) <= 2.2 * _r7_bytes(small)


EACH = LivenessMode.EACH_ACTION_ONCE
# name: (spec, sha256 of the SMT-LIB text, sha256 of describe(encode(spec)).render())
GOLDEN = {
    "line3": (
        make_spec(),
        "c5bea5633027cf59c995e0c73bb089890b9760ea215f0a861639d0efe4183fef",
        "f61cd13855480cd1ef9a30f2231d9772a1ffeb94a05e0bb5eb6afc9b6ca578f3",
    ),
    "all P=4 M=2 T=2, liveness": (
        make_spec(processes=4, packets=2, horizon=2, topology="all", liveness=EACH),
        "5f942a85df0ee63b0f8ac86cdf1b7a9b11e034cbf0cebf577b5e692a4bb11cc9",
        "f7b227264757dcf26756e54416c1b5f166b39989c9b0b6c9ac2a54bf7568f766",
    ),
    "explicit, process 3 isolated": (
        make_spec(processes=4, packets=2, horizon=3, source=1,
                  topology=Topology(frozenset({(1, 0), (0, 1), (2, 1)}))),
        "9638f64a6297748e795d7f903aed2ea7fe1cdef8d272b30dd9a1b796e72b3f8f",
        "c12bc101e990aa2a5f421a3ece45855b06121a9c706a653385d78ce027bc4835",
    ),
    "T=0, liveness": (
        make_spec(horizon=0, liveness=EACH),
        "c6610db195f1058a3fe47b29ac308aaf52c13a545a4d7adaafb32a30cf6090b9",
        "a85e0c31ac1aa84d7a5e2a59445a319788fb3774b204d43e1533922a495a5301",
    ),
    "M=0": (
        make_spec(packets=0, horizon=2, topology="all"),
        "b555e46108307e5622afad04cb6186e0aaeaf3c20e3f5676e4a496c152dfda8c",
        "cd95ecd05d036ad7da4f5df2add06eca0e29a4b8b00c2518728d354fa6226c17",
    ),
    "P=1 T=1, liveness": (
        make_spec(processes=1, packets=2, horizon=1, liveness=EACH),
        "cdb362e6bf18713db8491f408ad00ae76fea14279d8f9a11b0262455dc5c6da0",
        "8c0f5e89c6f7bb973ba8059aa15b12753479396ea9dfbe46097c088eb3c227f8",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_document_and_listing_bytes_are_pinned(name):
    spec, smt_sha, listing_sha = GOLDEN[name]
    assert hashlib.sha256(emit_smtlib(spec).text.encode()).hexdigest() == smt_sha
    assert hashlib.sha256(describe(encode(spec)).render().encode()).hexdigest() == listing_sha


def _reference_emit(spec):
    """The document assembled one assertion at a time through a naming
    closure and per-atom helpers: what emit_smtlib must render byte for byte."""
    P, M, T = spec.processes, spec.packets, spec.horizon
    families = requirement_families(spec)
    silent = "(- 1)"

    def sleep(t, p):
        return f"(sleep {t} {p})"

    def listen(t, p):
        return f"(listen {t} {p})"

    def tx(t, p):
        return f"(transmit {t} {p})"

    def sends(t, p):
        return f"(>= {tx(t, p)} 0)"

    def knows(t, p, k):
        return f"(knows {t} {p} {k})"

    def any_(terms):
        if len(terms) == 1:
            return terms[0]
        return f"(or {' '.join(terms)})" if terms else "false"

    def sum_(terms):
        return terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"

    cells = list(product(range(T), range(P)))
    facts = list(product(range(T), range(P), range(1, M + 1)))
    holdings = list(product(range(P), range(1, M + 1)))
    lines = []

    def add(expr, label, variant=None, **where):
        tag = label.value if variant is None else f"{label.value}.{variant}"
        at = ",".join(f"{key}={value}" for key, value in where.items())
        lines.append(f"(assert (! {expr} :named |{tag}@{at}|))")

    for t, p in cells:
        add(
            f"(and (not (and {sleep(t, p)} {listen(t, p)})) (=> {sleep(t, p)} (= {tx(t, p)} {silent}))"
            f" (=> {listen(t, p)} (= {tx(t, p)} {silent})))",
            L.R1_EXACTLY_ONE_ACTION, t=t, p=p,
        )
        add(f"(or {sleep(t, p)} {listen(t, p)} {sends(t, p)})", L.R1_EXACTLY_ONE_ACTION, "any", t=t, p=p)
    for t, p in cells:
        add(f"(and (>= {tx(t, p)} {silent}) (<= {tx(t, p)} {M}))", L.R2_CONTENT_DOMAIN, t=t, p=p)
    if L.R3_LIVENESS in families:
        lines.append("; every action kind must occur inside the finite window")
        for p in range(P):
            for variant, atom in (("sleep", sleep), ("listen", listen), ("transmit", sends)):
                add(any_([atom(t, p) for t in range(T)]), L.R3_LIVENESS, variant, p=p)
    for p, k in holdings:
        atom = knows(0, p, k)
        add(atom if p == spec.source else f"(not {atom})", L.R4_INITIAL_KNOWLEDGE, t=0, p=p, k=k)
    for t, p, k in facts:
        add(f"(=> (= {tx(t, p)} {k}) {knows(t, p, k)})", L.R5_TRANSMIT_ONLY_KNOWN, t=t, p=p, k=k)
    for t, p, k in facts:
        add(f"(=> {knows(t, p, k)} {knows(t + 1, p, k)})", L.R6_NEVER_FORGETS, t=t, p=p, k=k)
    speakers = [[] for _ in range(P)]
    for listener, speaker in sorted(spec.topology.hears):
        speakers[listener].append(speaker)
    listeners = [p for p in range(P) if speakers[p]] if M else []
    for t in range(T if listeners else 0):
        count = sum_([f"(ite {sends(t, q)} 1 0)" for q in range(P)])
        add(f"(= (senders {t}) {count})", L.R7_COLLISION_FREE_LEARNING, "senders", t=t)
        for p in listeners:
            codes = sum_([f"(ite (> {tx(t, s)} 0) {tx(t, s)} 0)" for s in speakers[p]])
            add(f"(= (heard {t} {p}) {codes})", L.R7_COLLISION_FREE_LEARNING, "heard", t=t, p=p)
    for t, p, k in facts:
        rhs = knows(t, p, k)
        if speakers[p]:
            rhs = f"(or {rhs} (and {listen(t, p)} (= (senders {t}) 1) (= (heard {t} {p}) {k})))"
        add(f"(= {knows(t + 1, p, k)} {rhs})", L.R7_COLLISION_FREE_LEARNING, t=t, p=p, k=k)
    if L.GOAL_DEADLINE in families:
        for p, k in holdings:
            add(knows(T, p, k), L.GOAL_DEADLINE, t=T, p=p, k=k)
    footer = ["(check-sat)"]
    footer += [f"(get-value ({sleep(t, p)} {listen(t, p)} {tx(t, p)}))" for t, p in cells]
    if M > 0:
        for t, p in product(range(T + 1), range(P)):
            footer.append(f"(get-value ({' '.join(knows(t, p, k) for k in range(1, M + 1))}))")
    footer += ["(get-unsat-core)", "(exit)"]
    header = (
        "(set-option :produce-models true)",
        "(set-option :produce-unsat-cores true)",
        "(set-logic QF_UFLIA)",
    )
    declarations = (
        "; transmit codes: -1 silent, 0 garbage, k in [1, M] packet k",
        "(declare-fun sleep (Int Int) Bool)",
        "(declare-fun listen (Int Int) Bool)",
        "(declare-fun transmit (Int Int) Int)",
        "(declare-fun knows (Int Int Int) Bool)",
        "; senders t: transmitters in slot t; heard t p: packet codes p's speakers send",
        "(declare-fun senders (Int) Int)",
        "(declare-fun heard (Int Int) Int)",
    )
    return SmtDocument(spec, header, declarations, tuple(lines), tuple(footer))


def _lines(doc):
    # Compared as line lists, a mismatch is reported by its first differing
    # line; pytest's diff of two long strings takes minutes.
    return doc.text.split("\n")


@settings(deadline=None)
@given(st.data())
def test_emitter_equals_the_assertion_by_assertion_reference(data):
    P = data.draw(st.integers(1, 8), label="P")
    M = data.draw(st.integers(0, 4), label="M")
    T = data.draw(st.integers(0, 6), label="T")
    pairs = [(listener, speaker) for listener in range(P) for speaker in range(P) if listener != speaker]
    # the empty relation, and sparse ones, leave isolated listeners
    hears = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()), label="hears")
    spec = make_spec(
        processes=P, packets=M, horizon=T,
        source=data.draw(st.integers(0, P - 1), label="source"),
        topology=Topology(frozenset(hears)),
        liveness=data.draw(st.sampled_from(list(LivenessMode)), label="liveness"),
        goal=data.draw(st.sampled_from(list(GoalKind)), label="goal"),
    )
    assert _lines(emit_smtlib(spec)) == _lines(_reference_emit(spec))


# (P, M, T) of the five smt-export benchmark rungs
RUNG_SHAPES = ((7, 2, 7), (9, 3, 9), (11, 3, 11), (14, 5, 14), (18, 6, 18))


@pytest.mark.parametrize("topology", ["all", "line"])
@pytest.mark.parametrize("shape", RUNG_SHAPES, ids=lambda shape: "P=%d M=%d T=%d" % shape)
def test_emitter_equals_the_reference_on_the_benchmark_rungs(shape, topology):
    P, M, T = shape
    spec = make_spec(processes=P, packets=M, horizon=T, source=P // 2 if topology == "all" else 0,
                     topology=topology, liveness=EACH if P % 2 else LivenessMode.OFF)
    assert _lines(emit_smtlib(spec)) == _lines(_reference_emit(spec))


def _reference_tokenize(text):
    """Character-at-a-time tokenizer: what tokenize must return."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in '"|':
            j = i + 1
            while j < n and text[j] != ch:
                j += 1
            tokens.append(text[i : j + 1])
            i = j + 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '();"|':
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


# every character class the tokenizer tells apart, with whitespace that is
# not ASCII (\x1c, \x85, \u3000) and an atom character that is not ASCII
TOKEN_TEXT = st.text(alphabet='()";|' + " \t\n\x1c\x85\u3000" + "aZ1-é", max_size=60)


@given(TOKEN_TEXT)
def test_tokenizer_equals_the_character_loop(text):
    assert tokenize(text) == _reference_tokenize(text)


def test_tokenizer_equals_the_character_loop_on_a_document():
    text = emit_smtlib(make_spec(processes=5, packets=2, horizon=4, topology="all", liveness=EACH)).text
    text += '\n; trailing comment (with "quotes"\n(error "unterminated'
    assert tokenize(text) == _reference_tokenize(text)


def test_tokenizer_preserves_document_tokens():
    doc = emit_smtlib(make_spec(processes=2, packets=1, horizon=1, topology="all"))
    tokens = tokenize(doc.text)
    assert tokens.count("(") == tokens.count(")")
    exprs = parse_sexprs(doc.text)
    declared = sum(line.startswith("(declare-fun") for line in doc.declarations)
    assert len(exprs) == len(doc.header) + declared + len(doc.assertions) + len(doc.footer)


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
        for p, packets in enumerate(knowledge_table(krow, spec.processes)):
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


# An evaluator for the fragment the document uses. sleep, listen, transmit
# and knows come from a trace; any other declared function is defined by the
# first assertion of the form (= (f args) e), and reading it earlier fails.
# No SMT solver is needed, so the emitted text is checked on every run.

SUPPLIED = frozenset({"sleep", "listen", "transmit", "knows"})
# operator: (fewest, most) arguments, None for no limit
OPERATORS = {
    "and": (2, None), "or": (2, None), "not": (1, 1), "=>": (2, None),
    "=": (2, None), "ite": (3, 3), "+": (2, None), "-": (1, None),
    ">=": (2, None), "<=": (2, None), ">": (2, None),
}
COMMANDS = frozenset({
    "set-option", "set-logic", "declare-fun", "assert",
    "check-sat", "get-value", "get-unsat-core", "exit",
})


def _declared(doc) -> dict[str, int]:
    """Each declared function's name and arity."""
    return {c[1]: len(c[2]) for c in parse_sexprs("\n".join(doc.declarations))}


def _ints(values):
    assert all(type(v) is int for v in values), values
    return values


def _bools(values):
    assert all(type(v) is bool for v in values), values
    return values


class Evaluator:
    def __init__(self, functions, trace):
        self.functions = functions
        self.values = {}
        for t, row in enumerate(trace.actions):
            for p, act in enumerate(row):
                self.values["sleep", t, p] = act.kind is SLEEP.kind
                self.values["listen", t, p] = act.kind is LISTEN.kind
                self.values["transmit", t, p] = act.content if act.is_transmit else -1
        for t, krow in enumerate(trace.knowledge):
            for p, packets in enumerate(knowledge_table(krow, trace.spec.processes)):
                for k, held in enumerate(packets, 1):
                    self.values["knows", t, p, k] = held

    def key(self, app):
        head, *args = app
        assert len(args) == self.functions[head], app
        return (head, *(int(a) for a in args))

    def value(self, term):
        if isinstance(term, str):
            return term == "true" if term in ("true", "false") else int(term)
        head, *args = term
        if head in self.functions:
            key = self.key(term)
            assert key in self.values, f"{key} is read before it is defined"
            return self.values[key]
        v = [self.value(a) for a in args]
        if head == "and":
            return all(_bools(v))
        if head == "or":
            return any(_bools(v))
        if head == "not":
            return not _bools(v)[0]
        if head == "=>":
            *premises, conclusion = _bools(v)
            return not all(premises) or conclusion
        if head == "=":
            assert len({type(x) for x in v}) == 1, term
            return all(x == v[0] for x in v)
        if head == "ite":
            return v[1] if _bools(v[:1])[0] else v[2]
        if head == "+":
            return sum(_ints(v))
        if head == "-":
            return -_ints(v)[0] if len(v) == 1 else v[0] - sum(_ints(v)[1:])
        comparisons = {">=": int.__ge__, "<=": int.__le__, ">": int.__gt__}
        return all(comparisons[head](a, b) for a, b in zip(_ints(v), v[1:]))

    def holds(self, expr) -> bool:
        """Evaluates one assertion body, first binding a definition."""
        if expr[0] == "=" and isinstance(expr[1], list) and expr[1][0] not in SUPPLIED:
            key = self.key(expr[1])
            if key not in self.values:
                self.values[key] = self.value(expr[2])
                return True
        return _bools([self.value(expr)])[0]


def falsified(doc, traces):
    """For each trace, the families with an assertion it falsifies."""
    functions = _declared(doc)
    named = [cmd[1] for cmd in parse_sexprs("\n".join(doc.assertions))]
    out = []
    for trace in traces:
        ev = Evaluator(functions, trace)
        out.append({label_of_assertion_name(name) for _, expr, _, name in named
                    if not ev.holds(expr)})
    return out


def _random_spec(rng):
    P = rng.randint(1, 5)
    pairs = [(l, s) for l in range(P) for s in range(P) if l != s]
    topo = rng.choice([
        topology_all(P),
        topology_line(P),
        Topology(frozenset(q for q in pairs if rng.random() < 0.5)),
    ])
    return NetworkSpec(
        P, rng.randint(0, 3), rng.randint(0, 4), rng.randrange(P), topo,
        rng.choice(list(LivenessMode)), rng.choice(list(GoalKind)),
    )


def test_solved_traces_satisfy_every_assertion():
    rng = random.Random(7001)
    specs = [spec for spec, _, _ in GOLDEN.values()]
    specs += [_random_spec(rng) for _ in range(100)]
    checked = 0
    for spec in specs:
        result = solve(encode(spec), SearchConfig(node_limit=5_000))
        if result.status is SolveStatus.SAT:
            assert falsified(emit_smtlib(spec), [result.trace]) == [set()], spec
            checked += 1
    assert checked >= 50


def _mutants(rng, spec, count):
    """Random schedules, some with an unknown packet code M+1 or garbage,
    and some with knowledge bits flipped after the derivation. Half the
    slots have one transmitter, so that listeners learn."""
    P, M, T = spec.processes, spec.packets, spec.horizon
    domain = action_domain(M) + (transmit(M + 1),)

    def slot():
        acts = [rng.choice(domain) for _ in range(P)]
        if rng.random() < 0.5:
            acts = [rng.choice((LISTEN, LISTEN, SLEEP)) for _ in range(P)]
            acts[rng.randrange(P)] = transmit(rng.randint(0, M + 1))
        return acts

    for _ in range(count):
        actions = [slot() for _ in range(T)]
        trace = ProtocolTrace.from_actions(spec, actions)
        grid = [list(row) for row in trace.knowledge]
        if M and rng.random() < 0.6:
            for _ in range(rng.randint(1, 3)):
                row, p = grid[rng.randint(0, T)], rng.randrange(P)
                row[rng.randrange(M)] ^= 1 << p
        yield ProtocolTrace(spec, trace.actions, tuple(map(tuple, grid)))


def test_falsified_families_match_the_validator():
    rng = random.Random(7002)
    compared = 0
    for _ in range(200):
        spec = _random_spec(rng)
        traces = list(_mutants(rng, spec, 5))
        for trace, families in zip(traces, falsified(emit_smtlib(spec), traces)):
            expected = {v.label for v in validate(trace)}
            if L.R6_NEVER_FORGETS in expected:
                expected.add(L.R7_COLLISION_FREE_LEARNING)  # a forgotten packet breaks R7's equality
            assert families == expected, (spec, trace)
            compared += 1
    assert compared == 1000


def test_evaluator_reads_definitions_only_after_they_are_made():
    spec = make_spec(processes=1, packets=0, horizon=1, topology="all", goal=GoalKind.NONE)
    trace = ProtocolTrace.from_actions(spec, [[LISTEN]])
    ev = Evaluator({"listen": 2, "heard": 2}, trace)
    with pytest.raises(AssertionError, match="before it is defined"):
        ev.holds(["=", "1", ["heard", "0", "0"]])
    assert ev.holds(["=", ["heard", "0", "0"], ["ite", ["listen", "0", "0"], "3", "0"]])
    assert ev.value(["heard", "0", "0"]) == 3
    assert not ev.holds(["=", ["heard", "0", "0"], "2"])


def _lint(doc):
    """Every application is a declared function at its arity or a fragment
    operator at an arity it takes; every assertion has a unique name."""
    commands = parse_sexprs(doc.text)
    functions = _declared(doc)

    def check(term):
        if isinstance(term, str):
            assert term in ("true", "false") or term.isdigit(), term
            return
        head, *args = term
        if head in functions:
            assert len(args) == functions[head], term
            assert all(isinstance(a, str) and a.isdigit() for a in args), term
            return
        assert head in OPERATORS, term
        fewest, most = OPERATORS[head]
        assert fewest <= len(args) and (most is None or len(args) <= most), term
        for arg in args:
            check(arg)

    names = []
    for command in commands:
        assert command[0] in COMMANDS, command
        if command[0] == "assert":
            bang, expr, key, name = command[1]
            assert (bang, key) == ("!", ":named"), command
            check(expr)
            names.append(name)
        elif command[0] == "get-value":
            for term in command[1]:
                check(term)
    assert len(names) == len(set(names))


def test_documents_apply_only_declared_functions_and_fragment_operators():
    rng = random.Random(7003)
    pairs = [(l, s) for l in range(6) for s in range(6) if l != s]
    explicit = make_spec(processes=6, packets=2, horizon=4, source=rng.randrange(6),
                         topology=Topology(frozenset(rng.sample(pairs, 12))))
    for spec in [spec for spec, _, _ in GOLDEN.values()] + [explicit]:
        _lint(emit_smtlib(spec))
