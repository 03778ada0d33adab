from __future__ import annotations

import hashlib
import os
import random
import re
import stat
import subprocess
import sys
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from protoforge.actions import LISTEN, SLEEP, ActionKind, action_domain, transmit
from protoforge.cli import _write
from protoforge.encoder import encode
from protoforge import smt
from protoforge.model import (
    STRUCTURAL_LABELS,
    GoalKind,
    LivenessMode,
    NetworkSpec,
    RequirementLabel,
    SpecValidationError,
    hears,
    requirement_families,
    topology_all,
    topology_explicit,
    topology_line,
)
from protoforge.smt import (
    DECLARATIONS,
    HEADER,
    MAX_TERMS,
    ExternalSolverError,
    SmtDocument,
    SmtResponseError,
    SolverTimeout,
    emit_smtlib,
    family_terms,
    label_of_assertion_name,
    parse_sexprs,
    parse_value_response,
    run_external,
    tokenize,
)
from protoforge.solver import SearchConfig, SolveStatus, solve, unsat_core_minimize
from protoforge.trace import ProtocolTrace, knowledge_table, validate
from conftest import make_spec, record_view_reads
from oracle import enumerate_all

L = RequirementLabel


def _footer(doc):
    """The footer's lines, decoded from its blocks."""
    return tuple(b"\n".join(doc.footer_blocks).decode("ascii").split("\n"))


def test_one_exclusion_and_one_any_assertion_per_cell():
    doc = emit_smtlib(make_spec(processes=2, packets=1, horizon=1, topology="all"))
    excl = [a for a in doc.assertions if "|R1_ExactlyOneAction@" in a]
    any_ = [a for a in doc.assertions if "|R1_ExactlyOneAction.any@" in a]
    assert len(excl) == 2
    assert len(any_) == 2


def test_document_structure_and_options():
    doc = emit_smtlib(make_spec())
    header, declarations = HEADER.decode().splitlines(), DECLARATIONS.decode().splitlines()
    assert header[0] == "(set-option :produce-models true)"
    assert header[1] == "(set-option :produce-unsat-cores true)"
    assert header[2] == "(set-logic QF_UFLIA)"
    assert "(declare-fun transmit (Int Int) Int)" in declarations
    assert "(declare-fun knows (Int Int Int) Bool)" in declarations
    footer = _footer(doc)
    assert footer[0] == "(check-sat)"
    assert footer[-2] == "(get-unsat-core)"
    assert footer[-1] == "(exit)"


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


def test_a_horizon_of_zero_joins_no_per_slot_family():
    # with no slots R5, R6 and R7 render nothing, so their lines are never
    # built or joined: stamping them for no slot peaks at about twice what
    # emitting the rest does (33 MB against 16 MB here)
    spec = make_spec(processes=1, packets=20_000, horizon=0, topology="all")
    tracemalloc.start()
    try:
        doc = emit_smtlib(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25_000_000
    assert hashlib.sha256(b"".join(doc.pieces())).hexdigest() == (
        "34d70a473c6439b3fdd1935257929fbda761da111b742378c1169b07fb5cfa3f")


def _text_terms(doc):
    """Each family's terms, read off the document's text: the named
    assertions of R1 (without R1.any), R2, R4-R7 and GOAL, the atoms inside
    R3's assertions, and the speaker terms of the senders definitions for
    R7 and of the heard definitions for TOPO."""
    text = doc.text
    counts = {label: text.count(f"|{label.value}@") for label in L}
    counts[L.R3_LIVENESS] = sum(
        line.count("(sleep ") + line.count("(listen ") + line.count("(transmit ")
        for line in doc.assertions if f"|{L.R3_LIVENESS.value}." in line)
    counts[L.R7_COLLISION_FREE_LEARNING] += text.count("(ite (>= (transmit ")
    counts[L.TOPO_HEARS_RELATION] = text.count("(ite (> (transmit ")
    return counts


def _terms(doc, spec):
    """The terms smt.MAX_TERMS counts, read off the document: every
    family's, and the knows atoms of the get-value line at t = T."""
    last = "\n".join(_footer(doc)).count(f"(knows {spec.horizon} ")
    return sum(_text_terms(doc).values()) + last


def test_the_size_cap_counts_the_terms(monkeypatch):
    # the closed form emit_smtlib checks is the count of the document's
    # terms, and a document of exactly MAX_TERMS of them is emitted
    specs = [spec for spec, _ in GOLDEN.values()] + [
        make_spec(processes=5, packets=2, horizon=3, source=2,
                  topology={(0, 2), (1, 2), (3, 2), (4, 3), (2, 4)}),
        make_spec(processes=6, packets=3, horizon=2, topology="line"),
    ]
    for spec in specs:
        monkeypatch.setattr(smt, "MAX_TERMS", MAX_TERMS)
        terms = _terms(emit_smtlib(spec), spec)
        monkeypatch.setattr(smt, "MAX_TERMS", terms)
        emit_smtlib(spec)
        if terms:
            monkeypatch.setattr(smt, "MAX_TERMS", terms - 1)
            with pytest.raises(SpecValidationError, match=f"would hold {terms} terms"):
                emit_smtlib(spec)


def test_the_size_cap_counts_the_liveness_terms(monkeypatch):
    # R3 holds one atom per cell and action kind: 6 R1 + 6 R2 + 18 R3 terms
    spec = make_spec(processes=2, packets=0, horizon=3, topology="all", liveness=EACH)
    monkeypatch.setattr(smt, "MAX_TERMS", 29)
    with pytest.raises(SpecValidationError, match="would hold 30 terms"):
        emit_smtlib(spec)
    monkeypatch.setattr(smt, "MAX_TERMS", 30)
    assert _terms(emit_smtlib(spec), spec) == 30


def test_a_horizon_of_zero_builds_no_speaker_lists():
    # at T = 0 senders and heard are read by no slot, so the O(P^2) heard
    # text and the speaker lists are not built: `all` writes what `line` does
    docs, peaks = [], []
    for topology in ("all", "line"):
        spec = make_spec(processes=1024, packets=1, horizon=0, topology=topology)
        tracemalloc.start()
        try:
            docs.append(b"".join(emit_smtlib(spec).pieces()))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert docs[0] == docs[1]
    assert max(peaks) < 10_000_000


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
# name: (spec, sha256 of the SMT-LIB text)
GOLDEN = {
    "line3": (
        make_spec(),
        "c5bea5633027cf59c995e0c73bb089890b9760ea215f0a861639d0efe4183fef",
    ),
    "all P=4 M=2 T=2, liveness": (
        make_spec(processes=4, packets=2, horizon=2, topology="all", liveness=EACH),
        "5f942a85df0ee63b0f8ac86cdf1b7a9b11e034cbf0cebf577b5e692a4bb11cc9",
    ),
    "explicit, process 3 isolated": (
        make_spec(processes=4, packets=2, horizon=3, source=1,
                  topology={(1, 0), (0, 1), (2, 1)}),
        "9638f64a6297748e795d7f903aed2ea7fe1cdef8d272b30dd9a1b796e72b3f8f",
    ),
    "T=0, liveness": (
        make_spec(horizon=0, liveness=EACH),
        "c6610db195f1058a3fe47b29ac308aaf52c13a545a4d7adaafb32a30cf6090b9",
    ),
    "M=0": (
        make_spec(packets=0, horizon=2, topology="all"),
        "b555e46108307e5622afad04cb6186e0aaeaf3c20e3f5676e4a496c152dfda8c",
    ),
    "P=1 T=1, liveness": (
        make_spec(processes=1, packets=2, horizon=1, liveness=EACH),
        "cdb362e6bf18713db8491f408ad00ae76fea14279d8f9a11b0262455dc5c6da0",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_document_and_listing_bytes_are_pinned(name):
    spec, smt_sha = GOLDEN[name]
    assert hashlib.sha256(emit_smtlib(spec).text.encode()).hexdigest() == smt_sha


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
    for listener, speaker in hears(spec.audience):
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
    # SmtDocument holds the assertions and footer as ASCII bytes blocks; the
    # header and declarations, module constants, are the same in every document
    return SmtDocument(*(tuple(entry.encode() for entry in section) for section in (lines, footer)))


def _lines(doc):
    # Compared as line lists, a mismatch is reported by its first differing
    # line; pytest's diff of two long strings takes minutes.
    return doc.text.split("\n")


def _assert_one_line_per_entry_and_no_placeholders(doc):
    # Slot placeholders are control characters; none may survive stamping,
    # and an entry holding a newline would throw off the assertion count.
    assert not {ch for ch in doc.text if ch < " "} - {"\n"}
    assert not any("\n" in entry for entry in doc.assertions + _footer(doc))


@st.composite
def smt_specs(draw):
    # P and T reach two digits, so stamping must splice multi-digit slot
    # and process ids
    P = draw(st.integers(1, 12), label="P")
    M = draw(st.integers(0, 4), label="M")
    T = draw(st.integers(0, 12), label="T")
    pairs = [(listener, speaker) for listener in range(P) for speaker in range(P) if listener != speaker]
    # the empty relation, and sparse ones, leave isolated listeners
    hears = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()), label="hears")
    return make_spec(
        processes=P, packets=M, horizon=T,
        source=draw(st.integers(0, P - 1), label="source"),
        topology=hears,
        liveness=draw(st.sampled_from(list(LivenessMode)), label="liveness"),
        goal=draw(st.sampled_from(list(GoalKind)), label="goal"),
    )


@settings(deadline=None)
@given(smt_specs())
def test_emitter_equals_the_assertion_by_assertion_reference(spec):
    assert _lines(emit_smtlib(spec)) == _lines(_reference_emit(spec))


@settings(deadline=None)
@given(smt_specs())
def test_no_placeholder_leaks_and_every_entry_is_one_line(spec):
    _assert_one_line_per_entry_and_no_placeholders(emit_smtlib(spec))


@settings(deadline=None)
@given(smt_specs())
@example(make_spec(processes=3, packets=2, horizon=0, topology="all", liveness=EACH))
@example(make_spec(processes=3, packets=0, horizon=2, topology="all", liveness=EACH))
@example(make_spec(processes=3, packets=2, horizon=2, topology=set(), goal=GoalKind.NONE))
@example(make_spec(processes=4, packets=1, horizon=2, topology={(1, 0)}, liveness=EACH))
def test_family_terms_equal_the_terms_in_the_text(spec):
    assert family_terms(spec) == _text_terms(emit_smtlib(spec))


# (P, M, T) of the five smt-export benchmark rungs, then horizons around a
# digit boundary, a packet-free spec, a lone process, and three-digit process
# ids with the last process as the source
RUNG_SHAPES = ((7, 2, 7), (9, 3, 9), (11, 3, 11), (14, 5, 14), (18, 6, 18))
EDGE_SHAPES = tuple((3, 2, T) for T in (0, 9, 10, 99, 100)) + ((4, 0, 10), (1, 2, 10))
EDGE_SHAPES += ((101, 1, 2), (100, 2, 1), (101, 0, 1))


def _four_speakers(P, seed):
    """An explicit relation in which every listener hears four random
    speakers (or all others, if fewer), drawn as the smt-export workload does."""
    rng = random.Random(seed)
    pairs = set()
    for listener in range(P):
        others = [p for p in range(P) if p != listener]
        pairs.update((listener, speaker) for speaker in rng.sample(others, min(4, len(others))))
    return pairs


@pytest.mark.parametrize("topology", ["all", "line", "explicit"])
@pytest.mark.parametrize("shape", RUNG_SHAPES + EDGE_SHAPES, ids=lambda shape: "P=%d M=%d T=%d" % shape)
def test_emitter_equals_the_reference_on_the_benchmark_rungs(shape, topology, tmp_path, monkeypatch):
    P, M, T = shape
    if topology == "explicit":
        topology = _four_speakers(P, seed=P * 1000 + M * 100 + T)
    source = P - 1 if P >= 100 else P // 2 if topology != "line" else 0
    spec = make_spec(processes=P, packets=M, horizon=T, source=source,
                     topology=topology, liveness=EACH if P % 2 else LivenessMode.OFF)
    doc, reference = emit_smtlib(spec), _reference_emit(spec)
    # the file emit-smt --out writes, gathered from the blocks by its writer;
    # at T = 99 and 100 that takes more than one os.writev. Compared line by
    # line, as _lines does, but as bytes
    path = tmp_path / "doc.smt2"
    reads = record_view_reads(monkeypatch)
    _write(str(path), doc.pieces())
    assert reads == []
    assert (len(doc.pieces()) > os.sysconf("SC_IOV_MAX")) is (T >= 99)
    assert path.read_bytes().split(b"\n") == reference.text.encode().split(b"\n")
    assert _lines(doc) == _lines(reference)
    # blocks and the reference's single lines split the same lines
    assert (doc.assertions, _footer(doc)) == (reference.assertions, _footer(reference))
    _assert_one_line_per_entry_and_no_placeholders(doc)


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
    header, declarations = HEADER.decode().splitlines(), DECLARATIONS.decode().splitlines()
    declared = sum(line.startswith("(declare-fun") for line in declarations)
    assert len(exprs) == len(header) + declared + len(doc.assertions) + len(_footer(doc))


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
            code = act.content if act.kind is ActionKind.TRANSMIT else -1
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


def test_run_external_feeds_the_file_bytes_and_reads_the_reply_as_text(tmp_path, monkeypatch):
    # the solver reads exactly what emit-smt --out writes, and its reply is
    # decoded as text mode decodes it, CR LF and a lone CR made LF
    doc = emit_smtlib(make_spec())
    reads = record_view_reads(monkeypatch)
    script = tmp_path / "digest.py"
    script.write_text(
        "import hashlib, sys\n"
        "digest = hashlib.sha256(sys.stdin.buffer.read()).hexdigest().encode()\n"
        "sys.stdout.buffer.write(b'sat\\r\\n' + digest + b'\\r\\n(done)\\r')\n"
    )
    result = run_external(f"{sys.executable} {script}", doc)
    digest = hashlib.sha256(b"".join(doc.pieces())).hexdigest()
    assert result.status == "sat"
    assert result.output == f"sat\n{digest}\n(done)\n"
    assert reads == []


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
        # whole replies that int() would read: ASCII decimal only
        "(((sleep ٠ 0) false) ((listen 0 0) true) ((transmit 0 0) (- 1)))",
        "(((sleep 0_0 0) false) ((listen 0 0) true) ((transmit 0 0) (- 1)))",
        "(((sleep 0 0) false) ((listen 0 0) true) ((transmit 0 0) (- ١)))",
        "(((sleep 0 0) false) ((listen 0 0) false) ((transmit 0 0) 0_0))",
        # integers past 4,300 digits, which int() reads or refuses by interpreter
        "(((sleep 0 0) false) ((listen 0 0) false) ((transmit 0 0) (- " + "9" * 4301 + ")))",
        "(((sleep 0 0) false) ((listen 0 0) false) ((transmit 0 0) (- " + "9" * 5000 + ")))",
        "(((sleep " + "9" * 4301 + " 0) false))",
        "(((sleep 0 " + "9" * 5000 + ") false))",
    ],
    ids=["non-integer-index", "deep-nesting", "unicode-digit", "arabic-indic-index",
         "underscore-index", "arabic-indic-value", "underscore-value",
         "value-4301-digits", "value-5000-digits", "index-4301-digits", "index-5000-digits"],
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


def _declared() -> dict[str, int]:
    """Each declared function's name and arity."""
    return {c[1]: len(c[2]) for c in parse_sexprs(DECLARATIONS.decode())}


def _ints(values):
    assert all(type(v) is int for v in values), values
    return values


def _bools(values):
    assert all(type(v) is bool for v in values), values
    return values


CELL = ("sleep", "listen", "transmit")


def _encoding(act):
    """An action as the values of sleep, listen and transmit in its cell."""
    return act.kind is SLEEP.kind, act.kind is LISTEN.kind, (
        act.content if act.kind is ActionKind.TRANSMIT else -1)


def trace_values(trace):
    """The supplied functions' values on a trace, keyed as Evaluator reads them."""
    values = {}
    for t, row in enumerate(trace.actions):
        for p, act in enumerate(row):
            values.update(((name, t, p), value) for name, value in zip(CELL, _encoding(act)))
    for t, krow in enumerate(trace.knowledge):
        for p, packets in enumerate(knowledge_table(krow, trace.spec.processes)):
            for k, held in enumerate(packets, 1):
                values["knows", t, p, k] = held
    return values


def _equal(v):
    assert len({type(x) for x in v}) == 1, v
    return all(x == v[0] for x in v)


# each fragment operator on its evaluated arguments
APPLY = {
    "and": lambda v: all(_bools(v)),
    "or": lambda v: any(_bools(v)),
    "not": lambda v: not _bools(v)[0],
    "=>": lambda v: not all(_bools(v)[:-1]) or v[-1],
    "=": _equal,
    "ite": lambda v: v[1] if _bools(v[:1])[0] else v[2],
    "+": lambda v: sum(_ints(v)),
    "-": lambda v: -_ints(v)[0] if len(v) == 1 else v[0] - sum(_ints(v)[1:]),
    ">=": lambda v: all(a >= b for a, b in zip(_ints(v), v[1:])),
    "<=": lambda v: all(a <= b for a, b in zip(_ints(v), v[1:])),
    ">": lambda v: all(a > b for a, b in zip(_ints(v), v[1:])),
}


class Evaluator:
    """Evaluates terms and assertions on a values dict. compiled and
    assertion convert a term once, literals, keys and operators included,
    into a function of the values, which a loop over many value sets calls."""

    def __init__(self, functions, values):
        self.functions = functions
        self.values = values

    def key(self, app):
        head, *args = app
        assert len(args) == self.functions[head], app
        return (head, *(int(a) for a in args))

    def compiled(self, term):
        if isinstance(term, str):
            literal = term == "true" if term in ("true", "false") else int(term)
            return lambda values: literal
        head, *args = term
        if head in self.functions:
            key = self.key(term)

            def read(values):
                assert key in values, f"{key} is read before it is defined"
                return values[key]
            return read
        parts = [self.compiled(a) for a in args]
        apply = APPLY[head]
        return lambda values: apply([part(values) for part in parts])

    def assertion(self, expr):
        """One assertion body as a function of the values that tells whether
        it holds, first binding a definition."""
        body = self.compiled(expr)
        if expr[0] == "=" and isinstance(expr[1], list) and expr[1][0] not in SUPPLIED:
            key, definition = self.key(expr[1]), self.compiled(expr[2])

            def holds(values):
                if key not in values:
                    values[key] = definition(values)
                    return True
                return _bools([body(values)])[0]
            return holds
        return lambda values: _bools([body(values)])[0]

    def value(self, term):
        return self.compiled(term)(self.values)

    def holds(self, expr) -> bool:
        return self.assertion(expr)(self.values)


def falsified(doc, traces):
    """For each trace, the families with an assertion it falsifies."""
    ev = Evaluator(_declared(), {})
    named = [cmd[1] for cmd in parse_sexprs("\n".join(doc.assertions))]
    checks = [(ev.assertion(expr), label_of_assertion_name(name)) for _, expr, _, name in named]
    out = []
    for trace in traces:
        values = trace_values(trace)
        out.append({label for holds, label in checks if not holds(values)})
    return out


def _random_spec(rng):
    P = rng.randint(1, 5)
    pairs = [(l, s) for l in range(P) for s in range(P) if l != s]
    topo = rng.choice([
        topology_all(P),
        topology_line(P),
        topology_explicit(P, (q for q in pairs if rng.random() < 0.5)),
    ])
    return NetworkSpec(
        P, rng.randint(0, 3), rng.randint(0, 4), rng.randrange(P), topo,
        rng.choice(list(LivenessMode)), rng.choice(list(GoalKind)),
    )


def test_solved_traces_satisfy_every_assertion():
    rng = random.Random(7001)
    specs = [spec for spec, _ in GOLDEN.values()]
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
    ev = Evaluator({"listen": 2, "heard": 2}, trace_values(trace))
    with pytest.raises(AssertionError, match="before it is defined"):
        ev.holds(["=", "1", ["heard", "0", "0"]])
    assert ev.holds(["=", ["heard", "0", "0"], ["ite", ["listen", "0", "0"], "3", "0"]])
    assert ev.value(["heard", "0", "0"]) == 3
    assert not ev.holds(["=", ["heard", "0", "0"], "2"])


CELL_ASSERTION = re.compile(r"\|(?:R1_ExactlyOneAction(?:\.any)?|R2_ContentDomain)@t=(\d+),p=(\d+)\|")


@pytest.mark.parametrize("packets", [0, 1, 2, 5])
def test_cell_assertions_admit_exactly_the_encodings_of_the_action_domain(packets):
    """R1, R1.any and R2 mention one cell's variables each. Over sleep and
    listen in {true, false} and transmit in [-3, M + 3], a cell's three hold
    together exactly on the M + 3 encodings of action_domain(M)."""
    spec = make_spec(processes=2, packets=packets, horizon=2, topology="all")
    doc = emit_smtlib(spec)
    cells = {}
    for _, (_, expr, _, name) in parse_sexprs("\n".join(doc.assertions)):
        if match := CELL_ASSERTION.fullmatch(name):
            cells.setdefault((int(match[1]), int(match[2])), []).append(expr)
    assert sorted(cells) == [(t, p) for t in range(2) for p in range(2)]
    expected = set(map(_encoding, action_domain(packets)))
    assert len(expected) == packets + 3
    ev = Evaluator(_declared(), {})
    for (t, p), assertions in cells.items():
        assert len(assertions) == 3
        admitted = set()
        for values in product((False, True), (False, True), range(-3, packets + 4)):
            ev.values.update(((name, t, p), value) for name, value in zip(CELL, values))
            if all(map(ev.holds, assertions)):
                admitted.add(values)
        assert admitted == expected, (t, p)


# Shapes whose whole model set is walked, over every legal action grid, with
# no solver. Explicit relations are (listener, speaker) pairs.
GRID_SPECS = {
    "all P=2 M=2 T=2": make_spec(processes=2, packets=2, horizon=2, source=1, topology="all"),
    "all P=2 M=0 T=3 liveness": make_spec(processes=2, packets=0, horizon=3, topology="all", liveness=EACH),
    "all P=2 M=1 T=3 liveness": make_spec(processes=2, packets=1, horizon=3, topology="all", liveness=EACH),
    "line P=3 M=1 T=2": make_spec(processes=3, packets=1, horizon=2, topology="line"),
    "line P=3 M=1 T=1 unsat": make_spec(processes=3, packets=1, horizon=1, topology="line"),
    "explicit P=3 M=1 T=1": make_spec(processes=3, packets=1, horizon=1, source=2,
                                      topology={(0, 2), (1, 0), (1, 2)}),
    "explicit P=3 M=2 T=1 no goal": make_spec(processes=3, packets=2, horizon=1, topology={(1, 0), (2, 1)},
                                              goal=GoalKind.NONE),
}


def _models(spec, families):
    """Every model of the assertions of `families`, which hold R1, R2 and R4,
    as (action grid, values), found by walking every legal grid. A cell takes
    the encodings of the action domain, the only values R1 and R2 admit (see
    the test above); knows is set at t = 0 from the R4 literals and, with R7
    among the families, at t + 1 from the R7 equalities, in document order,
    with the senders and heard definitions R7 reads. Without R7, every knows
    term past t = 0 is free and each of its values is tried. Then the
    families' assertions are evaluated."""
    P, M, T = spec.processes, spec.packets, spec.horizon
    doc = emit_smtlib(spec)
    ev = Evaluator(_declared(), {})  # every term is compiled here, before the grid loop
    key, compiled = ev.key, ev.compiled
    definitions, bodies = [], []  # definitions: (defined term, its value as a function of the values)
    for _, expr, _, label in (cmd[1] for cmd in parse_sexprs("\n".join(doc.assertions))):
        family = label_of_assertion_name(label)
        if family not in families:
            continue
        if family is L.R4_INITIAL_KNOWLEDGE:  # (knows 0 p k) or its negation
            negated = expr[0] == "not"
            definitions.append((key(expr[1] if negated else expr), compiled("false" if negated else "true")))
        elif family is L.R7_COLLISION_FREE_LEARNING:  # (= (f args) value)
            assert expr[0] == "=", expr
            definitions.append((key(expr[1]), compiled(expr[2])))
        bodies.append(ev.assertion(expr))
    bodies.reverse()  # the goal, which fails most, first
    knows = [("knows", t, p, k) for t in range(T + 1) for p in range(P) for k in range(1, M + 1)]
    free = [] if L.R7_COLLISION_FREE_LEARNING in families else [term for term in knows if term[1]]
    # each knows term defined exactly once or free; evaluating the definitions
    # in order below fails on a read of a term not yet defined
    assert sorted(term for term, _ in definitions if term[0] == "knows") + free == knows
    assert len({term for term, _ in definitions}) == len(definitions)
    encoding = {act: _encoding(act) for act in action_domain(M)}
    cells = [[(function, t, p) for function in CELL] for t in range(T) for p in range(P)]
    for grid in product(action_domain(M), repeat=T * P):
        values = {}
        for keys, act in zip(cells, grid):
            values.update(zip(keys, encoding[act]))
        for term, value in definitions:
            values[term] = value(values)
        for held in product((False, True), repeat=len(free)):
            values.update(zip(free, held))
            if all(holds(values) for holds in bodies):
                yield tuple(grid[t * P:(t + 1) * P] for t in range(T)), values


@pytest.mark.parametrize("name", sorted(GRID_SPECS))
def test_the_grids_satisfying_every_assertion_are_the_oracle_traces(name):
    """The grids whose values satisfy every assertion (see _models), with
    those knows values, are enumerate_all's traces."""
    spec = GRID_SPECS[name]
    P, M, T = spec.processes, spec.packets, spec.horizon
    knows = [("knows", t, p, k) for t in range(T + 1) for p in range(P) for k in range(1, M + 1)]
    models = {
        actions: {term: values[term] for term in knows}
        for actions, values in _models(spec, frozenset(RequirementLabel))
    }
    traces = enumerate_all(encode(spec))
    assert models == {trace.actions: {term: trace_values(trace)[term] for term in knows} for trace in traces}
    assert bool(models) == ("unsat" not in name)


# Unsat shapes whose minimal core is checked against the document, over
# every legal action grid, with that core. Explicit relations are (listener,
# speaker) pairs.
GOAL, R3, R5, R7, TOPO = (L.GOAL_DEADLINE, L.R3_LIVENESS, L.R5_TRANSMIT_ONLY_KNOWN,
                          L.R7_COLLISION_FREE_LEARNING, L.TOPO_HEARS_RELATION)
CORE_SPECS = {
    "all P=2 M=1 T=0": (make_spec(processes=2, packets=1, horizon=0, topology="all"), {GOAL}),
    "all P=2 M=2 T=1": (make_spec(processes=2, packets=2, horizon=1, topology="all"), {GOAL, R7}),
    "all P=3 M=3 T=1": (make_spec(processes=3, packets=3, horizon=1, topology="all"), {GOAL, R7}),
    "line P=3 M=1 T=1": (make_spec(processes=3, packets=1, horizon=1, topology="line"),
                         {GOAL, R7, TOPO}),
    "explicit P=2 M=1 T=1 liveness": (make_spec(processes=2, packets=1, horizon=1, topology={(1, 0)},
                                                liveness=EACH), {R3}),
    "explicit P=3 M=1 T=2": (make_spec(processes=3, packets=1, horizon=2, topology={(1, 2), (2, 1)}),
                             {GOAL, R5, R7, TOPO}),
}
# The most knows terms, P·M·(T+1), whose values are enumerated when R7 is dropped.
FREE_KNOWS = 12


@pytest.mark.parametrize("name", sorted(CORE_SPECS))
def test_the_core_families_have_no_model_and_each_one_is_needed(name):
    """The assertions of unsat_core_minimize's families, with those of the
    four structural families, have no model, and dropping any one core
    family's gives one. The structural families stay on both sides: without
    R4's, criterion 5's core {GOAL, R7} holds with every knows true and
    every cell asleep. TOPO has no assertions of its own, as the hears
    relation is folded into R7's heard definitions, so dropping it is not
    checked; nor is dropping R7 where P·M·(T+1) > FREE_KNOWS, as on
    "all P=3 M=3 T=1"."""
    spec, expected = CORE_SPECS[name]
    core = unsat_core_minimize(encode(spec))
    assert core == expected
    kept = core | STRUCTURAL_LABELS
    assert next(_models(spec, kept), None) is None
    for label in core - {TOPO}:
        if label is R7 and spec.processes * spec.packets * (spec.horizon + 1) > FREE_KNOWS:
            continue
        assert next(_models(spec, kept - {label}), None) is not None, label


def _lint(doc):
    """Every application is a declared function at its arity or a fragment
    operator at an arity it takes; every assertion has a unique name."""
    commands = parse_sexprs(doc.text)
    functions = _declared()

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
                         topology=rng.sample(pairs, 12))
    for spec in [spec for spec, _ in GOLDEN.values()] + [explicit]:
        _lint(emit_smtlib(spec))
