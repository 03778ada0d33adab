"""Hostile inputs: whatever mutation of a real spec file, trace file or
get-value reply the parsers get, only their documented errors escape."""

from __future__ import annotations

import re

from hypothesis import example, given, settings, strategies as st

from protoforge.encoder import encode
from protoforge.model import SpecError, parse_spec, render_spec
from protoforge.smt import SmtResponseError, parse_value_response
from protoforge.solver import solve
from protoforge.trace import TraceFormatError, read_trace, write_trace
from conftest import make_spec
from test_cli import OVERSIZED_PACKETS_TRACE
from test_smt import _response_for

SPECS = [
    make_spec(),
    make_spec(processes=4, packets=2, horizon=4, source=1, topology="all"),
    parse_spec(
        "processes = 3\npackets = 2\nhorizon = 4\nsource = 0\ntopology = explicit\n"
        "liveness = each-action-once\ngoal = none\nhears 1 0\nhears 2 1\nhears 0 2\n"
    ),
]
TRACES = {spec: solve(encode(spec)).trace for spec in SPECS}

# Small sizes, and sizes far past every limit (up to 10**30), but none in
# between: a legal size near a limit builds what that limit allows.
NUMBERS = st.one_of(st.integers(-2, 12), st.integers(10**6, 10**30), st.sampled_from([1025, 2**24 + 1]))
NOISE = st.sampled_from(["[", "]", "{", "}", "(", ")", ",", ":", "-", "=", "#", "\n", '"', "true",
                         "null", "1e999", "NaN", "hears", "tx:", "knows", "all", "(- 1)"])
TOKENS = re.compile(r"\d+|[A-Za-z_:-]+|\s+|.", re.S)


@st.composite
def mutated(draw, text: str) -> str:
    """`text` with one to four edits: a number replaced, a token dropped,
    doubled or followed by noise, or the tail cut off."""
    tokens = TOKENS.findall(text)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["number", "number", "drop", "double", "noise", "cut"]))
        if edit == "number":
            numbers = [j for j, token in enumerate(tokens) if token.isdigit()]
            if numbers:
                tokens[draw(st.sampled_from(numbers))] = str(draw(NUMBERS))
        elif edit == "drop":
            del tokens[i]
        elif edit == "double":
            tokens.insert(i, tokens[i])
        elif edit == "noise":
            tokens.insert(i, draw(NOISE))
        else:
            tokens = tokens[:i]
        if not tokens:
            break
    return "".join(tokens)


# An id far past P: refused before it could become a bit of a mask.
HOSTILE_HEARS = render_spec(SPECS[2]) + "hears 1000000000000 0\n"


@settings(deadline=None)
@given(st.sampled_from(SPECS).flatmap(lambda spec: mutated(render_spec(spec))))
@example(HOSTILE_HEARS)
def test_parse_spec_raises_only_spec_errors(text):
    try:
        parse_spec(text)
    except SpecError:
        pass


@settings(deadline=None)
@given(st.sampled_from(SPECS).flatmap(lambda spec: mutated(write_trace(TRACES[spec]))))
@example("[" * 100_000)  # nesting deeper than the interpreter's recursion limit
@example('{"spec": ' * 100_000)
@example(OVERSIZED_PACKETS_TRACE)  # a small file whose spec claims 1,864,135 packets
@example(write_trace(TRACES[SPECS[2]]).replace("[1, 0]", "[1000000000000, 0]", 1))
def test_read_trace_raises_only_trace_format_errors(text):
    try:
        read_trace(text)
    except TraceFormatError:
        pass


@settings(deadline=None)
@given(st.sampled_from(SPECS).flatmap(
    lambda spec: st.tuples(st.just(spec), mutated(_response_for(TRACES[spec])))
))
def test_parse_value_response_raises_only_smt_response_errors(case):
    spec, text = case
    try:
        parse_value_response(text, spec)
    except SmtResponseError:
        pass
