from __future__ import annotations

import json
import re
import time
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from protoforge.encoder import describe, encode
from protoforge.model import (
    GoalKind,
    LivenessMode,
    NetworkSpec,
    RequirementLabel,
    SpecError,
    SpecParseError,
    SpecValidationError,
    TAXONOMY,
    hears,
    parse_spec,
    read_int,
    requirement_families,
    render_spec,
    set_bits,
    spec_as_dict,
    spec_from_dict,
    topology_all,
    topology_explicit,
    topology_line,
)
from protoforge.cli import main
from protoforge.trace import TraceFormatError, audiences, read_trace
from conftest import make_spec

LINE3_TEXT = (
    "processes=3\npackets=1\nhorizon=2\nsource=0\n"
    "topology=line\nliveness=off\ngoal=all-know-all"
)


def test_parse_line3():
    spec = parse_spec(LINE3_TEXT)
    assert spec == NetworkSpec(
        processes=3,
        packets=1,
        horizon=2,
        source=0,
        audience=topology_line(3),
        liveness=LivenessMode.OFF,
        goal=GoalKind.ALL_KNOW_ALL,
    )


def test_parse_empty_problem():
    text = "processes=1\npackets=0\nhorizon=0\nsource=0\ntopology=all\nliveness=off\ngoal=none"
    spec = parse_spec(text)
    assert (spec.processes, spec.packets, spec.horizon) == (1, 0, 0)
    assert spec.goal is GoalKind.NONE
    assert hears(spec.audience) == []


def test_parse_source_out_of_range():
    text = LINE3_TEXT.replace("source=0", "source=5")
    with pytest.raises(SpecValidationError, match="source out of range"):
        parse_spec(text)


def test_parse_comments_and_whitespace():
    text = (
        "# a line of three nodes\n"
        "  processes   =  3\n\npackets=1\nhorizon = 2\nsource =0\n"
        "topology= line\nliveness =off\ngoal = all-know-all\n"
    )
    assert parse_spec(text) == parse_spec(LINE3_TEXT)


def test_parse_unknown_key_reports_line():
    text = LINE3_TEXT + "\nflux_capacity = 9"
    with pytest.raises(SpecParseError) as err:
        parse_spec(text)
    assert "flux_capacity" in str(err.value)
    assert err.value.line_no == 8


def test_parse_duplicate_key():
    text = LINE3_TEXT + "\nsource = 1"
    with pytest.raises(SpecParseError, match="duplicate"):
        parse_spec(text)


def test_parse_missing_keys_listed():
    with pytest.raises(SpecParseError) as err:
        parse_spec("processes = 2\npackets = 1")
    message = str(err.value)
    for key in ("horizon", "source", "topology", "liveness", "goal"):
        assert key in message


def test_parse_explicit_hears():
    text = (
        "processes=3\npackets=1\nhorizon=1\nsource=0\n"
        "topology=explicit\nhears 1 0\nhears 2 0\nliveness=off\ngoal=none"
    )
    spec = parse_spec(text)
    assert hears(spec.audience) == [(1, 0), (2, 0)]


def test_parse_hears_requires_explicit_topology():
    text = LINE3_TEXT + "\nhears 1 0"
    with pytest.raises((SpecParseError, SpecValidationError)):
        parse_spec(text)


def test_parse_bad_int_reports_line(tmp_path):
    with pytest.raises(SpecParseError) as err:
        parse_spec("processes = few\npackets = 1")
    assert err.value.line_no == 1
    # integers are ASCII decimal: int() alone would read 1_0 as 10, the
    # fullwidth ３ as 3 and the Arabic-Indic ١ ٠ as the pair (1, 0)
    rest = "horizon = 2\nsource = 0\ntopology = explicit\nliveness = off\ngoal = none\n"
    for head, message in [
        ("processes = 1_0\npackets = 1\n", "processes must be an integer, got '1_0'"),
        ("processes = 2\npackets = ３\n", "packets must be an integer, got '３'"),
        ("processes = 2\npackets = 1\nhears ١ ٠\n", "hears ids must be integers: 'hears ١ ٠'"),
    ]:
        with pytest.raises(SpecParseError, match=re.escape(message)):
            parse_spec(head + rest)
        path = tmp_path / "bad.spec"
        path.write_text(head + rest, encoding="utf-8")
        assert main(["synth", str(path)]) == 4
    spec = parse_spec("processes = +3\npackets = 007\n" + rest)  # a sign and zeros still read
    assert (spec.processes, spec.packets) == (3, 7)


@pytest.mark.parametrize("digits", [4301, 5000])
def test_an_integer_past_4300_digits_is_a_parse_error_naming_its_line(digits):
    # refused by the format on every interpreter, not by whichever limit the
    # interpreter puts on int()
    huge = "9" * digits
    rest = "horizon = 2\nsource = 0\ntopology = explicit\nliveness = off\ngoal = none\n"
    for text, line_no, message in [
        (f"processes = {huge}\npackets = 1\n" + rest, 1,
         f"processes must be an integer, got '{huge}'"),
        (f"processes = 2\npackets = -{huge}\n" + rest, 2,
         f"packets must be an integer, got '-{huge}'"),
        ("processes = 2\npackets = 1\n" + rest + f"hears 0 {huge}\n", 8,
         "hears ids must be integers: "),
    ]:
        with pytest.raises(SpecParseError, match=f"^line {line_no}: {re.escape(message)}") as err:
            parse_spec(text)
        assert err.value.line_no == line_no
    # 4,300 digits are still read, and refused by value
    with pytest.raises(SpecValidationError, match=r"out of range in hears pair \(0, 9{4300}\)$"):
        parse_spec("processes = 2\npackets = 1\n" + rest + f"hears 0 {'9' * 4300}\n")


EXPLICIT3_TEXT = (
    "processes = 3\npackets = 1\nhorizon = 2\nsource = 0\n"
    "topology = explicit\nliveness = off\ngoal = none\n"
)


@pytest.mark.parametrize(
    "lines, outcome",
    [
        ("hears=1 2", [(1, 2)]),
        ("= hears 1 2", [(1, 2)]),
        ("hears\t1\t2", [(1, 2)]),
        ("hears\u20031\u20032", [(1, 2)]),  # an em space is whitespace too
        ("hears +1 02", [(1, 2)]),
        ("hears 2 1\nhears 1 2", [(1, 2), (2, 1)]),
        ("hears 1 2\nhears 01 +2", (9, "duplicate hears pair (1, 2)")),
        ("hears 1", (8, "hears takes exactly two process ids")),
        ("hears 1 2 0", (8, "hears takes exactly two process ids")),
    ],
    ids=["equals", "leading equals", "tab", "em space", "sign and zero", "two pairs",
         "duplicate spelled differently", "one id", "three ids"],
)
def test_a_hears_line_reads_as_its_tokens_do(lines, outcome):
    # "=" counts as whitespace, and ids are spelled as read_int reads them
    assert _by_tokens(lines) == outcome
    text = EXPLICIT3_TEXT + lines + "\n"
    if isinstance(outcome, list):
        assert hears(parse_spec(text).audience) == outcome
    else:
        line_no, message = outcome
        with pytest.raises(SpecParseError, match=f"^line {line_no}: {re.escape(message)}$") as err:
            parse_spec(text)
        assert err.value.line_no == line_no


def _by_tokens(lines: str) -> list[tuple[int, int]] | tuple[int, str]:
    """What the token rule makes of hears lines put after EXPLICIT3_TEXT's
    seven: "=" reads as whitespace, a line whose first token is "hears"
    names two ids as read_int reads them, and any other line is read as
    key = value. The sorted pairs, or the refused line's number and message."""
    pairs = set()
    for line_no, raw in enumerate(lines.splitlines(), start=8):
        line = raw.strip()
        if not line:
            continue
        tokens = line.replace("=", " ").split()
        if tokens[:1] != ["hears"]:
            if "=" not in line:
                return line_no, f"expected key = value, got {line!r}"
            return line_no, f"unknown key {line.partition('=')[0].strip()!r}"
        ids = [read_int(token) for token in tokens[1:]]
        if len(ids) != 2:
            return line_no, "hears takes exactly two process ids"
        if None in ids:
            return line_no, f"hears ids must be integers: {line!r}"
        if tuple(ids) in pairs:
            return line_no, f"duplicate hears pair {tuple(ids)}"
        pairs.add(tuple(ids))
    return sorted(pairs)


def _outcome(text: str) -> object:
    try:
        return parse_spec(text)
    except SpecError as err:
        return type(err), str(err)


# U+0085 and U+001C end a line as splitlines reads it and are whitespace
# to strip, split and the regular expression; U+0662 is a digit to int()
# but not to read_int. Most lines are "hears" and two ids, spaced out.
_SPACE = st.sampled_from([" ", " ", "=", "\t", "\u2003", "\u0085", "\u001c"])
_GAP, _SEP = (st.lists(_SPACE, min_size=size, max_size=2).map("".join) for size in (0, 1))
_ID = st.one_of(
    st.sampled_from(["0", "1", "2", "01", "+2", "-1"]),
    st.lists(st.sampled_from(["+", "-", "0", "1", "2", "_", "\u0662"]), min_size=1, max_size=3)
    .map("".join),
)
_PAIR_LINE = st.tuples(_GAP, _SEP, _ID, _SEP, _ID, _GAP).map(
    lambda parts: parts[0] + "hears" + "".join(parts[1:]))
_ANY_LINE = st.lists(st.one_of(st.just("hears"), _ID, _SEP), max_size=6).map("".join)
_HEARS_LINES = st.lists(st.one_of(_PAIR_LINE, _PAIR_LINE, _ANY_LINE), min_size=1, max_size=4)


@given(_HEARS_LINES.map("\n".join))
def test_any_hears_line_reads_as_its_tokens_do(lines):
    text = EXPLICIT3_TEXT + lines + "\n"
    expected = _by_tokens(lines)
    if isinstance(expected, list):  # the spec those pairs make, or its refusal
        pairs = "".join(f"hears {l} {s}\n" for l, s in expected)
        assert _outcome(text) == _outcome(EXPLICIT3_TEXT + pairs)
    else:
        line_no, message = expected
        with pytest.raises(SpecParseError, match=f"^line {line_no}: {re.escape(message)}$") as err:
            parse_spec(text)
        assert err.value.line_no == line_no


def test_a_size_product_past_4300_digits_is_named_without_printing_it():
    # each factor has at most 4,300 digits, but their product may have more,
    # and str() refuses to print it
    fields = {"processes": 3, "packets": int("9" * 4300), "horizon": 2, "source": 0,
              "topology": "all", "liveness": "off", "goal": "none"}
    message = ("(horizon + 1) * processes * max(packets, 1) must be <= 16777216, "
               "got a number of more than 4300 digits")
    text = "".join(f"{key} = {value}\n" for key, value in fields.items())
    for read, source in [(parse_spec, text), (spec_from_dict, fields)]:
        with pytest.raises(SpecValidationError) as err:
            read(source)
        assert err.value.errors == (message,)
    # a product that can be printed still is
    with pytest.raises(SpecValidationError, match=r"got 89{4298}1$"):
        parse_spec(text.replace("9" * 4300, "9" * 4299))


def test_topology_all_pairs():
    assert len(hears(topology_all(3))) == 6
    assert hears(topology_all(1)) == []
    assert hears(topology_all(2)) == [(0, 1), (1, 0)]
    assert topology_all(3) == (0b110, 0b101, 0b011)


def test_topology_line_pairs():
    assert hears(topology_line(3)) == [(1, 0), (2, 1)]
    assert hears(topology_line(1)) == []
    assert hears(topology_line(4)) == [(1, 0), (2, 1), (3, 2)]
    assert topology_line(4) == (0b0010, 0b0100, 0b1000, 0)


@pytest.mark.parametrize("processes", [1, 2, 5])
@pytest.mark.parametrize("kind", ["all", "line", "explicit", "explicit, last speak to nobody"])
def test_a_spec_holds_one_mask_per_process(processes, kind):
    pairs = {
        "all": [(l, s) for l in range(processes) for s in range(processes) if l != s],
        "line": [(s + 1, s) for s in range(processes - 1)],
        "explicit": [(0, s) for s in range(1, processes)],
        "explicit, last speak to nobody": [(s, 0) for s in range(1, processes)],
    }[kind]
    spec = make_spec(processes=processes, topology=kind if kind in ("all", "line") else pairs)
    assert len(spec.audience) == processes
    assert hears(spec.audience) == sorted(pairs)


def test_equal_relations_compare_equal():
    # a spec pads the masks it is given to P, however they came
    short, padded = (NetworkSpec(3, 1, 2, 0, masks) for masks in ((0b10,), (0b10, 0, 0)))
    assert short == padded and hash(short) == hash(padded)
    assert spec_as_dict(short) == spec_as_dict(padded)
    assert short.audience == padded.audience == topology_explicit(3, {(1, 0)})
    assert topology_explicit(3, ()) == (0, 0, 0)
    assert topology_explicit(3, {(1, 0), (2, 1)}) == topology_line(3)


def test_validate_ok_on_line3():
    spec = make_spec()
    assert spec.replace() == spec


def test_validate_reflexive_pair():
    with pytest.raises(SpecValidationError, match="reflexive hears pair"):
        make_spec(topology={(0, 0)})


def test_validate_out_of_range_pair():
    with pytest.raises(SpecValidationError, match="out of range"):
        make_spec(processes=3, topology={(9, 0)})


def test_bad_pairs_are_reported_in_pair_order():
    with pytest.raises(SpecValidationError) as err:
        make_spec(processes=3, topology={(9, 0), (2, 2), (1, 7), (0, 0), (1, 0)})
    assert err.value.errors == (
        "reflexive hears pair (0, 0)",
        "process id out of range in hears pair (1, 7)",
        "reflexive hears pair (2, 2)",
        "process id out of range in hears pair (9, 0)",
    )


def test_stray_mask_bits_are_reported_as_pairs():
    # masks built by hand: listener 0 of speaker 0, listener 3 of speaker 1
    # and a speaker 3 past P = 3, after the fields' own errors
    with pytest.raises(SpecValidationError) as err:
        NetworkSpec(3, 1, 2, 7, (0b011, 0b1001, 0, 0b10))
    assert err.value.errors == (
        "source out of range: 7",
        "reflexive hears pair (0, 0)",
        "process id out of range in hears pair (1, 3)",
        "process id out of range in hears pair (3, 1)",
    )
    # a negative mask sets every bit past some point, so no spec takes one
    for mask in (-1, -2, -2**40):
        with pytest.raises(SpecValidationError):
            NetworkSpec(3, 1, 2, 0, (0, mask))


_MASKS = st.one_of(
    st.integers(-2**1100, 2**1100),
    st.builds(lambda bits, sign: sign * sum(1 << b for b in bits),
              st.sets(st.integers(0, 1099), max_size=40), st.sampled_from([1, -1])),
)


@given(_MASKS)
@example(0)
@example(-1)
@example(-2**40)
def test_set_bits_lists_the_bits_a_scan_of_every_position_finds(mask):
    # a negative mask's bits are those below its bit_length, as the scan reads them
    assert set_bits(mask) == [p for p in range(mask.bit_length()) if mask >> p & 1]


ALL_1024 = (
    "processes = 1024\npackets = 1\nhorizon = 2\nsource = 0\n"
    "topology = all\nliveness = off\ngoal = all-know-all\n"
)


def test_a_1024_process_all_relation_costs_masks_not_pairs(capsys, tmp_path):
    # as 1,047,552 pairs this file took 0.9 s and 117 MB to parse, every
    # replace re-checked the pairs and `baseline` on it took 1.7 s
    tracemalloc.start()
    try:
        spec = parse_spec(ALL_1024)
        assert spec.replace(horizon=3).audience is spec.audience
        assert len(spec.audience) == 1024
        assert spec_as_dict(spec)["topology"] == "all"
        counts = describe(encode(spec)).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[RequirementLabel.TOPO_HEARS_RELATION] == 2 * 1024 * 1023
    assert peak < 2 * 2**20
    path = tmp_path / "all.spec"
    path.write_text(ALL_1024, encoding="utf-8")
    started = time.perf_counter()
    assert main(["baseline", str(path)]) == 0
    assert time.perf_counter() - started < 0.3
    assert capsys.readouterr().out.startswith("slots run: 1\n")


def _refuse(*args):
    raise AssertionError("relation built before the input checks")


@pytest.mark.parametrize("topology", ["all", "line"])
@pytest.mark.parametrize(
    "sizes, message",
    [
        ({"processes": 100_000}, "processes must be <= 1024, got 100000"),
        ({"packets": 10**30}, r"\(horizon \+ 1\) \* processes \* max\(packets, 1\) must be <= 16777216"),
    ],
)
def test_size_limits_are_checked_before_a_relation_is_built(
    monkeypatch, tmp_path, topology, sizes, message
):
    monkeypatch.setattr("protoforge.model.topology_all", _refuse)
    monkeypatch.setattr("protoforge.model.topology_line", _refuse)
    fields = {"processes": 3, "packets": 1, "horizon": 2, "source": 0, "topology": topology,
              "liveness": "off", "goal": "all-know-all", **sizes}
    text = "".join(f"{key} = {value}\n" for key, value in fields.items())
    with pytest.raises(SpecValidationError, match=message):
        parse_spec(text)
    with pytest.raises(SpecValidationError, match=message):
        spec_from_dict(fields)
    path = tmp_path / "huge.spec"
    path.write_text(text, encoding="utf-8")
    assert main(["synth", str(path)]) == 4


@pytest.mark.parametrize("topology", ["all", "line"])
def test_stray_hears_lines_are_refused_before_a_relation_is_built(
    monkeypatch, tmp_path, topology
):
    # a 1024-process `all` relation took 0.7 s to build only to be refused
    monkeypatch.setattr("protoforge.model.topology_all", _refuse)
    monkeypatch.setattr("protoforge.model.topology_line", _refuse)
    fields = {"processes": 1024, "packets": 1, "horizon": 2, "source": 0, "topology": topology,
              "liveness": "off", "goal": "all-know-all"}
    text = "".join(f"{key} = {value}\n" for key, value in fields.items()) + "hears 1 0\n"
    message = "hears lines require topology = explicit"
    with pytest.raises(SpecValidationError, match=message):
        parse_spec(text)
    with pytest.raises(SpecValidationError, match=message):
        spec_from_dict({**fields, "hears": [[1, 0]]})
    path = tmp_path / "stray.spec"
    path.write_text(text, encoding="utf-8")
    assert main(["synth", str(path)]) == 4


@pytest.mark.parametrize(
    "processes, packets, horizon, ok",
    [(1024, 1, 0, True), (1025, 0, 0, False),
     (4, 1, 2**22 - 1, True), (4, 1, 2**22, False), (1, 2**24, 0, True), (1, 2**24 + 1, 0, False)],
)
def test_size_limits_are_inclusive(processes, packets, horizon, ok):
    fields = {"processes": processes, "packets": packets, "horizon": horizon, "source": 0,
              "topology": "explicit", "liveness": "off", "goal": "none"}
    if ok:
        spec_from_dict(fields)
    else:
        with pytest.raises(SpecValidationError, match="must be <="):
            spec_from_dict(fields)


def test_size_limits_leave_other_errors_and_derived_specs_alone():
    fields = {"processes": -10**30, "packets": 1, "horizon": -10**30, "source": 0,
              "topology": "all", "liveness": "off", "goal": "none"}
    with pytest.raises(SpecValidationError) as err:
        spec_from_dict(fields)
    assert err.value.errors == ("processes must be >= 1", "horizon must be >= 0")
    # a spec the library derives, such as a long baseline's action log, may
    # pass the limits that input is held to
    spec = make_spec(processes=1024, packets=16, horizon=0, topology=set())
    assert spec.replace(horizon=2**20).horizon == 2**20


def test_validate_bad_source():
    with pytest.raises(SpecValidationError, match="source out of range"):
        make_spec(source=7)


@pytest.mark.parametrize("liveness", list(LivenessMode))
@pytest.mark.parametrize("goal", list(GoalKind))
def test_requirement_families_follow_the_liveness_and_goal_rule(liveness, goal):
    # the rule the table built at import stands for, written out as a set
    expected = set(TAXONOMY)
    if liveness is not LivenessMode.EACH_ACTION_ONCE:
        expected.discard(RequirementLabel.R3_LIVENESS)
    if goal is not GoalKind.ALL_KNOW_ALL:
        expected.discard(RequirementLabel.GOAL_DEADLINE)
    families = requirement_families(make_spec(liveness=liveness, goal=goal))
    assert isinstance(families, frozenset) and families == expected


def test_taxonomy_order_and_index():
    assert [label.value for label in TAXONOMY] == [
        "R1_ExactlyOneAction",
        "R2_ContentDomain",
        "R3_Liveness",
        "R4_InitialKnowledge",
        "R5_TransmitOnlyKnown",
        "R6_NeverForgets",
        "R7_CollisionFreeLearning",
        "GOAL_Deadline",
        "TOPO_HearsRelation",
    ]


@st.composite
def specs(draw):
    processes = draw(st.integers(1, 5))
    packets = draw(st.integers(0, 3))
    horizon = draw(st.integers(0, 5))
    source = draw(st.integers(0, processes - 1))
    pairs = [(l, s) for l in range(processes) for s in range(processes) if l != s]
    kind = draw(st.sampled_from(["all", "line", "explicit"]))
    if kind == "all":
        topo = topology_all(processes)
    elif kind == "line":
        topo = topology_line(processes)
    else:
        topo = topology_explicit(processes, draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set())))
    return NetworkSpec(
        processes=processes,
        packets=packets,
        horizon=horizon,
        source=source,
        audience=topo,
        liveness=draw(st.sampled_from(LivenessMode)),
        goal=draw(st.sampled_from(GoalKind)),
    )


@given(specs())
def test_render_parse_identity(spec):
    assert parse_spec(render_spec(spec)) == spec


@given(specs())
def test_dict_round_trip(spec):
    assert spec_from_dict(spec_as_dict(spec)) == spec


@given(specs())
def test_topology_name_matches_the_named_relations(spec):
    pairs, P = hears(spec.audience), spec.processes
    expected = (
        "all" if pairs == hears(topology_all(P))
        else "line" if pairs == hears(topology_line(P))
        else "explicit"
    )
    assert spec_as_dict(spec)["topology"] == expected


@given(st.integers(1, 8))
def test_line_subset_of_all(p):
    assert set(hears(topology_line(p))) <= set(hears(topology_all(p)))


@given(specs())
def test_valid_specs_pass_validation(spec):
    assert spec.replace() == spec


def test_parse_is_linear_in_hears_lines():
    # every ordered pair of 200 processes: 39,800 hears lines
    pairs = [(l, s) for l in range(200) for s in range(200) if l != s]
    text = (
        "processes = 200\npackets = 1\nhorizon = 1\nsource = 0\n"
        "topology = explicit\nliveness = off\ngoal = none\n"
        + "".join(f"hears {l} {s}\n" for l, s in pairs)
    )
    start = time.perf_counter()
    spec = parse_spec(text)
    assert time.perf_counter() - start < 5.0
    assert hears(spec.audience) == pairs


# The malformed corpus: explicit specs over every (processes, horizon,
# source) with every hears set below, each read as a spec file and as a
# trace's embedded spec. The errors were recorded from the pair-set form
# of the relation: each case lists its field errors, then its pair errors
# in pair order, so the two tables compose all 144 messages.
MALFORMED_HEARS = [
    (), ((0, 0),), ((1, 0),), ((9, 0),), ((-1, 0),), ((10**12, 0),),
    ((0, 10**12), (2, 2)), ((9, 0), (2, 2), (1, 7), (0, 0), (1, 0)),
    ((-1, -1), (10**12, 10**12), (2, 1)),
]
FIELD_ERRORS = {
    (-2, -1, 0): ("processes must be >= 1", "horizon must be >= 0"),
    (-2, -1, 5): ("processes must be >= 1", "horizon must be >= 0"),
    (-2, 2, 0): ("processes must be >= 1",),
    (-2, 2, 5): ("processes must be >= 1",),
    (0, -1, 0): ("processes must be >= 1", "horizon must be >= 0"),
    (0, -1, 5): ("processes must be >= 1", "horizon must be >= 0"),
    (0, 2, 0): ("processes must be >= 1",),
    (0, 2, 5): ("processes must be >= 1",),
    (1, -1, 0): ("horizon must be >= 0",),
    (1, -1, 5): ("horizon must be >= 0", "source out of range: 5"),
    (1, 2, 0): (),
    (1, 2, 5): ("source out of range: 5",),
    (3, -1, 0): ("horizon must be >= 0",),
    (3, -1, 5): ("horizon must be >= 0", "source out of range: 5"),
    (3, 2, 0): (),
    (3, 2, 5): ("source out of range: 5",),
}
_REFLEXIVE_HUGE = ("reflexive hears pair (-1, -1)", "reflexive hears pair (1000000000000, 1000000000000)")
PAIR_ERRORS = {  # (processes, index into MALFORMED_HEARS)
    **{(P, h): () for P in (-2, 0) for h in (0, 2, 3, 4, 5)},
    **{(P, 1): ("reflexive hears pair (0, 0)",) for P in (-2, 0, 1, 3)},
    **{(P, 6): ("reflexive hears pair (2, 2)",) for P in (-2, 0)},
    **{(P, 7): ("reflexive hears pair (0, 0)", "reflexive hears pair (2, 2)") for P in (-2, 0)},
    **{(P, 8): _REFLEXIVE_HUGE for P in (-2, 0, 3)},
    (1, 0): (),
    (1, 2): ("process id out of range in hears pair (1, 0)",),
    (1, 3): ("process id out of range in hears pair (9, 0)",),
    (1, 4): ("process id out of range in hears pair (-1, 0)",),
    (1, 5): ("process id out of range in hears pair (1000000000000, 0)",),
    (1, 6): ("process id out of range in hears pair (0, 1000000000000)", "reflexive hears pair (2, 2)"),
    (1, 7): (
        "reflexive hears pair (0, 0)",
        "process id out of range in hears pair (1, 0)",
        "process id out of range in hears pair (1, 7)",
        "reflexive hears pair (2, 2)",
        "process id out of range in hears pair (9, 0)",
    ),
    (1, 8): (
        "reflexive hears pair (-1, -1)",
        "process id out of range in hears pair (2, 1)",
        "reflexive hears pair (1000000000000, 1000000000000)",
    ),
    (3, 0): (),
    (3, 2): (),
    (3, 3): ("process id out of range in hears pair (9, 0)",),
    (3, 4): ("process id out of range in hears pair (-1, 0)",),
    (3, 5): ("process id out of range in hears pair (1000000000000, 0)",),
    (3, 6): ("process id out of range in hears pair (0, 1000000000000)", "reflexive hears pair (2, 2)"),
    (3, 7): (
        "reflexive hears pair (0, 0)",
        "process id out of range in hears pair (1, 7)",
        "reflexive hears pair (2, 2)",
        "process id out of range in hears pair (9, 0)",
    ),
}


@pytest.mark.parametrize("relation", range(len(MALFORMED_HEARS)), ids=lambda h: f"hears{h}")
@pytest.mark.parametrize("fields", sorted(FIELD_ERRORS), ids=lambda f: "P={},T={},source={}".format(*f))
def test_malformed_spec_errors_list_the_fields_then_the_pairs(fields, relation):
    processes, horizon, source = fields
    obj = {"processes": processes, "packets": 1, "horizon": horizon, "source": source,
           "topology": "explicit", "liveness": "off", "goal": "all-know-all"}
    pairs = MALFORMED_HEARS[relation]
    text = "".join(f"{key} = {value}\n" for key, value in obj.items())
    text += "".join(f"hears {l} {s}\n" for l, s in pairs)
    expected = FIELD_ERRORS[fields] + PAIR_ERRORS[processes, relation]
    for read, source_form in ((parse_spec, text),
                              (spec_from_dict, {**obj, "hears": [list(pair) for pair in pairs]})):
        if not expected:
            assert hears(read(source_form).audience) == sorted(pairs)
            continue
        with pytest.raises(SpecValidationError) as err:
            read(source_form)
        assert err.value.errors == expected


def test_hostile_hears_ids_are_refused_before_any_mask_is_built():
    # as a bit, id 10**12 would make a mask of about 125 GB
    message = r"^process id out of range in hears pair \(1000000000000, 0\)$"
    started = time.perf_counter()
    with pytest.raises(SpecValidationError, match=message):
        parse_spec(LINE3_TEXT.replace("topology=line", "topology=explicit") + "\nhears 1000000000000 0")
    embedded = {**spec_as_dict(make_spec(topology=set())), "hears": [[10**12, 0]]}
    with pytest.raises(SpecValidationError, match=message):
        spec_from_dict(embedded)
    with pytest.raises(TraceFormatError, match=r"^embedded spec: " + message[1:]):
        read_trace(json.dumps({"spec": embedded, "actions": [["listen"] * 3] * 2}))
    with pytest.raises(SpecValidationError, match=r"\(0, 1000000000000\)"):
        topology_explicit(3, [(0, 10**12)])
    assert time.perf_counter() - started < 0.1


def _reference_audiences(pairs, processes):
    audience = [0] * processes
    for listener, speaker in pairs:
        audience[speaker] |= 1 << listener
    return tuple(audience)


def _reference_name(pairs, processes):
    if pairs == {(l, s) for l in range(processes) for s in range(processes) if l != s}:
        return "all"
    if pairs == {(p, p - 1) for p in range(1, processes)}:
        return "line"
    return "explicit"


@st.composite
def relations(draw):
    """A process count and a set of hears pairs, often the complete graph
    or the line written out pair by pair."""
    processes = draw(st.integers(1, 6))
    pairs = {(l, s) for l in range(processes) for s in range(processes) if l != s}
    return processes, draw(st.one_of(
        st.sets(st.sampled_from(sorted(pairs))) if pairs else st.just(set()),
        st.just(pairs),
        st.just({(p, p - 1) for p in range(1, processes)}),
    ))


@given(relations(), st.integers(0, 3), st.sampled_from(list(TAXONOMY)))
@example((3, {(1, 0), (2, 1)}), 2, RequirementLabel.R1_EXACTLY_ONE_ACTION)
@example((2, {(0, 1), (1, 0)}), 1, RequirementLabel.R1_EXACTLY_ONE_ACTION)
@example((3, {(1, 0), (0, 1), (2, 1)}), 1, RequirementLabel.TOPO_HEARS_RELATION)
def test_the_masks_agree_with_a_pair_reference(relation, horizon, dropped):
    processes, pairs = relation
    spec = make_spec(processes=processes, horizon=horizon, topology=pairs)
    enabled = set(TAXONOMY) - {dropped}
    everyone = {(l, s) for l in range(processes) for s in range(processes) if l != s}
    heard = pairs if dropped is not RequirementLabel.TOPO_HEARS_RELATION else everyone
    assert audiences(spec, enabled) == _reference_audiences(heard, processes)
    assert spec_as_dict(spec)["topology"] == _reference_name(pairs, processes)
    assert hears(spec.audience) == sorted(pairs)
    assert describe(encode(spec)).counts[RequirementLabel.TOPO_HEARS_RELATION] == horizon * len(pairs)
