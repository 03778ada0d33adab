from __future__ import annotations

import time
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from protoforge.model import (
    GoalKind,
    LivenessMode,
    NetworkSpec,
    SpecParseError,
    SpecValidationError,
    TAXONOMY,
    Topology,
    parse_spec,
    render_spec,
    spec_as_dict,
    spec_from_dict,
    topology_all,
    topology_line,
)
from protoforge.cli import main
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
        topology=topology_line(3),
        liveness=LivenessMode.OFF,
        goal=GoalKind.ALL_KNOW_ALL,
    )


def test_parse_empty_problem():
    text = "processes=1\npackets=0\nhorizon=0\nsource=0\ntopology=all\nliveness=off\ngoal=none"
    spec = parse_spec(text)
    assert (spec.processes, spec.packets, spec.horizon) == (1, 0, 0)
    assert spec.goal is GoalKind.NONE
    assert spec.topology.hears == frozenset()


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
    assert spec.topology.hears == frozenset({(1, 0), (2, 0)})


def test_parse_hears_requires_explicit_topology():
    text = LINE3_TEXT + "\nhears 1 0"
    with pytest.raises((SpecParseError, SpecValidationError)):
        parse_spec(text)


def test_parse_bad_int_reports_line():
    with pytest.raises(SpecParseError) as err:
        parse_spec("processes = few\npackets = 1")
    assert err.value.line_no == 1


def test_topology_all_pairs():
    assert len(topology_all(3).hears) == 6
    assert topology_all(1).hears == frozenset()
    assert topology_all(2).hears == frozenset({(0, 1), (1, 0)})


def test_topology_line_pairs():
    assert topology_line(3).hears == frozenset({(1, 0), (2, 1)})
    assert topology_line(1).hears == frozenset()
    assert topology_line(4).hears == frozenset({(1, 0), (2, 1), (3, 2)})


def test_validate_ok_on_line3():
    spec = make_spec()
    assert replace(spec) == spec


def test_validate_reflexive_pair():
    with pytest.raises(SpecValidationError, match="reflexive hears pair"):
        make_spec(topology=Topology(frozenset({(0, 0)})))


def test_validate_out_of_range_pair():
    with pytest.raises(SpecValidationError, match="out of range"):
        make_spec(processes=3, topology=Topology(frozenset({(9, 0)})))


def test_bad_pairs_are_reported_in_pair_order():
    with pytest.raises(SpecValidationError) as err:
        make_spec(processes=3, topology=Topology(frozenset({(9, 0), (2, 2), (1, 7), (0, 0), (1, 0)})))
    assert err.value.errors == (
        "reflexive hears pair (0, 0)",
        "process id out of range in hears pair (1, 7)",
        "reflexive hears pair (2, 2)",
        "process id out of range in hears pair (9, 0)",
    )


def test_topology_name_never_builds_the_complete_graph(monkeypatch):
    cases = {
        "all": [make_spec(processes=p, topology="all") for p in (1, 2, 5)],
        "line": [make_spec(processes=p, topology="line") for p in (2, 5)],
        "explicit": [
            make_spec(processes=1000, topology=Topology(frozenset({(1, 0), (2, 1)}))),
            make_spec(processes=3, topology=Topology(frozenset({(1, 0), (0, 1)}))),
            make_spec(processes=3, topology=Topology(frozenset({(1, 0), (2, 0)}))),
            make_spec(processes=3, topology=Topology(topology_all(3).hears - {(0, 1)})),
        ],
    }

    def unexpected(processes):
        raise AssertionError("topology_all called")

    monkeypatch.setattr("protoforge.model.topology_all", unexpected)
    for name, specs_named in cases.items():
        for spec in specs_named:
            assert spec_as_dict(spec)["topology"] == name


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
    spec = make_spec(processes=1024, packets=16, horizon=0, topology=Topology(frozenset()))
    assert replace(spec, horizon=2**20).horizon == 2**20


def test_validate_bad_source():
    with pytest.raises(SpecValidationError, match="source out of range"):
        make_spec(source=7)


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
        topo = Topology(frozenset(draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(frozenset()))))
    return NetworkSpec(
        processes=processes,
        packets=packets,
        horizon=horizon,
        source=source,
        topology=topo,
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
    hears, P = spec.topology.hears, spec.processes
    expected = (
        "all" if hears == topology_all(P).hears
        else "line" if hears == topology_line(P).hears
        else "explicit"
    )
    assert spec_as_dict(spec)["topology"] == expected


@given(st.integers(1, 8))
def test_line_subset_of_all(p):
    assert topology_line(p).hears <= topology_all(p).hears


@given(specs())
def test_valid_specs_pass_validation(spec):
    assert replace(spec) == spec


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
    assert spec.topology.hears == frozenset(pairs)
