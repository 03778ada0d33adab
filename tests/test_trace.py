from __future__ import annotations

import builtins
import json
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from protoforge.actions import LISTEN, SLEEP, Action, transmit
from protoforge.encoder import encode
from protoforge.model import RequirementLabel
from protoforge.trace import (
    ProtocolTrace,
    TraceFormatError,
    all_known,
    applied,
    deliver,
    derive_knowledge,
    initial_knowledge,
    read_trace,
    validate,
    write_trace,
)
from conftest import make_spec
from oracle import enumerate_all, satisfies
from test_cli import OVERSIZED_PACKETS_TRACE

L = RequirementLabel


def _step(spec, acts):
    """The knowledge after one slot of `acts` from the initial knowledge."""
    return applied(initial_knowledge(spec), derive_knowledge(spec, [acts])[0])


def test_step_single_transmitter_delivers():
    spec = make_spec(processes=3, packets=1, topology="all")
    nxt = _step(spec, (transmit(1), LISTEN, SLEEP))
    assert nxt == (0b011,)


def test_step_garbage_jams_the_channel():
    spec = make_spec(processes=3, packets=1, topology="all")
    now = initial_knowledge(spec)
    nxt = _step(spec, (transmit(1), transmit(0), LISTEN))
    assert nxt == now


def test_step_all_sleep_is_identity():
    spec = make_spec(processes=3, packets=2, topology="all")
    now = initial_knowledge(spec)
    assert _step(spec, (SLEEP, SLEEP, SLEEP)) == now


def test_step_respects_hears_relation():
    spec = make_spec(processes=3, packets=1, topology="line")
    # p2 listens but only hears p1, so p0's transmission is inaudible to it
    nxt = _step(spec, (transmit(1), LISTEN, LISTEN))
    assert nxt == (0b011,)


def test_step_transmitter_learns_nothing_from_itself():
    spec = make_spec(processes=2, packets=1, source=0, topology="all")
    now = initial_knowledge(spec)
    nxt = _step(spec, (transmit(1), transmit(1)))
    assert nxt == now


def test_step_inaudible_transmitters_still_jam_the_channel():
    # p0 and p3 both send packet 1; p1 hears only p0, yet the channel is shared
    # (the learning rule does not ask that p3 hold the packet it sends)
    spec = make_spec(processes=4, topology={(1, 0), (2, 0), (2, 3)})
    nxt = _step(spec, (transmit(1), LISTEN, LISTEN, transmit(1)))
    assert nxt == initial_knowledge(spec)


LINE3_ACTIONS = (
    (transmit(1), LISTEN, SLEEP),
    (SLEEP, transmit(1), LISTEN),
)


def test_derive_line3_hand_stepped():
    spec = make_spec()
    assert derive_knowledge(spec, LINE3_ACTIONS) == (((1, 0b011),), ((1, 0b111),))
    grid = ProtocolTrace.from_actions(spec, LINE3_ACTIONS).knowledge
    assert grid == ((0b001,), (0b011,), (0b111,))
    assert all_known(grid[2], 3)


def test_derive_horizon_zero():
    spec = make_spec(horizon=0)
    assert derive_knowledge(spec, ()) == ()
    assert ProtocolTrace.from_actions(spec, ()).knowledge == ((0b001,),)


def test_derive_all_sleep_fixpoint():
    spec = make_spec(horizon=3)
    assert derive_knowledge(spec, ((SLEEP,) * 3,) * 3) == ((),) * 3
    rows = ProtocolTrace.from_actions(spec, ((SLEEP,) * 3,) * 3).knowledge
    assert all(row == rows[0] for row in rows)


def test_validate_clean_trace():
    trace = ProtocolTrace.from_actions(make_spec(), LINE3_ACTIONS)
    assert validate(trace) == []
    assert satisfies(trace)


def test_validate_derives_each_slot_once_for_r6_and_r7(monkeypatch):
    spec = make_spec(processes=3, packets=2, horizon=4, topology="all")
    idle = (SLEEP, SLEEP, SLEEP)
    trace = ProtocolTrace.from_actions(
        spec, ((transmit(1), LISTEN, LISTEN), (transmit(2), LISTEN, LISTEN), idle, idle)
    )
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return deliver(*args, **kwargs)

    monkeypatch.setattr("protoforge.trace.deliver", counted)
    assert validate(trace) == []
    assert len(calls) == spec.horizon


def test_validate_all_sleep_reports_goal_violation():
    spec = make_spec(processes=2, packets=1, horizon=1, topology="all")
    trace = ProtocolTrace.from_actions(spec, ((SLEEP, SLEEP),))
    violations = validate(trace)
    goals = [v for v in violations if v.label is L.GOAL_DEADLINE]
    assert len(goals) == 1
    assert goals[0].process == 1
    assert "1" in goals[0].detail


def test_validate_r5_violation_located():
    spec = make_spec(processes=2, packets=1, horizon=1, topology="all")
    trace = ProtocolTrace.from_actions(spec, ((LISTEN, transmit(1)),))
    bad = [v for v in validate(trace) if v.label is L.R5_TRANSMIT_ONLY_KNOWN]
    assert [(v.time, v.process) for v in bad] == [(0, 1)]


def test_validate_r2_out_of_range_content():
    spec = make_spec(processes=2, packets=1, horizon=1, topology="all")
    trace = ProtocolTrace(
        spec,
        ((transmit(5), LISTEN),),
        initial_knowledge(spec),
        derive_knowledge(spec, ((transmit(5), LISTEN),)),
    )
    assert any(v.label is L.R2_CONTENT_DOMAIN for v in validate(trace))


def test_validate_catches_knowledge_tampering():
    spec = make_spec(processes=2, packets=1, horizon=1, topology="all")
    grid = ProtocolTrace.from_actions(spec, ((SLEEP, SLEEP),)).knowledge
    forged = (grid[0], (0b11,))
    trace = ProtocolTrace.from_rows(spec, ((SLEEP, SLEEP),), forged)
    labels = {v.label for v in validate(trace)}
    assert L.R7_COLLISION_FREE_LEARNING in labels


def test_validate_enabled_subset_skips_checks():
    spec = make_spec(processes=2, packets=1, horizon=1, topology="all")
    trace = ProtocolTrace.from_actions(spec, ((SLEEP, SLEEP),))
    assert validate(trace, frozenset({L.R1_EXACTLY_ONE_ACTION, L.R2_CONTENT_DOMAIN})) == []
    assert not satisfies(trace)


def test_dimension_mismatch_raises():
    spec = make_spec()
    with pytest.raises(TraceFormatError, match="dimension mismatch"):
        ProtocolTrace(spec, ((SLEEP,),), initial_knowledge(spec), derive_knowledge(spec, LINE3_ACTIONS))


@pytest.mark.parametrize(
    "change", [(0, 0b01), (2, 0b01), (1, 0b100), (1, 0b110), (1, -1)],
    ids=["packet 0", "packet M+1", "bit P", "bits P-1 and P", "negative mask"],
)
def test_a_change_out_of_range_is_refused(change):
    spec = make_spec(processes=2, packets=1, horizon=2, topology="all")
    with pytest.raises(TraceFormatError, match=r"^dimension mismatch in knowledge row t=2$"):
        ProtocolTrace(spec, ((SLEEP, SLEEP),) * 2, initial_knowledge(spec), ((), (change,)))


@pytest.mark.parametrize("shape", [
    dict(processes=2, packets=1, horizon=2, topology="all"),
    dict(processes=2, packets=2, horizon=2, topology="all"),
    dict(processes=3, packets=1, horizon=2, topology="line"),
    dict(processes=3, packets=2, horizon=1, topology="all"),
], ids=["P=2 M=1 T=2", "P=2 M=2 T=2", "line P=3 M=1 T=2", "P=3 M=2 T=1"])
def test_rows_diff_into_the_changes_derive_knowledge_gives(shape):
    # the goal is dropped so that every schedule the learning rule allows is
    # enumerated, not only those that finish; R7 and TOPO stay, so each
    # enumerated grid is the one derive_knowledge folds
    spec = make_spec(**shape)
    system = encode(spec)
    traces = enumerate_all(replace(system, enabled=system.enabled - {L.GOAL_DEADLINE}))
    assert any(any(trace.changes) for trace in traces)
    for trace in traces:
        given = ProtocolTrace.from_rows(spec, trace.actions, trace.knowledge)
        derived = ProtocolTrace(
            spec, trace.actions, initial_knowledge(spec), derive_knowledge(spec, trace.actions)
        )
        assert given == derived == trace
        assert hash(given) == hash(derived)
        assert given.knowledge == derived.knowledge


def test_write_read_round_trip():
    trace = ProtocolTrace.from_actions(make_spec(), LINE3_ACTIONS)
    assert read_trace(write_trace(trace)) == trace


def test_write_is_deterministic_and_ordered():
    trace = ProtocolTrace.from_actions(make_spec(), LINE3_ACTIONS)
    text = write_trace(trace)
    assert text == write_trace(trace)
    doc = json.loads(text)
    assert list(doc) == ["spec", "actions", "knowledge"]
    assert doc["actions"][0] == ["tx:1", "listen", "sleep"]


def test_write_empty_horizon_round_trip():
    spec = make_spec(horizon=0)
    trace = ProtocolTrace.from_actions(spec, ())
    assert read_trace(write_trace(trace)).spec.horizon == 0


def test_read_rejects_unknown_content_code():
    trace = ProtocolTrace.from_actions(make_spec(), LINE3_ACTIONS)
    doc = json.loads(write_trace(trace))
    doc["actions"][0][0] = "tx:7"
    with pytest.raises(TraceFormatError, match="unknown content code"):
        read_trace(json.dumps(doc))


def test_read_rejects_forged_knowledge():
    trace = ProtocolTrace.from_actions(make_spec(), LINE3_ACTIONS)
    doc = json.loads(write_trace(trace))
    doc["knowledge"][1][2] = [True]
    with pytest.raises(TraceFormatError, match="knowledge grid mismatch"):
        read_trace(json.dumps(doc))


def test_read_accepts_missing_knowledge():
    trace = ProtocolTrace.from_actions(make_spec(), LINE3_ACTIONS)
    doc = json.loads(write_trace(trace))
    del doc["knowledge"]
    assert read_trace(json.dumps(doc)) == trace


def test_read_rejects_unknown_field():
    trace = ProtocolTrace.from_actions(make_spec(), LINE3_ACTIONS)
    doc = json.loads(write_trace(trace))
    doc["mood"] = "optimistic"
    with pytest.raises(TraceFormatError):
        read_trace(json.dumps(doc))


@pytest.mark.parametrize(
    "hears, message",
    [([[True, False]], "must be integers"), ([[1, 0], [1, 0]], "duplicate hears pair")],
)
def test_read_rejects_malformed_hears(hears, message):
    spec = make_spec(topology={(1, 0), (2, 1), (0, 1)})
    doc = json.loads(write_trace(ProtocolTrace.from_actions(spec, LINE3_ACTIONS)))
    assert doc["spec"]["topology"] == "explicit"
    doc["spec"]["hears"] = hears
    with pytest.raises(TraceFormatError, match=message):
        read_trace(json.dumps(doc))


def test_read_rejects_an_oversized_embedded_spec_before_deriving(monkeypatch):
    doc = json.loads(write_trace(ProtocolTrace.from_actions(make_spec(), LINE3_ACTIONS)))
    doc["spec"]["packets"] = 10**30

    def refuse(spec):
        raise AssertionError("knowledge built before the size check")

    monkeypatch.setattr("protoforge.trace.initial_knowledge", refuse)
    with pytest.raises(TraceFormatError, match="embedded spec: .* must be <= 16777216"):
        read_trace(json.dumps(doc))


def test_read_rejects_short_row_with_a_lone_transmitter():
    doc = json.loads(write_trace(ProtocolTrace.from_actions(make_spec(), LINE3_ACTIONS)))
    doc["actions"][0] = ["tx:1"]
    del doc["knowledge"]
    with pytest.raises(TraceFormatError, match="dimension mismatch"):
        read_trace(json.dumps(doc))


def _action_rows(spec):
    cell = st.sampled_from(
        [SLEEP, LISTEN, transmit(0)] + [transmit(k) for k in range(1, spec.packets + 1)]
    )
    row = st.tuples(*([cell] * spec.processes))
    return st.tuples(*([row] * spec.horizon))


@given(st.data())
def test_knowledge_is_monotone(data):
    spec = make_spec(
        processes=data.draw(st.integers(1, 3), label="P"),
        packets=data.draw(st.integers(0, 2), label="M"),
        horizon=data.draw(st.integers(0, 3), label="T"),
        topology="all",
    )
    actions = data.draw(_action_rows(spec), label="actions")
    grid = ProtocolTrace.from_actions(spec, actions).knowledge
    for earlier, later in zip(grid, grid[1:]):
        for k in range(spec.packets):
            assert earlier[k] & ~later[k] == 0


@given(st.data())
def test_at_most_one_packet_gained_per_listener_per_slot(data):
    spec = make_spec(
        processes=data.draw(st.integers(1, 3), label="P"),
        packets=2,
        horizon=data.draw(st.integers(1, 3), label="T"),
        topology="all",
    )
    actions = data.draw(_action_rows(spec), label="actions")
    grid = ProtocolTrace.from_actions(spec, actions).knowledge
    for earlier, later in zip(grid, grid[1:]):
        for p in range(spec.processes):
            gained = sum(
                1 for k in range(spec.packets) if (later[k] & ~earlier[k]) >> p & 1
            )
            assert gained <= 1


def _forged(kind, content=None):
    """An Action whose fields were set past its constructor's checks."""
    act = object.__new__(Action)
    object.__setattr__(act, "kind", kind)
    object.__setattr__(act, "content", content)
    return act


def test_action_rejects_a_kind_that_is_not_an_action_kind():
    with pytest.raises(ValueError, match="action kind must be an ActionKind, got 'listen'"):
        Action("listen")


@pytest.mark.parametrize("cell", ["listen", None, _forged("listen")], ids=["str", "None", "str kind"])
@pytest.mark.parametrize("enabled", [None, frozenset({L.R1_EXACTLY_ONE_ACTION})], ids=["all", "R1"])
def test_validate_reports_a_malformed_cell_and_treats_it_as_no_action(cell, enabled):
    # LINE3_ACTIONS with p1's listen at t=0 replaced: p1 no longer learns the
    # packet, so the grid derived from the real schedule shows an illegal gain
    spec = make_spec()
    actions = ((transmit(1), cell, SLEEP), LINE3_ACTIONS[1])
    trace = ProtocolTrace(spec, actions, initial_knowledge(spec), derive_knowledge(spec, LINE3_ACTIONS))
    found = [(v.label, v.time, v.process) for v in validate(trace, enabled)]
    assert found[0] == (L.R1_EXACTLY_ONE_ACTION, 0, 1)
    assert validate(trace, enabled)[0].detail == (
        f"cell does not hold exactly one well-formed action: {cell!r}"
    )
    if enabled is None:
        assert found[1:] == [(L.R7_COLLISION_FREE_LEARNING, 0, 1)]
    else:
        assert found == [(L.R1_EXACTLY_ONE_ACTION, 0, 1)]
    assert not satisfies(trace, enabled)


@pytest.mark.parametrize("packets, listed", [
    (10, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
    (11, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (11 packets)"),
    (40, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (40 packets)"),
])
def test_violation_messages_list_at_most_ten_packets(packets, listed):
    spec = make_spec(processes=2, packets=packets, horizon=1, topology="all")
    trace = ProtocolTrace.from_actions(spec, ((SLEEP, SLEEP),))
    forged = ProtocolTrace.from_rows(spec, trace.actions, ((0b11,) * packets, (0b01,) * packets))
    details = {v.label: v.detail for v in validate(forged)}
    assert details[L.R4_INITIAL_KNOWLEDGE] == (
        f"initial knowledge of non-source process 1 is wrong for packet(s) {listed}"
    )
    assert details[L.R6_NEVER_FORGETS] == (
        f"process 1 forgets packet(s) {listed} between t=0 and t=1"
    )
    assert details[L.GOAL_DEADLINE] == f"process 1 misses packet(s) {listed} at the deadline t=1"
    gained = ProtocolTrace.from_rows(spec, trace.actions, (trace.knowledge[0], (0b11,) * packets))
    assert [v.detail for v in validate(gained) if v.label is L.R7_COLLISION_FREE_LEARNING] == [
        f"process 1 gains packet(s) {listed} at t=1 without a collision-free audible transmission"
    ]


def test_validate_walks_only_the_packets_it_lists(monkeypatch):
    # without a grid the trace reads; its spec claims 1,864,135 packets and
    # a per-process walk of them all took 1.2 s for these two violations.
    # Counted, not timed: the items trace's enumerate hands out, which such
    # a walk puts in the millions.
    doc = json.loads(OVERSIZED_PACKETS_TRACE)
    del doc["knowledge"]
    trace = read_trace(json.dumps(doc))
    drawn = 0

    def counting_enumerate(iterable, start=0):
        nonlocal drawn
        for item in builtins.enumerate(iterable, start):
            drawn += 1
            yield item

    monkeypatch.setattr("protoforge.trace.enumerate", counting_enumerate, raising=False)
    details = [v.detail for v in validate(trace)]
    assert drawn <= 100
    assert details == [
        f"process {p} misses packet(s) [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, ...] (1864134 packets) "
        "at the deadline t=2"
        for p in (1, 2)
    ]
