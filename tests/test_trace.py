from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from protoforge.actions import LISTEN, SLEEP, transmit
from protoforge.model import RequirementLabel, Topology, topology_all
from protoforge.trace import (
    ProtocolTrace,
    TraceFormatError,
    all_known,
    derive_knowledge,
    initial_knowledge,
    read_trace,
    satisfies,
    step_knowledge,
    validate,
    write_trace,
)
from conftest import make_spec

L = RequirementLabel


def test_step_single_transmitter_delivers():
    spec = make_spec(processes=3, packets=1, topology="all")
    now = initial_knowledge(spec)
    nxt = step_knowledge(now, (transmit(1), LISTEN, SLEEP), spec.topology)
    assert nxt == ((True,), (True,), (False,))


def test_step_garbage_jams_the_channel():
    spec = make_spec(processes=3, packets=1, topology="all")
    now = initial_knowledge(spec)
    nxt = step_knowledge(now, (transmit(1), transmit(0), LISTEN), spec.topology)
    assert nxt == now


def test_step_all_sleep_is_identity():
    spec = make_spec(processes=3, packets=2, topology="all")
    now = initial_knowledge(spec)
    assert step_knowledge(now, (SLEEP, SLEEP, SLEEP), spec.topology) == now


def test_step_respects_hears_relation():
    spec = make_spec(processes=3, packets=1, topology="line")
    now = initial_knowledge(spec)
    # p2 listens but only hears p1, so p0's transmission is inaudible to it
    nxt = step_knowledge(now, (transmit(1), LISTEN, LISTEN), spec.topology)
    assert nxt == ((True,), (True,), (False,))


def test_step_transmitter_learns_nothing_from_itself():
    spec = make_spec(processes=2, packets=1, source=0, topology="all")
    now = initial_knowledge(spec)
    nxt = step_knowledge(now, (transmit(1), transmit(1)), spec.topology)
    assert nxt == now


def test_step_carrier_sense_ignores_inaudible_transmitters():
    # p0 and p3 both send packet 1; p1 hears only p0, p2 hears both
    hears = Topology(frozenset({(1, 0), (2, 0), (2, 3)}))
    now = ((True,), (False,), (False,), (True,))
    acts = (transmit(1), LISTEN, LISTEN, transmit(1))
    assert step_knowledge(now, acts, hears, carrier_sense=True) == (
        (True,), (True,), (False,), (True,)
    )
    assert step_knowledge(now, acts, hears) == now


LINE3_ACTIONS = (
    (transmit(1), LISTEN, SLEEP),
    (SLEEP, transmit(1), LISTEN),
)


def test_derive_line3_hand_stepped():
    spec = make_spec()
    grid = derive_knowledge(spec, LINE3_ACTIONS)
    assert grid == (
        ((True,), (False,), (False,)),
        ((True,), (True,), (False,)),
        ((True,), (True,), (True,)),
    )
    assert all_known(grid[2])


def test_derive_horizon_zero():
    spec = make_spec(horizon=0)
    assert derive_knowledge(spec, ()) == (((True,), (False,), (False,)),)


def test_derive_all_sleep_fixpoint():
    spec = make_spec(horizon=3)
    rows = derive_knowledge(spec, ((SLEEP,) * 3,) * 3)
    assert all(row == rows[0] for row in rows)


def test_validate_clean_trace():
    trace = ProtocolTrace.from_actions(make_spec(), LINE3_ACTIONS)
    assert validate(trace) == []
    assert satisfies(trace)


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
        derive_knowledge(spec, ((transmit(5), LISTEN),)),
    )
    assert any(v.label is L.R2_CONTENT_DOMAIN for v in validate(trace))


def test_validate_catches_knowledge_tampering():
    spec = make_spec(processes=2, packets=1, horizon=1, topology="all")
    grid = derive_knowledge(spec, ((SLEEP, SLEEP),))
    forged = (grid[0], ((True,), (True,)))
    trace = ProtocolTrace(spec, ((SLEEP, SLEEP),), forged)
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
        ProtocolTrace(spec, ((SLEEP,),), derive_knowledge(spec, LINE3_ACTIONS))


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
    spec = make_spec(topology=Topology(frozenset({(1, 0), (2, 1), (0, 1)})))
    doc = json.loads(write_trace(ProtocolTrace.from_actions(spec, LINE3_ACTIONS)))
    assert doc["spec"]["topology"] == "explicit"
    doc["spec"]["hears"] = hears
    with pytest.raises(TraceFormatError, match=message):
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
    grid = derive_knowledge(spec, actions)
    for earlier, later in zip(grid, grid[1:]):
        for p in range(spec.processes):
            for k in range(spec.packets):
                assert not (earlier[p][k] and not later[p][k])


@given(st.data())
def test_at_most_one_packet_gained_per_listener_per_slot(data):
    spec = make_spec(
        processes=data.draw(st.integers(1, 3), label="P"),
        packets=2,
        horizon=data.draw(st.integers(1, 3), label="T"),
        topology="all",
    )
    actions = data.draw(_action_rows(spec), label="actions")
    grid = derive_knowledge(spec, actions)
    for earlier, later in zip(grid, grid[1:]):
        for p in range(spec.processes):
            gained = sum(
                1 for k in range(spec.packets) if later[p][k] and not earlier[p][k]
            )
            assert gained <= 1
