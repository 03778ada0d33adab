from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from protoforge.actions import LISTEN, SLEEP, transmit
from protoforge.encoder import encode
from protoforge.model import GoalKind
from protoforge.sim import (
    ComparisonReport,
    PowerModel,
    SimulationGuardError,
    compare,
    default_max_slots,
    run_baseline,
    simulate_trace,
)
from protoforge.solver import solve
from protoforge.trace import ProtocolTrace
from conftest import make_spec


def _line3_solved():
    return solve(encode(make_spec())).trace


def test_synthesized_line3_costs_four():
    report = simulate_trace(_line3_solved(), PowerModel())
    assert report.total_power == 4
    assert report.per_process_power == (1, 2, 1)
    assert report.concurrent_tx_slots == 0
    assert report.completed and report.completion_slot == 2


def test_hand_schedule_costs_exactly_five():
    # same delivery, but the tail node listens idly in the first slot
    spec = make_spec()
    actions = (
        (transmit(1), LISTEN, LISTEN),
        (SLEEP, transmit(1), LISTEN),
    )
    report = simulate_trace(ProtocolTrace.from_actions(spec, actions), PowerModel())
    assert report.total_power == 5
    assert report.completed and report.completion_slot == 2
    assert report.concurrent_tx_slots == 0


def test_all_sleep_costs_nothing_and_never_completes():
    spec = make_spec(processes=2, packets=1, horizon=2, topology="all")
    trace = ProtocolTrace.from_actions(spec, ((SLEEP, SLEEP), (SLEEP, SLEEP)))
    report = simulate_trace(trace, PowerModel())
    assert report.total_power == 0
    assert not report.completed and report.completion_slot is None
    assert report.delivered == (0b01,)  # packet 1 held by process 0 only


def test_idle_cost_charged_for_sleep():
    spec = make_spec(processes=2, packets=1, horizon=2, topology="all")
    trace = ProtocolTrace.from_actions(spec, ((SLEEP, SLEEP), (SLEEP, SLEEP)))
    report = simulate_trace(trace, PowerModel(active_cost=3, idle_cost=2))
    assert report.total_power == 8


def test_guard_rejects_physically_inconsistent_trace():
    spec = make_spec(processes=2, packets=1, horizon=1, topology="all")
    bogus = ProtocolTrace.from_actions(spec, ((LISTEN, transmit(1)),))
    with pytest.raises(SimulationGuardError):
        simulate_trace(bogus, PowerModel())


def test_guard_ignores_goal_and_liveness():
    # an incomplete but physically consistent schedule simulates fine
    spec = make_spec(processes=2, packets=1, horizon=1, topology="all")
    trace = ProtocolTrace.from_actions(spec, ((SLEEP, SLEEP),))
    assert simulate_trace(trace, PowerModel()).completed is False


def test_power_model_rejects_negative_costs():
    with pytest.raises(ValueError):
        PowerModel(active_cost=-1)


def test_baseline_line3_matches_reference_numbers():
    trace, report = run_baseline(make_spec(), PowerModel())
    assert report.slots_run == 2
    assert report.total_power == 6
    assert report.per_process_power == (2, 2, 2)
    assert report.concurrent_tx_slots == 1
    assert report.completed and report.completion_slot == 2
    assert trace.actions == (
        (transmit(1), LISTEN, LISTEN),
        (transmit(1), transmit(1), LISTEN),
    )


def test_baseline_all_topology_two_packets_back_to_back():
    spec = make_spec(processes=3, packets=2, horizon=0, topology="all")
    trace, report = run_baseline(spec, PowerModel())
    assert report.slots_run == 2
    assert report.total_power == 6
    assert report.completed and report.completion_slot == 2
    assert trace.actions[0][0] == transmit(1)
    assert trace.actions[1][0] == transmit(2)


def test_baseline_no_packets_completes_immediately():
    spec = make_spec(processes=2, packets=0, horizon=0, topology="all", goal=GoalKind.NONE)
    _, report = run_baseline(spec, PowerModel())
    assert report.slots_run == 0
    assert report.total_power == 0
    assert report.completed and report.completion_slot == 0


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_baseline_line_completes_in_p_minus_one_slots(p):
    spec = make_spec(processes=p, packets=1, horizon=0, topology="line")
    _, report = run_baseline(spec, PowerModel())
    assert report.completed
    assert report.slots_run == p - 1
    assert report.total_power == p * (p - 1)


def test_baseline_gives_up_at_max_slots():
    from protoforge.model import Topology

    spec = make_spec(processes=2, packets=1, horizon=0, topology=Topology(frozenset()))
    trace, report = run_baseline(spec, PowerModel(), max_slots=4)
    assert report.slots_run == 4
    assert not report.completed
    assert trace.spec.horizon == 4


def test_baseline_trace_spec_carries_slots_run():
    trace, report = run_baseline(make_spec(), PowerModel())
    assert trace.spec.horizon == report.slots_run
    assert report.spec == make_spec()


def test_default_max_slots_formula():
    assert default_max_slots(make_spec(processes=3, packets=1)) == 8
    assert default_max_slots(make_spec(processes=2, packets=0)) == 6


def test_compare_line3_verdict():
    spec = make_spec()
    synth = simulate_trace(solve(encode(spec)).trace, PowerModel())
    _, base = run_baseline(spec, PowerModel())
    report = compare(synth, base)
    assert report.lower_power == "synthesized"
    text = report.text()
    assert "synthesized 4 pw" in text
    assert "baseline 6 pw" in text
    assert "not required" in text and "required" in text
    payload = report.as_dict()
    assert payload["verdict"]["lower_power"] == "synthesized"
    assert payload["verdict"]["collision_detection_needed"] == {
        "synthesized": False,
        "baseline": True,
    }


def test_compare_tie_on_identical_reports():
    spec = make_spec()
    synth = simulate_trace(solve(encode(spec)).trace, PowerModel())
    report = compare(synth, synth)
    assert report.lower_power == "tie"
    assert "tie" in report.text()


def test_compare_rejects_mismatched_specs():
    spec_a = make_spec()
    spec_b = make_spec(processes=4)
    synth = simulate_trace(solve(encode(spec_a)).trace, PowerModel())
    _, base = run_baseline(spec_b, PowerModel())
    with pytest.raises(ValueError, match="different specs"):
        compare(synth, base)


def test_compare_rejects_mismatched_power_models():
    spec = make_spec()
    synth = simulate_trace(solve(encode(spec)).trace, PowerModel())
    _, base = run_baseline(spec, PowerModel(active_cost=2))
    with pytest.raises(ValueError, match="power"):
        compare(synth, base)


@given(st.data())
def test_power_accounting_is_exact(data):
    P = data.draw(st.integers(1, 3), label="P")
    M = data.draw(st.integers(0, 2), label="M")
    T = data.draw(st.integers(0, 3), label="T")
    spec = make_spec(processes=P, packets=M, horizon=T, topology="all", goal=GoalKind.NONE)
    cell = st.sampled_from([SLEEP, LISTEN, transmit(0)] + [transmit(k) for k in range(1, M + 1)])
    actions = data.draw(
        st.tuples(*[st.tuples(*[cell] * P)] * T), label="actions"
    )
    active = data.draw(st.integers(0, 5), label="active")
    idle = data.draw(st.integers(0, 5), label="idle")
    # keep the draw physically consistent: only the source transmits packets
    actions = tuple(
        tuple(
            SLEEP if (act.packet is not None and p != spec.source) else act
            for p, act in enumerate(row)
        )
        for row in actions
    )
    trace = ProtocolTrace.from_actions(spec, actions)
    report = simulate_trace(trace, PowerModel(active_cost=active, idle_cost=idle))
    n_active = sum(1 for row in actions for act in row if act is not SLEEP)
    n_idle = T * P - n_active
    assert report.total_power == active * n_active + idle * n_idle
    assert report.total_power == sum(report.per_process_power)
