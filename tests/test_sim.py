from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from protoforge import sim
from protoforge.actions import LISTEN, SLEEP, ActionKind, transmit
from protoforge.encoder import encode
from protoforge.model import GoalKind
from protoforge.sim import (
    PowerModel,
    SimReport,
    SimulationGuardError,
    compare,
    default_max_slots,
    render_comparison,
    run_baseline,
    simulate_trace,
)
from protoforge.solver import solve
from protoforge.trace import (
    ProtocolTrace,
    initial_knowledge,
)
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


def test_a_repeated_row_is_charged_at_each_of_its_slots():
    # one row object where everyone but p2 listens, at slots 0 and 2, and
    # one with two transmitters, at slots 1 and 3: each slot counts
    spec = make_spec(processes=3, packets=1, horizon=5, topology="all")
    busy, clash = (LISTEN, LISTEN, SLEEP), (transmit(1), SLEEP, transmit(0))
    actions = (busy, clash, busy, clash, (transmit(1), LISTEN, LISTEN))
    shared = simulate_trace(ProtocolTrace.from_actions(spec, actions), PowerModel())
    fresh = simulate_trace(
        ProtocolTrace.from_actions(spec, [list(row) for row in actions]), PowerModel()
    )
    assert shared == fresh
    assert shared.per_process_power == (5, 3, 3)
    assert shared.concurrent_tx_slots == 2
    assert shared.completed and shared.completion_slot == 5


def test_all_sleep_costs_nothing_and_never_completes():
    spec = make_spec(processes=2, packets=1, horizon=2, topology="all")
    trace = ProtocolTrace.from_actions(spec, ((SLEEP, SLEEP), (SLEEP, SLEEP)))
    report = simulate_trace(trace, PowerModel())
    assert report.total_power == 0
    assert not report.completed and report.completion_slot is None
    assert report.delivered == (0b01,)  # packet 1 held by process 0 only


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
    trace, joins, report = _baseline_against_the_fold(make_spec(), PowerModel())
    assert joins == [0, 1, 2]
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
    trace, joins, report = _baseline_against_the_fold(spec, PowerModel())
    assert joins == [0, 2, 2]
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
    spec = make_spec(processes=2, packets=1, horizon=0, topology=set())
    trace, joins, report = _baseline_against_the_fold(spec, PowerModel(), max_slots=4)
    assert report.slots_run == 4
    assert not report.completed
    assert trace.spec.horizon == 4 and joins == [0, None]


def test_baseline_refuses_a_negative_slot_budget():
    spec = make_spec(topology="all")
    with pytest.raises(ValueError, match="^max_slots must be >= 0$"):
        run_baseline(spec, max_slots=-1)


def test_baseline_trace_spec_carries_slots_run():
    trace, _, report = _baseline_against_the_fold(make_spec(), PowerModel())
    assert trace.spec.horizon == report.slots_run
    assert report.spec == make_spec()


def test_default_max_slots_formula():
    assert default_max_slots(make_spec(processes=3, packets=1)) == 8
    assert default_max_slots(make_spec(processes=2, packets=0)) == 6


def test_compare_line3_verdict():
    spec = make_spec()
    synth = simulate_trace(solve(encode(spec)).trace, PowerModel())
    _, base = run_baseline(spec, PowerModel())
    assert compare(synth, base) == {
        "lower_power": "synthesized",
        "collision_detection_needed": {"synthesized": False, "baseline": True},
    }
    text = render_comparison(synth, base)
    assert "synthesized 4 pw" in text
    assert "baseline 6 pw" in text
    assert "not required" in text and "required" in text
    assert text.endswith("(synthesized lower)\n"
                         "collision detection: synthesized not required, baseline required\n")


def test_compare_tie_on_identical_reports():
    spec = make_spec()
    synth = simulate_trace(solve(encode(spec)).trace, PowerModel())
    assert compare(synth, synth)["lower_power"] == "tie"
    assert "(tie)" in render_comparison(synth, synth)


def test_compare_rejects_mismatched_specs():
    spec_a = make_spec()
    spec_b = make_spec(processes=4)
    synth = simulate_trace(solve(encode(spec_a)).trace, PowerModel())
    _, base = run_baseline(spec_b, PowerModel())
    with pytest.raises(ValueError, match="different specs"):
        compare(synth, base)
    with pytest.raises(ValueError, match="different specs"):
        render_comparison(synth, base)


def test_compare_rejects_mismatched_power_models():
    spec = make_spec()
    synth = simulate_trace(solve(encode(spec)).trace, PowerModel())
    _, base = run_baseline(spec, PowerModel(active_cost=2))
    with pytest.raises(ValueError, match="power"):
        compare(synth, base)
    with pytest.raises(ValueError, match="power"):
        render_comparison(synth, base)


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
    # keep the draw physically consistent: only the source transmits packets
    actions = tuple(
        tuple(
            SLEEP if (act.packet is not None and p != spec.source) else act
            for p, act in enumerate(row)
        )
        for row in actions
    )
    trace = ProtocolTrace.from_actions(spec, actions)
    report = simulate_trace(trace, PowerModel(active_cost=active))
    n_active = sum(1 for row in actions for act in row if act is not SLEEP)
    assert report.total_power == active * n_active
    assert report.total_power == sum(report.per_process_power)


def _stepped_baseline(spec, power, max_slots=None):
    """The always-on policy folded one slot at a time until completion or
    max_slots, with the report from a walk over every cell: what
    run_baseline must equal. Its radios sense the carrier: a listener learns
    when exactly one transmitter it hears is sending. Returns the fold's
    trace, the slot at which each process first holds every packet (None if
    it never does) and the report."""
    if max_slots is None:
        max_slots = default_max_slots(spec)
    P, M = spec.processes, spec.packets
    audience = spec.audience
    know = list(initial_knowledge(spec))
    held = [sum(holders >> p & 1 for holders in know) for p in range(P)]
    joins = [None] * P
    rows, grid = [], [tuple(know)]
    sent = [0] * P
    while True:
        for p in range(P):
            if joins[p] is None and held[p] == M:
                joins[p] = len(rows)
        if None not in joins or len(rows) == max_slots:
            break
        acts = [LISTEN] * P
        for p in range(P):
            if joins[p] is not None:
                acts[p] = transmit(sent[p] % M + 1)
                sent[p] += 1
        for listener in range(P):
            heard = [s for s in range(P) if acts[s] is not LISTEN and audience[s] >> listener & 1]
            if acts[listener] is LISTEN and len(heard) == 1:
                k = acts[heard[0]].packet
                if not know[k - 1] >> listener & 1:
                    know[k - 1] |= 1 << listener
                    held[listener] += 1
        grid.append(tuple(know))
        rows.append(tuple(acts))
    per = [0] * P
    for row in rows:
        for p, act in enumerate(row):
            per[p] += power.active_cost if act.kind is not ActionKind.SLEEP else 0
    completion = None if None in joins else max(joins)
    report = SimReport(
        spec=spec,
        power=power,
        slots_run=len(rows),
        delivered=tuple(know),
        per_process_power=tuple(per),
        concurrent_tx_slots=sum(
            sum(act.kind is ActionKind.TRANSMIT for act in row) >= 2 for row in rows
        ),
        completion_slot=completion,
    )
    trace = ProtocolTrace(spec.replace(horizon=len(rows)), tuple(rows), tuple(grid))
    return trace, joins, report


def _expanded_row(joins, packets, t):
    """The always-on policy's action row at slot t, from its join slots: a
    process listens before it joins and sends packet t % M + 1 after."""
    return tuple(
        LISTEN if joined is None or t < joined else transmit(t % packets + 1) for joined in joins
    )


def _baseline_against_the_fold(spec, power, max_slots=None):
    """Runs run_baseline and checks it against the stepped fold: the fold's
    join slots and report, and, expanded slot by slot, the fold's every
    action. Returns the fold's trace, join slots and report."""
    trace, joins, report = _stepped_baseline(spec, power, max_slots)
    assert run_baseline(spec, power, max_slots) == (joins, report)
    expanded = tuple(_expanded_row(joins, spec.packets, t) for t in range(report.slots_run))
    assert expanded == trace.actions
    return trace, joins, report


def _explicit(processes, packets, pairs, source=0):
    return make_spec(
        processes=processes, packets=packets, horizon=0, source=source,
        topology=pairs, goal=GoalKind.NONE,
    )


@settings(deadline=None)
@given(st.data())
def test_baseline_equals_the_stepped_fold(data):
    P = data.draw(st.integers(1, 8), label="P")
    M = data.draw(st.integers(0, 4), label="M")
    pairs = [(listener, speaker) for listener in range(P) for speaker in range(P) if listener != speaker]
    hears = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()), label="hears")
    source = data.draw(st.integers(0, P - 1), label="source")
    max_slots = data.draw(st.none() | st.integers(0, 30), label="max_slots")
    power = PowerModel(active_cost=data.draw(st.integers(0, 3), label="active_cost"))
    spec = _explicit(P, M, hears, source)
    trace, _, _ = _baseline_against_the_fold(spec, power, max_slots)
    # the premise of run_baseline's rounds: at a multiple of M every packet
    # has the same holders
    know = trace.knowledge
    assert M == 0 or all(len(set(know[t])) == 1 for t in range(0, len(know), M))


def test_baseline_counts_a_jammed_listener_across_the_filled_tail():
    # 1 and 3 hear the source; 2 hears only 1 and 3, which both turn full
    # after slot 1 and then jam it in every slot up to the allowance
    spec = _explicit(4, 2, {(1, 0), (3, 0), (2, 1), (2, 3)})
    _, joins, report = _baseline_against_the_fold(spec, PowerModel())
    assert joins == [0, 2, None, 2]
    assert report.slots_run == default_max_slots(spec) == 18
    assert report.concurrent_tx_slots == 16
    assert not report.completed and report.delivered == (0b1011, 0b1011)


def test_baseline_runs_out_the_allowance_on_an_unreachable_process():
    # on a line only higher ids hear lower ones, so process 0 never learns
    spec = make_spec(processes=3, packets=2, horizon=0, source=1, goal=GoalKind.NONE)
    _, joins, report = _baseline_against_the_fold(spec, PowerModel())
    assert joins == [None, 0, 2]
    assert report.slots_run == 14 and report.total_power == 42
    assert report.concurrent_tx_slots == 12 and report.completion_slot is None


@pytest.mark.parametrize("max_slots", [0, 1, 5, 11])
def test_baseline_stops_at_an_allowance_below_completion(max_slots):
    spec = make_spec(processes=5, packets=3, horizon=0, goal=GoalKind.NONE)
    _, _, report = _baseline_against_the_fold(spec, PowerModel(), max_slots)
    assert report.slots_run == max_slots and not report.completed


@pytest.mark.parametrize("processes, packets", [(1, 0), (1, 3), (4, 0)])
def test_baseline_complete_at_slot_zero(processes, packets):
    spec = make_spec(processes=processes, packets=packets, horizon=0, topology="all",
                     goal=GoalKind.NONE)
    _, joins, report = _baseline_against_the_fold(spec, PowerModel())
    assert joins == [0] * processes
    assert report.slots_run == 0 and report.completion_slot == 0


@pytest.mark.parametrize("topology", ["line", "explicit"])
def test_baseline_on_the_largest_wide_grid(topology):
    P, M = 64, 16
    if topology == "line":
        spec = make_spec(processes=P, packets=M, horizon=0, goal=GoalKind.NONE)
    else:  # every listener hears four random speakers
        rng = random.Random(64)
        hears = {
            (listener, speaker) for listener in range(P)
            for speaker in rng.sample([p for p in range(P) if p != listener], 4)
        }
        spec = _explicit(P, M, hears, source=rng.randrange(P))
    _baseline_against_the_fold(spec, PowerModel())


def test_baseline_fills_a_long_allowance_without_stepping_it(monkeypatch):
    deliver, stepped = sim.deliver, []

    def counting(*args, **kwargs):
        stepped.append(None)
        return deliver(*args, **kwargs)

    monkeypatch.setattr(sim, "deliver", counting)
    spec = _explicit(2, 3, set())
    joins, report = run_baseline(spec, PowerModel(), max_slots=10**6)
    assert report.slots_run == 10**6 and joins == [0, None]
    assert not report.completed and report.completion_slot is None
    assert report.total_power == 2 * 10**6 and report.concurrent_tx_slots == 0
    # slot 10**6 - 1 sends packet 1 again
    assert _expanded_row(joins, spec.packets, 10**6 - 1) == (transmit(1), LISTEN)
    assert len(stepped) <= spec.packets


def test_baseline_sends_once_per_phase_group(monkeypatch):
    # the full processes send in step, so each round is one send from the
    # union of their audiences, however many of them are full
    deliver, calls = sim.deliver, []

    def counting(now, listening, sends, *args, **kwargs):
        calls.append(len(sends))
        return deliver(now, listening, sends, *args, **kwargs)

    monkeypatch.setattr(sim, "deliver", counting)
    _, report = run_baseline(make_spec(processes=64, packets=16, horizon=0, goal=GoalKind.NONE))
    assert report.completed and report.slots_run == 63 * 16
    assert calls == [1] * 63  # one round per joining process


def test_baseline_stops_stepping_once_no_listener_hears_a_full_process(monkeypatch):
    deliver, stepped = sim.deliver, []

    def counting(*args, **kwargs):
        stepped.append(None)
        return deliver(*args, **kwargs)

    monkeypatch.setattr(sim, "deliver", counting)
    spec = _explicit(2, 8192, set())  # nobody hears the source
    joins, report = run_baseline(spec, PowerModel())
    assert report.slots_run == default_max_slots(spec) == 32770 and joins == [0, None]
    assert not report.completed and report.concurrent_tx_slots == 0
    assert report.delivered == (0b01,) * 8192
    assert len(stepped) <= 1


def _joins_and_jams(spec, joins):
    """The slots at which processes join the full set, and whether a listener
    outside it ever hears two of its members, in a baseline run."""
    P = spec.processes
    audience = spec.audience
    jams = False
    for t in set(joins) - {None}:
        full = [p for p, joined in enumerate(joins) if joined is not None and joined <= t]
        for listener in set(range(P)) - set(full):
            jams |= sum(audience[s] >> listener & 1 for s in full) >= 2
    return set(joins) - {None}, jams


def test_baseline_equals_the_stepped_fold_over_a_seeded_sweep():
    # run_baseline steps the full set as one phase group; the stepped fold
    # lets each process count its own sends, so they agree only if every
    # process joins the full set at a multiple of M
    rng = random.Random(16)
    staggered = jammed = 0  # runs with joins in two or more later rounds; with a jam
    for _ in range(300):
        P, M = rng.randint(1, 12), rng.randint(0, 5)
        density = rng.choice([0.1, 0.2, 0.35, 0.6])
        hears = {
            (listener, speaker) for listener in range(P) for speaker in range(P)
            if listener != speaker and rng.random() < density
        }
        spec = _explicit(P, M, hears, source=rng.randrange(P))
        max_slots = rng.choice([None, 0, 7, 40])
        _, joins, _ = _baseline_against_the_fold(spec, PowerModel(), max_slots)
        joins, jams = _joins_and_jams(spec, joins)
        assert all(t % M == 0 for t in joins) if M else joins <= {0}
        staggered += len(joins - {0}) >= 2
        jammed += jams
    assert staggered >= 50 and jammed >= 50
