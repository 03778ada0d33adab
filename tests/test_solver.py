from __future__ import annotations

import random
from dataclasses import replace

import pytest

from protoforge.actions import LISTEN, SLEEP, transmit
from protoforge.encoder import encode
from protoforge.model import (
    GoalKind,
    LivenessMode,
    RequirementLabel,
    STRUCTURAL_LABELS,
    Topology,
    topology_all,
    topology_line,
)
from protoforge.solver import (
    SearchBudgetExceeded,
    SearchConfig,
    SolveStatus,
    enumerate_all,
    min_horizon,
    solve,
    unsat_core_minimize,
)
from protoforge.trace import validate
from conftest import make_spec

L = RequirementLabel


def test_line3_first_trace_is_the_expected_schedule():
    result = solve(encode(make_spec()))
    assert result.status is SolveStatus.SAT
    assert result.trace.actions == (
        (transmit(1), LISTEN, SLEEP),
        (SLEEP, transmit(1), LISTEN),
    )
    assert validate(result.trace) == []


def test_line3_first_trace_matches_oracle_order():
    cs = encode(make_spec())
    traces = enumerate_all(cs)
    assert traces
    assert solve(cs).trace == traces[0]


def test_tight_instance_unsat_with_full_enabled_core():
    cs = encode(make_spec(processes=2, packets=2, horizon=1, topology="all"))
    result = solve(cs)
    assert result.status is SolveStatus.UNSAT
    assert result.trace is None
    assert result.core == cs.enabled


def test_empty_problem_sat_with_empty_trace():
    spec = make_spec(processes=1, packets=0, horizon=0, topology="all", goal=GoalKind.NONE)
    result = solve(encode(spec))
    assert result.status is SolveStatus.SAT
    assert result.trace.actions == ()


def test_single_cell_enumeration_without_goal():
    spec = make_spec(processes=1, packets=0, horizon=1, topology="all", goal=GoalKind.NONE)
    traces = enumerate_all(encode(spec))
    assert [trace.actions[0][0] for trace in traces] == [SLEEP, LISTEN, transmit(0)]


def test_enumeration_ceiling_enforced():
    cs = encode(make_spec(processes=3, packets=2, horizon=3, topology="all"))
    with pytest.raises(ValueError, match="ceiling"):
        enumerate_all(cs, ceiling=10_000)


def test_enumeration_limit_truncates():
    spec = make_spec(processes=1, packets=0, horizon=1, topology="all", goal=GoalKind.NONE)
    assert len(enumerate_all(encode(spec), limit=2)) == 2


def test_min_horizon_examples():
    assert min_horizon(make_spec(processes=3, packets=2, horizon=0, topology="all"), 5)[0] == 2
    assert min_horizon(make_spec(processes=2, packets=1, horizon=0, topology="all"), 5)[0] == 1
    assert min_horizon(make_spec(processes=3, packets=1, horizon=0, topology="line"), 5)[0] == 2


def test_min_horizon_trace_is_solution_at_t_min():
    t_min, trace = min_horizon(make_spec(processes=3, packets=1, horizon=0, topology="line"), 5)
    assert trace.spec.horizon == t_min
    assert validate(trace) == []


def test_min_horizon_not_found_within_bound():
    assert min_horizon(make_spec(processes=3, packets=1, horizon=0, topology="line"), 1) is None


def test_min_horizon_rejects_goalless_spec():
    spec = make_spec(goal=GoalKind.NONE)
    with pytest.raises(ValueError):
        min_horizon(spec, 3)


def test_min_horizon_budget_raises_with_first_undecided_horizon():
    with pytest.raises(SearchBudgetExceeded) as err:
        min_horizon(
            make_spec(processes=3, packets=1, horizon=0, topology="line"),
            4,
            SearchConfig(node_limit=1),
        )
    assert err.value.horizon == 1


def test_solve_budget_exhausted_status():
    cs = encode(make_spec(processes=3, packets=1, horizon=2, topology="line"))
    result = solve(cs, SearchConfig(node_limit=2))
    assert result.status is SolveStatus.BUDGET_EXHAUSTED
    assert result.trace is None and result.core is None


def test_unsat_core_tight_instance_exact():
    cs = encode(make_spec(processes=2, packets=2, horizon=1, topology="all"))
    core = unsat_core_minimize(cs)
    assert core == frozenset({L.GOAL_DEADLINE, L.R7_COLLISION_FREE_LEARNING})


def test_unsat_core_empty_hears_is_unsat_and_minimal():
    cs = encode(
        make_spec(processes=2, packets=1, horizon=1, topology=Topology(frozenset()))
    )
    assert solve(cs).status is SolveStatus.UNSAT
    core = unsat_core_minimize(cs)
    assert core & {L.TOPO_HEARS_RELATION, L.GOAL_DEADLINE}
    assert not (core & STRUCTURAL_LABELS)
    assert solve(replace(cs, enabled=frozenset(core))).status is SolveStatus.UNSAT
    for label in core:
        weaker = replace(cs, enabled=frozenset(core - {label}))
        assert solve(weaker).status is SolveStatus.SAT


def test_unsat_core_on_sat_instance_errors():
    assert unsat_core_minimize(encode(make_spec())) is None


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(node_limit=0)


def test_determinism_across_runs():
    spec = make_spec(processes=3, packets=1, horizon=3, topology="all",
                     liveness=LivenessMode.EACH_ACTION_ONCE)
    first = solve(encode(spec))
    second = solve(encode(spec))
    assert first.status is second.status is SolveStatus.SAT
    assert first.trace == second.trace


def test_soundness_on_random_sample():
    rng = random.Random(99)
    sats = 0
    for _ in range(120):
        P = rng.randint(1, 3)
        spec = make_spec(
            processes=P,
            packets=rng.randint(0, 2),
            horizon=rng.randint(0, 3),
            source=rng.randrange(P),
            topology=rng.choice(["all", "line"]),
            liveness=rng.choice(list(LivenessMode)),
            goal=rng.choice(list(GoalKind)),
        )
        result = solve(encode(spec))
        if result.status is SolveStatus.SAT:
            sats += 1
            assert validate(result.trace) == []
    assert sats > 0


def test_completeness_matches_oracle_on_small_instances():
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        P = rng.randint(1, 2)
        spec = make_spec(
            processes=P,
            packets=rng.randint(0, 2),
            horizon=rng.randint(0, 2),
            source=rng.randrange(P),
            topology=rng.choice(["all", "line"]),
            liveness=rng.choice(list(LivenessMode)),
            goal=rng.choice(list(GoalKind)),
        )
        cs = encode(spec)
        if cs.domain_size ** cs.cell_count > 10**5:
            continue
        checked += 1
        oracle = enumerate_all(cs)
        result = solve(cs)
        assert (result.status is SolveStatus.SAT) == bool(oracle)
        if oracle:
            assert result.trace == oracle[0]
    assert checked >= 40


def test_feasibility_is_monotone_in_horizon():
    base = make_spec(processes=3, packets=2, horizon=0, topology="all")
    statuses = [
        solve(encode(replace(base, horizon=t))).status is SolveStatus.SAT
        for t in range(5)
    ]
    first_sat = statuses.index(True)
    assert all(statuses[first_sat:])
