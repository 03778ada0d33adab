from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace

import pytest

from protoforge.actions import LISTEN, SLEEP, action_domain, transmit
from protoforge.encoder import encode
from protoforge.model import (
    GoalKind,
    LivenessMode,
    RequirementLabel,
    STRUCTURAL_LABELS,
    TAXONOMY,
    topology_all,
    topology_line,
)
from protoforge.solver import (
    SearchBudgetExceeded,
    SearchConfig,
    SolveStats,
    SolveStatus,
    min_horizon,
    solve,
    unsat_core_minimize,
)
from protoforge.trace import validate
from conftest import make_spec, oracle_sized_specs
from oracle import enumerate_all

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
    # all, not line: the goal bound decides line's horizon 1 at the root
    with pytest.raises(SearchBudgetExceeded) as err:
        min_horizon(
            make_spec(processes=3, packets=1, horizon=0, topology="all"),
            4,
            SearchConfig(node_limit=1),
        )
    assert err.value.horizon == 1


def test_solve_budget_exhausted_status():
    cs = encode(make_spec(processes=3, packets=1, horizon=2, topology="line"))
    result = solve(cs, SearchConfig(node_limit=2))
    assert result.status is SolveStatus.BUDGET_EXHAUSTED
    assert result.trace is None and result.core is None


@pytest.mark.parametrize(
    "dropped",
    [{L.R4_INITIAL_KNOWLEDGE}, {L.R6_NEVER_FORGETS},
     {L.R4_INITIAL_KNOWLEDGE, L.R6_NEVER_FORGETS}],
    ids=["R4", "R6", "R4 and R6"],
)
def test_dropping_r4_or_r6_changes_no_search(dropped):
    # the search holds both by construction (see STRUCTURAL_LABELS), so
    # unsat_core_minimize never spends a solve on dropping them
    assert dropped <= STRUCTURAL_LABELS
    for spec in oracle_sized_specs():
        cs = encode(spec)
        full, trial = solve(cs), solve(replace(cs, enabled=cs.enabled - dropped))
        assert (trial.status, trial.trace, trial.stats) == (full.status, full.trace, full.stats), spec


def test_unsat_core_tight_instance_exact():
    cs = encode(make_spec(processes=2, packets=2, horizon=1, topology="all"))
    core = unsat_core_minimize(cs)
    assert core == frozenset({L.GOAL_DEADLINE, L.R7_COLLISION_FREE_LEARNING})


def test_unsat_core_empty_hears_is_unsat_and_minimal():
    cs = encode(
        make_spec(processes=2, packets=1, horizon=1, topology=set())
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
        if len(action_domain(spec.packets)) ** (spec.horizon * spec.processes) > 10**5:
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


# (topology, P, M, T, verdict): rungs that take from 28,560 to over
# 2,000,000 nodes when only the per-process goal bound prunes.
LADDER = [
    ("all", 6, 3, 3, SolveStatus.SAT),
    ("all", 8, 4, 4, SolveStatus.SAT),
    ("line", 4, 1, 3, SolveStatus.SAT),
    ("line", 5, 1, 4, SolveStatus.SAT),
    ("line", 6, 2, 9, SolveStatus.UNSAT),
    ("line", 6, 2, 10, SolveStatus.SAT),
]


@pytest.mark.parametrize("topology, P, M, T, verdict", LADDER)
def test_ladder_rung_decided_within_ten_thousand_nodes(topology, P, M, T, verdict):
    cs = encode(make_spec(processes=P, packets=M, horizon=T, topology=topology))
    first = solve(cs, SearchConfig(node_limit=10_000))
    assert first.status is verdict
    assert first.stats.nodes <= 10_000
    if verdict is SolveStatus.SAT:
        assert validate(first.trace) == []
    assert solve(cs, SearchConfig(node_limit=10_000)).stats == first.stats


def test_stats_count_nodes_and_the_bound_that_cut():
    # line P=6 M=2 misses 10 packets; one listener per slot cannot fill 9 slots
    cut_at_root = solve(
        encode(make_spec(processes=6, packets=2, horizon=9)), SearchConfig(node_limit=10_000)
    )
    assert cut_at_root.stats == SolveStats(goal=1)
    exhausted = solve(encode(make_spec()), SearchConfig(node_limit=2))
    assert exhausted.status is SolveStatus.BUDGET_EXHAUSTED
    assert exhausted.stats.nodes == 2
    stats = solve(encode(make_spec(processes=3, packets=2, horizon=2, topology="all"))).stats
    assert stats.intra_slot > 0
    assert stats.liveness == 0
    live = make_spec(processes=3, packets=1, horizon=3, topology="all",
                     liveness=LivenessMode.EACH_ACTION_ONCE)
    assert solve(encode(live)).stats.r5 > 0
    # with R7 dropped learning is free: one slot is enough, nothing is cut
    cs = encode(make_spec(processes=4, packets=2, horizon=1, topology="all"))
    free = solve(replace(cs, enabled=cs.enabled - {L.R7_COLLISION_FREE_LEARNING}))
    assert free.status is SolveStatus.SAT
    assert free.stats.goal == free.stats.intra_slot == 0


@pytest.mark.parametrize("P, M, T, source, pairs", [
    # on a line p hears only p - 1: no process below the source hears a holder
    (2, 2, 6, 1, None),
    (3, 1, 6, 2, None),
    (4, 1, 8, 3, None),
    # every process has a speaker, but nobody hears the source
    (3, 1, 4, 2, {(0, 1), (1, 0), (2, 1)}),
    # a leaf source: each packet needs two transmissions, to the hub and on
    (8, 3, 4, 1, {pair for leaf in range(1, 8) for pair in ((0, leaf), (leaf, 0))}),
])
def test_unreachable_process_is_unsat_at_the_root(P, M, T, source, pairs):
    topology = "line" if pairs is None else pairs
    cs = encode(make_spec(processes=P, packets=M, horizon=T, source=source, topology=topology))
    result = solve(cs, SearchConfig(node_limit=100_000))
    assert result.status is SolveStatus.UNSAT
    assert result.stats == SolveStats(goal=1)


def test_a_root_cut_allocates_nothing_that_grows_with_the_horizon():
    # on a line, packet 1 never reaches the processes before source 2, so no
    # horizon is enough; the goal cut runs before any per-slot array exists
    cs = encode(make_spec(processes=3, packets=1, horizon=10**6, source=2))
    tracemalloc.start()
    try:
        result = solve(cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.stats == SolveStats(goal=1)
    assert peak < 1_000_000


def test_near_complete_relation_is_sat_within_a_small_budget():
    # 2 does not hear the source; 0, 1, 0, 1 sending 1, 1, 2, 2 reaches it
    hears = frozenset({
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 2), (1, 4), (2, 1), (2, 3),
        (2, 4), (3, 0), (3, 1), (3, 2), (3, 4), (4, 0), (4, 1), (4, 2), (4, 3),
    })
    cs = encode(make_spec(processes=5, packets=2, horizon=4, topology=hears))
    result = solve(cs, SearchConfig(node_limit=1_000))
    assert result.status is SolveStatus.SAT
    assert validate(result.trace) == []


def test_reachability_without_r5_asks_only_for_a_speaker():
    # with R5 dropped anyone may send any packet, but process 0 of a line
    # has no speaker at all; with no packet to deliver nothing is missing
    line = encode(make_spec(processes=3, packets=1, horizon=6, source=2))
    no_r5 = replace(line, enabled=line.enabled - {L.R5_TRANSMIT_ONLY_KNOWN})
    assert solve(no_r5).stats == SolveStats(goal=1)
    assert solve(encode(make_spec(packets=0, horizon=6, source=2))).status is SolveStatus.SAT


def test_unsat_core_keeps_r5_when_a_process_may_send_what_it_lacks():
    # 3 is three hops from the source, out of reach in two slots; with R5
    # dropped, 2 sends the packet unheld in slot 0 and 1 relays it to 2
    hears = frozenset({(1, 0), (2, 1), (3, 2), (1, 2)})
    cs = encode(make_spec(processes=4, packets=1, horizon=2, topology=hears))
    assert unsat_core_minimize(cs) == {
        L.GOAL_DEADLINE, L.R5_TRANSMIT_ONLY_KNOWN, L.R7_COLLISION_FREE_LEARNING,
        L.TOPO_HEARS_RELATION,
    }


def _trial_systems(spec):
    """The full system and every one unsat_core_minimize's deletion tries."""
    cs = encode(spec)
    yield cs
    for label in sorted(cs.enabled - STRUCTURAL_LABELS, key=TAXONOMY.index):
        yield replace(cs, enabled=cs.enabled - {label})


# name: (processes, hears pairs, packets, horizons, liveness). With no pairs
# every horizon is unsat unless a trial drops GOAL, R7 or TOPO, and each
# unsat trial makes the oracle try the whole grid, so one horizon is enough.
ORACLE_CASES = {
    "one-way ring": (3, {(1, 0), (2, 1), (0, 2)}, 1, (1, 2), LivenessMode.OFF),
    "sparse star": (3, {(1, 0), (2, 0)}, 1, (1, 2), LivenessMode.OFF),
    "empty": (3, set(), 1, (1,), LivenessMode.OFF),
    "one-way pair, two packets": (2, {(1, 0)}, 2, (2,), LivenessMode.OFF),
    "one-way pair, liveness": (2, {(1, 0)}, 1, (3,), LivenessMode.EACH_ACTION_ONCE),
    "two-way path": (3, {(0, 1), (1, 0), (1, 2), (2, 1)}, 1, (1, 2), LivenessMode.OFF),
    "hub and two-way leaves": (3, {(1, 0), (0, 1), (2, 0), (0, 2)}, 1, (1, 2), LivenessMode.OFF),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_first_trace_matches_oracle_on_explicit_relations(case):
    processes, pairs, packets, horizons, liveness = ORACLE_CASES[case]
    for horizon in horizons:
        for source in range(processes):
            spec = make_spec(processes=processes, packets=packets, horizon=horizon,
                             source=source, topology=pairs,
                             liveness=liveness)
            for cs in _trial_systems(spec):
                assert len(action_domain(packets)) ** (horizon * processes) <= 10**5
                oracle = enumerate_all(cs, limit=1)
                result = solve(cs)
                assert (result.status is SolveStatus.SAT) == bool(oracle), (spec, cs.enabled)
                if oracle:
                    assert result.trace == oracle[0], (spec, cs.enabled)
