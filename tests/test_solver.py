from __future__ import annotations

import itertools
import math
import random
import sys
import tracemalloc

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
from protoforge import solver
from protoforge.solver import (
    SearchBudgetExceeded,
    SearchConfig,
    SolveStats,
    SolveStatus,
    cover_function,
    min_horizon,
    solve,
    unsat_core_minimize,
)
from protoforge.trace import audiences, deliver, validate
from conftest import DEAD_SLOTS, make_spec, oracle_sized_specs
from oracle import enumerate_all, fewest_sends

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


def test_tight_instance_is_unsat_without_a_trace():
    cs = encode(make_spec(processes=2, packets=2, horizon=1, topology="all"))
    result = solve(cs)
    assert result.status is SolveStatus.UNSAT
    assert result.trace is None


@pytest.mark.parametrize("P, goal", [(1, GoalKind.NONE), (3, GoalKind.ALL_KNOW_ALL)])
def test_empty_problem_sat_with_empty_trace(P, goal):
    # no cell to search: the search's own exit at the last cell decides it
    spec = make_spec(processes=P, packets=0, horizon=0, topology="all", goal=goal)
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
    assert min_horizon(make_spec(processes=3, packets=2, horizon=0, topology="all"), 5).spec.horizon == 2
    assert min_horizon(make_spec(processes=2, packets=1, horizon=0, topology="all"), 5).spec.horizon == 1
    assert min_horizon(make_spec(processes=3, packets=1, horizon=0, topology="line"), 5).spec.horizon == 2


def test_min_horizon_trace_is_solution_at_t_min():
    spec = make_spec(processes=3, packets=1, horizon=0, topology="line")
    trace = min_horizon(spec, 5)
    assert trace.spec == spec.replace(horizon=2)
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


def _min_horizon_from_zero(spec, t_max, config):
    """min_horizon as a loop that solves every horizon from 0."""
    for horizon in range(t_max + 1):
        result = solve(encode(spec.replace(horizon=horizon)), config)
        if result.status is SolveStatus.BUDGET_EXHAUSTED:
            return "budget exhausted", horizon
        if result.status is SolveStatus.SAT:
            return horizon, result.trace
    return None


def test_min_horizon_agrees_with_a_loop_from_horizon_zero():
    rng = random.Random(31)
    config = SearchConfig(node_limit=2_000)
    seen = set()
    for _ in range(400):
        P, M = rng.randint(1, 5), rng.randint(0, 3)
        density = rng.choice([0.2, 0.4, 0.7])
        hears = {(l, s) for l in range(P) for s in range(P) if l != s and rng.random() < density}
        spec = make_spec(processes=P, packets=M, horizon=0, source=rng.randrange(P),
                         topology=hears, liveness=rng.choice(list(LivenessMode)))
        try:
            trace = min_horizon(spec, 8, config)
            found = None if trace is None else (trace.spec.horizon, trace)
        except SearchBudgetExceeded as err:
            found = "budget exhausted", err.horizon
        assert found == _min_horizon_from_zero(spec, 8, config), spec
        seen.add((spec.liveness, found and str(found[0])))
        if spec.liveness is LivenessMode.OFF and found and found[0] != "budget exhausted":
            # with liveness off the goal bound is exact: the first horizon tried is sat
            assert found[0] == (M and M * cover_function(P, spec.audience, True)(1 << spec.source))
    # sat and none with liveness on and off, and some budget stop
    assert {(live, outcome) for live in LivenessMode for outcome in ("3", None)} <= seen
    assert any(outcome == "budget exhausted" for _, outcome in seen)


def test_solve_budget_exhausted_status():
    cs = encode(make_spec(processes=3, packets=1, horizon=2, topology="line"))
    result = solve(cs, SearchConfig(node_limit=2))
    assert result.status is SolveStatus.BUDGET_EXHAUSTED
    assert result.trace is None


@pytest.mark.parametrize("topology, M, T, liveness, nodes", [
    ("line", 1, 2, LivenessMode.OFF, 12),
    ("all", 2, 4, LivenessMode.EACH_ACTION_ONCE, 755),
    ("all", 2, 3, LivenessMode.EACH_ACTION_ONCE, 1_090),  # unsat after a full search
])
def test_a_budget_of_exactly_the_nodes_a_search_visits_decides_it(topology, M, T, liveness, nodes):
    cs = encode(make_spec(processes=3, packets=M, horizon=T, topology=topology, liveness=liveness))
    unbounded = solve(cs)
    assert unbounded.stats.nodes == nodes
    assert solve(cs, SearchConfig(node_limit=nodes)) == unbounded
    short = solve(cs, SearchConfig(node_limit=nodes - 1))
    assert short.status is SolveStatus.BUDGET_EXHAUSTED
    assert short.stats.nodes == nodes - 1


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
        full, trial = solve(cs), solve(cs.replace(enabled=cs.enabled - dropped))
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
    assert solve(cs.replace(enabled=frozenset(core))).status is SolveStatus.UNSAT
    for label in core:
        weaker = cs.replace(enabled=frozenset(core - {label}))
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
        solve(encode(base.replace(horizon=t))).status is SolveStatus.SAT
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
    free = solve(cs.replace(enabled=cs.enabled - {L.R7_COLLISION_FREE_LEARNING}))
    assert free.status is SolveStatus.SAT
    assert free.stats.goal == free.stats.intra_slot == 0


def test_a_root_cut_counts_once_under_the_goal_first():
    # with liveness, two slots fit none of the three action kinds a process
    # owes; the goal cuts first when it too needs more slots than there are
    live = LivenessMode.EACH_ACTION_ONCE
    assert solve(encode(make_spec(topology="all", liveness=live))).stats == SolveStats(liveness=1)
    both = encode(make_spec(processes=4, liveness=live))  # line: three lone sends
    assert solve(both).stats == SolveStats(goal=1)
    goal_dropped = both.replace(enabled=both.enabled - {L.GOAL_DEADLINE})
    assert solve(goal_dropped).stats == SolveStats(liveness=1)


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


def _solved_with_peak(cs):
    tracemalloc.start()
    try:
        result = solve(cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_a_root_cut_allocates_nothing_that_grows_with_the_packets():
    # the root need is M · cover({source}), read off the spec: no knowledge
    # row of 2,000,000 masks is built to cut the horizon (summing the covers
    # of the initial row's masks took four such sequences, 65 MB)
    spec = make_spec(processes=2, packets=2_000_000, horizon=0, topology="all")
    result, peak = _solved_with_peak(encode(spec))
    assert result.stats == SolveStats(goal=1)
    assert peak < 1_000_000


@pytest.mark.parametrize("dropped", [frozenset(), frozenset({L.R7_COLLISION_FREE_LEARNING})],
                         ids=["R7", "R7 dropped"])
def test_a_solve_without_a_goal_builds_one_knowledge_row(dropped):
    # 16 MB of pointers to the source's mask, 65 MB when two more rows and a
    # list of lacked masks were built beside it. With R7 dropped no slot ends
    # at horizon 0, so the row slot 0 would teach is not built either
    cs = encode(make_spec(processes=2, packets=2_000_000, horizon=0, topology="all",
                          goal=GoalKind.NONE))
    result, peak = _solved_with_peak(cs.replace(enabled=cs.enabled - dropped))
    assert result.status is SolveStatus.SAT
    assert result.trace.knowledge == (result.trace.knowledge[0],)
    assert peak < 24_000_000


def test_the_intra_slot_bound_asks_the_learning_rule(monkeypatch):
    # slot_can_lower's lone-send test is trace.deliver's, not a restatement
    callers = []

    def recorded(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return deliver(*args)

    cs = encode(make_spec(processes=4, packets=2, horizon=4, topology="all"))
    expected = solve(cs)
    monkeypatch.setattr(solver, "deliver", recorded)
    assert solve(cs) == expected and expected.stats.intra_slot
    assert set(callers) == {"slot_can_lower", "end_slot"}


def test_min_horizon_refuses_a_negative_bound():
    with pytest.raises(ValueError, match="^t_max must be >= 0, got -1$"):
        min_horizon(make_spec(topology="all"), -1)


def test_a_search_past_the_recursion_limit_stops_at_the_frame_that_hits_it():
    # 2,560 cells nest deeper than the interpreter allows; the frame nearest
    # the limit catches the overflow and its callers return, so no exception
    # crosses the search's ~1,000 frames (one traceback entry each when one did)
    cs = encode(make_spec(processes=64, packets=2, horizon=40, topology="all",
                          goal=GoalKind.NONE))
    # a budget spent at cell 900 ends there too (one node per cell without a goal)
    tracemalloc.start()
    try:
        result = solve(cs, SearchConfig(node_limit=900))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status is SolveStatus.BUDGET_EXHAUSTED
    assert result.stats.nodes == 900
    assert peak < 300_000  # about 130 KB; 600 KB when an exception crossed every frame
    tracemalloc.start()
    try:
        with pytest.raises(RecursionError, match="search of 2560 cells") as caught:
            solve(cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries, error = 0, caught.value
    while error is not None:
        tb, error = error.__traceback__, error.__context__
        while tb is not None:
            entries, tb = entries + 1, tb.tb_next
    assert entries < 10
    assert peak < 300_000  # about 140 KB; 680 KB when one frame object was kept per cell


@pytest.mark.parametrize("P, M, T, solves", [(21, 13, 40, True), (29, 3, 42, False)])
def test_the_search_takes_one_frame_per_cell(P, M, T, solves):
    # rungs 3 and 4 of bench/workloads.py's WIDE_RUNGS (840 and 1,218 cells),
    # on either side of the ~1,000 frames the interpreter allows, with room
    # for the caller's own
    cs = encode(make_spec(processes=P, packets=M, horizon=T, topology="all", goal=GoalKind.NONE))
    if solves:
        assert solve(cs).stats == SolveStats(nodes=P * T)  # everyone sleeps
    else:
        with pytest.raises(RecursionError) as caught:
            solve(cs)
        assert str(caught.value) == (f"the search of {P * T} cells nests deeper than "
                                     "the interpreter's recursion limit")


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
    no_r5 = line.replace(enabled=line.enabled - {L.R5_TRANSMIT_ONLY_KNOWN})
    assert solve(no_r5).stats == SolveStats(goal=1)
    assert solve(encode(make_spec(packets=0, horizon=6, source=2))).status is SolveStatus.SAT


def test_one_sender_a_slot_spends_no_slot_delivering_nothing():
    result = solve(encode(DEAD_SLOTS), SearchConfig(node_limit=100))
    assert result.status is SolveStatus.SAT
    # the first trace a goal bound counting rounds found after 22,133 nodes
    assert [[act.label for act in row] for row in result.trace.actions] == [
        ["sleep", "tx:1", "sleep", "sleep", "listen", "sleep"],
        ["sleep", "sleep", "sleep", "sleep", "tx:1", "listen"],
        ["listen", "sleep", "listen", "listen", "sleep", "tx:1"],
    ]


def _fewest_sends(P, audience, check_r5, held):
    """The fewest lone sends after which everyone holds a packet first held
    by `held`, found by trying every sequence of senders, shortest first."""
    everyone = (1 << P) - 1
    for n in range(P + 1):
        for senders in itertools.product(range(P), repeat=n):
            reach = held
            for s in senders:
                if check_r5 and not reach >> s & 1:
                    break
                reach |= audience[s]
            else:
                if reach == everyone:
                    return n
    return math.inf


@pytest.mark.parametrize("P", [1, 2, 3, 4])
def test_cover_is_the_fewest_lone_sends_and_bounds_its_relaxation(P, monkeypatch):
    pairs = [(l, s) for l in range(P) for s in range(P) if l != s]
    relations = [
        {pair for i, pair in enumerate(pairs) if bits >> i & 1} for bits in range(1 << len(pairs))
    ]
    if P == 4:  # 4,096 relations: a seeded sample
        relations = random.Random(4).sample(relations, 150)
    for relation in relations:
        cs = encode(make_spec(processes=P, topology=relation))
        for enabled in (cs.enabled, cs.enabled - {L.R5_TRANSMIT_ONLY_KNOWN},
                        cs.enabled - {L.TOPO_HEARS_RELATION}):
            audience, check_r5 = audiences(cs.spec, enabled), L.R5_TRANSMIT_ONLY_KNOWN in enabled
            exact = cover_function(P, audience, check_r5)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "EXACT_COVER_PROCESSES", 0)
                relaxed = cover_function(P, audience, check_r5)
            for held in range(1 << P):
                assert exact(held) == _fewest_sends(P, audience, check_r5, held), (relation, held)
                assert fewest_sends(P, audience, check_r5, held) == exact(held), (relation, held)
                # so every cut the relaxation makes, cover makes too
                assert relaxed(held) <= exact(held)


def _seeded_relations(seed):
    """(P, hears pairs) for every P up to EXACT_COVER_PROCESSES, at densities
    from a sparse, mostly disconnected relation to a dense one."""
    rng = random.Random(seed)
    for P, density in itertools.product(
            range(1, solver.EXACT_COVER_PROCESSES + 1), (0.1, 0.2, 0.35, 0.6)):
        for _ in range(2):
            yield P, {(l, s) for l in range(P) for s in range(P) if l != s and rng.random() < density}


def test_cover_equals_the_oracle_on_seeded_relations():
    rng = random.Random(41)
    compared = set()
    for P, relation in _seeded_relations(41):
        audience = make_spec(processes=P, topology=relation).audience
        masks = range(1 << P) if P <= 6 else rng.sample(range(1 << P), 60)
        for check_r5 in (True, False):
            cover = cover_function(P, audience, check_r5)
            for held in masks:
                expected = fewest_sends(P, audience, check_r5, held)
                assert cover(held) == expected, (relation, check_r5, held)
                compared.add(expected)
    assert {0, 1, 6, math.inf} <= compared


def test_with_liveness_off_the_least_horizon_is_m_covers_of_the_source():
    """With liveness off the goal bound is exact, so a spec is sat from
    M·c({source}) slots on, c being the oracle's, and unsat below."""
    config = SearchConfig(node_limit=10_000)
    rng = random.Random(42)
    horizons = set()
    for P, relation in _seeded_relations(42):
        M, source = rng.randint(0, 2), rng.randrange(P)
        spec = make_spec(processes=P, packets=M, horizon=0, source=source, topology=relation)
        c = fewest_sends(P, spec.audience, True, 1 << source)
        if M and c == math.inf:
            assert min_horizon(spec, P * M, config) is None, spec
            horizons.add(None)
            continue
        t_min = M * c if M else 0
        result = solve(encode(spec.replace(horizon=t_min)), config)
        assert result.status is SolveStatus.SAT, spec
        if t_min:
            below = solve(encode(spec.replace(horizon=t_min - 1)), config)
            assert below.status is SolveStatus.UNSAT, spec
        assert min_horizon(spec, P * M, config) == result.trace
        horizons.add(t_min)
    assert {None, 0, 1, 2, 10} <= horizons


def test_past_the_exact_limit_cover_is_relaxed():
    # lone sends from 0 take 0, 1, 2, then 4 to P - 2: P - 2; every holder at
    # once takes P - 3 rounds, as 1 and 2 send together
    P = solver.EXACT_COVER_PROCESSES + 1
    fork = {(1, 0), (2, 0), (3, 1), (4, 2)} | {(p, p - 1) for p in range(5, P)}
    assert cover_function(P, make_spec(processes=P, topology=fork).audience, True)(1) == P - 3
    # and the search still decides a star whose leaf 1 is the source
    star = {pair for leaf in range(1, P) for pair in ((0, leaf), (leaf, 0))}
    result = solve(encode(make_spec(processes=P, packets=2, horizon=4, source=1, topology=star)))
    assert (result.status, result.stats.nodes) == (SolveStatus.SAT, 92)


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
        yield cs.replace(enabled=cs.enabled - {label})


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


def test_a_solve_without_cells_tabulates_no_cell_value(monkeypatch):
    # the whole domain, a pair and a table row per packet, took 0.39 s of
    # a 0.76 s synth --out of this spec, though no cell reads any of it
    def refused(packets):
        raise AssertionError(f"cell_values({packets}) with no cell to search")

    monkeypatch.setattr(solver, "cell_values", refused)
    spec = make_spec(processes=1, packets=400_000, horizon=0, topology="all")
    result = solve(encode(spec))
    assert result.status is SolveStatus.SAT
    assert (result.trace.actions, result.trace.knowledge) == ((), ((1,) * 400_000,))
    assert validate(result.trace) == []
