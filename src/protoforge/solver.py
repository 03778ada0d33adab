"""Deterministic search over the action grid, plus the brute-force oracle,
minimum-horizon search, and unsat-core minimization.

The engine is a depth-first backtracker. Variables are cells in (slot,
process) order; values follow a fixed order, not a configurable one:
sleep, listen, packets ascending, garbage (quiet schedules first).
Knowledge is recomputed once per completed slot, by the learning rule the
enabled families imply, and never searched over. Two admissible bounds
prune: a branch dies when some process still misses more packets than
there are slots left (a listener gains at most one packet per slot), or
when a process cannot fit its outstanding liveness obligations into its
remaining cells. Bounds never cut a satisfiable branch, so the first model
found is the lexicographically least under these orders, exhaustion proves
unsatisfiability, and reruns are byte-for-byte reproducible.

enumerate_all is the independent oracle: it tries every one of the
(M+3)^(T*P) assignments and keeps those the trace validator accepts, with
no search machinery shared with solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum

from .actions import Action, ActionKind, GARBAGE, LISTEN, SLEEP, transmit
from .encoder import ConstraintSystem, encode
from .model import (
    GoalKind,
    LivenessMode,
    NetworkSpec,
    RequirementLabel,
    STRUCTURAL_LABELS,
    SpecValidationError,
    TAXONOMY,
    validate_spec,
)
from .trace import ProtocolTrace, initial_knowledge, learning_rule, satisfies


def search_domain(packets: int) -> tuple[Action, ...]:
    """Cell values in the fixed search order: quiet schedules come first."""
    ascending = tuple(transmit(k) for k in range(1, packets + 1))
    return (SLEEP, LISTEN) + ascending + (transmit(GARBAGE),)


@dataclass(frozen=True)
class SearchConfig:
    node_limit: int | None = None

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class UnsatCore:
    labels: frozenset[RequirementLabel]


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    trace: ProtocolTrace | None = None
    core: UnsatCore | None = None


class SearchBudgetExceeded(RuntimeError):
    """A node-limited search ran out of budget before deciding the system."""


class HorizonUndecided(SearchBudgetExceeded):
    def __init__(self, horizon: int) -> None:
        super().__init__(f"search budget exhausted at horizon {horizon}")
        self.horizon = horizon


class _Budget(Exception):
    pass


def solve(cs: ConstraintSystem, config: SearchConfig | None = None) -> SolveResult:
    """Decides the system. Sat results carry the first trace in search order;
    Unsat results carry the full enabled set as their (unminimized) core."""
    config = config or SearchConfig()
    spec = cs.spec
    P, M, T = spec.processes, spec.packets, spec.horizon
    L = RequirementLabel
    enabled = cs.enabled
    check_r5 = L.R5_TRANSMIT_ONLY_KNOWN in enabled
    check_goal = L.GOAL_DEADLINE in enabled and spec.goal is GoalKind.ALL_KNOW_ALL
    check_live = L.R3_LIVENESS in enabled and spec.liveness is LivenessMode.EACH_ACTION_ONCE
    free_learning = L.R7_COLLISION_FREE_LEARNING not in enabled
    learn = learning_rule(spec, enabled)
    values = search_domain(M)
    unsat = SolveResult(SolveStatus.UNSAT, core=UnsatCore(frozenset(enabled)))

    def need(row) -> int:
        # packets the neediest process still misses
        return max((M - sum(packets) for packets in row), default=0)

    def goal_feasible(row, slots_left: int) -> bool:
        n = need(row)
        if n == 0:
            return True
        if free_learning:
            return slots_left >= 1
        return n <= slots_left

    know: list = [initial_knowledge(spec)]
    if check_goal and not goal_feasible(know[0], T):
        return unsat
    if check_live and T < len(ActionKind):
        return unsat

    cells = T * P
    acts: list[list[Action]] = [[SLEEP] * P for _ in range(T)]
    kind_counts = [{kind: 0 for kind in ActionKind} for _ in range(P)]
    kind_missing = [len(ActionKind)] * P
    nodes = 0
    limit = config.node_limit

    def search(i: int) -> bool:
        nonlocal nodes
        if i == cells:
            return True
        t, p = divmod(i, P)
        last_in_slot = p == P - 1
        for act in values:
            nodes += 1
            if limit is not None and nodes > limit:
                raise _Budget
            if check_r5:
                k = act.packet
                if k is not None and not know[t][p][k - 1]:
                    continue
            newly = check_live and kind_counts[p][act.kind] == 0
            if check_live and kind_missing[p] - (1 if newly else 0) > T - 1 - t:
                continue
            acts[t][p] = act
            if check_live:
                kind_counts[p][act.kind] += 1
                if newly:
                    kind_missing[p] -= 1
            try:
                if last_in_slot:
                    nxt = learn(know[t], acts[t])
                    if not check_goal or goal_feasible(nxt, T - (t + 1)):
                        know.append(nxt)
                        if search(i + 1):
                            return True
                        know.pop()
                elif search(i + 1):
                    return True
            finally:
                if check_live:
                    kind_counts[p][act.kind] -= 1
                    if newly:
                        kind_missing[p] += 1
        return False

    try:
        sat = True if cells == 0 else search(0)
    except _Budget:
        return SolveResult(SolveStatus.BUDGET_EXHAUSTED)
    if not sat:
        return unsat
    trace = ProtocolTrace(spec, tuple(tuple(row) for row in acts), tuple(know))
    return SolveResult(SolveStatus.SAT, trace=trace)


def enumerate_all(
    cs: ConstraintSystem,
    limit: int | None = None,
    ceiling: int = 10_000_000,
) -> list[ProtocolTrace]:
    """Every satisfying trace, found by checking all (M+3)^(T*P) assignments
    with the independent validator, in lexicographic cell order."""
    spec = cs.spec
    P, T = spec.processes, spec.horizon
    cells = T * P
    size = cs.domain_size ** cells
    if size > ceiling:
        raise ValueError(f"enumeration space {size} exceeds ceiling {ceiling}")
    domain = search_domain(spec.packets)
    out: list[ProtocolTrace] = []
    for combo in itertools.product(domain, repeat=cells):
        actions = tuple(combo[t * P:(t + 1) * P] for t in range(T))
        trace = ProtocolTrace.from_actions(spec, actions, cs.enabled)
        if satisfies(trace, cs.enabled):
            out.append(trace)
            if limit is not None and len(out) >= limit:
                break
    return out


def min_horizon(
    spec: NetworkSpec, t_max: int, config: SearchConfig | None = None
) -> tuple[int, ProtocolTrace] | None:
    """Least horizon in 0..t_max whose encoding is satisfiable, with its
    trace; None when every horizon in range is unsatisfiable."""
    if spec.goal is not GoalKind.ALL_KNOW_ALL:
        raise ValueError("min_horizon needs goal = all-know-all")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    errors = validate_spec(spec)
    if errors:
        raise SpecValidationError(errors)
    for horizon in range(t_max + 1):
        result = solve(encode(replace(spec, horizon=horizon)), config)
        if result.status is SolveStatus.BUDGET_EXHAUSTED:
            raise HorizonUndecided(horizon)
        if result.status is SolveStatus.SAT:
            return horizon, result.trace
    return None


def unsat_core_minimize(
    cs: ConstraintSystem, config: SearchConfig | None = None
) -> UnsatCore:
    """Deletion-based 1-minimal unsat core at requirement-family granularity.

    Tries dropping each non-structural enabled label in taxonomy order and
    keeps it out whenever the rest stays unsatisfiable. Structural families
    are always implicitly active and never appear in the result.
    """
    base = solve(cs, config)
    if base.status is SolveStatus.SAT:
        raise ValueError("system is satisfiable; there is no unsat core")
    if base.status is SolveStatus.BUDGET_EXHAUSTED:
        raise SearchBudgetExceeded("budget exhausted before the system was decided")
    core = [
        label for label in TAXONOMY
        if label in cs.enabled and label not in STRUCTURAL_LABELS
    ]
    for label in list(core):
        trial = solve(replace(cs, enabled=frozenset(core) - {label}), config)
        if trial.status is SolveStatus.BUDGET_EXHAUSTED:
            raise SearchBudgetExceeded(
                f"budget exhausted while testing {label.value} for removal"
            )
        if trial.status is SolveStatus.UNSAT:
            core.remove(label)
    return UnsatCore(frozenset(core))
