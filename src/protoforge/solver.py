"""Deterministic search over the action grid, plus the brute-force oracle,
minimum-horizon search, and unsat-core minimization.

The engine is a depth-first backtracker. Variables are cells in (slot,
process) order; values follow the fixed order of actions.action_domain:
sleep, listen, packets ascending, garbage (quiet schedules first).
Knowledge, holder masks as in trace, is recomputed once per completed slot,
by the learning rule the enabled families imply, and never searched over.

Bounds prune branches that cannot lead to a model. Each is a necessary
condition of some enabled family, so none cuts a satisfiable branch: the
first model found is the lexicographically least under these orders,
exhaustion proves unsatisfiability, and reruns are byte-for-byte
reproducible. SolveStats counts the branches each one cuts.

- R5: a cell may send only a packet its process holds.
- Liveness (R3): a process must fit the action kinds it has not yet
  performed into its remaining cells.
- Goal: `need`, a lower bound on the slots the goal still takes, must not
  exceed the slots left. With R7 dropped learning is free, so need is 1
  while anything is missing. With R7, need is the sum over packets of
  cover(H), where H is the set of the packet's holders and cover(H) is
  the larger of
    - the rounds until everyone holds the packet if, each round, every
      eligible sender (a holder, or anyone with R5 dropped) sent it at
      once; infinite when that stops short of everyone, and
    - ceil(missing / deg), where deg is the most listeners any speaker
      has in trace.audiences, the masks the learning rule reads.
  This is admissible. Only a lone transmitter delivers, so a slot
  advances at most one packet; that packet's new holders lie within one
  round of the old ones, and number at most deg; and cover only falls as
  holders grow. So one slot lowers need by at most one.

The goal bound applies at the root and at every slot end (counted under
`goal`), and also while a slot is being filled (`intra_slot`): when need
equals the slots left, this slot must lower some packet's cover, so a
partial row is cut unless some completion of it does. Since cover is
monotone, the only completion tried is the one in which every later cell
listens, with the lone sender already placed or, if there is none yet,
each later process sending each packet it may send. These are bounds on
what step_knowledge can do; learning itself still happens only at slot end.

enumerate_all is the independent oracle: it tries every one of the
(M+3)^(T*P) assignments and keeps those the trace validator accepts, with
no search machinery shared with solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache
from typing import NamedTuple

from .actions import Action, ActionKind, SLEEP, action_domain
from .encoder import ConstraintSystem, encode
from .model import (
    NetworkSpec,
    RequirementLabel,
    STRUCTURAL_LABELS,
    TAXONOMY,
    requirement_families,
)
from .trace import (
    ProtocolTrace,
    all_known,
    audiences,
    initial_knowledge,
    learning_rule,
    satisfies,
)


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


class SolveStats(NamedTuple):
    """What one search did: cell values tried (nodes, the unit node_limit
    counts) and the branches each bound cut. Cuts at the root count too."""

    nodes: int = 0
    r5: int = 0
    liveness: int = 0
    goal: int = 0
    intra_slot: int = 0


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    trace: ProtocolTrace | None = None
    core: frozenset[RequirementLabel] | None = None
    stats: SolveStats = SolveStats()


class SearchBudgetExceeded(RuntimeError):
    """A node-limited search ran out of budget before deciding the system.

    The message is the whole line the CLI reports; `horizon` is the first
    horizon min_horizon could not decide, None for any other search.
    """

    def __init__(self, message: str = "budget exhausted", horizon: int | None = None) -> None:
        super().__init__(message)
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
    enabled = cs.enabled & requirement_families(spec)
    check_r5 = L.R5_TRANSMIT_ONLY_KNOWN in enabled
    check_goal = L.GOAL_DEADLINE in enabled
    check_live = L.R3_LIVENESS in enabled
    free_learning = L.R7_COLLISION_FREE_LEARNING not in enabled
    learn = learning_rule(spec, enabled)
    values = action_domain(M)
    cuts = dict.fromkeys(("r5", "liveness", "goal", "intra_slot"), 0)
    nodes = 0

    def result(status: SolveStatus, **fields) -> SolveResult:
        return SolveResult(status, stats=SolveStats(nodes, **cuts), **fields)

    audience = audiences(spec, enabled)
    deg = max(a.bit_count() for a in audience)
    everyone = (1 << P) - 1

    @cache
    def cover(held: int) -> float:
        """A lower bound on the slots a packet held by `held` still needs
        (see the module doc)."""
        rounds, reach = 0, held
        while reach != everyone:
            senders = reach if check_r5 else everyone
            grown = reach
            for s in range(P):
                if senders >> s & 1:
                    grown |= audience[s]
            if grown == reach:
                return math.inf
            rounds, reach = rounds + 1, grown
        return max(rounds, math.ceil((P - held.bit_count()) / deg)) if rounds else 0

    know: list = [initial_knowledge(spec)]
    must_lower: list = [None] * T  # the knowledge row, when the slot must lower need

    def within_reach(t: int, row) -> bool:
        """Whether the goal is in reach of `row`, the knowledge at the start
        of slot t; when slot t must lower need, notes the row."""
        if free_learning:
            return t < T or all_known(row, P)
        need = sum(map(cover, row))
        if t < T:
            must_lower[t] = row if need == T - t else None
        return need <= T - t

    def slot_can_lower(t: int, p: int, held) -> bool:
        """Whether some completion of slot t's row, its cells 0..p assigned,
        lowers some packet's cover. Cover only falls as holders grow, so
        only the completion in which every later cell listens is tried."""
        listening, sender = everyone >> (p + 1) << (p + 1), None
        for q in range(p + 1):
            kind = acts[t][q].kind
            if kind is ActionKind.LISTEN:
                listening |= 1 << q
            elif kind is ActionKind.TRANSMIT:
                if sender is not None:
                    return False  # a collision delivers nothing
                sender = q
        if sender is not None:
            k = acts[t][sender].packet
            tries = [] if k is None else [(sender, k)]
        else:
            tries = [  # each later process, with each packet it may send
                (s, k) for k in range(1, M + 1) for s in range(p + 1, P)
                if (held[k - 1] if check_r5 else everyone) >> s & 1
            ]
        return any(
            cover(held[k - 1] | audience[s] & listening) < cover(held[k - 1])
            for s, k in tries
        )

    if check_goal and not within_reach(0, know[0]):
        cuts["goal"] += 1
        return result(SolveStatus.UNSAT, core=frozenset(enabled))
    if check_live and T < len(ActionKind):
        cuts["liveness"] += 1
        return result(SolveStatus.UNSAT, core=frozenset(enabled))

    cells = T * P
    acts: list[list[Action]] = [[SLEEP] * P for _ in range(T)]
    kind_counts = [{kind: 0 for kind in ActionKind} for _ in range(P)]
    kind_missing = [len(ActionKind)] * P
    limit = config.node_limit

    def search(i: int) -> bool:
        nonlocal nodes
        if i == cells:
            return True
        t, p = divmod(i, P)
        last_in_slot = p == P - 1
        held = None if last_in_slot else must_lower[t]
        for act in values:
            if nodes == limit:
                raise _Budget
            nodes += 1
            if check_r5:
                k = act.packet
                if k is not None and not know[t][k - 1] >> p & 1:
                    cuts["r5"] += 1
                    continue
            newly = check_live and kind_counts[p][act.kind] == 0
            if check_live and kind_missing[p] - (1 if newly else 0) > T - 1 - t:
                cuts["liveness"] += 1
                continue
            acts[t][p] = act
            if held is not None and not slot_can_lower(t, p, held):
                cuts["intra_slot"] += 1
                continue
            if check_live:
                kind_counts[p][act.kind] += 1
                if newly:
                    kind_missing[p] -= 1
            try:
                if last_in_slot:
                    nxt = learn(know[t], acts[t])
                    if check_goal and not within_reach(t + 1, nxt):
                        cuts["goal"] += 1
                        continue
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
        return result(SolveStatus.BUDGET_EXHAUSTED)
    if not sat:
        return result(SolveStatus.UNSAT, core=frozenset(enabled))
    trace = ProtocolTrace(spec, tuple(tuple(row) for row in acts), tuple(know))
    return result(SolveStatus.SAT, trace=trace)


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
    domain = action_domain(spec.packets)
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
    if RequirementLabel.GOAL_DEADLINE not in requirement_families(spec):
        raise ValueError("min_horizon needs goal = all-know-all")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    for horizon in range(t_max + 1):
        result = solve(encode(replace(spec, horizon=horizon)), config)
        if result.status is SolveStatus.BUDGET_EXHAUSTED:
            raise SearchBudgetExceeded(f"budget exhausted at horizon {horizon}", horizon)
        if result.status is SolveStatus.SAT:
            return horizon, result.trace
    return None


def unsat_core_minimize(
    cs: ConstraintSystem, config: SearchConfig | None = None
) -> frozenset[RequirementLabel] | None:
    """Deletion-based 1-minimal unsat core at requirement-family granularity;
    None when the system is satisfiable.

    Tries dropping each non-structural enabled label in taxonomy order and
    keeps it out whenever the rest stays unsatisfiable. Structural families
    are always implicitly active and never appear in the result.
    """
    base = solve(cs, config)
    if base.status is SolveStatus.SAT:
        return None
    if base.status is SolveStatus.BUDGET_EXHAUSTED:
        raise SearchBudgetExceeded()
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
    return frozenset(core)
