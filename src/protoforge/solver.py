"""Deterministic search over the action grid, plus minimum-horizon search
and unsat-core minimization.

The engine is a depth-first backtracker. Variables are cells in (slot,
process) order; a cell's value is an index into actions.action_domain,
whose order is the value order: sleep, listen, packets ascending, garbage
(quiet schedules first). Each value's kind, listening bit and packet are
tabulated once per solve, and only the returned trace holds Actions.
Knowledge, holder masks as in trace, is learned once per completed slot
through trace.deliver (everything in slot 0 with R7 dropped), and never
searched over. The search state lives in arrays that are overwritten and
never undone. Per slot start t: the knowledge row, need (below) and, per
process, the action kinds it performed before slot t, one bit per kind, so
(t, knowledge row, kinds done) names a search state whole. Per slot: its
change, which the trace is built from. Per cell: the listening mask and
(speaker, packet) sends of its slot's cells up to it, which the slot's
last cell hands to deliver.

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

The goal bound applies at the root, where need is summed, at every slot
end (counted under `goal`), which updates need by its change's cover, and
while a slot is being filled (`intra_slot`): when need equals the slots
left, this slot must lower some packet's cover, so a partial row is cut
unless some completion of it does. Since cover is monotone, the only
completion tried is the one in which every later cell listens, with the
lone sender already placed or, if there is none yet, each later process
sending each packet it may send. These bound what the slot can teach under
the learning rule; learning itself still happens only at slot end.

The brute-force oracle the tests compare the search against lives with the
tests, and shares no search machinery with solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache
from typing import NamedTuple

from .actions import ActionKind, action_domain
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
    applied,
    audiences,
    deliver,
    initial_knowledge,
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

    def slot_can_lower(p: int, held, listening: int, sends: tuple) -> bool:
        """Whether some completion of a slot whose cells 0..p listen as
        `listening` and send `sends` lowers some packet's cover. Cover only
        falls as holders grow, so only the completion in which every later
        cell listens is tried."""
        if len(sends) > 1:
            return False  # a collision delivers nothing
        listening |= everyone >> (p + 1) << (p + 1)
        if sends:
            tries = [(s, k) for s, k in sends if k is not None]
        else:
            tries = [  # each later process, with each packet it may send
                (s, k) for k in range(1, M + 1) for s in range(p + 1, P)
                if (held[k - 1] if check_r5 else everyone) >> s & 1
            ]
        return any(
            cover(held[k - 1] | audience[s] & listening) < cover(held[k - 1])
            for s, k in tries
        )

    initial = initial_knowledge(spec)
    # with R7 dropped, slot 0 teaches everyone every packet they lack
    learn_all = tuple((k, everyone) for k, held in enumerate(initial, 1) if held != everyone)
    track_need = check_goal and not free_learning
    start_need = sum(map(cover, initial)) if track_need else int(bool(learn_all))
    if check_goal and start_need > T:
        cuts["goal"] += 1
        return result(SolveStatus.UNSAT, core=frozenset(enabled))
    if check_live and T < len(ActionKind):
        cuts["liveness"] += 1
        return result(SolveStatus.UNSAT, core=frozenset(enabled))

    # per slot start t: know[t], need[t] (None when untracked), done[t][p]; per slot: changes[t]
    know: list = [initial] + [None] * T
    need = [start_need] * (T + 1) if track_need else None
    done = [[0] * P for _ in range(T + 1)]
    changes: list = [()] * T
    # per value: its index, kind bit, listening bit, whether it transmits,
    # and its packet (None for sleep, listen and garbage)
    values = action_domain(M)
    bit_of = {kind: 1 << i for i, kind in enumerate(ActionKind)}
    table = [
        (v, bit_of[act.kind], int(act.kind is ActionKind.LISTEN),
         act.kind is ActionKind.TRANSMIT, act.packet)
        for v, act in enumerate(values)
    ]
    kinds = len(ActionKind)
    limit = config.node_limit
    cells = T * P
    grid = [0] * cells  # each cell's value
    heard, sent = [0] * cells, [()] * cells  # per cell (see the module doc)

    def search(i: int) -> bool:
        nonlocal nodes
        if i == cells:
            return True
        t, p = divmod(i, P)
        last_in_slot = p == P - 1
        held = know[t] if need and not last_in_slot and need[t] == T - t else None
        before, sends_before = (heard[i - 1], sent[i - 1]) if p else (0, ())
        for v, bit, listens, transmits, k in table:
            if nodes == limit:
                raise _Budget
            nodes += 1
            if check_r5 and k is not None and not know[t][k - 1] >> p & 1:
                cuts["r5"] += 1
                continue
            if check_live:
                kinds_done = done[t][p] | bit
                if kinds - kinds_done.bit_count() > T - 1 - t:
                    cuts["liveness"] += 1
                    continue
                done[t + 1][p] = kinds_done
            grid[i] = v
            listening = heard[i] = before | listens << p
            sends = sent[i] = sends_before + ((p, k),) if transmits else sends_before
            if held is not None and not slot_can_lower(p, held, listening, sends):
                cuts["intra_slot"] += 1
                continue
            if last_in_slot:
                if free_learning:
                    slot = () if t else learn_all
                else:
                    change = deliver(know[t], listening, sends, audience)
                    slot = (change,) if change else ()
                changes[t], know[t + 1] = slot, applied(know[t], slot)
                if need:
                    need[t + 1] = need[t] - (
                        cover(know[t][change[0] - 1]) - cover(change[1]) if change else 0)
                    if need[t + 1] > T - 1 - t:
                        cuts["goal"] += 1
                        continue
            if search(i + 1):
                return True
        return False

    try:
        sat = True if cells == 0 else search(0)
    except _Budget:
        return result(SolveStatus.BUDGET_EXHAUSTED)
    if not sat:
        return result(SolveStatus.UNSAT, core=frozenset(enabled))
    actions = tuple(tuple(values[v] for v in grid[t * P:(t + 1) * P]) for t in range(T))
    return result(SolveStatus.SAT, trace=ProtocolTrace(spec, actions, initial, tuple(changes)))


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
