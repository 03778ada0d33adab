"""Deterministic search over the action grid, plus the brute-force oracle,
minimum-horizon search, and unsat-core minimization.

The engine is a depth-first backtracker. Variables are cells in (slot,
process) order; values follow the fixed order of actions.action_domain:
sleep, listen, packets ascending, garbage (quiet schedules first).
Knowledge is recomputed once per completed slot, by the learning rule the
enabled families imply, and never searched over.

Bounds prune branches that cannot lead to a model. Each is a necessary
condition of some enabled family, so none cuts a satisfiable branch: the
first model found is the lexicographically least under these orders,
exhaustion proves unsatisfiability, and reruns are byte-for-byte
reproducible. SolveStats counts the branches each one cuts.

- R5: a cell may send only a packet its process holds.
- Liveness (R3): a process must fit the action kinds it has not yet
  performed into its remaining cells.
- Goal, at the root and at every slot end: a process missing n packets
  needs n more slots, because a listener gains at most one packet per
  slot. With R7 dropped learning is free and one slot is enough.

With GOAL and R7 both enabled, only a lone transmitter delivers, and
then only to its audible listeners, one packet each. So a slot delivers
at most `deg` packets, the largest audience of any speaker in the
learning rule's topology (learning_topology), and three more bounds apply:

- Reachability, at the root, when there is a packet to deliver: every
  process must be able to come to hold one. With R5 a packet reaches only
  processes reachable from the source over the audiences; with R5 dropped
  anyone may send any packet, so every process but the source needs some
  speaker. SolveStats counts this cut under `goal`.
- Fan-out, at the root and at every slot end: the missing (process,
  packet) pairs must not outnumber `slots_left * deg`.
- Intra-slot forward checking, while a slot is being filled: with r slots
  after this one, each process missing r + 1 packets must learn in this
  slot, so its cell must listen, and the slot must deliver at least
  `missing - r * deg` packets. A collision or garbage delivers nothing; a
  lone sender of packet k delivers only to its audience that lacks k and
  listens or is still unassigned; with no sender yet the slot can deliver
  at most `min(deg, needy processes that listen or are unassigned)`.
  These are bounds on what step_knowledge can do, checked against the
  slot's partial row; learning itself still happens only at slot end.

enumerate_all is the independent oracle: it tries every one of the
(M+3)^(T*P) assignments and keeps those the trace validator accepts, with
no search machinery shared with solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
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
    initial_knowledge,
    learning_rule,
    learning_topology,
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
    fan_out: int = 0
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


class _SlotDemand(NamedTuple):
    """What the goal asks of one slot: each tight process (one that lacks as
    many packets as slots remain, this one included) must learn in it, and
    at least `short` packets must arrive in total."""

    miss: list[int]  # packets each process lacks when the slot starts
    tight: list[bool]
    short: int


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
    cuts = dict.fromkeys(("r5", "liveness", "goal", "fan_out", "intra_slot"), 0)
    nodes = 0

    def result(status: SolveStatus, **fields) -> SolveResult:
        return SolveResult(status, stats=SolveStats(nodes, **cuts), **fields)

    # audience[s]: who hears s under the learning rule (fan-out bounds only)
    audience: list[list[int]] = [[] for _ in range(P)]
    if check_goal and not free_learning:
        for listener, speaker in learning_topology(spec, enabled).hears:
            audience[speaker].append(listener)
    deg = max(map(len, audience))

    def missing(row) -> list[int]:
        return [M - sum(packets) for packets in row]

    def goal_cut(miss: list[int], slots_left: int) -> str | None:
        """The bound that puts the goal out of reach, or None."""
        if not any(miss):
            return None
        if free_learning:
            return None if slots_left >= 1 else "goal"
        if max(miss) > slots_left:
            return "goal"
        if sum(miss) > slots_left * deg:
            return "fan_out"
        return None

    def slot_demand(miss: list[int], slots_left: int) -> _SlotDemand | None:
        """What the slot starting now must deliver; None when the goal asks
        nothing of it in particular (or learning is free)."""
        if free_learning or not slots_left:
            return None
        tight = [m == slots_left for m in miss]
        short = sum(miss) - (slots_left - 1) * deg
        if short <= 0 and not any(tight):
            return None
        return _SlotDemand(miss, tight, short)

    def slot_can_deliver(t: int, p: int, demand: _SlotDemand) -> bool:
        """Whether slot t, its cells 0..p assigned and later ones open, can
        still deliver what it must. It must deliver something, so a
        collision or garbage is fatal."""
        miss, tight, short = demand
        row = acts[t]
        senders = [s for s in range(p + 1) if row[s].is_transmit]
        if len(senders) > 1:
            return False
        if senders:
            k = row[senders[0]].packet
            if k is None:
                return False
            now = know[t]
            reach = {
                q for q in audience[senders[0]]
                if (q > p or row[q].kind is ActionKind.LISTEN) and not now[q][k - 1]
            }
            return len(reach) >= short and all(
                q in reach for q in range(P) if tight[q]
            )
        open_needy = sum(
            1 for q in range(P)
            if miss[q] and (q > p or row[q].kind is ActionKind.LISTEN)
        )
        return min(deg, open_needy) >= short

    know: list = [initial_knowledge(spec)]
    demands: list[_SlotDemand | None] = [None] * (T + 1)  # by slot
    if check_goal:
        miss = missing(know[0])
        cut = goal_cut(miss, T)
        if cut:
            cuts[cut] += 1
            return result(SolveStatus.UNSAT, core=frozenset(enabled))
        demands[0] = slot_demand(miss, T)
    if check_live and T < len(ActionKind):
        cuts["liveness"] += 1
        return result(SolveStatus.UNSAT, core=frozenset(enabled))
    if check_goal and not free_learning and M:
        if check_r5:  # only holders send packets, so learning spreads by audience
            reached, frontier = {spec.source}, [spec.source]
            while frontier:
                heard = set(audience[frontier.pop()]) - reached
                reached |= heard
                frontier += heard
        else:  # anyone may send any packet: a process with a speaker can learn
            reached = {spec.source}.union(*audience)
        if len(reached) < P:
            cuts["goal"] += 1
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
        demand = demands[t]
        for act in values:
            if nodes == limit:
                raise _Budget
            nodes += 1
            if check_r5:
                k = act.packet
                if k is not None and not know[t][p][k - 1]:
                    cuts["r5"] += 1
                    continue
            newly = check_live and kind_counts[p][act.kind] == 0
            if check_live and kind_missing[p] - (1 if newly else 0) > T - 1 - t:
                cuts["liveness"] += 1
                continue
            acts[t][p] = act
            if demand is not None and (
                (demand.tight[p] and act.kind is not ActionKind.LISTEN)
                or (not last_in_slot and not slot_can_deliver(t, p, demand))
            ):
                cuts["intra_slot"] += 1
                continue
            if check_live:
                kind_counts[p][act.kind] += 1
                if newly:
                    kind_missing[p] -= 1
            try:
                if last_in_slot:
                    nxt = learn(know[t], acts[t])
                    if check_goal:
                        miss = missing(nxt)
                        cut = goal_cut(miss, T - t - 1)
                        if cut:
                            cuts[cut] += 1
                            continue
                        demands[t + 1] = slot_demand(miss, T - t - 1)
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
