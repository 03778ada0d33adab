"""Deterministic search over the action grid, plus minimum-horizon search
and unsat-core minimization.

The engine is a depth-first backtracker. Variables are cells in (slot,
process) order; a cell's value is an index into actions.cell_values,
whose order is the value order: sleep, listen, packets ascending, garbage
(quiet schedules first). Each value's kind, listening bit, content and the
packet R5 checks (None with R5 off) are tabulated once per solve, none
when there is no cell, and Actions are built only for the values the
returned trace holds.
Knowledge, holder masks as in trace, is learned once per completed slot
through trace.deliver (everything in slot 0 with R7 dropped), and never
searched over. The search state lives in arrays that are overwritten and
never undone. Per slot start t: the knowledge row, need (below) and, per
process, the action kinds it performed before slot t, one bit per kind, so
(t, knowledge row, kinds done) names a search state whole; the kinds done
are None with liveness off. The knowledge rows of the path that succeeds
are the trace's: a slot without a change shares the row before it.

One frame per cell, which holds little: past the recursion limit its size,
not its work, sets what a solve costs. A cell's slot and process, and the
listening mask and (speaker, content) sends of its slot's cells before it,
are passed down the call. The slot's last cell hands its own to end_slot,
which learns the change, updates need and makes the goal cut. A budget stop
and an overflow past the recursion limit both end in the frame where they
happen, and each caller returns what ended it; an overflow outside every
search frame is not caught.

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
  cover(H), H the packet's holders: the fewest lone sends, each by an
  eligible sender (a holder, or anyone with R5 dropped) to its audience in
  trace.audiences, that bring the packet to everyone; infinite if none do.
  A lone transmitter delivers one packet, so a slot lowers need by at most
  one; with liveness off, need fits the slots left iff the goal does. Past
  EXACT_COVER_PROCESSES processes a lower bound of cover stands in for it
  (see cover_function). Either way cover only falls as holders grow.

The goal bound applies at the root, at every slot end (counted under
`goal`), which updates need by its change's cover, and while a slot is
being filled (`intra_slot`). At the root every packet has the source as its
only holder, so need is M · cover({source}) (1 with R7 dropped, 0 when
nobody lacks a packet), and _root_needs reads no knowledge row. While a
slot is filled and need equals the slots left, this slot must lower some
packet's cover, so a partial row is cut unless some completion of it does.
Since cover is monotone, the only completion tried is the one in which
every later cell listens, with the sends already placed, whose change
trace.deliver gives (a collision, garbage or a send that teaches nobody
gives none), or, if there is none yet, each later process sending each
packet it may send. These bound what the slot can teach under the learning
rule; learning itself still happens only at slot end. That
completion's listening mask only shrinks as the slot fills, so a
(sender, packet) pair that cannot lower a cover at one cell cannot at the
next either, and each cell resumes the scan where the one before it stopped.

solve reports a spent budget as a status. Every search the package runs
(min_horizon's per horizon, unsat_core_minimize's base system and each of
its trials, the CLI's synth and compare) stops on its budget through
decide, the one place that turns that status into SearchBudgetExceeded,
with the line its caller names.

The brute-force oracle the tests compare the search against lives with the
tests, and shares no search machinery with solve.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import reduce
from typing import Callable, Sequence

from .actions import ActionKind, action_of, cell_values
from .encoder import ConstraintSystem, encode
from .model import (
    NetworkSpec,
    Record,
    RequirementLabel,
    STRUCTURAL_LABELS,
    TAXONOMY,
    check_size,
    requirement_families,
)
from .trace import (
    ProtocolTrace,
    all_known,
    applied,
    audiences,
    deliver,
    initial_knowledge,
)


class SearchConfig(Record):
    __slots__ = ("node_limit",)

    def __init__(self, node_limit: int | None = None) -> None:
        if node_limit is not None and node_limit < 1:
            raise ValueError("node_limit must be >= 1")
        self._store(node_limit)


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    BUDGET_EXHAUSTED = "budget-exhausted"

    __hash__ = object.__hash__  # see model.RequirementLabel


class SolveStats(Record):
    """What one search did: cell values tried (nodes, the unit node_limit
    counts) and the branches each bound cut. Cuts at the root count too."""

    __slots__ = ("nodes", "r5", "liveness", "goal", "intra_slot")

    def __init__(
        self, nodes: int = 0, r5: int = 0, liveness: int = 0, goal: int = 0, intra_slot: int = 0,
    ) -> None:
        self._store(nodes, r5, liveness, goal, intra_slot)


class SolveResult(Record):
    """A verdict, with solve's first trace when it is SAT."""

    __slots__ = ("status", "trace", "stats")

    def __init__(
        self, status: SolveStatus, trace: ProtocolTrace | None = None,
        stats: SolveStats = SolveStats(),
    ) -> None:
        self._store(status, trace, stats)


class SearchBudgetExceeded(RuntimeError):
    """A node-limited search ran out of budget before deciding the system.

    The message is the whole line the CLI reports; `horizon` is the first
    horizon min_horizon could not decide, None for any other search.
    """

    def __init__(self, message: str, horizon: int | None) -> None:
        super().__init__(message)
        self.horizon = horizon


# Per action kind its bit in a process's kinds done. Built and looked up
# once: reading an Enum member off its class is slow.
_KIND_BIT = {kind: 1 << i for i, kind in enumerate(ActionKind)}
_LISTENS = ActionKind.LISTEN


class _Memo(dict):
    """A one-argument function's values by argument, each computed on its
    first lookup. A lookup is a plain dict read, and a memo costs less to
    build than a functools.cache wrapper, which solve would build per call."""

    __slots__ = ("function",)

    def __init__(self, function: Callable[[int], float]) -> None:
        self.function = function

    def __missing__(self, key: int) -> float:
        value = self[key] = self.function(key)
        return value


# Cover is exact up to this many processes: at 14 its costliest fill outlasts a 100k-node search.
EXACT_COVER_PROCESSES = 13


def cover_function(P: int, audience: Sequence[int], check_r5: bool) -> Callable[[int], float]:
    """cover (see the module doc), memoised by holder mask and filled depth first over an
    explicit stack. Past EXACT_COVER_PROCESSES it is the larger of the rounds of every
    eligible sender at once and ceil(missing / the most listeners a speaker has)."""
    everyone = (1 << P) - 1

    def relaxed(held: int) -> float:
        rounds, reach = 0, held
        while reach != everyone:
            eligible = reach if check_r5 else everyone
            grown = reduce(int.__or__, (audience[s] for s in range(P) if eligible >> s & 1), reach)
            if grown == reach:
                return math.inf
            rounds, reach = rounds + 1, grown
        return max(rounds, math.ceil((P - held.bit_count()) / max(map(int.bit_count, audience))))

    def exact(held: int) -> float:
        stack = [held]
        while stack:
            reach = stack.pop()
            if reach not in memo:
                eligible = reach if check_r5 else everyone
                grown = {reach | audience[s] for s in range(P) if eligible >> s & 1} - {reach}
                if everyone in grown:  # one send finishes: no successor needs looking at
                    memo[reach] = 1
                elif unknown := [g for g in grown if g not in memo]:
                    stack += [reach, *unknown]
                else:
                    memo[reach] = 1 + min(map(memo.__getitem__, grown), default=math.inf)
        return memo[held]

    memo = _Memo(exact if P <= EXACT_COVER_PROCESSES else relaxed)
    memo[everyone] = 0
    return memo.__getitem__


def _root_needs(spec: NetworkSpec, enabled, cover: Callable[[int], float]) -> tuple[float, int]:
    """The fewest slots the goal and liveness each need from the initial knowledge (see the
    module doc): solve cuts a horizon below either at its root; min_horizon starts at the larger.
    Every packet starts with the source as its only holder, so no knowledge row is read."""
    L = RequirementLabel
    lacked = spec.packets if spec.processes > 1 else 0  # packets someone lacks at time 0
    goal = (0 if L.GOAL_DEADLINE not in enabled or not lacked else lacked * cover(1 << spec.source)
            if L.R7_COLLISION_FREE_LEARNING in enabled else 1)
    return goal, len(ActionKind) if L.R3_LIVENESS in enabled else 0


def solve(cs: ConstraintSystem, config: SearchConfig | None = None) -> SolveResult:
    """Decides the system; a SAT result carries the first trace in search
    order. An UNSAT one's unminimized core is the caller's
    cs.enabled & requirement_families(cs.spec)."""
    config = config or SearchConfig()
    spec = cs.spec
    P, M, T = spec.processes, spec.packets, spec.horizon
    L = RequirementLabel
    enabled = cs.enabled & requirement_families(spec)
    check_r5 = L.R5_TRANSMIT_ONLY_KNOWN in enabled
    free_learning = L.R7_COLLISION_FREE_LEARNING not in enabled
    cuts = dict.fromkeys(SolveStats._fields[1:], 0)  # each bound's cuts, by its field
    nodes = 0

    def result(status: SolveStatus, trace: ProtocolTrace | None = None) -> SolveResult:
        return SolveResult(status, trace, SolveStats(nodes, **cuts))

    audience = audiences(spec, enabled)
    everyone = (1 << P) - 1
    cover = cover_function(P, audience, check_r5)

    def slot_can_lower(i: int, held, listening: int, sends: tuple) -> bool:
        """Whether some completion of a slot whose cells up to cell i listen
        as `listening` and send `sends` lowers some packet's cover; the only
        one tried is the one the module doc names. Before any cell sends, the
        candidates are the slot's eligible (sender, packet) pairs, listed at
        its first cell."""
        t, p = divmod(i, P)
        listening |= everyone >> (p + 1) << (p + 1)
        if sends:  # a collision, garbage or a send that teaches nobody changes nothing
            change = deliver(held, listening, sends, audience)
            return bool(change) and cover(change[1]) < cover(held[change[0] - 1])
        if not p:  # each later process, with each packet it may send and an audience lacks
            pairs[t] = [
                (s, reach, was, cover(was)) for s in range(1, P) for was in held
                if (was if check_r5 else everyone) >> s & 1 and (reach := audience[s] & ~was)
            ]
        candidates = pairs[t]
        for j in range(resume[i - 1] if p else 0, len(candidates)):
            s, reach, was, now = candidates[j]
            if s > p and cover(was | reach & listening) < now:
                resume[i] = j
                return True
        return False

    goal_need, live_need = _root_needs(spec, enabled, cover)
    if goal_need > T or live_need > T:
        cuts["goal" if goal_need > T else "liveness"] += 1
        return result(SolveStatus.UNSAT)
    initial = initial_knowledge(spec)
    if free_learning and T:  # slot 0 teaches everyone every packet they lack
        learned = initial if all_known(initial, P) else (everyone,) * M

    # per slot start t: know[t], the trace's knowledge once a model is found, need[t] and
    # done[t][p] (None when untracked)
    know: list = [initial] + [None] * T
    need = [goal_need] * (T + 1) if goal_need and not free_learning else None
    done = [[0] * P for _ in range(T + 1)] if L.R3_LIVENESS in enabled else None
    cells = T * P
    # per value: index, kind bit, listening bit, content (None unless sending), R5's packet;
    # with no cell to search, no value is tabulated
    values = cell_values(M) if cells else []
    table = [(v, _KIND_BIT[kind], int(kind is _LISTENS), content,
              (content or None) if check_r5 else None) for v, (kind, content) in enumerate(values)]
    kinds = len(_KIND_BIT)
    limit = config.node_limit
    grid = [0] * cells  # each cell's value
    if need:  # slot_can_lower's state: per slot its candidate pairs, per cell where its scan stopped
        pairs, resume = [None] * T, [0] * cells

    def end_slot(t: int, listening: int, sends: tuple) -> bool:
        """Learns slot t's change; False when the goal cuts."""
        change = None if free_learning else deliver(know[t], listening, sends, audience)
        know[t + 1] = learned if free_learning and not t else applied(know[t], change)
        if need:
            need[t + 1] = need[t] - (
                cover(know[t][change[0] - 1]) - cover(change[1]) if change else 0)
            if need[t + 1] > T - 1 - t:
                cuts["goal"] += 1
                return False
        return True

    def search(i: int, t: int, p: int, before: int, sends_before: tuple):
        """What ended the search below cell i, returned by the frame it happened in: SAT,
        BUDGET_EXHAUSTED or RecursionError; None when every completion was tried."""
        nonlocal nodes
        if t == T:
            return SolveStatus.SAT
        held = know[t] if need and p < P - 1 and need[t] == T - t else None
        try:
            for v, bit, listens, k, r5 in table:
                if nodes == limit:
                    return SolveStatus.BUDGET_EXHAUSTED
                nodes += 1
                if r5 and not know[t][r5 - 1] >> p & 1:
                    cuts["r5"] += 1
                    continue
                if done:
                    kinds_done = done[t][p] | bit
                    if kinds - kinds_done.bit_count() > T - 1 - t:
                        cuts["liveness"] += 1
                        continue
                    done[t + 1][p] = kinds_done
                grid[i] = v
                listening = before | listens << p
                sends = sends_before if k is None else sends_before + ((p, k),)
                if held and not slot_can_lower(i, held, listening, sends):
                    cuts["intra_slot"] += 1
                    continue
                if p < P - 1:
                    if ended := search(i + 1, t, p + 1, listening, sends):
                        return ended
                elif end_slot(t, listening, sends) and (ended := search(i + 1, t + 1, 0, 0, ())):
                    return ended
        except RecursionError:  # the class, not the error: its traceback would keep every frame
            return RecursionError
        return None

    ended = search(0, 0, 0, 0, ())
    if ended is RecursionError:  # one line, whatever operation overflowed
        raise RecursionError(f"the search of {cells} cells nests deeper than the "
                             "interpreter's recursion limit")
    if ended is SolveStatus.BUDGET_EXHAUSTED:
        return result(ended)
    if ended is None:
        return result(SolveStatus.UNSAT)
    # equal rows share one tuple, as they do in a trace read from a file
    slices = [tuple(grid[t * P:(t + 1) * P]) for t in range(T)]
    used = {v: action_of(*values[v]) for v in set(grid)}  # an Action only for the values held
    rows = {key: tuple(map(used.__getitem__, key)) for key in dict.fromkeys(slices)}
    actions = tuple(map(rows.__getitem__, slices))
    return result(SolveStatus.SAT, ProtocolTrace(spec, actions, tuple(know)))


def decide(
    cs: ConstraintSystem, config: SearchConfig | None, stop: str = "budget exhausted",
    horizon: int | None = None,
) -> SolveResult:
    """solve's result when it decides the system, Sat or Unsat; otherwise
    SearchBudgetExceeded(stop, horizon), stop being the line it reports."""
    result = solve(cs, config)
    if result.status is SolveStatus.BUDGET_EXHAUSTED:
        raise SearchBudgetExceeded(stop, horizon)
    return result


def min_horizon(
    spec: NetworkSpec, t_max: int, config: SearchConfig | None = None
) -> ProtocolTrace | None:
    """The first trace at the least horizon in 0..t_max whose encoding is
    satisfiable, which is its spec's; None when every horizon in range is
    unsatisfiable. Horizons that solve's root bounds cut, which
    spend no budget, are skipped unsolved; each horizon solved is first held
    to model.check_size, so no trace it returns is one read_trace refuses."""
    families = requirement_families(spec)
    if RequirementLabel.GOAL_DEADLINE not in families:
        raise ValueError("min_horizon needs goal = all-know-all")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    start = max(_root_needs(spec, families, cover_function(spec.processes, spec.audience, True)))
    for horizon in range(min(start, t_max + 1), t_max + 1):
        check_size(spec.processes, spec.packets, horizon)
        result = decide(encode(spec.replace(horizon=horizon)), config,
                        f"budget exhausted at horizon {horizon}", horizon)
        if result.status is SolveStatus.SAT:
            return result.trace
    return None


def unsat_core_minimize(
    cs: ConstraintSystem, config: SearchConfig | None = None
) -> frozenset[RequirementLabel] | None:
    """Deletion-based 1-minimal unsat core at requirement-family granularity;
    None when the system is satisfiable.

    Tries dropping each non-structural enabled label (R3, R5, R7, GOAL,
    TOPO) in taxonomy order and keeps it out whenever the rest stays
    unsatisfiable. The search holds the structural families whatever is
    enabled (see model.STRUCTURAL_LABELS), so they never appear in the result.
    """
    if decide(cs, config).status is SolveStatus.SAT:
        return None
    core = cs.enabled - STRUCTURAL_LABELS
    for label in TAXONOMY:
        if label not in core:
            continue
        trial = decide(ConstraintSystem(cs.spec, core - {label}), config,
                       f"budget exhausted while testing {label.value} for removal")
        if trial.status is SolveStatus.UNSAT:
            core -= {label}
    return core
