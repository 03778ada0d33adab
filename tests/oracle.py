"""The brute-force oracle the search is checked against.

enumerate_all tries every one of the (M+3)^(T*P) action grids and keeps
those the trace validator accepts. It shares no search machinery with
solver.solve: it reads only the value order of actions.action_domain, the
learning rule through trace.deliver and trace.audiences, and the validator.
Each candidate's knowledge, its T+1 rows, is the one its system's
families imply.

first_trace finds the same first model by a memoised depth-first search
over slot states, so it reaches systems whose grids no enumeration fits.
It reads the same rules as enumerate_all and nothing from solver; its
argument is in its docstring.

fewest_sends is the goal bound's c(H) computed on its own: the fewest lone
sends that bring a packet held by H to everyone, found breadth first over
reach masks, one level per send.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from protoforge.actions import Action, ActionKind, action_domain
from protoforge.encoder import ConstraintSystem
from protoforge.model import NetworkSpec, RequirementLabel, requirement_families
from protoforge.trace import (
    KnowledgeRow,
    ProtocolTrace,
    _violations,
    applied,
    audiences,
    deliver,
    initial_knowledge,
)

# Looked up once: reading an Enum member off its class is slow per cell.
_LISTENS, _SENDS = ActionKind.LISTEN, ActionKind.TRANSMIT


def satisfies(
    trace: ProtocolTrace, enabled: Iterable[RequirementLabel] | None = None
) -> bool:
    """Short-circuit form of validate for bulk enumeration: stops at the
    first violation."""
    enabled = frozenset(RequirementLabel if enabled is None else enabled)
    return next(_violations(trace, enabled), None) is None


def _knowledge(
    spec: NetworkSpec,
    actions: tuple[tuple[Action, ...], ...],
    enabled: frozenset[RequirementLabel],
) -> tuple[KnowledgeRow, ...]:
    """The T+1 knowledge rows from the initial row under the learning rule
    the enabled families imply. With R7 dropped nothing limits learning, so
    every process holds every packet after any slot."""
    rows = [initial_knowledge(spec)]
    if RequirementLabel.R7_COLLISION_FREE_LEARNING not in enabled:
        everyone = (1 << spec.processes) - 1
        return (rows[0],) + ((everyone,) * spec.packets,) * len(actions)
    audience = audiences(spec, enabled)
    for acts in actions:
        listening = sum(1 << p for p, act in enumerate(acts) if act.kind is _LISTENS)
        sends = [(p, act.packet) for p, act in enumerate(acts) if act.kind is _SENDS]
        row = list(rows[-1])
        if change := deliver(row, listening, sends, audience):
            row[change[0] - 1] = change[1]
        rows.append(tuple(row))
    return tuple(rows)


def enumerate_all(
    cs: ConstraintSystem,
    limit: int | None = None,
    ceiling: int = 10_000_000,
) -> list[ProtocolTrace]:
    """Every satisfying trace, found by checking all (M+3)^(T*P) assignments
    with the independent validator, in lexicographic cell order; at most
    `limit` of them."""
    spec = cs.spec
    P, T = spec.processes, spec.horizon
    cells = T * P
    domain = action_domain(spec.packets)
    size = len(domain) ** cells
    if size > ceiling:
        raise ValueError(f"enumeration space {size} exceeds ceiling {ceiling}")
    out: list[ProtocolTrace] = []
    for combo in itertools.product(domain, repeat=cells):
        actions = tuple(combo[t * P:(t + 1) * P] for t in range(T))
        trace = ProtocolTrace(spec, actions, _knowledge(spec, actions, cs.enabled))
        if satisfies(trace, cs.enabled):
            out.append(trace)
            if limit is not None and len(out) >= limit:
                break
    return out


class StatesExceeded(Exception):
    """first_trace met more slot states than its cap allows."""


def first_trace(cs: ConstraintSystem, cap: int | None = None) -> ProtocolTrace | None:
    """The first model, the trace enumerate_all lists first, or None when
    the system is unsatisfiable; StatesExceeded past `cap` slot states.

    A slot state is (slots left, knowledge row, kinds done per process),
    the kinds as one bit per kind and 3 bits per process, all 0 without R3.
    The argument:

    - Whether a row is allowed depends only on the slot state: R5 reads the
      row the slot starts from; every domain value meets R1 and R2; R4, R6,
      R7 and TOPO hold because knowledge is the one the families imply, as
      in enumerate_all (with R7 dropped every process holds every packet
      after any slot); R3 and the goal are read from the last state. So
      whether a state has a completion, its being alive, is a function of
      the state, and is memoised by it.
    - What a row does to the state depends only on its class: the kind of
      each process and, with one lone transmitter, the content it sends.
      deliver teaches nothing in a collision, so a colliding sender's
      content changes nothing.
    - Each class stands for its least row in the value order: a lone
      sender's content is the class's; a colliding sender sends its least
      allowed value, its least held packet with R5, or garbage, which is
      always allowed. Any row is no less than its class's and leads to the
      same state.
    - Rows compare slot by slot, so the least satisfying grid starts with
      the least row whose next state is alive, and that row is the least
      such representative; the grid is read off one slot at a time.
    - Two counts cut a state that cannot finish. With R3 a process does one
      kind per slot, so it cannot lack more kinds than slots are left.
      With the goal and R7 a slot changes at most one packet's holders, so
      no more packets than slots left can lack a holder; with R7 dropped
      one slot teaches everything, so one slot is enough.
    """
    spec = cs.spec
    P, M, T = spec.processes, spec.packets, spec.horizon
    L = RequirementLabel
    enabled = cs.enabled & requirement_families(spec)
    check_r5 = L.R5_TRANSMIT_ONLY_KNOWN in enabled
    free = L.R7_COLLISION_FREE_LEARNING not in enabled
    live = L.R3_LIVENESS in enabled
    goal = L.GOAL_DEADLINE in enabled
    audience = audiences(spec, enabled)
    domain = action_domain(M)  # index 0 sleep, 1 listen, 2..M+1 packets, M+2 garbage
    everyone = (1 << P) - 1
    learned = (everyone,) * M  # every row after slot 0 with R7 dropped
    sleep, listen, send = (1, 2, 4) if live else (0, 0, 0)  # kind bits
    classes: dict[KnowledgeRow, list] = {}
    alive: dict[tuple, bool] = {}

    def representatives(row: KnowledgeRow) -> list[tuple[tuple[int, ...], KnowledgeRow, int]]:
        """Per class, least first: its row's values, the next knowledge row
        and the kinds the row performs. A class with the same next row and
        kinds as one before it is left out: it is alive only if that one is."""
        allowed = [[v for v in range(2, M + 2) if not check_r5 or row[v - 2] >> p & 1] + [M + 2]
                   for p in range(P)]
        out, seen = [], set()

        def fill(p, values, listening, sends, kinds, least):
            if p == P:
                after = learned if free else applied(row, deliver(row, listening, sends, audience))
                if (after, kinds) not in seen:
                    seen.add((after, kinds))
                    out.append((values, after, kinds))
                return
            fill(p + 1, values + (0,), listening, sends, kinds | sleep << 3 * p, least)
            fill(p + 1, values + (1,), listening | 1 << p, sends, kinds | listen << 3 * p, least)
            for v in allowed[p]:  # a second sender only while every send is its least value
                if sends and not (least and v == allowed[p][0]):
                    break
                fill(p + 1, values + (v,), listening, sends + ((p, domain[v].content),),
                     kinds | send << 3 * p, v == allowed[p][0] and least)

        fill(0, (), 0, (), 0, True)
        return out

    def lives(left: int, row: KnowledgeRow, done: int) -> bool:
        key = (left, row, done)
        if key in alive:
            return alive[key]
        if cap is not None and len(alive) >= cap:
            raise StatesExceeded(f"more than {cap} slot states")
        lacked = M - row.count(everyone) if goal else 0  # packets someone lacks
        if free:
            lacked = min(lacked, 1)  # one slot teaches everything
        if lacked > left or live and any(
                3 - (done >> 3 * p & 7).bit_count() > left for p in range(P)):
            alive[key] = False
        elif not left:
            alive[key] = True
        else:
            if row not in classes:
                classes[row] = representatives(row)
            alive[key] = any(lives(left - 1, after, done | kinds)
                             for _, after, kinds in classes[row])
        return alive[key]

    row, done = initial_knowledge(spec), 0
    if not lives(T, row, done):
        return None
    actions, knowledge = [], [row]
    for left in range(T, 0, -1):
        values, row, kinds = next(c for c in classes[row] if lives(left - 1, c[1], done | c[2]))
        done |= kinds
        actions.append(tuple(map(domain.__getitem__, values)))
        knowledge.append(row)
    return ProtocolTrace(spec, tuple(actions), tuple(knowledge))


def fewest_sends(processes: int, audience: Sequence[int], check_r5: bool, held: int) -> float:
    """The fewest lone sends after which every process holds a packet first
    held by the mask `held`, math.inf if no number does. A send by s, a holder
    or with R5 dropped anyone, adds s's audience to the holders."""
    everyone = (1 << processes) - 1
    level, seen, sends = {held}, {held}, 0
    while everyone not in level:
        if not level:
            return math.inf
        level = {
            reach | audience[s] for reach in level for s in range(processes)
            if not check_r5 or reach >> s & 1
        } - seen
        seen |= level
        sends += 1
    return sends
