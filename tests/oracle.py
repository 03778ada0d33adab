"""The brute-force oracle the search is checked against.

enumerate_all tries every one of the (M+3)^(T*P) action grids and keeps
those the trace validator accepts. It shares no search machinery with
solver.solve: it reads only the value order of actions.action_domain, the
learning rule through trace.deliver and trace.audiences, and the validator.
Each candidate's knowledge, the changes of each slot, is the one its
system's families imply.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from protoforge.actions import Action, ActionKind, action_domain
from protoforge.encoder import ConstraintSystem
from protoforge.model import NetworkSpec, RequirementLabel
from protoforge.trace import (
    Changes,
    ProtocolTrace,
    _violations,
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
) -> Changes:
    """Each slot's knowledge changes from the initial row under the
    learning rule the enabled families imply. With R7 dropped nothing
    limits learning, so every process holds every packet after any slot."""
    row = list(initial_knowledge(spec))
    if RequirementLabel.R7_COLLISION_FREE_LEARNING not in enabled:
        everyone = (1 << spec.processes) - 1
        learn_all = tuple((k, everyone) for k, held in enumerate(row, 1) if held != everyone)
        return ((learn_all,) + ((),) * (len(actions) - 1)) if actions else ()
    audience = audiences(spec, enabled)
    changes = []
    for acts in actions:
        listening = sum(1 << p for p, act in enumerate(acts) if act.kind is _LISTENS)
        sends = [(p, act.packet) for p, act in enumerate(acts) if act.kind is _SENDS]
        if change := deliver(row, listening, sends, audience):
            row[change[0] - 1] = change[1]
        changes.append((change,) if change else ())
    return tuple(changes)


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
    first = initial_knowledge(spec)
    out: list[ProtocolTrace] = []
    for combo in itertools.product(domain, repeat=cells):
        actions = tuple(combo[t * P:(t + 1) * P] for t in range(T))
        trace = ProtocolTrace(spec, actions, first, _knowledge(spec, actions, cs.enabled))
        if satisfies(trace, cs.enabled):
            out.append(trace)
            if limit is not None and len(out) >= limit:
                break
    return out
