from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from protoforge.actions import action_domain
from protoforge.model import (
    GoalKind,
    LivenessMode,
    NetworkSpec,
    topology_all,
    topology_explicit,
    topology_line,
)
from protoforge.smt import SmtDocument


def make_spec(
    processes: int = 3,
    packets: int = 1,
    horizon: int = 2,
    source: int = 0,
    topology: str | Iterable[tuple[int, int]] = "line",
    liveness: LivenessMode = LivenessMode.OFF,
    goal: GoalKind = GoalKind.ALL_KNOW_ALL,
) -> NetworkSpec:
    """A spec whose relation is named as in a spec file, or given as
    (listener, speaker) pairs."""
    if topology == "line":
        audience = topology_line(processes)
    elif topology == "all":
        audience = topology_all(processes)
    else:
        audience = topology_explicit(processes, topology)
    return NetworkSpec(
        processes=processes,
        packets=packets,
        horizon=horizon,
        source=source,
        audience=audience,
        liveness=liveness,
        goal=goal,
    )


def record_view_reads(monkeypatch) -> list[str]:
    """Makes every read of an SmtDocument's text or assertions view append
    the view's name to the list returned, so a test can assert that a path
    that writes the blocks never joins or decodes them."""
    reads: list[str] = []
    for name in ("text", "assertions"):
        view = getattr(SmtDocument, name)

        def recorded(doc, name=name, view=view):
            reads.append(name)
            return view.fget(doc)

        monkeypatch.setattr(SmtDocument, name, property(recorded))
    return reads


# Two specs a goal bound that counts rounds of simultaneous senders handles
# worst; test_frontier.py pins both. DEAD_SLOTS is sat, but from {1} one
# round reaches {0, 1, 3, 4} and the next everyone, while lone sends take
# three (1, then one for 2 and one for 5): counting rounds lets the search
# end slot 0 delivering nothing.
DEAD_SLOTS = make_spec(processes=6, packets=1, horizon=3, source=1, topology={
    (0, 1), (0, 2), (0, 4), (0, 5), (1, 0), (1, 2), (1, 3), (1, 5), (2, 0),
    (2, 3), (2, 5), (3, 0), (3, 1), (3, 5), (4, 0), (4, 1), (4, 2), (5, 4),
})
# Unsat at the root. With R5 dropped every process may send, and one round
# reaches everyone, yet covering {0, 1, 3, 4} by audiences still takes three
# sends a packet, 6 > 5 slots.
R5_DROPPED = make_spec(processes=5, packets=2, horizon=5, source=2, topology={
    (0, 1), (0, 2), (0, 3), (1, 4), (2, 0), (2, 4), (3, 0), (3, 2), (4, 0), (4, 3),
})


# The most grids the enumeration oracle is asked to walk for one problem.
ENUM_CEILING = 10**5


def oracle_sized_specs() -> Iterator[NetworkSpec]:
    """The problems acceptance criterion 4 checks against the oracle: P 1-3,
    M 0-2 and T 0-3 on `all` and `line`, source 0, each liveness and goal,
    those with at most ENUM_CEILING grids."""
    for P, M, T in itertools.product((1, 2, 3), (0, 1, 2), (0, 1, 2, 3)):
        if len(action_domain(M)) ** (T * P) > ENUM_CEILING:
            continue
        for topo in (topology_all(P), topology_line(P)):
            for live in LivenessMode:
                for goal in GoalKind:
                    yield NetworkSpec(P, M, T, 0, topo, live, goal)
