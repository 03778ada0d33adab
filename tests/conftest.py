from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from protoforge.actions import action_domain
from protoforge.model import (
    GoalKind,
    LivenessMode,
    NetworkSpec,
    Topology,
    topology_all,
    topology_explicit,
    topology_line,
)


def make_spec(
    processes: int = 3,
    packets: int = 1,
    horizon: int = 2,
    source: int = 0,
    topology: Topology | str | Iterable[tuple[int, int]] = "line",
    liveness: LivenessMode = LivenessMode.OFF,
    goal: GoalKind = GoalKind.ALL_KNOW_ALL,
) -> NetworkSpec:
    if topology == "line":
        topology = topology_line(processes)
    elif topology == "all":
        topology = topology_all(processes)
    elif not isinstance(topology, Topology):  # (listener, speaker) pairs
        topology = topology_explicit(processes, topology)
    return NetworkSpec(
        processes=processes,
        packets=packets,
        horizon=horizon,
        source=source,
        topology=topology,
        liveness=liveness,
        goal=goal,
    )


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
