from __future__ import annotations

from typing import Iterable

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
