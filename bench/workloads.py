"""Seeded problem draws for the benchmark workloads, with their closed-form answers.

Each workload turns a seed into a *draw*: an ordered list of cases. A case is
one problem file plus the CLI commands a user would send for it. The program
only ever sees the rendered spec text; everything the benchmark checks its
answers against (verdicts, unsat cores, baseline completion slots) comes from
the closed forms in this module, never from the solver.

Draws are stratified: every workload covers a fixed ladder of instance shapes
and the seed varies the details inside each rung (source, random graph,
liveness, order, which requests become `unsat-core`). That keeps the mix of
cheap and expensive requests the same from seed to seed, so runs with
different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

# Node budget for every search on `boundary`. A budget-capped request is a
# distinct, deterministic outcome (exit 5), not a failure.
BOUNDARY_NODE_LIMIT = 100_000

GOAL = "GOAL_Deadline"
R7 = "R7_CollisionFreeLearning"
TOPO = "TOPO_HearsRelation"


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    topology: str
    processes: int
    packets: int
    horizon: int
    commands: tuple[str, ...]
    expect: str | None = None  # "sat" | "unsat" from the closed form
    core: frozenset[str] | None = None  # hand-derived minimal core when unsat
    node_limit: int | None = None
    rung: int = 0  # index into the workload's ladder, where it has one


def spec_text(
    processes: int,
    packets: int,
    horizon: int,
    source: int,
    topology: str,
    liveness: str,
    goal: str,
    hears: tuple[tuple[int, int], ...] = (),
) -> str:
    lines = [
        f"processes = {processes}",
        f"packets = {packets}",
        f"horizon = {horizon}",
        f"source = {source}",
        f"topology = {topology}",
        f"liveness = {liveness}",
        f"goal = {goal}",
    ]
    lines.extend(f"hears {listener} {speaker}" for listener, speaker in hears)
    return "\n".join(lines) + "\n"


def t_min(topology: str, processes: int, packets: int) -> int:
    """Least feasible horizon for all-know-all with liveness off.

    Only a lone transmitter delivers anything and a listener gains at most one
    packet per slot. On `all` the source's M broadcasts reach everyone at once,
    so M slots suffice and are needed. On `line` (p hears only p-1) every slot
    moves one packet one hop, and (P-1)*M hops are needed.
    """
    if topology == "all":
        return packets
    if topology == "line":
        return (processes - 1) * packets
    raise ValueError(f"no closed form for topology {topology!r}")


def unsat_core(topology: str, processes: int, packets: int, horizon: int) -> frozenset[str]:
    """The 1-minimal core the deletion order must reach below t_min.

    Dropping R7 lets knowledge grow freely after one slot, so R7 is needed
    unless there is no slot at all (T = 0, where the deadline alone fails).
    Dropping TOPO turns a line into a complete graph, feasible once T >= M.
    Every other family can go: the bound holds without it.
    """
    if horizon >= t_min(topology, processes, packets):
        raise ValueError("instance is satisfiable")
    core = {GOAL} if horizon == 0 else {GOAL, R7}
    if topology == "line" and horizon >= packets:
        core.add(TOPO)
    return frozenset(core)


def baseline_completion(topology: str, processes: int, packets: int) -> int | None:
    """Slot at which the always-on policy completes, where a closed form exists.

    On `all` the source broadcasts packets 1..M to every listener. On `line`
    each node starts relaying once it holds everything, one hop per M slots;
    carrier sense keeps the relays from jamming each other.
    """
    if topology == "all":
        return packets
    if topology == "line":
        return (processes - 1) * packets
    return None


def random_hears(rng: random.Random, processes: int, degree: int = 4) -> tuple[tuple[int, int], ...]:
    """Explicit hears relation where every listener hears `degree` random speakers."""
    pairs = []
    for listener in range(processes):
        others = [p for p in range(processes) if p != listener]
        for speaker in sorted(rng.sample(others, min(degree, len(others)))):
            pairs.append((listener, speaker))
    return tuple(pairs)


def boundary(seed: int) -> list[Case]:
    """Every `all` shape with every source and every `line` shape, each at
    T = t_min and t_min - 1.

    The source alone can decide whether a search fits the node budget, so it
    is enumerated rather than drawn; the seed picks the order and which
    unsat requests become `unsat-core`.
    """
    rng = random.Random(f"boundary/{seed}")
    shapes = [("all", p, m, s) for p in range(3, 9) for m in range(1, 5) for s in range(p)]
    shapes += [("line", p, m, 0) for p in range(3, 7) for m in range(1, 3)]
    cases = []
    for topology, p, m, source in shapes:
        tight = t_min(topology, p, m)
        for horizon in (tight, tight - 1):
            sat = horizon == tight
            cases.append(Case(
                name="",
                text=spec_text(p, m, horizon, source, topology, "off", "all-know-all"),
                topology=topology,
                processes=p,
                packets=m,
                horizon=horizon,
                commands=("synth", "validate"),
                expect="sat" if sat else "unsat",
                core=None if sat else unsat_core(topology, p, m, horizon),
                node_limit=BOUNDARY_NODE_LIMIT,
            ))
    for topology in ("all", "line"):
        unsat = [i for i, c in enumerate(cases) if c.expect == "unsat" and c.topology == topology]
        for i in rng.sample(unsat, round(len(unsat) / 5)):
            cases[i] = replace(cases[i], commands=("unsat-core",))
    return _spread(rng, cases, lambda c: (c.topology, c.processes, c.packets, c.expect))


# (P, M, T) per rung, from the small corner of P 8-64, M 2-16, T 16-64 to the
# large one. The rungs are fixed, so every seed sends the same mix of cheap
# and costly grids; the seed varies topology details, source and liveness.
# Four rungs stay below 900 cells and three above 1100, clear of the
# ~1000-cell depth at which the recursive search overflows the interpreter
# stack, so which side a grid falls on never depends on how deep the
# caller's own stack happens to be.
WIDE_RUNGS = (
    (9, 2, 18),
    (13, 5, 30),
    (17, 9, 38),
    (21, 13, 40),
    (29, 3, 42),
    (45, 7, 30),
    (64, 16, 64),
)


def wide(seed: int) -> list[Case]:
    """Large grids with goal = none: the first schedule needs about T*P nodes."""
    rng = random.Random(f"wide/{seed}")
    cases = []
    for rung, (p, m, t) in enumerate(WIDE_RUNGS):
        for topology in ("all", "line", "explicit"):
            hears = random_hears(rng, p) if topology == "explicit" else ()
            # A line only carries packets towards higher ids, so its source is 0.
            source = rng.randrange(p) if topology != "line" else 0
            liveness = rng.choice(("off", "each-action-once"))
            cases.append(Case(
                name="",
                text=spec_text(p, m, t, source, topology, liveness, "none", hears),
                topology=topology,
                processes=p,
                packets=m,
                horizon=t,
                commands=("synth", "validate", "simulate", "baseline"),
                expect="sat",
                rung=rung,
            ))
    return _spread(rng, cases, lambda c: c.rung)


# (P, M, T) per rung within P 6-24, M 2-8, T 6-24, fixed as on `wide`. On a
# complete graph the top rung emits the largest document, about 16 MB. With
# 15 cases sent equally often, the median and p90 of request time fall in
# the middle of one case's samples rather than between two cases.
SMT_RUNGS = (
    (7, 2, 7),
    (9, 3, 9),
    (11, 3, 11),
    (14, 5, 14),
    (18, 6, 18),
)


def smt_export(seed: int) -> list[Case]:
    """SMT-LIB export of all-know-all problems on mixed topologies."""
    rng = random.Random(f"smt-export/{seed}")
    cases = []
    for rung, (p, m, t) in enumerate(SMT_RUNGS):
        for topology in ("all", "line", "explicit"):
            hears = random_hears(rng, p) if topology == "explicit" else ()
            source = rng.randrange(p) if topology != "line" else 0
            liveness = rng.choice(("off", "each-action-once"))
            cases.append(Case(
                name="",
                text=spec_text(p, m, t, source, topology, liveness, "all-know-all", hears),
                topology=topology,
                processes=p,
                packets=m,
                horizon=t,
                commands=("emit-smt",),
                rung=rung,
            ))
    return _spread(rng, cases, lambda c: c.rung)


def _spread(rng: random.Random, cases: list[Case], stratum) -> list[Case]:
    """Names and orders the draw so each stratum is spread evenly over it.

    Costly and cheap requests then alternate through a pass instead of
    arriving in runs, so the gauge readings around a request (gauge.py)
    come from stretches of similar work.
    """
    groups: dict[object, list[Case]] = {}
    for case in cases:
        groups.setdefault(stratum(case), []).append(case)
    keyed = []
    for members in groups.values():
        rng.shuffle(members)
        offset = rng.random()
        keyed += [((i + offset) / len(members), case) for i, case in enumerate(members)]
    keyed.sort(key=lambda item: item[0])
    return [replace(case, name=f"c{i:03d}") for i, (_, case) in enumerate(keyed)]


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[int], list[Case]]
    tail_percentile: int
    # Gauge-scaled seconds one pass over the draw takes on the seed program.
    pass_seconds: float

    def passes(self, seconds: float) -> int:
        """Whole passes over the draw that fill `seconds` at reference speed.

        A timed run sends exactly this many passes, so its requests, and
        which of them fail or hit the node budget, depend only on `seconds`
        and the program, never on how fast the machine happened to be.
        """
        return max(1, round(seconds / self.pass_seconds))


# bench/README.md says why each workload was chosen. The tail percentile is
# fixed per workload, so runs stay comparable as the program gets faster: the
# highest one that kept ten samples beyond it and repeated within a few
# percent from run to run. On `wide` the costliest tenth of the requests is a
# handful of very different grids, so p90 jumps between them; p80 does not.
# Pass times were measured on a shared 2-core x86-64 machine (Python 3.11).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("boundary", boundary, 90, 20.0),
        Workload("wide", wide, 80, 6.5),
        Workload("smt-export", smt_export, 90, 0.9),
    )
}
