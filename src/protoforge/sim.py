"""Slotted-channel execution: replay synthesized schedules, run the
always-on reference policy, and compare power use.

Power accounting charges active_cost for every transmitting or listening
cell and idle_cost for every sleeping cell. Completion means the whole
network holds every packet.

The reference policy never sleeps: a node that holds all M packets, a
full node, broadcasts them in id order, one per slot, wrapping around;
every other node listens. Its radios are carrier-sense, and only this
module models that: a listener is jammed only when two or more of the
speakers it can actually hear transmit at once, so simultaneous traffic
elsewhere does not block it. Synthesized schedules are replayed under the
stricter whole-channel rule of trace.deliver, which is why the comparison
tracks slots with concurrent transmissions: any such slot means the
schedule leans on collision handling rather than silence.

The reference run floods in rounds of M slots, the round structure of
radio broadcast (Chlamtac & Kutten 1985). At every multiple of M each
node holds all M packets or none. A listener learns only while it hears
exactly one full node, and that node, sending packet t % M + 1 at slot t
from the multiple of M at which it joined, hands it all M packets in one
round; a second full node it hears jams it for good, as the full set
never shrinks. So at a round's start every packet has the same holders,
the full set, whose members send in step as one speaker heard by the
union of their audiences, and one deliver call gives a round's new
holders for all M packets. A round that gives none is the fixed point,
so the run ends after at most P rounds with the slots left filled by
that round's period. Its trace and report are those of stepping every
node in every slot.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import reduce
from itertools import cycle, islice
from operator import and_, attrgetter

from .actions import Action, ActionKind, LISTEN, action_domain
from .model import NetworkSpec, RequirementLabel, set_bits, spec_as_dict
from .trace import (
    KnowledgeRow,
    ProtocolTrace,
    Violation,
    all_known,
    audiences,
    deliver,
    initial_knowledge,
    knowledge_table,
    validate,
)

# Physical realizability only: delivery deadlines and liveness are outcomes
# a simulation reports, not preconditions for running one.
GUARD_LABELS = frozenset(
    {
        RequirementLabel.R1_EXACTLY_ONE_ACTION,
        RequirementLabel.R2_CONTENT_DOMAIN,
        RequirementLabel.R4_INITIAL_KNOWLEDGE,
        RequirementLabel.R5_TRANSMIT_ONLY_KNOWN,
        RequirementLabel.R6_NEVER_FORGETS,
        RequirementLabel.R7_COLLISION_FREE_LEARNING,
        RequirementLabel.TOPO_HEARS_RELATION,
    }
)


class SimulationGuardError(ValueError):
    def __init__(self, violations: list[Violation]) -> None:
        summary = "; ".join(
            f"{v.label.value} at t={v.time}, p={v.process}" for v in violations[:5]
        )
        super().__init__(f"trace is not physically consistent: {summary}")
        self.violations = tuple(violations)


@dataclass(frozen=True)
class PowerModel:
    """Per-slot unit costs; transmitting and listening are both active."""

    active_cost: int = 1
    idle_cost: int = 0

    def __post_init__(self) -> None:
        if self.active_cost < 0 or self.idle_cost < 0:
            raise ValueError("power costs must be >= 0")


@dataclass(frozen=True)
class SimReport:
    spec: NetworkSpec
    power: PowerModel
    slots_run: int
    delivered: KnowledgeRow
    per_process_power: tuple[int, ...]
    total_power: int
    concurrent_tx_slots: int
    completed: bool
    completion_slot: int | None


def simulate_trace(trace: ProtocolTrace, power: PowerModel | None = None) -> SimReport:
    """Replays a schedule slot by slot under the whole-channel learning rule;
    a clean guard check proves the trace's knowledge grid is that rule's."""
    power = power or PowerModel()
    bad = validate(trace, GUARD_LABELS)
    if bad:
        raise SimulationGuardError(bad)
    spec, T, grid = trace.spec, trace.spec.horizon, trace.knowledge
    kinds = [list(map(attrgetter("kind"), row)) for row in trace.actions]
    asleep = [column.count(ActionKind.SLEEP) for column in zip(*kinds)] or [0] * spec.processes
    per = tuple(power.active_cost * (T - n) + power.idle_cost * n for n in asleep)
    concurrent = sum(row.count(ActionKind.TRANSMIT) >= 2 for row in kinds)
    done = next((t for t, row in enumerate(grid) if all_known(row, spec.processes)), None)
    return SimReport(spec, power, T, grid[-1], per, sum(per), concurrent, done is not None, done)


def default_max_slots(spec: NetworkSpec) -> int:
    """Generous allowance: relaying one packet at a time across a chain."""
    return 2 * spec.processes * max(spec.packets, 1) + 2


def run_baseline(
    spec: NetworkSpec,
    power: PowerModel | None = None,
    max_slots: int | None = None,
) -> tuple[ProtocolTrace, SimReport]:
    """Runs the always-on policy until completion or max_slots, a round of
    M slots at a time (see the module docstring).

    Returns the action log (its embedded spec carries the number of slots
    actually run as its horizon, and its knowledge grid follows the
    carrier-sense rule) together with the usual report. The report keeps
    the caller's spec so it can be compared against a synthesized run.
    """
    power = power or PowerModel()
    if max_slots is None:
        max_slots = default_max_slots(spec)
    if max_slots < 0:
        raise ValueError("max_slots must be >= 0")
    P, M = spec.processes, spec.packets
    everyone = (1 << P) - 1
    sends = action_domain(M)[2:-1]  # packets 1..M
    audience = audiences(spec)
    know = initial_knowledge(spec)  # the knowledge row at slot len(rows)
    learned: list = []  # per slot, its changes to know
    rows: list[tuple[Action, ...]] = []
    residues = [[LISTEN] * P for _ in range(M)]  # the action row of the slots t = r mod M
    full = heard = jam = concurrent = 0  # the full set, the union of its audiences, its jam mask
    while True:  # a round per pass, as processes join only between rounds
        joined = reduce(and_, know, everyone)
        for p in set_bits(joined & ~full):
            jam |= heard & audience[p]
            heard |= audience[p]
            for row, act in zip(residues, sends):
                row[p] = act
        full, t = joined, len(rows)
        if full == everyone or t == max_slots:
            break
        # the full set sends as one speaker, 0: one call gives all M packets' new holders
        change = deliver((full,), everyone & ~full & ~jam, [(0, 1)], (heard,))
        if change:  # each of the round's slots gives its packet the new holders
            slots = min(M, max_slots - t)
            learned += [((k, change[1]),) for k in range(1, slots + 1)]
            know = (change[1],) * slots + know[slots:]
        else:  # a fixed point: the round's period fills the slots left
            slots = max_slots - t
            learned += [()] * slots
        rows += islice(cycle(map(tuple, residues)), slots)
        concurrent += slots * (full & (full - 1) != 0)  # two or more senders
    T, done = len(rows), full == everyone
    per = (T * power.active_cost,) * P  # every always-on cell is active
    report = SimReport(spec, power, T, know, per, sum(per), concurrent, done, T if done else None)
    trace = ProtocolTrace(replace(spec, horizon=T), tuple(rows), initial_knowledge(spec), tuple(learned))
    return trace, report


@dataclass(frozen=True)
class ComparisonReport:
    synthesized: SimReport
    baseline: SimReport

    @property
    def lower_power(self) -> str:
        if self.synthesized.total_power < self.baseline.total_power:
            return "synthesized"
        if self.baseline.total_power < self.synthesized.total_power:
            return "baseline"
        return "tie"

    def text(self) -> str:
        synth, base = self.synthesized, self.baseline

        def csma(report: SimReport) -> str:
            return "required" if report.concurrent_tx_slots > 0 else "not required"

        def done(report: SimReport) -> str:
            if report.completed:
                return f"yes (slot {report.completion_slot})"
            return "no"

        rows = [
            ("metric", "synthesized", "baseline"),
            ("slots run", str(synth.slots_run), str(base.slots_run)),
            ("total power (pw)", str(synth.total_power), str(base.total_power)),
            ("concurrent tx slots", str(synth.concurrent_tx_slots), str(base.concurrent_tx_slots)),
            ("collision detection", csma(synth), csma(base)),
            ("completed", done(synth), done(base)),
        ]
        widths = [max(len(row[col]) for row in rows) for col in range(3)]
        lines = [
            "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        if self.lower_power == "tie":
            outcome = "tie"
        else:
            outcome = f"{self.lower_power} lower"
        lines.append(
            f"power: synthesized {synth.total_power} pw, baseline {base.total_power} pw ({outcome})"
        )
        lines.append(
            f"collision detection: synthesized {csma(synth)}, baseline {csma(base)}"
        )
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        return {
            "synthesized": report_as_dict(self.synthesized),
            "baseline": report_as_dict(self.baseline),
            "verdict": {
                "lower_power": self.lower_power,
                "collision_detection_needed": {
                    "synthesized": self.synthesized.concurrent_tx_slots > 0,
                    "baseline": self.baseline.concurrent_tx_slots > 0,
                },
            },
        }


def compare(synthesized: SimReport, baseline: SimReport) -> ComparisonReport:
    if synthesized.spec != baseline.spec:
        raise ValueError("reports come from different specs")
    if synthesized.power != baseline.power:
        raise ValueError("reports use different power models")
    return ComparisonReport(synthesized=synthesized, baseline=baseline)


def report_as_dict(report: SimReport) -> dict:
    return {
        "spec": spec_as_dict(report.spec),
        "power": {
            "active_cost": report.power.active_cost,
            "idle_cost": report.power.idle_cost,
        },
        "slots_run": report.slots_run,
        "delivered": knowledge_table(report.delivered, report.spec.processes),
        "per_process_power": list(report.per_process_power),
        "total_power": report.total_power,
        "concurrent_tx_slots": report.concurrent_tx_slots,
        "completed": report.completed,
        "completion_slot": report.completion_slot,
    }


def render_report(report: SimReport) -> str:
    lines = [
        f"slots run: {report.slots_run}",
        f"total power: {report.total_power} pw",
        "per-process power: " + " ".join(str(v) for v in report.per_process_power),
        f"concurrent tx slots: {report.concurrent_tx_slots}",
    ]
    if report.completed:
        lines.append(f"completed: yes (slot {report.completion_slot})")
    else:
        lines.append("completed: no")
    masks = Counter(report.delivered)  # how many packets have each holder mask
    delivered = " ".join(
        f"p{p}:{sum(n for mask, n in masks.items() if mask >> p & 1)}/{report.spec.packets}"
        for p in range(report.spec.processes)
    )
    lines.append(f"delivered: {delivered}")
    return "\n".join(lines) + "\n"
