"""Slotted-channel execution: replay synthesized schedules, run the
always-on reference policy, and compare power use.

Power accounting charges active_cost for every transmitting or listening
cell and idle_cost for every sleeping cell. Completion means the whole
network holds every packet.

The reference policy never sleeps: a node that holds all M packets
broadcasts them in id order, one per slot, wrapping around; every other
node listens. Its radios are carrier-sense: a listener is jammed only when
two or more of the speakers it can actually hear transmit at once, so
simultaneous traffic elsewhere does not block it. Synthesized schedules
are replayed under the stricter whole-channel rule, which is why the
comparison tracks slots with concurrent transmissions: any such slot means
the schedule leans on collision handling rather than silence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .actions import Action, LISTEN, action_domain
from .model import NetworkSpec, RequirementLabel, spec_as_dict
from .trace import (
    KnowledgeRow,
    ProtocolTrace,
    Violation,
    all_known,
    audiences,
    initial_knowledge,
    knowledge_table,
    step_knowledge,
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


def _report(
    spec: NetworkSpec,
    power: PowerModel,
    actions: tuple[tuple[Action, ...], ...],
    grid,
) -> SimReport:
    per = [0] * spec.processes
    concurrent = 0
    for row in actions:
        if sum(1 for act in row if act.is_transmit) >= 2:
            concurrent += 1
        for p, act in enumerate(row):
            per[p] += power.active_cost if act.is_active else power.idle_cost
    completion = next((t for t, row in enumerate(grid) if all_known(row, spec.processes)), None)
    return SimReport(
        spec=spec,
        power=power,
        slots_run=len(actions),
        delivered=grid[-1],
        per_process_power=tuple(per),
        total_power=sum(per),
        concurrent_tx_slots=concurrent,
        completed=completion is not None,
        completion_slot=completion,
    )


def simulate_trace(trace: ProtocolTrace, power: PowerModel | None = None) -> SimReport:
    """Replays a schedule slot by slot under the whole-channel learning rule;
    a clean guard check proves the trace's knowledge grid is that rule's."""
    power = power or PowerModel()
    bad = validate(trace, GUARD_LABELS)
    if bad:
        raise SimulationGuardError(bad)
    return _report(trace.spec, power, trace.actions, trace.knowledge)


def default_max_slots(spec: NetworkSpec) -> int:
    """Generous allowance: relaying one packet at a time across a chain."""
    return 2 * spec.processes * max(spec.packets, 1) + 2


def run_baseline(
    spec: NetworkSpec,
    power: PowerModel | None = None,
    max_slots: int | None = None,
) -> tuple[ProtocolTrace, SimReport]:
    """Runs the always-on policy until completion or max_slots.

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
    sends = action_domain(M)[2:-1]  # packets 1..M
    audience = audiences(spec)
    know: list[KnowledgeRow] = [initial_knowledge(spec)]
    rows: list[tuple[Action, ...]] = []
    tx_count = [0] * P
    while not all_known(know[-1], P) and len(rows) < max_slots:
        full = -1  # the processes that hold every packet
        for holders in know[-1]:
            full &= holders
        acts = [LISTEN] * P
        for p in range(P):
            if full >> p & 1:
                acts[p] = sends[tx_count[p] % M]
                tx_count[p] += 1
        know.append(step_knowledge(know[-1], acts, audience, carrier_sense=True))
        rows.append(tuple(acts))
    trace = ProtocolTrace(
        replace(spec, horizon=len(rows)), tuple(rows), tuple(know)
    )
    return trace, _report(spec, power, trace.actions, trace.knowledge)


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
    held = knowledge_table(report.delivered, report.spec.processes)
    delivered = " ".join(
        f"p{p}:{sum(row)}/{report.spec.packets}" for p, row in enumerate(held)
    )
    lines.append(f"delivered: {delivered}")
    return "\n".join(lines) + "\n"
