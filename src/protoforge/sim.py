"""Slotted-channel execution: replay synthesized schedules, run the
always-on reference policy, and compare power use.

Power accounting charges active_cost for each transmitting or listening
cell and nothing for a sleeping one. Completion means the whole network
holds every packet. A report derives its total power and whether it
completed from its per-process power and completion slot.

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
that round's period. Its report is that of stepping every node in every
slot. A node listens until the slot at which it joins the full set and
sends packet t % M + 1 at every slot t from then on, so the run returns
those join slots, not an action log.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import and_, attrgetter

from .actions import ActionKind
from .model import NetworkSpec, Record, RequirementLabel, TAXONOMY, set_bits, spec_as_dict
from .trace import (
    KnowledgeRow,
    ProtocolTrace,
    Violation,
    all_known,
    deliver,
    initial_knowledge,
    knowledge_table,
    per_distinct,
    validate,
)

# Physical realizability only: delivery deadlines and liveness are outcomes
# a simulation reports, not preconditions for running one.
GUARD_LABELS = frozenset(TAXONOMY) - {RequirementLabel.GOAL_DEADLINE, RequirementLabel.R3_LIVENESS}


class SimulationGuardError(ValueError):
    def __init__(self, violations: list[Violation]) -> None:
        summary = "; ".join(
            f"{v.label.value} at t={v.time}, p={v.process}" for v in violations[:5]
        )
        super().__init__(f"trace is not physically consistent: {summary}")
        self.violations = tuple(violations)


class PowerModel(Record):
    """Per-slot unit cost of transmitting or listening; sleeping is free."""

    __slots__ = ("active_cost",)

    def __init__(self, active_cost: int = 1) -> None:
        if active_cost < 0:
            raise ValueError("power costs must be >= 0")
        self._store(active_cost)


class SimReport(Record):
    __slots__ = (
        "spec", "power", "slots_run", "delivered", "per_process_power", "concurrent_tx_slots",
        "completion_slot",
    )

    def __init__(
        self, spec: NetworkSpec, power: PowerModel, slots_run: int, delivered: KnowledgeRow,
        per_process_power: tuple[int, ...], concurrent_tx_slots: int, completion_slot: int | None,
    ) -> None:
        self._store(spec, power, slots_run, delivered, per_process_power, concurrent_tx_slots,
                    completion_slot)

    @property
    def total_power(self) -> int:
        return sum(self.per_process_power)

    @property
    def completed(self) -> bool:
        return self.completion_slot is not None


def simulate_trace(trace: ProtocolTrace, power: PowerModel | None = None) -> SimReport:
    """Replays a schedule slot by slot under the whole-channel learning rule;
    a clean guard check proves the trace's knowledge grid is that rule's."""
    power = power or PowerModel()
    bad = validate(trace, GUARD_LABELS)
    if bad:
        raise SimulationGuardError(bad)
    spec, T, grid = trace.spec, trace.spec.horizon, trace.knowledge
    kinds = per_distinct(lambda row: list(map(attrgetter("kind"), row)), trace.actions)
    asleep = [column.count(ActionKind.SLEEP) for column in zip(*kinds)] or [0] * spec.processes
    per = tuple(power.active_cost * (T - n) for n in asleep)
    concurrent = sum(row.count(ActionKind.TRANSMIT) >= 2 for row in kinds)
    done = next((t for t, row in enumerate(grid) if all_known(row, spec.processes)), None)
    return SimReport(spec, power, T, grid[-1], per, concurrent, done)


def default_max_slots(spec: NetworkSpec) -> int:
    """Generous allowance: relaying one packet at a time across a chain."""
    return 2 * spec.processes * max(spec.packets, 1) + 2


def run_baseline(
    spec: NetworkSpec,
    power: PowerModel | None = None,
    max_slots: int | None = None,
) -> tuple[list[int | None], SimReport]:
    """Runs the always-on policy until completion or max_slots, a round of
    M slots at a time (see the module docstring).

    Returns each process's join slot, the slot from which it holds all M
    packets and sends packet t % M + 1 at every slot t, or None if it never
    does, together with the usual report. The report keeps the caller's
    spec so it can be compared against a synthesized run.
    """
    power = power or PowerModel()
    if max_slots is None:
        max_slots = default_max_slots(spec)
    if max_slots < 0:
        raise ValueError("max_slots must be >= 0")
    P, M = spec.processes, spec.packets
    everyone = (1 << P) - 1
    audience = spec.audience
    know = initial_knowledge(spec)  # the knowledge row at slot t
    joins: list[int | None] = [None] * P
    t = concurrent = 0
    full = heard = jam = 0  # the full set, the union of its audiences, its jam mask
    while True:  # a round per pass, as processes join only between rounds
        joined = reduce(and_, know, everyone)
        for p in set_bits(joined & ~full):
            jam |= heard & audience[p]
            heard |= audience[p]
            joins[p] = t
        full = joined
        if full == everyone or t == max_slots:
            break
        # the full set sends as one speaker, 0: one call gives all M packets' new holders
        change = deliver((full,), everyone & ~full & ~jam, [(0, 1)], (heard,))
        if change:  # each of the round's slots gives its packet the new holders
            slots = min(M, max_slots - t)
            know = (change[1],) * slots + know[slots:]
        else:  # a fixed point: the round's period fills the slots left
            slots = max_slots - t
        t += slots
        concurrent += slots * (full & (full - 1) != 0)  # two or more senders
    per = (t * power.active_cost,) * P  # every always-on cell is active
    report = SimReport(spec, power, t, know, per, concurrent, t if full == everyone else None)
    return joins, report


def compare(synthesized: SimReport, baseline: SimReport) -> dict:
    """The verdict on two reports of one spec and power model: which used
    less power, and whether each had concurrent transmissions."""
    if synthesized.spec != baseline.spec:
        raise ValueError("reports come from different specs")
    if synthesized.power != baseline.power:
        raise ValueError("reports use different power models")
    synth, base = synthesized.total_power, baseline.total_power
    return {
        "lower_power": "synthesized" if synth < base else "baseline" if base < synth else "tie",
        "collision_detection_needed": {
            "synthesized": synthesized.concurrent_tx_slots > 0,
            "baseline": baseline.concurrent_tx_slots > 0,
        },
    }


def render_comparison(synthesized: SimReport, baseline: SimReport) -> str:
    """The two reports side by side, then compare's verdict in words."""
    verdict, reports = compare(synthesized, baseline), (synthesized, baseline)
    csma = ["required" if needed else "not required"
            for needed in verdict["collision_detection_needed"].values()]
    rows = [
        ("metric", "synthesized", "baseline"),
        ("slots run", *(str(r.slots_run) for r in reports)),
        ("total power (pw)", *(str(r.total_power) for r in reports)),
        ("concurrent tx slots", *(str(r.concurrent_tx_slots) for r in reports)),
        ("collision detection", *csma),
        ("completed", *(f"yes (slot {r.completion_slot})" if r.completed else "no"
                        for r in reports)),
    ]
    widths = [max(len(row[col]) for row in rows) for col in range(3)]
    lines = [
        "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    lower = verdict["lower_power"]
    lines.append(f"power: synthesized {synthesized.total_power} pw, baseline "
                 f"{baseline.total_power} pw ({lower if lower == 'tie' else lower + ' lower'})")
    lines.append(f"collision detection: synthesized {csma[0]}, baseline {csma[1]}")
    return "\n".join(lines) + "\n"


def report_as_dict(report: SimReport) -> dict:
    return {
        "spec": spec_as_dict(report.spec),
        "power": {
            "active_cost": report.power.active_cost,
            "idle_cost": 0,  # sleeping is free; the key keeps --json output unchanged
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
    """The report as the CLI prints it. Each process's delivered count sums,
    over the distinct holder masks of the last knowledge row, the packets of
    each mask that names it: work per distinct mask and set bit, not per
    process and mask."""
    lines = [
        f"slots run: {report.slots_run}",
        f"total power: {report.total_power} pw",
        "per-process power: " + " ".join(map(str, report.per_process_power)),
        f"concurrent tx slots: {report.concurrent_tx_slots}",
    ]
    if report.completed:
        lines.append(f"completed: yes (slot {report.completion_slot})")
    else:
        lines.append("completed: no")
    held = [0] * report.spec.processes  # per process, the packets it holds
    for mask, n in Counter(report.delivered).items():  # n packets have this holder mask
        for p in set_bits(mask):
            held[p] += n
    M = report.spec.packets
    delivered = " ".join(f"p{p}:{n}/{M}" for p, n in enumerate(held))
    lines.append(f"delivered: {delivered}")
    return "\n".join(lines) + "\n"
