"""Slot semantics: how listeners learn packets, how schedules are checked,
and the trace file format.

A trace records one action per process per slot plus the knowledge grid
that results (who holds which packet at each time index). Learning follows
the shared-channel rule: a listener gains packet k in a slot exactly when
the whole network has a single transmitter, that transmitter is audible to
the listener, and it is sending packet k. A garbage transmission occupies
the channel (it counts toward the single-transmitter test) but delivers
nothing, and nothing once learned is ever lost. step_knowledge is the one
place this rule is written; learning_rule decides, for the search, the
oracle and the validator alike, what dropping R7 or TOPO does to it.

The validator here is the package's independent referee: it re-derives
everything from first principles and never calls into the search engine,
so solver results can be checked against it.

Trace files are JSON with fields in fixed order: ``spec`` (the embedded
problem, same keys as the problem file format), ``actions`` (T rows of P
strings: "sleep" | "listen" | "tx:<code>"), and ``knowledge`` ((T+1) x P x
M booleans). A knowledge field is optional on read; when present it is
compared against the grid re-derived from the actions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .actions import Action, ActionFormatError, ActionKind, parse_action
from .model import (
    NetworkSpec,
    RequirementLabel,
    SpecError,
    Topology,
    requirement_families,
    spec_as_dict,
    spec_from_dict,
    topology_all,
)

KnowledgeRow = tuple[tuple[bool, ...], ...]
KnowledgeGrid = tuple[KnowledgeRow, ...]


class TraceFormatError(ValueError):
    """A trace document that cannot be decoded into a consistent trace."""


def initial_knowledge(spec: NetworkSpec) -> KnowledgeRow:
    """Time-0 knowledge: the source holds every packet, nobody else holds any."""
    return tuple(
        tuple(p == spec.source for _ in range(spec.packets))
        for p in range(spec.processes)
    )


def step_knowledge(
    now: KnowledgeRow,
    acts: Sequence[Action],
    topology: Topology,
    carrier_sense: bool = False,
) -> KnowledgeRow:
    """One slot of the learning rule; the only place a listener gains a packet.

    A listener gains packet k when exactly one transmitter contends for its
    ear, that transmitter is audible to it, and it is sending packet k. On
    the shared channel every transmitter in the network contends; with
    carrier_sense only the ones the listener can hear do, so traffic it
    cannot hear does not jam it. Garbage occupies the channel but delivers
    nothing. Knowledge never shrinks.
    """
    transmitters = [p for p, act in enumerate(acts) if act.is_transmit]
    if not transmitters or (len(transmitters) > 1 and not carrier_sense):
        return now  # silence, or a collision on the shared channel
    nxt = []
    for p, row in enumerate(now):
        if acts[p].kind is ActionKind.LISTEN:
            heard = [s for s in transmitters if (p, s) in topology.hears]
            if len(heard) == 1:
                packet = acts[heard[0]].packet
                if packet is not None and packet <= len(row):
                    row = row[: packet - 1] + (True,) + row[packet:]
        nxt.append(row)
    return tuple(nxt)


def learning_rule(
    spec: NetworkSpec, enabled: Iterable[RequirementLabel] | None = None
) -> Callable[[KnowledgeRow, Sequence[Action]], KnowledgeRow]:
    """The slot transition that the enabled requirement families imply.

    With R7 enabled, listeners learn by step_knowledge over the spec's hears
    relation, or over the complete graph when TOPO is dropped. With R7
    dropped nothing limits learning, so every process holds every packet
    after any slot.
    """
    enabled = _enabled_set(enabled)
    if RequirementLabel.R7_COLLISION_FREE_LEARNING not in enabled:
        everything = tuple(
            tuple(True for _ in range(spec.packets)) for _ in range(spec.processes)
        )
        return lambda now, acts: everything
    return partial(step_knowledge, topology=learning_topology(spec, enabled))


def learning_topology(
    spec: NetworkSpec, enabled: frozenset[RequirementLabel]
) -> Topology:
    """Who can hear whom under the learning rule: the spec's hears relation,
    or the complete graph when TOPO is dropped."""
    if RequirementLabel.TOPO_HEARS_RELATION not in enabled:
        return topology_all(spec.processes)
    return spec.topology


def derive_knowledge(
    spec: NetworkSpec,
    actions: Sequence[Sequence[Action]],
    enabled: Iterable[RequirementLabel] | None = None,
) -> KnowledgeGrid:
    """Folds the learning rule over the whole schedule, giving T+1 rows."""
    learn = learning_rule(spec, enabled)
    rows = [initial_knowledge(spec)]
    for acts in actions:
        rows.append(learn(rows[-1], acts))
    return tuple(rows)


def all_known(row: KnowledgeRow) -> bool:
    return all(all(packets) for packets in row)


@dataclass(frozen=True)
class ProtocolTrace:
    spec: NetworkSpec
    actions: tuple[tuple[Action, ...], ...]
    knowledge: KnowledgeGrid

    def __post_init__(self) -> None:
        spec = self.spec
        if len(self.actions) != spec.horizon:
            raise TraceFormatError(
                f"dimension mismatch: {len(self.actions)} action rows for horizon {spec.horizon}"
            )
        _check_row_widths(spec, self.actions)
        if len(self.knowledge) != spec.horizon + 1:
            raise TraceFormatError(
                f"dimension mismatch: {len(self.knowledge)} knowledge rows for horizon {spec.horizon}"
            )
        for t, krow in enumerate(self.knowledge):
            if len(krow) != spec.processes or any(
                len(packets) != spec.packets for packets in krow
            ):
                raise TraceFormatError(f"dimension mismatch in knowledge row t={t}")

    @classmethod
    def from_actions(
        cls,
        spec: NetworkSpec,
        actions: Sequence[Sequence[Action]],
        enabled: Iterable[RequirementLabel] | None = None,
    ) -> "ProtocolTrace":
        frozen = tuple(tuple(row) for row in actions)
        _check_row_widths(spec, frozen)  # before the learning rule indexes them
        return cls(spec, frozen, derive_knowledge(spec, frozen, enabled))


def _check_row_widths(spec: NetworkSpec, actions: Sequence[Sequence[Action]]) -> None:
    for t, row in enumerate(actions):
        if len(row) != spec.processes:
            raise TraceFormatError(
                f"dimension mismatch: {len(row)} actions at t={t} for {spec.processes} processes"
            )


@dataclass(frozen=True)
class Violation:
    label: RequirementLabel
    time: int | None
    process: int | None
    detail: str


def validate(
    trace: ProtocolTrace, enabled: Iterable[RequirementLabel] | None = None
) -> list[Violation]:
    """Exhaustively checks every enabled requirement; empty list means clean."""
    return list(_violations(trace, _enabled_set(enabled)))


def satisfies(
    trace: ProtocolTrace, enabled: Iterable[RequirementLabel] | None = None
) -> bool:
    """Short-circuit form of validate for bulk enumeration."""
    return next(_violations(trace, _enabled_set(enabled)), None) is None


def _enabled_set(
    enabled: Iterable[RequirementLabel] | None,
) -> frozenset[RequirementLabel]:
    if enabled is None:
        return frozenset(RequirementLabel)
    return frozenset(enabled)


def _violations(
    trace: ProtocolTrace, enabled: frozenset[RequirementLabel]
) -> Iterator[Violation]:
    spec = trace.spec
    packets = spec.packets
    acts = trace.actions
    grid = trace.knowledge
    L = RequirementLabel
    enabled &= requirement_families(spec)

    if L.R1_EXACTLY_ONE_ACTION in enabled:
        for t, row in enumerate(acts):
            for p, act in enumerate(row):
                ok = isinstance(act, Action) and act.kind in ActionKind
                if ok and act.kind is ActionKind.TRANSMIT:
                    ok = isinstance(act.content, int) and act.content >= 0
                elif ok:
                    ok = act.content is None
                if not ok:
                    yield Violation(
                        L.R1_EXACTLY_ONE_ACTION, t, p,
                        f"cell does not hold exactly one well-formed action: {act!r}",
                    )

    if L.R2_CONTENT_DOMAIN in enabled:
        for t, row in enumerate(acts):
            for p, act in enumerate(row):
                if act.is_transmit and act.content > packets:
                    yield Violation(
                        L.R2_CONTENT_DOMAIN, t, p,
                        f"content code {act.content} outside 0..{packets}",
                    )

    if L.R3_LIVENESS in enabled:
        for p in range(spec.processes):
            done = {row[p].kind for row in acts}
            for kind in ActionKind:
                if kind not in done:
                    yield Violation(
                        L.R3_LIVENESS, None, p,
                        f"process {p} never performs {kind.value} within the horizon",
                    )

    if L.R4_INITIAL_KNOWLEDGE in enabled:
        expected0 = initial_knowledge(spec)
        for p in range(spec.processes):
            wrong = [k for k in range(1, packets + 1) if grid[0][p][k - 1] != expected0[p][k - 1]]
            if wrong:
                role = "source" if p == spec.source else "non-source"
                yield Violation(
                    L.R4_INITIAL_KNOWLEDGE, 0, p,
                    f"initial knowledge of {role} process {p} is wrong for packet(s) {wrong}",
                )

    if L.R5_TRANSMIT_ONLY_KNOWN in enabled:
        for t, row in enumerate(acts):
            for p, act in enumerate(row):
                k = act.packet
                if k is not None and k <= packets and not grid[t][p][k - 1]:
                    yield Violation(
                        L.R5_TRANSMIT_ONLY_KNOWN, t, p,
                        f"process {p} transmits packet {k} at t={t} without knowing it",
                    )

    if L.R6_NEVER_FORGETS in enabled:
        for t in range(spec.horizon):
            for p in range(spec.processes):
                forgotten = [
                    k for k in range(1, packets + 1)
                    if grid[t][p][k - 1] and not grid[t + 1][p][k - 1]
                ]
                if forgotten:
                    yield Violation(
                        L.R6_NEVER_FORGETS, t, p,
                        f"process {p} forgets packet(s) {forgotten} between t={t} and t={t + 1}",
                    )

    if L.R7_COLLISION_FREE_LEARNING in enabled:
        # Audibility folds into the learning test; dropping TOPO lifts it.
        learn = learning_rule(spec, enabled)
        for t in range(spec.horizon):
            expected = learn(grid[t], acts[t])
            for p in range(spec.processes):
                illegal = [
                    k for k in range(1, packets + 1)
                    if grid[t + 1][p][k - 1]
                    and not grid[t][p][k - 1]
                    and not expected[p][k - 1]
                ]
                missed = [
                    k for k in range(1, packets + 1)
                    if expected[p][k - 1]
                    and not grid[t][p][k - 1]
                    and not grid[t + 1][p][k - 1]
                ]
                if illegal:
                    yield Violation(
                        L.R7_COLLISION_FREE_LEARNING, t, p,
                        f"process {p} gains packet(s) {illegal} at t={t + 1} without a "
                        "collision-free audible transmission",
                    )
                if missed:
                    yield Violation(
                        L.R7_COLLISION_FREE_LEARNING, t, p,
                        f"process {p} fails to record packet(s) {missed} it legally hears at t={t}",
                    )

    if L.GOAL_DEADLINE in enabled:
        final = grid[spec.horizon]
        for p in range(spec.processes):
            missing = [k for k in range(1, packets + 1) if not final[p][k - 1]]
            if missing:
                yield Violation(
                    L.GOAL_DEADLINE, spec.horizon, p,
                    f"process {p} misses packet(s) {missing} at the deadline t={spec.horizon}",
                )


def write_trace(trace: ProtocolTrace) -> str:
    """Deterministic JSON form; field order spec, actions, knowledge. The
    spec takes one line, each slot's actions and each time index's
    knowledge one line apiece."""

    def rows(values: list) -> str:
        if not values:
            return "[]"
        return "[\n" + ",\n".join(f"    {json.dumps(v)}" for v in values) + "\n  ]"

    actions = [[act.label for act in row] for row in trace.actions]
    knowledge = [[list(packets) for packets in row] for row in trace.knowledge]
    return (
        f'{{\n  "spec": {json.dumps(spec_as_dict(trace.spec))},\n'
        f'  "actions": {rows(actions)},\n'
        f'  "knowledge": {rows(knowledge)}\n}}\n'
    )


def read_trace(text: str) -> ProtocolTrace:
    """Inverse of write_trace. Knowledge, when present, must match the grid
    re-derived from the actions; anything else is a TraceFormatError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise TraceFormatError("trace document must be a JSON object")
    unknown = sorted(set(obj) - {"spec", "actions", "knowledge"})
    if unknown:
        raise TraceFormatError(f"unknown trace fields: {', '.join(unknown)}")
    for required in ("spec", "actions"):
        if required not in obj:
            raise TraceFormatError(f"missing trace field: {required}")
    try:
        spec = spec_from_dict(obj["spec"])
    except SpecError as exc:
        raise TraceFormatError(f"embedded spec: {exc}") from None

    rows = obj["actions"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise TraceFormatError("actions must be a list of per-slot lists")
    actions = []
    for t, row in enumerate(rows):
        parsed = []
        for p, label in enumerate(row):
            if not isinstance(label, str):
                raise TraceFormatError(f"actions[{t}][{p}] must be a string")
            try:
                parsed.append(parse_action(label, spec.packets))
            except ActionFormatError as exc:
                raise TraceFormatError(f"actions[{t}][{p}]: {exc}") from None
        actions.append(parsed)
    trace = ProtocolTrace.from_actions(spec, actions)

    if "knowledge" in obj:
        given = obj["knowledge"]
        shape_ok = (
            isinstance(given, list)
            and len(given) == spec.horizon + 1
            and all(
                isinstance(row, list)
                and len(row) == spec.processes
                and all(
                    isinstance(packets, list)
                    and len(packets) == spec.packets
                    and all(isinstance(v, bool) for v in packets)
                    for packets in row
                )
                for row in given
            )
        )
        if not shape_ok:
            raise TraceFormatError("knowledge grid malformed")
        for t, row in enumerate(given):
            for p, packets in enumerate(row):
                if tuple(packets) != trace.knowledge[t][p]:
                    raise TraceFormatError(
                        f"knowledge grid mismatch at t={t}, p={p}: file disagrees "
                        "with the grid derived from the actions"
                    )
    return trace
