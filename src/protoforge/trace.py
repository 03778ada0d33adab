"""Slot semantics: how listeners learn packets, how schedules are checked,
and the trace file format.

A trace records one action per process per slot plus the knowledge that
results: a holder bitmask per packet and time index, so process p holds
packet k at time t when ``knowledge[t][k - 1] >> p & 1``. Learning follows
the shared-channel rule: a listener gains packet k in a slot exactly when
the whole network has a single transmitter, that transmitter is audible to
the listener, and it is sending packet k. A garbage transmission occupies
the channel (it counts toward the single-transmitter test) but delivers
nothing, and nothing once learned is ever lost. deliver is the one place
this rule is written, over a listening mask, the sends, and the listener
bitmasks that audiences gives per speaker; step_knowledge applies it to a
row of actions. learning_rule and audiences decide, for the search, the
oracle and the validator alike, what dropping R7 or TOPO does to it.

The validator here is the package's independent referee: it re-derives
everything from first principles and never calls into the search engine,
so solver results can be checked against it.

Trace files are JSON with fields in fixed order: ``spec`` (the embedded
problem, same keys as the problem file format), ``actions`` (T rows of P
strings: "sleep" | "listen" | "tx:<code>"), and ``knowledge`` ((T+1) x P x
M booleans, from knowledge_table). A knowledge field is optional on read;
when present it is compared against the grid re-derived from the actions.
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
    requirement_families,
    spec_as_dict,
    spec_from_dict,
)

KnowledgeRow = tuple[int, ...]  # one holder bitmask per packet
KnowledgeGrid = tuple[KnowledgeRow, ...]


class TraceFormatError(ValueError):
    """A trace document that cannot be decoded into a consistent trace."""


def initial_knowledge(spec: NetworkSpec) -> KnowledgeRow:
    """Time-0 knowledge: the source holds every packet, nobody else holds any."""
    return (1 << spec.source,) * spec.packets


def audiences(
    spec: NetworkSpec, enabled: Iterable[RequirementLabel] | None = None
) -> tuple[int, ...]:
    """One listener bitmask per speaker under the learning rule: the spec's
    hears relation, or everyone else when TOPO is dropped."""
    P = spec.processes
    if RequirementLabel.TOPO_HEARS_RELATION not in _enabled_set(enabled):
        return tuple(((1 << P) - 1) ^ (1 << s) for s in range(P))
    audience = [0] * P
    for listener, speaker in spec.topology.hears:
        audience[speaker] |= 1 << listener
    return tuple(audience)


def step_knowledge(
    now: KnowledgeRow,
    acts: Sequence[Action],
    audience: Sequence[int],
    carrier_sense: bool = False,
) -> KnowledgeRow:
    """One slot of the learning rule over a row of actions: decodes the row
    into the listening mask and the sends, and hands them to deliver."""
    listening = 0
    sends = []
    for p, act in enumerate(acts):
        if act.kind is ActionKind.LISTEN:
            listening |= 1 << p
        elif act.kind is ActionKind.TRANSMIT:
            sends.append((p, act.packet))
    return deliver(now, listening, sends, audience, carrier_sense)


def deliver(
    now: KnowledgeRow,
    listening: int,
    sends: Sequence[tuple[int, int | None]],
    audience: Sequence[int],
    carrier_sense: bool = False,
) -> KnowledgeRow:
    """The learning rule's mask-level core; the only place a listener gains
    a packet. `sends` holds a (speaker, packet) pair per transmitter, packet
    None for garbage.

    A listener gains packet k when it hears a transmitter sending k and is
    not jammed, that is, no two transmitters that contend for its ear both
    send. On the shared channel every transmitter contends for every ear;
    with carrier_sense only its audience, so traffic a listener cannot hear
    does not jam it. Garbage occupies the channel but delivers nothing.
    Knowledge never shrinks.
    """
    once = jammed = 0
    for s, _ in sends:
        contends = audience[s] if carrier_sense else -1  # -1: every process
        jammed |= once & contends
        once |= contends
    ears = listening & ~jammed
    nxt = list(now)
    for s, packet in sends:
        if packet is not None and packet <= len(nxt):
            nxt[packet - 1] |= audience[s] & ears
    return tuple(nxt)


def learning_rule(
    spec: NetworkSpec, enabled: Iterable[RequirementLabel] | None = None
) -> Callable[[KnowledgeRow, Sequence[Action]], KnowledgeRow]:
    """The slot transition that the enabled requirement families imply.

    With R7 enabled, listeners learn by step_knowledge over the audiences
    the enabled families imply. With R7 dropped nothing limits learning, so
    every process holds every packet after any slot.
    """
    enabled = _enabled_set(enabled)
    if RequirementLabel.R7_COLLISION_FREE_LEARNING not in enabled:
        everything = ((1 << spec.processes) - 1,) * spec.packets
        return lambda now, acts: everything
    return partial(step_knowledge, audience=audiences(spec, enabled))


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


def all_known(row: KnowledgeRow, processes: int) -> bool:
    everyone = (1 << processes) - 1
    return all(holders == everyone for holders in row)


def knowledge_table(row: KnowledgeRow, processes: int) -> list[list[bool]]:
    """A knowledge row as the file and JSON forms hold it: entry [p][k - 1]
    tells whether process p holds packet k."""
    if not row:
        return [[] for _ in range(processes)]
    # each packet's holders as P booleans, process 0 first, then transposed
    bit = {"0": False, "1": True}
    columns = [map(bit.__getitem__, f"{holders:0{processes}b}"[::-1]) for holders in row]
    return list(map(list, zip(*columns)))


@dataclass(frozen=True)
class ProtocolTrace:
    spec: NetworkSpec
    actions: tuple[tuple[Action, ...], ...]
    knowledge: KnowledgeGrid

    def __post_init__(self) -> None:
        spec = self.spec
        _check_row_count(spec, self.actions)
        _check_row_widths(spec, self.actions)
        if len(self.knowledge) != spec.horizon + 1:
            raise TraceFormatError(
                f"dimension mismatch: {len(self.knowledge)} knowledge rows for horizon {spec.horizon}"
            )
        for t, krow in enumerate(self.knowledge):
            if len(krow) != spec.packets or any(holders >> spec.processes for holders in krow):
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


def _check_row_count(spec: NetworkSpec, actions: Sequence[Sequence[Action]]) -> None:
    if len(actions) != spec.horizon:
        raise TraceFormatError(
            f"dimension mismatch: {len(actions)} action rows for horizon {spec.horizon}"
        )


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
        wrong = [have ^ want for have, want in zip(grid[0], initial_knowledge(spec))]
        for p, mistaken in _by_process(wrong):
            role = "source" if p == spec.source else "non-source"
            yield Violation(
                L.R4_INITIAL_KNOWLEDGE, 0, p,
                f"initial knowledge of {role} process {p} is wrong for packet(s) {mistaken}",
            )

    if L.R5_TRANSMIT_ONLY_KNOWN in enabled:
        for t, row in enumerate(acts):
            for p, act in enumerate(row):
                k = act.packet
                if k is not None and k <= packets and not grid[t][k - 1] >> p & 1:
                    yield Violation(
                        L.R5_TRANSMIT_ONLY_KNOWN, t, p,
                        f"process {p} transmits packet {k} at t={t} without knowing it",
                    )

    if L.R6_NEVER_FORGETS in enabled:
        for t in range(spec.horizon):
            lost = [was & ~now for was, now in zip(grid[t], grid[t + 1])]
            for p, forgotten in _by_process(lost):
                yield Violation(
                    L.R6_NEVER_FORGETS, t, p,
                    f"process {p} forgets packet(s) {forgotten} between t={t} and t={t + 1}",
                )

    if L.R7_COLLISION_FREE_LEARNING in enabled:
        # Audibility folds into the learning test; dropping TOPO lifts it.
        learn = learning_rule(spec, enabled)
        for t in range(spec.horizon):
            expected = learn(grid[t], acts[t])
            before, after = grid[t], grid[t + 1]
            gained = [now & ~was & ~legal for was, now, legal in zip(before, after, expected)]
            dropped = [legal & ~was & ~now for was, now, legal in zip(before, after, expected)]
            for p, illegal, missed in _by_process(gained, dropped):
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
        everyone = (1 << spec.processes) - 1
        lacking = [everyone & ~holders for holders in grid[spec.horizon]]
        for p, missing in _by_process(lacking):
            yield Violation(
                L.GOAL_DEADLINE, spec.horizon, p,
                f"process {p} misses packet(s) {missing} at the deadline t={spec.horizon}",
            )


def _by_process(*families: Sequence[int]) -> Iterator[tuple]:
    """For each process that some mask names, in id order: the process and,
    per family of per-packet masks, the packets whose mask has its bit."""
    union = 0
    for masks in families:
        for mask in masks:
            union |= mask
    for p in range(union.bit_length()):
        if union >> p & 1:
            yield p, *([k for k, m in enumerate(masks, 1) if m >> p & 1] for masks in families)


def write_trace(trace: ProtocolTrace) -> str:
    """Deterministic JSON form; field order spec, actions, knowledge. The
    spec takes one line, each slot's actions and each time index's
    knowledge one line apiece."""

    def rows(values: list) -> str:
        if not values:
            return "[]"
        return "[\n" + ",\n".join(f"    {json.dumps(v)}" for v in values) + "\n  ]"

    actions = [[act.label for act in row] for row in trace.actions]
    P = trace.spec.processes
    knowledge = [knowledge_table(row, P) for row in trace.knowledge]
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
    except RecursionError:
        raise TraceFormatError("not valid JSON: nested too deeply") from None
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
    # The checks from_actions would make, in its order, then the file's grid
    # against its (T+1, P, M) shape: knowledge is derived, at a cost that
    # grows with M, only for a grid the file actually spells out.
    _check_row_widths(spec, actions)
    _check_row_count(spec, actions)
    shape = (spec.horizon + 1, spec.processes, spec.packets)
    if "knowledge" in obj and not _shaped(obj["knowledge"], shape):
        raise TraceFormatError("knowledge grid malformed")
    trace = ProtocolTrace.from_actions(spec, actions)

    if "knowledge" in obj:
        for t, (row, masks) in enumerate(zip(obj["knowledge"], trace.knowledge)):
            for p, (packets, held) in enumerate(zip(row, knowledge_table(masks, spec.processes))):
                if packets != held:
                    raise TraceFormatError(
                        f"knowledge grid mismatch at t={t}, p={p}: file disagrees "
                        "with the grid derived from the actions"
                    )
    return trace


def _shaped(value: object, shape: tuple[int, ...]) -> bool:
    """Whether `value` nests lists of exactly these lengths, booleans at its leaves."""
    if not isinstance(value, list) or len(value) != shape[0]:
        return False
    if len(shape) == 1:
        return all(isinstance(v, bool) for v in value)
    return all(_shaped(v, shape[1:]) for v in value)
