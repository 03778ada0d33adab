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
bitmasks that audiences gives per speaker. Its callers build that mask
and those sends themselves: derive_knowledge and the validator decode each
row of actions, and the search keeps them per cell. derive_knowledge
folds the rule of the full system; audiences decides what dropping TOPO
does to it, and the search what dropping R7 does. Carrier sense, the
always-on baseline's radio model, belongs to sim, which hands deliver
only the listeners no two audible senders block.

A trace stores its knowledge as the initial row plus, per slot, a tuple of
changes, each a packet and its new mask: at most one for every grid the
learning rule derives. No producer in the package diffs rows: from_rows is
for a grid given as rows, and finds any number of changes in a slot. The
(T+1)-row view is built on first read and kept.

The validator here is the package's independent referee: it re-derives
everything from first principles and never calls into the search engine,
so solver results can be checked against it.

Trace files are JSON with fields in fixed order: ``spec`` (the embedded
problem, same keys as the problem file format), ``actions`` (T rows of P
strings: "sleep" | "listen" | "tx:<code>"), and ``knowledge`` ((T+1) x P x
M booleans, from knowledge_table). A knowledge field is optional on read;
when present it is compared against the grid re-derived from the actions.

The layer works per distinct value rather than per cell: read_trace parses
each distinct label once, so equal cells share one Action object; the
validator checks each distinct cell object once and decodes each action row
once; and each distinct knowledge row is tabulated once, by write_trace to
render it and by read_trace to compare the file's rows against it. Action
shape checks run as whole-grid passes, and walk row by row only to name
the first bad row; knowledge is checked once per change. Violation
messages list at most MAX_LISTED packet numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from collections import Counter
from functools import cached_property, reduce
from itertools import accumulate, chain, islice, repeat
from operator import attrgetter, or_
from typing import Callable, Iterable, Iterator, Sequence

from .actions import Action, ActionFormatError, ActionKind, parse_action
from .model import (
    NetworkSpec,
    RequirementLabel,
    SpecError,
    requirement_families,
    set_bits,
    spec_as_dict,
    spec_from_dict,
)

KnowledgeRow = tuple[int, ...]  # one holder bitmask per packet
Change = tuple[int, int]  # a packet and its new holder mask
Changes = tuple[tuple[Change, ...], ...]  # per slot, packets ascending

# Violation messages list at most this many packet numbers, then the count.
MAX_LISTED = 10

# Looked up once: reading an Enum member off its class is slow per cell.
_LISTENS, _SENDS = ActionKind.LISTEN, ActionKind.TRANSMIT
_kind = attrgetter("kind")


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
    if enabled is not None and RequirementLabel.TOPO_HEARS_RELATION not in enabled:
        return tuple(((1 << P) - 1) ^ (1 << s) for s in range(P))
    audience = spec.topology.audience
    return audience + (0,) * (P - len(audience))


def _decode(acts: Sequence[Action], kinds: Iterable[ActionKind | None]) -> tuple[int, list]:
    """A row's listening mask and its (speaker, packet) sends, given the kind
    of each of its cells (None for a cell that holds no action)."""
    listening = 0
    sends = []
    for p, kind in enumerate(kinds):
        if kind is _LISTENS:
            listening |= 1 << p
        elif kind is _SENDS:
            sends.append((p, acts[p].packet))
    return listening, sends


def deliver(
    now: Sequence[int],
    listening: int,
    sends: Sequence[tuple[int, int | None]],
    audience: Sequence[int],
) -> Change | None:
    """The learning rule's mask-level core; the only place a listener gains
    a packet. `sends` holds a (speaker, packet) pair per transmitter, packet
    None for garbage.

    The whole network shares one channel. A lone transmitter's packet
    reaches the listening processes in its audience; two or more
    transmitters deliver nothing, and garbage delivers nothing. Knowledge
    never shrinks. The result is the slot's one change to the row `now`,
    (packet, new holder mask), or None when nobody gains anything.
    """
    if len(sends) == 1:
        speaker, packet = sends[0]
        if packet is not None and packet <= len(now):
            if gained := audience[speaker] & listening & ~now[packet - 1]:
                return packet, now[packet - 1] | gained
    return None


def applied(row: KnowledgeRow, changes: tuple[Change, ...]) -> KnowledgeRow:
    """The row after a slot's changes; the row itself when there are none."""
    if not changes:
        return row
    nxt = list(row)
    for packet, holders in changes:
        nxt[packet - 1] = holders
    return tuple(nxt)


def derive_knowledge(spec: NetworkSpec, actions: Sequence[Sequence[Action]]) -> Changes:
    """Folds the learning rule over the whole schedule: each slot's changes."""
    audience = audiences(spec)
    row = list(initial_knowledge(spec))
    changes = []
    for acts in actions:
        if change := deliver(row, *_decode(acts, map(_kind, acts)), audience):
            row[change[0] - 1] = change[1]
        changes.append((change,) if change else ())
    return tuple(changes)


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
    initial: KnowledgeRow
    changes: Changes

    def __post_init__(self) -> None:
        spec = self.spec
        P, M, T = spec.processes, spec.packets, spec.horizon
        if (count := len(self.actions)) != T:
            raise TraceFormatError(f"dimension mismatch: {count} action rows for horizon {T}")
        _check_row_widths(spec, self.actions)
        if (count := len(self.changes) + 1) != T + 1:
            raise TraceFormatError(f"dimension mismatch: {count} knowledge rows for horizon {T}")
        if len(self.initial) != M or any(holders >> P for holders in set(self.initial)):
            raise TraceFormatError("dimension mismatch in knowledge row t=0")
        for t, slot in enumerate(self.changes, 1):
            for packet, holders in slot:
                if not 0 < packet <= M or holders >> P:
                    raise TraceFormatError(f"dimension mismatch in knowledge row t={t}")

    @cached_property
    def knowledge(self) -> tuple[KnowledgeRow, ...]:
        """The T+1 rows; a slot without changes shares the row before it."""
        return tuple(accumulate(self.changes, applied, initial=self.initial))

    @classmethod
    def from_actions(cls, spec: NetworkSpec, actions: Sequence[Sequence[Action]]) -> "ProtocolTrace":
        frozen = tuple(tuple(row) for row in actions)
        _check_row_widths(spec, frozen)  # before the learning rule indexes them
        return cls(spec, frozen, initial_knowledge(spec), derive_knowledge(spec, frozen))

    @classmethod
    def from_rows(cls, spec: NetworkSpec, actions: tuple, rows: Sequence) -> "ProtocolTrace":
        """A trace whose T+1 knowledge rows are diffed into changes. A row of
        another length than the one before names packet 0, which no trace admits."""
        if not rows:  # no row 0 to diff from
            raise TraceFormatError(f"dimension mismatch: 0 knowledge rows for horizon {spec.horizon}")
        changes = tuple(
            tuple((k, now) for k, (was, now) in enumerate(zip(before, after), 1) if was != now)
            + ((0, 0),) * (len(before) != len(after))
            for before, after in zip(rows, rows[1:])
        )
        return cls(spec, actions, tuple(rows[0]), changes)


def _check_row_widths(spec: NetworkSpec, actions: Sequence[Sequence[Action]]) -> None:
    if set(map(len, actions)) <= {spec.processes}:
        return
    for t, row in enumerate(actions):  # name the first row of another width
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
    return list(_violations(trace, frozenset(RequirementLabel if enabled is None else enabled)))


def _violations(
    trace: ProtocolTrace, enabled: frozenset[RequirementLabel]
) -> Iterator[Violation]:
    spec = trace.spec
    packets = spec.packets
    acts = trace.actions
    grid = trace.knowledge
    L = RequirementLabel
    enabled &= requirement_families(spec)
    # Each distinct cell object is checked once. A malformed cell is reported
    # under R1 and acts as no action in every other family.
    cells = list(chain.from_iterable(acts))
    kind_of = {
        key: act.kind if _well_formed(act) else None
        for key, act in dict(zip(map(id, cells), cells)).items()
    }
    # Each row is decoded once: its cells' kinds, listening mask and sends.
    kinds = [list(map(kind_of.__getitem__, map(id, row))) for row in acts]
    listening, sends = zip(*map(_decode, acts, kinds)) if acts else ((), ())

    if L.R1_EXACTLY_ONE_ACTION in enabled and None in kind_of.values():
        for t, row in enumerate(acts):
            for p, act in enumerate(row):
                if kind_of[id(act)] is None:
                    yield Violation(
                        L.R1_EXACTLY_ONE_ACTION, t, p,
                        f"cell does not hold exactly one well-formed action: {act!r}",
                    )

    if L.R2_CONTENT_DOMAIN in enabled:
        for t, row in enumerate(acts):
            for p, _ in sends[t]:
                if row[p].content > packets:
                    yield Violation(
                        L.R2_CONTENT_DOMAIN, t, p,
                        f"content code {row[p].content} outside 0..{packets}",
                    )

    if L.R3_LIVENESS in enabled:
        columns = zip(*kinds) if kinds else repeat((), spec.processes)
        for p, column in enumerate(columns):
            done = set(column)
            for kind in ActionKind:
                if kind not in done:
                    yield Violation(
                        L.R3_LIVENESS, None, p,
                        f"process {p} never performs {kind.value} within the horizon",
                    )

    if L.R4_INITIAL_KNOWLEDGE in enabled and grid[0] != initial_knowledge(spec):
        for p, mistaken in _by_process(grid[0], lambda have: have ^ 1 << spec.source):
            role = "source" if p == spec.source else "non-source"
            yield Violation(
                L.R4_INITIAL_KNOWLEDGE, 0, p,
                f"initial knowledge of {role} process {p} is wrong for packet(s) {mistaken}",
            )

    if L.R5_TRANSMIT_ONLY_KNOWN in enabled:
        for t, slot in enumerate(sends):
            for p, k in slot:
                if k is not None and k <= packets and not grid[t][k - 1] >> p & 1:
                    yield Violation(
                        L.R5_TRANSMIT_ONLY_KNOWN, t, p,
                        f"process {p} transmits packet {k} at t={t} without knowing it",
                    )

    # The learning rule on the decoded rows, once per slot for R6 and R7.
    # Audibility folds into it; dropping TOPO lifts it.
    audience = audiences(spec, enabled)
    legal = [deliver(grid[t], listening[t], sends[t], audience) for t in range(spec.horizon)]
    legal = [(change,) if change else () for change in legal]
    # only a slot whose changes are not the legal ones forgets or gains illegally
    odd = [t for t, slot in enumerate(trace.changes) if slot != legal[t]]

    if L.R6_NEVER_FORGETS in enabled:
        for t in odd:
            before, after = grid[t], grid[t + 1]
            for p, forgotten in _by_process(list(zip(before, after)), lambda r: r[0] & ~r[1]):
                yield Violation(
                    L.R6_NEVER_FORGETS, t, p,
                    f"process {p} forgets packet(s) {forgotten} between t={t} and t={t + 1}",
                )

    if L.R7_COLLISION_FREE_LEARNING in enabled:
        for t in odd:
            before, after = grid[t], grid[t + 1]
            triples = list(zip(before, after, applied(before, legal[t])))  # (was, now, legal)
            gained, dropped = (lambda r: r[1] & ~r[0] & ~r[2]), (lambda r: r[2] & ~r[0] & ~r[1])
            for p, illegal, missed in _by_process(triples, gained, dropped):
                if illegal:
                    yield Violation(
                        L.R7_COLLISION_FREE_LEARNING, t, p,
                        f"process {p} gains packet(s) {illegal} at t={t + 1} without a "
                        "collision-free audible transmission",
                    )
                if missed:
                    yield Violation(
                        L.R7_COLLISION_FREE_LEARNING, t, p,
                        f"process {p} fails to record packet(s) {missed} it legally "
                        f"hears at t={t}",
                    )

    if L.GOAL_DEADLINE in enabled:
        everyone = (1 << spec.processes) - 1
        for p, missing in _by_process(grid[spec.horizon], lambda holders: everyone & ~holders):
            yield Violation(
                L.GOAL_DEADLINE, spec.horizon, p,
                f"process {p} misses packet(s) {missing} at the deadline t={spec.horizon}",
            )


def _well_formed(act: object) -> bool:
    """R1: an Action of a known kind that carries content exactly when it
    transmits."""
    if not isinstance(act, Action) or not isinstance(act.kind, ActionKind):
        return False
    if act.kind is ActionKind.TRANSMIT:
        return isinstance(act.content, int) and act.content >= 0
    return act.content is None


def _by_process(values: Sequence, *masks_of: Callable[..., int]) -> Iterator[tuple]:
    """Per process that some packet's mask names, in id order: the process
    and, per mask function, its packets as _listed gives them, or None.
    Packet k's masks are functions of values[k - 1], taken once per distinct
    value; the named values are counted by one C pass each while few."""
    tables = [{value: mask_of(value) for value in set(values)} for mask_of in masks_of]
    named = {value for table in tables for value, mask in table.items() if mask}
    counts = Counter(values) if len(named) > MAX_LISTED else {v: values.count(v) for v in named}
    union = reduce(or_, (table[value] for table in tables for value in named), 0)
    for p in set_bits(union):
        hits = [{value for value in named if table[value] >> p & 1} for table in tables]
        yield p, *(_listed(values, counts, each) if each else None for each in hits)


def _listed(values: Sequence, counts: Counter, hits: set) -> str:
    """Packets whose value is in hits: all up to MAX_LISTED, else the first ones and the count."""
    count = sum(counts[value] for value in hits)
    found = (k for k, value in enumerate(values, 1) if value in hits)
    packets = list(islice(found, min(count, MAX_LISTED)))
    return str(packets) if count <= MAX_LISTED else f"{str(packets)[:-1]}, ...] ({count} packets)"


def write_trace(trace: ProtocolTrace) -> str:
    """Deterministic JSON form; field order spec, actions, knowledge. The
    spec takes one line, each slot's actions and each time index's
    knowledge one line apiece; each distinct knowledge row is rendered once."""

    def rows(lines: Iterable[str]) -> str:
        body = ",\n".join(f"    {line}" for line in lines)
        return f"[\n{body}\n  ]" if body else "[]"

    label = attrgetter("label")
    actions = [json.dumps(list(map(label, row))) for row in trace.actions]
    P = trace.spec.processes
    rendered = {row: json.dumps(knowledge_table(row, P)) for row in set(trace.knowledge)}
    return (
        f'{{\n  "spec": {json.dumps(spec_as_dict(trace.spec))},\n'
        f'  "actions": {rows(actions)},\n'
        f'  "knowledge": {rows(map(rendered.__getitem__, trace.knowledge))}\n}}\n'
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
    trace = ProtocolTrace.from_actions(spec, _parse_actions(rows, spec.packets))
    if "knowledge" in obj:
        if not _shaped(obj["knowledge"], (spec.horizon + 1, spec.processes, spec.packets)):
            raise TraceFormatError("knowledge grid malformed")
        tables: dict[KnowledgeRow, list[list[bool]]] = {}
        for t, (row, masks) in enumerate(zip(obj["knowledge"], trace.knowledge)):
            if masks not in tables:
                tables[masks] = knowledge_table(masks, spec.processes)
            if row != tables[masks]:  # safe: _shaped admits only booleans, never 1 for True
                p = next(p for p, (file, held) in enumerate(zip(row, tables[masks]))
                         if file != held)
                raise TraceFormatError(
                    f"knowledge grid mismatch at t={t}, p={p}: file disagrees "
                    "with the grid derived from the actions"
                )
    return trace


def _parse_actions(rows: list[list], packets: int) -> list[list[Action]]:
    """Parses each distinct label once, so that equal labels share one
    Action. When a cell is not a legal label, the cell by cell walk names
    the first such cell."""
    cells = list(chain.from_iterable(rows))
    if all(map(isinstance, cells, repeat(str))):
        try:
            parsed = {label: parse_action(label, packets) for label in set(cells)}
        except ActionFormatError:
            pass
        else:
            return [list(map(parsed.__getitem__, row)) for row in rows]
    actions = []
    for t, row in enumerate(rows):
        parsed_row = []
        for p, label in enumerate(row):
            if not isinstance(label, str):
                raise TraceFormatError(f"actions[{t}][{p}] must be a string")
            try:
                parsed_row.append(parse_action(label, packets))
            except ActionFormatError as exc:
                raise TraceFormatError(f"actions[{t}][{p}]: {exc}") from None
        actions.append(parsed_row)
    return actions


def _shaped(value: object, shape: tuple[int, ...]) -> bool:
    """Whether `value` nests lists of exactly these lengths, booleans at its
    leaves; checked one level at a time over all of that level's lists."""
    level = [value]
    for length in shape:
        if not all(map(isinstance, level, repeat(list))) or set(map(len, level)) - {length}:
            return False
        level = list(chain.from_iterable(level))
    return all(map(isinstance, level, repeat(bool)))
