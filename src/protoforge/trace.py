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
this rule is written, over a listening mask, the sends, and one listener
bitmask per speaker. Its callers build that mask and those sends
themselves: derive_knowledge and the validator decode each row of actions,
and the search keeps them per cell. derive_knowledge folds the rule of the
full system over spec.audience; for the validator and the search, which may
drop TOPO, audiences decides what dropping it does, and the search what
dropping R7 does. Carrier sense, the always-on baseline's radio model,
belongs to sim, which hands deliver only the listeners no two audible
senders block.

A trace stores its knowledge as its T+1 rows, time 0 first. The learning
rule changes at most one packet's mask in a slot, and derive_knowledge and
the search build a new row only for a slot that changes one: a slot
without a change shares the row object before it, so a run of equal rows
costs one row's memory and, in the readers that work per row object, one
row's work.

The validator here is the package's independent referee: it re-derives
everything from first principles and never calls into the search engine,
so solver results can be checked against it.

Trace files are JSON with fields in fixed order: ``spec`` (the embedded
problem, same keys as the problem file format), ``actions`` (T rows of P
strings: "sleep" | "listen" | "tx:<code>"), and ``knowledge`` ((T+1) x P x
M booleans, from knowledge_table). A knowledge field is optional on read;
when present it is compared against the grid re-derived from the actions.

The layer works per distinct value rather than per cell or row. read_trace
decodes each distinct action-row line of a written file once; in any other
file it reads the rows in one pass that hashes each row once: a row equal
to an earlier one reuses its tuple, a row of labels all seen before is one
C-level map over the parsed labels, and only a row that brings a new label
is walked cell by cell, to parse that label or name the first bad cell.
Either way equal cells share one Action object and equal rows one tuple,
as in the traces solve returns, and a file whose rows repeat is read per
distinct row. derive_knowledge and write_trace (through per_distinct) and
the validator decode or render each distinct row object once, though
deliver runs per slot, and the validator checks each distinct cell object
of those rows once; write_trace renders knowledge rows straight from their
masks, each distinct mask once and a run of equal rows once. Action shape
checks run as whole-grid passes, and walk row by row only to name the
first bad row; knowledge is checked once per distinct row object, and
all_known, which finds a replay's completion slot, is one C-level count
per row. Violation messages list at most MAX_LISTED packet numbers.

read_trace checks a file in one order: JSON, fields, the embedded spec,
the action labels, each action row's width, the number of rows, then the
knowledge grid's shape, level by level (T+1 lists of P lists of M
entries), and that every entry is a bool, since 1 == True. Only then is
knowledge derived, so a small file whose spec claims a huge grid is
refused before anything that size is built. The file's rows are then
compared, one at a time, with one knowledge_table that is flipped in place
where a row's masks differ from the row before it; the first row that
differs names the first cell.

The one early exit reads a file in write_trace's own line layout: the
opening brace on a line of its own, the spec object on the line that
``"spec": `` opens, then ``"actions": [`` and one row per line, indented
four spaces, each but the last ended by a comma, up to the first line that
``"knowledge": `` opens. The spec is decoded in place and each distinct
row text, keyed without that comma, once, so the file up to that line is
exactly the JSON of that spec and those rows. When the rest has the four
characters per entry of the claimed grid that each boolean takes, the
trace is derived, and when the rest is exactly the field write_trace
renders for it, compared piece by piece in place, the whole file is that
trace's object, which reading it whole would accept with an equal trace.
Any other file (respaced, reordered or on one line, with an extra field,
the wrong row count or a bad cell) is read whole, so no verdict or message
depends on the layout; the head's trace serves it when the whole file's
spec and actions equal the head's.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import reduce
from itertools import chain, compress, islice, repeat
from operator import attrgetter, ne, or_
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence

from .actions import Action, ActionFormatError, ActionKind, parse_action
from .model import (
    NetworkSpec,
    Record,
    RequirementLabel,
    SpecError,
    requirement_families,
    set_bits,
    spec_as_dict,
    spec_from_dict,
    topology_all,
)

KnowledgeRow = tuple[int, ...]  # one holder bitmask per packet
Change = tuple[int, int]  # a packet and its new holder mask

# Violation messages list at most this many packet numbers, then the count.
MAX_LISTED = 10

# Looked up once: reading an Enum member off its class is slow per cell.
_LISTENS, _SENDS = ActionKind.LISTEN, ActionKind.TRANSMIT
_LABELS = SimpleNamespace(**RequirementLabel.__members__)  # the members, as plain attributes
_kind = attrgetter("kind")
_EVERY_FAMILY = frozenset(RequirementLabel)  # what validate checks by default


class TraceFormatError(ValueError):
    """A trace document that cannot be decoded into a consistent trace."""


def initial_knowledge(spec: NetworkSpec) -> KnowledgeRow:
    """Time-0 knowledge: the source holds every packet, nobody else holds any."""
    return (1 << spec.source,) * spec.packets


def audiences(spec: NetworkSpec, enabled: Iterable[RequirementLabel]) -> tuple[int, ...]:
    """One listener bitmask per speaker under the learning rule: spec.audience,
    or everyone else when TOPO is dropped."""
    if RequirementLabel.TOPO_HEARS_RELATION not in enabled:
        return topology_all(spec.processes)
    return spec.audience


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
    None or 0 for garbage.

    The whole network shares one channel. A lone transmitter's packet
    reaches the listening processes in its audience; two or more
    transmitters deliver nothing, and garbage delivers nothing. Knowledge
    never shrinks. The result is the slot's one change to the row `now`,
    (packet, new holder mask), or None when nobody gains anything.
    """
    if len(sends) == 1:
        speaker, packet = sends[0]
        if packet and packet <= len(now):
            if gained := audience[speaker] & listening & ~now[packet - 1]:
                return packet, now[packet - 1] | gained
    return None


def applied(row: KnowledgeRow, change: Change | None) -> KnowledgeRow:
    """The row after a slot's change; the row itself when there is none."""
    if change is None:
        return row
    packet, holders = change
    return row[:packet - 1] + (holders,) + row[packet:]


def per_distinct(function: Callable, items: Iterable) -> list:
    """function(item) for each item, called once per distinct item object.
    The memo holds each item beside its value, so no id it is keyed by is
    reused while it lives, even when each read of `items` builds a new one."""
    memo = {}
    return [(memo.get(id(item)) or memo.setdefault(id(item), (item, function(item))))[1]
            for item in items]


def derive_knowledge(
    spec: NetworkSpec, actions: Sequence[Sequence[Action]]
) -> tuple[KnowledgeRow, ...]:
    """Folds the learning rule over the whole schedule: the T+1 rows."""
    audience = spec.audience
    rows = [initial_knowledge(spec)]
    for listening, sends in per_distinct(lambda acts: _decode(acts, map(_kind, acts)), actions):
        rows.append(applied(rows[-1], deliver(rows[-1], listening, sends, audience)))
    return tuple(rows)


def all_known(row: KnowledgeRow, processes: int) -> bool:
    """Whether every process holds every packet: one C-level count."""
    return row.count((1 << processes) - 1) == len(row)


def _holdings(row: KnowledgeRow, processes: int) -> Iterable[tuple[str, ...]]:
    """Per process, process 0 first, a "1" or a "0" per packet: whether the
    process holds it. Each distinct mask as P digits, then transposed."""
    if not row:
        return repeat((), processes)
    top = 1 << processes  # bin(top | holders) is "0b1" and then the P digits
    digits = {holders: bin(top | holders)[:2:-1] for holders in set(row)}
    return zip(*map(digits.__getitem__, row))


def knowledge_table(row: KnowledgeRow, processes: int) -> list[list[bool]]:
    """A knowledge row as the file and JSON forms hold it: entry [p][k - 1]
    tells whether process p holds packet k."""
    bit = {"0": False, "1": True}
    return [list(map(bit.__getitem__, held)) for held in _holdings(row, processes)]


class ProtocolTrace(Record):
    """A schedule and the knowledge it is claimed to imply: the spec, T rows
    of P actions, and the T+1 knowledge rows of M holder masks, time 0
    first. Equal action rows may share one tuple, and a slot without a
    change shares the knowledge row before it."""

    __slots__ = ("spec", "actions", "knowledge")

    def __init__(
        self, spec: NetworkSpec, actions: tuple[tuple[Action, ...], ...],
        knowledge: tuple[KnowledgeRow, ...],
    ) -> None:
        P, M, T = spec.processes, spec.packets, spec.horizon
        _check_actions(spec, actions)
        if (count := len(knowledge)) != T + 1:
            raise TraceFormatError(f"dimension mismatch: {count} knowledge rows for horizon {T}")
        bad = per_distinct(
            lambda row: len(row) != M or any(holders >> P for holders in set(row)), knowledge)
        if True in bad:
            raise TraceFormatError(f"dimension mismatch in knowledge row t={bad.index(True)}")
        self._store(spec, actions, knowledge)

    @classmethod
    def from_actions(cls, spec: NetworkSpec, actions: Sequence[Sequence[Action]]) -> "ProtocolTrace":
        frozen = tuple(map(tuple, actions))
        _check_actions(spec, frozen)  # before the learning rule indexes them
        return cls(spec, frozen, derive_knowledge(spec, frozen))


def _check_actions(spec: NetworkSpec, actions: Sequence[Sequence[Action]]) -> None:
    """The action rows' shape, in a file's order: each row's width, naming
    the first row of another width, then the number of rows."""
    P, T = spec.processes, spec.horizon
    if not set(map(len, actions)) <= {P}:
        t, row = next((t, row) for t, row in enumerate(actions) if len(row) != P)
        raise TraceFormatError(f"dimension mismatch: {len(row)} actions at t={t} for {P} processes")
    if len(actions) != T:
        raise TraceFormatError(f"dimension mismatch: {len(actions)} action rows for horizon {T}")


class Violation(Record):
    __slots__ = ("label", "time", "process", "detail")

    def __init__(
        self, label: RequirementLabel, time: int | None, process: int | None, detail: str
    ) -> None:
        self._store(label, time, process, detail)


def validate(
    trace: ProtocolTrace, enabled: Iterable[RequirementLabel] | None = None
) -> list[Violation]:
    """Exhaustively checks every enabled requirement; empty list means clean."""
    return list(_violations(trace, _EVERY_FAMILY if enabled is None else frozenset(enabled)))


def _violations(
    trace: ProtocolTrace, enabled: frozenset[RequirementLabel]
) -> Iterator[Violation]:
    spec = trace.spec
    packets = spec.packets
    acts = trace.actions
    grid = trace.knowledge
    L = _LABELS
    enabled &= requirement_families(spec)
    # Each distinct row object is decoded once (per_distinct), into itself,
    # its cells' kinds, listening mask and sends, and each distinct cell
    # object, which its row keeps alive, is checked once. A malformed cell
    # is reported under R1 and acts as no action in every other family.
    kind_of = {}
    distinct = []  # each distinct row's kinds

    def decode(row: Sequence[Action]) -> tuple:
        for act in row:
            if id(act) not in kind_of:
                kind_of[id(act)] = act.kind if _well_formed(act) else None
        kinds = list(map(kind_of.__getitem__, map(id, row)))
        distinct.append(kinds)
        return row, kinds, *_decode(row, kinds)

    slots = per_distinct(decode, acts)

    if L.R1_EXACTLY_ONE_ACTION in enabled and None in kind_of.values():
        for t, (row, kinds, _, _) in enumerate(slots):
            for p, (act, kind) in enumerate(zip(row, kinds)):
                if kind is None:
                    yield Violation(
                        L.R1_EXACTLY_ONE_ACTION, t, p,
                        f"cell does not hold exactly one well-formed action: {act!r}",
                    )

    if L.R2_CONTENT_DOMAIN in enabled:
        for t, (row, _, _, sends) in enumerate(slots):
            for p, _ in sends:
                if row[p].content > packets:
                    yield Violation(
                        L.R2_CONTENT_DOMAIN, t, p,
                        f"content code {row[p].content} outside 0..{packets}",
                    )

    if L.R3_LIVENESS in enabled:  # a repeated row adds no kind to a column
        columns = zip(*distinct) if distinct else repeat((), spec.processes)
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
        for t, (_, _, _, sends) in enumerate(slots):
            for p, k in sends:
                if k is not None and k <= packets and not grid[t][k - 1] >> p & 1:
                    yield Violation(
                        L.R5_TRANSMIT_ONLY_KNOWN, t, p,
                        f"process {p} transmits packet {k} at t={t} without knowing it",
                    )

    # The learning rule on the decoded rows, once per slot for R6 and R7:
    # per slot whose next row is not the legal one, that legal row, as only
    # such a slot forgets or gains illegally. Audibility folds into the
    # rule; dropping TOPO lifts it.
    audience = audiences(spec, enabled)
    legal = {
        t: row for t, (_, _, listening, sends) in enumerate(slots)
        if (row := applied(grid[t], deliver(grid[t], listening, sends, audience))) != grid[t + 1]
    }

    if L.R6_NEVER_FORGETS in enabled:
        for t in legal:
            before, after = grid[t], grid[t + 1]
            for p, forgotten in _by_process(list(zip(before, after)), lambda r: r[0] & ~r[1]):
                yield Violation(
                    L.R6_NEVER_FORGETS, t, p,
                    f"process {p} forgets packet(s) {forgotten} between t={t} and t={t + 1}",
                )

    if L.R7_COLLISION_FREE_LEARNING in enabled:
        for t, row in legal.items():
            triples = list(zip(grid[t], grid[t + 1], row))  # (was, now, legal)
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

    everyone = (1 << spec.processes) - 1
    if L.GOAL_DEADLINE in enabled and grid[spec.horizon].count(everyone) != packets:
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
    if act.kind is _SENDS:
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


# What write_trace writes before each field, the knowledge field last, and
# around and between the rows of a list.
_SPEC, _ACTIONS, _KNOWLEDGE = '{\n  "spec": ', ',\n  "actions": ', ',\n  "knowledge": '
_OPEN, _ROW, _CLOSE = "[\n    ", ",\n    ", "\n  ]"
_json_value = json.JSONDecoder().raw_decode  # the JSON value at an offset, and where it ends


def _rows(lines: list[str]) -> str:
    """A JSON list of rendered values, one value per line."""
    return _OPEN + _ROW.join(lines) + _CLOSE if lines else "[]"


def _knowledge_pieces(trace: ProtocolTrace) -> Iterator[str]:
    """The file's text from the knowledge separator to its end, as write_trace
    writes it, a row at a time: each row as json.dumps renders its
    knowledge_table, a run of equal rows, which share one tuple, once."""
    P = trace.spec.processes
    row, start = None, 1  # no comma before the first row
    yield f"{_KNOWLEDGE}["
    for now in trace.knowledge:
        if now is not row:
            row = now
            cells = "], [".join(map(", ".join, _holdings(row, P)))
            line = f",\n    [[{cells}]]".replace("0", "false").replace("1", "true")
        yield line[start:]
        start = 0
    yield "\n  ]\n}\n"


def write_trace(trace: ProtocolTrace) -> str:
    """Deterministic JSON form; field order spec, actions, knowledge. The
    spec takes one line, each slot's actions and each time index's
    knowledge one line apiece; a run of equal knowledge rows is rendered once."""
    label = attrgetter("label")
    actions = per_distinct(lambda row: json.dumps(list(map(label, row))), trace.actions)
    return (
        f'{_SPEC}{json.dumps(spec_as_dict(trace.spec))}{_ACTIONS}{_rows(actions)}'
        f'{"".join(_knowledge_pieces(trace))}'
    )


def read_trace(text: str) -> ProtocolTrace:
    """Inverse of write_trace. Knowledge, when present, must match the grid
    re-derived from the actions; anything else is a TraceFormatError.

    A file in write_trace's layout is read by its lines: the spec line and
    each distinct action-row line are decoded once, and when the knowledge
    field that follows is the one write_trace renders for them, that trace
    is the file's. Any other file is read whole, which names every defect;
    the written head's trace serves it when its spec and actions are the
    head's."""
    head = None
    if written := _written_head(text):
        spec, actions, cut = written
        # a field this short is not the written one; rendering it could cost
        # far more than the file, when a small file claims a huge grid
        if len(text) - cut >= 4 * (spec.horizon + 1) * spec.processes * spec.packets:
            head = ProtocolTrace.from_actions(spec, actions)
            for piece in _knowledge_pieces(head):  # up to the first that differs
                if not text.startswith(piece, cut):
                    break
                cut += len(piece)
            else:
                if cut == len(text):
                    return head

    spec, actions, obj = _document(text)
    if "knowledge" in obj:  # its shape is checked before anything that size is derived
        cells = _cells(obj["knowledge"], (spec.horizon + 1, spec.processes, spec.packets))
        if cells is None or not all(map(isinstance, chain.from_iterable(cells), repeat(bool))):
            raise TraceFormatError("knowledge grid malformed")
    same_head = head is not None and head.spec == spec and head.actions == actions
    trace = head if same_head else ProtocolTrace.from_actions(spec, actions)
    if "knowledge" in obj:
        _compare_knowledge(obj["knowledge"], trace)
    return trace


def _written_head(text: str) -> tuple[NetworkSpec, tuple[tuple[Action, ...], ...], int] | None:
    """The spec and action rows of a file in write_trace's layout up to its
    knowledge separator, and that separator's offset; None for a file laid
    out otherwise or holding any defect there. The spec is decoded in place
    up to where its value ends, the rows' text must be what _rows joins
    from its lines, and each distinct line is decoded once, as one JSON
    value with nothing around it; _parse_actions then shares equal rows and
    equal labels, also where a row or a label is spelt another way."""
    if not text.startswith(_SPEC):
        return None
    try:
        obj, dump = _json_value(text, len(_SPEC))
        spec = spec_from_dict(obj)
        if not text.startswith(_ACTIONS, dump) or (cut := text.find(_KNOWLEDGE, dump)) == -1:
            return None
        body = text[dump + len(_ACTIONS):cut]
        lines = body[len(_OPEN):-len(_CLOSE)].split(_ROW) if body != "[]" else []
        if _rows(lines) != body:
            return None
        distinct = list(dict.fromkeys(lines))
        values, ends = zip(*map(_json_value, distinct)) if lines else ((), ())
        if ends != tuple(map(len, distinct)) or not all(map(isinstance, values, repeat(list))):
            return None
        row_of = dict(zip(distinct, _parse_actions(values, spec.packets)))
        actions = tuple(map(row_of.__getitem__, lines))
        _check_actions(spec, actions)
    except (ValueError, RecursionError):  # each named when the file is read whole
        return None
    return spec, actions, cut


def _document(text: str) -> tuple[NetworkSpec, tuple[tuple[Action, ...], ...], dict]:
    """A trace document's spec, its action rows parsed and checked against
    that spec, and the decoded object, whose knowledge is not looked at."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
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
    if not isinstance(rows, list) or not all(map(isinstance, rows, repeat(list))):
        raise TraceFormatError("actions must be a list of per-slot lists")
    actions = tuple(_parse_actions(rows, spec.packets))
    _check_actions(spec, actions)
    return spec, actions, obj


def _compare_knowledge(grid: list, trace: ProtocolTrace) -> None:
    """Raises at the first (t, p) where a well-formed file grid differs from
    the trace's knowledge. Each file row is compared with one knowledge_table,
    flipped in place where a row's masks differ from the row before it; a
    row that is the row before it flips nothing."""
    rows = trace.knowledge
    table = knowledge_table(rows[0], trace.spec.processes)
    for t, (line, now) in enumerate(zip(grid, rows)):
        if t and now is not (was := rows[t - 1]):
            for k in compress(range(len(now)), map(ne, was, now)):
                for p in set_bits(was[k] ^ now[k]):
                    table[p][k] = not table[p][k]
        if line != table:
            p = next(p for p, (file, have) in enumerate(zip(line, table)) if file != have)
            raise TraceFormatError(
                f"knowledge grid mismatch at t={t}, p={p}: file disagrees "
                "with the grid derived from the actions"
            )


def _parse_actions(rows: list[list], packets: int) -> list[tuple[Action, ...]]:
    """One pass over the rows, in order, hashing each row once as the tuple
    of its labels. A row equal to an earlier one reuses that row's tuple; a
    new row whose labels have all been seen is built by one C-level map over
    the parsed labels. Only a row that brings a label not seen before, or an
    unhashable cell, is walked cell by cell: the walk parses its new labels
    and names the first cell that is not a legal label, which is the file's
    first, as every row before it parsed. Equal labels so share one Action
    and equal rows one tuple, the form a trace holds."""
    parsed: dict[str, Action] = {}
    shared: dict[tuple, tuple[Action, ...]] = {}
    out = []
    for t, key in enumerate(map(tuple, rows)):
        try:
            row = shared.get(key) or shared.setdefault(key, tuple(map(parsed.__getitem__, key)))
        except (KeyError, TypeError):  # a label not seen before, or an unhashable cell
            for p, label in enumerate(key):
                if not isinstance(label, str):
                    raise TraceFormatError(f"actions[{t}][{p}] must be a string") from None
                if label not in parsed:
                    try:
                        parsed[label] = parse_action(label, packets)
                    except ActionFormatError as exc:
                        raise TraceFormatError(f"actions[{t}][{p}]: {exc}") from None
            row = shared.setdefault(key, tuple(map(parsed.__getitem__, key)))
        out.append(row)
    return out


def _cells(grid: object, shape: tuple[int, int, int]) -> list | None:
    """The innermost lists of `grid` when it nests lists of exactly these
    lengths, else None; checked one level at a time over all of that level's
    lists. What the innermost lists hold is not looked at."""
    level = [grid]
    for depth, length in enumerate(shape):
        if depth:
            level = list(chain.from_iterable(level))
        if not all(map(isinstance, level, repeat(list))) or set(map(len, level)) - {length}:
            return None
    return level
