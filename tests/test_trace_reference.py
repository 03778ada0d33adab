"""The trace layer against cell-by-cell references.

The references below are the trace file writer and reader, the
ProtocolTrace shape checks and the validator as they stood before they
were rewritten to work per distinct cell, row and label. The library must
write the same bytes, read the same trace or raise the same message, and
report the same violations, on solved traces, random schedules, tampered
grids and mutated trace files. Packet counts stay at ten or fewer, where
the violation messages list every packet; malformed cells are left to
tests/test_trace.py, because the references crash on them.
"""

from __future__ import annotations

import json
import random
import re
from typing import Iterator, Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from protoforge.actions import (
    LISTEN,
    SLEEP,
    Action,
    ActionFormatError,
    ActionKind,
    action_domain,
    parse_action,
    transmit,
)
from protoforge.encoder import encode
from protoforge.model import (
    GoalKind,
    LivenessMode,
    RequirementLabel,
    SpecError,
    requirement_families,
    spec_as_dict,
    spec_from_dict,
)
from protoforge.sim import PowerModel
from protoforge.solver import solve
from protoforge.trace import (
    ProtocolTrace,
    TraceFormatError,
    Violation,
    audiences,
    initial_knowledge,
    knowledge_table,
    read_trace,
    validate,
    write_trace,
)
from conftest import make_spec
from oracle import satisfies
from test_fuzz import mutated
from test_sim import _stepped_baseline

L = RequirementLabel


# ---- the references --------------------------------------------------------


def _reference_shape_error(spec, actions, knowledge) -> str | None:
    """ProtocolTrace's checks, row by row and in a file's order: the first
    message, or None."""
    for t, row in enumerate(actions):
        if len(row) != spec.processes:
            return f"dimension mismatch: {len(row)} actions at t={t} for {spec.processes} processes"
    if len(actions) != spec.horizon:
        return f"dimension mismatch: {len(actions)} action rows for horizon {spec.horizon}"
    if len(knowledge) != spec.horizon + 1:
        return f"dimension mismatch: {len(knowledge)} knowledge rows for horizon {spec.horizon}"
    for t, krow in enumerate(knowledge):
        if len(krow) != spec.packets or any(holders >> spec.processes for holders in krow):
            return f"dimension mismatch in knowledge row t={t}"
    return None


def _reference_write(trace: ProtocolTrace) -> str:
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


def _reference_shaped(value: object, shape: tuple[int, ...]) -> bool:
    if not isinstance(value, list) or len(value) != shape[0]:
        return False
    if len(shape) == 1:
        return all(isinstance(v, bool) for v in value)
    return all(_reference_shaped(v, shape[1:]) for v in value)


def _reference_read(text: str) -> ProtocolTrace:
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
    for t, row in enumerate(actions):
        if len(row) != spec.processes:
            raise TraceFormatError(
                f"dimension mismatch: {len(row)} actions at t={t} for {spec.processes} processes"
            )
    if len(actions) != spec.horizon:
        raise TraceFormatError(
            f"dimension mismatch: {len(actions)} action rows for horizon {spec.horizon}"
        )
    shape = (spec.horizon + 1, spec.processes, spec.packets)
    if "knowledge" in obj and not _reference_shaped(obj["knowledge"], shape):
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


def _reference_step(now, acts, audience):
    """The whole-channel rule, listener by listener: a listener learns a
    packet when the row has exactly one transmitter, it hears that
    transmitter, and the transmitter sends a packet, not garbage."""
    senders = [p for p, act in enumerate(acts) if act.kind is ActionKind.TRANSMIT]
    nxt = list(now)
    for listener, act in enumerate(acts):
        if act.kind is not ActionKind.LISTEN or len(senders) != 1:
            continue
        speaker = senders[0]
        k = acts[speaker].packet
        if k is not None and k <= len(now) and audience[speaker] >> listener & 1:
            nxt[k - 1] |= 1 << listener
    return tuple(nxt)


def _reference_by_process(*families: Sequence[int]) -> Iterator[tuple]:
    union = 0
    for masks in families:
        for mask in masks:
            union |= mask
    for p in range(union.bit_length()):
        if union >> p & 1:
            yield p, *([k for k, m in enumerate(masks, 1) if m >> p & 1] for masks in families)


def _reference_violations(trace, enabled) -> Iterator[Violation]:
    spec = trace.spec
    packets = spec.packets
    acts = trace.actions
    grid = trace.knowledge
    enabled = (frozenset(RequirementLabel) if enabled is None else frozenset(enabled))
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
                if act.kind is ActionKind.TRANSMIT and act.content > packets:
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
        for p, mistaken in _reference_by_process(wrong):
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
            for p, forgotten in _reference_by_process(lost):
                yield Violation(
                    L.R6_NEVER_FORGETS, t, p,
                    f"process {p} forgets packet(s) {forgotten} between t={t} and t={t + 1}",
                )

    if L.R7_COLLISION_FREE_LEARNING in enabled:
        audience = audiences(spec, enabled)
        for t in range(spec.horizon):
            expected = _reference_step(grid[t], acts[t], audience)
            before, after = grid[t], grid[t + 1]
            gained = [now & ~was & ~legal for was, now, legal in zip(before, after, expected)]
            dropped = [legal & ~was & ~now for was, now, legal in zip(before, after, expected)]
            for p, illegal, missed in _reference_by_process(gained, dropped):
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
        for p, missing in _reference_by_process(lacking):
            yield Violation(
                L.GOAL_DEADLINE, spec.horizon, p,
                f"process {p} misses packet(s) {missing} at the deadline t={spec.horizon}",
            )


# ---- inputs ----------------------------------------------------------------


def _explicit_spec(processes, packets, horizon, seed, goal=GoalKind.ALL_KNOW_ALL):
    rng = random.Random(seed)
    hears = {
        (listener, speaker) for listener in range(processes) for speaker in range(processes)
        if listener != speaker and rng.random() < 0.5
    }
    return make_spec(processes=processes, packets=packets, horizon=horizon,
                     source=rng.randrange(processes), topology=hears,
                     goal=goal)


SOLVED_SPECS = [
    make_spec(),
    make_spec(processes=4, packets=2, horizon=4, source=1, topology="all"),
    make_spec(processes=4, packets=2, horizon=6, liveness=LivenessMode.EACH_ACTION_ONCE),
    make_spec(processes=9, packets=2, horizon=18, topology="all", goal=GoalKind.NONE),
    _explicit_spec(5, 3, 10, seed=5, goal=GoalKind.NONE),
]
SOLVED = [solve(encode(spec)).trace for spec in SOLVED_SPECS]


def _baseline(spec):
    """The always-on policy's trace from the stepped fold, sharing one
    Action object per cell value and one tuple per repeated row."""
    trace, _, _ = _stepped_baseline(spec, PowerModel())
    cells, rows = {}, {}
    actions = tuple(
        rows.setdefault(row, row)
        for row in (tuple(cells.setdefault(act, act) for act in row) for row in trace.actions)
    )
    return ProtocolTrace(trace.spec, actions, trace.knowledge)


BASELINES = [_baseline(spec) for spec in SOLVED_SPECS[:3]]
TRACES = [trace for trace in SOLVED + BASELINES if trace is not None]
ENABLED = st.one_of(st.none(), st.sets(st.sampled_from(list(RequirementLabel))).map(frozenset))


@st.composite
def specs(draw):
    P = draw(st.integers(1, 4), label="P")
    M = draw(st.integers(0, 3), label="M")
    T = draw(st.integers(0, 4), label="T")
    topology = draw(st.sampled_from(["all", "line", "explicit"]), label="topology")
    if topology == "explicit":
        pairs = [(a, b) for a in range(P) for b in range(P) if a != b]
        topology = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return make_spec(
        processes=P, packets=M, horizon=T,
        source=draw(st.integers(0, P - 1), label="source"),
        topology=topology,
        liveness=draw(st.sampled_from(list(LivenessMode)), label="liveness"),
        goal=draw(st.sampled_from(list(GoalKind)), label="goal"),
    )


@st.composite
def schedules(draw):
    """A random schedule of a random spec, with content codes past M too."""
    spec = draw(specs())
    cells = list(action_domain(spec.packets)) + [transmit(spec.packets + 1)]
    # shared objects, as the solver and read_trace give them, and equal copies
    cell = st.sampled_from(cells).flatmap(
        lambda act: st.sampled_from([act, Action(act.kind, act.content)]))
    actions = draw(st.lists(st.lists(cell, min_size=spec.processes, max_size=spec.processes),
                            min_size=spec.horizon, max_size=spec.horizon))
    return spec, actions


@st.composite
def tampered(draw):
    """A schedule and its derived grid with a few masks replaced: in range,
    negative, or past the top process."""
    spec, actions = draw(schedules())
    grid = [list(row) for row in ProtocolTrace.from_actions(spec, actions).knowledge]
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.integers(0, spec.horizon))
        if spec.packets:
            k = draw(st.integers(0, spec.packets - 1))
            grid[t][k] = draw(st.one_of(st.integers(0, (1 << spec.processes) - 1),
                                        st.integers(-3, (1 << spec.processes) + 3)))
    return spec, [tuple(row) for row in actions], tuple(map(tuple, grid))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _construct(spec, actions, knowledge):
    return ProtocolTrace(spec, tuple(map(tuple, actions)), knowledge)


# ---- the properties ----------------------------------------------------------


@pytest.mark.parametrize("trace", TRACES, ids=lambda trace: "P=%d M=%d T=%d" % (
    trace.spec.processes, trace.spec.packets, trace.spec.horizon))
def test_write_and_read_equal_the_reference_on_solved_traces(trace):
    text = write_trace(trace)
    assert text == _reference_write(trace)
    # a baseline's carrier-sense grid is not the one a file's actions imply
    assert _outcome(read_trace, text) == _outcome(_reference_read, text)
    for enabled in (None, frozenset({L.R1_EXACTLY_ONE_ACTION, L.R7_COLLISION_FREE_LEARNING})):
        assert validate(trace, enabled) == list(_reference_violations(trace, enabled))


@settings(deadline=None)
@given(schedules(), ENABLED)
def test_random_schedules_match_the_reference(case, enabled):
    spec, actions = case
    trace = ProtocolTrace.from_actions(spec, actions)
    text = write_trace(trace)
    assert text == _reference_write(trace)
    assert _outcome(read_trace, text) == _outcome(_reference_read, text)  # codes past M fail
    expected = list(_reference_violations(trace, enabled))
    assert validate(trace, enabled) == expected
    assert satisfies(trace, enabled) is (expected == [])


@settings(deadline=None)
@given(tampered(), ENABLED)
def test_tampered_grids_match_the_reference(case, enabled):
    spec, actions, grid = case
    made = _outcome(_construct, spec, actions, grid)
    error = _reference_shape_error(spec, actions, grid)
    if error is not None:
        assert made == ("TraceFormatError", error)
        return
    trace = made[1]
    assert validate(trace, enabled) == list(_reference_violations(trace, enabled))
    assert write_trace(trace) == _reference_write(trace)


def _capped(detail: str) -> str:
    """A reference message with each packet list past ten cut as the
    library cuts it: the first ten, then how many there are."""
    def cap(match: re.Match) -> str:
        packets = match.group(1).split(", ")
        if len(packets) <= 10:
            return match.group(0)
        return f"[{', '.join(packets[:10])}, ...] ({len(packets)} packets)"
    return re.sub(r"\[(\d+(?:, \d+)*)\]", cap, detail)


@st.composite
def scrambled(draw):
    """A schedule over more packets than a message lists, with a grid of
    random masks: many distinct masks, most of them violations."""
    P = draw(st.integers(2, 6), label="P")
    M = draw(st.integers(11, 40), label="M")
    spec = make_spec(processes=P, packets=M, horizon=draw(st.integers(1, 2), label="T"),
                     source=draw(st.integers(0, P - 1), label="source"), topology="all")
    cell = st.sampled_from(list(action_domain(M)))
    actions = draw(st.lists(st.lists(cell, min_size=P, max_size=P),
                            min_size=spec.horizon, max_size=spec.horizon))
    mask = st.integers(0, (1 << P) - 1)
    grid = draw(st.lists(st.lists(mask, min_size=M, max_size=M).map(tuple),
                         min_size=spec.horizon + 1, max_size=spec.horizon + 1))
    return ProtocolTrace(spec, tuple(map(tuple, actions)), tuple(grid))


@settings(deadline=None)
@given(scrambled(), ENABLED)
def test_many_distinct_masks_match_the_capped_reference(trace, enabled):
    expected = [
        Violation(v.label, v.time, v.process, _capped(v.detail))
        for v in _reference_violations(trace, enabled)
    ]
    assert validate(trace, enabled) == expected


@settings(deadline=None)
@given(st.sampled_from(TRACES).flatmap(lambda trace: mutated(write_trace(trace))))
def test_mutated_trace_files_read_as_the_reference_reads_them(text):
    ours, theirs = _outcome(read_trace, text), _outcome(_reference_read, text)
    assert ours == theirs
    if ours[0] == "ok":
        trace = ours[1]
        assert validate(trace) == list(_reference_violations(trace, None))
        assert write_trace(trace) == _reference_write(trace)


# ---- the traps -----------------------------------------------------------------


@pytest.mark.parametrize("leaf", [1, 0, 1.0, None, "true"])
def test_non_boolean_knowledge_leaves_are_malformed(leaf):
    # 1 == True and 0 == False, so a plain list comparison would accept them
    doc = json.loads(write_trace(SOLVED[0]))  # line3: at t=1, p0 and p1 hold the packet
    row = doc["knowledge"][1]
    row[1 if leaf else 2][0] = leaf  # equal to the boolean it replaces, where it can be
    text = json.dumps(doc)
    assert _outcome(read_trace, text) == _outcome(_reference_read, text)
    assert _outcome(read_trace, text) == ("TraceFormatError", "knowledge grid malformed")


@pytest.mark.parametrize(
    "edit",
    ["short process list", "long packet list", "missing row", "extra row", "flat row"],
)
def test_misshapen_file_grids_are_malformed(edit):
    doc = json.loads(write_trace(SOLVED[1]))
    grid = doc["knowledge"]
    if edit == "short process list":
        grid[2].pop()
    elif edit == "long packet list":
        grid[2][0].append(False)
    elif edit == "missing row":
        grid.pop()
    elif edit == "extra row":
        grid.append(grid[-1])
    else:
        grid[0] = [True] * len(grid[0])
    text = json.dumps(doc)
    assert _outcome(read_trace, text) == _outcome(_reference_read, text)
    assert _outcome(read_trace, text) == ("TraceFormatError", "knowledge grid malformed")


LAYOUTS = {  # each file still holds the separator write_trace puts before knowledge
    "indented": "ok",
    "bad duplicate before": "ok",
    "bad duplicate after": "TraceFormatError",
    "actions first, respaced": "ok",
    "head not JSON": "TraceFormatError",
}


def _laid_out(layout, trace):
    """The trace's file in another layout than write_trace's."""
    text = write_trace(trace)
    tail = text[text.rfind(',\n  "knowledge": '):]
    doc = json.loads(text)
    if layout == "indented":
        return json.dumps(doc, indent=2)
    if layout == "bad duplicate before":  # the written member, last, overrides it
        return text.replace('{\n  "spec"', '{\n  "knowledge": [],\n  "spec"', 1)
    if layout == "bad duplicate after":  # overrides the written member
        return text[:-3] + tail.replace("true", "false")
    if layout == "actions first, respaced":
        head = json.dumps({"actions": doc["actions"], "spec": doc["spec"]}, indent=1)
        return head[:-2] + tail
    return '{"spec": ' + tail


def _relay(processes=6, packets=3):
    """line P=6 M=3 T=15 by default: at slot t, process t mod (P-1) sends
    packet t // (P-1) + 1 and its successor listens, so the grid changes in
    every slot and everyone knows everything at T = (P-1)M."""
    P, T = processes, (processes - 1) * packets
    spec = make_spec(processes=P, packets=packets, horizon=T, topology="line")
    rows = [[SLEEP] * P for _ in range(T)]
    for t, row in enumerate(rows):
        row[t % (P - 1)], row[t % (P - 1) + 1] = transmit(t // (P - 1) + 1), LISTEN
    return ProtocolTrace.from_actions(spec, rows)


RELAY = _relay()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("trace", [trace for trace in SOLVED if trace is not None] + [RELAY],
                         ids=lambda trace: "P=%d M=%d T=%d" % (
                             trace.spec.processes, trace.spec.packets, trace.spec.horizon))
def test_other_layouts_read_as_the_reference_reads_them(layout, trace):
    text = _laid_out(layout, trace)
    assert text != write_trace(trace) and ',\n  "knowledge": ' in text
    ours = _outcome(read_trace, text)
    assert ours == _outcome(_reference_read, text)
    assert ours[0] == LAYOUTS[layout]
    if ours[0] == "ok":
        assert ours[1] == trace


TRAPS = [
    "negative holder mask", "mask with bit P", "short knowledge row", "long knowledge row",
    "short action row", "wide action row", "missing action row", "missing knowledge row",
    "list rows", "unhashable bad row", "no knowledge rows", "short and missing action rows",
]


def _trapped(trap, trace):
    """The trace's rows and grid with one defect (or, for "list rows", none)."""
    actions, grid = list(trace.actions), list(trace.knowledge)
    if trap == "negative holder mask":
        grid[2] = (-1,) + grid[2][1:]
    elif trap == "mask with bit P":
        grid[1] = (1 << trace.spec.processes,) + grid[1][1:]
    elif trap == "short knowledge row":
        grid[3] = grid[3][1:]
    elif trap == "long knowledge row":
        grid[3] += (0,)
    elif trap == "short action row":
        actions[1] = actions[1][1:]
    elif trap == "wide action row":
        actions[2] *= 2
    elif trap == "missing action row":
        actions.pop()
    elif trap == "missing knowledge row":
        grid.pop()
    elif trap == "list rows":
        grid = list(map(list, grid))
    elif trap == "no knowledge rows":
        grid = []
    elif trap == "short and missing action rows":
        actions[1] = actions[1][1:]
        actions.pop()
    else:
        grid = list(map(list, grid[:-1])) + [[-1] * len(grid[-1])]
    return tuple(actions), tuple(grid)


@pytest.mark.parametrize("trap", TRAPS)
def test_constructor_traps_raise_the_reference_message(trap):
    trace = SOLVED[1]  # all P=4 M=2 T=4
    actions, grid = _trapped(trap, trace)
    error = _reference_shape_error(trace.spec, actions, grid)
    assert (error is None) == (trap == "list rows")
    made = _outcome(ProtocolTrace, trace.spec, actions, grid)
    assert made == (("ok", ProtocolTrace(trace.spec, actions, grid)) if error is None
                    else ("TraceFormatError", error))
    if trap == "short and missing action rows":  # the width comes first, as in a file
        assert error == "dimension mismatch: 3 actions at t=1 for 4 processes"


@pytest.mark.parametrize("label", [7, None, True, ["listen"], "tx:9", "shout"])
def test_bad_action_labels_name_the_first_bad_cell(label):
    doc = json.loads(write_trace(SOLVED[1]))
    doc["actions"][2][3] = doc["actions"][3][1] = label
    text = json.dumps(doc)
    ours = _outcome(read_trace, text)
    assert ours == _outcome(_reference_read, text)
    assert ours[0] == "TraceFormatError" and ours[1].startswith("actions[2][3]")


# ---- files whose action rows repeat --------------------------------------------


def _repeating(rows: int = 40):
    """A file as `wide` writes them: all P=6 M=3 over 40 slots, whose action
    rows cycle through three distinct rows, so most rows repeat an earlier one."""
    spec = make_spec(processes=6, packets=3, horizon=rows, topology="all")
    cycle = [
        [transmit(1), LISTEN, LISTEN, SLEEP, LISTEN, LISTEN],
        [LISTEN, transmit(1), SLEEP, LISTEN, SLEEP, LISTEN],
        [SLEEP] * 6,
    ]
    return ProtocolTrace.from_actions(spec, [cycle[t % 3] for t in range(rows)])


REPEATING = _repeating()

# Cells no file may hold: labels out of range or misspelt, other JSON values,
# and the unhashable ones, which a row's tuple cannot be hashed with.
BAD_CELLS = ["tx:9", "tx:01", "shout", 7, None, True, 1.5, ["listen"], [], {"tx": 1}, {}]


def test_repeated_rows_share_one_tuple_and_equal_labels_one_action():
    trace = read_trace(write_trace(REPEATING))
    assert trace == REPEATING == _reference_read(write_trace(REPEATING))
    assert len({id(row) for row in trace.actions}) == 3
    assert len({id(act) for row in trace.actions for act in row}) == 3  # tx:1, listen, sleep
    assert all(trace.actions[t] is trace.actions[t % 3] for t in range(40))


REPEATED_ROW_DEFECTS = {  # the edits (slot, process or None for the row, value), the error's start
    "bad label in a copy of an earlier row": ([(20, 2, "tx:9")], "actions[20][2]"),
    "unknown label in a copy of an earlier row": ([(31, 5, "shout")], "actions[31][5]"),
    "number in a copy of an earlier row": ([(17, 0, 7)], "actions[17][0]"),
    "list cell in a later row": ([(25, 1, ["listen"])], "actions[25][1]"),
    "dict cell in a later row": ([(25, 4, {"tx": 1})], "actions[25][4]"),
    "non-list row after repeated rows": ([(25, None, "listen")], "actions must be"),
    "unhashable cell before a bad label": ([(10, 4, []), (12, 0, "shout")], "actions[10][4]"),
    "bad label before an unhashable cell": ([(10, 4, "shout"), (12, 0, {})], "actions[10][4]"),
    "unhashable cell after a bad label in its row": (
        [(14, 1, "tx:4"), (14, 3, ["tx:1"])], "actions[14][1]"),
    "new good label, then a bad one in a copy": ([(5, 2, "tx:0"), (8, 2, "tx:01")], "actions[8][2]"),
}


@pytest.mark.parametrize("defects, named", REPEATED_ROW_DEFECTS.values(), ids=REPEATED_ROW_DEFECTS)
def test_defects_among_repeated_rows_raise_the_reference_message(defects, named):
    doc = json.loads(write_trace(REPEATING))
    for t, p, cell in defects:
        if p is None:
            doc["actions"][t] = cell
        else:
            doc["actions"][t] = row = list(doc["actions"][t])  # no longer the row it repeated
            row[p] = cell
    text = json.dumps(doc, indent=2)  # keeps the separator before knowledge
    ours = _outcome(read_trace, text)
    assert ours == _outcome(_reference_read, text)
    assert ours[0] == "TraceFormatError" and ours[1].startswith(named)


@st.composite
def repeated_row_files(draw):
    """A file whose rows are drawn from a few distinct ones, with a few rows
    replaced by a copy of an earlier row in which one cell is another label,
    good or bad, or by a value that is no row."""
    P, M = draw(st.integers(1, 5), label="P"), draw(st.integers(0, 3), label="M")
    T = draw(st.integers(2, 30), label="T")
    spec = make_spec(processes=P, packets=M, horizon=T, topology="all")
    distinct = draw(st.lists(st.lists(st.sampled_from(list(action_domain(M))),
                                      min_size=P, max_size=P), min_size=1, max_size=3))
    rows = [draw(st.sampled_from(distinct)) for _ in range(T)]
    doc = json.loads(write_trace(ProtocolTrace.from_actions(spec, rows)))
    labels = [act.label for act in action_domain(M + 1)]
    for _ in range(draw(st.integers(0, 3), label="edits")):
        t = draw(st.integers(1, T - 1))
        if draw(st.integers(0, 9)) == 0:
            doc["actions"][t] = draw(st.sampled_from(["listen", 3, None, {"a": 1}]))
            continue
        earlier = doc["actions"][draw(st.integers(0, t - 1))]
        if isinstance(earlier, list) and earlier:
            doc["actions"][t] = row = list(earlier)
            row[draw(st.integers(0, P - 1))] = draw(st.sampled_from(labels + BAD_CELLS))
    return json.dumps(doc, indent=draw(st.sampled_from([None, 2])))


@settings(deadline=None)
@given(repeated_row_files())
def test_repeated_row_files_read_as_the_reference_reads_them(text):
    ours = _outcome(read_trace, text)
    assert ours == _outcome(_reference_read, text)
    if ours[0] == "ok":
        rows = ours[1].actions
        assert len({id(row) for row in rows}) == len(set(rows))


# ---- the written layout, read by its lines ---------------------------------------


def _shares_as_it_should(trace: ProtocolTrace) -> bool:
    """Equal rows are one tuple and equal cells one Action, as in a file read whole."""
    rows = trace.actions
    cells = [act for row in rows for act in row]
    return (len({id(row) for row in rows}) == len(set(rows))
            and len({id(act) for act in cells}) == len(set(cells)))


@st.composite
def written_files(draw):
    """A written file of a small spec, with up to three line-level edits."""
    P, M = draw(st.integers(1, 5), label="P"), draw(st.integers(0, 3), label="M")
    T = draw(st.integers(0, 6), label="T")
    topology = draw(st.sampled_from(["all", "line", "explicit"]), label="topology")
    if topology == "explicit":
        pairs = [(a, b) for a in range(P) for b in range(P) if a != b]
        topology = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    spec = make_spec(processes=P, packets=M, horizon=T, source=draw(st.integers(0, P - 1)),
                     topology=topology, liveness=draw(st.sampled_from(list(LivenessMode))))
    row = st.lists(st.sampled_from(list(action_domain(M))), min_size=P, max_size=P)
    pool = draw(st.lists(row, min_size=1, max_size=3), label="distinct rows")
    trace = ProtocolTrace.from_actions(spec, [draw(st.sampled_from(pool)) for _ in range(T)])
    lines = write_trace(trace).split("\n")
    for _ in range(draw(st.integers(0, 3), label="edits")):
        rows = list(range(3, lines.index("  ],"))) if "  ]," in lines else []  # none when T = 0
        at = draw(st.sampled_from(rows)) if rows else None
        edit = draw(st.sampled_from([
            "indent", "respace", "comma", "duplicate", "delete", "swap", "split", "escape",
            "second actions", "trailer"]))
        if edit == "indent":  # a row line or the spec line
            i = draw(st.sampled_from(rows + [1]))
            lines[i] = draw(st.sampled_from(["", " ", "  ", "      ", "\t"])) + lines[i].lstrip()
        elif edit == "respace":  # a row line or the spec line
            i = draw(st.sampled_from(rows + [1]))
            old, new = draw(st.sampled_from([('", "', '","'), ('["', '[ "'), ('"]', '" ]'), ('": ', '":')]))
            lines[i] = lines[i].replace(old, new)
        elif edit == "second actions":
            extra = json.dumps(draw(st.sampled_from([[], [[]], [["sleep"] * P] * T])))
            lines[-3] += f', "actions": {extra}'  # the line before the closing brace
        elif edit == "trailer":
            lines[-1] += draw(st.sampled_from([" ", "\n", "x", "{}", "\t\n"]))
        elif at is None:
            continue
        elif edit == "comma":
            lines[at] = lines[at][:-1] if lines[at].endswith(",") else lines[at] + ","
        elif edit == "duplicate":
            lines.insert(draw(st.sampled_from(rows)), lines[at])
        elif edit == "delete":
            del lines[at]
        elif edit == "swap":
            other = draw(st.sampled_from(rows))
            lines[at], lines[other] = lines[other], lines[at]
        elif edit == "split":
            lines[at] = lines[at].replace('", "', '",\n      "', 1)
        else:
            lines[at] = (lines[at].replace('"sleep"', '"sl\\u0065ep"')
                         .replace('"listen"', '"li\\u0073ten"').replace('"tx:', '"t\\u0078:'))
    return "\n".join(lines)


WRITTEN = write_trace(REPEATING)
ONE_ROW = write_trace(ProtocolTrace.from_actions(make_spec(processes=2, horizon=1), [[LISTEN, SLEEP]]))


@settings(deadline=None)
@given(written_files())
@example(WRITTEN + "x")  # bytes after the closing brace
@example(WRITTEN.replace('"actions": [', '"actions": {', 1).replace("\n  ],", "\n  },", 1))
@example(WRITTEN.replace('"actions"', '"Actions"', 1))  # another field
@example(ONE_ROW.replace('["listen", "sleep"]', '{"listen": 0, "sleep": 1}'))  # a row's keys are no row
def test_written_files_and_line_edits_read_as_the_reference_reads_them(text):
    ours = _outcome(read_trace, text)
    assert ours == _outcome(_reference_read, text)
    assert ours[0] != "ok" or _shares_as_it_should(ours[1])


def test_a_written_file_decodes_each_distinct_row_line_once(monkeypatch):
    import protoforge.trace as module

    def counted(name, calls):
        function = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or function(*args))

    whole, values = [], []
    counted("_document", whole)
    counted("_json_value", values)
    text = WRITTEN
    assert read_trace(text) == REPEATING and whole == []
    assert values[0] == (text, len('{\n  "spec": '))  # the spec, decoded in place
    lines = text.split("\n")
    assert values[1:] == [(lines[3][4:-1],), (lines[4][4:-1],), (lines[5][4:-1],)]
    for respaced in (text.replace("], [", "],["), json.dumps(json.loads(text), indent=2)):
        whole.clear()
        assert read_trace(respaced) == REPEATING and whole == [(respaced,)]
