"""Problem instances: network size, topology, liveness, goal, file format.

A problem names P processes (ids 0..P-1), M data packets (ids 1..M; 0 is
reserved for garbage), a slot horizon T, a single source process that
starts out holding every packet, who can hear whom, an optional liveness
obligation, and the delivery goal.

Spec files are UTF-8 text, one ``key = value`` per line, ``#`` comments,
whitespace-insensitive::

    processes = 3
    packets   = 1
    horizon   = 2
    source    = 0
    topology  = line          # all | line | explicit
    liveness  = off           # off | each-action-once
    goal      = all-know-all  # all-know-all | none

With ``topology = explicit`` each audible pair appears on its own
``hears <listener> <speaker>`` line. Every other key is mandatory exactly
once; unknown keys are rejected; parse errors report line numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

# Size limits on problems read from text, checked before anything grows
# with them: at most this many processes (so an `all` relation is at most
# 1024 masks of 1024 bits), and at most this many facts (horizon + 1) *
# processes * max(packets, 1) in the knowledge grid a trace file holds. A
# baseline runs its own 2 * processes * max(packets, 1) + 2 slot allowance,
# which this does not bound. Its trace holds a new period of packets rows
# of processes actions for each round in which a process joins, so it
# costs O(slots + rounds * packets * processes), with at most processes
# rounds.
MAX_PROCESSES = 1024
MAX_FACTS = 2 ** 24


class LivenessMode(Enum):
    OFF = "off"
    EACH_ACTION_ONCE = "each-action-once"


class GoalKind(Enum):
    ALL_KNOW_ALL = "all-know-all"
    NONE = "none"


class RequirementLabel(Enum):
    """Requirement families, in fixed taxonomy order."""

    R1_EXACTLY_ONE_ACTION = "R1_ExactlyOneAction"
    R2_CONTENT_DOMAIN = "R2_ContentDomain"
    R3_LIVENESS = "R3_Liveness"
    R4_INITIAL_KNOWLEDGE = "R4_InitialKnowledge"
    R5_TRANSMIT_ONLY_KNOWN = "R5_TransmitOnlyKnown"
    R6_NEVER_FORGETS = "R6_NeverForgets"
    R7_COLLISION_FREE_LEARNING = "R7_CollisionFreeLearning"
    GOAL_DEADLINE = "GOAL_Deadline"
    TOPO_HEARS_RELATION = "TOPO_HearsRelation"


TAXONOMY: tuple[RequirementLabel, ...] = tuple(RequirementLabel)

# Hold by construction of the cell domain; they can never be disabled.
STRUCTURAL_LABELS = frozenset(
    {RequirementLabel.R1_EXACTLY_ONE_ACTION, RequirementLabel.R2_CONTENT_DOMAIN}
)


def set_bits(mask: int) -> list[int]:
    """The positions of a mask's set bits, lowest first."""
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


@dataclass(frozen=True)
class Topology:
    """The hears relation as listener masks: bit l of audience[s] is set when l hears s."""

    audience: tuple[int, ...]

    def __post_init__(self) -> None:  # trailing empty masks go: equal relations compare equal
        masks = list(self.audience)
        while masks and not masks[-1]:
            masks.pop()
        object.__setattr__(self, "audience", tuple(masks))

    @property
    def hears(self) -> list[tuple[int, int]]:
        """The sorted (listener, speaker) pairs, as spec and trace files list them."""
        return sorted((l, s) for s, mask in enumerate(self.audience) for l in set_bits(mask))


def topology_all(processes: int) -> Topology:
    """Complete graph: everyone hears everyone else."""
    return Topology(tuple(((1 << processes) - 1) ^ (1 << s) for s in range(processes)))


def topology_line(processes: int) -> Topology:
    """Chain: process p hears only p-1."""
    return Topology(tuple(1 << (s + 1) for s in range(processes - 1)))


def topology_explicit(processes: int, pairs: Iterable[tuple[int, int]]) -> Topology:
    """The relation of the given (listener, speaker) pairs, each checked
    before it becomes a bit, so a hostile id never builds a mask. Raises
    SpecValidationError naming, in pair order, the reflexive pairs and,
    when processes >= 1, the pairs with an id out of range."""
    masks, bad = {}, []
    for l, s in pairs:
        if l != s and 0 <= l < processes and 0 <= s < processes:
            masks[s] = masks.get(s, 0) | 1 << l
        elif l == s or processes >= 1:
            bad.append((l, s))
    if bad:
        raise SpecValidationError([
            f"{'reflexive' if l == s else 'process id out of range in'} hears pair ({l}, {s})"
            for l, s in sorted(bad)
        ])
    return Topology(tuple(masks.get(s, 0) for s in range(max(masks, default=-1) + 1)))


class SpecError(ValueError):
    """Anything wrong with a problem description."""


class SpecParseError(SpecError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SpecValidationError(SpecError):
    def __init__(self, errors: list[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = tuple(errors)


@dataclass(frozen=True)
class NetworkSpec:
    """A usable problem instance: construction (dataclasses.replace too)
    raises SpecValidationError listing every semantic violation."""

    processes: int
    packets: int
    horizon: int
    source: int
    topology: Topology
    liveness: LivenessMode = LivenessMode.OFF
    goal: GoalKind = GoalKind.ALL_KNOW_ALL

    def __post_init__(self) -> None:
        P = self.processes
        errors: list[str] = []
        if P < 1:
            errors.append("processes must be >= 1")
        if self.packets < 0:
            errors.append("packets must be >= 0")
        if self.horizon < 0:
            errors.append("horizon must be >= 0")
        if P >= 1 and not 0 <= self.source < P:
            errors.append(f"source out of range: {self.source}")
        # stray bits: a speaker's own, those past P, and all of a speaker past P
        strays = [mask if s >= P else (mask >> P << P) | (mask & 1 << s)
                  for s, mask in enumerate(self.topology.audience)]
        try:  # the builder words them as the pairs they stand for
            topology_explicit(P, [(l, s) for s, bits in enumerate(strays) if bits
                                  for l in set_bits(bits)])
        except SpecValidationError as bad:
            errors += bad.errors
        if errors:
            raise SpecValidationError(errors)


def requirement_families(spec: NetworkSpec) -> frozenset[RequirementLabel]:
    """The families the problem states; the one rule that reads liveness and
    goal. R3 needs each-action-once liveness and GOAL the all-know-all goal;
    the rest bind every problem, even with no atoms (no hears pairs, T = 0).
    """
    families = set(TAXONOMY)
    if spec.liveness is not LivenessMode.EACH_ACTION_ONCE:
        families.discard(RequirementLabel.R3_LIVENESS)
    if spec.goal is not GoalKind.ALL_KNOW_ALL:
        families.discard(RequirementLabel.GOAL_DEADLINE)
    return frozenset(families)


_INT_KEYS = ("processes", "packets", "horizon", "source")
_ENUM_KEYS = {
    "topology": ("all", "line", "explicit"),
    "liveness": tuple(m.value for m in LivenessMode),
    "goal": tuple(g.value for g in GoalKind),
}
_ALL_KEYS = _INT_KEYS + tuple(_ENUM_KEYS)
_DECIMAL = re.compile(r"[+-]?[0-9]+")  # the integers a spec file spells


def _check_field(key: str, value: object) -> object:
    """Checks one field's value, integers already decoded; returns it."""
    if key in _INT_KEYS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(f"{key} must be an integer, got {value!r}")
    elif value not in _ENUM_KEYS[key]:
        allowed = " | ".join(_ENUM_KEYS[key])
        raise SpecError(f"{key} must be one of {allowed}, got {value!r}")
    return value


def _check_pair(
    ids: list, seen: set[tuple[int, int]], source: object
) -> tuple[int, int]:
    """Checks one hears entry against the pairs before it; `source` is the
    entry as its document gives it, for the error message."""
    if len(ids) != 2:
        raise SpecError("hears takes exactly two process ids")
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in ids):
        raise SpecError(f"hears ids must be integers: {source!r}")
    pair = (ids[0], ids[1])
    if pair in seen:
        raise SpecError(f"duplicate hears pair {pair}")
    return pair


def _assemble(
    fields: dict[str, object], hears: set[tuple[int, int]] | None
) -> NetworkSpec:
    """Builds the spec, which checks itself, from checked fields; `hears`
    is None when the source gives no hears entries. The size limits and
    stray hears entries are checked before any relation is built."""
    processes, horizon = fields["processes"], fields["horizon"]
    oversized = []
    if processes > MAX_PROCESSES:
        oversized.append(f"processes must be <= {MAX_PROCESSES}, got {processes}")
    facts = (horizon + 1) * processes * max(fields["packets"], 1)
    if processes >= 1 and horizon >= 0 and facts > MAX_FACTS:
        oversized.append(
            f"(horizon + 1) * processes * max(packets, 1) must be <= {MAX_FACTS}, got {facts}"
        )
    if oversized:
        raise SpecValidationError(oversized)
    if hears is not None and fields["topology"] != "explicit":
        raise SpecValidationError(["hears lines require topology = explicit"])
    if fields["topology"] == "all":
        topology = topology_all(processes)
    elif fields["topology"] == "line":
        topology = topology_line(processes)
    else:
        try:
            topology = topology_explicit(processes, hears or ())
        except SpecValidationError as bad:  # listed after the fields' own errors
            try:
                NetworkSpec(processes, fields["packets"], horizon, fields["source"], Topology(()))
            except SpecValidationError as wrong:
                raise SpecValidationError([*wrong.errors, *bad.errors]) from None
            raise
    return NetworkSpec(
        processes=processes,
        packets=fields["packets"],
        horizon=fields["horizon"],
        source=fields["source"],
        topology=topology,
        liveness=LivenessMode(fields["liveness"]),
        goal=GoalKind(fields["goal"]),
    )


def _decode_int(token: str) -> int | str:
    """The integer an ASCII decimal token such as 7, +3 or 007 spells, or the
    token itself; int() alone would also read 1_0 and non-ASCII digits."""
    return int(token) if _DECIMAL.fullmatch(token) else token


def parse_spec(text: str) -> NetworkSpec:
    """Parses the file format above; raises SpecParseError/SpecValidationError."""
    fields: dict[str, object] = {}
    hears: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.replace("=", " ").split()
        try:
            if tokens and tokens[0] == "hears":
                ids = [_decode_int(token) for token in tokens[1:]]
                hears.add(_check_pair(ids, hears, line))
                continue
            if "=" not in line:
                raise SpecError(f"expected key = value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _ALL_KEYS:
                raise SpecError(f"unknown key {key!r}")
            if key in fields:
                raise SpecError(f"duplicate key {key!r}")
            if not value:
                raise SpecError(f"missing value for {key!r}")
            if key in _INT_KEYS:
                value = _decode_int(value)
            fields[key] = _check_field(key, value)
        except SpecError as exc:
            raise SpecParseError(line_no, str(exc)) from None

    missing = [key for key in _ALL_KEYS if key not in fields]
    if missing:
        raise SpecParseError(len(text.splitlines()) + 1, f"missing keys: {', '.join(missing)}")
    return _assemble(fields, hears or None)


def topology_name(topology: Topology, processes: int) -> str:
    """Canonical file-format name for a spec's hears relation: a relation
    equal to a named one goes by that name."""
    if topology == topology_all(processes):
        return "all"
    return "line" if topology == topology_line(processes) else "explicit"


def render_spec(spec: NetworkSpec) -> str:
    """Writes the file format above. parse_spec(render_spec(s)) == s for valid s."""
    lines = []
    for key, value in spec_as_dict(spec).items():
        if key == "hears":
            lines.extend(f"hears {l} {s}" for l, s in value)
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def spec_as_dict(spec: NetworkSpec) -> dict:
    """JSON-friendly form used inside trace files; field order is fixed."""
    name = topology_name(spec.topology, spec.processes)
    obj: dict = {
        "processes": spec.processes,
        "packets": spec.packets,
        "horizon": spec.horizon,
        "source": spec.source,
        "topology": name,
    }
    if name == "explicit":
        obj["hears"] = [list(pair) for pair in spec.topology.hears]
    obj["liveness"] = spec.liveness.value
    obj["goal"] = spec.goal.value
    return obj


def spec_from_dict(obj: dict) -> NetworkSpec:
    """Inverse of spec_as_dict; raises SpecError on malformed input."""
    if not isinstance(obj, dict):
        raise SpecError(f"spec object must be a mapping, got {type(obj).__name__}")
    allowed = set(_ALL_KEYS) | {"hears"}
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise SpecError(f"unknown spec fields: {', '.join(unknown)}")
    missing = [key for key in _ALL_KEYS if key not in obj]
    if missing:
        raise SpecError(f"missing spec fields: {', '.join(missing)}")
    fields = {key: _check_field(key, obj[key]) for key in _ALL_KEYS}
    hears = None
    if "hears" in obj:
        entries = obj["hears"]
        if not isinstance(entries, list) or not all(isinstance(e, list) for e in entries):
            raise SpecError("hears must be a list of [listener, speaker] pairs")
        hears = set()
        for entry in entries:
            hears.add(_check_pair(entry, hears, entry))
    return _assemble(fields, hears)
