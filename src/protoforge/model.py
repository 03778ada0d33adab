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

from dataclasses import dataclass
from enum import Enum


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
_TAXONOMY_INDEX = {label: i for i, label in enumerate(TAXONOMY)}

# Hold by construction of the cell domain; they can never be disabled.
STRUCTURAL_LABELS = frozenset(
    {RequirementLabel.R1_EXACTLY_ONE_ACTION, RequirementLabel.R2_CONTENT_DOMAIN}
)


def taxonomy_index(label: RequirementLabel) -> int:
    return _TAXONOMY_INDEX[label]


@dataclass(frozen=True)
class Topology:
    """The hears relation: (listener, speaker) pairs that can communicate."""

    hears: frozenset[tuple[int, int]]


def topology_all(processes: int) -> Topology:
    """Complete graph: everyone hears everyone else."""
    pairs = frozenset(
        (l, s) for l in range(processes) for s in range(processes) if l != s
    )
    return Topology(pairs)


def topology_line(processes: int) -> Topology:
    """Chain: process p hears only p-1."""
    return Topology(frozenset((p, p - 1) for p in range(1, processes)))


@dataclass(frozen=True)
class NetworkSpec:
    processes: int
    packets: int
    horizon: int
    source: int
    topology: Topology
    liveness: LivenessMode = LivenessMode.OFF
    goal: GoalKind = GoalKind.ALL_KNOW_ALL


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


def validate_spec(spec: NetworkSpec) -> list[str]:
    """Returns the list of semantic violations; empty means the instance is usable."""
    errors: list[str] = []
    if spec.processes < 1:
        errors.append("processes must be >= 1")
    if spec.packets < 0:
        errors.append("packets must be >= 0")
    if spec.horizon < 0:
        errors.append("horizon must be >= 0")
    if spec.processes >= 1 and not 0 <= spec.source < spec.processes:
        errors.append(f"source out of range: {spec.source}")
    for listener, speaker in sorted(spec.topology.hears):
        if listener == speaker:
            errors.append(f"reflexive hears pair ({listener}, {speaker})")
        elif spec.processes >= 1 and not (
            0 <= listener < spec.processes and 0 <= speaker < spec.processes
        ):
            errors.append(f"process id out of range in hears pair ({listener}, {speaker})")
    return errors


_INT_KEYS = ("processes", "packets", "horizon", "source")
_ENUM_KEYS = {
    "topology": ("all", "line", "explicit"),
    "liveness": tuple(m.value for m in LivenessMode),
    "goal": tuple(g.value for g in GoalKind),
}
_ALL_KEYS = _INT_KEYS + tuple(_ENUM_KEYS)


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
    ids: list, seen: list[tuple[int, int]], source: object
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
    fields: dict[str, object], hears: list[tuple[int, int]] | None
) -> NetworkSpec:
    """Builds and validates the spec from checked fields; `hears` is None
    when the source gives no hears entries."""
    processes = fields["processes"]
    if fields["topology"] == "all":
        topology = topology_all(processes)
    elif fields["topology"] == "line":
        topology = topology_line(processes)
    else:
        topology = Topology(frozenset(hears or ()))
    if hears is not None and fields["topology"] != "explicit":
        raise SpecValidationError(["hears lines require topology = explicit"])
    spec = NetworkSpec(
        processes=processes,
        packets=fields["packets"],
        horizon=fields["horizon"],
        source=fields["source"],
        topology=topology,
        liveness=LivenessMode(fields["liveness"]),
        goal=GoalKind(fields["goal"]),
    )
    errors = validate_spec(spec)
    if errors:
        raise SpecValidationError(errors)
    return spec


def _decode_int(token: str) -> int | str:
    """The integer a token spells, or the token itself."""
    try:
        return int(token)
    except ValueError:
        return token


def parse_spec(text: str) -> NetworkSpec:
    """Parses the file format above; raises SpecParseError/SpecValidationError."""
    fields: dict[str, object] = {}
    hears: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.replace("=", " ").split()
        try:
            if tokens and tokens[0] == "hears":
                ids = [_decode_int(token) for token in tokens[1:]]
                hears.append(_check_pair(ids, hears, line))
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
    """Canonical file-format name for a hears relation."""
    if topology.hears == topology_all(processes).hears:
        return "all"
    if topology.hears == topology_line(processes).hears:
        return "line"
    return "explicit"


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
        obj["hears"] = [list(pair) for pair in sorted(spec.topology.hears)]
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
        hears = []
        for entry in entries:
            hears.append(_check_pair(entry, hears, entry))
    return _assemble(fields, hears)
