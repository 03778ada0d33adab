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
once; unknown keys are rejected; integers are read by read_int; parse
errors report line numbers. A hears line takes one match of _HEARS ("="
counts as whitespace) and one set insert; only a line these refuse, a
duplicate among them, is split into tokens to word its error.

A spec holds the hears relation in one form, spec.audience: exactly P
listener masks, bit l of audience[s] set when l hears s, as
topology_all, topology_line and topology_explicit build them. hears gives
the sorted (listener, speaker) pairs that spec and trace files list.

Record is the base of the package's immutable value types. A record's
fields are its __init__'s parameters, in order, and each __init__ ends,
after its checks, with one call to Record._store, which sets them in
that order with object.__setattr__, the package's one call of it. The
base compares and hashes the fields through one operator.attrgetter per
class, prints them as a dataclass does, and copies, pickles and
replace()s by calling __init__ again, so a rebuilt value is checked as a
new one is. A frozen dataclass instead compiles and runs six methods per
class at import, about 0.6 ms each, and importing dataclasses costs 13
ms, so the base imports it only to raise FrozenInstanceError on
assignment.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import attrgetter
from typing import Iterable, NoReturn, Sequence

# Size limits on problems read from text and on each horizon min_horizon
# solves, checked by check_size before anything grows with them: at most
# this many processes (so an `all` relation is at most 1024 masks of 1024
# bits), and at most this many facts (horizon + 1) * processes *
# max(packets, 1) in the knowledge grid a trace file holds.
# They bound the baseline too, whatever its slot allowance: it runs at most
# processes rounds, each one deliver call and one update of its single
# packets-long knowledge row, so it costs O(rounds * packets), at most
# processes * packets <= MAX_FACTS.
MAX_PROCESSES = 1024
MAX_FACTS = 2 ** 24


class LivenessMode(Enum):
    OFF = "off"
    EACH_ACTION_ONCE = "each-action-once"

    __hash__ = object.__hash__  # see RequirementLabel


class GoalKind(Enum):
    ALL_KNOW_ALL = "all-know-all"
    NONE = "none"

    __hash__ = object.__hash__  # see RequirementLabel


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

    # Members are singletons that compare by identity, so they may hash by
    # it too: object's hash is C code, and Enum's runs Python on every set
    # or dict lookup. No order of a set of labels was fixed before either:
    # Enum hashes the name, and str hashes differ from run to run.
    __hash__ = object.__hash__


TAXONOMY: tuple[RequirementLabel, ...] = tuple(RequirementLabel)

# The families the search holds by construction, whatever is enabled, so
# dropping one never changes its answer: R1 and R2 through the cell domain
# (one action per cell, contents in range), R4 and R6 because it derives
# knowledge from the source's initial row, and that knowledge never shrinks.
# The validator still checks all nine; no unsat core names these four.
STRUCTURAL_LABELS = frozenset({
    RequirementLabel.R1_EXACTLY_ONE_ACTION, RequirementLabel.R2_CONTENT_DOMAIN,
    RequirementLabel.R4_INITIAL_KNOWLEDGE, RequirementLabel.R6_NEVER_FORGETS,
})


def set_bits(mask: int) -> list[int]:
    """The positions of a mask's set bits, lowest first; a negative mask's are those below its
    bit_length. One lowest-bit step per set bit, so a sparse mask costs little whatever its
    length, while a dense one costs about twice a scan of every position."""
    mask &= (1 << mask.bit_length()) - 1  # a negative int has no end to its set bits
    bits = []
    while mask:
        bits.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return bits


class Record:
    """An immutable value whose fields are its __init__'s parameters (see
    the module docstring)."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        key = attrgetter(*cls._fields)

        # Closures over key, not methods that read it off the class: that
        # call is not specialised, as key is no function, and made equality
        # 10% slower than the dataclass's.
        def __eq__(self: Record, other: object) -> bool:
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self: Record) -> int:
            return hash(key(self))

        if "__eq__" not in vars(cls):  # a class with its own equality keeps its own hash
            cls.__eq__, cls.__hash__ = __eq__, __hash__

    def _store(self, *values: object) -> None:
        """Sets the fields, in _fields order, to values."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        _refuse(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        _refuse(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes: object) -> Record:
        """A copy with the given fields changed, built and checked by __init__."""
        for name in self._fields:  # a comprehension here was slower than dataclasses.replace
            if name not in changes:
                changes[name] = getattr(self, name)
        return self.__class__(**changes)


def _refuse(message: str) -> NoReturn:
    from dataclasses import FrozenInstanceError  # see the module docstring

    raise FrozenInstanceError(message)


def hears(audience: Sequence[int]) -> list[tuple[int, int]]:
    """The sorted (listener, speaker) pairs of listener masks, as spec and
    trace files list them."""
    return sorted((l, s) for s, mask in enumerate(audience) for l in set_bits(mask))


def topology_all(processes: int) -> tuple[int, ...]:
    """Complete graph: everyone hears everyone else."""
    return tuple(((1 << processes) - 1) ^ (1 << s) for s in range(processes))


def topology_line(processes: int) -> tuple[int, ...]:
    """Chain: process p hears only p-1."""
    return tuple(1 << s + 1 if s + 1 < processes else 0 for s in range(processes))


def topology_explicit(processes: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The listener masks of the given (listener, speaker) pairs, each checked
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
    return tuple(masks.get(s, 0) for s in range(processes))


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


class NetworkSpec(Record):
    """A usable problem instance: construction (replace too) raises
    SpecValidationError listing every semantic violation.

    audience is the hears relation as exactly P listener masks: bit l of
    audience[s] is set when l hears s. The constructor takes any sequence
    of masks, pads a shorter one with empty masks and keeps a tuple of P
    masks as it is, so replace shares it."""

    __slots__ = ("processes", "packets", "horizon", "source", "audience", "liveness", "goal")

    def __init__(
        self, processes: int, packets: int, horizon: int, source: int, audience: Sequence[int],
        liveness: LivenessMode = LivenessMode.OFF, goal: GoalKind = GoalKind.ALL_KNOW_ALL,
    ) -> None:
        P = processes
        errors = _field_errors(P, packets, horizon, source)
        # stray bits: a speaker's own, those past P, and all of a speaker past P
        strays = [mask if s >= P else (mask >> P << P) | (mask & 1 << s)
                  for s, mask in enumerate(audience)]
        if any(strays):
            try:  # topology_explicit words them as the pairs they stand for
                topology_explicit(P, [(l, s) for s, bits in enumerate(strays) if bits
                                      for l in set_bits(bits)])
            except SpecValidationError as bad:
                errors += bad.errors
        if errors:
            raise SpecValidationError(errors)
        if audience.__class__ is not tuple or len(audience) != P:  # past P every mask is empty
            audience = tuple(audience[:P]) + (0,) * (P - len(audience))
        self._store(processes, packets, horizon, source, audience, liveness, goal)


def _field_errors(processes: int, packets: int, horizon: int, source: int) -> list[str]:
    """The count and source errors of a spec, in field order."""
    errors = []
    if processes < 1:
        errors.append("processes must be >= 1")
    if packets < 0:
        errors.append("packets must be >= 0")
    if horizon < 0:
        errors.append("horizon must be >= 0")
    if processes >= 1 and not 0 <= source < processes:
        errors.append(f"source out of range: {source}")
    return errors


# Looked up once: reading an Enum member off its class is slow per request.
_EACH_ACTION_ONCE, _ALL_KNOW_ALL = LivenessMode.EACH_ACTION_ONCE, GoalKind.ALL_KNOW_ALL
# The families each problem states, per (each-action-once liveness,
# all-know-all goal): R3 needs the first and GOAL the second; the rest bind
# every problem, even with no atoms (no hears pairs, T = 0).
_FAMILIES = {
    (live, deliver): frozenset(
        label for label in TAXONOMY
        if (live or label is not RequirementLabel.R3_LIVENESS)
        and (deliver or label is not RequirementLabel.GOAL_DEADLINE)
    )
    for live in (False, True) for deliver in (False, True)
}


def requirement_families(spec: NetworkSpec) -> frozenset[RequirementLabel]:
    """The families the problem states; the one rule that reads liveness and
    goal (see _FAMILIES)."""
    return _FAMILIES[spec.liveness is _EACH_ACTION_ONCE, spec.goal is _ALL_KNOW_ALL]


_INT_KEYS = ("processes", "packets", "horizon", "source")
_LIVENESS = {mode.value: mode for mode in LivenessMode}
_GOALS = {goal.value: goal for goal in GoalKind}
# The relations a spec may name, by the name it gives them.
_NAMED = {"all": topology_all, "line": topology_line}
_ENUM_KEYS = {
    "topology": (*_NAMED, "explicit"),
    "liveness": tuple(_LIVENESS),
    "goal": tuple(_GOALS),
}
_ALL_KEYS = _INT_KEYS + tuple(_ENUM_KEYS)
_SPEC_FIELDS = frozenset((*_ALL_KEYS, "hears"))
# How spec files, trace labels and solver replies spell an integer: ASCII
# decimal, an optional sign, leading zeros allowed, at most 4,300 digits, so
# no interpreter's limit on int() decides what reads, nor str()'s what prints.
# int() alone would also read 1_0, any Unicode digit and surrounding whitespace.
_DIGITS = 4300
_DECIMAL = re.compile(rf"[+-]?[0-9]{{1,{_DIGITS}}}")
# A hears line as parse_spec's token walk accepts it, "=" read as whitespace.
_HEARS = re.compile(rf"[\s=]*hears[\s=]+({_DECIMAL.pattern})[\s=]+({_DECIMAL.pattern})[\s=]*")


def read_int(text: str) -> int | None:
    """The integer text such as 7, +3 or 007 spells (see _DECIMAL), or None.
    The one reader of integers from outside text."""
    return int(text) if _DECIMAL.fullmatch(text) else None


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
    listener, speaker = ids
    if (not isinstance(listener, int) or isinstance(listener, bool)
            or not isinstance(speaker, int) or isinstance(speaker, bool)):
        raise SpecError(f"hears ids must be integers: {source!r}")
    pair = (listener, speaker)
    if pair in seen:
        raise SpecError(f"duplicate hears pair {pair}")
    return pair


def check_size(processes: int, packets: int, horizon: int) -> None:
    """Raises SpecValidationError naming each size limit (see MAX_PROCESSES)
    that a problem of these dimensions breaks."""
    oversized = []
    if processes > MAX_PROCESSES:
        oversized.append(f"processes must be <= {MAX_PROCESSES}, got {processes}")
    facts = (horizon + 1) * processes * max(packets, 1)
    if processes >= 1 and horizon >= 0 and facts > MAX_FACTS:
        # each factor has at most _DIGITS digits, but their product may have more
        shown = facts if facts < 10**_DIGITS else f"a number of more than {_DIGITS} digits"
        oversized.append(
            f"(horizon + 1) * processes * max(packets, 1) must be <= {MAX_FACTS}, got {shown}"
        )
    if oversized:
        raise SpecValidationError(oversized)


def _assemble(
    fields: dict[str, object], hears: set[tuple[int, int]] | None
) -> NetworkSpec:
    """Builds the spec, which checks itself, from checked fields; `hears`
    is None when the source gives no hears entries. The size limits and
    stray hears entries are checked before any relation is built."""
    processes, packets, horizon = fields["processes"], fields["packets"], fields["horizon"]
    check_size(processes, packets, horizon)
    name = fields["topology"]
    if hears is not None and name != "explicit":
        raise SpecValidationError(["hears lines require topology = explicit"])
    if name in _NAMED:
        audience = _NAMED[name](processes)
    else:
        try:
            audience = topology_explicit(processes, hears or ())
        except SpecValidationError as bad:  # listed after the fields' own errors
            wrong = _field_errors(processes, packets, horizon, fields["source"])
            raise SpecValidationError([*wrong, *bad.errors]) from None
    return NetworkSpec(
        processes=processes,
        packets=packets,
        horizon=horizon,
        source=fields["source"],
        audience=audience,
        liveness=_LIVENESS[fields["liveness"]],
        goal=_GOALS[fields["goal"]],
    )


def parse_spec(text: str) -> NetworkSpec:
    """Parses the file format above; raises SpecParseError/SpecValidationError."""
    fields: dict[str, object] = {}
    hears: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        try:
            if "hears" in line:  # the token walk only words a refused line's error
                if match := _HEARS.fullmatch(line):  # its ids as read_int spells them
                    size = len(hears)
                    hears.add((int(match[1]), int(match[2])))
                    if len(hears) > size:  # not a duplicate
                        continue
                tokens = line.replace("=", " ").split()
                if tokens[0] == "hears":  # raises, as _check_pair accepts no line _HEARS refused
                    _check_pair([read_int(token) for token in tokens[1:]], hears, line)
            if "=" not in line:
                raise SpecError(f"expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _ALL_KEYS:
                raise SpecError(f"unknown key {key!r}")
            if key in fields:
                raise SpecError(f"duplicate key {key!r}")
            if not value:
                raise SpecError(f"missing value for {key!r}")
            if key in _INT_KEYS:  # a value that is no integer is named as written
                number = read_int(value)
                value = value if number is None else number
            fields[key] = _check_field(key, value)
        except SpecError as exc:
            raise SpecParseError(line_no, str(exc)) from None

    missing = [key for key in _ALL_KEYS if key not in fields]
    if missing:
        raise SpecParseError(len(text.splitlines()) + 1, f"missing keys: {', '.join(missing)}")
    return _assemble(fields, hears or None)


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
    """JSON-friendly form used inside trace files; field order is fixed. A
    relation equal to a named one goes by that name."""
    P, audience = spec.processes, spec.audience
    name = next((name for name, build in _NAMED.items() if audience == build(P)), "explicit")
    obj: dict = {
        "processes": spec.processes,
        "packets": spec.packets,
        "horizon": spec.horizon,
        "source": spec.source,
        "topology": name,
    }
    if name == "explicit":
        obj["hears"] = [list(pair) for pair in hears(audience)]
    obj["liveness"] = spec.liveness.value
    obj["goal"] = spec.goal.value
    return obj


def spec_from_dict(obj: dict) -> NetworkSpec:
    """Inverse of spec_as_dict; raises SpecError on malformed input."""
    if not isinstance(obj, dict):
        raise SpecError(f"spec object must be a mapping, got {type(obj).__name__}")
    unknown = sorted(obj.keys() - _SPEC_FIELDS)
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
