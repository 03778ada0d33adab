"""Per-slot process actions: sleep, listen, or transmit a content code.

An Action's `label` and `packet` are set when it is built; parse_action
accepts exactly the texts `label` writes, reading a transmit code with
model.read_int and keeping it only when `label` spells it the same way.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .model import Record, read_int

# Content code for a contentless transmission. It occupies the channel like
# any other transmission but carries no packet.
GARBAGE = 0


class ActionKind(Enum):
    SLEEP = "sleep"
    LISTEN = "listen"
    TRANSMIT = "transmit"

    __hash__ = object.__hash__  # see model.RequirementLabel


class ActionFormatError(ValueError):
    """A textual action label that does not describe a legal action."""


class Action(Record):
    """Exactly one of sleep, listen, or transmit-with-content.

    Transmit content is GARBAGE (0) or a packet id >= 1; sleep and listen
    carry no content. The constructor also sets two plain attributes, which
    are not fields: `label`, the stable text form ("sleep", "listen" or
    "tx:<code>"), and `packet`, the packet id being sent, or None when not
    sending a real packet. Action has no __slots__, so vars() shows all four.
    """

    def __init__(self, kind: ActionKind, content: int | None = None) -> None:
        if not isinstance(kind, ActionKind):
            raise ValueError(f"action kind must be an ActionKind, got {kind!r}")
        if kind is ActionKind.TRANSMIT:
            if content is None or content < 0:
                raise ValueError(f"transmit needs a content code >= 0, got {content!r}")
            label, packet = f"tx:{content}", content or None
        elif content is not None:
            raise ValueError(f"{kind.value} carries no content")
        else:
            label, packet = kind.value, None
        vars(self).update(kind=kind, content=content, label=label, packet=packet)


SLEEP = Action(ActionKind.SLEEP)
LISTEN = Action(ActionKind.LISTEN)


@lru_cache(maxsize=1024, typed=True)  # equal transmits share one Action across traces too
def transmit(content: int) -> Action:
    return Action(ActionKind.TRANSMIT, content)


def parse_action(text: str, packets: int) -> Action:
    """Inverse of Action.label; transmit codes are checked against `packets`."""
    if text == "sleep":
        return SLEEP
    if text == "listen":
        return LISTEN
    if text.startswith("tx:"):
        # only the spelling label writes: not tx:01 or tx:+1; a negative code
        # is read, and the range check refuses it by value
        code = read_int(text[3:])
        if code is None or str(code) != text[3:]:
            raise ActionFormatError(f"bad transmit code in {text!r}")
        if not 0 <= code <= packets:
            raise ActionFormatError(f"unknown content code {code} with {packets} packets")
        return transmit(code)
    raise ActionFormatError(f"unknown action {text!r}")


def cell_values(packets: int) -> list[tuple[ActionKind, int | None]]:
    """Everything a cell can hold, as (kind, content), in the search's value
    order: sleep, listen, packets 1..M ascending, garbage (quiet schedules
    first). No Action is built, so a spec with many packets costs a pair
    per packet here."""
    quiet = [(ActionKind.SLEEP, None), (ActionKind.LISTEN, None)]
    return quiet + [(ActionKind.TRANSMIT, k) for k in (*range(1, packets + 1), GARBAGE)]


def action_of(kind: ActionKind, content: int | None) -> Action:
    """The shared Action of that kind and content: SLEEP, LISTEN or transmit's."""
    if kind is ActionKind.TRANSMIT:
        return transmit(content)
    return SLEEP if kind is ActionKind.SLEEP else LISTEN


def action_domain(packets: int) -> tuple[Action, ...]:
    """cell_values(packets) as shared Actions, in the same order."""
    return tuple(action_of(kind, content) for kind, content in cell_values(packets))
