"""Per-slot process actions: sleep, listen, or transmit a content code.

An Action's `label` and `packet` are set when it is built; parse_action
accepts exactly the texts `label` writes, reading a transmit code with
model.read_int and keeping it only when `label` spells it the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .model import read_int

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


@dataclass(frozen=True)
class Action:
    """Exactly one of sleep, listen, or transmit-with-content.

    Transmit content is GARBAGE (0) or a packet id >= 1; sleep and listen
    carry no content. The constructor also sets two plain attributes, which
    are not fields: `label`, the stable text form ("sleep", "listen" or
    "tx:<code>"), and `packet`, the packet id being sent, or None when not
    sending a real packet.
    """

    kind: ActionKind
    content: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ActionKind):
            raise ValueError(f"action kind must be an ActionKind, got {self.kind!r}")
        if self.kind is ActionKind.TRANSMIT:
            if self.content is None or self.content < 0:
                raise ValueError(f"transmit needs a content code >= 0, got {self.content!r}")
            object.__setattr__(self, "label", f"tx:{self.content}")
            object.__setattr__(self, "packet", self.content or None)
        elif self.content is not None:
            raise ValueError(f"{self.kind.value} carries no content")
        else:
            object.__setattr__(self, "label", self.kind.value)
            object.__setattr__(self, "packet", None)


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


def action_domain(packets: int) -> tuple[Action, ...]:
    """Everything a cell can hold, in the search's value order: sleep,
    listen, packets 1..M ascending, garbage (quiet schedules first)."""
    ascending = tuple(transmit(k) for k in range(1, packets + 1))
    return (SLEEP, LISTEN) + ascending + (transmit(GARBAGE),)
