"""Per-slot process actions: sleep, listen, or transmit a content code."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

# Content code for a contentless transmission. It occupies the channel like
# any other transmission but carries no packet.
GARBAGE = 0


class ActionKind(Enum):
    SLEEP = "sleep"
    LISTEN = "listen"
    TRANSMIT = "transmit"


class ActionFormatError(ValueError):
    """A textual action label that does not describe a legal action."""


@dataclass(frozen=True)
class Action:
    """Exactly one of sleep, listen, or transmit-with-content.

    Transmit content is GARBAGE (0) or a packet id >= 1; sleep and listen
    carry no content. label and packet are computed once per instance.
    """

    kind: ActionKind
    content: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ActionKind):
            raise ValueError(f"action kind must be an ActionKind, got {self.kind!r}")
        if self.kind is ActionKind.TRANSMIT:
            if self.content is None or self.content < 0:
                raise ValueError(f"transmit needs a content code >= 0, got {self.content!r}")
        elif self.content is not None:
            raise ValueError(f"{self.kind.value} carries no content")

    @cached_property
    def packet(self) -> int | None:
        """Packet id being sent, or None when not sending a real packet."""
        if self.kind is ActionKind.TRANSMIT and self.content is not None and self.content >= 1:
            return self.content
        return None

    @cached_property
    def label(self) -> str:
        """Stable text form: "sleep", "listen", or "tx:<code>"."""
        if self.kind is ActionKind.TRANSMIT:
            return f"tx:{self.content}"
        return self.kind.value


SLEEP = Action(ActionKind.SLEEP)
LISTEN = Action(ActionKind.LISTEN)


def transmit(content: int) -> Action:
    return Action(ActionKind.TRANSMIT, content)


def parse_action(text: str, packets: int) -> Action:
    """Inverse of Action.label; transmit codes are checked against `packets`."""
    if text == "sleep":
        return SLEEP
    if text == "listen":
        return LISTEN
    if text.startswith("tx:"):
        try:
            code = int(text[3:])
        except ValueError:
            raise ActionFormatError(f"bad transmit code in {text!r}") from None
        if not 0 <= code <= packets:
            raise ActionFormatError(f"unknown content code {code} with {packets} packets")
        return transmit(code)
    raise ActionFormatError(f"unknown action {text!r}")


def action_domain(packets: int) -> tuple[Action, ...]:
    """Everything a cell can hold, in the search's value order: sleep,
    listen, packets 1..M ascending, garbage (quiet schedules first)."""
    ascending = tuple(transmit(k) for k in range(1, packets + 1))
    return (SLEEP, LISTEN) + ascending + (transmit(GARBAGE),)
