"""Per-slot process actions: sleep, listen, or transmit a content code.

An Action's `label` and `packet` are set when it is built; parse_action
accepts exactly the texts `label` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

# Content code for a contentless transmission. It occupies the channel like
# any other transmission but carries no packet.
GARBAGE = 0

# The longest transmit code parse_action reads. A longer one is refused as a
# bad code rather than as an unknown one, on every interpreter; the figure is
# CPython's default limit on converting decimal text to int.
_MAX_CODE_DIGITS = 4300


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


def transmit(content: int) -> Action:
    return Action(ActionKind.TRANSMIT, content)


def parse_action(text: str, packets: int) -> Action:
    """Inverse of Action.label; transmit codes are checked against `packets`."""
    if text == "sleep":
        return SLEEP
    if text == "listen":
        return LISTEN
    if text.startswith("tx:"):
        # the codes label writes, ASCII decimal without a sign or a leading
        # zero, and negative ones, which the range check refuses by value;
        # int() alone would also read tx:01, tx:+1, tx:1_0 and tx: 2
        digits = text[3:].removeprefix("-")
        try:
            if not (digits.isascii() and digits.isdigit() and (digits[0] != "0" or text == "tx:0")):
                raise ValueError
            if len(digits) > _MAX_CODE_DIGITS:
                raise ValueError
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
