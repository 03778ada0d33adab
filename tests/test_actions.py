from __future__ import annotations

import pytest

from protoforge.actions import (
    GARBAGE,
    Action,
    ActionFormatError,
    ActionKind,
    LISTEN,
    SLEEP,
    action_domain,
    parse_action,
    transmit,
)


def test_domain_size_and_order():
    dom = action_domain(2)
    assert dom == (SLEEP, LISTEN, transmit(1), transmit(2), transmit(GARBAGE))
    assert len(action_domain(0)) == 3


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Action(ActionKind.SLEEP, content=1)
    with pytest.raises(ValueError):
        Action(ActionKind.TRANSMIT, content=None)
    with pytest.raises(ValueError):
        Action(ActionKind.TRANSMIT, content=-2)


def test_packet_is_none_unless_a_packet_is_sent():
    assert SLEEP.packet is None and LISTEN.packet is None
    assert transmit(GARBAGE).packet is None
    assert transmit(3).packet == 3


@pytest.mark.parametrize("act", [SLEEP, LISTEN, transmit(0), transmit(1), transmit(2)])
def test_label_round_trip(act):
    assert parse_action(act.label, packets=2) == act


def test_parse_rejects_out_of_range_code():
    with pytest.raises(ActionFormatError, match="unknown content code"):
        parse_action("tx:7", packets=1)
    with pytest.raises(ActionFormatError):
        parse_action("tx:-1", packets=1)
    with pytest.raises(ActionFormatError):
        parse_action("naptime", packets=1)
