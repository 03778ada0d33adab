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


@pytest.mark.parametrize(
    "act", [SLEEP, LISTEN, transmit(0), transmit(1), transmit(2), transmit(10), transmit(12)]
)
def test_label_round_trip(act):
    assert parse_action(act.label, packets=12) == act


def test_parse_rejects_out_of_range_code():
    with pytest.raises(ActionFormatError, match="unknown content code"):
        parse_action("tx:7", packets=1)
    with pytest.raises(ActionFormatError):
        parse_action("tx:-1", packets=1)
    with pytest.raises(ActionFormatError):
        parse_action("naptime", packets=1)


@pytest.mark.parametrize(
    "act, label, packet",
    [(SLEEP, "sleep", None), (LISTEN, "listen", None), (transmit(GARBAGE), "tx:0", None),
     (transmit(1), "tx:1", 1), (transmit(12), "tx:12", 12)],
)
def test_label_and_packet_are_set_at_construction(act, label, packet):
    assert (act.label, act.packet) == (label, packet)
    assert {"label", "packet"} <= vars(act).keys()  # plain attributes, not computed on read
    copy = act.replace()
    assert copy == act and (copy.label, copy.packet) == (label, packet)


def test_replace_sets_label_and_packet_again():
    act = transmit(1).replace(content=7)
    assert (act.label, act.packet) == ("tx:7", 7)
    garbage = act.replace(content=GARBAGE)
    assert (garbage.label, garbage.packet) == ("tx:0", None)
    assert SLEEP.replace(kind=ActionKind.LISTEN) == LISTEN
    assert SLEEP.replace(kind=ActionKind.LISTEN).label == "listen"


# texts label never writes; int() reads all but the last two as some code
@pytest.mark.parametrize(
    "text", ["tx:1_0", "tx: 2", "tx:+1", "tx:\u0662", "tx:01", "tx:2 ", "tx:00", "tx:-0", "tx:-01",
             "tx:", "tx:" + "9" * 5000],
)
def test_parse_accepts_only_the_labels_label_writes(text):
    with pytest.raises(ActionFormatError, match="bad transmit code in"):
        parse_action(text, packets=12)


def test_a_code_longer_than_the_digit_cap_is_a_bad_code():
    # refused by its length, not by whichever limit the interpreter puts
    # on int(); a code of 4,300 digits is still read and refused by value
    with pytest.raises(ActionFormatError, match="unknown content code 9{4300} with 12 packets"):
        parse_action("tx:" + "9" * 4300, packets=12)
    with pytest.raises(ActionFormatError, match="bad transmit code in"):
        parse_action("tx:" + "9" * 4301, packets=12)
