"""Frontier ratchet: the verdict, the sha256 of the first trace and the
visited nodes of the hardest systems known, pinned in frontier.json.

The systems are each-action-once `all` (P 4-8, M 2-4, source 0 and P-1, at
T = M+2 and M+1) and `line` (P 3-5, M 1-2, at T = M*(P-1)+1 and one below),
two-way chains (P 5-7, M=2, every source, T 4-8), seeded random relations
(edge probability 0.35, P 6/8/10, three each, M=2, T 3-6) and conftest's
DEAD_SLOTS and R5_DROPPED, the second with the trials of its unsat-core
deletion loop. Systems are run and named as in
test_first_models.py, whose outcomes and breaks this file reuses, and a
capped system is pinned as capped.

The ratchet is the same: every verdict and first trace holds and nodes may
only fall. A change that decides a capped system rewrites the pins with
`PYTHONPATH=src python tests/test_frontier.py` and names the systems it
changed, with the file's capped count and node total before and after.
"""

from __future__ import annotations

import random
from pathlib import Path

from protoforge.model import LivenessMode
from conftest import DEAD_SLOTS, R5_DROPPED, make_spec
from test_first_models import breaks, outcomes, write_pins

PINS = Path(__file__).with_name("frontier.json")
NODE_LIMIT = 20_000
LIVE = LivenessMode.EACH_ACTION_ONCE


def _specs():
    """(name, spec) pairs, family by family as the module doc lists them."""
    for P in range(4, 9):
        for M in (2, 3, 4):
            for source in (0, P - 1):
                for T in (M + 2, M + 1):
                    yield f"all live P={P} M={M} T={T} s={source}", make_spec(
                        processes=P, packets=M, horizon=T, source=source, topology="all",
                        liveness=LIVE,
                    )
    for P in (3, 4, 5):
        for M in (1, 2):
            for T in (M * (P - 1) + 1, M * (P - 1)):
                yield f"line live P={P} M={M} T={T}", make_spec(
                    processes=P, packets=M, horizon=T, liveness=LIVE,
                )
    for P in (5, 6, 7):
        chain = {pair for p in range(1, P) for pair in ((p, p - 1), (p - 1, p))}
        for source in range(P):
            for T in range(4, 9):
                yield f"two-way chain P={P} M=2 T={T} s={source}", make_spec(
                    processes=P, packets=2, horizon=T, source=source, topology=chain,
                )
    rng = random.Random(7)
    for P in (6, 8, 10):
        for graph in range(3):
            hears = {(l, s) for l in range(P) for s in range(P) if l != s and rng.random() < 0.35}
            for T in range(3, 7):
                yield f"rand P={P} #{graph} T={T}", make_spec(
                    processes=P, packets=2, horizon=T, topology=hears,
                )
    yield "dead slots P=6 M=1 T=3 s=1", DEAD_SLOTS


def _outcomes():
    """outcomes of every system: only R5_DROPPED brings its deletion-loop
    trials, which the others would triple in number and in time."""
    yield from outcomes(_specs(), NODE_LIMIT, trials=False)
    yield from outcomes([("R5 dropped P=5 M=2 T=5 s=2", R5_DROPPED)], NODE_LIMIT)


def test_frontier_holds_its_pins():
    assert breaks(PINS, dict(_outcomes())) == []


if __name__ == "__main__":
    write_pins(PINS, _outcomes())
