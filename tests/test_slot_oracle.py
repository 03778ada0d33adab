"""The slot-state oracle, oracle.first_trace, checked against enumerate_all
and the first-model and frontier pins; then the search checked against
the oracle's answers for the systems those pins leave capped.

slot_oracle.json holds, for each system of at most WRITER_PROCESSES
processes that first_models.json or frontier.json pins as capped at 20,000
nodes and that first_trace decides within WRITER_CAP slot states, the
oracle's verdict and the sha256 of its first trace. The search may decide
such a system only with that answer, so a bound that cuts a satisfiable
branch, or changes which model comes first, fails here even where no other
pin knows the answer. The file is rewritten with
`PYTHONPATH=src python tests/test_slot_oracle.py`, which takes about two
minutes; at seven processes and more, the oracle's rows of 3^P classes
outgrow a few hundred MB.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from protoforge.encoder import ConstraintSystem, encode
from protoforge.model import STRUCTURAL_LABELS, TAXONOMY
from protoforge.solver import SearchConfig, SolveStatus, solve
from protoforge.trace import write_trace
from conftest import R5_DROPPED
from oracle import StatesExceeded, enumerate_all, first_trace
import test_first_models
import test_frontier

PINS = Path(__file__).with_name("slot_oracle.json")
PINNED = {name: pin for path in (test_first_models.PINS, test_frontier.PINS)
          for name, pin in json.loads(path.read_text(encoding="utf-8")).items()}
SPECS = dict(test_first_models._specs()) | dict(test_frontier._specs()) | {
    "R5 dropped P=5 M=2 T=5 s=2": R5_DROPPED}
PREFIX = {label.value.split("_")[0]: label for label in TAXONOMY}  # as the pins name a drop
WRITER_PROCESSES, WRITER_CAP = 6, 1_000_000


def _system(name: str) -> ConstraintSystem:
    """The system a pin names: its spec's, less the families after " -"."""
    base, _, dropped = name.partition(" -")
    cs = encode(SPECS[base])
    return cs.replace(enabled=cs.enabled - {PREFIX[p] for p in dropped.split(",") if p})


def _answer(trace) -> list:
    """A verdict and first-trace sha256, as the pins hold them."""
    text = trace and write_trace(trace)
    return ["sat" if trace else "unsat", text and hashlib.sha256(text.encode()).hexdigest()]


def test_the_slot_oracle_finds_the_first_enumerated_model():
    # every first-model spec of at most 1,000 grids, and each system that
    # drops one of its non-structural families
    compared = 0
    for _, spec in test_first_models._specs():
        if (spec.packets + 3) ** (spec.processes * spec.horizon) > 1_000:
            continue
        cs = encode(spec)
        families = [label for label in TAXONOMY if label in cs.enabled - STRUCTURAL_LABELS]
        for enabled in [cs.enabled, *(cs.enabled - {label} for label in families)]:
            system = cs.replace(enabled=enabled)
            assert first_trace(system) == next(iter(enumerate_all(system, limit=1)), None)
            compared += 1
    assert compared == 605


def test_the_slot_oracle_holds_the_decided_pins():
    # the decided pins of systems with at most five processes, each within
    # 3,000 slot states or left out
    compared, capped = 0, 0
    for name, pin in PINNED.items():
        system = _system(name)
        if pin[0] == SolveStatus.BUDGET_EXHAUSTED.value or system.spec.processes > 5:
            continue
        try:
            assert _answer(first_trace(system, 3_000)) == pin[:2], name
            compared += 1
        except StatesExceeded:
            capped += 1
    assert (compared, capped) == (869, 10)


def test_the_search_holds_the_slot_oracle_pins():
    # each capped pin the oracle decides: the search at the pins' 20,000
    # nodes still stops on its budget, or gives the oracle's answer
    config = SearchConfig(node_limit=test_frontier.NODE_LIMIT)
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    wrong = []
    for name, pin in pins.items():
        result = solve(_system(name), config)
        if result.status is not SolveStatus.BUDGET_EXHAUSTED and _answer(result.trace) != pin:
            wrong.append(f"{name}: oracle {pin}, search {_answer(result.trace)}")
    assert wrong == []
    assert len(pins) == 36


def _oracle_pins():
    """Each capped pin's name and the oracle's answer, for those of at most
    WRITER_PROCESSES processes it decides within WRITER_CAP states."""
    for name, pin in PINNED.items():
        system = _system(name)
        if pin[0] == SolveStatus.BUDGET_EXHAUSTED.value and (
                system.spec.processes <= WRITER_PROCESSES):
            try:
                yield name, _answer(first_trace(system, WRITER_CAP))
            except StatesExceeded:
                print(f"{name}: more than {WRITER_CAP} slot states, left out")


if __name__ == "__main__":
    test_first_models.write_pins(PINS, _oracle_pins())
