"""First-model ratchet: the verdict, the sha256 of the first trace and the
visited nodes of every system below, pinned in first_models.json.

The systems are the `boundary` benchmark's shapes (`all` with P 3-8, M 1-4
and every source; `line` with P 3-6, M 1-2; each at its least feasible
horizon and one below) and seeded random explicit relations with P <= 6,
liveness on and off. Each spec's full system comes first, then every trial
the unsat-core deletion loop makes on it, named by the families it drops.
Every search runs under one node limit, and a capped system is pinned as
capped.

A change to the search must keep every verdict and first trace and may
only lower the nodes. One that prunes more, or decides a capped system,
rewrites the pins with `PYTHONPATH=src python tests/test_first_models.py` and names the
systems it changed. test_frontier.py pins the hardest systems known the
same way, through outcomes and breaks below.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from protoforge.encoder import encode
from protoforge.model import STRUCTURAL_LABELS, TAXONOMY, GoalKind, LivenessMode
from protoforge.solver import SearchConfig, SolveStatus, solve
from protoforge.trace import write_trace
from conftest import make_spec

PINS = Path(__file__).with_name("first_models.json")
NODE_LIMIT = 20_000


def _specs():
    """(name, spec) pairs: the `boundary` shapes, then 200 seeded explicit ones."""
    for P in range(3, 9):
        for M in range(1, 5):
            for source in range(P):
                for T in (M, M - 1):
                    yield f"all P={P} M={M} T={T} s={source}", make_spec(
                        processes=P, packets=M, horizon=T, source=source, topology="all",
                    )
    for P in range(3, 7):
        for M in (1, 2):
            for T in ((P - 1) * M, (P - 1) * M - 1):
                yield f"line P={P} M={M} T={T}", make_spec(processes=P, packets=M, horizon=T)
    rng = random.Random(17)
    for i in range(200):
        P, M, T = rng.randint(1, 6), rng.randint(0, 3), rng.randint(0, 7)
        density = rng.choice([0.2, 0.4, 0.7])
        hears = {(l, s) for l in range(P) for s in range(P) if l != s and rng.random() < density}
        yield f"explicit #{i}", make_spec(
            processes=P, packets=M, horizon=T, source=rng.randrange(P), topology=hears,
            liveness=rng.choice(list(LivenessMode)),
            goal=rng.choice([GoalKind.ALL_KNOW_ALL] * 3 + [GoalKind.NONE]),
        )


def outcomes(specs=None, node_limit=NODE_LIMIT, trials=True):
    """Each system's name and [status, sha256 of the first trace or None,
    nodes], in order: a spec's full system, then, while it is unsat and
    `trials` holds, the trials of the deletion loop unsat_core_minimize runs.
    The specs are (name, spec) pairs, this file's own by default."""
    config = SearchConfig(node_limit=node_limit)
    for name, spec in specs or _specs():
        cs = encode(spec)

        def run(enabled):
            result = solve(cs.replace(enabled=enabled), config)
            trace = result.trace and write_trace(result.trace)
            sha = trace and hashlib.sha256(trace.encode()).hexdigest()
            dropped = ",".join(l.value.split("_")[0] for l in TAXONOMY if l in cs.enabled - enabled)
            return f"{name} -{dropped}" if dropped else name, [result.status.value, sha, result.stats.nodes]

        system, pin = run(cs.enabled)
        yield system, pin
        if not trials or pin[0] != SolveStatus.UNSAT.value:
            continue
        core = [l for l in TAXONOMY if l in cs.enabled and l not in STRUCTURAL_LABELS]
        for label in list(core):
            system, pin = run(frozenset(core) - {label})
            yield system, pin
            if pin[0] == SolveStatus.BUDGET_EXHAUSTED.value:
                break  # the loop stops at a capped trial
            if pin[0] == SolveStatus.UNSAT.value:
                core.remove(label)


def breaks(path, found):
    """The systems in `found` (name: outcome) that break the pins in `path`:
    a changed verdict or first trace, or more nodes."""
    pins = json.loads(path.read_text(encoding="utf-8"))
    assert list(found) == list(pins)
    return [
        f"{name}: pinned {pins[name]}, found {now}" for name, now in found.items()
        if now[:2] != pins[name][:2] or now[2] > pins[name][2]
    ]


def write_pins(path, found):
    lines = [f"  {json.dumps(name)}: {json.dumps(pin)}" for name, pin in found]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def test_first_models_and_nodes_hold_their_pins():
    assert breaks(PINS, dict(outcomes())) == []


def test_the_search_decodes_no_action_row(monkeypatch):
    # the search hands deliver the listening mask and sends it keeps per
    # cell; only the trace it returns is made of actions
    def refuse(*args):
        raise AssertionError("the search decoded an action row")

    monkeypatch.setattr("protoforge.trace._decode", refuse)
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    found = dict(outcomes())
    assert {name: now[:2] for name, now in found.items()} == {
        name: pin[:2] for name, pin in pins.items()
    }
    dropped = [name.partition(" -")[2].split(",") for name, now in found.items() if now[0] == "sat"]
    assert any("R7" not in labels for labels in dropped)
    assert any("R7" in labels for labels in dropped)
    assert any("TOPO" in labels and "R7" not in labels for labels in dropped)


if __name__ == "__main__":
    write_pins(PINS, outcomes())
