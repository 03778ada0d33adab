from __future__ import annotations

import itertools

import pytest

from protoforge.actions import action_domain
from protoforge.encoder import describe, encode
from protoforge.model import (
    GoalKind,
    LivenessMode,
    RequirementLabel,
    STRUCTURAL_LABELS,
    TAXONOMY,
)
from protoforge.trace import ProtocolTrace, validate
from conftest import make_spec
from oracle import satisfies

L = RequirementLabel


def test_cell_and_domain_counts_small():
    cs = encode(make_spec(processes=2, packets=1, horizon=1, topology="all"))
    assert cs.spec.horizon * cs.spec.processes == 2
    assert len(action_domain(cs.spec.packets)) == 4


def test_cell_and_domain_counts_medium():
    cs = encode(make_spec(processes=3, packets=2, horizon=2, topology="all"))
    assert cs.spec.horizon * cs.spec.processes == 6
    assert len(action_domain(cs.spec.packets)) == 5


def test_encode_rejects_invalid_spec():
    from protoforge.model import SpecValidationError

    with pytest.raises(SpecValidationError):
        encode(make_spec(source=9))


def test_liveness_off_grounds_no_r3():
    cs = encode(make_spec(processes=2, packets=1, horizon=1, topology="all"))
    counts = describe(cs).counts
    assert counts[L.R3_LIVENESS] == 0
    assert L.R3_LIVENESS not in cs.enabled


def test_goal_count_is_processes_times_packets():
    cs = encode(
        make_spec(processes=2, packets=1, horizon=1, topology="all", goal=GoalKind.ALL_KNOW_ALL)
    )
    assert describe(cs).counts[L.GOAL_DEADLINE] == 2


def _counts(spec):
    return [describe(encode(spec)).counts[label] for label in L]


def test_counts_partition_constraints():
    # one count per family, in TAXONOMY order: R1 R2 R3 R4 R5 R6 R7 GOAL TOPO
    cs = encode(
        make_spec(
            processes=3,
            packets=2,
            horizon=2,
            topology="line",
            liveness=LivenessMode.EACH_ACTION_ONCE,
        )
    )
    assert list(describe(cs).counts) == list(TAXONOMY)
    assert _counts(cs.spec) == [6, 6, 9, 6, 12, 12, 12, 6, 4]


def test_closed_form_counts_are_pinned():
    # literals counted atom by atom, not from the closed forms
    explicit = {(1, 0), (2, 0), (0, 2)}
    assert _counts(
        make_spec(processes=4, packets=1, horizon=3, topology="all", goal=GoalKind.NONE)
    ) == [12, 12, 0, 4, 12, 12, 12, 0, 36]
    assert _counts(
        make_spec(processes=3, packets=2, horizon=3, topology=explicit)
    ) == [9, 9, 0, 6, 18, 18, 18, 6, 9]
    assert _counts(
        make_spec(processes=3, packets=0, horizon=2, topology=set())
    ) == [6, 6, 0, 0, 0, 0, 0, 0, 0]


def test_enabled_reflects_problem_not_atom_counts():
    # empty hears relation and zero horizon still leave their families active
    cs = encode(
        make_spec(processes=2, packets=1, horizon=0, topology=set())
    )
    assert L.TOPO_HEARS_RELATION in cs.enabled
    assert L.R7_COLLISION_FREE_LEARNING in cs.enabled
    assert L.R1_EXACTLY_ONE_ACTION in cs.enabled


def test_disable_goal_flips_tight_instance_to_sat():
    from protoforge.solver import SolveStatus, solve

    cs = encode(make_spec(processes=2, packets=2, horizon=1, topology="all"))
    assert solve(cs).status is SolveStatus.UNSAT
    assert solve(cs.replace(enabled=cs.enabled - {L.GOAL_DEADLINE})).status is SolveStatus.SAT


def test_every_assignment_that_validates_delivers():
    # 4^6 assignments for the 3-node line instance: whichever satisfy all
    # requirements must deliver the packet to p1 and p2 by the deadline
    spec = make_spec(processes=3, packets=1, horizon=2, topology="line")
    cs = encode(spec)
    domain = action_domain(spec.packets)
    assert len(domain) ** (cs.spec.horizon * cs.spec.processes) == 4 ** 6
    seen_valid = 0
    for flat in itertools.product(domain, repeat=cs.spec.horizon * cs.spec.processes):
        actions = tuple(
            tuple(flat[t * spec.processes + p] for p in range(spec.processes))
            for t in range(spec.horizon)
        )
        trace = ProtocolTrace.from_actions(spec, actions)
        if satisfies(trace, cs.enabled):
            seen_valid += 1
            assert trace.knowledge[-1] == (0b111,)
    assert seen_valid > 0


def test_structural_labels_hold_for_random_assignments():
    import random

    spec = make_spec(processes=2, packets=2, horizon=3, topology="all")
    cs = encode(spec)
    domain = action_domain(spec.packets)
    rng = random.Random(3)
    for _ in range(200):
        actions = tuple(
            tuple(rng.choice(domain) for _ in range(spec.processes))
            for _ in range(spec.horizon)
        )
        trace = ProtocolTrace.from_actions(spec, actions)
        assert validate(trace, STRUCTURAL_LABELS) == []
