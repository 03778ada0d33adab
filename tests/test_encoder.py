from __future__ import annotations

import itertools

import pytest

from protoforge.actions import action_domain
from protoforge.encoder import describe, disable, encode, ground
from protoforge.model import (
    GoalKind,
    LivenessMode,
    RequirementLabel,
    TAXONOMY,
    Topology,
    topology_line,
)
from protoforge.trace import ProtocolTrace, satisfies, validate
from conftest import make_spec

L = RequirementLabel


def test_cell_and_domain_counts_small():
    cs = encode(make_spec(processes=2, packets=1, horizon=1, topology="all"))
    assert cs.cell_count == 2
    assert cs.domain_size == 4


def test_cell_and_domain_counts_medium():
    cs = encode(make_spec(processes=3, packets=2, horizon=2, topology="all"))
    assert cs.cell_count == 6
    assert cs.domain_size == 5


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


def test_topo_atoms_reference_only_line_pairs():
    cs = encode(make_spec(processes=3, packets=1, horizon=2, topology="line"))
    topo_atoms = [c for c in ground(cs.spec) if c.label is L.TOPO_HEARS_RELATION]
    assert {(c.p, c.speaker) for c in topo_atoms} == {(1, 0), (2, 1)}


def test_counts_partition_constraints():
    cs = encode(
        make_spec(
            processes=3,
            packets=2,
            horizon=2,
            topology="line",
            liveness=LivenessMode.EACH_ACTION_ONCE,
        )
    )
    counts = describe(cs).counts
    assert set(counts) == set(L)
    assert sum(counts.values()) == len(list(ground(cs.spec)))


def test_ground_yields_atoms_in_listing_order():
    # taxonomy index, then t, p, k, speaker, with absent indices first
    def listing_key(atom):
        coords = (atom.t, atom.p, atom.k, atom.speaker)
        return (TAXONOMY.index(atom.label),) + tuple(-1 if v is None else v for v in coords)

    for spec in (
        make_spec(processes=3, packets=2, horizon=3, topology="all",
                  liveness=LivenessMode.EACH_ACTION_ONCE),
        make_spec(processes=4, packets=1, horizon=2, source=2,
                  topology=Topology(frozenset({(3, 0), (0, 3), (1, 2), (0, 1)}))),
    ):
        atoms = list(ground(spec))
        keys = [listing_key(atom) for atom in atoms]
        assert keys == sorted(keys)
        assert {atom.label for atom in atoms} >= set(L) - {L.R3_LIVENESS}


def test_describe_is_deterministic():
    spec = make_spec(processes=3, packets=2, horizon=2, topology="line")
    assert describe(encode(spec)).render() == describe(encode(spec)).render()


def test_enabled_reflects_problem_not_atom_counts():
    # empty hears relation and zero horizon still leave their families active
    cs = encode(
        make_spec(processes=2, packets=1, horizon=0, topology=Topology(frozenset()))
    )
    assert L.TOPO_HEARS_RELATION in cs.enabled
    assert L.R7_COLLISION_FREE_LEARNING in cs.enabled
    assert L.R1_EXACTLY_ONE_ACTION in cs.enabled


def test_disable_goal_then_structural_then_missing():
    cs = encode(make_spec(processes=2, packets=2, horizon=1, topology="all"))
    weaker = disable(cs, L.GOAL_DEADLINE)
    assert L.GOAL_DEADLINE not in weaker.enabled
    assert list(ground(weaker.spec)) == list(ground(cs.spec))
    assert weaker.cell_count == cs.cell_count
    with pytest.raises(ValueError, match="structural"):
        disable(cs, L.R1_EXACTLY_ONE_ACTION)
    with pytest.raises(ValueError, match="structural"):
        disable(cs, L.R2_CONTENT_DOMAIN)
    with pytest.raises(ValueError, match="not enabled"):
        disable(weaker, L.GOAL_DEADLINE)


def test_disable_goal_flips_tight_instance_to_sat():
    from protoforge.solver import SolveStatus, solve

    cs = encode(make_spec(processes=2, packets=2, horizon=1, topology="all"))
    assert solve(cs).status is SolveStatus.UNSAT
    assert solve(disable(cs, L.GOAL_DEADLINE)).status is SolveStatus.SAT


def test_every_assignment_that_validates_delivers():
    # 4^6 assignments for the 3-node line instance: whichever satisfy all
    # requirements must deliver the packet to p1 and p2 by the deadline
    spec = make_spec(processes=3, packets=1, horizon=2, topology="line")
    cs = encode(spec)
    domain = action_domain(spec.packets)
    assert cs.domain_size ** cs.cell_count == 4 ** 6
    seen_valid = 0
    for flat in itertools.product(domain, repeat=cs.cell_count):
        actions = tuple(
            tuple(flat[t * spec.processes + p] for p in range(spec.processes))
            for t in range(spec.horizon)
        )
        trace = ProtocolTrace.from_actions(spec, actions)
        if satisfies(trace, cs.enabled):
            seen_valid += 1
            assert trace.knowledge[-1] == ((True,), (True,), (True,))
    assert seen_valid > 0


def test_structural_labels_hold_for_random_assignments():
    import random

    spec = make_spec(processes=2, packets=2, horizon=3, topology="all")
    cs = encode(spec)
    domain = action_domain(spec.packets)
    rng = random.Random(3)
    structural = frozenset({L.R1_EXACTLY_ONE_ACTION, L.R2_CONTENT_DOMAIN})
    for _ in range(200):
        actions = tuple(
            tuple(rng.choice(domain) for _ in range(spec.processes))
            for _ in range(spec.horizon)
        )
        trace = ProtocolTrace.from_actions(spec, actions)
        assert validate(trace, structural) == []
