"""A problem as a finite-domain constraint system over one action variable
per (slot, process) cell.

Each cell's domain is actions.action_domain (M+3 values), so
exactly-one-action and the content bounds hold by construction, and the
search derives knowledge from the initial row and never lowers it, so
initial knowledge and never-forgets do too: these four families are
structural (model.STRUCTURAL_LABELS), and dropping one changes no
search. A constraint system is
the problem plus the set of enabled families, at first the ones
model.requirement_families says the problem states, and the search reads
only that set. describe() counts each family's ground atoms in closed
form; the one grounding that spells them out is the SMT-LIB document
(smt.emit_smtlib), with one named assertion per family instance.

Knowledge is a derived quantity (the learning rule is a function of the
actions), never a decision variable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import NetworkSpec, Record, RequirementLabel, requirement_families


@dataclass(frozen=True)
class ConstraintSystem:
    spec: NetworkSpec
    enabled: frozenset[RequirementLabel]


def encode(spec: NetworkSpec) -> ConstraintSystem:
    """The system with every requirement family the problem states enabled."""
    return ConstraintSystem(spec, requirement_families(spec))


class SystemDescription(Record):
    __slots__ = ("counts",)

    def __init__(self, counts: dict[RequirementLabel, int]) -> None:
        object.__setattr__(self, "counts", counts)


def describe(cs: ConstraintSystem) -> SystemDescription:
    """Per-label ground atom counts, in closed form: one R1 and one R2 atom
    per cell, R3 one per (process, action kind) in liveness mode, R4 one
    per (process, packet), R5-R7 one per (slot, process, packet), GOAL one
    per (process, packet) when delivery is asked, and TOPO one per (slot,
    audible pair)."""
    spec = cs.spec
    P, M, T = spec.processes, spec.packets, spec.horizon
    L = RequirementLabel
    families = requirement_families(spec)
    counts = {
        L.R1_EXACTLY_ONE_ACTION: T * P,
        L.R2_CONTENT_DOMAIN: T * P,
        L.R3_LIVENESS: 3 * P if L.R3_LIVENESS in families else 0,
        L.R4_INITIAL_KNOWLEDGE: P * M,
        L.R5_TRANSMIT_ONLY_KNOWN: T * P * M,
        L.R6_NEVER_FORGETS: T * P * M,
        L.R7_COLLISION_FREE_LEARNING: T * P * M,
        L.GOAL_DEADLINE: P * M if L.GOAL_DEADLINE in families else 0,
        L.TOPO_HEARS_RELATION: T * sum(mask.bit_count() for mask in spec.topology.audience),
    }
    return SystemDescription(counts)
