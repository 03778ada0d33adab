"""A problem as a finite-domain constraint system over one action variable
per (slot, process) cell.

Each cell's domain is actions.cell_values (M+3 values), so
exactly-one-action and the content bounds hold by construction, and the
search derives knowledge from the initial row and never lowers it, so
initial knowledge and never-forgets do too: these four families are
structural (model.STRUCTURAL_LABELS), and dropping one changes no
search. A constraint system is
the problem plus the set of enabled families, at first the ones
model.requirement_families says the problem states, and the search reads
only that set. The one grounding that spells the families out is the
SMT-LIB document (smt.emit_smtlib), with one named assertion per family
instance; smt.family_terms counts its terms per family.

Knowledge is a derived quantity (the learning rule is a function of the
actions), never a decision variable.
"""

from __future__ import annotations

from .model import NetworkSpec, Record, RequirementLabel, requirement_families
from .smt import family_terms


class ConstraintSystem(Record):
    __slots__ = ("spec", "enabled")

    def __init__(self, spec: NetworkSpec, enabled: frozenset[RequirementLabel]) -> None:
        self._store(spec, enabled)


def encode(spec: NetworkSpec) -> ConstraintSystem:
    """The system with every requirement family the problem states enabled."""
    return ConstraintSystem(spec, requirement_families(spec))


class SystemDescription(Record):
    __slots__ = ("counts",)

    def __init__(self, counts: dict[RequirementLabel, int]) -> None:
        self._store(counts)


def describe(cs: ConstraintSystem) -> SystemDescription:
    """smt.family_terms of cs's problem. Kept only for bench/tracing.py's
    encoder.atoms metric."""
    return SystemDescription(family_terms(cs.spec))
