"""Grounds a problem into labeled finite-domain constraints over one action
variable per (slot, process) cell.

Each cell's domain is actions.action_domain (M+3 values), so
exactly-one-action and the content bounds hold by construction; those two
families are structural and can never be disabled. A constraint system is
the problem plus the set of enabled families, at first the ones
model.requirement_families says the problem states, and the search reads
only that set. The ground atoms, each tagged with its label, are produced
on demand by ground(), in listing order: one R1 and one R2 atom per cell,
then

    R3    one atom per (process, action kind), liveness mode only
    R4    one atom per (process, packet): initial knowledge
    R5    one atom per (slot, process, packet): transmit only known
    R6    one atom per (slot, process, packet): no forgetting
    R7    one atom per (slot, process, packet): collision-free learning
    GOAL  one atom per (process, packet): delivery by the deadline, if asked
    TOPO  one atom per (slot, audible pair): who may hear whom

Knowledge is a derived quantity (the learning rule is a function of the
actions), never a decision variable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator

from .actions import action_domain
from .model import (
    NetworkSpec,
    RequirementLabel,
    STRUCTURAL_LABELS,
    requirement_families,
)


@dataclass(frozen=True)
class GroundConstraint:
    """One ground atom, identified by label and the indices it mentions."""

    label: RequirementLabel
    text: str
    t: int | None = None
    p: int | None = None
    k: int | None = None
    speaker: int | None = None


@dataclass(frozen=True)
class ConstraintSystem:
    spec: NetworkSpec
    enabled: frozenset[RequirementLabel]

    @property
    def cell_count(self) -> int:
        return self.spec.horizon * self.spec.processes

    @property
    def domain_size(self) -> int:
        return len(action_domain(self.spec.packets))


def encode(spec: NetworkSpec) -> ConstraintSystem:
    """The system with every requirement family the problem states enabled."""
    return ConstraintSystem(spec, requirement_families(spec))


def ground(spec: NetworkSpec) -> Iterator[GroundConstraint]:
    """Every ground atom of the instance, in listing order: taxonomy, then
    slot, process, packet and speaker."""
    P, M, T = spec.processes, spec.packets, spec.horizon
    L = RequirementLabel
    families = requirement_families(spec)
    cells = list(product(range(T), range(P)))
    facts = list(product(range(T), range(P), range(1, M + 1)))
    holdings = list(product(range(P), range(1, M + 1)))
    for t, p in cells:
        yield GroundConstraint(
            L.R1_EXACTLY_ONE_ACTION,
            f"cell (t={t}, p={p}) holds exactly one of sleep | listen | transmit",
            t=t, p=p,
        )
    for t, p in cells:
        yield GroundConstraint(
            L.R2_CONTENT_DOMAIN, f"content code at (t={t}, p={p}) lies in -1..{M}", t=t, p=p
        )
    if L.R3_LIVENESS in families:
        for p, kind in product(range(P), ("sleep", "listen", "transmit")):
            yield GroundConstraint(
                L.R3_LIVENESS, f"process {p} performs {kind} in some slot t < {T}", p=p
            )
    for p, k in holdings:
        if p == spec.source:
            text = f"source process {p} knows packet {k} at t=0"
        else:
            text = f"process {p} does not know packet {k} at t=0"
        yield GroundConstraint(L.R4_INITIAL_KNOWLEDGE, text, p=p, k=k)
    for t, p, k in facts:
        yield GroundConstraint(
            L.R5_TRANSMIT_ONLY_KNOWN,
            f"process {p} may transmit packet {k} at t={t} only if it knows it",
            t=t, p=p, k=k,
        )
    for t, p, k in facts:
        yield GroundConstraint(
            L.R6_NEVER_FORGETS,
            f"process {p} keeps packet {k} from t={t} to t={t + 1}",
            t=t, p=p, k=k,
        )
    for t, p, k in facts:
        yield GroundConstraint(
            L.R7_COLLISION_FREE_LEARNING,
            f"process {p} gains packet {k} at t={t + 1} only by listening to a "
            f"lone audible transmitter at t={t}",
            t=t, p=p, k=k,
        )
    if L.GOAL_DEADLINE in families:
        for p, k in holdings:
            yield GroundConstraint(
                L.GOAL_DEADLINE, f"process {p} knows packet {k} at the deadline t={T}", p=p, k=k
            )
    for t, (listener, speaker) in product(range(T), sorted(spec.topology.hears)):
        yield GroundConstraint(
            L.TOPO_HEARS_RELATION,
            f"process {listener} may learn from process {speaker} at t={t}",
            t=t, p=listener, speaker=speaker,
        )


@dataclass(frozen=True)
class SystemDescription:
    spec: NetworkSpec
    counts: dict[RequirementLabel, int]

    def render(self) -> str:
        header = [
            f"{label.value}: {self.counts[label]}" for label in RequirementLabel
        ]
        atoms = [f"{atom.label.value}: {atom.text}" for atom in ground(self.spec)]
        return "\n".join(header + atoms) + "\n"


def describe(cs: ConstraintSystem) -> SystemDescription:
    """Per-label atom counts, in closed form; render() lists every atom."""
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
        L.TOPO_HEARS_RELATION: T * len(spec.topology.hears),
    }
    return SystemDescription(spec, counts)


def disable(cs: ConstraintSystem, label: RequirementLabel) -> ConstraintSystem:
    """Copy of the system with one requirement family switched off.

    Structural families cannot be disabled; the atom listing never changes,
    only the enabled set does.
    """
    if label in STRUCTURAL_LABELS:
        raise ValueError(f"label is structural and cannot be disabled: {label.value}")
    if label not in cs.enabled:
        raise ValueError(f"label not enabled: {label.value}")
    return replace(cs, enabled=cs.enabled - {label})
