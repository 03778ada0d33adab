"""Grounds a problem into labeled finite-domain constraints over one action
variable per (slot, process) cell.

Each cell's domain is sleep, listen, garbage, plus one value per packet
(M+3 values), so exactly-one-action and the content bounds hold by
construction; those two families are structural and can never be disabled.
A constraint system is the problem plus the set of enabled families, and
the search reads only that set. The ground atoms, each tagged with its
label, are produced on demand by ground(), in listing order: one R1 and
one R2 atom per cell, then

    R3    one atom per (process, action kind), liveness mode only
    R4    one atom per (process, packet): initial knowledge
    R5    one atom per (slot, process, packet): transmit only known
    R6    one atom per (slot, process, packet): no forgetting
    R7    one atom per (slot, process, packet): collision-free learning
    GOAL  one atom per (process, packet): delivery by the deadline
    TOPO  one atom per (slot, audible pair): who may hear whom

Knowledge is a derived quantity (the learning rule is a function of the
actions), never a decision variable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .model import (
    GoalKind,
    LivenessMode,
    NetworkSpec,
    RequirementLabel,
    STRUCTURAL_LABELS,
    SpecValidationError,
    validate_spec,
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
        return self.spec.packets + 3


def encode(spec: NetworkSpec) -> ConstraintSystem:
    """Checks the instance and fixes which requirement families apply to it."""
    errors = validate_spec(spec)
    if errors:
        raise SpecValidationError(errors)
    L = RequirementLabel
    # Active families are fixed by the problem, not by whether grounding
    # happened to produce atoms: an empty hears relation or a zero horizon
    # still means the family binds (vacuously or by forbidding everything).
    enabled = {
        L.R1_EXACTLY_ONE_ACTION,
        L.R2_CONTENT_DOMAIN,
        L.R4_INITIAL_KNOWLEDGE,
        L.R5_TRANSMIT_ONLY_KNOWN,
        L.R6_NEVER_FORGETS,
        L.R7_COLLISION_FREE_LEARNING,
        L.TOPO_HEARS_RELATION,
    }
    if spec.liveness is not LivenessMode.OFF:
        enabled.add(L.R3_LIVENESS)
    if spec.goal is GoalKind.ALL_KNOW_ALL:
        enabled.add(L.GOAL_DEADLINE)
    return ConstraintSystem(spec=spec, enabled=frozenset(enabled))


def ground(spec: NetworkSpec) -> Iterator[GroundConstraint]:
    """Every ground atom of the instance, in listing order: taxonomy, then
    slot, process, packet and speaker. The spec must be valid, as encode
    checks."""
    P, M, T = spec.processes, spec.packets, spec.horizon
    L = RequirementLabel
    for t in range(T):
        for p in range(P):
            yield GroundConstraint(
                L.R1_EXACTLY_ONE_ACTION,
                f"cell (t={t}, p={p}) holds exactly one of sleep | listen | transmit",
                t=t, p=p,
            )
    for t in range(T):
        for p in range(P):
            yield GroundConstraint(
                L.R2_CONTENT_DOMAIN,
                f"content code at (t={t}, p={p}) lies in -1..{M}",
                t=t, p=p,
            )
    if spec.liveness is LivenessMode.EACH_ACTION_ONCE:
        for p in range(P):
            for kind in ("sleep", "listen", "transmit"):
                yield GroundConstraint(
                    L.R3_LIVENESS,
                    f"process {p} performs {kind} in some slot t < {T}",
                    p=p,
                )
    for p in range(P):
        for k in range(1, M + 1):
            if p == spec.source:
                text = f"source process {p} knows packet {k} at t=0"
            else:
                text = f"process {p} does not know packet {k} at t=0"
            yield GroundConstraint(L.R4_INITIAL_KNOWLEDGE, text, p=p, k=k)
    for t in range(T):
        for p in range(P):
            for k in range(1, M + 1):
                yield GroundConstraint(
                    L.R5_TRANSMIT_ONLY_KNOWN,
                    f"process {p} may transmit packet {k} at t={t} only if it knows it",
                    t=t, p=p, k=k,
                )
    for t in range(T):
        for p in range(P):
            for k in range(1, M + 1):
                yield GroundConstraint(
                    L.R6_NEVER_FORGETS,
                    f"process {p} keeps packet {k} from t={t} to t={t + 1}",
                    t=t, p=p, k=k,
                )
    for t in range(T):
        for p in range(P):
            for k in range(1, M + 1):
                yield GroundConstraint(
                    L.R7_COLLISION_FREE_LEARNING,
                    f"process {p} gains packet {k} at t={t + 1} only by listening to a "
                    f"lone audible transmitter at t={t}",
                    t=t, p=p, k=k,
                )
    if spec.goal is GoalKind.ALL_KNOW_ALL:
        for p in range(P):
            for k in range(1, M + 1):
                yield GroundConstraint(
                    L.GOAL_DEADLINE,
                    f"process {p} knows packet {k} at the deadline t={T}",
                    p=p, k=k,
                )
    for t in range(T):
        for listener, speaker in sorted(spec.topology.hears):
            yield GroundConstraint(
                L.TOPO_HEARS_RELATION,
                f"process {listener} may learn from process {speaker} at t={t}",
                t=t, p=listener, speaker=speaker,
            )


@dataclass(frozen=True)
class SystemDescription:
    counts: dict[RequirementLabel, int]
    lines: tuple[str, ...]

    def render(self) -> str:
        header = [
            f"{label.value}: {self.counts[label]}" for label in RequirementLabel
        ]
        return "\n".join(header + list(self.lines)) + "\n"

    def __str__(self) -> str:
        return self.render()


def describe(cs: ConstraintSystem) -> SystemDescription:
    """Per-label atom counts plus a deterministic listing of every atom."""
    counts = {label: 0 for label in RequirementLabel}
    lines = []
    for atom in ground(cs.spec):
        counts[atom.label] += 1
        lines.append(f"{atom.label.value}: {atom.text}")
    return SystemDescription(counts=counts, lines=tuple(lines))


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
