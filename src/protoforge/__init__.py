"""protoforge: schedule synthesis for slotted broadcast networks.

Problems name a process count, a packet set held by one source, a horizon,
and a hears relation; the toolkit states the requirement families as
constraints on one action per slot and process over the finite window,
searches for a schedule in which every process sleeps, listens, or
transmits each slot, and checks the result against an independent
validator. Infeasible problems yield a minimized conflicting requirement
set. A problem can be exported as an SMT-LIB 2 document, its one
grounding, with a named assertion per requirement instance; schedules can
be replayed in a slotted simulator and compared against an always-on
baseline for power use.
"""

from .actions import (
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
from .encoder import ConstraintSystem, describe, encode
from .model import (
    GoalKind,
    LivenessMode,
    NetworkSpec,
    RequirementLabel,
    STRUCTURAL_LABELS,
    SpecError,
    SpecParseError,
    SpecValidationError,
    TAXONOMY,
    hears,
    parse_spec,
    render_spec,
    topology_all,
    topology_explicit,
    topology_line,
)
from .sim import (
    PowerModel,
    SimReport,
    SimulationGuardError,
    compare,
    run_baseline,
    simulate_trace,
)
from .smt import (
    ExternalResult,
    ExternalSolverError,
    SmtDocument,
    SmtResponseError,
    SolverTimeout,
    emit_smtlib,
    parse_value_response,
    run_external,
)
from .solver import (
    SearchBudgetExceeded,
    SearchConfig,
    SolveResult,
    SolveStats,
    SolveStatus,
    min_horizon,
    solve,
    unsat_core_minimize,
)
from .trace import (
    ProtocolTrace,
    TraceFormatError,
    Violation,
    derive_knowledge,
    read_trace,
    write_trace,
)
from .trace import validate as validate_trace

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ActionFormatError",
    "ActionKind",
    "ConstraintSystem",
    "ExternalResult",
    "ExternalSolverError",
    "GARBAGE",
    "GoalKind",
    "LISTEN",
    "LivenessMode",
    "NetworkSpec",
    "PowerModel",
    "ProtocolTrace",
    "RequirementLabel",
    "SLEEP",
    "STRUCTURAL_LABELS",
    "SearchBudgetExceeded",
    "SearchConfig",
    "SimReport",
    "SimulationGuardError",
    "SmtDocument",
    "SmtResponseError",
    "SolveResult",
    "SolveStats",
    "SolveStatus",
    "SolverTimeout",
    "SpecError",
    "SpecParseError",
    "SpecValidationError",
    "TAXONOMY",
    "TraceFormatError",
    "Violation",
    "action_domain",
    "compare",
    "derive_knowledge",
    "describe",
    "emit_smtlib",
    "encode",
    "hears",
    "min_horizon",
    "parse_action",
    "parse_spec",
    "parse_value_response",
    "read_trace",
    "render_spec",
    "run_baseline",
    "run_external",
    "simulate_trace",
    "solve",
    "topology_all",
    "topology_explicit",
    "topology_line",
    "transmit",
    "unsat_core_minimize",
    "validate_trace",
    "write_trace",
]
