"""Spans for the traced run: each request's library calls, replayed from outside.

After every CLI request the traced run makes the same public library calls
the command's handler in protoforge.cli makes, each inside a span recorded
here. Spans stay in memory and are written with the run's record. A span
holds its name, start, end, parent (the request's cli.main span) and the
request id. Library spans are leaves, so a layer's self time is the sum of
its spans; cli.main's self time is each cli.main span minus the library
spans replayed for the same request.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

# Per-layer metrics in output order, with their units.
PER_LAYER_UNITS = {
    "model.parse_spec.calls": "count",
    "model.parse_spec.self_s": "s",
    "encoder.encode.self_s": "s",
    "encoder.atoms": "count",
    "solver.solve.calls": "count",
    "solver.solve.self_s": "s",
    "solver.solve.sat": "count",
    "solver.solve.unsat": "count",
    "solver.solve.budget": "count",
    "solver.solve.error": "count",
    "solver.decided_ratio": "ratio",
    "solver.unsat_core_minimize.self_s": "s",
    "trace.write_trace.self_s": "s",
    "trace.read_trace.self_s": "s",
    "trace.validate.self_s": "s",
    "trace.bytes": "bytes",
    "trace.violations": "count",
    "sim.simulate_trace.self_s": "s",
    "sim.run_baseline.self_s": "s",
    "sim.baseline_slots": "count",
    "smt.emit_smtlib.self_s": "s",
    "smt.text.self_s": "s",
    "smt.bytes": "bytes",
    "smt.assertions": "count",
    "cli.main.self_s": "s",
    "bench.trace_overhead_s": "s",
}

LIBRARY_SPANS = (
    "model.parse_spec",
    "encoder.encode",
    "solver.solve",
    "solver.unsat_core_minimize",
    "trace.write_trace",
    "trace.read_trace",
    "trace.validate",
    "sim.simulate_trace",
    "sim.run_baseline",
    "smt.emit_smtlib",
    "smt.text",
)

_STATUS = {"sat": "sat", "unsat": "unsat", "budget-exhausted": "budget"}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    error: str | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.request = -1
        self.parent: int | None = None
        self.overhead: Counter[int] = Counter()  # replay seconds per request

    def begin_request(self) -> None:
        self.request += 1

    def record(self, name: str, start: float, end: float, error: str | None = None) -> None:
        parent = None if name == "cli.main" else self.parent
        span = Span(len(self.spans), name, start, end, parent, self.request, error)
        self.spans.append(span)
        if name == "cli.main":
            self.parent = span.id

    def call(self, name: str, fn, *args):
        start = time.perf_counter()
        error = None
        try:
            return fn(*args)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self.record(name, start, time.perf_counter(), error)

    def spans_as_dicts(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def replay(p: SimpleNamespace, tracer: Tracer, command: str, case, spec: Path, trace: Path) -> None:
    """Makes the library calls of `command`'s CLI handler, each in a span."""
    start = time.perf_counter()
    try:
        _replay(p, tracer, command, case, spec, trace)
    except Exception:  # already recorded on the failing span
        pass
    tracer.overhead[tracer.request] += time.perf_counter() - start


def _replay(p: SimpleNamespace, tracer: Tracer, command: str, case, spec: Path, trace: Path) -> None:
    call, counts = tracer.call, tracer.counts
    if command in ("synth", "unsat-core", "baseline", "emit-smt"):
        problem = call("model.parse_spec", p.model.parse_spec, spec.read_text(encoding="utf-8"))
    if command in ("synth", "unsat-core"):
        cs = call("encoder.encode", p.encoder.encode, problem)
        counts["encoder.atoms"] += sum(p.encoder.describe(cs).counts.values())
        config = None
        if case.node_limit is not None:
            config = p.solver.SearchConfig(node_limit=case.node_limit)
        result = call("solver.solve", p.solver.solve, cs, config)
        counts[f"solver.solve.{_STATUS[result.status.value]}"] += 1
        if command == "synth" and result.trace is not None:
            text = call("trace.write_trace", p.trace.write_trace, result.trace)
            counts["trace.bytes"] += len(text.encode("utf-8"))
        if command == "unsat-core" and result.status is p.solver.SolveStatus.UNSAT:
            call("solver.unsat_core_minimize", p.solver.unsat_core_minimize, cs, config)
    elif command in ("validate", "simulate"):
        schedule = call("trace.read_trace", p.trace.read_trace, trace.read_text(encoding="utf-8"))
        if command == "validate":
            counts["trace.violations"] += len(call("trace.validate", p.trace.validate, schedule))
        else:
            call("sim.simulate_trace", p.sim.simulate_trace, schedule, p.sim.PowerModel(active_cost=1))
    elif command == "baseline":
        _, report = call("sim.run_baseline", p.sim.run_baseline, problem, p.sim.PowerModel(active_cost=1))
        counts["sim.baseline_slots"] += report.slots_run
    elif command == "emit-smt":
        document = call("smt.emit_smtlib", p.smt.emit_smtlib, problem)
        text = call("smt.text", lambda: document.text)
        counts["smt.bytes"] += len(text.encode("utf-8"))
        counts["smt.assertions"] += len(document.assertions)


def layer_metrics(tracer: Tracer, factors: list[float]) -> dict[str, float]:
    """Every per-layer metric, in PER_LAYER_UNITS order. Times are scaled by
    each request's machine-speed factor (see gauge.py)."""
    self_s: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    library_by_request: Counter[int] = Counter()
    errors: Counter[str] = Counter()
    for span in tracer.spans:
        seconds = (span.end - span.start) * factors[span.request]
        self_s[span.name] += seconds
        calls[span.name] += 1
        if span.error is not None:
            errors[span.name] += 1
        if span.name != "cli.main":
            library_by_request[span.request] += seconds
    cli_self = sum(
        (span.end - span.start) * factors[span.request] - library_by_request[span.request]
        for span in tracer.spans if span.name == "cli.main"
    )
    counts = tracer.counts
    decided = counts["solver.solve.sat"] + counts["solver.solve.unsat"]
    values = {
        "model.parse_spec.calls": calls["model.parse_spec"],
        "encoder.atoms": counts["encoder.atoms"],
        "solver.solve.calls": calls["solver.solve"],
        "solver.solve.sat": counts["solver.solve.sat"],
        "solver.solve.unsat": counts["solver.solve.unsat"],
        "solver.solve.budget": counts["solver.solve.budget"],
        "solver.solve.error": errors["solver.solve"],
        "solver.decided_ratio": decided / calls["solver.solve"] if calls["solver.solve"] else 0.0,
        "trace.bytes": counts["trace.bytes"],
        "trace.violations": counts["trace.violations"],
        "sim.baseline_slots": counts["sim.baseline_slots"],
        "smt.bytes": counts["smt.bytes"],
        "smt.assertions": counts["smt.assertions"],
        "cli.main.self_s": cli_self,
        "bench.trace_overhead_s": sum(s * factors[r] for r, s in tracer.overhead.items()),
    }
    values.update({f"{name}.self_s": self_s[name] for name in LIBRARY_SPANS})
    return {name: values[name] for name in PER_LAYER_UNITS}
