"""Command-line front end.

Exit codes: 0 success or Sat, 1 Unsat or horizon not found, 2 validation
violations, 3 usage error, 4 I/O, format, or external-solver failure,
5 search budget exhausted.

Human-readable output comes first; with --json the last thing printed is
a machine block starting at the first "{" on its own line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .encoder import encode
from .model import NetworkSpec, RequirementLabel, parse_spec, taxonomy_index
from .sim import (
    PowerModel,
    SimulationGuardError,
    compare as compare_reports,
    render_report,
    report_as_dict,
    run_baseline,
    simulate_trace,
)
from .smt import ExternalSolverError, emit_smtlib, parse_value_response, run_external
from .solver import (
    HorizonUndecided,
    SearchBudgetExceeded,
    SearchConfig,
    SolveStatus,
    min_horizon,
    solve,
    unsat_core_minimize,
)
from .trace import ProtocolTrace, read_trace, validate, write_trace

SOLVER_ENV = "PROTOFORGE_SOLVER"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="protoforge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def cmd(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="append a machine block")
        return p

    p = cmd("synth", "synthesize a schedule for a problem file")
    p.add_argument("spec", help="problem file")
    p.add_argument("--out", help="trace file to write on Sat")
    p.add_argument("--node-limit", type=int, help="search budget in visited nodes")

    p = cmd("min-horizon", "find the smallest feasible horizon")
    p.add_argument("spec", help="problem file")
    p.add_argument("--max", type=int, required=True, help="largest horizon to try")
    p.add_argument("--out", help="trace file to write when found")
    p.add_argument("--node-limit", type=int, help="search budget per horizon")

    p = cmd("validate", "check a trace file against every requirement")
    p.add_argument("trace", help="trace file")

    p = cmd("unsat-core", "minimize the conflicting requirement set")
    p.add_argument("spec", help="problem file")
    p.add_argument("--node-limit", type=int, help="search budget per solve")

    p = cmd("emit-smt", "write the SMT-LIB 2 form, optionally run a solver")
    p.add_argument("spec", help="problem file")
    p.add_argument("--out", help="file for the document (default stdout)")
    p.add_argument(
        "--solver",
        help=f"external solver command reading SMT-LIB 2 on stdin (default ${SOLVER_ENV})",
    )
    p.add_argument("--timeout", type=float, help="seconds to allow the solver")
    p.add_argument("--trace-out", help="trace file to write when the solver says sat")

    p = cmd("simulate", "replay a trace and report power and delivery")
    p.add_argument("trace", help="trace file")
    p.add_argument("--pw", type=int, default=1, help="power units per active slot")

    p = cmd("baseline", "run the always-on policy on a problem file")
    p.add_argument("spec", help="problem file")
    p.add_argument("--pw", type=int, default=1, help="power units per active slot")
    p.add_argument("--max-slots", type=int, help="slot allowance before giving up")

    p = cmd("compare", "synthesized schedule vs the always-on policy")
    p.add_argument("spec", help="problem file")
    p.add_argument("--pw", type=int, default=1, help="power units per active slot")
    p.add_argument("--node-limit", type=int, help="search budget in visited nodes")

    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_spec(path: str) -> NetworkSpec:
    return parse_spec(_read(path))


def _load_trace(path: str) -> ProtocolTrace:
    return read_trace(_read(path))


def _config(args: argparse.Namespace) -> SearchConfig | None:
    limit = getattr(args, "node_limit", None)
    if limit is None:
        return None
    return SearchConfig(node_limit=limit)


def _core_line(labels: frozenset[RequirementLabel]) -> str:
    ordered = sorted(labels, key=taxonomy_index)
    return " ".join(label.value for label in ordered)


def _print_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _trace_obj(trace: ProtocolTrace) -> dict:
    return json.loads(write_trace(trace))


def _render_actions(trace: ProtocolTrace) -> str:
    lines = []
    for t, row in enumerate(trace.actions):
        lines.append(f"t={t}: " + " ".join(act.label for act in row))
    return "\n".join(lines)


def _synthesize(args: argparse.Namespace, spec: NetworkSpec) -> ProtocolTrace | int:
    """The first schedule for the spec, or the exit code once an exhausted
    budget or an Unsat verdict with its core has been reported."""
    result = solve(encode(spec), _config(args))
    if result.status is SolveStatus.BUDGET_EXHAUSTED:
        print("budget exhausted", file=sys.stderr)
        return 5
    if result.status is SolveStatus.UNSAT:
        core = _core_line(result.core.labels)
        print("unsat")
        print(f"core: {core}")
        if args.json:
            _print_json({"status": "unsat", "core": core.split()})
        return 1
    return result.trace


def _cmd_synth(args: argparse.Namespace) -> int:
    trace = _synthesize(args, _load_spec(args.spec))
    if isinstance(trace, int):
        return trace
    print("sat")
    if args.out:
        _write(args.out, write_trace(trace))
        print(f"wrote {args.out}")
    else:
        print(_render_actions(trace))
    if args.json:
        _print_json({"status": "sat", "trace": _trace_obj(trace)})
    return 0


def _cmd_min_horizon(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    if args.max < 0:
        raise UsageError("--max must be >= 0")
    found = min_horizon(spec, args.max, _config(args))
    if found is None:
        print(f"no feasible horizon up to {args.max}")
        if args.json:
            _print_json({"found": False, "t_min": None})
        return 1
    t_min, trace = found
    print(f"t_min: {t_min}")
    if args.out:
        _write(args.out, write_trace(trace))
        print(f"wrote {args.out}")
    else:
        print(_render_actions(trace))
    if args.json:
        _print_json({"found": True, "t_min": t_min, "trace": _trace_obj(trace)})
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    violations = validate(trace)
    for v in violations:
        where = []
        if v.time is not None:
            where.append(f"t={v.time}")
        if v.process is not None:
            where.append(f"p={v.process}")
        place = " " + ",".join(where) if where else ""
        print(f"{v.label.value}{place}: {v.detail}")
    if args.json:
        _print_json(
            {
                "ok": not violations,
                "violations": [
                    {
                        "label": v.label.value,
                        "time": v.time,
                        "process": v.process,
                        "detail": v.detail,
                    }
                    for v in violations
                ],
            }
        )
    return 2 if violations else 0


def _cmd_unsat_core(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    cs = encode(spec)
    result = solve(cs, _config(args))
    if result.status is SolveStatus.BUDGET_EXHAUSTED:
        print("budget exhausted", file=sys.stderr)
        return 5
    if result.status is SolveStatus.SAT:
        print("sat (no unsat core)")
        if args.json:
            _print_json({"status": "sat", "core": None})
        return 0
    core = unsat_core_minimize(cs, _config(args))
    for label in sorted(core.labels, key=taxonomy_index):
        print(label.value)
    if args.json:
        _print_json({"status": "unsat", "core": _core_line(core.labels).split()})
    return 1


def _cmd_emit_smt(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    document = emit_smtlib(spec)
    if args.out:
        _write(args.out, document.text)
        print(f"wrote {args.out}")
    solver = args.solver or os.environ.get(SOLVER_ENV) or None
    if solver is None:
        if not args.out:
            sys.stdout.write(document.text)
        if args.json:
            _print_json({"out": args.out, "status": None})
        return 0
    result = run_external(solver, document, timeout=args.timeout)
    print(result.status)
    payload: dict = {"out": args.out, "status": result.status, "trace": None}
    code = 0
    if result.status == "sat":
        trace = parse_value_response(result.output, spec)
        if args.trace_out:
            _write(args.trace_out, write_trace(trace))
            print(f"wrote {args.trace_out}")
        else:
            print(_render_actions(trace))
        payload["trace"] = _trace_obj(trace)
    elif result.status == "unsat":
        code = 1
    else:
        print("external solver returned unknown", file=sys.stderr)
        code = 4
    if args.json:
        _print_json(payload)
    return code


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    report = simulate_trace(trace, PowerModel(active_cost=args.pw))
    sys.stdout.write(render_report(report))
    if args.json:
        _print_json(report_as_dict(report))
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    _, report = run_baseline(
        spec, PowerModel(active_cost=args.pw), max_slots=args.max_slots
    )
    sys.stdout.write(render_report(report))
    if args.json:
        _print_json(report_as_dict(report))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    power = PowerModel(active_cost=args.pw)
    trace = _synthesize(args, spec)
    if isinstance(trace, int):
        return trace
    synth_report = simulate_trace(trace, power)
    _, base_report = run_baseline(spec, power)
    report = compare_reports(synth_report, base_report)
    sys.stdout.write(report.text())
    if args.json:
        _print_json(report.as_dict())
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "min-horizon": _cmd_min_horizon,
    "validate": _cmd_validate,
    "unsat-core": _cmd_unsat_core,
    "emit-smt": _cmd_emit_smt,
    "simulate": _cmd_simulate,
    "baseline": _cmd_baseline,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except SimulationGuardError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 2
    except HorizonUndecided as exc:
        print(f"budget exhausted at horizon {exc.horizon}", file=sys.stderr)
        return 5
    except SearchBudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 5
    except (ValueError, ExternalSolverError, OSError) as exc:
        # SpecError, TraceFormatError and SmtResponseError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
