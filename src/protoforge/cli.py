"""Command-line front end.

Exit codes: 0 success or Sat, 1 Unsat or horizon not found, 2 validation
violations, 3 usage error, 4 I/O, format, or external-solver failure,
5 search budget exhausted, 6 internal error (an unexpected exception).

Human-readable output comes first; with --json the last thing printed is
a machine block starting at the first "{" on its own line, exit 5 included
({"status": "budget-exhausted"}, plus the undecided "horizon" on
min-horizon). Errors reported only on stderr print none.

--out and --trace-out create the file, or overwrite an existing one in
place and cut it to the new length, so it holds exactly this run's output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from functools import cache
from typing import TextIO

from .encoder import encode
from .model import NetworkSpec, RequirementLabel, TAXONOMY, parse_spec
from .sim import (
    ComparisonReport,
    PowerModel,
    SimReport,
    SimulationGuardError,
    compare as compare_reports,
    render_report,
    report_as_dict,
    run_baseline,
    simulate_trace,
)
from .smt import MAX_TIMEOUT_S, ExternalSolverError, emit_smtlib, parse_value_response, run_external
from .solver import (
    SearchBudgetExceeded,
    SearchConfig,
    SolveResult,
    SolveStatus,
    min_horizon,
    solve,
    unsat_core_minimize,
)
from .trace import ProtocolTrace, Violation, read_trace, validate, write_trace

SOLVER_ENV = "PROTOFORGE_SOLVER"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _at_least(
    base: type, low: int, strict: bool = False, high: int | None = None
) -> Callable[[str], object]:
    """An argparse type: base(text), >= low (> low when strict), <= high if
    given. It carries base's name, so a non-number keeps argparse's
    "invalid int value" wording."""

    def check(text: str):
        value = base(text)
        if not (value > low if strict else value >= low):
            bound = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be {bound} {low}, got {text}")
        if high is not None and not value <= high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {text}")
        return value

    check.__name__ = base.__name__
    return check


_NODE_LIMIT = _at_least(int, 1)
_COUNT = _at_least(int, 0)
_TIMEOUT = _at_least(float, 0, strict=True, high=MAX_TIMEOUT_S)


@cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first main() call and shared by
    the rest. Handlers read solve, write_trace and the other module names at
    call time, so patching those still takes effect."""
    parser = _Parser(prog="protoforge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def cmd(name: str, help_: str, handler: Callable) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="append a machine block")
        return p

    p = cmd("synth", "synthesize a schedule for a problem file", _cmd_synth)
    p.add_argument("spec", help="problem file")
    p.add_argument("--out", help="trace file to write on Sat")
    p.add_argument("--node-limit", type=_NODE_LIMIT, help="search budget in visited nodes")

    p = cmd("min-horizon", "find the smallest feasible horizon", _cmd_min_horizon)
    p.add_argument("spec", help="problem file")
    p.add_argument("--max", type=_COUNT, required=True, help="largest horizon to try")
    p.add_argument("--out", help="trace file to write when found")
    p.add_argument("--node-limit", type=_NODE_LIMIT, help="search budget per horizon")

    p = cmd("validate", "check a trace file against every requirement", _cmd_validate)
    p.add_argument("trace", help="trace file")

    p = cmd("unsat-core", "minimize the conflicting requirement set", _cmd_unsat_core)
    p.add_argument("spec", help="problem file")
    p.add_argument("--node-limit", type=_NODE_LIMIT, help="search budget per solve")

    p = cmd("emit-smt", "write the SMT-LIB 2 form, optionally run a solver", _cmd_emit_smt)
    p.add_argument("spec", help="problem file")
    p.add_argument("--out", help="file for the document (default stdout)")
    p.add_argument(
        "--solver",
        help=f"external solver command reading SMT-LIB 2 on stdin (default ${SOLVER_ENV})",
    )
    p.add_argument("--timeout", type=_TIMEOUT, help="seconds to allow the solver")
    p.add_argument("--trace-out", help="trace file to write when the solver says sat")

    p = cmd("simulate", "replay a trace and report power and delivery", _cmd_simulate)
    p.add_argument("trace", help="trace file")
    p.add_argument("--pw", type=_COUNT, default=1, help="power units per active slot")

    p = cmd("baseline", "run the always-on policy on a problem file", _cmd_baseline)
    p.add_argument("spec", help="problem file")
    p.add_argument("--pw", type=_COUNT, default=1, help="power units per active slot")
    p.add_argument("--max-slots", type=_COUNT, help="slot allowance before giving up")

    p = cmd("compare", "synthesized schedule vs the always-on policy", _cmd_compare)
    p.add_argument("spec", help="problem file")
    p.add_argument("--pw", type=_COUNT, default=1, help="power units per active slot")
    p.add_argument("--node-limit", type=_NODE_LIMIT, help="search budget in visited nodes")

    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# The file buffer of every --out and --trace-out write. A document is
# written as a few hundred blocks of up to about 17 KB on the benchmark's
# rungs, each followed by a newline piece; 64 KiB gathers them into a few
# large writes.
_SMT_BUFFER = 1 << 16


def _write(path: str, fill: Callable[[TextIO], object]) -> None:
    """Has fill write the file's text to a UTF-8 file at path, overwriting
    an existing file in place: opening it without O_TRUNC keeps its blocks
    and page cache, which the write reuses. The file is then cut where the
    text ended, so it holds only this run's text, all of it or, when fill
    raises, the part that reached it. A device or FIFO reports size 0 and
    is never cut."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", buffering=_SMT_BUFFER) as fh:
        size = os.fstat(fd).st_size
        try:
            fill(fh)
            fh.flush()  # so a file that only grows is never cut
        finally:
            # after a failed fill, closing fh writes what it still holds
            # from this offset on, so nothing of the old file is left
            if size and size > (end := os.lseek(fd, 0, os.SEEK_CUR)):
                os.ftruncate(fd, end)


def _load_spec(path: str) -> NetworkSpec:
    return parse_spec(_read(path))


def _load_trace(path: str) -> ProtocolTrace:
    return read_trace(_read(path))


def _solve(args: argparse.Namespace, spec: NetworkSpec) -> SolveResult:
    """Decides the spec within --node-limit; a Sat or Unsat result, or
    SearchBudgetExceeded when the budget runs out first."""
    result = solve(encode(spec), SearchConfig(node_limit=args.node_limit))
    if result.status is SolveStatus.BUDGET_EXHAUSTED:
        raise SearchBudgetExceeded()
    return result


def _ordered(core: frozenset[RequirementLabel]) -> list[str]:
    return [label.value for label in TAXONOMY if label in core]


def _unsat(core: frozenset[RequirementLabel]) -> tuple[int, dict]:
    """Reports an Unsat verdict with its unminimized core."""
    labels = _ordered(core)
    print("unsat")
    print("core: " + " ".join(labels))
    return 1, {"status": "unsat", "core": labels}


def _emit_trace(trace: ProtocolTrace, path: str | None) -> None:
    """Writes the trace file when a path is given, else prints the schedule."""
    if path:
        text = write_trace(trace)
        _write(path, lambda fh: fh.write(text))
        print(f"wrote {path}")
    else:
        print("\n".join(
            f"t={t}: " + " ".join(act.label for act in row)
            for t, row in enumerate(trace.actions)
        ))


def _cmd_synth(args: argparse.Namespace) -> tuple[int, object]:
    result = _solve(args, _load_spec(args.spec))
    if result.status is SolveStatus.UNSAT:
        return _unsat(result.core)
    print("sat")
    _emit_trace(result.trace, args.out)
    return 0, {"status": "sat", "trace": result.trace}


def _cmd_min_horizon(args: argparse.Namespace) -> tuple[int, object]:
    spec = _load_spec(args.spec)
    found = min_horizon(spec, args.max, SearchConfig(node_limit=args.node_limit))
    if found is None:
        print(f"no feasible horizon up to {args.max}")
        return 1, {"found": False, "t_min": None}
    t_min, trace = found
    print(f"t_min: {t_min}")
    _emit_trace(trace, args.out)
    return 0, {"found": True, "t_min": t_min, "trace": trace}


def _cmd_validate(args: argparse.Namespace) -> tuple[int, object]:
    violations = validate(_load_trace(args.trace))
    for v in violations:
        where = []
        if v.time is not None:
            where.append(f"t={v.time}")
        if v.process is not None:
            where.append(f"p={v.process}")
        place = " " + ",".join(where) if where else ""
        print(f"{v.label.value}{place}: {v.detail}")
    return (2 if violations else 0), {"ok": not violations, "violations": violations}


def _cmd_unsat_core(args: argparse.Namespace) -> tuple[int, object]:
    cs = encode(_load_spec(args.spec))
    core = unsat_core_minimize(cs, SearchConfig(node_limit=args.node_limit))
    if core is None:
        print("sat (no unsat core)")
        return 0, {"status": "sat", "core": None}
    labels = _ordered(core)
    for label in labels:
        print(label)
    return 1, {"status": "unsat", "core": labels}


def _cmd_emit_smt(args: argparse.Namespace) -> tuple[int, object]:
    spec = _load_spec(args.spec)
    document = emit_smtlib(spec)
    if args.out:
        _write(args.out, document.write)
        print(f"wrote {args.out}")
    solver = args.solver or os.environ.get(SOLVER_ENV) or None
    if solver is None:
        if not args.out:
            document.write(sys.stdout)
        return 0, {"out": args.out, "status": None}
    result = run_external(solver, document, timeout=args.timeout)
    print(result.status)
    block = {"out": args.out, "status": result.status, "trace": None}
    if result.status == "sat":
        block["trace"] = trace = parse_value_response(result.output, spec)
        _emit_trace(trace, args.trace_out)
        return 0, block
    if result.status == "unsat":
        return 1, block
    print("external solver returned unknown", file=sys.stderr)
    return 4, block


def _cmd_simulate(args: argparse.Namespace) -> tuple[int, object]:
    report = simulate_trace(_load_trace(args.trace), PowerModel(active_cost=args.pw))
    sys.stdout.write(render_report(report))
    return 0, report


def _cmd_baseline(args: argparse.Namespace) -> tuple[int, object]:
    _, report = run_baseline(
        _load_spec(args.spec), PowerModel(active_cost=args.pw), max_slots=args.max_slots
    )
    sys.stdout.write(render_report(report))
    return 0, report


def _cmd_compare(args: argparse.Namespace) -> tuple[int, object]:
    spec = _load_spec(args.spec)
    result = _solve(args, spec)
    if result.status is SolveStatus.UNSAT:
        return _unsat(result.core)
    power = PowerModel(active_cost=args.pw)
    synth_report = simulate_trace(result.trace, power)
    _, base_report = run_baseline(spec, power)
    report = compare_reports(synth_report, base_report)
    sys.stdout.write(report.text())
    return 0, report


def _as_json(obj: object) -> object:
    """The `default` hook of main's encoder: blocks hold result objects,
    which are turned into JSON only under --json."""
    if isinstance(obj, ProtocolTrace):
        return json.loads(write_trace(obj))
    if isinstance(obj, Violation):
        return {"label": obj.label.value, "time": obj.time, "process": obj.process,
                "detail": obj.detail}
    if isinstance(obj, SimReport):
        return report_as_dict(obj)
    if isinstance(obj, ComparisonReport):
        return obj.as_dict()
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        try:
            code, block = args.handler(args)
        except SearchBudgetExceeded as exc:
            # an exhausted budget is a verdict too, so it ends in a block
            print(exc, file=sys.stderr)
            code, block = 5, {"status": "budget-exhausted"}
            if exc.horizon is not None:
                block["horizon"] = exc.horizon
        if args.json:
            print(json.dumps(block, indent=2, default=_as_json))
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except SimulationGuardError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ExternalSolverError, OSError) as exc:
        # SpecError, TraceFormatError and SmtResponseError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    raise SystemExit(main())
