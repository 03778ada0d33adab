"""Command-line front end.

Usage: protoforge COMMAND FILE [OPTION]..., FILE being the command's spec
or trace file. Options go in any order around FILE as --json, --flag value
or --flag=value, each flag spelled in full; a repeated option keeps its
last value, and after "--" every argument is positional. The command table
below defines the commands; -h or --help lists them.

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

import errno
import json
import os
import re
import stat
import sys
from collections.abc import Callable
from types import SimpleNamespace
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


def _at_least(base: type, low: int, strict: bool = False, high: int | None = None) -> Callable:
    """An option's converter: base(text), >= low (> low when strict), <= high
    if given. Its ValueError holds the rest of the usage error's line."""

    def convert(text: str):
        try:
            value = base(text)
        except ValueError:
            raise ValueError(f"invalid {base.__name__} value: {text!r}") from None
        if not (value > low if strict else value >= low):
            raise ValueError(f"must be {'>' if strict else '>='} {low}, got {text}")
        if high is not None and not value <= high:
            raise ValueError(f"must be <= {high}, got {text}")
        return value

    return convert


_NODE_LIMIT = _at_least(int, 1)
_COUNT = _at_least(int, 0)
_TIMEOUT = _at_least(float, 0, strict=True, high=MAX_TIMEOUT_S)


def _read(path: str) -> str:
    """The file's text, decoded as UTF-8 and with "\\r\\n" and "\\r" made
    "\\n" as in text mode. An OS error names the path; a UTF-8 decode
    error names the byte and its offset but not the path. A regular file
    takes four system calls (open, fstat, one read of its size plus a byte,
    close), where a file object's readall takes seven, each a sizable share
    of a request that reads one small file. A pipe, a device, or a file whose
    size changed since fstat is read on to its end."""
    fd = os.open(path, os.O_RDONLY)
    try:
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        data = os.read(fd, info.st_size + 1)
        if len(data) != info.st_size:
            data += b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
    finally:
        os.close(fd)
    text = data.decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


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


def _solve(args: SimpleNamespace, spec: NetworkSpec) -> SolveResult:
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
    print("unsat\ncore: " + " ".join(labels))
    return 1, {"status": "unsat", "core": labels}


def _emit_trace(trace: ProtocolTrace, path: str | None) -> None:
    """Writes the trace file when a path is given, else prints the schedule."""
    if path:
        text = write_trace(trace)
        _write(path, lambda fh: fh.write(text))
        print(f"wrote {path}")
    else:
        print("\n".join(f"t={t}: " + " ".join(act.label for act in row)
                        for t, row in enumerate(trace.actions)))


def _cmd_synth(args: SimpleNamespace) -> tuple[int, object]:
    result = _solve(args, parse_spec(_read(args.spec)))
    if result.status is SolveStatus.UNSAT:
        return _unsat(result.core)
    print("sat")
    _emit_trace(result.trace, args.out)
    return 0, {"status": "sat", "trace": result.trace}


def _cmd_min_horizon(args: SimpleNamespace) -> tuple[int, object]:
    spec = parse_spec(_read(args.spec))
    found = min_horizon(spec, args.max, SearchConfig(node_limit=args.node_limit))
    if found is None:
        print(f"no feasible horizon up to {args.max}")
        return 1, {"found": False, "t_min": None}
    t_min, trace = found
    print(f"t_min: {t_min}")
    _emit_trace(trace, args.out)
    return 0, {"found": True, "t_min": t_min, "trace": trace}


def _cmd_validate(args: SimpleNamespace) -> tuple[int, object]:
    violations = validate(read_trace(_read(args.trace)))
    for v in violations:
        where = ",".join(f"{k}={x}" for k, x in (("t", v.time), ("p", v.process)) if x is not None)
        print(f"{v.label.value}{' ' * bool(where)}{where}: {v.detail}")
    return (2 if violations else 0), {"ok": not violations, "violations": violations}


def _cmd_unsat_core(args: SimpleNamespace) -> tuple[int, object]:
    cs = encode(parse_spec(_read(args.spec)))
    core = unsat_core_minimize(cs, SearchConfig(node_limit=args.node_limit))
    if core is None:
        print("sat (no unsat core)")
        return 0, {"status": "sat", "core": None}
    labels = _ordered(core)
    for label in labels:
        print(label)
    return 1, {"status": "unsat", "core": labels}


def _cmd_emit_smt(args: SimpleNamespace) -> tuple[int, object]:
    spec = parse_spec(_read(args.spec))
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


def _cmd_simulate(args: SimpleNamespace) -> tuple[int, object]:
    report = simulate_trace(read_trace(_read(args.trace)), PowerModel(active_cost=args.pw))
    sys.stdout.write(render_report(report))
    return 0, report


def _cmd_baseline(args: SimpleNamespace) -> tuple[int, object]:
    power = PowerModel(active_cost=args.pw)
    _, report = run_baseline(parse_spec(_read(args.spec)), power, max_slots=args.max_slots)
    sys.stdout.write(render_report(report))
    return 0, report


def _cmd_compare(args: SimpleNamespace) -> tuple[int, object]:
    spec = parse_spec(_read(args.spec))
    result = _solve(args, spec)
    if result.status is SolveStatus.UNSAT:
        return _unsat(result.core)
    power = PowerModel(active_cost=args.pw)
    report = compare_reports(simulate_trace(result.trace, power), run_baseline(spec, power)[1])
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


def _cmd_help(args: SimpleNamespace) -> tuple[int, object]:
    """Prints this module's docstring, then each command of the table."""
    print(__doc__ + "Commands:")
    for name, (_, positional, help_, options, defaults) in _COMMANDS.items():
        flags = (flag if defaults.get(flag) is _REQUIRED else f"[{flag}]" for flag in options)
        print(f"  {' '.join([name, positional, *flags])}\n      {help_}")
    return 0, None


_REQUIRED = object()  # the default of an option that must be given
# name -> (handler, positional, help, {flag: converter}, {flag: value if absent, else None})
_COMMANDS = {
    "synth": (_cmd_synth, "spec", "synthesize a schedule for a problem file",
              {"--out": str, "--node-limit": _NODE_LIMIT}, {}),
    "min-horizon": (_cmd_min_horizon, "spec", "find the smallest feasible horizon",
                    {"--max": _COUNT, "--out": str, "--node-limit": _NODE_LIMIT},
                    {"--max": _REQUIRED}),
    "validate": (_cmd_validate, "trace", "check a trace file against every requirement", {}, {}),
    "unsat-core": (_cmd_unsat_core, "spec", "minimize the conflicting requirement set",
                   {"--node-limit": _NODE_LIMIT}, {}),
    "emit-smt": (_cmd_emit_smt, "spec", "write the SMT-LIB 2 form, optionally run a solver",
                 {"--out": str, "--solver": str, "--timeout": _TIMEOUT, "--trace-out": str}, {}),
    "simulate": (_cmd_simulate, "trace", "replay a trace and report power and delivery",
                 {"--pw": _COUNT}, {"--pw": 1}),
    "baseline": (_cmd_baseline, "spec", "run the always-on policy on a problem file",
                 {"--pw": _COUNT, "--max-slots": _COUNT}, {"--pw": 1}),
    "compare": (_cmd_compare, "spec", "synthesized schedule vs the always-on policy",
                {"--pw": _COUNT, "--node-limit": _NODE_LIMIT}, {"--pw": 1}),
}


def _parse(argv: list[str]) -> tuple[Callable, SimpleNamespace]:
    """The handler of the command argv names, and its arguments. As in argparse, an
    argument is an option if it starts with "-", unless it is "-" or, naming no flag,
    a negative number or holds a space."""
    flags, options, args, extras, command, literal = {"-h", "--help"}, {}, {}, [], None, False

    def is_option(arg: str) -> bool:
        return arg[:1] == "-" and arg != "-" and (arg.partition("=")[0] in flags or not (
            re.match(r"-\d+$|-\d*\.\d+$", arg) or " " in arg))

    for arg in (rest := iter(argv)):
        flag, eq, value = arg.partition("=")
        if arg == "--" and command and not literal:
            literal = True  # every later argument is positional
        elif literal or arg == "--" or not is_option(arg):
            if command is None:
                if (command := _COMMANDS.get(arg)) is None:
                    raise UsageError(f"argument command: invalid choice: {arg!r} (choose from "
                                     f"{', '.join(map(repr, _COMMANDS))})")
                handler, name, _, options, defaults = command
                flags |= {*options, "--json"}
                args = {name: _REQUIRED, "--json": False} | dict.fromkeys(options) | defaults
            elif args[name] is _REQUIRED:
                args[name] = arg
            else:
                extras.append(arg)
        elif flag not in flags or eq and flag not in options:
            extras.append(arg)  # an unknown option, or a switch given a value
        elif flag not in options:  # --json, -h or --help
            if flag != "--json":
                return _cmd_help, SimpleNamespace(json=False)
            args[flag] = True
        else:
            if not eq and ((value := next(rest, None)) is None or is_option(value)):
                raise UsageError(f"argument {flag}: expected one argument")
            try:
                args[flag] = options[flag](value)
            except ValueError as exc:
                raise UsageError(f"argument {flag}: {exc}") from None
    if missing := [flag for flag, value in args.items() if value is _REQUIRED]:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras or command is None:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}" if extras
                         else "a subcommand is required")
    return handler, SimpleNamespace(**{k.lstrip("-").replace("-", "_"): v for k, v in args.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        try:
            code, block = handler(args)
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
