"""SMT-LIB 2 export and external solver plumbing.

The emitted document is self-contained QF_UFLIA over four uninterpreted
functions:

    sleep    (Int Int) Bool      sleep t p
    listen   (Int Int) Bool      listen t p
    transmit (Int Int) Int       content code, -1 silent, 0 garbage, k >= 1
    knows    (Int Int Int) Bool  knows t p k

Knowledge is pinned with equalities, so any model's knows atoms must agree
with the local derivation; parse_value_response checks that agreement and
refuses models that drift. Every assertion is named so unsat cores map
back onto requirement families. The footer always asks for both values
and an unsat core; solvers answer the inapplicable request with an error
form, which the parser skips.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass

from .actions import Action, LISTEN, SLEEP, transmit as tx_action
from .model import (
    GoalKind,
    LivenessMode,
    NetworkSpec,
    RequirementLabel,
    SpecValidationError,
    validate_spec,
)
from .trace import ProtocolTrace, derive_knowledge


class SmtResponseError(ValueError):
    """The solver's text could not be turned into a coherent trace."""


class ExternalSolverError(RuntimeError):
    """The solver process could not run or gave no verdict."""


class SolverTimeout(ExternalSolverError):
    pass


@dataclass(frozen=True)
class SmtDocument:
    spec: NetworkSpec
    header: tuple[str, ...]
    declarations: tuple[str, ...]
    assertions: tuple[str, ...]
    footer: tuple[str, ...]

    @property
    def text(self) -> str:
        sections = [self.header, self.declarations, self.assertions, self.footer]
        return "\n\n".join("\n".join(s) for s in sections if s) + "\n"

    def __str__(self) -> str:
        return self.text


def _name(label: RequirementLabel, variant: str | None = None, **coords: int) -> str:
    tag = label.value if variant is None else f"{label.value}.{variant}"
    where = ",".join(f"{key}={value}" for key, value in coords.items())
    return f"|{tag}@{where}|"


def _assert_named(expr: str, name: str) -> str:
    return f"(assert (! {expr} :named {name}))"


def _sleep(t: int, p: int) -> str:
    return f"(sleep {t} {p})"


def _listen(t: int, p: int) -> str:
    return f"(listen {t} {p})"


def _tx(t: int, p: int) -> str:
    return f"(transmit {t} {p})"


def _knows(t: int, p: int, k: int) -> str:
    return f"(knows {t} {p} {k})"


_SILENT = "(- 1)"


def emit_smtlib(spec: NetworkSpec) -> SmtDocument:
    errors = validate_spec(spec)
    if errors:
        raise SpecValidationError(errors)
    P, M, T = spec.processes, spec.packets, spec.horizon
    header = (
        "(set-option :produce-models true)",
        "(set-option :produce-unsat-cores true)",
        "(set-logic QF_UFLIA)",
    )
    declarations = (
        "; transmit codes: -1 silent, 0 garbage, k in [1, M] packet k",
        "(declare-fun sleep (Int Int) Bool)",
        "(declare-fun listen (Int Int) Bool)",
        "(declare-fun transmit (Int Int) Int)",
        "(declare-fun knows (Int Int Int) Bool)",
    )
    lines: list[str] = []
    for t in range(T):
        for p in range(P):
            excl = (
                f"(and (not (and {_sleep(t, p)} {_listen(t, p)}))"
                f" (=> {_sleep(t, p)} (= {_tx(t, p)} {_SILENT}))"
                f" (=> {_listen(t, p)} (= {_tx(t, p)} {_SILENT})))"
            )
            lines.append(
                _assert_named(excl, _name(RequirementLabel.R1_EXACTLY_ONE_ACTION, t=t, p=p))
            )
            any_ = f"(or {_sleep(t, p)} {_listen(t, p)} (>= {_tx(t, p)} 0))"
            lines.append(
                _assert_named(
                    any_, _name(RequirementLabel.R1_EXACTLY_ONE_ACTION, "any", t=t, p=p)
                )
            )
    for t in range(T):
        for p in range(P):
            bound = f"(and (>= {_tx(t, p)} {_SILENT}) (<= {_tx(t, p)} {M}))"
            lines.append(
                _assert_named(bound, _name(RequirementLabel.R2_CONTENT_DOMAIN, t=t, p=p))
            )
    if spec.liveness is LivenessMode.EACH_ACTION_ONCE:
        lines.append("; every action kind must occur inside the finite window")
        for p in range(P):
            for variant, terms in (
                ("sleep", [_sleep(t, p) for t in range(T)]),
                ("listen", [_listen(t, p) for t in range(T)]),
                ("transmit", [f"(>= {_tx(t, p)} 0)" for t in range(T)]),
            ):
                expr = "false" if not terms else f"(or {' '.join(terms)})"
                if len(terms) == 1:
                    expr = terms[0]
                lines.append(
                    _assert_named(expr, _name(RequirementLabel.R3_LIVENESS, variant, p=p))
                )
    for p in range(P):
        for k in range(1, M + 1):
            atom = _knows(0, p, k)
            expr = atom if p == spec.source else f"(not {atom})"
            lines.append(
                _assert_named(
                    expr, _name(RequirementLabel.R4_INITIAL_KNOWLEDGE, t=0, p=p, k=k)
                )
            )
    for t in range(T):
        for p in range(P):
            for k in range(1, M + 1):
                expr = f"(=> (= {_tx(t, p)} {k}) {_knows(t, p, k)})"
                lines.append(
                    _assert_named(
                        expr, _name(RequirementLabel.R5_TRANSMIT_ONLY_KNOWN, t=t, p=p, k=k)
                    )
                )
    for t in range(T):
        for p in range(P):
            for k in range(1, M + 1):
                expr = f"(=> {_knows(t, p, k)} {_knows(t + 1, p, k)})"
                lines.append(
                    _assert_named(
                        expr, _name(RequirementLabel.R6_NEVER_FORGETS, t=t, p=p, k=k)
                    )
                )
    # Audibility is folded into the learning equalities, so the hears
    # relation needs no assertions of its own.
    for t in range(T):
        for p in range(P):
            audible = sorted(s for (l, s) in spec.topology.hears if l == p)
            for k in range(1, M + 1):
                cases = []
                for s in audible:
                    silent = [f"(= {_tx(t, q)} {_SILENT})" for q in range(P) if q != s]
                    cases.append(
                        f"(and (= {_tx(t, s)} {k}) {' '.join(silent)})"
                        if silent
                        else f"(= {_tx(t, s)} {k})"
                    )
                if cases:
                    learn = cases[0] if len(cases) == 1 else f"(or {' '.join(cases)})"
                    rhs = f"(or {_knows(t, p, k)} (and {_listen(t, p)} {learn}))"
                else:
                    rhs = _knows(t, p, k)
                expr = f"(= {_knows(t + 1, p, k)} {rhs})"
                lines.append(
                    _assert_named(
                        expr,
                        _name(RequirementLabel.R7_COLLISION_FREE_LEARNING, t=t, p=p, k=k),
                    )
                )
    if spec.goal is GoalKind.ALL_KNOW_ALL:
        for p in range(P):
            for k in range(1, M + 1):
                lines.append(
                    _assert_named(
                        _knows(T, p, k),
                        _name(RequirementLabel.GOAL_DEADLINE, t=T, p=p, k=k),
                    )
                )
    footer: list[str] = ["(check-sat)"]
    for t in range(T):
        for p in range(P):
            footer.append(f"(get-value ({_sleep(t, p)} {_listen(t, p)} {_tx(t, p)}))")
    if M > 0:
        for t in range(T + 1):
            for p in range(P):
                atoms = " ".join(_knows(t, p, k) for k in range(1, M + 1))
                footer.append(f"(get-value ({atoms}))")
    footer.append("(get-unsat-core)")
    footer.append("(exit)")
    return SmtDocument(
        spec=spec,
        header=header,
        declarations=declarations,
        assertions=tuple(lines),
        footer=tuple(footer),
    )


def label_of_assertion_name(name: str) -> RequirementLabel:
    """Maps an assertion name like |R5_TransmitOnlyKnown@t=1,p=0,k=2| back
    to its requirement family."""
    tag = name.strip().strip("|").split("@", 1)[0].split(".", 1)[0]
    for label in RequirementLabel:
        if label.value == tag:
            return label
    raise SmtResponseError(f"unrecognized assertion name: {name}")


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            tokens.append(text[i : j + 1])
            i = j + 1
        elif ch == "|":
            j = i + 1
            while j < n and text[j] != "|":
                j += 1
            tokens.append(text[i : j + 1])
            i = j + 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '();"|':
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def parse_sexprs(text: str) -> list:
    """Reads every s-expression in text; atoms stay strings."""
    tokens = tokenize(text)
    pos = 0

    def read():
        nonlocal pos
        token = tokens[pos]
        pos += 1
        if token == "(":
            items = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(read())
            if pos >= len(tokens):
                raise SmtResponseError("unbalanced parenthesis in solver output")
            pos += 1
            return items
        if token == ")":
            raise SmtResponseError("unbalanced parenthesis in solver output")
        return token

    out = []
    while pos < len(tokens):
        out.append(read())
    return out


def _as_int(value) -> int | None:
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return None
    if (
        isinstance(value, list)
        and len(value) == 2
        and value[0] == "-"
        and isinstance(value[1], str)
        and value[1].isdigit()
    ):
        return -int(value[1])
    return None


def _as_bool(value) -> bool | None:
    if value == "true":
        return True
    if value == "false":
        return False
    return None


def _is_error(expr) -> bool:
    return isinstance(expr, list) and len(expr) >= 1 and expr[0] == "error"


def parse_value_response(text: str, spec: NetworkSpec) -> ProtocolTrace:
    """Reassembles a trace from get-value output.

    Expects one (sleep, listen, transmit) triple per cell plus, when M > 0,
    every knows atom; the knows values must match what the learning rule
    derives from the decoded actions.
    """
    P, M, T = spec.processes, spec.packets, spec.horizon
    bools: dict[tuple[str, int, int], bool] = {}
    ints: dict[tuple[int, int], int] = {}
    knows: dict[tuple[int, int, int], bool] = {}
    for expr in parse_sexprs(text):
        if not isinstance(expr, list) or _is_error(expr):
            continue
        for pair in expr:
            if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], list)):
                continue
            app, value = pair
            if not app or not all(isinstance(part, str) for part in app):
                continue
            fn, *args = app
            if fn in ("sleep", "listen") and len(args) == 2:
                flag = _as_bool(value)
                if flag is not None:
                    bools[(fn, int(args[0]), int(args[1]))] = flag
            elif fn == "transmit" and len(args) == 2:
                code = _as_int(value)
                if code is not None:
                    ints[(int(args[0]), int(args[1]))] = code
            elif fn == "knows" and len(args) == 3:
                flag = _as_bool(value)
                if flag is not None:
                    knows[(int(args[0]), int(args[1]), int(args[2]))] = flag
    rows: list[tuple[Action, ...]] = []
    for t in range(T):
        row: list[Action] = []
        for p in range(P):
            try:
                asleep = bools[("sleep", t, p)]
                listening = bools[("listen", t, p)]
                code = ints[(t, p)]
            except KeyError as exc:
                raise SmtResponseError(
                    f"missing value for cell t={t}, p={p}: {exc.args[0]}"
                ) from None
            if code < -1 or code > M:
                raise SmtResponseError(
                    f"content code out of range at t={t}, p={p}: {code}"
                )
            if asleep and not listening and code == -1:
                row.append(SLEEP)
            elif listening and not asleep and code == -1:
                row.append(LISTEN)
            elif not asleep and not listening and code >= 0:
                row.append(tx_action(code))
            else:
                raise SmtResponseError(
                    f"inconsistent triple at t={t}, p={p}: "
                    f"sleep={asleep}, listen={listening}, transmit={code}"
                )
        rows.append(tuple(row))
    actions = tuple(rows)
    grid = derive_knowledge(spec, actions)
    if M > 0:
        for t in range(T + 1):
            for p in range(P):
                for k in range(1, M + 1):
                    if (t, p, k) not in knows:
                        raise SmtResponseError(
                            f"missing value for knows at t={t}, p={p}, k={k}"
                        )
                    if knows[(t, p, k)] != grid[t][p][k - 1]:
                        raise SmtResponseError(
                            f"knowledge mismatch at t={t}, p={p}, k={k}"
                        )
    return ProtocolTrace(spec, actions, grid)


@dataclass(frozen=True)
class ExternalResult:
    status: str
    output: str


def run_external(
    command: str | list[str],
    document: SmtDocument | str,
    timeout: float | None = None,
) -> ExternalResult:
    """Feeds the document to a solver process over stdin.

    The command gets no arguments beyond its own; solvers that need flags
    to read stdin (z3 -in, cvc5 with no file) should include them.
    """
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    if not argv:
        raise ExternalSolverError("empty solver command")
    if timeout is not None and timeout <= 0:
        raise SolverTimeout(f"timeout of {timeout} s gives the solver no time")
    text = document.text if isinstance(document, SmtDocument) else document
    try:
        proc = subprocess.run(
            argv,
            input=text,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SolverTimeout(f"external solver exceeded {timeout} s") from None
    except (FileNotFoundError, PermissionError) as exc:
        raise ExternalSolverError(f"cannot run external solver: {exc}") from None
    output = proc.stdout
    status = next(
        (
            line.strip()
            for line in output.splitlines()
            if line.strip() in ("sat", "unsat", "unknown")
        ),
        None,
    )
    if status is None:
        detail = (output or proc.stderr).strip().splitlines()
        head = detail[0] if detail else "no output"
        raise ExternalSolverError(f"solver gave no sat/unsat/unknown verdict: {head}")
    return ExternalResult(status=status, output=output)
