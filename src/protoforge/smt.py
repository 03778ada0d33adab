"""SMT-LIB 2 export and external solver plumbing.

The emitted document is self-contained QF_UFLIA over six uninterpreted
functions:

    sleep    (Int Int) Bool      sleep t p
    listen   (Int Int) Bool      listen t p
    transmit (Int Int) Int       content code, -1 silent, 0 garbage, k >= 1
    knows    (Int Int Int) Bool  knows t p k
    senders  (Int) Int           how many processes transmit in slot t
    heard    (Int Int) Int       sum of the packet codes p's speakers send in t

A listener p learns packet k in slot t when it listens, senders is 1 and
heard is k: with one sender, heard is k exactly when that sender is audible
to p and sends k. senders is defined once per slot and heard once per
slot and listener, each by an equality over transmit, so the document
grows as T·P·(M + speakers) and no learning equality spells out the other
processes' silence. Both are fixed by transmit, and knowledge is pinned with equalities, so any model's
knows atoms must agree with the local derivation; parse_value_response
checks that agreement and refuses models that drift. Every assertion is
named so unsat cores map back onto requirement families. The footer always
asks for both values and an unsat core; solvers answer the inapplicable
request with an error form, which the parser skips.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .actions import Action, LISTEN, SLEEP, transmit as tx_action
from .model import NetworkSpec, RequirementLabel, requirement_families
from .trace import ProtocolTrace, derive_knowledge, knowledge_table


class SmtResponseError(ValueError):
    """The solver's text could not be turned into a coherent trace."""


class ExternalSolverError(RuntimeError):
    """The solver process could not run or gave no verdict."""


class SolverTimeout(ExternalSolverError):
    pass


# Longest solver timeout accepted, in seconds: it stays well under the
# 2**31 ms that subprocess's poll-based wait can represent.
MAX_TIMEOUT_S = 1_000_000


@dataclass(frozen=True)
class SmtDocument:
    spec: NetworkSpec
    header: tuple[str, ...]
    declarations: tuple[str, ...]
    assertions: tuple[str, ...]
    footer: tuple[str, ...]

    @cached_property
    def text(self) -> str:
        sections = [self.header, self.declarations, self.assertions, self.footer]
        return "\n\n".join("\n".join(s) for s in sections if s) + "\n"

    def __str__(self) -> str:
        return self.text


def _sleep(t: int, p: int) -> str:
    return f"(sleep {t} {p})"


def _listen(t: int, p: int) -> str:
    return f"(listen {t} {p})"


def _tx(t: int, p: int) -> str:
    return f"(transmit {t} {p})"


def _sends(t: int, p: int) -> str:
    return f"(>= {_tx(t, p)} 0)"


def _knows(t: int, p: int, k: int) -> str:
    return f"(knows {t} {p} {k})"


def _senders(t: int) -> str:
    return f"(senders {t})"


def _heard(t: int, p: int) -> str:
    return f"(heard {t} {p})"


def _any(terms: list[str]) -> str:
    if len(terms) == 1:
        return terms[0]
    return f"(or {' '.join(terms)})" if terms else "false"


def _sum(terms: list[str]) -> str:
    return terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"


_SILENT = "(- 1)"


def emit_smtlib(spec: NetworkSpec) -> SmtDocument:
    P, M, T = spec.processes, spec.packets, spec.horizon
    L = RequirementLabel
    families = requirement_families(spec)
    cells = list(product(range(T), range(P)))
    facts = list(product(range(T), range(P), range(1, M + 1)))
    holdings = list(product(range(P), range(1, M + 1)))
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
        "; senders t: transmitters in slot t; heard t p: packet codes p's speakers send",
        "(declare-fun senders (Int) Int)",
        "(declare-fun heard (Int Int) Int)",
    )
    lines: list[str] = []

    def add(expr: str, label: RequirementLabel, variant: str | None = None, **where: int) -> None:
        tag = label.value if variant is None else f"{label.value}.{variant}"
        at = ",".join(f"{key}={value}" for key, value in where.items())
        lines.append(f"(assert (! {expr} :named |{tag}@{at}|))")

    for t, p in cells:
        sleep, listen, tx = _sleep(t, p), _listen(t, p), _tx(t, p)
        add(
            f"(and (not (and {sleep} {listen})) (=> {sleep} (= {tx} {_SILENT}))"
            f" (=> {listen} (= {tx} {_SILENT})))",
            L.R1_EXACTLY_ONE_ACTION, t=t, p=p,
        )
        add(f"(or {sleep} {listen} {_sends(t, p)})", L.R1_EXACTLY_ONE_ACTION, "any", t=t, p=p)
    for t, p in cells:
        add(f"(and (>= {_tx(t, p)} {_SILENT}) (<= {_tx(t, p)} {M}))", L.R2_CONTENT_DOMAIN, t=t, p=p)
    if L.R3_LIVENESS in families:
        lines.append("; every action kind must occur inside the finite window")
        for p in range(P):
            for variant, atom in (("sleep", _sleep), ("listen", _listen), ("transmit", _sends)):
                add(_any([atom(t, p) for t in range(T)]), L.R3_LIVENESS, variant, p=p)
    for p, k in holdings:
        atom = _knows(0, p, k)
        add(atom if p == spec.source else f"(not {atom})", L.R4_INITIAL_KNOWLEDGE, t=0, p=p, k=k)
    for t, p, k in facts:
        add(f"(=> (= {_tx(t, p)} {k}) {_knows(t, p, k)})", L.R5_TRANSMIT_ONLY_KNOWN, t=t, p=p, k=k)
    for t, p, k in facts:
        add(f"(=> {_knows(t, p, k)} {_knows(t + 1, p, k)})", L.R6_NEVER_FORGETS, t=t, p=p, k=k)
    # Audibility is folded into heard, so the hears relation needs no
    # assertions of its own. senders and heard are defined only where a
    # learning equality reads them: with packets, for listeners with speakers.
    speakers: list[list[int]] = [[] for _ in range(P)]
    for listener, speaker in sorted(spec.topology.hears):
        speakers[listener].append(speaker)
    listeners = [p for p in range(P) if speakers[p]] if M else []
    for t in range(T if listeners else 0):
        count = _sum([f"(ite {_sends(t, q)} 1 0)" for q in range(P)])
        add(f"(= {_senders(t)} {count})", L.R7_COLLISION_FREE_LEARNING, "senders", t=t)
        for p in listeners:
            codes = _sum([f"(ite (> {_tx(t, s)} 0) {_tx(t, s)} 0)" for s in speakers[p]])
            add(f"(= {_heard(t, p)} {codes})", L.R7_COLLISION_FREE_LEARNING, "heard", t=t, p=p)
    for t, p, k in facts:
        rhs = _knows(t, p, k)
        if speakers[p]:
            learn = f"(and {_listen(t, p)} (= {_senders(t)} 1) (= {_heard(t, p)} {k}))"
            rhs = f"(or {rhs} {learn})"
        add(f"(= {_knows(t + 1, p, k)} {rhs})", L.R7_COLLISION_FREE_LEARNING, t=t, p=p, k=k)
    if L.GOAL_DEADLINE in families:
        for p, k in holdings:
            add(_knows(T, p, k), L.GOAL_DEADLINE, t=T, p=p, k=k)
    footer = ["(check-sat)"]
    footer += [f"(get-value ({_sleep(t, p)} {_listen(t, p)} {_tx(t, p)}))" for t, p in cells]
    if M > 0:
        for t, p in product(range(T + 1), range(P)):
            atoms = " ".join(_knows(t, p, k) for k in range(1, M + 1))
            footer.append(f"(get-value ({atoms}))")
    footer += ["(get-unsat-core)", "(exit)"]
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
    """Reads every s-expression in text; atoms stay strings. Iterative, so
    nesting depth is bounded by memory, not by the recursion limit."""
    out: list = []
    open_lists: list[list] = []
    current = out
    for token in tokenize(text):
        if token == "(":
            open_lists.append(current)
            current = []
        elif token == ")":
            if not open_lists:
                raise SmtResponseError("unbalanced parenthesis in solver output")
            done, current = current, open_lists.pop()
            current.append(done)
        else:
            current.append(token)
    if open_lists:
        raise SmtResponseError("unbalanced parenthesis in solver output")
    return out


def _as_int(value) -> int | None:
    sign = 1
    if (
        isinstance(value, list)
        and len(value) == 2
        and value[0] == "-"
        and isinstance(value[1], str)
        and value[1].isdigit()
    ):
        sign, value = -1, value[1]
    if isinstance(value, str):
        try:
            return sign * int(value)
        except ValueError:  # also digits int() refuses, such as "²"
            return None
    return None


def _indices(app: list[str]) -> tuple[int, ...]:
    """The integer arguments of a function application such as (sleep 0 1)."""
    try:
        return tuple(int(arg) for arg in app[1:])
    except ValueError:
        raise SmtResponseError(f"non-integer index in ({' '.join(app)})") from None


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
                    bools[(fn, *_indices(app))] = flag
            elif fn == "transmit" and len(args) == 2:
                code = _as_int(value)
                if code is not None:
                    ints[_indices(app)] = code
            elif fn == "knows" and len(args) == 3:
                flag = _as_bool(value)
                if flag is not None:
                    knows[_indices(app)] = flag
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
            held = knowledge_table(grid[t], P)
            for p in range(P):
                for k in range(1, M + 1):
                    if (t, p, k) not in knows:
                        raise SmtResponseError(
                            f"missing value for knows at t={t}, p={p}, k={k}"
                        )
                    if knows[(t, p, k)] != held[p][k - 1]:
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
    if timeout is not None and not 0 < timeout <= MAX_TIMEOUT_S:
        raise SolverTimeout(f"timeout must lie in (0, {MAX_TIMEOUT_S}] s, got {timeout}")
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
