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

The document is rendered from atom tables made once per document: the
sleep, listen and transmit atom of each cell and the knows atom of each
(t, p, k) are formatted up front, and each assertion is then one f-string
that splices them together with its name.
"""

from __future__ import annotations

import re
import shlex
import subprocess
from dataclasses import dataclass
from functools import cached_property

from .actions import Action, LISTEN, SLEEP, transmit as tx_action
from .model import NetworkSpec, RequirementLabel, requirement_families
from .trace import ProtocolTrace, derive_knowledge


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


def _any(terms: list[str]) -> str:
    if len(terms) == 1:
        return terms[0]
    return f"(or {' '.join(terms)})" if terms else "false"


def _sum(terms: list[str]) -> str:
    return terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"


def emit_smtlib(spec: NetworkSpec) -> SmtDocument:
    P, M, T = spec.processes, spec.packets, spec.horizon
    L = RequirementLabel
    families = requirement_families(spec)
    r1, r2, r3, r4, r5, r6, r7, goal = (
        label.value
        for label in (
            L.R1_EXACTLY_ONE_ACTION, L.R2_CONTENT_DOMAIN, L.R3_LIVENESS,
            L.R4_INITIAL_KNOWLEDGE, L.R5_TRANSMIT_ONLY_KNOWN, L.R6_NEVER_FORGETS,
            L.R7_COLLISION_FREE_LEARNING, L.GOAL_DEADLINE,
        )
    )
    slots, procs, packets = range(T), range(P), range(1, M + 1)
    sleep = [[f"(sleep {t} {p})" for p in procs] for t in slots]
    listen = [[f"(listen {t} {p})" for p in procs] for t in slots]
    tx = [[f"(transmit {t} {p})" for p in procs] for t in slots]
    knows = [[[f"(knows {t} {p} {k})" for k in packets] for p in procs] for t in range(T + 1)]
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
    # Each assertion is named |family[.variant]@t=..,p=..,k=..| so unsat
    # cores map back onto requirement families.
    lines: list[str] = []
    for t in slots:
        for p, s, l, x in zip(procs, sleep[t], listen[t], tx[t]):
            lines.append(
                f"(assert (! (and (not (and {s} {l})) (=> {s} (= {x} (- 1)))"
                f" (=> {l} (= {x} (- 1)))) :named |{r1}@t={t},p={p}|))"
            )
            lines.append(f"(assert (! (or {s} {l} (>= {x} 0)) :named |{r1}.any@t={t},p={p}|))")
    for t in slots:
        lines += [
            f"(assert (! (and (>= {x} (- 1)) (<= {x} {M})) :named |{r2}@t={t},p={p}|))"
            for p, x in enumerate(tx[t])
        ]
    if L.R3_LIVENESS in families:
        lines.append("; every action kind must occur inside the finite window")
        for p in procs:
            for variant, atoms in (
                ("sleep", [sleep[t][p] for t in slots]),
                ("listen", [listen[t][p] for t in slots]),
                ("transmit", [f"(>= {tx[t][p]} 0)" for t in slots]),
            ):
                lines.append(f"(assert (! {_any(atoms)} :named |{r3}.{variant}@p={p}|))")
    for p in procs:
        lines += [
            f"(assert (! {a if p == spec.source else f'(not {a})'} :named |{r4}@t=0,p={p},k={k}|))"
            for k, a in zip(packets, knows[0][p])
        ]
    for t in slots:
        for p, x in enumerate(tx[t]):
            lines += [
                f"(assert (! (=> (= {x} {k}) {a}) :named |{r5}@t={t},p={p},k={k}|))"
                for k, a in zip(packets, knows[t][p])
            ]
    for t in slots:
        for p in procs:
            lines += [
                f"(assert (! (=> {a} {b}) :named |{r6}@t={t},p={p},k={k}|))"
                for k, a, b in zip(packets, knows[t][p], knows[t + 1][p])
            ]
    # Audibility is folded into heard, so the hears relation needs no
    # assertions of its own. senders and heard are defined only where a
    # learning equality reads them: with packets, for listeners with speakers.
    speakers: list[list[int]] = [[] for _ in procs]
    for listener, speaker in sorted(spec.topology.hears):
        speakers[listener].append(speaker)
    listeners = [p for p in procs if speakers[p]] if M else []
    for t in slots if listeners else ():
        count = _sum([f"(ite (>= {x} 0) 1 0)" for x in tx[t]])
        lines.append(f"(assert (! (= (senders {t}) {count}) :named |{r7}.senders@t={t}|))")
        for p in listeners:
            codes = _sum([f"(ite (> {tx[t][s]} 0) {tx[t][s]} 0)" for s in speakers[p]])
            lines.append(f"(assert (! (= (heard {t} {p}) {codes}) :named |{r7}.heard@t={t},p={p}|))")
    for t in slots:
        for p in procs:
            now, later = knows[t][p], knows[t + 1][p]
            if speakers[p]:
                # p listens, the slot has one sender, and p hears packet k:
                # each assertion closes (= (heard t p) k) after the prefix
                lone = f"(and {listen[t][p]} (= (senders {t}) 1) (= (heard {t} {p})"
                lines += [
                    f"(assert (! (= {b} (or {a} {lone} {k})))) :named |{r7}@t={t},p={p},k={k}|))"
                    for k, a, b in zip(packets, now, later)
                ]
            else:
                lines += [
                    f"(assert (! (= {b} {a}) :named |{r7}@t={t},p={p},k={k}|))"
                    for k, a, b in zip(packets, now, later)
                ]
    if L.GOAL_DEADLINE in families:
        for p in procs:
            lines += [
                f"(assert (! {a} :named |{goal}@t={T},p={p},k={k}|))"
                for k, a in zip(packets, knows[T][p])
            ]
    footer = ["(check-sat)"]
    for t in slots:
        footer += [f"(get-value ({s} {l} {x}))" for s, l, x in zip(sleep[t], listen[t], tx[t])]
    if M > 0:
        footer += [f"(get-value ({' '.join(row)}))" for rows in knows for row in rows]
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


# A token is a parenthesis, a "string" or |symbol| (running to the end of
# the text when unterminated) or an atom. A comment matches with the group
# empty, and whitespace (\s is exactly str.isspace) matches nothing, so
# findall steps over both.
_TOKEN = re.compile(r';[^\n]*|([()]|"[^"]*"?|\|[^|]*\|?|[^\s();"|]+)')


def tokenize(text: str) -> list[str]:
    return [token for token in _TOKEN.findall(text) if token]


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
    # Read each holder bit straight from the masks, so a reply that lacks a
    # knows value stops at the first gap instead of first tabulating T·P·M.
    for t, row in enumerate(grid):
        for p in range(P):
            for k, holders in enumerate(row, 1):
                if (t, p, k) not in knows:
                    raise SmtResponseError(
                        f"missing value for knows at t={t}, p={p}, k={k}"
                    )
                if knows[(t, p, k)] != bool(holders >> p & 1):
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
