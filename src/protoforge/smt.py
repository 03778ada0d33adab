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

The per-slot families (R1, R2, R5, R6, R7 and the get-value lines) read
the same in every slot but for the digits of t and t + 1. Each is rendered
once per document as a block over placeholder characters for the two and
stamped out per slot with str.replace; each slot's stamp stays one block.
R3, R4 and GOAL are not per-slot and are rendered directly, one block each.
The document keeps these blocks as they are (see SmtDocument), so emit-smt
writes them to its file one by one, and the whole text is joined only when
something reads it.
"""

from __future__ import annotations

import re
import shlex
import subprocess
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TextIO

from .actions import Action, LISTEN, SLEEP, transmit as tx_action
from .model import NetworkSpec, RequirementLabel, requirement_families, set_bits
from .trace import ProtocolTrace, audiences


class SmtResponseError(ValueError):
    """The solver's text could not be turned into a coherent trace."""


class ExternalSolverError(RuntimeError):
    """The solver process could not run or gave no verdict."""


class SolverTimeout(ExternalSolverError):
    pass


# Longest solver timeout accepted, in seconds: it stays well under the
# 2**31 ms that subprocess's poll-based wait can represent.
MAX_TIMEOUT_S = 1_000_000


@dataclass(frozen=True, eq=False)
class SmtDocument:
    """An SMT-LIB 2 document in four sections, separated by a blank line.

    Each section is a tuple of blocks, a block being one or more whole lines
    joined by newlines, without a final one; the header and declarations
    hold one line per block. emit_smtlib stores a per-slot family's stamp
    for one slot as one block, and R3 with R4, and GOAL, as one block each.
    write sends the blocks to a text file as they are. text, the whole
    document as one string, is built only when read, and so are assertions
    and footer, the one-line-per-entry views of the last two sections.
    """

    header: tuple[str, ...]
    declarations: tuple[str, ...]
    assertion_blocks: tuple[str, ...]
    footer_blocks: tuple[str, ...]

    def _pieces(self) -> Iterator[str]:
        """The text in order: each block, the newline that ends it, and a
        newline between sections."""
        gap = ""
        for section in (self.header, self.declarations, self.assertion_blocks, self.footer_blocks):
            if section:
                yield gap
                for block in section:
                    yield block
                    yield "\n"
                gap = "\n"

    def write(self, fh: TextIO) -> None:
        """Writes text to fh block by block, without building it."""
        fh.writelines(self._pieces())

    @cached_property
    def text(self) -> str:
        return "".join(self._pieces())

    @cached_property
    def assertions(self) -> tuple[str, ...]:
        return _lines(self.assertion_blocks)

    @cached_property
    def footer(self) -> tuple[str, ...]:
        return _lines(self.footer_blocks)


def _lines(blocks: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(chain.from_iterable(block.split("\n") for block in blocks))


def _any(terms: list[str]) -> str:
    if len(terms) == 1:
        return terms[0]
    return f"(or {' '.join(terms)})" if terms else "false"


def _sum(terms: list[str]) -> str:
    return terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"


# Placeholders for t and t + 1 in the per-slot families; no spec renders
# either character.
_T, _T1 = "\x00", "\x01"


def _joined(lines: list[str]) -> list[str]:
    """The lines as one block; none when there are no lines."""
    return ["\n".join(lines)] if lines else []


def _stamp(lines: list[str], slots: range) -> list[str]:
    """The lines as one block per slot, its placeholders filled in."""
    return [
        template.replace(_T, str(t)).replace(_T1, str(t + 1))
        for template in _joined(lines)
        for t in slots
    ]


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
    # Audibility is folded into heard, so the hears relation needs no
    # assertions of its own. senders and heard are defined only where a
    # learning equality reads them: with packets, for listeners with speakers.
    speakers: list[list[int]] = [[] for _ in procs]
    for speaker, heard_by in enumerate(audiences(spec)):
        for listener in set_bits(heard_by):
            speakers[listener].append(speaker)
    listeners = [p for p in procs if speakers[p]] if M else []
    tx = [f"(transmit {_T} {p})" for p in procs]
    # Each assertion is named |family[.variant]@t=..,p=..,k=..| so unsat
    # cores map back onto requirement families. The per-slot families are
    # written once for slot _T (and _T1 for t + 1) and stamped per slot.
    cells, bounds, sent, kept, learnt, actions, known = ([] for _ in range(7))
    for p, x in enumerate(tx):
        s, l = f"(sleep {_T} {p})", f"(listen {_T} {p})"
        cells += [
            f"(assert (! (and (not (and {s} {l})) (=> {s} (= {x} (- 1)))"
            f" (=> {l} (= {x} (- 1)))) :named |{r1}@t={_T},p={p}|))",
            f"(assert (! (or {s} {l} (>= {x} 0)) :named |{r1}.any@t={_T},p={p}|))",
        ]
        bounds.append(f"(assert (! (and (>= {x} (- 1)) (<= {x} {M})) :named |{r2}@t={_T},p={p}|))")
        actions.append(f"(get-value ({s} {l} {x}))")
        for k in packets:
            a, b = f"(knows {_T} {p} {k})", f"(knows {_T1} {p} {k})"
            sent.append(f"(assert (! (=> (= {x} {k}) {a}) :named |{r5}@t={_T},p={p},k={k}|))")
            kept.append(f"(assert (! (=> {a} {b}) :named |{r6}@t={_T},p={p},k={k}|))")
            if speakers[p]:  # p also learns k if it listens, the slot has one sender and p hears k
                a = f"(or {a} (and {l} (= (senders {_T}) 1) (= (heard {_T} {p}) {k})))"
            learnt.append(f"(assert (! (= {b} {a}) :named |{r7}@t={_T},p={p},k={k}|))")
        if M:
            known.append(f"(get-value ({' '.join(f'(knows {_T} {p} {k})' for k in packets)}))")
    defined = []
    if listeners:
        count = _sum([f"(ite (>= {x} 0) 1 0)" for x in tx])
        defined.append(f"(assert (! (= (senders {_T}) {count}) :named |{r7}.senders@t={_T}|))")
    for p in listeners:
        codes = _sum([f"(ite (> {tx[s]} 0) {tx[s]} 0)" for s in speakers[p]])
        defined.append(f"(assert (! (= (heard {_T} {p}) {codes}) :named |{r7}.heard@t={_T},p={p}|))")
    fixed = []  # R3 and R4, which are not per-slot
    if L.R3_LIVENESS in families:
        fixed.append("; every action kind must occur inside the finite window")
        for p in procs:
            for variant, atoms in (
                ("sleep", [f"(sleep {t} {p})" for t in slots]),
                ("listen", [f"(listen {t} {p})" for t in slots]),
                ("transmit", [f"(>= (transmit {t} {p}) 0)" for t in slots]),
            ):
                fixed.append(f"(assert (! {_any(atoms)} :named |{r3}.{variant}@p={p}|))")
    for p in procs:
        for k in packets:
            a = f"(knows 0 {p} {k})" if p == spec.source else f"(not (knows 0 {p} {k}))"
            fixed.append(f"(assert (! {a} :named |{r4}@t=0,p={p},k={k}|))")
    blocks = _stamp(cells, slots) + _stamp(bounds, slots) + _joined(fixed)
    for block in (sent, kept, defined, learnt):
        blocks += _stamp(block, slots)
    if L.GOAL_DEADLINE in families:
        blocks += _joined([
            f"(assert (! (knows {T} {p} {k}) :named |{goal}@t={T},p={p},k={k}|))"
            for p in procs
            for k in packets
        ])
    footer = ["(check-sat)", *_stamp(actions, slots), *_stamp(known, range(T + 1))]
    footer += ["(get-unsat-core)", "(exit)"]
    return SmtDocument(header, declarations, tuple(blocks), tuple(footer))


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


# The integers a reply spells: ASCII decimal only, where int() alone would
# also read 1_0 and any Unicode digit.
_DECIMAL = re.compile(r"[+-]?[0-9]+")


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
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return sign * int(value)
    return None


def _indices(app: list[str]) -> tuple[int, ...]:
    """The integer arguments of a function application such as (sleep 0 1)."""
    if not all(map(_DECIMAL.fullmatch, app[1:])):
        raise SmtResponseError(f"non-integer index in ({' '.join(app)})")
    return tuple(map(int, app[1:]))


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
    trace = ProtocolTrace.from_actions(spec, rows)
    # Read each holder bit straight from the masks, so a reply that lacks a
    # knows value stops at the first gap instead of first tabulating T·P·M.
    for t, row in enumerate(trace.knowledge):
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
    return trace


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
