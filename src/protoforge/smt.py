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

The repeated families read the same for every process and slot but for
the digits of p, t and t + 1: R1, R2, R5, R6, R7 and the get-value lines,
and R3 and GOAL, which are not per-slot. Each is written once, over
placeholder characters for the three, split once on a placeholder and
stamped per value by one join of its pieces on the value's digits: per
process into a family's template for one slot, and that per slot, one
block per slot. R6 and R7 alone hold t + 1, filled in by one str.replace
per slot block; R7 has two templates, for processes with and without
speakers. The senders and heard definitions are stamped per slot only,
R4 is rendered directly, and R3 with R4, and GOAL, are one block each.
The document keeps these blocks as they are (see SmtDocument), so emit-smt
writes them to its file one by one, and the whole text is joined only when
something reads it.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from functools import cached_property, partial
from itertools import chain
from typing import TextIO

from .actions import Action, LISTEN, SLEEP, transmit as tx_action
from .model import NetworkSpec, Record, RequirementLabel, read_int, requirement_families, set_bits
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


class SmtDocument(Record):
    """An SMT-LIB 2 document in four sections, separated by a blank line.

    Each section is a tuple of blocks, a block being one or more whole lines
    joined by newlines, without a final one; the header and declarations
    hold one line per block. emit_smtlib stores a per-slot family's stamp
    for one slot as one block, and R3 with R4, and GOAL, as one block each.
    write sends the blocks to a text file as they are. text, the whole
    document as one string, is built only when read, and so are assertions
    and footer, the one-line-per-entry views of the last two sections.
    """

    # No __slots__: the cached properties live in the instance's __dict__.
    # Documents compare by identity, as comparing their blocks could read MBs.
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, header: tuple[str, ...], declarations: tuple[str, ...],
        assertion_blocks: tuple[str, ...], footer_blocks: tuple[str, ...],
    ) -> None:
        object.__setattr__(self, "header", header)
        object.__setattr__(self, "declarations", declarations)
        object.__setattr__(self, "assertion_blocks", assertion_blocks)
        object.__setattr__(self, "footer_blocks", footer_blocks)

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


# Placeholders for the slot t, the slot t + 1 and the process p in the
# repeated families; no spec renders any of these characters.
_T, _T1, _P = "\x00", "\x01", "\x02"


def _joined(lines: list[str]) -> list[str]:
    """The lines as one block; none when there are no lines."""
    return ["\n".join(lines)] if lines else []


def _stamp(lines: list[str], values: range, mark: str) -> list[str]:
    """The lines as one block per value, each mark spliced with its digits by
    one join; none without lines. Per slot (_T), _T1 then gets t + 1."""
    template = "\n".join(lines)
    pieces = template.split(mark)
    blocks = [str(value).join(pieces) for value in values] if lines else []
    if mark == _T and _T1 in template:
        return [block.replace(_T1, str(t + 1)) for t, block in zip(values, blocks)]
    return blocks


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

    each = partial(_stamp, values=procs, mark=_P)  # one process's lines, per process
    # Each assertion is named |family[.variant]@t=..,p=..,k=..| so unsat
    # cores map back onto requirement families. The repeated families are
    # written for process _P in slot _T (_T1 for t + 1), stamped per process.
    s, l, x = (f"({name} {_T} {_P})" for name in ("sleep", "listen", "transmit"))
    at = f"t={_T},p={_P}"
    cells = [
        f"(assert (! (and (not (and {s} {l})) (=> {s} (= {x} (- 1)))"
        f" (=> {l} (= {x} (- 1)))) :named |{r1}@{at}|))",
        f"(assert (! (or {s} {l} (>= {x} 0)) :named |{r1}.any@{at}|))",
    ]
    bounds = [f"(assert (! (and (>= {x} (- 1)) (<= {x} {M})) :named |{r2}@{at}|))"]
    sent, kept, heard, deaf, goals = ([] for _ in range(5))
    for k in packets:
        a, b = f"(knows {_T} {_P} {k})", f"(knows {_T1} {_P} {k})"
        sent.append(f"(assert (! (=> (= {x} {k}) {a}) :named |{r5}@{at},k={k}|))")
        kept.append(f"(assert (! (=> {a} {b}) :named |{r6}@{at},k={k}|))")
        # with speakers, p learns k if it listens, the slot has one sender and p hears k
        learns = f"(or {a} (and {l} (= (senders {_T}) 1) (= (heard {_T} {_P}) {k})))"
        heard.append(f"(assert (! (= {b} {learns}) :named |{r7}@{at},k={k}|))")
        deaf.append(f"(assert (! (= {b} {a}) :named |{r7}@{at},k={k}|))")
        goals.append(f"(assert (! (knows {T} {_P} {k}) :named |{goal}@t={T},p={_P},k={k}|))")
    learnt = [h if speakers[p] else d for p, h, d in zip(procs, each(heard), each(deaf))]
    tx = [f"(transmit {_T} {p})" for p in procs]
    defined = []
    if listeners:
        count = _sum([f"(ite (>= {q} 0) 1 0)" for q in tx])
        defined.append(f"(assert (! (= (senders {_T}) {count}) :named |{r7}.senders@t={_T}|))")
    for p in listeners:
        codes = _sum([f"(ite (> {tx[q]} 0) {tx[q]} 0)" for q in speakers[p]])
        defined.append(f"(assert (! (= (heard {_T} {p}) {codes}) :named |{r7}.heard@t={_T},p={p}|))")
    fixed = []  # R3 and R4, which are not per-slot
    if L.R3_LIVENESS in families:
        fixed.append("; every action kind must occur inside the finite window")
        fixed += each([
            f"(assert (! {_any(atoms)} :named |{r3}.{variant}@p={_P}|))"
            for variant, atoms in (
                ("sleep", [f"(sleep {t} {_P})" for t in slots]),
                ("listen", [f"(listen {t} {_P})" for t in slots]),
                ("transmit", [f"(>= (transmit {t} {_P}) 0)" for t in slots]),
            )
        ])
    for p in procs:
        for k in packets:
            a = f"(knows 0 {p} {k})" if p == spec.source else f"(not (knows 0 {p} {k}))"
            fixed.append(f"(assert (! {a} :named |{r4}@t=0,p={p},k={k}|))")
    blocks = _stamp(each(cells), slots, _T) + _stamp(each(bounds), slots, _T) + _joined(fixed)
    for family in (each(sent), each(kept), defined, learnt):
        blocks += _stamp(family, slots, _T)
    if L.GOAL_DEADLINE in families:
        blocks += _joined(each(goals))
    known = [f"(get-value ({' '.join(f'(knows {_T} {_P} {k})' for k in packets)}))"] if M else []
    footer = ["(check-sat)", *_stamp(each([f"(get-value ({s} {l} {x}))"]), slots, _T)]
    footer += [*_stamp(each(known), range(T + 1), _T), "(get-unsat-core)", "(exit)"]
    return SmtDocument(header, declarations, tuple(blocks), tuple(footer))


_LABELS = {label.value: label for label in RequirementLabel}


def label_of_assertion_name(name: str) -> RequirementLabel:
    """Maps an assertion name like |R5_TransmitOnlyKnown@t=1,p=0,k=2| back
    to its requirement family."""
    tag = name.strip().strip("|").split("@", 1)[0].split(".", 1)[0]
    if tag not in _LABELS:
        raise SmtResponseError(f"unrecognized assertion name: {name}")
    return _LABELS[tag]


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
    """The integer an atom such as 3 or a negation such as (- 1) spells."""
    if isinstance(value, list) and len(value) == 2 and value[0] == "-" and isinstance(value[1], str):
        value = "-" + value[1]  # so (- +1) and (- -1) read as no integer
    return read_int(value) if isinstance(value, str) else None


def _as_bool(value) -> bool | None:
    if value == "true":
        return True
    if value == "false":
        return False
    return None


# The functions whose values a reply gives: each one's argument count and
# the reader of its values, which gives None for a value of another sort.
_READERS = {
    "sleep": (2, _as_bool),
    "listen": (2, _as_bool),
    "transmit": (2, _as_int),
    "knows": (3, _as_bool),
}


def parse_value_response(text: str, spec: NetworkSpec) -> ProtocolTrace:
    """Reassembles a trace from get-value output.

    Expects one (sleep, listen, transmit) triple per cell plus, when M > 0,
    every knows atom; the knows values must match what the learning rule
    derives from the decoded actions.
    """
    P, M, T = spec.processes, spec.packets, spec.horizon
    # each value read, keyed by (function, *indices)
    values: dict[tuple, bool | int] = {}
    for expr in parse_sexprs(text):
        if not isinstance(expr, list):
            continue
        for pair in expr:
            if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], list)):
                continue
            app, value = pair
            if not app or not all(isinstance(part, str) for part in app):
                continue
            arity, read = _READERS.get(app[0], (None, None))
            if len(app) - 1 == arity and (got := read(value)) is not None:
                indices = tuple(map(read_int, app[1:]))
                if None in indices:
                    raise SmtResponseError(f"non-integer index in ({' '.join(app)})")
                values[(app[0], *indices)] = got
    rows: list[tuple[Action, ...]] = []
    for t in range(T):
        row: list[Action] = []
        for p in range(P):
            try:
                asleep = values[("sleep", t, p)]
                listening = values[("listen", t, p)]
                code = values[("transmit", t, p)]
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
                if ("knows", t, p, k) not in values:
                    raise SmtResponseError(
                        f"missing value for knows at t={t}, p={p}, k={k}"
                    )
                if values[("knows", t, p, k)] != bool(holders >> p & 1):
                    raise SmtResponseError(
                        f"knowledge mismatch at t={t}, p={p}, k={k}"
                    )
    return trace


class ExternalResult(Record):
    __slots__ = ("status", "output")

    def __init__(self, status: str, output: str) -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "output", output)


def run_external(
    command: str, document: SmtDocument, timeout: float | None = None
) -> ExternalResult:
    """Feeds the document to a solver process over stdin.

    The command gets no arguments beyond its own; solvers that need flags
    to read stdin (z3 -in, cvc5 with no file) should include them.
    """
    import shlex  # imported here, their one reader: no other command pays for them
    import subprocess

    argv = shlex.split(command)
    if not argv:
        raise ExternalSolverError("empty solver command")
    if timeout is not None and not 0 < timeout <= MAX_TIMEOUT_S:
        raise SolverTimeout(f"timeout must lie in (0, {MAX_TIMEOUT_S}] s, got {timeout}")
    try:
        proc = subprocess.run(
            argv,
            input=document.text,
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
