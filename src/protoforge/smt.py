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
to p and sends k. p's speakers are the q whose listener mask
spec.audience[q] holds bit p. senders is defined once per slot and heard
once per slot and listener, each by an equality over transmit, so the
document grows as T·P·(M + speakers) and no learning equality spells out
the other processes' silence. Both are fixed by transmit, and knowledge is pinned with equalities, so any model's
knows atoms must agree with the local derivation; parse_value_response
checks that agreement and refuses models that drift. Every assertion is
named so unsat cores map back onto requirement families. The footer always
asks for both values and an unsat core; solvers answer the inapplicable
request with an error form, which the parser skips.

The header and declarations never depend on the spec, and are module
constants. Every other family is written once, over placeholder characters
for the digits of p, t and t + 1, and rendered by one renderer, _each: per
process, a family's lines are split once on the process placeholder and
stamped by one join of the pieces on p's digits. R4 has a template for the
source and one for the others, R7 one for processes with speakers and one
without, and each process is stamped into only the one it uses. For a
per-slot family (R1, R2, R5, R6, R7 and the get-value lines) the
processes' text is encoded to ASCII once, as the slot template, and each
slot's block is one bytes.replace of the slot placeholder by t's digits,
then, for R6 and R7, which alone hold t + 1, one more of its placeholder
by t + 1's. With no slots nothing is joined, R5 to R7 build no lines, and
no speaker list, senders or heard definition is built.
R3 (after its comment line), R4 and GOAL, which are not per-slot, are one
block each. The senders and heard definitions are stamped per slot only,
each speaker's term in heard built once for all its listeners. The
document keeps these bytes blocks as they are (see SmtDocument): emit-smt
gathers them into its file without joining them, and run_external joins
them once into a solver's stdin.

family_terms counts, in closed form, the terms each family's assertions
hold, and emit_smtlib checks that count against MAX_TERMS before it builds
any block.
"""

from __future__ import annotations

import re
from itertools import chain, repeat
from typing import Callable, Iterable, TextIO

from .actions import Action, LISTEN, SLEEP, transmit as tx_action
from .model import (
    NetworkSpec,
    Record,
    RequirementLabel,
    SpecValidationError,
    read_int,
    requirement_families,
)
from .trace import ProtocolTrace


class SmtResponseError(ValueError):
    """The solver's text could not be turned into a coherent trace."""


class ExternalSolverError(RuntimeError):
    """The solver process could not run or gave no verdict."""


class SolverTimeout(ExternalSolverError):
    pass


# At most this many terms in an SMT-LIB document: the families' terms
# (family_terms) and the knows values of the get-value line at t = T.
# model.MAX_FACTS does not bound them: heard alone holds T * P * (P - 1)
# terms on `all`, 51 MB of text a slot at 1024 processes. A term takes 12
# (an R3 atom) to about 160 bytes (R5-R7, with their get-value lines), so
# the text stays under about 700 MB; 1024 processes on `all` with one
# packet get horizons up to 3 (154 MB).
MAX_TERMS = 2 ** 22

# Longest solver timeout accepted, in seconds: it stays well under the
# 2**31 ms that subprocess's poll-based wait can represent.
MAX_TIMEOUT_S = 1_000_000


# The header and declarations, which no spec changes: the bytes pieces
# writes for them, each section's lines with the newline that ends each.
HEADER = b"""\
(set-option :produce-models true)
(set-option :produce-unsat-cores true)
(set-logic QF_UFLIA)
"""
DECLARATIONS = b"""\
; transmit codes: -1 silent, 0 garbage, k in [1, M] packet k
(declare-fun sleep (Int Int) Bool)
(declare-fun listen (Int Int) Bool)
(declare-fun transmit (Int Int) Int)
(declare-fun knows (Int Int Int) Bool)
; senders t: transmitters in slot t; heard t p: packet codes p's speakers send
(declare-fun senders (Int) Int)
(declare-fun heard (Int Int) Int)
"""


class SmtDocument(Record):
    """An SMT-LIB 2 document in four sections, separated by a blank line:
    HEADER and DECLARATIONS, the same in every document, then the
    assertions and the footer, the two that are fields.

    The fields are tuples of ASCII bytes blocks, a block being one or more
    whole lines joined by newlines, without a final one: emit_smtlib stores
    a per-slot family's stamp for one slot as one block, and each family
    that is not per-slot as one. pieces lists the document's bytes as the
    constant sections, these blocks and the newlines between them, which
    emit-smt writes to its file unjoined and run_external joins once for a
    solver's stdin; write decodes them one at a time onto a text stream.
    text, the whole document as one string, and assertions, one string per
    assertion line, join and decode the blocks at each read; the package
    reads neither, bench/tracing.py times and counts them.
    """

    __slots__ = ("assertion_blocks", "footer_blocks")
    # Documents compare by identity, as comparing their blocks could read MBs.
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, assertion_blocks: tuple[bytes, ...], footer_blocks: tuple[bytes, ...]
    ) -> None:
        object.__setattr__(self, "assertion_blocks", assertion_blocks)
        object.__setattr__(self, "footer_blocks", footer_blocks)

    def pieces(self) -> list[bytes]:
        """The document's bytes in order: the constant sections, then each
        block, the newline that ends it, and a newline between sections."""
        out = [HEADER, b"\n", DECLARATIONS]
        for section in (self.assertion_blocks, self.footer_blocks):
            if section:
                out.append(b"\n")
                for block in section:
                    out += (block, b"\n")
        return out

    def write(self, fh: TextIO) -> None:
        """Writes text to the text stream fh piece by piece, without building it."""
        fh.writelines(piece.decode("ascii") for piece in self.pieces())

    @property
    def text(self) -> str:
        return b"".join(self.pieces()).decode("ascii")

    @property
    def assertions(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(
            block.decode("ascii").split("\n") for block in self.assertion_blocks))


def _any(terms: list[str]) -> str:
    if len(terms) == 1:
        return terms[0]
    return f"(or {' '.join(terms)})" if terms else "false"


def _sum(terms: list[str]) -> str:
    return terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"


# Placeholders for the slot t, the slot t + 1 and the process p in the
# repeated families; no spec renders any of these characters.
_T, _T1, _P = "\x00", "\x01", "\x02"
_SLOT, _NEXT = _T.encode(), _T1.encode()  # the first two in the bytes slot templates


def _stamp(lines: list[str], slots: range | None) -> list[bytes]:
    """The lines joined as ASCII blocks: one when slots is None, else one per
    slot, the template being encoded once and each slot's block one
    bytes.replace of _T by t's digits, then one of _T1 by t + 1's where the
    template holds it. No blocks without lines."""
    if not lines:
        return []
    template = "\n".join(lines).encode("ascii")
    if slots is None:
        return [template]
    if _NEXT in template:
        return [template.replace(_SLOT, b"%d" % t).replace(_NEXT, b"%d" % (t + 1)) for t in slots]
    return [template.replace(_SLOT, b"%d" % t) for t in slots]


def _each(
    lines: Iterable[str] | Callable[[int], Iterable[str]], P: int, slots: range | None
) -> list[bytes]:
    """A family's blocks, stamped per process, then as _stamp stamps them.
    lines is one process's lines, with _P for p, or a function giving the
    lines process p uses, one of a few. Each distinct set of lines is joined
    and split on _P once, and a process's text is one join of its pieces on
    p's digits; a process whose lines are empty has none. With an empty slot
    range there are no blocks, and no lines are read or joined."""
    if slots is not None and not slots:
        return []
    if callable(lines):
        chosen = list(map(lines, range(P)))
        keys = list(map(id, chosen))
        split = {key: "\n".join(used).split(_P) for key, used in dict(zip(keys, chosen)).items()}
        pieces = map(split.__getitem__, keys)
    else:
        pieces = repeat("\n".join(lines).split(_P), P)
    return _stamp(list(filter(None, map(str.join, map(str, range(P)), pieces))), slots)


def family_terms(spec: NetworkSpec) -> dict[RequirementLabel, int]:
    """The terms each family's assertions hold in emit_smtlib's document, in
    closed form and TAXONOMY order. R1 and R2 hold one per cell, R3 (with
    liveness) one per cell and action kind, R4 and GOAL (when asked) one per
    process and packet, and R5-R7 one per cell and packet. Where the problem
    has packets and some listener, R7 also holds the senders definitions'
    terms, one per cell, and TOPO the heard definitions' speaker terms, one
    per slot and audible pair."""
    P, M, T = spec.processes, spec.packets, spec.horizon
    L = RequirementLabel
    families = requirement_families(spec)
    pairs = sum(map(int.bit_count, spec.audience)) if M else 0
    cells = T * P
    return {
        L.R1_EXACTLY_ONE_ACTION: cells,
        L.R2_CONTENT_DOMAIN: cells,
        L.R3_LIVENESS: 3 * cells if L.R3_LIVENESS in families else 0,
        L.R4_INITIAL_KNOWLEDGE: P * M,
        L.R5_TRANSMIT_ONLY_KNOWN: cells * M,
        L.R6_NEVER_FORGETS: cells * M,
        L.R7_COLLISION_FREE_LEARNING: cells * M + (cells if pairs else 0),
        L.GOAL_DEADLINE: P * M if L.GOAL_DEADLINE in families else 0,
        L.TOPO_HEARS_RELATION: T * pairs,
    }


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
    # Audibility is folded into heard, so the hears relation needs no
    # assertions of its own. senders and heard are defined only where a
    # learning equality reads them: with packets, for listeners with speakers.
    # With no slots neither is defined, and no speaker list is built.
    audience = spec.audience
    # the terms MAX_TERMS bounds, counted before any is built
    terms = sum(family_terms(spec).values()) + P * M
    if terms > MAX_TERMS:
        raise SpecValidationError(
            [f"the SMT-LIB document would hold {terms} terms, must be <= {MAX_TERMS}"])
    speakers = [[q for q in procs if audience[q] >> p & 1] for p in procs] if slots else []
    listeners = [p for p, heard_from in enumerate(speakers) if heard_from] if M else []

    # Each assertion is named |family[.variant]@t=..,p=..,k=..| so unsat
    # cores map back onto requirement families. The repeated families are
    # written for process _P in slot _T (_T1 for t + 1).
    s, l, x = (f"({name} {_T} {_P})" for name in ("sleep", "listen", "transmit"))
    at = f"t={_T},p={_P}"
    cells = [
        f"(assert (! (and (not (and {s} {l})) (=> {s} (= {x} (- 1)))"
        f" (=> {l} (= {x} (- 1)))) :named |{r1}@{at}|))",
        f"(assert (! (or {s} {l} (>= {x} 0)) :named |{r1}.any@{at}|))",
    ]
    bounds = [f"(assert (! (and (>= {x} (- 1)) (<= {x} {M})) :named |{r2}@{at}|))"]
    held, lacking, sent, kept, heard, deaf, goals = ([] for _ in range(7))
    for k in packets:
        start = f"(knows 0 {_P} {k})"
        held.append(f"(assert (! {start} :named |{r4}@t=0,p={_P},k={k}|))")
        lacking.append(f"(assert (! (not {start}) :named |{r4}@t=0,p={_P},k={k}|))")
        goals.append(f"(assert (! (knows {T} {_P} {k}) :named |{goal}@t={T},p={_P},k={k}|))")
    for k in packets if slots else ():  # the per-slot lines: without slots, no block holds them
        a, b = f"(knows {_T} {_P} {k})", f"(knows {_T1} {_P} {k})"
        sent.append(f"(assert (! (=> (= {x} {k}) {a}) :named |{r5}@{at},k={k}|))")
        kept.append(f"(assert (! (=> {a} {b}) :named |{r6}@{at},k={k}|))")
        # with speakers, p learns k if it listens, the slot has one sender and p hears k
        learns = f"(or {a} (and {l} (= (senders {_T}) 1) (= (heard {_T} {_P}) {k})))"
        heard.append(f"(assert (! (= {b} {learns}) :named |{r7}@{at},k={k}|))")
        deaf.append(f"(assert (! (= {b} {a}) :named |{r7}@{at},k={k}|))")
    tx = [f"(transmit {_T} {q})" for q in procs]
    code = [f"(ite (> {q} 0) {q} 0)" for q in tx]  # each speaker's term in its listeners' heard
    defined = []
    if listeners:
        count = _sum([f"(ite (>= {q} 0) 1 0)" for q in tx])
        defined.append(f"(assert (! (= (senders {_T}) {count}) :named |{r7}.senders@t={_T}|))")
    for p in listeners:
        codes = _sum([code[q] for q in speakers[p]])
        defined.append(f"(assert (! (= (heard {_T} {p}) {codes}) :named |{r7}.heard@t={_T},p={p}|))")
    blocks = _each(cells, P, slots) + _each(bounds, P, slots)
    if L.R3_LIVENESS in families:
        blocks.append(b"; every action kind must occur inside the finite window")
        blocks += _each([
            f"(assert (! {_any(atoms)} :named |{r3}.{variant}@p={_P}|))"
            for variant, atoms in (
                ("sleep", [f"(sleep {t} {_P})" for t in slots]),
                ("listen", [f"(listen {t} {_P})" for t in slots]),
                ("transmit", [f"(>= (transmit {t} {_P}) 0)" for t in slots]),
            )
        ], P, None)
    blocks += _each(lambda p: held if p == spec.source else lacking, P, None)
    blocks += _each(sent, P, slots) + _each(kept, P, slots) + _stamp(defined, slots)
    blocks += _each(lambda p: heard if speakers[p] else deaf, P, slots)
    if L.GOAL_DEADLINE in families:
        blocks += _each(goals, P, None)
    known = [f"(get-value ({' '.join(f'(knows {_T} {_P} {k})' for k in packets)}))"] if M else []
    footer = [b"(check-sat)", *_each([f"(get-value ({s} {l} {x}))"], P, slots)]
    footer += [*_each(known, P, range(T + 1)), b"(get-unsat-core)", b"(exit)"]
    return SmtDocument(tuple(blocks), tuple(footer))


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
    """Feeds the document to a solver process over stdin: the bytes --out
    writes, joined once. The reply is read as text mode reads it: decoded
    in the locale's encoding, with CR LF and a lone CR made LF.

    The command gets no arguments beyond its own; solvers that need flags
    to read stdin (z3 -in, cvc5 with no file) should include them.
    """
    import locale  # imported here, their one reader: no other command pays for them
    import shlex
    import subprocess

    argv = shlex.split(command)
    if not argv:
        raise ExternalSolverError("empty solver command")
    if timeout is not None and not 0 < timeout <= MAX_TIMEOUT_S:
        raise SolverTimeout(f"timeout must lie in (0, {MAX_TIMEOUT_S}] s, got {timeout}")
    try:
        proc = subprocess.run(argv, input=b"".join(document.pieces()), capture_output=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SolverTimeout(f"external solver exceeded {timeout} s") from None
    except (FileNotFoundError, PermissionError) as exc:
        raise ExternalSolverError(f"cannot run external solver: {exc}") from None
    encoding = locale.getpreferredencoding(False)  # text mode's: UTF-8 in UTF-8 mode
    output, errors = (data.decode(encoding).replace("\r\n", "\n").replace("\r", "\n")
                      for data in (proc.stdout, proc.stderr))
    status = next(
        (
            line.strip()
            for line in output.splitlines()
            if line.strip() in ("sat", "unsat", "unknown")
        ),
        None,
    )
    if status is None:
        detail = (output or errors).strip().splitlines()
        head = detail[0] if detail else "no output"
        raise ExternalSolverError(f"solver gave no sat/unsat/unknown verdict: {head}")
    return ExternalResult(status=status, output=output)
