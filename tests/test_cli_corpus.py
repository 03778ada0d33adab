"""CLI corpus pin: one sha256 per input file over every command run on it.

The corpus is 24 specs drawn from a fixed seed, two for each mix of `all`,
`line` and explicit relations, liveness off and on, and both goals, plus
the malformed spec and trace files that test_cli and test_fuzz build. Each
spec goes through all eight commands, with and without --json and, where
a command has it, --out; validate and simulate read the trace synth wrote
and an all-listen trace. The hash covers each run's arguments, exit code,
stdout, stderr and every file it wrote. Specs stay far below the ~1000
cells at which the recursive search overflows the interpreter stack, so no
pinned run depends on what the search's deepest frame happens to be doing.

A change that alters any output on purpose rewrites PINS with the dict
that `PYTHONPATH=src python tests/test_cli_corpus.py` prints, and says why.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from protoforge.actions import LISTEN, transmit
from protoforge.cli import SOLVER_ENV, main
from protoforge.model import GoalKind, LivenessMode, SpecError, parse_spec, render_spec
from protoforge.trace import ProtocolTrace, write_trace
from conftest import make_spec
from test_cli import LINE3, OVERSIZED_PACKETS_TRACE
from test_fuzz import HOSTILE_HEARS, SPECS, TRACES

SEARCH = ("--node-limit", "5000")


def _specs() -> dict[str, str]:
    """Two seeded spec files per mix of relation, liveness and goal."""
    rng = random.Random(2417)
    specs = {}
    for topology in ("all", "line", "explicit"):
        for liveness in LivenessMode:
            for goal in GoalKind:
                for copy in range(2):
                    P, M, T = rng.randint(1, 5), rng.randint(0, 3), rng.randint(0, 6)
                    relation = topology if topology != "explicit" else {
                        (l, s) for l in range(P) for s in range(P) if l != s and rng.random() < 0.5
                    }
                    spec = make_spec(P, M, T, rng.randrange(P), relation, liveness, goal)
                    specs[f"{topology} {liveness.value} {goal.value} #{copy}"] = render_spec(spec)
    return specs


def _traces() -> dict[str, str]:
    """The malformed trace files of test_cli and test_fuzz."""
    doc = json.loads(OVERSIZED_PACKETS_TRACE)
    del doc["knowledge"]
    line3 = json.loads(write_trace(TRACES[SPECS[0]]))
    line3["actions"][1][1] = "sleep"  # test_cli's tampered schedule
    del line3["knowledge"]
    guard = make_spec(processes=2, packets=1, horizon=1, topology="all")
    return {
        "deep nesting": "[" * 100_000,
        "deep spec nesting": '{"spec": ' * 100_000,
        "oversized packets": OVERSIZED_PACKETS_TRACE,
        "oversized packets, no grid": json.dumps(doc),
        "huge hears id": write_trace(TRACES[SPECS[2]]).replace("[1, 0]", "[1000000000000, 0]", 1),
        "tampered schedule": json.dumps(line3),
        "guard failure": write_trace(ProtocolTrace.from_actions(guard, ((LISTEN, transmit(1)),))),
    }


def _spec_runs(horizon: int) -> list[list[str]]:
    """Every command on spec.net; validate and simulate read the trace the
    last synth --out wrote, and listen.json."""
    runs = []
    for flags in ([], ["--json"]):
        for out in ([], ["--out", "out.json"]):
            runs.append(["synth", "spec.net", *SEARCH, *out, *flags])
            runs.append(["min-horizon", "spec.net", "--max", str(horizon), *SEARCH, *out, *flags])
            runs.append(["emit-smt", "spec.net", *(["--out", "doc.smt2"] if out else []), *flags])
        runs.append(["unsat-core", "spec.net", *SEARCH, *flags])
        runs.append(["baseline", "spec.net", *flags])
        runs.append(["baseline", "spec.net", "--pw", "3", "--max-slots", "4", *flags])
        runs.append(["compare", "spec.net", *SEARCH, *flags])
    for trace in ("synth.json", "listen.json"):
        for flags in ([], ["--json"]):
            runs.append(["validate", trace, *flags])
            runs.append(["simulate", trace, "--pw", "2", *flags])
    return runs


def _trace_runs(name: str) -> list[list[str]]:
    # simulate tabulates every packet of its report, 8-14 s for the
    # 1,864,135 packets of the trace that reads
    commands = ["validate"] + ["simulate"] * (name != "oversized packets, no grid")
    return [[command, "trace.json", *flags] for command in commands for flags in ([], ["--json"])]


def _digest(runs: list[list[str]]) -> str:
    """Runs each argv in the current directory and hashes what it did."""
    record = []
    for argv in runs:
        for target in ("out.json", "doc.smt2"):
            if os.path.exists(target):
                os.remove(target)
        before = set(os.listdir("."))
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        new = sorted(set(os.listdir(".")) - before)
        written = {name: Path(name).read_text(encoding="utf-8") for name in new}
        if argv[0] == "synth" and "out.json" in written:
            Path("synth.json").write_text(written["out.json"], encoding="utf-8")
        record.append([argv, code, out.getvalue(), err.getvalue(), written])
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def corpus() -> dict[str, str]:
    """The sha256 of every corpus entry, each run in a directory of its own."""
    inputs = {name: (text, "spec") for name, text in _specs().items()}
    inputs |= {
        "line3": (LINE3, "spec"),
        "malformed spec": ("processes = many\n", "spec"),
        "huge hears line": (HOSTILE_HEARS, "spec"),
    }
    inputs |= {name: (text, "trace") for name, text in _traces().items()}
    digests = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        try:
            for i, (name, (text, kind)) in enumerate(inputs.items()):
                os.chdir(scratch)
                os.mkdir(str(i))
                os.chdir(str(i))
                digests[name] = _run_on(text, kind, name)
        finally:
            os.chdir(home)
    return digests


def _run_on(text: str, kind: str, name: str) -> str:
    """Writes one input file to the current directory and runs its commands."""
    if kind == "trace":
        Path("trace.json").write_text(text, encoding="utf-8")
        return _digest(_trace_runs(name))
    Path("spec.net").write_text(text, encoding="utf-8")
    try:
        spec = parse_spec(text)
    except SpecError:
        return _digest(_spec_runs(2))
    listen = ((LISTEN,) * spec.processes,) * spec.horizon
    listen_trace = write_trace(ProtocolTrace.from_actions(spec, listen))
    Path("listen.json").write_text(listen_trace, encoding="utf-8")
    return _digest(_spec_runs(spec.horizon))


PINS = {
    'all off all-know-all #0': 'c9ba2d1bb72a83b89b503ca259d2a4ba3446f1882e7a607aaf256368f088f961',
    'all off all-know-all #1': '09f24019d4af9f4586ec25717b970d87a8d7b7d7dacf96b466b091657009000c',
    'all off none #0': '504761e5500e6ade9104bd620bf79a2548a306389e3505670a01d13097079b2b',
    'all off none #1': '8b8ed13f1de57276d9c687b30bfb4442e1c4670f587c3c907168587203e96ae1',
    'all each-action-once all-know-all #0': 'd5b7e229b8357a148fa975ffb7cb141b8b92c81b38d293869ad083031c2c6d74',
    'all each-action-once all-know-all #1': 'c40bdb9a8157efca210f2a628038f770e954c4ced5e68afce03d2ccc9907d5c6',
    'all each-action-once none #0': '37eb1f0d493bef02a479368d99685904cc8f36f414566ef5042389258df07c47',
    'all each-action-once none #1': '2ceb107a1e7e8b7c683797085f99663abf5d1fbcc56b32e9f03437c15937812c',
    'line off all-know-all #0': 'f69909e6840727cb7c5ba9db0b7cd4539b44b35ceb46606ac6cb9a05c09cd181',
    'line off all-know-all #1': '7113306cd2f5b5b67b6c3a9a783738eb76998316a9c227ee75e79832b0cfde9b',
    'line off none #0': '40c63c19ab0abd4489e46640fe8fb26aaf820749807f893c248c583fa3a8d825',
    'line off none #1': '2067a1efead285a19458e3875bae562f3543b05ed9964dc2ac4008323d8aa2f8',
    'line each-action-once all-know-all #0': 'de898cb1e9878874ddb07417bd0110ccd8436d80ccc2ac88a980bbed908c9acf',
    'line each-action-once all-know-all #1': '4c06927a32258cc7d1fb5fca2c03aadb6cf4783f36ec7028a052160947fb16ff',
    'line each-action-once none #0': 'c74913dd6604ccbb37aa1c3c7dbbbc418a2e0c93f60393e886ed2308c376de2d',
    'line each-action-once none #1': '8c474fdabd8c3ca091b6d6cf3d50bddf593d736e7a8c08b10ccb2c78eb2874e7',
    'explicit off all-know-all #0': 'ab8b68002285a1beab044b971a57633332ec5ecc401922d2019156f7c23ba503',
    'explicit off all-know-all #1': '0532e46bef90bb1c9bef0f2da6bd639c711dd68f2edd4cb679bb3f02ec849425',
    'explicit off none #0': '7910acb2fa9f0a6a3736b007d671d0069fae01e8b95681590ed04e717127d6d5',
    'explicit off none #1': '709b911058b93d0856127b27992ed7d4c34d3c1731ce0ca8f41a9c7a4d8867f9',
    'explicit each-action-once all-know-all #0': '537aa83431e745460220a6607e3cfc909e289528b56f55b361289b3fd57c676e',
    'explicit each-action-once all-know-all #1': '60f64f72dc0b783b02ce81e4f8427998814e443f1fec004b30a5f5f755f37d4b',
    'explicit each-action-once none #0': 'b563b8c84bf6103950a4e86baba7ebf9f1132f2e4240afe9655fe983865697d7',
    'explicit each-action-once none #1': '908d9c838db0a1addc3c53446a52d754eebae1a90a83b7dabb00d33fc6cb1e27',
    'line3': '8c5e1488fcf96da2e7ed2018c049df29c855272ded9518276ae667980409734a',
    'malformed spec': 'bb457629a52b503e9bc2313309e910496b60bd476fd8e47b8f67d221e9c40fef',
    'huge hears line': '3b0ac4dc7e5c95b5fcedbcff80aef1a01d2b86da145168ae1db4a73138b545d7',
    'deep nesting': 'e59fd4a1f4181941932eca2d11bc53db26d6004c02e4067a06199eb17b1e488e',
    'deep spec nesting': 'e59fd4a1f4181941932eca2d11bc53db26d6004c02e4067a06199eb17b1e488e',
    'oversized packets': '578ccdce2f5841754938dde2bdfed05b3cd1348d37dade99a812561cf35226b9',
    'oversized packets, no grid': '0cd10b2e986bfe1f444a2b2c5b85d81f8dde9f87c1d1e68997dea6c3b54ef549',
    'huge hears id': 'fab76e29f3d854da05c3f59909bdd70cce437b53e41db057bef21600b99b22ad',
    'tampered schedule': '5da356cfb1dfcd11e18426a5221d7e6709b4a50270dc3ccdfcaf5110f20ccc5f',
    'guard failure': '532f0da76bb51604f26a6f14b4d9fb10e995d110ef3c0d2aa844a7f1b6eaa3a8',
}


def test_every_command_on_the_corpus_holds_its_pin(monkeypatch):
    monkeypatch.delenv(SOLVER_ENV, raising=False)
    assert corpus() == PINS


if __name__ == "__main__":
    os.environ.pop(SOLVER_ENV, None)
    print("PINS = {")
    for name, digest in corpus().items():
        print(f"    {name!r}: {digest!r},")
    print("}")
