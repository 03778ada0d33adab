"""protoforge benchmark: one workload, one seed, the CLI driven in-process.

    python3 bench/run.py --workload boundary --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1            # every workload, each in its own process

A single client sends CLI commands back to back (a closed loop) by calling
protoforge.cli.main(argv) with stdout captured, on spec files generated from
the seed. It sends a fixed number of whole passes over the seed's draw, as
many as fill --seconds of request time on the seed program at reference
speed, so the same arguments always send the same requests. Every answer is checked against closed forms; checks and garbage
collection between requests run off the clock. With --trace 1 the draw is
sent exactly once and every request is replayed through the library calls
its CLI handler makes, each inside a span, giving the per-layer numbers.

Human-readable results come first. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 1 when
an answer was wrong and 2 when the program could not be set up. bench/README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from gauge import Gauge
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, replay
from workloads import WORKLOADS, Case, Workload, baseline_completion

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / "out"
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "throughput_rps": "1/s",
    "solved_ratio": "ratio",
    "peak_rss_mb": "MB",
    "written_mb": "MB",
}


class SetupError(Exception):
    pass


def import_program() -> SimpleNamespace:
    """Imports protoforge from this checkout's src/ (never an installed copy)."""
    cli = importlib.import_module("protoforge.cli")
    if Path(cli.__file__).resolve().parent != SRC / "protoforge":
        raise SetupError(f"imported protoforge from {cli.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{part: sys.modules[f"protoforge.{part}"]
           for part in ("cli", "model", "encoder", "solver", "trace", "sim", "smt")}
    )


def set_up(workload: Workload, seed: int) -> tuple[SimpleNamespace, list[Case], Path, list[float], Gauge]:
    """Imports the program, generates the draw and writes the first spec file,
    several times. Returns the last set-up and the wall time of each.

    The other spec files are written just before their first request, off
    the clock: creating a few hundred files costs 7 to 130 ms here depending
    on the file system's load, which would swamp the import this measures."""
    times = []
    gauge = Gauge()
    for rep in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "protoforge" or n.startswith("protoforge.")]:
            del sys.modules[name]
        gc.collect()
        gauge.read()
        start = time.perf_counter()
        program = import_program()
        cases = workload.draw(seed)
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
        _write_spec(workdir, cases[0])
        times.append(time.perf_counter() - start)
        if rep < SETUP_REPEATS - 1:
            shutil.rmtree(workdir)
    return program, cases, workdir, times, gauge


@dataclass
class Outcome:
    code: int | None
    out: str
    error: str | None  # type of an exception that escaped main
    seconds: float


class Client:
    """Sends each case's commands to the CLI and checks every answer."""

    def __init__(self, program: SimpleNamespace, workdir: Path, tracer: Tracer | None = None):
        self.p = program
        self.workdir = workdir
        self.tracer = tracer
        self.gauge = Gauge()
        self.samples: list[float] = []
        self.requests: list[str] = []  # "<case> <command>" per sample
        self.on_clock = 0.0
        self.attempted = self.failed = self.solved = self.capped = 0
        self.exceptions: Counter[str] = Counter()
        self.wrong: list[str] = []
        self.written = self.smt_written = 0
        self.verified_docs: dict[str, str] = {}

    def run_case(self, case: Case) -> None:
        spec = self.workdir / f"{case.name}.spec"
        trace = self.workdir / f"{case.name}.trace"
        if not spec.exists():
            _write_spec(self.workdir, case)
        sat = False
        for command in case.commands:
            if command in ("validate", "simulate") and not sat:
                continue  # nothing to send without a schedule
            argv = _argv(command, case, spec, trace, self.workdir)
            gc.collect()
            if command == "synth":
                trace.unlink(missing_ok=True)
            self.gauge.read()
            outcome = self._send(argv)
            try:
                status, wrong = self._check(command, case, outcome, spec, trace)
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
                status, wrong = "failed", f"cannot check the output: {type(exc).__name__}: {exc}"
            self._tally(status, wrong, case, command, outcome)
            if self.tracer is not None:
                replay(self.p, self.tracer, command, case, spec, trace)
            if command == "synth":
                sat = status == "solved" and outcome.code == 0

    def _send(self, argv: list[str]) -> Outcome:
        out = io.StringIO()
        error = None
        code = None
        if self.tracer is not None:
            self.tracer.begin_request()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.p.cli.main(argv)
        except Exception as exc:  # a crash is a failed request, never the end of the run
            error = type(exc).__name__
        end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.record("cli.main", start, end, error)
        return Outcome(code, out.getvalue(), error, end - start)

    def _tally(self, status: str, wrong: str | None, case: Case, command: str, outcome: Outcome) -> None:
        self.attempted += 1
        self.samples.append(outcome.seconds)
        self.requests.append(f"{case.name} {command}")
        self.on_clock += outcome.seconds
        if outcome.error is not None:
            self.exceptions[outcome.error] += 1
        if wrong is not None:
            self.wrong.append(f"{case.name} {command}: {wrong}")
        if status == "solved":
            self.solved += 1
        elif status == "capped":
            self.capped += 1
        else:
            self.failed += 1

    def _check(self, command: str, case: Case, o: Outcome, spec: Path, trace: Path) -> tuple[str, str | None]:
        """(status, wrong): status is solved, capped or failed; wrong names an
        incorrect answer. A crash or an unexpected exit code fails the request
        without being an incorrect answer."""
        if o.error is not None:
            return "failed", None
        if o.code == 5 and case.node_limit is not None and command in ("synth", "unsat-core"):
            return "capped", None
        if command == "synth":
            if o.code == 0:
                if case.expect == "unsat":
                    return "failed", "sat on an instance below t_min"
                self.written += trace.stat().st_size
                return _verdict(self._check_trace(case, trace))
            if o.code == 1:
                if case.expect == "sat":
                    return "failed", "unsat on an instance at t_min"
                return "solved", None
        elif command == "unsat-core":
            if o.code == 1:
                core = frozenset(o.out.split())
                if core != case.core:
                    return "failed", f"core {sorted(core)}, expected {sorted(case.core)}"
                return "solved", None
            if o.code == 0:
                return "failed", "sat on an instance below t_min"
        elif command == "validate":
            if o.code == 0:
                return "solved", None
            if o.code == 2:
                return "failed", "synthesized trace fails validate: " + o.out.strip()[:200]
        elif command == "simulate":
            if o.code == 0:
                return _verdict(_check_simulation(case, o.out, trace))
        elif command == "baseline":
            if o.code == 0:
                return _verdict(_check_baseline(case, o.out))
        elif command == "emit-smt":
            if o.code == 0:
                doc = self.workdir / f"{case.name}.smt2"
                size = doc.stat().st_size
                self.written += size
                self.smt_written += size
                return _verdict(self._check_smt(case, doc))
        return "failed", None

    def _check_trace(self, case: Case, path: Path) -> str | None:
        text = path.read_text(encoding="utf-8")
        try:
            trace = self.p.trace.read_trace(text)
        except ValueError as exc:
            return f"unreadable trace: {exc}"
        if self.p.trace.write_trace(trace) != text:
            return "read_trace(write_trace(t)) is not exact"
        if trace.spec != self.p.model.parse_spec(case.text):
            return "trace embeds another problem"
        return None

    def _check_smt(self, case: Case, path: Path) -> str | None:
        """The document parses with smt.parse_sexprs and every :named
        assertion maps to a requirement family. A document already checked
        is recognised by its digest and not parsed again."""
        digest = _sha256(path)
        if self.verified_docs.get(case.name) == digest:
            return None
        smt = self.p.smt
        named = 0
        pending: list[str] = []
        depth = 0
        try:
            # One top-level form per line in practice; parens are only counted
            # to cut the stream into pieces, parse_sexprs does the real parse.
            with path.open(encoding="utf-8") as fh:
                for line in fh:
                    pending.append(line)
                    depth += line.count("(") - line.count(")")
                    if depth == 0:
                        named += _count_named(smt, smt.parse_sexprs("".join(pending)))
                        pending.clear()
            if pending:
                named += _count_named(smt, smt.parse_sexprs("".join(pending)))
        except (ValueError, IndexError, RecursionError) as exc:
            return f"document does not parse: {type(exc).__name__}: {str(exc)[:200]}"
        if named == 0:
            return "document has no named assertion"
        self.verified_docs[case.name] = digest
        return None


def _write_spec(workdir: Path, case: Case) -> None:
    (workdir / f"{case.name}.spec").write_text(case.text, encoding="utf-8")


def _argv(command: str, case: Case, spec: Path, trace: Path, workdir: Path) -> list[str]:
    if command == "synth":
        argv = ["synth", str(spec), "--out", str(trace)]
    elif command == "unsat-core":
        argv = ["unsat-core", str(spec)]
    elif command in ("validate", "simulate"):
        return [command, str(trace)]
    elif command == "baseline":
        return ["baseline", str(spec)]
    elif command == "emit-smt":
        return ["emit-smt", str(spec), "--out", str(workdir / f"{case.name}.smt2")]
    else:
        raise ValueError(f"unknown command {command!r}")
    if case.node_limit is not None:
        argv += ["--node-limit", str(case.node_limit)]
    return argv


def _verdict(wrong: str | None) -> tuple[str, str | None]:
    return ("failed", wrong) if wrong else ("solved", None)


def _report_field(out: str, key: str) -> str | None:
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    return None


def _check_simulation(case: Case, out: str, trace: Path) -> str | None:
    actions = json.loads(trace.read_text(encoding="utf-8"))["actions"]
    active = sum(label != "sleep" for row in actions for label in row)
    if _report_field(out, "slots run") != str(case.horizon):
        return f"simulate reports {_report_field(out, 'slots run')} slots for horizon {case.horizon}"
    if _report_field(out, "total power") != f"{active} pw":
        return f"simulate reports {_report_field(out, 'total power')}, trace has {active} active cells"
    return None


def _check_baseline(case: Case, out: str) -> str | None:
    slots = _report_field(out, "slots run")
    if slots is None or not slots.isdigit():
        return "baseline report has no slot count"
    expected = baseline_completion(case.topology, case.processes, case.packets)
    completed = _report_field(out, "completed")
    if expected is not None and completed != f"yes (slot {expected})":
        return f"baseline completed: {completed}, expected slot {expected}"
    return None


def _count_named(smt, forms: list) -> int:
    named = 0
    for form in forms:
        if isinstance(form, list) and len(form) == 2 and form[0] == "assert":
            body = form[1]
            if isinstance(body, list) and body and body[0] == "!" and ":named" in body:
                smt.label_of_assertion_name(body[body.index(":named") + 1])
                named += 1
    return named


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _timing(samples: list[float], client: Client, q: int) -> dict:
    ordered = sorted(samples)
    tail, used, beyond = percentile(ordered, q)
    return {
        "request_p50_s": statistics.median(ordered),
        "request_tail_s": tail,
        "throughput_rps": (client.attempted - client.failed) / sum(ordered),
        "tail_percentile": used,
        "tail_beyond": beyond,
    }


def percentile(sorted_samples: list[float], q: int) -> tuple[float, int, int]:
    """q-th percentile (linear between order statistics), lowered until at
    least ten samples lie beyond it. Returns (value, percentile, beyond)."""
    n = len(sorted_samples)
    while q > 1 and n - math.ceil(q * n / 100) < 10:
        q -= 1
    if n < 2:
        return sorted_samples[0], q, 0
    value = statistics.quantiles(sorted_samples, n=100, method="inclusive")[q - 1]
    return value, q, n - math.ceil(q * n / 100)


def timed_run(client: Client, cases: list[Case], passes: int) -> None:
    """Sends the whole draw `passes` times."""
    for _ in range(passes):
        for case in cases:
            client.run_case(case)


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, full record) for one run."""
    WORK.mkdir(parents=True, exist_ok=True)
    program, cases, workdir, setup_times, setup_gauge = set_up(workload, seed)
    passes = 1 if trace else workload.passes(seconds)
    try:
        tracer = Tracer() if trace else None
        client = Client(program, workdir, tracer)
        timed_run(client, cases, passes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    factors = client.gauge.factors()
    scaled = [d * f for d, f in zip(client.samples, factors)]
    setup_scaled = [d * f for d, f in zip(setup_times, setup_gauge.factors())]
    summary = {
        "setup_s": statistics.median(setup_scaled),
        **_timing(scaled, client, workload.tail_percentile),
        "solved_ratio": client.solved / client.attempted,
        "error_ratio": client.failed / client.attempted,
        "peak_rss_mb": peak_rss_mb,
        "written_mb": client.written / client.attempted / 1e6,
        "smt_mb": client.smt_written / 1e6,
    }
    raw = {"setup_s": statistics.median(setup_times),
           **_timing(client.samples, client, workload.tail_percentile)}
    if trace:
        metrics = layer_metrics(tracer, factors)
        units = PER_LAYER_UNITS
    else:
        metrics = {name: summary[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    result = {
        "correct": not client.wrong,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        **environment(),
        "draw_cases": len(cases),
        "passes": passes,
        "attempted": client.attempted,
        "failed": client.failed,
        "solved": client.solved,
        "capped": client.capped,
        "exceptions": dict(client.exceptions),
        "wrong": client.wrong,
        "on_clock_s": client.on_clock,
        "tail_percentile": summary.pop("tail_percentile"),
        "tail_beyond": summary.pop("tail_beyond"),
        "gauge_median_s": statistics.median(client.gauge.readings),
        "summary": summary,
        "raw": {k: v for k, v in raw.items() if not k.startswith("tail_")},
        "requests": [[name, d, d * f] for name, d, f in zip(client.requests, client.samples, factors)],
        "metrics": metrics,
    }
    if trace:
        record["spans"] = tracer.spans_as_dicts()
    return result, record


def print_human(record: dict) -> None:
    print(f"protoforge bench: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={int(record['trace'])}")
    print(f"  nproc={record['nproc']} python={record['python']} commit={record['commit']}")
    print(f"  draw of {record['draw_cases']} cases sent {record['passes']} times, "
          f"{record['on_clock_s']:.2f} s of request time")
    print(f"  {record['attempted']} requests attempted, "
          f"{record['solved']} solved, {record['capped']} budget-capped, {record['failed']} failed "
          f"({record['exceptions'] or 'no exceptions'}), {len(record['wrong'])} wrong answers")
    for wrong in record["wrong"][:20]:
        print(f"  WRONG {wrong}")
    s = record["summary"]
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "request_tail_s": f"p{record['tail_percentile']} of {record['attempted']} samples, "
                          f"{record['tail_beyond']} beyond it",
        "written_mb": "per request",
        "smt_mb": "in total",
    }
    units = {**END_TO_END_UNITS, "error_ratio": "ratio", "smt_mb": "MB"}
    for name in ("setup_s", "request_p50_s", "request_tail_s", "throughput_rps", "solved_ratio",
                 "error_ratio", "peak_rss_mb", "written_mb", "smt_mb"):
        if name == "smt_mb" and record["workload"] != "smt-export":
            continue
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<16} {s[name]:.6g} {units[name]}{note}")
    if record["trace"]:
        for name, value in record["metrics"].items():
            print(f"  {name:<36} {value:.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if not (SRC / "protoforge" / "cli.py").is_file():
        print(f"error: no protoforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError) as exc:
        print(f"error: cannot set up the program: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_human(record)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Runs every workload in a fresh process, so set-up time and peak memory
    belong to that workload alone."""
    results = {}
    code = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, done.returncode)
        if done.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
