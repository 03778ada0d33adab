"""The benchmark on smt-export, run twice, and on wide and boundary, run
once each. Its traced replay reads each smt-export document's text and its
one-line-per-entry assertions, which emit-smt itself never builds, and
checks their sizes against the benchmark's counts. A timed run of two
passes writes every document over the one the first pass left. The traced
wide run makes every library call the CLI handlers make, run_baseline's
among them, so it fails if the benchmark no longer reads what they return.
The traced boundary run replays solve, write_trace, validate and
unsat_core_minimize on specs at and one below their least horizon.
Takes about 10 s."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_smt_export_run_counts_the_documents():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "smt-export",
         "--seed", "1", "--trace", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert (metrics["smt.bytes"], metrics["smt.assertions"]) == (5_978_577, 43_799)


def test_smt_export_documents_written_over_the_last_pass_stay_exact():
    # the second pass writes each of the draw's 15 documents over the file
    # the first left; the benchmark re-parses any document whose digest
    # changed, and each pass writes 5,978,577 bytes
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "smt-export",
         "--seed", "1", "--trace", "0", "--seconds", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert abs(result["metrics"]["written_mb"]["value"] - 5_978_577 / 15 / 1e6) <= 1e-12


def test_traced_wide_run_reads_the_library_calls_it_times():
    # the replay unpacks each call's result as the benchmark expects it,
    # run_baseline's (join slots, report) pair among them
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "wide",
         "--seed", "1", "--trace", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["sim.baseline_slots"]["value"] == 5819
    # the written traces, most of whose action rows repeat an earlier row,
    # are byte for byte what each row rendered on its own gave
    assert result["metrics"]["trace.bytes"]["value"] == 483_097


def test_traced_boundary_run_decides_every_request():
    # every synth and unsat-core request is decided under the node budget,
    # and each Sat trace validates clean
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "boundary",
         "--seed", "1", "--trace", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 420, 0)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    solves = [metrics[f"solver.solve.{status}"] for status in ("sat", "unsat", "budget")]
    assert solves == [140, 140, 0]
    assert (metrics["trace.bytes"], metrics["trace.violations"]) == (110_401, 0)
