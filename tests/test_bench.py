"""The benchmark on smt-export, run twice. Its traced replay reads each
document's text and its one-line-per-entry assertions, which emit-smt
itself never builds, and checks their sizes against the benchmark's
counts. A timed run of two passes writes every document over the one the
first pass left. Takes about 4 s."""

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
