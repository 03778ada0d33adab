"""The benchmark's traced replay, run once on smt-export. It reads each
document's text and its one-line-per-entry assertions, which emit-smt
itself never builds, and checks their sizes against the benchmark's
counts. Takes about 2 s."""

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
