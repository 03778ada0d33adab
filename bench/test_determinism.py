"""The benchmark's own checks: two traced runs with one seed agree exactly,
timed runs with different seeds send the same number of requests and fail
the same number, and BENCHMARK.json names exactly the metrics the runs print.

    python3 -m pytest bench/test_determinism.py

Traced runs send each workload's draw exactly once, so every count they
report depends only on the seed and the program. The suite takes about three
minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
COUNTS = (
    "solver.solve.sat",
    "solver.solve.unsat",
    "solver.solve.budget",
    "solver.solve.error",
    "encoder.atoms",
    "trace.bytes",
    "smt.bytes",
    "smt.assertions",
)


def traced(workload: str) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace1.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_counts(workload):
    (first, first_record), (second, second_record) = traced(workload), traced(workload)
    assert first["correct"] and second["correct"]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for name in ("solved_ratio", "error_ratio"):
        assert first_record["summary"][name] == second_record["summary"][name], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_timed_runs_send_the_same_requests_with_every_seed():
    """A timed run sends whole passes, so its outcome counts do not depend on
    the machine's speed or on the seed."""
    counts = set()
    for seed in (SEED, SEED + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "wide",
             "--seed", str(seed), "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        counts.add((result["attempted"], result["failed"]))
    assert len(counts) == 1, counts


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
