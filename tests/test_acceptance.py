"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -ra -s` to see the verdict
lines and the reasons for any conditional skips.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import time

import pytest

from protoforge.actions import LISTEN, SLEEP, action_domain, transmit
from protoforge.encoder import encode
from protoforge.model import (
    GoalKind,
    LivenessMode,
    NetworkSpec,
    RequirementLabel,
    parse_spec,
    render_spec,
    topology_all,
    topology_explicit,
    topology_line,
)
from protoforge.sim import PowerModel, run_baseline, simulate_trace
from protoforge.smt import emit_smtlib, parse_value_response, run_external
from protoforge.solver import SolveStatus, min_horizon, solve
from protoforge.trace import ProtocolTrace, read_trace, validate, write_trace
from conftest import make_spec
from oracle import enumerate_all

ENUM_CEILING = 10**5


def _verdict(line: str) -> None:
    print(f"\n{line}")


def test_criterion_1_min_horizon_equals_packet_count():
    """Single-source all-topology broadcast needs exactly M slots."""
    started = time.perf_counter()
    cross_checked = 0
    for P in (2, 3, 4):
        for M in (1, 2, 3):
            spec = NetworkSpec(P, M, 0, 0, topology_all(P))
            found = min_horizon(spec, t_max=M + 2)
            assert found is not None, (P, M)
            t_min, trace = found
            assert t_min == M, (P, M, t_min)
            assert validate(trace) == []
            # replay the horizon climb against the brute-force oracle
            for h in range(M + 1):
                from dataclasses import replace

                cs = encode(replace(spec, horizon=h))
                if len(action_domain(M)) ** (h * P) > ENUM_CEILING:
                    continue
                cross_checked += 1
                oracle = enumerate_all(cs, limit=1)
                assert bool(oracle) == (h >= M), (P, M, h)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _verdict(
        "criterion 1: PASS - T_min == M on all 9 (P, M) instances, "
        f"{cross_checked} horizons oracle-checked, {elapsed:.2f}s"
    )


def test_criterion_2_line_power_table():
    """Always-on policy burns 6 pw with a collision; schedules need at most 5."""
    spec = make_spec()  # 3-node line, one packet, two slots
    pw = PowerModel(active_cost=1, idle_cost=0)
    _, base = run_baseline(spec, pw)
    assert base.total_power == 6
    assert base.concurrent_tx_slots >= 1
    assert base.completed and base.completion_slot == 2

    synth = simulate_trace(solve(encode(spec)).trace, pw)
    assert synth.total_power <= 5
    assert synth.concurrent_tx_slots == 0
    assert synth.completed

    hand = ProtocolTrace.from_actions(
        spec,
        ((transmit(1), LISTEN, LISTEN), (SLEEP, transmit(1), LISTEN)),
    )
    hand_report = simulate_trace(hand, pw)
    assert hand_report.total_power == 5
    _verdict(
        "criterion 2: PASS - baseline 6 pw with concurrent slot, synthesized "
        f"{synth.total_power} pw with none, reference hand schedule 5 pw"
    )


def test_criterion_3_solver_soundness_on_1000_random_specs():
    rng = random.Random(20260819)
    sats = 0
    for _ in range(1000):
        P = rng.randint(1, 3)
        spec = NetworkSpec(
            processes=P,
            packets=rng.randint(0, 2),
            horizon=rng.randint(0, 3),
            source=rng.randrange(P),
            topology=rng.choice([topology_all(P), topology_line(P)]),
            liveness=rng.choice(list(LivenessMode)),
            goal=rng.choice(list(GoalKind)),
        )
        result = solve(encode(spec))
        assert result.status in (SolveStatus.SAT, SolveStatus.UNSAT)
        if result.status is SolveStatus.SAT:
            sats += 1
            assert validate(result.trace) == [], spec
    _verdict(f"criterion 3: PASS - 1000 specs solved, {sats} Sat traces all validate clean")


def test_criterion_4_completeness_against_enumeration_oracle():
    count = agreements = 0
    for P, M, T in itertools.product((1, 2, 3), (0, 1, 2), (0, 1, 2, 3)):
        for topo in (topology_all(P), topology_line(P)):
            for live in LivenessMode:
                for goal in GoalKind:
                    spec = NetworkSpec(P, M, T, 0, topo, live, goal)
                    cs = encode(spec)
                    if len(action_domain(M)) ** (T * P) > ENUM_CEILING:
                        continue
                    count += 1
                    result = solve(cs)
                    oracle = enumerate_all(cs)
                    assert (result.status is SolveStatus.SAT) == bool(oracle), spec
                    if oracle:
                        assert result.trace == oracle[0], spec
                        agreements += 1
    assert count >= 200
    _verdict(
        f"criterion 4: PASS - {count} instances match the oracle's emptiness, "
        f"{agreements} first traces equal"
    )


def test_criterion_5_tight_core_is_exact_unsat_and_one_minimal():
    from dataclasses import replace

    from protoforge.solver import unsat_core_minimize

    cs = encode(make_spec(processes=2, packets=2, horizon=1, topology="all"))
    assert solve(cs).status is SolveStatus.UNSAT
    core = unsat_core_minimize(cs)
    expected = frozenset(
        {RequirementLabel.GOAL_DEADLINE, RequirementLabel.R7_COLLISION_FREE_LEARNING}
    )
    assert core == expected
    assert solve(replace(cs, enabled=frozenset(core))).status is SolveStatus.UNSAT
    for label in core:
        weaker = replace(cs, enabled=frozenset(core - {label}))
        assert solve(weaker).status is SolveStatus.SAT, label
    _verdict(
        "criterion 5: PASS - core is exactly {GOAL_Deadline, R7_CollisionFreeLearning}, "
        "unsat alone, and 1-minimal under re-solving"
    )


def test_criterion_6_round_trips_on_200_random_artifacts():
    rng = random.Random(404)
    spec_trips = trace_trips = 0
    while spec_trips + trace_trips < 200:
        P = rng.randint(1, 5)
        M = rng.randint(0, 3)
        T = rng.randint(0, 4)
        pairs = [(l, s) for l in range(P) for s in range(P) if l != s]
        topo = rng.choice(
            [
                topology_all(P),
                topology_line(P),
                topology_explicit(P, (q for q in pairs if rng.random() < 0.5)),
            ]
        )
        spec = NetworkSpec(
            P, M, T, rng.randrange(P), topo,
            rng.choice(list(LivenessMode)), rng.choice(list(GoalKind)),
        )
        if spec_trips <= trace_trips:
            assert parse_spec(render_spec(spec)) == spec
            spec_trips += 1
        else:
            domain = action_domain(M)
            actions = tuple(
                tuple(rng.choice(domain) for _ in range(P)) for _ in range(T)
            )
            trace = ProtocolTrace.from_actions(spec, actions)
            assert read_trace(write_trace(trace)) == trace
            trace_trips += 1
    _verdict(
        f"criterion 6: PASS - {spec_trips} spec and {trace_trips} trace "
        "round-trips are identities"
    )


def _find_external_solver() -> str | None:
    configured = os.environ.get("PROTOFORGE_SOLVER")
    if configured:
        return configured
    if shutil.which("z3"):
        return "z3 -in"
    if shutil.which("cvc5"):
        return "cvc5 --lang smt2"
    return None


def _agreement_suite() -> list[NetworkSpec]:
    suite = []
    for P, M, T in itertools.product((1, 2, 3), (0, 1, 2), (0, 1, 2)):
        for topo in (topology_all(P), topology_line(P)):
            suite.append(NetworkSpec(P, M, T, 0, topo))
    suite.append(make_spec())
    suite.append(make_spec(processes=2, packets=2, horizon=1, topology="all"))
    suite.append(make_spec(processes=3, packets=2, horizon=2, topology="all"))
    return suite


def test_criterion_7_external_solver_agreement():
    command = _find_external_solver()
    if command is None:
        _verdict(
            "criterion 7: SKIP - no external SMT-LIB 2 solver found on PATH and "
            "PROTOFORGE_SOLVER is unset; install z3 or cvc5 to enable this check"
        )
        pytest.skip(
            "no external SMT-LIB 2 solver available (set PROTOFORGE_SOLVER or "
            "install z3/cvc5); agreement suite not run"
        )
    suite = _agreement_suite()
    assert len(suite) >= 20
    agreements = 0
    for spec in suite:
        internal = solve(encode(spec))
        external = run_external(command, emit_smtlib(spec), timeout=30)
        expected = "sat" if internal.status is SolveStatus.SAT else "unsat"
        assert external.status == expected, spec
        if external.status == "sat":
            trace = parse_value_response(external.output, spec)
            assert validate(trace) == [], spec
        agreements += 1
    _verdict(
        f"criterion 7: PASS - {agreements} instances agree with `{command}`, "
        "all external traces validate clean"
    )


def test_criterion_8_byte_count_substitution_notice():
    _verdict(
        "criterion 8: SKIP - network-stack byte totals (187392 / 184832) are "
        "testbed artifacts, out of scope at desk scale; power, collision, and "
        "horizon properties stand in for them (criteria 1 and 2)"
    )
    pytest.skip(
        "byte-count comparison is out of scope; substituted by the power and "
        "horizon criteria"
    )
