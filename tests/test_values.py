"""Every public value type behaves as its frozen dataclass form did: copies
and pickles compare equal to the original, equal values hash equal, repr
gives the dataclass text, fields cannot be assigned, and SmtDocument
compares by identity."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
from enum import Enum

import pytest

import protoforge
from protoforge import actions, model, sim, smt, solver, trace
from protoforge.actions import Action, ActionKind
from protoforge.encoder import describe, encode
from protoforge.model import RequirementLabel
from protoforge.sim import PowerModel, run_baseline, simulate_trace
from protoforge.smt import ExternalResult, emit_smtlib
from protoforge.solver import SearchConfig, SolveStats, solve
from protoforge.trace import Violation
from conftest import make_spec

# Each type's fields, in constructor order, and its defaulted ones.
FIELDS = {
    "Action": ("kind", "content"),
    "ConstraintSystem": ("spec", "enabled"),
    "ExternalResult": ("status", "output"),
    "NetworkSpec": ("processes", "packets", "horizon", "source", "audience", "liveness", "goal"),
    "PowerModel": ("active_cost",),
    "ProtocolTrace": ("spec", "actions", "knowledge"),
    "SearchConfig": ("node_limit",),
    "SimReport": ("spec", "power", "slots_run", "delivered", "per_process_power",
                  "concurrent_tx_slots", "completion_slot"),
    "SmtDocument": ("assertion_blocks", "footer_blocks"),
    "SolveResult": ("status", "trace", "stats"),
    "SolveStats": ("nodes", "r5", "liveness", "goal", "intra_slot"),
    "SystemDescription": ("counts",),
    "Violation": ("label", "time", "process", "detail"),
}
DEFAULTS = {
    "Action": {"content": None},
    "NetworkSpec": {"liveness": model.LivenessMode.OFF, "goal": model.GoalKind.ALL_KNOW_ALL},
    "PowerModel": {"active_cost": 1},
    "SearchConfig": {"node_limit": None},
    "SolveResult": {"trace": None, "stats": SolveStats()},
    "SolveStats": dict.fromkeys(FIELDS["SolveStats"], 0),
}
IDENTITY_EQUAL = {"SmtDocument"}
UNHASHABLE = {"SystemDescription"}  # its counts are a dict


def _values() -> dict[str, object]:
    """One value of each type, built from scratch on every call."""
    spec = make_spec(processes=3, packets=2, horizon=6, topology="all")
    cs = encode(spec)
    result = solve(cs, SearchConfig(node_limit=10_000))
    synthesized = simulate_trace(result.trace)
    return {
        "Action": Action(ActionKind.TRANSMIT, 2),  # not transmit(2), which is cached
        "ConstraintSystem": cs,
        "ExternalResult": ExternalResult("sat", "sat\n((x true))\n"),
        "NetworkSpec": spec,
        "PowerModel": PowerModel(2),
        "ProtocolTrace": result.trace,
        "SearchConfig": SearchConfig(10_000),
        "SimReport": synthesized,
        "SmtDocument": emit_smtlib(spec),
        "SolveResult": result,
        "SolveStats": result.stats,
        "SystemDescription": describe(cs),
        "Violation": Violation(RequirementLabel.R7_COLLISION_FREE_LEARNING, 1, 2, "heard nothing"),
    }


VALUES = _values()


def test_every_public_value_type_is_covered():
    public = {
        name for name in protoforge.__all__
        if isinstance(value := getattr(protoforge, name), type)
        and not issubclass(value, (Exception, Enum))
    }
    assert public | {"SystemDescription"} == FIELDS.keys() == VALUES.keys()


def _same_fields(a, b, name):
    return all(getattr(a, field) == getattr(b, field) for field in FIELDS[name])


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_the_constructor_takes_the_fields_in_order(name):
    value = VALUES[name]
    parameters = inspect.signature(type(value)).parameters
    assert tuple(parameters) == FIELDS[name]
    defaults = {
        key: parameter.default for key, parameter in parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }
    assert defaults == DEFAULTS.get(name, {})
    fields = [getattr(value, field) for field in FIELDS[name]]
    for rebuilt in (type(value)(*fields), type(value)(**dict(zip(FIELDS[name], fields)))):
        assert _same_fields(rebuilt, value, name)
        assert (rebuilt == value) is (name not in IDENTITY_EQUAL)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_copies_and_pickles_are_equal_values(name):
    value = VALUES[name]
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert _same_fields(clone, value, name)
        if name in IDENTITY_EQUAL:
            assert clone != value
        else:
            assert clone == value
            if name not in UNHASHABLE:
                assert hash(clone) == hash(value)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_equal_values_hash_equal(name):
    value, twin = VALUES[name], _values()[name]
    assert twin is not value and _same_fields(twin, value, name)
    assert value != object()
    if name in IDENTITY_EQUAL:
        assert twin != value
        assert hash(value) == object.__hash__(value)
    elif name in UNHASHABLE:
        assert twin == value
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_repr_is_the_dataclass_text(name):
    value = VALUES[name]
    shown = ", ".join(f"{field}={getattr(value, field)!r}" for field in FIELDS[name])
    assert repr(value) == f"{name}({shown})"


def test_a_violation_reads_as_it_did():
    violation = Violation(RequirementLabel.R5_TRANSMIT_ONLY_KNOWN, 0, 1, "x")
    assert repr(violation) == (
        "Violation(label=<RequirementLabel.R5_TRANSMIT_ONLY_KNOWN: 'R5_TransmitOnlyKnown'>,"
        " time=0, process=1, detail='x')"
    )


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    value = VALUES[name]
    field = FIELDS[name][0]
    before = getattr(value, field)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.unknown = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_replace_rebuilds_the_value_through_its_constructor(name):
    value = VALUES[name]
    rebuilt = value.replace()
    assert rebuilt is not value and type(rebuilt) is type(value)
    assert _same_fields(rebuilt, value, name)
    with pytest.raises(TypeError):
        value.replace(nonfield=1)


def test_replace_runs_the_constructor_checks():
    spec = VALUES["NetworkSpec"]
    assert spec.replace(horizon=2).horizon == 2 and spec.horizon == 6
    with pytest.raises(model.SpecValidationError, match="horizon must be >= 0"):
        spec.replace(horizon=-1)
    with pytest.raises(ValueError, match="transmit needs a content code >= 0"):
        actions.transmit(1).replace(content=-1)


def test_a_report_reads_its_total_power_and_completion_off_its_fields():
    report = VALUES["SimReport"]
    assert report.total_power == sum(report.per_process_power) == 6
    assert report.completed and report.completion_slot == 6
    _, baseline = run_baseline(VALUES["NetworkSpec"], max_slots=1)
    assert (baseline.total_power, baseline.completed, baseline.completion_slot) == (3, False, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.total_power = 0


def test_every_package_enum_member_hashes_by_identity():
    # Enum's own __hash__ is Python code run on every set or dict lookup;
    # members are singletons compared by identity, so they hash by it
    enums = {
        value for module in (actions, model, sim, smt, solver, trace)
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Enum) and value.__module__ == module.__name__
    }
    assert {enum.__name__ for enum in enums} == {
        "ActionKind", "GoalKind", "LivenessMode", "RequirementLabel", "SolveStatus",
    }
    for enum in enums:
        for member in enum:
            assert hash(member) == object.__hash__(member), member
