from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path
from types import CodeType
from typing import Iterator

import pytest

import protoforge
from protoforge import sim, solver
from protoforge.model import RequirementLabel

SOURCES = sorted(Path(protoforge.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in protoforge.__all__ if not hasattr(protoforge, name)]
    assert missing == []


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # re-exports listed in __all__ count as uses
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize(
    "path",
    [path for path in SOURCES if path.name not in ("model.py", "__init__.py")],
    ids=lambda path: path.name,
)
def test_only_the_model_reads_liveness_and_goal(path):
    # model.requirement_families decides which families a problem has;
    # every other module asks it instead of testing the modes itself
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert names & {"GoalKind", "LivenessMode"} == set()
    assert attributes & {"liveness", "goal"} == set()


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "model.py"], ids=lambda path: path.name
)
def test_only_the_model_sets_record_fields(path):
    # Record._store sets every record's fields; no other module goes past
    # Record.__setattr__ on its own
    uses = [
        node.lineno for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ]
    assert uses == []


def test_the_simulation_guard_is_the_physical_families():
    L = RequirementLabel
    assert sim.GUARD_LABELS == {
        L.R1_EXACTLY_ONE_ACTION, L.R2_CONTENT_DOMAIN, L.R4_INITIAL_KNOWLEDGE,
        L.R5_TRANSMIT_ONLY_KNOWN, L.R6_NEVER_FORGETS, L.R7_COLLISION_FREE_LEARNING,
        L.TOPO_HEARS_RELATION,
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_relation_owners_read_hears(path):
    # the pair view exists for the file and JSON forms; everything else
    # reads who hears whom as the spec's listener masks, spec.audience
    nodes = list(ast.walk(_tree(path)))
    calls = any(
        isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "hears"
        for node in nodes
    )
    assert not calls or path.name == "model.py"
    assert not any(isinstance(node, ast.Attribute) and node.attr == "topology" for node in nodes)


# Definitions that nothing in the package or the bench harness reads by name,
# each kept for a reason of its own.
UNREAD_BY_DESIGN = {
    "render_spec": "the spec file writer that tests round-trip parse_spec through",
    "action_domain": "the value order as shared Actions, which the tests and their oracle "
    "enumerate grids over; solve tabulates cell_values, so no packet is given an Action",
}


def _definitions(tree: ast.Module) -> list[str]:
    """Module-level functions and classes, and methods as Class.method;
    dunder methods are called by the language, not by name."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{member.name}" for member in node.body
                if isinstance(member, ast.FunctionDef)
                and not (member.name.startswith("__") and member.name.endswith("__"))
            ]
    return names


def _names_read(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names}
    return names


def _readers() -> list[Path]:
    """The modules whose uses count: a re-export in __init__.py is not a
    use, and the bench harness is a caller."""
    readers = [path for path in SOURCES if path.name != "__init__.py"]
    return readers + sorted((ROOT / "bench").glob("*.py"))


def test_every_definition_is_read_by_name():
    read = set().union(*(_names_read(_tree(path)) for path in _readers()))
    defined = {
        name: path.name for path in SOURCES for name in _definitions(_tree(path))
    }
    unread = {name for name in defined if name.rsplit(".", 1)[-1] not in read}
    assert [f"{defined[name]}: {name}" for name in sorted(unread - UNREAD_BY_DESIGN.keys())] == []
    # an exemption whose name gained a reader or went away leaves the list
    assert sorted(UNREAD_BY_DESIGN.keys() - unread) == []


# Defaulted parameters that no call in the package or the bench harness
# passes, each kept for a reason of its own.
UNPASSED_BY_DESIGN: dict[str, str] = {}


def _functions(tree: ast.Module) -> Iterator[tuple[str, int, ast.arguments]]:
    """Each function and method as the name calls use, the number of leading
    parameters a call does not pass (self or cls), and its parameters. A
    class's __init__ is called by the class's name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in member.decorator_list)
                    name = node.name if member.name == "__init__" else member.name
                    yield name, 0 if static else 1, member.args
                    yield from _nested(member)
        elif isinstance(node, ast.FunctionDef):
            yield node.name, 0, node.args
            yield from _nested(node)


def _nested(function: ast.FunctionDef) -> Iterator[tuple[str, int, ast.arguments]]:
    for node in ast.walk(function):
        if isinstance(node, ast.FunctionDef) and node is not function:
            yield node.name, 0, node.args


def _defaulted(name: str, skip: int, args: ast.arguments) -> Iterator[tuple[str, str, int | None]]:
    """Each defaulted parameter: its name as function.parameter, the name
    calls use, and its position in a call's positional arguments (None for
    a keyword-only one)."""
    positional = args.posonlyargs + args.args
    first_defaulted = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first_defaulted:], first_defaulted):
        yield f"{name}.{arg.arg}", arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{name}.{arg.arg}", arg.arg, None


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(kw.arg in (parameter, None) for kw in call.keywords):  # None: **mapping
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no caller overrides is a knob nothing turns: the value
    # belongs in the body, or the parameter belongs to a caller that uses it
    calls: dict[str, list[ast.Call]] = {}
    for path in _readers():
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = {
        knob
        for path in SOURCES for name, skip, args in _functions(_tree(path))
        for knob, parameter, position in _defaulted(name, skip, args)
        if not any(_passes(call, parameter, position) for call in calls.get(name, ()))
    }
    assert sorted(unpassed - UNPASSED_BY_DESIGN.keys()) == []
    # an exemption whose parameter gained a caller or went away leaves the list
    assert sorted(UNPASSED_BY_DESIGN.keys() - unpassed) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_model_builds_all_and_line(path):
    calls = {
        node.func.id for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    # trace.audiences takes "everyone else hears" from topology_all when TOPO is dropped
    allowed = {"model.py": {"topology_all", "topology_line"}, "trace.py": {"topology_all"}}
    assert calls & {"topology_all", "topology_line"} <= allowed.get(path.name, set())


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_file_and_report_writers_tabulate_knowledge(path):
    # booleans appear only at the file and JSON boundary; everything else
    # reads the holder masks
    calls = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(_tree(path)) if isinstance(node, ast.Call)
    }
    assert "knowledge_table" not in calls or path.name in ("trace.py", "sim.py")


# Calls that hand int to a converter of their own, each kept for a reason.
INT_CONVERTERS_BY_DESIGN = {
    "cli.py: _at_least(int, 1)": "CLI option values keep argparse's int() reading",
    "cli.py: _at_least(int, 0)": "CLI option values keep argparse's int() reading",
}


def _truth_value(node: ast.expr) -> bool:
    return isinstance(node, ast.Compare) or (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bool"
    )


def test_only_the_model_reads_integers_from_text():
    # model.read_int is the one rule for how outside text spells an integer;
    # elsewhere int(...) only converts a truth value, and int is handed to
    # nothing but isinstance
    uses = []
    for path in SOURCES:
        if path.name == "model.py":
            continue
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            func = getattr(node.func, "id", None)
            if func == "int" and not (len(node.args) == 1 and _truth_value(node.args[0])):
                uses.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            arguments = node.args + [keyword.value for keyword in node.keywords]
            if func != "isinstance" and any(getattr(a, "id", None) == "int" for a in arguments):
                uses.append(f"{path.name}: {ast.unparse(node)}")
    assert sorted(set(uses) - INT_CONVERTERS_BY_DESIGN.keys()) == []
    # an exemption whose call went away leaves the list
    assert sorted(INT_CONVERTERS_BY_DESIGN.keys() - set(uses)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_tests_enum_membership_with_in(path):
    # `x in ActionKind` raises TypeError for a non-member on Python 3.11 and
    # runs a Python-level __contains__; isinstance asks the same question
    tested = [
        f"line {node.lineno}" for node in ast.walk(_tree(path)) if isinstance(node, ast.Compare)
        for op, right in zip(node.ops, node.comparators)
        if isinstance(op, (ast.In, ast.NotIn))
        and isinstance(right, (ast.Name, ast.Attribute))
        and getattr(right, "id", getattr(right, "attr", None)) in ("ActionKind", "RequirementLabel")
    ]
    assert tested == []


def test_only_decide_raises_the_budget_stop():
    # a spent budget becomes SearchBudgetExceeded in one place, so every
    # search's stop, and what it reports, passes through solver.decide
    sites = []
    for path in SOURCES:
        tree = _tree(path)
        # each node's innermost function: ast.walk meets an outer function first
        scope = {id(node): function.name for function in ast.walk(tree)
                 if isinstance(function, ast.FunctionDef) for node in ast.walk(function)}
        sites += [
            f"{path.name}:{scope.get(id(node), '<module>')}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "SearchBudgetExceeded"
        ]
    assert sites == ["solver.py:decide"]


def test_the_search_frame_keeps_its_size():
    """solve's nested search recurses once per cell, and past the recursion
    limit the size of its frame, not the work done, sets what a solve costs.
    CHANGES.md measured it when the frame went from 49 slots (20 locals, 21
    free variables, a stack of 8) to these 37: wide(1)'s synth requests took
    68 minor page faults each on average at the benchmark's call depth, not
    86, and wide's p80 request time fell 12%. A change that needs more state
    in search times that path, then updates the counts."""
    [search] = [
        const for const in solver.solve.__code__.co_consts
        if isinstance(const, CodeType) and const.co_name == "search"
    ]
    assert (search.co_nlocals, len(search.co_freevars), search.co_stacksize) == (15, 14, 8)


def test_no_class_is_a_dataclass():
    """A frozen dataclass compiles and runs six generated methods when its
    module is imported, about 0.6 ms each class, and every CLI run and
    benchmark set-up pays it; model.Record builds the same values without
    generated code. CHANGES.md measured bench/run.py's wide set-up (median
    wall time of 9 runs) when the last four moved onto it: 30.6 ms, of
    which 22.8 compiling the package, 2.6 processing dataclasses and 3.5
    running the rest of its modules, became 26.7 ms with 21.9, 0 and 3.3.
    Importing dataclasses itself costs about 13 ms, so no module imports it
    at module level (see the next test). A NamedTuple is a tuple, which
    unpacks, indexes and compares equal to any tuple of its fields, so no
    value type is one either."""
    classes = [node for path in SOURCES for node in ast.walk(_tree(path))
               if isinstance(node, ast.ClassDef)]
    decorated = {
        node.name for node in classes for decorator in node.decorator_list
        if getattr(getattr(decorator, "func", decorator), "id", None) == "dataclass"
    }
    assert decorated == set()
    named_tuples = {
        node.name for node in classes for base in node.bases
        if getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
    }
    assert named_tuples == set()
    imported = [
        f"{path.name}:{node.lineno}" for path in SOURCES for node in _tree(path).body
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
    ]
    assert imported == []


def test_the_cli_imports_neither_subprocess_nor_dataclasses():
    # subprocess costs 5 to 9 ms to import and shlex about 0.4 ms; only
    # smt.run_external reads them. dataclasses costs about 13 ms, 11 of it
    # inspect; only a refused assignment reads it (model._refuse)
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import protoforge.cli;"
         " print(sorted({'subprocess', 'shlex', 'dataclasses', 'inspect'} & sys.modules.keys()))",
         str(Path(protoforge.__file__).parent.parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # hypothesis imports libcst when a property fails; its deprecation
    # warning must not turn into an INTERNALERROR that skips later tests
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n\n"
        "def test_later():\n    pass\n",
        encoding="utf-8",
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
