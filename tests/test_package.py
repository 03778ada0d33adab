from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

import protoforge

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_relation_owners_read_hears(path):
    # the pair view exists for the file and JSON forms; everything else
    # reads who hears whom as listener masks
    reads = any(
        isinstance(node, ast.Attribute) and node.attr == "hears" for node in ast.walk(_tree(path))
    )
    assert not reads or path.name == "model.py"


# Definitions that nothing in the package or the bench harness reads by name,
# each kept for a reason of its own.
UNREAD_BY_DESIGN = {
    "render_spec": "the spec file writer that tests round-trip parse_spec through",
    "ProtocolTrace.from_rows": "the constructor for a grid given as rows, which the tampering "
    "and trap tests build traces with",
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
    assert not calls & {"topology_all", "topology_line"} or path.name == "model.py"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_file_and_report_writers_tabulate_knowledge(path):
    # booleans appear only at the file and JSON boundary; everything else
    # reads the holder masks
    calls = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(_tree(path)) if isinstance(node, ast.Call)
    }
    assert "knowledge_table" not in calls or path.name in ("trace.py", "sim.py")


# The functions that produce a trace's knowledge, which they emit as changes.
PRODUCERS = {"sim.py": "run_baseline", "solver.py": "solve"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_trace_module_builds_rows_from_changes(path):
    # a trace's changes become its (T+1)-row view only in trace.py, when a
    # reader first asks for it, and the producers never read that view, so
    # no O(T·M) path returns to them
    tree = _tree(path)
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "changes" not in attributes or path.name == "trace.py"
    if path.name in PRODUCERS:
        [producer] = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == PRODUCERS[path.name]
        ]
        reads = {node.attr for node in ast.walk(producer) if isinstance(node, ast.Attribute)}
        assert "knowledge" not in reads


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
