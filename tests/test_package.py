from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

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
    # everything else reads who hears whom as trace.audiences' bitmasks
    reads = any(
        isinstance(node, ast.Attribute) and node.attr == "hears" for node in ast.walk(_tree(path))
    )
    assert not reads or path.name in ("model.py", "trace.py", "encoder.py", "smt.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_model_builds_all_and_line(path):
    calls = {
        node.func.id for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not calls & {"topology_all", "topology_line"} or path.name == "model.py"


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
