from __future__ import annotations

import ast
from pathlib import Path

import pytest

import protoforge

SOURCES = sorted(Path(protoforge.__file__).parent.glob("*.py"))


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
