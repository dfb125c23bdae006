"""Every name a module imports is used in it or listed in its __all__."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/talex/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\nimport os, re\n"
              "from json import dumps as d\n__all__ = ['d']\nre.compile\n")
    assert unused_imports(source) == ["os"]
