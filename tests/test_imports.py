"""Every name a module imports is used in it or listed in its __all__, and
importing the CLI loads no module that generates or inspects code."""

import ast
import os
import subprocess
import sys
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


def test_import_generates_no_code():
    # dataclasses loads inspect, ast, dis and tokenize, and typing is as
    # large; every CLI run pays for them at start-up.  -S keeps site from
    # loading typing on its own
    banned = ["ast", "dataclasses", "dis", "inspect", "tokenize", "typing"]
    code = ("import sys, talex.cli; "
            f"print(sorted(set({banned!r}) & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
