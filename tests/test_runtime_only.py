"""The package ships only its runtime path: every module-level function and
class in src/talex is referenced by the package itself or exported in
talex.__all__.  Code that only the tests call, such as the paper's proof
lemmas and the slow oracles, lives in tests/paper_lemmas.py.  Every method
of a package class is referenced by name somewhere in the package, the
tests or the benchmark, so no method is kept for a caller that does not
exist.  Conjugation is decided in groups.py alone: nothing in the package
outside FiniteGroup calls ``.conjugate``.  The package needs nothing
beyond the standard library: it declares no runtime dependency, a
verify run imports no numpy, and the bundled knot table is found without
importlib.resources.  JSON output has one route: nothing in the
package calls ``json.dumps`` with ``indent``, since cli's writer produces
those bytes.  The CLI runs every command's knots through one loop, so
cli.py catches the search's budget error in one place."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "talex"


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes that no code references outside
    their own definition and that __init__.py does not list in __all__."""
    defined, used, exported = set(), set(), set()
    for filename, source in sources.items():
        for top in ast.parse(source).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                own = top.name
                defined.add(own)
            elif filename == "__init__.py" and isinstance(top, ast.Assign) \
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in top.targets):
                exported |= set(ast.literal_eval(top.value))
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            used |= names - {own}  # a recursive call is not a caller
    return sorted(defined - used - exported)


def test_package_has_no_test_only_code():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_definitions(sources) == []


def test_detects_a_test_only_function():
    sources = {
        "__init__.py": "from .m import api\n__all__ = ['api']\n",
        "m.py": ("def api():\n    return _helper()\n\n\n"
                 "def _helper():\n    return 1\n\n\n"
                 "def oracle(n):\n    return oracle(n - 1)\n"),
    }
    assert unreferenced_definitions(sources) == ["oracle"]


def _name_counts(tree) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def unreferenced_methods(package: dict[str, str],
                         others: list[str]) -> list[str]:
    """Class.method for every non-dunder method of a class in ``package``
    whose name occurs as a Name or Attribute nowhere in ``package`` or
    ``others`` outside the method's own body."""
    used, methods = Counter(), []
    for source in others:
        used += _name_counts(ast.parse(source))
    for source in package.values():
        tree = ast.parse(source)
        used += _name_counts(tree)
        methods += [(cls.name, fn) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) for fn in cls.body
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (fn.name.startswith("__")
                             and fn.name.endswith("__"))]
    # a recursive call is not a caller
    return sorted(f"{cls_name}.{fn.name}" for cls_name, fn in methods
                  if used[fn.name] == _name_counts(fn)[fn.name])


def test_every_method_has_a_caller():
    package = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text(encoding="utf-8")
              for folder in ("tests", "perfbench")
              for path in sorted((ROOT / folder).glob("*.py"))]
    assert unreferenced_methods(package, others) == []


def test_detects_a_method_without_caller():
    package = {
        "m.py": ("class A:\n"
                 "    def api(self):\n        return self._helper()\n\n"
                 "    def _helper(self):\n        return 1\n\n"
                 "    def dead(self, n):\n        return self.dead(n - 1)\n\n"
                 "    def __len__(self):\n        return 0\n"),
    }
    others = ["from m import A\n\nA().api()\n"]
    assert unreferenced_methods(package, others) == ["A.dead"]


def conjugate_references(sources: dict[str, str]) -> list[str]:
    """file:line of every ``.conjugate`` attribute outside the body of the
    class FiniteGroup."""
    found = []
    for filename, source in sources.items():
        tree = ast.parse(source)
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef)
                  and cls.name == "FiniteGroup" for node in ast.walk(cls)}
        found += [f"{filename}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "conjugate" and id(node) not in inside]
    return found


def test_conjugation_is_decided_in_groups():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert conjugate_references(sources) == []


def test_detects_a_conjugate_call():
    sources = {
        "groups.py": ("class FiniteGroup:\n"
                      "    def conjugate(self, g, by):\n        return g\n\n"
                      "    def classes(self):\n"
                      "        return {self.conjugate(0, b) for b in 'ab'}\n"),
        "search.py": ("def orbit(group, images):\n"
                      "    return [group.conjugate(x, 1) for x in images]\n"),
    }
    assert conjugate_references(sources) == ["search.py:2"]


def indented_dumps_calls(sources: dict[str, str]) -> list[str]:
    """file:line of every ``dumps(..., indent=...)`` or ``dump(...,
    indent=...)`` call."""
    found = []
    for filename, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and any(
                    kw.arg == "indent" for kw in node.keywords):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                if name in ("dumps", "dump"):
                    found.append(f"{filename}:{node.lineno}")
    return found


def test_json_is_indented_by_cli_alone():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert indented_dumps_calls(sources) == []


def test_detects_an_indented_dumps_call():
    sources = {
        "cli.py": ("import json\nfrom json import dumps\n\n\n"
                   "def emit(envelope):\n"
                   "    print(json.dumps(envelope, indent=2))\n"
                   "    print(dumps(envelope, indent=None))\n"
                   "    print(json.dumps(envelope, sort_keys=True))\n"),
    }
    assert indented_dumps_calls(sources) == ["cli.py:6", "cli.py:7"]


def budget_handlers(source: str) -> list[int]:
    """Line of every ``except`` clause that catches BudgetExceededError,
    alone or in a tuple, by its bare or its qualified name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                      else [node.type])
            if any((c.id if isinstance(c, ast.Name) else
                    getattr(c, "attr", None)) == "BudgetExceededError"
                   for c in caught):
                found.append(node.lineno)
    return found


def test_cli_catches_the_budget_error_once():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert len(budget_handlers(source)) == 1


def test_detects_budget_handlers():
    source = ("def compute(run):\n"
              "    try:\n        run()\n"
              "    except BudgetExceededError:\n        return 4\n\n\n"
              "def verify(run):\n"
              "    try:\n        run()\n"
              "    except (KeyError, homsearch.BudgetExceededError):\n"
              "        return 4\n"
              "    except ValueError:\n        return 3\n")
    assert budget_handlers(source) == [4, 11]


def loaded_after_verify(module: str, *flags: str) -> str:
    """Run one CLI verify in a fresh interpreter started with flags; the
    last line of its output gives the exit code and whether module was
    imported."""
    script = ("import sys\n"
              "from talex.cli import main\n"
              "code = main(['verify', '--case', 'a4', '--knot', '8_18'])\n"
              f"print('exit', code, {module!r}, {module!r} in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_runtime_needs_only_the_standard_library():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"].get("dependencies", []) == []
    assert loaded_after_verify("numpy") == "exit 0 numpy False"


def test_bundled_table_is_found_without_importlib_resources():
    # without site (-S) no .pth file preloads importlib.resources, whose
    # import chain (pathlib, tempfile, zipfile, ...) would land in the
    # first table load of every CLI run
    assert loaded_after_verify("importlib.resources", "-S") \
        == "exit 0 importlib.resources False"
