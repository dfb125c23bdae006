"""The package ships only its runtime path: every module-level function and
class in src/talex is referenced by the package itself or exported in
talex.__all__.  Code that only the tests call, such as the paper's proof
lemmas and the slow oracles, lives in tests/paper_lemmas.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "talex"


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
