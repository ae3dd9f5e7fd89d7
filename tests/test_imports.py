"""Every name an import binds is read by the module that imports it, and
every private name the package defines is read somewhere in it.

No linter ships with the project, so these scans are the check.  The
first parses each module under ``src/``, ``tests/`` and ``demos/`` and
fails on an imported name the module never loads; a package
``__init__`` imports to re-export, so it is exempt.  The second fails on
a single-underscore name defined in ``src/`` (a module-level function,
class or assignment, or a method or dataclass field of a module-level
class) that no expression in ``src/`` loads, as a name or an attribute,
and the same scan runs over ``tests/`` and ``demos/`` together.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    # an attribute chain such as np.zeros starts with a read of the name np
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def dead_private_names(sources) -> list:
    """Single-underscore names the ``sources`` define that none of them loads."""
    defined, loaded = set(), set()
    for tree in map(ast.parse, sources):
        bodies = [tree.body] + [c.body for c in tree.body if isinstance(c, ast.ClassDef)]
        for node in (node for body in bodies for node in body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                loaded.add(n.attr)
    return sorted(d for d in defined - loaded if d.startswith("_") and not d.startswith("__"))


def test_scan_flags_unused_and_keeps_read_names():
    src = "import math\nimport os.path\nfrom a import b as c, d\nprint(os.sep, d)\n"
    assert unused_imports(src) == ["c", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_private_scan_flags_unread_definitions():
    a = ("_CAP = 1\n_seen, _lost = 2, 3\n\ndef _dead(): pass\n\n"
         "class _Unused: pass\n\nclass T:\n    _field: int = 0\n    _cache = None\n\n"
         "    def _method(self): return self._field\n\n    def __repr__(self): return ''\n")
    b = "from a import _CAP, _seen\nprint(_CAP + _seen, T()._method())\nt._cache = 1\n"
    assert dead_private_names([a, b]) == ["_Unused", "_cache", "_dead", "_lost"]


def test_no_dead_private_names_in_src():
    assert dead_private_names([p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))]) == []


def test_no_dead_private_names_in_tests_and_demos():
    paths = sorted(p for d in ("tests", "demos") for p in (ROOT / d).rglob("*.py"))
    assert dead_private_names([p.read_text() for p in paths]) == []
