"""Every name an import binds is read by the module that imports it.

No linter ships with the project, so this scan is the check: it parses
each module under ``src/``, ``tests/`` and ``demos/`` and fails on an
imported name the module never loads.  A package ``__init__`` imports
to re-export, so it is exempt.
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


def test_scan_flags_unused_and_keeps_read_names():
    src = "import math\nimport os.path\nfrom a import b as c, d\nprint(os.sep, d)\n"
    assert unused_imports(src) == ["c", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
