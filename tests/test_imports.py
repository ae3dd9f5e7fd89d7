"""Every name an import binds is read by the module that imports it,
every private name the package defines is read somewhere in it, every
definition in ``src/`` is reached from a command, a demo or the
benchmark, importing a module loads only the modules it imports, and only
``cli``'s writer touches a file.

No linter ships with the project, so these scans are the check.  The
first parses each module under ``src/``, ``tests/`` and ``demos/`` and
fails on an imported name the module never loads.  The second fails on
a single-underscore name defined in ``src/`` (a module-level function,
class or assignment, or a method or dataclass field of a module-level
class) that no expression in ``src/`` loads, as a name or an attribute,
and the same scan runs over ``tests/`` and ``demos/`` together.

The third is a reachability scan over the modules of ``src/meandim``.
Its roots are the functions of ``cli.COMMANDS`` and ``main``, every name or attribute that
``demos/`` and ``perfbench/`` load or import, and the attribute strings
of ``perfbench/spans.py``'s ``ENTRY_POINTS``.  A definition (a
module-level function, class or assignment, or a method) reaches every
definition whose name it loads, as a name or an attribute, so a name
reaches every definition that bears it.  The scan fails on any
definition that is not reached; dunders are not definitions.  It has no
allowlist: what only the tests read belongs in ``tests/``.

The fourth imports each module of the package in a fresh interpreter
and requires the package modules it loads to be exactly those its
module-level relative imports reach, read with ``ast`` from ``src/``:
the package root imports nothing, so no module loads a layer it does
not use.

The fifth holds ``cli`` to one writer: only ``_write`` and ``_check_out``
may call ``open``, ``os.makedirs``, ``os.remove`` or ``json.dump``, and
every function of ``COMMANDS`` takes the checked config, ``cfg``, alone.
"""

import ast
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

from meandim import cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
PACKAGE = ROOT / "src" / "meandim"


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


def loaded_names(node) -> set:
    """Every name, and every attribute name, that an expression under
    ``node`` loads."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
    return names


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
        loaded |= loaded_names(tree)
    return sorted(d for d in defined - loaded if d.startswith("_") and not d.startswith("__"))


def outside_names(sources) -> set:
    """The names the ``sources`` load or import by name."""
    names = set()
    for tree in map(ast.parse, sources):
        names |= loaded_names(tree)
        names.update(a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names)
    return names


def entry_point_names(spans_source: str) -> set:
    """Every part of the attribute strings of ``ENTRY_POINTS`` in a
    ``perfbench/spans.py`` source: a method's class and its name."""
    (value,) = [n.value for n in ast.parse(spans_source).body if isinstance(n, ast.Assign)
                and [t.id for t in n.targets if isinstance(t, ast.Name)] == ["ENTRY_POINTS"]]
    return {part for _, attr in ast.literal_eval(value) for part in attr.split(".")}


def _definitions(module: str, tree):
    """(label, name, the names it loads) of each module-level def, class and
    assignment and each method: a class loads what its body loads outside
    its methods, dunders included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name, loaded_names(node)
        elif isinstance(node, ast.ClassDef):
            methods = [b for b in node.body if isinstance(b, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not b.name.startswith("__")]
            rest = [*node.bases, *node.keywords, *node.decorator_list,
                    *(b for b in node.body if b not in methods)]
            yield f"{module}.{node.name}", node.name, set().union(*map(loaded_names, rest))
            for m in methods:
                yield f"{module}.{node.name}.{m.name}", m.name, loaded_names(m)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for n in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                yield f"{module}.{n.id}", n.id, loaded_names(node.value)


def unreached_definitions(modules: dict, roots) -> list:
    """Labels of the definitions in ``modules`` (name -> source) that no
    chain of loaded names reaches from the names ``roots``; dunders are
    not definitions."""
    defs = [d for module, source in modules.items() for d in _definitions(module, ast.parse(source))
            if not d[1].startswith("__")]
    seen, todo = set(), set(roots)
    while todo:
        name = todo.pop()
        seen.add(name)
        todo |= {n for _, d, loads in defs if d == name for n in loads} - seen
    return sorted(label for label, name, _ in defs if name not in seen)


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


def _src_modules() -> dict:
    """The source of each module of the package, by name."""
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def _roots() -> set:
    """The scan's roots: the commands and ``main``, the names ``demos/``
    and ``perfbench/`` read, and the ``ENTRY_POINTS`` attributes."""
    outside = [p.read_text() for d in ("demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    return ({f.__name__ for f in cli.COMMANDS.values()} | {"main"} | outside_names(outside)
            | entry_point_names((ROOT / "perfbench" / "spans.py").read_text()))


def test_reachability_scan_flags_unreached_definitions():
    # an unreached function, and a chain of two dead functions in full;
    # names a demo reads and ENTRY_POINTS strings are roots, and a class
    # reaches what its dunder methods load
    mod = ("def run(): helper()\n\ndef helper(): pass\n\ndef unused(): pass\n\n"
           "def dead_a(): dead_b()\n\ndef dead_b(): pass\n\ndef shown(): pass\n\n"
           "def traced(): pass\n\nLIMIT = 3\n\n"
           "class Table:\n    def __init__(self): self.n = LIMIT\n\n"
           "    def query(self): pass\n\n    def stale(self): pass\n")
    demo = "from pkg.mod import shown\nshown()\n"
    spans = 'ENTRY_POINTS = [("mod", "traced"), ("mod", "Table.query")]\n'
    roots = {"run"} | outside_names([demo]) | entry_point_names(spans)
    assert unreached_definitions({"mod": mod}, roots) == [
        "mod.Table.stale", "mod.dead_a", "mod.dead_b", "mod.unused"]
    # the real roots flag a scratch definition added to src/
    modules = _src_modules()
    modules["oracle"] += "\n\ndef unused():\n    pass\n"
    assert unreached_definitions(modules, _roots()) == ["oracle.unused"]


def test_every_src_definition_is_reached():
    assert unreached_definitions(_src_modules(), _roots()) == []


def relative_imports(source: str) -> set:
    """The package modules that the module-level relative imports of
    ``source`` name; an import inside a function loads when it runs."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {a.name for a in node.names} if node.module is None else {node.module}
    return names


def import_closure(module: str, modules: dict) -> set:
    """``module`` and every package module its relative imports reach."""
    seen, todo = set(), {module}
    while todo:
        name = todo.pop()
        seen.add(name)
        todo |= relative_imports(modules[name]) - seen
    return seen


def test_import_closure_follows_module_level_relative_imports():
    modules = {"a": "from . import b as bee\nfrom .c import f\nimport numpy\n",
               "b": "from .c import g\n\ndef late():\n    from .d import h\n",
               "c": "", "d": ""}
    assert import_closure("a", modules) == {"a", "b", "c"}
    assert import_closure("d", modules) == {"d"}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_importing_a_module_loads_only_what_it_imports(module):
    # a fresh interpreter: this process has already imported every module
    name = "meandim" if module == "__init__" else f"meandim.{module}"
    probe = (f"import json, sys, {name}; "
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'meandim')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    expected = {"meandim"} | {f"meandim.{m}" for m in import_closure(module, _src_modules()) - {"__init__"}}
    assert json.loads(run.stdout) == sorted(expected)


FILE_CALLS = {"open", "os.makedirs", "os.remove", "json.dump"}


def file_calls(source: str) -> list:
    """(function, call) for each call in a function of ``source`` that
    opens, makes, removes or dumps to a file."""
    return sorted((fn.name, ast.unparse(c.func)) for fn in ast.walk(ast.parse(source))
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for c in ast.walk(fn) if isinstance(c, ast.Call) and ast.unparse(c.func) in FILE_CALLS)


def command_parameters(source: str) -> dict:
    """The parameter names of each function that ``COMMANDS`` maps to in
    ``source``."""
    (commands,) = [n.value for n in ast.parse(source).body if isinstance(n, ast.Assign)
                   and [t.id for t in n.targets if isinstance(t, ast.Name)] == ["COMMANDS"]]
    names = {v.id for v in commands.values}
    return {fn.name: [a.arg for a in (*fn.args.posonlyargs, *fn.args.args, fn.args.vararg,
                                      *fn.args.kwonlyargs, fn.args.kwarg) if a is not None]
            for fn in ast.parse(source).body if isinstance(fn, ast.FunctionDef) and fn.name in names}


def test_writer_scan_flags_file_calls_and_command_parameters():
    src = ("import json, os\n\ndef _write(out, files):\n    os.makedirs(out)\n\n"
           "def cmd_a(cfg):\n    with open('x') as fh:\n        json.dump({}, fh)\n\n"
           "def cmd_b(cfg, out, *, k=1):\n    os.remove(out)\n\nCOMMANDS = {'a': cmd_a, 'b': cmd_b}\n")
    assert file_calls(src) == [("_write", "os.makedirs"), ("cmd_a", "json.dump"), ("cmd_a", "open"),
                               ("cmd_b", "os.remove")]
    assert command_parameters(src) == {"cmd_a": ["cfg"], "cmd_b": ["cfg", "out", "k"]}


def test_cli_writes_files_in_one_place():
    source = (PACKAGE / "cli.py").read_text()
    assert {fn for fn, _ in file_calls(source)} <= {"_write", "_check_out"}
    params = command_parameters(source)
    assert sorted(params) == sorted(f.__name__ for f in cli.COMMANDS.values())
    assert all(p == ["cfg"] for p in params.values()), params
