"""Every module-level import of the package, its tests and its demos is read,
and every definition of the package is named somewhere."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src/distlab", "tests", "demos") for p in (ROOT / d).glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _module_level(body):
    """The statements run at import time: the body, and the bodies of its
    if/try/with blocks, but not of functions or classes."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "handlers", "finalbody"):
                for sub in getattr(node, block, []):
                    yield from _module_level(sub.body if isinstance(sub, ast.ExceptHandler) else [sub])


def unread_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name is read when it is loaded anywhere in the module, annotations
    included, or is listed in ``__all__``.  ``import a.b`` binds ``a``;
    ``from __future__`` and star imports bind nothing checked here.
    """
    tree = ast.parse(source)
    bound = []
    for node in _module_level(tree.body):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [name for name in bound if name not in read]


def test_the_checker_sees_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, Mapping\n"
        "from math import gcd as g, lcm\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    import pickle as json\n"
        "__all__ = ['lcm']\n"
        "def f(x: np.ndarray) -> Mapping:\n"
        "    import sys\n"
        "    return os.sep\n"
    )
    assert unread_imports(source) == ["g", "json", "json"]
    assert unread_imports("import sys\nprint(sys.argv)\n") == []


def test_every_tree_is_scanned():
    dirs = {p.parent.name for p in FILES}
    assert dirs == {"distlab", "tests", "demos"}
    assert Path(__file__).resolve() in FILES
    assert {p.name for p in PERFBENCH} >= {"run.py", "tracer.py"}


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_module_level_imports_are_read(path):
    assert unread_imports(path.read_text()) == []


def imports_numpy(source: str) -> bool:
    """Whether any import of the module, at module level or inside a
    function, loads numpy."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "numpy":
            return True
    return False


def test_the_numpy_guard_sees_every_import():
    assert imports_numpy("def f():\n    import numpy as np\n")
    assert imports_numpy("from numpy.linalg import det\n")
    assert not imports_numpy("from .numpy import x\nimport numbers\n# import numpy\n")


def test_no_module_of_the_package_imports_numpy():
    # numpy is a test oracle only
    importers = [p.name for p in FILES if p.parent.name == "distlab" and imports_numpy(p.read_text())]
    assert importers == []


def test_the_package_has_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.M)
    test_extra = re.search(r"^test = \[(.*)\]$", text, re.M).group(1)
    assert '"numpy>=1.24"' in test_extra


def named(tree: ast.AST) -> Counter:
    """How often each identifier is read in the tree: loaded as a name or an
    attribute, or written as a string constant that is a dotted identifier
    path (the entries of ``__all__``, the targets of the perfbench tracer)."""
    out = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def dead_definitions(package: list[str], corpus: list[str]) -> list[str]:
    """The top-level functions and classes of the package sources, and the
    methods of those classes, that no source of the corpus names outside
    their own definition.  Dunder names, which Python calls by protocol
    (``__init__``, a module's ``__getattr__``), are left out."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    total = Counter()
    for source in corpus:
        total += named(ast.parse(source))
    dead = []
    for source in package:
        for node in ast.parse(source).body:
            if not isinstance(node, (*funcs, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, funcs)]
            dead += [
                qual
                for qual, d in defs
                if not (d.name.startswith("__") and d.name.endswith("__"))
                and total[d.name] == named(d)[d.name]
            ]
    return dead


def test_the_guard_sees_a_dead_definition():
    source = (
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def __getattr__(name): pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def helper(): pass\n"
        "def caller():\n"
        "    return helper() + A().used()\n"
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): return self\n"
        "    def unused(self): return A\n"
        "class B:\n"
        "    def traced(self): pass\n"
    )
    traced = "TARGETS = [('mod', 'B.traced')]\nprint(caller.__doc__)\n"
    assert dead_definitions([source], [source]) == ["recursive", "caller", "A.unused", "B", "B.traced"]
    assert dead_definitions([source], [source, traced]) == ["recursive", "A.unused"]


def test_every_definition_of_the_package_is_named():
    package = [p.read_text() for p in FILES if p.parent.name == "distlab"]
    corpus = [p.read_text() for p in FILES + PERFBENCH]
    assert dead_definitions(package, corpus) == []
