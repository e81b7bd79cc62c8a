"""Every name a `src/ndyn` module imports is used in that module, and every
private name or UPPERCASE constant a module defines is read in the package.

A name counts as used when the module reads it or lists it in `__all__`.
An import kept only for code outside the module is marked `# noqa: F401`
on the line that names it.  `ndyn/__init__.py` is left out of the import
check: its imports are the package's API, and `ndyn.__all__` is built from
them.  A defined name counts as read when some module of the package loads
it, as a name or an attribute, or imports it; a name that only the tests
read is dead code.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ndyn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def dead_imports(source: str) -> list:
    """The names the module source imports and never uses, in import order."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    dead = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used \
                    and "# noqa: F401" not in lines[alias.lineno - 1]:
                dead.append(name)
    return dead


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert dead_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_dead_import_and_its_exemption():
    source = ("import os\nimport numpy as np\n"
              "from math import (pi,\n    tau)\n"
              "from sys import argv  # noqa: F401\n"
              "__all__ = ['pi']\nx = np.zeros(1)\n")
    assert dead_imports(source) == ["os", "tau"]


def defined_names(source: str) -> list:
    """The module-level private names and UPPERCASE constants that the
    module source assigns or defines, in source order (dunders left out)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("__")
            and (n.startswith("_") or n.isupper())]


def read_names(source: str) -> set:
    """The names the module source loads, as a name or an attribute, or
    imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def unread_names(sources: dict) -> list:
    """(module, name) of each defined name that no module of `sources`
    (module -> source) reads."""
    read = set().union(*map(read_names, sources.values()))
    return [(module, name) for module, source in sources.items()
            for name in defined_names(source) if name not in read]


def test_every_private_name_and_constant_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_names(sources) == []


def test_the_check_sees_an_unread_name():
    sources = {
        "a.py": ("LIMIT = 1\nSPARE_TOL = 2\n_CACHE: dict = {}\n"
                 "X, _Y = 3, 4\n__all__ = []\n"
                 "def _helper():\n    return LIMIT\n"
                 "def public():\n    return _helper()\n"),
        "b.py": "from .a import X\nimport a\nprint(a._CACHE)\n",
    }
    assert unread_names(sources) == [("a.py", "SPARE_TOL"), ("a.py", "_Y")]
