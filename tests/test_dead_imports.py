"""Every name a `src/ndyn` module imports is used in that module.

A name counts as used when the module reads it or lists it in `__all__`.
An import kept only for code outside the module is marked `# noqa: F401`
on the line that names it.  `ndyn/__init__.py` is left out: its imports
are the package's API, and `ndyn.__all__` is built from them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ndyn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
