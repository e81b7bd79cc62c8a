"""Every name that code outside `src/ndyn` reaches the package by exists.

`ndyn.__all__` and `ndyn.builder.__all__` are the import surfaces, and the
benchmark tracer (`bench/tracer.py`) wraps the functions in its `TARGETS`
by name, so deleting one of them breaks `bench/run.py --trace 1`.  README
names code in backticks, so a deleted name it still cites fails here too.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import ndyn
from ndyn import builder

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
MODULES = ("poly", "conjugate", "builder", "analysis", "stability", "planes",
           "cli", "verify", "errors")


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("ndyn_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)     # defines classes and TARGETS only
    return [(layer, name) for layer, names in tracer.TARGETS.items()
            for name in names]


@pytest.mark.parametrize("module", [ndyn, builder],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("layer,name", _tracer_targets())
def test_every_traced_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"ndyn.{layer}"), name))


def _unresolved(text):
    """The backticked references in text that name nothing in ndyn: a
    `module.name` of an ndyn module without that attribute, and a bare
    `_private` or `UPPERCASE` name that no ndyn module has."""
    modules = {m: importlib.import_module(f"ndyn.{m}") for m in MODULES}
    missing = []
    for ref in re.findall(r"`([^`\n]+)`", text):
        dotted = re.fullmatch(r"(\w+)\.(\w+)", ref)
        if dotted and dotted[1] in modules:
            if not hasattr(modules[dotted[1]], dotted[2]):
                missing.append(ref)
        elif re.fullmatch(r"_\w+|[A-Z][A-Z0-9_]+", ref):
            if not any(hasattr(m, ref) for m in modules.values()):
                missing.append(ref)
    return missing


def test_every_name_readme_cites_resolves():
    assert _unresolved((ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_a_deleted_name_in_readme_is_caught():
    text = "`planes.ANCHOR_TOL`, `ANCHOR_TOL`, `_values` and `poly._trim`"
    assert _unresolved(text) == ["planes.ANCHOR_TOL", "ANCHOR_TOL", "_values"]
