"""Every name that code outside `src/ndyn` reaches the package by exists.

`ndyn.__all__` and `ndyn.builder.__all__` are the import surfaces, and the
benchmark tracer (`bench/tracer.py`) wraps the functions in its `TARGETS`
by name, so deleting one of them breaks `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import ndyn
from ndyn import builder

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
