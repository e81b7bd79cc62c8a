"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# counts that must repeat exactly between traced runs of one seed
EXACT = ("poly.roots_calls", "poly.rat_make_calls",
         "builder.instantiate_calls", "planes.orbit_steps",
         "planes.bytes_written", "conjugate.make_form_calls")


def bench(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    return last, json.loads(last)


def expected_metrics(trace):
    return {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_once_with_unit(workload):
    raw, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = expected_metrics(0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert raw.count(json.dumps(name) + ":") == 1
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and value > 0, name


def test_traced_counts_repeat_for_one_seed():
    raw, first = bench("forms", 1)
    _, second = bench("forms", 1)
    want = expected_metrics(1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    for name in want:
        assert raw.count(json.dumps(name) + ":") == 1
    for name in EXACT:
        a = first["metrics"][name]["value"]
        assert a == second["metrics"][name]["value"], name
    assert first["metrics"]["poly.roots_calls"]["value"] > 0
    assert first["metrics"]["planes.orbit_steps"]["value"] > 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "forms",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_every_function():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import ndyn
        import ndyn.cli  # noqa: F401  (binds the CLI's names too)
        import tracer as tracing
        before = tracing.bindings_snapshot()
        original = ndyn.planes.poly_roots
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert ndyn.planes.poly_roots is not original
            assert ndyn.conjugate.poly_roots is ndyn.planes.poly_roots
            tracer.op = 0
            ndyn.conjugated_form("king", {"beta": 1.0})
        finally:
            tracer.uninstall()
        assert tracing.bindings_snapshot() == before
        assert ndyn.planes.poly_roots is original
        summary = tracer.summary()
        assert summary["poly.poly_roots"]["calls"] > 0
        assert summary["builder.conjugated_form"]["calls"] == 1
        for rec in summary.values():
            assert 0.0 <= rec["self_s"] <= rec["total_s"] + 1e-9
    finally:
        del sys.path[:2]
