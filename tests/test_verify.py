"""The built-in verification suites must hold on every install."""

import ndyn.verify
from ndyn.verify import (ALL_SUITES, SuiteResult, run_all,
                         suite_region_goldens)


def test_every_suite_passes():
    results = run_all()
    assert len(results) == len(ALL_SUITES)
    report = []
    for r in results:
        if not r.ok:
            report.append(f"{r.name}: {r.failed} failed; " +
                          "; ".join(r.notes[:5]))
    assert not report, "\n".join(report)
    assert sum(r.passed for r in results) > 500


def test_a_suite_keeps_its_first_eight_notes():
    res = SuiteResult("notes")
    for i in range(10):
        res.check(False, f"check {i}")
    assert (res.ok, res.failed, res.notes) == (
        False, 10, [f"check {i}" for i in range(8)])


def test_region_goldens_check_each_row_of_their_table(monkeypatch):
    table = dict(ndyn.verify._REGION_GOLDENS)
    center, _, side, sa, tol = table["m4"]
    table["m4"] = (center, 127.0, side, sa, tol)
    table["king"] = table["king"][:3] + (-3.0, 1e-12)
    monkeypatch.setattr(ndyn.verify, "_REGION_GOLDENS", table)
    res = suite_region_goldens()
    assert (res.passed, res.failed) == (6, 2)
    assert [note.split(":")[0] for note in res.notes] == ["king", "m4"]
