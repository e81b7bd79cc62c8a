"""The built-in verification suites must hold on every install."""

from ndyn.verify import ALL_SUITES, SuiteResult, run_all


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
