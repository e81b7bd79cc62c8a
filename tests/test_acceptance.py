"""Acceptance gate.

One test per criterion; each prints a single `criterion N: PASS/FAIL` line
on the real stdout (pytest capture bypassed) and then asserts, so the
verbose run shows both the line and the test verdict.
"""

import time

import numpy as np
import pytest

from ndyn import (
    Polynomial,
    RenderConfig,
    catalog_entry,
    catalog_names,
    check_iota_symmetry,
    classify_strange_at,
    colorize,
    conjugated_form,
    critical_points,
    dynamical_plane,
    linearize,
    moebius_sum,
    parameter_plane,
    rat_eval,
    stability_region_z1,
)
from ndyn.builder import SchemeContext, check_scheme_lambda_odd
from ndyn.errors import NdynError, NotPalindromic
from ndyn.poly import is_inf, rat_make
from ndyn.stability import oracle_agreement

from conftest import random_form

SEED = 0xACCE97


def _report(capsys, num, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{tail}")


def _rng():
    return np.random.default_rng(SEED)


def _cbox(rng, half=2.0):
    return complex(rng.uniform(-half, half), rng.uniform(-half, half))


def _draw(rng, half, avoid, clearance=1e-2):
    while True:
        t = _cbox(rng, half)
        if all(abs(t - bad) > clearance for bad in avoid):
            return t


def _close(u, v, tol):
    return abs(u - v) <= tol * (1.0 + abs(v))


# ----------------------------------------------------------------------

def test_criterion_01_coefficient_formulas(capsys):
    rng = _rng()
    start = time.perf_counter()
    formulas = {
        # method -> (avoided parameters, expected a(t))
        "chebyshev-halley": ((0.5, 1.0, 1.5),
                             lambda t: (2.0 - 2.0 * t,)),
        "king": ((-10.0 / 3.0, -5.0 / 2.0),
                 lambda t: (4.0 + t, 5.0 + 2.0 * t)),
        "amat": ((1.0, 3.0 / 8.0),
                 lambda t: (2.0 - 4.0 * t / 3.0, 1.0 - 8.0 * t / 3.0)),
    }
    failures = []
    for name, (avoid, expect) in formulas.items():
        entry = catalog_entry(name)
        pname = entry.params[0]
        for _ in range(5):
            c = _draw(rng, 3.0, (0.0,), clearance=0.2)
            for _ in range(5):
                t = _draw(rng, 2.0, avoid)
                form = conjugated_form(name, {pname: t}, c=c)
                want = expect(t)
                if form.k != len(want) or not all(
                        _close(form.a[j], want[j], 1e-9)
                        for j in range(form.k)):
                    failures.append(f"{name} {pname}={t:.4g} c={c:.4g}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    _report(capsys, 1, ok, f"{elapsed:.2f}s" if not failures
            else failures[0])
    assert not failures, failures[:3]
    assert elapsed < 1.0


def test_criterion_02_two_parameter_families_coincide(capsys):
    rng = _rng()
    start = time.perf_counter()
    failures = []
    for _ in range(20):
        b = _draw(rng, 2.0, (1.0, 3.0 / 8.0))
        ours = conjugated_form("amat", {"beta": b})
        other = conjugated_form("king", {"beta": -4.0 * b / 3.0 - 2.0})
        same = (ours.n == other.n and ours.k == other.k
                and ours.sign == other.sign
                and all(_close(ours.a[j], other.a[j], 1e-9)
                        for j in range(ours.k)))
        if not same:
            failures.append(f"beta={b:.4g}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    _report(capsys, 2, ok, f"{elapsed:.2f}s" if not failures
            else failures[0])
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_03_circle_region_with_boundary_samples(capsys):
    entry = catalog_entry("chebyshev-halley")
    region = stability_region_z1(linearize(entry.stability_producer))
    problems = []
    if region.kind != "circle":
        problems.append(f"kind={region.kind}")
    if abs(region.center - 13.0 / 6.0) > 1e-12:
        problems.append(f"center={region.center}")
    if abs(region.radius - 1.0 / 3.0) > 1e-12:
        problems.append(f"radius={region.radius}")
    if region.attracting_side != "inside":
        problems.append(f"side={region.attracting_side}")
    for j in range(64):
        t = 13.0 / 6.0 + (1.0 / 3.0) * np.exp(2.0j * np.pi * j / 64.0)
        lam, _cls = classify_strange_at(entry.stability_producer(t), 1.0)
        if abs(abs(lam) - 1.0) > 1e-8:
            problems.append(f"boundary sample {j}: |lam|={abs(lam)}")
            break
    lam, _cls = classify_strange_at(entry.stability_producer(2.0), 1.0)
    if abs(lam) > 1e-9:
        problems.append(f"alpha=2 multiplier {abs(lam)}")
    _report(capsys, 3, not problems, "; ".join(problems))
    assert not problems, problems


def test_criterion_04_region_oracle_agreement(capsys):
    entry = catalog_entry("king")
    region = stability_region_z1(linearize(entry.stability_producer))
    problems = []
    lam, _ = classify_strange_at(entry.stability_producer(-4.0), 1.0)
    if abs(lam) > 1e-9:
        problems.append(f"superattracting multiplier {abs(lam)}")
    rng = _rng()
    checked = 0
    draws = (complex(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))
             for _ in range(500))
    for t, verdict, cls, agree in oracle_agreement(
            region, entry.stability_producer, draws):
        if verdict == "boundary":
            continue
        checked += 1
        if not agree:
            problems.append(f"beta={t:.6g}: region {verdict}, direct {cls}")
            break
    detail = "; ".join(problems) if problems else f"{checked} samples"
    _report(capsys, 4, not problems, detail)
    assert not problems, problems


def test_criterion_05_threshold_families(capsys):
    problems = []
    entry = catalog_entry("c-family")
    region = stability_region_z1(linearize(entry.stability_producer))
    rng = _rng()
    drawn = 0
    while drawn < 100:
        c = complex(rng.uniform(-9.0, 15.0), rng.uniform(-10.0, 10.0))
        if abs(abs(c - 3.0) - 8.0) < 1e-3:
            continue
        try:
            form = entry.stability_producer(c)
            lam, cls = classify_strange_at(form, 1.0)
        except NdynError:
            continue
        drawn += 1
        expected = abs(c - 3.0) > 8.0
        verdict = region.verdict(c)
        if verdict == "boundary":
            continue
        region_attracting = verdict == "attracting"
        direct_attracting = cls in ("attracting", "superattracting")
        if region_attracting != expected or direct_attracting != expected:
            problems.append(
                f"c={c:.6g}: |c-3|={abs(c - 3):.4f}, region {verdict}, "
                f"direct {cls}")
            break
    os4 = catalog_entry("os4")
    for _ in range(20):
        b = _cbox(rng, 3.0)
        try:
            lam, cls = classify_strange_at(os4.stability_producer(b), 1.0)
        except NdynError:
            continue
        if cls != "superattracting":
            problems.append(f"b={b:.6g}: z=1 is {cls}, |lam|={abs(lam)}")
            break
    _report(capsys, 5, not problems, "; ".join(problems))
    assert not problems, problems


def test_criterion_06_fixed_point_structure(capsys):
    rng = _rng()
    failures = 0
    first = ""
    for _ in range(200):
        form = random_form(rng)
        R = form.reconstruct()
        ok = True
        if abs(rat_eval(R, 0.0)) > 1e-9:
            ok = False
        if abs(rat_eval(R, 1.0) - 1.0) > 1e-9:
            ok = False
        if R.num.degree - R.den.degree != form.n:
            ok = False
        want = -1.0 if (form.n + form.k) % 2 == 1 else 1.0
        if abs(rat_eval(R, -1.0) - want) > 1e-9:
            ok = False
        if not ok:
            failures += 1
            if not first:
                first = f"n={form.n} k={form.k}"
    _report(capsys, 6, failures == 0,
            f"{failures}/200 failed" + (f", first {first}" if first else ""))
    assert failures == 0, first


def test_criterion_07_root_sum_identities(capsys):
    rng = _rng()
    problems = []
    for _ in range(200):
        k = int(rng.integers(1, 9))
        roots = []
        while len(roots) < k:
            u = _cbox(rng, 2.0)
            if abs(u - 1.0) >= 1e-2 and abs(u + 1.0) >= 1e-2:
                roots.append(u)
        P = Polynomial.from_roots(tuple(roots))
        direct_plus = sum((1.0 + u) / (1.0 - u) for u in roots)
        direct_minus = sum((1.0 - u) / (1.0 + u) for u in roots)
        if not _close(moebius_sum(P, "+"), direct_plus, 1e-8):
            problems.append(f"plus k={k}")
            break
        if not _close(moebius_sum(P, "-"), direct_minus, 1e-8):
            problems.append(f"minus k={k}")
            break
    _report(capsys, 7, not problems, "; ".join(problems))
    assert not problems, problems


BINDINGS = {
    "king": {"beta": 0.7},
    "amat": {"beta": 0.7},
    "chebyshev-halley": {"alpha": 0.3},
    "chun": {"alpha": 1.0},
    "traub-steffensen": {"gamma": 1.0},
    "c-family": {"c": 2.5},
    "m4": {"beta": 0.8},
    "os2": {"a": 1.3},
    "os3": {"a": 0.9},
    "os4": {"b": 1.7},
    "os5": {"a": 0.6},
}


def test_criterion_08_symmetry_suites(capsys):
    problems = []

    # rotation equivariance of every scheme on the degree-d target
    for name in catalog_names():
        entry = catalog_entry(name)
        if entry.ast is None:
            continue
        bad = []
        for d in (2, 3, 4):
            ctx = SchemeContext(d=d, c=1.3, bindings=dict(BINDINGS.get(name, {})))
            if not check_scheme_lambda_odd(entry.ast, ctx, trials=50):
                bad.append(d)
        if bad:
            problems.append(f"{name} not rotation-symmetric for d in {bad}")

    # inversion symmetry of every conjugated operator that exists
    skipped = []
    for name in catalog_names():
        try:
            form = conjugated_form(name, BINDINGS.get(name, {}))
        except NotPalindromic:
            skipped.append(name)
            continue
        if not check_iota_symmetry(form.reconstruct()):
            problems.append(f"{name} operator breaks z -> 1/z symmetry")

    # free critical points come in kappa <-> 1/kappa pairs
    rng = _rng()
    for name, avoid in (("king", (-10.0 / 3.0, -5.0 / 2.0)),
                        ("os2", (-2.8,))):
        pname = catalog_entry(name).params[0]
        for _ in range(20):
            t = _draw(rng, 2.0, avoid)
            form = conjugated_form(name, {pname: t})
            free = [r for r in critical_points(form.reconstruct())
                    if r.free and not is_inf(r.point)]
            if any(r.partner is None for r in free):
                problems.append(f"{name} {pname}={t:.4g}: unpaired free "
                                f"critical point")
                break

    detail = "; ".join(problems)
    if skipped:
        suffix = f"no conjugated operator for {', '.join(skipped)}: skipped"
        detail = f"{detail}; {suffix}" if detail else suffix
    _report(capsys, 8, not problems, detail)
    assert not problems, detail


def test_criterion_09_degenerate_family_reduction(capsys):
    rng = _rng()
    problems = []
    for _ in range(20):
        t = _draw(rng, 8.0, (-4.0, -3.5), clearance=1e-3)
        form = conjugated_form("os5", {"a": t})
        if form.sign != -1:
            problems.append(f"a={t:.4g}: sign {form.sign}")
            break
        want = (7.0 + t, 21.0 + 5.0 * t, 35.0 + 10.0 * t)
        if form.n != 4 or form.k != 3 or not all(
                _close(form.a[j], want[j], 1e-9) for j in range(3)):
            problems.append(f"a={t:.4g}: reduced form off")
            break
        R = form.reconstruct()
        if abs(rat_eval(R, 1.0) + 1.0) > 1e-10:
            problems.append(f"a={t:.4g}: O(1) != -1")
            break
        if abs(rat_eval(R, -1.0) - 1.0) > 1e-10:
            problems.append(f"a={t:.4g}: O(-1) != 1")
            break
    _report(capsys, 9, not problems, "; ".join(problems))
    assert not problems, problems


def test_criterion_10_renderer_sanity(capsys):
    R = rat_make(Polynomial((0.0, 0.0, 1.0)), Polynomial((1.0,)))
    images = []
    problems = []
    for workers in (1, 4, 8):
        cfg = RenderConfig(window=(-2.0, 2.0, -2.0, 2.0),
                           resolution=(400, 400), max_iter=150,
                           workers=workers)
        start = time.perf_counter()
        img = dynamical_plane(R, cfg)
        elapsed = time.perf_counter() - start
        if elapsed >= 5.0:
            problems.append(f"workers={workers}: {elapsed:.2f}s")
        images.append(img)
    base = images[0]
    xs = base.config.x_centers()
    ys = base.config.y_centers()
    mod = np.abs(xs[None, :] + 1j * ys[:, None])
    if not np.all(base.outcome[mod < 0.9] == 1):
        problems.append("inner disk not fully root-0")
    if not np.all(base.outcome[mod > 1.1] == 2):
        problems.append("outer region not fully root-inf")
    for other, workers in zip(images[1:], (4, 8)):
        if not (np.array_equal(base.outcome, other.outcome)
                and np.array_equal(base.iterations, other.iterations)
                and colorize(base).tobytes() == colorize(other).tobytes()):
            problems.append(f"bytes differ at workers={workers}")
    _report(capsys, 10, not problems, "; ".join(problems))
    assert not problems, problems


def test_criterion_11_parameter_plane_capture(capsys):
    entry = catalog_entry("chebyshev-halley")
    cfg = RenderConfig(window=(-1.0, 5.0, -3.0, 3.0), resolution=(300, 300),
                       max_iter=150)
    start = time.perf_counter()
    img = parameter_plane(entry.stability_producer, cfg)
    elapsed = time.perf_counter() - start
    problems = []
    if elapsed >= 30.0:
        problems.append(f"render took {elapsed:.1f}s")
    xs = cfg.x_centers()
    ys = cfg.y_centers()
    grid = xs[None, :] + 1j * ys[:, None]
    inside = np.abs(grid - 13.0 / 6.0) < (1.0 / 3.0) * 0.98
    codes = img.outcome[inside]
    captured = np.count_nonzero((codes != 1) & (codes != 2))
    share = captured / codes.size
    if share < 0.95:
        problems.append(f"only {share:.1%} of the inner circle escapes "
                        "root convergence")
    flat = np.argmin(np.abs(grid - 0.5).ravel())
    code = int(img.outcome.ravel()[flat])
    if code not in (1, 2):
        problems.append(f"pixel nearest 1/2 has outcome code {code}")
    detail = "; ".join(problems) if problems else \
        f"{share:.1%} captured, {elapsed:.1f}s"
    _report(capsys, 11, not problems, detail)
    assert not problems, problems
