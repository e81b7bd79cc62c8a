"""Built-in property suites.

Each suite re-derives a family of identities from scratch (closed forms
against direct evaluation, frozen coefficient tables, symmetry checks,
region predictions against the raw multiplier oracle) and reports how many
checks passed.  The CLI `verify` subcommand runs all of them; the test
suite reuses individual ones.  Everything is seeded, so two runs produce
identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import free_critical_points, moebius_sum
from .builder import (SchemeContext, catalog_entry, catalog_names,
                      check_scheme_lambda_odd, conjugated_form)
from .conjugate import check_iota_symmetry, extract_normal_form, make_form
from .errors import DegenerateFamily, NotPalindromic
from .poly import Polynomial, is_inf, rat_eval
from .stability import linearize, oracle_agreement, stability_region_z1

_SEED = 20260822


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, note: str = "") -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if note and len(self.notes) < 8:
                self.notes.append(note)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _cx(rng, lo=-3.0, hi=3.0) -> complex:
    return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))


# ----------------------------------------------------------------------
# frozen coefficient tables

def _golden_rows():
    """(name, bindings, n, k, a, sign) rows checked to 1e-9."""
    rows = [
        ("newton", {}, 2, 0, (), 1),
        ("traub", {}, 3, 1, (2,), 1),
        ("ostrowski", {}, 4, 0, (), 1),
        ("jarratt", {}, 4, 0, (), 1),
        ("wang", {}, 8, 0, (), 1),
        ("chun", {"alpha": 0.0}, 8, 0, (), 1),
    ]
    for beta in (0.5, -1.0, 2.0 + 1.0j):
        rows.append(("king", {"beta": beta}, 4, 2, (4 + beta, 5 + 2 * beta), 1))
        rows.append(("amat", {"beta": beta}, 4, 2,
                     (2 - 4 * beta / 3, 1 - 8 * beta / 3), 1))
    for alpha in (0.0, 0.7, 2.0, 1.0 - 0.5j):
        rows.append(("chebyshev-halley", {"alpha": alpha},
                     3, 1, (2 - 2 * alpha,), 1))
    # at alpha = 1/2 the two palindromic factors coincide and cancel,
    # leaving the pure cube
    rows.append(("chebyshev-halley", {"alpha": 0.5}, 3, 0, (), 1))
    return rows


def suite_conjugation_goldens() -> SuiteResult:
    """Conjugated operators reproduce the known coefficient formulas."""
    res = SuiteResult("conjugation-goldens")
    for name, bindings, n, k, a, sign in _golden_rows():
        form = conjugated_form(name, bindings)
        res.check(form.n == n and form.k == k and form.sign == sign,
                  f"{name}{bindings}: shape ({form.n},{form.k},{form.sign})"
                  f" wanted ({n},{k},{sign})")
        err = max((abs(x - y) / max(1.0, abs(y))
                   for x, y in zip(form.a, a)), default=0.0)
        res.check(len(form.a) == len(a) and err <= 1e-9,
                  f"{name}{bindings}: coefficient error {err:.2e}")
    # same operator, two parameterizations
    for beta in (0.25, -1.5, 1.0 + 2.0j):
        fa = conjugated_form("amat", {"beta": beta})
        fk = conjugated_form("king", {"beta": -4.0 * beta / 3.0 - 2.0})
        err = max(abs(x - y) for x, y in zip(fa.a, fk.a))
        res.check(fa.n == fk.n and fa.k == fk.k and err <= 1e-9,
                  f"amat/king remap beta={beta}: error {err:.2e}")
    # the degenerate family reduces with a global sign flip
    for a in (1.0, -2.0, 0.5 + 1.5j):
        form = conjugated_form("os5", {"a": a})
        want = (7 + a, 21 + 5 * a, 35 + 10 * a)
        err = max(abs(x - y) for x, y in zip(form.a, want))
        res.check(form.sign == -1 and form.k == 3 and err <= 1e-9,
                  f"os5 a={a}: sign={form.sign} k={form.k} err {err:.2e}")
    return res


def suite_root_sums() -> SuiteResult:
    """Closed-form coefficient sums equal the direct sums over roots."""
    res = SuiteResult("root-sums")
    rng = np.random.default_rng(_SEED)
    for _ in range(60):
        k = int(rng.integers(1, 9))
        roots = []
        while len(roots) < k:
            u = _cx(rng, -2.0, 2.0)
            if min(abs(u - 1.0), abs(u + 1.0)) >= 5e-2 and abs(u) >= 5e-2:
                roots.append(u)
        P = Polynomial(np.polynomial.polynomial.polyfromroots(roots))
        direct_plus = sum((1 + u) / (1 - u) for u in roots)
        direct_minus = sum((1 - u) / (1 + u) for u in roots)
        got_plus = moebius_sum(P, "+")
        got_minus = moebius_sum(P, "-")
        scale = max(1.0, abs(direct_plus))
        res.check(abs(got_plus - direct_plus) <= 1e-8 * scale,
                  f"plus sum off by {abs(got_plus - direct_plus):.2e}")
        scale = max(1.0, abs(direct_minus))
        res.check(abs(got_minus - direct_minus) <= 1e-8 * scale,
                  f"minus sum off by {abs(got_minus - direct_minus):.2e}")
    return res


def random_form(rng):
    """A non-degenerate form with n in 2..6, k in 0..5, |a| <= 3: the
    draw redone while a_k or the coefficient sum 1 + a_1 + ... + a_k is
    within 1e-2 of zero."""
    while True:
        n = int(rng.integers(2, 7))
        k = int(rng.integers(0, 6))
        a = tuple(_cx(rng) for _ in range(k))
        if k and abs(a[-1]) < 1e-2:
            continue
        if abs(1 + sum(a)) < 1e-2:
            continue
        return make_form(n, a)


def suite_vieta() -> SuiteResult:
    """Coefficients, stored roots, and re-extraction agree."""
    res = SuiteResult("vieta-roundtrip")
    rng = np.random.default_rng(_SEED + 1)
    for _ in range(40):
        form = random_form(rng)
        if form.k:
            prod = Polynomial(
                np.polynomial.polynomial.polyfromroots(list(form.roots)))
            want = list(reversed(form.a)) + [1.0]
            err = max(abs(x - y) / max(1.0, abs(y))
                      for x, y in zip(prod.coeffs, want))
            res.check(err <= 1e-8, f"root product off by {err:.2e}")
        back = extract_normal_form(form.reconstruct())
        same = (back.n == form.n and back.k == form.k
                and back.sign == form.sign)
        err = max((abs(x - y) for x, y in zip(back.a, form.a)), default=0.0)
        res.check(same and err <= 1e-9,
                  f"re-extraction drifted by {err:.2e}")
    return res


def suite_fixed_point_structure() -> SuiteResult:
    """0, 1, infinity are fixed; the value at -1 follows the parity rule."""
    res = SuiteResult("fixed-point-structure")
    rng = np.random.default_rng(_SEED + 2)
    for _ in range(60):
        form = random_form(rng)
        R = form.reconstruct()
        res.check(abs(rat_eval(R, 0.0)) <= 1e-12, "origin not fixed")
        res.check(abs(rat_eval(R, 1.0) - 1.0) <= 1e-9, "one not fixed")
        res.check(R.num.degree - R.den.degree == form.n,
                  "wrong local degree at infinity")
        at = rat_eval(R, -1.0)
        want = -1.0 if (form.n + form.k) % 2 else 1.0
        res.check(abs(at - want) <= 1e-9,
                  f"value at -1 is {at:.3g}, wanted {want}")
    return res


# expectation table for the rotation symmetry of each scheme, d = 2, 3, 4
_LAMBDA_TABLE = [
    ("newton", {}, (True, True, True)),
    ("traub", {}, (True, True, True)),
    ("ostrowski", {}, (True, True, True)),
    ("jarratt", {}, (True, True, True)),
    ("wang", {}, (True, True, True)),
    ("king", {"beta": 1.0}, (True, True, True)),
    ("amat", {"beta": 1.0}, (True, True, True)),
    ("chebyshev-halley", {"alpha": 0.3}, (True, True, True)),
    ("chun", {"alpha": 0.0}, (True, True, True)),
    ("chun", {"alpha": 1.0}, (False, True, False)),
    ("steffensen", {}, (False, False, False)),
    ("traub-steffensen", {"gamma": 1.0}, (False, False, False)),
]

# sample bindings that make each catalog entry palindromic (chun only at 0)
_IOTA_BINDINGS = {
    "king": {"beta": 0.7},
    "amat": {"beta": 0.7},
    "chun": {"alpha": 0.0},
    "chebyshev-halley": {"alpha": 0.3},
    "traub-steffensen": {"gamma": 1.0},
    "c-family": {"c": 2.0},
    "m4": {"beta": 1.0},
    "os2": {"a": 0.5},
    "os3": {"a": 1.0},
    "os4": {"b": 1.0},
    "os5": {"a": 1.5},
}

def suite_symmetry() -> SuiteResult:
    """Rotation symmetry matches the per-scheme table; conjugated
    operators commute with z -> 1/z; free criticals pair up."""
    res = SuiteResult("symmetry-certificates")
    c = 1.3 - 0.4j
    for name, bindings, want in _LAMBDA_TABLE:
        entry = catalog_entry(name)
        for d, expect in zip((2, 3, 4), want):
            ctx = SchemeContext(d=d, c=c, bindings=dict(bindings))
            got = check_scheme_lambda_odd(entry.ast, ctx, d, trials=20)
            res.check(got == expect,
                      f"{name}{bindings} d={d}: rotation symmetry {got}")
    for name in catalog_names():
        bindings = _IOTA_BINDINGS.get(name, {})
        if catalog_entry(name).nk is None:      # not palindromic
            try:
                conjugated_form(name, bindings)
                res.check(False, f"{name}: unexpectedly palindromic")
            except NotPalindromic:
                res.check(True)
            continue
        form = conjugated_form(name, bindings)
        res.check(check_iota_symmetry(form.reconstruct(), trials=10),
                  f"{name}: inversion symmetry failed")
    rng = np.random.default_rng(_SEED + 3)
    for name, pname in (("king", "beta"), ("os2", "a")):
        for _ in range(5):
            t = _cx(rng, -2.0, 2.0)
            R = conjugated_form(name, {pname: t}).reconstruct()
            frees = free_critical_points(R)
            finite = [r for r in frees if not is_inf(r.point)]
            res.check(bool(finite) and all(r.partner is not None
                                           for r in finite),
                      f"{name} t={t:.3g}: unpaired free critical point")
    return res


def _region_for(name):
    entry = catalog_entry(name)
    lc = linearize(entry.stability_producer)
    return stability_region_z1(lc)


def suite_region_goldens() -> SuiteResult:
    """Stability regions land on their known centers, radii, thresholds."""
    res = SuiteResult("region-goldens")
    reg = _region_for("chebyshev-halley")
    res.check(reg.kind == "circle"
              and abs(reg.center - 13.0 / 6.0) <= 1e-12
              and abs(reg.radius - 1.0 / 3.0) <= 1e-12
              and reg.attracting_side == "inside",
              f"circle family: {reg.kind} {reg.center} {reg.radius}")
    res.check(abs(reg.superattracting_parameter - 2.0) <= 1e-12,
              "circle family: superattracting parameter")
    reg = _region_for("king")
    res.check(reg.kind == "circle"
              and abs(reg.center + 226.0 / 55.0) <= 1e-12
              and abs(reg.radius - 16.0 / 55.0) <= 1e-12
              and reg.attracting_side == "inside",
              f"two-step family: {reg.kind} {reg.center} {reg.radius}")
    res.check(abs(reg.superattracting_parameter + 4.0) <= 1e-12,
              "two-step family: superattracting parameter")
    reg = _region_for("c-family")
    res.check(reg.kind == "circle"
              and abs(reg.center - 3.0) <= 1e-9
              and abs(reg.radius - 8.0) <= 1e-9
              and reg.attracting_side == "outside",
              f"cubic family: {reg.kind} {reg.center} {reg.radius}")
    reg = _region_for("os4")
    res.check(reg.superattracting_everywhere,
              f"always-superattracting family: {reg.kind}")
    reg = _region_for("m4")
    res.check(reg.kind == "circle"
              and abs(reg.center + 35.0) <= 1e-9
              and abs(reg.radius - 128.0) <= 1e-9
              and reg.attracting_side == "outside",
              f"fourth-order family: {reg.kind} {reg.center} {reg.radius}")
    try:
        _region_for("os5")
        res.check(False, "degenerate family not detected")
    except DegenerateFamily:
        res.check(True)
    return res


def suite_region_oracle() -> SuiteResult:
    """Region verdicts agree with the raw multiplier off the boundary."""
    res = SuiteResult("region-vs-oracle")
    rng = np.random.default_rng(_SEED + 4)
    cases = [("chebyshev-halley", (-1.0, 5.0, -3.0, 3.0)),
             ("king", (-8.0, 8.0, -8.0, 8.0))]
    for name, (x0, x1, y0, y1) in cases:
        entry = catalog_entry(name)
        region = stability_region_z1(linearize(entry.stability_producer))
        draws = (complex(rng.uniform(x0, x1), rng.uniform(y0, y1))
                 for _ in range(150))
        for t, verdict, cls, agree in oracle_agreement(
                region, entry.stability_producer, draws):
            res.check(agree, f"{name} t={t:.6g}: {verdict} vs {cls}")
    return res


ALL_SUITES = (
    suite_conjugation_goldens,
    suite_root_sums,
    suite_vieta,
    suite_fixed_point_structure,
    suite_symmetry,
    suite_region_goldens,
    suite_region_oracle,
)


def run_all() -> list:
    return [fn() for fn in ALL_SUITES]
