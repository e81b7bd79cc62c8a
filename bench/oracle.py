"""Independent checks of what ndyn returns.

Each check recomputes the answer along a different route from the one the
program took:

- build: the printed (n, k, sign, a) must reproduce, point by point, the
  scheme evaluated directly (``evaluate_scheme``) and conjugated through
  ``standard_tau``; form families are compared with their closed-form
  coefficients, and chebyshev-halley, king and amat also with the
  coefficient formulas of their families.
- analyze: the multiplier printed for z = 1 must match the closed form
  ``multiplier_at_one_closed``, and free critical points must come in
  kappa <-> 1/kappa pairs.
- stability: a region's verdict must match ``classify_strange_at`` at
  seeded parameters away from its boundary.
- refusals: the library must raise one of the expected error classes with
  the message the CLI printed.
- planes: seeded pixels must match one orbit followed from the free
  critical point picked by the documented default rule.

Each check returns a list of problems; an empty list means agreement.
"""

from __future__ import annotations

import cmath
import math

import ndyn
from ndyn import errors
from ndyn.builder import evaluate_scheme
from ndyn.planes import OUTCOME_NAMES


def parse_number(text: str) -> complex:
    """Inverse of the CLI's number formatting (12 significant digits):
    ``2``, ``-4.5``, ``2.5i``, ``1.5-2i``, ``1e-05+3i`` or ``inf``."""
    if text == "inf":
        return complex(math.inf, 0.0)
    if not text.endswith("i"):
        return complex(float(text))
    body = text[:-1]
    split = max((k for k in range(1, len(body))
                 if body[k] in "+-" and body[k - 1] != "e"), default=0)
    return complex(float(body[:split] or 0.0), float(body[split:]))


def _close(u: complex, v: complex, tol: float) -> bool:
    return abs(u - v) <= tol * (1.0 + abs(v))


def _horner(coeffs, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def normal_form_value(n: int, sign: int, a, z: complex) -> complex:
    """sign z^n P(z)/P^(z), P = a_k + ... + a_1 z^(k-1) + z^k."""
    p = list(reversed(a)) + [1.0]
    p_hat = [1.0] + list(a)
    return sign * z ** n * _horner(p, z) / _horner(p_hat, z)


# -- build -------------------------------------------------------------------

def _form_family(method: str, bindings: dict):
    """Raw closed-form (n, a_1..a_k) of the catalog's form families."""
    t = next(iter(bindings.values()), 0j)
    if method == "c-family":
        return 3, (4.0, 5.0, 2.0 - 4.0 * t)
    if method == "m4":
        return 4, (6.0, 14.0, 14.0, (5.0 * t - 1.0) / t)
    if method == "os2":
        return 5, (6.0 + t, 14.0 + 4.0 * t, 14.0 + 5.0 * t)
    if method == "os3":
        return 4, (6.0 + t, 14.0 + 4.0 * t, 14.0 + 5.0 * t,
                   5.0 * (14.0 + 5.0 * t) ** 2
                   / (196.0 + 76.0 * t + 9.0 * t * t))
    if method == "os4":
        return 4, (2.0, -2.0, -6.0, 4.0 * t - 3.0)
    if method == "os5":
        return 4, (6.0 + t, 14.0 + 4.0 * t, 14.0 + 5.0 * t, -35.0 - 10.0 * t)
    return None


# a(t) of the scheme families with a published closed form
_COEFFS = {
    "chebyshev-halley": lambda t: (2.0 - 2.0 * t,),
    "king": lambda t: (4.0 + t, 5.0 + 2.0 * t),
    "amat": lambda t: (2.0 - 4.0 * t / 3.0, 1.0 - 8.0 * t / 3.0),
}


def reference_map(method: str, bindings: dict, c: complex):
    """z -> operator value in normal-form coordinates, computed pointwise."""
    raw = _form_family(method, bindings)
    if raw is not None:
        n, a = raw
        return lambda z: normal_form_value(n, 1, a, z)
    entry = ndyn.catalog_entry(method)
    ast = entry.ast
    ctx = ndyn.SchemeContext(d=2, c=c, bindings=dict(bindings))
    tau = ndyn.standard_tau(c)
    inv = tau.inverse()
    return lambda z: tau(evaluate_scheme(ast, ctx, inv(z)))


def check_form(payload: dict, method: str, bindings: dict, c: complex,
               rng) -> list:
    n, k, sign = payload["n"], payload["k"], payload["sign"]
    a = [parse_number(v) for v in payload["a"]]
    problems = []
    if len(a) != k:
        problems.append(f"k={k} but {len(a)} coefficients")
    ref = reference_map(method, bindings, c)
    checked = 0
    for _ in range(40):
        if checked >= 6:
            break
        z = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * math.pi))
        try:
            want = complex(ref(z))
            got = normal_form_value(n, sign, a, z)
        except ZeroDivisionError:
            continue
        if not (1e-6 < abs(want) < 1e6) or not math.isfinite(abs(got)):
            continue
        checked += 1
        if not _close(got, want, 1e-6):
            problems.append(f"O({z:.4g}) = {got:.10g}, pointwise {want:.10g}")
            break
    if checked < 3 and not problems:
        problems.append("too few usable sample points")
    formula = _COEFFS.get(method)
    if formula is not None and bindings:
        want = formula(next(iter(bindings.values())))
        if len(want) != k or not all(_close(x, y, 1e-9)
                                     for x, y in zip(a, want)):
            problems.append(f"a={payload['a']} but closed form {want}")
    return problems


# -- analyze -----------------------------------------------------------------

def check_analyze(payload: dict, method: str, bindings: dict, c: complex,
                  rng) -> list:
    problems = check_form(payload, method, bindings, c, rng)
    n, k, sign = payload["n"], payload["k"], payload["sign"]
    a = tuple(parse_number(v) for v in payload["a"])
    fixed = [(parse_number(r["point"]), parse_number(r["multiplier"]))
             for r in payload["fixed_points"] if r["point"] != "inf"]
    if sign == 1:
        form = ndyn.OperatorForm(n=n, k=k, a=a, sign=sign)
        try:
            closed = ndyn.multiplier_at_one_closed(form)
        except errors.PoleAtOne:
            closed = None
        if closed is not None:
            at_one = [lam for p, lam in fixed if abs(p - 1.0) <= 1e-6]
            if not at_one:
                problems.append("z=1 missing from the fixed points")
            elif not _close(at_one[0], closed, 1e-6):
                problems.append(f"multiplier at 1 is {at_one[0]:.10g}, "
                                f"closed form {closed:.10g}")
    crit = [parse_number(r["point"]) for r in payload["critical_points"]
            if r["point"] != "inf"]
    for r in payload["critical_points"]:
        if not r["free"]:
            continue
        inv = 1.0 / parse_number(r["point"])
        if not any(_close(q, inv, 1e-5) for q in crit):
            problems.append(f"free critical point {r['point']} has no "
                            "1/kappa partner")
    return problems


# -- stability -------------------------------------------------------------

def region_verdict(region: dict, t: complex):
    """attracting / repelling from the printed region, None near the
    boundary or where the region makes no claim."""
    kind = region["kind"]
    if kind == "not-applicable":
        return None
    side = region.get("attracting_side")
    if kind == "constant":
        if side == "everywhere":
            return "attracting"
        return None if region["indifferent_everywhere"] else "repelling"
    if kind == "circle":
        radius = float(region["radius"])
        d = abs(t - parse_number(region["center"])) - radius
        if abs(d) <= 1e-3 * (1.0 + radius):
            return None
        return "attracting" if (d < 0) == (side == "inside") else "repelling"
    s = t.real - float(region["threshold"])
    if abs(s) <= 1e-3:
        return None
    return "attracting" if (s < 0) == (side == "left") else "repelling"


def _probe_parameters(region: dict, rng, count=6) -> list:
    if region["kind"] == "circle":
        center = parse_number(region["center"])
        radius = float(region["radius"])
        return [center + cmath.rect(radius * rng.uniform(0.0, 2.5),
                                    rng.uniform(0.0, 2 * math.pi))
                for _ in range(count)]
    base = float(region.get("threshold", 0.0))
    return [complex(base + rng.uniform(-3, 3), rng.uniform(-3, 3))
            for _ in range(count)]


_ORACLE_CLASS = {"attracting": "attracting",
                 "superattracting": "attracting",
                 "repelling": "repelling"}


def check_stability(payload: dict, method: str, rng) -> list:
    producer = ndyn.catalog_entry(method).stability_producer
    problems = []
    for key, target in (("z=1", 1.0), ("z=-1", -1.0)):
        region = payload[key]
        for t in _probe_parameters(region, rng):
            claim = region_verdict(region, t)
            if claim is None:
                continue
            try:
                form = producer(t)
            except errors.NdynError:
                continue            # a pole of the family itself
            try:
                _lam, cls = ndyn.classify_strange_at(form, target)
            except errors.NotAFixedPoint as exc:
                problems.append(f"{key} at t={t:.4g}: {exc}")
                continue
            truth = _ORACLE_CLASS.get(cls)
            if truth is not None and truth != claim:
                problems.append(f"{key} at t={t:.4g}: region says {claim}, "
                                f"oracle {cls}")
    return problems


# -- refusals ----------------------------------------------------------------

def library_error(kind: str, method: str, bindings: dict, c: complex):
    """The exception the library raises for a request, or None."""
    try:
        if kind == "stability":
            lc = ndyn.linearize(ndyn.catalog_entry(method).stability_producer)
            ndyn.stability_region_z1(lc)
            ndyn.stability_region_zm1(lc)
        else:
            ndyn.conjugated_form(method, bindings, c=c)
    except errors.NdynError as exc:
        return exc
    return None


def check_refusal(rc: int, stderr: str, kind: str, method: str,
                  bindings: dict, c: complex, expect: tuple) -> list:
    if rc == 0:
        return [f"served, expected a refusal ({' or '.join(expect)})"]
    exc = library_error(kind, method, bindings, c)
    if exc is None:
        return ["the library accepts what the CLI refused"]
    problems = []
    if type(exc).__name__ not in expect:
        problems.append(f"raised {type(exc).__name__}, expected "
                        f"{' or '.join(expect)}")
    if stderr != f"error: {exc}\n":
        problems.append(f"CLI printed {stderr.strip()!r}")
    return problems


# -- planes ------------------------------------------------------------------

def pixel_center(window, res: int, i: int, j: int) -> complex:
    """Cell center of row i (top row first) and column j."""
    x0, x1, y0, y1 = window
    return complex(x0 + (j + 0.5) * (x1 - x0) / res,
                   y1 - (i + 0.5) * (y1 - y0) / res)


def default_seed(R):
    """The documented default rule: drop critical points at 0 and +-1,
    require exactly one kappa <-> 1/kappa pair of distinct points, take the
    member with |kappa| <= 1 and the smallest argument in [0, 2 pi).  None
    means the pixel has no usable seed."""
    usable = [r.point for r in ndyn.free_critical_points(R)
              if abs(r.point) > 1e-9 and abs(r.point - 1.0) > 1e-6
              and abs(r.point + 1.0) > 1e-6]
    if not usable or (len(usable) + 1) // 2 > 1:
        return None
    inside = [p for p in usable if abs(p) <= 1.0 + 1e-9] or usable
    return min(inside, key=lambda p: cmath.phase(p) % (2 * math.pi))


def pixel_outcome(render, cfg, z: complex, R=None) -> str:
    """Expected outcome name of one pixel: parameter-plane pixels follow
    the default seed of the family at z, dynamical-plane pixels start at z
    under the operator R."""
    seed = z
    if render.kind == "paramplane":
        R = ndyn.catalog_entry(render.method).stability_producer(z)
        R = R.reconstruct() if hasattr(R, "reconstruct") else R
        seed = default_seed(R)
        if seed is None:
            return "none"
    return ndyn.orbit_outcome(R, seed, cfg, render.attractors)[0]


def check_pixels(render, cfg, img, rng, count: int) -> tuple:
    """(matched, sampled, first disagreement or None) at seeded pixels."""
    matched = sampled = 0
    first = None
    R = None
    if render.kind == "dynplane":
        R = ndyn.conjugated_form(render.method, render.bindings).reconstruct()
    for _ in range(count):
        i = int(rng.integers(render.res))
        j = int(rng.integers(render.res))
        try:
            want = pixel_outcome(render, cfg,
                                 pixel_center(render.window, render.res, i, j),
                                 R)
        except errors.NdynError:
            continue
        got = OUTCOME_NAMES[int(img.outcome[i, j])]
        sampled += 1
        if got == want:
            matched += 1
        elif first is None:
            first = f"{render.method} pixel ({i},{j}): {got}, oracle {want}"
    return matched, sampled, first
