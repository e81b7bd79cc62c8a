"""Fixed points, critical points, multipliers, and classification reports.

Conventions for normal-form operators: 0 and infinity are the superattracting
images of the two roots being sought, so any other fixed point is "strange"
and any critical point outside {0, infinity} is "free".  Free critical points
of a map commuting with iota(z) = 1/z come in pairs kappa, 1/kappa.

Multipliers are evaluated pointwise from the numerator and denominator,
(N'D - N D')/D^2, with infinity read in the chart w = 1/z (the coefficients
reversed), and critical points are the zeros of N'D - N D' itself; no
derivative map is built.  Both are read by poly.root_clusters, as the
roots of P are, so a real map's non-real points are exact conjugate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .conjugate import multiplier_aggregates, pm_one_image
from .errors import (NotACycle, NotAFixedPoint, PoleAtMinusOne, PoleAtOne,
                     ZeroPolynomial)
from .poly import (INF, Polynomial, RationalMap, is_inf, rat_eval,
                   root_clusters)

SUPERATTRACTING_TOL = 1e-10
INDIFFERENCE_BAND = 1e-8
FIXED_RESIDUAL = 1e-8
PAIR_TOL = 1e-6


@dataclass(frozen=True)
class FixedPointRecord:
    point: object            # complex or INF
    multiplier: complex
    cls: str                 # attracting | superattracting | repelling |
    #                          indifferent | parabolic-candidate
    strange: bool


@dataclass(frozen=True)
class CriticalPointRecord:
    point: object            # complex or INF
    multiplicity: int
    free: bool
    partner: Optional[object] = None


def classify_multiplier(lam: complex) -> str:
    mag = abs(lam)
    if mag <= SUPERATTRACTING_TOL:
        return "superattracting"
    if abs(mag - 1.0) <= INDIFFERENCE_BAND:
        for q in range(1, 17):
            if abs(lam ** q - 1.0) <= 1e-6:
                return "parabolic-candidate"
        return "indifferent"
    return "attracting" if mag < 1.0 else "repelling"


def _chart_factor(R: RationalMap, src, dst) -> complex:
    """Derivative of R at src in charts adapted to src/dst being infinite:
    w = 1/z at an infinite src, and 1/R when the image dst is infinite."""
    num, den = R.num, R.den
    if is_inf(src):
        # R(1/w) = w^m N(1/w) / w^m D(1/w), m = deg R: coefficients reversed
        size = R.degree + 1
        num, den = (Polynomial(np.pad(q.coeffs, (0, size - q.coeffs.size))
                               [::-1]) for q in (num, den))
        src = 0.0
    if is_inf(dst):
        num, den = den, num
    return _slope(num, den, num.derivative(), den.derivative(), src)


def _slope(num, den, dnum, dden, x) -> complex:
    """(N'D - N D') / D^2 at x, given N' and D': Polynomial values are numpy
    scalars, whose division rounds as the printed multipliers were pinned."""
    d = den(x)
    return complex((dnum(x) * d - num(x) * dden(x)) / (d * d))


def multiplier_at(R: RationalMap, point) -> complex:
    """Multiplier of a fixed point, computed in the chart w = 1/z at infinity."""
    return _chart_factor(R, point, point)


def fixed_points(R: RationalMap) -> list:
    """All fixed points with multipliers and classes; one record per point,
    finite points in point_key order.  The identity map, which fixes every
    point, raises ZeroPolynomial."""
    g = R.num - Polynomial.identity() * R.den
    if g.is_zero():
        raise ZeroPolynomial("the map is the identity: every point is fixed")
    # multiplier_at at each finite point, N' and D' built once
    dnum, dden = R.num.derivative(), R.den.derivative()
    records = []
    for point, _m in root_clusters(g):
        lam = _slope(R.num, R.den, dnum, dden, point)
        records.append(FixedPointRecord(
            point=complex(point), multiplier=lam,
            cls=classify_multiplier(lam), strange=point != 0))
    if R.num.degree > R.den.degree:
        lam = multiplier_at(R, INF)
        records.append(FixedPointRecord(
            point=INF, multiplier=lam, cls=classify_multiplier(lam),
            strange=False))
    return records


def critical_points(R: RationalMap) -> list:
    """Zeros of R' with multiplicity, plus infinity when it is critical.

    The finite ones are the zeros of W = N'D - N D': R is reduced, so W
    vanishes to order m - 1 at an m-fold pole, its critical multiplicity.
    By Riemann-Hurwitz a degree-d map has 2d - 2 critical points with
    multiplicity, so infinity carries the 2d - 2 - deg W that W misses
    (the z^(2d-1) terms of W cancel exactly, so they are dropped).  Free
    critical points (outside {0, infinity}) are matched with their iota
    partners 1/kappa when present: the free point nearest 1/kappa, within
    PAIR_TOL relative, else infinity when 1/kappa is negligible.
    """
    W = R.num.derivative() * R.den - R.num * R.den.derivative()
    W = Polynomial(W.coeffs[:max(2 * R.degree - 1, 0)])
    finite = root_clusters(W)
    inf_mult = 2 * R.degree - 2 - W.degree
    frees = [p for p, _ in finite if p != 0]
    records = []
    for point, mult in finite:
        free = point != 0
        partner = None
        if free:
            inv = 1.0 / point
            q = min(frees, key=lambda q: abs(q - inv))
            if abs(q - inv) <= PAIR_TOL * (1.0 + abs(inv)):
                partner = complex(q)
            elif inf_mult >= 1 and abs(inv) < 1e-9:
                partner = INF
        records.append(CriticalPointRecord(
            point=complex(point), multiplicity=int(mult), free=free,
            partner=partner))
    if inf_mult >= 1:
        records.append(CriticalPointRecord(
            point=INF, multiplicity=inf_mult, free=False, partner=None))
    return records


def free_critical_points(R: RationalMap) -> list:
    return [r for r in critical_points(R) if r.free]


def multiplier_of_cycle(R: RationalMap, cycle: Sequence) -> complex:
    """Product of chart derivatives along an R-invariant cycle."""
    pts = list(cycle)
    if not pts:
        raise NotACycle("empty cycle")
    for i, z in enumerate(pts):
        nxt = pts[(i + 1) % len(pts)]
        value = rat_eval(R, z)
        if is_inf(nxt):
            if not is_inf(value):
                raise NotACycle(f"point {z} maps to {value}, expected INF")
        else:
            if is_inf(value):
                raise NotACycle(f"point {z} maps to INF, expected {nxt}")
            if abs(value - nxt) > FIXED_RESIDUAL * (1.0 + abs(nxt)):
                raise NotACycle(f"point {z} maps to {value}, expected {nxt}")
    lam = 1.0 + 0.0j
    for i, z in enumerate(pts):
        lam *= _chart_factor(R, z, pts[(i + 1) % len(pts)])
    return lam


# --------------------------------------------------------------------------
# coefficient/root sum identities
# --------------------------------------------------------------------------


def moebius_sum(P: Polynomial, sign: str) -> complex:
    """Closed form of sum (1 + s r_i)/(1 - s r_i) over the roots of P, s=+-1.

    For the monic P = a_k + a_{k-1} z + ... + a_1 z^{k-1} + z^k the sign +
    value is k - 2(a_1 + 2 a_2 + ... + k a_k)/(1 + a_1 + ... + a_k) and the
    sign - value alternates the coefficients (conjugate.multiplier_aggregates
    at n = 0).  Pole errors are raised when the respective denominator (P at
    +-1 up to a sign) vanishes.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    c = P.coeffs
    if c.size == 0:
        raise ValueError("zero polynomial")
    p_hat = c[::-1] / c[-1]
    num, den = multiplier_aggregates(0, p_hat, 1.0 if sign == "+" else -1.0)
    if abs(den) <= 1e-12 * (1.0 + np.abs(p_hat[1:]).max(initial=0.0)):
        if sign == "+":
            raise PoleAtOne("coefficient sum vanishes (root at 1)")
        raise PoleAtMinusOne("alternating coefficient sum vanishes "
                             "(root at -1)")
    return complex(num / den)


def _closed_multiplier(form, x: float, sign: str) -> complex:
    """O'(x) at a fixed x = +-1: O'/O = n/z + P'/P - P-hat'/P-hat, so the
    form's sign cancels and O'(x) = n + moebius_sum(P, x's sign)."""
    if pm_one_image(form.n, form.k, form.sign, x) != x:
        raise NotAFixedPoint(f"the form does not fix z={x:g}")
    return complex(form.n + moebius_sum(form.p_coeffs(), sign))


def multiplier_at_one_closed(form) -> complex:
    """O'(1) for a normal form that fixes 1, via the sign + identity."""
    return _closed_multiplier(form, 1.0, "+")


def multiplier_at_minus_one_closed(form) -> complex:
    """O'(-1) for a normal form that fixes -1, via the sign - identity."""
    return _closed_multiplier(form, -1.0, "-")


# --------------------------------------------------------------------------
# operator reports
# --------------------------------------------------------------------------


def classify_operator(form) -> dict:
    """What analysis derives from a normal form, and nothing the form holds:
    "map" (the reconstructed R), "parity" of n + k, where it sends 1 and -1
    ("one", "minus_one", read off pm_one_image), "cycle_multiplier" exactly
    when it swaps them, and "fixed_points", every fixed point with class."""
    R = form.reconstruct()
    report = {"map": R, "parity": "odd" if (form.n + form.k) % 2 else "even"}
    image = {x: pm_one_image(form.n, form.k, form.sign, x) for x in (1, -1)}
    for x, key in ((1, "one"), (-1, "minus_one")):
        y = image[x]
        report[key] = ("fixed" if y == x else f"preimage of z={y}"
                       if image[y] == y else f"on a 2-cycle with z={y}")
    if image == {1: -1, -1: 1}:
        report["cycle_multiplier"] = multiplier_of_cycle(
            R, [1.0 + 0.0j, -1.0 + 0.0j])
    report["fixed_points"] = fixed_points(R)
    return report
