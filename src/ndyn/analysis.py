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

from .conjugate import multiplier_aggregates
from .errors import NotACycle, PoleAtMinusOne, PoleAtOne
from .poly import (INF, Polynomial, RationalMap, is_inf, point_key, rat_eval,
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
    d = den(src)
    return complex((num.derivative()(src) * d - num(src) * den.derivative()(src))
                   / (d * d))


def multiplier_at(R: RationalMap, point) -> complex:
    """Multiplier of a fixed point, computed in the chart w = 1/z at infinity."""
    return _chart_factor(R, point, point)


def fixed_points(R: RationalMap) -> list:
    """All fixed points with multipliers and classes; one record per point,
    finite points in point_key order."""
    g = R.num - Polynomial.identity() * R.den
    finite = sorted((point for point, _m in root_clusters(g)),
                    key=point_key)
    records = []
    for point in finite:
        lam = multiplier_at(R, point)
        records.append(FixedPointRecord(
            point=complex(point), multiplier=lam,
            cls=classify_multiplier(lam), strange=abs(point) > 1e-12))
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
    partners 1/kappa when present.
    """
    W = R.num.derivative() * R.den - R.num * R.den.derivative()
    W = Polynomial(W.coeffs[:max(2 * R.degree - 1, 0)])
    finite = root_clusters(W)
    inf_mult = 2 * R.degree - 2 - W.degree
    points = [p for p, _ in finite]
    records = []
    for point, mult in finite:
        free = abs(point) > 1e-12
        partner = None
        if free:
            inv = 1.0 / point
            for q in points:
                if abs(q - inv) <= PAIR_TOL * (1.0 + abs(inv)):
                    partner = complex(q)
                    break
            if partner is None and inf_mult >= 1 and abs(inv) < 1e-9:
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


def multiplier_at_one_closed(form) -> complex:
    """O'(1) for a normal form, via the coefficient sum identity."""
    return complex(form.n + moebius_sum(form.p_coeffs(), "+"))


def multiplier_at_minus_one_closed(form) -> complex:
    """O'(-1) for a normal form with n+k odd, via the sign - identity."""
    parity = (-1.0) ** (form.n + form.k - 1)
    return complex(parity * (form.n + moebius_sum(form.p_coeffs(), "-")))


# --------------------------------------------------------------------------
# operator reports
# --------------------------------------------------------------------------


def classify_operator(form) -> dict:
    """Structural report of a normal form: parities, the status of -1 and
    of the degenerate collapse, every strange fixed point with class, and
    the reconstructed map ("map")."""
    R = form.reconstruct()
    parity_odd = (form.n + form.k) % 2 == 1
    report = {
        "map": R,
        "n": form.n,
        "k": form.k,
        "sign": form.sign,
        "degenerate": form.degenerate,
        "order_at_roots": form.n,
        "parity": "odd" if parity_odd else "even",
    }
    if form.sign == -1:
        # reduced collapse: 1 maps to -1
        if parity_odd:
            report["minus_one"] = "on a 2-cycle with z=1"
            report["one"] = "on a 2-cycle with z=-1"
            try:
                report["cycle_multiplier"] = multiplier_of_cycle(
                    R, [1.0 + 0.0j, -1.0 + 0.0j])
            except NotACycle:
                report["cycle_multiplier"] = None
        else:
            report["minus_one"] = "fixed"
            report["one"] = "preimage of z=-1"
    else:
        report["one"] = "fixed"
        report["minus_one"] = "fixed" if parity_odd else "preimage of z=1"
    records = fixed_points(R)
    report["fixed_points"] = records
    report["strange_fixed_points"] = [r for r in records if r.strange]
    return report
