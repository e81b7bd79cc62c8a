"""Parameter-stability regions for the strange fixed points z = 1 and z = -1.

For families whose normal-form coefficients depend affinely on one complex
parameter, a_j(t) = A_j + B_j t with real A_j, B_j, the derivative of the
operator at z = 1 is a Moebius function of the parameter,

    O'(1) = (A + t B) / (A' + t B'),

with real aggregates built from n, k and the coefficient slopes.  The locus
|O'(1)| = 1 is therefore a circle or a line in the parameter plane, and the
attracting side is decided by the sign of B^2 - B'^2 (circle case) or by a
half-plane inequality (line cases).  The same machinery applies at z = -1
with alternating-sign aggregates whenever n + k is odd, so that -1 is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .analysis import classify_multiplier, multiplier_at
from .conjugate import OperatorForm
from .errors import (DegenerateFamily, NonlinearDependence,
                     NonRealCoefficients, NotAFixedPoint)
from .poly import Polynomial, is_inf, rat_eval

LINEAR_CERT_TOL = 1e-8
AGGREGATE_TOL = 1e-9
BOUNDARY_BAND = 1e-6

_SAMPLES = (0.0, 1.0, 1.0j)


@dataclass(frozen=True)
class LinearCoeffs:
    """Affine model a_j(t) = A_j + B_j t for a one-parameter family."""
    n: int
    k: int
    A: tuple
    B: tuple

    def at(self, t: complex) -> tuple:
        return tuple(a + b * t for a, b in zip(self.A, self.B))

    def aggregates_at_one(self) -> tuple:
        s = self.n + self.k
        A = float(s) + sum((s - 2 * j) * self.A[j - 1]
                           for j in range(1, self.k + 1))
        B = sum((s - 2 * j) * self.B[j - 1] for j in range(1, self.k + 1))
        A2 = 1.0 + sum(self.A)
        B2 = float(sum(self.B))
        return A, float(B), A2, B2

    def aggregates_at_minus_one(self) -> tuple:
        s = self.n + self.k
        C = float(s) + sum(((-1.0) ** j) * (s - 2 * j) * self.A[j - 1]
                           for j in range(1, self.k + 1))
        D = sum(((-1.0) ** j) * (s - 2 * j) * self.B[j - 1]
                for j in range(1, self.k + 1))
        C2 = 1.0 + sum(((-1.0) ** j) * self.A[j - 1]
                       for j in range(1, self.k + 1))
        D2 = sum(((-1.0) ** j) * self.B[j - 1] for j in range(1, self.k + 1))
        return C, float(D), C2, float(D2)


def _lift(form: OperatorForm) -> tuple:
    """Return (n, k, a) with any sign -1 reduction undone.

    A reduced operator -z^n Q / Q-hat equals z^n P / P-hat with
    P = (z - 1) Q, so multiplying the reduced numerator polynomial by
    (z - 1) restores a sign +1 coefficient vector of length k + 1.
    """
    if form.sign == 1:
        return form.n, form.k, tuple(complex(v) for v in form.a)
    q = form.p_coeffs()
    lifted = q * Polynomial((-1.0, 1.0))
    c = lifted.coeffs
    k = c.size - 1
    a = tuple(complex(c[k - j] / c[-1]) for j in range(1, k + 1))
    return form.n, k, a


def linearize(family: Callable[[complex], OperatorForm]) -> LinearCoeffs:
    """Fit and certify the affine coefficient model from samples at 0, 1, i.

    The family must produce a constant shape (n, k) after undoing any
    degenerate reduction and padding collapsed top coefficients with zeros.
    Dependence that fails the certification at t = i is rejected as
    nonlinear; coefficients with nonreal A_j or B_j are rejected too.
    """
    sampled = []
    for t in _SAMPLES:
        n_t, k_t, a_t = _lift(family(t))
        sampled.append((n_t, k_t, a_t))
    k_bar = max(k for _, k, _ in sampled)
    n_bar = None
    for n_t, k_t, _ in sampled:
        cand = n_t - (k_bar - k_t)
        if n_bar is None:
            n_bar = cand
        elif cand != n_bar:
            raise NonlinearDependence(
                "family shape (n, k) is not constant across sample parameters")
    padded = []
    for n_t, k_t, a_t in sampled:
        padded.append(a_t + (0.0 + 0.0j,) * (k_bar - k_t))
    a0, a1, ai = padded

    A = []
    B = []
    for j in range(k_bar):
        Aj = a0[j]
        Bj = a1[j] - a0[j]
        predicted = Aj + Bj * 1.0j
        scale = 1.0 + max(abs(Aj), abs(Bj), abs(ai[j]))
        if abs(ai[j] - predicted) > LINEAR_CERT_TOL * scale:
            raise NonlinearDependence(
                f"coefficient a_{j + 1} fails the affine certification at t=i "
                f"(defect {abs(ai[j] - predicted):.3e})")
        if abs(Aj.imag) > LINEAR_CERT_TOL * scale or \
                abs(Bj.imag) > LINEAR_CERT_TOL * scale:
            raise NonRealCoefficients(
                f"coefficient a_{j + 1} has nonreal affine data")
        A.append(Aj.real)
        B.append(Bj.real)
    return LinearCoeffs(n=n_bar, k=k_bar, A=tuple(A), B=tuple(B))


@dataclass(frozen=True)
class StabilityRegion:
    """Attraction region of a strange fixed point in the parameter plane."""
    target: str                      # "z=1" or "z=-1"
    kind: str                        # circle | half-plane | constant | not-applicable
    center: Optional[complex] = None
    radius: Optional[float] = None
    threshold: Optional[float] = None
    attracting_side: Optional[str] = None   # inside | outside | left | right |
    #                                         everywhere | nowhere
    superattracting_parameter: Optional[complex] = None
    superattracting_everywhere: bool = False
    indifferent_everywhere: bool = False
    aggregates: dict = field(default_factory=dict)

    def multiplier(self, t: complex) -> complex:
        g = self.aggregates
        return (g["A"] + t * g["B"]) / (g["A'"] + t * g["B'"])

    def verdict(self, t: complex, band: float = BOUNDARY_BAND) -> str:
        """attracting / repelling / indifferent / boundary at one parameter."""
        if self.kind == "not-applicable":
            return "not-applicable"
        if self.kind == "constant":
            if self.attracting_side == "everywhere":
                return "attracting"
            if self.indifferent_everywhere:
                return "indifferent"
            return "repelling"
        if self.kind == "circle":
            d = abs(t - self.center) - self.radius
            if abs(d) <= band:
                return "boundary"
            inside = d < 0
            hit = inside == (self.attracting_side == "inside")
            return "attracting" if hit else "repelling"
        s = t.real - self.threshold
        if abs(s) <= band:
            return "boundary"
        left = s < 0
        hit = left == (self.attracting_side == "left")
        return "attracting" if hit else "repelling"


def _build_region(target: str, A: float, B: float, A2: float,
                  B2: float) -> StabilityRegion:
    tol = AGGREGATE_TOL * max(1.0, abs(A), abs(B), abs(A2), abs(B2))
    aggregates = {"A": A, "B": B, "A'": A2, "B'": B2}

    if abs(A2) <= tol and abs(B2) <= tol:
        raise DegenerateFamily(
            "the multiplier denominator vanishes identically; the family "
            "collapses for every parameter")
    if abs(A) <= tol and abs(B) <= tol:
        return StabilityRegion(
            target=target, kind="constant", attracting_side="everywhere",
            superattracting_everywhere=True, aggregates=aggregates)

    super_t = None
    if abs(B) > tol:
        super_t = complex(-A / B)

    same = abs(B - B2) <= tol
    opposite = abs(B + B2) <= tol
    if not same and not opposite:
        denom = B * B - B2 * B2
        c_val = (A * B - A2 * B2) / denom
        r_val = (A2 * B - A * B2) / denom
        side = "inside" if denom > 0 else "outside"
        return StabilityRegion(
            target=target, kind="circle", center=complex(-c_val),
            radius=abs(r_val), attracting_side=side,
            superattracting_parameter=super_t, aggregates=aggregates)
    if same and abs(B) > tol:
        if abs(A - A2) <= tol:
            return StabilityRegion(
                target=target, kind="constant", attracting_side="nowhere",
                indifferent_everywhere=True, aggregates=aggregates)
        threshold = -(A + A2) / (2.0 * B)
        side = "left" if B * (A - A2) > 0 else "right"
        return StabilityRegion(
            target=target, kind="half-plane", threshold=float(threshold),
            attracting_side=side, superattracting_parameter=super_t,
            aggregates=aggregates)
    if opposite and abs(B) > tol:
        if abs(A + A2) <= tol:
            return StabilityRegion(
                target=target, kind="constant", attracting_side="nowhere",
                indifferent_everywhere=True, aggregates=aggregates)
        threshold = (A2 - A) / (2.0 * B)
        side = "left" if B * (A + A2) > 0 else "right"
        return StabilityRegion(
            target=target, kind="half-plane", threshold=float(threshold),
            attracting_side=side, superattracting_parameter=super_t,
            aggregates=aggregates)
    # B and B' both vanish: the multiplier modulus is constant
    if abs(abs(A) - abs(A2)) <= tol:
        return StabilityRegion(
            target=target, kind="constant", attracting_side="nowhere",
            indifferent_everywhere=True, aggregates=aggregates)
    side = "everywhere" if abs(A) < abs(A2) else "nowhere"
    return StabilityRegion(
        target=target, kind="constant", attracting_side=side,
        aggregates=aggregates)


def stability_region_z1(lc: LinearCoeffs) -> StabilityRegion:
    """Region of parameters where the fixed point z = 1 attracts."""
    A, B, A2, B2 = lc.aggregates_at_one()
    return _build_region("z=1", A, B, A2, B2)


def stability_region_zm1(lc: LinearCoeffs) -> StabilityRegion:
    """Region for z = -1; not applicable unless n + k is odd (so -1 is fixed)."""
    if (lc.n + lc.k) % 2 == 0:
        return StabilityRegion(target="z=-1", kind="not-applicable")
    C, D, C2, D2 = lc.aggregates_at_minus_one()
    return _build_region("z=-1", C, D, C2, D2)


def classify_strange_at(form: OperatorForm, target: complex) -> tuple:
    """Direct (multiplier, class) of the fixed point `target` of one operator.

    Serves as the sample-by-sample oracle against which region predictions
    are cross-checked.  Raises NotAFixedPoint when the operator does not fix
    the target within 1e-8.
    """
    R = form.reconstruct()
    value = rat_eval(R, target)
    if is_inf(value) or abs(value - target) > 1e-8 * (1.0 + abs(target)):
        raise NotAFixedPoint(
            f"operator sends {target} to {value}, not itself")
    lam = multiplier_at(R, target)
    return lam, classify_multiplier(lam)
