"""Parameter-stability regions for the strange fixed points z = 1 and z = -1.

For families whose normal-form coefficients depend affinely on one complex
parameter, a_j(t) = A_j + B_j t with real A_j, B_j, the derivative of the
operator at z = 1 is a Moebius function of the parameter,

    O'(1) = (A + t B) / (A' + t B'),

with real aggregates (conjugate.multiplier_aggregates of A and of B, each
sample read in its conjugate.common_shape, or as a form family's closed
form gives it).  So |O'(1)| < 1 is the one quadratic form
(B^2 - B'^2)|t|^2 + 2 (A B - A' B') Re t + A^2 - A'^2 < 0: a disc or its
outside, a half-plane, or everything or nothing.  The same holds at z = -1
with alternating-sign aggregates wherever the family, read in its sign +1
shape, fixes -1 (conjugate.pm_one_image).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .analysis import classify_multiplier, multiplier_of_cycle
from .conjugate import (OperatorForm, common_shape, multiplier_aggregates,
                        pm_one_image)
from .errors import (DegenerateFamily, NonlinearDependence,
                     NonRealCoefficients, NotACycle, NotAFixedPoint)

LINEAR_CERT_TOL = 1e-8
AGGREGATE_TOL = 1e-9
BOUNDARY_BAND = 1e-6

# generic parameters of the affine fit, off every family's special members
PROBES = (0.3137 + 0.1171j, 1.2749 - 0.2243j, -0.6421 + 0.9319j)


@dataclass(frozen=True, eq=False)
class LinearCoeffs:
    """Affine model a_j(t) = A_j + B_j t of a family; k is len(A)."""
    n: int
    A: np.ndarray
    B: np.ndarray

    @property
    def k(self) -> int:
        return len(self.A)

    def aggregates_at(self, x: float) -> tuple:
        """(A, B, A', B') with O'(x) = (A + t B) / (A' + t B'), x = +-1."""
        A, A2 = multiplier_aggregates(self.n, np.r_[1.0, self.A], x)
        B, B2 = multiplier_aggregates(self.n, np.r_[0.0, self.B], x)
        return float(A), float(B), float(A2), float(B2)


def affine_fit(family: Callable[[complex], OperatorForm]) -> LinearCoeffs:
    """Fit a(t) = A + B t through the first two PROBES, certified at the third.

    A family that offers closed_form(t) -> (n, a(t)), as a catalog form
    family (builder.FormFamily) does, is sampled there: no form is built
    and no root solved.  Any other family's forms are read in their common
    shape (conjugate.common_shape), so it must keep one (n, k) in that
    sense.  A and B are complex arrays; a shape change or a miss at the
    third probe raises NonlinearDependence.
    """
    t0, t1, t2 = PROBES
    closed = getattr(family, "closed_form", None)
    if closed is None:
        n, (a0, a1, a2) = common_shape([family(t) for t in PROBES])
    else:
        n, rows = zip(*map(closed, PROBES))
        a0, a1, a2 = np.array(rows, np.complex128)
    if np.unique(n).size != 1:
        raise NonlinearDependence(
            "family shape (n, k) is not constant across sample parameters")
    B = (a1 - a0) / (t1 - t0)
    A = a0 - B * t0
    defect = np.abs(a2 - (A + B * t2))
    scale = 1.0 + np.abs([A, B, a2]).max(axis=0)
    bad = np.nonzero(defect > LINEAR_CERT_TOL * scale)[0]
    if bad.size:
        j = bad[0]
        raise NonlinearDependence(
            f"coefficient a_{j + 1} fails the affine certification at "
            f"t={t2} (defect {defect[j]:.3e})")
    return LinearCoeffs(int(n[0]), A, B)


def linearize(family: Callable[[complex], OperatorForm]) -> LinearCoeffs:
    """affine_fit with real A and B; nonreal affine data raise
    NonRealCoefficients."""
    fit = affine_fit(family)
    scale = 1.0 + np.abs([fit.A, fit.B]).max(axis=0)
    bad = np.nonzero(np.abs([fit.A.imag, fit.B.imag]).max(axis=0)
                     > LINEAR_CERT_TOL * scale)[0]
    if bad.size:
        raise NonRealCoefficients(
            f"coefficient a_{bad[0] + 1} has nonreal affine data")
    return LinearCoeffs(fit.n, fit.A.real, fit.B.real)


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

    def verdict(self, t: complex) -> str:
        """attracting / repelling / indifferent / boundary at one parameter."""
        if self.kind == "not-applicable":
            return "not-applicable"
        if self.kind == "constant":
            if self.attracting_side == "everywhere":
                return "attracting"
            if self.indifferent_everywhere:
                return "indifferent"
            return "repelling"
        # signed distance to the boundary, negative inside / to the left
        if self.kind == "circle":
            d, below = abs(t - self.center) - self.radius, "inside"
        else:
            d, below = t.real - self.threshold, "left"
        if abs(d) <= BOUNDARY_BAND:
            return "boundary"
        hit = (d < 0) == (self.attracting_side == below)
        return "attracting" if hit else "repelling"


def _build_region(target: str, A: float, B: float, A2: float,
                  B2: float) -> StabilityRegion:
    """|O'(t)| < 1 <=> |A + t B|^2 < |A' + t B'|^2, which for real aggregates
    is q |t|^2 + 2 l Re t + c < 0 with q = B^2 - B'^2, l = A B - A' B' and
    c = A^2 - A'^2: a disc or its outside when q != 0, a half-plane when only
    l != 0, and the sign of c everywhere when both vanish.  An aggregate
    within tol of zero is zero, so rounding residue neither prints nor
    enters the region."""
    tol = AGGREGATE_TOL * max(1.0, abs(A), abs(B), abs(A2), abs(B2))
    A, B, A2, B2 = (0.0 if abs(v) <= tol else v for v in (A, B, A2, B2))
    aggregates = {"A": A, "B": B, "A'": A2, "B'": B2}

    if abs(A2) <= tol and abs(B2) <= tol:
        raise DegenerateFamily(
            "the multiplier denominator vanishes identically; the family "
            "collapses for every parameter")
    if abs(A) <= tol and abs(B) <= tol:
        return StabilityRegion(
            target=target, kind="constant", attracting_side="everywhere",
            superattracting_everywhere=True, aggregates=aggregates)

    super_t = complex(-A / B) if abs(B) > tol else None
    q, l, c = B * B - B2 * B2, A * B - A2 * B2, A * A - A2 * A2
    if abs(B - B2) > tol and abs(B + B2) > tol:     # q = (B - B')(B + B')
        return StabilityRegion(
            target=target, kind="circle", center=complex(-(l / q)),
            radius=abs((A2 * B - A * B2) / q),
            attracting_side="inside" if q > 0 else "outside",
            superattracting_parameter=super_t, aggregates=aggregates)
    if abs(B) > tol and abs(l) > tol * abs(B):
        return StabilityRegion(
            target=target, kind="half-plane", threshold=float(-c / (2.0 * l)),
            attracting_side="left" if l > 0 else "right",
            superattracting_parameter=super_t, aggregates=aggregates)
    if abs(c) <= tol * (abs(A) + abs(A2)):
        return StabilityRegion(
            target=target, kind="constant", attracting_side="nowhere",
            indifferent_everywhere=True, aggregates=aggregates)
    return StabilityRegion(
        target=target, kind="constant",
        attracting_side="everywhere" if c < 0 else "nowhere",
        aggregates=aggregates)


def stability_region_z1(lc: LinearCoeffs) -> StabilityRegion:
    """Region of parameters where the fixed point z = 1 attracts."""
    A, B, A2, B2 = lc.aggregates_at(1.0)
    return _build_region("z=1", A, B, A2, B2)


def stability_region_zm1(lc: LinearCoeffs) -> StabilityRegion:
    """Region for z = -1; not-applicable unless the family fixes -1."""
    if pm_one_image(lc.n, lc.k, 1, -1.0) != -1.0:
        return StabilityRegion(target="z=-1", kind="not-applicable")
    C, D, C2, D2 = lc.aggregates_at(-1.0)
    return _build_region("z=-1", C, D, C2, D2)


def classify_strange_at(form: OperatorForm, target: complex) -> tuple:
    """Direct (multiplier, class) of the fixed point `target` of one operator.

    Serves as the sample-by-sample oracle against which region predictions
    are cross-checked: multiplier_of_cycle of the cycle [target], so the
    target may be INF, with its NotACycle raised as NotAFixedPoint.
    """
    try:
        lam = multiplier_of_cycle(form.reconstruct(), [target])
    except NotACycle as exc:
        raise NotAFixedPoint(str(exc)) from exc
    return lam, classify_multiplier(lam)


# region verdict -> agreeing oracle classes; a real multiplier of modulus
# one is +-1, which classify_multiplier calls parabolic-candidate
_AGREES = {"attracting": ("attracting", "superattracting"),
           "repelling": ("repelling",),
           "indifferent": ("indifferent", "parabolic-candidate")}


def oracle_agreement(region: StabilityRegion, family, ts):
    """Yield (t, verdict, oracle class, agree) per parameter t, checked by
    classify_strange_at at the region's target; t within BOUNDARY_BAND of
    the boundary is yielded as (t, "boundary", None, True), unchecked."""
    target = -1.0 if region.target == "z=-1" else 1.0
    for t in ts:
        verdict = region.verdict(t)
        cls = None if verdict == "boundary" else \
            classify_strange_at(family(t), target)[1]
        yield t, verdict, cls, cls is None or cls in _AGREES.get(verdict, ())
