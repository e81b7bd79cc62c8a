"""Dense complex polynomials and rational maps on the Riemann sphere.

Coefficients are stored ascending (index j holds the z**j coefficient), the
zero polynomial is the empty coefficient list, and every map is reduced at
construction time: the common factor of numerator and denominator is
cancelled from their coefficients by cofactors (no root solve), and the
denominator is normalised so its first significant coefficient is 1.

The point at infinity is represented by the module-level sentinel ``INF``.

root_clusters is the one reader of every point ndyn reports: the roots of
a normal form's P, fixed points and critical points.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import Iterable, Sequence

import numpy as np

from .errors import NdynError, NoConvergence, ZeroDenominator, ZeroPolynomial

# Relative threshold below which trailing coefficients are considered zero.
TRIM_REL = 1e-12
# Backward error ||h u - f|| / ||f|| up to which f = h u counts as exact in
# rat_make; also the relative singular value read as rank deficiency.
COFACTOR_TOL = 1e-10
# Residual tolerance |p(r)| / (1 + |r|)**deg for the simultaneous root solver.
ROOT_RESIDUAL_TOL = 1e-12
# Root estimates within CLUSTER_REL * (1 + |r|) of each other are read as
# the scatter of one multiple root (_clusters).
CLUSTER_REL = 1e-4
ABERTH_MAX_SWEEPS = 200
# Fixed seed: root finding (and everything downstream, e.g. rendered images)
# must be reproducible run to run.
_ABERTH_SEED = 0x0DD5EED


class _Infinity:
    """Singleton for the point at infinity on the Riemann sphere."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "INF"


INF = _Infinity()


def is_inf(value) -> bool:
    return value is INF


def point_key(z) -> tuple:
    """The order in which points are reported: real, then imaginary part,
    both compared at 10 decimals, so a conjugate pair keeps its order (the
    negative imaginary part first) when rounding splits the real parts."""
    return (round(z.real, 10), round(z.imag, 10))


def _as_array(coeffs) -> np.ndarray:
    arr = np.asarray(list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs,
                     dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError("coefficients must form a one-dimensional sequence")
    return arr


def _trim(arr: np.ndarray, rel: float) -> np.ndarray:
    """Drop trailing coefficients within rel of the largest one in modulus.

    A largest coefficient that is not finite (an overflow upstream, or NaN)
    is refused: within rel of infinity it would read as the zero
    polynomial."""
    if arr.size == 0:
        return arr
    mags = np.abs(arr)
    top = mags.max()
    if not math.isfinite(top):
        raise NdynError("a coefficient is not finite (the arithmetic that "
                        "made it overflowed)")
    keep = arr.size
    while keep > 0 and mags[keep - 1] <= rel * top:
        keep -= 1
    return arr[:keep]


class Polynomial:
    """Immutable dense polynomial with complex coefficients, trimmed by
    _trim, so a non-finite coefficient is refused with NdynError."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[complex] = ()):
        c = _trim(_as_array(coeffs), TRIM_REL)
        c.setflags(write=False)
        self._c = c

    # -- basic structure ----------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return self._c.size - 1

    def is_zero(self) -> bool:
        return self._c.size == 0

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1.0,))

    @classmethod
    def identity(cls) -> "Polynomial":
        return cls((0.0, 1.0))

    @classmethod
    def from_roots(cls, roots: Sequence[complex], lead: complex = 1.0) -> "Polynomial":
        acc = np.array([lead], dtype=np.complex128)
        for r in roots:
            acc = np.convolve(acc, np.array([-r, 1.0], dtype=np.complex128))
        return cls(acc)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, z):
        """The value at z: a complex number, INF at INF for degree >= 1, or
        an array of values (by Horner) at an array of points."""
        if isinstance(z, np.ndarray):
            if self.degree < 1:
                return np.full(z.shape, self.leading(), np.complex128)
            return _horner(self._c, z)
        if is_inf(z):
            if self.is_zero():
                return 0.0 + 0.0j
            return INF if self.degree >= 1 else complex(self._c[0])
        if self.is_zero():
            return 0.0 + 0.0j
        return _horner(self._c, complex(z))

    # -- calculus and arithmetic ----------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial(self._c[1:] * np.arange(1, self._c.size))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._c, other._c
        if a.size < b.size:
            a, b = b, a
        out = a.copy()
        out[: b.size] += b
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-self._c)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial.zero()
            out = Polynomial(np.convolve(self._c, other._c))
            if out.is_zero():   # np.convolve underflows silently
                raise NdynError("a product of nonzero polynomials "
                                "underflowed to zero")
            return out
        if isinstance(other, numbers.Number):
            return Polynomial(self._c * complex(other))
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> "Polynomial":
        """Multiply by z**k."""
        return Polynomial(np.concatenate([np.zeros(k, dtype=np.complex128), self._c]))

    def leading(self) -> complex:
        if self.is_zero():
            return 0.0 + 0.0j
        return complex(self._c[-1])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Polynomial({list(self._c)!r})"


def _horner(c, x):
    """The polynomial with ascending coefficients c at x (scalar or array),
    from the top coefficient down; each coefficient may be a scalar or one
    value per point."""
    acc = c[-1]
    for cj in c[-2::-1]:
        acc = acc * x + cj
    return acc


def _divide_rows(C: np.ndarray, r) -> np.ndarray:
    """Row-wise synthetic division of ascending coefficients by (z - r),
    from the top down; the remainder is dropped."""
    P, D = C.shape
    Q = np.empty((P, D - 1), np.complex128)
    Q[:, D - 2] = C[:, D - 1]
    for j in range(D - 3, -1, -1):
        Q[:, j] = C[:, j + 1] + r * Q[:, j + 1]
    return Q


def deflate_anchored(C: np.ndarray, anchors) -> tuple:
    """Divide every factor (z - r), r in anchors, out of each row of C.

    A multiple root at a known point scatters badly under any root solver
    (radius ~ eps^(1/m)), so it is divided out first: r counts as a root of
    a row of degree >= 1 while the row's value there vanishes within 1e-8
    of sum |C_j| |r|^j.  Returns the quotient rows (the width of C, zero at
    the top) and the number of factors of each anchor, (rows, anchors).
    """
    Q = np.array(C, np.complex128)
    P, D = Q.shape
    counts = np.zeros((P, len(anchors)), int)
    for i, r in enumerate(anchors):
        powers = (r ** np.arange(D))[None, :]
        while True:
            vals = (Q * powers).sum(axis=1)
            scale = (np.abs(Q) * np.abs(powers)).sum(axis=1)
            mask = (scale > 0) & (np.abs(vals) <= 1e-8 * scale)
            mask &= np.abs(Q[:, 1:]).sum(axis=1) > 0
            if not mask.any():
                break
            Q[mask, :D - 1] = _divide_rows(Q[mask], r)
            Q[mask, D - 1] = 0.0
            counts[mask, i] += 1
    return Q, counts


def _small_residual(amag: np.ndarray, x, px):
    """Residual acceptance of poly_roots relative to the evaluation magnitude
    sum |a_j| |x|^j (amag holds the |a_j|), which is the backward-error
    scale: a root passes at ROOT_RESIDUAL_TOL, or at the rounding floor of
    evaluating p when that floor is the larger of the two."""
    floor = 8.0 * amag.size * np.finfo(float).eps
    scale = np.maximum(ROOT_RESIDUAL_TOL, floor) * _horner(amag, np.abs(x))
    # the 1e-300 clamp keeps denormal-range scales satisfiable at all
    return np.abs(px) <= np.maximum(scale, 1e-300)


def _aberth(a: np.ndarray, degree: int) -> np.ndarray:
    """Aberth-Ehrlich sweeps for the roots of the monic a (degree >= 2) from
    seeded starts on a circle; degree is the caller's, for the error only.

    Every sweep opens with the backward-error test of _small_residual and
    moves only the roots that fail it.
    """
    deg = a.size - 1
    cauchy = 1.0 + float(np.max(np.abs(a[:-1])))
    rng = np.random.default_rng(_ABERTH_SEED)
    angles = 2.0 * np.pi * (np.arange(deg) + rng.uniform(0.2, 0.8, deg)) / deg + 0.7
    z = 0.65 * cauchy * np.exp(1j * angles)
    da = a[1:] * np.arange(1, deg + 1)
    amag = np.abs(a)
    bound = 4.0 * cauchy
    for sweep in range(ABERTH_MAX_SWEEPS + 1):
        pv = _horner(a, z)
        active = ~_small_residual(amag, z, pv)
        if not active.any():
            return z
        if sweep == ABERTH_MAX_SWEEPS:
            raise NoConvergence(
                f"root iteration did not reach residual {ROOT_RESIDUAL_TOL:g} in "
                f"{ABERTH_MAX_SWEEPS} sweeps (degree {degree})")
        dv = _horner(da, z)
        w = pv / np.where(dv == 0, 1e-300, dv)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        denom = 1.0 - w * (1.0 / diff).sum(axis=1)
        z = z - np.where(active, w / np.where(denom == 0, 1e-300, denom), 0.0)
        # keep runaway iterates within the root bound
        far = np.abs(z) > bound
        z[far] = bound * z[far] / np.abs(z[far])


def poly_roots(p: Polynomial) -> tuple[complex, ...]:
    """All complex roots (with multiplicity) via the Aberth-Ehrlich iteration.

    Exact zero low coefficients are exact roots at 0 and are stripped before
    the sweeps.  Roots are returned sorted by (real, imag) so the output is a
    stable function of the coefficients alone.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    a = p.coeffs / p.coeffs[-1]  # monic
    at_origin = int(np.flatnonzero(a)[0])
    a = a[at_origin:]
    roots = [0j] * at_origin
    if a.size == 2:
        roots.append(complex(-a[0]))
    elif a.size > 2:
        roots.extend(complex(v) for v in _aberth(a, p.degree))
    return tuple(sorted(roots, key=lambda r: (r.real, r.imag)))


# --------------------------------------------------------------------------
# rational maps
# --------------------------------------------------------------------------


class RationalMap:
    """The quotient num/den exactly as given: the constructor neither
    reduces nor normalises (builder's step quotients stay unreduced), and
    :func:`rat_make` builds the reduced, normalised map the rest reads."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        self.num = num
        self.den = den

    def __call__(self, z):
        return rat_eval(self, z)

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RationalMap({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"


def constant_map(value: complex) -> RationalMap:
    return RationalMap(Polynomial((value,)), Polynomial.one())


def _clusters(p: Polynomial, roots: Sequence[complex]):
    """Group nearby root estimates and polish each group's center.

    A root of multiplicity m comes back from the solver as a scatter of m
    estimates around the true value (the float coefficients split it into m
    simple roots).  The cluster center is a simple, well-conditioned root of
    the (m-1)-th derivative, so a few plain Newton steps on that derivative
    pin it down to near machine precision (for m = 1, on p itself).  The
    derivatives are Python lists, the cheapest input for a scalar _horner.
    """
    groups: list[list[complex]] = []
    for r in roots:
        joined = None
        for g in groups:
            if any(abs(r - s) <= CLUSTER_REL * (1.0 + abs(r)) for s in g):
                if joined is None:
                    g.append(r)
                    joined = g
                else:
                    joined.extend(g)
                    g.clear()
        if joined is None:
            groups.append([r])
    derivs = [p.coeffs.tolist()]
    out = []
    for g in groups:
        if not g:
            continue
        m = len(g)
        while len(derivs) <= m:
            c = derivs[-1]
            derivs.append([j * c[j] for j in range(1, len(c))])
        x = mean = sum(g) / m
        for _ in range(40):
            dv = _horner(derivs[m], x)
            if dv == 0:
                break
            step = _horner(derivs[m - 1], x) / dv
            x -= step
            if abs(step) <= 1e-14 * (1.0 + abs(x)):
                break
        if abs(x - mean) > 10.0 * (CLUSTER_REL * (1.0 + abs(x))):
            # Newton escaped the cluster; fall back to the raw mean
            x = mean
        out.append((x, m))
    return out


def _pair_conjugates(clusters) -> list:
    """Real-coefficient clusters with each non-real pair made exact: a point
    r above the real axis and the unpaired point s of its multiplicity
    below it nearest conj(r), if within 2 Im r, become m and conj(m) with
    m = (r + conj(s)) / 2.  Any other r is real up to rounding and reads as
    exactly real, Re r."""
    out = [(complex(r.real), mult) for r, mult in clusters]
    lower = [j for j, (s, _) in enumerate(clusters) if s.imag < 0]
    for i, (r, mult) in enumerate(clusters):
        near = [j for j in lower if clusters[j][1] == mult
                and abs(clusters[j][0] - r.conjugate()) < 2.0 * r.imag]
        if near:
            j = min(near, key=lambda j: abs(clusters[j][0] - r.conjugate()))
            lower.remove(j)
            m = (r + clusters[j][0].conjugate()) / 2.0
            out[i], out[j] = (m, mult), (m.conjugate(), mult)
    return out


def deflate_pm_one(c: np.ndarray) -> tuple:
    """(q, (m_plus, m_minus)): deflate_anchored on the one row c at +1 and
    -1, in Python scalars (a short row: they beat numpy's per-call
    overhead).  The rule and the top-down recurrence are deflate_anchored's,
    so q is its quotient bit for bit; only the sums the rule compares run
    in another order."""
    v = c.tolist()
    counts = [0, 0]
    for i, r in enumerate((1.0, -1.0)):
        while any(v[1:]) and (abs(sum(v[::2]) + r * sum(v[1::2]))
                              <= 1e-8 * sum(map(abs, v))):
            q = [v[-1]]
            for x in v[-2:0:-1]:
                q.append(x + r * q[-1])
            v = q[::-1] + [0j]
            counts[i] += 1
    return np.array(v, np.complex128), tuple(counts)


def root_clusters(p: Polynomial) -> list:
    """The roots of p as (point, multiplicity) clusters, in point_key
    order: the origin, exactly 0, from low coefficients within 1e-12 of the
    largest; +1 and -1, divided out by deflate_pm_one (a multiple root
    parked there is common in the palindromic shape); then the rest by
    poly_roots, grouped and polished by _clusters.  Real coefficients give
    exact conjugate pairs."""
    v = p.coeffs.tolist()
    tol = 1e-12 * max(map(abs, v), default=0.0)
    low = next((j for j, x in enumerate(v) if abs(x) > tol), 0)
    out = [(0j, low)] if low else []
    rest, counts = deflate_pm_one(p.coeffs[low:])
    out += [(complex(r), m) for r, m in zip((1.0, -1.0), counts) if m]
    rest = Polynomial(rest)
    if rest.degree >= 1:
        out += _clusters(rest, poly_roots(rest))
    if not any(x.imag for x in v):
        out = _pair_conjugates(out)
    return sorted(out, key=lambda c: point_key(c[0]))


def _conv_matrix(p: np.ndarray, k: int) -> np.ndarray:
    """C_k(p), the matrix of q -> p * q on the coefficients of degree-k q."""
    out = np.zeros((p.size + k, k + 1), np.complex128)
    for i in range(k + 1):
        out[i:i + p.size, i] = p
    return out


def _unit_scale(c: np.ndarray) -> float:
    """2 ** -round(log2 ||c||), the norm taken of c / e, e a power of two
    near the largest |c_j|, and multiplied back: the sum of squares cannot
    overflow, and the scale is the plain one wherever ||c|| is a float.  A
    norm outside the normal float range is refused: too large, or made of
    subnormal coefficients, which are refused before dividing by a
    subnormal e could overflow."""
    top = np.abs(c).max()
    norm = math.inf
    if top >= sys.float_info.min:
        e = 2.0 ** np.floor(np.log2(top))
        norm = float(np.linalg.norm(c / e)) * float(e)
    if not math.isfinite(norm):
        raise NdynError("the coefficients' norm is outside the normal "
                        "float range")
    return 2.0 ** -np.round(np.log2(norm))


def _cofactors(f: np.ndarray, g: np.ndarray) -> tuple:
    """(u, v) with f = h u and g = h v for the h of highest degree j that
    passes, or (f, g) as given when none does.

    On f, g scaled by powers of two to about unit norm (_unit_scale, which
    does not overflow): a null vector
    (v, -u) of S_j = [C_(n-j)(f) | C_(m-j)(g)] gives f v = g u, and the
    nullity of S_1 is deg gcd(f, g), so its singular values below
    COFACTOR_TOL times the largest propose j.  S_j's last right singular
    vector starts (v, -u), h starts by least squares, and Gauss-Newton
    steps on f = h u, g = h v refine all three (Zeng and Dayton, ISSAC
    2004) with rat_make's pivot, the first significant coefficient of v,
    held at 1, so cofactors that floats hold are reached exactly.  j stands
    when both backward errors are within COFACTOR_TOL, else j - 1 is tried.
    """
    sf, sg = _unit_scale(f), _unit_scale(g)
    f, g = f * sf, g * sg
    m, n = f.size - 1, g.size - 1

    def sylvester(j):
        return np.hstack([_conv_matrix(f, n - j), _conv_matrix(g, m - j)])

    target = np.concatenate([[1.0], f, g])
    sv = np.linalg.svd(sylvester(1), compute_uv=False)
    for j in range(min(int((sv <= COFACTOR_TOL * sv[0]).sum()), m, n), 0, -1):
        x = np.linalg.svd(sylvester(j), full_matrices=False)[2][-1].conj()
        v, u = x[:n - j + 1], -x[n - j + 1:]
        p = np.flatnonzero(np.abs(v) > TRIM_REL * np.abs(v).max())[0]
        u, v = u / v[p], v / v[p]
        both = np.vstack([_conv_matrix(u, j), _conv_matrix(v, j)])
        h = np.linalg.lstsq(both, target[1:], rcond=None)[0]
        jac = np.zeros((m + n + 3, m + n - j + 3), np.complex128)
        jac[0, m + 2 + p] = 1.0
        for _ in range(3):
            jac[1:m + 2, :j + 1] = _conv_matrix(u, j)
            jac[1:m + 2, j + 1:m + 2] = _conv_matrix(h, m - j)
            jac[m + 2:, :j + 1] = _conv_matrix(v, j)
            jac[m + 2:, m + 2:] = _conv_matrix(h, n - j)
            res = np.concatenate([[v[p]], np.convolve(h, u),
                                  np.convolve(h, v)]) - target
            step = np.linalg.lstsq(jac, res, rcond=None)[0]
            h, u, v = h - step[:j + 1], u - step[j + 1:m + 2], v - step[m + 2:]
        if max(np.linalg.norm(np.convolve(h, c) - q) / np.linalg.norm(q)
               for q, c in ((f, u), (g, v))) <= COFACTOR_TOL:
            return u / sf, v / sg
    return f / sf, g / sg


def rat_make(num: Polynomial, den: Polynomial) -> RationalMap:
    """Reduce and normalise num/den into a RationalMap.

    The common factor leaves the coefficients, not the roots: each side's
    power of z is shifted out exactly (the common one stays out) and
    _cofactors cancels the rest, so no root is solved for.  The denominator
    is then scaled so its first significant coefficient is 1.
    """
    if den.is_zero():
        raise ZeroDenominator("denominator is the zero polynomial")
    if num.is_zero():
        return RationalMap(Polynomial.zero(), Polynomial.one())
    f, g = num.coeffs, den.coeffs
    a, b = np.flatnonzero(f)[0], np.flatnonzero(g)[0]
    f, g = f[a:], g[b:]
    if f.size > 1 and g.size > 1:
        f, g = _cofactors(f, g)
    low = min(a, b)
    f, g = np.pad(f, (a - low, 0)), np.pad(g, (b - low, 0))
    pivot = g[np.flatnonzero(np.abs(g) > TRIM_REL * np.abs(g).max())[0]]
    return RationalMap(Polynomial(f / pivot), Polynomial(g / pivot))


def rat_eval(R: RationalMap, z):
    """Evaluate on the extended plane; returns INF at poles and handles z=INF.

    At an array of points it returns an array, complex infinity at poles.
    """
    if isinstance(z, np.ndarray):
        dv = R.den(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(dv == 0, complex(np.inf), R.num(z) / dv)
    if is_inf(z):
        dn, dd = R.num.degree, R.den.degree
        if R.num.is_zero():
            return 0.0 + 0.0j
        if dn > dd:
            return INF
        if dn < dd:
            return 0.0 + 0.0j
        return complex(R.num.leading() / R.den.leading())
    nv = R.num(complex(z))
    dv = R.den(complex(z))
    if dv == 0:
        return INF
    return nv / dv


def _substitute(ps, A: Polynomial, B: Polynomial, m: int) -> tuple:
    """sum_i p_i * A**i * B**(m-i) for each p in ps, the homogenised
    substitution z -> A/B, from one table of the powers of A and of B."""
    bpows = [Polynomial.one()]
    for _ in range(m):
        bpows.append(bpows[-1] * B)
    apows = [Polynomial.one()]
    for _ in range(max(p.coeffs.size for p in ps) - 1):
        apows.append(apows[-1] * A)
    out = []
    for p in ps:
        total = Polynomial.zero()
        for i, c in enumerate(p.coeffs):
            if c != 0:
                total = total + complex(c) * (apows[i] * bpows[m - i])
        out.append(total)
    return tuple(out)


def rat_combine(op: str, R1: RationalMap, R2: RationalMap) -> RationalMap:
    n1, d1, n2, d2 = R1.num, R1.den, R2.num, R2.den
    if op == "add":
        return rat_make(n1 * d2 + n2 * d1, d1 * d2)
    if op == "sub":
        return rat_make(n1 * d2 - n2 * d1, d1 * d2)
    if op == "mul":
        return rat_make(n1 * n2, d1 * d2)
    if op == "div":
        if R2.is_zero():
            raise ZeroDenominator("division by the zero map")
        return rat_make(n1 * d2, d1 * n2)
    if op == "compose":
        m = max(n1.degree, d1.degree, 0)
        return rat_make(*_substitute((n1, d1), n2, d2, m))
    raise ValueError(f"unknown operation {op!r}")


def rat_derivative(R: RationalMap) -> RationalMap:
    n, d = R.num, R.den
    return rat_make(n.derivative() * d - n * d.derivative(), d * d)
