"""Moebius conjugation to the palindromic normal form z^n P(z)/P*(z).

For a quadratic p(z) = z^2 - c the change of variables tau(z) = (z+s)/(z-s),
s = sqrt(c), sends the two roots to 0 and infinity and sends infinity to 1.
Conjugating a root-finding operator by tau yields (for the methods treated
here) a rational map of the shape

    O(z) = s0 * z^n * (a_k + a_{k-1} z + ... + a_1 z^{k-1} + z^k)
                    / (1 + a_1 z + ... + a_{k-1} z^{k-1} + a_k z^k)

with global sign s0 = +-1: numerator and denominator carry mirrored
coefficient sequences, which is equivalent to the map commuting with
iota(z) = 1/z.

It owns the rules of that form: make_form, the one constructor, divides
the factors P shares with P-hat at z = 1 and z = -1 out through
poly.deflate_pm_one (each (z - 1) flips the sign, each (z + 1) keeps it),
folds a vanishing a_k into z^n and reads P's roots by poly.root_clusters;
common_shape lifts a sign -1 form back, multiplier_aggregates gives
O'(+-1), and sampled_identity tests every symmetry f(g z) = h(f z).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import partial
from operator import mul

import numpy as np

from .errors import (DegenerateMobius, NotFixingOneZeroInfinity,
                     NotPalindromic, ZeroC)
# poly_roots stays bound for bench/test_bench.py's tracer check
from .poly import (INF, Polynomial, RationalMap, _substitute,  # noqa: F401
                   _trim, deflate_pm_one, is_inf, point_key, poly_roots,
                   rat_make, root_clusters)

MIRROR_REL = 1e-9        # palindromicity tolerance on mirrored coefficients
SYMMETRY_REL = 1e-9      # sampled-identity tolerance for symmetry checks
CHECK_SEED = 0xA5C0FFEE  # seed of the sampled symmetry checks


@dataclass(frozen=True)
class Mobius:
    """Fractional linear map (a z + b) / (c z + d) with ad - bc != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if scale == 0 or abs(det) <= 1e-14 * scale * scale:
            raise DegenerateMobius("matrix determinant vanishes")

    def __call__(self, z):
        if is_inf(z):
            if self.c == 0:
                return INF
            return self.a / self.c
        z = complex(z)
        den = self.c * z + self.d
        num = self.a * z + self.b
        if den == 0:
            return INF
        return num / den

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "Mobius") -> "Mobius":
        """self after other (matrix product)."""
        return Mobius(self.a * other.a + self.b * other.c,
                      self.a * other.b + self.b * other.d,
                      self.c * other.a + self.d * other.c,
                      self.c * other.b + self.d * other.d)


def standard_tau(c: complex) -> Mobius:
    """The conjugacy (z + sqrt(c)) / (z - sqrt(c)), principal square root.

    Sends sqrt(c) to infinity, -sqrt(c) to 0, and infinity to 1.
    """
    if c == 0:
        raise ZeroC("the polynomial z^d - c needs c != 0")
    s = cmath.sqrt(c)
    return Mobius(1.0, s, 1.0, -s)


def mobius_conjugate(R: RationalMap, M: Mobius) -> RationalMap:
    """M o R o M^-1, computed on homogeneous representatives throughout.

    Working projectively avoids evaluating anything at the intermediate
    infinities that M deliberately creates.
    """
    inv = M.inverse()
    # R(M^-1(z)) with M^-1(z) = (inv.a z + inv.b)/(inv.c z + inv.d)
    A = Polynomial((inv.b, inv.a))
    B = Polynomial((inv.d, inv.c))
    m = max(R.num.degree, R.den.degree, 0)
    num_s, den_s = _substitute((R.num, R.den), A, B, m)
    return rat_make(M.a * num_s + M.b * den_s, M.c * num_s + M.d * den_s)


# --------------------------------------------------------------------------
# normal form
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorForm:
    """Palindromic normal form sign * z^n * P(z) / P*(z).

    ``a`` holds a_1..a_k (so P(z) = a_k + a_{k-1} z + ... + a_1 z^{k-1} + z^k
    and P* has the reversed coefficients); ``roots`` are the k roots of P.
    make_form builds it with no factor shared at z = +-1 left in P.
    """

    n: int
    k: int
    a: tuple = ()
    roots: tuple = ()
    sign: int = 1

    @property
    def degenerate(self) -> bool:
        """Sign -1, which cancelling a shared factor (z - 1) leaves."""
        return self.sign == -1

    def p_coeffs(self) -> Polynomial:
        """P ascending: a_k, a_{k-1}, ..., a_1, 1."""
        return Polynomial(tuple(reversed(self.a)) + (1.0,))

    def reconstruct(self) -> RationalMap:
        num = (self.sign * self.p_coeffs()).shift(self.n)
        return rat_make(num, Polynomial((1.0,) + tuple(self.a)))


def make_form(n: int, a, sign: int = 1) -> OperatorForm:
    """The normal form of sign * z^n P / P-hat, P monic with a_1..a_k.

    P-hat mirrors P, so a factor (z - 1) of P is -(z - 1) in P-hat and a
    factor (z + 1) is (z + 1): poly.deflate_pm_one divides both out of P
    (a P whose values at 1 and -1 are clearly nonzero skips the division),
    and each (z - 1) flips the sign.  With the monic quotient Q, one
    (z - 1) gives -z^n Q / Q-hat, the inverse of common_shape's lift.
    Then a vanishing a_k (within 1e-14 of the largest of 1, |a_j|) moves
    one power of z from P into z^n, the inverse of common_shape's padding.
    The roots of P are read by poly.root_clusters (polished, a multiple
    root repeated by its multiplicity, exact conjugate pairs when every
    a_j is real) and come in point_key order, so a pair prints its
    negative imaginary part first.
    """
    a = tuple(a)
    q, counts = deflate_pm_one(np.array((1.0,) + a, np.complex128)[::-1])
    a = [complex(v) for v in q[:len(a) + 1 - sum(counts)][-2::-1]]
    scale = max([1.0] + [abs(v) for v in a])
    while a and abs(a[-1]) <= 1e-14 * scale:
        a.pop()
        n += 1
    roots = ()
    if a:
        p = Polynomial(tuple(reversed(a)) + (1.0,))
        roots = tuple(sorted((complex(x) for x, m in root_clusters(p)
                              for _ in range(m)), key=point_key))
    return OperatorForm(n=n, k=len(a), a=tuple(a), roots=roots,
                        sign=sign * (-1) ** counts[0])


def extract_normal_form(R: RationalMap) -> OperatorForm:
    """Read (n, k, a, sign) off a reduced map, verifying the mirror property.

    Raises NotFixingOneZeroInfinity when the map does not have the required
    structure at 0/1/infinity, and NotPalindromic when the coefficient mirror
    fails beyond tolerance.
    """
    num, den = R.num, R.den
    if num.is_zero():
        raise NotFixingOneZeroInfinity("the zero map does not fix infinity")
    # degrees judged at the mirror tolerance, so coefficient junk below it
    # cannot inflate the reported (n, k)
    nc = _trim(num.coeffs, MIRROR_REL)
    top = np.abs(nc).max()
    n = 0
    while n < nc.size and abs(nc[n]) <= MIRROR_REL * top:
        n += 1
    if n < 1:
        raise NotFixingOneZeroInfinity("0 is not a fixed point (no z^n factor)")
    q = nc[n:]
    k = q.size - 1
    dc = _trim(den.coeffs, MIRROR_REL)
    if dc.size - 1 != k:
        raise NotFixingOneZeroInfinity(
            f"infinity is not fixed with local degree {n} "
            f"(numerator co-degree {k}, denominator degree {dc.size - 1})")
    if abs(dc[0]) <= MIRROR_REL * np.abs(dc).max():
        raise NotFixingOneZeroInfinity("denominator vanishes at 0")
    q = q / dc[0]
    dc = dc / dc[0]
    # sign from the leading numerator coefficient (mirror partner of den[0])
    s = q[-1]
    if abs(s - 1.0) <= MIRROR_REL:
        sign = 1
    elif abs(s + 1.0) <= MIRROR_REL:
        sign = -1
    else:
        raise NotPalindromic(f"leading coefficient {s} is not +-1")
    mirror = sign * dc[::-1]
    scale = np.abs(dc).max()
    if not np.all(np.abs(q - mirror) <= MIRROR_REL * scale):
        worst = float(np.max(np.abs(q - mirror)))
        raise NotPalindromic(f"mirror defect {worst:.3e} exceeds tolerance")
    form = make_form(n, dc[1:], sign)
    # Vieta guard: a_1 = -sum r_i must hold for the computed roots
    if form.k and (abs(sum(form.roots) + form.a[0])
                   > 1e-8 * (1.0 + abs(form.a[0]))):
        raise NotPalindromic("root/coefficient consistency check failed")
    return form


def common_shape(forms) -> tuple:
    """(n, a) of several forms written as sign +1 members of one shape.

    A reduced -z^n Q / Q-hat equals z^n P / P-hat with the monic
    P = (z - 1) Q, so a sign -1 form is lifted to that P.  The a are then
    zero-padded to the largest k (a padded a_k = 0 moves one power of z from
    P into z^n).  n comes back as an integer array, a as (forms, k) complex.
    """
    lifted = [(f.n, f.a if f.sign == 1 else
               (f.p_coeffs() * Polynomial((-1.0, 1.0))).coeffs[-2::-1])
              for f in forms]
    k = max(len(a) for _, a in lifted)
    out = np.zeros((len(lifted), k), np.complex128)
    for i, (_, a) in enumerate(lifted):
        out[i, :len(a)] = a
    return np.array([n - (k - len(a)) for n, a in lifted]), out


def multiplier_aggregates(n: int, p_hat, x: float) -> tuple:
    """(num, den) with O'(x) = num / den at x = +-1 for O = z^n P / P-hat.

    `p_hat` holds the ascending coefficients c_0..c_k of P-hat (1, a_1..a_k
    for a form).  With s = n + k, num = sum x^j (s - 2j) c_j and
    den = sum x^j c_j = P-hat(x).  Both are linear in c, so a(t) = A + t B
    gives num and den affine in t (B read with c_0 = 0).  At x = -1 the
    quotient is O'(-1) when n + k is odd, so that -1 is fixed.
    """
    s = n + len(p_hat) - 1
    num = sum(x ** j * (s - 2 * j) * c for j, c in enumerate(p_hat))
    den = sum(x ** j * c for j, c in enumerate(p_hat))
    return num, den


# --------------------------------------------------------------------------
# sampled symmetry checks
# --------------------------------------------------------------------------


def _values(f, z: np.ndarray) -> np.ndarray:
    """f at the points z; an f that raises ZeroDivisionError is undefined
    (NaN) at every point."""
    try:
        return np.asarray(f(z), np.complex128)
    except ZeroDivisionError:
        return np.full(z.shape, complex(np.nan, np.nan))


def _draw_verdicts(f, moves, z: np.ndarray) -> tuple:
    """(failed, passed) of the draws z that are not skipped, in order."""
    with np.errstate(all="ignore"):
        v = _values(f, z)
        keep = (np.abs(z) >= 0.1) & (np.abs(v) >= 1e-6) & (np.abs(v) <= 1e6)
        z, v = z[keep], v[keep]
        pending = np.ones(z.shape, bool)   # no move has decided the draw yet
        failed = np.zeros(z.shape, bool)
        for g, h in moves:
            w, want = _values(f, g(z)), h(v)
            undefined = np.isnan(w)
            miss = ~undefined & ~(np.abs(w - want)
                                  <= SYMMETRY_REL * (1.0 + np.abs(want)))
            failed |= pending & miss
            pending &= ~(undefined | miss)
    return failed, pending


def sampled_identity(f, moves, trials: int, seed: int) -> bool:
    """Sampled test of f(g z) = h(f z) for every move (g, h).

    f, g and h take an array of points; f marks a point where it divides by
    exact zero with NaN and a pole with an infinite value.  Draws z come
    from [-2, 2]^2 (real part first), 50 trials + 100 of them at once, and
    are read in order until `trials` pass.  A draw is skipped at |z| < 0.1,
    where f(z) is undefined or outside [1e-6, 1e6] in modulus, and where
    some f(g z) is undefined before any move fails; it fails where f(g z)
    is a pole or misses h(f z) by more than SYMMETRY_REL.  The test is
    False when a draw fails before the `trials`-th pass.  Each draw's
    verdict depends on that draw alone, so f first sees only the first
    2 trials + 10 draws, and the rest only when they decide nothing.
    """
    draws = np.random.default_rng(seed).uniform(-2.0, 2.0,
                                                (50 * trials + 100, 2))
    z = draws.view(np.complex128)[:, 0]
    head = 2 * trials + 10
    failed, passed = _draw_verdicts(f, moves, z[:head])
    if passed.sum() < trials and not failed.any():
        more_failed, more_passed = _draw_verdicts(f, moves, z[head:])
        failed = np.concatenate((failed, more_failed))
        passed = np.concatenate((passed, more_passed))
    passes_before = np.cumsum(passed) - passed
    return not np.any(failed & (passes_before < trials))


def rotations(d: int) -> list:
    """The moves z -> lam z, v -> lam v for the d-th roots of unity lam != 1."""
    lams = [cmath.exp(2j * cmath.pi * j / d) for j in range(1, d)]
    return [(partial(mul, lam),) * 2 for lam in lams]


def check_iota_symmetry(R: RationalMap, trials: int = 20) -> bool:
    """Sampled test of iota o R o iota = R, i.e. R(1/z) = 1/R(z)."""
    return sampled_identity(R, [(lambda z: 1.0 / z,) * 2], trials, CHECK_SEED)


def check_lambda_odd(R: RationalMap, d: int, trials: int = 50) -> bool:
    """Sampled test of R(lam z) = lam R(z) for all d-th roots of unity lam."""
    return sampled_identity(R, rotations(d), trials, CHECK_SEED + d)
