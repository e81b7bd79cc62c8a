import cmath
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ndyn.poly
from conftest import maps_close
from ndyn.cli import main
from ndyn.errors import NdynError, NoConvergence, ZeroPolynomial
from ndyn.poly import (INF, Polynomial, _clusters, deflate_anchored,
                       deflate_pm_one, is_inf, poly_roots, rat_derivative,
                       rat_eval, rat_make, root_clusters)

finite_floats = st.floats(min_value=-50, max_value=50,
                          allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(finite_floats, min_size=1, max_size=9)


def test_degree_ignores_trailing_zeros():
    p = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert p.degree == 1


def test_product_degree_and_derivative_rule():
    p = Polynomial((1.0, 0.0, 3.0))          # 1 + 3z^2
    q = Polynomial((2.0, -1.0))              # 2 - z
    prod = p * q
    assert prod.degree == 3
    lhs = prod.derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert np.allclose(lhs.coeffs, rhs.coeffs)


@pytest.mark.parametrize("coeffs", [(np.inf,), (np.nan, 1.0)],
                         ids=["inf", "nan"])
def test_non_finite_coefficients_are_refused(coeffs):
    # an infinite largest coefficient would trim to the zero polynomial
    with pytest.raises(NdynError, match="a coefficient is not finite"):
        Polynomial(coeffs)


def test_rat_make_scales_large_coefficients_without_overflow():
    # the sum of squares of these coefficients overflows, their norm does not
    big = rat_make(Polynomial((3e160, 3e160)), Polynomial((1.0, 2.0, 1.0)))
    assert np.array_equal(big.num.coeffs, (3e160,))
    assert np.array_equal(big.den.coeffs, (1.0, 1.0))
    with pytest.raises(NdynError, match="outside the normal float range"):
        rat_make(Polynomial((1.5e308, 1.5e308, 1e308)),
                 Polynomial((1.0, 1.0)))


@pytest.mark.parametrize("coeffs", [(3e-314, 3e-314j), (1e-320, 2e-320)],
                         ids=["complex", "real"])
def test_rat_make_refuses_subnormal_coefficients_without_a_warning(coeffs):
    # pytest turns warnings into errors, so a division that overflows on the
    # way to the refusal fails here
    with pytest.raises(NdynError, match="outside the normal float range"):
        rat_make(Polynomial(coeffs), Polynomial((1.0, 1.0)))


@pytest.mark.parametrize("coeffs,value", [((), 0j), ((2.5 - 1j,), 2.5 - 1j),
                                          ((0.0, 0.0, 3.0), INF)],
                         ids=["zero", "constant", "quadratic"])
def test_value_at_infinity(coeffs, value):
    got = Polynomial(coeffs)(INF)
    assert got is INF if value is INF else (type(got), got) == (complex, value)


@pytest.mark.parametrize("call,error,message", [
    (lambda: poly_roots(Polynomial.zero()), ZeroPolynomial,
     "cannot extract roots of the zero polynomial"),
    (lambda: Polynomial([[1, 2]]), ValueError,
     "coefficients must form a one-dimensional sequence"),
], ids=["roots-of-zero", "two-dimensional"])
def test_poly_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert str(refused.value) == message


@settings(max_examples=40, deadline=None)
@given(coeff_lists, finite_floats)
def test_evaluation_matches_reference(coeffs, x):
    p = Polynomial(tuple(coeffs))
    want = np.polynomial.polynomial.polyval(x, np.asarray(coeffs))
    assert abs(p(complex(x)) - want) <= 1e-9 * max(1.0, abs(want))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                   allow_infinity=False)
                .filter(lambda w: w == 0 or abs(w) >= 1e-6),
                min_size=1, max_size=6))
def test_roots_backward_error(roots):
    # a multiple root only admits eps**(1/m) forward accuracy, so the
    # universal contract is small backward error
    p = Polynomial.from_roots(roots)
    got = poly_roots(p)
    assert len(got) == len(roots)
    c = np.abs(p.coeffs)
    for g in got:
        powers = np.abs(g) ** np.arange(c.size)
        scale = float((c * powers).sum())
        assert abs(p(g)) <= 1e-8 * max(scale, 1e-30)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=6, unique=True)
       .filter(lambda rs: len(rs) < 2 or min(
           abs(a - b) for i, a in enumerate(rs) for b in rs[i + 1:]) > 0.3))
def test_roots_of_separated_factorization(roots):
    p = Polynomial.from_roots(roots)
    got = poly_roots(p)
    for w in roots:
        assert min(abs(g - complex(w)) for g in got) <= 1e-7 * (1.0 + abs(w))


def test_roots_high_multiplicity():
    p = Polynomial.from_roots([2.0] * 4 + [-1.0])
    got = poly_roots(p)
    near_two = [w for w in got if abs(w - 2.0) < 1e-2]
    assert len(near_two) == 4


def test_roots_of_low_degree_and_at_the_origin():
    assert poly_roots(Polynomial((3.0,))) == ()
    assert poly_roots(Polynomial((0.0, 2.0))) == (0j,)
    assert poly_roots(Polynomial((0.0, 0.0, -2.0, 1.0))) == (0j, 0j, 2)


def test_roots_are_sorted_by_real_then_imaginary_part():
    got = poly_roots(Polynomial.from_roots([1 + 2j, -3.0, 1 - 2j, 0.5j, 2.0]))
    assert list(got) == sorted(got, key=lambda r: (r.real, r.imag))


def test_anchored_deflation_removes_only_the_anchor():
    # one copy of (z - 1) leaves; the root 1e-3 away and -3 stay
    p = Polynomial.from_roots([1.0, 1.001, -3.0])
    rows, counts = deflate_anchored(p.coeffs[None, :], (1.0, -1.0))
    assert counts.tolist() == [[1, 0]]
    q = Polynomial(rows[0])
    assert q.degree == 2
    assert abs(q(1.001)) <= 1e-12
    assert abs(q(-3.0)) <= 1e-12


def test_rat_make_cancels_common_factor():
    shared = Polynomial.from_roots([2.0, -0.5])
    num = shared * Polynomial((0.0, 1.0))
    den = shared * Polynomial((3.0,))
    R = rat_make(num, den)
    expect = rat_make(Polynomial((0.0, 1.0)), Polynomial((3.0,)))
    assert maps_close(R, expect)


def test_rat_eval_pole_and_infinity():
    R = rat_make(Polynomial((1.0,)), Polynomial((0.0, 1.0)))   # 1/z
    assert is_inf(rat_eval(R, 0.0))
    assert rat_eval(R, INF) == 0.0
    # at INF the degrees decide: numerator above, equal, zero map
    assert is_inf(rat_eval(rat_make(Polynomial((0.0, 0.0, 1.0)),
                                    Polynomial((1.0, 1.0))), INF))
    assert rat_eval(rat_make(Polynomial((1.0, 2.0)),
                             Polynomial((3.0, 1.0))), INF) == 2.0
    assert rat_eval(rat_make(Polynomial(), Polynomial((1.0, 1.0))), INF) == 0.0


def test_a_bridging_estimate_joins_two_clusters():
    # 0 and 1.5e-4 are further apart than CLUSTER_REL, but 0.75e-4 lies
    # within it of both, so the three are one triple root of z^3
    [(center, m)] = _clusters(Polynomial((0.0, 0.0, 0.0, 1.0)),
                              [0j, 1.5e-4 + 0j, 0.75e-4 + 0j])
    assert m == 3 and abs(center) <= 1e-15


def test_reader_takes_the_origin_from_negligible_low_coefficients():
    # z^2 (z - 3) with its constant term at 1e-15 of the largest
    p = Polynomial((1e-15, 0.0, -3.0, 1.0))
    assert root_clusters(p) == [(0j, 2), (3.0 + 0j, 1)]
    assert root_clusters(Polynomial()) == []


def test_reader_divides_plus_and_minus_one_out_exactly():
    # (z - 1)^3 (z + 1)^2 (z^2 - 2z + 5): the anchors are exact, and every
    # cluster comes in point_key order
    p = (Polynomial.from_roots([1.0] * 3 + [-1.0] * 2)
         * Polynomial((5.0, -2.0, 1.0)))
    (minus_one, two), (low, m), (one, three), (high, k) = root_clusters(p)
    assert (minus_one, two, one, three) == (-1.0 + 0j, 2, 1.0 + 0j, 3)
    assert (m, k) == (1, 1) and high == low.conjugate()
    assert abs(high - (1.0 + 2.0j)) <= 1e-14


def test_reader_polishes_a_scattered_double_root():
    r = 0.3 + 0.4j
    p = Polynomial.from_roots([r, r, -2.0])
    scatter = [x for x in poly_roots(p) if abs(x - r) < 0.1]
    assert len(scatter) == 2 and abs(scatter[0] - scatter[1]) > 1e-10
    [(minus_two, one), (center, two)] = root_clusters(p)
    assert (one, two) == (1, 2)
    assert abs(minus_two + 2.0) <= 1e-15 and abs(center - r) <= 1e-15


def test_reader_pairs_conjugates_for_real_coefficients_only(monkeypatch):
    # two conjugate pairs and a real root of a real P
    p = (Polynomial((2.7, 0.07, 1.0)) * Polynomial((3.1, -1.3, 1.0))
         * Polynomial((2.14, 1.0)))
    points = [x for x, _ in root_clusters(p)]
    assert sum(x.imag != 0 for x in points) == 4
    assert all(x.conjugate() in points for x in points)
    # a solver that leaves a rounding-level imaginary part on the real
    # root: the unpaired point still reads exactly real
    solve = ndyn.poly.poly_roots
    monkeypatch.setattr(ndyn.poly, "poly_roots", lambda p: tuple(
        x + 1e-17j if abs(x.imag) < 1e-12 else x for x in solve(p)))
    nudged = [x for x, _ in root_clusters(p)]
    assert nudged == points and nudged[0] == -2.14 and nudged[0].imag == 0
    monkeypatch.undo()
    # z^2 + 1 + 1e-6i has the roots +-r, r = sqrt(-1 - 1e-6i) ~ 5e-7 - i,
    # which are no conjugate pair: complex coefficients keep them apart
    r = cmath.sqrt(-1.0 - 1e-6j)
    low, high = sorted((x for x, _ in root_clusters(
        Polynomial((1.0 + 1e-6j, 0.0, 1.0)))), key=lambda x: x.imag)
    assert abs(low - r) <= 1e-15 and abs(high + r) <= 1e-15


def test_rat_derivative_quotient_rule():
    R = rat_make(Polynomial((0.0, 0.0, 1.0)), Polynomial((1.0, 2.0)))
    D = rat_derivative(R)
    z = 0.7 + 0.3j
    h = 1e-6
    numeric = (rat_eval(R, z + h) - rat_eval(R, z - h)) / (2 * h)
    assert abs(rat_eval(D, z) - numeric) <= 1e-5


def test_maps_close_scaling_invariance():
    R1 = rat_make(Polynomial((0.0, 1.0)), Polynomial((1.0, 1.0)))
    R2 = rat_make(Polynomial((0.0, 5.0)), Polynomial((5.0, 5.0)))
    assert maps_close(R1, R2)
    R3 = rat_make(Polynomial((0.0, 1.0)), Polynomial((1.0, 1.1)))
    assert not maps_close(R1, R3)


def test_root_solve_raises_when_the_sweeps_run_out(monkeypatch, capsys):
    monkeypatch.setattr(ndyn.poly, "ABERTH_MAX_SWEEPS", 0)
    with pytest.raises(NoConvergence) as raised:
        poly_roots(Polynomial((0.0, 1.0, 0.0, 1.0)))     # z (z^2 + 1)
    assert str(raised.value) == ("root iteration did not reach residual "
                                 "1e-12 in 0 sweeps (degree 3)")
    assert main(["build", "--method", "king", "--param", "beta=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: root iteration did not reach ")


def test_rat_make_makes_no_root_solve(monkeypatch):
    def refused(p):
        raise AssertionError("rat_make solved for roots")

    monkeypatch.setattr(ndyn.poly, "poly_roots", refused)
    num = Polynomial.from_roots([2.0, -0.5, 1.0j])
    den = Polynomial.from_roots([2.0, 3.0])
    R = rat_make(num, den)
    assert (R.num.degree, R.den.degree) == (2, 1)


@pytest.mark.parametrize("m", range(1, 7))
def test_rat_make_cancels_a_shared_root_of_any_multiplicity(m):
    # (z - r)^m (z - 3) / ((z - r)^m (z + 2)(z - 0.3i))
    r = 1.0 + 0.5j
    R = rat_make(Polynomial.from_roots([r] * m + [3.0]),
                 Polynomial.from_roots([r] * m + [-2.0, 0.3j]))
    assert (R.num.degree, R.den.degree) == (1, 2)
    z = 0.3 - 0.7j
    want = (z - 3.0) / ((z + 2.0) * (z - 0.3j))
    assert abs(rat_eval(R, z) - want) <= 1e-12 * abs(want)


def test_rat_make_cancels_a_pole_from_the_derivative_numerator():
    # W = N'D - N D' for z^3 (z - 1/2)^2 / (1 - z/2)^2 shares one (z - 2)
    # with the 4-fold D^2
    N = Polynomial.from_roots([0.0, 0.0, 0.0, 0.5, 0.5])
    D = Polynomial.from_roots([2.0, 2.0], lead=0.25)
    R = rat_make(N.derivative() * D - N * D.derivative(), D * D)
    assert (R.num.degree, R.den.degree) == (5, 3)


@pytest.mark.parametrize("gap", [1e-6, 1e-3])
def test_rat_make_keeps_roots_that_are_only_close(gap):
    R = rat_make(Polynomial.from_roots([1.0, 3.0]),
                 Polynomial.from_roots([1.0 + gap, -2.0]))
    assert (R.num.degree, R.den.degree) == (2, 2)


# shared factors of unequal multiplicity: min(m, mb) copies leave each side
UNEQUAL = [
    ([1j] * 4 + [2.0], [1j, -3.0], (4, 1)),
    ([1j, 1j, 1.0], [1j] * 3, (1, 1)),
    ([0.5, 0.5, -1.0, 2.0 + 1j], [0.5, 2.0 + 1j, 3.0], (2, 1)),
]


@pytest.mark.parametrize("num_roots,den_roots,degrees", UNEQUAL)
def test_rat_make_cancels_unequal_multiplicities(num_roots, den_roots,
                                                 degrees):
    R = rat_make(Polynomial.from_roots(num_roots),
                 Polynomial.from_roots(den_roots))
    assert (R.num.degree, R.den.degree) == degrees
    z = 0.3 - 0.7j
    want = (np.prod([z - r for r in num_roots])
            / np.prod([z - r for r in den_roots]))
    assert abs(rat_eval(R, z) - want) <= 1e-9 * abs(want)


# Every root of a seeded corpus, bit for bit: random coefficients, doubled
# roots, exact zero low coefficients, coefficients spread over 1e+-6 and roots
# on the unit circle, degrees 0 to 16.  `PYTHONPATH=src python
# tests/test_poly.py` prints the current digest (first line).
ROOTS_PIN = "320dc269177e87e0c373e00b1925d880ef97496786d0215020dfd3ad3ca352c7"


def _root_corpus():
    rng = np.random.default_rng(20240615)

    def cnormal(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    out = [Polynomial(cnormal(i % 17 + 1)) for i in range(60)]
    for _ in range(40):
        roots = cnormal(rng.integers(1, 9))
        twice = roots[: rng.integers(1, roots.size + 1)]
        out.append(Polynomial.from_roots(np.concatenate([roots, twice])))
    for _ in range(40):
        c = cnormal(rng.integers(2, 17))
        c[: rng.integers(1, c.size)] = 0.0
        out.append(Polynomial(c))
    for _ in range(30):
        d = rng.integers(1, 17)
        out.append(Polynomial(cnormal(d) * 10.0 ** rng.uniform(-6, 6, d)))
    for _ in range(30):
        theta = rng.uniform(0, 2 * np.pi, rng.integers(1, 17))
        out.append(Polynomial.from_roots(np.exp(1j * theta)))
    return out


def _roots_digest(corpus):
    # + 0.0 reads a root at -0 as 0: only the sign of a zero may differ
    h = hashlib.sha256()
    for p in corpus:
        h.update((np.asarray(poly_roots(p), complex) + 0.0).tobytes())
    return h.hexdigest()


def test_roots_match_pin():
    corpus = _root_corpus()
    assert sorted({p.degree for p in corpus}) == list(range(17))
    assert _roots_digest(corpus) == ROOTS_PIN


# The reduced degrees of a seeded corpus of planted common factors: one
# shared root of multiplicity 1 to 6 (and at times a second, simple one)
# times cofactors of degree 0 to 4, the denominator with a random leading
# coefficient.  Every pair reduces to its cofactors' degrees.
# `PYTHONPATH=src python tests/test_poly.py` prints the current digest
# (second line).
DEGREES_PIN = "0c2951a4dbedf8f2cb4cc0c63578eeaf669f53fb135223fd857af63ec0f53f18"


def _planted_corpus():
    rng = np.random.default_rng(20261018)

    def croots(size):
        return rng.uniform(-2, 2, size) + 1j * rng.uniform(-2, 2, size)

    out = []
    for i in range(120):
        shared = np.concatenate([np.repeat(croots(1), i % 6 + 1),
                                 croots(rng.integers(0, 2))])
        u, v = croots(rng.integers(0, 5)), croots(rng.integers(0, 5))
        lead = complex(*rng.normal(size=2))
        out.append((Polynomial.from_roots(np.concatenate([shared, u])),
                    Polynomial.from_roots(np.concatenate([shared, v]), lead),
                    (u.size, v.size)))
    return out


def _reduced_degrees(corpus):
    return [(R.num.degree, R.den.degree)
            for R in (rat_make(f, g) for f, g, _ in corpus)]


def _degrees_digest(degrees):
    return hashlib.sha256(np.array(degrees).tobytes()).hexdigest()


def test_reduced_degrees_match_pin():
    corpus = _planted_corpus()
    degrees = _reduced_degrees(corpus)
    assert degrees == [planted for _, _, planted in corpus]
    assert _degrees_digest(degrees) == DEGREES_PIN


def _anchored_rows():
    rng = np.random.default_rng(7)
    rows = np.zeros((12, 12), np.complex128)
    for i in range(rows.shape[0]):
        q = rng.normal(size=rng.integers(1, 5)) * (1.0 + 0.5j)
        p = Polynomial.from_roots([1.0] * (i % 4) + [-1.0] * (i % 3) + list(q))
        rows[i, :p.coeffs.size] = p.coeffs
    return rows


def test_anchored_deflation_of_a_batch_is_row_by_row():
    rows = _anchored_rows()
    batch, counts = deflate_anchored(rows, (1.0, -1.0))
    for i, row in enumerate(rows):
        one, count = deflate_anchored(row[None, :], (1.0, -1.0))
        assert np.array_equal(one[0], batch[i])
        assert np.array_equal(count[0], counts[i])
    assert counts.tolist() == [[i % 4, i % 3] for i in range(rows.shape[0])]


def _planted_rows():
    """Seeded rows with (z - 1)^a (z + 1)^b planted, a, b in 0..7 (wang has
    7-fold roots at +-1), real and complex cofactors, some rescaled."""
    rng = np.random.default_rng(0xDEF1A7E)
    for a in range(8):
        for b in range(8):
            for case in range(3):
                k = int(rng.integers(0, 5))
                q = rng.normal(size=k) + 1j * rng.normal(size=k) * (case != 0)
                p = Polynomial.from_roots([1.0] * a + [-1.0] * b + list(q))
                yield p.coeffs * (1.0 if case < 2 else 3.0 - 0.7j)


def _near_anchor_rows():
    """Seeded rows of 5 to 31 coefficients whose value at +1 or -1 sits at
    rel of sum |c_j|, for rel on both sides of deflation's 1e-8 and of
    1e-7, where a former pre-test returned a row undivided."""
    rng = np.random.default_rng(0x9E7E57)
    for rel in (5e-9, 5e-8, 2e-7):
        for i, r in enumerate((1.0, -1.0)):
            for size in (5, 12, 31):
                c = rng.normal(size=size) + 1j * rng.normal(size=size)
                c[0] = 0.0
                powers = r ** np.arange(size)
                scale = np.abs(c).sum() + abs(c @ powers)
                turn = np.exp(1j * rng.uniform(0.0, 7.0))
                c[0] = rel * scale * turn - c @ powers
                yield c, rel, i


def test_scalar_pm_one_deflation_is_the_batched_one_bit_for_bit():
    rng = np.random.default_rng(3)
    unchanged = [Polynomial.from_roots(rng.normal(size=6) + 2.0j).coeffs,
                 np.array([2.0, -1.0, 0.5, 3.0], np.complex128)]
    near = list(_near_anchor_rows())
    for c in list(_planted_rows()) + unchanged + [c for c, _, _ in near]:
        q, counts = deflate_pm_one(c)
        rows, want = deflate_anchored(c[None, :], (1.0, -1.0))
        assert q.tobytes() == rows[0].tobytes()
        assert counts == tuple(want[0].tolist())
    for c, rel, i in near:
        assert (deflate_pm_one(c)[1][i] > 0) == (rel < 1e-8)


def test_anchored_deflation_counts_each_anchor():
    q = Polynomial.from_roots([0.5 + 2.0j, -3.0])
    p = Polynomial.from_roots([1.0] * 3 + [-1.0] * 2) * q
    rest, counts = deflate_anchored(p.coeffs[None, :], (1.0, -1.0))
    assert counts.tolist() == [[3, 2]]
    assert np.allclose(Polynomial(rest[0]).coeffs, q.coeffs, atol=1e-12)


if __name__ == "__main__":
    print(_roots_digest(_root_corpus()))
    print(_degrees_digest(_reduced_degrees(_planted_corpus())))
