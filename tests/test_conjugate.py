import inspect
from functools import partial

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import maps_close, random_form
from ndyn.builder import (SchemeContext, catalog_entry, catalog_names,
                          conjugated_form, instantiate)
from ndyn.conjugate import (Mobius, check_iota_symmetry,
                            OperatorForm, common_shape, extract_normal_form,
                            make_form, mobius_conjugate, rotations,
                            sampled_identity, standard_tau)
import ndyn.conjugate
from ndyn.cli import main
from ndyn.errors import NdynError, NotPalindromic, ZeroDenominator
from ndyn.poly import (COFACTOR_TOL, INF, Polynomial, RationalMap,
                       deflate_anchored, is_inf, rat_eval, rat_make)


def test_tau_sends_the_roots_to_zero_and_infinity():
    for c in (1.0, 2.0 - 1.0j, -3.0):
        tau = standard_tau(c)
        r = np.sqrt(complex(c))
        assert is_inf(tau(r))
        assert abs(tau(-r)) <= 1e-12
        assert abs(tau(INF) - 1.0) <= 1e-12


def test_a_mobius_map_with_c_zero_fixes_infinity():
    assert Mobius(1.0, 0.0, 0.0, 1.0)(INF) is INF


def test_mobius_compose_inverse():
    m = Mobius(2.0, 1.0, 1.0, -1.0)
    z = 0.3 + 0.9j
    assert abs(m.inverse()(m(z)) - z) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                          allow_nan=False, allow_infinity=False))
def test_newton_conjugates_to_the_square(c):
    R = instantiate(catalog_entry("newton").ast, SchemeContext(d=2, c=c))
    O = mobius_conjugate(R, standard_tau(c))
    square = rat_make(Polynomial((0.0, 0.0, 1.0)), Polynomial((1.0,)))
    assert maps_close(O, square, rel=1e-10)


def test_extraction_reads_shape_and_coefficients():
    O = conjugated_form("traub")
    assert (O.n, O.k, O.sign) == (3, 1, 1)
    assert abs(O.a[0] - 2.0) <= 1e-12
    R = O.reconstruct()
    got = extract_normal_form(R)
    assert (got.n, got.k) == (3, 1)


@settings(max_examples=30, deadline=None)
@seed(20250104)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, -1)))
def test_roundtrip_random_forms(draw, sign):
    form = random_form(np.random.default_rng(draw))
    form = make_form(form.n, form.a, sign)
    back = extract_normal_form(form.reconstruct())
    assert (back.n, back.k, back.sign) == (form.n, form.k, form.sign)
    err = max((abs(x - y) for x, y in zip(back.a, form.a)), default=0.0)
    assert err <= 1e-9 * max(1.0, max((abs(v) for v in form.a), default=1.0))


# the charted scheme families: p = z^2 - c enters only through
# dimensionless ratios, so the normal form does not depend on c
CHARTED_SCHEMES = [name for name in catalog_names()
                   if catalog_entry(name).ast is not None
                   and catalog_entry(name).stability_producer is not None]


@settings(max_examples=40, deadline=None)
@seed(20130126)
@given(st.sampled_from(CHARTED_SCHEMES),
       st.integers(-24, 24), st.integers(-24, 24),
       st.floats(0.25, 4.0), st.floats(-np.pi, np.pi))
def test_normal_form_does_not_depend_on_c(name, re8, im8, modulus, angle):
    # parameters on a grid of step 1/8, so special members are hit exactly
    params = catalog_entry(name).params
    bindings = {params[0]: complex(re8, im8) / 8.0} if params else {}
    want = conjugated_form(name, bindings)
    got = conjugated_form(name, bindings, c=modulus * np.exp(1j * angle))
    assert (got.n, got.k, got.sign) == (want.n, want.k, want.sign)
    for x, y in zip(got.a, want.a):
        assert abs(x - y) <= 1e-8 * (1.0 + abs(y))


def test_degenerate_sum_reduces_with_sign_flip():
    # numerator coefficient sum zero puts a root at z=1 that cancels;
    # here the quotient then drops a second shared factor, hence k=1
    a = (2.0, -1.0, -2.0)
    form = make_form(4, a)
    assert form.degenerate
    reduced = extract_normal_form(form.reconstruct())
    assert reduced.sign == -1
    assert reduced.k < len(a)
    assert abs(rat_eval(reduced.reconstruct(), 1.0) + 1.0) <= 1e-9
    assert abs(rat_eval(reduced.reconstruct(), -1.0) - 1.0) <= 1e-9


def test_make_form_folds_zero_bottom_coefficient():
    # a_k = 0 pulls a factor z out of P into z^n
    assert make_form(3, (1.0, 0.0)) == make_form(4, (1.0,))
    assert make_form(2, (1e-16j,)) == make_form(3, ())
    # a_k within MIRROR_REL of max(1, |a_j|) folds, as extraction trims it,
    # so the map re-extracts as the form made
    for rel in (1e-13, 1e-11, 1e-10):
        form = make_form(3, (4.0, 5.0, 5.0 * rel))
        assert (form.n, form.k) == (4, 2)
        assert extract_normal_form(form.reconstruct()) == form


@pytest.mark.parametrize("a", [(4.0, 5.0, -np.inf), (4.0, np.nan, 1.0),
                               (complex(1.0, np.inf), 2.0)])
def test_make_form_refuses_a_non_finite_coefficient(a):
    # the +-1 test reads inf <= 1e-8 * inf as a root: (3, (4, 5, -inf))
    # used to give the finite -z^3 P / P-hat with a = (5, 10)
    j = next(j for j, v in enumerate(a, 1) if not np.isfinite(v))
    with pytest.raises(NdynError, match=f"coefficient a_{j} of the normal "
                                        "form is not finite"):
        make_form(3, a)


def test_make_form_pairs_conjugate_roots_of_a_real_p():
    # P = (z^2 + 0.07 z + 2.7)^2 (z + 2.14): the solver's two clusters of
    # the double pair -0.035 +- 1.643i differ in the last bit of the real part
    q = Polynomial((2.7, 0.07, 1.0))
    p = q * q * Polynomial((2.14, 1.0))
    real, low, low2, high, high2 = make_form(2, p.coeffs[-2::-1].real).roots
    assert low == low2 and high == high2 and high == low.conjugate()
    assert abs(high - (-0.035 + 1.6427948745963388j)) <= 1e-12
    assert abs(real + 2.14) <= 1e-12
    # complex a keeps the solver's roots as they are
    assert len(make_form(3, (1.0 + 1e-3j, 2.0)).roots) == 2


@settings(max_examples=30, deadline=None)
@seed(46452)
@given(st.integers(0, 2 ** 32 - 1))
def test_reduced_form_inverts_the_lift(draw):
    # a sign -1 form lifted to z^n P / P-hat reduces back to itself
    form = random_form(np.random.default_rng(draw))
    form = make_form(form.n, form.a, -1)
    n, a = common_shape([form])
    back = make_form(int(n[0]), a[0])
    assert (back.n, back.k, back.sign) == (form.n, form.k, -1)
    err = max((abs(x - y) for x, y in zip(back.a, form.a)), default=0.0)
    assert err <= 1e-12 * max(1.0, max((abs(v) for v in form.a), default=1.0))


def test_reduced_form_cancels_each_factor_at_one():
    # P = (z - 1)^2 (z^2 + 4 z + 5): the second cancellation flips the sign back
    form = make_form(4, (2.0, -2.0, -6.0, 5.0))
    assert (form.n, form.k, form.sign) == (4, 2, 1)
    assert np.allclose(form.a, (4.0, 5.0), rtol=0, atol=1e-12)


def test_make_form_keeps_a_form_clear_of_the_anchors():
    # P(1) = 3 and P(-1) = -1: nothing divides out, and a comes back as given
    form = make_form(3, (2.0,))
    assert (form.n, form.k, form.sign, form.a) == (3, 1, 1, (2.0,))
    assert form.roots == (-2.0,)
    form = make_form(2, (0.5 - 1.0j, 3.0), -1)
    assert (form.n, form.k, form.sign) == (2, 2, -1)
    assert form.a == (0.5 - 1.0j, 3.0)


def test_degenerate_is_the_sign():
    assert OperatorForm(n=4, k=1, a=(2.0,), sign=-1).degenerate
    assert not OperatorForm(n=4, k=1, a=(2.0,)).degenerate


def test_a_form_derives_its_roots():
    assert "roots" not in inspect.signature(OperatorForm).parameters
    assert OperatorForm(n=4, k=1, a=(2.0,)).roots == ((-2 + 0j),)


@pytest.mark.parametrize("k,sign", [(3, 1), (1, 2)], ids=["k", "sign"])
def test_a_form_refuses_a_k_or_sign_that_disagrees(k, sign):
    with pytest.raises(ValueError):
        OperatorForm(n=4, k=k, a=(2.0,), sign=sign)


@pytest.mark.parametrize("method,bindings", [("os3", {"a": 1.0}),
                                             ("king", {"beta": 1.0})])
def test_every_form_is_vieta_guarded(monkeypatch, method, bindings):
    # a form family member (os3) is made without extract_normal_form, a
    # scheme (king) through it: the guard reads the roots either way.  A
    # member is z^n P / P-hat by construction, so the family reports its
    # guard failing as coefficients too large to solve, not as a pole
    clusters = ndyn.conjugate.root_clusters

    def shifted(p):
        (x, m), *rest = clusters(p)
        return [(x + 1e-3, 1)] + [(x, m - 1)] * (m > 1) + rest
    monkeypatch.setattr(ndyn.conjugate, "root_clusters", shifted)
    error, match = {
        "os3": (NdynError, "coefficients of os3 at this a are too large"),
        "king": (NotPalindromic, "root/coefficient consistency check failed"),
    }[method]
    with pytest.raises(error, match=match) as refused:
        conjugated_form(method, bindings)
    assert not isinstance(refused.value, ZeroDenominator)


def _a_of(roots):
    """a_1..a_k of the monic P with these roots."""
    return tuple(Polynomial.from_roots(roots).coeffs[-2::-1])


def test_planted_anchor_roots_survive_re_extraction():
    # P with one or two roots planted at +-1: make_form and the
    # re-extraction of its map agree
    rng = np.random.default_rng(7)
    for _ in range(300):
        form = random_form(rng)
        planted = rng.choice((1.0, -1.0), int(rng.integers(1, 3)))
        made = make_form(form.n, _a_of(tuple(planted) + form.roots))
        back = extract_normal_form(made.reconstruct())
        assert (back.n, back.k, back.sign) == (made.n, made.k, made.sign)
        err = max((abs(x - y) for x, y in zip(back.a, made.a)), default=0.0)
        assert err <= 1e-8


def test_reduced_form_cancels_the_factors_at_both_anchors():
    # P = (z - 1) (z + 1)^2 Q: the one (z - 1) flips the sign, the two
    # (z + 1) keep it, and the form drops three coefficients
    q = (0.5 + 2.0j, -3.0)
    a = _a_of((1.0, -1.0, -1.0) + q)
    form = make_form(2, a)
    assert (form.n, form.k, form.sign) == (2, 2, -1)
    assert form.degenerate
    assert np.allclose(form.a, _a_of(q), rtol=0, atol=1e-12)
    # the map is unchanged: z^n P / P-hat = -z^n Q / Q-hat
    z = 0.6 + 0.3j
    v = z ** 2 * np.polyval((1,) + a, z) / np.polyval(a[::-1] + (1,), z)
    assert abs(rat_eval(form.reconstruct(), z) - v) <= 1e-12 * abs(v)


def test_one_operator_reduces_to_one_normal_form():
    # c-family at c = 0 is Halley's method: P = (z + 1)^2 (z + 2)
    halley = conjugated_form("chebyshev-halley", {"alpha": 0.0})
    form = conjugated_form("c-family", {"c": 0.0})
    assert (form.n, form.k, form.sign) == (halley.n, halley.k, halley.sign)
    assert max(abs(x - y) for x, y in zip(form.a, halley.a)) <= 1e-12
    assert catalog_entry("c-family").stability_producer(0.0) == form
    # make_form itself divides (z + 1)^2 out of the unreduced coefficients
    assert make_form(3, (4, 5, 2)) == form


@pytest.mark.parametrize("method,param,t,want", [
    ("os2", "a", -2.5, (5, (1.5,))),         # P = (z + 1)^2 (z + 1.5)
    ("os4", "b", 0.0, (4, (0.0, -3.0))),     # P = (z + 1)^2 (z^2 - 3)
])
def test_form_families_drop_a_shared_square_at_minus_one(method, param, t,
                                                         want):
    form = conjugated_form(method, {param: t})
    assert (form.n, form.k, form.sign) == (want[0], len(want[1]), 1)
    assert not form.degenerate
    assert max(abs(x - y) for x, y in zip(form.a, want[1])) <= 1e-12


def _anchored_reference(n, a):
    """make_form's deflation spelled out: one deflate_anchored call,
    always."""
    row = np.array((1.0,) + tuple(complex(v) for v in a))[None, ::-1]
    rows, counts = deflate_anchored(row, (1.0, -1.0))
    q = rows[0, :len(a) + 1 - int(counts.sum())]
    return make_form(n, q[-2::-1], (-1) ** int(counts[0, 0]))


@pytest.mark.parametrize("anchor", [1.0, -1.0])
@pytest.mark.parametrize("rel", [1e-5, 3e-8, 1.2e-8, 0.8e-8, 1e-9, 0.0])
def test_reduced_form_skips_only_what_deflation_keeps(anchor, rel):
    # P(anchor) moved to rel (1 + sum |a_j|) around deflate_anchored's
    # 1e-8 boundary: make_form's +-1 deflation keeps exactly what
    # deflate_anchored keeps, on both sides of it
    rng = np.random.default_rng(0xA7C408)
    for _ in range(20):
        a = np.array(_a_of([anchor] + list(rng.uniform(-2, 2, (3, 2))
                                           @ (1, 1j))))
        shift = rel * (1.0 + np.abs(a).sum()) * np.exp(2j * rng.uniform(0, 3))
        a[-1] += shift          # the constant term moves P(1) and P(-1)
        assert make_form(3, a) == _anchored_reference(3, a)


def test_make_form_cancels_a_factor_shared_with_p_hat():
    # P = P-hat = z^2 + 1.7 z + 1: z^2 P / P-hat is the map z^2
    assert make_form(2, (1.7, 1.0)) == make_form(2, ())
    # a conjugate pair on the unit circle is a reciprocal pair as well,
    # and the self-reciprocal factor keeps the sign
    a = _a_of((np.exp(0.7j), np.exp(-0.7j), 0.5 - 2.0j))
    form = make_form(3, a, -1)
    assert (form.n, form.k, form.sign) == (3, 1, -1)
    assert abs(form.a[0] - (-0.5 + 2.0j)) <= 1e-12


def _planted_pair(rng, delta=0.0):
    """A random form, and the a of its P times (z - r)(z - 1/r - delta)
    for a random r with 1/4 <= |r| <= 4."""
    form = random_form(rng)
    r = np.exp(complex(rng.uniform(-np.log(4.0), np.log(4.0)),
                       rng.uniform(-np.pi, np.pi)))
    return form, _a_of((r, 1.0 / r + delta) + form.roots)


def test_planted_reciprocal_pairs_cancel_and_re_extract():
    rng = np.random.default_rng(0x5EC1)
    for i in range(300):
        sign = (1, -1)[i % 2]
        form, a = _planted_pair(rng)
        made = make_form(form.n, a, sign)
        assert (made.n, made.k, made.sign) == (form.n, form.k, sign)
        err = max((abs(x - y) for x, y in zip(made.a, form.a)), default=0.0)
        assert err <= 1e-8 * max(1.0, max(map(abs, form.a), default=1.0))
        assert extract_normal_form(made.reconstruct()) == made


@pytest.mark.parametrize("delta,cancels", [(1e-2 * COFACTOR_TOL, True),
                                           (1e3 * COFACTOR_TOL, False)])
def test_a_near_reciprocal_pair_re_extracts_as_made(delta, cancels):
    # r, 1/r + delta with |r delta| far inside make_form's 1e-6 pairing
    # test: the cofactor fit cancels the pair at a backward error below
    # COFACTOR_TOL and keeps it above, and either way the map
    # re-extracts as the form made
    rng = np.random.default_rng(0xDE17A)
    for _ in range(100):
        form, a = _planted_pair(rng, delta)
        made = make_form(form.n, a)
        assert made.k == form.k + (0 if cancels else 2)
        assert extract_normal_form(made.reconstruct()) == made


def _refuse(*args):
    raise AssertionError("reconstruct reduced its map")


def test_reconstruct_multiplies_a_map_rat_make_would_keep(monkeypatch):
    rng = np.random.default_rng(0xF02)
    forms = [random_form(rng) for _ in range(60)]
    forms += [make_form(form.n, a) for form, a in
              (_planted_pair(rng) for _ in range(20))]
    forms += [conjugated_form(name, {param: t})
              for name, param in (("king", "beta"), ("amat", "beta"),
                                  ("chebyshev-halley", "alpha"),
                                  ("c-family", "c"), ("m4", "beta"),
                                  ("os2", "a"), ("os3", "a"), ("os4", "b"),
                                  ("os5", "a"))
              for t in (-0.622, 1.25, 2.0 - 9.3j)]
    with monkeypatch.context() as patch:
        patch.setattr(ndyn.conjugate, "rat_make", _refuse)
        patch.setattr(ndyn.conjugate, "_cofactors", _refuse)
        maps = [form.reconstruct() for form in forms]
    for form, R in zip(forms, maps):
        want = (form.sign * form.p_coeffs()).shift(form.n)
        assert np.array_equal(R.num.coeffs, want.coeffs)
        assert np.array_equal(R.den.coeffs, (1.0,) + form.a)
        reduced = rat_make(R.num, R.den)
        assert np.array_equal(reduced.num.coeffs, R.num.coeffs)
        assert np.array_equal(reduced.den.coeffs, R.den.coeffs)


@pytest.mark.parametrize("case,message", [
    # scheme texts, which a user reaches through `ndyn build --scheme-file`
    ("next = 0 - 1;", "the zero map does not fix infinity"),
    ("next = 2*z;", "0 is not a fixed point (no z^n factor)"),
    ("next = (z - 1)/2;", "infinity is not fixed with local degree 1 "
                          "(numerator co-degree 0, denominator degree 1)"),
    ("next = (3*z + 1)/(z + 3);", "leading coefficient"),
    # library calls no command line reaches
    (partial(extract_normal_form,
             RationalMap(Polynomial((1e-13, 1.0, 1.0)),
                         Polynomial((0.0, 1.0)))),
     "denominator vanishes at 0"),
    (partial(standard_tau, 0.0), "the polynomial z^d - c needs c != 0"),
    (partial(Mobius, 1.0, 2.0, 2.0, 4.0), "matrix determinant vanishes"),
], ids=["zero-map", "no-power-of-z", "infinity-not-fixed", "leading-not-1",
        "denominator-zero-at-0", "tau-at-c-0", "singular-mobius"])
def test_conjugate_refusals_name_their_cause(tmp_path, capsys, case,
                                             message):
    if isinstance(case, str):
        path = tmp_path / "bad.scheme"
        path.write_text(case, encoding="utf-8")
        code = main(["build", "--scheme-file", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.endswith("\n")
    else:
        with pytest.raises(NdynError) as refused:
            case()
        assert str(refused.value) == message


@pytest.mark.parametrize("text,c,command", [
    ("next = 1;", "1", "build"), ("next = 1;", "1", "analyze"),
    ("next = 2;", "4", "build")], ids=["1-build", "1-analyze", "2-at-c-4"])
def test_the_constant_sqrt_c_is_refused(tmp_path, capsys, text, c, command):
    # tau sends sqrt(c) to infinity, so the constant sqrt(c) conjugates to
    # the constant infinity, which fixes neither 0 nor 1
    path = tmp_path / "constant.scheme"
    path.write_text(text, encoding="utf-8")
    code = main([command, "--scheme-file", str(path), "--c", c])
    assert (code, *capsys.readouterr()) == (2, "", (
        "error: the operator is the constant sqrt(c), so its conjugate is "
        "the constant infinity, which does not fix 0\n"))
    # any other constant conjugates to a finite constant
    code = main([command, "--scheme-file", str(path), "--c", "2"])
    assert (code, *capsys.readouterr()) == (
        2, "", "error: 0 is not a fixed point (no z^n factor)\n")


def test_iota_symmetry_detection():
    good = conjugated_form("king", {"beta": 0.3}).reconstruct()
    assert check_iota_symmetry(good)
    bad = rat_make(Polynomial((1.0, 0.0, 1.0)), Polynomial((1.0,)))  # z^2+1
    assert not check_iota_symmetry(bad)


def test_non_palindromic_method_refused():
    with pytest.raises(NotPalindromic):
        conjugated_form("steffensen")
    with pytest.raises(NotPalindromic):
        conjugated_form("chun", {"alpha": 1.0})


def test_sampled_identity_tests_every_move():
    def odd(z):
        return z ** 3 + 1.0 / z

    flip = (lambda z: -z,) * 2
    assert sampled_identity(odd, [flip], 30, 1)
    assert not sampled_identity(lambda z: z ** 2 + 1.0, [flip], 30, 1)
    assert sampled_identity(lambda z: z ** 5, rotations(4), 30, 1)
    assert not sampled_identity(lambda z: z ** 5, rotations(3), 30, 1)


def _cube_except(where, mark):
    """z^3, but `mark` wherever where(z) holds."""
    return lambda z: np.where(where(z), mark, z ** 3)


def test_sampled_identity_skips_a_draw_where_f_is_undefined():
    # z^3 is odd; NaN marks a division by exact zero, which is no failure,
    # while an infinite f(-z) is a pole, which is one
    flip = (lambda z: -z,) * 2
    for mark, holds in ((np.nan, True), (np.inf, False)):
        f = _cube_except(lambda z: z.real < 0, mark)
        assert sampled_identity(f, [flip], 30, 1) is holds


def test_sampled_identity_fails_a_draw_where_f_of_g_z_is_a_pole():
    # f(z) stays finite at every draw; f(2 z) has a pole beyond |z| = 3
    f = _cube_except(lambda z: np.abs(z) > 3.0, np.inf)
    double = (lambda z: 2.0 * z, lambda v: 8.0 * v)
    assert not sampled_identity(f, [double], 30, 7)
    nan = _cube_except(lambda z: np.abs(z) > 3.0, np.nan)
    assert sampled_identity(nan, [double], 30, 7)


def test_sampled_identity_reads_the_moves_in_order():
    # the first move that decides a draw decides it: undefined skips it
    f = _cube_except(lambda z: z.real > 10.0, np.nan)
    undefined = (lambda z: z + 100.0, lambda v: v)
    wrong = (lambda z: -z, lambda v: v)
    assert sampled_identity(f, [undefined, wrong], 30, 1)
    assert not sampled_identity(f, [wrong, undefined], 30, 1)


def test_sampled_identity_stops_at_the_trials_th_pass():
    # one wrong value, at the 11th draw (real part first): it fails the
    # test only while fewer than `trials` draws have passed before it
    draws = np.random.default_rng(5).uniform(-2.0, 2.0, (11, 2))
    z = draws[:, 0] + 1j * draws[:, 1]
    assert abs(z[10]) >= 0.1
    passed = int((np.abs(z[:10]) >= 0.1).sum())

    def f(w):
        return np.where(w == -z[10], 1.0, w ** 3)

    flip = (lambda w: -w,) * 2
    assert sampled_identity(f, [flip], passed, 5)
    assert not sampled_identity(f, [flip], passed + 1, 5)


def test_sampled_identity_reads_on_while_the_first_draws_decide_nothing():
    # f is undefined at |Re z| <= 1.5, so the first 2 trials + 10 draws hold
    # fewer than `trials` passes and no failure; a wrong value at the first
    # defined draw after them still fails the test
    trials = 30
    draws = np.random.default_rng(5).uniform(-2.0, 2.0,
                                             (50 * trials + 100, 2))
    z = draws[:, 0] + 1j * draws[:, 1]
    head = 2 * trials + 10
    defined = np.abs(z.real) > 1.5
    assert defined[:head].sum() < trials
    bad = z[head + np.argmax(defined[head:])]

    def f(w, wrong):
        cube = np.where(np.abs(w.real) > 1.5, w ** 3, np.nan)
        return np.where(wrong & (w == -bad), 1.0, cube)

    flip = (lambda w: -w,) * 2
    assert sampled_identity(lambda w: f(w, False), [flip], trials, 5)
    assert not sampled_identity(lambda w: f(w, True), [flip], trials, 5)


def test_common_shape_lifts_and_pads():
    low = make_form(5, (2.0,))
    high = make_form(3, (1.0, 4.0, 2.0))
    reduced = conjugated_form("os5", {"a": 0.5})       # sign -1, k = 3
    n, a = common_shape([low, high, reduced])
    assert a.shape == (3, 4) and list(n) == [2, 2, 4]
    assert np.allclose(a[0], (2.0, 0.0, 0.0, 0.0))
    lifted = make_form(4, a[2])
    for z in (0.3 + 0.4j, -1.7 + 0.2j, 2.5j):
        assert abs(rat_eval(lifted.reconstruct(), z)
                   - rat_eval(reduced.reconstruct(), z)) <= 1e-9
