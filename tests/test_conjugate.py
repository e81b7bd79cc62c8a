import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import maps_close, random_form
from ndyn.builder import (SchemeContext, catalog_entry, catalog_names,
                          conjugated_form, instantiate)
from ndyn.conjugate import (Mobius, check_iota_symmetry, check_lambda_odd,
                            OperatorForm, common_shape, extract_normal_form,
                            make_form, mobius_conjugate, rotations,
                            sampled_identity, standard_tau)
from ndyn.errors import NotPalindromic
from ndyn.poly import (INF, Polynomial, deflate_anchored, is_inf, rat_eval,
                       rat_make)


def test_tau_sends_the_roots_to_zero_and_infinity():
    for c in (1.0, 2.0 - 1.0j, -3.0):
        tau = standard_tau(c)
        r = np.sqrt(complex(c))
        assert is_inf(tau(r))
        assert abs(tau(-r)) <= 1e-12
        assert abs(tau(INF) - 1.0) <= 1e-12


def test_mobius_compose_inverse():
    m = Mobius(2.0, 1.0, 1.0, -1.0)
    both = m.compose(m.inverse())
    z = 0.3 + 0.9j
    assert abs(both(z) - z) <= 1e-12


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
                   if catalog_entry(name).kind == "scheme"
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
    # 1e-8 boundary: the skip for clearly nonzero P(+-1) never changes
    # the result of the call
    rng = np.random.default_rng(0xA7C408)
    for _ in range(20):
        a = np.array(_a_of([anchor] + list(rng.uniform(-2, 2, (3, 2))
                                           @ (1, 1j))))
        shift = rel * (1.0 + np.abs(a).sum()) * np.exp(2j * rng.uniform(0, 3))
        a[-1] += shift          # the constant term moves P(1) and P(-1)
        assert make_form(3, a) == _anchored_reference(3, a)


def test_iota_symmetry_detection():
    good = conjugated_form("king", {"beta": 0.3}).reconstruct()
    assert check_iota_symmetry(good)
    bad = rat_make(Polynomial((1.0, 0.0, 1.0)), Polynomial((1.0,)))  # z^2+1
    assert not check_iota_symmetry(bad)


def test_lambda_odd_detection():
    cube = rat_make(Polynomial((0.0, 0.0, 0.0, 1.0)), Polynomial((1.0,)))
    assert check_lambda_odd(cube, 2)      # (-z)^3 == -z^3
    square = rat_make(Polynomial((0.0, 0.0, 1.0)), Polynomial((1.0,)))
    assert not check_lambda_odd(square, 2)


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

    def pole(z):
        raise ZeroDivisionError

    assert sampled_identity(pole, [flip], 30, 1)      # every draw skipped


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


def test_sampled_identity_skips_every_draw_of_a_raising_f():
    def raises(z):
        raise ZeroDivisionError

    assert sampled_identity(raises, rotations(3), 30, 1)


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
