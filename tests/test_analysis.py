import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ndyn.analysis import (classify_multiplier, classify_operator,
                           critical_points, fixed_points,
                           free_critical_points, moebius_sum, multiplier_at,
                           multiplier_at_minus_one_closed,
                           multiplier_at_one_closed, multiplier_of_cycle)
from ndyn.builder import conjugated_form
from ndyn.conjugate import make_form
from ndyn.errors import NotACycle, PoleAtMinusOne, PoleAtOne
from ndyn.poly import (INF, Polynomial, RationalMap, is_inf, rat_combine,
                       rat_derivative, rat_eval, rat_make)

from conftest import random_form


def _by_point(records, z, tol=1e-6):
    if is_inf(z):
        hits = [r for r in records if is_inf(r.point)]
    else:
        hits = [r for r in records if not is_inf(r.point)
                and abs(r.point - z) <= tol]
    assert len(hits) == 1, f"no unique record at {z}"
    return hits[0]


def test_points_of_a_real_map_come_in_exact_conjugate_pairs():
    # every fixed and critical point printed as non-real (imaginary part
    # beyond 1e-12 of the modulus) has its exact conjugate in the report
    rng = np.random.default_rng(0xC0C0)
    forms = [make_form(5, (-1.5791369604234018,))]
    forms += [make_form(int(rng.integers(1, 6)),
                        rng.normal(0.0, 2.0, int(rng.integers(1, 5))))
              for _ in range(40)]
    for form in forms:
        R = form.reconstruct()
        for records in (fixed_points(R), critical_points(R)):
            points = [r.point for r in records if not is_inf(r.point)]
            for z in points:
                if abs(z.imag) > 1e-12 * abs(z):
                    assert z.conjugate() in points, (form, z)


def test_fixed_points_of_the_shifted_cube():
    # z^3 (z+2) / (1+2z): fixed at 0, 1, infinity, and the golden pair
    form = make_form(3, (2.0,))
    recs = fixed_points(form.reconstruct())
    assert len(recs) == 5
    golden = [(-3 - np.sqrt(5)) / 2, (-3 + np.sqrt(5)) / 2]
    origin = _by_point(recs, 0.0)
    assert origin.cls == "superattracting" and not origin.strange
    one = _by_point(recs, 1.0)
    assert abs(one.multiplier - 8.0 / 3.0) <= 1e-9 and one.strange
    inf_rec = _by_point(recs, INF)
    assert inf_rec.cls == "superattracting"
    for g in golden:
        r = _by_point(recs, g)
        assert abs(r.multiplier - 6.0) <= 1e-8 and r.strange


def test_classify_multiplier_bands():
    assert classify_multiplier(0.0) == "superattracting"
    assert classify_multiplier(5e-11) == "superattracting"
    assert classify_multiplier(0.4) == "attracting"
    assert classify_multiplier(1.7) == "repelling"
    assert classify_multiplier(np.exp(0.3j)) == "indifferent"
    third = np.exp(2j * np.pi / 3)
    assert classify_multiplier(third) == "parabolic-candidate"


def test_multiplier_at_infinity_superattracting():
    R = make_form(4, (3.0,)).reconstruct()
    assert abs(multiplier_at(R, INF)) <= 1e-12


def test_critical_points_two_step_family():
    R = conjugated_form("king", {"beta": 1.0}).reconstruct()
    recs = critical_points(R)
    assert _by_point(recs, 0.0).multiplicity == 3
    assert _by_point(recs, INF).multiplicity == 3
    minus = _by_point(recs, -1.0)
    assert minus.multiplicity == 2 and minus.partner == -1.0
    frees = [r for r in recs if r.free and not is_inf(r.point)
             and abs(r.point + 1) > 1e-6]
    assert len(frees) == 2
    prod = frees[0].point * frees[1].point
    assert abs(prod - 1.0) <= 1e-9
    assert abs(frees[0].partner - frees[1].point) <= 1e-9


def test_anchored_multiple_critical_point_stays_together():
    # at beta=0 the free pair lands exactly on -1, multiplicity four
    R = conjugated_form("king", {"beta": 0.0}).reconstruct()
    recs = critical_points(R)
    minus = _by_point(recs, -1.0)
    assert minus.multiplicity == 4
    assert len(free_critical_points(R)) == 1


def _critical_total(R):
    return sum(r.multiplicity for r in critical_points(R))


@settings(max_examples=40, deadline=None)
@seed(13)
@given(st.integers(0, 2 ** 32 - 1))
def test_critical_multiplicities_sum_to_riemann_hurwitz(draw):
    R = random_form(np.random.default_rng(draw)).reconstruct()
    assert _critical_total(R) == 2 * R.degree - 2


@pytest.mark.parametrize("r", [0.5, 2.0 - 1.0j, -3.0 + 0.25j])
def test_a_double_pole_is_critical_and_paired_with_its_root(r):
    # P = (z - r)^2, so z^3 P / P^ has a double pole at 1/r
    R = make_form(3, (-2 * r, r * r)).reconstruct()
    recs = critical_points(R)
    assert _critical_total(R) == 2 * R.degree - 2 == 8
    pole = _by_point(recs, 1 / r)
    assert pole.multiplicity == 1 and abs(pole.partner - r) <= 1e-9
    root = _by_point(recs, r)
    assert root.multiplicity == 1 and abs(root.partner - 1 / r) <= 1e-9


def test_critical_count_when_numerator_and_denominator_degrees_match():
    # the z^5 terms of N'D - N D' cancel only up to a rounding residue that
    # these coefficient scales keep above the trimming threshold
    N = Polynomial((320 - 213j, 1.72e-06 + 1.24e-06j, -2350 - 4020j,
                    -2.91e-05 + 1.93e-04j))
    D = Polynomial((3.28 + 4.07j, -103000 - 104000j, 1.28 + 3.41j,
                    1.03 + 1.73j))
    R = rat_make(N, D)
    assert R.num.degree == R.den.degree == 3
    assert _critical_total(R) == 4


@settings(max_examples=40, deadline=None)
@seed(14)
@given(st.integers(0, 2 ** 32 - 1))
def test_fixed_points_read_plus_and_minus_one_exactly(draw):
    form = random_form(np.random.default_rng(draw))
    points = [r.point for r in fixed_points(form.reconstruct())]
    assert points.count(1 + 0j) == 1
    assert points.count(-1 + 0j) == (form.n + form.k) % 2


def test_moebius_sum_closed_forms():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(1, 7))
        roots = []
        while len(roots) < k:
            u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if min(abs(u - 1), abs(u + 1)) > 0.05:
                roots.append(u)
        P = Polynomial.from_roots(roots)
        plus = moebius_sum(P, "+")
        want = sum((1 + u) / (1 - u) for u in roots)
        assert abs(plus - want) <= 1e-8 * max(1.0, abs(want))
        minus = moebius_sum(P, "-")
        want = sum((1 - u) / (1 + u) for u in roots)
        assert abs(minus - want) <= 1e-8 * max(1.0, abs(want))


def test_moebius_sum_pole():
    # coefficient sum zero makes the plus form blow up
    P = Polynomial((-3.0, 2.0, 1.0))
    assert abs(P(1.0)) <= 1e-12
    with pytest.raises(PoleAtOne):
        moebius_sum(P, "+")


def test_closed_multipliers_match_direct_derivative():
    for name, binds in (("king", {"beta": 0.4}),
                        ("chebyshev-halley", {"alpha": 1.3})):
        form = conjugated_form(name, binds)
        lam = multiplier_at_one_closed(form)
        direct = multiplier_at(form.reconstruct(), 1.0)
        assert abs(lam - direct) <= 1e-9 * max(1.0, abs(direct))


def test_minus_one_multiplier_via_parity():
    # n + k odd makes -1 fixed; the closed form matches the derivative
    form = make_form(2, (0.5,))
    lam = multiplier_at_minus_one_closed(form)
    direct = multiplier_at(form.reconstruct(), -1.0)
    assert abs(lam - direct) <= 1e-9 * max(1.0, abs(direct))


@settings(max_examples=40, deadline=None)
@seed(11)
@given(st.integers(0, 2 ** 32 - 1))
def test_closed_multipliers_match_multiplier_at(draw):
    form = random_form(np.random.default_rng(draw))
    R = form.reconstruct()
    for closed, x in ((multiplier_at_one_closed, 1.0),
                      (multiplier_at_minus_one_closed, -1.0)):
        if x == -1.0 and (form.n + form.k) % 2 == 0:
            continue                  # -1 is fixed only when n + k is odd
        try:
            lam = closed(form)
        except (PoleAtOne, PoleAtMinusOne):
            continue
        direct = multiplier_at(R, x)
        assert abs(lam - direct) <= 1e-8 * max(1.0, abs(direct))


def test_two_cycle_multiplier_of_the_degenerate_family():
    form = conjugated_form("os5", {"a": 0.0})
    R = form.reconstruct()
    lam = multiplier_of_cycle(R, (1.0, -1.0))
    assert abs(lam) <= 1e-12
    with pytest.raises(NotACycle):
        multiplier_of_cycle(R, (0.5, 2.0))


def test_classify_operator_shapes():
    info = classify_operator(conjugated_form("king", {"beta": 1.0}))
    assert info["parity"] == "even"
    assert info["minus_one"] == "preimage of z=1"
    info = classify_operator(conjugated_form("os5", {"a": 0.0}))
    assert info["degenerate"]
    assert "cycle_multiplier" in info
    strange = info["strange_fixed_points"]
    assert all(abs(r.point) > 1e-12 for r in strange)
    # sign -1 with n + k even: -1 is fixed and 1 maps onto it
    info = classify_operator(make_form(2, (0.5, -2.0), sign=-1))
    assert (info["parity"], info["minus_one"], info["one"]) == (
        "even", "fixed", "preimage of z=-1")
    assert "cycle_multiplier" not in info


def test_multiplier_of_cycle_refuses_what_is_not_a_cycle():
    R = rat_make(Polynomial((0.0, 0.0, 1.0)), Polynomial((1.0,)))   # z^2
    assert multiplier_of_cycle(R, (INF,)) == 0.0
    for cycle, message in (((), "empty cycle"),
                           ((1.0, INF), "expected INF"),
                           ((INF, 1.0), "maps to INF"),
                           ((0.5, 2.0), "expected 2.0")):
        with pytest.raises(NotACycle, match=message):
            multiplier_of_cycle(R, cycle)


def _derivative_map_factor(R, src, dst):
    """Reference chart derivative through derivative maps: rat_derivative of
    R, of 1/R when dst is infinite, and of R(1/w) at w = 0 when src is."""
    if is_inf(src):
        iota = RationalMap(Polynomial.one(), Polynomial.identity())
        R, src = rat_combine("compose", R, iota), 0.0
    if is_inf(dst):
        R = RationalMap(R.den, R.num)
    return complex(rat_eval(rat_derivative(R), src))


def _seeded_forms():
    rng = np.random.default_rng(20251018)
    forms = [random_form(rng) for _ in range(8)]
    # sign -1 with n + k odd: 1 and -1 swap places on a 2-cycle
    forms += [make_form(n, a, sign=-1)
              for n, a in ((3, (0.5, -2.0)), (2, (1.5 + 0.5j, 0.3, 2.0)))]
    # 0.75 <= |t| <= 2 keeps away from os3's a = 0 and m4's beta = inf,
    # where P and P^ share (z + 1)^2; see _NEAR_SHARED_ROOT
    for name, param in (("c-family", "c"), ("m4", "beta"), ("os2", "a"),
                        ("os3", "a"), ("os4", "b"), ("os5", "a")):
        for _ in range(2):
            t = rng.uniform(0.75, 2.0) * np.exp(2j * np.pi * rng.uniform())
            forms.append(conjugated_form(name, {param: t}))
    return forms


# Nearer a shared root of P and P^, strange fixed points sit close to a pole.
# There the expanded D^2 of a derivative map loses the relative accuracy that
# d * d keeps, and its multipliers drift (1e-9 to 1e-7 relative at these
# points), while the pointwise ones keep kappa and 1/kappa equal.
_NEAR_SHARED_ROOT = (("m4", {"beta": -4.0}), ("m4", {"beta": 3.0}),
                     ("os3", {"a": 0.9}), ("os3", {"a": -1.0}))


def _close(u, v, rel):
    # multipliers that vanish exactly come out at rounding level, ~1e-15
    return abs(u - v) <= rel * max(abs(u), abs(v)) + 1e-12


@pytest.mark.parametrize("form", _seeded_forms())
def test_pointwise_multipliers_match_derivative_maps(form):
    R = form.reconstruct()
    records = fixed_points(R)
    assert any(is_inf(r.point) for r in records)
    for r in records:
        ref = _derivative_map_factor(R, r.point, r.point)
        assert _close(r.multiplier, ref, 1e-7), (r.point, r.multiplier, ref)
        assert r.cls == classify_multiplier(ref)
    if form.sign == -1 and (form.n + form.k) % 2 == 1:
        cycle = (1.0 + 0.0j, -1.0 + 0.0j)
        ref = (_derivative_map_factor(R, cycle[0], cycle[1])
               * _derivative_map_factor(R, cycle[1], cycle[0]))
        assert _close(multiplier_of_cycle(R, cycle), ref, 1e-7)


@pytest.mark.parametrize("form", _seeded_forms() + [
    conjugated_form(name, b) for name, b in _NEAR_SHARED_ROOT])
def test_partner_fixed_points_share_their_multiplier(form):
    # O commutes with 1/z, so kappa and 1/kappa are conjugate fixed points
    records = [r for r in fixed_points(form.reconstruct())
               if not is_inf(r.point) and abs(r.point) > 1e-12]
    for r in records:
        inv = 1.0 / r.point
        partner = _by_point(records, inv, tol=1e-6 * (1.0 + abs(inv)))
        assert _close(r.multiplier, partner.multiplier, 1e-9), \
            (r.point, r.multiplier, partner.multiplier)
