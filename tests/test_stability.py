import contextlib
import io
import re

import numpy as np
import pytest

from ndyn.builder import catalog_entry, conjugated_form
from ndyn.cli import main
from ndyn.conjugate import make_form
from ndyn.errors import (DegenerateFamily, NonRealCoefficients,
                         NonlinearDependence, NotAFixedPoint)
from ndyn.poly import INF
from ndyn.stability import (PROBES, affine_fit, classify_strange_at,
                            linearize, oracle_agreement,
                            stability_region_z1, stability_region_zm1)


def _producer(name):
    return catalog_entry(name).stability_producer


def test_linearize_reads_coefficient_lines():
    lc = linearize(_producer("chebyshev-halley"))
    assert (lc.n, lc.k) == (3, 1)
    assert np.allclose(lc.A, [2.0]) and np.allclose(lc.B, [-2.0])

    lc = linearize(_producer("king"))
    assert np.allclose(lc.A, [4.0, 5.0]) and np.allclose(lc.B, [1.0, 2.0])


def test_linearize_rejects_nonlinear_family():
    with pytest.raises(NonlinearDependence):
        linearize(_producer("os3"))


AFFINE_FORM_FAMILIES = ("c-family", "m4", "os2", "os4", "os5")


def _stability_output(name):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["stability", "--method", name])
    return code, out.getvalue(), err.getvalue()


def test_form_families_fit_from_their_closed_form(monkeypatch):
    # tests/test_cli_bytes.py pins these outputs; with every form's root
    # solve made to fail, the fit and the CLI still print them
    names = AFFINE_FORM_FAMILIES + ("os3",)
    want = {name: _stability_output(name) for name in names}

    def no_roots(p):
        raise AssertionError("a form-family fit solved for roots")

    monkeypatch.setattr("ndyn.conjugate.root_clusters", no_roots)
    for name in AFFINE_FORM_FAMILIES:
        linearize(_producer(name))
    with pytest.raises(NonlinearDependence, match=re.escape(
            "coefficient a_4 fails the affine certification at "
            "t=(-0.6421+0.9319j) (defect 6.026e-01)")):
        linearize(_producer("os3"))
    for name in names:
        assert _stability_output(name) == want[name], name


@pytest.mark.parametrize("name", AFFINE_FORM_FAMILIES)
def test_closed_form_fit_is_the_fit_of_the_forms(name):
    # the same family without its closed form is fit from its forms
    family = _producer(name)
    closed, forms = affine_fit(family), affine_fit(lambda t: family(t))
    assert closed.n == forms.n
    if name == "os5":
        # its forms cancel (z - 1), and common_shape multiplies it back
        assert np.allclose(closed.A, forms.A, rtol=0, atol=1e-12)
        assert np.allclose(closed.B, forms.B, rtol=0, atol=1e-12)
    else:
        assert closed.A.tobytes() == forms.A.tobytes()
        assert closed.B.tobytes() == forms.B.tobytes()


def test_linearize_rejects_a_shape_change_across_the_probes():
    def family(t):
        return make_form(3 if t == PROBES[2] else 2, (1.0 + t,))
    with pytest.raises(NonlinearDependence, match="is not constant"):
        linearize(family)


def test_linearize_rejects_complex_lines():
    def family(t):
        return make_form(2, (1.0j + t,))
    with pytest.raises(NonRealCoefficients):
        linearize(family)


def test_circle_region_with_attracting_inside():
    reg = stability_region_z1(linearize(_producer("chebyshev-halley")))
    assert reg.kind == "circle"
    assert abs(reg.center - 13.0 / 6.0) <= 1e-12
    assert abs(reg.radius - 1.0 / 3.0) <= 1e-12
    assert reg.attracting_side == "inside"
    assert abs(reg.superattracting_parameter - 2.0) <= 1e-12
    assert reg.verdict(2.1) == "attracting"
    assert reg.verdict(0.0) == "repelling"
    boundary = 13.0 / 6.0 + (1.0 / 3.0) * np.exp(0.4j)
    assert reg.verdict(boundary) == "boundary"


def test_circle_region_with_attracting_outside():
    reg = stability_region_z1(linearize(_producer("c-family")))
    assert reg.kind == "circle"
    assert abs(reg.center - 3.0) <= 1e-9
    assert abs(reg.radius - 8.0) <= 1e-9
    assert reg.attracting_side == "outside"
    assert reg.verdict(3.0) == "repelling"
    assert reg.verdict(20.0) == "attracting"


def test_everywhere_superattracting_family():
    reg = stability_region_z1(linearize(_producer("os4")))
    assert reg.superattracting_everywhere
    assert reg.verdict(0.37 - 2.0j) == "attracting"


def test_degenerate_family_refused():
    with pytest.raises(DegenerateFamily):
        stability_region_z1(linearize(_producer("os5")))


def test_mirror_target_needs_odd_parity():
    lc = linearize(_producer("king"))      # n + k = 6
    reg = stability_region_zm1(lc)
    assert reg.kind == "not-applicable"
    assert reg.verdict(1.0) == "not-applicable"


def test_half_plane_at_the_mirror_target():
    def family(t):
        t = complex(t)
        if abs(t) < 1e-14:
            return make_form(3, ())    # a_1 = 0 pulls z out of the quotient
        return make_form(2, (t,))
    lc = linearize(family)
    reg = stability_region_zm1(lc)
    assert reg.kind == "half-plane"
    assert abs(reg.threshold - 2.0) <= 1e-12
    assert reg.attracting_side == "right"
    assert reg.verdict(3.0) == "attracting"
    assert reg.verdict(1.0) == "repelling"


def test_constant_family_at_the_mirror_target():
    def family(t):
        return make_form(2, (5.0 + 0.0 * t,))
    reg = stability_region_zm1(linearize(family))
    assert reg.kind == "constant"
    assert reg.attracting_side == "everywhere"


def test_multiplier_against_region_prediction():
    rng = np.random.default_rng(11)
    entry = catalog_entry("king")
    reg = stability_region_z1(linearize(entry.stability_producer))
    for _ in range(60):
        t = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        verdict = reg.verdict(t)
        if verdict == "boundary":
            continue
        lam, cls = classify_strange_at(entry.stability_producer(t), 1.0)
        g = reg.aggregates
        want = (g["A"] + t * g["B"]) / (g["A'"] + t * g["B'"])
        assert abs(lam - want) <= 1e-8 * max(1.0, abs(lam))
        if verdict == "attracting":
            assert cls in ("attracting", "superattracting")
        elif verdict == "repelling":
            assert cls == "repelling"


def test_amat_region_is_kings_region_reparametrised():
    # amat(beta) = king(beta_K) with beta_K = -4 beta / 3 - 2, so the z = 1
    # disc maps to |beta - 87/55| < 12/55 with its center at beta = 3/2
    king = stability_region_z1(linearize(_producer("king")))
    reg = stability_region_z1(linearize(_producer("amat")))
    assert (reg.kind, reg.attracting_side) == ("circle", "inside")
    assert abs(reg.center - 87.0 / 55.0) <= 1e-12
    assert abs(reg.radius - 12.0 / 55.0) <= 1e-12
    assert abs(reg.superattracting_parameter - 1.5) <= 1e-12
    assert abs(reg.center - (-0.75 * (king.center + 2.0))) <= 1e-12
    assert abs(reg.radius - 0.75 * king.radius) <= 1e-12

    rng = np.random.default_rng(55)
    draws = [reg.center + complex(rng.uniform(-0.5, 0.5),
                                  rng.uniform(-0.5, 0.5)) for _ in range(40)]
    seen = set()
    for t, verdict, cls, agree in oracle_agreement(reg, _producer("amat"),
                                                   draws):
        assert agree, (t, verdict, cls)
        seen.add(verdict)
    assert seen == {"attracting", "repelling"}


def test_classify_refuses_non_fixed_target():
    form = make_form(4, (2.0, 3.0))        # n + k even: -1 not fixed
    with pytest.raises(NotAFixedPoint):
        classify_strange_at(form, -1.0)


def test_superattracting_parameter_is_sharp():
    entry = catalog_entry("king")
    lam, cls = classify_strange_at(entry.stability_producer(-4.0), 1.0)
    assert cls == "superattracting"
    assert abs(lam) <= 1e-9
    # infinity, the image of a root of p, is a fixed point like any other
    lam, cls = classify_strange_at(conjugated_form("king", {"beta": 1.0}),
                                   INF)
    assert (lam, cls) == (0, "superattracting")


# Explicit real affine families a(t) = A + t B, one per region kind at z = 1.
# With s = n + k the aggregates are A = s + sum (s - 2j) A_j, B = sum
# (s - 2j) B_j, A' = 1 + sum A_j and B' = sum B_j; each a_k is nonzero at the
# fit's PROBES.  `edge` is (center, radius) or the threshold.
REGION_KINDS = [
    # name, n, A, B, kind, attracting side, edge, sampling half-width
    ("circle-inside", 3, (1.0,), (1.0,), "circle", "inside",      # (6+2t)/(2+t)
     (-10.0 / 3.0, 2.0 / 3.0), 1.5),
    ("circle-outside", 2, (1.0, 1.0), (0.0, 1.0), "circle",       # 6/(3+t)
     "outside", (-3.0, 6.0), 9.0),
    ("half-plane-same", 2, (1.0,), (1.0,), "half-plane", "left",  # (4+t)/(2+t)
     -3.0, 4.0),
    ("half-plane-opposite", 2, (0.0, 1.0), (1.0, -3.0),           # (4+2t)/(2-2t)
     "half-plane", "left", -0.5, 4.0),
    ("everywhere", 3, (-1.0, 0.0, 5.0), (1.0, -2.0, 1.0), "constant",
     "everywhere", None, 4.0),
    ("nowhere", 3, (-1.0, 0.0, 0.5), (1.0, -2.0, 1.0), "constant", "nowhere",
     None, 4.0),
    ("indifferent-flat", 3, (-1.0, 0.0, 2.0), (1.0, -2.0, 1.0), "constant",
     "nowhere", None, 4.0),
    ("indifferent-slope", 2, (0.0, 3.0), (1.0, 1.0), "constant", "nowhere",
     None, 4.0),
]


@pytest.mark.parametrize("name,n,A,B,kind,side,edge,half", REGION_KINDS,
                         ids=[row[0] for row in REGION_KINDS])
def test_every_region_kind_agrees_with_the_oracle(name, n, A, B, kind, side,
                                                  edge, half):
    A, B = np.array(A), np.array(B)

    def family(t):
        return make_form(n, A + complex(t) * B)

    reg = stability_region_z1(linearize(family))
    assert (reg.kind, reg.attracting_side) == (kind, side)
    assert reg.indifferent_everywhere == name.startswith("indifferent")
    if kind == "circle":
        assert np.allclose((reg.center, reg.radius), edge, rtol=0, atol=1e-12)
    elif kind == "half-plane":
        assert abs(reg.threshold - edge) <= 1e-12
    center = {"circle": reg.center, "half-plane": reg.threshold}.get(kind, 0.0)
    rng = np.random.default_rng(20260822)
    draws = [center + complex(rng.uniform(-half, half),
                              rng.uniform(-half, half)) for _ in range(80)]
    seen = set()
    for t, verdict, cls, agree in oracle_agreement(reg, family, draws):
        assert agree, (t, verdict, cls)
        seen.add(verdict)
    if kind == "constant":
        want = {"attracting"} if side == "everywhere" else (
            {"indifferent"} if reg.indifferent_everywhere else {"repelling"})
    else:
        want = {"attracting", "repelling"}
    assert seen == want
