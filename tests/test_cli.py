"""End-to-end command line checks: exit codes, JSON payloads, files."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ndyn.analysis import FixedPointRecord
from ndyn.builder import (MAX_STATEMENT_TOKENS, _lex, catalog_entry,
                          conjugated_form)
from ndyn.cli import (UsageError, _fmt_number, _form_payload, _plain, main,
                      parse_complex_literal)
from ndyn.errors import NdynError, ZeroDenominator
from ndyn.poly import INF, point_key

KING_SCHEME = ("y = z - p(z)/p'(z);\n"
               "next = y - p(y)/p'(z) * (p(z) + (beta + 2)*p(y))"
               "/(p(z) + beta*p(y));\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ----------------------------------------------------------------------
# literal grammar

@pytest.mark.parametrize("text,value", [
    ("2", 2.0),
    ("-4", -4.0),
    ("1.5+2i", 1.5 + 2.0j),
    ("2-9.3i", 2.0 - 9.3j),
    (".5i", 0.5j),
    ("-1i", -1.0j),
])
def test_complex_literal_accepts(text, value):
    assert parse_complex_literal(text) == value


@pytest.mark.parametrize("text", ["xyz", "1.5+2j", "2 + 3i", "1.5+", "i",
                                  "1.2.3", "2i3", "2\u00b2"])
def test_complex_literal_rejects(text):
    with pytest.raises(UsageError):
        parse_complex_literal(text)


# ----------------------------------------------------------------------
# build / analyze

def test_build_prints_the_normal_form(capsys):
    payload = run_json(capsys, "build", "--method", "chebyshev-halley",
                       "--param", "alpha=0")
    assert payload["method"] == "chebyshev-halley"
    assert (payload["n"], payload["k"], payload["sign"]) == (3, 1, 1)
    assert payload["degenerate"] is False
    assert payload["a"] == ["2"]
    assert payload["roots"] == ["-2"]


def test_build_folds_a_coefficient_within_the_mirror_tolerance(capsys):
    # os3's a_3 is ~5e-12 here: folded into z^n, as extraction would read it
    payload = run_json(capsys, "build", "--method", "os3",
                       "--param", "a=-2.800000000001")
    assert (payload["n"], payload["k"]) == (6, 2)


def test_build_prints_a_double_root_once_per_copy(capsys):
    # king at beta = 2 has P = (z + 3)^2: the two solver estimates are one
    # polished center, printed twice
    payload = run_json(capsys, "build", "--method", "king",
                       "--param", "beta=2")
    assert (payload["n"], payload["k"], payload["a"]) == (4, 2, ["6", "9"])
    assert payload["roots"] == ["-3", "-3"]


def test_build_prints_a_conjugate_pair_negative_part_first(capsys):
    # the solver's real parts of the pair differ in the last bits
    payload = run_json(capsys, "build", "--method", "os2",
                       "--param", "a=-0.7")
    assert payload["roots"] == ["-2.5", "-1.4-1.49666295471i",
                                "-1.4+1.49666295471i"]


def test_analyze_prints_a_critical_pair_negative_part_first(capsys):
    # the solver returns this pair's upper member first; the reader's
    # point_key order puts the lower member first, as for roots
    payload = run_json(capsys, "analyze", "--method", "king",
                       "--param", "beta=-0.622")
    assert [r["point"] for r in payload["critical_points"]] == [
        "-1", "-0.828850638978-0.559469944024i",
        "-0.828850638978+0.559469944024i", "0", "inf"]


def test_build_prints_exact_conjugates_across_a_rounding_boundary(capsys):
    # the solver leaves this pair's real parts 1e-11 apart, on either side
    # of the 10-decimal key; real a pairs them into exact conjugates, and
    # polishing prints the true roots -2.272518625059480 +- 1.081851107637634i
    # correctly rounded
    payload = run_json(capsys, "build", "--method", "m4",
                       "--param", "beta=-0.6")
    assert payload["roots"] == ["-2.27251862506-1.08185110764i",
                                "-2.27251862506+1.08185110764i",
                                "-0.727481374941-0.7233036935i",
                                "-0.727481374941+0.7233036935i"]


# roots printed wrongly before every reported point was polished; the
# references are the 12-digit roundings of a 50-digit solve of P
@pytest.mark.parametrize("method,param,roots", [
    ("king", "beta=4.992", ["-6.78292282336", "-2.20907717664"]),
    ("amat", "beta=-2.694", ["-2.796-0.605296621501i",
                             "-2.796+0.605296621501i"]),
    ("os3", "a=1.648", ["-2.8776628327", "-2.11268918675-0.313791861931i",
                        "-2.11268918675+0.313791861931i",
                        "-0.544958793809"]),
    ("os5", "a=-2.524", ["-2.71322518411", "-0.881387407944-1.67939013119i",
                         "-0.881387407944+1.67939013119i"]),
])
def test_build_prints_correctly_rounded_roots(capsys, method, param, roots):
    payload = run_json(capsys, "build", "--method", method, "--param", param)
    assert payload["roots"] == roots


@pytest.mark.parametrize("z,text", [(2.5j, "2.5i"), (-3.0j, "-3i"),
                                    (1e-14 + 2.0j, "2i")])
def test_fmt_complex_prints_a_purely_imaginary_value(z, text):
    assert _fmt_number(z) == text


@pytest.mark.parametrize("z,text", [
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
    (complex(1, math.inf), "1+infi"), (complex(math.inf, 0), "inf"),
    (complex(-math.inf, 1), "-inf+1i"), (-0.0, "0"),
    (complex(-0.0, -0.0), "0"), (INF, "inf"), (np.float64(0.1), "0.1"),
    (1.0, "1")])
def test_fmt_number_prints_the_parts_of_a_value(z, text):
    # a value whose modulus is not finite prints its parts, never 0
    assert _fmt_number(z) == text


def test_plain_walks_a_payload_to_json_values():
    record = FixedPointRecord(point=INF, multiplier=0.5 + 0j,
                              cls="attracting", strange=np.bool_(False))
    payload = {"n": np.int64(3), "on": True, "name": "x", "none": None,
               "a": np.array([1.0, -2.5]), "t": (1j,), "p": [record]}
    assert _plain(payload) == {
        "n": 3, "on": True, "name": "x", "none": None, "a": ["1", "-2.5"],
        "t": ["1i"], "p": [{"point": "inf", "multiplier": "0.5",
                            "class": "attracting", "strange": False}]}


SWEEP = {"king": "beta", "amat": "beta", "chebyshev-halley": "alpha",
         "os2": "a", "os3": "a", "m4": "beta", "c-family": "c", "os4": "b"}


@pytest.mark.parametrize("method", sorted(SWEEP))
def test_build_prints_roots_in_key_order(capsys, method):
    # the key applies to the computed roots: printed at 12 digits, two real
    # parts on either side of a rounding boundary can print equal
    param = SWEEP[method]
    for step in range(-30, 31):
        t = step / 10
        code, out, _ = run(capsys, "build", "--method", method,
                           "--param", f"{param}={t}")
        if code != 0:        # a refused member (m4 at beta = 0)
            continue
        roots = conjugated_form(method, {param: t}).roots
        assert json.loads(out)["roots"] == [
            _fmt_number(r) for r in sorted(roots, key=point_key)], t


def test_build_output_is_stable_bytes(capsys):
    _, first, _ = run(capsys, "build", "--method", "king",
                      "--param", "beta=0.25", "--c", "2-9.3i")
    _, second, _ = run(capsys, "build", "--method", "king",
                       "--param", "beta=0.25", "--c", "2-9.3i")
    assert first == second


def test_analyze_reports_structure(capsys):
    payload = run_json(capsys, "analyze", "--method", "king",
                       "--param", "beta=1")
    points = [r["point"] for r in payload["fixed_points"]]
    assert "1" in points and "0" in points and "inf" in points
    assert payload["inversion_symmetric"] is True
    assert payload["rotation_symmetry"] == {"d": 2, "holds": True}
    crit = {r["point"]: r for r in payload["critical_points"]}
    assert crit["0"]["free"] is False
    free = [r for r in payload["critical_points"] if r["free"]]
    assert free and all(r["partner"] is not None for r in free)


def test_analyze_reads_the_superattracting_one_exactly(capsys):
    payload = run_json(capsys, "analyze", "--method", "os4",
                       "--param", "b=2-9.3i")
    one = [r for r in payload["fixed_points"] if r["point"] == "1"]
    assert one == [{"point": "1", "multiplier": "0",
                    "class": "superattracting", "strange": True}]


def test_scheme_file_matches_catalog(tmp_path, capsys):
    path = tmp_path / "two-step.scheme"
    path.write_text(KING_SCHEME)
    ours = run_json(capsys, "build", "--scheme-file", str(path),
                    "--param", "beta=-1")
    theirs = run_json(capsys, "build", "--method", "king",
                      "--param", "beta=-1")
    for key in ("n", "k", "sign", "a"):
        assert ours[key] == theirs[key]


@pytest.mark.parametrize("command", ["build", "analyze", "stability",
                                     "dynplane"])
@pytest.mark.parametrize("method,name,params", [
    ("newton", "zeta", "none"), ("king", "bta", "beta"),
    ("m4", "alpha", "beta")])
def test_param_must_name_a_parameter_of_the_operator(tmp_path, capsys,
                                                     command, method, name,
                                                     params):
    out = tmp_path / "p.ppm"
    render = ("--res", "8x8", "--out", str(out)) if command == "dynplane" \
        else ()
    code, text, err = run(capsys, command, "--method", method,
                          "--param", f"{name}=3", *render)
    assert code == 1 and text == ""
    assert err == (f"usage error: --param {name!r} is not a parameter of "
                   f"{method}; its parameters: {params}\n")
    assert not out.exists()


def test_param_misuse_with_a_scheme_file(tmp_path, capsys):
    path = tmp_path / "two-step.scheme"
    path.write_text(KING_SCHEME)
    code, text, err = run(capsys, "build", "--scheme-file", str(path),
                          "--param", "bta=1")
    assert code == 1 and text == ""
    assert err == (f"usage error: --param 'bta' is not a parameter of "
                   f"{path}; its parameters: beta\n")
    code, text, err = run(capsys, "build", "--scheme-file", str(path),
                          "--param", "beta=1", "--param", "beta=1")
    assert code == 1 and text == ""
    assert err == "usage error: --param 'beta' is given twice\n"


@pytest.mark.parametrize("command", ["build", "analyze", "stability"])
def test_param_given_twice_is_a_usage_error(capsys, command):
    code, text, err = run(capsys, command, "--method", "king",
                          "--param", "beta=1", "--param", "beta=2")
    assert code == 1 and text == ""
    assert err == "usage error: --param 'beta' is given twice\n"


@pytest.mark.parametrize("method,param", [
    ("c-family", "c"), ("m4", "beta"), ("os2", "a"), ("os3", "a"),
    ("os4", "b"), ("os5", "a")])
def test_form_families_build_analyze_and_render(tmp_path, capsys, method,
                                                 param):
    args = ("--method", method, "--param", f"{param}=1")
    built = run_json(capsys, "build", *args)
    assert built == _plain(
        _form_payload(method, conjugated_form(method, {param: 1})))
    analyzed = run_json(capsys, "analyze", *args)
    assert analyzed["a"] == built["a"]
    assert "rotation_symmetry" not in analyzed
    out = tmp_path / "f.ppm"
    code, _, err = run(capsys, "dynplane", *args, "--res", "8x8",
                       "--max-iter", "40", "--out", str(out))
    assert code == 0, err
    assert out.read_bytes().startswith(b"P6\n8 8\n255\n")


@pytest.mark.parametrize("method,param", [
    ("c-family", "c"), ("m4", "beta"), ("os2", "a"), ("os3", "a"),
    ("os4", "b"), ("os5", "a")])
def test_form_family_without_binding_is_a_computation_error(capsys, method,
                                                            param):
    code, out, err = run(capsys, "build", "--method", method)
    assert code == 2 and out == ""
    assert err == f"error: unbound identifier {param!r} (no binding supplied)\n"


@pytest.mark.parametrize("method,binding", [
    # |a_4| of os3 is ~5e16 here, next to its pole 196 + 76a + 9a^2 = 0
    ("os3", "a=-4.222222222222222+1.9876159799998132i"),
    ("m4", "beta=0.0000000000000001"),      # a_4 = (5 beta - 1)/beta
    # polynomial closed forms, so no pole: |a_3| ~ 4e300 and |a_4| ~ 4e160
    ("c-family", "c=1" + "0" * 300),
    ("os4", "b=1" + "0" * 160),
], ids=["os3-near-pole", "m4-near-pole", "c-family-huge", "os4-huge"])
def test_member_with_unsolvable_coefficients_is_refused(capsys, method,
                                                        binding):
    # such a member's roots fail the Vieta guard, next to a pole or not:
    # the refusal names the family and the parameter, and no pole
    param = binding.split("=")[0]
    code, out, err = run(capsys, "build", "--method", method,
                         "--param", binding)
    assert (code, out) == (2, "")
    assert err == (f"error: the coefficients of {method} at this {param} "
                   f"are too large for its roots to be solved\n")
    with pytest.raises(NdynError, match=f"{method} at this {param} ") as e:
        conjugated_form(method, {param: parse_complex_literal(
            binding.split("=")[1])})
    assert not isinstance(e.value, ZeroDenominator)


@pytest.mark.parametrize("method,binding,message", [
    # each closed form overflows to a non-finite a_j, which the +-1
    # deflation would read as a root and divide out
    ("c-family", "c=1" + "0" * 308, "coefficient a_3 of the normal form is "
     "not finite"),
    ("os4", "b=1" + "0" * 308, "coefficient a_4 of the normal form is not "
     "finite"),
    ("m4", "beta=0." + "0" * 318 + "1", "coefficient a_4 of the normal form "
     "is not finite"),
    ("os3", "a=1" + "0" * 200, "the closed form of os3 overflows at this a"),
], ids=["c-family", "os4", "m4", "os3"])
@pytest.mark.parametrize("command", ["build", "analyze"])
def test_a_member_with_a_non_finite_coefficient_is_refused(capsys, command,
                                                           method, binding,
                                                           message):
    code, out, err = run(capsys, command, "--method", method,
                         "--param", binding)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("method,params", [("king", ("--param", "beta=1")),
                                           ("ostrowski", ())])
def test_build_refuses_a_tiny_c_that_underflows_the_fold(capsys, method,
                                                          params):
    # c = 1e-200 once dropped the correction term and printed Newton's form
    tiny = "0." + "0" * 199 + "1"
    code, out, err = run(capsys, "build", "--method", method, *params,
                         "--c", tiny)
    assert (code, out) == (2, "")
    assert err == ("error: a product of nonzero polynomials underflowed "
                   "to zero\n")


def test_paramplane_where_the_closed_form_overflows(tmp_path, capsys):
    out = tmp_path / "huge.ppm"
    code, _, err = run(capsys, "paramplane", "--method", "os3",
                       "--window", "1e200,2e200,-1e200,1e200", "--res", "5x5",
                       "--out", str(out))
    assert (code, err) == (2, "error: coefficient a_4 of the normal form is "
                              "not finite\n")
    assert not out.exists()
    # a window that also holds buildable members renders; the overflowing
    # row on the real axis is dead, counted as having no free critical point
    code, _, err = run(capsys, "paramplane", "--method", "os3",
                       "--window=-1e200,1e200,-1,1", "--res", "5x5",
                       "--out", str(out))
    assert code == 0, err
    meta = dict(line.split("=", 1) for line in
                (tmp_path / "huge.ppm.meta").read_text().splitlines())
    assert int(meta["diag_no_free_critical"]) >= 5
    assert int(meta["count_none"]) >= 5


def test_non_ascii_digit_in_a_scheme_is_a_located_error(tmp_path, capsys):
    path = tmp_path / "square.scheme"
    path.write_text("y = z - p(z)/p'(z);\nnext = y*y - 2\u00b2;\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "build", "--scheme-file", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 2, col 15: unexpected character '\u00b2'\n"


def test_scheme_file_that_is_not_utf8_is_refused(tmp_path, capsys):
    path = tmp_path / "bad.scheme"
    path.write_bytes(b"next = z - p(z)/p\xff(z);\n")
    code, out, err = run(capsys, "build", "--scheme-file", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path} is not UTF-8: byte 0xff at offset 17\n"


NEWTON_STEP = "z - p(z)/p'(z)"      # 12 tokens
# statements whose expression holds `size` tokens, nested three ways
_DEEP_SHAPES = {
    "parentheses": lambda size: "(" * ((size - 12) // 2) + NEWTON_STEP
    + ")" * ((size - 12) // 2),
    "terms": lambda size: NEWTON_STEP + " + 0*z" * ((size - 12) // 4),
    "minuses": lambda size: "-" * (size - 14) + f"({NEWTON_STEP})",
}


@pytest.mark.parametrize("text", [
    "next = " + "(" * 400 + "z" + ")" * 400 + ";",
    "next = z" + " + 0*z" * 1200 + ";",
    "next = " + "-" * 800 + "z;",
], ids=["400-parentheses", "1200-terms", "800-minuses"])
def test_oversized_statement_is_a_located_error(tmp_path, capsys, text):
    path = tmp_path / "deep.scheme"
    path.write_text("y = z;\n" + text + "\n", encoding="utf-8")
    code, out, err = run(capsys, "build", "--scheme-file", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: line 2, col 1: the statement binding 'next' has "
                   f"more than {MAX_STATEMENT_TOKENS} tokens\n")


@pytest.mark.parametrize("shape", sorted(_DEEP_SHAPES))
def test_statement_at_the_bound_builds_and_analyzes(tmp_path, capsys, shape):
    path = tmp_path / "deep.scheme"
    text = _DEEP_SHAPES[shape](MAX_STATEMENT_TOKENS)
    assert len(_lex(text)) - 1 == MAX_STATEMENT_TOKENS  # less end of input
    path.write_text(f"next = {text};\n", encoding="utf-8")
    built = run_json(capsys, "build", "--scheme-file", str(path))
    newton = run_json(capsys, "build", "--method", "newton")
    for key in ("n", "k", "sign", "a"):
        assert built[key] == newton[key]
    assert run_json(capsys, "analyze", "--scheme-file", str(path))["n"] == 2
    text = _DEEP_SHAPES[shape](MAX_STATEMENT_TOKENS + 4)
    path.write_text(f"next = {text};\n", encoding="utf-8")
    assert run(capsys, "build", "--scheme-file", str(path))[0] == 2


def test_parser_keeps_no_state_between_calls(capsys):
    import ndyn.cli as cli_mod
    assert cli_mod._build_parser() is cli_mod._build_parser()
    first = run(capsys, "build", "--method", "king", "--param", "beta=1")
    other = run(capsys, "build", "--method", "king", "--param", "beta=2")
    again = run(capsys, "build", "--method", "king", "--param", "beta=1")
    assert first[0] == other[0] == 0 and first == again
    assert json.loads(other[1])["a"] != json.loads(first[1])["a"]
    code, _, err = run(capsys, "build", "--method", "king")
    assert code == 2 and "'beta'" in err


def test_catalog_shape_is_the_built_shape(capsys):
    _, listing, _ = run(capsys, "catalog")
    refused = []
    for line in listing.splitlines():
        name = line.split()[0]
        argv = ["build", "--method", name]
        for param in catalog_entry(name).params:
            argv += ["--param", f"{param}=0.3137+0.1171i"]
        code, out, _ = run(capsys, *argv)
        if code:        # no normal form at a generic parameter
            refused.append(name)
            continue
        payload = json.loads(out)
        assert f"n={payload['n']} k={payload['k']} " in line, name
    assert refused == ["steffensen", "traub-steffensen", "chun"]


# ----------------------------------------------------------------------
# stability

def test_stability_region_payload(capsys):
    payload = run_json(capsys, "stability", "--method", "king")
    assert payload["parameter"] == "beta"
    assert (payload["n"], payload["k"]) == (4, 2)
    assert payload["A"] == ["4", "5"]
    assert payload["B"] == ["1", "2"]
    z1 = payload["z=1"]
    assert z1["kind"] == "circle"
    assert z1["center"] == "-4.10909090909"
    assert z1["radius"] == "0.290909090909"
    assert z1["attracting_side"] == "inside"
    assert z1["superattracting_parameter"] == "-4"
    assert payload["z=-1"]["kind"] == "not-applicable"


def test_stability_via_scheme_family(tmp_path, capsys):
    path = tmp_path / "two-step.scheme"
    path.write_text(KING_SCHEME)
    payload = run_json(capsys, "stability", "--scheme-file", str(path),
                       "--family-param", "beta")
    assert payload["z=1"]["center"] == "-4.10909090909"
    assert payload["parameter"] == "beta"


# (n, k) = (2, 1) with a_1 = 1 + 2t: the multiplier aggregates of z = +-1
# give half-planes, and A' at z = -1 is 0 exactly, not rounding residue
HALF_PLANE_SCHEME = "next = z - p(z)/(p'(z) + t*p(z)*p''(z)/p'(z));\n"


def test_stability_half_plane_payload(tmp_path, capsys):
    path = tmp_path / "half-plane.scheme"
    path.write_text(HALF_PLANE_SCHEME)
    payload = run_json(capsys, "stability", "--scheme-file", str(path),
                       "--family-param", "t")
    flags = {"superattracting_everywhere": False,
             "indifferent_everywhere": False}
    assert payload == {
        "method": str(path), "parameter": "t", "n": 2, "k": 1,
        "A": ["1"], "B": ["2"],
        "z=1": {"kind": "half-plane", "threshold": "-1.5",
                "attracting_side": "left", "superattracting_parameter": "-2",
                **flags,
                "aggregates": {"A": "4", "B": "2", "A'": "2", "B'": "2"}},
        "z=-1": {"kind": "half-plane", "threshold": "0.5",
                 "attracting_side": "right", "superattracting_parameter": "1",
                 **flags,
                 "aggregates": {"A": "2", "B": "-2", "A'": "0", "B'": "-2"}},
    }


@pytest.mark.parametrize("command", ["stability", "paramplane"])
def test_family_param_must_be_a_scheme_parameter(tmp_path, capsys, command):
    path = tmp_path / "two-step.scheme"
    path.write_text(KING_SCHEME)
    out = tmp_path / "typo.ppm"
    render = ("--window", "-6,5,-5.5,5.5", "--res", "8x8", "--out", str(out))
    code, text, err = run(capsys, command, "--scheme-file", str(path),
                          "--family-param", "bta",
                          *(render if command == "paramplane" else ()))
    assert code == 1 and text == ""
    assert err == (f"usage error: --family-param 'bta' is not a parameter of "
                   f"{path}; its parameters: beta\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["stability", "paramplane"])
@pytest.mark.parametrize("method,name", [("king", "alpha"),
                                         ("king", "nope"), ("m4", "beta")])
def test_family_param_must_be_the_charted_parameter(tmp_path, capsys, command,
                                                    method, name):
    out = tmp_path / "wrong.ppm"
    render = ("--window", "-6,5,-5.5,5.5", "--res", "8x8", "--out", str(out))
    code, text, err = run(capsys, command, "--method", method,
                          "--family-param", name,
                          *(render if command == "paramplane" else ()))
    charted = catalog_entry(method).stability_param
    assert code == 1 and text == ""
    assert err == (f"usage error: --family-param {name!r} is not the charted "
                   f"parameter of {method}; it charts {charted}\n")
    assert not out.exists()


def test_family_param_may_name_the_charted_parameter(capsys):
    payload = run_json(capsys, "stability", "--method", "m4",
                       "--family-param", "alpha")
    assert payload == run_json(capsys, "stability", "--method", "m4")


@pytest.mark.parametrize("command", ["stability", "paramplane"])
@pytest.mark.parametrize("method,binding", [("king", "beta=7"),
                                            ("m4", "beta=2")])
def test_method_family_refuses_every_param(tmp_path, capsys, command, method,
                                           binding):
    # a catalog family varies its own parameter and would drop the binding
    out = tmp_path / "bound.ppm"
    render = ("--window", "-6,5,-5.5,5.5", "--res", "8x8", "--out", str(out))
    code, text, err = run(capsys, command, "--method", method,
                          "--param", binding,
                          *(render if command == "paramplane" else ()))
    assert code == 1 and text == ""
    assert err == (f"usage error: --param 'beta' would be ignored: the "
                   f"{method} family takes no --param\n")
    assert not out.exists()


@pytest.mark.parametrize("method,command", [
    (method, command) for method in ("king", "c-family")
    for command in ("stability", "paramplane")]
    + [("c-family", "dynplane"), ("m4", "dynplane")])
def test_method_family_refuses_a_c(tmp_path, capsys, command, method):
    # a scheme family is charted at c = 1 and a form family has no c, so an
    # explicit --c would change nothing, even when it reads 1; a scheme's
    # dynamical plane is built at its --c
    out = tmp_path / "c.ppm"
    render = ("--window", "-6,5,-5.5,5.5", "--res", "8x8", "--out", str(out))
    for c in ("5", "1"):
        code, text, err = run(capsys, command, "--method", method, "--c", c,
                              *(render if command != "stability" else ()))
        assert code == 1 and text == ""
        assert err == (f"usage error: --c would be ignored: the {method} "
                       "family takes no --c\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["stability", "paramplane"])
def test_scheme_family_refuses_a_param_on_the_family_param(tmp_path, capsys,
                                                           command):
    path = tmp_path / "two-step.scheme"
    path.write_text(KING_SCHEME)
    out = tmp_path / "bound.ppm"
    render = ("--window", "-6,5,-5.5,5.5", "--res", "8x8", "--out", str(out))
    code, text, err = run(capsys, command, "--scheme-file", str(path),
                          "--family-param", "beta", "--param", "beta=7",
                          *(render if command == "paramplane" else ()))
    assert code == 1 and text == ""
    assert err == ("usage error: --param 'beta' would be ignored: "
                   "--family-param varies it\n")
    assert not out.exists()


def test_scheme_family_keeps_a_param_on_another_parameter(tmp_path, capsys):
    path = tmp_path / "scaled-king.scheme"
    path.write_text(KING_SCHEME.replace("y - p(y)", "y - gamma*p(y)"))
    king = tmp_path / "two-step.scheme"
    king.write_text(KING_SCHEME)
    payload = run_json(capsys, "stability", "--scheme-file", str(path),
                       "--family-param", "beta", "--param", "gamma=1")
    want = run_json(capsys, "stability", "--scheme-file", str(king),
                    "--family-param", "beta")
    assert payload == {**want, "method": str(path)}


def test_stability_errors(capsys):
    # one coefficient depends quadratically on the parameter
    code, _, err = run(capsys, "stability", "--method", "os3")
    assert code == 2 and "error" in err
    # the whole family is degenerate, so z = 1 is not meaningful
    code, _, err = run(capsys, "stability", "--method", "os5")
    assert code == 2
    # no palindromic operator exists at all for this method
    code, _, err = run(capsys, "stability", "--method", "steffensen")
    assert code == 2


def test_parameterless_method_reads_as_constant_family(capsys):
    payload = run_json(capsys, "stability", "--method", "newton")
    z1 = payload["z=1"]
    assert z1["kind"] == "constant"
    assert z1["attracting_side"] == "nowhere"
    assert z1["aggregates"]["A"] == "2"


# ----------------------------------------------------------------------
# usage and computation errors

def test_usage_errors_exit_one(capsys):
    cases = [
        ("build",),                                     # no source
        ("build", "--method", "newton",
         "--scheme-file", "x.scheme"),                  # both sources
        ("build", "--method", "no-such-method"),
        ("build", "--method", "newton", "--c", "xyz"),
        ("build", "--method", "newton", "--param", "beta"),
        ("dynplane", "--method", "newton", "--out", "x.ppm",
         "--window", "1,2,3"),
        ("dynplane", "--method", "newton", "--out", "x.ppm",
         "--res", "400"),
        ("dynplane", "--method", "newton", "--out", "x.ppm",
         "--window", "a,b,c,d"),
        ("stability", "--scheme-file", "x.scheme"),    # no --family-param
        # refused by the argument parser itself
        ("build", "--method", "newton", "--bogus"),
        (),                                             # no subcommand
        ("build", "--method"),                          # no method name
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("usage error:"), argv


def test_analyze_refuses_the_identity_map(tmp_path, capsys):
    # num - z den is the zero polynomial: no finite list of fixed points
    path = tmp_path / "identity.scheme"
    path.write_text("next = z;", encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--scheme-file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: the map is the identity: every point is fixed\n"


@pytest.mark.parametrize("flag,value", [("--param", "beta="), ("--c", ""),
                                        ("--param", "beta=1-"),
                                        ("--c", "2.5+")])
def test_a_literal_beyond_the_largest_float_is_a_usage_error(capsys, flag,
                                                            value):
    # 1 followed by 400 zeros, as a real part or as an imaginary part
    big = "1" + "0" * 400 + ("i" if value.endswith(("-", "+")) else "")
    code, out, err = run(capsys, "build", "--method", "king", flag,
                         value + big)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: bad complex literal: the number ")
    assert err.endswith("0000... is too large for a float\n")


BIG = "1" + "0" * 308       # fits a float; twice it does not


@pytest.mark.parametrize("flag,literal", [
    ("--c", f"{BIG}+{BIG}"), ("--c", f"-{BIG}-{BIG}"),
    ("--c", f"{BIG}i+{BIG}i"), ("--param", f"{BIG}+{BIG}")],
    ids=["real", "negative", "imaginary", "param"])
def test_a_sum_beyond_the_largest_float_is_a_usage_error(capsys, flag,
                                                         literal):
    value = literal if flag == "--c" else f"beta={literal}"
    code, out, err = run(capsys, "build", "--method", "king", flag, value)
    assert (code, out) == (1, "")
    assert err == ("usage error: bad complex literal: the number "
                   f"{literal[:16]}... is too large for a float\n")


def test_negative_pair_index_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "s.ppm"
    code, _, err = run(capsys, "paramplane", "--method", "os3",
                       "--window", "-6.5,3.5,-5,5", "--res", "8x8",
                       "--selector", "-1", "--out", str(out))
    assert code == 1 and "usage error" in err
    assert not out.exists()


def test_paramplane_renders_across_a_pole_of_the_family(tmp_path, capsys):
    # the centre member sits on os3's pole and cannot be built: it renders
    # as a dead pixel instead of aborting the plane
    out = tmp_path / "pole.ppm"
    code, _, err = run(capsys, "paramplane", "--method", "os3",
                       "--window=-4.223722222222222,-4.220722222222222,"
                       "1.9861159799998132,1.9891159799998133",
                       "--res", "3x3", "--out", str(out))
    assert code == 0, err
    assert out.exists()
    meta = (tmp_path / "pole.ppm.meta").read_text().splitlines()
    assert "diag_no_free_critical=1" in meta


@pytest.mark.parametrize("setting", [
    ("--max-iter", "0"),
    ("--res", "0x8"),
    ("--window", "1,1,-3,3"),
    ("--window=0,1,0,inf",),
    ("--window=0,1,-1e308,1e308",),     # the extent overflows
    ("--max-iter", "2147483648"),       # counts are int32
])
def test_invalid_render_settings_are_usage_errors(tmp_path, capsys, setting):
    out = tmp_path / "m.ppm"
    code, _, err = run(capsys, "dynplane", "--method", "newton",
                       "--out", str(out), *setting)
    assert code == 1 and err.startswith("usage error:")
    assert not out.exists()


@pytest.mark.parametrize("window", ["0,1,0,inf", "0,1,-1e308,1e308"])
def test_non_finite_parameter_window_is_a_usage_error(tmp_path, capsys,
                                                      window):
    out = tmp_path / "s.ppm"
    code, _, err = run(capsys, "paramplane", "--method", "king",
                       f"--window={window}", "--res", "4x4", "--out", str(out))
    assert code == 1 and err.startswith("usage error:")
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_invalid_worker_counts_are_usage_errors(tmp_path, capsys, threads):
    out = tmp_path / "m.ppm"
    code, _, err = run(capsys, "dynplane", "--method", "newton",
                       "--window", "-2,2,-2,2", "--res", "8x8",
                       "--out", str(out), "--threads", threads)
    assert code == 1 and err.startswith("usage error:")
    assert not out.exists()


def test_family_subcommands_refuse_other_degrees(tmp_path, capsys):
    # the normal form is built from z^2 - c only, so there is no --d
    code, out, err = run(capsys, "stability", "--method", "king", "--d", "3")
    assert code == 1 and err.startswith("usage error:") and out == ""
    ppm = tmp_path / "k.ppm"
    code, _, err = run(capsys, "paramplane", "--method", "king", "--d", "3",
                       "--window", "-6,5,-5.5,5.5", "--res", "8x8",
                       "--out", str(ppm))
    assert code == 1 and err.startswith("usage error:")
    assert not ppm.exists()
    code, out, err = run(capsys, "build", "--method", "newton", "--d", "3")
    assert code == 1 and err.startswith("usage error:") and out == ""


@pytest.mark.parametrize("text,message", [
    # each constant is a float, their product overflows
    (f"next = z - 1{'0' * 200}*1{'0' * 200}*p(z)/p'(z);",
     "a coefficient is not finite"),
    # coefficients whose sum of squares overflows reach rat_make
    (f"next = z - 1{'0' * 160}*p(z)/p'(z);",
     "0 is not a fixed point (no z^n factor)"),
    # a float whose sums overflow, which numpy would warn of
    (f"next = z - 9{'0' * 307}*p(z)/p'(z);", "a coefficient is not finite"),
], ids=["product-overflows", "above-1e154", "sum-overflows"])
def test_huge_scheme_constants_are_computation_errors(tmp_path, capsys,
                                                      text, message):
    path = tmp_path / "huge.scheme"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "build", "--scheme-file", str(path))
    assert (code, out) == (2, "") and err.startswith(f"error: {message}")


def test_computation_errors_exit_two(capsys):
    code, _, err = run(capsys, "build", "--method", "steffensen")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "build", "--scheme-file", "/no/such/file")
    assert code == 2


# ----------------------------------------------------------------------
# verify and catalog

class _StubSuite:
    def __init__(self, name, passed, failed, notes=()):
        self.name = name
        self.passed = passed
        self.failed = failed
        self.notes = list(notes)

    @property
    def ok(self):
        return self.failed == 0


def test_verify_exit_codes(monkeypatch, capsys):
    import ndyn.cli as cli_mod
    monkeypatch.setattr(cli_mod, "run_all",
                        lambda: [_StubSuite("alpha", 3, 0)])
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "alpha" in out and "3/3" in out and "all 3 checks passed" in out

    monkeypatch.setattr(
        cli_mod, "run_all",
        lambda: [_StubSuite("alpha", 3, 0),
                 _StubSuite("beta", 1, 2, notes=["broken thing"])])
    code, out, _ = run(capsys, "verify")
    assert code == 3
    assert "beta" in out and "FAIL" in out and "broken thing" in out
    assert "2 of 6 checks failed" in out


# `ndyn verify` as it prints: each suite's count, so a check that is
# dropped, added or failed shows here
VERIFY_OUT = """\
conjugation-goldens      PASS  40/40
root-sums                PASS  120/120
vieta-roundtrip          PASS  73/73
fixed-point-structure    PASS  240/240
symmetry-certificates    PASS  63/63
region-goldens           PASS  8/8
region-vs-oracle         PASS  300/300
all 844 checks passed
"""


def test_verify_prints_its_pinned_lines(capsys):
    assert run(capsys, "verify") == (0, VERIFY_OUT, "")


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 17
    assert lines[0].startswith("newton")
    assert "n=2 k=0" in lines[0]
    king = next(line for line in lines if line.startswith("king"))
    assert "n=4 k=2" in king and "beta" in king
    steff = next(line for line in lines if line.startswith("steffensen"))
    assert "not palindromic" in steff


def test_readme_catalog_table_matches_the_listing(capsys):
    # README's table: method | n | k | parameters (notes after " (") | ...
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("\n| method | n | k | parameters |")[1]
    rows = []
    for line in table.split("\n\n")[0].splitlines()[2:]:
        name, n, k, params = (c.strip() for c in line.split("|")[1:5])
        shape = n if n == "not palindromic" else f"n={n} k={k}"
        rows.append((name, shape, params.split(" (")[0] or "-"))
    _, listing, _ = run(capsys, "catalog")
    listed = [(line[:18].strip(), line[19:37].strip(),
               line.split("params: ")[1]) for line in listing.splitlines()]
    assert rows == listed


# ----------------------------------------------------------------------
# renders

def test_dynplane_writes_image_and_metadata(tmp_path, capsys):
    out = tmp_path / "p.ppm"
    code, text, _ = run(capsys, "dynplane", "--method", "newton",
                        "--window", "-2,2,-2,2", "--res", "24x24",
                        "--max-iter", "60", "--out", str(out))
    assert code == 0
    assert f"wrote {out} (24x24, mode=speed)" in text
    data = out.read_bytes()
    assert data.startswith(b"P6\n24 24\n255\n")
    assert len(data) == len(b"P6\n24 24\n255\n") + 24 * 24 * 3
    meta = (tmp_path / "p.ppm.meta").read_text()
    assert "subject=newton" in meta
    assert "count_root_0=" in meta


@pytest.mark.parametrize("command,family", [
    ("dynplane", ("--param", "beta=-1")),
    ("paramplane", ("--family-param", "beta")),
])
def test_render_metadata_escapes_a_non_ascii_subject(tmp_path, capsys,
                                                     command, family):
    # the subject is the scheme file's path; .meta writes it the way the
    # JSON of `ndyn build` does, so it stays ASCII
    path = tmp_path / "k\u00f6nigs.scheme"
    path.write_text(KING_SCHEME)
    code, text, _ = run(capsys, "build", "--scheme-file", str(path),
                        "--param", "beta=-1")
    assert code == 0
    method = next(line for line in text.splitlines() if '"method"' in line)
    escaped = method.split('"method": "', 1)[1].rstrip('",')
    assert "\\u00f6nigs" in escaped
    out = tmp_path / "k.ppm"
    code, _, err = run(capsys, command, "--scheme-file", str(path), *family,
                       "--window", "-2,2,-2,2", "--res", "8x8",
                       "--max-iter", "20", "--out", str(out))
    assert code == 0, err
    meta = (tmp_path / "k.ppm.meta").read_bytes()
    assert meta.isascii()
    assert f"subject={escaped}\n".encode() in meta


def test_dynplane_bytes_ignore_thread_count(tmp_path, capsys):
    args = ("dynplane", "--method", "king", "--param", "beta=1",
            "--window", "-2,2,-2,2", "--res", "40x40",
            "--max-iter", "50")
    a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    assert run(capsys, *args, "--threads", "1", "--out", str(a))[0] == 0
    assert run(capsys, *args, "--threads", "5", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_paramplane_negative_window_and_metadata(tmp_path, capsys):
    out = tmp_path / "q.ppm"
    code, text, _ = run(capsys, "paramplane", "--method", "chebyshev-halley",
                        "--window", "-1,5,-3,3", "--res", "16x16",
                        "--max-iter", "40", "--out", str(out))
    assert code == 0
    assert out.read_bytes().startswith(b"P6\n16 16\n255\n")
    meta = (tmp_path / "q.ppm.meta").read_text()
    assert "parameter=alpha" in meta
    assert "diag_no_free_critical=0" in meta
    assert "diag_multiple_free_pairs=0" in meta
    assert "diag_vectorized=True" in meta


def test_paramplane_attractors_mark_strange_pixels(tmp_path, capsys):
    out = tmp_path / "r.ppm"
    code, _, _ = run(capsys, "paramplane", "--method", "os5",
                     "--window", "-10.5,10.5,-10.5,10.5", "--res", "16x16",
                     "--max-iter", "120", "--mode", "attractor",
                     "--attractor", "1", "--attractor", "-1",
                     "--out", str(out))
    assert code == 0
    meta = (tmp_path / "r.ppm.meta").read_text()
    fields = dict(line.split("=", 1)
                  for line in meta.splitlines() if "=" in line)
    assert int(fields["count_strange_attractor"]) > 0
