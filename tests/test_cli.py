"""End-to-end command line checks: exit codes, JSON payloads, files."""

import json

import pytest

from ndyn.builder import catalog_entry, conjugated_form
from ndyn.cli import (UsageError, _fmt_complex, _form_payload, main,
                      parse_complex_literal)
from ndyn.poly import point_key

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
    assert _fmt_complex(z) == text


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
            _fmt_complex(r) for r in sorted(roots, key=point_key)], t


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
    assert built == _form_payload(method, conjugated_form(method, {param: 1}))
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


def test_non_ascii_digit_in_a_scheme_is_a_located_error(tmp_path, capsys):
    path = tmp_path / "square.scheme"
    path.write_text("y = z - p(z)/p'(z);\nnext = y*y - 2\u00b2;\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "build", "--scheme-file", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 2, col 15: unexpected character '\u00b2'\n"


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
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "usage error" in err, argv


def test_negative_pair_index_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "s.ppm"
    code, _, err = run(capsys, "paramplane", "--method", "os3",
                       "--window", "-6.5,3.5,-5,5", "--res", "8x8",
                       "--selector", "-1", "--out", str(out))
    assert code == 1 and "usage error" in err
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    ("--max-iter", "0"),
    ("--res", "0x8"),
    ("--window", "1,1,-3,3"),
    ("--window=0,1,0,inf",),
    ("--window=0,1,-1e308,1e308",),     # the extent overflows
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


@pytest.mark.parametrize("threads, env", [
    ("0", None), ("-2", None), (None, "abc"), (None, "0"),
])
def test_invalid_worker_counts_are_usage_errors(tmp_path, capsys,
                                                monkeypatch, threads, env):
    if env is not None:
        monkeypatch.setenv("NDYN_THREADS", env)
    out = tmp_path / "m.ppm"
    argv = ["dynplane", "--method", "newton", "--window", "-2,2,-2,2",
            "--res", "8x8", "--out", str(out)]
    if threads is not None:
        argv += ["--threads", threads]
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("usage error:")
    assert ("NDYN_THREADS" in err) == (env is not None)
    assert not out.exists()


def test_family_subcommands_refuse_other_degrees(tmp_path, capsys):
    code, out, err = run(capsys, "stability", "--method", "king", "--d", "3")
    assert code == 2 and "use --d 2" in err and out == ""
    ppm = tmp_path / "k.ppm"
    code, _, err = run(capsys, "paramplane", "--method", "king", "--d", "3",
                       "--window", "-6,5,-5.5,5.5", "--res", "8x8",
                       "--out", str(ppm))
    assert code == 2 and "use --d 2" in err
    assert not ppm.exists()


def test_computation_errors_exit_two(capsys):
    code, _, err = run(capsys, "build", "--method", "steffensen")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "build", "--method", "newton", "--d", "3")
    assert code == 2
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
