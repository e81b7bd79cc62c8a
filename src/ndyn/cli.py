"""Command line front end.

Wires the library into a handful of workflows: build an operator and print
its normal form, analyze its fixed and critical points, compute parameter
stability regions, render dynamical and parameter planes to PPM, run the
built-in verification suites, and list the catalog.

Exit codes: 0 success, 1 usage error, 2 computation error (diagnostic on
stderr), 3 verification failure.  All output uses stable key ordering and
seeded checks, so identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import re
import sys
from dataclasses import is_dataclass

import numpy as np

from .analysis import classify_operator, critical_points
from .builder import (NUMBER, SchemeContext, _scheme_member, catalog_entry,
                      catalog_names, check_scheme_lambda_odd, conjugated_form,
                      number_value, parse_scheme)
from .conjugate import check_iota_symmetry
from .errors import NdynError, UnknownMethod
from .planes import (RenderConfig, dynamical_plane, parameter_plane,
                     write_image, write_metadata)
from .poly import is_inf
from .stability import linearize, stability_region_z1, stability_region_zm1
from .verify import run_all


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


# ----------------------------------------------------------------------
# literals and formatting

_LITERAL = re.compile(rf"([+-]?{NUMBER})([+-]{NUMBER})?")


def parse_complex_literal(text: str) -> complex:
    """A scheme NUMBER with an optional sign, or two composed as a+bi
    (e.g. 1.5+2i)."""
    m = _LITERAL.fullmatch(text.strip())
    if not m:
        raise UsageError(
            f"bad complex literal {text!r}; use forms like 2, -4.5, 1.5+2i")
    try:
        value = sum(number_value(part) for part in m.groups() if part)
    except ValueError as e:
        raise UsageError(f"bad complex literal: {e}") from None
    if not cmath.isfinite(value):       # each part fits, their sum does not
        raise UsageError(f"bad complex literal: the number {text.strip()[:16]}"
                         "... is too large for a float")
    return value


def _fmt_number(z) -> str:
    """A printed number: INF as inf, else each part at 12 significant
    digits, a part within 1e-12 of a finite nonzero modulus read as 0 and
    a zero part left out (3, 2.5i, 1-2i).  A value whose modulus is not
    finite prints its parts (inf, -inf, nan)."""
    if is_inf(z):
        return "inf"
    z = complex(z)
    re_, im, mag = z.real, z.imag, abs(z)
    if mag > 0.0 and cmath.isfinite(mag):
        if abs(im) <= 1e-12 * mag:
            im = 0.0
        if abs(re_) <= 1e-12 * mag:
            re_ = 0.0
    if im == 0.0:
        return f"{re_ + 0.0:.12g}"          # + 0.0 prints -0.0 as 0
    if re_ == 0.0:
        return f"{im:.12g}i"
    return f"{re_:.12g}{im:+.12g}i"


def _plain(value):
    """The JSON value of a payload value: every number but an int by
    _fmt_number, None, strings, bools and ints as they are, dicts, lists,
    tuples and arrays walked, and a record as its fields (cls printed as
    class)."""
    if isinstance(value, (float, complex)) or is_inf(value):
        return _fmt_number(value)
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if is_dataclass(value):
        return {("class" if key == "cls" else key): _plain(v)
                for key, v in vars(value).items()}
    if isinstance(value, (np.bool_, np.integer)):
        return value.item()
    return _fmt_number(value)


def _emit(payload: dict) -> None:
    print(json.dumps(_plain(payload), indent=2))


# ----------------------------------------------------------------------
# shared argument plumbing

def _add_operator_args(p) -> None:
    p.add_argument("--method", help="catalog method name (see `catalog`)")
    p.add_argument("--scheme-file", help="path to a scheme definition file")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="bind a scheme parameter (value per the scheme "
                        "number grammar, e.g. beta=-4 or a=2-9.3i)")
    p.add_argument("--c", default=None,
                   help="polynomial constant term c (default 1)")


def _add_render_args(p, window_default=None) -> None:
    p.add_argument("--window", required=window_default is None,
                   default=window_default, metavar="X0,X1,Y0,Y1",
                   help="view rectangle")
    p.add_argument("--res", default="400x400", metavar="WxH",
                   help="image resolution (default 400x400)")
    p.add_argument("--out", required=True, help="output PPM path")
    p.add_argument("--mode", choices=("speed", "attractor"), default="speed",
                   help="coloring mode (default speed)")
    p.add_argument("--max-iter", type=int, default=150,
                   help="iteration budget per pixel (default 150)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: the CPUs this process "
                        "may run on)")
    p.add_argument("--attractor", action="append", default=[],
                   metavar="VALUE",
                   help="known extra attractor (repeatable); points captured "
                        "by one are reported as strange-attractor pixels")


def _bindings(args) -> dict:
    out = {}
    for item in args.param:
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise UsageError(f"--param expects NAME=VALUE, got {item!r}")
        if name in out:
            raise UsageError(f"--param {name!r} is given twice")
        out[name] = parse_complex_literal(value)
    return out


def _source(args):
    """(label, catalog entry or None, scheme ast, bindings, c) of the operator
    that --method or --scheme-file names; every --param must name one of
    its parameters."""
    if bool(args.method) == bool(args.scheme_file):
        raise UsageError("exactly one of --method / --scheme-file is required")
    bindings = _bindings(args)
    c = parse_complex_literal("1" if args.c is None else args.c)
    if args.method:
        try:
            entry = catalog_entry(args.method)
        except UnknownMethod as e:
            raise UsageError(str(e))
        label, ast, params = args.method, entry.ast, entry.params
    else:
        try:
            with open(args.scheme_file, encoding="utf-8") as fh:
                text = fh.read()    # decoded in one piece: offsets are exact
        except UnicodeDecodeError as e:
            raise NdynError(f"{args.scheme_file} is not UTF-8: byte "
                            f"{e.object[e.start]:#04x} at offset {e.start}"
                            ) from None
        ast = parse_scheme(text)
        label, entry, params = args.scheme_file, None, ast.params
    for name in bindings:
        if name not in params:
            raise UsageError(
                f"--param {name!r} is not a parameter of {label}; "
                f"its parameters: {', '.join(params) or 'none'}")
    return label, entry, ast, bindings, c


def _get_form(args):
    """(_source's tuple, normal form) for the normal-form subcommands."""
    source = _source(args)
    _, _, ast, bindings, c = source
    return source, conjugated_form(args.method or ast, bindings, c=c)


def _window(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise UsageError(f"--window expects X0,X1,Y0,Y1, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"--window expects four numbers, got {text!r}")


def _resolution(text: str):
    m = re.match(r"^(\d+)x(\d+)$", text.strip())
    if not m:
        raise UsageError(f"--res expects WxH, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _render_config(args) -> RenderConfig:
    try:
        return RenderConfig(window=_window(args.window),
                            resolution=_resolution(args.res),
                            max_iter=args.max_iter,
                            mode=args.mode,
                            workers=args.threads)
    except ValueError as e:
        raise UsageError(str(e))


def _write_outputs(img, args, extra: dict) -> None:
    write_image(img, args.out)
    meta = args.out + ".meta"
    write_metadata(img, meta, extra=extra)
    w, h = img.config.resolution
    print(f"wrote {args.out} ({w}x{h}, mode={args.mode})")
    print(f"wrote {meta}")


# ----------------------------------------------------------------------
# subcommands

def _form_payload(label: str, form) -> dict:
    return {"method": label, "n": form.n, "k": form.k, "sign": form.sign,
            "degenerate": form.degenerate, "a": form.a, "roots": form.roots}


def cmd_build(args) -> int:
    (label, *_), form = _get_form(args)
    _emit(_form_payload(label, form))
    return 0


def cmd_analyze(args) -> int:
    (label, _, ast, bindings, c), form = _get_form(args)
    info = classify_operator(form)
    R = info.pop("map")
    payload = {**_form_payload(label, form), "order_at_roots": form.n,
               **info, "critical_points": critical_points(R),
               "inversion_symmetric": check_iota_symmetry(R)}
    if ast is not None:
        ctx = SchemeContext(d=2, c=c, bindings=bindings)
        payload["rotation_symmetry"] = {
            "d": ctx.d, "holds": check_scheme_lambda_odd(ast, ctx)}
    _emit(payload)
    return 0


def _region_payload(reg) -> dict:
    """The region's set fields but its target; a not-applicable region is
    its kind alone."""
    if reg.kind == "not-applicable":
        return {"kind": reg.kind}
    return {key: v for key, v in vars(reg).items()
            if key != "target" and v is not None}


def _refuse_c(args, label: str) -> None:
    """A --c given to a family that ignores it is a usage error."""
    if args.c is not None:
        raise UsageError(f"--c would be ignored: the {label} family takes "
                         "no --c")


def _family(args):
    """(label, parameter name, producer) for the one-parameter subcommands;
    --family-param names a scheme's parameter or a method's charted one.  A
    --param on the varied parameter, or on any parameter of a method (whose
    catalog family takes no bindings), would be ignored, so it is refused;
    so is a --c given with a method, whose family is charted at c = 1."""
    name = args.family_param
    if args.scheme_file and not name:
        raise UsageError("--scheme-file needs --family-param NAME")
    label, entry, ast, bindings, c = _source(args)
    for bound in bindings:
        if entry is not None or bound == name:
            raise UsageError(
                f"--param {bound!r} would be ignored: "
                + (f"the {label} family takes no --param" if entry
                   else "--family-param varies it"))
    if entry is not None:
        _refuse_c(args, label)
    if entry is None:
        if name not in ast.params:
            raise UsageError(
                f"--family-param {name!r} is not a parameter of {label}; "
                f"its parameters: {', '.join(ast.params) or 'none'}")
        return label, name, functools.partial(_scheme_member, ast, name,
                                              bindings, c)
    if name not in (None, entry.stability_param):
        raise UsageError(f"--family-param {name!r} is not the charted "
                         f"parameter of {label}; it charts "
                         f"{entry.stability_param or 'none'}")
    if entry.stability_producer is None:
        raise NdynError(
            f"{label} has no one-parameter family; pick a method with a free "
            "parameter or use --scheme-file with --family-param")
    return label, entry.stability_param, entry.stability_producer


def cmd_stability(args) -> int:
    label, pname, producer = _family(args)
    lc = linearize(producer)
    _emit({"method": label, "parameter": pname, "n": lc.n, "k": lc.k,
           "A": lc.A, "B": lc.B,
           "z=1": _region_payload(stability_region_z1(lc)),
           "z=-1": _region_payload(stability_region_zm1(lc))})
    return 0


def cmd_dynplane(args) -> int:
    label, entry, ast, bindings, c = _source(args)
    if entry is not None and entry.form is not None:  # it has no c
        _refuse_c(args, label)
    form = conjugated_form(args.method or ast, bindings, c=c)
    cfg = _render_config(args)
    attractors = tuple(parse_complex_literal(v) for v in args.attractor)
    img = dynamical_plane(form.reconstruct(), cfg,
                          known_attractors=attractors)
    _write_outputs(img, args, extra={"subject": label})
    return 0


def cmd_paramplane(args) -> int:
    label, pname, producer = _family(args)
    cfg = _render_config(args)
    attractors = tuple(parse_complex_literal(v) for v in args.attractor)
    try:
        img = parameter_plane(producer, cfg, selector=args.selector,
                              known_attractors=attractors)
    except ValueError as e:     # a negative --selector
        raise UsageError(str(e))
    _write_outputs(img, args, extra={"subject": label, "parameter": pname})
    return 0


def cmd_verify(args) -> int:
    results = run_all()
    failed = 0
    checks = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        total = r.passed + r.failed
        print(f"{r.name:24s} {status}  {r.passed}/{total}")
        for note in r.notes:
            print(f"  - {note}")
        failed += r.failed
        checks += total
    if failed:
        print(f"{failed} of {checks} checks failed")
        return 3
    print(f"all {checks} checks passed")
    return 0


def cmd_catalog(args) -> int:
    for name in catalog_names():
        entry = catalog_entry(name)
        if entry.nk is None:
            shape = "not palindromic"
        else:
            shape = f"n={entry.nk[0]} k={entry.nk[1]}"
        params = ", ".join(entry.params) if entry.params else "-"
        print(f"{name:18s} {shape:18s} params: {params}")
    return 0


# ----------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process."""
    parser = _Parser(prog="ndyn",
                     description="Dynamics of Newton-like root finders in "
                                 "palindromic normal form.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build", help="print the normal form")
    _add_operator_args(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("analyze",
                       help="fixed points, critical points, symmetry")
    _add_operator_args(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("stability",
                       help="parameter stability regions for z = +-1")
    _add_operator_args(p)
    p.add_argument("--family-param", default=None,
                   help="parameter to vary (with --method, its charted one)")
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("dynplane", help="render a dynamical plane")
    _add_operator_args(p)
    _add_render_args(p, window_default="-3,3,-3,3")
    p.set_defaults(fn=cmd_dynplane)

    p = sub.add_parser("paramplane", help="render a parameter plane")
    _add_operator_args(p)
    p.add_argument("--family-param", default=None,
                   help="parameter to vary (with --method, its charted one)")
    _add_render_args(p)
    p.add_argument("--selector", type=int, default=None,
                   help="free critical pair index when several exist")
    p.set_defaults(fn=cmd_paramplane)

    p = sub.add_parser("verify", help="run the built-in property suites")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("catalog", help="list built-in methods")
    p.set_defaults(fn=cmd_catalog)

    return parser


# flags whose values may start with a minus sign (windows, complex literals)
_VALUE_FLAGS = ("--window", "--c", "--attractor", "--param")


def _merge_negative_values(argv):
    """Turn `--window -1,5,-3,3` into `--window=-1,5,-3,3` so the parser
    does not mistake the value for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) \
                and re.match(r"^-[\d.]", argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (NdynError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
