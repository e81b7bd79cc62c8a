import cmath
import dataclasses
import hashlib
import math
from functools import partial

import numpy as np
import pytest

from conftest import maps_close, poly_map
from ndyn.builder import (MAX_STATEMENT_TOKENS, BinOp, Const, Deriv, Param,
                          Ref, Scheme, SchemeContext, Var, catalog_entry,
                          catalog_names, check_scheme_lambda_odd,
                          conjugated_form, evaluate_scheme, instantiate,
                          parse_scheme, target_derivative, _lex)
from ndyn.conjugate import (check_iota_symmetry, extract_normal_form,
                            mobius_conjugate, standard_tau)
from ndyn.errors import (DivisionByZeroMap, NdynError, SchemeSyntaxError,
                         UnboundIdentifier, UnknownMethod, ZeroC,
                         ZeroDenominator)
from ndyn.cli import main
from ndyn.poly import (Polynomial, constant_map, rat_combine, rat_eval,
                       rat_make)

NEWTON = "next = z - p(z)/p'(z);"


def test_parse_scheme_steps():
    scheme = parse_scheme("y = z - p(z)/p'(z);\nnext = y;")
    assert isinstance(scheme, Scheme)
    assert [name for name, _ in scheme.steps] == ["y", "next"]


LEX_CORPUS = ("# header comment\r\n"
              "y\t= 1. * z;  # trailing\r\n"
              "w = .5 + 2i*y - p''(3.25i);\n"
              "\tnext = 1.2.3 - w_2;   # tail")

# (kind, text, value, line, col); a comment advances no column, \r and \t
# advance one each
LEX_TOKENS = [
    ("ident", "y", None, 2, 1), ("op", "=", None, 2, 3),
    ("number", "1.", 1 + 0j, 2, 5), ("op", "*", None, 2, 8),
    ("ident", "z", None, 2, 10), ("op", ";", None, 2, 11),
    ("ident", "w", None, 3, 1), ("op", "=", None, 3, 3),
    ("number", ".5", 0.5 + 0j, 3, 5), ("op", "+", None, 3, 8),
    ("number", "2i", 2j, 3, 10), ("op", "*", None, 3, 12),
    ("ident", "y", None, 3, 13), ("op", "-", None, 3, 15),
    ("ident", "p", None, 3, 17), ("op", "'", None, 3, 18),
    ("op", "'", None, 3, 19), ("op", "(", None, 3, 20),
    ("number", "3.25i", 3.25j, 3, 21), ("op", ")", None, 3, 26),
    ("op", ";", None, 3, 27),
    ("ident", "next", None, 4, 2), ("op", "=", None, 4, 7),
    ("number", "1.2", 1.2 + 0j, 4, 9), ("number", ".3", 0.3 + 0j, 4, 12),
    ("op", "-", None, 4, 15), ("ident", "w_2", None, 4, 17),
    ("op", ";", None, 4, 20), ("eof", "", None, 4, 24),
]


def test_lexer_token_corpus():
    got = [(t.kind, t.text, t.value, t.line, t.col) for t in _lex(LEX_CORPUS)]
    assert got == LEX_TOKENS


def test_parameters_are_recorded_in_source_order():
    scheme = parse_scheme("y = z - beta*p(z)/p'(z);\n"
                          "next = y - (alpha + beta)*p(y) + gamma;")
    assert scheme.params == ("beta", "alpha", "gamma")
    assert parse_scheme(NEWTON).params == ()


def test_non_ascii_digit_is_a_syntax_error():
    with pytest.raises(SchemeSyntaxError) as err:
        parse_scheme("next = z - p(z)/p'(z)²;")
    assert (err.value.line, err.value.col) == (1, 22)


def test_name_stops_before_a_non_ascii_digit():
    with pytest.raises(SchemeSyntaxError) as err:
        parse_scheme("next = z - p(z)/p'(z) + z²;")
    assert str(err.value) == "line 1, col 26: unexpected character '²'"
    assert parse_scheme("next = z - β*p(z)/p'(z);").params == ("β",)


def test_statement_above_the_bound_is_refused_at_its_first_token():
    step = "y = " + " + ".join(["z"] * 200) + ";\n"       # 399 tokens
    assert parse_scheme(step + "next = y;").steps[0][0] == "y"
    with pytest.raises(SchemeSyntaxError) as err:
        parse_scheme("u = z;\n  " + step.replace("z;", "z + z;") + "next = y;")
    assert str(err.value) == (f"line 2, col 3: the statement binding 'y' has "
                              f"more than {MAX_STATEMENT_TOKENS} tokens")


def test_catalog_schemes_parse_the_same_without_the_bound(monkeypatch):
    import ndyn.builder as builder
    bounded = {name: parse_scheme(text)
               for name, (text, *_) in builder._SCHEMES.items()}
    monkeypatch.setattr(builder, "MAX_STATEMENT_TOKENS", 10 ** 9)
    for name, (text, *_) in builder._SCHEMES.items():
        assert parse_scheme(text) == bounded[name] == catalog_entry(name).ast


def test_each_derivative_is_built_once_per_check(monkeypatch):
    import ndyn.builder as builder
    orders = []

    def counting(d, c, order):
        orders.append(order)
        return target_derivative(d, c, order)

    monkeypatch.setattr(builder, "target_derivative", counting)
    ast = catalog_entry("chebyshev-halley").ast
    ctx = SchemeContext(d=3, c=2.0, bindings={"alpha": 0.5})
    assert check_scheme_lambda_odd(ast, ctx, trials=20)
    assert sorted(orders) == sorted(set(orders))
    assert {0, 1, 2} <= set(orders)


def test_unary_minus_is_a_product_with_minus_one():
    newton = parse_scheme(NEWTON)
    negated = parse_scheme("next = -(z - p(z)/p'(z));")
    assert negated.steps[0][1] == BinOp("*", Const(-1.0), newton.steps[0][1])
    ctx = SchemeContext(d=2, c=1.0)
    z = np.array([0.3 + 0.7j, -1.2 + 0.1j, 2.0])
    assert np.array_equal(evaluate_scheme(negated, ctx, z),
                          -evaluate_scheme(newton, ctx, z))


def test_equal_subexpressions_are_valued_once(monkeypatch):
    # king's p(z) is written three times, p(y) twice and p'(z) twice; the
    # parser hands out one object for each and the fold's memo reads node
    # identity, so each is built once
    import ndyn.builder as builder
    valued = []
    real = builder._instantiate_node

    def counting(ctx, node, *args, scale):
        valued.append(node)
        return real(ctx, node, *args, scale=scale)

    monkeypatch.setattr(builder, "_instantiate_node", counting)
    instantiate(catalog_entry("king").ast,
                SchemeContext(d=2, c=1.0, bindings={"beta": 1.0}))
    assert len(valued) == len(set(valued))
    assert Deriv(0, Var()) in valued and Deriv(0, Ref("y")) in valued


def _nodes(scheme: Scheme) -> list:
    """Every node object of the scheme, once per place it is written."""
    out, stack = [], [expr for _, expr in scheme.steps]
    while stack:
        node = stack.pop()
        out.append(node)
        stack += ([node.arg] if isinstance(node, Deriv) else
                  [node.lhs, node.rhs] if isinstance(node, BinOp) else [])
    return out


def _unshared(node):
    """An equal copy of node that shares no object between two places."""
    if isinstance(node, Deriv):
        return Deriv(node.order, _unshared(node.arg))
    if isinstance(node, BinOp):
        return BinOp(node.op, _unshared(node.lhs), _unshared(node.rhs))
    return dataclasses.replace(node)


REPEATED = ("y = z - 2*p(z)/p'(z);\nw = -p(z) + -p(y);\n"
            "next = y - 2*p(z)/p'(z) * (p(y) + w)/(p(y) - w);")


@pytest.mark.parametrize("name", [
    *(name for name in catalog_names() if catalog_entry(name).ast),
    "repeated"])
def test_parsed_scheme_holds_one_object_per_distinct_subexpression(name):
    nodes = _nodes(parse_scheme(REPEATED) if name == "repeated"
                   else catalog_entry(name).ast)
    assert len({id(node) for node in nodes}) == len(set(nodes))


def test_king_writes_p_of_z_three_times_as_one_object():
    ast = catalog_entry("king").ast
    found = [node for node in _nodes(ast) if node == Deriv(0, Var())]
    assert len(found) == 3 and all(node is found[0] for node in found)


def _chain(steps: int) -> str:
    """A scheme of `steps` one-line steps, each reading the one before."""
    lines = ["y0 = z - p(z)/p'(z);"]
    lines += [f"y{i} = y{i - 1} - p(y{i - 1})/p'(y{i - 1});"
              for i in range(1, steps - 1)]
    return "\n".join(lines + [f"next = y{steps - 2};"])


def test_the_parser_hashes_no_node(monkeypatch):
    # a node's hash walks its whole subtree, so a parser that hashes nodes
    # is superlinear in the depth; sharing reads the children's ids instead
    import ndyn.builder as builder

    def refuse(node):
        raise AssertionError(f"hashed {type(node).__name__}")

    texts = ["next = " + "-" * 399 + "z;",
             "next = " + " + ".join(["z"] * 200) + ";", _chain(2000),
             *(text for text, *_ in builder._SCHEMES.values())]
    for cls in (Var, Const, Param, Deriv, BinOp, Ref):
        monkeypatch.setattr(cls, "__hash__", refuse)
    schemes = [parse_scheme(text) for text in texts]
    assert len(schemes[2].steps) == 2000
    for name, scheme in zip(builder._SCHEMES, schemes[3:]):
        assert scheme == catalog_entry(name).ast


def test_a_missing_semicolon_is_reported_as_one():
    # each statement alone is within the bound, the two together are not
    text = "y = z" + " + z" * 120 + "\nnext = y" + " + z" * 120 + ";"
    with pytest.raises(SchemeSyntaxError) as err:
        parse_scheme(text)
    assert str(err.value) == "line 2, col 1: expected ';', found 'next'"
    assert parse_scheme(text.replace("\n", ";\n")).steps[0][0] == "y"


@pytest.mark.parametrize("text, message", [
    ("y = z - w*p(z)/p'(z);\nw = 1;\nnext = y;",
     "line 1, col 9: step 'w' is read before line 2 binds it"),
    ("next = next;", "line 1, col 8: step 'next' is read before line 1 "
     "binds it"),
    ("y = beta*z;\nnext = beta*y;\n  beta = 2;",
     "line 1, col 5: step 'beta' is read before line 3 binds it"),
], ids=["step-read-before-bound", "next-reads-next", "first-of-three-reads"])
def test_a_step_read_before_it_is_bound_is_refused(text, message):
    with pytest.raises(SchemeSyntaxError) as err:
        parse_scheme(text)
    assert str(err.value) == message


def test_no_catalog_scheme_reads_a_step_before_binding_it():
    for name in catalog_names():
        ast = catalog_entry(name).ast
        if ast:
            assert not set(ast.params) & {step for step, _ in ast.steps}


@pytest.mark.parametrize("name", ["king", "chun", "wang"])
def test_an_unshared_ast_folds_as_the_parsed_one(name):
    # a hand-built AST compares equal and folds the same, only without
    # sharing
    ast = catalog_entry(name).ast
    copy = Scheme(tuple((step, _unshared(expr)) for step, expr in ast.steps),
                  ast.params)
    assert copy == ast
    assert len({id(node) for node in _nodes(copy)}) == len(_nodes(copy))
    ctx = SchemeContext(d=2, c=1.0, bindings={"beta": 0.7, "alpha": 0.3})
    got, want = instantiate(copy, ctx), instantiate(ast, ctx)
    assert got.num.coeffs.tobytes() == want.num.coeffs.tobytes()
    assert got.den.coeffs.tobytes() == want.den.coeffs.tobytes()
    zs = np.array([0.3 + 0.4j, -1.2 + 0.1j, 2.0 - 0.5j])
    assert (evaluate_scheme(copy, ctx, zs).tobytes()
            == evaluate_scheme(ast, ctx, zs).tobytes())


def test_parse_rejects_garbage():
    with pytest.raises(SchemeSyntaxError):
        parse_scheme("next = z +* 3;")
    with pytest.raises(SchemeSyntaxError):
        parse_scheme("= z;")


OVERFLOW = "1" + "0" * 400      # a NUMBER beyond the largest float


@pytest.mark.parametrize("case,message", [
    # scheme texts, which a user reaches through `ndyn build --scheme-file`
    ("next = (z;", "line 1, col 10: expected ')', found ';'"),
    ("z = 1;\nnext = z;", "line 1, col 1: 'z' is reserved"),
    ("p = 1;\nnext = z;", "line 1, col 1: 'p' is reserved"),
    ("y = z;\ny = 2*z;\nnext = y;", "line 2, col 1: step 'y' is bound twice"),
    ("# nothing here\n", "line 2, col 1: empty scheme"),
    ("y = z - p(z)/p'(z);", "line 1, col 20: the last statement must bind"),
    ("next = f(z);", "unbound identifier 'f' (line 1: only p can be applied)"),
    ("next = f'(z);", "line 1, col 9: derivatives apply only to p"),
    (f"next = z - {OVERFLOW}i*p(z);",
     "line 1, col 12: the number 1000000000000000... is too large"),
    # library calls no command line reaches: the command line builds at
    # d = 2 only and refuses a non-finite binding before these
    (partial(SchemeContext, d=1, c=1.0), "degree d must be at least 2"),
    (partial(conjugated_form, "king", {"beta": float("inf")}),
     "parameter 'beta' is bound to (inf+0j), which is not finite"),
    (partial(conjugated_form, "m4", {"beta": complex(1.0, float("nan"))}),
     "which is not finite"),
], ids=["expected-op", "reserved-z", "reserved-p", "bound-twice", "empty",
        "last-not-next", "only-p-applied", "derivative-of-a-name",
        "overflowing-literal", "degree-one", "infinite-binding",
        "nan-binding"])
def test_builder_refusals_name_their_cause(tmp_path, capsys, case, message):
    if isinstance(case, str):
        path = tmp_path / "bad.scheme"
        path.write_text(case, encoding="utf-8")
        code = main(["build", "--scheme-file", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.endswith("\n")
    else:
        with pytest.raises((NdynError, ValueError)) as refused:
            case()
        assert message in str(refused.value)


def test_unbound_identifier_reported():
    scheme = parse_scheme("next = z - beta * p(z)/p'(z);")
    ctx = SchemeContext(d=2, c=1.0, bindings={})
    with pytest.raises(UnboundIdentifier):
        instantiate(scheme, ctx)


def test_newton_operator_is_the_classical_map():
    R = instantiate(catalog_entry("newton").ast, SchemeContext(d=2, c=1.0))
    # z - (z^2 - 1) / (2z) == (z^2 + 1) / (2z)
    want = rat_make(Polynomial((1.0, 0.0, 1.0)), Polynomial((0.0, 2.0)))
    assert maps_close(R, want)


def test_evaluate_scheme_agrees_with_instantiation():
    scheme = parse_scheme(NEWTON)
    ctx = SchemeContext(d=3, c=2.0, bindings={})
    R = instantiate(scheme, ctx)
    for z in (0.7, 1.0 + 0.4j, -2.3):
        direct = evaluate_scheme(scheme, ctx, z)
        assert abs(direct - rat_eval(R, z)) <= 1e-10 * (1.0 + abs(direct))


def test_evaluate_scheme_takes_an_array_of_points():
    scheme = catalog_entry("king").ast
    ctx = SchemeContext(d=3, c=2.0 - 1.0j, bindings={"beta": 0.5})
    z = np.array([[0.7, 1.0 + 0.4j], [-2.3j, 1.5 - 0.2j]])
    values = evaluate_scheme(scheme, ctx, z)
    assert values.shape == z.shape
    for u, v in zip(z.flat, values.flat):
        w = evaluate_scheme(scheme, ctx, u)
        assert type(w) is complex and w == v


def test_division_by_exact_zero_is_nan_in_an_array():
    # p(z) - p(1) vanishes exactly at z = 1 only
    scheme = parse_scheme("next = z / (p(z) - p(1));")
    ctx = SchemeContext(d=2, c=1.0)
    values = evaluate_scheme(scheme, ctx, np.array([1.0, 2.0]))
    assert np.isnan(values[0]) and abs(values[1] - 2.0 / 3.0) <= 1e-15
    with pytest.raises(ZeroDivisionError):
        evaluate_scheme(scheme, ctx, 1.0)


def test_chun_cancels_every_common_factor():
    # both sides carry (z^2 + 1)^4, whose roots come back from a root
    # solver as 4-root clusters ~3e-3 wide
    entry = catalog_entry("chun")
    ctx = SchemeContext(d=2, c=1.0, bindings={"alpha": 2.0 - 9.3j})
    R = instantiate(entry.ast, ctx)
    assert (R.num.degree, R.den.degree) == (12, 11)
    rng = np.random.default_rng(0xC4C4)
    for _ in range(8):
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        direct = evaluate_scheme(entry.ast, ctx, z)
        assert abs(direct - rat_eval(R, z)) <= 1e-10 * (1.0 + abs(direct))


def test_cancelled_denominator_is_a_division_by_zero_map():
    ctx = SchemeContext(d=2, c=1.0, bindings={})
    for text in ("next = z / (p(z) - p(z));",
                 "y = p(z);\nnext = z / (y - p(z));"):
        with pytest.raises(DivisionByZeroMap):
            instantiate(parse_scheme(text), ctx)


def _eager_instantiate(node, ctx, env):
    """Reference fold of a scheme through the public, eagerly reducing
    rat_combine: every operation's result is reduced on the spot."""
    if isinstance(node, Scheme):
        env = {}
        for name, expr in node.steps:
            env[name] = _eager_instantiate(expr, ctx, env)
        return env["next"]
    if isinstance(node, Var):
        return poly_map(Polynomial.identity())
    if isinstance(node, Const):
        return constant_map(node.value)
    if isinstance(node, Param):
        return constant_map(complex(ctx.bindings[node.name]))
    if isinstance(node, Ref):
        return env[node.name]
    if isinstance(node, Deriv):
        pk = target_derivative(ctx.d, ctx.c, node.order)
        return rat_combine("compose", poly_map(pk),
                           _eager_instantiate(node.arg, ctx, env))
    assert isinstance(node, BinOp)
    op = {"+": "add", "-": "sub", "*": "mul", "/": "div"}[node.op]
    return rat_combine(op, _eager_instantiate(node.lhs, ctx, env),
                       _eager_instantiate(node.rhs, ctx, env))


def _outcome(build):
    try:
        form = build()
    except NdynError as exc:
        return type(exc)
    return form


REFUSED = ("steffensen", "traub-steffensen", "chun")


@pytest.mark.parametrize("name", [n for n in catalog_names()
                                  if catalog_entry(n).ast is not None])
def test_step_reduction_matches_eager_reference(name):
    entry = catalog_entry(name)
    rng = np.random.default_rng(0x5EED + len(name))
    for draw in range(4):
        c = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        bindings = {p: complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
                    for p in entry.params}
        if name == "chun" and draw == 0:
            bindings = {"alpha": 0.0}
        refused = name in REFUSED and bindings != {"alpha": 0.0}
        ctx = SchemeContext(d=2, c=c, bindings=bindings)
        want = _outcome(lambda: extract_normal_form(mobius_conjugate(
            _eager_instantiate(entry.ast, ctx, {}), standard_tau(c))))
        got = _outcome(lambda: conjugated_form(name, bindings, c=c))
        where = f"{name} {bindings} c={c:.4g}"
        if refused:
            assert isinstance(want, type) and got is want, where
            continue
        assert not isinstance(want, type), where
        assert not isinstance(got, type), f"{where}: {got.__name__}"
        assert (got.n, got.k, got.sign) == (want.n, want.k, want.sign), where
        for u, v in zip(got.a, want.a):
            assert abs(u - v) <= 1e-9 * (1.0 + abs(v)), where


def test_target_derivative_orders():
    p0 = target_derivative(3, 2.0, 0)     # z^3 - 2
    assert list(p0.coeffs) == [-2.0, 0.0, 0.0, 1.0]
    p2 = target_derivative(3, 2.0, 2)     # 6z
    assert list(p2.coeffs) == [0.0, 6.0]
    # every order 0..d + 1 against the closed form, exactly: z^d - c, then
    # d!/(d - k)! z^(d - k), then the zero polynomial
    for d in (2, 3, 4):
        want = [[-2.0] + [0.0] * (d - 1) + [1.0]]
        want += [[0.0] * (d - k) + [math.perm(d, k)] for k in range(1, d + 1)]
        want.append([])
        assert [target_derivative(d, 2.0, k).coeffs.tolist()
                for k in range(d + 2)] == want


def test_zero_c_rejected():
    with pytest.raises(ZeroC):
        instantiate(catalog_entry("newton").ast, SchemeContext(d=2, c=0.0))


# the schemes that have a conjugated operator, and half-decade moduli of c
# from 1e-8 to 1e8 on the real axis and on the ray (0.6 - 0.8i)
CONJUGATED = [("newton", {}), ("traub", {}), ("ostrowski", {}),
              ("jarratt", {}), ("wang", {}), ("king", {"beta": 1.0}),
              ("amat", {"beta": 0.7}), ("chebyshev-halley", {"alpha": 0.3}),
              ("chun", {"alpha": 0.0})]
C_GRID = [m * ray for ray in (1.0, 0.6 - 0.8j)
          for m in 10.0 ** (np.arange(-16, 17) / 2)]


@pytest.mark.parametrize("name,bindings", CONJUGATED,
                         ids=[name for name, _ in CONJUGATED])
def test_scheme_forms_do_not_depend_on_c(name, bindings):
    # the conjugated operator of a scheme whose constants carry no units of
    # z is one form at every c
    want = conjugated_form(name, bindings)
    for c in C_GRID:
        _assert_same_form(conjugated_form(name, bindings, c=c), want,
                          f"{name} at c = {c}")


def _assert_same_form(got, want, where):
    assert (got.n, got.k, got.sign) == (want.n, want.k, want.sign), where
    for u, v in zip(got.a, want.a):
        assert abs(u - v) <= 1e-9 * (1.0 + abs(v)), where


# every tenth decade of |c| from 1e-323 (subnormal) to 1e307, on arg c = 0.37
WIDE_C = [cmath.rect(10.0 ** e, 0.37) for e in range(-323, 308, 10)]


@pytest.mark.parametrize("name,bindings", CONJUGATED,
                         ids=[name for name, _ in CONJUGATED])
def test_scheme_forms_at_any_c_are_the_c1_form_or_refused(name, bindings):
    # a term that underflows in the fold refuses the build instead of
    # vanishing: king and ostrowski once gave Newton's form at |c| <= 1e-162
    want = conjugated_form(name, bindings)
    for c in WIDE_C:
        try:
            got = conjugated_form(name, bindings, c=c)
        except NdynError:
            continue
        _assert_same_form(got, want, f"{name} at c = {c}")


# the parameters of the catalog schemes, and moduli 10^(k/2), k = -4..4,
# on the real axis and on the ray (0.6 - 0.8i)
UNIT_BINDINGS = {"beta": 1.0, "alpha": 0.3, "gamma": 1.0}
MAP_GRID = [m * ray for ray in (1.0, 0.6 - 0.8j)
            for m in 10.0 ** (np.arange(-4, 5) / 2)]


def test_instantiate_keeps_its_degrees_at_every_c():
    # instantiate reads the map off the fold in u = z/sqrt(c), so the
    # degrees are those at c = 1 and the values are the scheme's
    rng = np.random.default_rng(0xC0DE)
    for name in SCHEMES:
        entry = catalog_entry(name)
        bindings = {p: UNIT_BINDINGS[p] for p in entry.params}
        R = instantiate(entry.ast, SchemeContext(d=2, c=1.0,
                                                 bindings=bindings))
        want = (R.num.degree, R.den.degree)
        for c in MAP_GRID:
            ctx = SchemeContext(d=2, c=c, bindings=bindings)
            R = instantiate(entry.ast, ctx)
            where = f"{name} at c = {c}"
            assert (R.num.degree, R.den.degree) == want, where
            s = abs(c) ** 0.5
            z = s * (rng.uniform(-1.5, 1.5, 16)
                     + 1j * rng.uniform(-1.5, 1.5, 16))
            poles = np.roots(R.den.coeffs[::-1])
            z = z[np.abs(z[:, None] - poles).min(axis=1, initial=np.inf)
                  >= 0.1 * s]
            assert z.size >= 8, where
            v = evaluate_scheme(entry.ast, ctx, z)
            err = np.abs(rat_eval(R, z) - v)
            assert np.all(err <= 1e-7 * (s + np.abs(v))), where
    # past the grid too: king at beta = 1 keeps (6, 5) at c = 1e4
    R = instantiate(catalog_entry("king").ast,
                    SchemeContext(d=2, c=1e4, bindings={"beta": 1.0}))
    assert (R.num.degree, R.den.degree) == (6, 5)


def test_scheme_forms_build_at_extreme_c():
    form = conjugated_form("jarratt", c=1e-20)
    assert (form.n, form.k) == (4, 0)
    with pytest.raises(ZeroC, match="the target family needs c != 0"):
        conjugated_form("jarratt", c=0.0)
    # a subnormal c is refused as well, and instantiate shares the fold
    with pytest.raises(NdynError, match="the smallest normal float"):
        conjugated_form("jarratt", c=1e-310)
    king = SchemeContext(d=2, c=1e-200, bindings={"beta": 1.0})
    with pytest.raises(NdynError, match="underflowed to zero"):
        instantiate(catalog_entry("king").ast, king)
    # a little above, king's fold leaves subnormal coefficients, whose norm
    # is too small to scale
    with pytest.raises(NdynError, match="outside the normal float range"):
        conjugated_form("king", {"beta": 1.0}, c=1e-157)


def test_a_constant_with_units_of_z_keeps_the_form_moving_with_c():
    scheme = parse_scheme("next = z - p(z)/p'(z) + 0.1*p(z)*p(z)*z;")
    assert abs(conjugated_form(scheme, c=1.0).a[1] - 6.8) <= 1e-12
    assert abs(conjugated_form(scheme, c=4.0).a[1] - 18.8) <= 1e-12


def test_unknown_method():
    with pytest.raises(UnknownMethod):
        catalog_entry("household")


def test_catalog_names_stable():
    names = catalog_names()
    assert names[0] == "newton"
    assert len(names) == len(set(names)) == 17
    assert catalog_names() == names


def test_king_coefficients():
    form = conjugated_form("king", {"beta": -1.0})
    assert (form.n, form.k) == (4, 2)
    assert abs(form.a[0] - 3.0) <= 1e-12
    assert abs(form.a[1] - 3.0) <= 1e-12


def test_vanishing_bottom_coefficient_collapses_into_the_power():
    # the fourth coefficient of this family is (5b - 1)/b, zero at b = 1/5;
    # the factor z it releases joins the z^n block
    form = conjugated_form("m4", {"beta": 0.2})
    assert (form.n, form.k) == (5, 3)
    assert [round(v.real, 9) for v in form.a] == [6.0, 14.0, 14.0]

    form = conjugated_form("os2", {"a": -2.8})
    assert (form.n, form.k) == (6, 2)
    assert abs(form.a[0] - 3.2) <= 1e-12
    assert abs(form.a[1] - 2.8) <= 1e-12

    # os3's a_3 and a_4 vanish at a = -2.8 too; 1e-12 away a_3 is ~5e-12
    # and folds all the same, as extraction trims it
    form = conjugated_form("os3", {"a": -2.8 + 1e-12})
    assert (form.n, form.k) == (6, 2)
    assert extract_normal_form(form.reconstruct()) == form

    # a_3 = 2 - 4c and a_4 = 4b - 3 vanish at c = 1/2 and b = 3/4
    form = conjugated_form("c-family", {"c": 0.5})
    assert (form.n, form.k) == (4, 2)
    assert max(abs(x - y) for x, y in zip(form.a, (4.0, 5.0))) <= 1e-12
    form = conjugated_form("os4", {"b": 0.75})
    assert (form.n, form.k) == (5, 3)
    assert max(abs(x - y) for x, y in zip(form.a, (2.0, -2.0, -6.0))) <= 1e-12


def test_pole_of_a_closed_form_names_its_parameter():
    with pytest.raises(ZeroDenominator, match="beta"):
        conjugated_form("m4", {"beta": 0.0})


def test_form_family_needs_its_binding():
    with pytest.raises(UnboundIdentifier, match="'a'"):
        conjugated_form("os3")


# a(t) of every form family, written out apart from the catalog's table
CLOSED_FORMS = {
    "c-family": ("c", 3, lambda t: (4, 5, 2 - 4 * t)),
    "m4": ("beta", 4, lambda t: (6, 14, 14, 5 - 1 / t)),
    "os2": ("a", 5, lambda t: (6 + t, 14 + 4 * t, 14 + 5 * t)),
    "os3": ("a", 4, lambda t: (6 + t, 14 + 4 * t, 14 + 5 * t,
                               5 * (14 + 5 * t) ** 2
                               / ((9 * t + 76) * t + 196))),
    "os4": ("b", 4, lambda t: (2, -2, -6, 4 * t - 3)),
    "os5": ("a", 4, lambda t: (6 + t, 14 + 4 * t, 14 + 5 * t, -35 - 10 * t)),
}


def _close(got, want):
    assert len(got) == len(want)
    for u, v in zip(got, want):
        assert abs(u - v) <= 1e-12 * (1.0 + abs(v)), (got, want)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_form_families_follow_their_closed_forms(name):
    param, n, closed = CLOSED_FORMS[name]
    entry = catalog_entry(name)
    assert entry.form is not None and entry.params == (param,)
    # os5's members lose one coefficient with the (z - 1) they cancel
    assert entry.nk == (n, len(closed(1.0)) - (name == "os5"))
    rng = np.random.default_rng(0xC105ED + n)
    for t in rng.uniform(-3.0, 3.0, (3, 2)) @ (1.0, 1.0j):
        want = closed(t)
        form = conjugated_form(name, {param: t})
        if name == "os5":
            # the vanishing sum cancels (z - 1); the map itself is unchanged
            z = 0.6 + 0.3j
            v = (z ** n * np.polyval((1,) + want, z)
                 / np.polyval(want[::-1] + (1,), z))
            assert abs(rat_eval(form.reconstruct(), z) - v) <= 1e-9 * abs(v)
        else:
            assert (form.n, form.sign) == (n, 1)
            _close(form.a, want)
        # the stability producer gives the same reduced member
        if name == "m4":
            # charted by alpha = a_4, in which the family is affine
            assert entry.stability_param == "alpha"
            member = entry.stability_producer(want[-1])
            assert (member.n, member.sign) == (n, 1)
            _close(member.a, form.a)
        else:
            assert entry.stability_param == param
            assert entry.stability_producer(t) == form
        assert form.degenerate == (name == "os5")


def test_degenerate_family_is_the_exact_deflation():
    # P / (z - 1) of os5 has the closed form z^3 + (7 + a) z^2
    # + (21 + 5 a) z + 35 + 10 a, met to a few units of rounding
    rng = np.random.default_rng(0x05)
    for a in [2.0 - 9.3j] + list(rng.uniform(-10.0, 10.0, (20, 2)) @ (1, 1j)):
        form = conjugated_form("os5", {"a": a})
        want = (7.0 + a, 21.0 + 5.0 * a, 35.0 + 10.0 * a)
        for u, v in zip(form.a, want):
            assert abs(u - v) <= 8 * np.finfo(float).eps * (1.0 + abs(v))


def test_degenerate_family_reduces_on_build():
    form = conjugated_form("os5", {"a": 1.0})
    assert form.sign == -1
    assert form.degenerate
    assert (form.n, form.k) == (4, 3)
    want = (8.0, 26.0, 45.0)
    assert max(abs(x - y) for x, y in zip(form.a, want)) <= 1e-9


# The coefficient bytes of every catalog scheme instantiated at d = 2, 3
# and 4, three seeded (c, bindings) draws each, and the verdicts of the
# sampled symmetry checks on a seeded corpus: check_scheme_lambda_odd on
# every scheme at d = 2, 3, 4 and trials 20, 50; check_iota_symmetry
# (trials 20 and 10) on the reconstructed map of every catalog entry that
# builds at three seeded parameters.  `PYTHONPATH=src python
# tests/test_builder.py` prints the current digests, the degrees of each
# instantiate case and each verdict.
INSTANTIATE_PIN = "518706e931b293c8040891845a4b06aa4e7974160060388a8c18fee1f2089bd2"
VERDICTS_PIN = "f8a8f0cfd6235f824fac5b9c5572132c9e10bb3127ee87075716695cb93bdc08"

SCHEMES = [n for n in catalog_names() if catalog_entry(n).ast is not None]


def _instantiate_corpus():
    """(scheme, d, draw, ast, ctx) for each corpus case."""
    rng = np.random.default_rng(0x1257A7E)
    for name in SCHEMES:
        entry = catalog_entry(name)
        for d in (2, 3, 4):
            # the third draw is real, so signed zeros fill the imaginary parts
            for draw, im in enumerate((1.0, 1.0, 0.0)):
                c = complex(rng.uniform(-3.0, 3.0),
                            im * rng.uniform(-3.0, 3.0))
                bindings = {p: complex(rng.uniform(-2.0, 2.0),
                                       im * rng.uniform(-1.0, 1.0))
                            for p in entry.params}
                yield name, d, draw, entry.ast, SchemeContext(
                    d=d, c=c, bindings=bindings)


def _instantiate_digest():
    h = hashlib.sha256()
    for *_, ast, ctx in _instantiate_corpus():
        R = instantiate(ast, ctx)
        h.update(R.num.coeffs.tobytes() + b"/" + R.den.coeffs.tobytes() + b";")
    return h.hexdigest()


def _verdicts():
    """(case, check, verdict) of each sampled symmetry check of the corpus."""
    out = []
    rng = np.random.default_rng(0x5E7D1C7)
    for name, d, draw, ast, ctx in _instantiate_corpus():
        for trials in (20, 50):
            out.append((f"{name} d={d} draw={draw}",
                        f"check_scheme_lambda_odd trials={trials}",
                        check_scheme_lambda_odd(ast, ctx, trials)))
    for name in catalog_names():
        entry = catalog_entry(name)
        for draw in range(3):
            t = complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0))
            bindings = {p: t for p in entry.params}
            try:
                R = conjugated_form(name, bindings).reconstruct()
            except NdynError:
                continue
            for trials in (20, 10):
                out.append((f"{name} draw={draw}",
                            f"check_iota_symmetry trials={trials}",
                            check_iota_symmetry(R, trials)))
    return out


def _verdicts_digest(rows):
    return hashlib.sha256(bytes(v for *_, v in rows)).hexdigest()


def test_instantiate_matches_pin():
    assert _instantiate_digest() == INSTANTIATE_PIN


def test_symmetry_verdicts_match_pin():
    rows = _verdicts()
    assert 0 < [v for *_, v in rows].count(False) < len(rows)
    assert _verdicts_digest(rows) == VERDICTS_PIN


if __name__ == "__main__":
    print(_instantiate_digest())
    verdicts = _verdicts()
    print(_verdicts_digest(verdicts))
    # the (num, den) degrees of each corpus case and each verdict, so a
    # re-pin shows in a diff of this output which cases it changes
    for name, d, draw, ast, ctx in _instantiate_corpus():
        R = instantiate(ast, ctx)
        print(f"{name} d={d} draw={draw}: ({R.num.degree}, {R.den.degree})")
    for case, check, verdict in verdicts:
        print(f"{case} {check}: {verdict}")
