"""Scheme DSL, operator assembly on p(z) = z^d - c, and the method catalog.

A scheme is a short program describing one step of an iterative root finder:

    y = z - p(z)/p'(z);
    next = y - p(y)/p'(z);

Statements bind intermediate values; the last statement must bind ``next``.
``p`` stands for the target polynomial z^d - c and apostrophes take its
derivatives, so a single scheme text serves every degree d and constant c.
Instantiating a scheme substitutes the explicit polynomial and performs the
rational arithmetic bottom-up without cancelling common factors; each
distinct subexpression is built once and each named step is reduced once,
so the iteration operator comes out as a reduced RationalMap.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import (DivisionByZeroMap, SchemeSyntaxError, UnboundIdentifier,
                     UnknownMethod, ZeroC, ZeroDenominator)
from .conjugate import (CHECK_SEED, OperatorForm, check_lambda_odd,
                        extract_normal_form, make_form, mobius_conjugate,
                        rotations, sampled_identity, standard_tau)
from .poly import (Polynomial, RationalMap, _substitute, constant_map,
                   identity_map, rat_make)

__all__ = [
    "Var", "Const", "Param", "Deriv", "BinOp", "Ref", "Scheme",
    "SchemeContext", "CatalogEntry", "parse_scheme", "instantiate",
    "evaluate_scheme", "check_lambda_odd", "check_scheme_lambda_odd",
    "catalog_entry", "catalog_names", "conjugated_form", "target_derivative",
]

# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """The iteration variable z."""


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Deriv:
    """p^(order) applied to a subexpression."""
    order: int
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Ref:
    """Reference to a previously bound step."""
    name: str


Node = object


@dataclass(frozen=True)
class Scheme:
    """Ordered step bindings; the last one is named ``next``."""
    steps: tuple   # of (name, Node)
    params: tuple  # parameter names, in order of first use


# --------------------------------------------------------------------------
# lexer / parser
# --------------------------------------------------------------------------

_OPS = set("+-*/=();'")

# The number grammar of scheme texts and of complex values on the command
# line: ASCII digits with at most one decimal point, then an optional i.
NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)i?"
_NUMBER = re.compile(NUMBER)


def number_value(literal: str) -> complex:
    """The value of a NUMBER, which may carry a leading sign."""
    if literal.endswith("i"):
        return complex(0.0, float(literal[:-1]))
    return complex(float(literal))


class _Token:
    __slots__ = ("kind", "text", "value", "line", "col")

    def __init__(self, kind, text, line, col, value=None):
        self.kind = kind      # ident | number | op | eof
        self.text = text
        self.value = value
        self.line = line
        self.col = col


def _lex(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        number = _NUMBER.match(text, i)
        if number:
            j = number.end()
            tokens.append(_Token("number", text[i:j], line, col,
                                 number_value(text[i:j])))
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < len(text) and (text[j].isalpha() or text[j] == "_"
                                     or "0" <= text[j] <= "9"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
        elif ch in _OPS:
            j = i + 1
            tokens.append(_Token("op", ch, line, col))
        else:
            raise SchemeSyntaxError(line, col, f"unexpected character {ch!r}")
        col += j - i
        i = j
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.bound: list[str] = []
        self.params: list[str] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise SchemeSyntaxError(tok.line, tok.col,
                                    f"expected {op!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def parse(self) -> Scheme:
        steps = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                raise SchemeSyntaxError(tok.line, tok.col,
                                        "a statement must start with a name")
            name = self.advance().text
            if name in ("z", "p"):
                raise SchemeSyntaxError(tok.line, tok.col,
                                        f"{name!r} is reserved and cannot be rebound")
            self.expect_op("=")
            expr = self.expr()
            self.expect_op(";")
            if name in self.bound:
                raise SchemeSyntaxError(tok.line, tok.col,
                                        f"step {name!r} is bound twice")
            self.bound.append(name)
            steps.append((name, expr))
        if not steps:
            tok = self.peek()
            raise SchemeSyntaxError(tok.line, tok.col, "empty scheme")
        if steps[-1][0] != "next":
            tok = self.peek()
            raise SchemeSyntaxError(tok.line, tok.col,
                                    "the last statement must bind 'next'")
        return Scheme(steps=tuple(steps), params=tuple(self.params))

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Const(tok.value)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return BinOp("*", Const(-1.0 + 0.0j), self.factor())
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name == "z":
                return Var()
            if name == "p":
                order = 0
                while self.peek().kind == "op" and self.peek().text == "'":
                    self.advance()
                    order += 1
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Deriv(order, arg)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                raise UnboundIdentifier(name,
                                        f"line {tok.line}: only p can be applied")
            if nxt.kind == "op" and nxt.text == "'":
                raise SchemeSyntaxError(nxt.line, nxt.col,
                                        "derivatives apply only to p")
            if name in self.bound:
                return Ref(name)
            if name not in self.params:
                self.params.append(name)
            return Param(name)
        raise SchemeSyntaxError(tok.line, tok.col,
                                f"unexpected {tok.text or 'end of input'!r}")


def parse_scheme(text: str) -> Scheme:
    return _Parser(_lex(text)).parse()


# --------------------------------------------------------------------------
# instantiation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeContext:
    """Target polynomial z^d - c plus parameter bindings.

    p^(0), ..., p^(d + 1) are built once, here, and both interpreters read
    them through ``p``.
    """
    d: int
    c: complex
    bindings: dict = field(default_factory=dict)
    derivatives: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("degree d must be at least 2")
        if self.c == 0:
            raise ZeroC("the target family needs c != 0")
        object.__setattr__(self, "derivatives", tuple(
            target_derivative(self.d, self.c, k) for k in range(self.d + 2)))

    def p(self, order: int) -> Polynomial:
        """p^(order); every order above d is the zero polynomial."""
        return self.derivatives[min(order, self.d + 1)]


def target_derivative(d: int, c: complex, order: int) -> Polynomial:
    """The polynomial p^(order) for p(z) = z^d - c."""
    if order == 0:
        coeffs = [0.0] * (d + 1)
        coeffs[0] = -c
        coeffs[d] = 1.0
        return Polynomial(coeffs)
    if order > d:
        return Polynomial.zero()
    factor = math.perm(d, order)
    coeffs = [0.0] * (d - order + 1)
    coeffs[-1] = factor
    return Polynomial(coeffs)


def _fold(scheme: Scheme, node_value: Callable, close: Callable):
    """Fold a scheme bottom-up, step by step: node_value(node, *operand
    values) values a node and close(value) binds a step.  Nodes compare by
    value and the memo is keyed by the node, so each distinct subexpression
    is valued once, across steps too (a Ref names a step already bound)."""
    env: dict = {}
    memo: dict = {}

    def value(node):
        v = memo.get(node)
        if v is None:
            if isinstance(node, Ref):
                v = env[node.name]
            elif isinstance(node, Deriv):
                v = node_value(node, value(node.arg))
            elif isinstance(node, BinOp):
                v = node_value(node, value(node.lhs), value(node.rhs))
            else:
                v = node_value(node)
            memo[node] = v
        return v

    for name, expr in scheme.steps:
        env[name] = close(value(expr))
    return env["next"]


def instantiate(scheme: Scheme, ctx: SchemeContext) -> RationalMap:
    """Assemble the operator as a rational map, reduced once per named step.

    Each distinct subexpression is built once.  Inside a step the
    numerators and denominators are combined unreduced; a single rat_make
    at the end of each step cancels the common factors from the
    coefficients, so a step costs one reduction and no root solve however
    many operations it holds.
    """
    return _fold(scheme, partial(_instantiate_node, ctx),
                 lambda R: rat_make(R.num, R.den))


def _quotient(num: Polynomial, den: Polynomial) -> RationalMap:
    """num/den unreduced, except that an exactly zero numerator becomes 0/1
    so a vanishing term does not carry its denominator into the step."""
    if num.is_zero():
        return RationalMap(Polynomial.zero(), Polynomial.one())
    return RationalMap(num, den)


def _binding(bindings: dict, name: str) -> complex:
    if name not in bindings:
        raise UnboundIdentifier(name, "no binding supplied")
    return complex(bindings[name])


def _instantiate_node(ctx: SchemeContext, node, *args) -> RationalMap:
    if isinstance(node, Var):
        return identity_map()
    if isinstance(node, Const):
        return constant_map(node.value)
    if isinstance(node, Param):
        return constant_map(_binding(ctx.bindings, node.name))
    if isinstance(node, Deriv):
        pk = ctx.p(node.order)
        if isinstance(node.arg, Var):      # p^(k)(z) is p^(k) itself
            return _quotient(pk, Polynomial.one())
        # p^(k)(A/B) = (sum_i p_i A^i B^(m-i)) / B^m
        inner = args[0]
        return _quotient(*_substitute((pk, Polynomial.one()), inner.num,
                                      inner.den, max(pk.degree, 0)))
    if isinstance(node, BinOp):
        lhs, rhs = args
        n1, d1, n2, d2 = lhs.num, lhs.den, rhs.num, rhs.den
        if node.op == "+":
            return _quotient(n1 * d2 + n2 * d1, d1 * d2)
        if node.op == "-":
            return _quotient(n1 * d2 - n2 * d1, d1 * d2)
        if node.op == "*":
            return _quotient(n1 * n2, d1 * d2)
        if rhs.is_zero():
            raise DivisionByZeroMap("a denominator reduced to the zero map")
        return _quotient(n1 * d2, d1 * n2)
    raise TypeError(f"not a scheme node: {node!r}")


def evaluate_scheme(scheme: Scheme, ctx: SchemeContext, z):
    """The scheme's value at z: a complex number at a scalar z, an array of
    values at an array of points.

    Follows instantiate's step order but never forms coefficient vectors,
    so it stays accurate for schemes whose expanded operator degree is
    large.  Each distinct subexpression is evaluated once over all the
    points.  Where some step divides by exact zero, the array holds NaN and
    a scalar z raises ZeroDivisionError.
    """
    points = np.asarray(z, np.complex128)
    zs = points.reshape(-1)
    undefined = np.zeros(zs.shape, bool)
    with np.errstate(all="ignore"):
        values = _fold(scheme, partial(_eval_node, ctx, zs, undefined),
                       lambda v: v)
    if points.ndim:
        return np.where(undefined, complex(np.nan, np.nan),
                        values).reshape(points.shape)
    if undefined[0]:
        raise ZeroDivisionError("the scheme divides by zero at this point")
    return complex(values[0])


def _eval_node(ctx: SchemeContext, zs: np.ndarray, undefined: np.ndarray,
               node, *args) -> np.ndarray:
    if isinstance(node, Var):
        return zs
    if isinstance(node, Const):
        return np.full(zs.shape, node.value)
    if isinstance(node, Param):
        return np.full(zs.shape, _binding(ctx.bindings, node.name))
    if isinstance(node, Deriv):
        return ctx.p(node.order)(args[0])
    if isinstance(node, BinOp):
        a, b = args
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        undefined |= b == 0
        return a / b
    raise TypeError(f"not a scheme node: {node!r}")


def check_scheme_lambda_odd(scheme: Scheme, ctx: SchemeContext, d: int,
                            trials: int = 50) -> bool:
    """Sampled d-th root-of-unity equivariance test, the scheme evaluated
    pointwise over all the sampled points at once.

    Equivalent in exact arithmetic to check_lambda_odd on the instantiated
    map, but immune to the coefficient-level rounding that expanded
    high-degree operators accumulate.
    """
    return sampled_identity(partial(evaluate_scheme, scheme, ctx),
                            rotations(d), trials, CHECK_SEED + d)


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: tuple
    doc: str
    nk: Optional[tuple] = None     # (n, k) of the conjugated d=2 operator
    ast: Optional[Scheme] = None   # parsed scheme (scheme entries)
    coeffs: Optional[Callable] = None  # t -> (a_1..a_k) (form entries)
    # linear coordinate used for stability regions, when one exists
    stability_param: Optional[str] = None
    stability_producer: Optional[Callable] = None  # t -> OperatorForm

    @property
    def kind(self) -> str:
        return "scheme" if self.ast is not None else "form"


# The schemes: name -> (text, (n, k) of the conjugated d = 2 operator or
# None when it is not palindromic, doc, whether its parameter (if any) is
# charted as a stability family).  The parameters are read from the parse.
_SCHEMES = {
    "newton": ("next = z - p(z)/p'(z);", (2, 0),
               "tangent-line step, quadratic convergence", True),
    "traub": ("y = z - p(z)/p'(z);\n"
              "next = y - p(y)/p'(z);", (3, 1),
              "two Newton steps reusing the first derivative, third order",
              True),
    "steffensen": ("next = z - p(z)*p(z) / (p(z + p(z)) - p(z));", None,
                   "derivative-free step using a forward difference of p",
                   False),
    "traub-steffensen": ("w = z + gamma*p(z);\n"
                         "next = z - gamma*p(z)*p(z) / (p(w) - p(z));", None,
                         "derivative-free family with a scaled difference "
                         "node", False),
    "ostrowski": ("y = z - p(z)/p'(z);\n"
                  "next = y - p(y)/p'(z) * p(z)/(p(z) - 2*p(y));", (4, 0),
                  "Newton step plus a weighted corrector, fourth order", True),
    "king": ("y = z - p(z)/p'(z);\n"
             "next = y - p(y)/p'(z) * (p(z) + (beta + 2)*p(y))"
             "/(p(z) + beta*p(y));", (4, 2),
             "one-parameter fourth-order correctors extending the weighted "
             "step", True),
    "jarratt": ("y = z - (2/3) * p(z)/p'(z);\n"
                "j = (3*p'(y) + p'(z)) / (2*(3*p'(y) - p'(z)));\n"
                "next = z - j * p(z)/p'(z);", (4, 0),
                "two-thirds predictor with a derivative-ratio weight, fourth "
                "order", True),
    "wang": ("y = z - (2/3) * p(z)/p'(z);\n"
             "j = (3*p'(y) + p'(z)) / (6*p'(y) - 2*p'(z));\n"
             "w = z - j * p(z)/p'(z);\n"
             "next = w - p(w)/p'(w);", (8, 0),
             "derivative-ratio predictor followed by a fresh Newton step",
             True),
    "amat": ("u = p(z)/p'(z);\n"
             "h = (p'(z - (2/3)*u) - p'(z)) / p'(z);\n"
             "next = z - u + (3/4)*u*h * (1 + beta*h)"
             "/(1 + (3/2 + beta)*h);", (4, 2),
             "fourth-order family built from a relative derivative increment",
             True),
    "chun": ("y = z - (2/3) * p(z)/p'(z);\n"
             "j = (3*p'(y) + p'(z)) / (2*(3*p'(y) - p'(z)));\n"
             "w = z - j * p(z)/p'(z);\n"
             "next = w - p(w) / (alpha*(w - z)*(w - y)"
             " + (3/2)*j*p'(y) + (1 - (3/2)*j)*p'(z));", (8, 0),
             "sixth-order family mixing secant-like and derivative terms; "
             "only the alpha=0 member conjugates to the mirrored shape",
             False),
    "chebyshev-halley": ("y = z - p(z)/p'(z);\n"
                         "L = p(z)*p''(z) / (p'(z)*p'(z));\n"
                         "next = y - (1/2) * L/(1 - alpha*L) * p(z)/p'(z);",
                         (3, 1),
                         "classical one-parameter family using second "
                         "derivatives", True),
}


# The form families: d = 2 normal forms whose coefficients a_1..a_k are
# closed forms in one parameter t.
# name -> (parameter, (n, k) of a generic member, t -> (a_1..a_k), doc)
_FORMS = {
    "c-family": ("c", (3, 3), lambda c: (4.0, 5.0, 2.0 - 4.0 * c),
                 "cubic-over-cubic family whose last coefficient moves with c"),
    "m4": ("beta", (4, 4),
           lambda beta: (6.0, 14.0, 14.0, (5.0 * beta - 1.0) / beta),
           "three-step frozen-derivative family, quartic normal form"),
    "os2": ("a", (5, 3), lambda a: (6.0 + a, 14.0 + 4.0 * a, 14.0 + 5.0 * a),
            "weighted two-step subfamily with quintic local degree"),
    "os3": ("a", (4, 4),
            lambda a: (6.0 + a, 14.0 + 4.0 * a, 14.0 + 5.0 * a,
                       5.0 * (14.0 + 5.0 * a) ** 2
                       / (196.0 + 76.0 * a + 9.0 * a * a)),
            "subfamily whose last coefficient depends rationally on a"),
    "os4": ("b", (4, 4), lambda b: (2.0, -2.0, -6.0, 4.0 * b - 3.0),
            "subfamily with z=1 superattracting for every parameter"),
    # the coefficient sum vanishes identically, so make_form divides the
    # shared factor (z - 1) out of every member, which loses one
    # coefficient and carries a global sign -1
    "os5": ("a", (4, 3),
            lambda a: (6.0 + a, 14.0 + 4.0 * a, 14.0 + 5.0 * a,
                       -35.0 - 10.0 * a),
            "degenerate subfamily: the coefficient sum vanishes identically"),
}


def _member(name: str, n: int, coeffs: Callable, t) -> OperatorForm:
    """The normal form of a form family at t, by make_form: the factors P
    shares with P-hat at z = +-1 divide out (c-family at c = 0 is Halley's
    z^3 (z + 2)/(1 + 2 z), as chebyshev-halley at alpha = 0), and a
    vanishing bottom coefficient of P joins z^n."""
    try:
        a = coeffs(complex(t))
    except ZeroDivisionError:
        raise ZeroDenominator(f"the closed form of {name} divides by zero "
                              f"at this {_FORMS[name][0]}") from None
    return make_form(n, a)


def _scheme_member(method, param: Optional[str], bindings: dict,
                   c: complex, t) -> OperatorForm:
    """The normal form of a scheme (a catalog name or a parsed ``Scheme``)
    at param = t over `bindings`; a parameterless scheme (param None)
    ignores t."""
    if param is not None:
        bindings = {**bindings, param: complex(t)}
    return conjugated_form(method, bindings, c=c)


def _scheme_entry(name, text, nk, doc, stability) -> CatalogEntry:
    ast = parse_scheme(text)
    param = ast.params[0] if ast.params else None
    return CatalogEntry(
        name=name, params=ast.params, doc=doc, nk=nk, ast=ast,
        stability_param=param if stability else None,
        stability_producer=(partial(_scheme_member, name, param, {}, 1.0)
                            if stability else None))


def _form_entry(name, param, nk, coeffs, doc) -> CatalogEntry:
    # m4 is charted by alpha = a_4 = (5 beta - 1)/beta, in which a is affine
    chart, chart_coeffs = (("alpha", lambda alpha: (6.0, 14.0, 14.0, alpha))
                           if name == "m4" else (param, coeffs))
    return CatalogEntry(
        name=name, params=(param,), doc=doc, nk=nk, coeffs=coeffs,
        stability_param=chart,
        stability_producer=partial(_member, name, nk[0], chart_coeffs))


_CATALOG = {**{name: _scheme_entry(name, *row)
               for name, row in _SCHEMES.items()},
            **{name: _form_entry(name, *row) for name, row in _FORMS.items()}}


def catalog_names() -> tuple:
    return tuple(_CATALOG)


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownMethod(f"unknown method {name!r}; "
                            f"available: {', '.join(_CATALOG)}") from None


def conjugated_form(method, bindings=None, c: complex = 1.0) -> OperatorForm:
    """The palindromic normal form for d=2 of a catalog method (by name) or
    of a parsed ``Scheme``."""
    bindings = dict(bindings or {})
    if isinstance(method, str):
        entry = catalog_entry(method)
        if entry.coeffs is not None:
            return _member(method, entry.nk[0], entry.coeffs,
                           _binding(bindings, entry.params[0]))
        method = entry.ast
    op = instantiate(method, SchemeContext(d=2, c=c, bindings=bindings))
    return extract_normal_form(mobius_conjugate(op, standard_tau(c)))
