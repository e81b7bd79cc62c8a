"""Scheme DSL, operator assembly on p(z) = z^d - c, and the method catalog.

A scheme is a short program describing one step of an iterative root finder:

    y = z - p(z)/p'(z);
    next = y - p(y)/p'(z);

Statements bind intermediate values; the last statement must bind ``next``.
``p`` stands for the target polynomial z^d - c and apostrophes take its
derivatives, so a single scheme text serves every degree d and constant c.
Instantiating a scheme substitutes the explicit polynomial and performs the
rational arithmetic bottom-up without cancelling common factors; the parser
shares equal subexpressions, so each is built once, and each named step is
reduced once, so the iteration operator comes out as a reduced RationalMap.
"""

from __future__ import annotations

import cmath
import re
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import (DivisionByZeroMap, NdynError, NotFixingOneZeroInfinity,
                     NotPalindromic, SchemeSyntaxError, UnboundIdentifier,
                     UnknownMethod, ZeroC, ZeroDenominator)
from .conjugate import (CHECK_SEED, OperatorForm, extract_normal_form,
                        make_form, mobius_conjugate, rotations,
                        sampled_identity, standard_tau)
from .poly import (Polynomial, RationalMap, _substitute, constant_map,
                   rat_make)

__all__ = [
    "Var", "Const", "Param", "Deriv", "BinOp", "Ref", "Scheme",
    "SchemeContext", "CatalogEntry", "FormFamily", "parse_scheme",
    "instantiate", "evaluate_scheme", "check_scheme_lambda_odd",
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

# The most tokens one statement's expression (between = and ;) may hold.
# Parsing and folding recurse once per level of nesting, so the bound keeps
# the deepest statement, 399 unary minuses, within Python's recursion limit.
MAX_STATEMENT_TOKENS = 400

# The number grammar of scheme texts and of complex values on the command
# line: ASCII digits with at most one decimal point, then an optional i.
NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)i?"
_NUMBER = re.compile(NUMBER)


def number_value(literal: str) -> complex:
    """The value of a NUMBER, which may carry a leading sign; one too large
    for a float raises ValueError."""
    value = (complex(0.0, float(literal[:-1])) if literal.endswith("i")
             else complex(float(literal)))
    if not cmath.isfinite(value):
        raise ValueError(f"the number {literal[:16]}... is too large "
                         "for a float")
    return value


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
            try:
                value = number_value(text[i:j])
            except ValueError as e:
                raise SchemeSyntaxError(line, col, str(e)) from None
            tokens.append(_Token("number", text[i:j], line, col, value))
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
        self.nodes: dict = {}   # one object per distinct subexpression

    def share(self, node) -> Node:
        return self.nodes.setdefault(node, node)

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
            end = self.pos
            while self.tokens[end].text not in (";", ""):
                end += 1
            if end - self.pos > MAX_STATEMENT_TOKENS:
                raise SchemeSyntaxError(
                    tok.line, tok.col, f"the statement binding {name!r} has "
                    f"more than {MAX_STATEMENT_TOKENS} tokens")
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
            node = self.share(BinOp(op, node, self.term()))
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = self.share(BinOp(op, node, self.factor()))
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return self.share(Const(tok.value))
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return self.share(BinOp("*", self.share(Const(-1.0 + 0.0j)),
                                    self.factor()))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name == "z":
                return self.share(Var())
            if name == "p":
                order = 0
                while self.peek().kind == "op" and self.peek().text == "'":
                    self.advance()
                    order += 1
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return self.share(Deriv(order, arg))
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                raise UnboundIdentifier(name,
                                        f"line {tok.line}: only p can be applied")
            if nxt.kind == "op" and nxt.text == "'":
                raise SchemeSyntaxError(nxt.line, nxt.col,
                                        "derivatives apply only to p")
            if name in self.bound:
                return self.share(Ref(name))
            if name not in self.params:
                self.params.append(name)
            return self.share(Param(name))
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
    p = Polynomial([-c] + [0.0] * (d - 1) + [1.0])
    for _ in range(order):
        p = p.derivative()
    return p


def _fold(scheme: Scheme, node_value: Callable, close: Callable):
    """Fold a scheme bottom-up, step by step: node_value(node, *operand
    values) values a node and close(value) binds a step.  The memo reads
    id(node), so no node is hashed and each object, shared across steps
    too, is valued once (parse_scheme shares equal subexpressions)."""
    env: dict = {}
    memo: dict = {}

    def value(node):
        v = memo.get(id(node))
        if v is None:
            if isinstance(node, Ref):
                v = env[node.name]
            elif isinstance(node, Deriv):
                v = node_value(node, value(node.arg))
            elif isinstance(node, BinOp):
                v = node_value(node, value(node.lhs), value(node.rhs))
            else:
                v = node_value(node)
            memo[id(node)] = v
        return v

    for name, expr in scheme.steps:
        env[name] = close(value(expr))
    return env["next"]


def instantiate(scheme: Scheme, ctx: SchemeContext) -> RationalMap:
    """The operator as a rational map of z: U(u) = O(s u)/s of _unit_map,
    the fold conjugated_form reads, as O(z) = s U(z/s).  A change of
    variable keeps a reduced map reduced, so the degrees do not depend on
    the size of c; at c = 1 the map is U itself."""
    with np.errstate(over="ignore", invalid="ignore"):
        U, s = _unit_map(scheme, ctx.d, ctx.c, ctx.bindings)
        if s == 1:
            return U
        # z^j takes s^(m+1-j) above and s^(m-j) below, m den's power of z
        num, den = U.num.coeffs, U.den.coeffs
        w = s ** (np.flatnonzero(den)[0] - np.arange(max(num.size, den.size)))
        return RationalMap(Polynomial(s * num * w[:num.size]),
                           Polynomial(den * w[:den.size]))


def _unit_map(scheme: Scheme, d: int, c: complex, bindings: dict) -> tuple:
    """(U, s), s the principal d-th root of c and U(u) = O(s u)/s the
    scheme folded in u = z/s from the table of u^d - 1, one rat_make per
    named step.  c enters only through s, so a scheme whose constants carry
    no units of z folds to one U at every c; a fold in z spans powers of c."""
    if c == 0:                  # as a SchemeContext at c refuses it
        raise ZeroC("the target family needs c != 0")
    if abs(c) < sys.float_info.min:
        raise NdynError(f"the target family needs |c| >= "
                        f"{sys.float_info.min!r}, the smallest normal float")
    s = cmath.sqrt(c) if d == 2 else complex(c) ** (1.0 / d)
    unit = SchemeContext(d=d, c=1.0, bindings=bindings)
    op = _fold(scheme, partial(_instantiate_node, unit, scale=s),
               lambda R: rat_make(R.num, R.den))
    return RationalMap(op.num if s == 1 else Polynomial(op.num.coeffs / s),
                       op.den), s


def _quotient(num: Polynomial, den: Polynomial) -> RationalMap:
    """num/den unreduced, except that an exactly zero numerator becomes 0/1
    so a vanishing term does not carry its denominator into the step."""
    if num.is_zero():
        return RationalMap(Polynomial.zero(), Polynomial.one())
    return RationalMap(num, den)


def _binding(bindings: dict, name: str) -> complex:
    if name not in bindings:
        raise UnboundIdentifier(name, "no binding supplied")
    value = complex(bindings[name])
    if not cmath.isfinite(value):
        raise NdynError(f"parameter {name!r} is bound to {value}, "
                        "which is not finite")
    return value


def _instantiate_node(ctx: SchemeContext, node, *args,
                      scale) -> RationalMap:
    """The node's value as a map of u = z/s that keeps z's units, for ctx
    at c = 1 and s^d = c: the bare z is s u and p^(k)(A/B) is
    s^(d-k) q^(k)((A/s)/B), q = u^d - 1.  At s = 1 no operation scales,
    so the arithmetic is a fold in z at c = 1, bit for bit."""
    if isinstance(node, Var):
        return RationalMap(Polynomial((0.0, scale)), Polynomial.one())
    if isinstance(node, Const):
        return constant_map(node.value)
    if isinstance(node, Param):
        return constant_map(_binding(ctx.bindings, node.name))
    if isinstance(node, Deriv):
        pk = ctx.p(node.order)
        if scale != 1:
            pk = pk * scale ** (ctx.d - node.order)
        if isinstance(node.arg, Var):      # p^(k)(z) is p^(k) itself
            return _quotient(pk, Polynomial.one())
        # p^(k)(A/B) = (sum_i p_i A^i B^(m-i)) / B^m
        inner = args[0]
        A = inner.num if scale == 1 else Polynomial(inner.num.coeffs / scale)
        return _quotient(*_substitute((pk, Polynomial.one()), A, inner.den,
                                      max(pk.degree, 0)))
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
    large.  Each node object is evaluated once over all the points.
    Where some step divides by exact zero, the array holds NaN and a
    scalar z raises ZeroDivisionError.
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


def check_scheme_lambda_odd(scheme: Scheme, ctx: SchemeContext,
                            trials: int = 50) -> bool:
    """Sampled test of O(lam z) = lam O(z) for the ctx.d-th roots of unity
    lam != 1 (seed CHECK_SEED + ctx.d), the scheme evaluated pointwise over
    all the sampled points at once, so no coefficient-level rounding of an
    expanded high-degree operator enters it.
    """
    return sampled_identity(partial(evaluate_scheme, scheme, ctx),
                            rotations(ctx.d), trials, CHECK_SEED + ctx.d)


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: tuple
    nk: Optional[tuple] = None     # (n, k) of the conjugated d=2 operator
    ast: Optional[Scheme] = None   # parsed scheme (scheme entries)
    form: Optional["FormFamily"] = None  # its members (form entries)
    # linear coordinate used for stability regions, when one exists
    stability_param: Optional[str] = None
    # t -> OperatorForm in that coordinate; a form entry's is a FormFamily,
    # which affine_fit reads through its closed form, solving no roots
    stability_producer: Optional[Callable] = None


# The schemes: name -> (text, (n, k) of the conjugated d = 2 operator or
# None when it is not palindromic, whether its parameter (if any) is
# charted as a stability family).  The parameters are read from the parse.
_SCHEMES = {
    "newton": ("next = z - p(z)/p'(z);", (2, 0), True),
    "traub": ("y = z - p(z)/p'(z);\n"
              "next = y - p(y)/p'(z);", (3, 1), True),
    "steffensen": ("next = z - p(z)*p(z) / (p(z + p(z)) - p(z));", None,
                   False),
    "traub-steffensen": ("w = z + gamma*p(z);\n"
                         "next = z - gamma*p(z)*p(z) / (p(w) - p(z));", None,
                         False),
    "ostrowski": ("y = z - p(z)/p'(z);\n"
                  "next = y - p(y)/p'(z) * p(z)/(p(z) - 2*p(y));", (4, 0),
                  True),
    "king": ("y = z - p(z)/p'(z);\n"
             "next = y - p(y)/p'(z) * (p(z) + (beta + 2)*p(y))"
             "/(p(z) + beta*p(y));", (4, 2), True),
    "jarratt": ("y = z - (2/3) * p(z)/p'(z);\n"
                "j = (3*p'(y) + p'(z)) / (2*(3*p'(y) - p'(z)));\n"
                "next = z - j * p(z)/p'(z);", (4, 0), True),
    "wang": ("y = z - (2/3) * p(z)/p'(z);\n"
             "j = (3*p'(y) + p'(z)) / (6*p'(y) - 2*p'(z));\n"
             "w = z - j * p(z)/p'(z);\n"
             "next = w - p(w)/p'(w);", (8, 0), True),
    "amat": ("u = p(z)/p'(z);\n"
             "h = (p'(z - (2/3)*u) - p'(z)) / p'(z);\n"
             "next = z - u + (3/4)*u*h * (1 + beta*h)"
             "/(1 + (3/2 + beta)*h);", (4, 2), True),
    "chun": ("y = z - (2/3) * p(z)/p'(z);\n"
             "j = (3*p'(y) + p'(z)) / (2*(3*p'(y) - p'(z)));\n"
             "w = z - j * p(z)/p'(z);\n"
             "next = w - p(w) / (alpha*(w - z)*(w - y)"
             " + (3/2)*j*p'(y) + (1 - (3/2)*j)*p'(z));", (8, 0), False),
    "chebyshev-halley": ("y = z - p(z)/p'(z);\n"
                         "L = p(z)*p''(z) / (p'(z)*p'(z));\n"
                         "next = y - (1/2) * L/(1 - alpha*L) * p(z)/p'(z);",
                         (3, 1), True),
}


# The form families: d = 2 normal forms whose coefficients a_1..a_k are
# closed forms in one parameter t.
# name -> (parameter, (n, k) of a generic member, t -> (a_1..a_k))
_FORMS = {
    "c-family": ("c", (3, 3), lambda c: (4.0, 5.0, 2.0 - 4.0 * c)),
    "m4": ("beta", (4, 4),
           lambda beta: (6.0, 14.0, 14.0, (5.0 * beta - 1.0) / beta)),
    "os2": ("a", (5, 3), lambda a: (6.0 + a, 14.0 + 4.0 * a, 14.0 + 5.0 * a)),
    "os3": ("a", (4, 4),
            lambda a: (6.0 + a, 14.0 + 4.0 * a, 14.0 + 5.0 * a,
                       5.0 * (14.0 + 5.0 * a) ** 2
                       / (196.0 + 76.0 * a + 9.0 * a * a))),
    "os4": ("b", (4, 4), lambda b: (2.0, -2.0, -6.0, 4.0 * b - 3.0)),
    # the coefficient sum vanishes identically, so make_form divides the
    # shared factor (z - 1) out of every member, which loses one
    # coefficient and carries a global sign -1
    "os5": ("a", (4, 3),
            lambda a: (6.0 + a, 14.0 + 4.0 * a, 14.0 + 5.0 * a,
                       -35.0 - 10.0 * a)),
}


@dataclass(frozen=True)
class FormFamily:
    """A form family: the members z^n P / P-hat of a closed form
    t -> (a_1..a_k) in the parameter `param`.

    Calling it at t gives make_form(n, a(t)): the factors P shares with
    P-hat at z = +-1 divide out (c-family at c = 0 is Halley's
    z^3 (z + 2)/(1 + 2 z), as chebyshev-halley at alpha = 0), and a
    vanishing bottom coefficient of P joins z^n.  closed_form(t) hands out
    the unreduced (n, a(t)) itself, so a fit reads it with no root solve.
    A member is z^n P / P-hat by construction, so one whose roots fail
    make_form's coefficient guard has an a(t) too large to solve (near a
    pole, or at a huge parameter); it is refused with NdynError, as an
    overflowing closed form is.
    """
    name: str
    param: str
    n: int
    coeffs: Callable

    def closed_form(self, t) -> tuple:
        """(n, a(t)) as the closed form gives it; a pole raises
        ZeroDenominator and an overflow NdynError."""
        try:
            return self.n, self.coeffs(complex(t))
        except ZeroDivisionError:
            raise ZeroDenominator(f"the closed form of {self.name} divides "
                                  f"by zero at this {self.param}") from None
        except OverflowError:
            raise NdynError(f"the closed form of {self.name} overflows at "
                            f"this {self.param}") from None

    def __call__(self, t) -> OperatorForm:
        try:
            return make_form(*self.closed_form(t))
        except NotPalindromic:
            raise NdynError(f"the coefficients of {self.name} at this "
                            f"{self.param} are too large for its roots to "
                            f"be solved") from None


def _scheme_member(method, param: Optional[str], bindings: dict,
                   c: complex, t) -> OperatorForm:
    """The normal form of a scheme (a catalog name or a parsed ``Scheme``)
    at param = t over `bindings`; a parameterless scheme (param None)
    ignores t."""
    if param is not None:
        bindings = {**bindings, param: complex(t)}
    return conjugated_form(method, bindings, c=c)


def _scheme_entry(name, text, nk, stability) -> CatalogEntry:
    ast = parse_scheme(text)
    param = ast.params[0] if ast.params else None
    return CatalogEntry(
        name=name, params=ast.params, nk=nk, ast=ast,
        stability_param=param if stability else None,
        stability_producer=(partial(_scheme_member, name, param, {}, 1.0)
                            if stability else None))


def _form_entry(name, param, nk, coeffs) -> CatalogEntry:
    form = FormFamily(name, param, nk[0], coeffs)
    # m4 is charted by alpha = a_4 = (5 beta - 1)/beta, in which a is affine
    chart = form if name != "m4" else FormFamily(
        name, "alpha", nk[0], lambda alpha: (6.0, 14.0, 14.0, alpha))
    return CatalogEntry(name=name, params=(param,), nk=nk, form=form,
                        stability_param=chart.param, stability_producer=chart)


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
    of a parsed ``Scheme``.  An operator that is the constant sqrt(c)
    conjugates to the constant infinity, which is refused.

    A scheme's U(u) = O(s u)/s from _unit_map, the fold instantiate reads,
    is conjugated by standard_tau(1); with s = sqrt(c), the root
    standard_tau takes, that is O conjugated by standard_tau(c).  So a
    scheme whose constants carry no units of z has one form at every c.
    """
    bindings = dict(bindings or {})
    if isinstance(method, str):
        entry = catalog_entry(method)
        if entry.form is not None:
            return entry.form(_binding(bindings, entry.params[0]))
        method = entry.ast
    with np.errstate(over="ignore", invalid="ignore"):
        U, _ = _unit_map(method, 2, c, bindings)
        try:
            conj_map = mobius_conjugate(U, standard_tau(1.0))
        except ZeroDenominator:
            raise NotFixingOneZeroInfinity(
                "the operator is the constant sqrt(c), so its conjugate is "
                "the constant infinity, which does not fix 0") from None
    return extract_normal_form(conj_map)
