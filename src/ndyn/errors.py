"""Exception types shared across the package.

Everything numeric in this library can fail in a structured way (a zero
denominator, an operator that is not in palindromic form, a family whose
coefficients are not affine in the parameter, ...).  Each of those failure
modes gets its own exception class so callers and the CLI can map them to
diagnostics without string matching.
"""


class NdynError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- polynomials


class ZeroPolynomial(NdynError):
    """Root finding was asked for the identically-zero polynomial."""


class NoConvergence(NdynError):
    """The simultaneous root iteration exhausted its sweep budget."""


class ZeroDenominator(NdynError):
    """A rational map was constructed with an identically-zero denominator."""


# --------------------------------------------------------------------- scheme


class SchemeSyntaxError(NdynError):
    """Parse failure in an iteration-scheme source text."""

    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {message}")


class UnboundIdentifier(NdynError):
    """An identifier was used in a way the scheme language cannot resolve."""

    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"unbound identifier {name!r} ({detail})")


class DivisionByZeroMap(NdynError):
    """A scheme divided by a subexpression that reduces to the zero map."""


class UnknownMethod(NdynError):
    """A method name not present in the built-in catalog."""


# ---------------------------------------------------------------- conjugation


class DegenerateMobius(NdynError):
    """Mobius coefficients with ad - bc = 0 do not define a transformation."""


class ZeroC(NdynError):
    """The polynomial family z**d - c needs c != 0 to have simple roots."""


class NotPalindromic(NdynError):
    """The map is not of the mirrored-coefficient form z**n * P(z)/rev(P)(z)."""


class NotFixingOneZeroInfinity(NdynError):
    """Normal-form extraction needs a map fixing 0 and infinity and sending 1 to +-1."""


# ------------------------------------------------------------------- analysis


class NotACycle(NdynError):
    """The supplied point list is not a cycle of the map."""


class PoleAtOne(NdynError):
    """The closed-form root sum has a pole: P(1) = 0."""


class PoleAtMinusOne(NdynError):
    """The closed-form root sum has a pole: P(-1) = 0."""


# ------------------------------------------------------------------ stability


class NonlinearDependence(NdynError):
    """Family coefficients are not affine functions of the parameter."""


class NonRealCoefficients(NdynError):
    """The affine coefficient decomposition a_j = A_j + B_j*t has non-real A_j or B_j."""


class DegenerateFamily(NdynError):
    """1 + sum(a_j) vanishes for every parameter, so z = 1 is never fixed."""


class NotAFixedPoint(NdynError):
    """Multiplier classification was requested at a point the map does not fix."""
