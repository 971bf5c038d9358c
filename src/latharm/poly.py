"""Exact polynomial algebra in three variables over the rationals.

A polynomial is stored as integer numerators over one positive denominator:
`terms` maps each exponent triple (i, j, k) to a Python int n, and the
coefficient of x^i y^j z^k is n / denom.  The form is kept reduced (no zero
numerator is stored and denom shares no factor with every numerator), so
equal polynomials have equal `terms` and `denom`, and the lattice engine
reads them as its integer form directly.  Parsing, arithmetic,
differentiation, harmonic decomposition and sphere averages are integer
operations that never touch floating point; `Fraction`s are built only where
a coefficient or a value is read out.  `parse_poly` scans its text once,
with one regular expression, into a token list that a recursive descent
reads; a bad character is a token that raises only when the descent
reaches it, so errors come in the order the grammar meets them.  A
coefficient's read-out (`coefficient`, `sorted_terms`) keeps the
`GaussianRational` shape, with a zero imaginary part, for the callers that
read `.re`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

Monomial = tuple[int, int, int]

DEFAULT_DEGREE_CAP = 64
# Largest coefficient numerator or denominator, in bits, that parsing builds.
COEFF_BIT_CAP = 1 << 16
# Deepest parenthesis nesting that parsing accepts: each level takes four
# Python frames, so a deeper one would meet the interpreter's recursion limit.
PAREN_DEPTH_CAP = 100

VARIABLE_NAMES = ("x", "y", "z")


class PolyParseError(ValueError):
    """Syntax error in a polynomial expression, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeCapError(ValueError):
    """A monomial exceeded the configured degree cap."""


class GaussianRational(NamedTuple):
    """One coefficient of a Polynomial3, read out exactly as re + 0i."""

    re: Fraction
    im: Fraction


class Polynomial3:
    """Sparse polynomial in x, y, z: integer numerators over `denom`.

    `terms[m] = n` means the coefficient of m is n / denom.  The constructor
    drops zero numerators and divides out the gcd of denom and all
    numerators.  Instances are immutable in practice: operations return new
    polynomials.
    """

    __slots__ = ("terms", "denom")

    def __init__(self, terms: Mapping[Monomial, int], denom: int):
        if denom < 1:
            raise ValueError("the denominator must be a positive integer")
        cleaned: dict[Monomial, int] = {}
        g = denom
        for mono, c in terms.items():
            if c:
                cleaned[mono] = c
                if g != 1:
                    g = math.gcd(g, c)
        if g != 1:
            cleaned = {m: c // g for m, c in cleaned.items()}
        self.terms = cleaned
        self.denom = denom // g

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial3":
        return Polynomial3({}, 1)

    @staticmethod
    def constant(value: int | Fraction) -> "Polynomial3":
        value = Fraction(value)
        return Polynomial3({(0, 0, 0): value.numerator}, value.denominator)

    @staticmethod
    def variable(axis: int) -> "Polynomial3":
        mono = tuple(1 if a == axis else 0 for a in range(3))
        return Polynomial3({mono: 1}, 1)  # type: ignore[dict-item]

    @staticmethod
    def norm_squared() -> "Polynomial3":
        """x^2 + y^2 + z^2."""
        return Polynomial3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, 1)

    # -- basic structure ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial3):
            return NotImplemented
        return self.denom == other.denom and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.denom, frozenset(self.terms.items())))

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    @property
    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def coefficient(self, mono: Monomial) -> GaussianRational:
        """The exact coefficient of one monomial (zero when absent)."""
        return GaussianRational(Fraction(self.terms.get(mono, 0), self.denom), Fraction(0))

    def sorted_terms(self) -> list[tuple[Monomial, GaussianRational]]:
        """Terms in lexicographic (i, j, k) order, the canonical order."""
        return [(m, self.coefficient(m)) for m in sorted(self.terms)]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial3") -> "Polynomial3":
        denom = math.lcm(self.denom, other.denom)
        a, b = denom // self.denom, denom // other.denom
        out = {m: c * a for m, c in self.terms.items()}
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c * b
        return Polynomial3(out, denom)

    def __sub__(self, other: "Polynomial3") -> "Polynomial3":
        return self + -other

    def __neg__(self) -> "Polynomial3":
        return Polynomial3({m: -c for m, c in self.terms.items()}, self.denom)

    def __mul__(self, other: "Polynomial3 | int | Fraction") -> "Polynomial3":
        if not isinstance(other, Polynomial3):
            other = Polynomial3.constant(other)
        out: dict[Monomial, int] = {}
        for m1, a in self.terms.items():
            for m2, c in other.terms.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                out[mono] = out.get(mono, 0) + a * c
        return Polynomial3(out, self.denom * other.denom)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial3":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = Polynomial3.constant(1)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def partial(self, axis: int) -> "Polynomial3":
        """Exact partial derivative with respect to x, y or z (axis 0, 1, 2)."""
        out: dict[Monomial, int] = {}
        for mono, c in self.terms.items():
            e = mono[axis]
            if e:  # distinct monomials keep distinct exponents after the step
                key = mono[:axis] + (e - 1,) + mono[axis + 1:]
                out[key] = c * e
        return Polynomial3(out, self.denom)

    def laplacian(self) -> "Polynomial3":
        return (
            self.partial(0).partial(0)
            + self.partial(1).partial(1)
            + self.partial(2).partial(2)
        )

    @property
    def is_harmonic(self) -> bool:
        return not self.laplacian()

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x, y, z) -> Fraction:
        """Exact evaluation: a Fraction for int/Fraction inputs."""
        x, y, z = Fraction(x), Fraction(y), Fraction(z)
        total = Fraction(0)
        for (i, j, k), c in self.terms.items():
            total += c * x**i * y**j * z**k
        return total / self.denom

    def evaluate_arrays(self, x, y, z):
        """Float evaluation on numpy arrays or scalars."""
        total = None
        for (i, j, k), c in self.terms.items():
            term = c / self.denom * x**i * y**j * z**k
            total = term if total is None else total + term
        if total is None:
            return x * 0.0
        return total

    def coeff_l1(self) -> Fraction:
        """Sum of |c| over all coefficients."""
        return Fraction(sum(abs(c) for c in self.terms.values()), self.denom)

    # -- presentation ------------------------------------------------------

    def to_string(self) -> str:
        """Canonical expression string; parse_poly round-trips it exactly."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for mono, n in sorted(self.terms.items()):
            factors = [
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(VARIABLE_NAMES, mono)
                if e > 0
            ]
            body = "*".join(factors)
            c = Fraction(n, self.denom)
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if pieces:
                pieces.append(sign + piece)
            elif sign == "-":
                pieces.append("-" + piece)
            else:
                pieces.append(piece)
        return "".join(pieces)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial3({self.to_string()!r})"


# -- parsing ---------------------------------------------------------------


_TOKEN = re.compile(r"\s*(?:(?P<number>[0-9]+)|(?P<symbol>[-+*^()/xyz])|(?P<bad>\S))")


def _coefficient_bits(p: Polynomial3) -> int:
    return max(p.denom, max(map(abs, p.terms.values()), default=0)).bit_length()


def parse_poly(text: str, degree_cap: int = DEFAULT_DEGREE_CAP) -> Polynomial3:
    """Parse an expression in x, y, z with +, -, *, ^ and parentheses.

    Rational literals are written p/q with ASCII digits; any other
    character, `i` included, is refused.  Raises PolyParseError with the
    offending position on bad syntax, a coefficient past COEFF_BIT_CAP bits
    or parentheses nested past PAREN_DEPTH_CAP, DegreeCapError past the
    degree cap.
    """
    tokens = [(m.lastgroup, m[m.lastindex], m.start(m.lastindex)) for m in _TOKEN.finditer(text)]
    tokens.append(("end", "", len(text)))
    at = depth = 0

    def peek(ahead: int = 0) -> tuple[str, str, int]:
        kind, value, pos = tokens[at + ahead]
        if kind == "bad":  # raised only when the parser gets there
            raise PolyParseError(f"unexpected character {value!r}", pos)
        return kind, value, pos

    def take() -> tuple[str, str, int]:
        nonlocal at
        token = peek()
        at += 1
        return token

    def sized(p: Polynomial3, pos: int) -> Polynomial3:
        bits = _coefficient_bits(p)
        if bits > COEFF_BIT_CAP:
            raise PolyParseError(f"a {bits}-bit coefficient passes the {COEFF_BIT_CAP}-bit cap", pos)
        return p

    def expr() -> Polynomial3:
        result = term()
        while (op := peek()[1]) in ("+", "-"):
            take()
            rhs = term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term() -> Polynomial3:
        result = factor()
        while peek()[1] == "*":
            pos = take()[2]
            result = result * factor()
            if result.degree > degree_cap:
                raise DegreeCapError(f"degree {result.degree} exceeds degree cap {degree_cap}")
            sized(result, pos)
        return result

    def factor() -> Polynomial3:
        negate = False  # a run of unary signs is read in one loop
        while (sign := peek()[1]) in ("+", "-"):
            take()
            negate ^= sign == "-"
        base = atom()
        if peek()[1] == "^":
            pos = take()[2]
            kind, value, at_exponent = take()
            if kind != "number":
                raise PolyParseError("expected integer exponent after '^'", at_exponent)
            exponent = int(value)
            # degree(b^e) = e degree(b) for b != 0, and a constant's power has
            # at least e (bits - 1) + 1 bits: both are refused unbuilt.  Past
            # degree 0 the degree cap bounds e, so the power is built and sized.
            if (degree := base.degree) * exponent > degree_cap:
                raise DegreeCapError(f"exponent {exponent} exceeds degree cap {degree_cap}")
            if not degree and exponent * (_coefficient_bits(base) - 1) >= COEFF_BIT_CAP:
                raise PolyParseError(f"power {exponent} passes the {COEFF_BIT_CAP}-bit "
                                     "coefficient cap", pos)
            base = sized(base**exponent, pos)
        return -base if negate else base

    def atom() -> Polynomial3:
        nonlocal depth
        kind, value, pos = take()
        if kind == "number":
            return Polynomial3.constant(rational(int(value)))
        if value in ("x", "y", "z"):
            return Polynomial3.variable("xyz".index(value))
        if value == "(":
            if depth == PAREN_DEPTH_CAP:
                raise PolyParseError(f"parentheses nested deeper than {PAREN_DEPTH_CAP}", pos)
            depth += 1
            inner = expr()
            depth -= 1
            kind, value, pos = take()
            if value != ")":
                raise PolyParseError("expected ')'", pos)
            return inner
        raise PolyParseError(
            "expected number, variable or '('" if kind != "end" else "unexpected end of input",
            pos,
        )

    def rational(numerator: int) -> Fraction:
        nonlocal at
        if peek()[1] == "/":  # a '/' not before a number is left to the caller
            kind, value, pos = peek(1)
            if kind == "number":
                at += 2
                if (denominator := int(value)) == 0:
                    raise PolyParseError("zero denominator", pos)
                return Fraction(numerator, denominator)
        return Fraction(numerator)

    result = expr()
    kind, value, pos = peek()
    if kind != "end":
        raise PolyParseError(f"unexpected {value!r}", pos)
    return result


# -- sphere averages and harmonic decomposition ------------------------------


def _double_factorial(n: int) -> int:
    """(n)!! with the usual convention (-1)!! = 1."""
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def monomial_sphere_average(i: int, j: int, k: int) -> Fraction:
    """Average of x^i y^j z^k over the unit sphere (surface measure / 4pi)."""
    if i % 2 or j % 2 or k % 2:
        return Fraction(0)
    num = (
        _double_factorial(i - 1)
        * _double_factorial(j - 1)
        * _double_factorial(k - 1)
    )
    return Fraction(num, _double_factorial(i + j + k + 1))


def sphere_average(p: Polynomial3) -> Fraction:
    """(1/4pi) * integral of p over the unit sphere, exactly."""
    total = Fraction(0)
    for (i, j, k), c in p.terms.items():
        total += c * monomial_sphere_average(i, j, k)
    return total / p.denom


@dataclass(frozen=True)
class HarmonicDecomposition:
    """Parts (d, h_d) with h_d harmonic and p = sum of |x|^(2d) * h_d."""

    degree: int
    parts: tuple[tuple[int, Polynomial3], ...]


def harmonic_decompose(p: Polynomial3) -> HarmonicDecomposition:
    """Write a homogeneous p as sum over d of |x|^(2d) times a harmonic part.

    The decomposition is unique; it is found by peeling components from the
    top power of |x|^2 down, using that the d-th iterated Laplacian kills
    every component below d and acts diagonally on the rest.
    """
    if not p.is_homogeneous:
        raise ValueError("harmonic decomposition requires a homogeneous polynomial")
    nu = p.degree
    r2 = Polynomial3.norm_squared()
    remainder = p
    parts: list[tuple[int, Polynomial3]] = []
    for d in range(nu // 2, -1, -1):
        m = nu - 2 * d
        lap = remainder
        for _ in range(d):
            lap = lap.laplacian()
        scale = 1
        for t in range(d):
            # Laplacian of |x|^(2e) h_m is 2e(2e + 2m + 1) |x|^(2e-2) h_m in R^3
            e = d - t
            scale *= 2 * e * (2 * e + 2 * m + 1)
        component = lap * Fraction(1, scale)
        if component:
            parts.append((d, component))
            remainder = remainder - (r2**d) * component
    parts.reverse()
    return HarmonicDecomposition(degree=nu, parts=tuple(parts))
