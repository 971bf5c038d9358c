"""Exact polynomial algebra in three variables over the rationals.

A polynomial is stored as integer numerators over one positive denominator:
`terms` maps each exponent triple (i, j, k) to a Python int n, and the
coefficient of x^i y^j z^k is n / denom.  The form is kept reduced (no zero
numerator is stored and denom shares no factor with every numerator), so
equal polynomials have equal `terms` and `denom`, and the lattice engine
reads them as its integer form directly.  Parsing, arithmetic,
differentiation, harmonic decomposition and sphere averages are integer
operations that never touch floating point; `Fraction`s are built only where
a coefficient or a value is read out (`coefficient` and `sorted_terms` keep
the `GaussianRational` shape, with a zero imaginary part).  The operators
and `parse_poly` share one set of helpers on (numerator dict, denominator)
pairs; the parser's descent is one loop over a regex token list that builds
one Polynomial3 at the end, and a bad character raises only when the descent
reaches it, so errors come in the order the grammar meets them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, NoReturn

Monomial = tuple[int, int, int]

DEGREE_CAP = 64
# Largest coefficient numerator or denominator, in bits, that parsing builds,
# so that every exact output prints within Python's 4300-digit limit on int
# to str: a homogeneous P of degree <= 64 has at most C(66, 2) = 2145
# monomials, each at most |x|^64 <= 10^192 in the ball of radius^2 10^6 (the
# shell cap), which holds about 4.2 * 10^9 points, so a sum's numerator is
# below 2^13000 * 2145 * 10^192 * 4.2 * 10^9 < 10^3914 * 10^205, 4119 digits.
COEFF_BIT_CAP = 13_000
# Deepest parenthesis nesting that parsing accepts.
PAREN_DEPTH_CAP = 100
# Most multiply work one parse may do, bounded before each product or power is
# built: the sum over the numerator pairs `_mul` multiplies of their bits plus
# PAIR_BITS for the dict work around each pair (see `_pair_work`).
MUL_WORK_CAP = 200_000_000
PAIR_BITS = 128

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


# -- integer-form arithmetic ---------------------------------------------------
# On numerator dicts over a denominator.  `_mul` and `_pow` store no zero
# numerator when their inputs store none, and a power of a reduced form is
# reduced: the content of a product is the product of the contents.


def _reduced(terms: Mapping[Monomial, int], denom: int) -> tuple[dict[Monomial, int], int]:
    """terms / denom in the canonical form: no zero numerator, lowest terms."""
    terms = {m: c for m, c in terms.items() if c}
    if denom > 1 and (g := math.gcd(denom, *terms.values())) > 1:
        return {m: c // g for m, c in terms.items()}, denom // g
    return terms, denom


def _add(a: Mapping[Monomial, int], da: int, b: Mapping[Monomial, int], db: int,
         sign: int = 1) -> tuple[dict[Monomial, int], int]:
    """a / da + sign b / db as numerators over lcm(da, db)."""
    d = da if da == db else math.lcm(da, db)
    sa, sb = d // da, d // db * sign
    out = dict(a) if sa == 1 else {m: c * sa for m, c in a.items()}
    get = out.get
    for m, c in b.items():
        out[m] = get(m, 0) + c * sb
    return out, d


def _neg(a: Mapping[Monomial, int]) -> dict[Monomial, int]:
    return {m: -c for m, c in a.items()}


def _mul(a: Mapping[Monomial, int], b: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """The numerators of a b.  Each factor's content is taken out before the
    pairs are multiplied and their product is put back once."""
    if len(a) == 1:  # one term times b: the monomials stay distinct
        a, b = b, a
    if len(b) == 1:
        ((p, q, r), e), = b.items()
        return {(i + p, j + q, k + r): c * e for (i, j, k), c in a.items()}
    g, h = math.gcd(*a.values()), math.gcd(*b.values())
    if g > 1:
        a = {m: c // g for m, c in a.items()}
    if h > 1:
        b = {m: c // h for m, c in b.items()}
    out: dict[Monomial, int] = {}
    get = out.get
    for (i, j, k), c in a.items():
        for (p, q, r), e in b.items():
            mono = (i + p, j + q, k + r)
            out[mono] = get(mono, 0) + c * e
    g *= h
    return {m: c * g for m, c in out.items() if c}


def _free_bits(a: Mapping[Monomial, int]) -> int:
    """Bits of the largest numerator with the content taken out, as `_mul` multiplies it."""
    return (max(map(abs, a.values())) // math.gcd(*a.values())).bit_length() if a else 0


def _pair_work(a: tuple[int, int], b: tuple[int, int]) -> int:
    """The multiply work of `_mul` on a and b given as (terms, numerator bits)."""
    return a[0] * b[0] * (a[1] + b[1] + PAIR_BITS)


def _power_work(a: Mapping[Monomial, int], e: int) -> int:
    """A bound on the multiply work of `_pow` raising a, of n terms and degrees
    low .. high, to the power e, step by step as it squares: a^k has at most
    C(n + k - 1, k) terms and no more than the monomials of degrees k low ..
    k high, and with the content out its numerators are at most (n max|c|)^k."""
    n, bits = len(a), _free_bits(a)
    low, high = min(map(sum, a)), max(map(sum, a))

    def size(k: int) -> tuple[int, int]:
        terms = min(math.comb(n + k - 1, k), math.comb(k * high + 3, 3) - math.comb(k * low + 2, 3))
        return terms, k * bits + (n**k).bit_length()

    work, have, square = 0, 0, 1
    while e:
        if e & 1:
            work += have and _pair_work(size(have), size(square))
            have += square
        e >>= 1
        if e:
            work += _pair_work(size(square), size(square))
            square *= 2
    return work


def _pow(a: Mapping[Monomial, int], d: int, n: int) -> tuple[dict[Monomial, int], int]:
    """(a / d)^n for n >= 0, by repeated squaring; one term is c^n at n times its exponents."""
    if len(a) == 1:
        ((i, j, k), c), = a.items()
        return {(i * n, j * n, k * n): c**n}, d**n
    result, k = None, n
    while k:
        if k & 1:
            result = a if result is None else _mul(result, a)
        k >>= 1
        if k:
            a = _mul(a, a)
    return (dict(result), d**n) if n else ({(0, 0, 0): 1}, 1)


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
        self.terms, self.denom = _reduced(terms, denom)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial3":
        return Polynomial3({}, 1)

    @staticmethod
    def constant(value: int | Fraction) -> "Polynomial3":
        value = Fraction(value)
        return Polynomial3({(0, 0, 0): value.numerator}, value.denominator)

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
        return Polynomial3(*_add(self.terms, self.denom, other.terms, other.denom))

    def __sub__(self, other: "Polynomial3") -> "Polynomial3":
        return Polynomial3(*_add(self.terms, self.denom, other.terms, other.denom, -1))

    def __neg__(self) -> "Polynomial3":
        return Polynomial3(_neg(self.terms), self.denom)

    def __mul__(self, other: "Polynomial3 | int | Fraction") -> "Polynomial3":
        if not isinstance(other, Polynomial3):
            other = Polynomial3.constant(other)
        return Polynomial3(_mul(self.terms, other.terms), self.denom * other.denom)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial3":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        return Polynomial3(*_pow(self.terms, self.denom, n))

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
        """The Laplacian is zero: each of its coefficients, summed from the
        three second partials of the numerators, is 0.  One pass over the
        terms, with no polynomial built."""
        lap: dict[Monomial, int] = {}
        for (i, j, k), n in self.terms.items():
            for m, e in (((i - 2, j, k), i), ((i, j - 2, k), j), ((i, j, k - 2), k)):
                if e > 1:
                    lap[m] = lap.get(m, 0) + e * (e - 1) * n
        return not any(lap.values())

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
        denom = self.denom
        pieces: list[str] = []
        for mono, n in sorted(self.terms.items()):
            body = "*".join([name if e == 1 else f"{name}^{e}"
                             for name, e in zip(VARIABLE_NAMES, mono) if e])
            mag = -n if n < 0 else n
            if denom == 1:
                text = str(mag)
            else:  # n / denom in lowest terms, as str(Fraction(n, denom)) spells it
                g = math.gcd(mag, denom)
                text = f"{mag // g}/{denom // g}" if g != denom else str(mag // g)
            if body:
                text = body if mag == denom else f"{text}*{body}"
            pieces.append(("-" if n < 0 else "+" if pieces else "") + text)
        return "".join(pieces)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial3({self.to_string()!r})"


# -- parsing ---------------------------------------------------------------


# Before the first character outside the grammar, every token is a number or
# a symbol; that character, found by a search of its own, ends the token list.
_TOKEN = re.compile(r"[0-9]+|[-+*^()/xyz]")
_BAD_CHARACTER = re.compile(r"[^\s0-9*^()/xyz+-]")
_DIGITS = frozenset("0123456789")
_VARIABLES = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}


def _coefficient_bits(terms: Mapping[Monomial, int], denom: int) -> int:
    return max(denom, max(map(abs, terms.values()), default=0)).bit_length()


def _lead_bits(terms: Mapping[Monomial, int], denom: int) -> int:
    """Bits of the larger of the denominator and the leading (lex) numerator."""
    return max(denom, abs(terms[max(terms)]) if terms else 0).bit_length()


def parse_poly(text: str) -> Polynomial3:
    """Parse an expression in x, y, z with +, -, *, ^ and parentheses.

    Rational literals are written p/q with ASCII digits; any other
    character, `i` included, is refused.  Raises PolyParseError with the
    offending position on bad syntax, a coefficient past COEFF_BIT_CAP bits,
    multiply work past MUL_WORK_CAP or parentheses nested past
    PAREN_DEPTH_CAP, DegreeCapError past DEGREE_CAP.  Each resource has one
    bound: the work budget bounds the time, the degree cap the number of
    terms (at most C(DEGREE_CAP + 3, 3)) and the coefficient cap the digits.
    """
    bad = _BAD_CHARACTER.search(text)
    cut = bad.start() if bad else len(text)
    tokens = _TOKEN.findall(text, 0, cut)
    bad_at = len(tokens) if bad else -1  # reading the bad character raises
    tokens.append(text[cut] if bad else "")  # "" is the end

    def fail(message: str, i: int) -> NoReturn:
        """Raise at token i, the bad character's message there; positions are found only here."""
        if i == bad_at:
            message = f"unexpected character {text[cut]!r}"
        starts = [m.start() for m in _TOKEN.finditer(text, 0, cut)] + [cut]
        raise PolyParseError(message, starts[i])

    def sized(terms: dict, denom: int, bound: int, i: int) -> int:
        """`bound` when it is within the cap, else the exact coefficient bits, refused past it."""
        if bound <= COEFF_BIT_CAP:
            return bound
        if (bits := _coefficient_bits(terms, denom)) > COEFF_BIT_CAP:
            fail(f"a {bits}-bit coefficient passes the {COEFF_BIT_CAP}-bit cap", i)
        return bits

    spent = 0  # the multiply work of the products and powers built so far

    def afford(work: int, i: int) -> None:
        """Refuse at token i a product or power whose work takes the parse past the budget."""
        nonlocal spent
        if (spent := spent + work) > MUL_WORK_CAP:
            fail(f"multiplying out passes the {MUL_WORK_CAP}-unit work budget", i)

    # The grammar's descent as one loop: expr = term (('+' | '-') term)*,
    # term = factor ('*' factor)*, factor = ('+' | '-')* atom ('^' number)?.
    # A factor is a reduced (terms, denom) with its top degree and a bound on
    # its coefficient bits, exact for an atom; '(' saves the outer state.
    frames: list[tuple] = []
    total = product = None  # the expression's sum so far, the term's product so far
    at = sign = star = 0  # the token read, the sign before the term, the pending '*'
    while True:
        negate = False  # a run of unary signs is read in one loop
        while (value := tokens[at]) in ("+", "-"):
            negate ^= value == "-"
            at += 1
        at += 1
        if value[:1] in _DIGITS:
            p, q = int(value), 1
            if tokens[at] == "/":  # a '/' not before a number is left to the caller
                if at + 1 == bad_at:
                    fail("", at + 1)
                if tokens[at + 1][:1] in _DIGITS:
                    if not (q := int(tokens[at + 1])):
                        fail("zero denominator", at + 1)
                    g = math.gcd(p, q)
                    p, q = p // g, q // g
                    at += 2
            terms, denom, degree = {(0, 0, 0): p} if p else {}, q, 0
            bits = max(p, q).bit_length()
        elif value in _VARIABLES:
            terms, denom, degree, bits = {_VARIABLES[value]: 1}, 1, 1, 1
        elif value == "(":
            if len(frames) == PAREN_DEPTH_CAP:
                fail(f"parentheses nested deeper than {PAREN_DEPTH_CAP}", at - 1)
            frames.append((total, sign, product, star, negate))
            total = product = None
            continue
        else:
            fail("expected number, variable or '('" if value else "unexpected end of input", at - 1)
        while True:  # an atom is read; a ')' loops back here
            if tokens[at] == "^":
                caret = at
                at += 1
                if tokens[at][:1] not in _DIGITS:
                    fail("expected integer exponent after '^'", at)
                exponent = int(tokens[at])
                at += 1
                # degree(b^e) = e degree(b) for b != 0, and b^e, reduced, has the
                # denominator d^e and the leading (lex) numerator c^e for b's d and c:
                # past either cap, or past the work budget, b^e is refused unbuilt.
                # Past degree 0 the degree cap bounds e, and b^e is built and sized:
                # its coefficients are at most (len(b) max|c|)^e.
                if degree * exponent > DEGREE_CAP:
                    raise DegreeCapError(f"exponent {exponent} exceeds degree cap {DEGREE_CAP}")
                if len(terms) > 1:
                    afford(_power_work(terms, exponent), caret)
                if exponent * (_lead_bits(terms, denom) - 1) >= COEFF_BIT_CAP:
                    fail(f"power {exponent} passes the {COEFF_BIT_CAP}-bit coefficient cap", caret)
                degree *= exponent
                bound = exponent * (bits + len(terms).bit_length()) or 1
                terms, denom = _pow(terms, denom, exponent)
                bits = sized(terms, denom, bound, caret)
            elif at == bad_at:
                fail("", at)
            terms = _neg(terms) if negate else terms
            if product is not None:
                # the degree of a product of nonzero polynomials is the sum,
                # and its coefficient sums at most min(len) products of two.  Its
                # leading (lex) numerator is exactly c_a c_b, which reducing
                # divides by at most a_denom denom: past the cap, it is refused
                # unbuilt
                a, a_denom, a_degree, a_bits = product
                degree = a_degree + degree if a and terms else 0
                if degree > DEGREE_CAP:
                    raise DegreeCapError(f"degree {degree} exceeds degree cap {DEGREE_CAP}")
                if len(a) > 1 and len(terms) > 1:
                    afford(_pair_work((len(a), _free_bits(a)), (len(terms), _free_bits(terms))),
                           star)
                if a and terms and a_bits + bits > COEFF_BIT_CAP and (n := (
                        abs(a[max(a)] * terms[max(terms)]) // (a_denom * denom)).bit_length()
                        ) > COEFF_BIT_CAP:
                    fail(f"a coefficient of at least {n} bits passes the {COEFF_BIT_CAP}-bit cap",
                         star)
                bound = a_bits + bits + min(len(a), len(terms)).bit_length()
                terms, denom = _reduced(_mul(a, terms), a_denom * denom)
                bits = sized(terms, denom, bound, star)
            product = terms, denom, degree, bits
            if (value := tokens[at]) == "*":
                star = at
                at += 1
                break
            total = (terms, denom) if total is None else _reduced(*_add(*total, terms, denom, sign))
            if value in ("+", "-"):
                sign = 1 if value == "+" else -1
                product = None
                at += 1
                break
            if not frames:
                if value:
                    fail(f"unexpected {value!r}", at)
                return Polynomial3(*total)
            if value != ")":
                fail("expected ')'", at)
            at += 1
            (terms, denom), (total, sign, product, star, negate) = total, frames.pop()
            degree, bits = max(map(sum, terms), default=0), _coefficient_bits(terms, denom)


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
