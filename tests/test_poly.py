import itertools
import math
import random
import re
from fractions import Fraction

import pytest
import sympy

from latharm import poly
from latharm.poly import (
    COEFF_BIT_CAP,
    DEGREE_CAP,
    PAREN_DEPTH_CAP,
    TERM_CAP,
    DegreeCapError,
    GaussianRational,
    Polynomial3,
    PolyParseError,
    harmonic_decompose,
    monomial_sphere_average,
    parse_poly,
    sphere_average,
)

from conftest import OCTIC_EXPR, QUARTIC_EXPR, SEXTIC_EXPR, random_homogeneous, variable

X, Y, Z = sympy.symbols("x y z")


def canonical_lines(p: Polynomial3) -> str:
    """Serialized form: one `coef i j k` line per monomial, lex-sorted."""
    return "\n".join(f"{Fraction(n, p.denom)} {i} {j} {k}"
                     for (i, j, k), n in sorted(p.terms.items()))


def reconstruct(d) -> Polynomial3:
    """The sum of |x|^(2d) h_d over the parts of a harmonic decomposition."""
    total = Polynomial3.zero()
    for dd, component in d.parts:
        total = total + Polynomial3.norm_squared() ** dd * component
    return total


def component(d, dd: int) -> Polynomial3:
    """The harmonic part h_dd of a decomposition, zero when it has none."""
    return dict(d.parts).get(dd, Polynomial3.zero())


def to_sympy(p: Polynomial3):
    expr = sympy.Integer(0)
    for (i, j, k), c in p.sorted_terms():
        assert c.im == 0
        expr += sympy.Rational(c.re) * X**i * Y**j * Z**k
    return sympy.expand(expr)


def from_sympy_expr(text: str) -> sympy.Expr:
    return sympy.expand(sympy.sympify(text.replace("^", "**")))


# -- parsing -----------------------------------------------------------------


def test_parse_difference_of_squares():
    p = parse_poly("x^2-y^2")
    assert {m: c.re for m, c in p.sorted_terms()} == {
        (2, 0, 0): Fraction(1),
        (0, 2, 0): Fraction(-1),
    }
    assert p.degree == 2
    assert p.is_homogeneous


def test_parse_quartic_matches_symbolic_expansion():
    # independent oracle: sympy expands the same expression
    p = parse_poly(QUARTIC_EXPR)
    assert to_sympy(p) == from_sympy_expr(QUARTIC_EXPR)
    coeffs = sorted({c.re for _, c in p.sorted_terms()})
    assert coeffs == [Fraction(-6), Fraction(2)]
    assert len(p.terms) == 6
    assert p.is_homogeneous and p.degree == 4


def test_parse_mixed_degrees_not_homogeneous():
    p = parse_poly("x^2+y")
    assert not p.is_homogeneous
    assert p.degree == 2


def test_parse_rational_literals():
    p = parse_poly("1/3*x-2*y")
    assert p.coefficient((1, 0, 0)) == GaussianRational(Fraction(1, 3), Fraction(0))
    assert p.coefficient((0, 1, 0)) == GaussianRational(Fraction(-2), Fraction(0))
    assert (p.denom, p.terms) == (3, {(1, 0, 0): 1, (0, 1, 0): -6})


def test_parse_refuses_imaginary_unit():
    # coefficients are rational: `i` is not part of the language
    with pytest.raises(PolyParseError) as err:
        parse_poly("1/3*x-2*i*y")
    assert err.value.position == 8
    with pytest.raises(PolyParseError) as err:
        parse_poly("(x+i*y)^4")
    assert err.value.position == 3


def test_parse_syntax_error_reports_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x^2 + @")
    assert err.value.position == 6


def test_parse_unbalanced_parenthesis():
    with pytest.raises(PolyParseError):
        parse_poly("(x+y")


def test_parse_degree_cap(monkeypatch):
    with pytest.raises(DegreeCapError):
        parse_poly("x^65")
    monkeypatch.setattr(poly, "DEGREE_CAP", 70)
    assert parse_poly("x^65").degree == 65


@pytest.mark.parametrize("text, position, terms", [
    ("(x+y+z+1)^64", 9, 47905),
    ("(x+y+z+1)^32*(x+y+z+1)^32", 9, 6545),
    ("(x+y+z+1)^16*(x+y+z+1)^16", 12, 6545),
])
def test_expansions_past_the_term_cap_are_refused_unbuilt(text, position, terms):
    with pytest.raises(PolyParseError) as info:
        parse_poly(text)
    assert str(info.value) == (f"an expansion of up to {terms} terms passes the {TERM_CAP}-term "
                               f"cap (at position {position})")


def test_term_bounds(monkeypatch):
    # C(n + e - 1, e) for a power of n terms, n_a n_b for a product, and the
    # monomials of the degrees d .. D, C(D + 3, 3) - C(d + 2, 3): each is
    # exact on one of these, so a cap of 35 admits them and no more
    assert len(parse_poly("(x+y+z)^64").terms) == 2145 <= TERM_CAP
    monkeypatch.setattr(poly, "TERM_CAP", 35)
    assert len(parse_poly("(x+y+z+1)^4").terms) == 35
    assert len(parse_poly("(x+y+z+1)^2*(x+y+z+1)^2").terms) == 35
    assert len(parse_poly("(x+y+z)^3*(x+y+z)^3").terms) == 28
    for text in ("(x+y+z+1)^5", "(x+y+z+1)^2*(x+y+z+1)^3", "(x+y+z)^4*(x+y+z)^4"):
        with pytest.raises(PolyParseError, match="passes the 35-term cap"):
            parse_poly(text)


# The grammar's results, error classes, messages and positions: the token
# after '/' is read before a '/' that starts no literal is handed back, a
# bad character raises only once the parser reaches it, and the degree cap
# is checked before a power and after each product.
PARSE_TABLE = [
    ('x^2 + @', (PolyParseError, "unexpected character '@'", 6)),
    ('3/@', (PolyParseError, "unexpected character '@'", 2)),
    ('3/x', (PolyParseError, "unexpected '/'", 1)),
    ('x )$', (PolyParseError, "unexpected ')'", 2)),
    ('(x+y', (PolyParseError, "expected ')'", 4)),
    ('x^', (PolyParseError, "expected integer exponent after '^'", 2)),
    ('x^y', (PolyParseError, "expected integer exponent after '^'", 2)),
    ('', (PolyParseError, 'unexpected end of input', 0)),
    ('3/0', (PolyParseError, 'zero denominator', 2)),
    ('x^65', (DegreeCapError, 'exponent 65 exceeds degree cap 64')),
    ('x^40*y^40', (DegreeCapError, 'degree 80 exceeds degree cap 64')),
    ('--x', 'x'),
    ('2/4*x', '1/2*x'),
    ('  x\t', 'x'),
    ('\n', (PolyParseError, 'unexpected end of input', 1)),
    ('1/3*x-2*i*y', (PolyParseError, "unexpected character 'i'", 8)),
    ('(x+i*y)^4', (PolyParseError, "unexpected character 'i'", 3)),
    ('x^0', '1'),
    ('0^0', '1'),
    ('(x-x)^3', '0'),
    ('(x+y)^2', 'y^2+2*x*y+x^2'),
    ('-x^2', '-x^2'),
    ('+-+x', '-x'),
    ('3/4/5', (PolyParseError, "unexpected '/'", 3)),
    ('1/2^2', '1/4'),
    ('2^3*x', '8*x'),
    ('x y', (PolyParseError, "unexpected 'y'", 2)),
    ('x^2^2', (PolyParseError, "unexpected '^'", 3)),
    ('()', (PolyParseError, "expected number, variable or '('", 1)),
    ('x*', (PolyParseError, 'unexpected end of input', 2)),
    ('*x', (PolyParseError, "expected number, variable or '('", 0)),
    ('12 34', (PolyParseError, "unexpected '34'", 3)),
    ('x+(', (PolyParseError, 'unexpected end of input', 3)),
    ('x^01', 'x'),
    ('1 2', (PolyParseError, "unexpected '2'", 2)),
    ('3 / 4', '3/4'),
    ('3/ x', (PolyParseError, "unexpected '/'", 1)),
    ('-(x-y)*(x+y)', 'y^2-x^2'),
    ('x^64', 'x^64'),
    ('(x^32)^2', 'x^64'),
    ('(x^8)^9', (DegreeCapError, 'exponent 9 exceeds degree cap 64')),
    ('7/21*z', '1/3*z'),
    ('0*x^65', (DegreeCapError, 'exponent 65 exceeds degree cap 64')),
    ('x^2/3', (PolyParseError, "unexpected '/'", 3)),
    ('x+', (PolyParseError, 'unexpected end of input', 2)),
    ('))', (PolyParseError, "expected number, variable or '('", 0)),
    ('x^-1', (PolyParseError, "expected integer exponent after '^'", 2)),
    ('@x', (PolyParseError, "unexpected character '@'", 0)),
    ('x^64*1', 'x^64'),
    ('x^64*x', (DegreeCapError, 'degree 65 exceeds degree cap 64')),
]


@pytest.mark.parametrize("text, expected", PARSE_TABLE, ids=[repr(t) for t, _ in PARSE_TABLE])
def test_parse_table(text, expected):
    if isinstance(expected, str):
        assert parse_poly(text).to_string() == expected
        return
    cls, message, *position = expected
    with pytest.raises(ValueError) as err:
        parse_poly(text)
    assert type(err.value) is cls
    if position:
        assert str(err.value) == f"{message} (at position {position[0]})"
        assert err.value.position == position[0]
    else:
        assert str(err.value) == message


def test_parse_reads_sign_runs_in_a_loop_and_caps_nesting():
    # neither a unary sign nor a parenthesis level may cost a Python frame
    # each: 500 of either used to end in RecursionError
    x = parse_poly("x")
    assert parse_poly("-" * 500 + "x") == x
    assert parse_poly("+-" * 250 + "-x") == -x
    nested = "(" * PAREN_DEPTH_CAP + "x" + ")" * PAREN_DEPTH_CAP
    assert parse_poly(nested) == x
    with pytest.raises(PolyParseError) as err:
        parse_poly("(" + nested + ")")
    assert err.value.position == PAREN_DEPTH_CAP
    # a signed factor takes one power, like an unsigned one
    for text in ("x^2^2", "-x^2^2"):
        with pytest.raises(PolyParseError, match="unexpected '\\^'"):
            parse_poly(text)


@pytest.mark.parametrize("text, position", [("x^\u00b2", 2), ("\u0663*x", 0), ("x+\u00b9", 2)])
def test_parse_refuses_non_ascii_digits(text, position):
    # str.isdigit accepts superscripts and other scripts' digits; the
    # grammar's digits are 0-9 only
    with pytest.raises(PolyParseError) as err:
        parse_poly(text)
    assert str(err.value) == f"unexpected character {text[position]!r} (at position {position})"


def test_parse_refuses_oversize_coefficients():
    # a power whose coefficient would pass COEFF_BIT_CAP bits is refused
    # before it is built: 9^(10^8) would take minutes
    for text, position in (("9^100000000", 1), ("(1/3)^100000", 5), ("x+2^70000", 3)):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert err.value.position == position and "cap" in str(err.value)
    # and so is a product past the cap, at its '*'
    with pytest.raises(PolyParseError) as err:
        parse_poly("2^10000*2^10000")
    assert err.value.position == 7
    assert parse_poly("2^11000*x^2").terms == {(2, 0, 0): 2**11000}
    assert parse_poly(f"2^{COEFF_BIT_CAP - 1}").terms == {(0, 0, 0): 2 ** (COEFF_BIT_CAP - 1)}
    assert parse_poly("1^1000000000*(-1)^1000000001") == Polynomial3.constant(-1)


# -- the parser and printer they replaced, kept as references -----------------
# A recursive descent over Polynomial3 operators, one Polynomial3 per step, and
# a printer that reads each coefficient as a Fraction.

_REFERENCE_TOKEN = re.compile(r"\s*(?:(?P<number>[0-9]+)|(?P<symbol>[-+*^()/xyz])|(?P<bad>\S))")


def _reference_bits(p: Polynomial3) -> int:
    return max(p.denom, max(map(abs, p.terms.values()), default=0)).bit_length()


def reference_parse(text: str, degree_cap: int = DEGREE_CAP) -> Polynomial3:
    tokens = [(m.lastgroup, m[m.lastindex], m.start(m.lastindex))
              for m in _REFERENCE_TOKEN.finditer(text)]
    tokens.append(("end", "", len(text)))
    at = depth = 0

    def peek(ahead=0):
        kind, value, pos = tokens[at + ahead]
        if kind == "bad":
            raise PolyParseError(f"unexpected character {value!r}", pos)
        return kind, value, pos

    def take():
        nonlocal at
        token = peek()
        at += 1
        return token

    def sized(p, pos):
        bits = _reference_bits(p)
        if bits > COEFF_BIT_CAP:
            raise PolyParseError(f"a {bits}-bit coefficient passes the {COEFF_BIT_CAP}-bit cap",
                                 pos)
        return p

    def expr():
        result = term()
        while (op := peek()[1]) in ("+", "-"):
            take()
            rhs = term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term():
        result = factor()
        while peek()[1] == "*":
            pos = take()[2]
            result = result * factor()
            if result.degree > degree_cap:
                raise DegreeCapError(f"degree {result.degree} exceeds degree cap {degree_cap}")
            sized(result, pos)
        return result

    def factor():
        negate = False
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
            if (degree := base.degree) * exponent > degree_cap:
                raise DegreeCapError(f"exponent {exponent} exceeds degree cap {degree_cap}")
            if not degree and exponent * (_reference_bits(base) - 1) >= COEFF_BIT_CAP:
                raise PolyParseError(f"power {exponent} passes the {COEFF_BIT_CAP}-bit "
                                     "coefficient cap", pos)
            base = sized(base**exponent, pos)
        return -base if negate else base

    def atom():
        nonlocal depth
        kind, value, pos = take()
        if kind == "number":
            return Polynomial3.constant(rational(int(value)))
        if value in ("x", "y", "z"):
            return variable("xyz".index(value))
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

    def rational(numerator):
        nonlocal at
        if peek()[1] == "/":
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


def reference_to_string(p: Polynomial3) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for mono, n in sorted(p.terms.items()):
        factors = [f"{name}^{e}" if e > 1 else name for name, e in zip("xyz", mono) if e > 0]
        body = "*".join(factors)
        c = Fraction(n, p.denom)
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


# -- a seeded differential test of parse_poly against the reference ------------


def _draw_number(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.55:
        return str(rng.randrange(12))
    if r < 0.8:  # a p/q literal, a zero denominator included
        return f"{rng.randrange(30)}{rng.choice(['/', ' / ', '/ '])}{rng.randrange(12)}"
    if r < 0.9:
        return "0" * rng.randrange(1, 3) + str(rng.randrange(10))
    return str(rng.getrandbits(rng.choice([64, 300])))


def _draw_atom(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth and r < 0.3:
        return "(" + _draw_expr(rng, depth - 1) + ")"
    return rng.choice("xyz") if r < 0.65 else _draw_number(rng)


def _draw_factor(rng: random.Random, depth: int) -> str:
    signs = "".join(rng.choice("+-") for _ in range(rng.choice([0, 0, 0, 1, 2, 3])))
    atom = _draw_atom(rng, depth)
    if rng.random() < 0.4:  # a parenthesised base takes a small power only
        exponents = [0, 1, 2, 3] if atom[0] == "(" else [0, 1, 2, 3, 5, 13, 32, 40, 64, 65]
        atom += rng.choice(["^", " ^ "]) + str(rng.choice(exponents))
    return signs + atom


def _draw_expr(rng: random.Random, depth: int) -> str:
    text = ""
    for i in range(rng.choice([1, 1, 2, 3])):
        term = "*".join(_draw_factor(rng, depth) for _ in range(rng.choice([1, 1, 2])))
        text += (rng.choice(["+", "-", " - "]) if i else "") + term
    return text


MUTATION_CHARACTERS = " \t+-*^()/xyz0123456789@i\u00b2\u0663"


def _mutate(rng: random.Random, text: str) -> str:
    kind = rng.randrange(20)
    at = rng.randrange(len(text) + 1)
    if kind == 0:  # deep nesting
        depth = rng.choice([99, 100, 101])
        return "(" * depth + text + ")" * depth
    if kind == 1:  # a run of unary signs
        return rng.choice(["-", "+-", "+"]) * rng.choice([1, 2, 250, 501]) + text
    if kind == 2 and not text.endswith(")"):  # a huge exponent, not on a parenthesis
        return text + rng.choice(["^99999999", "^64", "^65"])
    kind %= 5
    if kind == 0:  # cut short
        return text[:at]
    if kind == 1:  # a character inserted
        return text[:at] + rng.choice(MUTATION_CHARACTERS) + text[at:]
    if kind == 2:  # a character deleted
        return text[:at] + text[at + 1:]
    if kind == 3:  # a character replaced
        return text[:at] + rng.choice(MUTATION_CHARACTERS) + text[at + 1:]
    return text + rng.choice(["*", "+", "/", "^", ")", "(", "/0", "/7"])


def _cap_cases(rng: random.Random) -> list[str]:
    """Powers and products at the degree cap and at COEFF_BIT_CAP, and
    cancellations whose reduced form is what the checks read."""
    cap = COEFF_BIT_CAP
    e3 = next(e for e in itertools.count(cap * 2 // 3, -1) if (3**e).bit_length() <= cap)
    half, sixth = cap // 2, cap // 6 + 1  # sixth * 6 passes the cap
    cases = ["(x^40-x^40)*x^40", "(x^40-x^40)^2*x^64", "(x-x)^64*x^64", "(x^32-x^32+y)^64",
             "(2*x-2*x)^3*x^64", "x^64*(y-y)", "(1/2*x-1/2*x+1)*x^64", "0*x^64*y^64",
             "(x^2+y^2)^16-(y^2+x^2)^16", f"2^{cap - 1}", f"2^{cap}", f"-2^{cap - 1}",
             f"(1/2)^{cap - 1}", f"(1/2)^{cap}", f"(2/3)^{e3}", f"3^{e3 + 1}",
             f"2^{cap - 1}-2^{cap - 1}", f"(2^{cap - 1}-2^{cap - 1})*2^{cap - 1}",
             f"2^{half}*2^{cap - 1 - half}", f"2^{half}*2^{cap - half}",
             f"2^{half}*x*2^{cap - 1 - half}", f"(2^{half - 1000}*x+y)^2",
             f"(2^{cap // 3 - 1000}*x+y+z)^3", f"(2^{cap // 4 - 1}*x+y)^4",
             f"(2^{cap // 4}*x+y)^4", f"1/2^{cap - 1}*2^{cap - 1}", "(x+y)^64",
             "(1/2*x+1/3*y)^64", "(x+y+1)^0", "0^0", f"0^{cap}", "1^99999999", "(-1)^99999999",
             "x^0^0", "0^99999999", "(x-x)^99999999*x^64", f"(x-x+2)^{cap - 1}",
             f"(x-x+2)^{cap}",
             # a bad character right after a factor is refused before the product
             "x^64*x@", f"2^{half}*2^{half + 1}i", "x^64*3/@", "(x^64)*(x)\u00b2",
             # 6 * sixth bits, just past the cap; a product sized only once reduced
             f"({2**sixth - 1}*x)^6", f"({2**sixth - 1}*x)^5",
             f"(1/2)^{cap - 1000}*2^{cap - 1000}*2^{half}"]
    for _ in range(300):
        base = rng.choice([2, 3, 5, 7, 10, 255, 256])
        over = rng.choice(["", f"/{rng.choice([3, 7, 1024])}"])
        exponent = COEFF_BIT_CAP // (base.bit_length() - 1) + rng.randrange(-2, 3)
        power = f"({base}{over})^{exponent}"
        cases.append(rng.choice([power, f"{power}*x^{rng.randrange(60, 66)}",
                                 f"x^{rng.randrange(30, 36)}*{power}*y^{rng.randrange(30, 36)}",
                                 f"2^{rng.randrange(cap * 3 // 8, cap * 5 // 8)}"
                                 f"*2^{rng.randrange(cap * 3 // 8, cap * 5 // 8)}",
                                 f"(2^{rng.randrange(cap // 4 - 400, cap // 4 + 200)}*x+y)^4"]))
    return cases


def _outcome(parse, text: str):
    try:
        p = parse(text)
    except (PolyParseError, DegreeCapError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return p.terms, p.denom


def _printed(to_string, p: Polynomial3):
    """The string, or the error of a coefficient past Python's digit limit."""
    try:
        return to_string(p)
    except ValueError as exc:
        return type(exc), str(exc)


_LITERAL = re.compile(r"\^\s*(?P<exponent>[0-9]+)|(?P<num>[0-9]+)(?:\s*/\s*(?P<den>[0-9]+))?")


def _fraction_value(text: str, point: tuple[Fraction, Fraction, Fraction]) -> Fraction:
    """The text evaluated by Python on Fractions: a p/q literal binds before
    '^', as the grammar reads it, and '^' is '**'."""
    def spell(m):
        if m["exponent"]:
            return "**" + str(int(m["exponent"]))
        return f"F({int(m['num'])}, {int(m['den'] or 1)})"

    code = " ".join(_LITERAL.sub(spell, text).split())
    return eval(code, {"F": Fraction, "x": point[0], "y": point[1], "z": point[2]})


def test_parser_matches_the_reference_on_20000_seeded_strings(monkeypatch):
    rng = random.Random(28)
    texts = [_draw_expr(rng, rng.choice([0, 1, 1, 2])) for _ in range(10_000)]
    texts += [_mutate(rng, rng.choice(texts)) for _ in range(10_000)]
    texts += _cap_cases(rng)
    texts += ["-" * 500 + "x", "+-" * 250 + "-x", "(" * 100 + "x" + ")" * 100,
              "(" * 101 + "x" + ")" * 101, "-(" * 100 + "-x" + ")" * 100,
              QUARTIC_EXPR, SEXTIC_EXPR, OCTIC_EXPR, "-7/2*x^2*y+1/3*z-1/6",
              "-1/2*x+1/3+3/4*y^3*z"]
    valid = failed = 0
    for text in texts:
        degree_cap = rng.choice([DEGREE_CAP] * 3 + [8])
        monkeypatch.setattr(poly, "DEGREE_CAP", degree_cap)
        ours = _outcome(parse_poly, text)
        assert ours == _outcome(lambda t: reference_parse(t, degree_cap), text), text
        if isinstance(ours[0], type):
            failed += 1
            continue
        valid += 1
        p = Polynomial3(*ours)
        assert _printed(Polynomial3.to_string, p) == _printed(reference_to_string, p), text
        point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        assert p.evaluate(*point) == _fraction_value(text, point), text
    assert valid > 8000 and failed > 8000  # both sides of the grammar are drawn


def test_parsing_the_sextic_constructs_one_polynomial(monkeypatch):
    built = []
    init = Polynomial3.__init__

    def counting_init(self, terms, denom):
        built.append(self)
        init(self, terms, denom)

    monkeypatch.setattr(Polynomial3, "__init__", counting_init)
    p = parse_poly(SEXTIC_EXPR)
    assert len(built) == 1
    monkeypatch.undo()
    assert p == reference_parse(SEXTIC_EXPR)


@pytest.mark.parametrize(
    "expr",
    ["x^2-y^2", QUARTIC_EXPR, "x^2+y", "1/3*x-2*y", "-x*y*z+7/2", "(1/2+3/2*z)*x*y"],
)
def test_parse_to_string_roundtrip(expr):
    p = parse_poly(expr)
    assert parse_poly(p.to_string()) == p


def test_roundtrip_random_corpus():
    rng = random.Random(7)
    for degree in range(0, 9):
        for _ in range(5):
            p = random_homogeneous(rng, degree)
            assert parse_poly(p.to_string()) == p


def test_canonical_lines_sorted():
    p = parse_poly("x^2-y^2")
    assert canonical_lines(p) == "-1 0 2 0\n1 2 0 0"


# -- representation: integer numerators over one reduced denominator ----------


def test_equal_values_have_one_representation():
    half = parse_poly("2/4*x")
    assert half == parse_poly("1/2*x")
    assert hash(half) == hash(parse_poly("1/2*x"))
    assert half.denom == 2 and half.terms == {(1, 0, 0): 1}
    three_halves = parse_poly("6/4*x+3/2*y")
    assert three_halves == parse_poly("3/2*(x+y)")
    assert (three_halves.denom, three_halves.terms) == (2, {(1, 0, 0): 3, (0, 1, 0): 3})


def test_difference_with_itself_is_zero():
    for p in (variable(0), parse_poly("1/3*x-2/5*y")):
        zero = p - p
        assert zero == Polynomial3.zero() and not zero
        assert zero.terms == {} and zero.denom == 1


def _integer_form_reference(p):
    """Common denominator as the lcm of the reduced Fraction denominators."""
    coeffs = {m: c.re for m, c in p.sorted_terms()}
    denom = math.lcm(*(c.denominator for c in coeffs.values()))
    return denom, {m: int(c * denom) for m, c in coeffs.items()}


BENCHMARK_POLYS = ["1", QUARTIC_EXPR, SEXTIC_EXPR, "x^8-28*x^6*y^2+70*x^4*y^4-28*x^2*y^6+y^8"]


def test_integer_form_matches_fraction_reference():
    polys = [parse_poly(e) for e in BENCHMARK_POLYS]
    polys += [parse_poly("1/3*x^2-1/7*y^2"), parse_poly("x^2*y^2-1/3*z^4+2*x^4"),
              Polynomial3.zero()]
    rng = random.Random(5)
    polys += [random_homogeneous(rng, degree) for degree in range(0, 9) for _ in range(5)]
    for p in polys:
        assert (p.denom, p.terms) == _integer_form_reference(p), p


def test_arithmetic_matches_sympy_on_corpus():
    rng = random.Random(17)
    scalars = [parse_poly("1"), parse_poly("(1/2-3/4)"), parse_poly("5/3")]
    for degree in range(0, 5):
        p = random_homogeneous(rng, degree) * rng.choice(scalars)
        q = random_homogeneous(rng, degree + 1) * rng.choice(scalars)
        sp, sq = to_sympy(p), to_sympy(q)
        assert to_sympy(p + q) == sympy.expand(sp + sq)
        assert to_sympy(p - q) == sympy.expand(sp - sq)
        assert to_sympy(p * q) == sympy.expand(sp * sq)
        assert to_sympy(p**3) == sympy.expand(sp**3)
        assert to_sympy(p * Fraction(-4, 6)) == sympy.expand(sp * sympy.Rational(-2, 3))


def test_exact_evaluation_is_a_fraction():
    assert parse_poly("1/3*x^2-y").evaluate(1, 2, 0) == Fraction(-5, 3)
    assert parse_poly("(x+2*y)^2").evaluate(1, Fraction(1, 2), 0) == 4
    for p in (parse_poly("x+y"), Polynomial3.zero()):
        value = p.evaluate(0, Fraction(1, 2), 9)
        assert value == (Fraction(1, 2) if p else 0) and isinstance(value, Fraction)


# -- calculus ----------------------------------------------------------------


def test_laplacian_harmonic_quadratic():
    assert not parse_poly("x^2-y^2").laplacian()


def test_laplacian_norm_fourth_power():
    # term-by-term differentiation oracle: Lap |x|^4 = 20 |x|^2
    p = parse_poly("(x^2+y^2+z^2)^2")
    assert p.laplacian() == parse_poly("20*(x^2+y^2+z^2)")


def test_laplacian_quartic_is_zero(quartic):
    assert not quartic.laplacian()


def test_laplacian_matches_sympy_on_corpus():
    rng = random.Random(11)
    for degree in range(1, 7):
        p = random_homogeneous(rng, degree)
        ours = to_sympy(p.laplacian())
        theirs = sympy.expand(
            sympy.diff(to_sympy(p), X, 2)
            + sympy.diff(to_sympy(p), Y, 2)
            + sympy.diff(to_sympy(p), Z, 2)
        )
        assert ours == theirs


def _real_and_imaginary_parts(a, nu: int) -> list[Polynomial3]:
    """(a . x)^nu expanded by sympy, its real and imaginary parts parsed."""
    power = sympy.Poly(sympy.expand((a[0] * X + a[1] * Y + a[2] * Z) ** nu), X, Y, Z)
    parts = []
    for take in (sympy.re, sympy.im):
        text = "+".join(f"({take(c)})*x^{i}*y^{j}*z^{k}" for (i, j, k), c in power.terms())
        part = parse_poly(text)
        assert to_sympy(part) == sympy.expand(sum(
            take(c) * X**i * Y**j * Z**k for (i, j, k), c in power.terms()
        ))
        parts.append(part)
    assert any(parts)
    return parts


def test_isotropic_powers_are_harmonic():
    # (a . x)^nu with a1^2 + a2^2 + a3^2 = 0, e.g. a = (3, 4, 5i): Lap is
    # real-linear, so its real and imaginary parts are real harmonics
    a = (sympy.Integer(3), sympy.Integer(4), 5 * sympy.I)
    for nu in range(1, 9):
        for part in _real_and_imaginary_parts(a, nu):
            assert not part.laplacian()


def test_isotropic_powers_random_vectors():
    # a = (p^2 - q^2, 2pq, i(p^2 + q^2)) is isotropic for any rationals p, q
    rng = random.Random(3)
    for _ in range(5):
        p_ = sympy.Rational(rng.randint(1, 6), rng.randint(1, 4))
        q_ = sympy.Rational(rng.randint(1, 6), rng.randint(1, 4))
        a = (p_**2 - q_**2, 2 * p_ * q_, sympy.I * (p_**2 + q_**2))
        for nu in (2, 3, 5):
            for part in _real_and_imaginary_parts(a, nu):
                assert not part.laplacian()


def test_is_harmonic_is_a_zero_laplacian():
    # reference: the Laplacian built as a polynomial; seeded homogeneous and
    # mixed-degree P, their harmonic parts, the corpus, 0 and constants
    rng = random.Random(7)
    cases = [parse_poly(e) for e in (QUARTIC_EXPR, SEXTIC_EXPR, OCTIC_EXPR, "0", "5",
                                     "x^2-y^2", "x^2", "x*y*z", "x^4-6*x^2*y^2+y^4+z")]
    for _ in range(150):
        p = random_homogeneous(rng, rng.randint(0, 10), rng.randint(1, 8))
        cases += [p, p + random_homogeneous(rng, rng.randint(0, 4))]
        cases += [part for _, part in harmonic_decompose(p).parts]
    assert {p.is_harmonic for p in cases} == {True, False}
    for p in cases:
        assert p.is_harmonic == (not p.laplacian()), p.to_string()


# -- harmonic decomposition ----------------------------------------------------


def test_decompose_norm_squared():
    d = harmonic_decompose(Polynomial3.norm_squared())
    assert [(dd, c.to_string()) for dd, c in d.parts] == [(1, "1")]


def test_decompose_x_squared():
    d = harmonic_decompose(parse_poly("x^2"))
    parts = dict(d.parts)
    assert parts[1] == parse_poly("1/3")
    assert parts[0] == parse_poly("x^2-1/3*(x^2+y^2+z^2)")
    assert reconstruct(d) == parse_poly("x^2")


def test_decompose_harmonic_is_identity(quartic):
    d = harmonic_decompose(quartic)
    assert d.parts == ((0, quartic),)


def test_decompose_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        harmonic_decompose(parse_poly("x^2+y"))


def test_decompose_properties_on_corpus():
    rng = random.Random(23)
    for degree in range(0, 9):
        for _ in range(4):
            p = random_homogeneous(rng, degree)
            d = harmonic_decompose(p)
            assert reconstruct(d) == p
            for dd, part in d.parts:
                assert not part.laplacian()
                assert part.is_homogeneous
                assert part.degree == degree - 2 * dd or not part


# -- sphere averages ------------------------------------------------------------


def test_sphere_average_basic():
    assert sphere_average(parse_poly("x^2")) == Fraction(1, 3)
    assert sphere_average(parse_poly("x*y^2")) == 0
    assert sphere_average(parse_poly("(x^2+y^2+z^2)^2")) == 1
    assert sphere_average(parse_poly("x^4")) == Fraction(1, 5)


def test_sphere_average_quartic_zero(quartic):
    assert sphere_average(quartic) == 0


def test_monomial_average_against_quadrature():
    import math

    from scipy import integrate

    for (i, j, k) in [(2, 0, 0), (2, 2, 0), (4, 0, 0), (2, 2, 2)]:
        exact = float(monomial_sphere_average(i, j, k))

        def integrand(phi, theta, i=i, j=j, k=k):
            sx = math.sin(theta) * math.cos(phi)
            sy = math.sin(theta) * math.sin(phi)
            sz = math.cos(theta)
            return (sx**i) * (sy**j) * (sz**k) * math.sin(theta)

        value, _ = integrate.dblquad(integrand, 0, math.pi, 0, 2 * math.pi)
        assert abs(value / (4 * math.pi) - exact) < 1e-9


def test_zero_mean_iff_no_constant_component():
    rng = random.Random(31)
    for degree in (2, 4, 6):
        for _ in range(6):
            p = random_homogeneous(rng, degree)
            constant_part = component(harmonic_decompose(p), degree // 2)
            assert (sphere_average(p) == 0) == (not constant_part)
