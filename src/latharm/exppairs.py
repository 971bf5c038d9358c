"""Exact exponent-pair calculus and minimax balancing of error exponents.

Everything here is exact: the A/B processes on exponent pairs, the long- and
short-sum error-term templates, and the minimax solver that balances them by
choosing the smoothing width H = R^alpha: an integer upper envelope, O(T log T).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cmp_to_key
from math import lcm
from typing import Iterable, Mapping, Sequence


@dataclass(frozen=True)
class ExponentPair:
    """Pair (k, l) with 0 <= k <= 1/2 <= l <= 1; eps marks a '+eps' pair."""

    k: Fraction
    l: Fraction
    eps: bool = False

    def __post_init__(self) -> None:
        if not (0 <= self.k <= Fraction(1, 2) <= self.l <= 1):
            raise ValueError(f"invalid exponent pair ({self.k}, {self.l})")

    def __str__(self) -> str:
        suffix = " (+eps)" if self.eps else ""
        return f"{self.k},{self.l}{suffix}"


# Pairs with established names; eps records whether the source estimate
# carries an epsilon in the exponent.
KNOWN_PAIRS: dict[str, ExponentPair] = {
    "trivial": ExponentPair(Fraction(0), Fraction(1)),
    "classic": ExponentPair(Fraction(1, 2), Fraction(1, 2)),
    "bombieri-iwaniec": ExponentPair(Fraction(9, 56), Fraction(37, 56), eps=True),
    "huxley": ExponentPair(Fraction(32, 205), Fraction(269, 410), eps=True),
    "lindelof": ExponentPair(Fraction(0), Fraction(1, 2), eps=True),
}


def pair_A(p: ExponentPair) -> ExponentPair:
    """Weyl-differencing step: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2))."""
    denom = 2 * p.k + 2
    return ExponentPair(p.k / denom, (p.k + p.l + 1) / denom, eps=p.eps)


def pair_B(p: ExponentPair) -> ExponentPair:
    """Poisson/stationary-phase step: (k, l) -> (l - 1/2, k + 1/2)."""
    return ExponentPair(p.l - Fraction(1, 2), p.k + Fraction(1, 2), eps=p.eps)


# Longest expansion a process word may ask for: A^n costs O(n^2) time, and
# A^10000 already carries denominators of about 10^4 bits.
WORD_CAP = 10_000

# One run of a process word: a letter with an optional ^ and repeat count,
# or the first character that is neither.
_WORD_RUN = re.compile(r"\s*(?:([AaBb])\^?([0-9]*)|(\S))")


def pair_apply_word(word: str, p: ExponentPair) -> ExponentPair:
    """Apply a process word, rightmost letter first, so BA2 = B after A, A.

    Accepts e.g. "BA2", "BA^2", "AB"; digits 0-9 repeat the preceding letter.
    A word expanding to more than WORD_CAP letters is refused before any
    letter is applied.
    """
    runs = []
    for letter, digits, bad in _WORD_RUN.findall(word):
        if bad:
            raise ValueError(f"bad process word {word!r}: unexpected {bad!r}")
        runs.append((pair_A if letter in "Aa" else pair_B, max(int(digits or 0), 1)))
    total = sum(count for _, count in runs)
    if total > WORD_CAP:
        raise ValueError(f"process word expands to {total} letters, above {WORD_CAP}")
    result = p
    for step, count in reversed(runs):
        for _ in range(count):
            result = step(result)
    return result


@dataclass(frozen=True)
class ErrorTerm:
    """Formal error term R^a H^b, exponents exact rationals."""

    r_exp: Fraction
    h_exp: Fraction

    def __str__(self) -> str:
        return format_term(self.r_exp, self.h_exp)


def format_term(r_exp: Fraction, h_exp: Fraction) -> str:
    if r_exp == 0 and h_exp == 0:
        return "1"
    parts = []
    if r_exp != 0:
        parts.append("R" if r_exp == 1 else f"R^{r_exp}")
    if h_exp != 0:
        parts.append("H" if h_exp == 1 else f"H^{h_exp}")
    return "".join(parts) or "1"


def term(r_exp, h_exp) -> ErrorTerm:
    return ErrorTerm(Fraction(r_exp), Fraction(h_exp))


def long_sum_terms(p: ExponentPair) -> list[ErrorTerm]:
    """Smoothed-sum error terms produced by an exponent pair (k, l).

    The second exponent specializes to R^(17/14) H^(-1/7) at (1/2, 1/2).
    """
    denom = 4 * p.k + 2 * p.l + 4
    return [
        term(1, Fraction(-1, 2)),
        term(1 + (p.k + 1) / denom, -(p.k + 3 * p.l - 1) / denom),
    ]


# named long-sum estimates: van der Corput's, and those of four exponent pairs
LONG_SUM_MODELS: dict[str, list[ErrorTerm]] = {
    "vdc": [term(1, -1)],
    "classic": long_sum_terms(KNOWN_PAIRS["classic"]),
    "huxley": long_sum_terms(KNOWN_PAIRS["huxley"]),
    "huxley-ba2": long_sum_terms(pair_apply_word("BA2", KNOWN_PAIRS["huxley"])),
    "lindelof": long_sum_terms(KNOWN_PAIRS["lindelof"]),
}


SHORT_SUM_MODELS: dict[str, list[ErrorTerm]] = {
    # boundary-shell estimates: trivial counting, character-sum bounds,
    # the cusp-form coefficient bound, and two conjectural strengths
    "trivial": [term(2, 1)],
    "CI": [term(Fraction(15, 8), Fraction(7, 8))],
    "HB": [term(Fraction(11, 6), Fraction(5, 6))],
    "cusp": [term(Fraction(15, 8), 1), term(1, 0)],
    "GLH": [term(Fraction(3, 2), Fraction(1, 2))],
    "RC": [term(Fraction(3, 2), 1)],
}


def short_sum_terms(model: str) -> list[ErrorTerm]:
    try:
        return list(SHORT_SUM_MODELS[model])
    except KeyError:
        raise ValueError(
            f"unknown short-sum model {model!r}; choose from {sorted(SHORT_SUM_MODELS)}"
        ) from None


@dataclass(frozen=True)
class BalanceResult:
    """Optimal alpha = log H / log R and the resulting error exponent."""

    alpha: Fraction
    theta: Fraction
    active_terms: tuple[str, ...]

    def __str__(self) -> str:
        active = ", ".join(self.active_terms)
        return f"theta={self.theta} at alpha={self.alpha} (active: {active})"


def _turn(s: tuple[int, int, int], t: tuple[int, int, int], u: tuple[int, int, int]) -> int:
    """Orientation of the points (B/L, A/L) of lines (A + B*alpha)/L: t is on top if < 0."""
    return (s[1] * (t[0] * u[2] - u[0] * t[2]) - s[0] * (t[1] * u[2] - u[1] * t[2])
            + s[2] * (t[1] * u[0] - u[1] * t[0]))


def balance(
    long_terms: Sequence[ErrorTerm],
    short_terms: Sequence[ErrorTerm],
    alpha_range: tuple[Fraction, Fraction] = (Fraction(-1), Fraction(0)),
) -> BalanceResult:
    """Minimize max over terms of (a + b*alpha) exactly on a closed range.

    Ties break toward the largest alpha: where the terms' upper envelope turns
    from slope <= 0 to > 0, clamped to the range. Each term is held as integers
    (A + B*alpha)/L over its own denominator; a sort by slope and one
    monotone-stack pass build the envelope of T terms in O(T log T).
    """
    terms = list(long_terms) + list(short_terms)
    if not long_terms or not short_terms:
        raise ValueError("balance needs nonempty long and short term lists")
    lo, hi = Fraction(alpha_range[0]), Fraction(alpha_range[1])
    if lo > hi:
        raise ValueError("empty alpha range")
    lines = []
    for t in terms:
        (na, da), (nb, db) = t.r_exp.as_integer_ratio(), t.h_exp.as_integer_ratio()
        den = lcm(da, db)
        lines.append((na * (den // da), nb * (den // db), den))
    # by slope, then intercept, so the last of equal slopes is the highest
    by_slope = cmp_to_key(lambda s, t: s[1] * t[2] - t[1] * s[2] or s[0] * t[2] - t[0] * s[2])
    hull: list[tuple[int, int, int]] = []
    for line in sorted(lines, key=by_slope):
        if hull and hull[-1][1] * line[2] == line[1] * hull[-1][2]:
            hull.pop()
        while len(hull) > 1 and _turn(hull[-2], hull[-1], line) >= 0:
            hull.pop()
        hull.append(line)
    rising = next((i for i, line in enumerate(hull) if line[1] > 0), len(hull))
    alpha = lo if rising == 0 else hi
    if 0 < rising < len(hull):
        (a1, b1, d1), (a2, b2, d2) = hull[rising - 1 : rising + 1]
        alpha = min(max(Fraction(a1 * d2 - a2 * d1, b2 * d1 - b1 * d2), lo), hi)
    q = alpha.denominator
    values = [(a * q + b * alpha.numerator, den) for a, b, den in lines]
    top, top_den = max(values, key=cmp_to_key(lambda s, t: s[0] * t[1] - t[0] * s[1]))
    active = tuple(str(t) for t, (n, d) in zip(terms, values) if n * top_den == top * d)
    return BalanceResult(alpha=alpha, theta=Fraction(top, top_den * q), active_terms=active)


def theta_formula(p: ExponentPair) -> Fraction:
    """Closed-form error exponent 1 + max(7/24, (15k+21l+1)/(40k+40l+24))."""
    k, l = p.k, p.l
    branch = (15 * k + 21 * l + 1) / (40 * k + 40 * l + 24)
    return 1 + max(Fraction(7, 24), branch)


@dataclass(frozen=True)
class TableRow:
    """One row of the summary table of proved and conjectured exponents."""

    long_label: str
    short_label: str
    theta: Fraction
    alpha: Fraction
    applicability: str
    marks: int  # number of question marks carried by the source row

    def marks_suffix(self) -> str:
        return "?" * self.marks


def _terms_label(terms: Iterable[ErrorTerm]) -> str:
    return " + ".join(str(t) for t in terms)


_CI_LONG = [
    term(1, Fraction(-1, 2)),
    term(Fraction(11, 8), Fraction(1, 8)),
    term(Fraction(21, 16), 0),
]


def _row_definitions() -> list[tuple[str, list[ErrorTerm], str, str, int]]:
    classic, lep = LONG_SUM_MODELS["classic"], LONG_SUM_MODELS["lindelof"]
    return [
        ("Van der Corput", LONG_SUM_MODELS["vdc"], "trivial", "all P", 0),
        ("Chen; Vinogradov", [term(1, Fraction(-1, 2))], "trivial", "all P", 0),
        ("Chamizo-Iwaniec", _CI_LONG, "CI", "P = 1", 0),
        ("Chamizo-Iwaniec", _CI_LONG, "HB", "P = 1", 0),
        ("classic pair", classic, "cusp", "mean-zero P", 0),
        ("Huxley pair BA2", LONG_SUM_MODELS["huxley-ba2"], "cusp", "mean-zero P", 0),
        ("Lindelof pair", lep, "cusp", "mean-zero P", 2),
        ("classic pair", classic, "GLH", "P = 1", 2),
        ("Lindelof pair", lep, "GLH", "P = 1", 2),
        ("classic pair", classic, "RC", "mean-zero P", 2),
        ("Huxley pair", LONG_SUM_MODELS["huxley"], "RC", "mean-zero P", 2),
        ("Lindelof pair", lep, "RC", "mean-zero P", 2),
    ]


@cache
def exponent_table() -> tuple[TableRow, ...]:
    """The twelve summary rows, balanced through the engine on the first
    call and shared after it (a tuple of frozen rows, so no caller can
    change them)."""
    rows = []
    for long_label, long_terms_, short_model, applicability, marks in _row_definitions():
        short_terms_ = short_sum_terms(short_model)
        result = balance(long_terms_, short_terms_)
        rows.append(
            TableRow(
                long_label=f"{_terms_label(long_terms_)} ({long_label})",
                short_label=f"{_terms_label(short_terms_)} ({short_model})",
                theta=result.theta,
                alpha=result.alpha,
                applicability=applicability,
                marks=marks,
            )
        )
    return tuple(rows)


def table_csv(rows: Sequence[TableRow]) -> str:
    lines = ["long,short,theta,alpha,marks"]
    for r in rows:
        lines.append(
            f"\"{r.long_label}\",\"{r.short_label}\",{r.theta},{r.alpha},{r.marks}"
        )
    return "\n".join(lines) + "\n"


def table_text(rows: Sequence[TableRow]) -> str:
    """Aligned plain-text rendering of the summary table."""
    header = ("Long sum", "Short sum", "theta", "alpha", "applies to")
    body = [
        (
            r.long_label,
            r.short_label,
            f"{r.theta}{r.marks_suffix()} ({float(r.theta):.5f})",
            f"{r.alpha}{r.marks_suffix()} ({float(r.alpha):.5f})",
            r.applicability,
        )
        for r in rows
    ]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body)) for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    lines.append("conjectured best: theta = 1 (open)")
    return "\n".join(lines) + "\n"


# A larger decimal exponent is refused before Fraction builds 10^exponent.
RATIONAL_EXP_CAP = 1000


def parse_rational(text: str) -> Fraction:
    """'p/q' or a decimal such as '-1.5e-3' as a Fraction; ValueError for a
    zero denominator, an exponent past RATIONAL_EXP_CAP or other bad text.
    Digits are ASCII: Fraction and int would also read other scripts' digits."""
    if not text.isascii():
        raise ValueError(f"bad rational {text!r}: digits must be ASCII 0-9")
    _, e, exponent = text.lower().partition("e")
    try:
        if e and abs(int(exponent)) > RATIONAL_EXP_CAP:
            raise ValueError(f"exponent beyond {RATIONAL_EXP_CAP}")
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"bad rational {text!r}: zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


def parse_rationals(text: str, count: int) -> list[Fraction]:
    """`count` comma-separated rationals, each read by `parse_rational`."""
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated rationals in {text!r}")
    return [parse_rational(s) for s in parts]


def parse_pair(text: str, eps: bool | None = None) -> ExponentPair:
    """Parse 'k,l' with rational entries; eps defaults from the known-pair list."""
    k, l = parse_rationals(text, 2)
    if eps is None:
        eps = any(p.k == k and p.l == l and p.eps for p in KNOWN_PAIRS.values())
    return ExponentPair(k, l, eps=eps)


def parse_terms(text: str, models: Mapping[str, Sequence[ErrorTerm]]) -> list[ErrorTerm]:
    """A model name from `models`, or 'a,b;a,b;...' exponent pairs."""
    if text in models:
        return list(models[text])
    out = []
    try:
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if chunk:
                out.append(term(*parse_rationals(chunk, 2)))
    except ValueError as exc:
        raise ValueError(f"{exc}; or name a model: {', '.join(models)}") from None
    if not out:
        raise ValueError("empty term list")
    return out
