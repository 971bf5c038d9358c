import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from latharm.exppairs import (
    BalanceResult,
    KNOWN_PAIRS,
    LONG_SUM_MODELS,
    RATIONAL_EXP_CAP,
    SHORT_SUM_MODELS,
    WORD_CAP,
    ExponentPair,
    exponent_table,
    balance,
    long_sum_terms,
    pair_A,
    pair_B,
    pair_apply_word,
    parse_pair,
    parse_rational,
    parse_rationals,
    parse_terms,
    short_sum_terms,
    term,
    theta_formula,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def pair(k, l, eps=False):
    return ExponentPair(F(k), F(l), eps)


# -- A and B processes ---------------------------------------------------------


def test_A_fixed_point_trivial_pair():
    assert pair_A(pair(0, 1)) == pair(0, 1)


def test_A_of_classic():
    assert pair_A(pair(F(1, 2), F(1, 2))) == pair(F(1, 6), F(2, 3))


def test_A_intermediate_of_huxley_iteration():
    assert pair_A(pair(F(32, 205), F(269, 410), eps=True)) == pair(
        F(16, 237), F(743, 948), eps=True
    )


def test_B_of_trivial():
    assert pair_B(pair(0, 1)) == pair(F(1, 2), F(1, 2))


def test_B_fixed_point():
    assert pair_B(pair(F(1, 6), F(2, 3))) == pair(F(1, 6), F(2, 3))


def test_B_of_iterated_huxley():
    assert pair_B(pair(F(8, 253), F(1755, 2024), eps=True)) == pair(
        F(743, 2024), F(269, 506), eps=True
    )


def test_word_BA2_on_huxley():
    result = pair_apply_word("BA2", KNOWN_PAIRS["huxley"])
    assert (result.k, result.l) == (F(743, 2024), F(269, 506))
    assert result.eps


def test_word_accepts_caret():
    assert pair_apply_word("BA^2", KNOWN_PAIRS["huxley"]) == pair_apply_word(
        "BA2", KNOWN_PAIRS["huxley"]
    )


def test_empty_word_is_identity():
    assert pair_apply_word("", pair(F(1, 2), F(1, 2))) == pair(F(1, 2), F(1, 2))


def test_word_AB_on_trivial():
    assert pair_apply_word("AB", pair(0, 1)) == pair(F(1, 6), F(2, 3))


def test_word_runs_and_refusals():
    # spaces between runs, a lone ^ or a 0 count as one letter; a space
    # inside a run, or a non-ASCII digit, is refused at that character
    huxley = KNOWN_PAIRS["huxley"]
    a, b = pair_A(huxley), pair_B(huxley)
    assert pair_apply_word(" a^ b0 ", huxley) == pair_A(b)
    assert pair_apply_word("A\tA2", huxley) == pair_A(pair_A(pair_A(huxley)))
    assert pair_apply_word("B^1", huxley) == b
    assert pair_apply_word("Ab", huxley) == pair_A(b) != pair_B(a)
    for word, bad in (("A ^2", "^"), ("A^ 2", "2"), ("A\u00b2", "\u00b2"), ("2A", "2")):
        with pytest.raises(ValueError) as err:
            pair_apply_word(word, huxley)
        assert str(err.value) == f"bad process word {word!r}: unexpected {bad!r}"


def test_huge_word_refused_before_expansion():
    # "A" * 99999999999 would be a 100 GB string
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="99999999999 letters"):
            pair_apply_word("A99999999999", KNOWN_PAIRS["huxley"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_word_cap_boundary():
    # B is an involution, so B^WORD_CAP is the identity; one letter more,
    # in any run, is refused
    huxley = KNOWN_PAIRS["huxley"]
    assert pair_apply_word(f"B{WORD_CAP}", huxley) == huxley
    for word in (f"B{WORD_CAP + 1}", f"AB{WORD_CAP}", f"B{WORD_CAP // 2}B{WORD_CAP // 2}A"):
        with pytest.raises(ValueError, match=f"{WORD_CAP + 1} letters"):
            pair_apply_word(word, huxley)


def test_invalid_pair_rejected():
    with pytest.raises(ValueError):
        pair(F(3, 4), F(1, 2))
    with pytest.raises(ValueError):
        pair(F(1, 4), F(1, 4))


def test_A_preserves_validity_on_grid():
    for kn in range(0, 9):
        for ln in range(9, 17):
            k, l = F(kn, 16), F(ln, 16)
            q = pair_A(pair(k, l))
            assert 0 <= q.k <= F(1, 2) <= q.l <= 1


# -- term templates --------------------------------------------------------------


def test_long_terms_classic_pair():
    terms = long_sum_terms(pair(F(1, 2), F(1, 2)))
    assert [(t.r_exp, t.h_exp) for t in terms] == [
        (F(1), F(-1, 2)),
        (F(17, 14), F(-1, 7)),
    ]


def test_long_terms_huxley_ba2():
    p = pair_apply_word("BA2", KNOWN_PAIRS["huxley"])
    terms = long_sum_terms(p)
    assert (terms[1].r_exp, terms[1].h_exp) == (F(15987, 13220), F(-1947, 13220))


def test_long_terms_lindelof():
    terms = long_sum_terms(pair(0, F(1, 2)))
    assert (terms[1].r_exp, terms[1].h_exp) == (F(6, 5), F(-1, 10))


def test_long_term_models():
    assert sorted(LONG_SUM_MODELS) == ["classic", "huxley", "huxley-ba2", "lindelof", "vdc"]
    assert LONG_SUM_MODELS["vdc"] == [term(1, -1)]
    assert LONG_SUM_MODELS["classic"] == long_sum_terms(pair(F(1, 2), F(1, 2)))
    assert LONG_SUM_MODELS["huxley"] == long_sum_terms(KNOWN_PAIRS["huxley"])
    assert LONG_SUM_MODELS["huxley-ba2"][1] == term(F(15987, 13220), F(-1947, 13220))
    assert LONG_SUM_MODELS["lindelof"] == long_sum_terms(pair(0, F(1, 2)))


def test_term_prints_its_exponents():
    assert [str(t) for t in LONG_SUM_MODELS["classic"]] == ["RH^-1/2", "R^17/14H^-1/7"]
    assert str(term(0, 0)) == "1"
    assert str(term(2, 1)) == "R^2H"


def test_short_term_models():
    assert [(t.r_exp, t.h_exp) for t in short_sum_terms("trivial")] == [(F(2), F(1))]
    assert [(t.r_exp, t.h_exp) for t in short_sum_terms("cusp")] == [
        (F(15, 8), F(1)),
        (F(1), F(0)),
    ]
    assert [(t.r_exp, t.h_exp) for t in short_sum_terms("RC")] == [(F(3, 2), F(1))]
    assert [(t.r_exp, t.h_exp) for t in short_sum_terms("CI")] == [(F(15, 8), F(7, 8))]
    assert [(t.r_exp, t.h_exp) for t in short_sum_terms("HB")] == [(F(11, 6), F(5, 6))]
    assert [(t.r_exp, t.h_exp) for t in short_sum_terms("GLH")] == [(F(3, 2), F(1, 2))]
    with pytest.raises(ValueError):
        short_sum_terms("nope")


# -- balancing --------------------------------------------------------------------


def test_balance_classic_cusp():
    result = balance(long_sum_terms(pair(F(1, 2), F(1, 2))), short_sum_terms("cusp"))
    assert result.alpha == F(-37, 64)
    assert result.theta == F(83, 64)
    assert set(result.active_terms) == {"R^17/14H^-1/7", "R^15/8H"}


def test_balance_huxley_cusp():
    p = pair_apply_word("BA2", KNOWN_PAIRS["huxley"])
    result = balance(long_sum_terms(p), short_sum_terms("cusp"))
    assert result.alpha == F(-17601, 30334)
    assert result.theta == F(157101, 121336)


def test_balance_van_der_corput():
    result = balance([term(1, -1)], [term(2, 1)])
    assert (result.theta, result.alpha) == (F(3, 2), F(-1, 2))


def test_balance_classic_rc():
    result = balance(long_sum_terms(pair(F(1, 2), F(1, 2))), short_sum_terms("RC"))
    assert (result.theta, result.alpha) == (F(5, 4), F(-1, 4))


def test_balance_requires_terms():
    with pytest.raises(ValueError):
        balance([], [term(2, 1)])


def _exponent_at(t, alpha):
    """The exponent of R in the term t when H = R^alpha."""
    return t.r_exp + t.h_exp * alpha


def test_balance_optimum_certified_by_probes():
    delta = F(1, 10**6)
    for long_spec, short_model in [
        ("classic", "cusp"),
        ("classic", "RC"),
        ("lindelof", "GLH"),
    ]:
        long_terms = long_sum_terms(
            KNOWN_PAIRS["classic" if long_spec == "classic" else "lindelof"]
        )
        result = balance(long_terms, short_sum_terms(short_model))
        objective = lambda a: max(
            _exponent_at(t, a) for t in long_terms + short_sum_terms(short_model)
        )
        assert objective(result.alpha + delta) >= result.theta
        assert objective(result.alpha - delta) >= result.theta


def reference_balance(long_terms, short_terms, alpha_range=(F(-1), F(0))):
    """Candidate enumeration: every crossing inside the range and both ends,
    each evaluated exactly; the least maximum wins, ties to the largest alpha.
    O(T^3) for T terms."""
    terms = list(long_terms) + list(short_terms)
    lo, hi = F(alpha_range[0]), F(alpha_range[1])

    def objective(alpha):
        return max(_exponent_at(t, alpha) for t in terms)

    candidates = {lo, hi}
    for i, t1 in enumerate(terms):
        for t2 in terms[i + 1 :]:
            if t1.h_exp != t2.h_exp:
                cross = (t2.r_exp - t1.r_exp) / (t1.h_exp - t2.h_exp)
                if lo <= cross <= hi:
                    candidates.add(cross)
    best = max(candidates, key=lambda a: (-objective(a), a))
    theta = objective(best)
    active = tuple(str(t) for t in terms if _exponent_at(t, best) == theta)
    return BalanceResult(alpha=best, theta=theta, active_terms=active)


def assert_balance_matches_reference(long_terms, short_terms, alpha_range=(F(-1), F(0))):
    got = balance(long_terms, short_terms, alpha_range)
    want = reference_balance(long_terms, short_terms, alpha_range)
    assert (got.alpha, got.theta, got.active_terms) == (want.alpha, want.theta, want.active_terms)
    return got


def test_balance_equals_candidate_enumeration_on_random_lists():
    # repeated terms, parallel lines and zero slopes are drawn on purpose, and
    # about one range in ten is a single point
    rng = random.Random(26)

    def rational():
        return F(rng.randint(-12, 12), rng.randint(1, 12))

    where = {"lo": 0, "hi": 0, "inside": 0}
    for _ in range(2500):
        pool = [term(rational(), rational()) for _ in range(3)]

        def draw():
            kind = rng.random()
            if kind < 0.2:
                return rng.choice(pool)
            if kind < 0.35:
                return term(rational(), rng.choice(pool).h_exp)
            if kind < 0.45:
                return term(rational(), 0)
            return term(rational(), rational())

        long_terms = [draw() for _ in range(rng.randint(1, 8))]
        short_terms = [draw() for _ in range(rng.randint(1, 3))]
        a, b = rational(), rational()
        lo, hi = (a, a) if rng.random() < 0.1 else (min(a, b), max(a, b))
        alpha = assert_balance_matches_reference(long_terms, short_terms, (lo, hi)).alpha
        if lo < hi:
            where["lo" if alpha == lo else "hi" if alpha == hi else "inside"] += 1
    assert min(where.values()) > 300, where


def test_balance_interior_optimum_on_tangent_family():
    # tangents to alpha^2 at -k/T, -x^2 + 2x*alpha, against the short term
    # 1/4 + alpha: the optimum lies inside the range, near (1 - sqrt 2)/2
    # where alpha^2 = 1/4 + alpha; a constant short term below both is idle
    for size in (1, 2, 3, 5, 8, 13, 21, 40):
        long_terms = [term(-F(k, size) ** 2, F(-2 * k, size)) for k in range(size + 1)]
        for short_terms in ([term(F(1, 4), 1)], [term(F(1, 4), 1), term(F(-1, 2), 0)]):
            result = assert_balance_matches_reference(long_terms, short_terms)
            assert F(-1, 2) < result.alpha < 0


def test_balance_on_coprime_denominators_stays_fast():
    # 200 distinct prime denominators: a common denominator would be a
    # 2000-bit integer, but each term keeps its own
    primes = [n for n in range(2, 1300) if all(n % d for d in range(2, int(n**0.5) + 1))][:200]
    long_terms = [term(F(1, p), F(-1, p)) for p in primes]
    start = time.perf_counter()
    result = balance(long_terms, [term(1, 1)])
    assert time.perf_counter() - start < 0.5
    # (1 - alpha)/2 is the largest long term on [-1, 0]; it meets 1 + alpha at -1/3
    assert result == BalanceResult(F(-1, 3), F(2, 3), ("R^1/2H^-1/2", "RH"))


def test_balance_tangent_cliff_runs_in_a_subprocess():
    # every pairwise crossing of the 2000 tangents is distinct and inside
    # [-1, 0], so a cubic balance would take hours; the timeout fails it
    size = 2000
    long = ";".join(f"-{k**4}/{size**4},-{2 * k * k}/{size * size}" for k in range(1, size + 1))
    script = ("import sys; from latharm.cli import main; "
              "sys.exit(main(['balance', '--long=' + sys.argv[1], '--short', '0,0']))")
    done = subprocess.run([sys.executable, "-c", script, long], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["alpha=0", "theta=0", "active=1"]


def _fresh_import(script: str) -> str:
    """stdout of `script` run in a fresh interpreter that imports from src/."""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_import_loads_no_module():
    # the package exposes its modules, and importing it loads none of them
    out = _fresh_import("import sys, latharm; print(sorted(m for m in sys.modules "
                        "if m.startswith('latharm.') or m == 'numpy'))")
    assert out.strip() == "[]"


def test_exppairs_loads_without_numpy():
    # pair, balance and table need only the standard library
    out = _fresh_import("import sys, latharm.exppairs as m; "
                        "print(m.balance(m.LONG_SUM_MODELS['classic'], m.short_sum_terms('cusp')), "
                        "'numpy' in sys.modules)")
    assert out.split()[-1] == "False"
    assert out.startswith("theta=83/64 at alpha=-37/64")


# -- closed-form exponent -----------------------------------------------------------


def test_theta_formula_values():
    assert theta_formula(pair(F(1, 2), F(1, 2))) == F(83, 64)
    huxley_ba2 = pair_apply_word("BA2", KNOWN_PAIRS["huxley"])
    assert theta_formula(huxley_ba2) == 1 + F(35765, 121336)
    assert theta_formula(pair(0, F(1, 2))) == 1 + F(7, 24)


def test_theta_formula_agrees_with_balance_engine():
    # the closed form and balancing against the cusp short terms coincide
    for kn in range(0, 5):
        for ln in range(8, 17, 2):
            p = pair(F(kn, 8), F(ln, 16))
            via_balance = balance(long_sum_terms(p), short_sum_terms("cusp")).theta
            assert theta_formula(p) == via_balance


def test_general_pair_terms_specialize_to_classic():
    # the general pair formula at (1/2, 1/2) gives exactly (17/14, -1/7)
    terms = long_sum_terms(pair(F(1, 2), F(1, 2)))
    assert (terms[1].r_exp, terms[1].h_exp) == (F(17, 14), F(-1, 7))


# -- summary table -------------------------------------------------------------------


EXPECTED_CELLS = [
    (F(3, 2), F(-1, 2)),
    (F(4, 3), F(-2, 3)),
    (F(29, 22), F(-7, 11)),
    (F(21, 16), F(-5, 8)),
    (F(83, 64), F(-37, 64)),
    (F(157101, 121336), F(-17601, 30334)),
    (F(31, 24), F(-7, 12)),
    (F(23, 18), F(-4, 9)),
    (F(5, 4), F(-1, 2)),
    (F(5, 4), F(-1, 4)),
    (F(7199, 5790), F(-743, 2895)),
    (F(27, 22), F(-3, 11)),
]


def test_exponent_table_cells():
    rows = exponent_table()
    assert [(r.theta, r.alpha) for r in rows] == EXPECTED_CELLS


def test_exponent_table_marks_and_applicability():
    rows = exponent_table()
    assert [r.marks for r in rows] == [0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2]
    assert [r.applicability for r in rows] == [
        "all P", "all P", "P = 1", "P = 1",
        "mean-zero P", "mean-zero P", "mean-zero P",
        "P = 1", "P = 1",
        "mean-zero P", "mean-zero P", "mean-zero P",
    ]


def test_raw_huxley_rc_row_consistency():
    # the RC row's exact cells follow from the printed long-sum exponents
    terms = long_sum_terms(KNOWN_PAIRS["huxley"])
    assert (terms[1].r_exp, terms[1].h_exp) == (F(1454, 1217), F(-461, 2434))
    result = balance(terms, short_sum_terms("RC"))
    assert result.alpha == F(-743, 2895)
    assert result.theta == F(3, 2) + result.alpha == F(7199, 5790)


# -- parsing helpers -------------------------------------------------------------------


def test_parse_pair_known_eps():
    p = parse_pair("32/205,269/410")
    assert p.eps  # recognized as Huxley's pair
    assert not parse_pair("1/2,1/2").eps
    assert parse_pair("1/2,1/2", eps=True).eps


def test_parse_rational_refuses_before_building():
    assert parse_rational("-1.5e-3") == F(-3, 2000)
    assert parse_rational(" 1_000e-4 ") == F(1, 10)
    assert parse_rational(f"1e{RATIONAL_EXP_CAP}") == 10**RATIONAL_EXP_CAP
    assert parse_rational(f"1E-{RATIONAL_EXP_CAP}") == F(1, 10**RATIONAL_EXP_CAP)
    assert parse_rationals("1/6,2/3,0", 3) == [F(1, 6), F(2, 3), F(0)]
    for bad in ["1/0", "0/0", f"1e{RATIONAL_EXP_CAP + 1}", "1e-100000000", "nan", "inf", "1/2e3", "",
                "\u0663/8", "1e\u0663"]:
        with pytest.raises(ValueError, match="bad rational"):
            parse_rational(bad)
    with pytest.raises(ValueError, match="2 comma-separated"):
        parse_rationals("1,2,3", 2)


def test_parse_terms():
    terms = parse_terms("1,-1/2;17/14,-1/7", SHORT_SUM_MODELS)
    assert [(t.r_exp, t.h_exp) for t in terms] == [(F(1), F(-1, 2)), (F(17, 14), F(-1, 7))]
    assert parse_terms("cusp", SHORT_SUM_MODELS) == short_sum_terms("cusp")
    assert parse_terms("classic", LONG_SUM_MODELS) == LONG_SUM_MODELS["classic"]
    with pytest.raises(ValueError):
        parse_terms("", SHORT_SUM_MODELS)
