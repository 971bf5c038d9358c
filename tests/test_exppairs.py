import tracemalloc
from fractions import Fraction as F

import pytest

from latharm.exppairs import (
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
            t.at(a) for t in long_terms + short_sum_terms(short_model)
        )
        assert objective(result.alpha + delta) >= result.theta
        assert objective(result.alpha - delta) >= result.theta


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
