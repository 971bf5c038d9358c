"""Acceptance suite: one test per criterion, each printing a pass line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.  Every tolerance is pinned here, not computed.
"""

import math
import statistics
import time
from fractions import Fraction as F

import mpmath as mp
import pytest

from latharm.exppairs import (
    KNOWN_PAIRS,
    exponent_table,
    balance,
    long_sum_terms,
    pair_apply_word,
    short_sum_terms,
    theta_formula,
)
from latharm.lattice import (
    ball_sum,
    coeff_series,
    coefficient_bound_report,
    long_sum_physical,
)
from latharm.modular import (
    gamma0_4_from_cd,
    gauss_sum_closed,
    gauss_sum_direct,
    quadratic_sum_S,
    sample_checks,
    theta_context,
    transformation_check,
)
from latharm.oscsum import freq_long_sum, gP_fourier_terms
from latharm.poly import parse_poly

from test_oscsum import XI_SAMPLES, _fd_operator, _hobson_value

mp.mp.dps = 40

QUARTIC = parse_poly("5*(x^4+y^4+z^4)-3*(x^2+y^2+z^2)^2")
SEXTIC = parse_poly(
    "231*z^6-315*z^4*(x^2+y^2+z^2)+105*z^2*(x^2+y^2+z^2)^2-5*(x^2+y^2+z^2)^3"
)


def report(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_01_exponent_pair_calculus():
    pair_apply_word("B", KNOWN_PAIRS["trivial"])  # warm up
    start = time.perf_counter()
    ba2 = pair_apply_word("BA2", KNOWN_PAIRS["huxley"])
    ab = pair_apply_word("AB", KNOWN_PAIRS["trivial"])
    b = pair_apply_word("B", KNOWN_PAIRS["trivial"])
    elapsed = time.perf_counter() - start
    assert (ba2.k, ba2.l) == (F(743, 2024), F(269, 506))
    assert (ab.k, ab.l) == (F(1, 6), F(2, 3))
    assert (b.k, b.l) == (F(1, 2), F(1, 2))
    assert elapsed < 1e-3
    report(1, f"BA2/AB/B transforms exact, {elapsed * 1e6:.0f} us")


def test_criterion_02_closed_form_exponents():
    assert theta_formula(KNOWN_PAIRS["classic"]) == F(83, 64)
    huxley_ba2 = pair_apply_word("BA2", KNOWN_PAIRS["huxley"])
    assert theta_formula(huxley_ba2) == 1 + F(35765, 121336)
    assert theta_formula(KNOWN_PAIRS["lindelof"]) == 1 + F(7, 24)
    report(2, "closed-form exponents 83/64, 1+35765/121336, 1+7/24 exact")


def test_criterion_03_summary_table_reproduction():
    start = time.perf_counter()
    rows = exponent_table()
    cells = [(r.theta, r.alpha) for r in rows]
    elapsed = time.perf_counter() - start
    assert cells == [
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
        # the published theta for this row, 7199/5710, contradicts its own
        # alpha = -743/2895 (theta must equal 3/2 + alpha); the regenerated
        # exact value is asserted instead
        (F(7199, 5790), F(-743, 2895)),
        (F(27, 22), F(-3, 11)),
    ]
    assert elapsed < 1.0
    report(3, f"all twelve balanced (theta, alpha) cells exact, {elapsed:.3f} s")


def test_criterion_04_term_template_specialization():
    terms = long_sum_terms(KNOWN_PAIRS["classic"])
    assert (terms[1].r_exp, terms[1].h_exp) == (F(17, 14), F(-1, 7))
    report(4, "general pair terms specialize to (17/14, -1/7) at (1/2, 1/2)")


def test_criterion_05_exact_lattice_sums():
    # brute-force oracle first: enumerate |coord| <= 2 directly
    def brute(p, n):
        total = F(0)
        for x in range(-2, 3):
            for y in range(-2, 3):
                for z in range(-2, 3):
                    if x * x + y * y + z * z == n:
                        total += p.evaluate(x, y, z)
        return total

    one = parse_poly("1")
    assert [brute(QUARTIC, n) for n in (1, 2, 3)] == [F(12), F(-24), F(-96)]
    assert [brute(one, n) for n in (1, 2, 3)] == [F(6), F(12), F(8)]
    series = coeff_series(QUARTIC, 3)
    assert list(series.values) == [F(12), F(-24), F(-96)]
    assert ball_sum(QUARTIC, 3) == F(-108)
    assert list(coeff_series(one, 3).values) == [F(6), F(12), F(8)]
    report(5, "a_1..a_3 and ball sums match the brute-force oracle exactly")


def test_criterion_06_coefficient_bound_properties():
    series_10k = coeff_series(QUARTIC, 10**4)
    series_5k = coeff_series(QUARTIC, 5 * 10**3)
    sarnak = coefficient_bound_report(series_10k)
    assert sarnak.fit is not None
    assert sarnak.fit.slope <= 2.65  # k/2 - 1/4 + 0.15 with k = 11/2
    bh_10k = coefficient_bound_report(series_10k, use_gcd=True)
    bh_5k = coefficient_bound_report(series_5k, use_gcd=True)
    assert bh_10k.max_ratio > 0
    ratio = bh_10k.max_ratio / bh_5k.max_ratio
    assert 0.8 <= ratio <= 1.2
    report(
        6,
        f"dyadic-max slope {sarnak.fit.slope:.3f} <= 2.65; "
        f"two-adic-normalized max ratio {bh_10k.max_ratio:.3f} stable ({ratio:.3f})",
    )


def test_criterion_07_modular_transformation():
    ctx4 = theta_context(QUARTIC, n_max=4096)
    headline = transformation_check(
        ctx4, gamma0_4_from_cd(4, 1), complex(0, 0.5), tol=1e-8
    )
    assert headline.passed and headline.rel_err < 1e-8
    worst = headline.rel_err
    for ctx, seed in ((ctx4, 101), (theta_context(SEXTIC, n_max=4096), 202)):
        reports = list(sample_checks(ctx, 50, seed=seed, tol=1e-6))
        assert len(reports) == 50
        assert all(r.passed for r in reports)
        worst = max(worst, max(r.rel_err for r in reports))
    report(
        7,
        f"transformation law holds on 100 sampled (gamma, z) pairs and the "
        f"headline check; worst rel err {worst:.2e}",
    )


def test_criterion_08_gauss_sums():
    checked = 0
    for c in range(-64, 65):
        if c == 0 or c % 4 != 0:
            continue
        for d in range(-65, 66):
            if d % 2 == 0 or math.gcd(c, d) != 1:
                continue
            assert abs(gauss_sum_direct(d, c) - gauss_sum_closed(d, c)) < 1e-10
            checked += 1
    vanish = 0.0
    for c in (4, 8, 12, 16):
        for d in range(1, 2 * c, 2):
            if math.gcd(c, d) != 1:
                continue
            for xi in (1, 3, 5):
                vanish = max(vanish, abs(quadratic_sum_S(xi, d, c)))
    assert vanish < 1e-12
    report(8, f"closed Gauss form matches direct on {checked} cases; "
              f"odd-offset sums vanish (max {vanish:.1e})")


def test_criterion_09_fourier_term_algebra():
    r, h = 3.25, 0.5
    worst = 0.0
    for expr in ("1", "x", "x*y", "x^2-y^2", "x*y*z", "x^3"):
        p = parse_poly(expr)
        assert min(t.denom_pow for t in gP_fourier_terms(p).terms) == p.degree + 3
        for xi in XI_SAMPLES:
            symbolic = _hobson_value(p, xi, r, h)
            oracle = _fd_operator(p, tuple(mp.mpf(c) for c in xi), r, h)
            if abs(oracle) < 1e-20:
                assert abs(symbolic) < 1e-12
                continue
            rel = abs(symbolic - oracle) / abs(oracle)
            assert rel < 1e-6
            worst = max(worst, rel)
    report(9, f"symbolic transform matches finite differences, worst rel {worst:.1e}; "
              f"minimum denominator power is deg + 3")


def test_criterion_10_poisson_consistency_trend():
    medians = []
    for p in (parse_poly("1"), QUARTIC):
        physical = long_sum_physical(p, 10.0, 0.5)
        errors = [
            abs(freq_long_sum(p, 10.0, 0.5, 2**e) - physical) for e in (6, 8, 10, 12)
        ]
        ratios = [errors[i + 1] / errors[i] for i in range(3)]
        med = statistics.median(ratios)
        assert med < 1
        medians.append(med)
    report(10, "frequency-side truncations drift toward the physical sum "
               f"(median successive error ratios {medians[0]:.3f}, {medians[1]:.3f})")


def test_criterion_11_headline_scaling():
    from latharm.cli import _headline_fit, _headline_magnitudes

    fit = _headline_fit(_headline_magnitudes(QUARTIC, 512))
    nu = QUARTIC.degree
    assert fit.slope <= nu + 1.55
    # informational: the conjectured exponent is nu + 1
    report(
        11,
        f"headline-sum slope {fit.slope:.3f} <= {nu + 1.55} "
        f"(conjectured {nu + 1}; r^2 {fit.r_squared:.4f})",
    )
