import functools
import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import integrate

from latharm import lattice
from latharm.lattice import (
    CoefficientSeries,
    _monomial_classes,
    _pair_table,
    _square_weights,
    ball_sum,
    ball_sum_report,
    coeff_series,
    coefficient_bound_report,
    cutoff_f,
    dyadic_growth_fit,
    long_sum_physical,
    long_sum_report,
    main_term,
    representations,
    shell_floats,
    shell_totals,
    short_sum,
    short_sum_report,
)
from latharm.oscsum import freq_long_sum
from latharm.poly import Polynomial3, harmonic_decompose, parse_poly, sphere_average
from latharm.util import linear_fit

from conftest import OCTIC_EXPR, QUARTIC_EXPR, SEXTIC_EXPR, random_homogeneous


def brute_shell_sum(p, n):
    """Independent oracle: triple loop over |coord| <= isqrt(n)."""
    total = F(0)
    k = math.isqrt(n)
    for x in range(-k, k + 1):
        for y in range(-k, k + 1):
            for z in range(-k, k + 1):
                if x * x + y * y + z * z == n:
                    total += p.evaluate(x, y, z)
    return total


def brute_representations(n):
    k = math.isqrt(n)
    return [
        (x, y, z)
        for x in range(-k, k + 1)
        for y in range(-k, k + 1)
        for z in range(-k, k + 1)
        if x * x + y * y + z * z == n
    ]


# -- representations -----------------------------------------------------------


def test_representations_unit_shell():
    assert representations(1) == [
        (-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0),
    ]


def test_representations_seven_empty():
    # 7 = 7 mod 8 is not a sum of three squares; brute force agrees
    assert representations(7) == []
    assert brute_representations(7) == []


def test_representations_origin():
    assert representations(0) == [(0, 0, 0)]


def test_representations_match_brute_force():
    for n in range(0, 60):
        ours = representations(n)
        assert ours == sorted(brute_representations(n))
        assert len(set(ours)) == len(ours)


# -- coefficient series -----------------------------------------------------------


def test_quartic_first_coefficients(quartic):
    # oracle first: hand/brute enumeration over |coord| <= 2
    expected = [brute_shell_sum(quartic, n) for n in (1, 2, 3)]
    assert expected == [F(12), F(-24), F(-96)]
    series = coeff_series(quartic, 3)
    assert list(series.values) == expected


def test_representation_counts():
    series = coeff_series(parse_poly("1"), 3)
    assert list(series.values) == [F(6), F(12), F(8)]


def test_series_matches_brute_force_corpus():
    rng = random.Random(5)
    polys = [parse_poly("1"), parse_poly("x^2"), parse_poly("x*y")]
    polys += [random_homogeneous(rng, d) for d in (2, 3, 4, 5)]
    for p in polys:
        series = coeff_series(p, 40)
        for n in range(1, 41):
            assert series.a(n) == brute_shell_sum(p, n), (p.to_string(), n)


def test_odd_degree_series_vanishes():
    series = coeff_series(parse_poly("x^3-2*x*y*z"), 50)
    assert all(v == 0 for v in series.values)


def test_octahedral_vanishing():
    # any monomial with an odd exponent sums to zero on every shell
    series = coeff_series(parse_poly("x^2*y"), 30)
    assert all(v == 0 for v in series.values)
    assert ball_sum(parse_poly("x^2*y"), 30) == 0


def _pair_loop(w1, w2, n_max):
    """Reference for `_pair_table`: t[m] = sum over j1^2 + j2^2 = m of
    w1[j1] w2[j2], by a plain double loop."""
    k = math.isqrt(n_max)
    t = [0] * (n_max + 1)
    for j1 in range(k + 1):
        base = j1 * j1
        wa = w1[j1]
        limit = n_max - base
        for j2 in range(math.isqrt(limit) + 1):
            t[base + j2 * j2] += wa * w2[j2]
    return t


@pytest.mark.parametrize("n_max", [0, 1, 2, 100, 4096])
def test_pair_table_matches_double_loop(n_max):
    k = math.isqrt(n_max)
    for e1, e2 in [(0, 0), (2, 0), (4, 2), (6, 2)]:
        w1, w2 = _square_weights(e1, k), _square_weights(e2, k)
        assert max(w1) * sum(w2) < 1 << 63
        table = _pair_table(np.array(w1, dtype=np.int64), np.array(w2, dtype=np.int64),
                            lattice._disc(n_max))
        assert table.dtype == np.int64
        assert table.tolist() == _pair_loop(w1, w2, n_max)
    # big integers: no int64 could hold these products
    w1, w2 = _square_weights(48, k), _square_weights(40, k)
    table = _pair_table(np.array(w1, dtype=object), np.array(w2, dtype=object),
                        lattice._disc(n_max))
    assert table.dtype == object
    assert table.tolist() == _pair_loop(w1, w2, n_max)
    # complex weights, as the offset route passes them
    rng = np.random.default_rng(n_max)
    c1, c2 = (rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1) for _ in range(2))
    table = _pair_table(c1, c2, lattice._disc(n_max))
    assert table.dtype == np.complex128
    expected = np.array(_pair_loop(c1.tolist(), c2.tolist(), n_max))
    assert np.allclose(table, expected, rtol=1e-14, atol=1e-14)


def _z_passes(p):
    """tau + 1, 2 tau the largest z exponent among p's classes (0 if none):
    the pure z passes of each stage, one per exponent 0, 2, ..., 2 tau."""
    return max((key[2] for key, _ in _monomial_classes(p)), default=0) // 2 + 1


def _passes(p, n_max):
    """((D, T as a list), passes, primes): `shell_totals`, the dtype of each
    z pass it ran, with " pure" appended for a pass of exponent 0's weights
    by pure adds, and the number of primes it drew.  Every pass is pure
    (the weighted `_add_square_axis` is spied on, and never called) and a
    uint64 residue mod 2^64 or an int64 residue mod a prime, never float or
    object; an int64 pass starts from residues below 2^26, so it cannot
    wrap."""
    seen, drawn = [], []
    weighted, pure, primes = lattice._add_square_axis, lattice._add_square_axis0, lattice._primes

    def check(*arrays):
        if arrays[0].dtype == np.int64:
            assert all(0 <= a.min() and a.max() < 1 << 26 for a in arrays)

    def spy(t, w):
        seen.append(t.dtype.name)
        check(t, w)
        return weighted(t, w)

    def pure_spy(t):
        seen.append(t.dtype.name + " pure")
        check(t)
        return pure(t)

    def counted():
        for q in primes():
            drawn.append(q)
            yield q

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lattice, "_add_square_axis", spy)
        m.setattr(lattice, "_add_square_axis0", pure_spy)
        m.setattr(lattice, "_primes", counted)
        denom, totals = shell_totals(p, n_max)
    assert set(seen) <= {"uint64 pure", "int64 pure"}  # no weighted pass ran
    totals = totals.tolist()
    assert all(type(t) is int for t in totals)
    return (denom, totals), seen, len(drawn)


def _route(p, n_max):
    """(primes drawn, int64 z passes run, of either kind) by `shell_totals`:
    (0, 0) when the residue mod 2^64 alone holds the totals."""
    _, passes, primes = _passes(p, n_max)
    return primes, sum(kind.startswith("int64") for kind in passes)


def _stages_repeat(passes, primes):
    """True when the z passes are the uint64 stage's, then, for each drawn
    prime, the same passes in int64: every class goes through every stage."""
    stage = passes[: len(passes) // (primes + 1)]
    return (all(kind.startswith("uint64") for kind in stage)
            and passes == stage + [kind[1:] for kind in stage] * primes)


def _class_by_class(p, n_max):
    """Reference for `shell_totals`: each class's sums on Python integers, a
    pair table by plain loops, then its own z stage by shifted adds of an
    object array, times its coefficient."""
    k = math.isqrt(n_max)
    totals = np.zeros(n_max + 1, dtype=object)
    for (e1, e2, e3), c in _monomial_classes(p):
        t = np.array(_pair_loop(_square_weights(e1, k), _square_weights(e2, k), n_max),
                     dtype=object)
        for j, w in enumerate(_square_weights(e3, k)):
            totals[j * j :] += c * w * t[: n_max + 1 - j * j]
    return totals.tolist()


ROUTE_CORPUS = ["1", QUARTIC_EXPR, SEXTIC_EXPR, OCTIC_EXPR, "1/3*x^2-1/7*y^2"]


def test_primes_are_distinct_primes_below_2_26():
    primes = list(itertools.islice(lattice._primes(), 100))
    assert len(set(primes)) == 100 and max(primes) < 1 << 26
    # the oracle: trial division
    assert all(all(q % d for d in range(2, math.isqrt(q) + 1)) for q in primes)
    # nothing in an int64 pair or z stage on residues mod q can wrap, even
    # at the largest shell count: at most isqrt(n) + 1 products per entry
    assert (math.isqrt(lattice.N_MAX_CAP) + 1) * (max(primes) - 1) ** 2 < 1 << 63


def test_is_prime_matches_trial_division():
    for n in range((1 << 26) - 4001, 1 << 26, 2):
        assert lattice._is_prime(n) == all(n % d for d in range(3, math.isqrt(n) + 1, 2)), n
    # strong pseudoprimes to base 2, and 25326001 to bases 2, 3 and 5
    assert not any(lattice._is_prime(n) for n in (2047, 3277, 4033, 4681, 8321, 25326001))


def test_random_wide_polynomials_match_the_class_sums():
    # coefficients up to 2^300 of both signs take many primes; the centred
    # digits must give negative totals back as well as positive ones
    rng = random.Random(17)
    most, negative = 0, False
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            key = tuple(2 * rng.randrange(7) for _ in range(3))
            terms[key] = rng.choice([-1, 1]) * rng.randrange(1 << rng.randint(0, 300))
        p = Polynomial3(terms, rng.choice([1, 3, 7]))
        n_max = rng.randint(0, 300)
        (denom, totals), _, primes = _passes(p, n_max)
        assert (denom, totals) == (p.denom, _class_by_class(p, n_max))
        most = max(most, primes)
        negative |= primes >= 3 and min(totals) < 0
    assert most >= 3 and negative


def test_totals_on_either_side_of_the_int64_range():
    # at 0 shells the bounds are exact: x^2 (zero there) keeps the gcd G at
    # 1, so U = T = c lies just inside or just past 2^63 and 2^64, of either
    # sign
    for c in (2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1):
        for sign in (1, -1):
            (_, totals), _, _ = _passes(Polynomial3({(0, 0, 0): sign * c, (2, 0, 0): 1}, 1), 0)
            assert totals == [sign * c]


@pytest.mark.parametrize("expr", ["x^24*y^24", "x^24*y^24+z^48"])
def test_prime_route_matches_brute_force(expr):
    # these classes' sums pass 2^63 by far, so their z exponent 0, a run of
    # one, runs one pure int64 pass per prime
    p = parse_poly(expr)
    n_max = 120
    _, passes, primes = _passes(p, n_max)
    assert _z_passes(p) == 1
    assert primes >= 4 and passes == ["uint64 pure"] + ["int64 pure"] * primes
    series = coeff_series(p, n_max)
    for n in range(1, n_max + 1):
        assert series.a(n) == brute_shell_sum(p, n), (expr, n)


def test_uint64_only_route_matches_class_sums():
    # at 3000 shells the corpus runs its uint64 passes alone, all pure, and
    # they agree with the class sums on Python integers
    for expr in ROUTE_CORPUS:
        p = parse_poly(expr)
        (denom, totals), passes, primes = _passes(p, 3000)
        assert passes == ["uint64 pure"] * _z_passes(p) and primes == 0
        assert (denom, totals) == (p.denom, _class_by_class(p, 3000))


def test_octic_top_rung_takes_one_prime_pass():
    # at 17867 shells (the benchmark's top octic rung) the octic's totals
    # pass 2^64; all three classes share z exponent 0, so one prime takes
    # one pure int64 pass
    p = parse_poly(OCTIC_EXPR)
    n_max = 17867
    (denom, totals), passes, primes = _passes(p, n_max)
    assert passes == ["uint64 pure", "int64 pure"] and primes == 1
    assert max(abs(t) for t in totals).bit_length() > 64
    assert (denom, totals) == (1, _class_by_class(p, n_max))


def test_gcds_keep_a_scaled_sextic_off_the_prime_passes(sextic):
    # 2^30 times the sextic at 3000 shells: the 2^30 is in the gcd G of
    # every class, which stays out of the residues, so no prime is drawn
    n_max = 3000
    (_, base), passes, primes = _passes(sextic, n_max)
    assert passes == ["uint64 pure"] * _z_passes(sextic) and primes == 0
    (_, totals), passes, primes = _passes(2**30 * sextic, n_max)
    assert passes == ["uint64 pure"] * _z_passes(sextic) and primes == 0
    assert totals == [2**30 * t for t in base]
    # 2^30 on z exponent 0 and 3^19 on exponent 2 leave G small: the total
    # passes 2^63, so one prime is drawn, and its int64 stage repeats the
    # uint64 one, the run 0, 2 by two pure passes on every class
    p = Polynomial3({key: c * (2**30 if key[2] == 0 else 3**19)
                     for key, c in _monomial_classes(sextic)}, 1)
    (_, totals), passes, primes = _passes(p, n_max)
    assert passes == ["uint64 pure"] * 2 + ["int64 pure"] * 2 and primes == 1
    assert totals == _class_by_class(p, n_max)
    # the same at the edge: 2^40 x^2 + 3^25 x^2 y^2 z^2 at 100 shells has
    # B in [2^63, 2^64), so a prime is drawn
    p = Polynomial3({(2, 0, 0): 2**40, (2, 2, 2): 3**25}, 1)
    (_, totals), passes, primes = _passes(p, 100)
    assert passes == ["uint64 pure"] * 2 + ["int64 pure"] * 2 and primes == 1
    assert totals == _class_by_class(p, 100)


def test_random_polynomials_scaled_per_z_exponent_match_the_class_sums():
    # each z exponent's classes share a random factor, up to 2^80, on top of
    # their own coefficients: whatever the factors, every drawn prime repeats
    # the uint64 stage's passes in int64, and the totals are the class sums
    rng = random.Random(29)
    drawn = none = 0
    for _ in range(200):
        factor = {e: rng.choice([1, 2**rng.randint(0, 80), 3**rng.randint(0, 50),
                                 rng.randrange(1, 1 << 80)]) for e in range(0, 14, 2)}
        terms = {}
        for _ in range(rng.randint(1, 6)):
            key = tuple(2 * rng.randrange(7) for _ in range(3))
            terms[key] = (rng.choice([-1, 1]) * rng.randrange(1, 1 << rng.randint(1, 40))
                          * factor[min(key)])
        p = Polynomial3(terms, rng.choice([1, 3, 7]))
        n_max = rng.choice([0, 1, 2, 5, 30, 100, 300, 1000, 3000])
        (denom, totals), passes, primes = _passes(p, n_max)
        assert _stages_repeat(passes, primes), (terms, n_max, passes)
        assert (denom, totals) == (p.denom, _class_by_class(p, n_max)), (terms, n_max)
        drawn += primes > 0
        none += primes == 0
    assert drawn >= 50 and none >= 50


# (600, 2, 0) has weights past the float range, and (200, 200, 0) finite
# weights whose products would overflow a float64 pair table
@pytest.mark.parametrize("key", [(600, 2, 0), (200, 200, 0)], ids=["nan", "inf"])
def test_weights_past_float_range_take_the_prime_route(key):
    n_max = 200
    (_, totals), passes, primes = _passes(Polynomial3({key: 1}, 1), n_max)
    assert primes > 50 and passes == ["uint64 pure"] + ["int64 pure"] * primes
    for n in (1, 2, 101, 200):
        expected = sum(x ** key[0] * y ** key[1] * z ** key[2] for x, y, z in representations(n))
        assert totals[n] == expected


WIDE_COEFFS = "(2^70+1)*x^8-(2^75-3)*y^4*z^4+7*z^8"


@pytest.mark.parametrize("n_max", [300, 3000])
def test_wide_and_negative_coefficients_match_class_sums(n_max):
    # coefficients of 2^64 or more and negative ones: the totals come back
    # from residues mod 2^64 and mod two primes at 300 shells, three at 3000
    p = parse_poly(WIDE_COEFFS)
    (denom, totals), passes, primes = _passes(p, n_max)
    assert primes == {300: 2, 3000: 3}[n_max]
    assert passes == ["uint64 pure"] + ["int64 pure"] * primes
    assert min(totals) < 0 and max(abs(t) for t in totals).bit_length() > 100
    for n in (1, 2, 3, 50):
        assert F(totals[n], denom) == brute_shell_sum(p, n)
    assert totals == _class_by_class(p, n_max)


@pytest.mark.parametrize("n_max", [300, 17867, 32768])
def test_totals_are_int64_exactly_when_no_prime_is_drawn(n_max):
    # the routes without a prime hand the folded residue back as int64,
    # content included (the sextic's 6, which at 32768 shells folds by the
    # largest |U| and not by the bound); a drawn prime gives Python integers
    for expr in ROUTE_CORPUS + [MIXED_Z, WIDE_COEFFS]:
        p = parse_poly(expr)
        (_, expected), _, primes = _passes(p, n_max)
        totals = shell_totals(p, n_max)[1]
        assert totals.dtype == (object if primes else np.int64), expr
        assert totals.tolist() == expected


def test_content_that_does_not_fold_gives_python_ints():
    # no prime is drawn for U, but G U fits int64 only while 2^64 > 2 G
    # max |U|: 2^27 (x^4+y^4+z^4) does at 4096 shells and not at 17867;
    # 2^63 times it never does
    for c, n_max, dtype in ((2**27, 4096, np.int64), (2**27, 17867, object),
                            (2**63, 300, object), (2**1100, 300, object)):
        p = Polynomial3({(4, 0, 0): c, (0, 4, 0): c, (0, 0, 4): c}, 1)
        (_, expected), _, primes = _passes(p, n_max)
        totals = shell_totals(p, n_max)[1]
        assert primes == 0 and totals.dtype == dtype and totals.tolist() == expected


def test_overall_gcd_stays_out_of_the_residues():
    # the coefficient is the gcd G of every class: T = G U with U the sums
    # of x^2, exact in their residue mod 2^64, so no prime is drawn
    base = shell_totals(parse_poly("x^2"), 3000)[1].tolist()
    for c in (2**1100, 2**11000):
        (denom, totals), passes, primes = _passes(Polynomial3({(2, 0, 0): c}, 1), 3000)
        assert passes == ["uint64 pure"] and primes == 0
        assert (denom, totals) == (1, [c * t for t in base])
    # past 2^63 U draws its own primes whatever G is: 2^200 times the octic
    # at 17867 shells draws the octic's one prime, too few moduli for G U
    # itself, so U comes back and is multiplied by G
    octic = parse_poly(OCTIC_EXPR)
    (_, base), _, primes = _passes(octic, 17867)
    (_, totals), _, wide = _passes(2**200 * octic, 17867)
    assert primes == wide == 1 and totals == [2**200 * t for t in base]


def test_residue_table_past_the_budget_is_refused_before_a_prime_pass(monkeypatch):
    # 3^5000 x^4 + x^2 y^2 has gcd 1, so at 100 shells U asks for about 300
    # primes; a budget one byte below their int64 table is refused after
    # the uint64 passes and before any int64 pass
    p = Polynomial3({(4, 0, 0): 3**5000, (2, 2, 0): 1}, 1)
    (_, totals), _, primes = _passes(p, 100)
    assert primes > 250 and totals == _class_by_class(p, 100)
    monkeypatch.setattr(lattice, "RESIDUE_TABLE_BYTES", primes * 101 * 8)
    assert _passes(p, 100)[0][1] == totals
    monkeypatch.setattr(lattice, "RESIDUE_TABLE_BYTES", primes * 101 * 8 - 1)
    seen, weighted, pure = [], lattice._add_square_axis, lattice._add_square_axis0
    monkeypatch.setattr(lattice, "_add_square_axis",
                        lambda t, w: seen.append(t.dtype) or weighted(t, w))
    monkeypatch.setattr(lattice, "_add_square_axis0", lambda t: seen.append(t.dtype) or pure(t))
    with pytest.raises(ValueError, match="residue table past"):
        shell_totals(p, 100)
    assert seen and set(seen) == {np.dtype(np.uint64)}


# z exponents 0, 2 and 4, two classes on each of 0 and 2, and a negative
# coefficient past 2^64 that wraps in the uint64 fold
MIXED_Z = "-3*x^6-(2^65+7)*x^4*y^2+11*x^2*y^2*z^2-x^4*y^2*z^2+5*x^4*y^4*z^4"


# (primes drawn, int64 passes) and the passes: the run 0, 2, 4 takes three
# pure passes in every stage.  At 1 shell no prime is drawn; at 300 and
# 3000 the 2^65 coefficient draws two, each repeating the three passes
MIXED_Z_ROUTES = {
    1: ((0, 0), ["uint64 pure"] * 3),
    300: ((2, 6), ["uint64 pure"] * 3 + ["int64 pure"] * 6),
    3000: ((2, 6), ["uint64 pure"] * 3 + ["int64 pure"] * 6),
}


@pytest.mark.parametrize("n_max", list(MIXED_Z_ROUTES))
def test_mixed_z_exponents_fold_to_the_class_sums(n_max):
    p = parse_poly(MIXED_Z)
    assert _z_passes(p) == 3 and len(_monomial_classes(p)) == 5
    (denom, totals), passes, primes = _passes(p, n_max)
    route, kinds = MIXED_Z_ROUTES[n_max]
    assert _route(p, n_max) == route and passes == kinds
    assert _stages_repeat(passes, primes)
    assert (denom, totals) == (1, _class_by_class(p, n_max))
    assert min(totals) < 0


# (primes drawn, int64 passes) for each corpus polynomial at the
# benchmark's sizes: only the octic past 2^14 shells draws a prime, and
# runs an int64 pass; the sextic's gcd 6 keeps it below 2^63 at 2^15
CORPUS_ROUTES = {
    4096: [(0, 0), (0, 0), (0, 0), (0, 0), (0, 0)],
    17867: [(0, 0), (0, 0), (0, 0), (1, 1), (0, 0)],
    32768: [(0, 0), (0, 0), (0, 0), (1, 1), (0, 0)],
}


@pytest.mark.parametrize("n_max", list(CORPUS_ROUTES))
def test_corpus_routes_are_stable(n_max):
    assert [_route(parse_poly(expr), n_max) for expr in ROUTE_CORPUS] == CORPUS_ROUTES[n_max]


# the z exponents of the tables: runs 0, 2, ..., 2 tau of one to five
# exponents, and sets with a gap or without 0, whose missing exponents
# `_z_run` reads as zero tables
Z_EXPONENTS = [(0,), (0, 2), (0, 2, 4), (0, 2, 4, 6), (0, 2, 4, 6, 8),
               (0, 4), (4,), (2,), (2, 6)]


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 5, 1000, 4096])
def test_pure_run_equals_the_weighted_passes(n_max):
    # reference: one weighted `_add_square_axis` pass per exponent on Python
    # integers, the passes summed; two tables on each exponent, so the fold
    # runs too.  mod 2^64 on uint64 tables over the whole range (every
    # product wraps), and mod the largest prime on int64 tables below it
    rng = random.Random(n_max)
    k = math.isqrt(n_max)
    q = next(lattice._primes())
    for mod, m, dtype in ((None, 1 << 64, np.uint64), (q, q, np.int64)):
        for exponents in Z_EXPONENTS:
            tables = [(e, np.array([rng.randrange(m) for _ in range(n_max + 1)], dtype=dtype))
                      for e in exponents for _ in range(2)]
            expected = np.zeros(n_max + 1, dtype=object)
            for e in exponents:
                folded = sum(t.astype(object) for f, t in tables if f == e)
                expected += lattice._add_square_axis(folded, _square_weights(e, k))
            found = lattice._z_run(lattice._fold(tables), mod)
            assert found.dtype == dtype and found.tolist() == (expected % m).tolist(), \
                (mod, exponents)


def test_benchmark_polynomials_run_only_pure_passes():
    # every polynomial runs tau + 1 pure passes per stage, 2 tau its largest
    # z exponent: the four benchmark polynomials one (the sextic, exponents
    # 0 and 2, two), the octic's prime pass at 2^15 included; x^2*y^2*z^2
    # (no 0 among its exponents) two, and x^4*y^4*z^4 three, past 2^63, on
    # two primes
    for expr in ["1", QUARTIC_EXPR, SEXTIC_EXPR, OCTIC_EXPR]:
        p = parse_poly(expr)
        _, passes, primes = _passes(p, 1 << 15)
        n = _z_passes(p)
        assert passes == ["uint64 pure"] * n + ["int64 pure"] * n * primes, expr
    for expr, kinds in (("x^2*y^2*z^2", ["uint64 pure"] * 2),
                        ("x^4*y^4*z^4", ["uint64 pure"] * 3 + ["int64 pure"] * 6)):
        assert _passes(parse_poly(expr), 1 << 15)[1] == kinds, expr


# z exponents with a gap or without 0, as no benchmark polynomial has them:
# 2 alone, 4 alone, 0 and 4, and 12 alone
GAP_POLYS = ["x^2*y^2*z^2", "x^4*y^4*z^4", "x^4*y^4*z^4+x^2*y^2", "x^12*y^12*z^12"]


@pytest.mark.parametrize("expr", GAP_POLYS)
@pytest.mark.parametrize("n_max", [300, 3000])
def test_shell_totals_runs_tau_plus_one_pure_passes_per_stage(expr, n_max):
    # `_passes` spies on the weighted pass and finds it never called, here
    # and on every polynomial the tests above run; each stage runs one pure
    # pass per exponent 0, 2, ..., 2 tau, the missing ones included
    p = parse_poly(expr)
    (denom, totals), passes, primes = _passes(p, n_max)
    assert _stages_repeat(passes, primes)
    assert len(passes) == _z_passes(p) * (primes + 1), (expr, passes)
    assert (denom, totals) == (p.denom, _class_by_class(p, n_max))


def test_harmonic_parts_have_no_gap_in_their_z_exponents():
    # the Laplacian of a gap's lowest monomial x^a y^b z^2s (s >= 1) has a
    # term in z^(2s - 2) that only a class of z exponent 2s - 2 could cancel,
    # so every harmonic part's class z exponents are 0, 2, ..., 2 tau
    rng = random.Random(30)
    seen = 0
    for _ in range(200):
        p = random_homogeneous(rng, rng.randint(2, 16), rng.randint(1, 8))
        for _, part in harmonic_decompose(p).parts:
            assert part.is_harmonic
            exponents = {key[2] for key, _ in _monomial_classes(part)}
            assert exponents == set(range(0, max(exponents, default=-2) + 1, 2)), part.to_string()
            seen += len(exponents) > 1
    assert seen >= 100


def test_random_polynomials_with_z_gaps_match_the_class_sums():
    # z exponents drawn with a gap, or without 0: the missing exponents run
    # on zero tables, in the uint64 stage and in each prime stage alike
    rng = random.Random(31)
    drawn = 0
    for _ in range(200):
        run = range(0, 2 * rng.randint(2, 7), 2)
        present = [0]
        while set(present) == set(range(0, max(present) + 1, 2)):
            present = rng.sample(run, rng.randint(1, len(run) - 1))
        # distinct sorted exponent triples, so no two monomials share a class
        classes = {tuple(sorted((low, low + 2 * rng.randrange(4), low + 2 * rng.randrange(4)),
                                reverse=True)): rng.choice([-1, 1])
                   * rng.randrange(1, 1 << rng.randint(1, 70))
                   for low in present for _ in range(rng.randint(1, 2))}
        p = Polynomial3({tuple(rng.sample(key, 3)): c for key, c in classes.items()},
                        rng.choice([1, 3]))
        assert {key[2] for key, _ in _monomial_classes(p)} == set(present)
        n_max = rng.choice([0, 1, 5, 30, 300, 3000])
        (denom, totals), passes, primes = _passes(p, n_max)
        assert _stages_repeat(passes, primes)
        assert len(passes) == _z_passes(p) * (primes + 1), (classes, n_max, passes)
        assert (denom, totals) == (p.denom, _class_by_class(p, n_max)), (classes, n_max)
        drawn += primes > 0
    assert drawn >= 20


@pytest.mark.parametrize("expr", ["1/3*x^2-1/7*y^2", QUARTIC_EXPR, "1/3*x^24*y^24-1/7*z^48"])
def test_integer_series_edge_values(expr):
    p = parse_poly(expr)
    n_max = 60
    series = coeff_series(p, n_max)
    expected = [brute_shell_sum(p, n) for n in range(1, n_max + 1)]
    assert series.values == tuple(expected)
    assert [series.a(n) for n in range(1, n_max + 1)] == expected
    assert series.to_csv() == "n,a_n\n" + "".join(
        f"{n},{v}\n" for n, v in enumerate(expected, start=1))
    again = coeff_series(p, n_max)
    assert (again.totals.tolist(), again.values) == (series.totals.tolist(), series.values)
    # one float conversion, each value rounded once from the exact integers
    denom, totals = shell_totals(p, n_max)
    floats = shell_floats(denom, totals)
    assert floats.dtype == np.float64
    assert floats.tolist() == [float(F(t, denom)) for t in totals]
    assert floats[1:].tolist() == [float(v) for v in expected]


@pytest.mark.parametrize("denom", [1, 6])
def test_csv_rows_are_reduced_fractions(denom):
    # reference: each row reduced by its own gcd with the denominator
    totals = (0, 3, -4, 0, 9, 1 << 70, -(1 << 70) - 3)
    series = CoefficientSeries(nu=0, poly_id="p", denom=denom,
                               totals=np.array(totals, dtype=object),
                               n_max=len(totals) - 1, is_harmonic=True)
    rows = []
    for n, t in enumerate(totals[1:], start=1):
        g = math.gcd(t, denom)
        rows.append(f"{n},{t // g}" if denom == g else f"{n},{t // g}/{denom // g}")
    assert series.to_csv() == "\n".join(["n,a_n"] + rows) + "\n"


@pytest.mark.parametrize("expr, n_max, dtype, bits", [
    ("1", 4096, np.int64, 0), (QUARTIC_EXPR, 4096, np.int64, 0),
    ("1/3*x^2-1/7*y^2", 300, np.int64, 0), (OCTIC_EXPR, 8192, object, 59),
    (OCTIC_EXPR, 17000, object, 64), (None, 3 * lattice.CSV_BLOCK_ROWS - 2, object, 65)],
    ids=["one", "quartic", "denominator", "octic-prime-in-int64", "octic-past-int64",
         "by-hand-past-int64-in-a-middle-block"])
def test_csv_of_each_series_array_equals_python_rows(expr, n_max, dtype, bits):
    # the series holds the array shell_totals returns; its CSV is Python's
    # rows of those totals, reduced by the denominator, on every dtype
    if expr is None:  # int64 values in the outer blocks, one past int64 in between
        rng = random.Random(n_max)
        denom, totals = 1, [0] + [rng.randrange(-(1 << 62), 1 << 62) for _ in range(n_max)]
        totals[lattice.CSV_BLOCK_ROWS + 7] = -(1 << 64) - 7
        totals = np.array(totals, dtype=object)
        series = CoefficientSeries(nu=0, poly_id="p", denom=1, totals=totals, n_max=n_max,
                                   is_harmonic=True)
    else:
        p = parse_poly(expr)
        denom, totals = shell_totals(p, n_max)
        series = coeff_series(p, n_max)
    assert series.totals.dtype == totals.dtype == dtype
    assert series.totals.tolist() == totals.tolist()
    if bits:  # a prime was drawn: one series fits int64, the other does not
        assert max(abs(t) for t in totals.tolist()).bit_length() == bits
    rows = [f"{n},{F(t, denom)}" for n, t in enumerate(totals[1:].tolist(), start=1)]
    assert series.to_csv() == "\n".join(["n,a_n"] + rows) + "\n"


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
# 0, +-1, +-(10^k - 1) and +-10^k for every k in int64, and its two ends
INT64_EDGES = sorted({0, INT64_MIN, INT64_MAX} | {
    s * v for k in range(1, 19) for v in (1, 10**k - 1, 10**k) for s in (1, -1)})


def _series(totals):
    """A series of the totals as shell_totals holds them: int64 when each
    fits, else Python ints in an object array."""
    try:
        array = np.array([0, *totals], dtype=np.int64)
    except OverflowError:
        array = np.array([0, *totals], dtype=object)
    return CoefficientSeries(nu=0, poly_id="p", denom=1, totals=array,
                             n_max=len(totals), is_harmonic=True)


@pytest.mark.parametrize("rows", [0, 1, lattice.CSV_BLOCK_ROWS - 1, lattice.CSV_BLOCK_ROWS,
                                  2 * lattice.CSV_BLOCK_ROWS + 1])
def test_csv_kernel_matches_python_formatting(rows):
    # random int64 values of every width, the edge values, and runs of 0,
    # across the block edges; the reference is Python's own formatting
    rng = random.Random(rows)
    totals = [rng.choice(INT64_EDGES) if rng.random() < 0.3
              else rng.randrange(-(1 << rng.randrange(64)), 1 << rng.randrange(64))
              for _ in range(rows)]
    totals[: 3 * rows // 4 : 7] = [0] * len(totals[: 3 * rows // 4 : 7])
    totals = [min(max(t, INT64_MIN), INT64_MAX) for t in totals]
    expected = "".join(f"{n},{t}\n" for n, t in enumerate(totals, start=1))
    assert _series(totals).to_csv() == "n,a_n\n" + expected
    assert lattice._csv_rows(np.array(totals, dtype=np.int64)) == expected


def test_csv_kernel_edge_values():
    expected = "".join(f"{n},{t}\n" for n, t in enumerate(INT64_EDGES, start=1))
    assert lattice._csv_rows(np.array(INT64_EDGES, dtype=np.int64)) == expected
    for t in INT64_EDGES:  # each alone: the block's widths are its own
        assert _series([t]).to_csv() == f"n,a_n\n1,{t}\n"
    # one past either end of int64 leaves the kernel for Python's digits
    for t in (INT64_MAX + 1, INT64_MIN - 1):
        assert _series([5, t]).to_csv() == f"n,a_n\n1,5\n2,{t}\n"


@pytest.mark.parametrize("denom", [1, 3, 1 << 53, (1 << 53) + 1])
def test_shell_floats_match_fraction_rounding(denom):
    # |T| on both sides of 2^53, where int64 to float64 starts to round
    rng = random.Random(denom)
    edge = [s * ((1 << 53) + d) for d in range(-3, 4) for s in (1, -1)]
    totals = edge + [INT64_MIN, INT64_MAX, 0] + [
        rng.randrange(-(1 << 63), 1 << 63) >> rng.randrange(64) for _ in range(500)]
    for values in (totals, edge[:6] + [0, 1]):  # the second stays within 2^53
        floats = shell_floats(denom, np.array(values, dtype=np.int64))
        assert floats.dtype == np.float64
        assert floats.tolist() == [float(F(t, denom)) for t in values]


@pytest.mark.parametrize("denom", [1, 7])
def test_running_floats_match_python_running_sums(denom):
    # running sums that pass 2^63 (and fall back) in either sign, from
    # shells near the int64 ends, each sum rounded once from the exact one
    rng = random.Random(denom)
    totals = [rng.choice([1, -1]) * ((1 << 62) + rng.randrange(1 << 61)) for _ in range(64)]
    totals += [rng.randrange(INT64_MIN, INT64_MAX) for _ in range(3000)] + [INT64_MIN] * 9
    totals[:64] = sorted(totals[:64], reverse=True)
    exact = np.cumsum(np.array(totals, dtype=object))
    assert max(exact) > 1 << 64 and min(exact) < -(1 << 63)
    floats = lattice.running_floats(denom, np.array(totals, dtype=np.int64))
    assert floats.tolist() == [float(F(int(t), denom)) for t in exact]
    as_objects = np.array(totals, dtype=object)
    assert lattice.running_floats(denom, as_objects).tolist() == floats.tolist()


def test_series_consistency_with_ball_sum(quartic):
    series = coeff_series(quartic, 200)
    running = F(0)
    for n in range(1, 201):
        running += series.a(n)
    assert ball_sum(quartic, 200) == running  # P(0) = 0 for degree 4


def test_series_rejects_bad_input():
    with pytest.raises(ValueError):
        coeff_series(parse_poly("x^2+y"), 10)
    with pytest.raises(ValueError):
        coeff_series(parse_poly("x"), 0)
    # every lattice sum keeps the same domain checks
    for call in (
        lambda: ball_sum(parse_poly("x^2+y"), 4),
        lambda: ball_sum(parse_poly("1"), -1),
        lambda: long_sum_physical(parse_poly("x^2+y"), 2.0, 0.5),
        lambda: long_sum_physical(parse_poly("1"), 0.5, 0.5),
        lambda: short_sum(parse_poly("x^2+y"), 2.0, 0.5),
        lambda: short_sum(parse_poly("1"), 2.0, 0.0),
        # more shells than the engine allows are refused before allocating
        lambda: shell_totals(parse_poly("1"), 10**11),
        lambda: ball_sum(parse_poly("x^2"), 10**11),
        lambda: long_sum_physical(parse_poly("1"), 10.0**6, 0.5),
    ):
        with pytest.raises(ValueError):
            call()


# -- exact ball sums ---------------------------------------------------------------


@pytest.mark.parametrize("expr", ["1", "2", QUARTIC_EXPR, "x^2*y^2-1/3*z^4+2*x^4"])
def test_long_minus_short_is_interior_ball_sum(expr):
    # the smoothing weight is 1 below R^2, where the short window starts
    p = parse_poly(expr)
    for r, h in [(1, 0.5), (5, 1), (12.3, 0.37), (30, 0.01), (1.5, 0.1), (4, 0.5)]:
        interior = ball_sum(p, math.ceil(F(r) ** 2) - 1)
        diff = long_sum_physical(p, r, h) - short_sum(p, r, h)
        assert diff == pytest.approx(float(interior), rel=1e-12)


def test_ball_sum_odd_symmetry():
    for r_sq in (1, 5, 20):
        assert ball_sum(parse_poly("x*y"), r_sq) == 0


def test_ball_sum_counts_unit_ball():
    assert ball_sum(parse_poly("1"), 1) == 7


def test_ball_sum_quartic(quartic):
    assert ball_sum(quartic, 3) == F(-108)


def brute_ball_sum(p, n):
    """Independent oracle: p summed over every |x|^2 <= n by a triple loop."""
    k = math.isqrt(n)
    return sum((p.evaluate(x, y, z) for x in range(-k, k + 1) for y in range(-k, k + 1)
                for z in range(-k, k + 1) if x * x + y * y + z * z <= n), F(0))


def _ball_passes(p, n_max):
    """((D, T), dtypes, primes): `_ball_total`, the dtype of each bilinear
    form it took and the number of primes it drew.  It runs no z stage, and
    an int64 form's operands lie in 0 .. q - 1 < 2^26, so none wraps; a
    homogeneous p's `ball_sum` takes the same route."""
    seen, drawn = [], []
    form, primes = lattice._bilinear, lattice._primes

    def no_z_stage(t, w):
        raise AssertionError("the ball route ran a z stage")

    def spy(u, z, v, q):
        seen.append(z.dtype.name)
        assert u.dtype == z.dtype == v.dtype
        if z.dtype == np.int64:
            assert all(0 <= a.min() and a.max() < q < 1 << 26 for a in (u, z, v))
        return form(u, z, v, q)

    def counted():
        for q in primes():
            drawn.append(q)
            yield q

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lattice, "_add_square_axis", no_z_stage)
        m.setattr(lattice, "_bilinear", spy)
        m.setattr(lattice, "_primes", counted)
        denom, total = lattice._ball_total(p, lattice._ball_index(n_max))
        route = seen[:], len(drawn)
        if p.is_homogeneous:
            assert ball_sum(p, n_max) == F(total, denom)
    assert set(seen) <= {"uint64", "int64"} and type(total) is int
    return (denom, total), *route


BALL_CORPUS = ROUTE_CORPUS + [MIXED_Z, "x^64", "2^100*x^2*y^4-3^70*z^6+1/3*x^2"]


@pytest.mark.parametrize("expr", BALL_CORPUS)
def test_ball_route_matches_shell_totals_and_brute_force(expr):
    # origin, the first shells, perfect squares and the shell before each
    p = parse_poly(expr)
    for n_max in (0, 1, 2, 3, 4, 8, 9, 24, 25, 63, 64, 99, 100, 1023, 1024, 4095, 4096):
        (denom, total), _, _ = _ball_passes(p, n_max)
        expected = shell_totals(p, n_max)
        assert (denom, total) == (expected[0], sum(expected[1].tolist())), n_max
        if n_max <= 25:
            assert F(total, denom) == brute_ball_sum(p, n_max), n_max


def test_ball_route_on_random_wide_polynomials():
    # coefficients up to 2^300 of both signs draw several primes, and a
    # negative total must come back through the centred digits too
    rng = random.Random(18)
    most, negative = 0, False
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            key = tuple(2 * rng.randrange(7) for _ in range(3))
            terms[key] = rng.choice([-1, 1]) * rng.randrange(1 << rng.randint(0, 300))
        p = Polynomial3(terms, rng.choice([1, 3, 7]))
        n_max = rng.randint(0, 300)
        (denom, total), forms, primes = _ball_passes(p, n_max)
        assert (denom, total) == (p.denom, sum(_class_by_class(p, n_max)))
        assert forms.count("uint64") == len(_monomial_classes(p))
        most = max(most, primes)
        negative |= primes >= 3 and total < 0
    assert most >= 3 and negative


def _column_count(n):
    """The lattice points of the ball |x|^2 <= n, counted column by column:
    the column over (x, y) holds 2 isqrt(n - x^2 - y^2) + 1 points (the
    float floor corrected by integer checks)."""
    k = math.isqrt(n)
    y = np.arange(-k, k + 1)
    count = 0
    for x in range(k + 1):
        rest = n - x * x - y[y * y <= n - x * x] ** 2
        root = np.sqrt(rest).astype(np.int64)
        root -= root * root > rest
        root += (root + 1) ** 2 <= rest
        count += (1 if x == 0 else 2) * int((2 * root + 1).sum())
    return count


def test_ball_sum_at_the_cap():
    n = lattice.N_MAX_CAP
    count = _column_count(n)
    assert ball_sum(parse_poly("1"), n) == count
    assert ball_sum_report(parse_poly("1"), n) == lattice.SumReport(count, count)


def test_window_counts_at_the_cap():
    # a window's count is the difference of two balls' counts
    n = lattice.N_MAX_CAP
    for lo, hi in ((n - 5, n), (n, n)):
        expected = _column_count(hi) - _column_count(lo - 1)
        count = lattice._ball_points(lattice._ball_index(hi))
        assert count - lattice._ball_points(lattice._ball_index(lo - 1)) == expected > 0


def test_ball_points_match_the_ball_sum_of_one_and_brute_force():
    # the count kernel against the exact route on P = 1, which it replaced,
    # and against enumeration: the origin, squares and the shell before each
    one = Polynomial3.constant(1)
    rng = random.Random(31)
    sizes = [0, 1, 2, 3, 4, 8, 9, 24, 25, 99, 100, 1023, 1024, 4095, 4096]
    sizes += [rng.randrange(200_000) for _ in range(5)] + [lattice.N_MAX_CAP]
    for m in sizes:
        index = lattice._ball_index(m)
        count = lattice._ball_points(index)
        assert count == lattice._ball_total(one, index)[1], m
        if m <= 100:
            assert count == points_in(0, m), m
    assert count == _column_count(lattice.N_MAX_CAP)


def test_ball_sum_report_runs_no_shell_convolution(quartic, monkeypatch):
    # the value and the point count read one ball index table: no shell
    # sums, no pair table, no z stage
    def refuse(*args):
        raise AssertionError("the ball report ran a shell convolution")

    expected = {r_sq: ball_sum(quartic, r_sq) for r_sq in (0, 1, 100, 1 << 15)}
    _, counts = shell_totals(parse_poly("1"), 1 << 15)
    tables, inner = [], lattice._ball_index
    monkeypatch.setattr(lattice, "_ball_index", lambda n: tables.append(n) or inner(n))
    for name in ("shell_totals", "_pair_table", "_add_square_axis", "_add_square_axis0"):
        monkeypatch.setattr(lattice, name, refuse)
    for r_sq, value in expected.items():
        count = int(counts[: r_sq + 1].sum())
        assert ball_sum_report(quartic, r_sq) == lattice.SumReport(value, count)
    assert tables == list(expected)


# -- cutoff and weighted sums --------------------------------------------------------


def test_cutoff_values():
    assert cutoff_f(5.0, 5.0, 0.5) == 5.0
    assert cutoff_f(5.5, 5.0, 0.5) == 0.0
    assert cutoff_f(5.25, 5.0, 0.5) == 2.5
    assert cutoff_f(0.0, 5.0, 0.5) == 0.0
    assert cutoff_f(7.0, 5.0, 0.5) == 0.0


def test_short_sum_empty_window():
    # (R, R+H] straddles no integer when R^2=2.25, (R+H)^2=2.56
    assert short_sum(parse_poly("1"), 1.5, 0.1) == 0.0


def test_short_sum_two_shells():
    value = short_sum(parse_poly("1"), 1.0, 0.5)
    expected = 6 * cutoff_f(1.0, 1.0, 0.5) / 1.0 + 12 * cutoff_f(
        math.sqrt(2), 1.0, 0.5
    ) / math.sqrt(2)
    assert value == pytest.approx(expected, rel=1e-15)


def test_short_sum_odd_degree_zero():
    assert short_sum(parse_poly("x^3"), 3.0, 0.5) == 0.0


def test_long_sum_small_case_direct():
    # direct weighted enumeration oracle
    p = parse_poly("1")
    r, h = 2.0, 0.25
    expected = 0.0
    for n in range(1, 6):
        reps = len(representations(n))
        if reps:
            root = math.sqrt(n)
            expected += reps * cutoff_f(root, r, h) / root
    expected += 1.0  # origin for degree 0
    assert long_sum_physical(p, r, h) == pytest.approx(expected, rel=1e-14)


def test_long_minus_short_is_interior_ball(quartic):
    # with R^2 irrational the interior is exactly the floor(R^2) ball
    r, h = 3.5, 0.25  # R^2 = 12.25
    lng = long_sum_physical(quartic, r, h)
    sht = short_sum(quartic, r, h)
    interior = ball_sum(quartic, 12)
    assert lng - sht == pytest.approx(float(interior), rel=1e-12, abs=1e-9)


def test_difference_identity_integer_radius(quartic):
    # headline sum = long - short + boundary shell, when R^2 is an integer
    # (both weighted sums already include the n = R^2 shell with weight 1)
    for p in (parse_poly("1"), quartic):
        r, h = 4.0, 0.5
        headline = ball_sum(p, 16)
        lng = long_sum_physical(p, r, h)
        sht = short_sum(p, r, h)
        boundary = coeff_series(p, 16).a(16)
        assert lng - sht + float(boundary) == pytest.approx(
            float(headline), rel=1e-12, abs=1e-9
        )


def points_in(lo, hi):
    return sum(len(representations(n)) for n in range(lo, hi + 1))


def test_sum_reports_count_points(quartic):
    rep = ball_sum_report(parse_poly("1"), 1)
    assert rep.term_count == 7 and rep.value == 7

    # counts against brute-force enumeration, for a constant and a harmonic P
    for p in (parse_poly("2"), quartic):
        for r_sq in (0, 1, 2, 10, 50):
            rep = ball_sum_report(p, r_sq)
            assert rep.term_count == points_in(0, r_sq)
        assert ball_sum_report(p, 0).value == p.evaluate(0, 0, 0)
        for r, h in ((1.0, 0.5), (1.5, 0.1), (3.5, 0.25), (4.0, 1.0), (6.3, 0.37)):
            lo, hi = math.ceil(F(r) ** 2), math.floor(F(r + h) ** 2)
            rep = short_sum_report(p, r, h)
            assert rep.term_count == points_in(lo, hi)
            assert rep.value == short_sum(p, r, h)
            rep = long_sum_report(p, r, h)
            assert rep.term_count == points_in(0, hi)
            assert rep.value == long_sum_physical(p, r, h)
    # R^2 = 2.25, (R+H)^2 = 2.56: the window holds no shell
    assert short_sum_report(parse_poly("2"), 1.5, 0.1).term_count == 0
    assert ball_sum_report(parse_poly("2"), 10).value == 2 * points_in(0, 10)

    rep = short_sum_report(quartic, 1.0, 0.5)
    # window [1, 2.25]: shells 1 and 2 hold 6 + 12 points
    assert rep.term_count == 18

    rep = long_sum_report(parse_poly("1"), 2.0, 0.25)
    # shells 1..5 hold 6+12+8+6+24 = 56 points, plus the origin
    assert rep.term_count == 57
    assert rep.value == pytest.approx(long_sum_physical(parse_poly("1"), 2.0, 0.25))


def test_float_sqrt_floors_exactly_up_to_the_cap():
    # the index table of `_ball_total` floors np.sqrt; every argument is below 2^52
    n = np.arange(lattice.N_MAX_CAP + 1, dtype=np.float64)
    floors = np.sqrt(n).astype(np.int64).tolist()
    assert floors == [math.isqrt(m) for m in range(lattice.N_MAX_CAP + 1)]


def _window(lo, hi):
    """(R, H) whose window R^2 <= n <= (R+H)^2 holds the shells lo .. hi."""
    r = max(1.0, math.sqrt(lo - 0.5))
    h = math.sqrt(hi + 0.75) - r
    assert lattice._window_bounds(r, h) == (lo, hi) and 0 < h <= 1
    return r, h


def test_point_count_matches_shell_totals_and_enumeration():
    # every report's term_count against the shell totals of 1 and, up to
    # shell 75, enumeration; R >= 1 puts every window at lo >= 1
    one = parse_poly("1")
    _, counts = shell_totals(one, 200)
    counts = counts.tolist()
    for lo, hi in [(1, 1), (1, 3), (3, 2), (7, 7), (8, 7), (18, 25), (60, 75),
                   (185, 200), (200, 200)]:
        expected = sum(counts[lo : hi + 1])
        assert hi > 75 or expected == points_in(lo, hi)
        r, h = _window(lo, hi)
        assert short_sum_report(one, r, h).term_count == expected
        assert long_sum_report(one, r, h).term_count == sum(counts[: hi + 1])
    for hi in (0, 1, 7, 60, 200):
        assert ball_sum_report(one, hi).term_count == sum(counts[: hi + 1])
    # a larger ball, against the shell totals of 1
    top = 1 << 17
    counts = shell_totals(one, top)[1]
    assert ball_sum_report(one, top).term_count == int(counts.sum())
    for lo in (top - 700, top - 5, top, top + 1):
        assert short_sum_report(one, *_window(lo, top)).term_count == int(counts[lo:].sum())


@pytest.mark.parametrize("expr", ["134217727*(x^4+y^4+z^4)", "134217727/3*(x^4+y^4+z^4)",
                                  "x*y", "2", "1/3*x^2-1/7*y^2"])
def test_window_sums_read_int64_totals_as_python_ints(expr, monkeypatch):
    # the int64 totals against the same totals as Python integers: (2^27 -
    # 1) times the quartic's inner sum passes 2^69 at R = 63.5, where an
    # int64 sum would wrap, and over D = 3 the one shell of the window at
    # R = 39, H = 0.01 would round twice as a numpy scalar; every value is
    # a Python float
    p = parse_poly(expr)
    assert shell_totals(p, 4096)[1].dtype == np.int64
    args = [(63.5, 0.5), (39.0, 0.01), (5.0, 1.0), (1.0, 0.25)]
    fast = [(long_sum_physical(p, *a), short_sum(p, *a)) for a in args]
    inner = lattice.shell_totals
    monkeypatch.setattr(lattice, "shell_totals",
                        lambda q, n: (lambda d, t: (d, t.astype(object)))(*inner(q, n)))
    assert fast == [(long_sum_physical(p, *a), short_sum(p, *a)) for a in args]
    assert all(type(v) is float for pair in fast for v in pair)


def test_series_consistency_constant_origin():
    # ball sum includes P(0) on top of the shell coefficients
    p = parse_poly("2")
    series = coeff_series(p, 200)
    running = F(2)
    for n in range(1, 201):
        running += series.a(n)
        assert ball_sum(p, n) == running


# -- main term -------------------------------------------------------------------------


def test_main_term_zero_mean(quartic):
    assert main_term(quartic, 10, F(1, 2)) == 0


def test_main_term_constant_closed_form():
    r, h = F(7), F(1, 3)
    expected = 4 * r**3 / 3 + 2 * h * r**2 + 2 * h**2 * r / 3
    assert main_term(parse_poly("1"), r, h) == expected


@pytest.mark.parametrize("expr", ["x^2", "(x^2+y^2+z^2)^2", "x^2*y^2"])
def test_main_term_against_quadrature(expr):
    p = parse_poly(expr)
    r, h = 3.0, 0.5
    nu = p.degree

    def radial(t):
        return cutoff_f(t, r, h) * t ** (nu + 1)

    integral, _ = integrate.quad(radial, 0, r + h, points=[r, r + h])
    oracle = 4 * math.pi * float(sphere_average(p)) * integral
    ours = float(main_term(p, F(3), F(1, 2))) * math.pi
    assert ours == pytest.approx(oracle, rel=1e-9)


# -- two-adic part and coefficient bounds ------------------------------------------------


def two_adic_part(n: int) -> int:
    """Largest power of two dividing n > 0, by repeated doubling."""
    part = 1
    while n % (2 * part) == 0:
        part *= 2
    return part


def test_two_adic_part():
    assert two_adic_part(12) == 4
    assert two_adic_part(7) == 1
    assert two_adic_part(96) == 32  # 96 = 2^5 * 3


def test_bound_report_rejects_nonharmonic():
    series = coeff_series(parse_poly("x^2"), 10)
    with pytest.raises(ValueError):
        coefficient_bound_report(series)
    series0 = coeff_series(parse_poly("1"), 10)
    with pytest.raises(ValueError):
        coefficient_bound_report(series0)


def test_bound_report_odd_degree_zero_series():
    series = coeff_series(parse_poly("x"), 64)
    report = coefficient_bound_report(series)
    assert (report.max_ratio, report.argmax_n) == (0.0, 0)
    assert report.fit is None


def test_bound_report_quartic_small(quartic):
    # Sarnak ratios at n <= 3: 12/1, 24/2^2.5, 96/3^2.5; the max is 12
    series = coeff_series(quartic, 3)
    report = coefficient_bound_report(series)
    assert report.exponent == F(5, 2)
    assert report.max_ratio == pytest.approx(12.0)
    assert report.argmax_n == 1


@pytest.mark.parametrize("edge_ratio", [1, 0, -2])
def test_dyadic_fit_refuses_window_ends_that_never_grow(edge_ratio):
    # three values reach no window end, so an unguarded fit returns at once
    with pytest.raises(ValueError, match="edge_ratio"):
        dyadic_growth_fit([1.0] * 3, edge_ratio=edge_ratio)


def _dyadic_fit_loop(magnitudes, edge_ratio):
    """Reference for `dyadic_growth_fit`: the running maximum by max() in a loop."""
    xs, ys = [], []
    running, edge, idx = 0.0, 4, 0
    while edge <= len(magnitudes):
        while idx < edge:
            running = max(running, magnitudes[idx])
            idx += 1
        if running > 0:
            xs.append(math.log(edge))
            ys.append(math.log(running))
        edge *= edge_ratio
    return linear_fit(xs, ys) if len(xs) >= 3 else None


@pytest.mark.parametrize("seed", range(6))
def test_dyadic_fit_matches_the_running_max_loop(seed):
    rng = random.Random(seed)
    n = rng.choice([3, 15, 64, 1000, 32761])
    mags = [rng.lognormvariate(0, 3) * i ** 2.5 for i in range(1, n + 1)]
    # leading zeros, interior runs of zeros, a NaN and a negative value
    for i in range(rng.randrange(min(n, 70))):
        mags[i] = 0.0
    for _ in range(n // 10):
        start = rng.randrange(n)
        stop = min(n, start + rng.randrange(1, 50))
        mags[start:stop] = [0.0] * (stop - start)
    for i in rng.sample(range(n), min(n, 5)):
        mags[i] = rng.choice([0.0, float("nan"), -1.0])
    for edge_ratio in (2, 3, 4):
        expected = _dyadic_fit_loop(mags, edge_ratio)
        for arg in (mags, np.array(mags)):
            fit = dyadic_growth_fit(arg, edge_ratio)
            assert repr(fit) == repr(expected)
            if fit is not None:
                assert all(type(v) is float for v in (fit.slope, fit.intercept, fit.r_squared))


@pytest.mark.parametrize(
    "r, h", [(0.5, 0.5), (10.0, 0.0), (10.0, 1.5), (float("nan"), 0.5), (float("inf"), 0.5)]
)
def test_window_sums_share_one_domain_check(r, h):
    p = parse_poly("x^2-y^2")
    for fn in (short_sum, long_sum_physical, lambda q, r, h: freq_long_sum(q, r, h, 64)):
        with pytest.raises(ValueError, match=r"^need 1 <= R < inf and 0 < H <= 1$"):
            fn(p, r, h)


def test_bound_report_blomer_harcos_mode(quartic):
    series = coeff_series(quartic, 64)
    report = coefficient_bound_report(series, use_gcd=True)
    assert report.mode == "blomer-harcos"
    assert report.exponent == F(11, 4) - F(5, 16)
    expected = max(
        abs(float(series.a(n)))
        / (n ** float(report.exponent) * two_adic_part(n) ** 0.625)
        for n in range(1, 65)
        if series.a(n)
    )
    assert report.max_ratio == pytest.approx(expected)


def _bound_report_loop(series, use_gcd):
    """Reference for `coefficient_bound_report`'s (max_ratio, argmax_n): one
    ratio per n in a Python loop, the first n at the maximum kept."""
    exponent = float(coefficient_bound_report(series, use_gcd).exponent)
    mags = np.abs(shell_floats(series.denom, series.totals[1:]))
    max_ratio, argmax = 0.0, 0
    for n, mag in enumerate(mags.tolist(), start=1):
        if not mag:
            continue
        denom = n**exponent
        if use_gcd:
            denom *= two_adic_part(n) ** 0.625
        if mag / denom > max_ratio:
            max_ratio, argmax = mag / denom, n
    return max_ratio, argmax


@pytest.mark.parametrize("use_gcd", [False, True])
def test_bound_report_matches_the_loop(quartic, use_gcd):
    # numpy's power may differ from ** in the last bit, hence the tolerance
    series = coeff_series(quartic, 10**4)
    report = coefficient_bound_report(series, use_gcd)
    max_ratio, argmax = _bound_report_loop(series, use_gcd)
    assert report.argmax_n == argmax
    assert report.max_ratio == pytest.approx(max_ratio, rel=1e-12, abs=0)


# -- Hecke-relation oracle --------------------------------------------------------

HECKE_N = 30000
# 2^17 shells, where the sextic and the octic need prime passes, far past
# the reach of brute force
HECKE_WIDE_N = 1 << 17
# lambda_p for p = 3, 5, 7, 11: the theta series of these harmonics are
# Hecke eigenforms (their octahedral averages span one dimension).
HECKE_EIGENVALUES = {
    "1": (4, 6, 8, 12),
    QUARTIC_EXPR: (-156, 870, -952, -56148),
    SEXTIC_EXPR: (1236, -57450, 64232, 2464572),
    OCTIC_EXPR: (6084, 1255110, -22465912, 172399692),
}
HECKE_PRIMES = (3, 5, 7, 11)


@functools.lru_cache(maxsize=None)
def _hecke_series(expr, n_max):
    """(nu, T) with T[n] the exact shell total of expr for 0 <= n <= n_max."""
    p = parse_poly(expr)
    denom, totals = shell_totals(p, n_max)
    assert denom == 1
    return p.degree, tuple(int(t) for t in totals)


def _hecke_eigenvalue(totals, nu, p):
    """Check Shimura's T(p^2) relation on totals[1 .. N/p^2] and return lambda_p.

    b(n) = T[p^2 n] + ((-1)^(nu+1) n / p) p^nu T[n] + p^(2 nu + 1) T[n/p^2]
    must equal lambda_p T[n] for every n <= N/p^2, zeros of T included, with
    lambda_p read off the first n where T[n] != 0.  All in exact integers.
    """
    top = (len(totals) - 1) // (p * p)
    sign = (-1) ** (nu + 1)

    def b(n):
        legendre = pow(sign * n % p, (p - 1) // 2, p)  # Euler's criterion
        chi = -1 if legendre == p - 1 else legendre
        tail = totals[n // (p * p)] if n % (p * p) == 0 else 0
        return totals[p * p * n] + chi * p**nu * totals[n] + p ** (2 * nu + 1) * tail

    first = next(n for n in range(1, top + 1) if totals[n])
    lam, rem = divmod(b(first), totals[first])
    assert rem == 0, (p, first)
    for n in range(1, top + 1):
        assert b(n) == lam * totals[n], (p, n)
    return lam


def _check_hecke(expr, n_max):
    nu, totals = _hecke_series(expr, n_max)
    found = tuple(_hecke_eigenvalue(totals, nu, p) for p in HECKE_PRIMES)
    assert found == HECKE_EIGENVALUES[expr]
    if nu >= 1:  # Deligne: |lambda_p| <= 2 p^(nu + 1/2)
        assert all(lam * lam <= 4 * p ** (2 * nu + 1) for lam, p in zip(found, HECKE_PRIMES))


@pytest.mark.parametrize("expr", list(HECKE_EIGENVALUES),
                         ids=["one", "quartic", "sextic", "octic"])
def test_shell_totals_satisfy_hecke_relations(expr):
    _check_hecke(expr, HECKE_N)


# the sextic needs one prime, which repeats its run 0, 2 of two pure
# passes; the octic needs two primes
@pytest.mark.parametrize("expr, route", [(SEXTIC_EXPR, ["uint64 pure"] * 2 + ["int64 pure"] * 2),
                                         (OCTIC_EXPR, ["uint64 pure"] + ["int64 pure"] * 2)],
                         ids=["sextic", "octic"])
def test_wide_shell_totals_satisfy_hecke_relations(expr, route):
    _, passes, primes = _passes(parse_poly(expr), HECKE_WIDE_N)
    assert passes == route and _stages_repeat(passes, primes)
    _check_hecke(expr, HECKE_WIDE_N)


def test_hecke_series_cover_the_prime_route():
    # the octic's totals pass 2^64 at HECKE_N, so the oracle checks an int64
    # prime pass at a size brute force cannot reach
    _, passes, primes = _passes(parse_poly(OCTIC_EXPR), HECKE_N)
    assert passes == ["uint64 pure", "int64 pure"] and primes == 1


@pytest.mark.parametrize("p", HECKE_PRIMES)
def test_hecke_oracle_catches_one_changed_total(p):
    nu, totals = _hecke_series(QUARTIC_EXPR, HECKE_N)
    top = HECKE_N // (p * p)
    first = next(n for n in range(1, top + 1) if totals[n])
    zero = next(n for n in range(1, top + 1) if not totals[n])
    rng = random.Random(p)
    read = [first, zero, top, p * p, p * p * top, rng.randint(1, top),
            p * p * rng.randint(1, top)]
    for m in read:
        changed = list(totals)
        changed[m] += 1
        with pytest.raises(AssertionError):
            _hecke_eigenvalue(changed, nu, p)
