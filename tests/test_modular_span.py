"""Every shell series is a modular form: an oracle independent of the route.

The series sum over n of S_h(n) q^n of a harmonic h of degree m, S_h(n) the
sum of h over the shell |x|^2 = n, is a modular form of weight k/2, k =
2m + 3, on Gamma0(4).  That space has the basis theta^(k - 4j) F^j for 0 <=
j <= k/4, with theta = theta(q) = sum over t in Z of q^(t^2) and F = sum
over odd n of sigma(n) q^n = (theta(q)^4 - theta(-q)^4)/16 (Koblitz,
Introduction to Elliptic Curves and Modular Forms, 2nd ed., IV.1, Prop. 4).
Each basis series is q^j + ..., so the first 1 + k//4 coefficients of a
series fix its coordinates by one triangular solve, and every later
coefficient is checked against them.  A homogeneous P = sum over d of
|x|^(2d) h_d has S_P(n) = sum over d of n^d S_{h_d}(n).

The basis is built here by multiplications by theta(+-q) alone, exactly on
the few coefficients of the solve and mod two primes below 2^31 on the
whole series; nothing is shared with `lattice`, whose exact route
(`shell_totals`) is the one checked.
"""

import math
import random

import numpy as np
import pytest
import sympy

from latharm.lattice import shell_totals
from latharm.poly import harmonic_decompose, parse_poly

from conftest import OCTIC_EXPR, QUARTIC_EXPR, SEXTIC_EXPR, random_homogeneous

PRIMES = (2_147_483_647, 2_147_483_629)


def times_theta(s: np.ndarray, sign: int, mod: int | None = None) -> np.ndarray:
    """s times theta(sign q) = 1 + 2 sum over t >= 1 of sign^t q^(t^2), cut
    at len(s): exactly on an object array (mod None), else mod `mod` on
    int64 residues, whose sums stay below 2^42."""
    n = len(s)
    acc = np.zeros_like(s)
    for t in range(1, math.isqrt(n - 1) + 1):
        if sign < 0 and t % 2:
            acc[t * t:] -= s[: n - t * t]
        else:
            acc[t * t:] += s[: n - t * t]
    acc = s + 2 * acc
    return acc if mod is None else acc % mod


def times(s: np.ndarray, plus: int, minus: int, mod: int | None = None) -> np.ndarray:
    """s times theta(q)^plus theta(-q)^minus."""
    for sign in (1,) * plus + (-1,) * minus:
        s = times_theta(s, sign, mod)
    return s


def coordinates(prefix: list[int], k: int) -> list[int]:
    """The coordinates c_0 .. c_J, J = k // 4, on theta^(k - 4j) F^j of the
    series whose coefficients 0 .. J are `prefix`: one triangular solve,
    the basis built exactly on those J + 1 coefficients."""
    size = k // 4 + 1
    one = np.array([1] + [0] * (size - 1), dtype=object)
    basis = []
    for j in range(size):
        b = times(one, k - 4 * j, 0)
        for _ in range(j):
            b = (times(b, 4, 0) - times(b, 0, 4)) // 16  # times F
        assert b[:j].tolist() == [0] * j and b[j] == 1
        basis.append(b)
    c: list[int] = []
    for j in range(size):
        c.append(prefix[j] - sum(ci * int(b[j]) for ci, b in zip(c, basis)))
    return c


def span_residues(c: list[int], k: int, n_max: int, mod: int) -> np.ndarray:
    """sum over j of c_j theta^(k - 4j) F^j mod `mod`, coefficients 0 .. n_max.

    With u = theta(q)^4, v = theta(-q)^4 and F = (u - v)/16 the sum is
    theta^(k - 4J) times sum over i of d_i u^(J - i) v^i, d_i = (-1)^i sum
    over j >= i of C(j, i) 16^-j c_j, by Horner's rule over i: 8J + k - 4J
    multiplications by theta(+-q).
    """
    big_j = len(c) - 1
    inv16 = pow(16, -1, mod)
    d = [(-1) ** i * sum(math.comb(j, i) * pow(inv16, j, mod) * c[j]
                         for j in range(i, big_j + 1)) % mod for i in range(big_j + 1)]
    one = np.zeros(n_max + 1, dtype=np.int64)
    one[0] = 1
    s, v = one * d[0], one
    for i in range(1, big_j + 1):
        s, v = times(s, 4, 0, mod), times(v, 0, 4, mod)
        s = (s + d[i] * v) % mod
    return times(s, k - 4 * big_j, 0, mod)


def span_coordinates(totals, k: int) -> list[int] | None:
    """The coordinates of the integer series `totals` in weight k/2 when
    every coefficient agrees with them mod both primes, else None."""
    values = [int(t) for t in totals.tolist()]
    c = coordinates(values[: k // 4 + 1], k)
    for q in PRIMES:
        want = np.array([v % q for v in values], dtype=np.int64)
        if not np.array_equal(span_residues(c, k, len(values) - 1, q), want):
            return None
    return c


def check_harmonic_parts(p, n_max: int) -> int:
    """Each harmonic part's `shell_totals` lies in its span, and they add up,
    n^d times each, to the shell sums of p; returns the number of parts."""
    denom, totals = shell_totals(p, n_max)
    parts = []
    for d, h in harmonic_decompose(p).parts:
        h_denom, h_totals = shell_totals(h, n_max)
        assert span_coordinates(h_totals, 2 * h.degree + 3) is not None, (p, d)
        parts.append((d, h_denom, h_totals.tolist()))
    lcm = math.lcm(denom, *(h_denom for _, h_denom, _ in parts))
    expected = [t * (lcm // denom) for t in totals.tolist()]
    got = [sum(n**d * h_totals[n] * (lcm // h_denom) for d, h_denom, h_totals in parts)
           for n in range(n_max + 1)]
    assert got == expected, p
    return len(parts)


def test_primes_are_primes_below_2_31():
    assert all(sympy.isprime(q) and q < 1 << 31 for q in PRIMES) and len(set(PRIMES)) == 2


@pytest.mark.parametrize("expr, coords", [
    ("1", [1]),
    ("x^2-y^2", [0, 0]),
    (QUARTIC_EXPR, [0, 12, -192]),
    (SEXTIC_EXPR, [0, 12, -576, 6144]),
    (OCTIC_EXPR, [0, 4, -48, -512, 4096]),
])
def test_benchmark_series_have_their_coordinates(expr, coords):
    p = parse_poly(expr)
    denom, totals = shell_totals(p, 2048)
    assert denom == 1
    assert span_coordinates(totals, 2 * p.degree + 3) == coords


def test_series_off_the_span_are_refused():
    # a homogeneous P that is not harmonic, and the octic's series with one
    # shell changed by 1, after the solve's coefficients and inside them
    _, totals = shell_totals(parse_poly("x^4+y^4+z^4"), 2048)
    assert span_coordinates(totals, 11) is None
    _, octic = shell_totals(parse_poly(OCTIC_EXPR), 2048)
    for n in (1999, 3):
        bad = octic.copy()
        bad[n] += 1
        assert span_coordinates(bad, 19) is None


def test_harmonic_parts_of_random_polynomials_are_modular():
    rng = random.Random(12)
    parts = 0
    for degree in range(2, 13):
        parts += check_harmonic_parts(random_homogeneous(rng, degree, n_terms=6), 2000)
    assert parts > 30


@pytest.mark.parametrize("expr, n_max", [
    (OCTIC_EXPR, 1 << 17),
    ("(2^70+1)*x^8-(2^75-3)*y^4*z^4+7*z^8", 4096),
    ("2^100*x^2*y^4-3^70*z^6", 4096),
])
def test_prime_route_series_are_modular(expr, n_max):
    # totals past 2^64, so the route recovers them from prime stages
    p = parse_poly(expr)
    assert max(abs(t) for t in shell_totals(p, n_max)[1].tolist()).bit_length() > 64
    check_harmonic_parts(p, n_max)
