"""Theta series on the upper half-plane and their transformation law.

The theta series of a harmonic polynomial of degree nu has weight nu + 3/2
under the level-4 congruence group; this module evaluates the series with a
certified truncation tail, builds the half-integral-weight automorphy factor
(extended quadratic symbol, epsilon factor, principal square root), and
checks the transformation law numerically.  Quadratic Gauss sums are
available both by direct summation and in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .lattice import N_MAX_CAP, shell_floats, shell_totals
from .poly import Polynomial3

Y_MIN = 0.05  # theta is evaluated only at Im z >= Y_MIN
DEFAULT_N_MAX = 1 << 14

# Sampled checks draw c from this pool, gamma from SAMPLE_GAMMA_POOL[c] (see
# below), and Im z uniformly from this range.
SAMPLE_C_POOL = (0, 4, -4, 8, -8, 12, -12, 16, -16)
SAMPLE_Y_RANGE = (0.1, 2.0)
SAMPLE_CAP = 10_000  # the largest `theta-check --sample` count
TRANSFORM_FLOOR = 1e-20  # |theta| below which a transformation check is inconclusive


def e_of(t: complex) -> complex:
    """exp(2 pi i t)."""
    return cmath.exp(2j * math.pi * t)


def epsilon_d(d: int) -> complex:
    """1 for d = 1 mod 4, i for d = 3 mod 4; d must be odd."""
    if d % 2 == 0:
        raise ValueError("epsilon_d requires odd d")
    return 1 if d % 4 == 1 else 1j


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for positive odd n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol needs positive odd n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def shimura_legendre(c: int, d: int) -> int:
    """Quadratic symbol (c/d) for odd d, extended to all odd d.

    For d > 0 this is the Jacobi symbol.  For d < 0 it is (c/|d|) when c > 0
    and -(c/|d|) when c < 0; (0/+-1) = 1.  The end-to-end transformation
    check validates the convention.
    """
    if d % 2 == 0:
        raise ValueError("extended symbol requires odd d")
    if c == 0:
        if d in (1, -1):
            return 1
        raise ValueError("(0/d) undefined for |d| > 1 (non-coprime)")
    if math.gcd(c, d) != 1:
        raise ValueError(f"non-coprime symbol arguments ({c}/{d})")
    base = jacobi_symbol(c, abs(d)) if abs(d) > 1 else 1
    if d > 0:
        return base
    return base if c > 0 else -base


@dataclass(frozen=True)
class GammaElement:
    """Integer matrix (a b; c d) with determinant 1 and 4 | c."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")
        if self.c % 4 != 0:
            raise ValueError("lower-left entry must be divisible by 4")

    def apply(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def __mul__(self, other: "GammaElement") -> "GammaElement":
        return GammaElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def gamma0_4_from_cd(c: int, d: int) -> GammaElement:
    """Complete a bottom row (c, d) with 4 | c, gcd(c,d)=1 to determinant 1.

    Deterministic choice: 0 <= a < |c| when c != 0; for c = 0 (so d = +-1)
    the completion is +-identity.
    """
    if c % 4 != 0:
        raise ValueError("c must be divisible by 4")
    if math.gcd(c, d) != 1:
        raise ValueError("need gcd(c, d) = 1")
    if c == 0:
        return GammaElement(d, 0, 0, d)  # d = +-1 here
    a = pow(d, -1, abs(c)) % abs(c)
    b = (a * d - 1) // c
    return GammaElement(a, b, c, d)


# Each c of SAMPLE_C_POOL to the completions of its bottom rows (c, d), d
# odd in [-25, 25] and prime to c (d = 1, -1 for c = 0), built once.
SAMPLE_GAMMA_POOL = {
    c: tuple(gamma0_4_from_cd(c, d) for d in
             (range(-25, 26, 2) if c else (1, -1)) if math.gcd(c, d) == 1)
    for c in SAMPLE_C_POOL
}


def automorphy_j(gamma: GammaElement, z: complex) -> complex:
    """(c/d) * epsilon_d^(-1) * (cz + d)^(1/2), principal square root."""
    c, d = gamma.c, gamma.d
    return shimura_legendre(c, d) / epsilon_d(d) * cmath.sqrt(c * z + d)


@dataclass(frozen=True)
class ThetaContext:
    """Evaluation context: degree and shell coefficients of a harmonic polynomial.

    floats[n] is a_n as a float for 0 <= n <= n_max (floats[0] is P(0)).
    coeff_c is C in the crude bound |a_n| <= C n^(nu/2 + 1), used for the
    certified truncation tail.
    """

    nu: int
    floats: tuple[float, ...]
    n_max: int
    coeff_c: float

    def tail_bound(self, y: float, n_terms: int) -> float:
        """Certified bound on sum over n > n_terms of |a_n| e^(-2 pi n y)."""
        p = self.nu / 2 + 1
        q = math.exp(-2 * math.pi * y)
        growth = (1 + 1 / (n_terms + 1)) ** p
        t = growth * q
        if t >= 1:
            return math.inf
        lead = self.coeff_c * (n_terms + 1) ** p * q ** (n_terms + 1)
        return lead / (1 - t)


def theta_context(p: Polynomial3, n_max: int = DEFAULT_N_MAX) -> ThetaContext:
    """The exact shell sums a_0..a_n_max of a real harmonic homogeneous P,
    each rounded once to a float, with the constant of the tail bound."""
    if not p.is_homogeneous or not p.is_harmonic:
        raise ValueError("theta context requires a harmonic homogeneous polynomial")
    if not p.terms:
        raise ValueError("theta context requires a nonzero polynomial")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    denom, totals = shell_totals(p, n_max)
    # |a_n| <= r3(n) max|P| <= 18 n * (sum |coeffs|) n^(nu/2)
    coeff_c = 18.0 * float(p.coeff_l1())
    return ThetaContext(
        nu=p.degree,
        floats=tuple(shell_floats(denom, totals).tolist()),
        n_max=n_max,
        coeff_c=coeff_c,
    )


def theta_eval(ctx: ThetaContext, z: complex, tol: float = 1e-12) -> complex:
    """Sum of a_n e(nz) truncated so the certified tail is below tol, by
    Horner's rule in q = e(z) from the last term kept down to a_0 = P(0)."""
    y = z.imag
    if y < Y_MIN:
        raise ValueError(f"Im z = {y} below the minimum {Y_MIN}")
    m = 16  # the first of 16, 32, 64, ... whose tail is certified, else n_max
    while m < ctx.n_max and not ctx.tail_bound(y, m) < tol:
        m *= 2
    n_terms = min(m, ctx.n_max)
    if not ctx.tail_bound(y, n_terms) < tol:
        raise ValueError(
            f"cannot certify tail < {tol} with n_max={ctx.n_max} at Im z = {y}"
        )
    q = e_of(z)
    total = 0j
    for a_n in reversed(ctx.floats[: n_terms + 1]):
        total = total * q + a_n
    return total


@dataclass(frozen=True)
class TransformReport:
    """Numerical check of theta(gamma z) = j(gamma, z)^(2 nu + 3) theta(z)."""

    gamma: tuple[int, int, int, int]
    z: complex
    lhs: complex
    rhs: complex
    rel_err: float
    passed: bool
    inconclusive: bool

    def to_dict(self) -> dict:
        return {
            "gamma": list(self.gamma),
            "z": [self.z.real, self.z.imag],
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "rel_err": self.rel_err,
            "pass": self.passed,
            "inconclusive": self.inconclusive,
        }


def transformation_check(
    ctx: ThetaContext,
    gamma: GammaElement,
    z: complex,
    tol: float = 1e-6,
) -> TransformReport:
    """Compare theta(gamma z) against the automorphy-factor prediction.

    The error is measured relative to the larger side (with the absolute
    floor TRANSFORM_FLOOR); a theta(z) below the floor is flagged inconclusive.
    """
    image = gamma.apply(z)
    if z.imag < Y_MIN or image.imag < Y_MIN:
        raise ValueError(f"both z and gamma z must stay above Im = {Y_MIN}")
    eval_tol = min(1e-14, tol * 1e-4)
    lhs = theta_eval(ctx, image, tol=eval_tol)
    base = theta_eval(ctx, z, tol=eval_tol)
    power = 2 * ctx.nu + 3
    rhs = automorphy_j(gamma, z) ** power * base
    scale = max(abs(lhs), abs(rhs), TRANSFORM_FLOOR)
    rel_err = abs(lhs - rhs) / scale
    inconclusive = abs(base) < TRANSFORM_FLOOR
    return TransformReport(
        gamma=gamma.entries(),
        z=z,
        lhs=lhs,
        rhs=rhs,
        rel_err=rel_err,
        passed=(rel_err < tol) and not inconclusive,
        inconclusive=inconclusive,
    )


def sample_checks(
    ctx: ThetaContext,
    count: int,
    seed: int = 0,
    tol: float = 1e-6,
) -> Iterator[TransformReport]:
    """Deterministic stream of `count` transformation checks.

    Each draw takes c from SAMPLE_C_POOL, gamma from SAMPLE_GAMMA_POOL[c],
    Re z uniform in [-0.5, 0.5] and Im z from SAMPLE_Y_RANGE; a draw whose
    gamma z lies below Y_MIN is skipped, so the seed fixes the stream.
    """
    import random

    rng = random.Random(seed)
    produced = 0
    while produced < count:
        gamma = rng.choice(SAMPLE_GAMMA_POOL[rng.choice(SAMPLE_C_POOL)])
        x = rng.uniform(-0.5, 0.5)
        y = rng.uniform(*SAMPLE_Y_RANGE)
        z = complex(x, y)
        if gamma.apply(z).imag < Y_MIN:
            continue
        yield transformation_check(ctx, gamma, z, tol=tol)
        produced += 1


# -- quadratic Gauss sums ----------------------------------------------------


def _quadratic_phase_sum(d: int, c: int, xi: int) -> complex:
    """Sum of e(d (m^2 + m xi) / c) over m mod c, in one numpy pass.

    Each phase r / c is reduced exactly in integers: d and xi are reduced mod
    c as Python ints first, so with |c| <= N_MAX_CAP (checked by the callers)
    every int64 product stays below 2 |c|^2 <= 2e12.  r / c is then the
    correctly rounded float of the phase, and numpy sums the terms pairwise.
    """
    m = np.arange(abs(c), dtype=np.int64)
    r = d % c * ((m * m + m * (xi % c)) % c) % c
    return complex(np.exp(2j * np.pi * (r / c)).sum())


def check_gauss_domain(d: int, c: int) -> None:
    """Raise ValueError unless gauss_sum_direct(d, c) is defined: c != 0,
    gcd(c, d) = 1 and |c| <= N_MAX_CAP (refused before any O(|c|) work)."""
    if c == 0:
        raise ValueError("c must be nonzero")
    if math.gcd(c, d) != 1:
        raise ValueError("need gcd(c, d) = 1")
    if abs(c) > N_MAX_CAP:
        raise ValueError(f"|c| = {abs(c)} exceeds {N_MAX_CAP}")


def gauss_sum_direct(d: int, c: int) -> complex:
    """Sum of e(d m^2 / c) over m mod c, by direct summation."""
    check_gauss_domain(d, c)
    return _quadratic_phase_sum(d, c, 0)


def gauss_sum_closed(d: int, c: int) -> complex:
    """Closed form of the quadratic Gauss sum for 4 | c and odd d."""
    if c == 0 or c % 4 != 0:
        raise ValueError("closed form requires 4 | c, c != 0")
    if d % 2 == 0:
        raise ValueError("closed form requires odd d")
    if math.gcd(c, d) != 1:
        raise ValueError("need gcd(c, d) = 1")
    # the sum for (|d|, |c|), conjugated when d and c differ in sign
    g = (1 + 1j) / epsilon_d(abs(d)) * math.sqrt(abs(c)) * jacobi_symbol(abs(c), abs(d))
    return g.conjugate() if c * d < 0 else g


def quadratic_sum_S(xi: int, d: int, c: int) -> complex:
    """Sum of e(d (m^2 + m xi) / c) over m mod c; vanishes for odd xi."""
    if c == 0 or c % 4 != 0:
        raise ValueError("requires 4 | c, c != 0")
    check_gauss_domain(d, c)
    return _quadratic_phase_sum(d, c, xi)
