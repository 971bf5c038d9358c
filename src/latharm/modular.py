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
from typing import NamedTuple

import numpy as np

from .lattice import N_MAX_CAP, check_n_max, shell_floats, shell_totals
from .poly import Polynomial3

Y_MIN = 0.05  # theta is evaluated only at Im z >= Y_MIN
DEFAULT_N_MAX = 1 << 14

# Sampled checks draw c from this pool, gamma from SAMPLE_GAMMA_POOL[c] (see
# below), and z from the region that gamma admits (`_draw_z`): for c = 0, Re z
# in [-0.5, 0.5] and Im z in SAMPLE_Y_RANGE.
SAMPLE_C_POOL = (0, 4, -4, 8, -8, 12, -12, 16, -16)
SAMPLE_Y_RANGE = (0.1, 2.0)
SAMPLE_SHRINK = 1e-9  # relative shrink of the sampled discs, far above rounding
SAMPLE_CAP = 10_000  # the largest `theta-check --sample` count
THETA_BLOCK = 1024  # points per power table: at 2048 terms, two 2 MiB tables
TRANSFORM_FLOOR = 1e-20  # |theta| below which a transformation check is inconclusive


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


# (c/d) * epsilon_d^(-1), the constant of automorphy_j, of every pooled gamma
SAMPLE_J_CONST = {g: shimura_legendre(g.c, g.d) / epsilon_d(g.d)
                  for pool in SAMPLE_GAMMA_POOL.values() for g in pool}


def automorphy_j(gamma: GammaElement, z: complex) -> complex:
    """(c/d) * epsilon_d^(-1) * (cz + d)^(1/2), principal square root; the
    constant (+-1 or +-i) of a pooled gamma is read from SAMPLE_J_CONST."""
    c, d = gamma.c, gamma.d
    const = SAMPLE_J_CONST.get(gamma) or shimura_legendre(c, d) / epsilon_d(d)
    return const * cmath.sqrt(c * z + d)


@dataclass(frozen=True, eq=False)
class ThetaContext:
    """Evaluation context: degree and shell coefficients of a harmonic polynomial.

    floats[n] is a_n as a float for 0 <= n <= n_max (floats[0] is P(0)), in
    a read-only float64 array.  coeff_c is C in the crude bound
    |a_n| <= C n^(nu/2 + 1), used for the certified truncation tail.
    """

    nu: int
    floats: np.ndarray
    n_max: int
    coeff_c: float

    def tail_bound(self, y, n_terms: int):
        """Certified bound on sum over n > n_terms of |a_n| e^(-2 pi n y), for
        a float y, or elementwise for an array of them."""
        p = self.nu / 2 + 1
        q = np.exp(-2 * np.pi * np.asarray(y, dtype=np.float64))
        t = (1 + 1 / (n_terms + 1)) ** p * q
        lead = self.coeff_c * (n_terms + 1) ** p * q ** (n_terms + 1)
        with np.errstate(divide="ignore"):
            bound = np.where(t < 1, lead / (1 - t), np.inf)
        return bound if bound.ndim else float(bound)

    def term_counts(self, y: np.ndarray, tol: float) -> np.ndarray:
        """Per Im z in y, the first of 16, 32, 64, ... terms whose certified
        tail is below tol, else n_max."""
        counts = np.full(y.shape, self.n_max)
        open_ = np.arange(y.size)
        m = 16
        while m < self.n_max and open_.size:
            done = self.tail_bound(y[open_], m) < tol
            counts[open_[done]] = m
            open_ = open_[~done]
            m *= 2
        return counts


def _coeff_c(p: Polynomial3) -> float:
    # |a_n| <= r3(n) max|P| <= 18 n * (sum |coeffs|) n^(nu/2)
    return 18.0 * float(p.coeff_l1())


def _eval_tol(tol: float) -> float:
    """The certified tail of each theta value in a check at tolerance tol."""
    return min(1e-14, tol * 1e-4)


def _check_theta_poly(p: Polynomial3) -> None:
    """Refuse a P with no theta series of this module: one that is not
    harmonic and homogeneous, or is zero."""
    if not p.is_homogeneous or not p.is_harmonic:
        raise ValueError("theta context requires a harmonic homogeneous polynomial")
    if not p.terms:
        raise ValueError("theta context requires a nonzero polynomial")


def theta_context(p: Polynomial3, n_max: int = DEFAULT_N_MAX) -> ThetaContext:
    """The exact shell sums a_0..a_n_max of a real harmonic homogeneous P,
    each rounded once to a float, with the constant of the tail bound."""
    _check_theta_poly(p)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    floats = shell_floats(*shell_totals(p, n_max))
    floats.flags.writeable = False
    return ThetaContext(nu=p.degree, floats=floats, n_max=n_max, coeff_c=_coeff_c(p))


def context_n_max(p: Polynomial3, n_max: int, tol: float) -> int:
    """min(n_max, m) for m the first of 16, 32, 64, ... whose certified tail
    at Im z = Y_MIN is below the evaluation tolerance of a check at tol:
    shells enough for every point a check may evaluate.  P is checked
    before the tail bound, so that a refused P costs no float work."""
    check_n_max(n_max)
    _check_theta_poly(p)
    probe = ThetaContext(nu=p.degree, floats=np.empty(0), n_max=n_max, coeff_c=_coeff_c(p))
    return int(probe.term_counts(np.array([Y_MIN]), _eval_tol(tol))[0])


def _power_sums(q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Sum of a[n] q^n over n < len(a), for every q.  The powers are taken
    as q^(16 j + r) = (q^16)^j q^r, so each is at most j + r + 16 products."""
    blocks = -(-len(a) // 16)
    coeffs = np.zeros((blocks, 16))
    coeffs.flat[: len(a)] = a
    low = np.empty((len(q), 16), dtype=np.complex128)  # q^0 .. q^15
    low[:, 0] = 1
    low[:, 1:] = q[:, None]
    np.cumprod(low, axis=1, out=low)
    high = np.empty((len(q), blocks), dtype=np.complex128)  # (q^16)^j
    high[:, 0] = 1
    high[:, 1:] = (low[:, -1] * q)[:, None]
    np.cumprod(high, axis=1, out=high)
    # einsum, not matmul: a BLAS product would map its kernels and buffers,
    # about 0.5 MiB more peak RSS for no gain at these sizes
    return np.einsum("pj,pj->p", high, np.einsum("pr,jr->pj", low, coeffs))


def theta_values(ctx: ThetaContext, z: np.ndarray, tol: float) -> np.ndarray:
    """Sum of a_n e(n z) at every point of the complex array z, each truncated
    at its own first certified term count (`ThetaContext.term_counts`); the
    points that share a count are summed THETA_BLOCK at a time by `_power_sums`."""
    low = np.flatnonzero(z.imag < Y_MIN)
    if low.size:
        raise ValueError(f"Im z = {float(z.imag[low[0]])} below the minimum {Y_MIN}")
    counts = ctx.term_counts(z.imag, tol)
    capped = np.flatnonzero(counts == ctx.n_max)
    bad = capped[~(ctx.tail_bound(z.imag[capped], ctx.n_max) < tol)]
    if bad.size:
        raise ValueError(f"cannot certify tail < {tol} with n_max={ctx.n_max} "
                         f"at Im z = {float(z.imag[bad[0]])}")
    q = np.exp(2j * np.pi * z)
    out = np.empty(z.shape, dtype=np.complex128)
    for n in set(counts.tolist()):  # np.unique would import numpy.ma, 1.7 MiB of RSS
        at = np.flatnonzero(counts == n)
        for part in np.split(at, range(THETA_BLOCK, at.size, THETA_BLOCK)):
            out[part] = _power_sums(q[part], ctx.floats[: n + 1])
    return out


def theta_eval(ctx: ThetaContext, z: complex, tol: float = 1e-12) -> complex:
    """Sum of a_n e(nz) truncated so the certified tail is below tol."""
    return complex(theta_values(ctx, np.array([z], dtype=np.complex128), tol)[0])


class TransformReport(NamedTuple):
    """Numerical check of theta(gamma z) = j(gamma, z)^(2 nu + 3) theta(z)."""

    gamma: tuple[int, int, int, int]
    z: complex
    lhs: complex
    rhs: complex
    rel_err: float
    passed: bool
    inconclusive: bool


def _check_batch(
    ctx: ThetaContext, gammas: list[GammaElement], zs: list[complex], tol: float
) -> list[TransformReport]:
    """Compare theta(gamma z) against the automorphy-factor prediction for
    every pair, with theta at every z and gamma z from one `theta_values` call.

    The error is measured relative to the larger side (with the absolute
    floor TRANSFORM_FLOOR); a theta(z) below the floor is flagged inconclusive.
    """
    entries = [g.entries() for g in gammas]
    a, b, c, d = np.array(entries, dtype=np.float64).reshape(-1, 4).T
    z = np.array(zs, dtype=np.complex128)
    below = np.any(z.imag < Y_MIN)  # tested first: cz + d vanishes only on the real axis
    image = z if below else (a * z + b) / (c * z + d)
    if below or np.any(image.imag < Y_MIN):
        raise ValueError(f"both z and gamma z must stay above Im = {Y_MIN}")
    theta = theta_values(ctx, np.concatenate([image, z]), _eval_tol(tol))
    lhs, base = theta[: len(z)], theta[len(z):]
    power = 2 * ctx.nu + 3
    rhs = np.array([automorphy_j(g, zz) ** power for g, zz in zip(gammas, zs)]) * base
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), TRANSFORM_FLOOR)
    rel_err = np.abs(lhs - rhs) / scale
    inconclusive = np.abs(base) < TRANSFORM_FLOOR
    passed = (rel_err < tol) & ~inconclusive
    return list(map(TransformReport, entries, zs, lhs.tolist(), rhs.tolist(), rel_err.tolist(),
                    passed.tolist(), inconclusive.tolist()))


def transformation_check(ctx: ThetaContext, gamma: GammaElement, z: complex,
                         tol: float = 1e-6) -> TransformReport:
    """One check of theta(gamma z) against the automorphy-factor prediction
    (`_check_batch` on one pair)."""
    return _check_batch(ctx, [gamma], [z], tol)[0]


def _draw_z(gamma: GammaElement, u: float, v: float) -> complex:
    """The z that two uniforms u, v in [0, 1] pick from the region gamma admits.

    For c = 0: Re z = u - 1/2 and Im z on SAMPLE_Y_RANGE.  For c != 0,
    Im gamma z = Im z / |cz + d|^2 >= Y_MIN holds exactly on the disc tangent
    to the real axis at -d/c with diameter 1 / (c^2 Y_MIN).  Im z runs over
    [Y_MIN, top] by v and Re z over the chord at that height by u, with the
    disc shrunk by SAMPLE_SHRINK so that rounding cannot take gamma z below
    Y_MIN, even at the ends of the chord.
    """
    c, d = gamma.c, gamma.d
    if c == 0:
        lo, hi = SAMPLE_Y_RANGE
        return complex(u - 0.5, lo + (hi - lo) * v)
    top = (1 - SAMPLE_SHRINK) / (c * c * Y_MIN)
    y = Y_MIN + (top - Y_MIN) * v
    half = math.sqrt(max(y * (top - y), 0.0))
    return complex(-d / c + half * (2 * u - 1), y)


def sample_checks(
    ctx: ThetaContext,
    count: int,
    seed: int = 0,
    tol: float = 1e-6,
) -> list[TransformReport]:
    """`count` transformation checks on a deterministic stream of (gamma, z).

    Each draw takes c from SAMPLE_C_POOL, gamma from SAMPLE_GAMMA_POOL[c]
    and z from the region gamma admits (`_draw_z`), so no draw is rejected
    and the seed fixes the stream; the checks then run as one batch.
    """
    import random

    rng = random.Random(seed)
    gammas, zs = [], []
    for _ in range(count):
        gamma = rng.choice(SAMPLE_GAMMA_POOL[rng.choice(SAMPLE_C_POOL)])
        gammas.append(gamma)
        zs.append(_draw_z(gamma, rng.random(), rng.random()))
    return _check_batch(ctx, gammas, zs, tol)


# -- quadratic Gauss sums ----------------------------------------------------


def quadratic_phase_sums(d: int, c: int, xis: tuple[int, ...]) -> list[complex]:
    """Sum of e(d (m^2 + m xi) / c) over m mod c for each xi, in m order
    (numpy's pairwise sum), the callers having checked the domain.

    The phase of m is r / c, r = d (m^2 + m xi) mod c = s k for s the sign
    of c and k = s d (m^2 + m xi) mod |c|, so entry k of the one table is
    e of the correctly rounded float s k / c, -0.0 included.  The index is
    reduced in integers: every int64 product is below 2 |c|^2 <= 2e12.
    """
    n, s = abs(c), 1 if c > 0 else -1
    m = np.arange(n, dtype=np.int64)
    roots = np.exp(2j * np.pi * (s * m / c))
    return [complex(roots[s * d % n * ((m * m + m * (xi % n)) % n) % n].sum()) for xi in xis]


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
    return quadratic_phase_sums(d, c, (0,))[0]


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
    return quadratic_phase_sums(d, c, (xi,))[0]
