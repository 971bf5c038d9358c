"""Exact Z^3 shell enumeration and exact/weighted lattice sums.

The shell coefficients a_n (sums of a polynomial over all lattice points of
norm-squared n) are computed exactly as integers T[n] over one denominator D.
They become Fractions only at the output edge and floats only through
`shell_floats` or a window weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .poly import Polynomial3, sphere_average
from .util import FitResult, linear_fit

# Above this bound the int64 convolution path could overflow; 2^62 leaves
# headroom for one extra addition.
_INT64_SAFE = 1 << 62

# A certified float error below this lets the two-pass route recover each
# sum from its residue mod 2^64 (see _two_pass_sums); 2^62 is half the 2^63
# that rounding to the nearest multiple of 2^64 tolerates.
_TWO_PASS_SAFE = 2.0**62

# Largest shell count a series or sum may ask for (see check_n_max).
N_MAX_CAP = 10**6

_ONE = Polynomial3.constant(1)


def representations(n: int) -> list[tuple[int, int, int]]:
    """All (x, y, z) in Z^3 with x^2 + y^2 + z^2 = n, in lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return [(0, 0, 0)]
    out: list[tuple[int, int, int]] = []
    kx = math.isqrt(n)
    for x in range(-kx, kx + 1):
        rem_x = n - x * x
        ky = math.isqrt(rem_x)
        for y in range(-ky, ky + 1):
            rem = rem_x - y * y
            z = math.isqrt(rem)
            if z * z == rem:
                if z == 0:
                    out.append((x, y, 0))
                else:
                    out.append((x, y, -z))
                    out.append((x, y, z))
    return out


def two_adic_part(n: int) -> int:
    """Largest power of two dividing n."""
    if n < 1:
        raise ValueError("n must be positive")
    return n & -n


@dataclass(frozen=True)
class CoefficientSeries:
    """Exact shell sums a_n = totals[n] / denom for 1 <= n <= n_max of a
    homogeneous polynomial; totals[0] / denom is its value at the origin."""

    nu: int
    poly_id: str
    denom: int
    totals: tuple[int, ...]
    n_max: int
    is_harmonic: bool

    @property
    def values(self) -> tuple[Fraction, ...]:
        """a_1 .. a_n_max as Fractions."""
        return tuple(Fraction(t, self.denom) for t in self.totals[1:])

    def a(self, n: int) -> Fraction:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n={n} outside 1..{self.n_max}")
        return Fraction(self.totals[n], self.denom)

    def to_csv(self) -> str:
        lines = ["n,a_n"]
        rows = enumerate(self.totals[1:], start=1)
        if self.denom == 1:  # every a_n is an integer: no reduction to do
            lines += [f"{n},{t}" for n, t in rows]
        else:
            for n, t in rows:
                g = math.gcd(t, self.denom)
                num, den = t // g, self.denom // g
                lines.append(f"{n},{num}" if den == 1 else f"{n},{num}/{den}")
        return "\n".join(lines) + "\n"


def shell_floats(denom: int, totals) -> np.ndarray:
    """Float64 array of T[n] / D, each correctly rounded once from the exact
    integers (Python int / int), so it equals float(Fraction(T[n], D))."""
    return (np.asarray(totals, dtype=object) / denom).astype(np.float64)


def check_n_max(n_max: int) -> None:
    """Refuse a shell count outside 0..N_MAX_CAP before anything is allocated."""
    if not 0 <= n_max <= N_MAX_CAP:
        raise ValueError(f"shell count {n_max} outside 0..{N_MAX_CAP}")


def check_window(r: float, h: float) -> None:
    """Refuse a smoothing window outside 1 <= R < inf, 0 < H <= 1 (NaN included)."""
    if not (1 <= r < math.inf and 0 < h <= 1):
        raise ValueError("need 1 <= R < inf and 0 < H <= 1")


def _square_weights(exponent: int, k_max: int) -> list[int]:
    """w[j] = 2 j^exponent for the two points +-j, and w[0] = 0^exponent (0^0 = 1)."""
    w0 = 1 if exponent == 0 else 0
    return [w0 if j == 0 else 2 * j**exponent for j in range(k_max + 1)]


def _pair_table(wx, wy, n_max: int) -> np.ndarray:
    """t[m] = sum over a^2 + b^2 = m of wx[a] wy[b], for 0 <= m <= n_max.

    The pair stage of every square convolution: the outer product of two
    axes' weights, binned by a^2 + b^2 in the weights' dtype.
    """
    squares = np.arange(len(wx)) ** 2
    norms = squares[:, None] + squares[None, :]
    inside = norms <= n_max
    t = np.zeros(n_max + 1, dtype=np.result_type(wx, wy))
    np.add.at(t, norms[inside], np.multiply.outer(wx, wy)[inside])
    return t


def _add_square_axis(t: np.ndarray, w) -> np.ndarray:
    """s[m] = sum over j of w[j] t[m - j^2]: shell sums t gain one more axis,
    whose point +-j carries the weight w[j].  One shifted add per j."""
    n_max = len(t) - 1
    s = np.zeros_like(t)
    for j, wj in enumerate(w):
        s[j * j :] += wj * t[: n_max + 1 - j * j]
    return s


def _float_weights(w: list[int]) -> np.ndarray:
    """Each weight rounded once to float64; one past the float range is inf."""
    return np.array([float(v) if v.bit_length() < 1024 else math.inf for v in w])


def _two_pass_sums(w1: list[int], w2: list[int], w3: list[int], n_max: int) -> np.ndarray | None:
    """Exact class sums from one uint64 and one float64 convolution, or None
    when the float estimate is not certified.

    The uint64 pass wraps, so it yields r = x mod 2^64 for each exact sum x.
    The float pass yields an estimate x~ of x.  Every term of x is a product
    w1[a] w2[b] w3[j] of non-negative weights, and on its way into x~ it
    meets at most K = 2k + 5 roundings (k = isqrt(n_max)): three weight
    conversions, the x, y product, at most k additions in the pair table
    (at most k + 1 pairs share a norm, and the first lands on 0 exactly),
    the z product and at most k additions over j.  With every term
    non-negative, |x~ - x| <= gamma_K x, gamma_K = K u / (1 - K u),
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Lemma 3.1 and section 4.2), hence |x~ - x| <= K u / (1 - 2 K u) x~.

    The estimate is certified when that bound at max(x~) is below
    _TWO_PASS_SAFE = 2^62; an inf or NaN estimate (a weight or sum past the
    float range) fails the comparison.  Then x~ < 2^113, and x~ - fl(r)
    differs from x - r, a multiple of 2^64, by less than 2^62 (the
    estimate) + 2^11 (rounding r) + 2^60 (rounding the difference) < 2^63,
    so rint((x~ - fl(r)) / 2^64) is exactly (x - r) / 2^64.
    """
    k = len(w1) - 1
    mask = (1 << 64) - 1
    m1, m2, m3 = (np.array([v & mask for v in w], dtype=np.uint64) for w in (w1, w2, w3))
    r = _add_square_axis(_pair_table(m1, m2, n_max), m3)
    with np.errstate(over="ignore", invalid="ignore"):
        f1, f2, f3 = (_float_weights(w) for w in (w1, w2, w3))
        est = _add_square_axis(_pair_table(f1, f2, n_max), f3)
        rel = (2 * k + 5) * 2.0**-53
        if not est.max() * rel / (1 - 2 * rel) < _TWO_PASS_SAFE:
            return None
    high = np.rint((est - r) / 2.0**64).astype(np.int64)
    exact = r.astype(object)
    wide = np.flatnonzero(high)
    exact[wide] += high[wide].astype(object) << 64
    return exact


def _class_shell_sums(
    exponents: tuple[int, int, int], n_max: int
) -> tuple[str, np.ndarray]:
    """(route, S) with S[m] = sum over the shell of norm m of the monomial, exact.

    All exponents must be even. Computed as a convolution of per-axis square
    sums: the x, y pair table, then the z axis as one series of shifted
    adds.  Every weight is non-negative, so a stage convolving inputs a and
    b keeps every partial sum at most max(a) * sum(b).  The route is
    "int64" when both stages' bounds are below _INT64_SAFE, "two-pass" when
    `_two_pass_sums` certifies its float estimate, and "object" (Python
    integers) otherwise.  S is an object array of Python integers.
    """
    k = math.isqrt(n_max)
    w1, w2, w3 = (_square_weights(e, k) for e in exponents)
    if max(w1) * sum(w2) < _INT64_SAFE:
        t = _pair_table(np.array(w1, dtype=np.int64), np.array(w2, dtype=np.int64), n_max)
        if int(t.max()) * sum(w3) < _INT64_SAFE:
            return "int64", _add_square_axis(t, w3).astype(object)
    exact = _two_pass_sums(w1, w2, w3, n_max)
    if exact is not None:
        return "two-pass", exact
    big = [np.array(w, dtype=object) for w in (w1, w2, w3)]
    return "object", _add_square_axis(_pair_table(big[0], big[1], n_max), big[2])


def offset_shell_sums(
    p: Polynomial3, n_max: int, h: tuple[float, float, float]
) -> np.ndarray:
    """Complex shell sums of p(xi) e(h . xi) over |xi|^2 = m, 0 <= m <= n_max.

    Per axis, u^e e(h s u) summed over the signs s of the points +-u is the
    square weight of u times cos(2 pi h u), or times i sin(2 pi h u) for odd
    e.  So these are the convolution of `_class_shell_sums` with complex
    weights and the same two stages: each monomial's x, y weights go
    through `_pair_table` in complex128, the pair tables sharing a z
    exponent are summed, and each distinct z exponent takes one
    `_add_square_axis` pass.  h enters mod 1, exactly (by fmod), so a large
    h loses no precision in the angle.
    """
    check_n_max(n_max)
    k = math.isqrt(n_max)
    angles = [2 * np.pi * math.fmod(v, 1.0) * np.arange(k + 1) for v in h]

    def weights(axis: int, e: int) -> np.ndarray:
        trig = 1j * np.sin(angles[axis]) if e % 2 else np.cos(angles[axis])
        return np.array(_square_weights(e, k), dtype=np.complex128) * trig

    pairs: dict[int, np.ndarray] = {}
    for (i, j, e), coeff in p.terms.items():
        pair = (coeff / p.denom) * _pair_table(weights(0, i), weights(1, j), n_max)
        pairs[e] = pairs.get(e, 0) + pair
    shells = np.zeros(n_max + 1, dtype=np.complex128)
    for e, t in pairs.items():
        shells += _add_square_axis(t, weights(2, e))
    return shells


def _monomial_classes(p: Polynomial3) -> list[tuple[tuple[int, int, int], int]]:
    """Group the integer numerators of p by sorted exponent triple.

    Monomials with an odd exponent sum to zero on every shell and are
    dropped; shells are symmetric under permuting axes, so monomials sharing
    a sorted exponent triple share their shell sums.
    """
    classes: dict[tuple[int, int, int], int] = {}
    for (i, j, k), coeff in p.terms.items():
        if i % 2 or j % 2 or k % 2:
            continue
        key = tuple(sorted((i, j, k), reverse=True))
        classes[key] = classes.get(key, 0) + coeff
    return [(key, c) for key, c in sorted(classes.items()) if c != 0]


def shell_totals(p: Polynomial3, n_max: int) -> tuple[int, np.ndarray]:
    """Exact shell sums of a polynomial, as integers over one denominator.

    Returns (D, T) with T[n] / D = sum of p over |x|^2 = n for 0 <= n <= n_max
    (T[0] / D is p at the origin); T is an object array of Python integers.
    p need not be homogeneous.  n_max above N_MAX_CAP is refused.
    """
    check_n_max(n_max)
    totals = np.zeros(n_max + 1, dtype=object)
    for key, coeff in _monomial_classes(p):
        totals += coeff * _class_shell_sums(key, n_max)[1]
    return p.denom, totals


def homogeneous_shell_totals(p: Polynomial3, n_max: int, what: str) -> tuple[int, np.ndarray]:
    """`shell_totals` of a homogeneous polynomial; `what` names the caller."""
    if not p.is_homogeneous:
        raise ValueError(f"{what} requires a homogeneous polynomial")
    return shell_totals(p, n_max)


def coeff_series(p: Polynomial3, n_max: int) -> CoefficientSeries:
    """Exact a_n = sum of p over the shell of norm n, for 1 <= n <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    denom, totals = homogeneous_shell_totals(p, n_max, "coefficient series")
    return CoefficientSeries(
        nu=p.degree,
        poly_id=p.to_string(),
        denom=denom,
        totals=tuple(totals),
        n_max=n_max,
        is_harmonic=p.is_harmonic,
    )


@dataclass(frozen=True)
class SumReport:
    """A computed lattice sum together with how many points it covered.

    `value` is exact (Fraction) for the unweighted ball sum and float for the
    weighted window sums; `term_count` counts the lattice points on the
    shells included in the summation range (plus the origin where it
    participates).
    """

    value: Fraction | float
    term_count: int


def _point_count(lo: int, hi: int) -> int:
    """Number of lattice points with lo <= |x|^2 <= hi (0 when lo > hi)."""
    _, counts = shell_totals(_ONE, hi)
    return int(counts[lo : hi + 1].sum())


def ball_sum(p: Polynomial3, r_sq: int) -> Fraction:
    """Exact sum of p over all lattice points with |x|^2 <= r_sq."""
    if r_sq < 0:
        raise ValueError("r_sq must be non-negative")
    denom, totals = homogeneous_shell_totals(p, r_sq, "ball sum")
    return Fraction(int(totals.sum()), denom)


def ball_sum_report(p: Polynomial3, r_sq: int) -> SumReport:
    """Exact ball sum with the number of lattice points included."""
    value = ball_sum(p, r_sq)
    return SumReport(value=value, term_count=_point_count(0, r_sq))


def short_sum_report(p: Polynomial3, r: float, h: float) -> SumReport:
    """Weighted boundary-shell sum with the number of points in the window."""
    value = short_sum(p, r, h)
    lo, hi = _window_bounds(r, h)
    return SumReport(value=value, term_count=_point_count(lo, hi))


def long_sum_report(p: Polynomial3, r: float, h: float) -> SumReport:
    """Smoothed lattice sum with the number of points carrying weight."""
    value = long_sum_physical(p, r, h)
    _, hi = _window_bounds(r, h)
    # the origin always carries weight
    return SumReport(value=value, term_count=_point_count(0, hi))


def cutoff_f(x: float, r: float, h: float) -> float:
    """Smoothing cutoff: identity on [0, R], linear ramp to 0 on [R, R+H]."""
    if x < 0:
        raise ValueError("cutoff argument must be non-negative")
    if x <= r:
        return x
    if x >= r + h:
        return 0.0
    return r * (r + h - x) / h


def _window_bounds(r: float, h: float) -> tuple[int, int]:
    """Integer n range with R^2 <= n <= (R+H)^2, exact at the boundaries."""
    r_sq = Fraction(r) ** 2
    top_sq = Fraction(r + h) ** 2
    lo = math.ceil(r_sq)
    hi = math.floor(top_sq)
    return lo, hi


def _window_totals(p: Polynomial3, r: float, h: float, what: str):
    """Checked (D, T, lo, hi) for a weighted sum over the window of R, H."""
    check_window(r, h)
    lo, hi = _window_bounds(r, h)
    denom, totals = homogeneous_shell_totals(p, hi, what)
    return denom, totals, lo, hi


def _ramp_sum(denom: int, totals: np.ndarray, r: float, h: float, lo: int, hi: int) -> float:
    """Sum of (T[n]/D) f(sqrt n)/sqrt n over lo <= n <= hi."""
    terms = []
    for n in range(lo, hi + 1):
        t = totals[n]
        if t:
            root = math.sqrt(n)
            terms.append(t / denom * cutoff_f(root, r, h) / root)
    return math.fsum(terms)


def short_sum(p: Polynomial3, r: float, h: float) -> float:
    """Weighted boundary-shell sum over R^2 <= n <= (R+H)^2."""
    denom, totals, lo, hi = _window_totals(p, r, h, "short sum")
    return _ramp_sum(denom, totals, r, h, lo, hi)


def long_sum_physical(p: Polynomial3, r: float, h: float) -> float:
    """Smoothed lattice sum: sum over n of a_n f(sqrt n)/sqrt n, plus origin.

    The weight is exactly 1 for n <= R^2, so that part of the sum is done
    exactly and converted to float once.  The origin contributes p(0) (the
    weight extends continuously to 1 at 0), which vanishes unless deg p = 0.
    """
    denom, totals, _, hi = _window_totals(p, r, h, "long sum")
    inner_top = math.floor(Fraction(r) ** 2)
    inner = int(totals[1 : inner_top + 1].sum())
    ramp = _ramp_sum(denom, totals, r, h, inner_top + 1, hi)
    return inner / denom + ramp + totals[0] / denom


def main_term(
    p: Polynomial3, r: Fraction | int, h: Fraction | int
) -> Fraction:
    """Integral of p(x) f(|x|)/|x| over R^3, divided by pi, exactly.

    Radially: 4 * avg(p) * integral of f(t) t^(nu+1) dt over [0, R+H], with
    the piecewise-polynomial integral done in exact rational arithmetic.
    """
    if not p.is_homogeneous:
        raise ValueError("main term requires a homogeneous polynomial")
    avg = sphere_average(p)
    if not avg:
        return Fraction(0)
    nu = p.degree
    r = Fraction(r)
    h = Fraction(h)
    rh = r + h
    # integral of t^(nu+2) over [0, R]
    inner = r ** (nu + 3) / (nu + 3)
    # integral of R (R+H-t)/H * t^(nu+1) over [R, R+H]
    if h:
        ramp = (r / h) * (
            rh * (rh ** (nu + 2) - r ** (nu + 2)) / (nu + 2)
            - (rh ** (nu + 3) - r ** (nu + 3)) / (nu + 3)
        )
    else:
        ramp = Fraction(0)
    return 4 * avg * (inner + ramp)


@dataclass(frozen=True)
class CoefficientBoundReport:
    """Observed growth of |a_n| against a cusp-form coefficient bound."""

    mode: str
    exponent: Fraction
    max_ratio: float
    argmax_n: int
    fit: FitResult | None

    def summary(self) -> str:
        fit_part = (
            f"slope={self.fit.slope:.4f} (r2={self.fit.r_squared:.4f}, {self.fit.points_used} pts)"
            if self.fit
            else "slope=n/a (degenerate series)"
        )
        return (
            f"mode={self.mode} exponent={self.exponent} "
            f"max_ratio={self.max_ratio:.6g} at n={self.argmax_n}; {fit_part}"
        )


def coefficient_bound_report(
    series: CoefficientSeries, use_gcd: bool = False
) -> CoefficientBoundReport:
    """Ratios of |a_n| to n^(k/2-1/4), or with the two-adic refinement.

    With use_gcd the comparison bound is n^(k/2-5/16) * (n, 2^inf)^(5/8).
    Only meaningful for series of harmonic polynomials of degree >= 1, where
    the theta series is a cusp form of weight k = nu + 3/2.
    """
    if series.nu < 1 or not series.is_harmonic:
        raise ValueError("coefficient bounds apply to harmonic polynomials of degree >= 1")
    k_half = Fraction(series.nu, 2) + Fraction(3, 4)  # k/2 with k = nu + 3/2
    exponent = k_half - (Fraction(5, 16) if use_gcd else Fraction(1, 4))
    mode = "blomer-harcos" if use_gcd else "sarnak"
    exp_f = float(exponent)
    mags = np.abs(shell_floats(series.denom, series.totals[1:])).tolist()
    max_ratio = 0.0
    argmax = 0
    for n, mag in enumerate(mags, start=1):
        if not mag:
            continue
        denom = n**exp_f
        if use_gcd:
            denom *= two_adic_part(n) ** 0.625
        ratio = mag / denom
        if ratio > max_ratio:
            max_ratio = ratio
            argmax = n
    fit = dyadic_growth_fit(mags)
    return CoefficientBoundReport(
        mode=mode, exponent=exponent, max_ratio=max_ratio, argmax_n=argmax, fit=fit
    )


def dyadic_growth_fit(magnitudes: Sequence[float], edge_ratio: int = 2) -> FitResult | None:
    """Fit log(running max) against log(n) at window ends n = 4 * edge_ratio^j.

    magnitudes[i] is the value at n = i + 1.  Returns None when fewer than
    three windows carry a nonzero running maximum.  edge_ratio below 2 is
    refused: the window ends would never grow.
    """
    if edge_ratio < 2:
        raise ValueError(f"edge_ratio must be at least 2, not {edge_ratio}")
    n_max = len(magnitudes)
    xs, ys = [], []
    running = 0.0
    edge = 4
    idx = 0
    while edge <= n_max:
        while idx < edge:
            running = max(running, magnitudes[idx])
            idx += 1
        if running > 0:
            xs.append(math.log(edge))
            ys.append(math.log(running))
        edge *= edge_ratio
    if len(xs) < 3:
        return None
    return linear_fit(xs, ys)
