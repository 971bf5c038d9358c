"""Exact Z^3 shell enumeration and exact/weighted lattice sums.

The shell coefficients a_n (sums of a polynomial over all lattice points of
norm-squared n) are computed exactly as integers T[n] over one denominator D.
They become Fractions only at the output edge and floats only through
`shell_floats` or a window weight.

Shell sums are square convolutions: an x, y pair table, then the costly z
axis, which `_z_stage` runs once per distinct z exponent on the summed pair
tables, for `shell_totals` and `offset_shell_sums` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .poly import Polynomial3, sphere_average
from .util import FitResult, linear_fit

# Stage bounds below this keep a class's uint64 pass from wrapping.
_RESIDUE_SAFE = 1 << 64

# A certified float error below this lets `shell_totals` recover the totals
# from their residues mod 2^64; 2^62 is half the 2^63 that rounding to the
# nearest multiple of 2^64 tolerates.
_TWO_PASS_SAFE = 2.0**62

# Largest shell count a series or sum may ask for (see check_n_max).
N_MAX_CAP = 10**6


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
    s = w[0] * t
    for j in range(1, len(w)):
        s[j * j :] += w[j] * t[: n_max + 1 - j * j]
    return s


def _to_float(v: int) -> float:
    """v rounded once to float64; one past the float range is inf."""
    return float(v) if v.bit_length() < 1024 else math.inf


def _z_stage(pairs, z_weights) -> dict[int, np.ndarray]:
    """{e: the pair tables t of `pairs` (e, t) sharing z exponent e, summed
    (in place into the first, which the caller owns), then carried along z by
    one `_add_square_axis` pass with the weights z_weights(e)}."""
    folded: dict[int, np.ndarray] = {}
    for e, t in pairs:
        if e in folded:
            folded[e] += t
        else:
            folded[e] = t
    return {e: _add_square_axis(t, z_weights(e)) for e, t in folded.items()}


def offset_shell_sums(
    p: Polynomial3, n_max: int, h: tuple[float, float, float]
) -> np.ndarray:
    """Complex shell sums of p(xi) e(h . xi) over |xi|^2 = m, 0 <= m <= n_max.

    Per axis, u^e e(h s u) summed over the signs s of the points +-u is the
    square weight of u times cos(2 pi h u), or times i sin(2 pi h u) for odd
    e: the square convolution of `shell_totals` with complex128 weights,
    folded by `_z_stage` the same way.  h enters mod 1, exactly (by fmod),
    so a large h loses no precision in the angle.
    """
    check_n_max(n_max)
    k = math.isqrt(n_max)
    angles = [2 * np.pi * math.fmod(v, 1.0) * np.arange(k + 1) for v in h]

    def weights(axis: int, e: int) -> np.ndarray:
        trig = 1j * np.sin(angles[axis]) if e % 2 else np.cos(angles[axis])
        return np.array(_square_weights(e, k), dtype=np.complex128) * trig

    pairs = ((e, (coeff / p.denom) * _pair_table(weights(0, i), weights(1, j), n_max))
             for (i, j, e), coeff in p.terms.items())
    passes = _z_stage(pairs, lambda e: weights(2, e))
    return sum(passes.values(), np.zeros(n_max + 1, dtype=np.complex128))


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

    T = sum over monomial classes of c x (c an integer, x >= 0 the class's
    sums).  With g_e the gcd of the c sharing a z exponent e, `_z_stage`
    adds their pair tables (c / g_e) t and runs one z pass per e, giving H_e,
    and G_e = g_e H_e; in uint64 (mod 2^64) the sum s of the g_e H_e read as
    int64 is T mod 2^64.  Given |T~| < 2^113 and |T~ - T| < 2^62
    (_TWO_PASS_SAFE), T~ - fl(s) is within 2^62 + 2^10 + 2^60 < 2^63 of T - s,
    so T = s + 2^64 rint((T~ - s) / 2^64).  Weights are non-negative, so
    t < b1 = max(w1) sum(w2) and x <= b = max(t) sum(w3).  T~ = 0 serves if
    every b1, b < 2^64 and sum |c| b < 2^62.  Else an e with every b < 2^64
    and sum |c / g_e| b < 2^63 has H_e exactly in its residue read as int64
    and enters T~ as fl(g_e) fl(H_e); the other e fold fl(c) t~ in float64
    (t~ = fl(t) if b1 < 2^64, else a float64 pair stage).  A term c w1 w2 w3
    meets at most K = 2k + 6 + C roundings (k = isqrt(n_max), C classes):
    four conversions, three products (pair, fold, z), k additions per stage
    (the first of at most k + 1 per norm is exact), and (C_e - 1) + (E - 1)
    <= C - 1 to fold its exponent's C_e classes and add the E exponents.  So
    |T~ - T| <= gamma_K A, A = sum |c| x, whatever the signs; as |c| <=
    |fl(c)| / (1 - u) and max(t) <= max(t~) / (1 - gamma_(k+3)), that is at
    most K u / (1 - 2 K u) (sum of |c| b over the exact e + sum of |fl(c)|
    max(t~) sum(w3) over the rest), u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Lemmas 3.1, 3.3, sec. 4.2).
    Where that is finite but too large (it can overstate A 15-fold), the
    fold of |fl(c)| t~ gives A~ >= (1 - gamma_K) A, and max(A~) replaces the
    second sum.  Either below 2^62 certifies T~ (K >= 7: |T~| < 2^113) before
    a signed float z pass runs; its own roundings stay far inside 2^63 -
    2^60 - 2^10.  An inf or NaN bound fails, and the H_e are folded on
    Python integers (`object`).
    """
    check_n_max(n_max)
    k = math.isqrt(n_max)
    classes = _monomial_classes(p)
    # classes share exponents: each axis's weights are built once per call
    weights = {e: _square_weights(e, k) for e in {e for key, _ in classes for e in key}}
    residue_weights = {e: np.array(w if max(w) < 1 << 64 else [v % (1 << 64) for v in w],
                                   dtype=np.uint64) for e, w in weights.items()}
    g: dict[int, int] = {}  # coefficients' gcd per z exponent: a lone class's H_e is +-x
    tables = []  # (pair table mod 2^64, whether it is exact, bound b) per class
    for (e1, e2, e3), c in classes:
        g[e3] = math.gcd(g.get(e3, 0), c)
        t = _pair_table(residue_weights[e1], residue_weights[e2], n_max)
        b = max(weights[e1]) * sum(weights[e2])
        exact = b < _RESIDUE_SAFE
        if exact:
            b = int(t.max()) * sum(weights[e3])
        tables.append((t, exact, b))
    residues = _z_stage(((e3, c // g[e3] % (1 << 64) * t) for ((_, _, e3), c), (t, _, _)
                         in zip(classes, tables)), residue_weights.__getitem__)
    s = sum((g[e] % (1 << 64) * r for e, r in residues.items()),
            np.zeros(n_max + 1, dtype=np.uint64)).view(np.int64)
    group_bounds: dict[int, int] = {}  # sum |c / g_e| b per z exponent; 2^63 once a b fails
    for ((_, _, e), c), (_, _, b) in zip(classes, tables):
        group_bounds[e] = group_bounds.get(e, 0) + (
            abs(c // g[e]) * b if b < _RESIDUE_SAFE else 1 << 63)
    if sum(g[e] * bound for e, bound in group_bounds.items()) < _TWO_PASS_SAFE:
        return p.denom, s.astype(object)
    known = [e for e, bound in group_bounds.items() if bound < 1 << 63]
    float_weights = {e: [_to_float(v) for v in w] for e, w in weights.items()}
    rel = (2 * k + 6 + len(classes)) * 2.0**-53
    certified = lambda magnitude: magnitude * rel / (1 - 2 * rel) < _TWO_PASS_SAFE
    known_bound = _to_float(sum(g[e] * group_bounds[e] for e in known))
    pairs, magnitude = [], known_bound
    with np.errstate(over="ignore", invalid="ignore"):
        for ((e1, e2, e3), c), (t, exact, _) in zip(classes, tables):
            if e3 in known:
                continue
            t = t.astype(np.float64) if exact else _pair_table(
                np.array(float_weights[e1]), np.array(float_weights[e2]), n_max)
            pairs.append((e3, _to_float(c), t))
            magnitude += abs(_to_float(c)) * float(t.max()) * float(sum(weights[e3]))
        if math.isfinite(magnitude) and not certified(magnitude):
            folded = _z_stage(((e, abs(fc) * t) for e, fc, t in pairs), float_weights.__getitem__)
            magnitude = known_bound + float(sum(folded.values(), np.zeros(n_max + 1)).max())
        if certified(magnitude):
            folded = _z_stage(((e, fc * t) for e, fc, t in pairs), float_weights.__getitem__)
            estimate = sum([_to_float(g[e]) * residues[e].view(np.int64).astype(np.float64)
                            for e in known] + list(folded.values()), np.zeros(n_max + 1))
            high = np.rint((estimate - s) / 2.0**64).astype(np.int64)
            totals = s.astype(object)
            carry = np.flatnonzero(high)
            totals[carry] += high[carry].astype(object) << 64
            return p.denom, totals
    objects = {e: np.array(w, dtype=object) for e, w in weights.items()}
    pairs = ((e3, c // g[e3] * _pair_table(objects[e1], objects[e2], n_max))
             for (e1, e2, e3), c in classes)
    passes = _z_stage(pairs, weights.__getitem__)
    return p.denom, sum((g[e] * h for e, h in passes.items()), np.zeros(n_max + 1, dtype=object))


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
    """Number of lattice points with lo <= |x|^2 <= hi (0 when lo > hi): the
    ball |x|^2 <= m holds sum over s <= m of r2(s) (2 isqrt(m - s) + 1), r2 the
    exponent-0 pair table (a float sqrt floors exactly below 2^52)."""
    check_n_max(hi)
    if lo > hi:
        return 0
    ones = np.array(_square_weights(0, math.isqrt(hi)), dtype=np.int64)
    r2 = _pair_table(ones, ones, hi)
    ball = lambda m: int(r2[: m + 1] @ (2 * np.sqrt(np.arange(m, -1, -1.0)).astype(np.int64) + 1))
    return ball(hi) - ball(lo - 1)


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
    mags = np.abs(shell_floats(series.denom, series.totals[1:]))
    max_ratio = 0.0
    argmax = 0
    for n, mag in enumerate(mags.tolist(), start=1):
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
    # the running maximum from 0, read at each window end; fmax passes over
    # a NaN as the max() of a loop from 0 does
    running = np.maximum.accumulate(np.fmax(np.asarray(magnitudes, dtype=np.float64), 0.0))
    xs, ys = [], []
    edge = 4
    while edge <= len(running):
        if running[edge - 1] > 0:
            xs.append(math.log(edge))
            ys.append(math.log(running[edge - 1]))
        edge *= edge_ratio
    if len(xs) < 3:
        return None
    return linear_fit(xs, ys)
