"""Oscillatory exponential sums and the frequency-side smoothed lattice sum.

The centrepiece is a small closed term algebra for expressions of the form

    pi^p R^a H^b (2R+H)^w  Q(xi) sin(pi c |xi| + pi s/2) ... / |xi|^m

(with one or two trig factors, c in {2R, H, 2R+H}).  The smoothing kernel's
Fourier transform is two such terms with constant Q, a function F(|xi|) of
the norm alone.  A homogeneous P of degree nu acts on it by Hobson's formula
(Hobson, The Theory of Spherical and Ellipsoidal Harmonics, 1931, 2.2):

    P(d/dxi) F(|xi|) = sum over k <= nu/2 of Lap^k P(xi) / (2^k k!) D^(nu-k) F

with D = |xi|^-1 d/d|xi|.  The family is closed under D, so only the radial
factor is differentiated, and D^j F is built once per j.  `freq_long_sum`,
the one evaluator of the transform, takes it at lattice frequencies shell
by shell; `gP_fourier_terms` expands it into a symbolic term list.  The
direct sums of Q(xi) e(R |xi| + h . xi) also go shell by shell, on shell
sums from `lattice` (exact for h = 0, complex otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .lattice import (
    check_n_max, check_window, main_term, offset_shell_sums, shell_floats, shell_totals,
)
from .poly import Polynomial3
from .util import FitResult, linear_fit

# Largest radius times sqrt(N) accepted: a float64 phase of 2^32 turns
# carries about 1e-6 turns of rounding error, and more would make the
# phases e(R |xi|) and the kernel's trig factors meaningless.
PHASE_CAP = 2.0**32


def _check_phase(radius: float, n: int, what: str) -> None:
    """Refuse radius * sqrt(n) above PHASE_CAP (NaN included); `what` names
    the product in the message."""
    if not radius * math.sqrt(n) <= PHASE_CAP:
        raise ValueError(
            f"{what} = {radius * math.sqrt(n):.3g} is not a number at most 2^32; past "
            "2^32 a float64 phase carries more than 1e-6 turns of error"
        )


# Frequency scales appearing in trig phases pi * c * |xi|.
FREQ_2R = "2R"
FREQ_H = "H"
FREQ_MIX = "2R+H"


@dataclass(frozen=True)
class TrigFactor:
    """sin(pi * c * |xi| + pi * shift / 2) with symbolic scale c."""

    freq: str
    shift: int  # quarter turns mod 4

    def shifted(self) -> "TrigFactor":
        return TrigFactor(self.freq, (self.shift + 1) % 4)

    def value(self, norm: float, r: float, h: float):
        scale = {FREQ_2R: 2 * r, FREQ_H: h, FREQ_MIX: 2 * r + h}[self.freq]
        return np.sin(np.pi * (scale * norm + self.shift / 2.0))


@dataclass(frozen=True)
class RadialTerm:
    """One closed-form term of a differentiated radial Fourier transform."""

    pi_pow: int
    r_pow: int
    h_pow: int  # may be -1 (the smoothing kernel carries R/H)
    mix_pow: int  # power of (2R + H)
    poly: Polynomial3
    denom_pow: int
    trig: tuple[TrigFactor, ...]

    def structure_key(self):
        return (self.pi_pow, self.r_pow, self.h_pow, self.mix_pow, self.denom_pow, self.trig)

    def prefactor(self, r: float, h: float) -> float:
        return (
            math.pi**self.pi_pow
            * r**self.r_pow
            * h**self.h_pow
            * (2 * r + h) ** self.mix_pow
        )

    def radial_derivative(self) -> list["RadialTerm"]:
        """D = |xi|^-1 d/d|xi| of a term whose numerator is constant in xi."""
        out: list[RadialTerm] = []
        for idx, factor in enumerate(self.trig):
            # D sin(pi c rho + .) = pi c sin(pi c rho + . + pi/2) / rho
            new_trig = tuple(
                f.shifted() if t == idx else f for t, f in enumerate(self.trig)
            )
            r0, h0, m0, coeff = self.r_pow, self.h_pow, self.mix_pow, 1
            if factor.freq == FREQ_2R:
                r0 += 1
                coeff = 2
            elif factor.freq == FREQ_H:
                h0 += 1
            else:
                m0 += 1
            out.append(
                RadialTerm(
                    self.pi_pow + 1, r0, h0, m0,
                    self.poly * coeff, self.denom_pow + 1, new_trig,
                )
            )
        out.append(
            RadialTerm(
                self.pi_pow, self.r_pow, self.h_pow, self.mix_pow,
                self.poly * (-self.denom_pow), self.denom_pow + 2, self.trig,
            )
        )
        return out


def merge_terms(terms: Iterable[RadialTerm]) -> tuple[RadialTerm, ...]:
    """Combine terms sharing all structure except the polynomial."""
    merged: dict[tuple, Polynomial3] = {}
    for t in terms:
        key = t.structure_key()
        merged[key] = merged.get(key, Polynomial3.zero()) + t.poly
    out = []
    for (pi_pow, r_pow, h_pow, mix_pow, denom_pow, trig), poly in merged.items():
        if poly:
            out.append(RadialTerm(pi_pow, r_pow, h_pow, mix_pow, poly, denom_pow, trig))
    out.sort(key=lambda t: (t.denom_pow, t.pi_pow, t.r_pow, t.h_pow, t.mix_pow,
                            tuple((f.freq, f.shift) for f in t.trig)))
    return tuple(out)


def kernel_base_terms() -> tuple[RadialTerm, ...]:
    """Fourier transform of the radial smoothing kernel f(|x|)/|x|, xi != 0.

    Two terms: sin(2 pi R |xi|) / (2 pi^2 |xi|^3) and
    -(R/H) sin(pi H |xi|) cos(pi (2R+H) |xi|) / (pi^2 |xi|^3).
    """
    half = Polynomial3.constant(Fraction(1, 2))
    return (
        RadialTerm(-2, 0, 0, 0, half, 3, (TrigFactor(FREQ_2R, 0),)),
        RadialTerm(
            -2, 1, -1, 0, Polynomial3.constant(-1), 3,
            (TrigFactor(FREQ_H, 0), TrigFactor(FREQ_MIX, 1)),  # cos = sin shifted
        ),
    )


@dataclass(frozen=True)
class FourierTerms:
    """Symbolic transform of P(x) f(|x|)/|x|: term list, up to a factor of i.

    For odd-degree P the operator carries an odd power of 1/i, so the value
    is i times the real term sum; `imaginary` records that.
    """

    nu: int
    terms: tuple[RadialTerm, ...]
    imaginary: bool


@lru_cache(maxsize=None)
def _radial_chain(j: int) -> tuple[tuple[RadialTerm, float], ...]:
    """D^j F, the j-th radial derivative of the kernel transform, built once
    per j as D(D^(j-1) F); it depends on j alone, and the degree cap bounds j.

    Every numerator is a constant; each term comes paired with it as a float.
    """
    if j == 0:
        terms = kernel_base_terms()
    else:
        terms = merge_terms(d for t, _ in _radial_chain(j - 1) for d in t.radial_derivative())
    return tuple((t, float(t.poly.evaluate(0, 0, 0))) for t in terms)


def _hobson_split(p: Polynomial3):
    """The polynomial half of P(-d/(2 pi i)) applied to the kernel transform F.

    Returns (nu, parts): parts lists (k, c_k Lap^k P) for every nonzero
    Lap^k P, with c_k = s / (2^nu 2^k k!) where i^nu = s for even nu and
    s i for odd nu.  By Hobson's formula the transform is pi^-nu times the
    sum over parts of c_k Lap^k P(xi) D^(nu-k) F(|xi|) (`_radial_chain`),
    times i for odd nu.
    """
    if not p.is_homogeneous:
        raise ValueError("operator application requires homogeneous P")
    nu = p.degree
    # overall factor (i / 2pi)^nu = i^nu 2^-nu pi^-nu
    sign = 1 if nu % 4 in (0, 1) else -1
    parts = []
    lap_p, k = p, 0
    while lap_p:
        parts.append((k, lap_p * Fraction(sign, 2**nu * 2**k * math.factorial(k))))
        lap_p, k = lap_p.laplacian(), k + 1
    return nu, parts


def gP_fourier_terms(p: Polynomial3) -> FourierTerms:
    """Apply P(-d/(2 pi i)) to the kernel transform, symbolically.

    For homogeneous P of degree nu this equals (i/(2 pi))^nu P(d/dxi) applied
    to the two radial base terms F, expanded by Hobson's formula (see the
    module docstring and `_hobson_split`).  The k-th numerator Lap^k P has
    degree nu - 2k and is brought to degree nu by |xi|^(2k) over |xi|^(2k),
    so every denominator power is at least nu + 3.
    """
    nu, parts = _hobson_split(p)
    r2 = Polynomial3.norm_squared()
    final = merge_terms(
        RadialTerm(t.pi_pow - nu, t.r_pow, t.h_pow, t.mix_pow, t.poly * (r2**k * lap),
                   t.denom_pow + 2 * k, t.trig)
        for k, lap in parts
        for t, _ in _radial_chain(nu - k)
    )
    for t in final:
        assert t.poly.degree == nu or not t.poly
        assert t.denom_pow >= nu + 3, "term outside convergent shape"
    return FourierTerms(nu=nu, terms=final, imaginary=nu % 2 == 1)


def _radial_factor(t: RadialTerm, norm, r: float, h: float, cache: dict | None = None):
    """t at |xi| = norm without its numerator polynomial: the prefactor, the
    trig factors and 1/|xi|^denom_pow (norm a float or an array), each
    power and trig factor kept in `cache` for the terms at the same norm."""
    cache = {} if cache is None else cache
    if t.denom_pow not in cache:
        cache[t.denom_pow] = norm**t.denom_pow
    val = t.prefactor(r, h) / cache[t.denom_pow]
    for f in t.trig:
        if f not in cache:
            cache[f] = f.value(norm, r, h)
        val = val * cache[f]
    return val


def freq_long_sum(p: Polynomial3, r: float, h: float, n_trunc: int) -> float:
    """Main term plus the truncated frequency sum of the transformed kernel.

    Sums all nonzero frequencies with |xi|^2 <= n_trunc.  By Hobson's split
    (`_hobson_split`, `_radial_chain`) the transform is pi^-nu times the sum
    over k of c_k Lap^k P(xi) D^(nu-k) F(|xi|), so its shell subtotal at
    |xi|^2 = n is the exact shell sum of c_k Lap^k P times D^(nu-k) F(sqrt n):
    one shell series per nonzero Lap^k P, a single one for harmonic P.  For
    odd nu every Lap^k P is odd and sums to exactly 0 on every shell.  The
    shells are combined with exact compensated addition.  Memory is
    O(n_trunc).  (R+H) sqrt(n_trunc) above PHASE_CAP is refused first.
    """
    if n_trunc < 1:
        raise ValueError("n_trunc must be at least 1")
    check_window(r, h)
    check_n_max(n_trunc)
    _check_phase(r + h, n_trunc, "(R+H) sqrt(n_trunc)")
    nu, parts = _hobson_split(p)
    main = float(main_term(p, Fraction(r), Fraction(h))) * math.pi
    norm = np.sqrt(np.arange(1, n_trunc + 1, dtype=np.float64))
    contrib = np.zeros(n_trunc)
    cache: dict = {}  # the chains share few powers and trig factors
    for k, lap in parts:
        denom, totals = shell_totals(lap, n_trunc)
        factor = sum(c * _radial_factor(t, norm, r, h, cache) for t, c in _radial_chain(nu - k))
        contrib += shell_floats(denom, totals[1:]) * factor
    return main + math.pi**-nu * math.fsum(contrib)


# -- direct oscillatory sums -------------------------------------------------


def _cumulative_exp_sum(
    q: Polynomial3, n_top: int, r: float, h: tuple[float, float, float]
) -> np.ndarray:
    """V[m] = sum of Q(xi) e(R |xi| + h . xi) over |xi|^2 <= m, 0 <= m <= n_top.

    e(R |xi|) is constant on each shell, so the shell sums of Q(xi) e(h . xi)
    are taken first and multiplied by one phase table e(R sqrt m).  With
    h = 0 they are the exact shell sums of Q; otherwise they come from the
    same per-axis square convolution with complex weights
    (`lattice.offset_shell_sums`).  |R| sqrt(n_top) above PHASE_CAP is
    refused before either.
    """
    check_n_max(n_top)
    _check_phase(abs(r), n_top, "|R| sqrt(N)")
    if any(h):
        shells = offset_shell_sums(q, n_top, h)
    else:
        denom, totals = shell_totals(q, n_top)
        shells = shell_floats(denom, totals)
    phase = r * np.sqrt(np.arange(n_top + 1, dtype=np.float64))
    return np.cumsum(shells * np.exp(2j * np.pi * phase))


def exp_sum_lattice(
    q: Polynomial3,
    n: int,
    h: tuple[float, float, float] = (0.0, 0.0, 0.0),
    r: float = 1.0,
) -> complex:
    """Sum of Q(xi) e(R |xi| + h . xi) over all |xi|^2 <= n (origin included)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return complex(_cumulative_exp_sum(q, n, r, h)[n])


# -- empirical bound reports --------------------------------------------------


@dataclass(frozen=True)
class BoundCheckRow:
    n: int
    abs_v: float
    bound: float
    ratio: float


@dataclass(frozen=True)
class BoundCheckReport:
    """Observed |V_N| against N^(nu/2) min(N^(3/2), N^(5/4) + N^(15/14) R^(3/14))."""

    nu: int
    r: float
    rows: tuple[BoundCheckRow, ...]
    max_ratio: float
    slopes: dict[str, FitResult | None]

    def to_csv(self) -> str:
        lines = ["N,abs_V,bound,ratio"]
        lines.extend(
            f"{row.n},{row.abs_v!r},{row.bound!r},{row.ratio!r}" for row in self.rows
        )
        return "\n".join(lines) + "\n"


def bound_value(n: int, nu: int, r: float) -> float:
    """Comparison bound N^(nu/2) min(N^(3/2), N^(5/4) + N^(15/14) |R|^(3/14)).

    |V(Q, -R, -h)| = |V(Q, R, h)| for real Q, so only |R| matters.
    """
    return n ** (nu / 2) * min(n**1.5, n**1.25 + n ** (15 / 14) * abs(r) ** (3 / 14))


def bound_check_VNQR(
    q: Polynomial3,
    n_list: Sequence[int],
    r: float,
    h: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> BoundCheckReport:
    """Evaluate the lattice exponential sum along an N sweep and compare.

    Shell sums are accumulated once up to max(N), so the sweep costs a single
    enumeration.  Slopes of log|V| vs log N are fitted per regime, with the
    regime cut at N ~ |R|^(1/2) and N ~ |R|^(6/5).
    """
    if not n_list or list(n_list) != sorted(set(n_list)):
        raise ValueError("n_list must be ascending and nonempty")
    if n_list[0] < 1:
        raise ValueError("every N must be at least 1")
    nu = q.degree
    cum = _cumulative_exp_sum(q, n_list[-1], r, h)
    rows = []
    for n in n_list:
        abs_v = float(abs(cum[n]))
        bound = bound_value(n, nu, r)
        rows.append(BoundCheckRow(n=n, abs_v=abs_v, bound=bound, ratio=abs_v / bound))
    regimes = {"low": [], "mid": [], "high": []}
    lo_cut, hi_cut = abs(r) ** 0.5, abs(r) ** 1.2
    for row in rows:
        if row.abs_v <= 0:
            continue
        name = "low" if row.n < lo_cut else ("mid" if row.n < hi_cut else "high")
        regimes[name].append((math.log(row.n), math.log(row.abs_v)))
    slopes: dict[str, FitResult | None] = {}
    for name, pts in regimes.items():
        slopes[name] = (
            linear_fit([p[0] for p in pts], [p[1] for p in pts])
            if len(pts) >= 3
            else None
        )
    return BoundCheckReport(
        nu=nu,
        r=r,
        rows=tuple(rows),
        max_ratio=max(row.ratio for row in rows),
        slopes=slopes,
    )
