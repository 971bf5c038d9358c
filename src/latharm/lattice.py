"""Exact Z^3 shell enumeration and exact/weighted lattice sums.

The shell coefficients a_n (sums of a polynomial over all lattice points of
norm-squared n) are computed exactly as integers T[n] over one denominator D,
held in int64 exactly when every one fits, else as Python integers.  They
become Fractions only at the output edge and floats only through
`shell_floats`, `running_floats` or a window weight.  The edge keeps
int64 where it can: the CSV digits, the float conversions and the running
sums are numpy kernels that give the same bytes as the Python-int rows.

Shell sums are square convolutions: an x, y pair table, then the costly z
axis, run on the pair tables summed per z exponent (`_fold`).  On shell n
the point z = +-j reads the pair table at a = n - j^2, and the weight
2 j^2t of z exponent 2t is 2 (n - a)^t; by the binomial theorem the
exponents 0, 2, ..., 2 tau of `shell_totals` take tau + 1 passes of pure
shifted adds (`_z_run`), its powers moved onto a and n in O(n_max), an
exponent with no class reading a zero table.  Only `offset_shell_sums`
(real weights on the float64 real and imaginary parts) keeps one
multiply-add pass per exponent.  `shell_totals` runs the z axis on
residues only: one uint64 stage mod 2^64, then, as many as an exact bound
on |T| asks for, int64 stages mod primes below 2^26, each the same passes
on every class, joined by the explicit CRT in one matrix product
(`_recover`).  Only the per-shell consumers run the z axis: the ball sum
(`_ball_total`) is one bilinear form per class on the same residues, in
O(n_max), read through the ball's index table (`_ball_index`).  Every lattice-point count is one
int64 form on such a table (`_ball_points`): a ball report's on the value's
own table, a window's the difference of two balls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .poly import Polynomial3, sphere_average
from .util import FitResult, linear_fit

# Largest shell count a series or sum may ask for (see check_n_max).
N_MAX_CAP = 10**6

# Largest set of tables `_recover` builds for its primes: the digits (primes x
# shells), the limbs of the moduli, and the limb accumulator.
RESIDUE_TABLE_BYTES = 1 << 30

# Products per block of rows of a pair table's outer product (`_pair_table`):
# 64 KiB of uint64, where the whole product would be a transient array of
# up to 8 MB.
PAIR_BLOCK = 1 << 13

# Rows per block of the decimal CSV kernel: its digit matrix stays near
# 100 KiB, where one matrix for the whole series would raise peak memory.
CSV_BLOCK_ROWS = 4096


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


@dataclass(frozen=True, eq=False)
class CoefficientSeries:
    """Exact shell sums a_n = totals[n] / denom for 1 <= n <= n_max of a
    homogeneous polynomial; totals[0] / denom is its value at the origin.
    totals is the read-only array `shell_totals` returns: int64, or Python
    ints in an object array."""

    nu: int
    poly_id: str
    denom: int
    totals: np.ndarray
    n_max: int
    is_harmonic: bool

    @property
    def values(self) -> tuple[Fraction, ...]:
        """a_1 .. a_n_max as Fractions."""
        return tuple(Fraction(t, self.denom) for t in self.totals[1:].tolist())

    def a(self, n: int) -> Fraction:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n={n} outside 1..{self.n_max}")
        return Fraction(int(self.totals[n]), self.denom)

    def to_csv(self) -> str:
        if self.denom == 1:  # every a_n is an integer: no reduction to do
            return _csv_text(self.totals[1:])
        lines = ["n,a_n"]
        for n, t in enumerate(self.totals[1:].tolist(), start=1):
            g = math.gcd(t, self.denom)
            num, den = t // g, self.denom // g
            lines.append(f"{n},{num}" if den == 1 else f"{n},{num}/{den}")
        return "\n".join(lines) + "\n"


@functools.cache
def _digit_quads() -> np.ndarray:
    """Two tables of 4-digit chunks, each chunk the uint32 whose four bytes
    in memory are ASCII digits or 0 bytes (blanks, deleted later).  Entry r
    < 10^4 is "0000".."9999"; entry 10^4 + r is r with its leading zeros
    blank, for a number's leading chunk.  Entry 10^4 (a leading 0) is all
    blank in table 0, for the chunks above a number, and "0" in table 1, for
    the lowest chunk, so that 0 prints as 0.  Built on first use."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()  # row r: r's digits
    chars = digits + np.uint8(ord("0"))
    led = np.where(np.maximum.accumulate(digits > 0, axis=1), chars, np.uint8(0))
    tables = np.stack([np.concatenate([chars, led])] * 2)
    tables[1, 10_000, -1] = ord("0")
    return tables.view(np.uint32)[..., 0]


def _put_decimal(u: np.ndarray, columns: np.ndarray) -> None:
    """Write the decimal digits of u (uint64) into the uint32 columns, one
    4-digit chunk of `_digit_quads` per column, the lowest in the last; the
    columns must hold every digit of max(u)."""
    quads = _digit_quads()
    last = columns.shape[1] - 1
    for i in range(last, -1, -1):
        high = u // 10_000
        chunk = u - high * 10_000
        chunk += (high == 0) * np.uint64(10_000)  # leading, or above the number
        # every index is in range; clip only spares take its buffered copy
        np.take(quads[int(i == last)], chunk, out=columns[:, i], mode="clip")
        u = high


def _csv_text(values: np.ndarray) -> str:
    """The CSV of the integer array values: the header n,a_n, then
    f"{n},{t}\n" for each t, n from 1.  Each block of CSV_BLOCK_ROWS rows that
    fits int64 is a uint32 matrix, per row the chunks of n, a word ",", or
    ",-", the chunks of |t| and a word "\n", all padded by 0 bytes that
    bytearray.translate deletes.  The blocks take turns in one buffer, as
    wide as the largest n and |t| ask for (|t| <= 2^63 in any block that
    fits int64), its tail past a narrower block zeroed; a block with a
    value outside int64 (an object array's) takes Python's digits."""
    comma, minus, newline = np.frombuffer(b",\0\0\0\0-\0\0\n\0\0\0", dtype=np.uint32)
    top = (max(int(values.max(initial=0)), -int(values.min(initial=0)))
           if values.dtype == np.int64 else 1 << 63)
    width = sum((len(str(v)) + 3) // 4 for v in (len(values), top)) + 2
    buffer = bytearray(4 * min(len(values), CSV_BLOCK_ROWS) * width)
    words = np.frombuffer(buffer, dtype=np.uint32)
    blocks = ["n,a_n\n"]
    for start in range(0, len(values), CSV_BLOCK_ROWS):
        try:
            t = values[start : start + CSV_BLOCK_ROWS].astype(np.int64, copy=False)
        except OverflowError:
            rows = enumerate(values[start : start + CSV_BLOCK_ROWS].tolist(), start=start + 1)
            blocks.append("".join([f"{n},{v}\n" for n, v in rows]))
            continue
        n = np.arange(start + 1, start + len(t) + 1, dtype=np.uint64)
        # |INT64_MIN| wraps to itself in int64, and reads as 2^63 in uint64
        a = np.abs(t).view(np.uint64)
        nc, tc = ((len(str(int(v))) + 3) // 4 for v in (n[-1], a.max()))
        size = len(t) * (nc + tc + 2)
        row = words[:size].reshape(len(t), -1)
        _put_decimal(n, row[:, :nc])
        np.multiply(t < 0, minus, out=row[:, nc])
        row[:, nc] |= comma
        _put_decimal(a, row[:, nc + 1 : -1])
        row[:, -1] = newline
        words[size:] = 0  # what an earlier block left past this one
        blocks.append(buffer.translate(None, b"\0").decode("ascii"))
    return "".join(blocks)


def shell_floats(denom: int, totals) -> np.ndarray:
    """Float64 array of T[n] / D, each correctly rounded once from the exact
    integers, so it equals float(Fraction(T[n], D)).  An int64 array converts
    in numpy when that is one rounding: D = 1, or D and every |T| at most
    2^53, exact in float64, so that only the division rounds.  Anything else
    goes through Python int / int."""
    if isinstance(totals, np.ndarray) and totals.dtype == np.int64 and (
        denom == 1
        or denom <= 1 << 53 and -(1 << 53) <= totals.min(initial=0)
        and totals.max(initial=0) <= 1 << 53
    ):
        floats = totals.astype(np.float64)
        return floats if denom == 1 else floats / denom
    return (np.asarray(totals, dtype=object) / denom).astype(np.float64)


def running_floats(denom: int, totals) -> np.ndarray:
    """Float64 array of (T[0] + ... + T[n]) / D, each correctly rounded once
    from the exact running sums.  For int64 T and D = 1, T = 2^32 hi + lo
    with hi = T >> 32 and 0 <= lo < 2^32: over fewer than 2^21 shells each
    limb's running sum stays within 2^53, exact in int64 and in float64, so
    2^32 H + L rounds once, to float(exact sum).  Two arrays: H summed in
    float64, L in int64.  Anything else sums Python integers."""
    if (isinstance(totals, np.ndarray) and totals.dtype == np.int64 and denom == 1
            and len(totals) < 1 << 21):
        limb = totals >> 32
        sums = limb.astype(np.float64)
        np.cumsum(sums, out=sums)
        np.bitwise_and(totals, 0xFFFF_FFFF, out=limb)
        np.cumsum(limb, out=limb)
        sums *= float(1 << 32)
        sums += limb
        return sums
    return shell_floats(denom, np.cumsum(totals, dtype=object))


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


def _disc(n_max: int) -> tuple[int, list[tuple[slice, np.ndarray, np.ndarray]]]:
    """(n_max, the pairs (a, b), 0 <= a, b <= isqrt(n_max), in blocks of
    rows of about PAIR_BLOCK pairs, each block (its rows a, the mask of its
    pairs with a^2 + b^2 <= n_max, and each such pair's a^2 + b^2, row by
    row)): the index of `_pair_table`, built once per shell-sum call."""
    squares = np.arange(math.isqrt(n_max) + 1) ** 2
    rows, blocks = max(1, PAIR_BLOCK // len(squares)), []
    for lo in range(0, len(squares), rows):
        norms = squares[lo : lo + rows, None] + squares[None, :]
        inside = norms <= n_max
        blocks.append((slice(lo, lo + rows), inside, norms[inside]))
    return n_max, blocks


def _pair_table(wx, wy, disc: tuple[int, list[tuple[slice, np.ndarray, np.ndarray]]]) -> np.ndarray:
    """t[m] = sum over a^2 + b^2 = m of wx[a] wy[b], for 0 <= m <= n_max.

    The pair stage of every square convolution: the outer product of two
    axes' weights (isqrt(n_max) + 1 each), binned by a^2 + b^2 through the
    `_disc` index, in the weights' dtype, one block of rows at a time.
    """
    n_max, blocks = disc
    t = np.zeros(n_max + 1, dtype=np.result_type(wx, wy))
    for rows, inside, norms in blocks:
        np.add.at(t, norms, np.multiply.outer(wx[rows], wy)[inside])
    return t


def _add_square_axis(t: np.ndarray, w) -> np.ndarray:
    """s[m] = sum over j of w[j] t[m - j^2]: shell sums t gain one more axis,
    whose point +-j carries the weight w[j].  One shifted add per j."""
    n_max = len(t) - 1
    s = w[0] * t
    for j in range(1, len(w)):
        s[j * j :] += w[j] * t[: n_max + 1 - j * j]
    return s


def _pure_pass(t: np.ndarray, out: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """out[m - lo] = t[m] + 2 sum over j >= 1 of t[m - j^2] for lo <= m <=
    hi: `_add_square_axis` with the weights of exponent 0 (1 at j = 0, 2 at
    every j >= 1) on the shells lo..hi, written into the first hi - lo + 1
    entries of out, by one pure add per j, each from max(lo, j^2), and one
    doubling at the end.  uint64 sums wrap mod 2^64; int64 sums of residues
    below q stay at most (2 isqrt(m) + 1) (q - 1).  out must not overlap t.
    Returns the window of out it wrote."""
    s = out[: max(hi - lo + 1, 0)]
    s[...] = 0
    j_max = math.isqrt(max(hi, 0))
    j_in = min(math.isqrt(lo - 1) if lo > 0 else 0, j_max)  # the j with j^2 < lo
    for j in range(1, j_in + 1):  # from lo
        s += t[lo - j * j : hi + 1 - j * j]
    for j in range(j_in + 1, j_max + 1):  # from j^2, as the whole pass
        s[j * j - lo :] += t[: hi + 1 - j * j]
    s += s
    s += t[lo : hi + 1]
    return s


def _fold(pairs) -> dict[int, np.ndarray]:
    """{e: the tables t of `pairs` (e, t) with z exponent e, summed in place
    into the first, which the caller owns}: the z pass is linear, so the
    classes that share a z exponent share its pass."""
    folded: dict[int, np.ndarray] = {}
    for e, t in pairs:
        if e in folded:
            folded[e] += t
        else:
            folded[e] = t
    return folded


def _z_run(folded: dict[int, np.ndarray], mod: int | None) -> np.ndarray:
    """The sum over the even z exponents e of Z_e(folded[e]), Z_e the z pass
    of exponent e, by tau + 1 pure passes `_pure_pass`, 2 tau the largest
    e: mod 2^64 in uint64 (mod None), else mod `mod` on int64 tables,
    reduced below it first.  F_t is folded[2t], zeros for an exponent with
    no table.  Overwrites the tables.  The passes and the products write
    into arrays the call owns (the sum, a = n, and past tau = 1 G and one
    pass output), or into the tables.

    On shell n, Z_2t reads F_t at a = n - j^2 with the weight 2 j^2t =
    2 (n - a)^t at j >= 1, and at j = 0 with 1 = (n - a)^0 for t = 0 and
    0 = (n - a)^t for t >= 1, so Z_2t(F_t)[n] = Z_0((n - a)^t F_t)[n].  By
    the binomial theorem the sum is the sum over i of n^i Z_0(G_i), G_i the
    sum over t >= i of C(t, i) (-a)^(t - i) F_t: G_i by Horner's rule in -a
    on the pair-table index a, and the powers of n by Horner's rule over i.
    Mod q every factor is reduced below q before a product, so none passes
    (q - 1)^2 < 2^52 (a and n are at most N_MAX_CAP < q).
    """
    tau = max(folded) // 2
    top = folded[2 * tau]
    tables = [folded[2 * t] if 2 * t in folded else np.zeros_like(top) for t in range(tau + 1)]
    reduce = (lambda x: x) if mod is None else (lambda x: np.remainder(x, mod, out=x))
    for t in tables:
        reduce(t)
    m = 1 << 64 if mod is None else mod
    hi = len(top) - 1
    total = reduce(_pure_pass(top, np.empty_like(top), 0, hi))
    if tau:
        # G_0 is built in place on F_tau.  Past tau = 1, G_i for i > 0 and
        # the products C(t, i) F_t take two arrays more; at tau = 1 the one
        # pass after the first writes over F_0, read for the last time
        a = np.arange(len(top), dtype=top.dtype)
        g, z = (np.empty_like(top), np.empty_like(top)) if tau > 1 else (None, tables[0])
    for i in range(tau - 1, -1, -1):
        # G = C(t, i) F_t - a G from t = tau down to i; G_0, the last, has
        # every C(t, 0) = 1 and is built in place on the tables
        g = top if i == 0 else reduce(np.multiply(top, math.comb(tau, i) % m, out=g))
        for t in range(tau - 1, i - 1, -1):
            g *= a
            c = math.comb(t, i) % m
            f = tables[t] if c == 1 else reduce(np.multiply(tables[t], c, out=z))
            np.subtract(f, reduce(g), out=g)
            reduce(g)
        total *= a
        total += _pure_pass(g, z, 0, hi)
        reduce(total)
    return total


def offset_shell_sums(
    p: Polynomial3, n_max: int, h: tuple[float, float, float]
) -> np.ndarray:
    """Complex shell sums of p(xi) e(h . xi) over |xi|^2 = m, 0 <= m <= n_max.

    Per axis, u^e e(h s u) summed over the signs s of the points +-u is the
    square weight of u times cos(2 pi h u), or times i sin(2 pi h u) for odd
    e: the square convolution of `shell_totals` with complex128 x and y
    weights, folded by `_fold` the same way.  A z weight is real or i times
    real, so each exponent's z pass, one multiply-add `_add_square_axis`,
    runs on the real and imaginary parts as float64 with the real weights,
    and an odd exponent's sums are multiplied by i once after it.  h enters
    mod 1, exactly (by fmod), so a large h loses no precision in the angle.
    """
    check_n_max(n_max)
    k = math.isqrt(n_max)
    angles = [2 * np.pi * math.fmod(v, 1.0) * np.arange(k + 1) for v in h]

    def trig(axis: int, e: int) -> np.ndarray:
        return np.sin(angles[axis]) if e % 2 else np.cos(angles[axis])

    def weights(axis: int, e: int) -> np.ndarray:
        factor = 1j * trig(axis, e) if e % 2 else trig(axis, e)
        return np.array(_square_weights(e, k), dtype=np.complex128) * factor

    disc = _disc(n_max)
    folded = _fold((e, (coeff / p.denom) * _pair_table(weights(0, i), weights(1, j), disc)
                    .view(np.float64).reshape(-1, 2)) for (i, j, e), coeff in p.terms.items())
    total = np.zeros(n_max + 1, dtype=np.complex128)
    for e, t in folded.items():
        w = np.array(_square_weights(e, k), dtype=np.float64) * trig(2, e)
        s = _add_square_axis(t, w).view(np.complex128)[:, 0]
        total += 1j * s if e % 2 else s
    return total


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


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, which is exact for odd
    7 < n < 3 215 031 751 (Pomerance, Selfridge and Wagstaff, 1980)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _primes():
    """The odd primes below 2^26, largest first.  For each of them
    (isqrt(N_MAX_CAP) + 1) (q - 1)^2 < 2^63, so no int64 stage on residues
    mod q wraps."""
    return (n for n in range((1 << 26) - 1, 7, -2) if _is_prime(n))


def _recover(g: int, s: np.ndarray, bound: int, residue) -> np.ndarray:
    """T = g U for the integers |U| <= bound, given s = U mod 2^64 read as
    int64 and residue(q) = U mod q (int64): int64 exactly when every |T| <
    2^63, else an object array of Python integers.

    While bound < 2^63, s is U.  Otherwise the primes q < 2^26 (`_primes`)
    are drawn until M = 2^64 Q > 4 bound, Q their product, and g is folded
    into the residues when M > 4 g bound too.  Then W (g U or U) = s + 2^64 V
    with |V| <= |W| / 2^64 + 1/2 < Q/4 + 1/2, and the explicit CRT
    (Montgomery and Silverman, Math. Comp. 1990; Bernstein, 1995) gives
    V = sum a_q Q/q - k Q, for any digits a_q = (W mod q - s) (2^64 Q/q)^-1
    mod q, here |a_q| < q, and k = round(sum a_q / q): that sum is V/Q + k,
    within 1/4 + 2^-26 of k, and float64 errs by less than 2^-25 on it for
    P < 2^14 primes.  V = 0, and s is W, exactly where every digit is 0.
    Elsewhere the sum over q is one product of the digits and k ((P + 1)
    rows) by the 16-bit limbs of each Q/q and of -Q, in float64 (BLAS):
    each term is below 2^42 and a block of 2^11 rows sums below 2^53, so it
    is exact.  L carry passes leave the limbs of V - [s < 0], and one
    `int.from_bytes` of s's 8 bytes and those limbs gives W.  Tables past
    RESIDUE_TABLE_BYTES (the digits, the limbs, the accumulator and one
    block's product) are refused before any prime pass; that keeps P below
    2^14."""
    n, primes, q_all, candidates = len(s), [], 1, _primes()
    while bound >= 1 << 63 and q_all << 64 <= 4 * bound:
        primes.append(next(candidates))
        q_all *= primes[-1]
    f = g if primes and q_all << 64 > 4 * g * bound else 1
    if primes:
        limbs, rows = -(-q_all.bit_length() // 16), len(primes) + 1
        if 8 * (rows * (n + limbs) + 2 * limbs * n) > RESIDUE_TABLE_BYTES:
            raise ValueError(f"an exact sum over {n} shells would need {len(primes)} primes, "
                             f"a residue table past {RESIDUE_TABLE_BYTES >> 20} MiB")
        if f != 1:
            s = (s.view(np.uint64) * np.uint64(f % (1 << 64))).view(np.int64)
        digits = np.empty((rows, n))
        for row, q in zip(digits, primes):
            c = pow((q_all // q << 64) % q, -1, q)
            np.multiply(residue(q), f * c % q, out=row)
            row -= np.fmod(s, q) * float(c)
            row -= np.rint(row / q) * q
        wide = np.flatnonzero(digits[:-1].any(axis=0))
        if len(wide):
            if len(wide) < n:
                digits = digits[:, wide]
            np.rint(1 / np.array(primes, dtype=np.float64) @ digits[:-1], out=digits[-1])
            table = b"".join(c.to_bytes(2 * limbs, "little")
                             for c in [q_all // q for q in primes] + [q_all])
            table = np.frombuffer(table, dtype="<u2").reshape(rows, limbs).T.astype(np.float64)
            table[:, -1] *= -1
            acc = np.zeros((limbs, len(wide)), dtype=np.int64)
            for i in range(0, rows, 1 << 11):
                np.add(acc, table[:, i : i + (1 << 11)] @ digits[i : i + (1 << 11)], out=acc,
                       casting="unsafe")
            del digits
            acc[0] -= s[wide] < 0  # W = (s mod 2^64) + 2^64 (V - [s < 0])
            for low, high in zip(acc[:-1], acc[1:]):
                high += low >> 16
                low &= 0xFFFF
            words = np.empty((len(wide), 4 + limbs), dtype="<u2")
            words[:, :4] = s[wide].astype("<i8").view("<u2").reshape(-1, 4)
            words[:, 4:] = acc.T
            data, width = words.tobytes(), 2 * words.shape[1]
            w = s.astype(object)
            w[wide] = np.fromiter((int.from_bytes(data[i : i + width], "little", signed=True)
                                   for i in range(0, len(data), width)),
                                  dtype=object, count=len(wide))
            return w if f == g else g * w
    h, m = g // f, max(-int(s.min(initial=0)), int(s.max(initial=0)))
    if h * m < 1 << 63:
        return s * h if h != 1 and m else s
    return h * s.astype(object)


def _content(p: Polynomial3, k: int):
    """(G, p's monomial classes with their coefficients divided by G, {e:
    `_square_weights(e, k)` for each exponent e of a class}), G the gcd of
    the class coefficients (1 if there is none).  Classes share exponents,
    so each axis's weights are built once per call."""
    classes = _monomial_classes(p)
    g = math.gcd(*(c for _, c in classes)) or 1
    weights = {e: _square_weights(e, k) for e in {e for key, _ in classes for e in key}}
    return g, [(key, c // g) for key, c in classes], weights


def shell_totals(p: Polynomial3, n_max: int) -> tuple[int, np.ndarray]:
    """Exact shell sums of a polynomial, as integers over one denominator.

    Returns (D, T) with T[n] / D = sum of p over |x|^2 = n for 0 <= n <= n_max
    (T[0] / D is p at the origin).  T is int64 exactly when every |T| is
    below 2^63, whatever route ran, and an object array of Python integers
    otherwise; readers that sum or divide T take its elements as Python
    integers, as an int64 sum wraps.
    p need not be homogeneous.  n_max above N_MAX_CAP is refused.

    T = G U with G the gcd of the class coefficients (`_content`), and U =
    sum over the reduced classes of c x (c an integer, x >= 0 the class's
    sums).  Weights are non-negative, so t <= max(w1) sum(w2); below 2^64
    that makes the uint64 pair table exact, and its max replaces the bound.
    So x <= max(t) sum(w3), and |U| <= B = sum |c| max(t) sum(w3), in exact
    integers.  Each class's pair table is scaled by its c, and `_fold`
    adds it into F_0, ..., F_tau by its z exponent as soon as it is built
    (2 tau the largest exponent); `_z_run` carries them along z by tau + 1
    pure passes.  One uint64 stage gives s = U mod 2^64, and `_recover` adds, if
    B >= 2^63, int64 stages for U mod q until 2^64 prod q > 4 B, each the
    same passes on every class.  Those take c on the x weights and reduce every weight, pair
    table and fold below q before the next stage, so no pair table passes
    (k + 1) (q - 1)^2 < 2^63, and no pure pass (2k + 1) (q - 1) < 2^37.
    A harmonic p has no gap in its z exponents; one with a gap, or none at
    0, still runs tau + 1 passes, a zero table for each exponent it lacks.
    """
    check_n_max(n_max)
    k = math.isqrt(n_max)
    content, classes, weights = _content(p, k)
    if not classes:
        return p.denom, np.zeros(n_max + 1, dtype=np.int64)
    disc = _disc(n_max)
    w64 = {e: np.array([v % (1 << 64) for v in w], dtype=np.uint64) for e, w in weights.items()}
    bound = 0

    def scaled():  # each class's table, its max added into the bound, times c
        nonlocal bound
        for (e1, e2, e3), c in classes:
            t = _pair_table(w64[e1], w64[e2], disc)
            b = max(weights[e1]) * sum(weights[e2])
            bound += abs(c) * (int(t.max()) if b < 1 << 64 else b) * sum(weights[e3])
            if c != 1:
                t *= c % (1 << 64)
            yield e3, t

    s = _z_run(_fold(scaled()), None)

    def residue(q: int) -> np.ndarray:
        wq = {e: np.array([v % q for v in w], dtype=np.int64) for e, w in weights.items()}

        def table(key, c):  # reduced in place before the fold adds it
            t = _pair_table(c % q * wq[key[0]] % q, wq[key[1]], disc)
            return key[2], np.remainder(t, q, out=t)

        return _z_run(_fold(table(key, c) for key, c in classes), q)

    return p.denom, _recover(content, s.view(np.int64), bound, residue)


def _ball_index(n_max: int) -> np.ndarray:
    """Index table of the ball: (a, b) -> max j with j^2 <= n_max - a^2 - b^2 (floored
    `np.sqrt`) for 0 <= a, b <= k = isqrt(n_max), and k + 1 off the disc."""
    check_n_max(n_max)
    k = math.isqrt(n_max)
    squares = np.arange(k + 1, dtype=np.float64) ** 2
    rest = np.subtract(n_max, squares[:, None]) - squares
    rest[rest < 0] = (k + 1) ** 2
    return np.sqrt(rest, out=rest).astype(np.intp)


def _ball_points(index: np.ndarray) -> int:
    """The number of lattice points in the ball of `index`, w_0^T Z_0 w_0 in
    int64 (see `_ball_total`): below 2^33 at N_MAX_CAP, so nothing wraps."""
    w0 = np.array(_square_weights(0, len(index) - 1), dtype=np.int64)
    cum = np.zeros(len(index) + 1, dtype=np.int64)  # k + 1, off the disc, reads 0
    np.cumsum(w0, out=cum[:-1])
    return int(w0 @ cum[index] @ w0)


def _ball_total(p: Polynomial3, index: np.ndarray) -> tuple[int, int]:
    """(D, T) with T / D the sum of p over the ball of `_ball_index`, in O(n_max).

    A class (e1, e2, e3) sums over the ball to w_e1^T Z_e3 w_e2, w_e the
    square weights and Z_e[a, b] = sum of w_e[j] over j^2 <= n_max - a^2 -
    b^2 (0 off the disc): a cumsum read through the index table.  T = G U
    as in `shell_totals`, |U| <= sum |c| prod sum(w) as the ball lies in the
    cube; U mod 2^64 in uint64 (matmul wraps), and mod q on w and Z reduced
    below q, each product (k + 1 terms) reduced after it.
    """
    k = len(index) - 1
    content, classes, weights = _content(p, k)
    bound = sum(abs(c) * math.prod(sum(weights[e]) for e in key) for key, c in classes)

    def residue(q: int | None) -> np.ndarray:
        dtype, m = (np.uint64, 1 << 64) if q is None else (np.int64, q)
        w = {e: np.array([v % m for v in ws], dtype=dtype) for e, ws in weights.items()}
        total = 0
        for e3 in {key[2] for key, _ in classes}:
            cum = np.zeros(k + 2, dtype=dtype)
            np.cumsum(w[e3], out=cum[:-1])
            z = (cum if q is None else cum % q)[index]
            for (e1, e2, _), c in (cls for cls in classes if cls[0][2] == e3):
                total += c * int(_bilinear(w[e1], z, w[e2], q))
            del z  # one (k + 1)^2 table at a time
        return np.array([total % m], dtype=dtype).view(np.int64)

    return p.denom, int(_recover(content, residue(None), bound, residue)[0])


def _bilinear(u: np.ndarray, z: np.ndarray, v: np.ndarray, q: int | None):
    """u^T z v mod 2^64 in uint64 (q None), else mod q, reduced after each product."""
    return (u @ z) @ v if q is None else (u @ z % q) @ v % q


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
    totals.flags.writeable = False
    return CoefficientSeries(
        nu=p.degree,
        poly_id=p.to_string(),
        denom=denom,
        totals=totals,
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


def _homogeneous_ball_index(p: Polynomial3, r_sq: int) -> np.ndarray:
    """`_ball_index` of r_sq >= 0 for a homogeneous p."""
    if r_sq < 0:
        raise ValueError("r_sq must be non-negative")
    if not p.is_homogeneous:
        raise ValueError("ball sum requires a homogeneous polynomial")
    return _ball_index(r_sq)


def ball_sum(p: Polynomial3, r_sq: int) -> Fraction:
    """Exact sum of p over all lattice points with |x|^2 <= r_sq."""
    denom, total = _ball_total(p, _homogeneous_ball_index(p, r_sq))
    return Fraction(total, denom)


def ball_sum_report(p: Polynomial3, r_sq: int) -> SumReport:
    """Exact ball sum with the number of lattice points included, both read
    through one ball index table."""
    index = _homogeneous_ball_index(p, r_sq)
    denom, total = _ball_total(p, index)
    return SumReport(value=Fraction(total, denom), term_count=_ball_points(index))


def short_sum_report(p: Polynomial3, r: float, h: float) -> SumReport:
    """Weighted boundary-shell sum with the number of points in the window."""
    value = short_sum(p, r, h)
    lo, hi = _window_bounds(r, h)
    # lo = ceil(R^2) >= 1 and hi >= floor(R^2) >= lo - 1: an empty window counts 0
    return SumReport(value, _ball_points(_ball_index(hi)) - _ball_points(_ball_index(lo - 1)))


def long_sum_report(p: Polynomial3, r: float, h: float) -> SumReport:
    """Smoothed lattice sum with the number of points carrying weight."""
    value = long_sum_physical(p, r, h)
    _, hi = _window_bounds(r, h)
    # the origin always carries weight
    return SumReport(value=value, term_count=_ball_points(_ball_index(hi)))


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
    for n, t in enumerate(totals[lo : hi + 1].tolist(), start=lo):
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
    inner = sum(totals[1 : inner_top + 1].tolist())  # Python ints: no wrap
    ramp = _ramp_sum(denom, totals, r, h, inner_top + 1, hi)
    return inner / denom + ramp + int(totals[0]) / denom


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
    mags = np.abs(shell_floats(series.denom, series.totals[1:]))
    n = np.arange(1, len(mags) + 1)
    bound = n ** float(exponent)
    if use_gcd:
        bound *= (n & -n) ** 0.625  # the two-adic part of each n
    ratios = mags / bound
    argmax = int(np.argmax(ratios)) + 1 if ratios.any() else 0  # the first n at the max
    max_ratio = float(ratios[argmax - 1]) if argmax else 0.0
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
