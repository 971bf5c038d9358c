import cmath
import math
import random
import statistics
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from latharm import oscsum
from latharm.lattice import (
    long_sum_physical, main_term, representations, shell_floats, shell_totals,
)
from latharm.oscsum import (
    FREQ_2R,
    FREQ_H,
    FREQ_MIX,
    FourierTerms,
    RadialTerm,
    _cumulative_exp_sum,
    bound_check_VNQR,
    exp_sum_lattice,
    freq_long_sum,
    gP_fourier_terms,
    kernel_base_terms,
    merge_terms,
)
from latharm.poly import Polynomial3, parse_poly

from conftest import OCTIC_EXPR, QUARTIC_EXPR, SEXTIC_EXPR, random_homogeneous, variable

mp.mp.dps = 40

R_SAMPLE, H_SAMPLE = 3.25, 0.5
XI_SAMPLES = [(1, 2, 2), (3, 0, 4), (1, 1, 1)]


# -- direct oscillatory sums ----------------------------------------------------


def test_exp_sum_integer_radius_unit_shell():
    # e(R) = 1 for integer R: 1 + 6 e(R) = 7
    value = exp_sum_lattice(parse_poly("1"), 1, (0, 0, 0), 5.0)
    assert value == pytest.approx(7 + 0j, abs=1e-12)


def test_exp_sum_half_offset():
    # points (+-1, 0, 0) pick up e(+-1/2) = -1
    value = exp_sum_lattice(parse_poly("1"), 1, (0.5, 0, 0), 7.0)
    assert value == pytest.approx(3 + 0j, abs=1e-12)


def test_exp_sum_odd_symmetry():
    value = exp_sum_lattice(parse_poly("x*y"), 25, (0, 0, 0), 3.7)
    assert abs(value) < 1e-10


def test_exp_sum_conjugate_symmetry():
    # conjugation flips both the offset and the radial phase
    q = parse_poly("x^2-z^2")
    h = (0.3, 0.1, 0.25)
    minus_h = tuple(-v for v in h)
    v_plus = exp_sum_lattice(q, 30, h, 2.6)
    v_conj = exp_sum_lattice(q, 30, minus_h, -2.6)
    assert v_conj == pytest.approx(v_plus.conjugate(), rel=1e-12, abs=1e-12)


def test_exp_sum_offset_parity():
    # xi -> -xi gives V(-h) = (-1)^deg V(h) for homogeneous Q
    h = (0.3, 0.1, 0.25)
    minus_h = tuple(-v for v in h)
    even = parse_poly("x^2-z^2")
    assert exp_sum_lattice(even, 30, minus_h, 2.6) == pytest.approx(
        exp_sum_lattice(even, 30, h, 2.6), rel=1e-12, abs=1e-12
    )
    odd = parse_poly("x^3")
    assert exp_sum_lattice(odd, 30, minus_h, 2.6) == pytest.approx(
        -exp_sum_lattice(odd, 30, h, 2.6), rel=1e-12, abs=1e-12
    )


def test_exp_sum_offset_periodicity():
    q = parse_poly("x^2")
    base = exp_sum_lattice(q, 20, (0.25, 0.5, 0.75), 1.9)
    shifted = exp_sum_lattice(q, 20, (1.25, -0.5, 3.75), 1.9)
    assert shifted == pytest.approx(base, rel=1e-10, abs=1e-10)


def test_exp_sum_large_offset_keeps_precision():
    # h enters mod 1 exactly; 1e12 + 0.25 and -3.5 are exact floats
    q = parse_poly("x^3*y+2*x*z-7")
    big = exp_sum_lattice(q, 400, (1e12 + 0.25, -3.5, 0.0), 2.5)
    assert big == exp_sum_lattice(q, 400, (0.25, -0.5, 0.0), 2.5)


def test_exp_sum_against_pointwise_oracle():
    # independent slow oracle: plain loop over representations
    q = parse_poly("x^2-y^2")
    r, h, n = 2.3, (0.125, 0.0, 0.5), 12
    expected = 0j
    for m in range(0, n + 1):
        for (x, y, z) in representations(m):
            phase = r * math.sqrt(m) + h[0] * x + h[1] * y + h[2] * z
            expected += float(q.evaluate(x, y, z)) * cmath.exp(2j * math.pi * phase)
    assert exp_sum_lattice(q, n, h, r) == pytest.approx(expected, rel=1e-11, abs=1e-11)


# -- symbolic transform terms ------------------------------------------------------


def test_constant_polynomial_gives_base_terms():
    expansion = gP_fourier_terms(parse_poly("1"))
    assert not expansion.imaginary
    assert expansion.terms == kernel_base_terms()
    kinds = [tuple(f.freq for f in t.trig) for t in expansion.terms]
    assert kinds == [(FREQ_2R,), (FREQ_H, FREQ_MIX)]


def test_linear_polynomial_term_structure():
    expansion = gP_fourier_terms(parse_poly("x"))
    assert expansion.imaginary
    single = sorted({t.denom_pow for t in expansion.terms if len(t.trig) == 1})
    assert single == [4, 5]  # one trig derivative, one radial-power derivative


@pytest.mark.parametrize(
    "expr", ["1", "x", "y^2", "x*y*z", "x^2-y^2", "x^3", "x^2+y^2+z^2"]
)
def test_minimum_denominator_power(expr):
    p = parse_poly(expr)
    expansion = gP_fourier_terms(p)
    assert min(t.denom_pow for t in expansion.terms) == p.degree + 3


def test_terms_stay_in_convergent_shape():
    for expr in ("x^2*z", "x^4", "x^2*y^2"):
        for t in gP_fourier_terms(parse_poly(expr)).terms:
            assert t.denom_pow >= t.poly.degree + 3


# -- per-monomial reference -------------------------------------------------------


def _partial_term(t, axis):
    """d/dxi_axis of one term, computed in three dimensions."""
    out = []
    xi_j = variable(axis)
    dpoly = t.poly.partial(axis)
    if dpoly:
        out.append(RadialTerm(t.pi_pow, t.r_pow, t.h_pow, t.mix_pow, dpoly,
                              t.denom_pow, t.trig))
    for idx, factor in enumerate(t.trig):
        # d/dxi_j sin(pi c |xi| + .) = pi c (xi_j/|xi|) sin(pi c |xi| + . + pi/2)
        new_trig = tuple(f.shifted() if i == idx else f for i, f in enumerate(t.trig))
        r0, h0, m0, coeff = t.r_pow, t.h_pow, t.mix_pow, 1
        if factor.freq == FREQ_2R:
            r0 += 1
            coeff = 2
        elif factor.freq == FREQ_H:
            h0 += 1
        else:
            m0 += 1
        out.append(RadialTerm(t.pi_pow + 1, r0, h0, m0, t.poly * xi_j * coeff,
                              t.denom_pow + 1, new_trig))
    out.append(RadialTerm(t.pi_pow, t.r_pow, t.h_pow, t.mix_pow,
                          t.poly * xi_j * (-t.denom_pow), t.denom_pow + 2, t.trig))
    return out


def _per_monomial_fourier_terms(p):
    """Reference for gP_fourier_terms: differentiate the base terms once per
    monomial of P and per axis, rescale by (i/(2 pi))^nu, then bring every
    numerator to degree nu with powers of |xi|^2."""
    nu = p.degree
    collected = []
    for (i, j, k), coeff in p.sorted_terms():
        terms = list(kernel_base_terms())
        for axis, reps in ((0, i), (1, j), (2, k)):
            for _ in range(reps):
                terms = list(merge_terms(d for t in terms for d in _partial_term(t, axis)))
        collected.extend(
            RadialTerm(t.pi_pow, t.r_pow, t.h_pow, t.mix_pow, t.poly * coeff.re,
                       t.denom_pow, t.trig)
            for t in terms
        )
    sign = 1 if nu % 4 in (0, 1) else -1
    r2 = Polynomial3.norm_squared()
    homogenized = []
    for t in collected:
        deficit = nu - t.poly.degree
        homogenized.append(RadialTerm(
            t.pi_pow - nu, t.r_pow, t.h_pow, t.mix_pow,
            t.poly * Fraction(sign, 2**nu) * r2 ** (deficit // 2),
            t.denom_pow + deficit, t.trig))
    return FourierTerms(nu=nu, terms=merge_terms(homogenized), imaginary=nu % 2 == 1)


TERM_ALGEBRA_POLYS = [
    "1", "2", "x", "y^2", "x*y", "x^2-y^2", "x*y*z", "x^3", "x^2*z", "x^2+y^2+z^2",
    "x^2*y^2", "x^4-3*y^2*z^2", QUARTIC_EXPR, SEXTIC_EXPR,
    "x^8-28*x^6*y^2+70*x^4*y^4-28*x^2*y^6+y^8", "x^2*y^2-1/3*z^4+2*x^4",
    "x^2*y-3*z^3",
]


@pytest.mark.parametrize("expr", TERM_ALGEBRA_POLYS)
def test_radial_term_algebra_matches_per_monomial_route(expr):
    p = parse_poly(expr)
    assert gP_fourier_terms(p) == _per_monomial_fourier_terms(p)


@pytest.mark.parametrize("degree", range(1, 9))
def test_radial_term_algebra_matches_per_monomial_route_random(degree):
    rng = random.Random(degree)
    for _ in range(4):
        p = random_homogeneous(rng, degree)
        assert gP_fourier_terms(p) == _per_monomial_fourier_terms(p)


# -- finite-difference oracle -------------------------------------------------------


def _ghat_mp(v, r, h):
    rad = mp.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    return mp.sin(2 * mp.pi * r * rad) / (2 * mp.pi**2 * rad**3) - (r / h) * mp.sin(
        mp.pi * h * rad
    ) * mp.cos(mp.pi * (2 * r + h) * rad) / (mp.pi**2 * rad**3)


def _fd_partial(fn, v, axis, step=mp.mpf("1e-4")):
    def central(s):
        vp, vm = list(v), list(v)
        vp[axis] += s
        vm[axis] -= s
        return (fn(tuple(vp)) - fn(tuple(vm))) / (2 * s)

    return (4 * central(step / 2) - central(step)) / 3  # Richardson once


def _hobson_value(p, xi, r, h):
    """The transform at a nonzero integer frequency from Hobson's split:
    pi^-nu times the sum over parts of c_k Lap^k P(xi) D^(nu-k) F(|xi|),
    times i for odd nu."""
    nu, parts = oscsum._hobson_split(p)
    norm = math.sqrt(sum(c * c for c in xi))
    total = math.pi**-nu * sum(
        float(lap.evaluate(*xi))
        * sum(c * oscsum._radial_factor(t, norm, r, h) for t, c in oscsum._radial_chain(nu - k))
        for k, lap in parts
    )
    return total * 1j if nu % 2 else complex(total)


def _fd_operator(p, v, r, h):
    """Apply P(-d/(2 pi i)) to the scalar closed form by finite differences."""
    total = mp.mpc(0)
    rm, hm = mp.mpf(r), mp.mpf(h)
    for (i, j, k), coeff in p.sorted_terms():
        fn = lambda u: _ghat_mp(u, rm, hm)
        for axis, reps in ((0, i), (1, j), (2, k)):
            for _ in range(reps):
                fn = (lambda f, ax: (lambda u: _fd_partial(f, u, ax)))(fn, axis)
        scale = mp.mpf(coeff.re.numerator) / coeff.re.denominator
        total += scale * (mp.mpc(0, 1) / (2 * mp.pi)) ** (i + j + k) * fn(v)
    return complex(total.real, total.imag)


@pytest.mark.parametrize(
    "expr", ["1", "x", "x*y", "x^2-y^2", "x*y*z", "x^3", "x^2*z", "x^2*y^2",
             "x^4-3*y^2*z^2"]
)
def test_symbolic_terms_match_finite_differences(expr):
    p = parse_poly(expr)
    for xi in XI_SAMPLES:
        symbolic = _hobson_value(p, xi, R_SAMPLE, H_SAMPLE)
        oracle = _fd_operator(p, tuple(mp.mpf(c) for c in xi), R_SAMPLE, H_SAMPLE)
        if abs(oracle) < 1e-20:
            assert abs(symbolic) < 1e-12
        else:
            assert abs(symbolic - oracle) / abs(oracle) < 1e-6


# -- frequency-side long sum ----------------------------------------------------------


def test_freq_sum_odd_symmetry_kills_both_sides():
    p = parse_poly("x*y")
    assert freq_long_sum(p, 6.0, 0.5, 256) == pytest.approx(0.0, abs=1e-9)
    assert long_sum_physical(p, 6.0, 0.5) == 0.0


def test_freq_sum_tracks_physical_constant():
    p = parse_poly("1")
    phys = long_sum_physical(p, 10.0, 0.5)
    approx = freq_long_sum(p, 10.0, 0.5, 1024)
    assert abs(approx - phys) < 1.0  # coarse truncation, trend tested elsewhere


def test_freq_sum_truncation_trend(quartic):
    for p in (parse_poly("1"), quartic):
        phys = long_sum_physical(p, 10.0, 0.5)
        errors = [abs(freq_long_sum(p, 10.0, 0.5, 2**e) - phys) for e in (6, 8, 10, 12)]
        ratios = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
        assert statistics.median(ratios) < 1


# -- bound sweep ------------------------------------------------------------------------


def test_bound_check_trivial_count_normalization():
    # |V| never exceeds the shell count, so ratios against the trivial
    # bound N^(nu/2 + 3/2) stay below an absolute constant
    one = parse_poly("1")
    report = bound_check_VNQR(one, [2**k for k in range(4, 11)], 1000.0)
    for row in report.rows:
        trivial = row.n**1.5
        assert row.abs_v <= 6 * trivial


def test_bound_check_constant_polynomial():
    one = parse_poly("1")
    n_list = [2**k for k in range(4, 15)]
    report = bound_check_VNQR(one, n_list, 1000.0)
    assert report.max_ratio < 4.0  # observed ~1.33; bounded with margin
    mid = report.slopes["mid"]
    assert mid is not None and mid.slope <= 1.5


def test_bound_check_quartic(quartic):
    n_list = [2**k for k in range(4, 13)]
    report = bound_check_VNQR(quartic, n_list, 1000.0)
    assert report.max_ratio < 2.0  # observed ~0.37
    mid = report.slopes["mid"]
    assert mid is not None and mid.slope <= 2.0 + 1.5  # nu/2 + trivial exponent


def test_bound_check_csv_shape():
    one = parse_poly("1")
    report = bound_check_VNQR(one, [16, 64], 50.0)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "N,abs_V,bound,ratio"
    assert len(lines) == 3


def test_bound_check_validates_input(quartic):
    with pytest.raises(ValueError):
        bound_check_VNQR(quartic, [64, 16], 10.0)


# -- shell route against the routes it replaced ---------------------------------------


def _grid_freq_long_sum(p, r, h, n_trunc):
    """Reference: every term evaluated at every frequency of a dense 3-D grid."""
    expansion = gP_fourier_terms(p)
    k = math.isqrt(n_trunc)
    rng = np.arange(-k, k + 1)
    x, y, z = np.meshgrid(rng, rng, rng, indexing="ij")
    nsq = x * x + y * y + z * z
    mask = (nsq > 0) & (nsq <= n_trunc)
    xf, yf, zf = (a[mask].astype(np.float64) for a in (x, y, z))
    nsq = nsq[mask]
    norm = np.sqrt(nsq.astype(np.float64))
    contrib = np.zeros_like(norm)
    for t in expansion.terms:
        val = t.prefactor(r, h) * t.poly.evaluate_arrays(xf, yf, zf) / norm**t.denom_pow
        for f in t.trig:
            val = val * f.value(norm, r, h)
        contrib += val
    tail = 0.0
    if not expansion.imaginary:
        tail = math.fsum(np.bincount(nsq, weights=contrib, minlength=n_trunc + 1)[1:])
    return float(main_term(p, r, h)) * math.pi + tail


@pytest.mark.parametrize(
    "expr, n_trunc",
    [("1", 512), (QUARTIC_EXPR, 512), (SEXTIC_EXPR, 256),
     ("x^2*y^2-1/3*z^4+2*x^4", 512), ("x^2*y-3*z^3", 512)],
    ids=["constant", "quartic", "sextic", "non-harmonic", "odd"],
)
def test_freq_sum_shell_route_matches_grid(expr, n_trunc):
    p = parse_poly(expr)
    expected = _grid_freq_long_sum(p, 7.3, 0.375, n_trunc)
    assert freq_long_sum(p, 7.3, 0.375, n_trunc) == pytest.approx(expected, rel=1e-12)


def test_freq_sum_scales_to_large_truncation(quartic):
    phys = long_sum_physical(quartic, 10.0, 0.5)
    coarse = freq_long_sum(quartic, 10.0, 0.5, 4096)
    start = time.perf_counter()
    fine = freq_long_sum(quartic, 10.0, 0.5, 65536)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0  # the 3-D grid would need ~1 GB per array here
    assert abs(fine - phys) < abs(coarse - phys)


def _per_term_freq_long_sum(p, r, h, n_trunc):
    """Reference: one shell series per expanded Fourier term, each times its
    radial factor at sqrt n."""
    expansion = gP_fourier_terms(p)
    norm = np.sqrt(np.arange(1, n_trunc + 1, dtype=np.float64))
    contrib = np.zeros(n_trunc)
    for t in expansion.terms:
        denom, totals = shell_totals(t.poly, n_trunc)
        val = t.prefactor(r, h) * shell_floats(denom, totals[1:]) / norm**t.denom_pow
        for f in t.trig:
            val = val * f.value(norm, r, h)
        contrib += val
    tail = 0.0 if expansion.imaginary else math.fsum(contrib)
    return float(main_term(p, Fraction(r), Fraction(h))) * math.pi + tail


LAPLACIAN_POLYS = [
    "1", QUARTIC_EXPR, SEXTIC_EXPR, OCTIC_EXPR, "x^4", "x^2*y^2-1/3*z^4+2*x^4",
    "1/3*x^2-1/7*y^2", "x^3*y",
]


@pytest.mark.parametrize("expr", LAPLACIAN_POLYS)
def test_freq_sum_matches_per_term_route(expr):
    p = parse_poly(expr)
    for r, h, n_trunc in [(7.3, 0.375, 512), (10.0, 0.5, 2048), (2.5, 1.0, 97)]:
        expected = _per_term_freq_long_sum(p, r, h, n_trunc)
        assert freq_long_sum(p, r, h, n_trunc) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("expr", LAPLACIAN_POLYS)
def test_freq_sum_takes_each_trig_factor_once(expr, monkeypatch):
    # the same float as with every radial factor built afresh, term by
    # term, while each distinct trig factor's array is computed once
    p = parse_poly(expr)
    r, h, n_trunc = 7.3, 0.375, 512
    nu, parts = oscsum._hobson_split(p)
    norm = np.sqrt(np.arange(1, n_trunc + 1, dtype=np.float64))
    contrib = np.zeros(n_trunc)
    for k, lap in parts:
        denom, totals = shell_totals(lap, n_trunc)
        factor = sum(c * oscsum._radial_factor(t, norm, r, h)
                     for t, c in oscsum._radial_chain(nu - k))
        contrib += shell_floats(denom, totals[1:]) * factor
    expected = (float(main_term(p, Fraction(r), Fraction(h))) * math.pi
                + math.pi**-nu * math.fsum(contrib))
    calls = []
    value = oscsum.TrigFactor.value
    monkeypatch.setattr(oscsum.TrigFactor, "value",
                        lambda f, *args: calls.append(f) or value(f, *args))
    assert freq_long_sum(p, r, h, n_trunc) == expected
    distinct = {f for k, _ in parts for t, _ in oscsum._radial_chain(nu - k) for f in t.trig}
    assert len(calls) == len(set(calls)) == len(distinct)


@pytest.mark.parametrize("expr", [*LAPLACIAN_POLYS, "x", "x^2*y-3*z^3"])
def test_freq_sum_reads_one_series_per_laplacian_power(expr, monkeypatch):
    calls = []

    def counting(q, n_max):
        calls.append(q)
        return shell_totals(q, n_max)

    monkeypatch.setattr(oscsum, "shell_totals", counting)
    p = parse_poly(expr)
    freq_long_sum(p, 7.3, 0.375, 64)
    assert len(calls) <= p.degree // 2 + 1
    if p.is_harmonic:
        assert len(calls) == 1


@pytest.mark.parametrize("r, h, n_trunc", [(2.0**30, 0.5, 16), (2.0**28, 1.0, 256),
                                           (1e75, 0.5, 16)])
def test_freq_sum_refuses_imprecise_phase_before_any_series(r, h, n_trunc, monkeypatch):
    # the cap reads (R+H) sqrt(n_trunc): 2^30 + 0.5 times 4 and (2^28 + 1)
    # times 16 are just past 2^32
    monkeypatch.setattr(oscsum, "shell_totals", None)
    with pytest.raises(ValueError, match="2\\^32"):
        freq_long_sum(parse_poly(QUARTIC_EXPR), r, h, n_trunc)


def _pointwise_partial_sums(q, n_top, r, h=(0.0, 0.0, 0.0)):
    """V_N for 0 <= N <= n_top by a plain loop over representations, plus
    the sum of |summands| that scales the rounding error."""
    sums, scale = [], []
    value, weight = 0j, 0.0
    for m in range(n_top + 1):
        for (x, y, z) in representations(m):
            term = q.evaluate_arrays(x, y, z) * cmath.exp(
                2j * math.pi * (r * math.sqrt(m) + h[0] * x + h[1] * y + h[2] * z)
            )
            value += term
            weight += abs(term)
        sums.append(value)
        scale.append(weight)
    return sums, scale


EXP_SUM_POLYS = {
    "homogeneous": "x^2*y^2-2*z^4",
    "non-homogeneous": "x^2+1",
    "odd": "x^3-x*y*z",
    "constant": "1",
    "zero": "0",  # no monomials: every V_N must be exactly 0
}


@pytest.mark.parametrize("expr", EXP_SUM_POLYS.values(), ids=EXP_SUM_POLYS)
def test_radial_exp_sums_match_pointwise_oracle(expr):
    q = parse_poly(expr)
    r, n_list = 3.7, [1, 2, 5, 37, 150, 300]
    oracle, scale = _pointwise_partial_sums(q, n_list[-1], r)
    report = bound_check_VNQR(q, n_list, r)
    for n, row in zip(n_list, report.rows):
        tol = 1e-12 * scale[n]
        assert abs(exp_sum_lattice(q, n, (0, 0, 0), r) - oracle[n]) <= tol
        assert abs(row.abs_v - abs(oracle[n])) <= tol


OFFSETS = {
    "zero-component": (0.3, 0.0, -0.7),
    "half-integer": (0.5, 0.125, 0.25),
    "generic": (0.137, -0.291, 0.853),
}


@pytest.mark.parametrize("h", OFFSETS.values(), ids=OFFSETS)
@pytest.mark.parametrize(
    "expr",
    [*EXP_SUM_POLYS.values(), "x^3*y+2*x*z-7"],
    ids=[*EXP_SUM_POLYS, "mixed-parity"],
)
def test_offset_exp_sums_match_pointwise_oracle(expr, h):
    # the complex square convolution against every lattice point, one by one
    q = parse_poly(expr)
    r, n_list = 3.7, [1, 2, 5, 37, 150, 300]
    oracle, scale = _pointwise_partial_sums(q, n_list[-1], r, h)
    report = bound_check_VNQR(q, n_list, r, h)
    for n, row in zip(n_list, report.rows):
        value = exp_sum_lattice(q, n, h, r)
        assert abs(value - oracle[n]) <= 1e-12 * scale[n]
        assert abs(value) == row.abs_v


def test_offset_exp_sum_scales_to_large_n(quartic):
    start = time.perf_counter()
    value = exp_sum_lattice(quartic, 65536, (0.3, -0.125, 0.25), 10.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0  # a point-by-point sweep of the ball took about 30 s
    assert cmath.isfinite(value)


def _ball_partial_sums(q, n_top, r, h):
    """V_N for 0 <= N <= n_top and the running sum of |Q(xi)|, from every
    lattice point of the ball: x-slab by x-slab, vectorised, binned by norm."""
    k = math.isqrt(n_top)
    axis = np.arange(-k, k + 1)
    y, z = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    re, im, mag = (np.zeros(n_top + 1) for _ in range(3))
    for x in axis:
        nsq = x * x + y * y + z * z
        inside = nsq <= n_top
        ys, zs, nsq = y[inside], z[inside], nsq[inside]
        vals = q.evaluate_arrays(np.full(ys.size, float(x)), ys * 1.0, zs * 1.0)
        phase = r * np.sqrt(nsq) + h[0] * x + h[1] * ys + h[2] * zs
        terms = vals * np.exp(2j * np.pi * phase)
        re += np.bincount(nsq, terms.real, n_top + 1)
        im += np.bincount(nsq, terms.imag, n_top + 1)
        mag += np.bincount(nsq, np.abs(vals), n_top + 1)
    return np.cumsum(re + 1j * im), np.cumsum(mag)


# the benchmark's four polynomials and one of mixed parity with a constant
BALL_POLYS = {
    "one": "1",
    "quartic": QUARTIC_EXPR,
    "sextic": SEXTIC_EXPR,
    "octic": OCTIC_EXPR,
    "mixed-parity": "x^3*y+2*x*z-7",
}


@pytest.mark.parametrize("h", [OFFSETS["zero-component"], OFFSETS["generic"]],
                         ids=["zero-component", "generic"])
@pytest.mark.parametrize("expr", BALL_POLYS.values(), ids=BALL_POLYS)
def test_offset_exp_sums_match_ball_enumeration(expr, h):
    # every V_N up to 4096, where the z axis takes 65 shifted adds
    q = parse_poly(expr)
    r, n_top = 3.7, 4096
    expected, scale = _ball_partial_sums(q, n_top, r, h)
    got = _cumulative_exp_sum(q, n_top, r, h)
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)


@pytest.mark.parametrize("h", [(0.0, 0.0, 0.0), (0.25, 0.0, 0.0)], ids=["h=0", "h!=0"])
@pytest.mark.parametrize("r", [2.0**40, -(2.0**40), math.nan], ids=["big", "negative", "nan"])
def test_exp_sum_refuses_imprecise_phase(r, h):
    with pytest.raises(ValueError, match="2\\^32"):
        exp_sum_lattice(parse_poly("1"), 4, h, r)
    with pytest.raises(ValueError, match="2\\^32"):
        bound_check_VNQR(parse_poly("1"), [1, 4], r, h)


def test_bound_uses_abs_r():
    q = parse_poly("x^2*y-z^3")
    h = (0.25, -0.375, 0.125)
    plus = bound_check_VNQR(q, [4, 40, 400], 7.5, h)
    minus = bound_check_VNQR(q, [4, 40, 400], -7.5, tuple(-v for v in h))
    assert [row.bound for row in minus.rows] == [row.bound for row in plus.rows]
    for a, b in zip(plus.rows, minus.rows):
        assert b.abs_v == pytest.approx(a.abs_v, rel=1e-12)


@pytest.mark.parametrize("expr", ["x^2-z^2", "x^2+1", "x*y^2"])
def test_exp_sum_is_last_value_of_sweep(expr):
    q = parse_poly(expr)
    h, r, n_list = (0.3, -0.125, 0.25), 2.6, [3, 40, 100, 257]
    report = bound_check_VNQR(q, n_list, r, h)
    for n, row in zip(n_list, report.rows):
        assert abs(exp_sum_lattice(q, n, h, r)) == row.abs_v
