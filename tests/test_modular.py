import cmath
import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
import sympy

from latharm.modular import (
    SAMPLE_C_POOL,
    SAMPLE_GAMMA_POOL,
    SAMPLE_J_CONST,
    SAMPLE_SHRINK,
    SAMPLE_Y_RANGE,
    Y_MIN,
    GammaElement,
    TransformReport,
    automorphy_j,
    epsilon_d,
    gamma0_4_from_cd,
    gauss_sum_closed,
    gauss_sum_direct,
    jacobi_symbol,
    quadratic_sum_S,
    sample_checks,
    shimura_legendre,
    theta_context,
    theta_eval,
    theta_values,
    transformation_check,
)
from latharm import modular
from latharm.cli import SCHEMA, _report_lines
from latharm.lattice import representations
from latharm.poly import parse_poly

from conftest import OCTIC_EXPR, QUARTIC_EXPR, SEXTIC_EXPR


def apply(gamma, z):
    """Reference action of gamma on z, the Mobius map (az + b) / (cz + d)."""
    return (gamma.a * z + gamma.b) / (gamma.c * z + gamma.d)


def report_dict(rep):
    """Reference serialisation of a TransformReport: the record that
    `theta-check --json` prints as json.dumps({"schema": SCHEMA, **record})."""
    return {
        "gamma": list(rep.gamma),
        "z": [rep.z.real, rep.z.imag],
        "lhs": [rep.lhs.real, rep.lhs.imag],
        "rhs": [rep.rhs.real, rep.rhs.imag],
        "rel_err": rep.rel_err,
        "pass": rep.passed,
        "inconclusive": rep.inconclusive,
    }


def report_json_lines(reports):
    return "".join(json.dumps({"schema": SCHEMA, **report_dict(r)}) + "\n" for r in reports)


def report_text_lines(reports):
    """The text lines as first written, one f-string per report."""
    lines = []
    for rep in reports:
        status = "pass" if rep.passed else ("inconclusive" if rep.inconclusive else "FAIL")
        lines.append(f"gamma={rep.gamma} z={rep.z.real:+.4f}{rep.z.imag:+.4f}i "
                     f"rel_err={rep.rel_err:.3e} {status}\n")
    return "".join(lines)


def e_of(t):
    """exp(2 pi i t)."""
    return cmath.exp(2j * math.pi * t)


# -- symbols ---------------------------------------------------------------------


def test_epsilon_values():
    assert epsilon_d(1) == 1
    assert epsilon_d(3) == 1j
    assert epsilon_d(-3) == 1  # -3 = 1 mod 4
    with pytest.raises(ValueError):
        epsilon_d(2)


def test_jacobi_against_sympy():
    for n in range(1, 60, 2):
        for a in range(-30, 31):
            assert jacobi_symbol(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_shimura_symbol_basics():
    assert shimura_legendre(1, 3) == 1
    assert shimura_legendre(2, 3) == -1  # 2 is a non-residue mod 3
    for c in (-7, -1, 1, 4, 9):
        assert shimura_legendre(c, 1) == 1
    assert shimura_legendre(0, 1) == 1
    assert shimura_legendre(0, -1) == 1


def test_shimura_symbol_negative_d():
    assert shimura_legendre(3, -5) == jacobi_symbol(3, 5)
    assert shimura_legendre(-3, -5) == -jacobi_symbol(-3, 5)


def test_shimura_symbol_rejects_noncoprime():
    with pytest.raises(ValueError):
        shimura_legendre(6, 9)
    with pytest.raises(ValueError):
        shimura_legendre(0, 5)


# -- group elements ----------------------------------------------------------------


def test_gamma_validation():
    with pytest.raises(ValueError):
        GammaElement(1, 0, 2, 1)  # 4 does not divide c
    with pytest.raises(ValueError):
        GammaElement(1, 1, 4, 1)  # determinant != 1


def test_complete_bottom_row():
    assert gamma0_4_from_cd(4, 1).entries() == (1, 0, 4, 1)
    assert gamma0_4_from_cd(0, 1).entries() == (1, 0, 0, 1)
    g = gamma0_4_from_cd(4, 3)
    assert g.entries() == (3, 2, 4, 3)
    for c in (4, -4, 8, 12, -16):
        for d in (1, 3, -3, 5, 7, -9):
            if math.gcd(c, d) != 1:
                continue
            g = gamma0_4_from_cd(c, d)
            assert g.a * g.d - g.b * g.c == 1
            assert 0 <= g.a < abs(c)
    with pytest.raises(ValueError):
        gamma0_4_from_cd(4, 2)


def test_automorphy_identity_and_translation():
    z = complex(0.3, 0.8)
    assert automorphy_j(GammaElement(1, 0, 0, 1), z) == 1
    assert automorphy_j(GammaElement(1, 1, 0, 1), z) == 1


def test_automorphy_modulus():
    rng = random.Random(9)
    for _ in range(20):
        c = rng.choice([4, -4, 8, -8, 12])
        d = rng.choice([d for d in range(-15, 16, 2) if math.gcd(c, d) == 1])
        gamma = gamma0_4_from_cd(c, d)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.2, 2))
        j = automorphy_j(gamma, z)
        assert abs(j) ** 2 == pytest.approx(abs(c * z + d), rel=1e-12)


# -- theta evaluation ----------------------------------------------------------------


def test_theta_odd_degree_vanishes():
    ctx = theta_context(parse_poly("x^3-3*x*y^2"), n_max=256)
    assert theta_eval(ctx, complex(0.2, 0.8)) == 0


def test_theta_periodicity(quartic):
    ctx = theta_context(quartic, n_max=2048)
    z = complex(0.37, 0.6)
    assert abs(theta_eval(ctx, z + 1) - theta_eval(ctx, z)) < 1e-12


def test_theta_leading_terms(quartic):
    ctx = theta_context(quartic, n_max=2048)
    value = theta_eval(ctx, 1j, tol=1e-15)
    partial = 0.0
    for n, a_n in ((1, 12), (2, -24), (3, -96)):
        partial += a_n * math.exp(-2 * math.pi * n)
    # next shells are n = 4, 5, ... so the discrepancy is O(e^{-8 pi} n^3)
    assert abs(value.real - partial) < 1e-8
    assert abs(value.imag) < 1e-15


def test_theta_requires_headroom(quartic):
    ctx = theta_context(quartic, n_max=64)
    with pytest.raises(ValueError):
        theta_eval(ctx, complex(0, 0.06), tol=1e-12)  # tail bound 9.6e-3 at n = 64
    with pytest.raises(ValueError):
        theta_eval(ctx, complex(0, 0.001))  # below Y_MIN


def test_theta_context_rejects_nonharmonic():
    with pytest.raises(ValueError):
        theta_context(parse_poly("x^2"))


def test_theta_context_refuses_empty_series(quartic):
    with pytest.raises(ValueError, match="at least 1"):
        theta_context(quartic, n_max=0)


def _reference_terms(ctx, y, tol):
    """theta_eval's truncation as first written: the first of 16, 32, ... whose
    certified tail at Im z = y is below tol, else n_max."""
    m = 16
    while m < ctx.n_max and not ctx.tail_bound(y, m) < tol:
        m *= 2
    return min(m, ctx.n_max)


def _per_term_theta(ctx, z, tol=1e-12):
    """Reference: theta_eval as first written, the same truncation followed by
    a_n e(Re z)^n e^(-2 pi n Im z) term by term; also returns sum |a_n| |q|^n."""
    y = z.imag
    n_terms = _reference_terms(ctx, y, tol)
    q1 = e_of(z.real)
    total, scale = 0 + 0j, 0.0
    for n in range(n_terms, -1, -1):
        a_n = ctx.floats[n]
        if a_n:
            decay = math.exp(-2 * math.pi * n * y)
            total += a_n * (q1**n) * decay
            scale += abs(a_n) * decay
    return total, scale


THETA_Z_TABLE = [complex(0.3, Y_MIN + 1e-3), complex(-0.41, Y_MIN + 0.02), complex(0.25, 0.12),
                 complex(0.1, 0.5), complex(-0.45, 1.3), complex(0.0, 2.0)]


@pytest.mark.parametrize("expr", ["1", QUARTIC_EXPR, SEXTIC_EXPR],
                         ids=["one", "quartic", "sextic"])
def test_horner_theta_matches_per_term_sum(expr):
    ctx = theta_context(parse_poly(expr), n_max=2048)
    for z in THETA_Z_TABLE:
        expected, scale = _per_term_theta(ctx, z)
        assert abs(theta_eval(ctx, z) - expected) <= 1e-13 * scale, (expr, z)


def _horner_theta(ctx, z, tol=1e-12):
    """Reference: theta_eval as a scalar loop, the same certified truncation
    followed by Horner's rule in q = e(z) from the last term kept down to a_0;
    also returns sum |a_n| |q|^n over the terms kept."""
    n_terms = _reference_terms(ctx, z.imag, tol)
    assert ctx.tail_bound(z.imag, n_terms) < tol
    q = e_of(z)
    total, scale = 0j, 0.0
    for a_n in reversed(ctx.floats[: n_terms + 1].tolist()):
        total = total * q + a_n
        scale = scale * abs(q) + abs(a_n)
    return total, scale


@pytest.mark.parametrize("expr", ["1", QUARTIC_EXPR, SEXTIC_EXPR, OCTIC_EXPR],
                         ids=["one", "quartic", "sextic", "octic"])
def test_theta_values_match_scalar_horner(expr):
    # the z table of the per-term test, points on Im z = Y_MIN (far from the
    # real axis's origin too, as sampled z are), and one batch of all of them
    ctx = theta_context(parse_poly(expr), n_max=2048)
    points = THETA_Z_TABLE + [complex(x, Y_MIN) for x in (-6.3, -0.5, 0.0, 0.37, 1.5625)]
    batch = theta_values(ctx, np.array(points), 1e-12)
    for z, value in zip(points, batch):
        expected, scale = _horner_theta(ctx, z)
        assert abs(theta_eval(ctx, z) - expected) <= 1e-13 * scale, (expr, z)
        assert abs(value - expected) <= 1e-13 * scale, (expr, z)


@pytest.mark.parametrize("expr", [QUARTIC_EXPR, OCTIC_EXPR], ids=["quartic", "octic"])
def test_theta_values_hold_the_bound_at_2048_terms(expr):
    ctx = theta_context(parse_poly(expr), n_max=4096)
    tol = 1e-250
    assert ctx.term_counts(np.array([Y_MIN]), tol).tolist() == [2048]
    points = [complex(x, Y_MIN) for x in (-0.5, -0.1, 0.0, 0.23, 0.5, 3.75)]
    for z, value in zip(points, theta_values(ctx, np.array(points), tol)):
        expected, scale = _horner_theta(ctx, z, tol)
        assert abs(value - expected) <= 1e-13 * scale, (expr, z)


def test_theta_values_split_into_blocks(quartic, monkeypatch):
    # more points than THETA_BLOCK share a term count: each block is summed alone
    ctx = theta_context(quartic, n_max=256)
    rng = random.Random(3)
    points = [complex(rng.uniform(-2, 2), rng.uniform(Y_MIN, 0.07)) for _ in range(50)]
    monkeypatch.setattr(modular, "THETA_BLOCK", 7)
    for z, value in zip(points, theta_values(ctx, np.array(points), 1e-14)):
        expected, scale = _horner_theta(ctx, z, 1e-14)
        assert abs(value - expected) <= 1e-13 * scale, z


def test_term_counts_are_the_scalar_loop(quartic):
    # per point, the first of 16, 32, ... with a certified tail, else n_max
    ctx = theta_context(quartic, n_max=1000)
    y = np.array([Y_MIN, 0.051, 0.07, 0.1, 0.3, 1.0, 2.0, 5.0])
    for tol in (1e-6, 1e-14, 1e-40):
        counts = ctx.term_counts(y, tol).tolist()
        for yi, n in zip(y.tolist(), counts):
            assert n == _reference_terms(ctx, yi, tol), (yi, tol)
    assert ctx.term_counts(y[:1], 1e-300).tolist() == [ctx.n_max]
    with pytest.raises(ValueError, match="cannot certify"):
        theta_values(ctx, y[:1] * 1j, 1e-300)


def test_context_n_max_certifies_every_point(quartic):
    # 256 shells certify Im z = Y_MIN at the default tolerance; --n-max caps it
    assert modular.context_n_max(quartic, 16384, 1e-6) == 256
    assert modular.context_n_max(quartic, 100, 1e-6) == 100
    for tol in (1e-6, 1e-10, 1e-20):
        n = modular.context_n_max(quartic, 16384, tol)
        ctx = theta_context(quartic, n_max=n)
        eval_tol = min(1e-14, tol * 1e-4)
        assert ctx.term_counts(np.array([Y_MIN]), eval_tol).tolist() == [n]
        assert n == 16 or not ctx.tail_bound(Y_MIN, n // 2) < eval_tol
    with pytest.raises(ValueError, match="shell count"):
        modular.context_n_max(quartic, 2 * 10**6, 1e-6)


def test_theta_context_refuses_oversized_n_max(quartic):
    with pytest.raises(ValueError, match="shell count"):
        theta_context(quartic, n_max=2 * 10**6)


@pytest.mark.parametrize("c", [1, 2, F(-1, 3)])
def test_theta_constant_includes_origin(c):
    # theta of the constant c is c * (1 + sum r3(n) q^n): the n = 0 term is c
    ctx = theta_context(parse_poly(str(c)), n_max=256)
    z = complex(0.15, 0.5)
    expected = float(c) * sum(
        len(representations(n)) * cmath.exp(2j * math.pi * n * z) for n in range(60)
    )
    assert theta_eval(ctx, z) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert ctx.floats[0] == float(c)


def test_cusp_decay(quartic):
    # |theta(iy)| decays faster than e^{-pi y} for a cusp form
    ctx = theta_context(quartic, n_max=2048)
    values = [abs(theta_eval(ctx, complex(0, y))) * math.exp(math.pi * y) for y in (1, 2, 3, 4)]
    assert values == sorted(values, reverse=True)
    assert values[-1] < 1e-3 * values[0]


# -- transformation law -----------------------------------------------------------------


def test_transformation_translation(quartic):
    ctx = theta_context(quartic, n_max=2048)
    rep = transformation_check(ctx, GammaElement(1, 1, 0, 1), complex(0.1, 0.9))
    assert rep.passed and rep.rel_err < 1e-12


def test_transformation_headline(quartic):
    ctx = theta_context(quartic, n_max=4096)
    rep = transformation_check(
        ctx, gamma0_4_from_cd(4, 1), complex(0, 0.5), tol=1e-8
    )
    assert rep.passed
    assert rep.rel_err < 1e-8


def test_transformation_second_example(quartic):
    ctx = theta_context(quartic, n_max=4096)
    rep = transformation_check(
        ctx, GammaElement(3, 2, 4, 3), complex(-0.25, 0.5), tol=1e-6
    )
    assert rep.passed


def test_transformation_wrong_symbol_convention_fails(quartic, monkeypatch):
    # dropping the sign rule for negative d must break the law end-to-end
    import latharm.modular as modular_mod

    ctx = theta_context(quartic, n_max=4096)
    # negative c and d: the sign rule bites.  The pooled gamma of this bottom
    # row, (1, 1, -4, -3), reads its symbol from SAMPLE_J_CONST, built before
    # any patch; this one maps z to 1 + that gamma's image and lies outside
    # the pool, so the check calls shimura_legendre
    gamma = GammaElement(-3, -2, -4, -3)
    assert gamma not in SAMPLE_J_CONST
    z = complex(-0.75, 1.0)
    good = transformation_check(ctx, gamma, z, tol=1e-6)
    assert good.passed

    original = modular_mod.shimura_legendre
    monkeypatch.setattr(
        modular_mod,
        "shimura_legendre",
        lambda c, d: original(c, abs(d)),
    )
    bad = transformation_check(ctx, gamma, z, tol=1e-6)
    assert not bad.passed


def test_transformation_sampled_quartic(quartic):
    ctx = theta_context(quartic, n_max=4096)
    reports = list(sample_checks(ctx, 50, seed=1))
    assert len(reports) == 50
    assert all(r.passed for r in reports)
    assert max(r.rel_err for r in reports) < 1e-6


def test_transformation_sampled_sextic(sextic):
    assert sextic.is_harmonic and sextic.degree == 6
    ctx = theta_context(sextic, n_max=4096)
    reports = list(sample_checks(ctx, 50, seed=2))
    assert all(r.passed for r in reports)


def test_cocycle_consistency(quartic):
    # products of passing elements pass as well (multiplier system coherence)
    ctx = theta_context(quartic, n_max=4096)
    rng = random.Random(17)
    checked = 0
    while checked < 10:
        c1, c2 = rng.choice([4, -4, 8]), rng.choice([4, -4, 8])
        d1 = rng.choice([d for d in (-5, -3, -1, 1, 3, 5) if math.gcd(c1, d) == 1])
        d2 = rng.choice([d for d in (-5, -3, -1, 1, 3, 5) if math.gcd(c2, d) == 1])
        g1, g2 = gamma0_4_from_cd(c1, d1), gamma0_4_from_cd(c2, d2)
        product = g1 * g2
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.4, 1.5))
        try:
            r1 = transformation_check(ctx, g1, z)
            r2 = transformation_check(ctx, g2, z)
            rp = transformation_check(ctx, product, z)
        except ValueError:
            continue  # image dipped below y_min; resample
        if r1.passed and r2.passed:
            assert rp.passed
            checked += 1


def _reference_draws(count, seed):
    """Reference: the sampler's (gamma, z) stream as a plain loop.  c from
    the pool, d from the odd d in [-25, 25] prime to c (from 1, -1 at c = 0),
    then z from two uniforms u, v: at c = 0 Re z = u - 1/2 and Im z on
    SAMPLE_Y_RANGE; otherwise Im z on [Y_MIN, D] and Re z on the chord at
    that height of the disc tangent at -d/c with diameter
    D = (1 - SAMPLE_SHRINK) / (c^2 Y_MIN)."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        c = rng.choice(SAMPLE_C_POOL)
        d_candidates = [d for d in range(-25, 26, 2) if math.gcd(c, d) == 1] if c else [1, -1]
        d = rng.choice(d_candidates)
        gamma = gamma0_4_from_cd(c, d)
        u, v = rng.random(), rng.random()
        if c == 0:
            lo, hi = SAMPLE_Y_RANGE
            z = complex(u - 0.5, lo + (hi - lo) * v)
        else:
            diameter = (1 - SAMPLE_SHRINK) / (c * c * Y_MIN)
            y = Y_MIN + (diameter - Y_MIN) * v
            half_chord = math.sqrt(max(y * (diameter - y), 0.0))
            z = complex(-d / c + half_chord * (2 * u - 1), y)
        draws.append((gamma.entries(), z))
    return draws


@pytest.mark.parametrize("expr", [QUARTIC_EXPR, SEXTIC_EXPR, OCTIC_EXPR],
                         ids=["quartic", "sextic", "octic"])
def test_sampler_draws_match_reference(expr):
    ctx = theta_context(parse_poly(expr), n_max=4096)
    for seed in range(10):
        draws = [(r.gamma, r.z) for r in sample_checks(ctx, 300, seed=seed)]
        assert draws == _reference_draws(300, seed), (expr, seed)


def test_sampler_covers_the_pool(quartic):
    # no draw is rejected: 8 of 9 c in the pool are nonzero, and every |c|
    # appears; every z and gamma z is at or above Y_MIN, and every check passes
    ctx = theta_context(quartic, n_max=256)
    reports = [r for seed in range(5) for r in sample_checks(ctx, 300, seed=seed)]
    assert sum(r.gamma[2] != 0 for r in reports) >= 0.8 * len(reports)
    assert {abs(r.gamma[2]) for r in reports} == {abs(c) for c in SAMPLE_C_POOL}
    for r in reports:
        assert r.z.imag >= Y_MIN and apply(GammaElement(*r.gamma), r.z).imag >= Y_MIN
        assert r.passed, r


def test_region_draw_ends_stay_above_y_min(quartic):
    # u, v at 0 and 1 put z at the bottom, the top and both ends of a chord,
    # where the unshrunk disc has Im gamma z = Y_MIN exactly
    ctx = theta_context(quartic, n_max=256)
    ends = (0.0, 0.5, 1 - 2**-53, 1.0)
    gammas, zs = [], []
    for pool in SAMPLE_GAMMA_POOL.values():
        for gamma in pool:
            for u in ends:
                for v in ends:
                    z = modular._draw_z(gamma, u, v)
                    assert z.imag >= Y_MIN and apply(gamma, z).imag >= Y_MIN, (gamma, u, v)
                    gammas.append(gamma)
                    zs.append(z)
    assert all(r.passed for r in modular._check_batch(ctx, gammas, zs, 1e-6))


def test_transformation_check_matches_scalar_reference(quartic):
    # lhs and rhs against the scalar Horner sums and automorphy_j
    ctx = theta_context(quartic, n_max=4096)
    cases = [(GammaElement(1, 1, 0, 1), complex(0.1, 0.9)), (gamma0_4_from_cd(4, 1), 0.5j),
             (GammaElement(3, 2, 4, 3), complex(-0.25, 0.5)),
             (gamma0_4_from_cd(-4, -3), complex(-0.75, 1.0)),
             (gamma0_4_from_cd(16, -25), complex(1.5625, 0.07))]
    for gamma, z in cases:
        rep = transformation_check(ctx, gamma, z, tol=1e-8)
        lhs = _horner_theta(ctx, apply(gamma, z), 1e-14)[0]
        rhs = automorphy_j(gamma, z) ** 11 * _horner_theta(ctx, z, 1e-14)[0]
        assert abs(rep.lhs - lhs) <= 1e-13 * abs(lhs), (gamma, z)
        assert abs(rep.rhs - rhs) <= 1e-13 * abs(rhs), (gamma, z)
        assert rep.passed


def test_report_serialization(quartic):
    ctx = theta_context(quartic, n_max=2048)
    rep = transformation_check(ctx, gamma0_4_from_cd(4, 1), complex(0, 0.5))
    line = _report_lines([rep], as_json=True)
    assert line == report_json_lines([rep])
    payload = json.loads(line)
    assert payload["gamma"] == [1, 0, 4, 1]
    assert payload["pass"] is True
    assert list(payload) == ["schema", "gamma", "z", "lhs", "rhs", "rel_err", "pass",
                             "inconclusive"]
    assert _report_lines([], as_json=True) == _report_lines([], as_json=False) == ""


# floats where json.dumps and repr part ways (nan, inf) or repr changes form
# (exponent below 1e-4 and from 1e16, subnormals, signed zero)
CRAFTED_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5,
                  1e-4, 9999999999999998.0, 0.1, -1 / 3, 1.7976931348623157e308, 123.0]


def _crafted_reports():
    rng = random.Random(4)
    gammas = [(1, 0, 4, 1), (-1, 0, 0, -1), (-7, -12, -4, -7),
              (10**30 + 1, -(10**40), 4 * 10**25, -(3**80))]
    reports = []
    for i in range(120):
        picks = [rng.choice(CRAFTED_FLOATS) if rng.random() < 0.7 else rng.uniform(-1e3, 1e3)
                 for _ in range(7)]
        reports.append(TransformReport(
            rng.choice(gammas), complex(picks[0], picks[1]), complex(picks[2], picks[3]),
            complex(picks[4], picks[5]), picks[6], bool(i & 1), bool(i & 2)))
    return reports


def test_report_lines_equal_json_dumps_on_crafted_reports():
    reports = _crafted_reports()
    assert {(r.passed, r.inconclusive) for r in reports} == {
        (False, False), (False, True), (True, False), (True, True)}
    floats = {repr(x) for r in reports for x in (r.z.real, r.lhs.imag, r.rel_err)}
    assert {"nan", "inf", "-inf", "-0.0", "5e-324", "1e+16", "1e-05"} <= floats
    text = _report_lines(reports, as_json=True)
    assert text == report_json_lines(reports)
    for r, line in zip(reports, text.splitlines(keepends=True)):
        assert line == json.dumps({"schema": SCHEMA, **report_dict(r)}) + "\n", r
    assert _report_lines(reports, as_json=False) == report_text_lines(reports)


def _j_formula(g, z):
    """(c/d) epsilon_d^(-1) (cz + d)^(1/2), spelled out: the reference for
    `automorphy_j`, which reads a pooled gamma's constant from a table."""
    return shimura_legendre(g.c, g.d) / epsilon_d(g.d) * cmath.sqrt(g.c * z + g.d)


def test_pooled_constants_give_automorphy_j_bit_for_bit():
    # automorphy_j, its constant read from SAMPLE_J_CONST, is the formula to
    # the last bit, signed zeros included
    def bits(w):
        return w.real.hex(), w.imag.hex()

    zs = [complex(0.3, 0.8), complex(-1.25, 0.05), complex(2.0, 0.1), complex(-0.0, 1.5),
          complex(0.0625, 3.0), complex(-6.75, 0.6)]
    pooled = [g for pool in SAMPLE_GAMMA_POOL.values() for g in pool]
    assert len(SAMPLE_J_CONST) == len(pooled) and set(SAMPLE_J_CONST) == set(pooled)
    for g in pooled:
        for z in zs:
            assert bits(automorphy_j(g, z)) == bits(_j_formula(g, z)), (g, z)


def test_check_batch_reads_automorphy_j_in_and_out_of_the_pool(quartic, monkeypatch):
    # with theta stubbed to 1, rhs is j(gamma, z)^11 itself: it must equal
    # the formula's ** 11 bit for bit, from the pooled table or, for gammas
    # outside the pool (other b, |d| > 25, c = 20), computed per pair
    ctx = theta_context(quartic, n_max=256)
    outside = [GammaElement(1, 1, 0, 1), GammaElement(-3, -2, -4, -3), gamma0_4_from_cd(4, 27),
               gamma0_4_from_cd(-20, -3)]
    assert not any(g in SAMPLE_J_CONST for g in outside)
    rng = random.Random(11)
    gammas = [rng.choice(SAMPLE_GAMMA_POOL[rng.choice(SAMPLE_C_POOL)]) for _ in range(200)]
    gammas += outside * 5
    zs = [complex(rng.uniform(-2, 2), rng.uniform(0.05, 2)) for _ in gammas]
    monkeypatch.setattr(modular, "theta_values", lambda ctx, z, tol: np.ones(z.shape, complex))
    monkeypatch.setattr(modular, "Y_MIN", -1.0)  # every draw, wherever gamma z falls
    for rep, g, z in zip(modular._check_batch(ctx, gammas, zs, 1e-6), gammas, zs):
        want = _j_formula(g, z) ** 11
        assert (rep.rhs.real.hex(), rep.rhs.imag.hex()) == (want.real.hex(), want.imag.hex())


# -- Gauss sums ---------------------------------------------------------------------------


def test_gauss_direct_examples():
    assert gauss_sum_direct(1, 4) == pytest.approx(2 + 2j)
    assert gauss_sum_direct(3, 4) == pytest.approx(2 - 2j)
    assert gauss_sum_direct(1, 1) == pytest.approx(1)


def test_gauss_closed_matches_direct_everywhere():
    for c in range(-64, 65):
        if c == 0 or c % 4 != 0:
            continue
        for d in range(-65, 66):
            if d % 2 == 0 or math.gcd(c, d) != 1:
                continue
            direct = gauss_sum_direct(d, c)
            closed = gauss_sum_closed(d, c)
            assert abs(direct - closed) < 1e-10, (d, c)
            assert abs(closed) == pytest.approx(math.sqrt(2 * abs(c)), rel=1e-12)


def _four_branch_gauss_closed(d, c):
    """Reference: the closed form as first written, one branch per sign pair."""
    if c > 0 and d > 0:
        return (1 + 1j) / epsilon_d(d) * math.sqrt(c) * jacobi_symbol(c, d)
    if c > 0 and d < 0:
        return (1 - 1j) * epsilon_d(-d) * math.sqrt(c) * jacobi_symbol(c, -d)
    if c < 0 and d > 0:
        return (1 - 1j) * epsilon_d(d) * math.sqrt(-c) * jacobi_symbol(-c, d)
    return (1 + 1j) / epsilon_d(-d) * math.sqrt(-c) * jacobi_symbol(-c, -d)


def test_gauss_closed_equals_four_branch_form():
    for c in range(-64, 65, 4):
        for d in range(-65, 66, 2):
            if c == 0 or math.gcd(c, d) != 1:
                continue
            assert gauss_sum_closed(d, c) == _four_branch_gauss_closed(d, c), (d, c)


def test_gauss_closed_case_values():
    assert gauss_sum_closed(1, 4) == pytest.approx(2 + 2j)
    assert gauss_sum_closed(-1, 4) == pytest.approx(2 - 2j)


def test_gauss_closed_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gauss_sum_closed(1, 6)
    with pytest.raises(ValueError):
        gauss_sum_closed(2, 4)
    with pytest.raises(ValueError):
        gauss_sum_closed(3, 12)


def test_quadratic_sum_odd_offset_vanishes():
    for c in (4, 8, 12, 16):
        for d in range(1, c):
            if d % 2 == 0 or math.gcd(c, d) != 1:
                continue
            for xi in (1, 3, 5, 7):
                assert abs(quadratic_sum_S(xi, d, c)) < 1e-12


def test_quadratic_sum_zero_offset_is_gauss():
    for c in (4, 8, 16):
        assert quadratic_sum_S(0, 1, c) == pytest.approx(gauss_sum_direct(1, c))


def test_quadratic_sum_even_offset_completes_square():
    # S(2 xi, d, c) = e(-d xi^2 / c) * (full Gauss sum)
    for c in (4, 8, 12, 16):
        for d in (1, 3, 5):
            if math.gcd(c, d) != 1:
                continue
            for half_xi in (1, 2, 3):
                expected = cmath.exp(
                    -2j * math.pi * d * half_xi**2 / c
                ) * gauss_sum_direct(d, c)
                assert quadratic_sum_S(2 * half_xi, d, c) == pytest.approx(expected)


def test_gauss_direct_matches_closed_near_the_cap():
    # the sequential sum drifted past 1e-10 here (1.136e-10 for d = 1136815)
    for c in (999996, -999996, 999992):
        for d in (1136815, 5, 999983, -1):
            assert abs(gauss_sum_direct(d, c) - gauss_sum_closed(d, c)) < 1e-10, (d, c)


def test_phase_sums_reduce_huge_arguments_first():
    # d and xi far past 2^63: multiplied before reduction, int64 would wrap
    # or refuse them; at |c| = 65540, m^2 is above 2^32
    for c in (999996, -999996, 65540, -65540):
        for d in (10**30 + 1, -10**25 - 1):
            closed = gauss_sum_closed(d, c)
            assert abs(gauss_sum_direct(d, c) - closed) < 1e-10, (d, c)
            for t in (-10**25 - 1, -10**25 + 1):
                assert abs(quadratic_sum_S(t, d, c)) < 1e-10, (t, d, c)
                expected = e_of(float(F(-d * t * t, c) % 1)) * closed
                assert abs(quadratic_sum_S(2 * t, d, c) - expected) < 1e-10, (t, d, c)


def test_quadratic_sum_specific_value():
    # S(2, 1, 4) = e(-1/4) * 2(1+i) = 2 - 2i
    assert quadratic_sum_S(2, 1, 4) == pytest.approx(2 - 2j)


def _fraction_phase_sum(d, c, xi):
    """Reference: every phase reduced mod 1 as a Fraction, then rounded, and
    the terms summed in the same numpy pass as the library's."""
    t = np.array([float(F(d * (m * m + m * xi), c) % 1) for m in range(abs(c))])
    return complex(np.exp(2j * np.pi * t).sum())


def test_phase_sums_equal_fraction_reference():
    rng = random.Random(11)
    for _ in range(200):
        c = 4 * rng.randint(1, 300) * rng.choice((1, -1))
        d = rng.randrange(-10**6, 10**6) | 1
        if math.gcd(c, d) != 1:
            continue
        xi = rng.randint(-50, 50)
        assert gauss_sum_direct(d, c) == _fraction_phase_sum(d, c, 0)
        assert quadratic_sum_S(xi, d, c) == _fraction_phase_sum(d, c, xi)
    with pytest.raises(ValueError, match=r"\|c\|"):
        quadratic_sum_S(0, 1, -4 * 10**9)
