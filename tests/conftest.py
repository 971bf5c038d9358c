import random
from fractions import Fraction

import pytest

from latharm.poly import Polynomial3, parse_poly

QUARTIC_EXPR = "5*(x^4+y^4+z^4)-3*(x^2+y^2+z^2)^2"
# zonal degree-6 solid harmonic (Legendre direction z)
SEXTIC_EXPR = (
    "231*z^6-315*z^4*(x^2+y^2+z^2)+105*z^2*(x^2+y^2+z^2)^2-5*(x^2+y^2+z^2)^3"
)
OCTIC_EXPR = "x^8-28*x^6*y^2+70*x^4*y^4-28*x^2*y^6+y^8"


@pytest.fixture(scope="session")
def quartic() -> Polynomial3:
    return parse_poly(QUARTIC_EXPR)


@pytest.fixture(scope="session")
def sextic() -> Polynomial3:
    return parse_poly(SEXTIC_EXPR)


def variable(axis: int) -> Polynomial3:
    """x, y or z (axis 0, 1, 2)."""
    return Polynomial3({tuple(int(a == axis) for a in range(3)): 1}, 1)


def random_homogeneous(rng: random.Random, degree: int, n_terms: int = 4) -> Polynomial3:
    """Random homogeneous polynomial with small rational coefficients."""
    terms = {}
    for _ in range(n_terms):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        k = degree - i - j
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if coeff:
            terms[(i, j, k)] = terms.get((i, j, k), Fraction(0)) + coeff
    x, y, z = (variable(axis) for axis in range(3))
    p = Polynomial3.zero()
    for (i, j, k), c in terms.items():
        p = p + c * x**i * y**j * z**k
    return p if p else x**degree
