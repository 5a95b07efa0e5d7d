"""mpmath oracles for certified bounds: each value summed at 40 digits over the whole cube a
few shells past the radius it is checked at, with no ellipsoid cut, in exact rationals
wherever a class or a coefficient is decided."""

import itertools
from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from thetadecomp import decompose
from thetadecomp.algebra import BasisSymbol
from thetadecomp.evaluation import TAIL_TARGET, _least_radius
from thetadecomp.numerics import PeriodMatrix, enumerate_characteristics, multi_indices_of_size, validate_level

ORACLE = settings(max_examples=80, deadline=None, derandomize=True, database=None)
LEVELS = [validate_level(rows) for rows in ([[2]], [[4]], [[2, 1], [1, 2]], [[4, 2], [2, 4]])]
LEVEL_PAIRS = [(m1, m2) for m1 in LEVELS for m2 in LEVELS if m1.h == m2.h]
EXTRA_SHELLS = 4


def matmul(x, y):
    return [[sum(x[i][l] * y[l][j] for l in range(len(y))) for j in range(len(y[0]))] for i in range(len(x))]


def inverse(m):
    """The exact inverse of a 1 x 1 or 2 x 2 integer matrix."""
    if len(m) == 1:
        return [[Fraction(1, m[0][0])]]
    (p, q), (r, t) = m
    det = p * t - q * r
    return [[Fraction(t, det), Fraction(-q, det)], [Fraction(-r, det), Fraction(p, det)]]


def mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def addition_coefficients(s1, s2, omega, radius):
    """J' -> the coefficients of the product s1 * s2 over the characteristics of S = M1 + M2:
    sum_q c_q (2 pi i)^|q| sum_{D in C} E^q e(D), c_q from ``decompose._expansion``, over
    D = A - B + n for the whole cube |n_ka| <= radius.  D, its class C = A - S^-1 M2 D (mod 1)
    and E = K D, K = M1 S^-1 M2, are exact; e(D) = exp(pi i sigma(K D Omega D^t)) is taken at
    the working precision."""
    m1, m2, a, b = s1.level.entries, s2.level.entries, s1.char.a, s2.char.a
    level = decompose.level_sum(s1.level, s2.level)
    h, g = len(m1), omega.g
    t2 = matmul(inverse(level.entries), m2)
    k = matmul(m1, t2)
    om = [[mpmath.mpc(complex(x)) for x in row] for row in omega.omega]
    index = {char.a: char.index for char in enumerate_characteristics(level, g)}
    rows = decompose._expansion(s1.level, s2.level, s1.j, s2.j)
    sums = {q: [mpmath.mpc(0)] * len(index) for _, monomials in rows for q, _ in monomials}
    for n in itertools.product(range(-radius, radius + 1), repeat=h * g):
        d = [[a[i][c] - b[i][c] + n[i * g + c] for c in range(g)] for i in range(h)]
        cls = index[tuple(tuple((a[i][c] - sum(t2[i][l] * d[l][c] for l in range(h))) % 1 for c in range(g))
                          for i in range(h))]
        e = matmul(k, d)
        form = sum(mp(e[i][c]) * om[c][c2] * mp(d[i][c2]) for i in range(h) for c in range(g) for c2 in range(g))
        weight = mpmath.exp(1j * mpmath.pi * form)
        flat = [mp(y) for row in e for y in row]
        for q, acc in sums.items():
            acc[cls] += weight * mpmath.fprod(y ** p for y, p in zip(flat, q))
    return {jp: [mpmath.fsum(mp(c) * (2j * mpmath.pi) ** sum(q) * sums[q][i] for q, c in monomials)
                 for i in range(len(index))]
            for jp, monomials in rows}


@st.composite
def symbol_pairs(draw):
    """Two symbols at g = 1 with |J1| + |J2| <= 3, random characteristics, and an Omega with
    real part in [-0.5, 0.5] and imaginary part in [0.6, 1.5]."""
    m1, m2 = draw(st.sampled_from(LEVEL_PAIRS))
    size1 = draw(st.integers(0, 3))
    size2 = draw(st.integers(0, 3 - size1))
    s1, s2 = (BasisSymbol(m, draw(st.sampled_from(multi_indices_of_size(m.h, 1, size))),
                          draw(st.sampled_from(enumerate_characteristics(m, 1))))
              for m, size in ((m1, size1), (m2, size2)))
    return s1, s2, PeriodMatrix([[complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.6, 1.5)))]])


class TestAdditionFormulaOracle:
    @ORACLE
    @given(symbol_pairs())
    def test_coefficients_lie_within_their_bounds(self, case):
        # every J' and every characteristic of S, at the radius product_expand takes
        s1, s2, omega = case
        pair = decompose._level_pair(s1.level, s2.level)
        degree = s1.j.size + s2.j.size
        radius = max(_least_radius(pair, omega, d, 0.0, 0.0, TAIL_TARGET) for d in range(degree + 1))
        got = decompose._pair_terms(s1, s2, omega, radius)
        with mpmath.workdps(40):
            want = addition_coefficients(s1, s2, omega, radius + EXTRA_SHELLS)
            assert got.keys() == want.keys()
            for jp, (coef, bound) in got.items():
                assert len(coef) == len(want[jp]) == pair.det
                for x, y in zip(coef, want[jp]):
                    assert abs(mpmath.mpc(complex(x)) - y) <= bound
