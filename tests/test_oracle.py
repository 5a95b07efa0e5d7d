"""mpmath oracles for certified bounds: each value summed at 40 or 50 digits over the whole
cube a few shells past the radius it is checked at, with no ellipsoid cut, in exact rationals
wherever a class or a coefficient is decided."""

import itertools
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetadecomp import decompose
from thetadecomp.algebra import BasisSymbol
from thetadecomp.expr import Product, Scale, Sum, fold
from thetadecomp.evaluation import TAIL_TARGET, _least_radius, _point_config, _tail_point, aux_theta_series
from thetadecomp.numerics import (
    PeriodMatrix,
    enumerate_characteristics,
    multi_indices_of_size,
    multi_indices_up_to,
    validate_level,
)

ORACLE = settings(max_examples=80)
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
    """Two symbols with random characteristics, at g = 1 with |J1| + |J2| <= 3, or at g = 2 and
    level [[2]] with |J1| + |J2| <= 2, where the kernel's centring of A - B decides the window
    at hg = 2; and an Omega with real part in [-0.5, 0.5], Im Omega's diagonal in [0.6, 1.5]
    and off-diagonal within 0.2."""
    g = draw(st.sampled_from((1, 2)))
    m1, m2 = draw(st.sampled_from(LEVEL_PAIRS if g == 1 else [(LEVELS[0], LEVELS[0])]))
    top = 4 - g
    size1 = draw(st.integers(0, top))
    size2 = draw(st.integers(0, top - size1))
    s1, s2 = (BasisSymbol(m, draw(st.sampled_from(multi_indices_of_size(m.h, g, size))),
                          draw(st.sampled_from(enumerate_characteristics(m, g))))
              for m, size in ((m1, size1), (m2, size2)))
    diag = [complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.6, 1.5))) for _ in range(g)]
    if g == 1:
        return s1, s2, PeriodMatrix([diag])
    off = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.2, 0.2)))
    return s1, s2, PeriodMatrix([[diag[0], off], [off, diag[1]]])


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
                assert len(coef) == len(want[jp]) == pair.det ** omega.g
                for x, y in zip(coef, want[jp]):
                    assert abs(mpmath.mpc(complex(x)) - y) <= bound


TREE_ORACLE = settings(max_examples=50)


@st.composite
def expression_trees(draw):
    """A tree of depth at most 3 over two or three leaves of one level, [[2]] with |J| <= 2 or
    hex with |J| <= 1, at g = 1: each inner node a sum or (twice
    as likely) a product of contiguous groups of the leaves, or a scaling by a coefficient of
    modulus 0.5-2; and an Omega with real part in [-0.5, 0.5] and imaginary part in
    [0.8, 1.5]."""
    level = draw(st.sampled_from((LEVELS[0], LEVELS[2])))
    count = draw(st.integers(2, 3))
    top = 2 if level.h == 1 else 1
    chars, js = enumerate_characteristics(level, 1), multi_indices_up_to(level.h, 1, top)
    leaves = [BasisSymbol(level, draw(st.sampled_from(js)), draw(st.sampled_from(chars))) for _ in range(count)]

    def coeff():
        return complex(mpmath.rect(draw(st.floats(0.5, 2.0)), draw(st.floats(-math.pi, math.pi))))

    def build(parts, depth):
        if len(parts) == 1:
            return Scale(coeff(), parts[0]) if depth and draw(st.booleans()) else parts[0]
        if depth >= 2 and not draw(st.integers(0, 3)):
            return Scale(coeff(), build(parts, depth - 1))
        cuts = list(range(1, len(parts))) if depth == 1 else sorted(draw(
            st.sets(st.integers(1, len(parts) - 1), min_size=1)))
        groups = [parts[i:j] for i, j in zip([0, *cuts], [*cuts, len(parts)])]
        return draw(st.sampled_from((Product, Sum, Product)))(tuple(build(g, depth - 1) for g in groups))

    omega = PeriodMatrix([[complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.8, 1.5)))]])
    return build(leaves, 3), omega


def tree_oracle(expr, omega):
    """symbol -> the tree's coefficient, every product of two symbols by
    ``addition_coefficients`` EXTRA_SHELLS past the radius product_expand takes."""
    pairs = {}

    def times(x, y):
        out = {}
        for s1, c1 in x.items():
            for s2, c2 in y.items():
                if (s1, s2) not in pairs:
                    pair = decompose._level_pair(s1.level, s2.level)
                    radius = max(_least_radius(pair, omega, d, 0.0, 0.0, TAIL_TARGET)
                                 for d in range(s1.j.size + s2.j.size + 1))
                    pairs[s1, s2] = addition_coefficients(s1, s2, omega, radius + EXTRA_SHELLS)
                chars = enumerate_characteristics(decompose.level_sum(s1.level, s2.level), omega.g)
                for jp, coefs in pairs[s1, s2].items():
                    for char, coef in zip(chars, coefs):
                        sym = BasisSymbol(char.level, jp, char)
                        out[sym] = out.get(sym, 0) + c1 * c2 * coef
        return out

    def add(parts):
        out = {}
        for part in parts:
            for sym, c in part.items():
                out[sym] = out.get(sym, 0) + c
        return out

    def mul(parts):
        acc = parts[0]
        for nxt in parts[1:]:
            acc = times(acc, nxt)
        return acc

    return fold(expr, lambda d: {d: mpmath.mpc(1)}, add, mul,
                lambda c, part: {s: mpmath.mpc(c) * x for s, x in part.items()})


class TestPropagatedBoundOracle:
    @TREE_ORACLE
    @given(expression_trees())
    def test_coefficients_lie_within_their_propagated_bounds(self, case):
        # every symbol the exact tree reaches, those the expansion pruned or never met included
        expr, omega = case
        element, bounds = decompose._decompose_node(expr, omega, decompose.FitConfig())
        got = element.terms()
        with mpmath.workdps(30):
            want = tree_oracle(expr, omega)
            assert set(got) <= set(want)
            for sym, exact in want.items():
                assert abs(mpmath.mpc(got.get(sym, 0)) - exact) <= bounds.get(sym, 0.0), sym


KERNEL_ORACLE = settings(max_examples=60)
KERNEL_SHAPES = [(validate_level(rows), g) for rows, g in
                 (([[2]], 1), ([[2]], 2), ([[4]], 1), ([[4]], 2), ([[2, 1], [1, 2]], 1),
                  ([[4, 2], [2, 4]], 1))]
LOG_SCALE_CAP = 600.0  # past it a term nears the float range, an overflow case of its own


def window(level, char, omega, z, w, radius):
    """The kernel's window about the Gaussian peak X* = -Im W (Im Omega)^-1: the integer
    points n + xi, |n|_inf <= radius and xi = rint(X* - A), flattened (P x hg), and the
    bounds |n| + |A'| entrywise on the points x = n + A', A' = A + xi."""
    hg = level.h * omega.g
    n = np.array(list(itertools.product(range(-radius, radius + 1), repeat=hg)), dtype=np.int64)
    a = char.as_array().ravel()
    xi = np.rint(_tail_point(level, omega, 0, z, w)[0].ravel() - a).astype(np.int64)
    return n + xi, np.abs(n) + np.abs(a + xi)


def aux_series_oracle(level, j, char, omega, z, w, radius):
    """(2 pi i)^|J| sum_x prod_ka (M(Z+X))_ka^J_ka exp(pi i (x^t Q x + 2 vec(MW) . x)), Q = M kron
    Omega, over the points x = n + A' of the window |n|_inf <= radius, A' exact."""
    h, g = level.h, omega.g
    m = level.entries
    om = [[mpmath.mpc(complex(v)) for v in row] for row in omega.omega]
    zz, ww = ([[mpmath.mpc(complex(v)) for v in row] for row in x] for x in (z, w))
    powers = [p for row in j.j for p in row]
    total = mpmath.mpc(0)
    for n in window(level, char, omega, z, w, radius)[0].tolist():
        xx = [[mp(char.a[k][a] + n[k * g + a]) for a in range(g)] for k in range(h)]
        mx = [[mpmath.fsum(m[k][l] * xx[l][a] for l in range(h)) for a in range(g)] for k in range(h)]
        ka = list(itertools.product(range(h), range(g)))
        form = (mpmath.fsum(mx[k][a] * om[a][b] * xx[k][b] for k, a in ka for b in range(g))
                + 2 * mpmath.fsum(m[k][l] * ww[l][a] * xx[k][a] for k, a in ka for l in range(h)))
        mono = mpmath.fprod((mpmath.fsum(m[k][l] * zz[l][a] for l in range(h)) + mx[k][a]) ** p
                            for (k, a), p in zip(ka, powers) if p)
        total += mono * mpmath.exp(1j * mpmath.pi * form)
    return (2j * mpmath.pi) ** j.size * total


def roundoff_allowance(level, j, char, omega, z, w, radius):
    """eps sum_t |t| (slack (1 + pi X_t) + P) over the window's P terms t: each term errs by at
    most eps slack (1 + pi X_t) relative, X_t = |x|^t |Q| |x| + 2 |vec(MW)| . |x| bounding its
    exponent's terms, slack = (hg)^2 + (h+1)|J| + 8, and the sum of P terms adds P eps of
    their moduli."""
    h, g = level.h, omega.g
    n, ax = window(level, char, omega, z, w, radius)
    x = n + char.as_array().ravel()
    m, q = level.as_array(), np.kron(level.as_array(), omega.omega)
    mw = (m @ w).ravel()
    exponent = np.einsum("pi,ij,pj->p", x, q.imag, x) + 2.0 * x @ mw.imag
    mono = np.abs(m @ (z + x.reshape(-1, h, g))).reshape(-1, h * g)
    moduli = (2.0 * math.pi) ** j.size * np.prod(mono ** np.ravel(j.j), axis=1)
    moduli *= np.exp(-math.pi * exponent)
    x_t = np.einsum("pi,ij,pj->p", ax, np.abs(q), ax) + 2.0 * ax @ np.abs(mw)
    slack = (h * g) ** 2 + (h + 1) * j.size + 8
    return sys.float_info.epsilon * float(moduli @ (slack * (1.0 + math.pi * x_t) + len(x)))


@st.composite
def kernel_cases(draw):
    """A level and g from KERNEL_SHAPES, |J| <= 4, a characteristic, an Omega with real part
    in [-0.5, 0.5], Im Omega's diagonal in [0.6, 1.5] and off-diagonal within 0.2, Z in the
    0.4 box and W with real part in [-0.5, 0.5] and imaginary part within 8."""
    level, g = draw(st.sampled_from(KERNEL_SHAPES))
    h = level.h
    j = draw(st.sampled_from(multi_indices_of_size(h, g, draw(st.integers(0, 4)))))
    char = draw(st.sampled_from(enumerate_characteristics(level, g)))
    re = [[draw(st.floats(-0.5, 0.5)) for _ in range(g)] for _ in range(g)]
    im = [[draw(st.floats(0.6, 1.5)) if a == b else draw(st.floats(-0.2, 0.2)) for b in range(g)]
          for a in range(g)]
    omega = PeriodMatrix([[complex(re[min(a, b)][max(a, b)], im[min(a, b)][max(a, b)]) for b in range(g)]
                          for a in range(g)])

    def matrix(re_box, im_box):
        return np.array([[complex(draw(st.floats(-re_box, re_box)), draw(st.floats(-im_box, im_box)))
                          for _ in range(g)] for _ in range(h)])

    return level, j, char, omega, matrix(0.4, 0.4), matrix(0.5, 8.0)


class TestKernelOracle:
    @KERNEL_ORACLE
    @given(kernel_cases())
    def test_value_lies_within_its_bound_and_roundoff(self, case):
        # the returned tail_bound alone does not cover the kernel's roundoff: at a large log
        # scale the value errs by far more than it (7.98e104 against 7.9e-42 at hex g = 1)
        level, j, char, omega, z, w = case
        assume(_tail_point(level, omega, j.size, z, w)[2] <= LOG_SCALE_CAP)
        cfg = _point_config(level, omega, j.size, z, w, TAIL_TARGET)
        got = aux_theta_series(level, j, char, omega, z, w, cfg)
        allowance = roundoff_allowance(level, j, char, omega, z, w, cfg.radius)
        with mpmath.workdps(50):
            want = aux_series_oracle(level, j, char, omega, z, w, cfg.radius + EXTRA_SHELLS)
            assert abs(mpmath.mpc(got.value) - want) <= got.tail_bound + allowance
