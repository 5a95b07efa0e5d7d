"""Exact lattice machinery: level matrices, characteristics, multi-indices.

Everything here is integer or rational arithmetic (Python ints and
``fractions.Fraction``), so coset identities and operator coefficients are
exact.  Floating point enters only in the evaluation modules.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvalidBinomError,
    NegativeEntryError,
    NotEvenError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularMatrixError,
    ZeroEntryError,
)

Rows = tuple[tuple[int, ...], ...]
CHARACTERISTIC_CAP = 1 << 16  # most characteristics one enumeration may build


def _as_int_rows(m) -> Rows:
    try:
        m = [list(row) for row in m]
    except TypeError:  # a scalar, or a row that is one
        raise DimensionMismatchError("expected a matrix: a sequence of rows") from None
    rows = []
    for i, row in enumerate(m):
        out = []
        for k, x in enumerate(row):
            try:  # a double holds it exactly, so the float arrays of the evaluation do too
                if isinstance(x, (complex, np.complexfloating)):  # int() of a numpy one warns
                    raise TypeError
                xi = int(x)
                exact = xi == x and float(xi) == xi
            except (OverflowError, TypeError, ValueError):  # inf, NaN, past the float range, no real
                exact = False
            if not exact:
                raise DimensionMismatchError(f"entry ({i},{k}) is not an integer that a double holds exactly")
            out.append(xi)
        rows.append(tuple(out))
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatchError("ragged matrix")
    return tuple(rows)


def int_det(m) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(row) for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatchError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LevelMatrix:
    """Positive symmetric even integral matrix with every entry nonzero.

    Its float array, least eigenvalue and row-sum norm are computed on first use.
    """

    entries: Rows

    def __post_init__(self):  # hashed once: levels key the evaluation memos and every symbol
        object.__setattr__(self, "_hash", hash((self.entries,)))

    def __hash__(self):
        return self._hash

    @property
    def h(self) -> int:
        return len(self.entries)

    def det(self) -> int:
        return int_det(self.entries)

    def as_array(self) -> np.ndarray:
        return self._array

    @functools.cached_property
    def _array(self) -> np.ndarray:
        return _read_only(np.array(self.entries, dtype=float))

    @functools.cached_property
    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self._array).min())

    @functools.cached_property
    def row_sum_norm(self) -> float:
        return float(np.abs(self._array).sum(axis=1).max())

    def __str__(self):
        return str([list(r) for r in self.entries])


def validate_level(m) -> LevelMatrix:
    """Validate an integer square matrix as an admissible level matrix.

    Raises NotSymmetricError, NotPositiveDefiniteError, NotEvenError or
    ZeroEntryError on the first violated condition.
    """
    rows = _as_int_rows(m)
    h = len(rows)
    if any(len(r) != h for r in rows):
        raise DimensionMismatchError("level matrix must be square")
    for i in range(h):
        for j in range(i + 1, h):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetricError(f"entry ({i},{j}) != ({j},{i})")
    # exact positive definiteness over the rationals: leading principal minors
    for k in range(1, h + 1):
        minor = int_det([row[:k] for row in rows[:k]])
        if minor <= 0:
            raise NotPositiveDefiniteError(f"leading {k}x{k} minor is {minor}")
    for i in range(h):
        if rows[i][i] % 2 != 0:
            raise NotEvenError(f"diagonal entry ({i},{i}) = {rows[i][i]} is odd")
    for i in range(h):
        for j in range(h):
            if rows[i][j] == 0:
                raise ZeroEntryError(f"entry ({i},{j}) is zero")
    return LevelMatrix(rows)


class PeriodMatrix:
    """A point of the Siegel upper half plane: symmetric with Im positive definite.

    This is the one check that the least eigenvalue of Im Omega, to which every series'
    decay rate is proportional, is at least ``_IM_FLOOR``, away from the boundary; a
    non-finite entry is refused first, as a DimensionMismatchError that names it.  Equality
    and hashing go by value, so memos keyed on a period matrix hit across parses of Omega.
    """

    _IM_FLOOR = 1e-3

    def __init__(self, omega):
        om = np.array(omega, dtype=complex)
        if om.ndim != 2 or om.shape[0] != om.shape[1]:
            raise DimensionMismatchError("omega must be a square matrix")
        if not np.isfinite(om).all():
            i, k = np.argwhere(~np.isfinite(om))[0]
            raise DimensionMismatchError(f"omega entry ({i},{k}) = {om[i, k]} is not finite")
        if not np.array_equal(om, om.T):
            raise NotSymmetricError("omega must equal its transpose exactly")
        eigs = np.linalg.eigvalsh(om.imag)
        if not eigs.min() >= self._IM_FLOOR:
            raise NotPositiveDefiniteError(
                f"Im(omega) must be positive definite away from the boundary: "
                f"min eigenvalue {eigs.min():.3e} < {self._IM_FLOOR:g}"
            )
        self.omega = _read_only(om)
        self.g = om.shape[0]
        self.im_min_eig = float(eigs.min())
        # (Im Omega)^-1: the Gaussian peak of every series is X* = -Im W (Im Omega)^-1
        self.im_inv = _read_only(np.linalg.inv(om.imag))
        self._im_inv_norm = float(np.abs(self.im_inv).sum(axis=1).max())  # its max row sum
        self._key = (self.g, om.tobytes())
        self._hash = hash(self._key)

    def __eq__(self, other):
        if not isinstance(other, PeriodMatrix):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PeriodMatrix(g={self.g})"


@dataclass(frozen=True)
class Characteristic:
    """Canonical coset representative with entries in [0,1); M*a is integral."""

    level: LevelMatrix
    a: tuple[tuple[Fraction, ...], ...]
    index: int

    def __post_init__(self):
        # Fraction hashing is expensive; symbols built on characteristics are
        # used as dict keys in the operator algebra's hot path
        object.__setattr__(self, "_hash", hash((self.level, self.a, self.index)))

    def __hash__(self):
        return self._hash

    @property
    def g(self) -> int:
        return len(self.a[0])

    def as_array(self) -> np.ndarray:
        return self._array

    @functools.cached_property
    def _array(self) -> np.ndarray:
        return _read_only(np.array([[float(x) for x in row] for row in self.a]))

    def __str__(self):
        return "[" + "; ".join(",".join(str(x) for x in row) for row in self.a) + "]"


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m):
    """Diagonalize a nonsingular integer matrix: U*m*V = D.

    Returns (U, D, V) as lists of lists of ints, with D diagonal, each
    diagonal entry positive and dividing the next, and U, V unimodular.
    """
    a = [list(row) for row in _as_int_rows(m)]
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatchError("smith normal form needs a square matrix")
    u = _identity(n)
    v = _identity(n)

    def row_add(i, j, c):
        for t in range(n):
            a[i][t] += c * a[j][t]
            u[i][t] += c * u[j][t]

    def col_add(i, j, c):
        for t in range(n):
            a[t][i] += c * a[t][j]
            v[t][i] += c * v[t][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for t in range(n):
            a[t][i], a[t][j] = a[t][j], a[t][i]
            v[t][i], v[t][j] = v[t][j], v[t][i]

    def pivot(s):
        best = None
        for i in range(s, n):
            for j in range(s, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    for s in range(n):
        while True:
            p = pivot(s)
            if p is None:
                raise SingularMatrixError("matrix is singular")
            row_swap(s, p[0])
            col_swap(s, p[1])
            dirty = False
            for i in range(s + 1, n):
                if a[i][s] != 0:
                    row_add(i, s, -(a[i][s] // a[s][s]))
                    dirty = dirty or a[i][s] != 0
            for j in range(s + 1, n):
                if a[s][j] != 0:
                    col_add(j, s, -(a[s][j] // a[s][s]))
                    dirty = dirty or a[s][j] != 0
            if dirty:
                continue
            # pivot now divides its row and column; enforce divisibility of the rest
            stuck = None
            for i in range(s + 1, n):
                for j in range(s + 1, n):
                    if a[i][j] % a[s][s] != 0:
                        stuck = i
                        break
                if stuck is not None:
                    break
            if stuck is None:
                break
            row_add(s, stuck, 1)
        if a[s][s] < 0:
            for t in range(n):
                a[s][t] = -a[s][t]
                u[s][t] = -u[s][t]
    d = [[a[i][j] if i == j else 0 for j in range(n)] for i in range(n)]
    return u, d, v


def enumerate_characteristics(level: LevelMatrix, g: int) -> tuple[Characteristic, ...]:
    """All (det M)^g canonical characteristics of a level matrix, in a fixed order.

    Columns range over the residue system derived from the Smith normal form
    U*M*V = diag(d_1..d_h): residue r maps to the column V*(r_i/d_i) reduced
    into [0,1).  Matrices are enumerated lexicographically on the
    concatenated residue tuples (first column slowest), so the index of a
    characteristic is stable across runs.  More than CHARACTERISTIC_CAP
    characteristics raise BudgetExceededError before anything is built.  The
    tuple is built once per (level, g) and shared by every caller.
    """
    if g < 1:
        raise DimensionMismatchError("g must be a positive integer")
    # det^g is never formed: at det >= 2, every g from the cap's bit length on exceeds the cap
    if level.det() ** min(g, CHARACTERISTIC_CAP.bit_length()) > CHARACTERISTIC_CAP:
        raise BudgetExceededError(f"{level.det()}^{g} characteristics exceed {CHARACTERISTIC_CAP}")
    return _characteristics(level, g)


@functools.lru_cache(maxsize=64)
def _characteristics(level: LevelMatrix, g: int) -> tuple[Characteristic, ...]:
    h = level.h
    _, d, v = smith_normal_form(level.entries)
    diag = [d[i][i] for i in range(h)]

    columns = []
    for r in itertools.product(*[range(di) for di in diag]):
        frac = [Fraction(r[i], diag[i]) for i in range(h)]
        col = tuple(
            sum(Fraction(v[i][k]) * frac[k] for k in range(h)) % 1 for i in range(h)
        )
        columns.append(col)

    out = []
    for idx, cols in enumerate(itertools.product(columns, repeat=g)):
        a = tuple(tuple(cols[c][i] for c in range(g)) for i in range(h))
        out.append(Characteristic(level=level, a=a, index=idx))
    return tuple(out)


@dataclass(frozen=True)
class MultiIndex:
    """Nonnegative integer h x g matrix labelling derivatives and degrees.

    Its entries are Python ints (``from_rows`` reads any other integral type), so
    indices equal by value are equal entry by entry and share ``bump``'s memo.
    """

    j: Rows

    def __post_init__(self):  # hashed once: multi-indices key every symbol
        for row in self.j:
            for x in row:
                if type(x) is not int:
                    raise DimensionMismatchError(f"multi-index entry {x!r} is not an int")
                if x < 0:
                    raise NegativeEntryError(f"multi-index entry {x} < 0")
        object.__setattr__(self, "_hash", hash((self.j,)))

    def __hash__(self):
        return self._hash

    @classmethod
    def zeros(cls, h: int, g: int) -> "MultiIndex":
        return cls(tuple((0,) * g for _ in range(h)))

    @classmethod
    def from_rows(cls, rows) -> "MultiIndex":
        return cls(_as_int_rows(rows))

    @property
    def h(self) -> int:
        return len(self.j)

    @property
    def g(self) -> int:
        return len(self.j[0])

    @functools.cached_property
    def size(self) -> int:
        """Total order |J|, computed on first use."""
        return sum(sum(row) for row in self.j)

    def factorial(self) -> int:
        out = 1
        for row in self.j:
            for x in row:
                out *= math.factorial(x)
        return out

    def bump(self, k: int, a: int, step: int) -> "MultiIndex":
        """J +- epsilon_{ka} with 1-based indices; step is +1 or -1.

        The step and the indices are checked on every call, then the result is read from
        a memo (``_bump``) keyed on Python ints, so an index that is no integer (1.0)
        raises even where an equal integer key is cached.
        """
        if step not in (1, -1):
            raise ValueError("step must be +1 or -1")
        if not (1 <= k <= len(self.j) and 1 <= a <= len(self.j[0])):
            raise DimensionMismatchError(f"bump index ({k},{a}) outside {self.h}x{self.g}")
        return _bump(self, operator.index(k), operator.index(a), int(step))

    def as_array(self) -> np.ndarray:
        return np.array(self.j, dtype=int)

    def __str__(self):
        return str([list(r) for r in self.j])


_BUMP_MEMO_SIZE = 4096  # keys of ``_bump``'s memo; see its docstring


@functools.lru_cache(maxsize=_BUMP_MEMO_SIZE)
def _bump(j: MultiIndex, k: int, a: int, step: int) -> MultiIndex:
    """J +- epsilon_{ka} for checked int indices and step: ``MultiIndex.bump`` checks them
    on every call, and ``algebra.apply``, which reads this memo directly, checks them
    once per operator (``OperatorId``) and once per term (against J's shape).  Only
    the moved entry is checked, since every other entry is one of J's; a negative
    entry raises on every call, as exceptions are not cached.

    The memo's bound: one op of the algebra-brackets benchmark makes 616 distinct keys
    (J, k, a, step) and ``run_commutator_suite(0)`` 520; 240 benchmark ops plus that
    suite leave 930, at a 99.9% hit rate. An entry holds about 0.4 KB, so 4,096 keys
    keep the memo under 2 MB.
    """
    rows = j.j
    row = rows[k - 1]
    x = row[a - 1] + step
    if x < 0:
        raise NegativeEntryError(f"multi-index entry {x} < 0")
    rows = rows[:k - 1] + (row[:a - 1] + (x,) + row[a:],) + rows[k:]
    out = object.__new__(MultiIndex)
    fields = out.__dict__
    fields["j"] = rows
    fields["_hash"] = hash((rows,))
    return out


def multi_binom(k_idx: MultiIndex, p_idx: MultiIndex) -> int:
    """Product of entrywise binomial coefficients; requires P <= K entrywise."""
    if (k_idx.h, k_idx.g) != (p_idx.h, p_idx.g):
        raise DimensionMismatchError("binomial of multi-indices with different shapes")
    out = 1
    for krow, prow in zip(k_idx.j, p_idx.j):
        for kx, px in zip(krow, prow):
            if px > kx:
                raise InvalidBinomError(f"lower index {px} exceeds upper {kx}")
            out *= math.comb(kx, px)
    return out


def multi_indices_of_size(h: int, g: int, size: int) -> list[MultiIndex]:
    """All h x g multi-indices with |J| == size, in lexicographic entry order."""
    out = []
    for flat in itertools.product(range(size + 1), repeat=h * g):
        if sum(flat) == size:
            rows = tuple(flat[i * g:(i + 1) * g] for i in range(h))
            out.append(MultiIndex(rows))
    return out


def multi_indices_up_to(h: int, g: int, max_size: int) -> list[MultiIndex]:
    """All h x g multi-indices with |J| <= max_size, graded then lexicographic."""
    out = []
    for size in range(max_size + 1):
        out.extend(multi_indices_of_size(h, g, size))
    return out
