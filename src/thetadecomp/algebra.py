"""Formal linear combinations of basis symbols and the operator algebra on them.

A basis symbol (level, multi-index, characteristic) stands for one auxiliary
theta series; elements are finite complex combinations of symbols, possibly
mixing levels.  Three operator families act termwise:

* scaling_op(k, l): multiplies each term by entry (k,l) of its own level,
* lowering_op(m, a): reduces the multi-index, with integer coefficients
  drawn from the level matrix,
* raising_op(n, b): increments the multi-index.

The operators act on the multi-index J alone: an image keeps its term's level
and characteristic. An ``OperatorId`` refuses any index that is not an int >= 1
when it is built; ``apply`` checks the indices against each term's shape once
per term, then reads each step J -> J +- e_ka from ``numerics._bump``, a memo of
at most 4,096 steps (240 algebra-brackets ops plus ``run_commutator_suite(0)``
use 930) that checks the entry it moves, so a negative entry raises on every
call. The public ``MultiIndex.bump`` keeps every check. Raise and scale skip
``AlgebraElement``'s zero filter: raise is injective on J and scale keeps each
symbol, so no two images meet, and input coefficients are nonzero and level
entries nonzero integers, so no image coefficient is zero. A symbol hashes as
``hash((level._hash, j._hash, char._hash))`` (``_symbol_hash``) however it was
built.

Coefficient arithmetic keeps whatever numeric type it is given, so operator
identities on integer inputs are exact, not tolerance-based.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IndexOutOfRangeError
from .evaluation import ThetaValue, TruncationConfig, aux_theta_block
from .numerics import Characteristic, LevelMatrix, MultiIndex, PeriodMatrix, _bump

PRUNE_EPS = 1e-12  # the one pruning threshold: of elements, fitted and expanded coefficients


@dataclass(frozen=True)
class BasisSymbol:
    level: LevelMatrix
    j: MultiIndex
    char: Characteristic

    def __post_init__(self):
        if self.char.level != self.level:
            raise DimensionMismatchError("characteristic belongs to a different level")
        if self.j.h != self.level.h or self.j.g != self.char.g:
            raise DimensionMismatchError("multi-index shape does not match level/characteristic")
        object.__setattr__(self, "_hash", _symbol_hash(self.level, self.j, self.char))

    def __hash__(self):
        return self._hash

    @property
    def h(self) -> int:
        return self.level.h

    @property
    def g(self) -> int:
        return self.char.g

    def sort_key(self):
        return (self.h, self.g, self.level.entries, self.j.size, self.j.j, self.char.index)

    def __str__(self):
        return f"sym(level={self.level}, j={self.j}, char#{self.char.index})"


def _symbol_hash(level: LevelMatrix, j: MultiIndex, char: Characteristic) -> int:
    """The hash of the symbol (level, J, char), from its parts' stored hashes."""
    return hash((level._hash, j._hash, char._hash))


_new = object.__new__


def _symbol(level: LevelMatrix, j: MultiIndex, char: Characteristic) -> BasisSymbol:
    """The symbol (level, J, char) built without checks: the level and the characteristic
    are a checked symbol's, and J has that symbol's shape."""
    out = _new(BasisSymbol)
    fields = out.__dict__
    fields["level"], fields["j"], fields["char"] = level, j, char
    fields["_hash"] = _symbol_hash(level, j, char)
    return out


class AlgebraElement:
    """Finite formal combination of basis symbols; immutable value semantics."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for sym, coeff in terms.items():
                if coeff != 0:
                    clean[sym] = coeff
        self._terms = clean

    @classmethod
    def _unfiltered(cls, terms: dict) -> "AlgebraElement":
        """The element of ``terms`` as given, with no zero filter: no coefficient is zero."""
        out = _new(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls({})

    @classmethod
    def from_symbol(cls, sym: BasisSymbol, coeff=1) -> "AlgebraElement":
        return cls({sym: coeff})

    def terms(self) -> dict:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def sorted_terms(self) -> list:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __add__(self, other):
        out = dict(self._terms)
        for sym, c in other._terms.items():
            out[sym] = out.get(sym, 0) + c
        return AlgebraElement(out)

    def __sub__(self, other):
        out = dict(self._terms)
        for sym, c in other._terms.items():
            out[sym] = out.get(sym, 0) - c
        return AlgebraElement(out)

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        if scalar == 0:
            return AlgebraElement.zero()
        return AlgebraElement({sym: scalar * c for sym, c in self._terms.items()})

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def levels(self) -> list[LevelMatrix]:
        seen = []
        for sym, _ in self.sorted_terms():
            if sym.level not in seen:
                seen.append(sym.level)
        return seen

    def level_component(self, level: LevelMatrix) -> "AlgebraElement":
        """Projection onto one level of the grading."""
        return AlgebraElement({s: c for s, c in self._terms.items() if s.level == level})

    def degree(self) -> int:
        """Largest |J| among the terms (0 for the zero element)."""
        return max((s.j.size for s in self._terms), default=0)

    def prune(self) -> "AlgebraElement":
        """Drops the coefficients of modulus at most PRUNE_EPS; a non-finite one is kept, so
        that later checks see it."""
        return AlgebraElement({s: c for s, c in self._terms.items() if not abs(c) <= PRUNE_EPS})

    def shape(self) -> tuple[int, int]:
        """Common (h, g) of the terms; raises if terms disagree."""
        shapes = {(s.h, s.g) for s in self._terms}
        if len(shapes) > 1:
            raise DimensionMismatchError(f"element mixes shapes {sorted(shapes)}")
        return shapes.pop() if shapes else (0, 0)

    def __repr__(self):
        if self.is_zero():
            return "AlgebraElement(0)"
        bits = [f"{c!r}*{s}" for s, c in self.sorted_terms()]
        return "AlgebraElement(" + " + ".join(bits) + ")"


@dataclass(frozen=True)
class OperatorId:
    """One of the three operator families, with 1-based indices."""

    kind: str  # "scale" | "lower" | "raise"
    i: int
    j: int

    def __post_init__(self):
        if self.kind not in ("scale", "lower", "raise"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        for index in (self.i, self.j):
            if type(index) is not int or index < 1:
                raise IndexOutOfRangeError(f"{self.kind} index {index!r} is not an int >= 1")


def scaling_op(k: int, l: int) -> OperatorId:
    return OperatorId("scale", k, l)


def lowering_op(m: int, a: int) -> OperatorId:
    return OperatorId("lower", m, a)


def raising_op(n: int, b: int) -> OperatorId:
    return OperatorId("raise", n, b)


def apply(op: OperatorId, x: AlgebraElement) -> AlgebraElement:
    """Apply one operator, extended linearly over the terms.

    The kind is decided once per call, one loop each, and each image is built by
    ``_symbol`` from its term's checked symbol (the checks: see the module docstring).
    Raise and scale coefficients are ``0 + c``, a sum's value for a symbol met once, so
    they keep its bits (``0 +`` turns a complex -0.0 part into 0.0)."""
    out: dict = {}
    i, a = op.i, op.j
    if op.kind == "scale":
        for sym, coeff in x.items():
            m = sym.level.entries
            if not (i <= len(m) and a <= len(m)):
                _raise_out_of_range(op, sym)
            out[sym] = 0 + coeff * m[i - 1][a - 1]
        return AlgebraElement._unfiltered(out)
    if op.kind == "raise":
        for sym, coeff in x.items():
            j = sym.j
            rows = j.j
            if not (i <= len(rows) and a <= len(rows[0])):
                _raise_out_of_range(op, sym)
            out[_symbol(sym.level, _bump(j, i, a, 1), sym.char)] = 0 + coeff
        return AlgebraElement._unfiltered(out)
    # lower: sum over rows of the level matrix against the multi-index column
    for sym, coeff in x.items():
        j = sym.j
        rows = j.j
        if not (i <= len(rows) and a <= len(rows[0])):
            _raise_out_of_range(op, sym)
        level, char = sym.level, sym.char
        m_i = level.entries[i - 1]
        for l, row in enumerate(rows, 1):
            if jla := row[a - 1]:
                new = _symbol(level, _bump(j, l, a, -1), char)
                out[new] = out.get(new, 0) + coeff * m_i[l - 1] * jla
    return AlgebraElement(out)


def _raise_out_of_range(op: OperatorId, sym: BasisSymbol):
    raise IndexOutOfRangeError(f"{op.kind}({op.i},{op.j}) outside h={sym.h}, g={sym.g}")


def apply_raising_power(j: MultiIndex, x: AlgebraElement) -> AlgebraElement:
    """Compose raising operators entrywise: each index (k,a) applied J_ka times."""
    out = x
    for k in range(1, j.h + 1):
        for a in range(1, j.g + 1):
            for _ in range(j.j[k - 1][a - 1]):
                out = apply(raising_op(k, a), out)
    return out


def commutator(op1: OperatorId, op2: OperatorId, x: AlgebraElement) -> AlgebraElement:
    return apply(op1, apply(op2, x)) - apply(op2, apply(op1, x))


def in_theta_subalgebra(x: AlgebraElement) -> bool:
    """Whether every lowering operator annihilates the element.

    Equivalent to all terms having multi-index zero; the test applies the
    operators rather than inspecting the terms, so it exercises the defining
    property directly.
    """
    if x.is_zero():
        return True
    return all(apply(op, x).is_zero() for op in _lowerings(*x.shape()))


@functools.lru_cache(maxsize=64)  # keyed on (h, g): a process uses a few shapes
def _lowerings(h: int, g: int) -> tuple[OperatorId, ...]:
    """Every lowering operator of shape (h, g), built once per shape."""
    return tuple(lowering_op(m, a) for m in range(1, h + 1) for a in range(1, g + 1))


def evaluate_element(x: AlgebraElement, omega: PeriodMatrix, z, w,
                     cfg: TruncationConfig) -> ThetaValue:
    """Numeric value of an element at one (h, g) point, or S values at a stack (S, h, g):
    coefficient-weighted sum of its series, one kernel block per (level, J) run of the
    sorted terms, with one tail bound that covers every point.  The zero element is 0 at
    each point, with bound 0.0."""
    value = np.zeros(len(w), dtype=complex) if x.is_zero() and np.ndim(w) == 3 else 0j
    tail = 0.0
    for (level, j), run in itertools.groupby(x.sorted_terms(), lambda t: (t[0].level, t[0].j)):
        run = list(run)
        values, bound = aux_theta_block(level, j, [s.char for s, _ in run], omega, z, w, cfg)
        for i, (_, coeff) in enumerate(run):
            value = value + complex(coeff) * values[..., i]
            tail += abs(coeff) * bound
    return ThetaValue(value=complex(value) if np.ndim(value) == 0 else value, tail_bound=tail)
