"""Expression trees of differential polynomials in theta series.

A tree has derivative leaves joined by sums, products and scalings.  A leaf,
one W-derivative of one theta series, is the algebra's ``BasisSymbol``
(``DerivSymbol`` is another name for it), checked when it is built.  So
is each inner node: a sum or product with no children and a scaling by a
coefficient that is not finite raise ValueError.  Every walk over a tree --
its shape, its decomposition, its values and its JSON encoding -- is one
call to ``fold``, so the node types are dispatched on in this module only.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Union

from .algebra import BasisSymbol
from .errors import DimensionMismatchError

DerivSymbol = BasisSymbol  # the name expression leaves are built under


@dataclass(frozen=True)
class Sum:
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValueError(f"{type(self).__name__} has no children")


@dataclass(frozen=True)
class Product:
    children: tuple

    __post_init__ = Sum.__post_init__


@dataclass(frozen=True)
class Scale:
    coeff: complex
    child: object

    def __post_init__(self):
        if not cmath.isfinite(self.coeff):
            raise ValueError(f"scale coefficient {self.coeff} is not finite")


DiffPolyExpr = Union[BasisSymbol, Sum, Product, Scale]


def fold(expr, leaf: Callable, add: Callable, mul: Callable, scale: Callable):
    """Bottom-up evaluation of a tree.

    ``leaf(node)`` maps a derivative leaf, ``add(values)`` and ``mul(values)``
    combine the children's values in order, and ``scale(coeff, value)`` maps
    a scaling.  Anything that is not a node raises ``TypeError``.
    """

    def go(node):
        if isinstance(node, BasisSymbol):
            return leaf(node)
        if isinstance(node, Sum):
            return add([go(c) for c in node.children])
        if isinstance(node, Product):
            return mul([go(c) for c in node.children])
        if isinstance(node, Scale):
            return scale(node.coeff, go(node.child))
        raise TypeError(f"not an expression node: {node!r}")

    return go(expr)


def _common_shape(shapes):
    distinct = set(shapes)
    if len(distinct) != 1:
        raise DimensionMismatchError(f"expression mixes shapes {sorted(distinct)}")
    return distinct.pop()


def expr_shape(expr) -> tuple[int, int]:
    """Common (h, g) of the leaves; raises if they disagree."""
    return fold(expr, lambda d: (d.h, d.g), _common_shape, _common_shape,
                lambda _, shape: shape)
