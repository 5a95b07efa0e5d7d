"""Expression trees of differential polynomials in theta series.

A tree has derivative leaves (one W-derivative of one theta series) joined by
sums, products and scalings.  Every walk over a tree -- its shape, its
decomposition, its values and its JSON encoding -- is one call to ``fold``,
so the node types are dispatched on in this module only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .errors import DimensionMismatchError
from .numerics import Characteristic, LevelMatrix, MultiIndex


@dataclass(frozen=True)
class DerivSymbol:
    """Leaf of an expression tree: one derivative of one theta series."""

    level: LevelMatrix
    j: MultiIndex
    char: Characteristic


@dataclass(frozen=True)
class Sum:
    children: tuple


@dataclass(frozen=True)
class Product:
    children: tuple


@dataclass(frozen=True)
class Scale:
    coeff: complex
    child: object


DiffPolyExpr = Union[DerivSymbol, Sum, Product, Scale]


def fold(expr, leaf: Callable, add: Callable, mul: Callable, scale: Callable):
    """Bottom-up evaluation of a tree.

    ``leaf(node)`` maps a derivative leaf, ``add(values)`` and ``mul(values)``
    combine the children's values in order, and ``scale(coeff, value)`` maps
    a scaling.  Anything that is not a node raises ``TypeError``.
    """

    def go(node):
        if isinstance(node, DerivSymbol):
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
    return fold(expr, lambda d: (d.level.h, d.char.g), _common_shape, _common_shape,
                lambda _, shape: shape)
