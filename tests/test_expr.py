"""Expression trees: the fold against the JSON codec and the shape check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetadecomp import expr as expr_module
from thetadecomp.algebra import BasisSymbol
from thetadecomp.errors import DimensionMismatchError
from thetadecomp.decompose import FitConfig, diff_poly_decompose
from thetadecomp.expr import DerivSymbol, Product, Scale, Sum, expr_shape, fold
from thetadecomp.numerics import (
    MultiIndex,
    PeriodMatrix,
    enumerate_characteristics,
    multi_indices_up_to,
    validate_level,
)
from thetadecomp.serialization import char_by_index, expr_from_json, expr_to_json

PROPERTY = settings(max_examples=60)


def leaves(rows):
    level = validate_level(rows)
    return [
        DerivSymbol(level, j, char)
        for j in multi_indices_up_to(level.h, 1, 2)
        for char in enumerate_characteristics(level, 1)
    ]


H1_LEAVES = leaves([[2]]) + leaves([[4]])
HEX_LEAVES = leaves([[2, 1], [1, 2]])

coeffs = st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6)


def trees(leaf, depth=3):
    """Expression trees of depth at most ``depth`` over the given leaf strategy."""
    if depth == 0:
        return leaf
    sub = trees(leaf, depth - 1)
    children = st.lists(sub, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        leaf,
        children.map(Sum),
        children.map(Product),
        st.builds(Scale, coeffs, sub),
    )


def leaf_list(expr):
    return fold(expr, lambda d: [d], lambda vs: sum(vs, []), lambda vs: sum(vs, []),
                lambda _, v: v)


h1_trees = trees(st.sampled_from(H1_LEAVES))
hex_trees = trees(st.sampled_from(HEX_LEAVES))


@PROPERTY
@given(st.one_of(h1_trees, hex_trees))
def test_json_round_trip(expr):
    assert expr_from_json(expr_to_json(expr)) == expr


@PROPERTY
@given(st.one_of(h1_trees, hex_trees))
def test_shape_is_the_leaves_common_shape(expr):
    shapes = {(d.level.h, d.char.g) for d in leaf_list(expr)}
    assert len(shapes) == 1
    assert expr_shape(expr) == shapes.pop()


@PROPERTY
@given(h1_trees, hex_trees, st.sampled_from([Sum, Product]), st.booleans())
def test_mixed_shapes_raise(a, b, node, swap):
    with pytest.raises(DimensionMismatchError):
        expr_shape(node((b, a) if swap else (a, b)))


@PROPERTY
@given(h1_trees, st.sampled_from([1, 2.5, "deriv", None]), st.sampled_from([Sum, Product]))
def test_non_node_leaf_raises(expr, junk, node):
    bad = node((expr, Scale(1.0, junk)))
    with pytest.raises(TypeError, match="not an expression node"):
        expr_shape(bad)
    with pytest.raises(TypeError, match="not an expression node"):
        expr_to_json(bad)


def test_leaves_are_basis_symbols():
    assert DerivSymbol is BasisSymbol
    classes = {name for name, obj in vars(expr_module).items()
               if isinstance(obj, type) and obj.__module__ == expr_module.__name__}
    assert classes == {"Sum", "Product", "Scale"}


def test_leaf_is_checked_when_built():
    level2, level4 = validate_level([[2]]), validate_level([[4]])
    char2 = enumerate_characteristics(level2, 1)[0]
    with pytest.raises(DimensionMismatchError):
        DerivSymbol(level2, MultiIndex.zeros(1, 1), enumerate_characteristics(level4, 1)[1])
    with pytest.raises(DimensionMismatchError):
        DerivSymbol(level2, MultiIndex.zeros(2, 1), char2)
    with pytest.raises(DimensionMismatchError):
        DerivSymbol(level2, MultiIndex.zeros(1, 2), char2)
    # the JSON codec builds the same checked symbol
    with pytest.raises(DimensionMismatchError):
        expr_from_json({"kind": "deriv", "level": [[2]], "j": [[0], [1]], "char_index": 0})


@pytest.mark.parametrize("index", [True, False, 1.0, -1, "1", None])
def test_char_index_is_an_integer_at_least_zero(index):
    # index True read characteristic 1, and 1.0 ended in a bare TypeError
    level = validate_level([[2]])
    with pytest.raises(DimensionMismatchError, match="characteristic index must be an integer >= 0"):
        char_by_index(level, 1, index)
    with pytest.raises(DimensionMismatchError, match="characteristic index"):
        expr_from_json({"kind": "deriv", "level": [[2]], "j": [[0]], "char_index": index})


def test_char_index_range_and_numpy_integers():
    level = validate_level([[2]])
    assert char_by_index(level, 1, np.int64(1)) is enumerate_characteristics(level, 1)[1]
    with pytest.raises(DimensionMismatchError, match="index 2 outside 0..1"):
        char_by_index(level, 1, 2)


@pytest.mark.parametrize("node", [Sum, Product])
def test_empty_children_are_refused_when_built(node):
    # both ended in "DimensionMismatchError: expression mixes shapes []"
    with pytest.raises(ValueError, match=f"^{node.__name__} has no children$"):
        node(())
    with pytest.raises(ValueError, match=f"^{node.__name__} has no children$"):
        expr_from_json({"kind": node.__name__.lower(), "children": []})


@pytest.mark.parametrize("coeff", [complex(math.nan, 0), complex(0, -math.inf), complex(float("1e400"), 0),
                                   math.nan, math.inf])
def test_nonfinite_scale_is_refused_when_built(coeff):
    # diff_poly_decompose(Scale(nan, d), ...) ended in "certificate residual nan is not finite"
    leaf = H1_LEAVES[0]
    with pytest.raises(ValueError, match="^scale coefficient .* is not finite$"):
        diff_poly_decompose(Scale(coeff, leaf), PeriodMatrix([[1j]]), FitConfig())
    # the JSON codec meets the same rule, in the constructor
    with pytest.raises(ValueError, match="^scale coefficient .* is not finite$"):
        expr_from_json({"kind": "scale", "coeff": [coeff.real, coeff.imag], "child": expr_to_json(leaf)})
