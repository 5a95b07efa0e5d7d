"""Expression trees: the fold against the JSON codec and the shape check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetadecomp.errors import DimensionMismatchError
from thetadecomp.expr import DerivSymbol, Product, Scale, Sum, expr_shape, fold
from thetadecomp.numerics import enumerate_characteristics, multi_indices_up_to, validate_level
from thetadecomp.serialization import expr_from_json, expr_to_json

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


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
