"""Shared JSON encodings.

Conventions used across all modules and the command line:
complex numbers are [re, im] pairs of doubles, matrices are row-major arrays
of arrays, rationals are {"num": int, "den": int}.  Element and expression
encodings identify a characteristic by its index in the deterministic
enumeration of its level, which makes the files self-contained.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, BasisSymbol
from .decompose import OVERSAMPLE, SAMPLE_BOX
from .errors import DimensionMismatchError
from .expr import Product, Scale, Sum, fold
from .numerics import (
    Characteristic,
    LevelMatrix,
    MultiIndex,
    _as_int,
    enumerate_characteristics,
    validate_level,
)


def complex_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(data) -> complex:
    re, im = data
    return complex(re, im)


def fraction_to_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def int_matrix_to_json(rows) -> list:
    return [list(map(int, row)) for row in rows]


def complex_matrix_to_json(mat) -> list:
    return [[complex_to_json(x) for x in row] for row in mat]


def complex_matrix_from_json(data) -> list:
    return [[complex_from_json(x) for x in row] for row in data]


def characteristic_to_json(char: Characteristic) -> dict:
    return {
        "index": char.index,
        "a": [[fraction_to_json(x) for x in row] for row in char.a],
    }


def char_by_index(level: LevelMatrix, g: int, index: int) -> Characteristic:
    """Characteristic number ``index`` of (level, g); DimensionMismatchError unless ``index`` is
    an integer in range."""
    chars = enumerate_characteristics(level, g)
    index = _as_int(index, "characteristic index", 0, DimensionMismatchError)
    if index >= len(chars):
        raise DimensionMismatchError(f"characteristic index {index} outside 0..{len(chars) - 1}")
    return chars[index]


def _symbol_to_json(sym: BasisSymbol) -> dict:
    """The (level, j, char_index) fields of a basis symbol."""
    return {
        "level": int_matrix_to_json(sym.level.entries),
        "j": int_matrix_to_json(sym.j.j),
        "char_index": sym.char.index,
    }


def _symbol_from_json(data) -> BasisSymbol:
    level = validate_level(data["level"])
    j = MultiIndex.from_rows(data["j"])
    return BasisSymbol(level, j, char_by_index(level, j.g, data["char_index"]))


def element_to_json(x: AlgebraElement) -> list:
    """Deterministically ordered term list of an element."""
    return [
        {**_symbol_to_json(sym), "coeff": complex_to_json(coeff)}
        for sym, coeff in x.sorted_terms()
    ]


def element_from_json(data) -> AlgebraElement:
    terms = {}
    for item in data:
        sym = _symbol_from_json(item)
        terms[sym] = terms.get(sym, 0) + complex_from_json(item["coeff"])
    return AlgebraElement(terms)


def expr_to_json(expr) -> dict:
    return fold(
        expr,
        lambda d: {"kind": "deriv", **_symbol_to_json(d)},
        lambda children: {"kind": "sum", "children": children},
        lambda children: {"kind": "product", "children": children},
        lambda coeff, child: {"kind": "scale", "coeff": complex_to_json(coeff), "child": child},
    )


def expr_from_json(data):
    if not isinstance(data, dict):
        raise ValueError(f"expression node is a {type(data).__name__}, not a JSON object")
    kind = data.get("kind")
    if kind == "deriv":
        return _symbol_from_json(data)
    if kind == "sum":
        return Sum(tuple(expr_from_json(c) for c in data["children"]))
    if kind == "product":
        return Product(tuple(expr_from_json(c) for c in data["children"]))
    if kind == "scale":
        return Scale(complex_from_json(data["coeff"]), expr_from_json(data["child"]))
    raise ValueError(f"unknown expression kind {kind!r}")


def decomposition_to_json(dec, config) -> dict:
    return {
        "element": element_to_json(dec.element),
        "residual": dec.residual,
        "conditioning": dec.conditioning,
        "seed": config.seed,
        "config": {
            "oversample": OVERSAMPLE,
            "sample_box": SAMPLE_BOX,
            "fit_tol": config.fit_tol,
            "holdout": config.holdout,
        },
    }
