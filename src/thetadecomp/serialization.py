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
from .errors import DimensionMismatchError
from .expr import DerivSymbol, Product, Scale, Sum, fold
from .numerics import (
    Characteristic,
    LevelMatrix,
    MultiIndex,
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


def fraction_from_json(data) -> Fraction:
    return Fraction(data["num"], data["den"])


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


def _char_by_index(level: LevelMatrix, g: int, index: int) -> Characteristic:
    chars = enumerate_characteristics(level, g)
    if not 0 <= index < len(chars):
        raise DimensionMismatchError(
            f"characteristic index {index} outside 0..{len(chars) - 1}"
        )
    return chars[index]


def element_to_json(x: AlgebraElement) -> list:
    """Deterministically ordered term list of an element."""
    return [
        {
            "level": int_matrix_to_json(sym.level.entries),
            "j": int_matrix_to_json(sym.j.j),
            "char_index": sym.char.index,
            "coeff": complex_to_json(coeff),
        }
        for sym, coeff in x.sorted_terms()
    ]


def element_from_json(data) -> AlgebraElement:
    terms = {}
    for item in data:
        level = validate_level(item["level"])
        j = MultiIndex.from_rows(item["j"])
        char = _char_by_index(level, j.g, item["char_index"])
        sym = BasisSymbol(level, j, char)
        terms[sym] = terms.get(sym, 0) + complex_from_json(item["coeff"])
    return AlgebraElement(terms)


def expr_to_json(expr) -> dict:
    return fold(
        expr,
        lambda d: {
            "kind": "deriv",
            "level": int_matrix_to_json(d.level.entries),
            "j": int_matrix_to_json(d.j.j),
            "char_index": d.char.index,
        },
        lambda children: {"kind": "sum", "children": children},
        lambda children: {"kind": "product", "children": children},
        lambda coeff, child: {"kind": "scale", "coeff": complex_to_json(coeff), "child": child},
    )


def expr_from_json(data):
    kind = data.get("kind")
    if kind == "deriv":
        level = validate_level(data["level"])
        j = MultiIndex.from_rows(data["j"])
        char = _char_by_index(level, j.g, data["char_index"])
        return DerivSymbol(level, j, char)
    if kind == "sum":
        return Sum(tuple(expr_from_json(c) for c in data["children"]))
    if kind == "product":
        return Product(tuple(expr_from_json(c) for c in data["children"]))
    if kind == "scale":
        return Scale(complex_from_json(data["coeff"]), expr_from_json(data["child"]))
    raise ValueError(f"unknown expression kind {kind!r}")


def decomposition_to_json(dec, seed: int, config) -> dict:
    return {
        "element": element_to_json(dec.element),
        "residual": dec.residual,
        "conditioning": dec.conditioning,
        "seed": seed,
        "config": {
            "oversample": config.oversample,
            "sample_box": config.sample_box,
            "fit_tol": config.fit_tol,
            "holdout": config.holdout,
        },
    }
