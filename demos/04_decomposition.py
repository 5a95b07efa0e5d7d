"""Decomposing differential polynomials of theta series into the canonical basis.

Any polynomial in theta series and their W-derivatives expands uniquely over
the symbols (level, J, characteristic) with coefficients depending only on
the period matrix.  The engine expands each product by the theta addition
formula, every coefficient a certified theta-constant lattice sum; here we
decompose the classical square of a theta series and a Wronskian-type
combination, and compare the coefficients with a least-squares fit of the
sampled Wronskian.
"""

import numpy as np

from thetadecomp import (
    AlgebraElement,
    BasisSymbol,
    DerivSymbol,
    FitConfig,
    MultiIndex,
    PeriodMatrix,
    Product,
    Scale,
    Sum,
    TruncationConfig,
    diff_poly_decompose,
    enumerate_characteristics,
    evaluate_element,
    fit_in_basis,
    theta_series,
    truncation_config,
    validate_level,
    verify_theorem3,
)
from thetadecomp.decompose import SAMPLE_BOX

level = validate_level([[2]])
omega = PeriodMatrix([[1j]])
chars = enumerate_characteristics(level, 1)
cfg = FitConfig(seed=0, holdout=20)

# --- squaring a theta series doubles the level -------------------------------
theta0 = DerivSymbol(level, MultiIndex.zeros(1, 1), chars[0])
square = Product((theta0, theta0))
dec = diff_poly_decompose(square, omega, cfg)
print("theta[0]^2 expands over level", dec.element.levels()[0])
level4 = dec.element.levels()[0]
chars4 = enumerate_characteristics(level4, 1)
tcfg = TruncationConfig(radius=8, tail_tol=1e-10)
for sym, coeff in dec.element.sorted_terms():
    const = theta_series(level4, chars4[sym.char.index], omega, [[0.0]], tcfg).value
    print(f"  coeff at char#{sym.char.index}: {coeff.real:+.10f}"
          f"   (theta constant of that characteristic: {const.real:+.10f})")
print(f"  certified residual: {dec.residual:.2e}")

# --- a Wronskian-type differential polynomial --------------------------------
d1 = DerivSymbol(level, MultiIndex.from_rows([[1]]), chars[0])
d2 = DerivSymbol(level, MultiIndex.from_rows([[2]]), chars[0])
wronskian = Sum((Product((theta0, d2)), Scale(-1.0, Product((d1, d1)))))
dec_w = diff_poly_decompose(wronskian, omega, cfg)
print(f"\ntheta*theta'' - (theta')^2 has {len(dec_w.element)} terms at level",
      dec_w.element.levels()[0])
for sym, coeff in dec_w.element.sorted_terms():
    print(f"  J={sym.j} char#{sym.char.index}: {coeff:.8f}")

# every derivative has cancelled: the Wronskian is itself a theta combination
from thetadecomp import in_theta_subalgebra

print("derivative-free (kernel of all lowering operators)?",
      in_theta_subalgebra(dec_w.element))

report = verify_theorem3(wronskian, dec_w, omega, cfg)
print("check at Z=0 against the exact W-derivatives (the auxiliary series):"
      f" max residual {report['max_z0_residual']:.2e}")

# --- a least-squares fit of the sampled Wronskian agrees ----------------------
factor_cfg = truncation_config(level, omega, SAMPLE_BOX, 2)


def sampled(z, w):
    def series(j):
        x = AlgebraElement.from_symbol(BasisSymbol(level, MultiIndex.from_rows([[j]]), chars[0]))
        return evaluate_element(x, omega, z, w, factor_cfg).value

    return series(0) * series(2) - series(1) ** 2


fit = fit_in_basis(sampled, level4, 2, omega, FitConfig(seed=31337))
sup = max(
    abs(dec_w.element.terms().get(s, 0) - fit.element.terms().get(s, 0))
    for s in set(dec_w.element.terms()) | set(fit.element.terms())
)
print(f"a fit of the sampled values (holdout residual {fit.residual:.1e}) differs by {sup:.2e}")
