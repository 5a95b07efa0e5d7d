"""Evaluating theta and auxiliary theta series with certified tails.

Every evaluation sums the lattice series over a sup-norm box and returns a
rigorous bound on the omitted tail, so downstream comparisons can carry an
explicit error budget.  The shift laws are verified numerically: the joint
quasi-periodicity law in (Z, W) and the ladder identity that raises the
multi-index by one step.
"""

import numpy as np

from thetadecomp import (
    MultiIndex,
    PeriodMatrix,
    TruncationConfig,
    aux_theta_series,
    choose_radius,
    enumerate_characteristics,
    quasi_period_residual,
    shift_operator_check,
    theta_series,
    validate_level,
)

level = validate_level([[2]])
omega = PeriodMatrix([[1j]])
chars = enumerate_characteristics(level, 1)

# radius selection: smallest box certifying a 1e-12 tail on the given domain, where
# w_box bounds the real and imaginary parts of every entry of Z and W
radius = choose_radius(level, omega, w_box=1.5, tail_tol=1e-12, degree=2)
cfg = TruncationConfig(radius=radius, tail_tol=1e-11)
print(f"radius {radius} certifies tail 1e-12 for |Re|, |Im| <= 1.5 on Z and W, |J| <= 2")

for ch in chars:
    v = theta_series(level, ch, omega, [[0.0]], cfg)
    print(f"theta[{ch}](i | 0) = {v.value:.10f}   tail <= {v.tail_bound:.1e}")

# the auxiliary series at J=1, Z=0 is the W-derivative of the theta series
w = np.array([[0.1 + 0.2j]])
j1 = MultiIndex.from_rows([[1]])
v = aux_theta_series(level, j1, chars[0], omega, np.zeros((1, 1)), w, cfg)
step = 1e-5
fd = (
    theta_series(level, chars[0], omega, w + step, cfg).value
    - theta_series(level, chars[0], omega, w - step, cfg).value
) / (2 * step)
print(f"\naux J=1 at Z=0:        {v.value:.10f}")
print(f"central difference:    {fd:.10f}")

# quasi-periodicity under (Z, W) -> (Z + xi, W + xi*Omega + eta)
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(20):
    z = rng.uniform(-0.4, 0.4, (1, 1)) + 1j * rng.uniform(-0.4, 0.4, (1, 1))
    wpt = rng.uniform(-0.4, 0.4, (1, 1)) + 1j * rng.uniform(-0.4, 0.4, (1, 1))
    xi = rng.integers(-1, 2, (1, 1)).astype(float)
    eta = rng.integers(-1, 2, (1, 1)).astype(float)
    j = MultiIndex.from_rows([[int(rng.integers(0, 3))]])
    worst = max(worst, quasi_period_residual(level, j, chars[0], omega, z, wpt, xi, eta, cfg))
print(f"\nworst shift-law residual over 20 draws:  {worst:.2e}")

worst = max(
    shift_operator_check(level, MultiIndex.from_rows([[d]]), chars[0], omega,
                         [[0.2 + 0.1j]], [[0.1 - 0.3j]], 1, 1, cfg)
    for d in range(3)
)
print(f"worst ladder-identity residual:          {worst:.2e}")
