"""
Truncated evolution as a controlled approximation
=================================================

Besides the exact spectral evolution, the device state can be evaluated
as a power series in the coupling.  Each order tightens the match to the
exact conditioned density until roundoff takes over -- and when the
coupling is too strong for the expansion, the evaluator says so instead
of returning garbage.
"""

import sys
import warnings

import numpy as np

from weakmeas import evolve_postselect, gaussian, make_scenario, series_device_state
from weakmeas.errors import SeriesDiverging, ValidityWarning

# (1) A generic weak scenario: the demo-1 qubit at a coupling small
#     enough that g * Dp = 0.02 sits well inside the series' reach.
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])
pre = np.array([1.0, 1.0]) / np.sqrt(2.0)
post = np.array([1.0, -0.9]) / np.sqrt(1.81)
sc = make_scenario(sigma_z, pre, post, 0.04, gaussian(1.0))

exact = evolve_postselect(sc)
print("truncation order against the exact conditioned state")
print(f"{'order':>6} {'sup |density diff|':>19} {'|dq diff|':>12} "
      f"{'tail estimate':>14}")
for order in (0, 2, 4, 6, 8, 10):
    ser = series_device_state(sc, order=order)
    sup = float(np.max(np.abs(ser.q_density.values - exact.q_density.values)))
    dq = abs(ser.delta_q - exact.delta_q)
    print(f"{order:>6} {sup:>19.3e} {dq:>12.3e} {ser.tail_estimate:>14.3e}")

# (2) The tail estimate -- the sup-norm of the last included term -- stays
#     above the true sup-difference: each order's error lies within a
#     factor of about five of the next even order's tail estimate, and both
#     fall to roundoff by order 10.

# (3) Push the coupling far beyond the weak regime and the per-order
#     terms grow instead of settling. Nearly orthogonal selections make the
#     weak values large (about 1/sqrt(tr(P rho))), and at g = 2.0 the terms
#     grow from the first orders on: the evaluator warns on entry (the
#     weak-interaction margin is no longer small) and then raises rather
#     than handing back a bogus density. (The qubit above still converges
#     at g = 1.0: order 12 matches the exact density to about 7e-6 of its
#     peak.)
a = np.diag([1.0, 0.35])
psi = np.array([0.8, 0.36 + 0.48j])
perp = np.array([-np.conj(psi[1]), np.conj(psi[0])])
strong = make_scenario(a, psi, 0.01 * psi + perp, 2.0, gaussian(1.0))
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always", ValidityWarning)
    try:
        series_device_state(strong, order=12)
    except SeriesDiverging as err:
        print(f"\nat g = 2.0 the evaluator first warns:\n  {caught[0].message}")
        print(f"and then refuses:\n  SeriesDiverging: {err}")
    else:
        sys.exit("the series did not refuse the diverging expansion at g = 2.0")
rec = evolve_postselect(strong)
print(f"the exact oracle still answers: dq = {rec.delta_q:+.6f}, "
      f"success = {rec.success_prob:.4%}")
