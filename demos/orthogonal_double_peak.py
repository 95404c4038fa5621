"""
When the weak value blows up: exactly orthogonal post-selection
===============================================================

With orthogonal selections the usual weak value is undefined -- the
post-selection only ever succeeds because the interaction itself leaks
amplitude across.  The success probability scales as g^2, the pointer
variance triples, and the conditioned position density splits into two
peaks at g*Re(A_ow) +/- sqrt(2)*delta_q, steered by the orthogonal weak
value A_ow = <f|A^2|i> / (2 <f|A|i>).
"""

import math

import numpy as np

from weakmeas import (
    evolve_postselect,
    orthogonal_weak_value,
    predict,
    scenario_with_orthogonal_weak_value,
    success_probability,
)

# (1) Build a qutrit scenario whose orthogonal weak value is a chosen
#     complex number; the constructor solves the post-selection vector
#     from the two linear constraints <f|i> = 0 and A_ow = target.
target = 0.2 + 0.1j
g = 0.02
sc = scenario_with_orthogonal_weak_value(target, g)
a_ow = orthogonal_weak_value(sc.observable, sc.pre, sc.post).value
print(f"orthogonal weak value A_ow = {a_ow.real:+.6f}{a_ow.imag:+.6f}j "
      f"(requested {target})")
print()

# (2) The post-selection succeeds at second order in the coupling: N/g^2
#     is constant as g shrinks.
print(f"{'g':>7} {'success N':>13} {'N / g^2':>10}")
for gk in (0.08, 0.04, 0.02, 0.01):
    n = success_probability(scenario_with_orthogonal_weak_value(target, gk))
    print(f"{gk:>7.3f} {n:>13.6e} {n / gk**2:>10.6f}")
print()

# (3) Exact conditioned statistics against the Gaussian-pointer formulas:
#     both quadrature variances triple, and the position density has two
#     maxima straddling g * Re(A_ow).
rec = evolve_postselect(sc, grid_n=4096)
pred = predict(sc, "orthogonal")
print(f"variance ratios: var_q' / var_q = {rec.var_q_out / 1.0:.6f}, "
      f"var_p' / var_p = {rec.var_p_out / 0.25:.6f}  (-> 3 as g -> 0)")

values, coords = rec.q_density.values, rec.q_density.coords
interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
peaks = coords[1:-1][interior & (values[1:-1] > 1e-9 * values.max())]
expected = (g * target.real - math.sqrt(2.0), g * target.real + math.sqrt(2.0))
print(f"measured density maxima : {peaks[0]:+.6f}, {peaks[1]:+.6f}")
print(f"predicted peak positions: {pred.peaks_q[0]:+.6f}, {pred.peaks_q[1]:+.6f}")
print(f"g*Re(A_ow) -/+ sqrt(2)  : {expected[0]:+.6f}, {expected[1]:+.6f}")

# (4) The imaginary part of A_ow shows up in momentum instead: the mean
#     momentum kick is g * Im(A_ow) * (1 + 2 Dp^2 ... ) at leading order,
#     nonzero exactly because the target was chosen complex.
print(f"\nconditioned momentum shift dp = {rec.delta_p:+.6e} "
      f"(zero for a real A_ow)")
