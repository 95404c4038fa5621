"""
How far can post-selection amplify a beam displacement?
=======================================================

A spin-1/2 beam picks up a transverse displacement g when it crosses the
field gradient; post-selecting the spin at angle alpha from the analyzer
multiplies that displacement.  This script sweeps the angle, locates the
best one by Brent's method (parabolic steps on the smooth maximum,
about 19 evaluations per search), and checks it against the exact
ceiling.  For a spin-1/2 with coupling g = lambda * delta_q, no choice of
selections shifts the pointer by more than
lambda * delta_q / sqrt(1 - exp(-lambda^2)), the exact qubit bound; in
units of g the amplification is at most 1 / sqrt(1 - exp(-lambda^2)).
So lambda * max = lambda / sqrt(1 - exp(-lambda^2)) lies above 1 and
tends to 1 as the coupling weakens.
"""

import math

from weakmeas import find_optimum, sg_family, sg_optimum, sweep

# (1) The amplification is unimodal in the selection angle: it rises as
#     the selections approach orthogonality, then collapses once the
#     surviving beam is reshaped rather than displaced.  The success
#     probability falls monotonically toward zero at alpha = pi.
lam = 0.2
alphas = [math.pi * k / 12.0 for k in range(1, 12)]
print(f"coupling lambda = {lam}: amplification across the selection angle")
print(f"{'alpha/pi':>9} {'measured dq/g':>14} {'success':>10}")
for rec in sweep(sg_family(lam), alphas, "measured", "exact"):
    print(f"{rec.parameter / math.pi:>9.3f} {rec.outcome:>14.6f} "
          f"{rec.success_prob:>10.6f}")
print()

# (2) Brent search, to an absolute tolerance of 1e-9 in alpha, against
#     the closed-form optimum
#     alpha* = arccos(lambda^2/2 - 1),  max = 1/sqrt(lambda^2 - lambda^4/4).
#     The 'predicted' engine reproduces the closed form to rounding; the
#     exact engine lands nearby, a touch higher, since the closed form
#     resums only part of the coupling dependence.
print(f"{'lambda':>7} {'alpha* (closed)':>16} {'alpha* (exact)':>15} "
      f"{'max (closed)':>13} {'max (exact)':>12} {'bound':>10} {'lam*max':>8}")
for lam in (0.4, 0.2, 0.1, 0.05):
    alpha_c, value_c = sg_optimum(lam)
    report = find_optimum(sg_family(lam), (math.pi / 2.0, math.pi),
                          "measured", "exact")
    bound = 1.0 / math.sqrt(-math.expm1(-lam * lam))
    print(f"{lam:>7.2f} {alpha_c:>16.6f} {report.parameter_opt:>15.6f} "
          f"{value_c:>13.6f} {report.outcome_max:>12.6f} {bound:>10.6f} "
          f"{lam * report.outcome_max:>8.5f}")

# (3) The exact search reaches the bound 1/sqrt(1 - exp(-lambda^2)) to the
#     printed digits, and the last column, lambda/sqrt(1 - exp(-lambda^2)),
#     approaches 1 from above as the coupling weakens: however aggressive
#     the post-selection, the conditioned beam is displaced by at most
#     about one pointer width.
