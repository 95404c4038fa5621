"""Perturbative pointer-shift predictions for post-selected weak measurements.

The interaction is the impulsive coupling exp(-i g A p) between a system
observable A and the pointer momentum p (hbar = 1 throughout). After
post-selection the pointer's position and momentum means shift; this module
evaluates those shifts in closed form, as low orders of the weak-value
series of `oracle.series_device_state` (Nakamura et al., PRA 85, 012113):

- `predict`: the single entry from a scenario to a prediction. It takes
  its route from `weak_values._route`, as the weak values do: the general
  formulas above the fixed orthogonality threshold ORTH_THRESHOLD, the
  orthogonal ones at or below it; a regime can also be forced.
- `predict_aav`: first order in g (linear response).
- `predict_general`: second order with the resummed denominator, valid for
  mixed states and any small-but-finite coupling short of orthogonality.
- `predict_orthogonal`: exactly orthogonal selections -- pure or mixed
  pre-selections, post-selections of any rank, any pointer -- where the
  response is governed by the orthogonal weak value and the pointer arrives
  in a distorted (for Gaussians, double-peaked) profile;
  `predict_orthogonal_gaussian` is the same prediction for a Gaussian of a
  given width (`pointer._orthogonal_peaks` places a Gaussian's peaks).
- `stern_gerlach_outcome` / `sg_optimum`: the closed-form measured-value
  amplification curve for a spin-1/2 Stern-Gerlach arrangement and its
  analytic optimum.

Every closed-form prediction is one stacked kernel, `_predict_stacked`,
applied under a binding built once per pointer and g
(`_prediction_binding`: the series coefficients and weights and the
pointer means). It takes its route -- each point's side, overlap, traces
and conditioning denominator -- from `weak_values._route` over the moment
amplitudes of the selection kernel (`qops._selection_kernel`), makes one
call of the grid-free series sums to order 3 (`oracle._series_sums`, over
the pointer's moment table) and reads each regime's fields from its low
orders, as arrays, NaN where a point is undefined; it computes only the
fields its caller reads. The series divides the traces by no denominator,
so the orthogonal fields are its orders up to 3, whose first two vanish
with <f|psi>; the route only picks the orders. The amplifier runs it over
routed stacks; `predict` and the four forced predictors are its batch of
one, `_predict_point`, which reads the selection kernel and routes once per
call, takes the regime errors from `weak_values._point_route` and raises
every other typed error. Every prediction names its regime with one
vocabulary: ``aav``, ``general`` or ``orthogonal``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDenominator,
    LambdaOutOfRange,
    NonPositiveDenominator,
    NotApplicable,
    ValidityWarning,
)
from .oracle import _series_binding, _series_sums
from .pointer import PointerState, _moment_table, _orthogonal_peaks, gaussian
from .qops import Observable, PostSelection, SystemState, _point_selections
from .scenario import Scenario
from .weak_values import (
    MARGIN_ORDER,
    _aav_margin,
    _point_route,
    _route,
    _weak_ratio,
    weak_interaction_margin,
)

__all__ = [
    "ShiftPrediction",
    "predict",
    "predict_aav",
    "predict_general",
    "predict_orthogonal",
    "predict_orthogonal_gaussian",
    "SGParams",
    "stern_gerlach_outcome",
    "sg_optimum",
]

# Weak-interaction margins above which predictions are flagged / distrusted.
MARGIN_WARN = 0.1
MARGIN_STRONG = 0.3


@dataclass(frozen=True)
class ShiftPrediction:
    """Predicted post-selected pointer statistics.

    ``delta_q`` / ``delta_p`` are shifts of the means relative to the initial
    pointer. The post-selection probability ``success_prob``, the output
    variances and the resummation factor ``denominator_c`` are populated
    only by the predictors that compute them. ``peaks_q`` / ``peaks_p``
    locate the two maxima of the double-peaked orthogonal Gaussian profile.
    The margins record validity diagnostics at the prediction point
    (``margin_aav`` only for rank-1 pure selections).
    """

    regime: str
    delta_q: float
    delta_p: float
    success_prob: float | None = None
    var_q_out: float | None = None
    var_p_out: float | None = None
    denominator_c: float | None = None
    peaks_q: tuple[float, float] | None = None
    peaks_p: tuple[float, float] | None = None
    margin_weak: float | None = None
    margin_aav: float | None = None


def _warn_margin(margin: float) -> None:
    if margin >= MARGIN_STRONG:
        message = (
            f"weak-interaction margin {margin:.3g} >= {MARGIN_STRONG}; the "
            "perturbative prediction is unreliable here"
        )
    elif margin > MARGIN_WARN:
        message = (
            f"weak-interaction margin {margin:.3g} > {MARGIN_WARN}; "
            "higher-order corrections may be visible"
        )
    else:
        return
    # Every public predictor calls `_predict_point`, which calls this, so
    # the fourth frame up is the caller's line.
    warnings.warn(message, ValidityWarning, stacklevel=4)


class _Fields(NamedTuple):
    """Per-point fields of `_predict_stacked`, each following its point's
    own route; a field its caller did not ask for is None."""

    success: np.ndarray
    delta_q: np.ndarray
    delta_p: np.ndarray | None
    var_q: np.ndarray | None
    var_p: np.ndarray | None


def _prediction_binding(pointer: PointerState, g: float) -> tuple:
    """What `_predict_stacked` shares across the stacks of one pointer and
    g: the order-3 series bound at the coupling g 2^j >= 1/2
    (`oracle._series_binding`), the shift -j n of order n's binary
    exponent, and the pointer's means <q> and <p>."""
    table = _moment_table(pointer)
    j = max(0, -math.frexp(g)[1])
    with np.errstate(over="ignore", invalid="ignore"):
        series = _series_binding(pointer, math.ldexp(g, j), 3)
    return series, -j * np.arange(4)[:, None], table[0, 1, 0].real, table[0, 0, 1].real


def _predict_stacked(
    bound: tuple,
    route: tuple,
    momenta: bool = True,
    variances: bool = False,
    first_order: bool = False,
) -> _Fields:
    """Every closed-form prediction for B selections sharing the pointer
    and g of ``bound`` (`_prediction_binding`), as low orders of one series
    (`oracle._series_sums` to order 3), routed by ``route``
    (`weak_values._route` of their b_0..b_3). Above the threshold the
    series runs to order 2: success = Z and the shifts Q_1/Z - <q>,
    P_1/Z - <p>; with ``first_order``, the order-1 increments less the mean
    times Z's, over ov. At or below it, where orders 0 and 1 vanish with
    b_0 = <f|psi>, orders up to 3 give the success and the shifts. The
    variances come from orders up to 2 on both sides. Only the fields asked
    for are computed: delta_p with ``momenta``, the variances with
    ``variances``. Undefined points -- Z <= 0 or NaN, a NaN denominator --
    come out as NaN, without a floating-point warning.
    """
    series, shift, q0, p0 = bound
    ov, t, orth, denom = route
    defined = ~np.isnan(denom)
    delta_p = var_q = var_p = None
    # The orders run at the coupling g 2^j >= 1/2, so no power of a weak g
    # underflows, and come back as each point's orders over 2^lead, its
    # largest Z increment's binary exponent: exact powers of two, one per
    # point, that leave every ratio as it was.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _series_sums(series, t)
        exponents = np.frexp(sums[:, 0])[1] + shift
        lead = np.max(np.where(sums[:, 0] != 0.0, exponents, -(2**20)), axis=0)
        sums = np.ldexp(sums, (shift - lead)[:, None])
        low = sums[:3].sum(axis=0)
        z, q1, _, p1, _ = np.where(orth, low + sums[3], low)
        z = np.where((z > 0.0) & defined, z, np.nan)
        delta_q = q1 / z - q0
        if momenta:
            delta_p = p1 / z - p0
        if first_order:
            # NaN in place of the overlap carries through to NaN results.
            off = np.where(orth, np.nan, ov)
            z1, q1, _, p1, _ = sums[1]
            delta_q, delta_p = (np.ldexp(x, lead) / off for x in (q1 - q0 * z1, p1 - p0 * z1))
        if variances:
            var_q, var_p = _variances(low, defined)
    return _Fields(np.ldexp(z, lead), delta_q, delta_p, var_q, var_p)


def _variances(sums: np.ndarray, defined: np.ndarray) -> tuple:
    """(var q, var p) from summed `_series_sums` increments; NaN wherever Z
    is not positive or the point is not ``defined``."""
    z, q1, q2, p1, p2 = sums
    z = np.where((z > 0.0) & defined, z, np.nan)
    mean_q, mean_p = q1 / z, p1 / z
    return q2 / z - mean_q**2, p2 / z - mean_p**2


def _predict_point(
    obs: Observable, pre: SystemState, post: PostSelection, g: float, pointer: PointerState,
    regime: str,
) -> ShiftPrediction:
    """`_predict_stacked`'s batch of one, behind every public predictor.

    One selection-kernel read (b_0..b_4) serves the route, the fields and
    the linear-response margin. ``regime`` is ``auto`` or a forced one;
    `_route` takes the side and `_point_route` raises the regime errors
    before any moment is read. Every typed error is raised here before a
    prediction is returned.
    """
    b = _point_selections(post, pre, obs, MARGIN_ORDER)[1]
    route = _route(b[:4])
    forced = None if regime == "auto" else regime == "orthogonal"
    ov, t, side, denom = _point_route(route, forced)
    if regime == "auto":
        regime = "orthogonal" if side else "general"
    f = _predict_stacked(
        _prediction_binding(pointer, g),
        route,
        variances=regime == "orthogonal",
        first_order=regime == "aav",
    )
    fields = {"delta_q": float(f.delta_q[0]), "delta_p": float(f.delta_p[0])}
    if regime == "orthogonal":
        fields.update(
            success_prob=float(f.success[0]),
            var_q_out=float(f.var_q[0]),
            var_p_out=float(f.var_p[0]),
        )
        peaks = _orthogonal_peaks(pointer, g * _weak_ratio(t, 1, 0, 1, denom))
        if peaks is not None:
            fields["peaks_q"], fields["peaks_p"] = peaks
    else:
        if regime == "general":
            bracket = float(f.success[0]) / ov
            if not 0.0 < bracket < math.inf:
                raise NonPositiveDenominator(
                    f"resummed denominator bracket {bracket:.3e} is not a positive "
                    "finite number; the second-order expansion is invalid for this "
                    "coupling"
                )
            fields.update(success_prob=float(f.success[0]), denominator_c=1.0 / bracket)
        if pre.is_pure and post.is_rank_one:
            fields["margin_aav"] = _aav_margin(b, g, pointer)
    for name, value in fields.items():
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            raise NotApplicable(
                f"the {regime} prediction's {name} is {value!r} at g = {g!r}; the "
                "closed-form expansion does not apply at this coupling"
            )
    margin = weak_interaction_margin(g, pointer)
    _warn_margin(margin)
    return ShiftPrediction(regime=regime, margin_weak=margin, **fields)


def predict_aav(
    obs: Observable, pre: SystemState, post: PostSelection, g: float, pointer: PointerState
) -> ShiftPrediction:
    """First-order (linear-response) pointer shifts.

    delta_q = g Re A_w + g Im A_w (<{q, p}> - 2<q><p>),
    delta_p = 2 g Im A_w var p,
    with A_w the (generalized) weak value (Jozsa, PRA 76, 044103 (2007)).
    Accurate only while the linear-response margin is small;
    `predict_general` extends this to second order.
    """
    return _predict_point(obs, pre, post, g, pointer, "aav")


def predict_general(
    obs: Observable, pre: SystemState, post: PostSelection, g: float, pointer: PointerState
) -> ShiftPrediction:
    """Second-order pointer shifts with the resummed denominator.

    Writing A_w = tr(P A rho)/tr(P rho), A2_w = tr(P A^2 rho)/tr(P rho),
    and D = tr(P A rho A)/tr(P rho) - Re A2_w, the shifts are

        C = [1 + 2 g <p> Im A_w + g^2 <p^2> D]^(-1)
        delta_q = C [g Re A_w + g Im A_w (<{q,p}> - 2<q><p>)
                     + g^2 (<p q p> - <p^2><q>) D + g^2 <p> Im A2_w]
        delta_p = C [2 g Im A_w var p + g^2 (<p^3> - <p^2><p>) D]

    Valid for mixed pre-selections and projector post-selections of any
    rank. The post-selection probability is tr(P rho) / C. Raises
    NonPositiveDenominator when the bracket in C is not a positive finite
    number (the expansion has broken down).
    """
    return _predict_point(obs, pre, post, g, pointer, "general")


def predict_orthogonal(
    obs: Observable, pre: SystemState, post: PostSelection, g: float, pointer: PointerState
) -> ShiftPrediction:
    """Leading-order pointer statistics for orthogonal selections.

    With A_ow = tr(P A^2 rho A) / (2 tr(P A rho A)) the orthogonal weak
    value, the series to order 3 (its orders 0 and 1 vanish with <f|psi>)
    gives, for an even pointer state,

        delta_q = g Re A_ow + g Im A_ow <p{q,p}p>/<p^2>
        delta_p = 2 g Im A_ow <p^4>/<p^2>
        var'_q  = <p q^2 p>/<p^2>,   var'_p = <p^4>/<p^2>

    (shifts to first order, variances to zeroth order in g), and the
    post-selection probability is g^2 tr(P A rho A) <p^2>; other pointers
    add terms, such as the filtered mean <p q p>/<p^2> - <q> at order g^0.
    The trace formula covers mixed pre-selections and post-selections of
    any rank. The post-selected pointer is no longer a
    small displacement of the input: even at g -> 0 its moments are those
    of the p-filtered state. For a Gaussian of width delta_q the outgoing
    profile is double-peaked, with maxima at

        q = g Re A_ow +/- sqrt(2) delta_q
        p = g Im A_ow delta_p^2 +/- sqrt(2) delta_p.
    """
    return _predict_point(obs, pre, post, g, pointer, "orthogonal")


def predict_orthogonal_gaussian(
    obs: Observable, pre: SystemState, post: PostSelection, g: float, delta_q: float
) -> ShiftPrediction:
    """`predict_orthogonal` for a Gaussian pointer of width ``delta_q``.

    For a Gaussian (var q = delta_q^2, var p = 1/(4 delta_q^2)) the
    orthogonal formulas reduce to

        delta_q = g Re A_ow            delta_p = 6 g Im A_ow var p
        var'_q  = 3 var q              var'_p  = 3 var p

    and ``peaks_q`` / ``peaks_p`` locate the two maxima of the
    double-peaked outgoing profile.
    """
    return _predict_point(obs, pre, post, g, gaussian(delta_q), "orthogonal")


_REGIMES = ("aav", "general", "orthogonal")


def predict(sc: Scenario, regime: str = "auto") -> ShiftPrediction:
    """Closed-form prediction for a scenario.

    ``regime`` is ``auto``, ``aav``, ``general`` or ``orthogonal``. ``auto``
    routes on the selection overlap tr(P rho): the general formulas above
    ORTH_THRESHOLD, the orthogonal ones at or below it. The other values
    force that regime, and raise its regime error when the scenario lies
    outside it. Every regime reads the selection kernel once.
    """
    if regime != "auto" and regime not in _REGIMES:
        raise ValueError(f"regime must be 'auto' or one of {_REGIMES}, got {regime!r}")
    return _predict_point(sc.observable, sc.pre, sc.post, sc.g, sc.pointer, regime)


def _check_alpha(alpha: float) -> None:
    """The one check of a Stern-Gerlach angle: alpha in [0, pi]."""
    if not (0.0 <= alpha <= math.pi):
        raise ValueError(f"alpha must lie in [0, pi], got {alpha}")


def _check_lambda(lmbda: float) -> None:
    """The one check of a Stern-Gerlach coupling: lambda in (0, 1)."""
    if not (0.0 < lmbda < 1.0):
        raise LambdaOutOfRange(f"lambda must lie in (0, 1), got {lmbda}")


@dataclass(frozen=True)
class SGParams:
    """Stern-Gerlach amplification parameters.

    ``alpha`` in [0, pi] sets the pre-selection direction relative to the
    post-selection; ``lmbda`` in (0, 1) is the dimensionless coupling
    (beam displacement over pointer width). Couplings above 0.5 are
    accepted with a validity warning.
    """

    alpha: float
    lmbda: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        _check_lambda(self.lmbda)
        if self.lmbda > 0.5:
            warnings.warn(
                f"lambda = {self.lmbda} > 0.5; the closed-form outcome curve "
                "degrades noticeably at this coupling",
                ValidityWarning,
                stacklevel=3,
            )


def stern_gerlach_outcome(params: SGParams) -> float:
    """Measured spin value sin(alpha) / ((1 - lambda^2/2) cos(alpha) + 1).

    This is the second-order resummed prediction for the spin component
    inferred from the pointer shift, delta_q / g, in the Stern-Gerlach
    arrangement; it exceeds the eigenvalue range near orthogonality.
    """
    den = (1.0 - 0.5 * params.lmbda**2) * math.cos(params.alpha) + 1.0
    if abs(den) <= 1e-12:
        raise DegenerateDenominator(
            f"outcome denominator {den:.3e} vanishes at alpha = {params.alpha}"
        )
    return math.sin(params.alpha) / den


def sg_optimum(lmbda: float) -> tuple[float, float]:
    """Analytic optimum of the Stern-Gerlach outcome curve over alpha.

    Returns (alpha_opt, outcome_max) with
    alpha_opt = arccos(lambda^2/2 - 1) = pi - 2 arcsin(lambda/2), the form
    that keeps its digits at small lambda, and
    outcome_max = 1/(lambda sqrt(1 - lambda^2/4)), which does not underflow.
    """
    _check_lambda(lmbda)
    alpha_opt = math.pi - 2.0 * math.asin(0.5 * lmbda)
    outcome_max = 1.0 / (lmbda * math.sqrt(1.0 - 0.25 * lmbda**2))
    return alpha_opt, outcome_max
