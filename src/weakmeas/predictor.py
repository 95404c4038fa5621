"""Perturbative pointer-shift predictions for post-selected weak measurements.

The interaction is the impulsive coupling exp(-i g A p) between a system
observable A and the pointer momentum p (hbar = 1 throughout). After
post-selection the pointer's position and momentum means shift; this module
evaluates those shifts in closed form:

- `predict`: the single entry from a scenario to a prediction. It takes
  its route from `weak_values._route`, as the weak values and the series
  do: the general formulas above the orthogonality threshold (a number in
  (0, 1)), the orthogonal ones at or below it; a regime can also be forced.
- `predict_aav`: first order in g (linear response).
- `predict_general`: second order with the resummed denominator, valid for
  mixed states and any small-but-finite coupling short of orthogonality.
- `predict_orthogonal`: exactly orthogonal selections -- pure or mixed
  pre-selections, post-selections of any rank, even pointers -- where the
  response is governed by the orthogonal weak value and the pointer arrives
  in a distorted (for Gaussians, double-peaked) profile;
  `predict_orthogonal_gaussian` is the same prediction for a Gaussian of a
  given width.
- `stern_gerlach_outcome` / `sg_optimum`: the closed-form measured-value
  amplification curve for a spin-1/2 Stern-Gerlach arrangement and its
  analytic optimum.

Every closed-form prediction is one stacked kernel, `_predict_stacked`. It
takes its route -- each point's side, overlap, traces and conditioning
denominator -- from `weak_values._route` over the moment amplitudes of the
selection kernel (`qops._selection_kernel`), reads the pointer moments
through `pointer.moment` and computes both regimes' fields as arrays, NaN
where a point is undefined. The amplifier runs it over stacks routed at
ORTH_THRESHOLD; `predict` and the four forced predictors are its batch of
one, `_predict_point`, which reads the selection kernel and routes once per
call, takes the regime errors from `weak_values._point_route` and raises
every other typed error. The forced predictors use the default threshold
ORTH_THRESHOLD; another threshold is set through `predict` (or a scenario
file's ``orth_threshold`` option).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDenominator,
    LambdaOutOfRange,
    NonPositiveDenominator,
    NotApplicable,
    PointerNotEven,
    ValidityWarning,
)
from .pointer import (
    ANTICOMM_QP,
    P_BRACE_P,
    PQ2P,
    PQP,
    GaussianPointer,
    PointerState,
    gaussian,
    moment,
    p_power,
    q_power,
)
from .qops import Observable, PostSelection, SystemState
from .scenario import Scenario
from .weak_values import (
    MARGIN_ORDER,
    ORTH_THRESHOLD,
    _aav_margin,
    _moment_amplitudes,
    _point_route,
    _route,
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
# Odd momentum moments below this count as zero (an even pointer).
EVEN_TOL = 1e-10


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


_GENERAL_MOMENTS = (q_power(1), p_power(1), p_power(2), p_power(3), PQP, ANTICOMM_QP)
_ORTHOGONAL_MOMENTS = (p_power(4), P_BRACE_P, PQ2P)


def _odd_moment(pointer: PointerState) -> tuple[int, float] | None:
    """(n, <p^n>) for the first of n = 1, 3 whose moment exceeds EVEN_TOL,
    or None for the even pointer the orthogonal formulas assume."""
    for n in (1, 3):
        value = moment(pointer, p_power(n))
        if abs(value) > EVEN_TOL:
            return n, value
    return None


class _Fields(NamedTuple):
    """Per-point fields of `_predict_stacked`.

    ``bracket`` (1/C) is NaN on the points at or below the threshold;
    ``ow_re`` / ``ow_im`` (A_ow) and the output variances are NaN on the
    others, and None when no point is orthogonal. ``success``, ``delta_q``
    and ``delta_p`` follow each point's own route.
    """

    bracket: np.ndarray
    success: np.ndarray
    delta_q: np.ndarray
    delta_p: np.ndarray
    ow_re: np.ndarray | None
    ow_im: np.ndarray | None
    var_q: np.ndarray | None
    var_p: np.ndarray | None


def _predict_stacked(
    pointer: PointerState, g: float, route: tuple, first_order: bool = False
) -> _Fields:
    """Every closed-form prediction for B selections sharing the pointer
    and g.

    ``route`` is `weak_values._route` of the points' moment amplitudes
    b_0..b_2: the overlaps ov = tr(P rho), the traces
    t[m, l] = tr(P A^m rho A^l) that give every field, each point's side
    and its conditioning denominator. On side 0 (ov above the threshold):
    bracket = 1/C, success = ov C and the resummed shifts of
    `predict_general` (the linear shifts of `predict_aav` with
    ``first_order``). On side 1: success = g^2 tr(P A rho A) <p^2>, the
    shifts from A_ow = t[2, 1] / (2 t[1, 1]) and the output variances of
    `predict_orthogonal`, evaluated only on the points routed there.

    The pointer moments are `moment` reads: closed forms for a Gaussian,
    the pointer's memo for a grid; the orthogonal ones only when a point is
    orthogonal. Undefined points -- a bracket <= 0 or NaN, a NaN
    denominator, a pointer that is not even -- come out as NaN, without a
    floating-point warning.
    """
    ov, t, orth, denom = route
    q1, p1, p2, p3, pqp, anti = (moment(pointer, spec) for spec in _GENERAL_MOMENTS)
    # NaN in place of the overlap (and of a bracket <= 0) carries through
    # to NaN results without a warning.
    ov_safe = np.where(orth, np.nan, ov)
    # Real and imaginary parts are divided separately: complex division by
    # a real number multiplies by its reciprocal, which rounds differently.
    aw_re, aw_im = t[1, 0].real / ov_safe, t[1, 0].imag / ov_safe
    a2w_re, a2w_im = t[2, 0].real / ov_safe, t[2, 0].imag / ov_safe
    d_coef = t[1, 1].real / ov_safe - a2w_re
    bracket = 1.0 + 2.0 * g * p1 * aw_im + g * g * p2 * d_coef
    c = 1.0 / np.where(bracket > 0.0, bracket, np.nan)
    varp = p2 - p1 * p1
    if first_order:
        delta_q, delta_p = g * aw_re + g * aw_im * anti, 2.0 * g * aw_im * varp
    else:
        delta_q = c * (
            g * aw_re
            + g * aw_im * (anti - 2.0 * q1 * p1)
            + g * g * (pqp - p2 * q1) * d_coef
            + g * g * p1 * a2w_im
        )
        delta_p = c * (2.0 * g * aw_im * varp + g * g * (p3 - p2 * p1) * d_coef)
    success = ov / c
    orth_fields = [None] * 4
    if orth.any():
        pts = np.flatnonzero(orth)
        p4, pbrace, pq2p = (moment(pointer, spec) for spec in _ORTHOGONAL_MOMENTS)
        # An odd pointer, like a NaN denominator, leaves A_ow undefined.
        den = denom[pts] if _odd_moment(pointer) is None else np.full(pts.size, np.nan)
        usable = ~np.isnan(den)
        ow_re, ow_im = t[2, 1, pts].real / (2.0 * den), t[2, 1, pts].imag / (2.0 * den)
        with np.errstate(over="ignore"):
            # libm's pow, as the scalar formula g**2 had; g * g differs in
            # the last bit for about one g in a thousand.
            g2 = np.float64(g) ** 2
        success[pts] = g2 * den * p2
        delta_q[pts] = g * ow_re + g * ow_im * pbrace / p2
        delta_p[pts] = 2.0 * g * ow_im * p4 / p2
        variances = (np.where(usable, pq2p / p2, np.nan), np.where(usable, p4 / p2, np.nan))
        parts = (ow_re, ow_im, *variances)
        orth_fields = [np.full(ov.shape, np.nan) for _ in parts]
        for full, part in zip(orth_fields, parts):
            full[pts] = part
    return _Fields(bracket, success, delta_q, delta_p, *orth_fields)


def _predict_point(
    obs: Observable, pre: SystemState, post: PostSelection, g: float, pointer: PointerState,
    regime: str, orth_threshold: float = ORTH_THRESHOLD,
) -> ShiftPrediction:
    """`_predict_stacked`'s batch of one, behind every public predictor.

    One selection-kernel read (b_0..b_4) serves the route, the fields and
    the linear-response margin. ``regime`` is ``auto`` or a forced one;
    `_route` takes the side and `_point_route` raises the regime errors
    (HigherOrderOrthogonality before PointerNotEven) before any moment is
    read. Every typed error is raised here before a prediction is returned.
    """
    b = _moment_amplitudes(obs, pre, post, MARGIN_ORDER)
    route = _route(b[:3], orth_threshold)
    forced = None if regime == "auto" else regime == "orthogonal"
    _, _, side, _ = _point_route(route, orth_threshold, forced)
    if regime == "auto":
        regime = "orthogonal" if side else "general"
    f = _predict_stacked(pointer, g, route, regime == "aav")
    fields = {"delta_q": float(f.delta_q[0]), "delta_p": float(f.delta_p[0])}
    if regime == "orthogonal":
        odd = _odd_moment(pointer)
        if odd is not None:
            n, val = odd
            raise PointerNotEven(
                f"<p^{n}> = {val:.3e} does not vanish (tolerance {EVEN_TOL:.1e}); "
                "the orthogonal predictor requires an even pointer state"
            )
        fields.update(
            success_prob=float(f.success[0]),
            var_q_out=float(f.var_q[0]),
            var_p_out=float(f.var_p[0]),
        )
        if isinstance(pointer, GaussianPointer):
            root2 = math.sqrt(2.0)
            q_center = g * float(f.ow_re[0])
            p_center = g * float(f.ow_im[0]) * pointer.var_p
            fields["peaks_q"] = (q_center - root2 * pointer.delta_q,
                                 q_center + root2 * pointer.delta_q)
            fields["peaks_p"] = (p_center - root2 * pointer.delta_p,
                                 p_center + root2 * pointer.delta_p)
    else:
        if regime == "general":
            bracket = float(f.bracket[0])
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

    delta_q = g Re A_w + g Im A_w <{q, p}>,  delta_p = 2 g Im A_w var p,
    with A_w the (generalized) weak value. Accurate only while the
    linear-response margin is small; `predict_general` extends this to
    second order.
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
    value and an even pointer state,

        delta_q = g Re A_ow + g Im A_ow <p{q,p}p>/<p^2>
        delta_p = 2 g Im A_ow <p^4>/<p^2>
        var'_q  = <p q^2 p>/<p^2>,   var'_p = <p^4>/<p^2>

    (variances to zeroth order in g), and the post-selection probability is
    g^2 tr(P A rho A) <p^2>. The trace formula covers mixed pre-selections
    and post-selections of any rank. The post-selected pointer is no longer
    a small displacement of the input: even at g -> 0 its moments are those
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
    pred = _predict_point(obs, pre, post, g, gaussian(delta_q), "orthogonal")
    return replace(pred, regime="orthogonal-gaussian")


_REGIMES = ("aav", "general", "orthogonal")


def predict(
    sc: Scenario, regime: str = "auto", *, orth_threshold: float = ORTH_THRESHOLD
) -> ShiftPrediction:
    """Closed-form prediction for a scenario.

    ``regime`` is ``auto``, ``aav``, ``general`` or ``orthogonal``. ``auto``
    routes on the selection overlap tr(P rho): the general formulas above
    ``orth_threshold``, the orthogonal ones at or below it. The other values
    force that regime, and raise its regime error when the scenario lies
    outside it. ``orth_threshold`` must lie in (0, 1) (ValueError
    otherwise). Every regime reads the selection kernel once.
    """
    if regime != "auto" and regime not in _REGIMES:
        raise ValueError(f"regime must be 'auto' or one of {_REGIMES}, got {regime!r}")
    return _predict_point(
        sc.observable, sc.pre, sc.post, sc.g, sc.pointer, regime, orth_threshold
    )


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
    alpha_opt = arccos(lambda^2/2 - 1) and
    outcome_max = 1/sqrt(lambda^2 - lambda^4/4).
    """
    _check_lambda(lmbda)
    alpha_opt = math.acos(0.5 * lmbda**2 - 1.0)
    outcome_max = 1.0 / math.sqrt(lmbda**2 - 0.25 * lmbda**4)
    return alpha_opt, outcome_max
