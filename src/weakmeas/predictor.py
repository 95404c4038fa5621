"""Perturbative pointer-shift predictions for post-selected weak measurements.

The interaction is the impulsive coupling exp(-i g A p) between a system
observable A and the pointer momentum p (hbar = 1 throughout). After
post-selection the pointer's position and momentum means shift; this module
evaluates those shifts in closed form:

- `predict`: the single route from a scenario to a prediction. It routes on
  the selection overlap tr(P rho): `predict_general` above the orthogonality
  threshold, `predict_orthogonal` at or below it; a regime can also be
  forced.
- `predict_aav`: first order in g (linear response).
- `predict_general`: second order with the resummed denominator, valid for
  mixed states and any small-but-finite coupling short of orthogonality.
- `predict_orthogonal`: exactly orthogonal selections, where the response
  is governed by the orthogonal weak value and the pointer arrives in a
  distorted (for Gaussians, double-peaked) profile;
  `predict_orthogonal_gaussian` is the same prediction for a Gaussian of a
  given width.
- `stern_gerlach_outcome` / `sg_optimum`: the closed-form measured-value
  amplification curve for a spin-1/2 Stern-Gerlach arrangement and its
  analytic optimum.

Every selection trace comes from the one selection kernel
(`qops._selection_kernel`): `predict_aav` and `predict_general` are batches
of one of `_predict_general_stacked`, which the amplifier runs over stacks.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateDenominator,
    LambdaOutOfRange,
    NonPositiveDenominator,
    PointerNotEven,
    UnsupportedMixedOrthogonal,
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
from .qops import Observable, PostSelection, SystemState, overlap
from .qops import _selection_overlaps, _selection_traces
from .scenario import Scenario
from .weak_values import (
    ORTH_THRESHOLD,
    _moment_amplitudes,
    _require_regime,
    aav_margin,
    orthogonal_weak_value,
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
    # Attribute the warning to the first caller outside this module, so it
    # names the caller's line whether it came through `predict` or directly.
    level, frame = 1, sys._getframe()
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    warnings.warn(message, ValidityWarning, stacklevel=level)


def _maybe_aav_margin(
    obs: Observable,
    pre: SystemState,
    post: PostSelection,
    g: float,
    pointer: PointerState,
) -> float | None:
    if pre.is_pure and post.is_rank_one:
        return aav_margin(obs, pre, post, g, pointer)
    return None


def predict_aav(
    obs: Observable,
    pre: SystemState,
    post: PostSelection,
    g: float,
    pointer: PointerState,
    *,
    orth_threshold: float = ORTH_THRESHOLD,
) -> ShiftPrediction:
    """First-order (linear-response) pointer shifts.

    delta_q = g Re A_w + g Im A_w <{q, p}>,  delta_p = 2 g Im A_w var p,
    with A_w the (generalized) weak value. Accurate only while the
    linear-response margin is small; `predict_general` extends this to
    second order.
    """
    _, _, delta_q, delta_p = _predict_one(obs, pre, post, g, pointer, orth_threshold, True)
    margin = weak_interaction_margin(g, pointer)
    _warn_margin(margin)
    return ShiftPrediction(
        regime="aav",
        delta_q=delta_q,
        delta_p=delta_p,
        margin_weak=margin,
        margin_aav=_maybe_aav_margin(obs, pre, post, g, pointer),
    )


def _general_moments(pointer: PointerState) -> tuple[float, ...]:
    """(<q>, <p>, <p^2>, <p^3>, <p q p>, <{q,p}>), the pointer moments of
    the second-order shifts."""
    specs = (q_power(1), p_power(1), p_power(2), p_power(3), PQP, ANTICOMM_QP)
    return tuple(moment(pointer, spec) for spec in specs)


def _predict_general_stacked(
    moments: tuple[float, ...],
    g: float,
    b: np.ndarray,
    orth_threshold: float = ORTH_THRESHOLD,
    first_order: bool = False,
) -> tuple[np.ndarray, ...]:
    """`predict_general` for B selections sharing the pointer (through
    ``moments``, from `_general_moments`) and g.

    ``b`` holds the points' moment amplitudes b_0..b_2 from the selection
    kernel, giving tr(P rho), tr(P A rho), tr(P A^2 rho) and tr(P A rho A).
    Returns (ov, bracket, success_prob, delta_q, delta_p): ov = tr(P rho)
    is the float `predict` routes on and bracket = 1/C. The other three
    are NaN where ov is not above ``orth_threshold`` or the bracket is <= 0
    (where `predict_general` raises), without a floating-point warning.
    With ``first_order`` the shifts are `predict_aav`'s linear ones.
    """
    q1, p1, p2, p3, pqp, anti = moments
    ov = _selection_overlaps(b)
    t = _selection_traces(b)
    # NaN in place of the overlap (and of a bracket <= 0) carries through
    # to NaN results without a warning.
    ov_safe = np.where(ov > orth_threshold, ov, np.nan)
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
    return ov, bracket, ov / c, delta_q, delta_p


def _predict_one(obs, pre, post, g, pointer, orth_threshold, first_order):
    """`_predict_general_stacked`'s batch of one, as floats, after the
    regime check."""
    b = _moment_amplitudes(obs, pre, post, 2)
    values = _predict_general_stacked(
        _general_moments(pointer), g, b, orth_threshold, first_order
    )
    ov, bracket, success, delta_q, delta_p = (float(v[0]) for v in values)
    _require_regime(ov, orth_threshold, orthogonal=False)
    return bracket, success, delta_q, delta_p


def predict_general(
    obs: Observable,
    pre: SystemState,
    post: PostSelection,
    g: float,
    pointer: PointerState,
    *,
    orth_threshold: float = ORTH_THRESHOLD,
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
    NonPositiveDenominator when the bracket in C is <= 0 (the expansion has
    broken down).
    """
    bracket, success, delta_q, delta_p = _predict_one(
        obs, pre, post, g, pointer, orth_threshold, False
    )
    if bracket <= 0.0:
        raise NonPositiveDenominator(
            f"resummed denominator bracket {bracket:.3e} <= 0; the "
            "second-order expansion is invalid for this coupling"
        )

    margin = weak_interaction_margin(g, pointer)
    _warn_margin(margin)
    return ShiftPrediction(
        regime="general",
        delta_q=delta_q,
        delta_p=delta_p,
        success_prob=success,
        denominator_c=1.0 / bracket,
        margin_weak=margin,
        margin_aav=_maybe_aav_margin(obs, pre, post, g, pointer),
    )


def _require_even_pointer(pointer: PointerState, tol: float = 1e-10) -> None:
    # The orthogonal formulas assume a pointer whose odd p-moments vanish
    # (even wavefunction). The first two odd moments are checked directly.
    for n in (1, 3):
        val = moment(pointer, p_power(n))
        if abs(val) > tol:
            raise PointerNotEven(
                f"<p^{n}> = {val:.3e} does not vanish (tolerance {tol:.1e}); "
                "the orthogonal predictor requires an even pointer state"
            )


def predict_orthogonal(
    obs: Observable,
    pre: SystemState,
    post: PostSelection,
    g: float,
    pointer: PointerState,
    *,
    orth_threshold: float = ORTH_THRESHOLD,
) -> ShiftPrediction:
    """Leading-order pointer statistics for orthogonal selections.

    With A_ow the orthogonal weak value and an even pointer state,

        delta_q = g Re A_ow + g Im A_ow <p{q,p}p>/<p^2>
        delta_p = 2 g Im A_ow <p^4>/<p^2>
        var'_q  = <p q^2 p>/<p^2>,   var'_p = <p^4>/<p^2>

    (variances to zeroth order in g), and the post-selection probability is
    g^2 tr(P A rho A) <p^2>. The post-selected pointer is no longer a small
    displacement of the input: even at g -> 0 its moments are those of the
    p-filtered state. For a Gaussian of width delta_q the outgoing profile
    is double-peaked, with maxima at

        q = g Re A_ow +/- sqrt(2) delta_q
        p = g Im A_ow delta_p^2 +/- sqrt(2) delta_p.
    """
    _require_regime(overlap(post, pre), orth_threshold, orthogonal=True)
    if not pre.is_pure or not post.is_rank_one:
        raise UnsupportedMixedOrthogonal(
            "orthogonal-selection predictions are implemented for a pure "
            "pre-selection and a rank-1 post-selection only"
        )
    _require_even_pointer(pointer)
    report = orthogonal_weak_value(obs, pre, post, orth_threshold=orth_threshold)
    ow = report.value

    p2 = moment(pointer, p_power(2))
    p4 = moment(pointer, p_power(4))
    pbrace = moment(pointer, P_BRACE_P)
    pq2p = moment(pointer, PQ2P)

    peaks_q = peaks_p = None
    if isinstance(pointer, GaussianPointer):
        root2 = math.sqrt(2.0)
        q_center = g * ow.real
        p_center = g * ow.imag * pointer.var_p
        peaks_q = (q_center - root2 * pointer.delta_q, q_center + root2 * pointer.delta_q)
        peaks_p = (p_center - root2 * pointer.delta_p, p_center + root2 * pointer.delta_p)

    margin = weak_interaction_margin(g, pointer)
    _warn_margin(margin)
    return ShiftPrediction(
        regime="orthogonal",
        delta_q=g * ow.real + g * ow.imag * pbrace / p2,
        delta_p=2.0 * g * ow.imag * p4 / p2,
        success_prob=g**2 * report.denominator.real * p2,
        var_q_out=pq2p / p2,
        var_p_out=p4 / p2,
        peaks_q=peaks_q,
        peaks_p=peaks_p,
        margin_weak=margin,
        margin_aav=None,
    )


def predict_orthogonal_gaussian(
    obs: Observable,
    pre: SystemState,
    post: PostSelection,
    g: float,
    delta_q: float,
    *,
    orth_threshold: float = ORTH_THRESHOLD,
) -> ShiftPrediction:
    """`predict_orthogonal` for a Gaussian pointer of width ``delta_q``.

    For a Gaussian (var q = delta_q^2, var p = 1/(4 delta_q^2)) the
    orthogonal formulas reduce to

        delta_q = g Re A_ow            delta_p = 6 g Im A_ow var p
        var'_q  = 3 var q              var'_p  = 3 var p

    and ``peaks_q`` / ``peaks_p`` locate the two maxima of the
    double-peaked outgoing profile.
    """
    pred = predict_orthogonal(
        obs, pre, post, g, gaussian(delta_q), orth_threshold=orth_threshold
    )
    return replace(pred, regime="orthogonal-gaussian")


def predict(
    sc: Scenario, regime: str = "auto", *, orth_threshold: float = ORTH_THRESHOLD
) -> ShiftPrediction:
    """Closed-form prediction for a scenario.

    ``regime`` is ``auto``, ``aav``, ``general`` or ``orthogonal``. ``auto``
    routes on the selection overlap tr(P rho): `predict_general` above
    ``orth_threshold``, `predict_orthogonal` at or below it. The other
    values force that predictor, which raises its own regime error when the
    scenario lies outside it.
    """
    if regime == "auto":
        regime = "general" if overlap(sc.post, sc.pre) > orth_threshold else "orthogonal"
    # Built per call, so rebound module functions (such as tracing wrappers)
    # are the ones called.
    predictors = {
        "aav": predict_aav, "general": predict_general, "orthogonal": predict_orthogonal
    }
    if regime not in predictors:
        raise ValueError(
            f"regime must be 'auto' or one of {tuple(predictors)}, got {regime!r}"
        )
    return predictors[regime](
        sc.observable, sc.pre, sc.post, sc.g, sc.pointer, orth_threshold=orth_threshold
    )


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
        if not (0.0 <= self.alpha <= math.pi):
            raise ValueError(f"alpha must lie in [0, pi], got {self.alpha}")
        if not (0.0 < self.lmbda < 1.0):
            raise LambdaOutOfRange(
                f"lambda must lie in (0, 1), got {self.lmbda}"
            )
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
    if not (0.0 < lmbda < 1.0):
        raise LambdaOutOfRange(f"lambda must lie in (0, 1), got {lmbda}")
    alpha_opt = math.acos(0.5 * lmbda**2 - 1.0)
    outcome_max = 1.0 / math.sqrt(lmbda**2 - 0.25 * lmbda**4)
    return alpha_opt, outcome_max
