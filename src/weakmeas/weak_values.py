"""Weak values and weakness diagnostics.

Covers the standard weak value tr(P A rho)/tr(P rho), its two-sided
generalization tr(P A^m rho A^l)/tr(P rho), and the orthogonal-selection
variant in which the leading response is carried by tr(P A rho A). All
three, and `selection_trace`, read their traces from the one selection
kernel (`qops._selection_kernel`) through one order check. `_route` is the
package's one regime decision, per-point arrays for a stack of any size:
it compares each overlap with the constant ORTH_THRESHOLD, which no other
module names. The weak values, `predict` and the amplifier's predicted
engine route through it. The truncated series needs no route: it expands
the raw traces, one expansion on both sides of the threshold.
`_point_route` raises one point's regime errors from those arrays, and
`_weak_ratio` is the one weak value. The two margin diagnostics quantify
how far a scenario sits from the linear-response and weak-interaction
regimes; predictions should only be trusted while they stay well below
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    HigherOrderOrthogonality,
    NotOrthogonal,
    OrderTooLarge,
    OrthogonalPPS,
)
from .pointer import MAX_WEAK_ORDER, PointerState, moment, p_power, variance_p
from .qops import Observable, PostSelection, SystemState, _is_integer
from .qops import _point_selections, _selection_overlaps, _selection_traces

__all__ = [
    "ORTH_THRESHOLD",
    "G2_THRESHOLD",
    "MAX_WEAK_ORDER",
    "WeakValueReport",
    "weak_value",
    "generalized_weak_value",
    "orthogonal_weak_value",
    "aav_margin",
    "weak_interaction_margin",
    "weak_interaction_margin_argmax",
]

# The selection overlap tr(P rho) at or below which `_route` takes the
# orthogonal side.
ORTH_THRESHOLD = 1e-12
G2_THRESHOLD = 1e-12
# Highest moment order the two margin diagnostics take their maximum over.
MARGIN_ORDER = 4


@dataclass(frozen=True)
class WeakValueReport:
    """A weak value together with the denominator that conditioned it.

    ``kind`` is one of ``standard``, ``generalized`` or ``orthogonal``;
    ``orders`` holds (m, l) for the two-sided kinds.
    """

    value: complex
    kind: str
    orders: tuple[int, int] | None
    denominator: complex


def _route(b: np.ndarray) -> tuple:
    """The one regime decision, for a stack of B points' moment amplitudes
    b_0..b_n (n >= 1): per-point arrays (ov, t, side, denom) with
    ov = tr(P rho), t[m, l] = tr(P A^m rho A^l), side True (orthogonal)
    where ov is at or below ORTH_THRESHOLD, and the conditioning
    denominator -- ov off side 1, tr(P A rho A) on it, NaN there unless
    tr(P A rho A) > G2_THRESHOLD."""
    ov = _selection_overlaps(b)
    t = _selection_traces(b)
    side = ov <= ORTH_THRESHOLD
    lead = t[1, 1].real
    return ov, t, side, np.where(side, np.where(lead > G2_THRESHOLD, lead, np.nan), ov)


def _point_route(
    route: tuple, orthogonal: bool | None = None
) -> tuple[float, np.ndarray, int, float]:
    """A one-point `_route` as (ov, t[:, :, 0], side, denom), raising the
    point's regime errors: a forced ``orthogonal`` raises NotOrthogonal /
    OrthogonalPPS off its side, and a NaN denom HigherOrderOrthogonality."""
    ovs, t, sides, denoms = route
    ov, side, denom = float(ovs[0]), int(sides[0]), float(denoms[0])
    if orthogonal and not side:
        raise NotOrthogonal(
            f"selection overlap {ov:.3e} exceeds {ORTH_THRESHOLD:.1e}; the "
            "selections are not orthogonal (use the standard weak values and "
            "the non-orthogonal predictors)"
        )
    if orthogonal is False and side:
        raise OrthogonalPPS(
            f"selection overlap {ov:.3e} is below {ORTH_THRESHOLD:.1e}; the "
            "selections are orthogonal (use the orthogonal weak value and "
            "predictor)"
        )
    if math.isnan(denom):
        raise HigherOrderOrthogonality(
            "tr(P A rho A) vanishes as well; the pointer response starts at "
            "higher order and no orthogonal weak value exists"
        )
    return ov, t[:, :, 0], side, denom


def _weak_ratio(t: np.ndarray, m: int, l: int, side: int, denom: float) -> complex:
    """tr(P A^(m+s) rho A^(l+s)) / (((m+1)(l+1))^s denom), s = side, from
    one point's traces t[m, l], the real and imaginary parts divided
    separately."""
    trace, scale = t[m + side, l + side], ((m + 1) * (l + 1)) ** side * denom
    return complex(trace.real / scale + 1j * (trace.imag / scale))


def _check_orders(m, l, cap: float = math.inf) -> tuple[int, int]:
    """The one check of a pair of trace orders: nonnegative integers
    (numpy integers included, bools refused) up to ``cap``, as ints."""
    for order in (m, l):
        if not _is_integer(order) or order < 0:
            raise ValueError(f"orders must be nonnegative integers, got ({m!r}, {l!r})")
    if max(m, l) > cap:
        raise OrderTooLarge(f"orders up to {cap} supported, got ({m}, {l})")
    return int(m), int(l)


def _weak_report(
    obs: Observable, pre: SystemState, post: PostSelection, m: int, l: int, kind: str
) -> WeakValueReport:
    """The three weak values: one order check, one kernel read, one route.
    The orthogonal kind shifts both orders by one and conditions on
    tr(P A rho A) instead of tr(P rho)."""
    m, l = _check_orders(m, l, MAX_WEAK_ORDER)
    b = _point_selections(post, pre, obs, max(m, l) + 1)[1]
    _, t, side, denom = _point_route(_route(b), kind == "orthogonal")
    value = _weak_ratio(t, m, l, side, denom)
    orders = None if kind == "standard" else (m, l)
    return WeakValueReport(value=value, kind=kind, orders=orders, denominator=complex(denom))


def selection_trace(
    obs: Observable, pre: SystemState, post: PostSelection, m: int, l: int
) -> complex:
    """tr(P A^m rho A^l) from the selection kernel (no order cap)."""
    m, l = _check_orders(m, l)
    b = _point_selections(post, pre, obs, max(m, l))[1]
    return complex(_selection_traces(b[[m, l]])[0, 1, 0])


def weak_value(obs: Observable, pre: SystemState, post: PostSelection) -> WeakValueReport:
    """Standard weak value tr(P A rho)/tr(P rho).

    Raises OrthogonalPPS when the selections are orthogonal within
    ORTH_THRESHOLD; use `orthogonal_weak_value` there instead.
    """
    return _weak_report(obs, pre, post, 1, 0, "standard")


def generalized_weak_value(
    obs: Observable, pre: SystemState, post: PostSelection, m: int, l: int
) -> WeakValueReport:
    """Two-sided weak value tr(P A^m rho A^l)/tr(P rho)."""
    return _weak_report(obs, pre, post, m, l, "generalized")


def orthogonal_weak_value(
    obs: Observable, pre: SystemState, post: PostSelection, m: int = 1, l: int = 0
) -> WeakValueReport:
    """Orthogonal-selection weak value.

    Defined as tr(P A^(m+1) rho A^(l+1)) / ((m+1)(l+1) tr(P A rho A));
    requires orthogonal selections and a nonvanishing tr(P A rho A).
    """
    return _weak_report(obs, pre, post, m, l, "orthogonal")


def aav_margin(
    obs: Observable,
    pre: SystemState,
    post: PostSelection,
    g: float,
    pointer: PointerState,
) -> float:
    """Linear-response validity diagnostic for pure rank-1 selections.

    Returns max over n = 1..MARGIN_ORDER of
    ``|g| dp |<f|A^n|i>|^(1/n) / |<f|i>|``; the first-order pointer-shift
    formula is trustworthy only while this is far below one. Orthogonal
    selections give the +inf sentinel.
    """
    b = _point_selections(post, pre, obs, MARGIN_ORDER)[1]
    if not pre.is_pure or not post.is_rank_one:
        raise ValueError("the linear-response margin is defined for rank-1 pure selections")
    return _aav_margin(b, g, pointer)


def _aav_margin(b: np.ndarray, g: float, pointer: PointerState) -> float:
    """`aav_margin` from one rank-1 pure point's moment amplitudes
    b_0..b_MARGIN_ORDER."""
    amps = np.abs(b[:, 0, 0]).tolist()
    if amps[0] == 0.0:
        return math.inf
    gdp = abs(g) * math.sqrt(variance_p(pointer))
    return max(gdp * amps[n] ** (1.0 / n) / amps[0] for n in range(1, len(amps)))


def weak_interaction_margin(g: float, pointer: PointerState) -> float:
    """Weak-interaction diagnostic max(|g| dp, max_n |g| |<p^n>|^(1/n)).

    For a Gaussian, <p^n>^(1/n) grows like sqrt(n), so this makes no claim
    about the supremum over all orders; it reports the max over
    n = 2..MARGIN_ORDER.
    """
    return weak_interaction_margin_argmax(g, pointer)[0]


def weak_interaction_margin_argmax(g: float, pointer: PointerState) -> tuple[float, int]:
    """Like `weak_interaction_margin` but also reports which term attained
    the max (n = 1 denotes the |g| dp term)."""
    best = abs(g) * math.sqrt(variance_p(pointer))
    best_n = 1
    for n in range(2, MARGIN_ORDER + 1):
        term = abs(g) * abs(moment(pointer, p_power(n))) ** (1.0 / n)
        if term > best:
            best, best_n = term, n
    return best, best_n
