"""Weak values and weakness diagnostics.

Covers the standard weak value tr(P A rho)/tr(P rho), its two-sided
generalization tr(P A^m rho A^l)/tr(P rho), and the orthogonal-selection
variant in which the leading response is carried by tr(P A rho A). All
three, and `selection_trace`, read their traces from the one selection
kernel (`qops._selection_kernel`), through one order check and one
threshold check against ORTH_THRESHOLD (the predictors and the series take
other thresholds through `_require_regime`). The two margin diagnostics
quantify how far a scenario sits from the linear-response and
weak-interaction regimes; predictions should only be trusted while they
stay well below one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HigherOrderOrthogonality,
    NotOrthogonal,
    OrderTooLarge,
    OrthogonalPPS,
)
from .pointer import PointerState, moment, p_power, variance_p
from .qops import Observable, PostSelection, SystemState
from .qops import _selection_kernel, _selection_overlaps, _selection_traces

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

ORTH_THRESHOLD = 1e-12
G2_THRESHOLD = 1e-12
MAX_WEAK_ORDER = 12


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


def _check_dims(obs: Observable, pre: SystemState, post: PostSelection) -> None:
    if not (obs.dim == pre.dim == post.dim):
        raise DimensionMismatch(
            f"dimensions differ: observable {obs.dim}, state {pre.dim}, projector {post.dim}"
        )


def _moment_amplitudes(
    obs: Observable, pre: SystemState, post: PostSelection, n_max: int
) -> np.ndarray:
    """The selection kernel's moment amplitudes b_0..b_n_max for one point."""
    _check_dims(obs, pre, post)
    return _selection_kernel([post], [pre], obs, n_max)[1]


def _selection_table(
    obs: Observable, pre: SystemState, post: PostSelection, n_max: int
) -> tuple[float, np.ndarray]:
    """(tr(P rho), t) for one point, t[m, l] = tr(P A^m rho A^l) for
    m, l <= n_max."""
    b = _moment_amplitudes(obs, pre, post, n_max)
    return float(_selection_overlaps(b)[0]), _selection_traces(b)[:, :, 0]


def _require_regime(ov: float, orth_threshold: float, orthogonal: bool) -> None:
    """The one threshold check on the selection overlap tr(P rho)."""
    if orthogonal and ov > orth_threshold:
        raise NotOrthogonal(
            f"selection overlap {ov:.3e} exceeds {orth_threshold:.1e}; the "
            "selections are not orthogonal (use the standard weak values and "
            "the non-orthogonal predictors)"
        )
    if not orthogonal and ov <= orth_threshold:
        raise OrthogonalPPS(
            f"selection overlap {ov:.3e} is below {orth_threshold:.1e}; the "
            "selections are orthogonal (use the orthogonal weak value and "
            "predictor)"
        )


def _require_leading(lead: float) -> None:
    """The orthogonal regime needs a nonvanishing tr(P A rho A)."""
    if not lead > G2_THRESHOLD:
        raise HigherOrderOrthogonality(
            "tr(P A rho A) vanishes as well; the pointer response starts at "
            "higher order and no orthogonal weak value exists"
        )


def _weak_report(
    obs: Observable, pre: SystemState, post: PostSelection, m: int, l: int, kind: str
) -> WeakValueReport:
    """The three weak values: one order check, one kernel read, one
    threshold check. The orthogonal kind shifts both orders by one and
    conditions on tr(P A rho A) instead of tr(P rho)."""
    if m < 0 or l < 0:
        raise ValueError("orders must be nonnegative")
    if m > MAX_WEAK_ORDER or l > MAX_WEAK_ORDER:
        raise OrderTooLarge(f"orders up to {MAX_WEAK_ORDER} supported, got ({m}, {l})")
    side = int(kind == "orthogonal")
    ov, t = _selection_table(obs, pre, post, max(m, l) + side)
    _require_regime(ov, ORTH_THRESHOLD, orthogonal=bool(side))
    denom = float(t[1, 1].real) if side else ov
    if side:
        _require_leading(denom)
    value = complex(t[m + side, l + side]) / (((m + 1) * (l + 1)) ** side * denom)
    orders = None if kind == "standard" else (m, l)
    return WeakValueReport(value=value, kind=kind, orders=orders, denominator=complex(denom))


def selection_trace(
    obs: Observable, pre: SystemState, post: PostSelection, m: int, l: int
) -> complex:
    """tr(P A^m rho A^l) from the selection kernel (no order cap)."""
    if m < 0 or l < 0:
        raise ValueError("orders must be nonnegative")
    b = _moment_amplitudes(obs, pre, post, max(m, l))
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
    n_max: int = 4,
) -> float:
    """Linear-response validity diagnostic for pure rank-1 selections.

    Returns max over n = 1..n_max of
    ``|g| dp |<f|A^n|i>|^(1/n) / |<f|i>|``; the first-order pointer-shift
    formula is trustworthy only while this is far below one. Orthogonal
    selections give the +inf sentinel.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    _check_dims(obs, pre, post)
    if not pre.is_pure or not post.is_rank_one:
        raise ValueError("the linear-response margin is defined for rank-1 pure selections")
    return _aav_margin(_moment_amplitudes(obs, pre, post, n_max), g, pointer)


def _aav_margin(b: np.ndarray, g: float, pointer: PointerState) -> float:
    """`aav_margin` from one rank-1 pure point's moment amplitudes
    b_0..b_n_max (n_max >= 1)."""
    amps = np.abs(b[:, 0, 0]).tolist()
    if amps[0] == 0.0:
        return math.inf
    gdp = abs(g) * math.sqrt(variance_p(pointer))
    return max(gdp * amps[n] ** (1.0 / n) / amps[0] for n in range(1, len(amps)))


def weak_interaction_margin(
    g: float, pointer: PointerState, n_max: int = 4
) -> float:
    """Weak-interaction diagnostic max(|g| dp, max_n |g| |<p^n>|^(1/n)).

    For a Gaussian, <p^n>^(1/n) grows like sqrt(n), so this makes no claim
    about the supremum over all orders; it reports the max up to ``n_max``
    (grid states support n_max <= 8).
    """
    return weak_interaction_margin_argmax(g, pointer, n_max)[0]


def weak_interaction_margin_argmax(
    g: float, pointer: PointerState, n_max: int = 4
) -> tuple[float, int]:
    """Like `weak_interaction_margin` but also reports which term attained
    the max (n = 1 denotes the |g| dp term)."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    best = abs(g) * math.sqrt(variance_p(pointer))
    best_n = 1
    for n in range(2, n_max + 1):
        term = abs(g) * abs(moment(pointer, p_power(n))) ** (1.0 / n)
        if term > best:
            best, best_n = term, n
    return best, best_n
