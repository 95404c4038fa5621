"""Amplification sweeps and optimum search over scenario families.

A scenario family maps one real parameter (a pre-selection angle, a
coupling, ...) to a full measurement scenario. This module evaluates an
amplification objective across the family -- with either the exact
evolution or the closed-form predictor as the engine -- and locates the
parameter maximizing it by Brent's method. The exact engine is the pair
kernel `oracle._exact_stacked` for every pointer (no grid size is taken,
and the grid oracle never runs). The predicted engine is `predict`'s
stacked kernel, routed like `predict` by `weak_values._route` at
ORTH_THRESHOLD: the order-2 series of `predictor.predict_general` above
the orthogonality threshold and the orthogonal series of
`predictor.predict_orthogonal` at or below it (any pointer, boosted ones
included), each with its predicted success probability. The canonical family is the
Stern-Gerlach arrangement `sg_family`, whose measured-value curve has the
known analytic optimum `sg_optimum`.

Points whose scenarios share the observable object, the pointer object and
g are evaluated in one array pass: one stack of the selection kernel
(`qops._selection_kernel`) feeds the engine's kernel
(`oracle._exact_stacked`, `predictor._predict_stacked`), and the
per-group constants -- the weak-interaction margin and the pair frame
-- are computed once; the pointer's moment table is memoized on the
pointer. A family author should therefore build
the observable and the pointer once, outside the closure, as `sg_family`
does; a family that builds them per point still works, one point per
kernel call. The optimum search evaluates one point at a time through
the same kernels and keeps the per-group constants between steps.

Points where the objective is undefined (post-selection never succeeds,
or the predictor does not apply) are recorded with a blank outcome instead
of aborting the sweep; validity warnings are suppressed here because every
record carries its own weak-interaction margin.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .errors import (
    EmptyGrid,
    InvalidBracket,
    NotUnimodal,
    ValidityWarning,
    ZeroPostSelectionProbability,
)
from .oracle import _exact_stacked, _pair_frame, _scenario_selections
from .pointer import gaussian
from .predictor import _check_alpha, _check_lambda, _predict_stacked
from .qops import SIGMA_Z, new_observable, projector_onto, pure_state
from .scenario import Scenario, make_scenario
from .weak_values import ORTH_THRESHOLD, _route, weak_interaction_margin

__all__ = [
    "OBJECTIVES",
    "ENGINES",
    "SweepRecord",
    "OptimumReport",
    "sweep",
    "find_optimum",
    "sg_family",
    "sweep_to_csv",
]

OBJECTIVES = ("delta_q", "delta_p", "measured")
ENGINES = ("exact", "predicted")

SEARCH_TOL = 1e-9
MAX_SEARCH_ITER = 200
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated point of an amplification sweep.

    ``outcome`` is None where the objective is undefined (zero
    post-selection probability or a broken-down predictor).
    """

    parameter: float
    outcome: float | None
    success_prob: float
    weak_margin: float


@dataclass(frozen=True)
class OptimumReport:
    """Result of `find_optimum`'s Brent search. ``iterations`` counts the
    search steps, one objective evaluation each; the three evaluations that
    start the search (both endpoints and the first interior point) are not
    counted."""

    parameter_opt: float
    outcome_max: float
    iterations: int
    bracket: tuple[float, float]


def _check_choices(objective: str, engine: str) -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")


def _group_key(sc: Scenario) -> tuple:
    """Scenarios with equal keys share the observable object, the pointer
    object and g (sign of zero included), and so one kernel frame."""
    return id(sc.observable), id(sc.pointer), sc.g, math.copysign(1.0, sc.g)


class _Evaluator:
    """Evaluates scenarios with one engine and objective, one kernel call per
    group of scenarios with one `_group_key`. The group constants (margin,
    pair frame) are kept for the last group seen, so a sequential search
    builds them once.
    """

    def __init__(self, objective: str, engine: str) -> None:
        self.objective, self.engine = objective, engine
        self._key: tuple | None = None
        self._held: tuple = ()
        self._frame: tuple = ()

    def _group_frame(self, sc: Scenario) -> tuple:
        """(weak margin, pair frame or None) of the scenario's group."""
        key = _group_key(sc)
        if key != self._key:
            # Holding the objects keeps their ids from being reused by
            # later ones while the key is cached.
            self._key, self._held = key, (sc.observable, sc.pointer)
            frame = _pair_frame(sc) if self.engine == "exact" else None
            self._frame = (weak_interaction_margin(sc.g, sc.pointer), frame)
        return self._frame

    def group(self, scenarios: list[Scenario]) -> list[tuple[float | None, float, float]]:
        """(outcome, success_prob, weak_margin) for scenarios of one group."""
        margin, frame = self._group_frame(scenarios[0])
        g = scenarios[0].g
        if self.engine == "predicted":
            _, b = _scenario_selections(scenarios, 2)
            fields = _predict_stacked(scenarios[0].pointer, g, _route(b, ORTH_THRESHOLD))
            success = np.where(np.isnan(fields.success), 0.0, fields.success)
            delta_q, delta_p = fields.delta_q, fields.delta_p
        else:
            n_total, delta_q, delta_p = _exact_stacked(*_scenario_selections(scenarios, 1), frame)
            success = np.where(np.isnan(delta_q), 0.0, np.minimum(n_total, 1.0))
        if self.objective == "delta_p":
            outcomes = delta_p
        elif self.objective == "delta_q":
            outcomes = delta_q
        elif g != 0.0:
            outcomes = delta_q / g
        else:
            outcomes = np.full(len(scenarios), np.nan)
        return [
            (None if math.isnan(out) else out, prob, margin)
            for out, prob in zip(outcomes.tolist(), success.tolist())
        ]


def sweep(
    family: Callable[[float], Scenario],
    params,
    objective: str = "delta_q",
    engine: str = "exact",
) -> list[SweepRecord]:
    """Evaluate the objective across ``params``, a strictly increasing
    sequence of floats. Points where the objective is undefined (e.g. the
    post-selection never succeeds) are recorded with a null outcome rather
    than dropped.

    Points whose scenarios share the observable object, the pointer object
    and g are evaluated together, in one array pass of the engine's kernel;
    so a family should build its observable and pointer once, outside the
    closure, as `sg_family` does. Points that share nothing are groups of
    one through the same kernel. The exact engine is the pair kernel for
    every pointer, one `oracle._pair_frame` per group. The predicted engine
    routes each point like `predict`, orthogonal selections included, in
    the same array pass.
    """
    _check_choices(objective, engine)
    values = [float(p) for p in params]
    if not values:
        raise EmptyGrid("parameter sweep needs at least one grid point")
    for prev, cur in zip(values, values[1:]):
        if not cur > prev:
            raise ValueError(
                f"sweep grid must be strictly increasing, got {prev} before {cur}"
            )
    evaluator = _Evaluator(objective, engine)
    results: list = [None] * len(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        scenarios = [family(param) for param in values]
        groups: dict[tuple, list[int]] = {}
        for i, sc in enumerate(scenarios):
            groups.setdefault(_group_key(sc), []).append(i)
        for members in groups.values():
            for i, res in zip(members, evaluator.group([scenarios[i] for i in members])):
                results[i] = res
    return [
        SweepRecord(parameter=param, outcome=outcome, success_prob=success, weak_margin=margin)
        for param, (outcome, success, margin) in zip(values, results)
    ]


def find_optimum(
    family: Callable[[float], Scenario],
    bracket: tuple[float, float],
    objective: str = "delta_q",
    engine: str = "exact",
) -> OptimumReport:
    """Maximize the objective over the bracket by Brent's method: parabolic
    interpolation through the three best points, with a golden-section step
    wherever the parabola is not trusted (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5).

    Assumes the objective is unimodal across ``bracket``; when the located
    value falls below an endpoint value, NotUnimodal is raised. Undefined
    points count as minus infinity; while one of the three points a
    parabola would pass through is undefined, the step is a golden-section
    step. The parameter is localized to SEARCH_TOL, an absolute tolerance
    with no term relative to the parameter's size, in at most
    MAX_SEARCH_ITER steps (floating-point curvature of the objective
    permitting); every evaluated point lies in the bracket. As in `sweep`,
    the exact engine is the pair kernel for every pointer.
    """
    _check_choices(objective, engine)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or not (lo < hi):
        raise InvalidBracket(f"bracket must satisfy lo < hi, got ({lo}, {hi})")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)

        evaluator = _Evaluator(objective, engine)

        def f(x: float) -> float:
            outcome, _, _ = evaluator.group([family(x)])[0]
            return -math.inf if outcome is None else outcome

        f_lo, f_hi = f(lo), f(hi)
        # Brent's method, maximizing: x is the best point so far, w the
        # second best and v the previous w; d is the last step and e the
        # one before it.
        a, b = lo, hi
        x = w = v = a + _CGOLD * (b - a)
        fx = fw = fv = f(x)
        d = e = 0.0
        iterations = 0
        while iterations < MAX_SEARCH_ITER:
            m = 0.5 * (a + b)
            if abs(x - m) <= 2.0 * SEARCH_TOL - 0.5 * (b - a):
                break
            golden = True
            # Never fit a parabola through an undefined (-inf) point.
            if abs(e) > SEARCH_TOL and all(map(math.isfinite, (fx, fw, fv))):
                r = (x - w) * (fx - fv)
                q = (x - v) * (fx - fw)
                p = (x - v) * q - (x - w) * r
                q = 2.0 * (q - r)
                p, q = (-p if q > 0.0 else p), abs(q)
                # Take the vertex only if it lies inside (a, b) and the step
                # is less than half the step before last.
                if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                    golden = False
                    e, d = d, p / q
                    if min(x + d - a, b - x - d) < 2.0 * SEARCH_TOL:
                        d = math.copysign(SEARCH_TOL, m - x)
            if golden:
                e = (a - x) if x >= m else (b - x)
                d = _CGOLD * e
            u = x + (d if abs(d) >= SEARCH_TOL else math.copysign(SEARCH_TOL, d))
            fu = f(u)
            iterations += 1
            if fu >= fx:
                a, b = (x, b) if u >= x else (a, x)
                v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
            else:
                a, b = (u, b) if u < x else (a, u)
                if fu >= fw or w == x:
                    v, w, fv, fw = w, u, fw, fu
                elif fu >= fv or v == x or v == w:
                    v, fv = u, fu

    if not math.isfinite(fx):
        raise ZeroPostSelectionProbability(
            f"objective is undefined at the located parameter {x!r}"
        )
    slack = 1e-12 * (1.0 + abs(fx))
    if fx + slack < max(f_lo, f_hi):
        raise NotUnimodal(
            f"located value {fx!r} falls below an endpoint value "
            f"({f_lo!r}, {f_hi!r}); the objective is not unimodal here"
        )
    return OptimumReport(
        parameter_opt=x,
        outcome_max=fx,
        iterations=iterations,
        bracket=(lo, hi),
    )


def sg_family(lmbda: float) -> Callable[[float], Scenario]:
    """Stern-Gerlach scenario family parameterized by the angle alpha.

    The spin observable is sigma_z; the pre-selection points an angle alpha
    away (in the x-z plane) from the +x post-selection; the pointer is a
    unit-width Gaussian and the coupling is g = lambda, so lambda is the
    beam displacement in units of the pointer width. The measured spin
    value delta_q/g depends on lambda alone and follows the closed-form
    amplification curve of `stern_gerlach_outcome`.
    """
    _check_lambda(lmbda)
    pointer = gaussian(1.0)
    obs = new_observable(SIGMA_Z)
    post = projector_onto(np.array([1.0, 1.0]) / math.sqrt(2.0))

    def family(alpha: float) -> Scenario:
        _check_alpha(alpha)
        half = 0.25 * math.pi - 0.5 * alpha
        pre = pure_state(np.array([math.cos(half), math.sin(half)]))
        return make_scenario(obs, pre, post, lmbda, pointer)

    return family


def sweep_to_csv(records, fh: TextIO) -> None:
    """Write sweep records as CSV (12 significant digits, blank for
    undefined outcomes)."""
    fh.write("parameter,outcome,success_prob,weak_margin\n")
    for rec in records:
        outcome = "" if rec.outcome is None else f"{rec.outcome:.12g}"
        fh.write(
            f"{rec.parameter:.12g},{outcome},"
            f"{rec.success_prob:.12g},{rec.weak_margin:.12g}\n"
        )
