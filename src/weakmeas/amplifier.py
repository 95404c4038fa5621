"""Amplification sweeps and optimum search over scenario families.

A scenario family maps one real parameter (a pre-selection angle, a
coupling, ...) to a full measurement scenario. This module evaluates an
amplification objective across the family -- with either the exact
evolution or the closed-form predictor as the engine -- and locates the
parameter maximizing it by Brent's method. The exact engine is the pair
kernel `oracle._exact_stacked` for every pointer (no grid size is taken,
and the grid oracle never runs). The predicted engine is `predict`'s
stacked kernel, routed like `predict` by `weak_values._route`: one
series call per stack, the order 2 of `predictor.predict_general` above
the orthogonality threshold and the order 3 of
`predictor.predict_orthogonal` at or below it (any pointer, boosted ones
included), each with its predicted success probability. The canonical
family is the Stern-Gerlach arrangement `sg_family`, whose measured-value
curve has the known analytic optimum `sg_optimum`.

Points are evaluated as selection stacks: B points that share the
observable, the pointer and g, with their post-selection bases and
sqrt(w)-weighted pre-selection vectors as arrays (`scenario._SelectionStack`).
One stack is one array pass: the selection kernel (`qops._selection_kernel`)
feeds the engine's kernel (`oracle._exact_stacked`,
`predictor._predict_stacked`). `sg_family` offers its own stack (the
family's ``_stack``): the stack of a whole sweep grid is built in closed
form, with no scenario per point. Any other family returns one `Scenario` per
point; `sweep` stacks the scenarios that share the observable object, the
pointer object and g (`_group_key`) through `qops._selection_stack`. Such a
family should therefore build the observable and the pointer once, outside
the closure; one that builds them per point still works, one point per
kernel call. The optimum search evaluates a stack of one per step. The
pointer holds its own tables: the moment table, and the pair frame of the
last coupling (`pointer._lag_tables`), so this module caches nothing, and at
one coupling the pair frame is built once for the whole search.

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
from .oracle import _exact_stacked
from .pointer import gaussian
from .predictor import _check_alpha, _check_lambda, _predict_stacked
from .qops import SIGMA_Z, SystemState, _frozen, _selection_kernel, _selection_stack
from .qops import new_observable, projector_onto
from .scenario import Scenario, _SelectionStack
from .weak_values import _route, weak_interaction_margin

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
    object and g (sign of zero included), and so one selection stack. The
    key groups only within one call, whose scenario list keeps the ids
    alive."""
    return id(sc.observable), id(sc.pointer), sc.g, math.copysign(1.0, sc.g)


def _stacks(family: Callable[[float], Scenario], values: list[float]) -> list:
    """(point indices, selection stack) pairs covering ``values``: the
    family's own stack where it offers one (`sg_family`), else its scenarios
    grouped by `_group_key`. Every point is checked before any kernel
    runs."""
    own = getattr(family, "_stack", None)
    if own is not None:
        return [(range(len(values)), own(values))]
    scenarios = [family(param) for param in values]
    groups: dict[tuple, list[int]] = {}
    for i, sc in enumerate(scenarios):
        groups.setdefault(_group_key(sc), []).append(i)
    stacks = []
    for members in groups.values():
        sc = scenarios[members[0]]
        posts, pres = [scenarios[i].post for i in members], [scenarios[i].pre for i in members]
        stack = _SelectionStack(sc.observable, sc.pointer, sc.g, *_selection_stack(posts, pres))
        stacks.append((members, stack))
    return stacks


def _evaluate(stack: _SelectionStack, objective: str, engine: str) -> tuple[list, list]:
    """(outcomes, success probabilities) for the points of one selection
    stack, in one kernel call; an undefined outcome is NaN. The exact
    engine's pair frame is the pointer's memoized `_lag_tables`, so a search
    at one coupling builds it once."""
    g = stack.g
    if engine == "predicted":
        _, b = _selection_kernel(stack.fs, stack.psis, stack.observable, 3)
        fields = _predict_stacked(stack.pointer, g, _route(b))
        success = np.where(np.isnan(fields.success), 0.0, fields.success)
        delta_q, delta_p = fields.delta_q, fields.delta_p
    else:
        c, b = _selection_kernel(stack.fs, stack.psis, stack.observable, 1)
        n_total, delta_q, delta_p = _exact_stacked(stack.pointer, g, stack.observable, c, b)
        success = np.where(np.isnan(delta_q), 0.0, np.minimum(n_total, 1.0))
    if objective == "delta_p":
        outcomes = delta_p
    elif objective == "delta_q":
        outcomes = delta_q
    elif g != 0.0:
        outcomes = delta_q / g
    else:
        outcomes = np.full(len(delta_q), np.nan)
    return outcomes.tolist(), success.tolist()


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

    The points are evaluated as selection stacks, one array pass of the
    engine's kernel per stack. `sg_family` hands over the stack of the
    whole grid, built in closed form. Any other family gives one scenario
    per point; the points whose scenarios share the observable object, the
    pointer object and g are stacked together, so such a family should
    build its observable and pointer once, outside the closure, as
    `sg_family` does. Points that share nothing are stacks of one through
    the same kernel. The exact engine is the pair kernel for every
    pointer, on the pointer's memoized `_lag_tables`. The predicted engine
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
    results: list = [None] * len(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for members, stack in _stacks(family, values):
            margin = weak_interaction_margin(stack.g, stack.pointer)
            for i, out, prob in zip(members, *_evaluate(stack, objective, engine)):
                results[i] = (None if math.isnan(out) else out, prob, margin)
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

        def f(x: float) -> float:
            [(_, stack)] = _stacks(family, [x])
            outcome = _evaluate(stack, objective, engine)[0][0]
            return -math.inf if math.isnan(outcome) else outcome

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

    The family offers `sweep` and `find_optimum` its selection stack,
    built in closed form from the cosines and sines of the half-angles: one
    stack for a whole sweep grid, a stack of one per search step. A call
    for one angle returns the scenario of that angle's stack of one, so its
    pre-selection vector has the same bits either way.
    """
    _check_lambda(lmbda)
    g = float(lmbda)
    pointer = gaussian(1.0)
    obs = new_observable(SIGMA_Z)
    post = projector_onto(np.array([1.0, 1.0]) / math.sqrt(2.0))
    fs = post.basis[:, None, :]  # one post-selection, shared by every point

    def stack(alphas: list[float]) -> _SelectionStack:
        for alpha in alphas:
            _check_alpha(alpha)
        halves = [0.25 * math.pi - 0.5 * alpha for alpha in alphas]
        vecs = np.array([(math.cos(half), math.sin(half)) for half in halves])
        # `pure_state`'s normalization row by row: its squared norm is a dot
        # product, which a batched matmul rounds alike, and its division is
        # complex.
        norms = np.sqrt(vecs[:, None, :] @ vecs[:, :, None])[:, 0]
        psis = (vecs.astype(complex) / norms).T[:, :, None]
        return _SelectionStack(obs, pointer, g, fs, psis)

    def family(alpha: float) -> Scenario:
        pre = SystemState(dim=2, eigenmixture=((1.0, _frozen(stack([alpha]).psis[:, 0, 0])),))
        return Scenario(observable=obs, pre=pre, post=post, g=g, pointer=pointer)

    family._stack = stack
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
