"""Amplification sweeps and optimum search over scenario families.

A scenario family maps one real parameter (a pre-selection angle, a
coupling, ...) to a full measurement scenario. This module evaluates an
amplification objective across the family -- with either the exact
evolution or the closed-form predictor as the engine -- and locates the
parameter maximizing it by golden-section search. The exact engine is
closed-form for Gaussian pointers (pairwise branch overlaps, no grid) and
runs the grid oracle `evolve_postselect` for grid pointers, so ``grid_n``
affects grid-pointer families only. The predicted engine is
`predictor.predict` in its ``auto`` regime, which routes each point on the
selection overlap and supplies the predicted success probability along
with the shifts. The canonical family is
the Stern-Gerlach arrangement `sg_family`, whose measured-value curve has
the known analytic optimum `sg_optimum`.

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
    HigherOrderOrthogonality,
    InvalidBracket,
    LambdaOutOfRange,
    NonPositiveDenominator,
    NotUnimodal,
    PointerNotEven,
    UnsupportedMixedOrthogonal,
    ValidityWarning,
    ZeroPostSelectionProbability,
)
from .oracle import _gaussian_exact, evolve_postselect
from .pointer import GaussianPointer, gaussian, validate_grid_n
from .predictor import predict
from .qops import SIGMA_Z, new_observable, projector_onto, pure_state
from .scenario import Scenario, make_scenario
from .weak_values import weak_interaction_margin

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

GOLDEN_TOL = 1e-9
MAX_GOLDEN_ITER = 200
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    """Result of a golden-section optimum search."""

    parameter_opt: float
    outcome_max: float
    iterations: int
    bracket: tuple[float, float]


def _check_choices(objective: str, engine: str, grid_n: int | None) -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "exact":
        # Checked up front: Gaussian families never reach the grid oracle.
        validate_grid_n(grid_n)


def _objective_value(objective: str, delta_q: float, delta_p: float, g: float) -> float | None:
    if objective == "delta_q":
        return delta_q
    if objective == "delta_p":
        return delta_p
    if g == 0.0:
        return None
    return delta_q / g


def _evaluate(
    sc: Scenario,
    objective: str,
    engine: str,
    grid_n: int | None,
) -> tuple[float | None, float]:
    """(outcome, success probability) for one scenario, or (None, 0)."""
    try:
        if engine == "predicted":
            pred = predict(sc)
            success, delta_q, delta_p = pred.success_prob, pred.delta_q, pred.delta_p
        elif isinstance(sc.pointer, GaussianPointer):
            success, delta_q, delta_p = _gaussian_exact(sc)
        else:
            rec = evolve_postselect(sc, grid_n=grid_n)
            success, delta_q, delta_p = rec.success_prob, rec.delta_q, rec.delta_p
        return _objective_value(objective, delta_q, delta_p, sc.g), success
    except (
        ZeroPostSelectionProbability,
        NonPositiveDenominator,
        HigherOrderOrthogonality,
        UnsupportedMixedOrthogonal,
        PointerNotEven,
    ):
        return None, 0.0


def sweep(
    family: Callable[[float], Scenario],
    params,
    objective: str = "delta_q",
    engine: str = "exact",
    *,
    grid_n: int | None = None,
) -> list[SweepRecord]:
    """Evaluate the objective across ``params``, a strictly increasing
    sequence of floats. Points where the objective is undefined (e.g. the
    post-selection never succeeds) are recorded with a null outcome rather
    than dropped.

    The exact engine is closed-form for Gaussian pointers and uses the grid
    oracle for grid pointers; ``grid_n`` sizes that grid and has no effect
    on Gaussian-pointer families.
    """
    _check_choices(objective, engine, grid_n)
    values = [float(p) for p in params]
    if not values:
        raise EmptyGrid("parameter sweep needs at least one grid point")
    for prev, cur in zip(values, values[1:]):
        if not cur > prev:
            raise ValueError(
                f"sweep grid must be strictly increasing, got {prev} before {cur}"
            )
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for param in values:
            sc = family(param)
            outcome, success = _evaluate(sc, objective, engine, grid_n)
            records.append(
                SweepRecord(
                    parameter=param,
                    outcome=outcome,
                    success_prob=success,
                    weak_margin=weak_interaction_margin(sc.g, sc.pointer),
                )
            )
    return records


def find_optimum(
    family: Callable[[float], Scenario],
    bracket: tuple[float, float],
    objective: str = "delta_q",
    engine: str = "exact",
    *,
    grid_n: int | None = None,
    tol: float = GOLDEN_TOL,
    max_iter: int = MAX_GOLDEN_ITER,
) -> OptimumReport:
    """Golden-section maximization of the objective over the bracket.

    Assumes the objective is unimodal across ``bracket``; when the located
    value falls below an endpoint value, NotUnimodal is raised. Undefined
    points count as minus infinity. The parameter is localized to ``tol``
    (floating-point curvature of the objective permitting). As in `sweep`,
    the exact engine is closed-form for Gaussian pointers and ``grid_n``
    affects grid-pointer families only.
    """
    _check_choices(objective, engine, grid_n)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or not (lo < hi):
        raise InvalidBracket(f"bracket must satisfy lo < hi, got ({lo}, {hi})")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)

        def f(x: float) -> float:
            outcome, _ = _evaluate(family(x), objective, engine, grid_n)
            return -math.inf if outcome is None else outcome

        f_lo, f_hi = f(lo), f(hi)
        a, b = lo, hi
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = f(c), f(d)
        iterations = 0
        while (b - a) > tol and iterations < max_iter:
            if fc < fd:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = f(d)
            else:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = f(c)
            iterations += 1
        x_opt = (a + b) / 2.0
        f_opt = f(x_opt)

    if not math.isfinite(f_opt):
        raise ZeroPostSelectionProbability(
            f"objective is undefined at the located parameter {x_opt!r}"
        )
    slack = 1e-12 * (1.0 + abs(f_opt))
    if f_opt + slack < max(f_lo, f_hi):
        raise NotUnimodal(
            f"located value {f_opt!r} falls below an endpoint value "
            f"({f_lo!r}, {f_hi!r}); the objective is not unimodal here"
        )
    return OptimumReport(
        parameter_opt=x_opt,
        outcome_max=f_opt,
        iterations=iterations,
        bracket=(lo, hi),
    )


def sg_family(lmbda: float, delta_q: float = 1.0) -> Callable[[float], Scenario]:
    """Stern-Gerlach scenario family parameterized by the angle alpha.

    The spin observable is sigma_z; the pre-selection points an angle alpha
    away (in the x-z plane) from the +x post-selection; the pointer is a
    Gaussian of width ``delta_q`` and the coupling is g = lambda * delta_q,
    so lambda is the beam displacement in units of the pointer width. The
    measured spin value delta_q/g follows the closed-form amplification
    curve of `stern_gerlach_outcome`.
    """
    if not (0.0 < lmbda < 1.0):
        raise LambdaOutOfRange(f"lambda must lie in (0, 1), got {lmbda}")
    pointer = gaussian(delta_q)
    obs = new_observable(SIGMA_Z)
    post = projector_onto(np.array([1.0, 1.0]) / math.sqrt(2.0))

    def family(alpha: float) -> Scenario:
        if not (0.0 <= alpha <= math.pi):
            raise ValueError(f"alpha must lie in [0, pi], got {alpha}")
        half = 0.25 * math.pi - 0.5 * alpha
        pre = pure_state(np.array([math.cos(half), math.sin(half)]))
        return make_scenario(obs, pre, post, lmbda * delta_q, pointer)

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
