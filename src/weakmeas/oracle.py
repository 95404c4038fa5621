"""Exact post-selected pointer evolution and its truncated expansion.

The impulsive interaction exp(-i g A p) entangles the system with the
pointer; post-selecting on a projector leaves the (unnormalized) pointer
state sum_m <f_m| exp(-i g A p) |psi> |phi>, whose position representation
is evaluated here exactly through the spectral decomposition of A: each
eigenvector component contributes the initial wavefunction rigidly
translated by g times its eigenvalue. No perturbative assumption enters, so
`evolve_postselect` serves as the ground truth the closed-form predictors
are checked against. Both exact engines read the one selection kernel
(`qops._selection_kernel`): the grid oracle sums each row of its amplitude
table c over the translated branches, and the pair kernel
`_exact_stacked` takes N, delta_q and delta_p without a density (Duck,
Stevenson & Sudarshan, Phys. Rev. D 40, 2112 (1989)) from the pair table
T = c^T c* and the pointer's lag functions (`pointer._lag_tables`), for a
stack of points sharing the observable, g and the pointer; what the stacks
share is bound once (`_exact_binding`).
`success_probability` and the amplifier read the pair kernel; only
`evolve_postselect` runs the grid. No engine here asks which kind of
pointer it holds: `pointer` lays it on the grid.

`series_device_state` instead truncates the Dyson expansion of the same
quantity at a chosen order, with every term expressed through the raw
selection traces tr(P A^m rho A^l) of one trace table of the kernel,
making the successive-approximation structure of the predictor formulas
directly observable. The traces are divided by no denominator, so one
expansion holds on both sides of the orthogonality threshold and the
series takes no route: the terms that carry b_0 = <f|psi> simply vanish
with it. Every order, order 0 included, comes from one coefficient list
(`_series_coefficients`) that feeds both densities, and each conjugate
pair of cross terms is formed once. Real rows of the power table
(`pointer._power_table`: p^a phi / i^a, a Gaussian's Hermite functions in
units of its width or a real grid branch's masked spectrum) leave the phase
i^a to the coefficients, so each cross term is one real product; complex
rows (a complex grid branch's) take the complex one. The truncated
density's integral is the success probability, and the series normalizes
by it, as the grid oracle does; a bad order or grid size is refused before
the grid is allocated.
`_series_sums` integrates the same coefficients against the pointer's
moment table: the scalars without a grid, which the predictors truncate.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridTooSmall,
    SeriesDiverging,
    ValidityWarning,
    ZeroPostSelectionProbability,
)
from .pointer import (
    _I_POWERS,
    TABLE_POWER,
    Density,
    PointerState,
    QGrid,
    _frame,
    _lag_tables,
    _moment_table,
    _power_table,
    _translated,
    _working_grid,
    moment,
    p_power,
    q_power,
    validate_grid_n,
)
from .qops import Observable, _freeze, _frozen, _point_selections, _selection_traces
from .scenario import Scenario, validate_series_order
from .weak_values import weak_interaction_margin

__all__ = [
    "PROB_FLOOR",
    "MeasurementRecord",
    "evolve_postselect",
    "success_probability",
    "series_device_state",
]

PROB_FLOOR = 1e-14
EDGE_TOL = 1e-12
NORM_TOL = 1e-8
SERIES_MARGIN_WARN = 0.5
SERIES_NOISE_FLOOR = 1e-8


@dataclass(frozen=True)
class MeasurementRecord:
    """Post-selected pointer statistics from one oracle evaluation.

    ``delta_q``/``delta_p`` are mean shifts relative to the initial pointer;
    variances are those of the outgoing densities. ``method`` is
    ``exact-spectral`` or ``truncated-series``; for the latter,
    ``series_order`` echoes the truncation order and ``tail_estimate`` is
    the sup-norm of the last included position-density term after
    normalization (zero at order 0). Truncated densities integrate to one
    but may dip slightly negative; that is the truncation error itself.
    """

    method: str
    success_prob: float
    delta_q: float
    delta_p: float
    var_q_out: float
    var_p_out: float
    q_density: Density
    p_density: Density
    series_order: int | None = None
    tail_estimate: float | None = None


def _exact_components(
    sc: Scenario, grid_n: int | None
) -> tuple[QGrid, float, np.ndarray, np.ndarray]:
    """Exact evolution: returns (grid, N, q_density_num, p_density_num).

    The density numerators are unnormalized (they integrate to N); the
    momentum numerator is in FFT ordering. They read the amplitudes c only
    through c^H c = R^H R, so at most d rows, those of QR's R = Q^H c, are
    summed; unlike c^H c's eigenvectors, R keeps an orthogonal selection's
    sum_i c_i = b_0 ~ 0 at roundoff.
    """
    shifts = sc.g * sc.observable.eigenvalues
    grid, branches = _frame(sc.pointer, sc.g, shifts, grid_n)
    c = _point_selections(sc.post, sc.pre, sc.observable)[0][0]
    if c.shape[0] > c.shape[1]:
        c = np.linalg.qr(c, mode="r")
    p_scale = grid.dq**2 / (2.0 * math.pi)
    qd = np.zeros(grid.n)
    pd = np.zeros(grid.n)
    for v_j, phi in branches:
        shifted = _translated(sc.pointer, grid, phi, shifts)
        for row in c:
            comp = row @ shifted
            qd += v_j * (comp.real**2 + comp.imag**2)
            spectrum = np.fft.fft(comp)
            pd += (v_j * p_scale) * (spectrum.real**2 + spectrum.imag**2)
    n_total = float(np.sum(qd) * grid.dq)
    return grid, n_total, qd, pd


def _check_edges(values: np.ndarray, label: str) -> None:
    peak = float(np.max(np.abs(values)))
    edge = max(abs(float(values[0])), abs(float(values[-1])))
    if peak > 0.0 and edge > EDGE_TOL * peak:
        raise GridTooSmall(
            f"{label} density has not decayed at the grid edges "
            f"(edge/peak = {edge / peak:.3e}); enlarge the grid"
        )


def _density_stats(coords: np.ndarray, values: np.ndarray, spacing: float) -> tuple[float, float]:
    mean = float(np.sum(coords * values) * spacing)
    var = float(np.sum((coords - mean) ** 2 * values) * spacing)
    return mean, var


def _finish_record(
    sc: Scenario,
    grid: QGrid,
    n_total: float,
    qd: np.ndarray,
    pd_fft: np.ndarray,
    method: str,
    series_order: int | None = None,
    tail_estimate: float | None = None,
) -> MeasurementRecord:
    p_coords = np.fft.fftshift(grid.momenta())
    pd = np.fft.fftshift(pd_fft)
    q = grid.coords()

    _check_edges(qd, "position")
    _check_edges(pd, "momentum")
    q_total = float(np.sum(qd) * grid.dq)
    p_total = float(np.sum(pd) * grid.dp)
    if abs(q_total - 1.0) > NORM_TOL or abs(p_total - 1.0) > NORM_TOL:
        raise GridTooSmall(
            f"normalization leaked through the grid (q: {q_total!r}, p: {p_total!r})"
        )

    q_mean, q_var = _density_stats(q, qd, grid.dq)
    p_mean, p_var = _density_stats(p_coords, pd, grid.dp)
    q0 = moment(sc.pointer, q_power(1))
    p0 = moment(sc.pointer, p_power(1))
    return MeasurementRecord(
        method=method,
        success_prob=min(n_total, 1.0),
        delta_q=q_mean - q0,
        delta_p=p_mean - p0,
        var_q_out=q_var,
        var_p_out=p_var,
        q_density=Density(coords=_freeze(q), values=_freeze(qd)),
        p_density=Density(coords=_freeze(p_coords), values=_freeze(pd)),
        series_order=series_order,
        tail_estimate=tail_estimate,
    )


def _require_success(n_total: float, prob_floor: float) -> None:
    # Written so that a NaN probability fails the check as well.
    if not n_total > prob_floor:
        raise ZeroPostSelectionProbability(
            f"post-selection succeeds with probability {n_total:.3e} "
            f"(floor {prob_floor:.1e}); no conditional pointer state exists"
        )


def _exact_binding(pointer: PointerState, g: float, obs: Observable) -> tuple:
    """What `_exact_stacked` shares across the stacks of one pointer, g and
    observable: g and the pointer's `_lag_tables` at u = g a."""
    return g, _lag_tables(pointer, g, g * obs.eigenvalues)


def _exact_stacked(bound: tuple, c: np.ndarray, b: np.ndarray, momenta: bool = True) -> tuple:
    """(N, delta_q, delta_p) arrays for B points sharing the observable, g
    and the pointer, delta_p only with ``momenta`` (else None), from their
    selection kernel c, b and the `_exact_binding` of the three: the
    pointer's lag tables at u = g a. Branch i is the pointer translated by
    u_i; with T = c^T c*, N = chi(0) |b_0|^2 + sum T dchi,
    N <q> = chi_q(0) |b_0|^2 + chi(0) g Re(b_1 b_0^*) + sum T Q and
    N <p> = chi_p(0) |b_0|^2 + 2 slope g Im(b_1 b_0^*) + sum T P. Near
    orthogonality N is a small remainder of O(1) terms, so the lag-0 parts
    come from b_0 = <f|psi> and b_1 = <f|A|psi>, summed before squaring, and
    only lag differences are summed over pairs. The shifts (from chi_q(0),
    chi_p(0)) are NaN, silently, wherever N is not above PROB_FLOOR or NaN.
    """
    g, (zero, slope, lags) = bound
    t = _selection_traces(b[:2])  # |b_0|^2 and b_1 b_0^*, summed over rows
    b0 = t[0, 0].real
    sums = ((np.swapaxes(c, 1, 2) @ c.conj())[:, None] * lags[: 2 + momenta]).sum(axis=(2, 3)).real
    n_total = zero[0] * b0 + sums[:, 0]
    b1_b0 = g * t[1, 0]
    n_safe = np.where(n_total > PROB_FLOOR, n_total, np.nan)
    delta_q = (zero[1] * b0 + zero[0] * b1_b0.real + sums[:, 1]) / n_safe - zero[1]
    delta_p = None
    if momenta:
        delta_p = (zero[2] * b0 + 2.0 * slope * b1_b0.imag + sums[:, 2]) / n_safe - zero[2]
    return n_total, delta_q, delta_p


def _exact_point(sc: Scenario, momenta: bool = True) -> tuple:
    """`_exact_stacked`'s batch of one: one scenario's (N, delta_q, delta_p)
    arrays of one point, delta_p only with ``momenta``."""
    bound = _exact_binding(sc.pointer, sc.g, sc.observable)
    return _exact_stacked(bound, *_point_selections(sc.post, sc.pre, sc.observable, 1), momenta)


def _exact_scalars(sc: Scenario) -> tuple[float, float, float]:
    """Exact (success_prob, delta_q, delta_p) for any pointer, without a
    density (`_exact_point`). Raises ZeroPostSelectionProbability like
    `evolve_postselect`."""
    n_total, delta_q, delta_p = (float(x[0]) for x in _exact_point(sc))
    _require_success(n_total, PROB_FLOOR)
    return min(n_total, 1.0), delta_q, delta_p


def evolve_postselect(sc: Scenario, grid_n: int | None = None) -> MeasurementRecord:
    """Exact post-selected pointer record via spectral translation.

    Raises ZeroPostSelectionProbability when the success probability is not
    above PROB_FLOOR (the conditional state is then undefined), and
    GridTooSmall when the outgoing densities reach the box edges.
    """
    grid, n_total, qd, pd = _exact_components(sc, grid_n)
    _require_success(n_total, PROB_FLOOR)
    return _finish_record(
        sc, grid, n_total, qd / n_total, pd / n_total, method="exact-spectral"
    )


def success_probability(sc: Scenario, grid_n: int | None = None) -> float:
    """Exact post-selection probability; values below PROB_FLOOR snap to 0.
    It is `_exact_point`'s N, independent of the grid oracle and of
    ``grid_n``, and refuses what `evolve_postselect` would: a bad ``grid_n``
    or an unbuildable grid (`pointer._working_grid`'s, not allocated)."""
    _working_grid(sc.pointer, sc.g, sc.g * sc.observable.eigenvalues, grid_n)
    n_total = float(_exact_point(sc, False)[0][0])
    return 0.0 if n_total < PROB_FLOOR else min(n_total, 1.0)


@functools.lru_cache(maxsize=None)
def _series_rows(order: int) -> tuple[np.ndarray, ...]:
    """The rows (n, k), k <= n/2, n <= order, of `_series_coefficients`, as
    read-only arrays: n, k, each order's first row, n! and the pair weight
    (2 for k < n/2, 1 for k = n/2) times (-1)^k C(n, k)."""
    n, k = np.array([(i, j) for i in range(order + 1) for j in range(i // 2 + 1)]).T
    signed = [(1 + (2 * j < i)) * (-1) ** j * math.comb(i, j) for i, j in zip(n, k)]
    rows = (n, k, np.flatnonzero(k == 0), [math.factorial(i) for i in n], np.array(signed, float))
    return tuple(_frozen(row) for row in rows)


def _series_factors(g: float, order: int) -> tuple:
    """The factors of `_series_coefficients` up to ``order`` at the coupling
    g, per row of `_series_rows`, as columns: (-i g)^n/n!, the pair weight
    times (-1)^k C(n, k), and the trace index (n - k, k). An overflowing g
    gives inf or NaN."""
    n, k, _, factorial, signed = _series_rows(order)
    return (np.complex128(-1j * g) ** n / factorial)[:, None], signed[:, None], (n - k, k)


def _series_coefficients(t: np.ndarray, factors: tuple) -> np.ndarray:
    """Every order's coefficient list from the raw traces
    t[m, l, p] = tr(P A^m rho A^l) of B points and the `_series_factors`
    of the coupling and order, rows as `_series_rows`.
    Order n's terms are a[k] = (-i g)^n/n! (-1)^k C(n, k) t[n-k, k]; as
    t[l, m] = t[m, l]^*, a[n-k] = a[k]^*, so each conjugate pair (k, n-k) is
    one row, 2 a[k], and the middle term k = n/2 another."""
    coeff, signed, index = factors
    return coeff * (signed * t[index])


def _series_binding(pointer: PointerState, g: float, order: int) -> tuple:
    """What `_series_sums` shares across the stacks of one pointer, g and
    order: the coefficient factors, the pointer's `_series_weights` and
    each order's first row."""
    weights = _series_weights(pointer, order)[:, :, None]
    return _series_factors(g, order), weights, _series_rows(order)[2]


def _series_sums(bound: tuple, t: np.ndarray) -> np.ndarray:
    """The series' scalars without a grid: per-order increments
    (Z, Q_1, Q_2, P_1, P_2), shape (order + 1, 5, B), for B points sharing
    the pointer and g of ``bound`` (`_series_binding`), from their traces
    t. Order n's densities integrate against q^j to
    Q_j = Re sum_k a[k] M[k, j, n-k] (Z = Q_0) and against p^j to
    P_j = Re(sum_k a[k]) <p^(n+j)>, over the rows a of
    `_series_coefficients` (a pair's row stands for both its terms, M being
    Hermitian) and the pointer's `_moment_table` M; summed, N = Z,
    <q> = Q_1/Z and var q = Q_2/Z - <q>^2 (Nakamura, Nishizawa & Fujimoto,
    PRA 85, 012113 (2012)). Each order sums its own rows, so a coefficient
    that overflows makes only its own order's sums NaN."""
    factors, weights, first = bound
    terms = (weights * _series_coefficients(t, factors)[:, None]).real
    return np.add.reduceat(terms, first, axis=0)


def _series_weights(pointer: PointerState, order: int) -> np.ndarray:
    """W[row, :] with Re(W a) the row's share of `_series_sums`: its
    M[k, j, n-k] and <p^(n+j)>, memoized on the pointer."""
    memo, key = pointer._tables, ("series", order)
    if key not in memo:
        n, k = _series_rows(order)[:2]
        # Size >= order and >= TABLE_POWER (4) holds <p^(order+2)> as well.
        table = _moment_table(pointer, max(TABLE_POWER, order))
        powers = n[:, None] + (1, 2)
        weights = np.empty((n.size, 5), dtype=complex)
        weights[:, :3] = table[k, :, n - k]
        weights[:, 3:] = table[powers // 2, 0, powers - powers // 2]
        memo[key] = _frozen(weights)
    return memo[key]


def series_device_state(sc: Scenario, order: int, grid_n: int | None = None) -> MeasurementRecord:
    """Pointer record from the weak-value expansion truncated at ``order``.

    Order n has one coefficient list a[k] = (-i g)^n/n! (-1)^k C(n, k)
    t[n-k, k] over the raw selection traces t[m, l] = tr(P A^m rho A^l),
    divided by no denominator, so one expansion serves orthogonal and
    non-orthogonal selections alike. The position density gains
    Re sum_k a[k] p^(n-k) phi (p^k phi)^*, each conjugate pair (k, n-k)
    formed once, and Re sum_k a[k] is the momentum polynomial's coefficient
    of p^n. The truncated position density's integral is the success
    probability and, as in `evolve_postselect`, divides both densities.
    Where the leading traces vanish (b_0 = <f|psi> = 0 for orthogonal
    selections), so do the first orders, and ``tail_estimate`` is O(1) at
    the selection's first nonzero order. The terms run in the unit of the
    power table (`pointer._power_table`; a Gaussian's width, so that nothing
    overflows), with coupling g / unit and momenta unit p.

    The order and then ``grid_n`` are refused before the working grid is
    allocated; then the validity warning reads the pointer moments, and
    only then can the frame raise GridTooSmall. Raises SeriesDiverging when
    the per-order density terms stop decreasing, from the first order whose
    traces are not negligible on, or the truncated probability lies outside
    [0, 1] -- the expansion is then meaningless at this coupling -- and
    ZeroPostSelectionProbability, as `evolve_postselect` does, when it is
    not above PROB_FLOOR.
    """
    order = validate_series_order(order)
    validate_grid_n(grid_n)
    # One trace table t[m, l] = tr(P A^m rho A^l) serves every order.
    t = _selection_traces(_point_selections(sc.post, sc.pre, sc.observable, order)[1])[:, :, 0]
    g = sc.g
    margin = weak_interaction_margin(g, sc.pointer)
    if margin >= SERIES_MARGIN_WARN:
        warnings.warn(
            f"weak-interaction margin {margin:.3g} >= {SERIES_MARGIN_WARN}; "
            "the truncated expansion may diverge",
            ValidityWarning,
            stacklevel=2,
        )

    grid, branches = _frame(sc.pointer, g, g * sc.observable.eigenvalues, grid_n)
    tables, m0, pk, unit = _power_table(sc.pointer, grid, branches, order)
    qd = np.zeros(grid.n)
    p_poly = np.zeros(order + 1)
    sups: list[float] = []
    # One row per conjugate pair of cross terms (k, n - k), and the middle
    # term k = n/2: each product is formed once.
    coefficients = _series_coefficients(t[:, :, None], _series_factors(g / unit, order))[:, 0]
    n_rows, k_rows, first = _series_rows(order)[:3]
    # The divergence guard measures growth from the first live order: one
    # whose traces are not negligible against their bound 1 (A has unit
    # spectral norm). An orthogonal selection's leading orders vanish
    # (b_0 = <f|psi> = 0), and their roundoff, climbing to the first live
    # order, is not divergence.
    live = np.maximum.reduceat(np.abs(t[n_rows - k_rows, k_rows]), first) > SERIES_NOISE_FLOOR
    lead = int(np.argmax(live)) if live.any() else order + 1
    for n in range(order + 1):
        a = coefficients[first[n] : first[n] + n // 2 + 1]
        term = np.zeros(grid.n)
        for (w, _), powers in zip(branches, tables):
            for k, pair in enumerate(a):
                left, right = powers[n - k], powers[k]
                if np.isrealobj(left):
                    # Real rows (unit^a p^a phi / i^a): the product's phase
                    # i^(n - 2k) joins the scalar, leaving one real product.
                    term += (w * pair * _I_POWERS[(n - 2 * k) % 4]).real * (left * right)
                else:
                    term += np.real(w * pair * left * np.conj(right))
        qd += term
        p_poly[n] = a.sum().real
        sups.append(float(np.max(np.abs(term))))
        # Growth below SERIES_NOISE_FLOOR relative to the first live order's
        # density term is roundoff flutter of a grid pointer's spectral power
        # table (converged tails sit at that scale), not divergence; genuine
        # divergence shows terms growing at the scale of the density itself.
        if (
            n >= lead + 3
            and sups[-1] >= sups[-2] >= sups[-3]
            and sups[-1] > SERIES_NOISE_FLOOR * sups[lead]
        ):
            raise SeriesDiverging(
                f"per-order density terms stopped decreasing at order {n} "
                f"(sup norms {sups[-3]:.3e}, {sups[-2]:.3e}, {sups[-1]:.3e}); "
                "the coupling is too strong for the expansion"
            )

    pd = m0 * np.polyval(p_poly[::-1], pk)
    norm = float(np.sum(qd) * grid.dq)
    if not 0.0 <= norm <= 1.0 + NORM_TOL:
        raise SeriesDiverging(
            f"truncated normalization {norm:.3e} lies outside [0, 1]; the "
            "expansion is meaningless at this coupling"
        )
    _require_success(norm, PROB_FLOOR)
    tail = (sups[-1] / norm) if order else 0.0
    return _finish_record(
        sc, grid, norm, qd / norm, pd / norm,
        method="truncated-series", series_order=order, tail_estimate=tail,
    )
