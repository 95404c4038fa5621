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
T = c^T c* and the pointer's lag functions (`_pair_frame`: closed form for
a Gaussian, one FFT per branch for a grid pointer), for a stack of points
sharing the observable, g and the pointer. `success_probability` and the
amplifier read the pair kernel; only `evolve_postselect` runs the grid.

`series_device_state` instead truncates the Dyson expansion of the same
quantity at a chosen order, with every term expressed through generalized
(or, for orthogonal selections, orthogonal) weak values read from one
trace table of the kernel, making the successive-approximation structure
of the predictor formulas directly observable. Both regimes run one
expansion; the side, the threshold check and the conditioning denominator
come from `weak_values._route`, as for `predict`. Every order, order 0
included, comes from one coefficient list (`_series_coefficients`) that
feeds both densities, and each conjugate pair of cross terms is formed
once. The power table p^a phi (`pointer`) of a Gaussian pointer is closed
form, Hermite functions kept real with the phase i^a in the
coefficients, so each cross term is one real product; grid pointers take
theirs from the FFT spectrum, masked below SPECTRAL_FLOOR. The series
normalizes by its own truncated density, as the grid oracle does, and
refuses a bad order, grid size or regime before it allocates the grid.
`_series_sums` integrates the same coefficients against the pointer's
moment table: the scalars without a grid, which the predictors truncate.
"""

from __future__ import annotations

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
    MAX_GRID_N,
    SPECTRAL_FLOOR,
    TABLE_POWER,
    Density,
    GaussianPointer,
    PointerState,
    QGrid,
    _branch_p_table,
    _gaussian_p_table,
    _moment_table,
    _next_pow2,
    default_grid,
    gaussian_profile,
    moment,
    p_power,
    q_power,
    translate,
    validate_grid_n,
    variance_q,
)
from .qops import _frozen, _selection_kernel, _selection_traces
from .scenario import Scenario, validate_series_order
from .weak_values import (
    ORTH_THRESHOLD,
    _moment_amplitudes,
    _point_route,
    _route,
    _series_coefficients,
    _series_rows,
    weak_interaction_margin,
)

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


def _evolution_frame(
    sc: Scenario, grid_n: int | None
) -> tuple[QGrid, list[tuple[float, np.ndarray]]]:
    """Choose the working grid and lay the initial pointer branches on it.

    Gaussian pointers get a symmetric grid wide enough for the pointer and
    every eigenvalue translation and fine enough to resolve the pointer
    (`default_grid`). Grid pointers are zero-padded so the spectral
    translations cannot wrap. For both, ``grid_n`` is a floor on the size
    and never shrinks user data. Before anything of size n is allocated,
    `_require_frame` checks the grid can be built.
    """
    validate_grid_n(grid_n)
    pointer = sc.pointer
    if isinstance(pointer, GaussianPointer):
        grid = default_grid(pointer.delta_q, sc.g, grid_n)
        _require_frame(sc.g, grid.dq, grid.n)
        return grid, [(1.0, gaussian_profile(grid.coords(), pointer.delta_q))]
    base = pointer.grid
    amax = float(np.max(np.abs(sc.observable.eigenvalues)))
    sigma = math.sqrt(max(variance_q(pointer), 0.0))
    pad_cells = (abs(sc.g) * amax + 8.0 * sigma) / base.dq
    # A padding beyond the cap stays a float (it may be inf) for the guard.
    n_new = base.n + 2.0 * pad_cells
    if n_new <= MAX_GRID_N:
        n_new = _next_pow2(base.n + 2 * math.ceil(pad_cells))
    if grid_n is not None:
        n_new = max(n_new, grid_n)
    _require_frame(sc.g, base.dq, n_new)
    offset = (n_new - base.n) // 2
    grid = QGrid(q_min=base.q_min - offset * base.dq, dq=base.dq, n=n_new)
    branches = []
    for w, phi in pointer.branches:
        embedded = np.zeros(n_new, dtype=complex)
        embedded[offset : offset + base.n] = phi
        branches.append((w, embedded))
    return grid, branches


def _require_frame(g: float, dq: float, n: float) -> None:
    """The one frame guard: a working grid of at most MAX_GRID_N points
    whose dq * dq is finite (the momentum density's scale)."""
    if not (n <= MAX_GRID_N and math.isfinite(dq * dq)):
        raise GridTooSmall(
            f"g = {g:.3e} needs a working grid of n = {n:.6g} points spanning "
            f"{n * dq:.3e} (dq = {dq:.3e}); the grid holds at most {MAX_GRID_N} "
            "points with a finite dq^2"
        )


def _scenario_selections(scenarios: list[Scenario], n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The selection kernel (c, b) for scenarios sharing the observable."""
    posts, pres = [sc.post for sc in scenarios], [sc.pre for sc in scenarios]
    return _selection_kernel(posts, pres, scenarios[0].observable, n_max)


def _selection_amplitudes(sc: Scenario) -> np.ndarray:
    """c[(m, k), i] = sqrt(w_k) <f_m|a_i><a_i|psi_k>, over post-selection
    vectors f_m, mixture components (w_k, psi_k) and eigenvectors a_i."""
    return _scenario_selections([sc], 0)[0][0]


def _exact_components(
    sc: Scenario, grid_n: int | None
) -> tuple[QGrid, float, np.ndarray, np.ndarray]:
    """Exact evolution: returns (grid, N, q_density_num, p_density_num).

    The density numerators are unnormalized (they integrate to N); the
    momentum numerator is in FFT ordering.
    """
    grid, branches = _evolution_frame(sc, grid_n)
    shifts = sc.g * sc.observable.eigenvalues
    c = _selection_amplitudes(sc)
    q = grid.coords()
    p_scale = grid.dq**2 / (2.0 * math.pi)
    shifted = np.empty((shifts.size, grid.n), dtype=complex)
    qd = np.zeros(grid.n)
    pd = np.zeros(grid.n)
    for v_j, phi in branches:
        for i, shift in enumerate(shifts):
            if isinstance(sc.pointer, GaussianPointer):
                shifted[i] = gaussian_profile(q, sc.pointer.delta_q, float(shift))
            else:
                shifted[i] = translate(grid, phi, float(shift))
        for row in c:
            comp = row @ shifted
            qd += v_j * np.abs(comp) ** 2
            pd += (v_j * p_scale) * np.abs(np.fft.fft(comp)) ** 2
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
    order = np.fft.fftshift(np.arange(grid.n))
    p_coords = grid.momenta()[order]
    pd = pd_fft[order]
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
        q_density=Density(coords=_frozen(q), values=_frozen(qd)),
        p_density=Density(coords=_frozen(p_coords), values=_frozen(pd)),
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


def _pair_frame(sc: Scenario) -> tuple:
    """(g, zero, slope, lags) for `_exact_stacked`. With chi(x) =
    <phi|U_x phi>, chi_q(x) = <q phi|U_x phi>, chi_p(x) = <phi|p U_x phi>
    (U_x translates by x), zero = (chi(0), chi_q(0), chi_p(0)) and lags
    stacks, at x_ij = u_i - u_j (u = g a), dchi = chi(x) - chi(0),
    Q = chi_q(x) - chi_q(0) + u_j dchi and P = chi_p(x) - chi_p(0) + i slope x.
    A Gaussian's are closed form: dchi = expm1(-x^2 dp^2/2), Q = s dchi with
    s_ij = (u_i + u_j)/2 (the rest, x/2, has no real part against the pair
    table), slope = dp^2, P = -i dp^2 x dchi. A grid pointer's sum its
    weights W = |phi~|^2, conj((q phi)~) phi~, p |phi~|^2 (times dq/n) on
    `_evolution_frame(sc, None)`'s padded grid, where no lag wraps: with
    D_i = e^(-i p u_i) - 1, dchi_ij = sum W (D_i + D_j^* + D_i D_j^*).
    """
    u = sc.g * sc.observable.eigenvalues
    if isinstance(sc.pointer, GaussianPointer):
        var_p = sc.pointer.var_p
        x = u[:, None] - u[None, :]
        dchi = np.expm1(-0.5 * var_p * x**2)
        s_dchi = 0.5 * (u[:, None] + u[None, :]) * dchi
        return sc.g, (1.0, 0.0, 0.0), var_p, np.stack([dchi, s_dchi, -1j * var_p * x * dchi])
    grid, branches = _evolution_frame(sc, None)
    p, q = grid.momenta(), grid.coords()
    weights = np.zeros((3, grid.n), dtype=complex)
    for w, phi in branches:
        spectrum = np.fft.fft(phi)
        power = (w * grid.dq / grid.n) * (spectrum.real**2 + spectrum.imag**2)
        weights[0] += power
        weights[1] += (w * grid.dq / grid.n) * np.conj(np.fft.fft(q * phi)) * spectrum
        weights[2] += p * power
    # Modes where every weight is below SPECTRAL_FLOOR^2 of its peak (the
    # FFT's rounding floor) move no table by more than 2 n SPECTRAL_FLOOR^2
    # of that peak; a smooth pointer keeps about a hundred modes.
    mass = np.abs(weights)
    keep = (mass > SPECTRAL_FLOOR**2 * mass.max(axis=1, keepdims=True)).any(axis=0)
    p, weights = p[keep], weights[:, keep]
    # A row of ones, then D = -2 sin^2(p u/2) - i sin(p u), with no cancellation.
    half = 0.5 * np.multiply.outer(u, p)
    rows = np.vstack([np.ones_like(p), -2.0 * np.sin(half) ** 2 - 1j * np.sin(2.0 * half)])
    table = (weights[:, None, :] * rows) @ rows.conj().T
    lags = table[:, 1:, 1:] + table[:, 1:, :1] + table[:, :1, 1:]
    lags[1] += u * lags[0]
    return sc.g, table[:, 0, 0].real, 0.0, lags


def _exact_stacked(
    c: np.ndarray, b: np.ndarray, frame: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, delta_q, delta_p) arrays for B points sharing one `_pair_frame`,
    from their selection kernel c, b. Branch i is the pointer translated by
    u_i; with T = c^T c*, N = chi(0) |b_0|^2 + sum T dchi,
    N <q> = chi_q(0) |b_0|^2 + chi(0) g Re(b_1 b_0^*) + sum T Q and
    N <p> = chi_p(0) |b_0|^2 + 2 slope g Im(b_1 b_0^*) + sum T P. Near
    orthogonality N is a small remainder of O(1) terms, so the lag-0 parts
    come from b_0 = <f|psi> and b_1 = <f|A|psi>, summed before squaring, and
    only lag differences are summed over pairs. The shifts (from chi_q(0),
    chi_p(0)) are NaN, silently, wherever N is not above PROB_FLOOR or NaN.
    """
    g, zero, slope, lags = frame
    t = _selection_traces(b[:2])  # |b_0|^2 and b_1 b_0^*, summed over rows
    b0 = t[0, 0].real
    b1_b0 = g * t[1, 0]
    sums = ((np.swapaxes(c, 1, 2) @ c.conj())[:, None] * lags).sum(axis=(2, 3)).real
    n_total = zero[0] * b0 + sums[:, 0]
    n_safe = np.where(n_total > PROB_FLOOR, n_total, np.nan)
    delta_q = (zero[1] * b0 + zero[0] * b1_b0.real + sums[:, 1]) / n_safe - zero[1]
    delta_p = (zero[2] * b0 + 2.0 * slope * b1_b0.imag + sums[:, 2]) / n_safe - zero[2]
    return n_total, delta_q, delta_p


def _exact_scalars(sc: Scenario) -> tuple[float, float, float]:
    """Exact (success_prob, delta_q, delta_p) for any pointer, without a
    density: the batch of one of `_exact_stacked`. Raises
    ZeroPostSelectionProbability like `evolve_postselect`."""
    n_total, delta_q, delta_p = _exact_stacked(*_scenario_selections([sc], 1), _pair_frame(sc))
    _require_success(float(n_total[0]), PROB_FLOOR)
    return min(float(n_total[0]), 1.0), float(delta_q[0]), float(delta_p[0])


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
    It is `_exact_stacked`'s N, independent of the grid oracle and of
    ``grid_n``, and refuses what `evolve_postselect` would: a bad ``grid_n``
    or an unbuildable grid (on a Gaussian, `default_grid`'s, not allocated)."""
    validate_grid_n(grid_n)
    if isinstance(sc.pointer, GaussianPointer):
        grid = default_grid(sc.pointer.delta_q, sc.g, grid_n)
        _require_frame(sc.g, grid.dq, grid.n)
    n_total = float(_exact_stacked(*_scenario_selections([sc], 1), _pair_frame(sc))[0][0])
    return 0.0 if n_total < PROB_FLOOR else min(n_total, 1.0)


def _series_sums(
    pointer: PointerState, t: np.ndarray, side: int, denom, g: float, order: int
) -> np.ndarray:
    """The series' scalars without a grid: per-order increments
    (Z, Q_1, Q_2, P_1, P_2), shape (order + 1, 5, B), for B points sharing
    the pointer and g. Order n's densities integrate against q^j to
    Q_j = Re sum_k a[k] M[k+s, j, n-k+s] (Z = Q_0) and against p^j to
    P_j = Re(sum_k a[k]) <p^(n+2s+j)>, over the rows a of
    `_series_coefficients` (a pair's row stands for both its terms, M being
    Hermitian) and the pointer's `_moment_table` M; summed, N = lead Z,
    <q> = Q_1/Z and var q = Q_2/Z - <q>^2 (Nakamura, Nishizawa & Fujimoto,
    PRA 85, 012113 (2012)). An overflowing coefficient makes all sums NaN."""
    a = _series_coefficients(t, side, denom, g, order)
    a = a.reshape(a.shape[0], -1)
    sums = _series_weights(pointer, order, side) @ np.concatenate([a.real, a.imag])
    return sums.reshape(order + 1, 5, -1)


def _series_weights(pointer: PointerState, order: int, side: int) -> np.ndarray:
    """[Re W, -Im W] with Re(W @ a) = `_series_sums` for coefficient rows a:
    each order's rows against M[k+s, j, n-k+s] and <p^(n+2s+j)>, memoized
    on the pointer."""
    memo = pointer._tables
    if (order, side) not in memo:
        n, k = _series_rows(order)[:2]
        table = _moment_table(pointer, max(TABLE_POWER, order + side, (order + 2 * side + 3) // 2))
        powers = n[:, None] + (2 * side + 1, 2 * side + 2)
        weights = np.zeros((order + 1, 5, n.size), dtype=complex)
        weights[n, :3, np.arange(n.size)] = table[k + side, :, n - k + side]
        weights[n, 3:, np.arange(n.size)] = table[powers // 2, 0, powers - powers // 2]
        weights = weights.reshape(-1, n.size)
        memo[order, side] = _frozen(np.concatenate([weights.real, -weights.imag], axis=1))
    return memo[order, side]


def series_device_state(
    sc: Scenario, order: int, grid_n: int | None = None, *, orth_threshold: float = ORTH_THRESHOLD
) -> MeasurementRecord:
    """Pointer record from the weak-value expansion truncated at ``order``.

    Order n has one coefficient list a[k] = (-i g)^n/n! (-1)^k C(n, k)
    W(n-k, k), with W the generalized weak values, or for orthogonal
    selections (s = 1, one extra momentum operator on each side) the
    orthogonal ones. The position density gains Re sum_k a[k] p^(n-k+s) phi
    (p^(k+s) phi)^*, each conjugate pair (k, n-k) formed once, and
    Re sum_k a[k] is the momentum polynomial's coefficient of p^(n+2s).
    Like `evolve_postselect`, the record is conditioned on its own trace:
    the truncated position density's integral N_t divides both densities,
    and the success probability is the leading denominator (tr(P rho), or
    g^2 tr(P A rho A)) times N_t. A Gaussian pointer's table p^a phi and
    momentum density come in closed form (`_gaussian_p_table`); only grid
    pointers go through the masked spectrum of `_branch_p_table`.

    Every refusal comes before the working grid is allocated: the order,
    then ``grid_n``, then the regime, routed like `predict`
    (`weak_values._route`): ``orth_threshold`` must lie in (0, 1), and
    orthogonal selections whose leading response tr(P A rho A) vanishes too
    raise HigherOrderOrthogonality. Then the validity warning reads the
    pointer moments, and only then can the frame raise
    GridTooSmall. Raises SeriesDiverging when the per-order density terms
    stop decreasing (or the truncated normalization is not positive) -- the
    expansion is then meaningless at this coupling.
    """
    order = validate_series_order(order)
    validate_grid_n(grid_n)
    # One trace table t[m, l] = tr(P A^m rho A^l) serves every order.
    # Orthogonal selections put one momentum operator on each side (side = 1)
    # and condition on g^2 tr(P A rho A) instead of tr(P rho). The route
    # refuses before any pointer moment or grid work.
    b = _moment_amplitudes(sc.observable, sc.pre, sc.post, order + 1)
    _, t, side, denom = _point_route(_route(b, orth_threshold), orth_threshold)
    g = sc.g
    margin = weak_interaction_margin(g, sc.pointer)
    if margin >= SERIES_MARGIN_WARN:
        warnings.warn(
            f"weak-interaction margin {margin:.3g} >= {SERIES_MARGIN_WARN}; "
            "the truncated expansion may diverge",
            ValidityWarning,
            stacklevel=2,
        )
    lead = g * g * denom if side else denom

    grid, branches = _evolution_frame(sc, grid_n)
    gaussian = isinstance(sc.pointer, GaussianPointer)
    if gaussian:
        tables, m0, pk = _gaussian_p_table(
            grid, branches[0][1], sc.pointer.delta_q, order + side
        )
    else:
        tables, m0, pk = _branch_p_table(grid, branches, order + side)
    qd = np.zeros(grid.n)
    # Momentum-density polynomial in p, with the factor p^(2 side).
    p_poly = np.zeros(order + 2 * side + 1)
    sups: list[float] = []
    # One row per conjugate pair of cross terms (k, n - k), and the middle
    # term k = n/2: each product is formed once.
    coefficients = _series_coefficients(t, side, denom, g, order)
    first = _series_rows(order)[2]
    for n in range(order + 1):
        a = coefficients[first[n] : first[n] + n // 2 + 1]
        term = np.zeros(grid.n)
        for (w, _), powers in zip(branches, tables):
            for k, pair in enumerate(a):
                left, right = powers[n - k + side], powers[k + side]
                if gaussian:
                    # Real rows p^a phi / i^a: the product's phase i^(n - 2k)
                    # joins the scalar, leaving one real product.
                    term += (w * pair * _I_POWERS[(n - 2 * k) % 4]).real * (left * right)
                else:
                    term += np.real(w * pair * left * np.conj(right))
        qd += term
        p_poly[n + 2 * side] = a.sum().real
        sups.append(float(np.max(np.abs(term))))
        # Growth below SERIES_NOISE_FLOOR relative to the order-0 density
        # peak is roundoff flutter of a grid pointer's spectral power table
        # (converged tails sit at that scale), not divergence; genuine
        # divergence shows terms growing at the scale of the density itself.
        if (
            n >= 3
            and sups[-1] >= sups[-2] >= sups[-3]
            and sups[-1] > SERIES_NOISE_FLOOR * sups[0]
        ):
            raise SeriesDiverging(
                f"per-order density terms stopped decreasing at order {n} "
                f"(sup norms {sups[-3]:.3e}, {sups[-2]:.3e}, {sups[-1]:.3e}); "
                "the coupling is too strong for the expansion"
            )

    pd = m0 * np.polyval(p_poly[::-1], pk)
    norm = float(np.sum(qd) * grid.dq)
    if not norm > 0.0:
        raise SeriesDiverging(
            f"truncated normalization {norm:.3e} is not positive; the "
            "expansion is meaningless at this coupling"
        )
    tail = (sups[-1] / norm) if order else 0.0
    return _finish_record(
        sc, grid, lead * norm, qd / norm, pd / norm,
        method="truncated-series", series_order=order, tail_estimate=tail,
    )
