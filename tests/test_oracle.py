"""Exact post-selected evolution and the truncated weak-value expansion.

The exact spectral-translation oracle is the ground truth everything else
is measured against, so these tests pin it down from several independent
directions: closed-form special cases, symmetry arguments, convergence
orders of the predictor formulas, and internal consistency of the series.
"""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakmeas import (
    cli,
    density_state,
    evolve_postselect,
    gaussian,
    grid_state,
    make_scenario,
    new_observable,
    oracle,
    predict_aav,
    predict_general,
    projector,
    projector_onto,
    pure_state,
    scenario_to_wire,
    series_device_state,
    success_probability,
    variance_q,
)
from weakmeas.errors import (
    GridTooSmall,
    HigherOrderOrthogonality,
    OrderTooLarge,
    SeriesDiverging,
    ValidityWarning,
    ZeroPostSelectionProbability,
)
from weakmeas.oracle import (
    PROB_FLOOR,
    _exact_scalars,
    _require_success,
    _selection_amplitudes,
    _series_sums,
)
from weakmeas.pointer import _moment_table, default_grid, gaussian_profile, moment, p_power, q_power
from weakmeas.qops import SIGMA_X, _selection_kernel, _selection_traces
from weakmeas.scenario import MAX_SERIES_ORDER
from weakmeas.weak_values import ORTH_THRESHOLD, _moment_amplitudes, _point_route, _route

from support import (
    commuting_orthogonal,
    half_overlap_scenario,
    orthogonal_d3,
    orthogonal_idempotent,
    orthogonal_sigma_x,
    random_density,
    random_projector,
    random_scenario,
    rng,
    skewed_pointer,
    standard_amplitudes,
    standard_trace,
)


def _quiet_series(sc, order, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        return series_device_state(sc, order, **kwargs)


# --- closed-form special cases ------------------------------------------------


def test_eigenstate_preselection_translates_rigidly():
    a = new_observable(np.diag([1.0, 1.0 / 3.0, -2.0 / 3.0]))
    pre = pure_state([0.0, 1.0, 0.0])  # eigenvector with eigenvalue 1/3
    post = projector_onto(np.ones(3) / math.sqrt(3.0))
    sc = make_scenario(a, pre, post, 0.3, gaussian(1.0))
    rec = evolve_postselect(sc)
    assert rec.delta_q == pytest.approx(0.3 / 3.0, abs=1e-12)
    assert rec.delta_p == pytest.approx(0.0, abs=1e-12)
    assert rec.success_prob == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rec.var_q_out == pytest.approx(1.0, rel=1e-10)
    assert rec.method == "exact-spectral"


def test_commuting_arrangement_mixes_translates():
    # When A and rho commute and the projector accepts everything, the
    # outgoing density is the eigenvalue-translated mixture: the mean moves
    # to the weighted average and the momentum density never changes.
    a = new_observable(np.diag([1.0, -0.5]))
    rho = density_state(np.diag([0.7, 0.3]))
    sc = make_scenario(a, rho, projector(np.eye(2)), 0.4, gaussian(1.0))
    rec = evolve_postselect(sc)
    assert rec.success_prob == pytest.approx(1.0, abs=1e-12)
    assert rec.delta_q == pytest.approx(0.4 * (0.7 * 1.0 - 0.3 * 0.5), abs=1e-12)
    assert abs(rec.delta_p) < 1e-13
    assert rec.var_p_out == pytest.approx(0.25, rel=1e-10)


def test_success_probability_commuting_is_overlap():
    a = new_observable(np.diag([1.0, -0.5]))
    rho = density_state(np.diag([0.7, 0.3]))
    post = projector(np.diag([1.0, 0.0]))
    for g in (0.0, 0.1, 0.7):
        sc = make_scenario(a, rho, post, g, gaussian(1.0))
        assert success_probability(sc) == pytest.approx(0.7, abs=1e-12)


def test_fully_blocked_scenario():
    sc = commuting_orthogonal(0.02)
    assert success_probability(sc) == 0.0
    with pytest.raises(ZeroPostSelectionProbability):
        evolve_postselect(sc)


def test_mixed_state_orthogonal_exact():
    # Orthogonal selections with a mixed pre-selection: the exact oracle
    # handles them even though the closed-form predictor declines. Only the
    # branch connected through A contributes: N = 0.5 <sin^2(g p)>.
    a = new_observable(np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex))
    rho = density_state(np.diag([0.5, 0.5, 0.0]))
    post = projector_onto([0.0, 0.0, 1.0])
    g = 0.02
    sc = make_scenario(a, rho, post, g, gaussian(1.0))
    n = success_probability(sc)
    assert n == pytest.approx(0.5 * g**2 * 0.25, rel=1e-3)
    rec = evolve_postselect(sc)
    assert rec.delta_q == pytest.approx(0.0, abs=1e-10)  # A_ow-like response is even


def test_idempotent_observable_shifts_by_half():
    # For a projector-valued observable with orthogonal selections the
    # outgoing wavefunction is (phi(q-g) - phi(q))/2 up to normalization:
    # its density is exactly symmetric about g/2, at every coupling.
    for g in (0.04, 0.01):
        rec = evolve_postselect(orthogonal_idempotent(g))
        assert rec.delta_q / g == pytest.approx(0.5, abs=1e-12)
        assert rec.delta_p == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_sigma_x_limits():
    rec = evolve_postselect(orthogonal_sigma_x(0.02))
    assert rec.delta_q == pytest.approx(0.0, abs=1e-12)
    assert rec.var_q_out == pytest.approx(3.0, abs=2e-3)
    assert rec.var_p_out == pytest.approx(0.75, abs=5e-4)
    assert rec.success_prob == pytest.approx(1e-4, rel=5e-3)


# --- symmetries ------------------------------------------------------------------


def test_degenerate_eigenspace_basis_independence():
    # Rotating the selections by a unitary that acts inside a degenerate
    # eigenspace of A leaves every observable quantity unchanged.
    gen = rng(31)
    a = new_observable(np.diag([1.0, 0.5, 0.5]))
    psi = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    phi = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    theta = 0.83
    block = np.array(
        [
            [math.cos(theta), -math.sin(theta)],
            [math.sin(theta), math.cos(theta)],
        ]
    ) @ np.diag([np.exp(0.31j), np.exp(-0.92j)])
    u = np.eye(3, dtype=complex)
    u[1:, 1:] = block
    assert np.max(np.abs(u @ a.matrix - a.matrix @ u)) < 1e-12

    sc1 = make_scenario(a, pure_state(psi), projector_onto(phi), 0.05, gaussian(1.0))
    sc2 = make_scenario(
        a, pure_state(u @ psi), projector_onto(u @ phi), 0.05, gaussian(1.0)
    )
    r1, r2 = evolve_postselect(sc1), evolve_postselect(sc2)
    assert r1.success_prob == pytest.approx(r2.success_prob, rel=1e-12)
    assert r1.delta_q == pytest.approx(r2.delta_q, abs=1e-12)
    assert r1.delta_p == pytest.approx(r2.delta_p, abs=1e-12)
    assert float(np.max(np.abs(r1.q_density.values - r2.q_density.values))) < 1e-10


def test_observable_prescaling_is_invisible():
    # (3A, g/3) and (A, g) describe the same interaction.
    gen = rng(32)
    raw = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    raw = (raw + raw.conj().T) / 2.0
    psi = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    phi = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    sc1 = make_scenario(raw, pure_state(psi), projector_onto(phi), 0.06, gaussian(1.0))
    sc2 = make_scenario(
        3.0 * raw, pure_state(psi), projector_onto(phi), 0.02, gaussian(1.0)
    )
    r1, r2 = evolve_postselect(sc1), evolve_postselect(sc2)
    assert r1.delta_q == pytest.approx(r2.delta_q, abs=1e-13)
    assert r1.success_prob == pytest.approx(r2.success_prob, rel=1e-12)


# --- convergence of the closed-form predictors ------------------------------------


def _exact_delta_q(sc):
    return evolve_postselect(sc).delta_q


def test_first_and_second_order_convergence_rates():
    """With a generic (non-even) pointer profile, the first-order formula
    misses at second order (error ratio ~4 per halving) and the resummed
    second-order formula misses at third (ratio ~8): the orders are read off
    from the error decay against the exact oracle."""
    pt = skewed_pointer(1.0)
    couplings = (8e-3, 4e-3, 2e-3)
    err_aav, err_gen = [], []
    for g in couplings:
        sc = half_overlap_scenario(g, pt)
        exact = _exact_delta_q(sc)
        aav = predict_aav(sc.observable, sc.pre, sc.post, g, pt).delta_q
        gen = predict_general(sc.observable, sc.pre, sc.post, g, pt).delta_q
        err_aav.append(abs(exact - aav))
        err_gen.append(abs(exact - gen))
    for e0, e1 in zip(err_aav, err_aav[1:]):
        assert 3.2 < e0 / e1 < 4.8
    for e0, e1 in zip(err_gen, err_gen[1:]):
        assert 6.0 < e0 / e1 < 10.0


def test_even_pointer_suppresses_first_order_error():
    """For an even pointer profile (a Gaussian) the exact shift is an odd
    function of g, so the first-order formula is accidentally third-order
    accurate and its error ratio per halving is ~8, not ~4."""
    ratios = []
    for g in (8e-3, 4e-3):
        sc = half_overlap_scenario(g)
        exact = _exact_delta_q(sc)
        aav = predict_aav(sc.observable, sc.pre, sc.post, g, sc.pointer).delta_q
        ratios.append(abs(exact - aav))
    assert 6.0 < ratios[0] / ratios[1] < 10.0


# --- truncated expansion ------------------------------------------------------------


def test_order_zero_series_is_the_unperturbed_pointer():
    sc = half_overlap_scenario(0.05)
    rec = series_device_state(sc, 0)
    assert rec.method == "truncated-series"
    assert rec.series_order == 0
    assert rec.tail_estimate == 0.0
    assert rec.delta_q == pytest.approx(0.0, abs=1e-13)
    assert rec.var_q_out == pytest.approx(variance_q(sc.pointer), rel=1e-9)
    assert rec.success_prob == pytest.approx(0.5, abs=1e-12)


def test_order_zero_orthogonal_series_is_momentum_filtered():
    # At leading order the orthogonal conditional pointer is the p-filtered
    # state: variance <p q^2 p>/<p^2> - (<p q p>/<p^2>)^2 and success
    # g^2 tr(PArhoA) <p^2>.
    sc = orthogonal_sigma_x(0.02)
    rec = series_device_state(sc, 0)
    table = _moment_table(sc.pointer).real
    expected_var = table[1, 2, 1] / table[1, 0, 1] - (table[1, 1, 1] / table[1, 0, 1]) ** 2
    assert rec.var_q_out == pytest.approx(expected_var, rel=1e-9)
    assert rec.success_prob == pytest.approx(0.02**2 * 0.25, rel=1e-12)


@pytest.mark.parametrize("pointer_kind", ["gaussian", "grid"])
@pytest.mark.parametrize("selection", ["generic", "orthogonal"])
def test_grid_free_series_matches_the_series_records(pointer_kind, selection):
    # Integrated term by term against q^j and p^j, the series' densities
    # give its scalars from the pointer's moment table, with no grid:
    # N, both shifts and both variances equal the records' at every order.
    if pointer_kind == "gaussian":
        pointer = gaussian(1.2)
    else:
        pointer = skewed_pointer(1.0, half_span=16.0)
    if selection == "generic":
        sc = half_overlap_scenario(0.05, pointer)
    else:
        sc = orthogonal_d3(3, pointer)(0.05)
    b = _moment_amplitudes(sc.observable, sc.pre, sc.post, MAX_SERIES_ORDER + 1)
    _, t, side, denom = _point_route(_route(b, ORTH_THRESHOLD), ORTH_THRESHOLD)
    assert side == (selection == "orthogonal")
    lead = sc.g * sc.g * denom if side else denom
    sums = _series_sums(sc.pointer, t, side, denom, sc.g, MAX_SERIES_ORDER)
    q0, p0 = moment(sc.pointer, q_power(1)), moment(sc.pointer, p_power(1))
    for order in range(MAX_SERIES_ORDER + 1):
        rec = _quiet_series(sc, order)
        z, q1, q2, p1, p2 = sums[: order + 1].sum(axis=0)
        mean_q, mean_p = q1 / z, p1 / z
        grid_free = (lead * z, mean_q - q0, mean_p - p0, q2 / z - mean_q**2, p2 / z - mean_p**2)
        recorded = (rec.success_prob, rec.delta_q, rec.delta_p, rec.var_q_out, rec.var_p_out)
        for mine, ref in zip(grid_free, recorded):
            assert abs(mine - ref) <= 1e-13 * abs(ref) + 1e-15, (order, mine, ref)


def test_series_converges_to_exact():
    sc = half_overlap_scenario(0.04)
    exact = evolve_postselect(sc)
    sups, shifts = [], []
    for order in (2, 4, 8):
        rec = series_device_state(sc, order)
        sups.append(float(np.max(np.abs(rec.q_density.values - exact.q_density.values))))
        shifts.append(abs(rec.delta_q - exact.delta_q))
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 1e-10
    assert shifts[2] < 1e-12
    assert exact.success_prob == pytest.approx(
        series_device_state(sc, 8).success_prob, rel=1e-10
    )


def test_series_converges_to_exact_orthogonal():
    for builder in (orthogonal_sigma_x, orthogonal_idempotent):
        sc = builder(0.02)
        exact = evolve_postselect(sc)
        rec = series_device_state(sc, 6)
        sup = float(np.max(np.abs(rec.q_density.values - exact.q_density.values)))
        assert sup < 1e-9
        assert rec.delta_q == pytest.approx(exact.delta_q, abs=1e-11)
        assert rec.success_prob == pytest.approx(exact.success_prob, rel=1e-8)


def test_series_density_normalized_at_every_order():
    non_orth = half_overlap_scenario(0.05)
    orth = orthogonal_sigma_x(0.02)
    for sc in (non_orth, orth):
        for order in range(0, 7):
            rec = series_device_state(sc, order)
            assert abs(rec.q_density.total() - 1.0) < 1e-12
            assert abs(rec.p_density.total() - 1.0) < 1e-12


def test_series_tail_estimate_shrinks():
    sc = half_overlap_scenario(0.04)
    tails = [series_device_state(sc, order).tail_estimate for order in (2, 5, 8)]
    assert tails[0] > tails[1] > tails[2] > 0.0


def _near_orthogonal(g):
    """Nearly orthogonal selections: the weak values grow to ~1/sqrt(ov)."""
    a = new_observable(np.diag([1.0, 0.35]))
    psi = np.array([0.8, 0.36 + 0.48j])
    perp = np.array([-np.conj(psi[1]), np.conj(psi[0])])
    post = projector_onto(0.01 * psi + perp)
    return make_scenario(a, pure_state(psi), post, g, gaussian(1.0))


def test_series_divergence_detected():
    # At g = 2 the per-order sup norms grow from the first orders on
    # (about 8.7, 278, 414 over orders 1-3) and the truncation refuses.
    with pytest.raises(SeriesDiverging, match="at order 3"):
        _quiet_series(_near_orthogonal(2.0), 12)


def test_series_converges_near_orthogonality_at_a_moderate_coupling():
    # The large weak values still leave the expansion convergent at g = 0.2:
    # order 12 reproduces the exact density, and nothing is refused.
    sc = _near_orthogonal(0.2)
    exact, rec = evolve_postselect(sc), _quiet_series(sc, 12)
    sup = float(np.max(np.abs(rec.q_density.values - exact.q_density.values)))
    assert sup <= 1e-10 * float(np.max(exact.q_density.values))


def test_series_raises_higher_order_orthogonality_beyond_second_order():
    # The same error `predict` and `orthogonal_weak_value` raise here: the
    # series takes its route from the one route function.
    with pytest.raises(HigherOrderOrthogonality):
        series_device_state(commuting_orthogonal(0.02), 4)


def test_series_order_validation():
    sc = half_overlap_scenario(0.05)
    with pytest.raises(OrderTooLarge):
        series_device_state(sc, 17)
    for bad in (-1, True, 2.0, 2.5, "2"):
        with pytest.raises(ValueError, match="series order"):
            series_device_state(sc, bad)
    # A numpy integer is an order like any other.
    rec, ref = series_device_state(sc, np.int64(4)), series_device_state(sc, 4)
    assert type(rec.series_order) is int and rec.series_order == 4
    assert (rec.delta_q, rec.delta_p, rec.success_prob) == (
        ref.delta_q, ref.delta_p, ref.success_prob
    )


def test_series_normalizes_by_its_own_density():
    # A grid pointer whose norm is 1 + 9e-11, inside grid_state's 1e-10
    # tolerance. The exact oracle conditions on its own trace; so must the
    # series, or its success probability inherits the pointer's norm error.
    n, half = 4096, 10.0
    dq = 2.0 * half / n
    q = -half + dq * np.arange(n)
    phi = np.exp(-q * q / 4.0)
    phi = phi / math.sqrt(float(np.sum(phi * phi) * dq)) * math.sqrt(1.0 + 9e-11)
    sc = make_scenario(
        [[0, 1], [1, 0]], [1.0, 0.3], [0.6, 0.8], 0.02,
        grid_state(-half, dq, n, [(1.0, phi)]),
    )
    exact, rec = evolve_postselect(sc), series_device_state(sc, 8)
    assert rec.success_prob == pytest.approx(exact.success_prob, rel=1e-13, abs=0.0)


def test_series_refuses_a_bad_threshold_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="orth_threshold"):
            series_device_state(
                half_overlap_scenario(0.02), 4, grid_n=1 << 22, orth_threshold=math.nan
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_series_regime_error_precedes_grid_too_small():
    # The regime is routed before the frame is built, so a regime error wins
    # over GridTooSmall (g = 1e200 cannot be gridded).
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        with pytest.raises(HigherOrderOrthogonality):
            series_device_state(commuting_orthogonal(1e200), 2)


def test_series_bad_grid_n_precedes_a_bad_threshold():
    with pytest.raises(ValueError, match="grid_n"):
        series_device_state(half_overlap_scenario(0.02), 4, grid_n=3, orth_threshold=math.nan)


# --- random cross-checks --------------------------------------------------------------


def test_series_matches_exact_on_random_scenarios():
    gen = rng(33)
    for _ in range(10):
        sc = random_scenario(gen, g_dp_max=0.02, min_overlap=0.05)
        exact = evolve_postselect(sc)
        rec = _quiet_series(sc, 12)
        sup = float(np.max(np.abs(rec.q_density.values - exact.q_density.values)))
        assert sup < 1e-8
        assert abs(rec.delta_q - exact.delta_q) < 1e-10


def _two_branch_pointer():
    """A mixed grid pointer: two skewed branches (weights 0.6 and 0.4) on one
    grid, so the series must weight each branch's terms."""
    first, second = skewed_pointer(1.0, skew=0.35), skewed_pointer(1.0, skew=-0.25)
    branches = [(0.6, first.branches[0][1]), (0.4, second.branches[0][1])]
    grid = first.grid
    return grid_state(grid.q_min, grid.dq, grid.n, branches)


@pytest.mark.parametrize("kind", ["general", "orthogonal"])
def test_series_matches_exact_on_a_two_branch_pointer(kind):
    ptr = _two_branch_pointer()
    if kind == "general":
        sc = half_overlap_scenario(0.04, ptr)
    else:
        sc = make_scenario(SIGMA_X, [1.0, 0.0], [0.0, 1.0], 0.02, ptr)
    exact = evolve_postselect(sc)
    rec = _quiet_series(sc, 10)
    peak = float(np.max(exact.q_density.values))
    sup = float(np.max(np.abs(rec.q_density.values - exact.q_density.values)))
    assert sup < 1e-6 * peak
    assert abs(rec.delta_q - exact.delta_q) < 1e-9
    assert abs(rec.delta_p - exact.delta_p) < 1e-9
    assert rec.success_prob == pytest.approx(exact.success_prob, rel=1e-10)


def _sampled_gaussian(delta_q, g):
    """The Gaussian pointer sampled as a grid pointer on the lattice of its
    own working grid, extended to twice that box (+-20 delta_q at weak
    coupling), where its FFT power table has no edge to amplify."""
    box = default_grid(delta_q, g)
    q_min = box.q_min - (box.n // 2) * box.dq
    q = q_min + box.dq * np.arange(2 * box.n)
    return grid_state(q_min, box.dq, 2 * box.n, [(1.0, gaussian_profile(q, delta_q))])


@pytest.mark.parametrize("order", [8, 12])
@pytest.mark.parametrize("kind", ["general", "orthogonal"])
def test_gaussian_power_table_matches_the_sampled_pointer(kind, order):
    # The closed-form (Hermite) table of the Gaussian against the FFT table
    # of the same pointer as grid samples: the Gaussian's working grid is a
    # sub-lattice of the grid pointer's, in position and in momentum.
    g = 0.1
    def build(ptr):
        if kind == "general":
            return half_overlap_scenario(g, ptr)
        return make_scenario(SIGMA_X, [1.0, 0.0], [0.0, 1.0], g, ptr)

    closed = _quiet_series(build(gaussian(1.0)), order)
    sampled = _quiet_series(build(_sampled_gaussian(1.0, g)), order)
    qc, qs = closed.q_density, sampled.q_density
    start = round((qc.coords[0] - qs.coords[0]) / qc.spacing)
    window = slice(start, start + qc.coords.size)
    np.testing.assert_allclose(qs.coords[window], qc.coords, rtol=0, atol=1e-12)
    assert np.max(np.abs(qs.values[window] - qc.values)) <= 1e-12 * np.max(qc.values)
    pc, ps = closed.p_density, sampled.p_density
    stride = ps.coords.size // pc.coords.size
    np.testing.assert_allclose(ps.coords[::stride], pc.coords, rtol=0, atol=1e-12)
    assert np.max(np.abs(ps.values[::stride] - pc.values)) <= 1e-12 * np.max(pc.values)
    # The orthogonal shifts vanish by symmetry; tail estimates reach 1e-22.
    for field in ("success_prob", "delta_q", "delta_p", "var_q_out", "var_p_out",
                  "tail_estimate"):
        assert getattr(closed, field) == pytest.approx(
            getattr(sampled, field), rel=1e-12, abs=1e-15
        ), field


def _unitary(gen, dim):
    raw = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return np.linalg.qr(raw)[0]


# Hypothesis draws for `_drawn_scenario`, shared by the property tests.
SCENARIO_DRAWS = dict(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 5),
    spectrum=st.sampled_from(["generic", "degenerate", "projector"]),
    mixed=st.booleans(),
    selection=st.sampled_from(["generic", "near-orthogonal", "orthogonal"]),
    g=st.floats(0.01, 0.3),
    delta_q=st.floats(0.5, 2.0),
)


def _drawn_scenario(seed, dim, spectrum, mixed, selection, g, delta_q):
    """A scenario across the valid regime: generic, degenerate or projector
    spectra; pure or mixed pre-selections; post-selections of any rank
    below dim, generic, near-orthogonal or orthogonal to the pre-selection."""
    gen = rng(seed)
    u = _unitary(gen, dim)
    if spectrum == "generic":
        evals = gen.uniform(-1.0, 1.0, dim)
    elif spectrum == "degenerate":
        evals = gen.choice([1.0, -0.4], dim)
        evals[:2] = evals[0]
    else:
        evals = (np.arange(dim) < gen.integers(1, dim)).astype(float)
    obs = new_observable((u * evals) @ u.conj().T)

    # The pre-selection lives on the first k columns of a random frame; the
    # post-selection (rank below dim) leans on its complement.
    frame = _unitary(gen, dim)
    k = int(gen.integers(1, dim)) if mixed else 1
    if mixed:
        span = frame[:, :k]
        pre = density_state(span @ random_density(gen, k).matrix @ span.conj().T)
    else:
        pre = pure_state(frame[:, 0])
    rank = int(gen.integers(1, dim - k + 1))
    post_vecs = frame[:, k : k + rank].copy()
    if selection == "generic":
        post_vecs += frame[:, :k] @ (gen.standard_normal((k, rank)) + 0j)
    elif selection == "near-orthogonal":
        post_vecs[:, 0] += gen.uniform(0.01, 0.1) * frame[:, 0]
    post = projector_onto(*post_vecs.T)
    return make_scenario(obs, pre, post, g, gaussian(delta_q))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(**SCENARIO_DRAWS)
def test_gaussian_closed_form_matches_grid_oracle(
    seed, dim, spectrum, mixed, selection, g, delta_q
):
    sc = _drawn_scenario(seed, dim, spectrum, mixed, selection, g, delta_q)
    try:
        rec = evolve_postselect(sc)
    except ZeroPostSelectionProbability:
        rec = None
    # Rounding <f|psi> (zero for orthogonal selections) moves the exact
    # shifts of either engine by about 1e-17 |<f|g A|psi>| / N, so a 1e-12
    # check needs N above about 1e-6; the floor itself is tested below.
    assume(rec is not None and rec.success_prob > 1e-6)
    n_total, delta_q_cf, delta_p_cf = _exact_scalars(sc)
    assert abs(n_total - rec.success_prob) <= 1e-12
    assert abs(delta_q_cf - rec.delta_q) <= 1e-12
    assert abs(delta_p_cf - rec.delta_p) <= 1e-12


def _drawn_grid_pointer(kind):
    """A skewed grid pointer, the same boosted by e^(0.4 i q), or the
    two-branch mixture."""
    if kind == "two-branch":
        return _two_branch_pointer()
    base = skewed_pointer(1.0)
    if kind == "skewed":
        return base
    grid, (_, phi) = base.grid, base.branches[0]
    return grid_state(grid.q_min, grid.dq, grid.n, [(1.0, phi * np.exp(0.4j * grid.coords()))])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    **{**SCENARIO_DRAWS, "dim": st.integers(2, 3), "g": st.floats(0.005, 1.0)},
    pointer=st.sampled_from(["skewed", "boosted", "two-branch"]),
)
def test_pair_kernel_matches_grid_oracle_on_grid_pointers(
    seed, dim, spectrum, mixed, selection, g, delta_q, pointer
):
    # The pair kernel reads a grid pointer's lag functions from its
    # spectrum; the grid oracle translates its samples. Pure or mixed
    # pre-selections, post-selections of rank 1 or 2, generic,
    # near-orthogonal and exactly orthogonal selections.
    drawn = _drawn_scenario(seed, dim, spectrum, mixed, selection, g, delta_q)
    sc = make_scenario(drawn.observable, drawn.pre, drawn.post, g, _drawn_grid_pointer(pointer))
    try:
        rec = evolve_postselect(sc)
    except ZeroPostSelectionProbability:
        rec = None
    assume(rec is not None and rec.success_prob > 1e-6)
    n_total, delta_q_pair, delta_p_pair = _exact_scalars(sc)
    assert abs(n_total / rec.success_prob - 1.0) <= 1e-12
    assert abs(delta_q_pair - rec.delta_q) <= 1e-12
    assert abs(delta_p_pair - rec.delta_p) <= 1e-12


def _mixed_orthogonal(g):
    """Orthogonal selections with a mixed pre-selection (as in
    test_mixed_state_orthogonal_exact)."""
    a = new_observable(np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex))
    rho = density_state(np.diag([0.5, 0.5, 0.0]))
    return make_scenario(a, rho, projector_onto([0.0, 0.0, 1.0]), g, gaussian(1.0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: half_overlap_scenario(0.05),
        lambda: orthogonal_sigma_x(0.02),
        lambda: _mixed_orthogonal(0.02),
        lambda: half_overlap_scenario(0.05, skewed_pointer(1.0)),
        lambda: make_scenario(SIGMA_X, [1.0, 0.0], [0.0, 1.0], 0.02, _two_branch_pointer()),
    ],
    ids=["gaussian", "orthogonal", "mixed-orthogonal", "skewed", "two-branch"],
)
def test_success_probability_never_runs_the_grid_oracle(build, monkeypatch):
    # success_probability and evolve_postselect are two independent
    # computations, so verify's probability check compares two engines.
    sc = build()
    reference = evolve_postselect(sc).success_prob

    def refuse(*args, **kwargs):
        raise AssertionError("success_probability ran the grid oracle")

    monkeypatch.setattr(oracle, "_exact_components", refuse)
    assert abs(success_probability(sc) / reference - 1.0) <= 1e-13


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(**{
    **SCENARIO_DRAWS,
    "selection": st.sampled_from(["generic", "orthogonal"]),
    "g": st.floats(0.01, 0.05),
})
def test_series_matches_exact_across_the_valid_regime(
    seed, dim, spectrum, mixed, selection, g, delta_q
):
    # Near-orthogonal draws are left out: their weak values grow like
    # 1/sqrt(tr(P rho)), and the series is not meant to converge there.
    sc = _drawn_scenario(seed, dim, spectrum, mixed, selection, g, delta_q)
    try:
        rec = _quiet_series(sc, 12)
    except HigherOrderOrthogonality:
        rec = None
    assume(rec is not None)
    try:
        exact = evolve_postselect(sc)
    except ZeroPostSelectionProbability:
        exact = None
    assume(exact is not None)
    peak = float(np.max(exact.q_density.values))
    sup = float(np.max(np.abs(rec.q_density.values - exact.q_density.values)))
    assert sup <= 1e-8 * peak
    assert abs(rec.delta_q - exact.delta_q) <= 1e-10
    assert abs(rec.delta_p - exact.delta_p) <= 1e-10
    assert abs(rec.success_prob / exact.success_prob - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "pre_kind, rank, spectrum",
    [
        ("pure", 1, "generic"),
        ("mixed", 1, "generic"),
        ("rank-2 mixture", 2, "generic"),
        ("pure", 2, "degenerate"),
        ("mixed", 3, "degenerate"),
    ],
)
def test_selection_amplitudes_rebuild_the_selection_matrix(pre_kind, rank, spectrum):
    # Both exact engines read the selections through these amplitudes, so
    # the cross-check between them cannot catch an error here; pin them
    # against T = (V^+ P V)^T o (V^+ rho V) built from the matrices.
    gen = rng(11 + rank)
    dim = 4
    u = _unitary(gen, dim)
    if spectrum == "degenerate":
        evals = np.array([0.8, 0.8, -0.5, 0.1])
    else:
        evals = gen.uniform(-1.0, 1.0, dim)
    obs = new_observable((u * evals) @ u.conj().T)
    if pre_kind == "pure":
        pre = pure_state(gen.standard_normal(dim) + 1j * gen.standard_normal(dim))
    elif pre_kind == "mixed":
        pre = random_density(gen, dim)
    else:
        span = _unitary(gen, dim)[:, :2]
        pre = density_state(span @ np.diag([0.7, 0.3]) @ span.conj().T)
    post = random_projector(gen, dim, rank)
    sc = make_scenario(obs, pre, post, 0.1, gaussian(1.0))

    c = _selection_amplitudes(sc)
    v = obs.eigenvectors
    t = (v.conj().T @ post.matrix @ v).T * (v.conj().T @ pre.matrix @ v)
    assert c.shape == (rank * len(pre.eigenmixture), dim)
    assert np.max(np.abs(c.T @ c.conj() - t)) <= 1e-14
    overlap = float(np.real(np.trace(post.matrix @ pre.matrix)))
    assert float(np.sum(np.abs(np.sum(c, axis=1)) ** 2)) == pytest.approx(overlap, abs=1e-14)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**SCENARIO_DRAWS)
def test_selection_kernel_matches_the_standard_basis(
    seed, dim, spectrum, mixed, selection, g, delta_q
):
    # Every selection trace and weak value is read from the kernel's moment
    # amplitudes, so pin them, and every trace the series can ask for,
    # against matrix products in the standard basis.
    sc = _drawn_scenario(seed, dim, spectrum, mixed, selection, g, delta_q)
    obs, pre, post = sc.observable, sc.pre, sc.post
    n_max = MAX_SERIES_ORDER + 1
    _, b = _selection_kernel([post], [pre], obs, n_max)
    t = _selection_traces(b)[:, :, 0]
    for n in range(n_max + 1):
        ref = standard_amplitudes(obs, pre, post, n)
        assert np.max(np.abs(b[n, 0] - ref)) <= 1e-13, n
    for m in range(n_max + 1):
        for l in range(n_max + 1):
            assert abs(t[m, l] - standard_trace(obs, pre, post, m, l)) <= 1e-13, (m, l)


def test_gaussian_closed_form_refuses_zero_probability():
    with pytest.raises(ZeroPostSelectionProbability):
        _exact_scalars(commuting_orthogonal(0.02))
    # The floor check must refuse a NaN probability as well.
    with pytest.raises(ZeroPostSelectionProbability):
        _require_success(math.nan, PROB_FLOOR)


# --- grid handling ---------------------------------------------------------------------


def test_grid_n_floor_is_respected():
    sc = half_overlap_scenario(0.05)
    rec = evolve_postselect(sc, grid_n=8192)
    assert rec.q_density.coords.size == 8192
    with pytest.raises(ValueError):
        evolve_postselect(sc, grid_n=100)  # not a power of two


def test_series_is_accurate_at_a_moderate_coupling():
    # g dp = 0.05, well inside the weak regime. The Gaussian working grid
    # spans +-10 delta_q, where the pointer amplitude is still exp(-25);
    # spectral powers p^a phi would amplify the periodic FFT's jump there
    # until the order-12 density missed by 4e-8 of its peak. The closed-form
    # power table has no such edge.
    sc = orthogonal_sigma_x(0.1)
    exact = evolve_postselect(sc)
    rec = _quiet_series(sc, 12)
    sup = float(np.max(np.abs(rec.q_density.values - exact.q_density.values)))
    assert sup <= 1e-8 * float(np.max(exact.q_density.values))


def test_strong_coupling_grid_resolves_the_pointer():
    # At g/delta_q = 200 the working grid must grow to keep dq <= delta_q/8;
    # 4096 points would leave the momentum density undecayed at the edges.
    sc = half_overlap_scenario(200.0)
    rec = evolve_postselect(sc)
    n_total, delta_q, delta_p = _exact_scalars(sc)
    assert rec.q_density.coords.size == 32768
    assert rec.success_prob == pytest.approx(n_total, rel=1e-11)
    assert rec.delta_q == pytest.approx(delta_q, rel=1e-11)
    assert abs(rec.delta_p - delta_p) <= 1e-12


def test_grid_pointer_padding_avoids_wraparound():
    # A grid pointer fed to the oracle must come back on a grid at least as
    # fine and wide as it went in, with the density decayed at the edges.
    pt = skewed_pointer(1.0, n=2048, half_span=9.0)
    sc = half_overlap_scenario(0.05, pt)
    rec = evolve_postselect(sc)
    assert rec.q_density.coords.size >= 2048
    assert rec.q_density.spacing == pytest.approx(9.0 * 2 / 2048, rel=1e-12)
    assert abs(rec.q_density.total() - 1.0) < 1e-8


def test_slowly_decaying_momentum_is_refused():
    # A box-shaped wavefunction has sinc-like momentum tails that never fit
    # in any finite band: the oracle reports the grid as too small rather
    # than silently truncating the spectrum.
    n, half = 2048, 16.0
    dq = 2.0 * half / n
    q = -half + dq * np.arange(n)
    phi = np.where(np.abs(q) <= 1.7, 1.0, 0.0).astype(complex)
    phi = phi / math.sqrt(float(np.sum(np.abs(phi) ** 2) * dq))
    box = grid_state(-half, dq, n, [(1.0, phi)])
    sc = half_overlap_scenario(0.01, box)
    with pytest.raises(GridTooSmall):
        evolve_postselect(sc)


def _exact_cli_code(sc, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_wire(sc)))
    code = cli.main(["exact", str(path)])
    return code, json.loads(capsys.readouterr().out)["error"]["code"]


@pytest.mark.parametrize("engine", ["evolve", "probability", "series", "cli"])
@pytest.mark.parametrize(
    "g, pointer",
    [
        # dq * dq overflows (a bare OverflowError before the guard) ...
        (1e200, None),
        # ... or the span itself does (a NaN probability before the guard).
        (1e308, None),
        # The padded grid would need 2^23 points: 256 samples, dq = 20/256,
        # padded by g on each side.
        (2e5, "grid"),
    ],
)
def test_frame_guard_refuses_unbuildable_grids(engine, g, pointer, tmp_path, capsys):
    ptr = skewed_pointer(1.0, n=256) if pointer == "grid" else gaussian(1.0)
    sc = half_overlap_scenario(g, ptr)
    calls = {
        "evolve": lambda: evolve_postselect(sc),
        "probability": lambda: success_probability(sc),
        "series": lambda: series_device_state(sc, 2),
        "cli": lambda: _exact_cli_code(sc, tmp_path, capsys),
    }
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            if engine == "cli":
                assert calls[engine]() == (2, "grid-too-small")
            else:
                with pytest.raises(GridTooSmall, match=re.escape(f"g = {g:.3e} needs")):
                    calls[engine]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Refused before anything of size n is allocated.
    assert peak < 1 << 20
