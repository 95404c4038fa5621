"""Parameter sweeps and amplification optimization.

The closed-form amplification curve (measured spin value against the
pre/post-selection angle) has a known analytic maximum, so the Brent search
and both evaluation engines can be validated end to end against it.
"""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmeas import (
    ENGINES,
    OBJECTIVES,
    SGParams,
    SystemState,
    amplifier,
    density_state,
    evolve_postselect,
    find_optimum,
    gaussian,
    gaussian_profile,
    grid_state,
    make_scenario,
    new_observable,
    oracle,
    predict,
    projector_onto,
    pure_state,
    scenario_to_wire,
    sg_family,
    sg_optimum,
    stern_gerlach_outcome,
    sweep,
    sweep_to_csv,
    weak_interaction_margin,
)
from weakmeas.errors import (
    EmptyGrid,
    InvalidBracket,
    LambdaOutOfRange,
    NotUnimodal,
    ValidityWarning,
)

from weakmeas.oracle import _exact_scalars
from weakmeas.qops import SIGMA_Z
from weakmeas.weak_values import ORTH_THRESHOLD

from support import (
    commuting_orthogonal,
    random_hermitian,
    random_observable,
    rng,
    skewed_pointer,
)


def _sg_like_family(g, pointer):
    """sg_family's selections at any coupling and pointer: sigma_z, +x
    post-selection, pre-selection an angle alpha away."""
    post = np.array([1.0, 1.0]) / math.sqrt(2.0)

    def family(alpha):
        half = 0.25 * math.pi - 0.5 * alpha
        return make_scenario(SIGMA_Z, [math.cos(half), math.sin(half)], post, g, pointer)

    return family


# --- sweeps ------------------------------------------------------------------


def test_single_point_at_right_angle_measures_unity():
    # At alpha = pi/2 the selections are mutually unbiased and the measured
    # value equals the eigenvalue 1 exactly, for every displacement.
    for lam in (0.05, 0.2, 0.4):
        records = sweep(sg_family(lam), [math.pi / 2.0], "measured", "exact")
        assert len(records) == 1
        assert records[0].outcome == pytest.approx(1.0, abs=1e-12)


def test_sweep_matches_closed_form_curve():
    # The predicted engine reproduces the closed-form amplification curve
    # identically; the exact engine tracks it to the accuracy of the
    # second-order resummation (worst near the peak where g*A_w ~ 1).
    lam = 0.2
    family = sg_family(lam)
    alphas = [i * math.pi / 40.0 for i in range(1, 40)]
    predicted = sweep(family, alphas, "measured", "predicted")
    exact = sweep(family, alphas, "measured", "exact")
    for rpred, rex in zip(predicted, exact):
        expected = stern_gerlach_outcome(SGParams(alpha=rpred.parameter, lmbda=lam))
        assert rpred.outcome == pytest.approx(expected, rel=1e-10)
        assert rex.outcome == pytest.approx(expected, rel=1e-2)
        assert 0.0 < rex.success_prob <= 1.0
        assert rex.weak_margin > 0.0


def test_closed_form_error_is_higher_order_in_displacement():
    # Halving the displacement at fixed angle shrinks the exact-vs-closed
    # gap by ~16: for this family the resummed formula is accurate through
    # third order and the first correction enters at lambda^4.
    diffs = []
    for lam in (0.2, 0.1):
        ex = sweep(sg_family(lam), [1.2], "measured", "exact")[0].outcome
        cl = stern_gerlach_outcome(SGParams(alpha=1.2, lmbda=lam))
        diffs.append(abs(ex - cl))
    assert 12.0 < diffs[0] / diffs[1] < 20.0


def test_sweep_engines_agree_for_weak_displacement():
    lam = 0.05
    family = sg_family(lam)
    alphas = [0.4, 1.2, 2.0, 2.8]
    exact = sweep(family, alphas, "delta_q", "exact")
    predicted = sweep(family, alphas, "delta_q", "predicted")
    for rex, rpred in zip(exact, predicted):
        assert rex.outcome == pytest.approx(rpred.outcome, rel=1e-4)
        assert rex.success_prob == pytest.approx(rpred.success_prob, rel=1e-3)


def test_sweep_objectives_are_consistent():
    lam = 0.2
    family = sg_family(lam)
    alphas = [0.5, 1.5, 2.5]
    dq = sweep(family, alphas, "delta_q", "exact")
    measured = sweep(family, alphas, "measured", "exact")
    g = lam * 1.0
    for rq, rm in zip(dq, measured):
        assert rq.outcome == pytest.approx(g * rm.outcome, rel=1e-12)


def test_sweep_records_undefined_outcomes_as_null():
    family = lambda t: commuting_orthogonal(0.02)
    for engine in ("exact", "predicted"):
        records = sweep(family, [0.1, 0.2], "delta_q", engine)
        assert [r.outcome for r in records] == [None, None]
        assert [r.success_prob for r in records] == [0.0, 0.0]


def test_predicted_sweep_records_mixed_and_boosted_orthogonal_points():
    # At t = 0 the selections are orthogonal with a mixed pre-selection, or
    # pure with a boosted pointer whose <p> does not vanish; the orthogonal
    # series covers both, so the predicted engine records both points next
    # to the exact engine's.
    obs = new_observable(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
    q = -10.0 + (20.0 / 1024) * np.arange(1024)
    boosted = grid_state(
        -10.0, 20.0 / 1024, 1024, [(1.0, gaussian_profile(q, 1.0) * np.exp(0.5j * q))]
    )

    def mixed(t):
        rho = np.diag([t, (1.0 - t) / 2.0, (1.0 - t) / 2.0])
        return make_scenario(obs, rho, [1.0, 0.0, 0.0], 0.05, gaussian(1.0))

    def moving(t):
        return make_scenario(obs, [t, 1.0, 0.3], [1.0, 0.0, 0.0], 0.05, boosted)

    for family in (mixed, moving):
        predicted = sweep(family, [0.0, 0.5], "delta_q", "predicted")
        exact = sweep(family, [0.0, 0.5], "delta_q", "exact")
        assert exact[0].outcome is not None and exact[0].success_prob > 0.0
        assert predicted[1].outcome == pytest.approx(exact[1].outcome, abs=1e-3)
        # Leading order in g: the probability is off by O(g^2) relative.
        assert predicted[0].outcome == pytest.approx(exact[0].outcome, abs=1e-3)
        assert predicted[0].success_prob == pytest.approx(
            exact[0].success_prob, rel=0.05**2
        )
    assert sweep(mixed, [0.0], "delta_q", "exact")[0].success_prob == pytest.approx(
        1.56e-4, rel=1e-2
    )


def test_sweep_rejects_bad_grids_and_choices():
    family = sg_family(0.2)
    with pytest.raises(EmptyGrid):
        sweep(family, [], "measured", "exact")
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(family, [1.0, 1.0], "measured", "exact")
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(family, [2.0, 1.0], "measured", "exact")
    with pytest.raises(ValueError, match="objective"):
        sweep(family, [1.0], "delta_r", "exact")
    with pytest.raises(ValueError, match="engine"):
        sweep(family, [1.0], "delta_q", "quick")


def test_exact_sweep_at_strong_coupling_separates_branches():
    # At g/delta_q = 200 the two translated Gaussians no longer overlap:
    # N = sum_i T_ii = 1/2 and delta_q = g (rho_11 - rho_22) = g sin(alpha).
    # A grid sized to the coupling cannot resolve the pointer here.
    g = 200.0
    records = sweep(_sg_like_family(g, gaussian(1.0)), [1.0, 2.0], "delta_q", "exact")
    for rec in records:
        assert rec.success_prob == pytest.approx(0.5, abs=1e-12)
        assert rec.outcome == pytest.approx(g * math.sin(rec.parameter), rel=1e-12)
    assert records[0].outcome == pytest.approx(168.29419696157930, rel=1e-12)
    assert records[1].outcome == pytest.approx(181.85948536513635, rel=1e-12)


def test_exact_sweep_over_grid_pointer_never_runs_the_grid_oracle(monkeypatch):
    # The exact engine reads the pair kernel for grid pointers as for
    # Gaussians; its records match the grid oracle point by point.
    g = 0.3
    family = _sg_like_family(g, skewed_pointer(1.0))
    alphas = [0.5, 1.5, 2.5]
    refs = [evolve_postselect(family(alpha)) for alpha in alphas]

    def refuse(*args, **kwargs):
        raise AssertionError("the exact engine ran the grid oracle")

    monkeypatch.setattr(oracle, "_exact_components", refuse)
    records = sweep(family, alphas, "delta_q", "exact")
    report = find_optimum(family, (math.pi / 2.0, math.pi), "measured", "exact")
    monkeypatch.undo()
    for rec, ref in zip(records, refs):
        assert abs(rec.success_prob / ref.success_prob - 1.0) <= 1e-12
        assert abs(rec.outcome - ref.delta_q) <= 1e-13
    ref = evolve_postselect(family(report.parameter_opt))
    assert abs(report.outcome_max - ref.delta_q / g) <= 1e-13 / g


def test_sweep_csv_is_byte_deterministic():
    family = sg_family(0.2)
    alphas = [0.5, 1.5, 2.5]

    def render():
        buf = io.StringIO()
        sweep_to_csv(sweep(family, alphas, "measured", "exact"), buf)
        return buf.getvalue()

    first, second = render(), render()
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "parameter,outcome,success_prob,weak_margin"
    assert len(lines) == 4


def test_sweep_csv_blank_for_undefined():
    records = sweep(lambda t: commuting_orthogonal(0.02), [0.1], "delta_q", "exact")
    buf = io.StringIO()
    sweep_to_csv(records, buf)
    assert buf.getvalue().splitlines()[1] == "0.1,,0,0.0131607401295"


# --- optimization ------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.05, 0.1, 0.2, 0.4])
def test_optimizer_finds_analytic_amplification_maximum(lam):
    alpha_opt, outcome_opt = sg_optimum(lam)
    report = find_optimum(sg_family(lam), (math.pi / 2.0, math.pi), "measured", "predicted")
    assert report.parameter_opt == pytest.approx(alpha_opt, abs=1e-6)
    assert report.outcome_max == pytest.approx(outcome_opt, rel=1e-8)
    assert report.bracket == (math.pi / 2.0, math.pi)
    assert report.iterations > 0


def test_exact_engine_peak_near_predicted():
    lam = 0.2
    pred = find_optimum(sg_family(lam), (math.pi / 2.0, math.pi), "measured", "predicted")
    exact = find_optimum(sg_family(lam), (math.pi / 2.0, math.pi), "measured", "exact")
    # At the peak the effective strength g*A_w is of order one, so the
    # resummed prediction sits a couple of permille below the exact value.
    assert abs(exact.parameter_opt - pred.parameter_opt) < 0.02
    assert exact.outcome_max == pytest.approx(pred.outcome_max, rel=2e-2)
    assert exact.outcome_max > pred.outcome_max


def test_amplification_approaches_reciprocal_displacement():
    # The peak measured value scales like 1/lambda; lambda * max decreases
    # toward 1 as the displacement shrinks.
    products = []
    for lam in (0.1, 0.05, 0.025):
        _, outcome_opt = sg_optimum(lam)
        products.append(lam * outcome_opt)
    assert products[0] > products[1] > products[2] > 1.0
    assert products[0] < 1.01


def test_exact_sweep_never_exceeds_amplification_bound():
    lam = 0.2
    family = sg_family(lam)
    alphas = [i * math.pi / 200.0 for i in range(1, 200)]
    records = sweep(family, alphas, "measured", "exact")
    bound = 1.2 / lam
    assert all(r.outcome is not None and r.outcome <= bound for r in records)


@pytest.mark.parametrize("engine", ENGINES)
def test_optimizer_needs_few_evaluations(engine):
    # Parabolic steps converge superlinearly on the smooth maximum: at most
    # 25 family calls per search, against 50 for golden section (two
    # endpoints, two interior points, 45 steps and the located point).
    for lam in (0.05, 0.1, 0.2, 0.4):
        family, calls = sg_family(lam), []

        def counted(alpha):
            calls.append(alpha)
            return family(alpha)

        report = find_optimum(counted, (math.pi / 2.0, math.pi), "measured", engine)
        assert len(calls) <= 25, (lam, len(calls))
        assert len(calls) == report.iterations + 3


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    lam=st.floats(0.05, 0.4),
    lo_frac=st.floats(0.0, 1.0),
    hi_frac=st.floats(0.0, 1.0),
)
def test_optimizer_locates_the_analytic_optimum_in_any_bracket(lam, lo_frac, hi_frac):
    # Brackets [lo, hi] inside [0.3, pi] that contain alpha* (at least 0.01
    # away from it); every evaluation stays inside the bracket.
    alpha_star = math.acos(lam * lam / 2.0 - 1.0)
    lo = 0.3 + lo_frac * (alpha_star - 0.01 - 0.3)
    hi = alpha_star + 0.01 + hi_frac * (math.pi - alpha_star - 0.01)
    family, seen = sg_family(lam), []

    def recorded(alpha):
        seen.append(alpha)
        return family(alpha)

    report = find_optimum(recorded, (lo, hi), "measured", "predicted")
    assert all(lo <= alpha <= hi for alpha in seen)
    assert abs(report.parameter_opt - alpha_star) <= 1e-8
    assert abs(report.outcome_max / sg_optimum(lam)[1] - 1.0) <= 1e-8


def test_optimizer_rejects_bad_bracket():
    family = sg_family(0.2)
    with pytest.raises(InvalidBracket):
        find_optimum(family, (1.0, 1.0), "measured", "exact")
    with pytest.raises(InvalidBracket):
        find_optimum(family, (2.0, 1.0), "measured", "exact")
    with pytest.raises(InvalidBracket):
        find_optimum(family, (0.0, math.inf), "measured", "exact")


def test_optimizer_reports_non_unimodal_bracket():
    # On (0.2, 1.2) the amplification curve is strictly increasing, so the
    # interior point the Brent search locates always loses to the upper
    # endpoint.
    with pytest.raises(NotUnimodal):
        find_optimum(sg_family(0.2), (0.2, 1.2), "measured", "predicted")


def test_family_validation():
    with pytest.raises(LambdaOutOfRange):
        sg_family(0.0)
    with pytest.raises(LambdaOutOfRange):
        sg_family(1.0)
    family = sg_family(0.2)
    with pytest.raises(ValueError, match="alpha"):
        family(-0.1)
    sc = family(math.pi / 2.0)
    assert sc.g == pytest.approx(0.2)
    assert np.vdot(sc.pre.vector, sc.pre.vector) == pytest.approx(1.0)


# --- batched evaluation ------------------------------------------------------
#
# `sweep` evaluates the points that share the observable, the pointer and g
# in one array pass; a one-point sweep runs one scenario through the same
# kernels as a batch of one. The two must agree wherever they are defined, and must
# blank the same points.

SHARING = ("shared", "fresh-observable", "varying-g", "fresh-pointer", "grid-pointer")


def _crossing_family(seed, dim, mixed, rank, sharing, commuting):
    """A family over t in [0, 1] whose pre-selection at t = 0 is exactly
    orthogonal to the post-selection. With ``commuting`` the observable is
    diagonal in the selection basis, so t = 0 also has zero success
    probability at every order. ``sharing`` says which of the observable,
    the pointer and g the points share."""
    gen = rng(seed)
    raw_obs = np.diag(gen.uniform(-1.0, 1.0, dim)) if commuting else random_hermitian(gen, dim)
    obs = new_observable(raw_obs)
    basis = np.eye(dim)
    # The post-selection spans e_1 .. e_rank. The pre-selection starts at
    # e_0, outside it; a mixed one adds e_{d-1} when that lies outside too.
    post = projector_onto(*basis[1 : 1 + rank])
    other = basis[-1] if rank + 1 < dim else basis[0]
    pointer = skewed_pointer(1.0, n=256) if sharing == "grid-pointer" else gaussian(0.8)
    phase = np.exp(1j * gen.uniform(0.0, 2.0 * math.pi))

    def family(t):
        vec = math.cos(t) * basis[0] + math.sin(t) * phase * basis[1]
        if mixed:
            rho = 0.7 * np.outer(vec, vec.conj()) + 0.3 * np.outer(other, other)
            pre = density_state(rho)
        else:
            pre = vec
        a = new_observable(raw_obs + t * np.eye(dim)) if sharing == "fresh-observable" else obs
        ptr = gaussian(0.8 + 0.4 * t) if sharing == "fresh-pointer" else pointer
        g = 0.05 + 0.3 * t if sharing == "varying-g" else 0.15
        return make_scenario(a, pre, post, g, ptr)

    return family


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(b))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 4),
    mixed=st.booleans(),
    rank=st.integers(1, 2),
    sharing=st.sampled_from(SHARING),
    commuting=st.booleans(),
    objective=st.sampled_from(OBJECTIVES),
)
def test_batched_sweep_matches_per_point_evaluation(
    seed, dim, mixed, rank, sharing, commuting, objective
):
    rank = min(rank, dim - 1)
    family = _crossing_family(seed, dim, mixed, rank, sharing, commuting)
    params = [0.0, 1e-7, 0.1, 0.35, 0.6, 0.9] if sharing == "grid-pointer" else (
        [0.0, 1e-9, 1e-7, 1e-4] + [0.05 * k for k in range(1, 21)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for engine in ENGINES:
            records = sweep(family, params, objective, engine)
            for rec in records:
                sc = family(rec.parameter)
                one = sweep(lambda _: sc, [rec.parameter], objective, engine)[0]
                assert (rec.outcome is None) == (one.outcome is None), (engine, rec)
                if one.outcome is not None:
                    assert _close(rec.outcome, one.outcome), (engine, rec, one)
                assert _close(rec.success_prob, one.success_prob), (engine, rec, one)
                assert rec.weak_margin == weak_interaction_margin(sc.g, sc.pointer)


def test_batched_sweep_blanks_zero_probability_and_orthogonal_points():
    # The crossing families reach the cases the kernels must mask: with a
    # commuting observable t = 0 never succeeds (blank on both engines); a
    # generic observable leaves t = 0 orthogonal but defined, for pure and
    # mixed pre-selections alike.
    zero = _crossing_family(3, 3, False, 1, "shared", True)
    for engine in ENGINES:
        rec = sweep(zero, [0.0, 0.5], "delta_q", engine)
        assert (rec[0].outcome, rec[0].success_prob) == (None, 0.0)
        assert rec[1].outcome is not None and rec[1].success_prob > 0.0
    orth = _crossing_family(3, 3, False, 1, "shared", False)
    for engine in ENGINES:
        assert sweep(orth, [0.0], "delta_q", engine)[0].outcome is not None
    mixed = _crossing_family(3, 3, True, 1, "shared", False)
    for engine in ENGINES:
        assert sweep(mixed, [0.0], "delta_q", engine)[0].outcome is not None


def test_sweep_and_optimum_raise_no_numpy_warnings():
    # alpha = pi is an exactly orthogonal point of sg_family and the
    # commuting family never succeeds; masked divisions keep both silent.
    # (The sweep itself silences ValidityWarning, which is not numpy's.)
    zero = _crossing_family(3, 3, True, 2, "shared", True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for engine in ENGINES:
            for objective in OBJECTIVES:
                sweep(sg_family(0.2), [0.0, math.pi / 2.0, math.pi], objective, engine)
                sweep(zero, [0.0, 0.5], objective, engine)
                sweep(lambda t: commuting_orthogonal(0.0), [0.1], objective, engine)
            find_optimum(sg_family(0.2), (math.pi / 2.0, math.pi), "measured", engine)
            find_optimum(zero, (0.0, 0.2), "delta_q", engine)


def test_sweeps_and_optima_never_build_a_density_matrix(monkeypatch):
    # Every kernel reads a state's eigenmixture; a pure state's matrix is
    # built only when read, and in an amplifier run nothing reads it.
    reads = []
    matrix = SystemState.matrix

    def counted(state):
        reads.append(state)
        return matrix.fget(state)

    monkeypatch.setattr(SystemState, "matrix", property(counted))
    family = sg_family(0.2)
    for engine in ENGINES:
        sweep(family, np.linspace(math.pi / 2.0, math.pi, 50), "measured", engine)
        find_optimum(family, (math.pi / 2.0, math.pi), "measured", engine)
    assert reads == []
    scenario_to_wire(family(1.0))  # the wire format does read it
    assert len(reads) == 1


def _per_point_records(family, alphas, objective, engine):
    """Sweep records built one point at a time through the single-point
    routes: `predict` for the predicted engine, `_exact_scalars` for the
    exact one."""
    records = []
    for alpha in alphas:
        sc = family(float(alpha))
        if engine == "predicted":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWarning)
                pred = predict(sc)
            success, delta_q, delta_p = pred.success_prob, pred.delta_q, pred.delta_p
        else:
            success, delta_q, delta_p = _exact_scalars(sc)
        outcome = {"delta_q": delta_q, "delta_p": delta_p, "measured": delta_q / sc.g}
        records.append(
            amplifier.SweepRecord(
                parameter=float(alpha),
                outcome=outcome[objective],
                success_prob=success,
                weak_margin=weak_interaction_margin(sc.g, sc.pointer),
            )
        )
    return records


def test_sweep_csv_matches_the_per_point_path():
    # The benchmark's sweep: 200 interior angles of sg_family. Both engines'
    # CSVs are byte-identical to the per-point path: the sweep and the
    # per-point routes read one selection kernel, whose sums do not depend
    # on the stack a point sits in.
    alphas = np.linspace(0.0, math.pi, 202)[1:-1]
    fields = ("parameter", "outcome", "success_prob", "weak_margin")
    for lam in (0.05, 0.2, 0.4):
        family = sg_family(lam)
        for engine in ENGINES:
            for objective in OBJECTIVES:
                batched = sweep(family, alphas, objective, engine)
                single = _per_point_records(family, alphas, objective, engine)
                texts = []
                for records in (batched, single):
                    buf = io.StringIO()
                    sweep_to_csv(records, buf)
                    texts.append(buf.getvalue().splitlines())
                assert texts[0][0] == texts[1][0]
                for rb, rs, lb, ls in zip(batched, single, texts[0][1:], texts[1][1:]):
                    differing = {
                        name for name, a, b in zip(fields, lb.split(","), ls.split(",")) if a != b
                    }
                    assert not differing, (lam, engine, objective, lb, ls)
                    assert _close(rb.outcome, rs.outcome), (lam, engine, objective, rb, rs)
                    assert _close(rb.success_prob, rs.success_prob), (lam, engine, rb, rs)


def _straddling_scenario(gen):
    """Qutrit pure selections whose overlap tr(P rho) lies within 1e-4
    relative of ORTH_THRESHOLD, where the routing decision is made."""
    psi = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    psi /= np.linalg.norm(psi)
    perp = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    perp -= np.vdot(psi, perp) * psi
    perp /= np.linalg.norm(perp)
    ov = ORTH_THRESHOLD * (1.0 + gen.uniform(-1e-4, 1e-4))
    post = projector_onto(math.sqrt(ov) * psi + math.sqrt(1.0 - ov) * perp)
    return make_scenario(random_observable(gen, 3), pure_state(psi), post, 0.05, gaussian(1.0))


def test_predicted_sweep_routes_threshold_straddlers_like_predict():
    # Near the threshold the general and orthogonal formulas disagree by
    # orders of magnitude, so the sweep and `predict` must compare the same
    # overlap float with it: both read tr(P rho) from the selection kernel.
    gen = rng(47)
    for _ in range(40):
        sc = _straddling_scenario(gen)
        [rec] = sweep(lambda _: sc, [0.0], "delta_q", "predicted")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            pred = predict(sc)
        assert (rec.outcome, rec.success_prob) == (pred.delta_q, pred.success_prob)
