"""Weak values: standard, two-sided generalized, orthogonal, and the
validity margins."""

import math
import re

import numpy as np
import pytest

from weakmeas import (
    aav_margin,
    gaussian,
    generalized_weak_value,
    make_scenario,
    new_observable,
    orthogonal_weak_value,
    predict,
    projector_onto,
    pure_state,
    series_device_state,
    sg_family,
    sweep,
    weak_interaction_margin,
    weak_interaction_margin_argmax,
    weak_value,
)
from weakmeas import amplifier, oracle, predictor, weak_values
from weakmeas.errors import (
    HigherOrderOrthogonality,
    NotOrthogonal,
    OrderTooLarge,
    OrthogonalPPS,
    ZeroPostSelectionProbability,
)
from weakmeas.qops import SIGMA_X
from weakmeas.weak_values import selection_trace

from support import (
    commuting_orthogonal,
    orthogonal_idempotent,
    orthogonal_sigma_x,
    overlap_family,
    qubit_pps_half_overlap,
    random_observable,
    random_selections,
    rng,
    skewed_pointer,
    standard_trace,
)


def _direct_ratio(obs, pre, post, m, l):
    return standard_trace(obs, pre, post, m, l) / standard_trace(obs, pre, post, 0, 0).real


# --- standard weak value -------------------------------------------------------


def test_weak_value_of_eigenstate_is_the_eigenvalue():
    gen = rng(21)
    obs = random_observable(gen, 4)
    for i in range(4):
        pre = pure_state(obs.eigenvectors[:, i])
        post = projector_onto(obs.eigenvectors[:, i] + 0.3 * obs.eigenvectors[:, (i + 1) % 4])
        rep = weak_value(obs, pre, post)
        assert rep.value == pytest.approx(complex(obs.eigenvalues[i]), abs=1e-12)
        assert rep.kind == "standard"


def test_weak_value_matches_trace_ratio():
    gen = rng(22)
    for _ in range(25):
        dim = int(gen.integers(2, 6))
        obs = random_observable(gen, dim)
        pre, post = random_selections(gen, dim, mixed=bool(gen.integers(0, 2)))
        rep = weak_value(obs, pre, post)
        assert rep.value == pytest.approx(_direct_ratio(obs, pre, post, 1, 0), abs=1e-12)


def test_weak_value_can_leave_the_eigenvalue_range():
    obs, pre, _ = qubit_pps_half_overlap()
    psi = pre.vector
    perp = np.array([-np.conj(psi[1]), np.conj(psi[0])])
    post = projector_onto(0.05 * psi + perp)  # nearly orthogonal selections
    assert abs(weak_value(obs, pre, post).value) > 1.0  # outside [-1, 1]


def test_weak_value_refuses_orthogonal_selections():
    sc = orthogonal_sigma_x(0.01)
    with pytest.raises(OrthogonalPPS):
        weak_value(sc.observable, sc.pre, sc.post)


# --- generalized weak values -----------------------------------------------------


def test_generalized_orders_and_consistency():
    obs, pre, post = qubit_pps_half_overlap()
    rep = generalized_weak_value(obs, pre, post, 1, 0)
    assert rep.kind == "generalized"
    assert rep.orders == (1, 0)
    assert rep.value == pytest.approx(weak_value(obs, pre, post).value, abs=1e-14)
    # ratio of selection traces
    direct = selection_trace(obs, pre, post, 2, 1) / selection_trace(obs, pre, post, 0, 0)
    assert generalized_weak_value(obs, pre, post, 2, 1).value == pytest.approx(
        direct, abs=1e-14
    )


def test_generalized_conjugate_symmetry_and_nonnegativity():
    gen = rng(23)
    for _ in range(25):
        dim = int(gen.integers(2, 6))
        obs = random_observable(gen, dim)
        pre, post = random_selections(gen, dim, mixed=bool(gen.integers(0, 2)))
        for m in range(3):
            for l in range(3):
                w_ml = generalized_weak_value(obs, pre, post, m, l).value
                w_lm = generalized_weak_value(obs, pre, post, l, m).value
                assert w_ml == pytest.approx(np.conj(w_lm), abs=1e-12)
        for n in range(3):
            w_nn = generalized_weak_value(obs, pre, post, n, n).value
            assert abs(w_nn.imag) < 1e-12
            assert w_nn.real > -1e-12


def test_generalized_pure_state_factorization():
    # For a pure pre-selection and rank-1 post-selection the two-sided value
    # factorizes into one-sided weak values: W(m, l) = w_m * conj(w_l).
    gen = rng(24)
    for _ in range(25):
        dim = int(gen.integers(2, 6))
        obs = random_observable(gen, dim)
        pre, post = random_selections(gen, dim, mixed=False, rank=1)
        fi = complex(np.vdot(post.vector, pre.vector))
        one_sided = [
            complex(np.vdot(post.vector, obs.power(m) @ pre.vector)) / fi
            for m in range(4)
        ]
        for m in range(4):
            for l in range(4):
                w_ml = generalized_weak_value(obs, pre, post, m, l).value
                assert w_ml == pytest.approx(
                    one_sided[m] * np.conj(one_sided[l]), abs=1e-12
                )


def test_generalized_order_limits():
    obs, pre, post = qubit_pps_half_overlap()
    with pytest.raises(OrderTooLarge):
        generalized_weak_value(obs, pre, post, 13, 0)
    with pytest.raises(ValueError):
        generalized_weak_value(obs, pre, post, -1, 0)


@pytest.mark.parametrize("bad", [1.5, True, -1, "1"])
def test_weak_value_orders_are_nonnegative_integers(bad):
    # A float order used to end in a bare IndexError and True counted as 1;
    # the weak values and `selection_trace` share one order check.
    obs, pre, post = qubit_pps_half_overlap()
    with pytest.raises(ValueError, match="orders"):
        generalized_weak_value(obs, pre, post, bad, 0)
    sc = orthogonal_sigma_x(0.01)
    with pytest.raises(ValueError, match="orders"):
        orthogonal_weak_value(sc.observable, sc.pre, sc.post, 0, bad)
    with pytest.raises(ValueError, match="orders"):
        selection_trace(obs, pre, post, 0, bad)


def test_numpy_integer_orders_behave_like_ints():
    obs, pre, post = qubit_pps_half_overlap()
    got = generalized_weak_value(obs, pre, post, np.int64(2), np.int64(1))
    assert got == generalized_weak_value(obs, pre, post, 2, 1)
    assert type(got.value) is complex and got.orders == (2, 1)
    assert all(type(order) is int for order in got.orders)
    assert selection_trace(obs, pre, post, np.int64(2), 1) == selection_trace(obs, pre, post, 2, 1)


# --- orthogonal weak values -------------------------------------------------------


def test_orthogonal_weak_value_pinned_cases():
    sx = orthogonal_sigma_x(0.01)
    rep = orthogonal_weak_value(sx.observable, sx.pre, sx.post)
    assert rep.kind == "orthogonal"
    assert rep.value == pytest.approx(0.0, abs=1e-14)

    idem = orthogonal_idempotent(0.01)
    rep = orthogonal_weak_value(idem.observable, idem.pre, idem.post)
    assert rep.value == pytest.approx(0.5, abs=1e-14)


def test_orthogonal_weak_value_matches_vector_formula():
    # A_ow = <f|A^2|i> / (2 <f|A|i>) for rank-1 orthogonal selections.
    from weakmeas import scenario_with_orthogonal_weak_value

    for target in (0.5, -0.3, 0.2 + 0.1j, 1.5j):
        sc = scenario_with_orthogonal_weak_value(target, 0.05)
        f, i = sc.post.vector, sc.pre.vector
        direct = np.vdot(f, sc.observable.power(2) @ i) / (
            2.0 * np.vdot(f, sc.observable.matrix @ i)
        )
        rep = orthogonal_weak_value(sc.observable, sc.pre, sc.post)
        assert rep.value == pytest.approx(direct, abs=1e-12)
        assert rep.value == pytest.approx(complex(target), abs=1e-10)


def test_orthogonal_generalized_orders():
    # <A>_ow^(m,l) = tr(P A^(m+1) rho A^(l+1)) / ((m+1)(l+1) tr(P A rho A)).
    sc = orthogonal_idempotent(0.01)
    obs, pre, post = sc.observable, sc.pre, sc.post
    g2 = selection_trace(obs, pre, post, 1, 1).real
    for m in range(3):
        for l in range(3):
            direct = selection_trace(obs, pre, post, m + 1, l + 1) / (
                (m + 1) * (l + 1) * g2
            )
            rep = orthogonal_weak_value(obs, pre, post, m, l)
            assert rep.value == pytest.approx(direct, abs=1e-13)


def test_orthogonal_weak_value_error_paths():
    obs, pre, post = qubit_pps_half_overlap()
    with pytest.raises(NotOrthogonal):
        orthogonal_weak_value(obs, pre, post)
    sc = commuting_orthogonal(0.01)
    with pytest.raises(HigherOrderOrthogonality):
        orthogonal_weak_value(sc.observable, sc.pre, sc.post)


# --- margins ------------------------------------------------------------------------


def test_weak_interaction_margin_scaling():
    pt = gaussian(1.0)
    m1 = weak_interaction_margin(0.01, pt)
    m2 = weak_interaction_margin(0.02, pt)
    assert m2 == pytest.approx(2.0 * m1, rel=1e-12)  # linear in |g|
    assert weak_interaction_margin(0.0, pt) == 0.0
    # for a Gaussian the fourth-moment term dominates (n up to MARGIN_ORDER = 4)
    val, n = weak_interaction_margin_argmax(0.1, pt)
    assert n == 4
    assert val == pytest.approx(0.1 * (3.0 * 0.25**2) ** 0.25, rel=1e-12)
    # grid pointers work through quadrature moments
    assert weak_interaction_margin(0.1, skewed_pointer(1.0)) > 0.0


def test_aav_margin_basics():
    obs, pre, post = qubit_pps_half_overlap()
    pt = gaussian(1.0)
    m_small = aav_margin(obs, pre, post, 0.01, pt)
    m_large = aav_margin(obs, pre, post, 0.1, pt)
    assert 0.0 < m_small < m_large < 1.0
    assert m_large == pytest.approx(10.0 * m_small, rel=1e-12)
    # orthogonal selections have no linear-response regime at all
    sc = orthogonal_sigma_x(0.01)
    assert aav_margin(sc.observable, sc.pre, sc.post, 0.01, pt) == math.inf
    # mixed pre-selections are not covered by this diagnostic
    mixed = new_observable(np.diag([1.0, -1.0]))
    from weakmeas import density_state, projector

    with pytest.raises(ValueError):
        aav_margin(
            mixed,
            density_state(np.diag([0.5, 0.5])),
            projector(np.diag([1.0, 0.0])),
            0.01,
            pt,
        )


# --- the one regime route ------------------------------------------------------------


def _near_orthogonal_qubit(g: float = 0.05):
    """sigma_x, pre ~ (1, 0.3), post |1>: tr(P rho) = 0.083, well above
    ORTH_THRESHOLD, and tr(P A rho A) = 0.917."""
    return make_scenario(SIGMA_X, [1.0, 0.3], [0.0, 1.0], g, gaussian(1.0))


# Each path as (call, refused off the orthogonal side, refused on it).
_ROUTED_PATHS = {
    "predict": (lambda sc: predict(sc), None, None),
    "predict_aav": (lambda sc: predict(sc, "aav"), None, OrthogonalPPS),
    "predict_general": (lambda sc: predict(sc, "general"), None, OrthogonalPPS),
    "predict_orthogonal": (lambda sc: predict(sc, "orthogonal"), NotOrthogonal, None),
    "weak_value": (lambda sc: weak_value(sc.observable, sc.pre, sc.post), None, OrthogonalPPS),
    "generalized_weak_value": (
        lambda sc: generalized_weak_value(sc.observable, sc.pre, sc.post, 2, 1),
        None,
        OrthogonalPPS,
    ),
    "orthogonal_weak_value": (
        lambda sc: orthogonal_weak_value(sc.observable, sc.pre, sc.post),
        NotOrthogonal,
        None,
    ),
}


@pytest.mark.parametrize("path", list(_ROUTED_PATHS))
@pytest.mark.parametrize(
    "build, side",
    [
        (orthogonal_sigma_x, True),
        (lambda g: overlap_family(5e-13, g), True),
        (lambda g: overlap_family(2e-12, g), False),
        (_near_orthogonal_qubit, False),
    ],
    ids=["orthogonal", "ov_5e-13", "ov_2e-12", "ov_0.083"],
)
def test_every_path_routes_at_the_constant(build, side, path):
    # The overlap is compared with ORTH_THRESHOLD (1e-12) on every path:
    # `predict` labels the side, a forced regime off its side is refused
    # with a message naming the constant, and every other call succeeds.
    sc = build(0.02)
    call, refused_off, refused_on = _ROUTED_PATHS[path]
    error = refused_on if side else refused_off
    if error is None:
        result = call(sc)
        if path == "predict":
            assert result.regime == ("orthogonal" if side else "general")
        return
    with pytest.raises(error, match=re.escape(f"{weak_values.ORTH_THRESHOLD:.1e}")):
        call(sc)


def test_every_caller_takes_its_route_from_one_function(monkeypatch):
    calls = []
    route = weak_values._route

    def counted(*args, **kwargs):
        calls.append(args)
        return route(*args, **kwargs)

    for module in (weak_values, predictor, oracle, amplifier):
        if hasattr(module, "_route"):
            monkeypatch.setattr(module, "_route", counted)
    orth, general = orthogonal_sigma_x(0.02), _near_orthogonal_qubit()
    runs = [
        # One stack: the sweep's points share the observable, pointer and g.
        lambda: sweep(sg_family(0.2), [0.5, 1.5, 2.5, math.pi], "measured", "predicted"),
        lambda: predict(orth),
        lambda: predict(general),
        lambda: weak_value(general.observable, general.pre, general.post),
        lambda: generalized_weak_value(general.observable, general.pre, general.post, 2, 1),
        lambda: orthogonal_weak_value(orth.observable, orth.pre, orth.post),
    ]
    for run in runs:
        calls.clear()
        run()
        assert len(calls) == 1


def test_vanishing_first_order_response_is_one_error_everywhere():
    # tr(P rho) = tr(P A rho A) = 0: the orthogonal weak value and `predict`
    # raise the same error; the series, whose every order vanishes, refuses
    # the post-selection as `evolve_postselect` does.
    sc = commuting_orthogonal(0.02)
    with pytest.raises(HigherOrderOrthogonality):
        orthogonal_weak_value(sc.observable, sc.pre, sc.post)
    with pytest.raises(HigherOrderOrthogonality):
        predict(sc)
    with pytest.raises(ZeroPostSelectionProbability):
        series_device_state(sc, 4)
