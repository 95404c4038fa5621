"""Scenario assembly, the JSON wire format, and targeted constructions.

The wire format is the boundary between the CLI and the library, so the
round-trip tests insist on bit-exact reproduction: serialize, pass through
real JSON text, parse, and compare raw buffers.
"""

import json
import math

import numpy as np
import pytest

from weakmeas import (
    Scenario,
    ScenarioOptions,
    density_state,
    gaussian,
    load_scenario,
    make_scenario,
    new_observable,
    orthogonal_weak_value,
    overlap,
    parse_scenario,
    projector_onto,
    pure_state,
    scenario_to_wire,
    scenario_with_orthogonal_weak_value,
    scenario_with_weak_value,
    weak_value,
)
from weakmeas.errors import ConstructionFailure, DimensionMismatch, OrderTooLarge, ParseError
from weakmeas.qops import matrix_to_wire

from support import (
    qubit_pps_half_overlap,
    random_scenario,
    rng,
    skewed_pointer,
)


def _through_json(wire):
    return json.loads(json.dumps(wire, sort_keys=True))


def _assert_same_scenario(a: Scenario, b: Scenario):
    assert a.observable.matrix.tobytes() == b.observable.matrix.tobytes()
    assert a.pre.matrix.tobytes() == b.pre.matrix.tobytes()
    assert a.post.matrix.tobytes() == b.post.matrix.tobytes()
    assert a.g == b.g


# --- wire round-trips ---------------------------------------------------------


def test_wire_round_trip_bit_exact_gaussian():
    # A pure state's matrix is built when the wire format reads it, a mixed
    # state's is the one it was given; both must survive the trip.
    gen = rng(41)
    for dim in range(2, 9):
        for mixed in (False, True):
            sc = random_scenario(gen, dim, mixed=mixed)
            wire = scenario_to_wire(sc)
            sc2, opts = parse_scenario(_through_json(wire))
            _assert_same_scenario(sc, sc2)
            assert sc2.pointer.delta_q == sc.pointer.delta_q
            assert not opts.any_set()
            # Serializing the parsed scenario reproduces the original wire.
            assert scenario_to_wire(sc2) == wire


def test_wire_round_trip_bit_exact_grid():
    a, psi, phi = qubit_pps_half_overlap()
    pt = skewed_pointer(1.0, n=1024, half_span=10.0)
    sc = make_scenario(a, psi, phi, 0.02, pt)
    wire = scenario_to_wire(sc)
    sc2, _ = parse_scenario(_through_json(wire))
    _assert_same_scenario(sc, sc2)
    grid2 = sc2.pointer
    assert grid2.grid.q_min == pt.grid.q_min
    assert grid2.grid.dq == pt.grid.dq
    assert grid2.grid.n == pt.grid.n
    assert len(grid2.branches) == 1
    assert grid2.branches[0][0] == pt.branches[0][0]
    assert grid2.branches[0][1].tobytes() == pt.branches[0][1].tobytes()
    assert scenario_to_wire(sc2) == wire


def test_wire_round_trip_options():
    gen = rng(42)
    sc = random_scenario(gen, 2)
    options = ScenarioOptions(grid_n=8192, series_order=6)
    wire = scenario_to_wire(sc, options)
    sc2, opts = parse_scenario(_through_json(wire))
    _assert_same_scenario(sc, sc2)
    assert opts.grid_n == 8192
    assert opts.series_order == 6
    # Unset options stay off the wire entirely.
    assert "options" not in scenario_to_wire(sc, ScenarioOptions())
    # numpy integers pass the one integer check and go out as ints.
    wide = ScenarioOptions(grid_n=np.int64(4096), series_order=np.int64(4))
    assert _through_json(scenario_to_wire(sc, wide))["options"] == {
        "grid_n": 4096, "series_order": 4,
    }


def test_post_selection_vector_accepted_on_wire():
    wire = {
        "observable": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
        "pre_state": [[1.0, 0.0], [0.0, 0.0]],
        "post_projector": [[0.6, 0.0], [0.8, 0.0]],
        "g": 0.05,
        "pointer": {"type": "gaussian", "delta_q": 1.0},
    }
    sc, _ = parse_scenario(wire)
    assert sc.post.rank == 1
    assert sc.post.matrix[0, 0] == pytest.approx(0.36, abs=1e-15)


def test_effective_coupling_rescaled_at_parse():
    base = np.diag([1.0, 0.15, -0.75]).astype(complex)
    wire = {
        "observable": matrix_to_wire(2.0 * base),
        "pre_state": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        "post_projector": [[0.8, 0.0], [0.6, 0.0], [0.0, 0.0]],
        "g": 0.05,
        "pointer": {"type": "gaussian", "delta_q": 1.0},
    }
    sc, _ = parse_scenario(wire)
    assert sc.g == pytest.approx(0.1, rel=1e-14)
    assert np.allclose(sc.observable.matrix, base, atol=1e-15)


def test_load_scenario_file(tmp_path):
    gen = rng(43)
    sc = random_scenario(gen, 2)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_wire(sc), sort_keys=True))
    sc2, _ = load_scenario(str(path))
    _assert_same_scenario(sc, sc2)

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_scenario(str(bad))


# --- parse failures name the offending key ------------------------------------


def _base_wire():
    a, psi, phi = qubit_pps_half_overlap()
    sc = make_scenario(a, psi, phi, 0.02, gaussian(1.0))
    return scenario_to_wire(sc)


def test_parse_rejects_non_object():
    with pytest.raises(ParseError, match="expected a JSON object"):
        parse_scenario([1, 2, 3])


def test_parse_rejects_unknown_key():
    wire = _base_wire()
    wire["bogus"] = 1
    with pytest.raises(ParseError, match="bogus"):
        parse_scenario(wire)
    # Keys of mixed types sort by their text, not into a TypeError.
    with pytest.raises(ParseError, match="scenario: unknown key 1"):
        parse_scenario({1: 0, "x": 0})
    # The orthogonality threshold is a constant, not a file option.
    wire = _base_wire()
    wire["options"] = {"orth_threshold": 1e-9}
    with pytest.raises(ParseError, match=r"scenario\.options: unknown key 'orth_threshold'"):
        parse_scenario(wire)


@pytest.mark.parametrize(
    "key", ["observable", "pre_state", "post_projector", "g", "pointer"]
)
def test_parse_rejects_missing_key(key):
    wire = _base_wire()
    del wire[key]
    with pytest.raises(ParseError, match=f"{key}: missing"):
        parse_scenario(wire)


def test_parse_rejects_non_hermitian_observable():
    wire = _base_wire()
    wire["observable"] = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(ParseError, match="observable"):
        parse_scenario(wire)


def test_parse_rejects_malformed_matrix_entry():
    wire = _base_wire()
    wire["observable"][0][1] = [1.0]  # not a [re, im] pair
    with pytest.raises(ParseError, match=r"observable.*\[0\]\[1\]"):
        parse_scenario(wire)
    wire["observable"] = []
    with pytest.raises(ParseError, match=r"^scenario\.observable: expected a nonempty array"):
        parse_scenario(wire)


def test_parse_rejects_bad_pre_state():
    wire = _base_wire()
    wire["pre_state"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]]
    with pytest.raises(ParseError, match="pre_state"):
        parse_scenario(wire)


def test_parse_rejects_non_idempotent_post():
    wire = _base_wire()
    wire["post_projector"] = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    with pytest.raises(ParseError, match="post_projector"):
        parse_scenario(wire)


def test_parse_rejects_zero_post_vector():
    wire = _base_wire()
    wire["post_projector"] = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ParseError, match="post_projector"):
        parse_scenario(wire)


def test_parse_rejects_non_numeric_g():
    wire = _base_wire()
    wire["g"] = "0.1"
    with pytest.raises(ParseError, match=r"\.g"):
        parse_scenario(wire)
    wire["g"] = True
    with pytest.raises(ParseError, match=r"\.g"):
        parse_scenario(wire)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
def test_parse_rejects_non_finite_g(bad):
    wire = _base_wire()
    wire["g"] = bad
    with pytest.raises(ParseError, match=r"\.g: expected a finite number"):
        parse_scenario(wire)


def test_parse_rejects_non_finite_observable_entry():
    wire = _base_wire()
    wire["observable"][0][0] = [math.nan, 0.0]
    with pytest.raises(ParseError, match="observable.*non-finite"):
        parse_scenario(wire)


def test_parse_rejects_unknown_pointer_type():
    wire = _base_wire()
    wire["pointer"] = {"type": "airy"}
    with pytest.raises(ParseError, match="pointer"):
        parse_scenario(wire)


def test_parse_rejects_negative_pointer_width():
    wire = _base_wire()
    wire["pointer"] = {"type": "gaussian", "delta_q": -1.0}
    with pytest.raises(ParseError, match="delta_q"):
        parse_scenario(wire)


def test_parse_rejects_bad_options():
    wire = _base_wire()
    wire["options"] = {"grid_m": 128}
    with pytest.raises(ParseError, match="grid_m"):
        parse_scenario(wire)
    wire["options"] = {"grid_n": 100}
    with pytest.raises(ParseError, match="grid_n"):
        parse_scenario(wire)
    wire["options"] = {"grid_n": 1 << 23}
    with pytest.raises(ParseError, match="grid_n"):
        parse_scenario(wire)
    wire["options"] = {"series_order": 17}
    with pytest.raises(ParseError, match="series_order"):
        parse_scenario(wire)
    wire["options"] = {"orth_threshold": 0.0}
    with pytest.raises(ParseError, match="orth_threshold"):
        parse_scenario(wire)
    wire["options"] = {"orth_threshold": 2.0}
    with pytest.raises(ParseError, match="orth_threshold"):
        parse_scenario(wire)


@pytest.mark.parametrize(
    "field, value, error, name",
    [
        ("grid_n", 3, ValueError, "grid_n"),
        ("grid_n", 1 << 23, ValueError, "grid_n"),
        ("grid_n", 128.0, ValueError, "grid_n"),
        ("grid_n", np.int64(100), ValueError, "power of two"),
        ("grid_n", True, ValueError, "grid_n"),
        ("series_order", np.int64(17), OrderTooLarge, "series order"),
        ("series_order", -1, ValueError, "series order"),
        ("series_order", 17, OrderTooLarge, "series order"),
    ],
)
def test_options_are_refused_when_built(field, value, error, name):
    # Checked where they are built, so scenario_to_wire cannot write options
    # that parse_scenario refuses.
    with pytest.raises(error, match=name):
        ScenarioOptions(**{field: value})


def test_parse_rejects_dimension_mismatch():
    wire = _base_wire()
    wire["pre_state"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ParseError, match="dimension"):
        parse_scenario(wire)


# --- convenience assembly -------------------------------------------------------


def test_make_scenario_rescales_raw_matrix():
    raw = np.diag([3.0, -3.0]).astype(complex)
    sc = make_scenario(raw, [1.0, 0.0], [0.6, 0.8], 0.1, gaussian(1.0))
    assert sc.g == pytest.approx(0.3, rel=1e-14)
    assert np.allclose(sc.observable.matrix, np.diag([1.0, -1.0]))


def test_make_scenario_observable_passthrough():
    obs = new_observable(np.diag([1.0, -1.0]))
    sc = make_scenario(obs, [1.0, 0.0], [0.6, 0.8], 0.1, gaussian(1.0))
    assert sc.observable is obs
    assert sc.g == 0.1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_make_scenario_rejects_non_finite_g(bad):
    with pytest.raises(ValueError, match="finite"):
        make_scenario(np.diag([1.0, -1.0]), [1.0, 0.0], [0.6, 0.8], bad, gaussian(1.0))


def test_make_scenario_accepts_matrix_state_forms():
    rho = np.diag([0.7, 0.3]).astype(complex)
    proj = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    sc = make_scenario(np.diag([1.0, -1.0]), rho, proj, 0.1, gaussian(1.0))
    assert not sc.pre.is_pure
    assert sc.post.rank == 1


def test_scenario_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Scenario(
            observable=new_observable(np.diag([1.0, -1.0])),
            pre=pure_state([1.0, 0.0, 0.0]),
            post=projector_onto([1.0, 0.0, 0.0]),
            g=0.1,
            pointer=gaussian(1.0),
        )


# --- targeted constructions -----------------------------------------------------


@pytest.mark.parametrize("target", [4.0, -2.5, 1j, 0.2 + 0.1j])
def test_weak_value_construction_hits_target(target):
    sc = scenario_with_weak_value(target, 0.01)
    achieved = weak_value(sc.observable, sc.pre, sc.post).value
    assert abs(achieved - complex(target)) < 1e-9 * max(1.0, abs(target))
    assert overlap(sc.post, sc.pre) > 1e-4
    assert sc.g == 0.01


@pytest.mark.parametrize("target", [0.5, -0.3, 0.2 + 0.1j, 1.5j])
def test_orthogonal_construction_hits_target(target):
    sc = scenario_with_orthogonal_weak_value(target, 0.02, delta_q=1.0)
    assert overlap(sc.post, sc.pre) <= 1e-14
    lead = np.vdot(sc.post.vector, sc.observable.matrix @ sc.pre.vector)
    assert abs(lead) > 1e-6
    achieved = orthogonal_weak_value(sc.observable, sc.pre, sc.post).value
    assert abs(achieved - complex(target)) < 1e-9 * max(1.0, abs(target))


def test_orthogonal_construction_failure_for_unreachable_target():
    # A huge target forces <phi|A|psi> ~ <phi|A^2|psi>/(2w) below the usable
    # threshold, so the constructor refuses rather than return a scenario
    # whose leading response is numerically meaningless. The weak value's
    # route alone sets that threshold, so targets whose leading response is
    # small but not zero (3e5..1e7) fail the same way, and so do targets
    # near the float limit, whose constraint row is scaled by a power of two.
    for target in (3e5, 1e6, 1e7, 1e8, 1e308, -1.7e308, 1e308j):
        with pytest.raises(ConstructionFailure):
            scenario_with_orthogonal_weak_value(target, 0.02)


def test_weak_value_construction_failure_at_the_float_limit():
    # The constraint row is scaled so w I stays finite; a target this large
    # leaves no post-selection with a usable overlap.
    with pytest.raises(ConstructionFailure):
        scenario_with_weak_value(1e308 * (1 + 1j), 0.02)
