"""Command-line interface: exit codes, JSON/CSV payloads, determinism.

Fast paths run in-process through `cli.main`; byte-determinism is checked
through real subprocesses so the test sees exactly what a shell user sees.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from weakmeas import (
    SGParams,
    evolve_postselect,
    gaussian,
    make_scenario,
    new_observable,
    scenario_to_wire,
    scenario_with_orthogonal_weak_value,
    sg_optimum,
    stern_gerlach_outcome,
)
from weakmeas import cli
from weakmeas.cli import main
from weakmeas.qops import SIGMA_X, SIGMA_Z

from support import commuting_orthogonal, half_overlap_scenario, orthogonal_sigma_x


def _write_scenario(tmp_path, sc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario_to_wire(sc), sort_keys=True))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- predict ---------------------------------------------------------------------


def test_predict_auto_labels_linear_response(tmp_path, capsys):
    # Within linear response `predict` still names its own regime; the
    # aav margin, not a second label, says the first-order formula holds.
    sc = make_scenario(
        SIGMA_Z, [1.0, 0.0], np.array([1.0, 1.0]) / math.sqrt(2.0), 0.01, gaussian(1.0)
    )
    code, out, _ = _run(capsys, ["predict", _write_scenario(tmp_path, sc)])
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "general"
    assert payload["delta_q"] == pytest.approx(0.01, rel=1e-3)
    assert payload["margins"]["aav"] < 0.01


def test_predict_auto_routes_orthogonal(tmp_path, capsys):
    sc = orthogonal_sigma_x(0.02)
    code, out, _ = _run(capsys, ["predict", _write_scenario(tmp_path, sc)])
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "orthogonal"
    assert payload["delta_q"] == pytest.approx(0.0, abs=1e-15)
    assert payload["var_q_out"] == pytest.approx(3.0, rel=1e-12)


def test_predict_forced_regimes(tmp_path, capsys):
    general = _write_scenario(tmp_path, half_overlap_scenario(0.01), "general.json")
    for regime, expected in (("aav", "aav"), ("general", "general")):
        code, out, _ = _run(capsys, ["predict", general, "--regime", regime])
        assert code == 0
        assert json.loads(out)["regime"] == expected

    orth = _write_scenario(tmp_path, orthogonal_sigma_x(0.02), "orth.json")
    code, out, _ = _run(capsys, ["predict", orth, "--regime", "orthogonal"])
    assert code == 0
    assert out == _run(capsys, ["predict", orth])[1]
    payload = json.loads(out)
    assert payload["regime"] == "orthogonal"
    assert payload["peaks"] is not None
    assert payload["peaks"]["q"] == pytest.approx(
        [-math.sqrt(2.0), math.sqrt(2.0)], abs=1e-12
    )


def test_predict_auto_and_forced_orthogonal_agree(tmp_path, capsys):
    # Both routes reach the same orthogonal predictor and print what it
    # returns, label included, with the Gaussian double-peak positions.
    path = _write_scenario(tmp_path, scenario_with_orthogonal_weak_value(0.2 + 0.1j, 0.02, 1.5))
    outs = {}
    for regime in ("auto", "orthogonal"):
        code, outs[regime], _ = _run(capsys, ["predict", path, "--regime", regime])
        assert code == 0
    assert outs["auto"] == outs["orthogonal"]
    payload = json.loads(outs["auto"])
    assert payload["regime"] == "orthogonal"
    assert payload["peaks"]["q"] == pytest.approx(
        [0.02 * 0.2 - 1.5 * math.sqrt(2.0), 0.02 * 0.2 + 1.5 * math.sqrt(2.0)], rel=1e-12
    )


def test_predict_writes_out_file(tmp_path, capsys):
    # g large enough that the linear-response label does not kick in.
    path = _write_scenario(tmp_path, half_overlap_scenario(0.05))
    out_file = tmp_path / "prediction.json"
    code, out, err = _run(capsys, ["predict", path, "--out", str(out_file)])
    assert code == 0
    assert out == "" and err == ""
    payload = json.loads(out_file.read_text())
    assert payload["regime"] == "general"


def test_predict_regime_mismatch_is_a_physics_error(tmp_path, capsys):
    # Forcing the linear-response formula onto orthogonal selections is a
    # regime error, reported as machine-readable JSON with exit code 2.
    path = _write_scenario(tmp_path, orthogonal_sigma_x(0.02))
    code, out, _ = _run(capsys, ["predict", path, "--regime", "aav"])
    assert code == 2
    payload = json.loads(out)
    assert "error" in payload and payload["error"]["message"]


def test_predict_nan_bracket_is_a_physics_error(tmp_path, capsys):
    # At g = 1e308 the resummed bracket is NaN: a typed error with exit
    # code 2, not a NaN payload that the JSON writer refuses.
    path = _write_scenario(tmp_path, half_overlap_scenario(1e308))
    code, out, _ = _run(capsys, ["predict", path])
    assert code == 2
    assert json.loads(out)["error"]["code"] == "non-positive-denominator"


# --- exact -----------------------------------------------------------------------


def test_exact_payload_with_series_and_densities(tmp_path, capsys):
    path = _write_scenario(tmp_path, half_overlap_scenario(0.04))
    dens_file = tmp_path / "densities.csv"
    code, out, _ = _run(
        capsys,
        ["exact", path, "--series-order", "4", "--densities", str(dens_file)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "exact-spectral"
    assert payload["grid_points"] == 4096
    assert payload["success_prob"] == pytest.approx(0.5, abs=5e-3)
    series = payload["series"]
    assert series["order"] == 4
    assert series["delta_q"] == pytest.approx(payload["delta_q"], abs=1e-7)
    assert series["tail_estimate"] > 0.0

    lines = dens_file.read_text().splitlines()
    assert lines[0] == "coord,q_density,p_coord,p_density"
    assert len(lines) == 4097


def test_exact_series_on_a_gaussian_file_is_accurate(tmp_path, capsys):
    # The demo qubit at g = 0.5: the order-8 series density must decay at
    # the +-10 delta_q edges of the Gaussian working grid, or `exact` exits
    # 2 with grid-too-small.
    pre = np.array([1.0, 1.0]) / math.sqrt(2.0)
    post = np.array([1.0, -0.9]) / math.sqrt(1.81)
    path = _write_scenario(tmp_path, make_scenario(SIGMA_Z, pre, post, 0.5, gaussian(1.0)))
    code, out, _ = _run(capsys, ["exact", path, "--series-order", "8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["series"]["delta_q"] == pytest.approx(payload["delta_q"], abs=1e-5)


def _near_orthogonal_d3():
    """tr(P rho) = 8.3e-12, just above ORTH_THRESHOLD (1e-12)."""
    obs = new_observable(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
    return make_scenario(obs, [3e-6, 1.0, 0.3], [1.0, 0.0, 0.0], 0.05, gaussian(1.0))


def test_a_file_orth_threshold_is_refused(tmp_path, capsys):
    # The orthogonality threshold is a constant, not a file option: the one
    # key check refuses it.
    wire = scenario_to_wire(_near_orthogonal_d3())
    wire["options"] = {"orth_threshold": 1e-9}
    path = tmp_path / "near_orth.json"
    path.write_text(json.dumps(wire))
    for command in ("predict", "exact"):
        code, out, err = _run(capsys, [command, str(path)])
        assert code == 1
        assert out == ""
        assert err.endswith(f"{path}.options: unknown key 'orth_threshold'\n")


def test_exact_series_matches_the_oracle_just_above_the_threshold(tmp_path, capsys):
    # `predict` routes general at tr(P rho) = 8.3e-12; the series takes no
    # route and matches the exact record.
    sc = _near_orthogonal_d3()
    exact = evolve_postselect(sc)
    path = _write_scenario(tmp_path, sc)
    code, out, _ = _run(capsys, ["predict", path])
    assert code == 0
    assert json.loads(out)["regime"] == "general"
    code, out, _ = _run(capsys, ["exact", path, "--series-order", "8"])
    assert code == 0
    series = json.loads(out)["series"]
    assert series["delta_q"] == pytest.approx(exact.delta_q, abs=1e-12)
    assert series["delta_p"] == pytest.approx(exact.delta_p, abs=1e-12)
    assert series["success_prob"] == pytest.approx(exact.success_prob, rel=1e-12)


def test_series_converges_where_predict_finds_a_vanishing_first_order(tmp_path, capsys):
    # Orthogonal selections with tr(P A rho A) = 0 whose post-selection
    # still succeeds at second order (<2|A^2|0> = 1): the series starts at
    # order 4 and reaches the exact record by order 12, while `predict`
    # reports the route's error.
    obs = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    sc = make_scenario(obs, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.2, gaussian(1.0))
    path = _write_scenario(tmp_path, sc)
    code, out, _ = _run(capsys, ["exact", path, "--series-order", "12"])
    assert code == 0
    payload = json.loads(out)
    assert payload["series"]["delta_q"] == pytest.approx(payload["delta_q"], abs=1e-12)
    assert payload["series"]["success_prob"] == pytest.approx(payload["success_prob"], rel=1e-9)
    code, out, _ = _run(capsys, ["predict", path])
    assert code == 2
    assert json.loads(out)["error"]["code"] == "higher-order-orthogonality"


def test_figure2_unreachable_orthogonal_target_is_a_construction_failure(capsys):
    # |<phi|A|psi>| is about 1.9e-7 at 1e6: the route finds no leading
    # response. Near the float limit the constraint rows are scaled by a
    # power of two, so no w A overflows on the way to the same refusal.
    for wv in ("1e6,0", "1e308,0", "-1.7e308,0", "0,1e308"):
        code, out, _ = _run(capsys, ["figure2", f"--wv={wv}", "--g", "0.05"])
        assert code == 2, wv
        assert json.loads(out)["error"]["code"] == "construction-failure"


def test_series_order_flag_beyond_the_cap_exits_one(tmp_path, capsys):
    path = _write_scenario(tmp_path, half_overlap_scenario(0.04))
    for order in ("17", "-1"):
        code, out, err = _run(capsys, ["exact", path, "--series-order", order])
        assert code == 1
        assert out == ""
        assert "argument --series-order" in err


def test_exact_honors_grid_n_flag(tmp_path, capsys):
    path = _write_scenario(tmp_path, half_overlap_scenario(0.04))
    code, out, _ = _run(capsys, ["exact", path, "--grid-n", "8192"])
    assert code == 0
    assert json.loads(out)["grid_points"] == 8192


def test_exact_zero_postselection_exit_two(tmp_path, capsys):
    path = _write_scenario(tmp_path, commuting_orthogonal(0.02))
    code, out, _ = _run(capsys, ["exact", path])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["code"] == "zero-postselection"


def test_exact_non_finite_g_exits_one(tmp_path, capsys):
    # Python's json module reads NaN; the parser must refuse it, or the
    # payload would carry NaN, which is not JSON.
    wire = scenario_to_wire(half_overlap_scenario(0.04))
    wire["g"] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(wire))
    code, out, err = _run(capsys, ["exact", str(path)])
    assert code == 1
    assert out == ""
    assert ".g: expected a finite number" in err
    code, out, _ = _run(capsys, ["figure2", "--wv", "0.2,0.1", "--g", "nan"])
    assert code == 1
    assert out == ""
    with pytest.raises(ValueError):
        cli._emit_json({"delta_q": math.nan}, None)


@pytest.mark.parametrize("command", ["exact", "predict"])
def test_non_finite_pre_state_exits_one(tmp_path, capsys, command):
    # Python's json module reads NaN; the parser must refuse it and name the
    # entry before a NaN state reaches the engines.
    wire = scenario_to_wire(half_overlap_scenario(0.04))
    wire["pre_state"] = [[math.nan, 0.0], [1.0, 0.0]]
    path = tmp_path / "nan_state.json"
    path.write_text(json.dumps(wire))
    code, out, err = _run(capsys, [command, str(path)])
    assert code == 1
    assert out == ""
    assert ".pre_state[0]: non-finite entry" in err


@pytest.mark.parametrize("width", [1e-150, 1e-200])
def test_tiny_gaussian_width_exits_one_without_traceback(tmp_path, width):
    # These widths used to escape as OverflowError (predict) and
    # ZeroDivisionError (exact); the parser now refuses them by name.
    wire = scenario_to_wire(half_overlap_scenario(0.04))
    wire["pointer"] = {"type": "gaussian", "delta_q": width}
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(wire))
    for command in ("predict", "exact"):
        proc = subprocess.run(
            [sys.executable, "-m", "weakmeas.cli", command, str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, (command, proc.stderr)
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert f".pointer.delta_q: delta_q = {width!r} is outside" in proc.stderr


@pytest.mark.parametrize("width", ["0", "-1", "1e-300", "1e300", "-1e-3"])
def test_figure2_refuses_a_width_by_its_flag(capsys, width):
    # The width goes through the pointer's own check. 1e-300 and 1e300 once
    # exited 2 with a width-out-of-range JSON error on stdout, and -1e-3 was
    # taken for a flag ("expected one argument").
    argv = ["figure2", "--wv", "0.2,0.1", "--g", "0.1", "--delta_q", width]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --delta_q: delta_q")


# --- usage and parse failures ------------------------------------------------------


def test_usage_errors_exit_one(tmp_path, capsys):
    assert _run(capsys, [])[0] == 1
    assert _run(capsys, ["predict"])[0] == 1

    code, _, err = _run(capsys, ["exact", "missing.json", "--grid-n", "100"])
    assert code == 1
    assert "power of two" in err

    code, _, err = _run(capsys, ["predict", str(tmp_path / "nope.json")])
    assert code == 1
    assert err.startswith("error:")

    broken = tmp_path / "broken.json"
    broken.write_text("{]")
    code, _, err = _run(capsys, ["predict", str(broken)])
    assert code == 1
    assert "invalid JSON" in err

    stray = tmp_path / "stray.json"
    wire = scenario_to_wire(half_overlap_scenario(0.01))
    wire["bogus"] = 1
    stray.write_text(json.dumps(wire))
    code, _, err = _run(capsys, ["exact", str(stray)])
    assert code == 1
    assert "bogus" in err

    wire = scenario_to_wire(half_overlap_scenario(0.01))
    wire["pointer"]["widht"] = 3
    stray.write_text(json.dumps(wire))
    code, _, err = _run(capsys, ["exact", str(stray)])
    assert code == 1
    assert err.endswith(".pointer: unknown key 'widht'\n")

    code, _, err = _run(capsys, ["figure2", "--wv", "abc", "--g", "0.1"])
    assert code == 1
    code, _, err = _run(capsys, ["figure2", "--wv", "0.2,0.1", "--g", "0.1", "--delta_q", "-1"])
    assert code == 1
    code, _, err = _run(capsys, ["sterngerlach", "--steps", "0"])
    assert code == 1
    # Only the subcommands that build a working grid take --grid-n.
    path = _write_scenario(tmp_path, half_overlap_scenario(0.01))
    assert _run(capsys, ["predict", path, "--grid-n", "4096"])[0] == 1
    assert _run(capsys, ["sterngerlach", "--grid-n", "4096"])[0] == 1


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    # Nesting past the interpreter's recursion limit once escaped as a
    # RecursionError traceback.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = _run(capsys, ["exact", str(deep)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {deep}: invalid JSON: ")


def test_negative_flag_values_in_any_number_form(capsys):
    # A value that starts with a minus and a digit is a value, not a flag,
    # in comma and exponent form too; this overrides a private argparse
    # attribute, so a Python upgrade that breaks it fails here.
    fig = ["figure2", "--g", "0.05"]
    code, out, _ = _run(capsys, [*fig, "--wv", "-0.5,0.1"])
    assert code == 0
    assert (code, out) == _run(capsys, [*fig, "--wv=-0.5,0.1"])[:2]
    assert _run(capsys, ["figure2", "--wv", "2,0", "--g", "-1e-3"])[0] == 0
    code, out, err = _run(capsys, ["figure2", "--wv", "2,0", "--g", "-x"])
    assert (code, out) == (1, "")
    assert "--g: expected one argument" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["figure2", "--wv", "nan,0", "--g", "0.1"], "--wv"),
        (["figure2", "--wv", "inf,0", "--g", "0.1"], "--wv"),
        (["figure2", "--wv", "0.2,-inf", "--g", "0.1"], "--wv"),
        (["figure2", "--wv", "0.2,0.1", "--g", "nan"], "--g"),
        (["figure2", "--wv", "0.2,0.1", "--g", "0.1", "--delta_q", "inf"], "--delta_q"),
        (["sterngerlach", "--lambdas", "nan"], "--lambdas"),
        (["sterngerlach", "--lambdas", "0.1,inf"], "--lambdas"),
    ],
)
def test_non_finite_numbers_are_refused_at_parse_time(capsys, argv, flag):
    # A NaN or infinite flag value never reaches the engines: argparse
    # refuses it with exit code 1 and names the flag.
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"argument {flag}: expected a finite number" in err


# --- sterngerlach -------------------------------------------------------------------


def test_sterngerlach_csv_matches_closed_form(capsys):
    code, out, _ = _run(capsys, ["sterngerlach", "--lambdas", "0.1", "--steps", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# lambda=0.1 alpha_opt=")
    alpha_opt, outcome_max = sg_optimum(0.1)
    fields = dict(part.split("=") for part in lines[0][2:].split(" "))
    assert float(fields["alpha_opt"]) == pytest.approx(alpha_opt, abs=1e-15)
    assert float(fields["outcome_max"]) == pytest.approx(outcome_max, abs=1e-15)
    assert lines[1] == "alpha,outcome_0.1"
    assert len(lines) == 2 + 9
    for row in lines[2:]:
        alpha_s, outcome_s = row.split(",")
        expected = stern_gerlach_outcome(SGParams(alpha=float(alpha_s), lmbda=0.1))
        assert float(outcome_s) == pytest.approx(expected, abs=1e-15)


def test_sterngerlach_keeps_columns_with_one_header(capsys):
    # Two lambdas that print alike head two columns alike; both are kept.
    argv = ["sterngerlach", "--lambdas", "0.1,0.10000000001", "--steps", "4"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "alpha,outcome_0.1,outcome_0.1"
    for row in rows[1:]:
        alpha, *outcomes = (float(x) for x in row.split(","))
        assert outcomes == [
            stern_gerlach_outcome(SGParams(alpha=alpha, lmbda=lam)) for lam in (0.1, 0.10000000001)
        ]


def test_sterngerlach_tiny_lambda_is_a_typed_error(capsys):
    # The optimum of a tiny lambda is finite; the curve's denominator at
    # alpha = pi then vanishes, a documented exit code, not a traceback.
    code, out, _ = _run(capsys, ["sterngerlach", "--lambdas", "1e-300", "--steps", "1"])
    assert code == 2
    assert json.loads(out)["error"]["code"] == "degenerate-denominator"


def test_sterngerlach_small_angle_is_tangent(capsys):
    # Far from the amplification regime the measured value reduces to
    # tan(alpha/2)-like behavior: at small alpha it is close to alpha/2...
    # precisely, sin(a)/(cos(a)(1-l^2/2)+1) ~ tan(a/2) for small l.
    code, out, _ = _run(capsys, ["sterngerlach", "--lambdas", "0.05", "--steps", "400"])
    assert code == 0
    rows = [r for r in out.splitlines() if not r.startswith("#")][1:]
    alpha, outcome = (float(x) for x in rows[13].split(","))
    assert outcome == pytest.approx(math.tan(alpha / 2.0), rel=5e-3)


def test_sterngerlach_warns_once_per_strong_lambda():
    # A fresh process, so no earlier warning is filtered as a repeat: one
    # ValidityWarning per lambda above 0.5, none for 0.3.
    proc = subprocess.run(
        [sys.executable, "-m", "weakmeas.cli", "sterngerlach",
         "--lambdas", "0.3,0.6,0.7", "--steps", "4"],
        capture_output=True,
        text=True,
        check=True,
    )
    warned = [line for line in proc.stderr.splitlines() if "ValidityWarning" in line]
    assert len(warned) == 2
    assert "lambda = 0.6 > 0.5" in warned[0]
    assert "lambda = 0.7 > 0.5" in warned[1]


# --- figure2 ---------------------------------------------------------------------


def _local_max_indices(values, floor):
    idx = []
    for i in range(1, len(values) - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1] and values[i] > floor:
            idx.append(i)
    return idx


def test_figure2_profiles(capsys):
    code, out, _ = _run(capsys, ["figure2", "--wv", "0.2,0.1", "--g", "0.1"])
    assert code == 0
    lines = out.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert len(comments) == 4
    assert comments[0] == "# target_weak_value=0.20000000000000001+0.10000000000000001j"
    header = lines[4]
    assert header.split(",") == [
        "q_over_dq",
        "initial_q",
        "orthogonal_q",
        "nonorthogonal_q",
        "p_over_dp",
        "initial_p",
        "orthogonal_p",
        "nonorthogonal_p",
    ]
    rows = np.array([[float(x) for x in row.split(",")] for row in lines[5:]])
    q = rows[:, 0]
    cell = q[1] - q[0]

    orth_idx = _local_max_indices(rows[:, 2], floor=1e-3)
    assert len(orth_idx) == 2
    lo, hi = sorted(q[i] for i in orth_idx)
    assert abs(lo - (0.02 - math.sqrt(2.0))) < 3 * cell
    assert abs(hi - (0.02 + math.sqrt(2.0))) < 3 * cell

    non_idx = _local_max_indices(rows[:, 3], floor=1e-3)
    assert len(non_idx) == 1
    assert abs(q[non_idx[0]] - 0.02) < 3 * cell

    # Densities are emitted in scaled units: each column integrates to one.
    assert np.sum(rows[:, 2]) * cell == pytest.approx(1.0, abs=1e-8)
    assert np.sum(rows[:, 3]) * cell == pytest.approx(1.0, abs=1e-8)


# --- determinism across processes ------------------------------------------------


def _run_subprocess(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "weakmeas.cli", *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def test_cli_output_is_byte_deterministic(tmp_path):
    sg_args = ["sterngerlach", "--lambdas", "0.05,0.2", "--steps", "40"]
    assert _run_subprocess(sg_args) == _run_subprocess(sg_args)

    fig_args = ["figure2", "--wv", "0.5,0.0", "--g", "0.05", "--grid-n", "256"]
    first = _run_subprocess(fig_args)
    assert first == _run_subprocess(fig_args)

    # --out writes exactly the bytes that would have gone to stdout.
    out_file = tmp_path / "fig.csv"
    _run_subprocess([*fig_args, "--out", str(out_file)])
    assert out_file.read_text() == first
