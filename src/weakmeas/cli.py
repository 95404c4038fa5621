"""Command-line interface.

Subcommands::

    weakmeas predict <scenario.json> [--regime auto|aav|general|orthogonal]
    weakmeas exact <scenario.json> [--series-order N] [--densities FILE.csv]
    weakmeas sterngerlach [--lambdas 0.05,0.1,0.2,0.4] [--steps N]
    weakmeas figure2 --wv RE,IM --g G [--delta_q D]

Every subcommand takes ``--out`` (write the primary output to a file
instead of stdout). ``exact`` and ``figure2``, which build a working grid,
take ``--grid-n`` (power-of-two working grid size, a floor), and ``exact``
takes ``--series-order`` (also evaluate the truncated expansion).

The CLI only parses and formats: ``predict`` prints the regime that
`predictor.predict` names (``aav``, ``general`` or ``orthogonal``), and one
writer, `_csv`, formats every CSV file.

Exit codes: 0 on success; 1 for unusable input (CLI usage, file or JSON
errors -- diagnostics name the offending key on stderr); 2 for scenarios
that are valid but outside the requested regime (orthogonal selections fed
to a non-orthogonal predictor, vanishing post-selection probability, ...),
reported as a machine-readable JSON error object on stdout. Runs are
deterministic: identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .errors import ParseError, WeakMeasurementError
from .oracle import evolve_postselect, series_device_state
from .pointer import gaussian, gaussian_profile, validate_grid_n
from .predictor import _REGIMES, SGParams, predict, sg_optimum, stern_gerlach_outcome
from .qops import _parsed
from .scenario import (
    load_scenario,
    scenario_with_orthogonal_weak_value,
    scenario_with_weak_value,
    validate_series_order,
)
from .weak_values import orthogonal_weak_value, weak_value

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 and a value, not a
    flag, in any token like ``-1e-3``, ``-0.5,0.1`` or ``-.5``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_arg(validate):
    """An argparse type: an integer that ``validate`` accepts."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        try:
            return validate(value)
        except (ValueError, WeakMeasurementError) as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


def _finite_float_arg(text: str) -> float:
    """One finite number; argparse names the flag in the error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _complex_arg(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected RE,IM (two comma-separated numbers), got {text!r}"
        )
    return complex(_finite_float_arg(parts[0]), _finite_float_arg(parts[1]))


def _lambdas_arg(text: str) -> list[float]:
    values = [_finite_float_arg(part) for part in text.split(",") if part.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one lambda value")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weakmeas",
        description="Weak-measurement pointer statistics: exact evolution, "
        "perturbative predictions, amplification curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument(
        "--out", default=None, help="write the primary output to this file"
    )
    # Only the subcommands that build a working grid take its size.
    gridded = _Parser(add_help=False)
    gridded.add_argument(
        "--grid-n",
        type=_int_arg(validate_grid_n),
        default=None,
        help="working grid size (power of two in [64, 2^22])",
    )

    p_predict = sub.add_parser(
        "predict",
        parents=[common],
        help="closed-form pointer-shift prediction for a scenario file",
    )
    p_predict.add_argument("scenario", help="scenario JSON file")
    p_predict.add_argument(
        "--regime",
        choices=("auto", *_REGIMES),
        default="auto",
        help="which prediction formula to apply (auto routes on the overlap)",
    )
    p_predict.set_defaults(func=_cmd_predict)

    p_exact = sub.add_parser(
        "exact",
        parents=[common, gridded],
        help="exact post-selected evolution for a scenario file",
    )
    p_exact.add_argument("scenario", help="scenario JSON file")
    p_exact.add_argument(
        "--series-order",
        type=_int_arg(validate_series_order),
        default=None,
        help="also evaluate the truncated expansion at this order",
    )
    p_exact.add_argument(
        "--densities",
        default=None,
        help="write outgoing q/p densities to this CSV file",
    )
    p_exact.set_defaults(func=_cmd_exact)

    p_sg = sub.add_parser(
        "sterngerlach",
        parents=[common],
        help="closed-form Stern-Gerlach amplification curves",
    )
    p_sg.add_argument(
        "--lambdas",
        type=_lambdas_arg,
        default=[0.05, 0.1, 0.2, 0.4],
        help="comma-separated coupling values (default 0.05,0.1,0.2,0.4)",
    )
    p_sg.add_argument(
        "--steps", type=int, default=400, help="number of alpha intervals over [0, pi]"
    )
    p_sg.set_defaults(func=_cmd_sterngerlach)

    p_fig = sub.add_parser(
        "figure2",
        parents=[common, gridded],
        help="outgoing pointer profiles for matched orthogonal and "
        "non-orthogonal scenarios with a requested weak value",
    )
    p_fig.add_argument(
        "--wv", type=_complex_arg, required=True, help="target weak value as RE,IM"
    )
    p_fig.add_argument("--g", type=_finite_float_arg, required=True, help="coupling strength")
    p_fig.add_argument(
        "--delta_q",
        type=_finite_float_arg,
        default=1.0,
        help="Gaussian pointer width (default 1)",
    )
    p_fig.set_defaults(func=_cmd_figure2)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", out)


def _prediction_payload(pred) -> dict:
    peaks = None if pred.peaks_q is None else {"q": list(pred.peaks_q), "p": list(pred.peaks_p)}
    return {
        "regime": pred.regime,
        "delta_q": pred.delta_q,
        "delta_p": pred.delta_p,
        "var_q_out": pred.var_q_out,
        "var_p_out": pred.var_p_out,
        "denominator_C": pred.denominator_c,
        "peaks": peaks,
        "margins": {"weak_interaction": pred.margin_weak, "aav": pred.margin_aav},
    }


def _cmd_predict(args) -> int:
    sc, _ = load_scenario(args.scenario)
    _emit_json(_prediction_payload(predict(sc, args.regime)), args.out)
    return 0


def _csv(comments: list[str], columns: list[tuple[str, np.ndarray | list[float]]]) -> str:
    """The one CSV writer: ``# `` comments, a header and a row per index of
    the (header, values) columns, in order (a list: headers may repeat),
    read lazily so no column is copied; 17 significant digits, as the
    orders of magnitude involved require."""
    lines = [f"# {text}" for text in comments]
    lines.append(",".join(header for header, _ in columns))
    cells = [map(float, values) for _, values in columns]
    lines.extend(",".join(map("{:.17g}".format, row)) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def _record_payload(rec) -> dict:
    """The statistics of a record; JSON keys are sorted on output."""
    fields = ("success_prob", "delta_q", "delta_p", "var_q_out", "var_p_out")
    return {name: getattr(rec, name) for name in fields}


def _cmd_exact(args) -> int:
    sc, options = load_scenario(args.scenario)
    grid_n = args.grid_n if args.grid_n is not None else options.grid_n
    rec = evolve_postselect(sc, grid_n=grid_n)
    payload = _record_payload(rec)
    payload.update(method=rec.method, grid_points=int(rec.q_density.coords.size))
    series_order = (
        args.series_order if args.series_order is not None else options.series_order
    )
    if series_order is not None:
        srec = series_device_state(sc, series_order, grid_n=grid_n)
        payload["series"] = _record_payload(srec)
        payload["series"].update(order=srec.series_order, tail_estimate=srec.tail_estimate)
    if args.densities is not None:
        q, p = rec.q_density, rec.p_density
        columns = [("coord", q.coords), ("q_density", q.values),
                   ("p_coord", p.coords), ("p_density", p.values)]
        _emit(_csv([], columns), args.densities)
    _emit_json(payload, args.out)
    return 0


def _cmd_sterngerlach(args) -> int:
    if args.steps < 1:
        raise ParseError(f"--steps: expected a positive integer, got {args.steps}")
    comments = []
    for lam in args.lambdas:
        alpha, top = sg_optimum(lam)
        comments.append(f"lambda={lam:g} alpha_opt={alpha:.17g} outcome_max={top:.17g}")
    alphas = [np.pi * i / args.steps for i in range(args.steps + 1)]
    columns = [("alpha", alphas)]
    for lam in args.lambdas:
        outcomes = [stern_gerlach_outcome(SGParams(alpha=a, lmbda=lam)) for a in alphas]
        columns.append((f"outcome_{lam:g}", outcomes))
    _emit(_csv(comments, columns), args.out)
    return 0


def _cmd_figure2(args) -> int:
    pointer = _parsed("--delta_q", gaussian, args.delta_q)
    dq_w, dp_w = pointer.delta_q, pointer.delta_p
    target = args.wv
    sc_orth = scenario_with_orthogonal_weak_value(target, args.g, dq_w)
    sc_non = scenario_with_weak_value(target, args.g, dq_w)
    rec_orth = evolve_postselect(sc_orth, grid_n=args.grid_n)
    rec_non = evolve_postselect(sc_non, grid_n=args.grid_n)

    achieved_orth = orthogonal_weak_value(sc_orth.observable, sc_orth.pre, sc_orth.post).value
    achieved_non = weak_value(sc_non.observable, sc_non.pre, sc_non.post).value

    q, p = rec_orth.q_density.coords, rec_orth.p_density.coords
    comments = [
        f"target_weak_value={target.real:.17g}{target.imag:+.17g}j",
        f"achieved_orthogonal={achieved_orth.real:.17g}{achieved_orth.imag:+.17g}j",
        f"achieved_nonorthogonal={achieved_non.real:.17g}{achieved_non.imag:+.17g}j",
        f"g={args.g:.17g} delta_q={dq_w:.17g}",
    ]
    columns = [
        ("q_over_dq", q / dq_w),
        ("initial_q", gaussian_profile(q, dq_w) ** 2 * dq_w),
        ("orthogonal_q", rec_orth.q_density.values * dq_w),
        ("nonorthogonal_q", rec_non.q_density.values * dq_w),
        ("p_over_dp", p / dp_w),
        ("initial_p", gaussian_profile(p, dp_w) ** 2 * dp_w),
        ("orthogonal_p", rec_orth.p_density.values * dp_w),
        ("nonorthogonal_p", rec_non.p_density.values * dp_w),
    ]
    _emit(_csv(comments, columns), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except WeakMeasurementError as exc:
        _emit_json({"error": {"code": exc.code, "message": str(exc)}}, None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
