"""The benchmark workloads: what one operation does and how it is checked.

Every workload hands the package only inputs from `generate`. Each
operation returns ``(ok, digest)``: whether its outputs passed the
workload's correctness check, and a hash of those outputs, which must be
the same with and without tracing. Package functions are always looked up
through their module at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import subprocess
import sys
import time

import numpy as np

import generate
from weakmeas import amplifier, cli, oracle, predictor

NAMES = ("amplify", "verify", "cli")

# Check tolerances. The amplify bounds are those of the test suite
# (test_optimizer_finds_analytic_amplification_maximum and
# test_exact_engine_peak_near_predicted). The series and oracle bounds sit
# at least an order of magnitude above the largest deviations seen on 104
# generated ops (density 6e-10 of the peak, shifts 1e-13, probabilities
# 7e-15); 4394 ops over 13 seeds all pass them. PREDICTOR_C bounds the
# predictor error by C g^3: the resummed general formula misses at third
# order, and so does the orthogonal one on the even (Gaussian) pointers
# verify gives it; the largest C seen over 780 generated scenarios was 0.34.
OPT_ALPHA_TOL = 1e-6
OPT_OUTCOME_RTOL = 1e-8
EXACT_ALPHA_TOL = 0.02
EXACT_OUTCOME_RTOL = 2e-2
PROB_RTOL = 1e-12
SERIES_SHIFT_TOL = 1e-9
SERIES_PROB_RTOL = 1e-10
SERIES_DENSITY_RTOL = 1e-8
PREDICTOR_C = 2.0


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()[:16]


class Workload:
    """Defaults for the hooks a workload may override."""

    def warmup_op(self):
        """An untimed op run during set-up, or None."""
        return None

    def after(self, op, digest: str) -> bool:
        """Untimed part of an op's check."""
        return True

    def extra_metrics(self) -> dict[str, tuple[float, str, int]]:
        """Workload-specific figures: name -> (value, unit, samples)."""
        return {}


class Amplify(Workload):
    """One op: one lambda study, a sweep and an optimum search per engine."""

    name = "amplify"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.alphas = generate.sweep_alphas(20 if tiny else generate.SWEEP_POINTS)
        self.bracket = (math.pi / 2.0, math.pi)
        self.sweep_s = 0.0
        self.sweep_points = 0
        self.optimum_ms = {engine: [] for engine in amplifier.ENGINES}

    def block(self, index: int) -> list[float]:
        return generate.amplify_block(self.seed, index)

    def warmup_op(self) -> float:
        return generate.amplify_warmup(self.seed)

    def run(self, lam: float, tracer=None) -> tuple[bool, str]:
        family = amplifier.sg_family(lam)
        if tracer is not None:
            family = tracer.count_family(family)
        reports, values, ok = {}, [], True
        for engine in amplifier.ENGINES:
            t0 = time.perf_counter()
            records = amplifier.sweep(family, self.alphas, "measured", engine)
            t1 = time.perf_counter()
            reports[engine] = amplifier.find_optimum(family, self.bracket, "measured", engine)
            t2 = time.perf_counter()
            if tracer is None:
                self.sweep_s += t1 - t0
                self.sweep_points += len(records)
                self.optimum_ms[engine].append(1e3 * (t2 - t1))
            for r in records:
                ok &= r.outcome is not None and math.isfinite(r.outcome)
                ok &= 0.0 <= r.success_prob <= 1.0
                values += [r.outcome if r.outcome is not None else math.nan, r.success_prob]
        exact, pred = reports["exact"], reports["predicted"]
        alpha_opt, outcome_opt = predictor.sg_optimum(lam)
        ok &= abs(pred.parameter_opt - alpha_opt) <= OPT_ALPHA_TOL
        ok &= abs(pred.outcome_max / outcome_opt - 1.0) <= OPT_OUTCOME_RTOL
        ok &= abs(exact.parameter_opt - pred.parameter_opt) < EXACT_ALPHA_TOL
        ok &= abs(exact.outcome_max / pred.outcome_max - 1.0) <= EXACT_OUTCOME_RTOL
        ok &= exact.outcome_max > pred.outcome_max
        for rep in (exact, pred):
            values += [rep.parameter_opt, rep.outcome_max, rep.iterations]
        return bool(ok), _digest(values)

    def extra_metrics(self) -> dict[str, tuple[float, str, int]]:
        out = {
            "sweep_points_per_s": (
                self.sweep_points / self.sweep_s if self.sweep_s else 0.0,
                "1/s",
                self.sweep_points,
            )
        }
        for engine, times in self.optimum_ms.items():
            out[f"optimum_{engine}_p50_ms"] = (
                float(np.median(times)) if times else 0.0,
                "ms",
                len(times),
            )
        return out


class Verify(Workload):
    """One op: one generated scenario computed and cross-checked three ways."""

    name = "verify"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.large_n = 8192 if tiny else generate.LARGE_N

    def block(self, index: int) -> list:
        return generate.verify_block(self.seed, index, self.large_n)

    def warmup_op(self):
        return generate.verify_warmup(self.seed)

    def run(self, case, tracer=None) -> tuple[bool, str]:
        sc, n = case.scenario, case.grid_n
        rec = oracle.evolve_postselect(sc, grid_n=n)
        prob = oracle.success_probability(sc, grid_n=n)
        ser = oracle.series_device_state(sc, generate.SERIES_ORDER, grid_n=n)
        args = (sc.observable, sc.pre, sc.post, sc.g, sc.pointer)
        if case.cell.orthogonal:
            pred = predictor.predict_orthogonal(*args)
        else:
            pred = predictor.predict_general(*args)

        peak = float(np.max(rec.q_density.values))
        sup = float(np.max(np.abs(ser.q_density.values - rec.q_density.values)))
        pred_err = max(abs(pred.delta_q - rec.delta_q), abs(pred.delta_p - rec.delta_p))
        ok = (
            abs(prob / rec.success_prob - 1.0) <= PROB_RTOL
            and abs(ser.delta_q - rec.delta_q) <= SERIES_SHIFT_TOL
            and abs(ser.delta_p - rec.delta_p) <= SERIES_SHIFT_TOL
            and abs(ser.success_prob / rec.success_prob - 1.0) <= SERIES_PROB_RTOL
            and sup <= SERIES_DENSITY_RTOL * peak
            and pred_err <= PREDICTOR_C * abs(sc.g) ** 3
        )
        values = [
            rec.success_prob, rec.delta_q, rec.delta_p, rec.var_q_out, rec.var_p_out,
            prob, ser.delta_q, ser.delta_p, ser.success_prob, ser.tail_estimate, sup,
            pred.delta_q, pred.delta_p,
        ]
        return bool(ok and all(map(math.isfinite, values))), _digest(values)


class Cli(Workload):
    """One op: one ``weakmeas.cli`` invocation.

    Untraced, each op is a fresh ``python -m weakmeas.cli`` process whose
    exit code must be 0 and whose stdout must match, byte for byte, an
    in-process ``cli.main`` run with the same arguments. Traced, the op
    drives ``cli.main`` in-process.
    """

    name = "cli"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.paths = generate.write_cli_files(seed, workdir)
        self.subprocess_ops = True
        self.reference: dict[tuple[str, ...], str] = {}

    def block(self, index: int) -> list[list[str]]:
        return generate.cli_block(self.seed, index, self.paths)

    def in_process(self, argv: list[str]) -> tuple[int, bytes]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return code, out.getvalue().encode("utf-8")

    def run(self, argv: list[str], tracer=None) -> tuple[bool, str]:
        if self.subprocess_ops:
            proc = subprocess.run(
                [sys.executable, "-m", "weakmeas.cli", *argv],
                capture_output=True,
                timeout=60,
            )
            code, stdout = proc.returncode, proc.stdout
        else:
            code, stdout = self.in_process(argv)
        return code == 0, hashlib.sha256(stdout).hexdigest()[:16]

    def after(self, argv: list[str], digest: str) -> bool:
        """Untimed part of the check: a subprocess's stdout must equal that
        of an in-process run with the same arguments (criterion 9)."""
        if not self.subprocess_ops:
            return True
        key = tuple(argv)
        if key not in self.reference:
            code, stdout = self.in_process(argv)
            self.reference[key] = hashlib.sha256(stdout).hexdigest()[:16] if code == 0 else ""
        return self.reference[key] == digest


def make(name: str, seed: int, tiny: bool, workdir: str):
    if name == "amplify":
        return Amplify(seed, tiny)
    if name == "verify":
        return Verify(seed, tiny)
    return Cli(seed, workdir)
