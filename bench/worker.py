"""One fresh benchmark process: set up a workload, then measure it.

Started by ``run.py`` with the package's sources on PYTHONPATH; prints one
JSON object on its last stdout line. Set-up ends, and ``ready_at`` (the
system-wide monotonic clock) is taken, just before the first timed op.

Untraced, the worker runs whole blocks of ops until ``--seconds`` have
passed. Traced, it alternates an untraced and a traced pass over the first
block until ``--seconds`` have passed; counts come from one traced pass and
times are medians over traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np

import generate
import tracing
import workloads
import weakmeas
from weakmeas.errors import ValidityWarning

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TAIL_BEYOND = 10
IMPORT_SAMPLES = 3


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_op(w, op, tracer=None) -> tuple[float, bool, str, str | None]:
    """Time one op: (seconds, ok, digest, error type or None)."""
    t0 = time.perf_counter()
    try:
        ok, digest = w.run(op, tracer)
    except Exception as exc:  # a raising op counts as failed; keep measuring
        return time.perf_counter() - t0, False, "", type(exc).__name__
    return time.perf_counter() - t0, ok, digest, None


def _tail(times_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND ops above it: the (TAIL_BEYOND + 1)-th largest time."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def measure(w, first_block, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    times, errors, outcomes = [], {}, []
    block_rates = []
    failed = 0
    index, block = 0, first_block
    while True:
        start = len(times)
        for op in block:
            dt, ok, digest, err = _run_op(w, op)
            ok = ok and w.after(op, digest)
            times.append(1e3 * dt)
            failed += not ok
            if err:
                errors[err] = errors.get(err, 0) + 1
            if index == 0:
                outcomes.append([ok, digest])
        block_rates.append(len(block) / (sum(times[start:]) / 1e3))
        index += 1
        if time.perf_counter() >= deadline:
            break
        block = w.block(index)
    tail, pct = _tail(times)
    metrics = {
        # Every block runs the same balanced mix, so the median over blocks of
        # their throughput is the run's throughput without its load bursts.
        "ops_per_s": (float(np.median(block_rates)), "1/s", len(block_rates)),
        "op_p50_ms": (float(np.median(times)), "ms", len(times)),
        "op_tail_ms": (tail, "ms", len(times)),
        "failed_frac": (failed / len(times), "ratio", len(times)),
        "peak_rss_mb": (_peak_rss_mb(children=w.name == "cli"), "MB", 1),
    }
    for name, value in w.extra_metrics().items():
        metrics[f"{w.name}.{name}"] = value
    return {
        "attempted": len(times),
        "failed": failed,
        "blocks": index,
        "tail_percentile": pct,
        "errors": errors,
        "first_block": outcomes,
        "metrics": metrics,
    }


def _import_ms() -> float:
    code = (
        "import time; t = time.perf_counter(); import weakmeas.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        samples.append(1e3 * float(out.stdout.strip().splitlines()[-1]))
    return float(np.median(samples))


def measure_traced(w, ops, seconds: float, spans_path: str) -> dict:
    if w.name == "cli":
        w.subprocess_ops = False  # the traced run drives cli.main in-process
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    plain_s = traced_s = 0.0
    passes, failed, attempted = [], 0, 0
    outcomes = []
    while not passes or time.perf_counter() < deadline:
        reference = []
        for op in ops:
            dt, ok, digest, _ = _run_op(w, op)
            plain_s += dt
            reference.append((ok, digest))
        since = tracer.mark()
        with tracer.installed():
            for i, op in enumerate(ops):
                with tracer.op_span(i):
                    dt, ok, digest, _ = _run_op(w, op, tracer)
                traced_s += dt
                # A traced op must pass and reproduce its untraced output.
                ok = ok and (ok, digest) == reference[i]
                failed += (not reference[i][0]) + (not ok)
                if not passes:
                    outcomes.append([ok, digest])
        attempted += 2 * len(ops)
        passes.append(tracer.summarize(since))
    tracer.write(spans_path)

    metrics = {}
    for name, unit in tracing.per_layer_metrics():
        if name in passes[0]:
            values = [p[name] for p in passes]
            value = float(np.median(values)) if unit == "ms" else passes[0][name]
            metrics[name] = (value, unit, len(passes) if unit == "ms" else 1)
    extra = w.extra_metrics()
    for name, unit in tracing.EXTRA_METRICS:
        if name.startswith("amplifier."):
            value, _, samples = extra.get(name.split(".", 1)[1], (0.0, unit, 0))
            metrics[name] = (value, unit, samples)
    n_ops = len(ops) * len(passes)
    metrics["cli.import_ms"] = (_import_ms(), "ms", IMPORT_SAMPLES)
    metrics["trace.pass_ops"] = (len(ops), "count", 1)
    metrics["trace.passes"] = (len(passes), "count", 1)
    metrics["trace.ops_per_s"] = (n_ops / traced_s, "1/s", n_ops)
    metrics["trace.untraced_ops_per_s"] = (n_ops / plain_s, "1/s", n_ops)
    metrics["trace.overhead_frac"] = (1.0 - plain_s / traced_s, "ratio", n_ops)
    return {
        "attempted": attempted,
        "failed": failed,
        "first_block": outcomes,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(weakmeas.__file__).startswith(src + os.sep):
        print(f"error: weakmeas imported from {weakmeas.__file__}, not {src}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", ValidityWarning)
    os.makedirs(os.path.join(BUILD_DIR, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(BUILD_DIR, "work"))
    try:
        w = workloads.make(args.workload, args.seed, args.tiny, workdir)
        warm = w.warmup_op()
        if warm is not None:
            w.run(warm)
        first_block = w.block(0)
        out = {"ready_at": _monotonic()}
        if not args.setup_only:
            if args.trace:
                spans_dir = os.path.join(BUILD_DIR, "spans")
                os.makedirs(spans_dir, exist_ok=True)
                spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.npz")
                out.update(measure_traced(w, first_block, args.seconds, spans))
            else:
                out.update(measure(w, first_block, args.seconds))
            out["held_out_seed"] = generate.HELD_OUT_SEED
            out["versions"] = {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "weakmeas": weakmeas.__version__,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
