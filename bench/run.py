"""weakmeas benchmark: one command that runs a workload, checks its outputs
and prints every metric by name, unit and sample count.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload amplify|verify|cli --seed N --seconds S --trace 0|1

The package is used from ``src/`` of the same checkout; nothing is
installed. Each run is a single-threaded closed loop: one caller issues the
next op only when the previous one has returned, with BLAS pinned to one
thread. The last stdout line is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics of a
separate traced run. The lines before it are a readable table and one
``# report`` line of JSON with provenance and detail.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 9  # fresh set-ups per run, half before and half after the timed one
TIME_LIMIT_S = 170.0
BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# Which end-to-end metric each layer metric should move, per workload.
LAYER_EFFECTS = {
    "oracle.evolve_postselect.self_ms": {
        "amplify": ["amplify.sweep_points_per_s", "amplify.optimum_exact_p50_ms"],
        "verify": ["ops_per_s", "op_tail_ms"],
        "cli": [],
    },
    "oracle.series_device_state.self_ms, oracle.success_probability.self_ms, "
    "weak_values.selection_trace.calls": {"verify": ["ops_per_s", "op_p50_ms", "op_tail_ms"]},
    "predictor.*, weak_values.weak_interaction_margin, qops.overlap, "
    "scenario.make_scenario": {
        "amplify": ["amplify.sweep_points_per_s"],
        "verify": ["ops_per_s (through grid-pointer pointer.moment)"],
    },
    "pointer.translate, pointer.to_momentum": {"verify": ["op_tail_ms"]},
    "amplifier.*.self_ms, amplifier.find_optimum.iterations, amplifier.family_evals": {
        "amplify": ["amplify.optimum_exact_p50_ms", "amplify.optimum_predicted_p50_ms"]
    },
    "cli.import_ms, cli.main.self_ms, scenario.load_scenario.self_ms": {"cli": ["op_p50_ms"]},
}


class BenchError(Exception):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker(args, env, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run one worker process; returns (set-up seconds, its result)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    cmd += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    started = _monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - _monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish within the time limit")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready_at"] - started, result


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )


def _provenance(result: dict) -> dict:
    return {
        **result.get("versions", {}),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_PIN,
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="weakmeas benchmark")
    parser.add_argument("--workload", required=True, choices=("amplify", "verify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs and one set-up, for the smoke test"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "weakmeas" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'weakmeas'}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = _monotonic() + TIME_LIMIT_S
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    try:
        # Set-up samples are spread over the run so that their median does
        # not hang on one burst of load from other processes.
        extra = 0 if args.trace or args.tiny else SETUP_SAMPLES - 1
        setups = [_worker(args, env, deadline, setup_only=True)[0] for _ in range(extra // 2)]
        setup_s, result = _worker(args, env, deadline, setup_only=False)
        setups.append(setup_s)
        setups += [_worker(args, env, deadline, setup_only=True)[0] for _ in range(extra - extra // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {name: tuple(v) for name, v in result["metrics"].items()}
    metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
    report = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop": "1 client, single process, single-threaded",
        "setup_samples_s": setups,
        "provenance": _provenance(result),
        "layer_effects": LAYER_EFFECTS,
        **{k: v for k, v in result.items() if k not in ("metrics", "ready_at", "versions")},
        "all_metrics": {
            k: {"value": v[0], "unit": v[1], "samples": v[2]} for k, v in metrics.items()
        },
    }
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"# weakmeas benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# {'metric':<44} {'value':>14} {'unit':<6} samples")
    for name, (value, unit, samples) in sorted(metrics.items()):
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {samples}")
    if "tail_percentile" in result:
        print(f"# op_tail_ms is the p{result['tail_percentile']:.2f} op time "
              f"of {result['attempted']} ops")
    print("# report " + json.dumps(report, sort_keys=True))
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
            for m in reported
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
