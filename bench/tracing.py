"""Span tracer for the traced benchmark run.

`Tracer.installed()` rebinds each traced public function of the package --
in its defining module and in every ``weakmeas`` module that imported it,
such as ``amplifier.evolve_postselect`` or ``oracle.translate`` -- to a
wrapper that records one span per call, and restores the originals on
exit. No file of the package changes; untraced runs never install it.

A span is (id, parent, op, name, start, end, failed): ``parent`` is the
enclosing span (-1 at the top), ``op`` the benchmark operation that caused
it, and ``failed`` marks a call that raised a typed ``WeakMeasurementError``.
Spans stay in memory and are written out once, when the run ends. A layer's
self time is its span duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array

import numpy as np

from weakmeas.errors import WeakMeasurementError

# Public functions traced per layer (the modules under src/weakmeas/).
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "scenario": (
        "load_scenario",
        "make_scenario",
        "scenario_with_weak_value",
        "scenario_with_orthogonal_weak_value",
    ),
    "amplifier": ("sweep", "find_optimum"),
    "oracle": ("evolve_postselect", "series_device_state", "success_probability"),
    "predictor": (
        "predict_general",
        "predict_orthogonal",
        "predict_aav",
        "predict_orthogonal_gaussian",
    ),
    "weak_values": (
        "selection_trace",
        "generalized_weak_value",
        "orthogonal_weak_value",
        "weak_interaction_margin",
        "aav_margin",
    ),
    "pointer": ("moment", "translate", "to_momentum", "gaussian_profile", "grid_state"),
    "qops": ("overlap",),
}
# Functions whose typed errors are counted as ``<name>.failed``.
FAILURE_COUNTED = (
    "oracle.evolve_postselect",
    "oracle.series_device_state",
    "predictor.predict_general",
    "predictor.predict_orthogonal",
)
# Counts taken from return values at the layer boundary.
COUNTERS = (
    "cli.exit_nonzero",
    "amplifier.find_optimum.iterations",
    "amplifier.family_evals",
    "amplifier.sweep.points",
    "amplifier.sweep.defined",
    "oracle.grid_points",
)
_SWEEP_ENGINE_MS = ("amplifier.sweep.exact_ms", "amplifier.sweep.predicted_ms")

# Metrics a traced run measures outside the span table.
EXTRA_METRICS = (
    ("cli.import_ms", "ms"),
    ("amplifier.sweep_points_per_s", "1/s"),
    ("amplifier.optimum_exact_p50_ms", "ms"),
    ("amplifier.optimum_predicted_p50_ms", "ms"),
    ("trace.pass_ops", "count"),
    ("trace.passes", "count"),
    ("trace.spans_per_pass", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
)


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    out = [("cli.import_ms", "ms")]
    for name in traced_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
        if name in FAILURE_COUNTED:
            out.append((f"{name}.failed", "count"))
    out += [(c, "count") for c in COUNTERS if not c.startswith("amplifier.sweep.")]
    out += [(m, "ms") for m in _SWEEP_ENGINE_MS]
    out.append(("amplifier.defined_ratio", "ratio"))
    out += [m for m in EXTRA_METRICS if m[0] != "cli.import_ms"]
    return out


# Per-layer metrics that improve as they grow; every other one (times, call
# and work counts, failures, overhead) improves as it shrinks.
HIGHER_IS_BETTER = (
    "amplifier.defined_ratio",
    "amplifier.sweep_points_per_s",
    "trace.pass_ops",
    "trace.passes",
    "trace.ops_per_s",
    "trace.untraced_ops_per_s",
)


def better(name: str) -> str:
    """The direction in which a per-layer metric improves."""
    return "higher" if name in HIGHER_IS_BETTER else "lower"


class Tracer:
    """Records spans and boundary counts; see the module docstring."""

    def __init__(self) -> None:
        self.names = traced_names() + ["bench.op"]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.parent = array("i")
        self.op = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._stack = [-1]
        self._op = [0]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.sweep_ms = dict.fromkeys(_SWEEP_ENGINE_MS, 0.0)

    # --- recording -----------------------------------------------------------

    def _open(self, idx: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.op.append(self._op[0])
        self.name.append(idx)
        self.failed.append(0)
        self._stack.append(sid)
        t0 = time.perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        return sid

    def _close(self, sid: int) -> float:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        return self.end[sid] - self.start[sid]

    def _wrap(self, name: str, fn, hook=None):
        idx = self._index[name]
        open_span, close_span, failed = self._open, self._close, self.failed

        def traced(*args, **kwargs):
            sid = open_span(idx)
            try:
                result = fn(*args, **kwargs)
            except WeakMeasurementError:
                failed[sid] = 1
                raise
            finally:
                seconds = close_span(sid)
            if hook is not None:
                hook(args, kwargs, result, seconds)
            return result

        return traced

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """Root span of one benchmark operation."""
        self._op[0] = op_id
        sid = self._open(self._index["bench.op"])
        try:
            yield
        finally:
            self._close(sid)

    def count_family(self, family):
        """Wrap a scenario family so each evaluation is counted."""
        counters = self.counters

        def counted(param):
            counters["amplifier.family_evals"] += 1
            return family(param)

        return counted

    def _hooks(self) -> dict:
        counters, sweep_ms = self.counters, self.sweep_ms

        def on_record(args, kwargs, rec, seconds):
            counters["oracle.grid_points"] += int(rec.q_density.values.size)

        def on_sweep(args, kwargs, records, seconds):
            engine = kwargs.get("engine", args[3] if len(args) > 3 else "exact")
            sweep_ms[f"amplifier.sweep.{engine}_ms"] += 1e3 * seconds
            counters["amplifier.sweep.points"] += len(records)
            counters["amplifier.sweep.defined"] += sum(r.outcome is not None for r in records)

        def on_optimum(args, kwargs, report, seconds):
            counters["amplifier.find_optimum.iterations"] += report.iterations

        def on_main(args, kwargs, code, seconds):
            counters["cli.exit_nonzero"] += int(code != 0)

        return {
            "oracle.evolve_postselect": on_record,
            "oracle.series_device_state": on_record,
            "amplifier.sweep": on_sweep,
            "amplifier.find_optimum": on_optimum,
            "cli.main": on_main,
        }

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        hooks = self._hooks()
        packages = [importlib.import_module(f"weakmeas.{layer}") for layer in LAYER_FUNCTIONS]
        modules = [
            mod
            for modname, mod in sorted(sys.modules.items())
            if modname == "weakmeas" or modname.startswith("weakmeas.")
        ]
        undo = []
        try:
            for layer, mod in zip(LAYER_FUNCTIONS, packages):
                for fn_name in LAYER_FUNCTIONS[layer]:
                    name = f"{layer}.{fn_name}"
                    original = getattr(mod, fn_name)
                    wrapper = self._wrap(name, original, hooks.get(name))
                    for target in modules:
                        for attr, value in list(vars(target).items()):
                            if value is original:
                                setattr(target, attr, wrapper)
                                undo.append((target, attr, original))
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    # --- aggregation -----------------------------------------------------------

    def mark(self) -> tuple[int, dict, dict]:
        """Snapshot to pass to `summarize` for the spans recorded after it."""
        return len(self.start), dict(self.counters), dict(self.sweep_ms)

    def summarize(self, since: tuple[int, dict, dict]) -> dict[str, float]:
        """Per-layer metrics over the spans and counts recorded since ``since``."""
        first, counters0, sweep0 = since
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:]
        names = np.frombuffer(self.name, dtype=np.uint16)[first:]
        dur = (
            np.frombuffer(self.end, dtype=np.float64)[first:]
            - np.frombuffer(self.start, dtype=np.float64)[first:]
        )
        failed = np.frombuffer(self.failed, dtype=np.int8)[first:]
        child = np.zeros(dur.size)
        inside = parent >= first
        np.add.at(child, parent[inside] - first, dur[inside])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_ms = 1e3 * np.bincount(names, weights=dur - child, minlength=k)
        fails = np.bincount(names, weights=failed, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names[:-1]):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_ms"] = float(self_ms[i])
            if name in FAILURE_COUNTED:
                out[f"{name}.failed"] = int(fails[i])
        delta = {c: self.counters[c] - counters0[c] for c in COUNTERS}
        points = delta.pop("amplifier.sweep.points")
        defined = delta.pop("amplifier.sweep.defined")
        out.update(delta)
        for m in _SWEEP_ENGINE_MS:
            out[m] = self.sweep_ms[m] - sweep0[m]
        out["amplifier.defined_ratio"] = defined / points if points else 0.0
        out["trace.spans_per_pass"] = int(dur.size)
        return out

    def write(self, path: str) -> None:
        """Write every recorded span as a compressed numpy archive."""
        np.savez_compressed(
            path,
            id=np.arange(len(self.start), dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
            names=np.array(self.names),
        )
