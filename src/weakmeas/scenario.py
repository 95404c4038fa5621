"""Scenario container, JSON wire format, and targeted scenario construction.

A scenario bundles everything one run of the experiment needs: the
normalized observable, the pre-selected system state, the post-selection
projector, the effective coupling, and the initial pointer state. On disk a
scenario is a JSON object::

    {
      "observable":     [[[re, im], ...], ...],   # square complex matrix
      "pre_state":      vector or density matrix,
      "post_projector": projector matrix or post-selection vector,
      "g": 0.1,
      "pointer": {"type": "gaussian", "delta_q": 1.0} |
                 {"type": "grid", "q_min": ..., "dq": ..., "n": ...,
                  "branches": [{"weight": w, "samples": [[re, im], ...]}, ...]},
      "options": {"grid_n": ..., "series_order": ...}
    }

Every object refuses keys it does not read (`qops._wire_object`), and
every refusal names its key: a constructor's own check becomes a ParseError
in `qops._parsed`. Observables are normalized at parse time and the
coupling rescaled by the spectral norm, so files may state the observable
in any overall scale. Serializing an in-memory scenario writes the
normalized form, which makes a serialize/parse cycle reproduce every
complex entry bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailure, HigherOrderOrthogonality, OrderTooLarge
from .pointer import (
    PointerState,
    gaussian,
    pointer_from_wire,
    pointer_to_wire,
    validate_grid_n,
)
from .qops import (
    Observable,
    PostSelection,
    SystemState,
    _check_dims,
    _is_integer,
    _parsed,
    _require_number,
    _wire_object,
    density_state,
    matrix_from_wire,
    matrix_to_wire,
    new_observable,
    projector,
    projector_onto,
    pure_state,
    vector_from_wire,
)
from .weak_values import orthogonal_weak_value, weak_value

__all__ = [
    "Scenario",
    "ScenarioOptions",
    "make_scenario",
    "parse_scenario",
    "load_scenario",
    "scenario_to_wire",
    "scenario_with_weak_value",
    "scenario_with_orthogonal_weak_value",
    "MAX_SERIES_ORDER",
]

MAX_SERIES_ORDER = 16


@dataclass(frozen=True)
class ScenarioOptions:
    """Optional numerical controls carried alongside a scenario file.

    Every option that is set is checked by its validator when the options
    are built (ValueError, or OrderTooLarge for the series order) and kept
    as the int or float it returns, so `scenario_to_wire` writes them as
    they are and never writes options its parser refuses.
    """

    grid_n: int | None = None
    series_order: int | None = None

    def __post_init__(self) -> None:
        for name, check in _OPTION_CHECKS.items():
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, check(value))

    def any_set(self) -> bool:
        return any(v is not None for v in (self.grid_n, self.series_order))


@dataclass(frozen=True)
class Scenario:
    """One pre/post-selected weak-measurement arrangement.

    ``g`` is the effective coupling to the unit-spectral-norm observable;
    it must be finite.
    """

    observable: Observable
    pre: SystemState
    post: PostSelection
    g: float
    pointer: PointerState

    def __post_init__(self) -> None:
        _check_dims(self.post, self.pre, self.observable)
        if not math.isfinite(self.g):
            raise ValueError(f"coupling g must be finite, got {self.g!r}")


def make_scenario(observable, pre, post, g: float, pointer: PointerState) -> Scenario:
    """Assemble a scenario from raw ingredients.

    ``observable`` may be a raw matrix (normalized here, with ``g`` rescaled
    by its spectral norm) or an already-normalized `Observable` (``g`` is
    then taken as-is). ``pre`` accepts a `SystemState`, a state vector, or a
    density matrix; ``post`` accepts a `PostSelection`, a post-selection
    vector, or a projector matrix.
    """
    if isinstance(observable, Observable):
        obs = observable
        g_eff = float(g)
    else:
        obs = new_observable(observable)
        g_eff = float(g) * obs.scale
    if not isinstance(pre, SystemState):
        arr = np.asarray(pre, dtype=complex)
        pre = pure_state(arr) if arr.ndim == 1 else density_state(arr)
    if not isinstance(post, PostSelection):
        arr = np.asarray(post, dtype=complex)
        post = projector_onto(arr) if arr.ndim == 1 else projector(arr)
    return Scenario(observable=obs, pre=pre, post=post, g=g_eff, pointer=pointer)


# --- wire format -----------------------------------------------------------

_REQUIRED_KEYS = ("observable", "pre_state", "post_projector", "g", "pointer")


def validate_series_order(order) -> int:
    """The one check of a series order: an integer (numpy integers included,
    bools refused) in [0, MAX_SERIES_ORDER], else ValueError / OrderTooLarge."""
    if not _is_integer(order) or order < 0:
        raise ValueError(f"series order must be a nonnegative integer, got {order!r}")
    if order > MAX_SERIES_ORDER:
        raise OrderTooLarge(f"series orders up to {MAX_SERIES_ORDER} supported, got {order}")
    return int(order)


# Each option's one validator, in the order a file's options are checked.
_OPTION_CHECKS = {
    "grid_n": validate_grid_n,
    "series_order": validate_series_order,
}


def _parse_options(data, path: str) -> ScenarioOptions:
    _wire_object(data, path, optional=_OPTION_CHECKS)
    # Built one option at a time, so a refusal names its key.
    for key in _OPTION_CHECKS:
        _parsed(f"{path}.{key}", ScenarioOptions, **{key: data.get(key)})
    return ScenarioOptions(**data)


def _looks_like_matrix(data) -> bool:
    return (
        isinstance(data, (list, tuple))
        and bool(data)
        and isinstance(data[0], (list, tuple))
        and bool(data[0])
        and isinstance(data[0][0], (list, tuple))
    )


def _selection_from_wire(data, path: str, from_vector, from_matrix):
    """A pre- or post-selection from its wire vector or matrix; a refusal
    becomes a ParseError naming ``path``."""
    if _looks_like_matrix(data):
        return _parsed(path, from_matrix, matrix_from_wire(data, path))
    return _parsed(path, from_vector, vector_from_wire(data, path))


def parse_scenario(obj, path: str = "scenario") -> tuple[Scenario, ScenarioOptions]:
    """Parse a scenario wire object; errors name the offending key."""
    _wire_object(obj, path, _REQUIRED_KEYS, ("options",), "expected a JSON object")
    obs_path = f"{path}.observable"
    obs = _parsed(obs_path, new_observable, matrix_from_wire(obj["observable"], obs_path))
    pre = _selection_from_wire(obj["pre_state"], f"{path}.pre_state", pure_state, density_state)
    post = _selection_from_wire(
        obj["post_projector"], f"{path}.post_projector", projector_onto, projector
    )
    g_raw = _require_number(obj["g"], f"{path}.g")
    pointer = pointer_from_wire(obj["pointer"], f"{path}.pointer")
    options = _parse_options(obj.get("options", {}), f"{path}.options")
    return _parsed(path, Scenario, obs, pre, post, g_raw * obs.scale, pointer), options


def load_scenario(path: str) -> tuple[Scenario, ScenarioOptions]:
    """Load a scenario JSON file."""
    with open(path, encoding="utf-8") as fh:
        obj = _parsed(f"{path}: invalid JSON", json.load, fh)
    return parse_scenario(obj, path=path)


def scenario_to_wire(sc: Scenario, options: ScenarioOptions | None = None) -> dict:
    """Serialize a scenario (normalized form) to a wire object."""
    out = {
        "observable": matrix_to_wire(sc.observable.matrix),
        "pre_state": matrix_to_wire(sc.pre.matrix),
        "post_projector": matrix_to_wire(sc.post.matrix),
        "g": float(sc.g),
        "pointer": pointer_to_wire(sc.pointer),
    }
    if options is not None and options.any_set():
        out["options"] = {key: value for key, value in vars(options).items() if value is not None}
    return out


# --- targeted construction -------------------------------------------------
#
# A fixed qutrit frame in which selections realizing a requested weak value
# are solved for directly. The spectrum is nondegenerate with unit spectral
# norm, and the pre-selection vector is a fixed generic direction, so the
# linear constraints below have full rank for every target value that is
# actually attainable.

_TARGET_SPECTRUM = (1.0, 0.15, -0.75)
_TARGET_PRE = (0.55, 0.60 + 0.25j, -0.52 + 0.10j)
_TARGET_TOL = 1e-10


def _target_frame() -> tuple[Observable, np.ndarray]:
    obs = new_observable(np.diag(np.array(_TARGET_SPECTRUM, dtype=complex)))
    psi = np.array(_TARGET_PRE, dtype=complex)
    return obs, psi / np.linalg.norm(psi)


def _row_scale(target: complex) -> float:
    """The power of two 2^-(e-1), e the binary exponent of max(|Re w|, |Im w|)
    clamped at 1, that scales a constraint row: exact, so the row's kernel
    stays, and w A and w I stay finite for every finite w (abs(w) may not)."""
    e = math.frexp(max(abs(target.real), abs(target.imag)))[1]
    return math.ldexp(1.0, 1 - max(e, 1))


def _target_scenario(obs, psi, phi, g, delta_q, target, weak) -> Scenario:
    """The target-frame scenario post-selecting ``phi``, checked to realize
    ``target`` through the weak value function ``weak``. The weak value's
    route decides whether a leading response exists; its
    HigherOrderOrthogonality becomes ConstructionFailure here."""
    sc = Scenario(
        observable=obs,
        pre=pure_state(psi),
        post=projector_onto(phi),
        g=float(g),
        pointer=gaussian(delta_q),
    )
    try:
        achieved = weak(sc.observable, sc.pre, sc.post).value
    except HigherOrderOrthogonality as exc:
        raise ConstructionFailure(
            f"leading response <phi|A|psi> vanishes for target {target}; no "
            "first-order orthogonal scenario exists in this frame"
        ) from exc
    if abs(achieved - target) > _TARGET_TOL * max(1.0, abs(target)):
        raise ConstructionFailure(
            f"constructed weak value {achieved} misses target {target}"
        )
    return sc


def scenario_with_weak_value(
    target: complex, g: float, delta_q: float = 1.0
) -> Scenario:
    """Scenario whose standard weak value equals ``target``.

    The post-selection vector is chosen in the kernel of <.|(A - w)|psi_i>,
    picking the kernel direction closest to the pre-selection so the
    post-selection probability stays generic.
    """
    target = complex(target)
    obs, psi = _target_frame()
    scale = _row_scale(target)
    constraint = (scale * obs.matrix - (scale * target) * np.eye(obs.dim)) @ psi
    rows = np.array([constraint.conj()])
    _, _, vh = np.linalg.svd(rows)
    kernel = vh[1:].conj().T  # columns orthogonal to the constraint row
    phi = kernel @ (kernel.conj().T @ psi)
    norm = float(np.linalg.norm(phi))
    if norm < 1e-8:
        raise ConstructionFailure(
            f"no post-selection with usable overlap realizes weak value {target}"
        )
    return _target_scenario(obs, psi, phi / norm, g, delta_q, target, weak_value)


def scenario_with_orthogonal_weak_value(
    target: complex, g: float, delta_q: float = 1.0
) -> Scenario:
    """Scenario with orthogonal selections whose orthogonal weak value
    equals ``target``.

    The post-selection vector is solved from two linear constraints:
    orthogonality <phi|psi_i> = 0 and <phi|(A^2 - 2 w A)|psi_i> = 0, which
    pin A_ow = <phi|A^2|psi_i> / (2 <phi|A|psi_i>) to w.
    """
    target = complex(target)
    obs, psi = _target_frame()
    scale = _row_scale(target)
    a2 = obs.power(2)
    rows = np.array(
        [
            psi.conj(),
            ((scale * a2 - 2.0 * (scale * target) * obs.matrix) @ psi).conj(),
        ]
    )
    _, _, vh = np.linalg.svd(rows)
    phi = vh[-1].conj()
    return _target_scenario(obs, psi, phi, g, delta_q, target, orthogonal_weak_value)
