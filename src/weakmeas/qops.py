"""Finite-dimensional operator algebra for weak-measurement scenarios.

Observables are rescaled to unit spectral norm at construction time so the
coupling constant carries the physical magnitude; system states and
post-selection projectors are validated against the usual Hermiticity,
positivity and idempotency requirements. All wrapper types are immutable:
their arrays are defensive copies with the writeable flag cleared.

Every selection trace tr(P A^m rho A^l), weak value and overlap tr(P rho)
of the package is read from one kernel, `_selection_kernel`, which takes B
points as one selection stack: arrays of post-selection bases and
sqrt(w)-weighted pre-selection vectors. `_selection_binding` computes once
what the stacks of a search share (the post-selections and the
observable), and the kernel applies it to each stack of pre-selections.
`_selection_stack` converts lists of selections to that stack;
`_point_selections`, behind `overlap`, is its batch of one.

The wire section holds the matrix codecs and the two helpers every reader
of outside input goes through: `_wire_object`, the one key check of a wire
object, and `_parsed`, the one place a constructor's refusal becomes a
ParseError naming its key.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonHermitian, ParseError, WeakMeasurementError, ZeroOperator

__all__ = [
    "Observable",
    "SystemState",
    "PostSelection",
    "new_observable",
    "pure_state",
    "density_state",
    "projector",
    "projector_onto",
    "overlap",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
]

HERMITICITY_TOL = 1e-10
IDEMPOTENCY_TOL = 1e-10
STATE_TOL = 1e-12
_MIXTURE_FLOOR = 1e-14
_RANK_TOL = 1e-12
_NORMAL_FLOOR = float(np.finfo(float).tiny)


def _frozen(arr: np.ndarray) -> np.ndarray:
    return _freeze(np.array(arr))


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Clear the writeable flag of an array nothing else references."""
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    return arr


def _hermitian(raw, what: str, tol: float) -> np.ndarray:
    """The one matrix check: a nonempty, square, finite matrix, Hermitian
    within ``tol``, returned symmetrized."""
    m = np.asarray(raw, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"{what} must be a nonempty square matrix, got shape {m.shape}")
    _require_finite(m, what)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tol:
        raise NonHermitian(f"{what} deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")
    return (m + m.conj().T) / 2.0


@dataclass(frozen=True)
class Observable:
    """Hermitian observable normalized to unit spectral norm.

    ``matrix`` equals the symmetrized input divided by ``scale`` (the input's
    spectral norm); ``eigenvalues`` are sorted descending with
    max(|eigenvalues|) == 1, and ``eigenvectors[:, i]`` belongs to
    ``eigenvalues[i]``.
    """

    dim: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    scale: float

    def power(self, k: int) -> np.ndarray:
        """Matrix power through the spectral decomposition."""
        if k < 0:
            raise ValueError("power expects a nonnegative integer")
        v = self.eigenvectors
        return (v * self.eigenvalues**k) @ v.conj().T


@dataclass(frozen=True)
class SystemState:
    """Density matrix with its spectral mixture.

    ``eigenmixture`` lists ``(weight, vector)`` pairs for eigenvalues above
    the numerical floor, weights descending. A mixed state stores its
    density matrix; a pure state builds ``matrix`` from its vector only when
    it is read, since every kernel reads the mixture.
    """

    dim: int
    eigenmixture: tuple[tuple[float, np.ndarray], ...]
    _matrix: np.ndarray | None = field(default=None, repr=False)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        v = self.vector
        outer = np.outer(v, v.conj())
        # The symmetrized form is bitwise Hermitian, so the wire format
        # round-trips exactly (the raw outer product need not be).
        return _freeze((outer + outer.conj().T) / 2.0)

    @property
    def is_pure(self) -> bool:
        return len(self.eigenmixture) == 1

    @property
    def vector(self) -> np.ndarray:
        if not self.is_pure:
            raise ValueError("state is mixed; no defining vector")
        return self.eigenmixture[0][1]


@dataclass(frozen=True)
class PostSelection:
    """Orthogonal projector onto the accepted subspace.

    ``basis`` holds an orthonormal basis of the range as columns.
    """

    dim: int
    matrix: np.ndarray
    rank: int
    basis: np.ndarray

    @property
    def is_rank_one(self) -> bool:
        return self.rank == 1

    @property
    def vector(self) -> np.ndarray:
        if self.rank != 1:
            raise ValueError("projector rank exceeds one; no defining vector")
        return self.basis[:, 0]


def new_observable(raw) -> Observable:
    """Validate, symmetrize and normalize an observable.

    The input must be square and Hermitian within ``HERMITICITY_TOL``; it is
    symmetrized and divided by its spectral norm, which is returned as
    ``scale`` so couplings can be rescaled consistently.
    """
    m = _hermitian(raw, "observable", HERMITICITY_TOL)
    evals, evecs = np.linalg.eigh(m)
    scale = float(np.max(np.abs(evals)))
    if scale == 0.0:
        raise ZeroOperator("observable is identically zero")
    if abs(scale - 1.0) <= 1e-12:
        # Spectral norms within roundoff of one are treated as exactly one,
        # so normalizing an already-normalized matrix is a bitwise no-op.
        scale = 1.0
    order = np.argsort(evals)[::-1]
    return Observable(
        dim=m.shape[0],
        matrix=_frozen(m / scale),
        eigenvalues=_frozen(evals[order] / scale),
        eigenvectors=_frozen(evecs[:, order]),
        scale=scale,
    )


def _as_vector(raw, what: str, instead: str) -> np.ndarray:
    """A 1-d complex array; anything else is refused, pointing to the
    constructor ``instead`` that takes a matrix."""
    v = np.asarray(raw, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"{what} must be a 1-d vector, got shape {v.shape}; use {instead}")
    return v.ravel()  # contiguous, so the norm rounds alike for every layout


def pure_state(vec) -> SystemState:
    """System state |v><v| from a (not necessarily normalized) 1-d vector;
    a density matrix goes through `density_state`."""
    v = _as_vector(vec, "state vector", "density_state for a density matrix")
    # One float both normalizes and vouches for finiteness. A squared norm
    # that is zero, subnormal or not finite (entries beyond about 1e+154 or
    # below about 1e-154, a NaN or an infinity) sends the vector to the
    # rescaled path.
    sq = _squared_norm(v)
    if not _NORMAL_FLOOR <= sq < math.inf:
        v = _rescaled(v)
        sq = _squared_norm(v)
    return SystemState(dim=v.size, eigenmixture=((1.0, _freeze(v / math.sqrt(sq))),))


@np.errstate(over="ignore")
def _squared_norm(v: np.ndarray) -> float:
    """sum |v_i|^2 by np.linalg.norm's own formula for complex input; inf,
    with no warning, when it overflows."""
    re, im = v.real, v.imag
    return float(re.dot(re) + im.dot(im))


def _rescaled(v: np.ndarray) -> np.ndarray:
    """A finite nonzero vector divided by its largest real or imaginary
    part, so that its squared norm lies in [1, 2 v.size]."""
    _require_finite(v, "state vector")
    peak = max(np.max(np.abs(v.real), initial=0.0), np.max(np.abs(v.imag), initial=0.0))
    if peak == 0.0:
        raise ZeroOperator("state vector is zero")
    return v / peak


def density_state(raw) -> SystemState:
    """System state from a density matrix.

    Requires Hermiticity and unit trace to ``STATE_TOL`` and eigenvalues
    >= -STATE_TOL; tiny negative weights are clipped to zero.
    """
    m = _hermitian(raw, "density matrix", STATE_TOL)
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > STATE_TOL:
        raise ValueError(f"density matrix trace is {tr!r}, expected 1 within {STATE_TOL:.1e}")
    evals, evecs = np.linalg.eigh(m)
    if float(evals.min()) < -STATE_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {evals.min():.3e}")
    order = np.argsort(evals)[::-1]
    mixture = tuple(
        (float(evals[i]), _frozen(evecs[:, i]))
        for i in order
        if evals[i] > _MIXTURE_FLOOR
    )
    return SystemState(dim=m.shape[0], eigenmixture=mixture, _matrix=_frozen(m))


def projector(raw) -> PostSelection:
    """Post-selection from a projector matrix (idempotent, Hermitian)."""
    m = _hermitian(raw, "projector", HERMITICITY_TOL)
    dev = float(np.max(np.abs(m @ m - m)))
    if dev > IDEMPOTENCY_TOL:
        raise ValueError(f"projector is not idempotent (|P^2-P| = {dev:.3e})")
    tr = float(np.real(np.trace(m)))
    rank = int(round(tr))
    if rank < 1:
        raise ZeroOperator("projector has rank zero")
    evals, evecs = np.linalg.eigh(m)
    keep = evals > 0.5
    return PostSelection(
        dim=m.shape[0],
        matrix=_frozen(m),
        rank=rank,
        basis=_frozen(evecs[:, keep]),
    )


def projector_onto(*vectors) -> PostSelection:
    """Projector onto the span of the given 1-d vectors (orthonormalized);
    a projector matrix goes through `projector`.

    A QR column counts toward the span when its |r_ii| exceeds 1e-12 of the
    largest, so the rank does not depend on the vectors' overall scale.
    """
    if not vectors:
        raise ZeroOperator("projector needs at least one vector")
    cols = np.column_stack(
        [_as_vector(v, "projector vector", "projector for a projector matrix") for v in vectors]
    )
    _require_finite(cols, "projector vector")
    q, r = np.linalg.qr(cols)
    diag = np.abs(np.diag(r))
    keep = diag > _RANK_TOL * diag.max()
    if not keep.any():
        raise ZeroOperator("projector vectors span nothing")
    basis = q[:, keep]
    mat = basis @ basis.conj().T
    return PostSelection(
        dim=basis.shape[0],
        matrix=_frozen((mat + mat.conj().T) / 2.0),
        rank=int(basis.shape[1]),
        basis=_frozen(basis),
    )


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis in index order. Unlike numpy's (pairwise,
    layout-dependent) reductions, each entry's rounding depends only on its
    own terms, so a point reads the same bits alone as in any stack."""
    total, *rest = terms
    for term in rest:
        total = total + term
    return total


def _selection_stack(posts: list, pres: list) -> tuple[np.ndarray, np.ndarray]:
    """The selection kernel's input for B points, basis index first:
    fs[:, p, m] = f_m over the post-selection basis and
    psis[:, p, k] = sqrt(w_k) psi_k over the pre-selection mixture.
    Narrower points get zero columns."""
    n_pts, dim = len(posts), posts[0].dim
    fs = np.zeros((dim, n_pts, max(post.basis.shape[1] for post in posts)), dtype=complex)
    psis = np.zeros((dim, n_pts, max(len(pre.eigenmixture) for pre in pres)), dtype=complex)
    for p, (post, pre) in enumerate(zip(posts, pres)):
        fs[:, p, : post.basis.shape[1]] = post.basis
        for k, (w, vec) in enumerate(pre.eigenmixture):
            psis[:, p, k] = math.sqrt(w) * vec
    return fs, psis


def _selection_binding(fs: np.ndarray, obs: Observable | None = None, n_max: int = 0) -> tuple:
    """What every stack of the selection kernel at the post-selections
    ``fs`` and the observable shares, computed once: the conjugate bras
    [f_m | a_i], <f_m|a_i> over the eigenvectors a_i of ``obs`` and the
    eigenvalue powers a_i^1..a_i^n_max; without ``obs``, the bras f_m
    alone. A point axis of length one in ``fs`` is one post-selection
    shared by every point."""
    if obs is None:
        return fs.conj()[:, :, :, None], None, None
    vecs = obs.eigenvectors
    bras = np.concatenate([fs, np.broadcast_to(vecs[:, None, :], (*fs.shape[:2], obs.dim))], 2)
    fa = _ordered_sum(fs.conj()[:, :, :, None] * vecs[:, None, None, :])
    powers = np.power.outer(obs.eigenvalues, np.arange(1.0, n_max + 1))
    return bras.conj()[:, :, :, None], fa, powers[:, :, None, None]


def _selection_kernel(bound: tuple, psis: np.ndarray):
    """The selection kernel for B points sharing the observable, read from
    their pre-selections ``psis`` (`_selection_stack`'s layout) and the
    `_selection_binding` of their post-selections.

    Point p contributes one row r = (m, k) per post-selection vector f_m and
    mixture component (w_k, psi_k). Returns (c, b) with
    c[p, r, i] = sqrt(w_k) <f_m|a_i><a_i|psi_k> over the eigenvectors a_i of
    the bound observable (None without it) and the moment amplitudes
    b[n, p, r] = sqrt(w_k) <f_m|A^n|psi_k>, n <= n_max: b_0 straight from
    <f_m|psi_k>, b_n = sum_i c a_i^n. Then tr(P A^m rho A^l) = sum_r b_m b_l^*
    and tr(P rho) = sum_r |b_0|^2. Every sum runs in index order, so a point
    reads the same bits in any stack.
    """
    bras, fa, powers = bound
    n_pts = psis.shape[1]
    # <f_m|psi_k>, then <a_i|psi_k> with the observable.
    inner = _ordered_sum(bras * psis[:, :, None, :])
    if fa is None:
        return None, inner.reshape(1, n_pts, -1)
    n_post, dim = fa.shape[1:]
    b0 = inner[None, :, :n_post].reshape(1, n_pts, -1)
    ap = inner[:, n_post:].transpose(0, 2, 1)
    c = (fa[:, :, None, :] * ap[:, None]).reshape(n_pts, -1, dim)
    bn = _ordered_sum(c.transpose(2, 0, 1)[:, None] * powers)
    return c, np.concatenate([b0, bn])


def _point_selections(
    post: PostSelection, pre: SystemState, obs: Observable | None = None, n_max: int = 0
):
    """The selection kernel (c, b) of one selection pair: a stack of one."""
    fs, psis = _selection_stack([post], [pre])
    return _selection_kernel(_selection_binding(fs, obs, n_max), psis)


def _selection_overlaps(b: np.ndarray) -> np.ndarray:
    """tr(P rho) per point of a kernel stack, capped at 1: the one float
    every regime check compares with the orthogonality threshold."""
    b0 = b[0]
    return np.minimum(_ordered_sum((b0.real**2 + b0.imag**2).T), 1.0)


def _selection_traces(b: np.ndarray) -> np.ndarray:
    """t[m, l, p] = tr(P A^m rho A^l) from a kernel stack's amplitudes."""
    rows = b.transpose(2, 0, 1)
    return _ordered_sum(rows[:, :, None] * rows.conj()[:, None])


def _check_dims(post: PostSelection, pre: SystemState, obs: Observable | None = None) -> None:
    """The one dimension check of a selection pair and the observable, if any."""
    if pre.dim == post.dim and (obs is None or obs.dim == pre.dim):
        return
    observable = "" if obs is None else f"observable {obs.dim}, "
    raise DimensionMismatch(f"dimensions differ: {observable}state {pre.dim}, projector {post.dim}")


def overlap(post: PostSelection, pre: SystemState) -> float:
    """Post-selection success probability at zero coupling, tr(P rho),
    clipped into [0, 1]: the selection kernel's batch of one."""
    _check_dims(post, pre)
    return float(_selection_overlaps(_point_selections(post, pre)[1])[0])


# --- wire format -----------------------------------------------------------
#
# Complex matrices cross process boundaries as row-major nested arrays whose
# entries are [real, imag] pairs of IEEE-754 doubles in decimal text. The
# format round-trips bit-exactly through Python's json module.

def _wire_object(data, path: str, required=(), optional=(), expected="expected an object"):
    """The one key check: ``data`` if it is a dict with every ``required``
    key and no key outside ``required`` and ``optional``, else a ParseError
    naming ``path`` (``expected``), its first unknown key or a missing one."""
    if not isinstance(data, dict):
        raise ParseError(f"{path}: {expected}")
    unknown = sorted((key for key in data if key not in required and key not in optional), key=str)
    if unknown:
        raise ParseError(f"{path}: unknown key {unknown[0]!r}")
    for key in required:
        if key not in data:
            raise ParseError(f"{path}.{key}: missing")
    return data


def _parsed(path: str, build, *args, **kwargs):
    """The one rewrap: ``build(*args, **kwargs)``, its refusal (a
    WeakMeasurementError or ValueError, or a RecursionError from JSON nested
    too deeply) raised as a ParseError naming ``path``; a ParseError, which
    names its own key, passes through."""
    try:
        return build(*args, **kwargs)
    except ParseError:
        raise
    except (WeakMeasurementError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def matrix_to_wire(m) -> list:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def _is_integer(value) -> bool:
    """The one integer test: integral numbers, numpy's included, not bools."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_number(value, path: str) -> float:
    """A finite real wire number, else a ParseError naming ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the double range
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{path}: expected a finite number, got {value!r}")
    return number


def _entry_from_wire(cell, path: str) -> complex:
    if (
        not isinstance(cell, (list, tuple))
        or len(cell) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
    ):
        raise ParseError(f"{path}: expected a [real, imag] number pair, got {cell!r}")
    try:
        z = complex(float(cell[0]), float(cell[1]))
    except OverflowError:  # an integer beyond the double range
        z = complex(cmath.inf)
    if not cmath.isfinite(z):
        raise ParseError(f"{path}: non-finite entry {cell!r}")
    return z


def vector_from_wire(data, path: str = "vector") -> np.ndarray:
    if not isinstance(data, (list, tuple)) or not data:
        raise ParseError(f"{path}: expected a nonempty array of [real, imag] pairs")
    return np.array(
        [_entry_from_wire(cell, f"{path}[{i}]") for i, cell in enumerate(data)],
        dtype=complex,
    )


def matrix_from_wire(data, path: str = "matrix") -> np.ndarray:
    if not isinstance(data, (list, tuple)) or not data:
        raise ParseError(f"{path}: expected a nonempty array of rows")
    n = len(data)
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise ParseError(f"{path}[{i}]: expected a row of {n} entries")
        rows.append([_entry_from_wire(cell, f"{path}[{i}][{j}]") for j, cell in enumerate(row)])
    return np.array(rows, dtype=complex)


SIGMA_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))
