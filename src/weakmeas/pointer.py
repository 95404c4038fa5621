"""Measuring-device (pointer) states and their moments.

Two representations are supported: an analytic zero-mean minimum-uncertainty
Gaussian, for which every required moment has a closed form, and a sampled
grid state (optionally a convex mixture of pure branches), for which
momentum-side quantities use the unitary discrete Fourier pair on the grid
with the convention dq * dp = 2*pi/n. Everything runs with hbar = 1. How a
pointer meets a working grid is decided here alone: its frame, translated
branches, lag tables, power tables and moment table. So is its wire form:
``type`` names the kind, each kind refuses keys it does not read, and the
samples are `qops` [re, im] pairs.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyGrid,
    GridTooSmall,
    NonPositiveWidth,
    ParseError,
    UnsupportedOrder,
    WidthOutOfRange,
)
from .qops import (
    _freeze,
    _frozen,
    _is_integer,
    _parsed,
    _require_number,
    _wire_object,
    matrix_to_wire,
    vector_from_wire,
)

__all__ = [
    "QGrid",
    "GaussianPointer",
    "GridPointer",
    "PointerState",
    "MomentSpec",
    "p_power",
    "q_power",
    "Density",
    "gaussian",
    "grid_state",
    "moment",
    "variance_q",
    "variance_p",
    "densities",
    "gaussian_profile",
    "default_grid",
]

DEFAULT_GRID_N = 4096
MIN_GRID_N = 64
MAX_GRID_N = 1 << 22
MAX_GRID_MOMENT_ORDER = 8
# Highest weak-value order, and so the highest pointer moment <p^n>, <q^n>
# the package pairs with one.
MAX_WEAK_ORDER = 12
# A Gaussian's largest moments are the top even ones, (n-1)!! delta_q^n and
# (n-1)!! (2 delta_q)^-n; these widths keep both finite up to MAX_WEAK_ORDER.
_TOP_EVEN = MAX_WEAK_ORDER - MAX_WEAK_ORDER % 2
MAX_WIDTH = (sys.float_info.max / math.prod(range(1, _TOP_EVEN, 2))) ** (1.0 / _TOP_EVEN)
MIN_WIDTH = 0.5 / MAX_WIDTH
SPECTRAL_FLOOR = 1e-15
# The default moment table's top power: <p^n> to MAX_GRID_MOMENT_ORDER.
TABLE_POWER = MAX_GRID_MOMENT_ORDER // 2
_I_POWERS = (1.0, 1j, -1.0, -1j)


def validate_grid_n(n: int | None) -> int | None:
    """Check a working-grid size: an integer power of two in
    [MIN_GRID_N, MAX_GRID_N]. None (the default size) passes through."""
    if n is None:
        return None
    if not _is_integer(n):
        raise ValueError(f"grid_n must be an integer, got {n!r}")
    if n < MIN_GRID_N or n > MAX_GRID_N or n & (n - 1):
        raise ValueError(
            f"grid_n must be a power of two in [{MIN_GRID_N}, {MAX_GRID_N}], got {n}"
        )
    return int(n)


@dataclass(frozen=True)
class QGrid:
    """Uniform position grid q_i = q_min + i*dq, i = 0..n-1."""

    q_min: float
    dq: float
    n: int

    def coords(self) -> np.ndarray:
        return self.q_min + self.dq * np.arange(self.n)

    def momenta(self) -> np.ndarray:
        """Conjugate momentum grid in FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dq)

    @property
    def dp(self) -> float:
        return 2.0 * np.pi / (self.n * self.dq)

    @property
    def q_max(self) -> float:
        return self.q_min + self.dq * (self.n - 1)


def to_momentum(grid: QGrid, samples: np.ndarray) -> np.ndarray:
    """Momentum wavefunction samples (FFT ordering), unitary normalization.

    Parseval holds exactly: sum |out|^2 * dp == sum |samples|^2 * dq.
    """
    phase = np.exp(-1j * grid.momenta() * grid.q_min)
    return (grid.dq / math.sqrt(2.0 * math.pi)) * phase * np.fft.fft(samples)


def translate(grid: QGrid, samples: np.ndarray, shift: float) -> np.ndarray:
    """Samples of psi(q - shift) via the spectral translation phase
    exp(-i p shift), written as cos and -sin into one complex array (bit for
    bit `np.exp`'s); a column of shifts gives one row per shift from one
    forward transform.

    Exact for band-limited periodic data; callers must leave room so the
    translated tails do not wrap around.
    """
    x = grid.momenta() * shift
    phase = np.empty(x.shape, dtype=complex)
    np.cos(x, out=phase.real)
    np.sin(np.negative(x, out=x), out=phase.imag)
    phase *= np.fft.fft(samples)
    return np.fft.ifft(phase)


@dataclass(frozen=True)
class GaussianPointer:
    """Zero-mean minimum-uncertainty real Gaussian of width ``delta_q``,
    kept as a float. The one width check: the widths in [MIN_WIDTH,
    MAX_WIDTH] are those whose moments up to MAX_WEAK_ORDER are finite;
    ``_tables`` memoizes `_moment_table`, the series weights built on it
    and the last `_lag_tables`."""

    delta_q: float
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        delta_q = self.delta_q
        if not (delta_q > 0.0) or not math.isfinite(delta_q):
            raise NonPositiveWidth(f"delta_q must be a positive real, got {delta_q!r}")
        if not MIN_WIDTH <= delta_q <= MAX_WIDTH:
            raise WidthOutOfRange(
                f"delta_q = {delta_q!r} is outside [{MIN_WIDTH!r}, {MAX_WIDTH!r}], the "
                f"widths whose pointer moments up to order {MAX_WEAK_ORDER} are finite"
            )
        object.__setattr__(self, "delta_q", float(delta_q))

    @property
    def var_q(self) -> float:
        return self.delta_q**2

    @property
    def delta_p(self) -> float:
        return 1.0 / (2.0 * self.delta_q)

    @property
    def var_p(self) -> float:
        return self.delta_p**2


@dataclass(frozen=True)
class GridPointer:
    """Sampled pointer state: convex mixture of pure branches on one grid.
    A branch with real samples gets real power-table rows, as a Gaussian.
    ``_tables`` memoizes `_moment_table` (and the series weights built on
    it), the spread sigma_q that pads its `_working_grid` and the last
    `_lag_tables`, so a pointer pays for each of them once."""

    grid: QGrid
    branches: tuple[tuple[float, np.ndarray], ...]
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def q_min(self) -> float:
        return self.grid.q_min

    @property
    def dq(self) -> float:
        return self.grid.dq

    @property
    def n(self) -> int:
        return self.grid.n


PointerState = GaussianPointer | GridPointer


def gaussian(delta_q: float) -> GaussianPointer:
    """Gaussian pointer of width ``delta_q``; `GaussianPointer` checks it."""
    return GaussianPointer(delta_q)


def gaussian_profile(q, delta_q: float, shift: float = 0.0) -> np.ndarray:
    """Normalized Gaussian wavefunction samples centered at `shift`."""
    q = np.asarray(q, dtype=float)
    norm = (2.0 * math.pi * delta_q**2) ** (-0.25)
    return norm * np.exp(-((q - shift) ** 2) / (4.0 * delta_q**2))


def _orthogonal_peaks(pointer: PointerState, center: complex) -> tuple | None:
    """The maxima (peaks_q, peaks_p) of a Gaussian's double-peaked orthogonal
    profile about ``center`` = g A_ow: g Re A_ow +/- sqrt(2) delta_q and
    g Im A_ow delta_p^2 +/- sqrt(2) delta_p. None for a grid pointer."""
    if not isinstance(pointer, GaussianPointer):
        return None
    root2 = math.sqrt(2.0)
    q, p = center.real, center.imag * pointer.var_p
    return ((q - root2 * pointer.delta_q, q + root2 * pointer.delta_q),
            (p - root2 * pointer.delta_p, p + root2 * pointer.delta_p))


def _next_pow2(n: int) -> int:
    return 1 << (max(n, 1) - 1).bit_length()


def default_grid(delta_q: float, g: float = 0.0, n: int | None = None) -> QGrid:
    """Symmetric grid covering +-10 max(delta_q, |g|) around zero with
    dq <= delta_q/8.

    ``n`` (default DEFAULT_GRID_N) is a floor: it is raised to the next power
    of two at or above 160 max(delta_q, |g|)/delta_q. A size beyond
    MAX_GRID_N stays a float (it may be inf), for the frame guard to refuse
    before anything is allocated.
    """
    half = 10.0 * max(delta_q, abs(g))
    size = 16.0 * half / delta_q  # dq = 2 half/size <= delta_q/8
    if size <= MAX_GRID_N:
        size = _next_pow2(math.ceil(size))
    size = max(int(n or DEFAULT_GRID_N), size)
    return QGrid(q_min=-half, dq=2.0 * half / size, n=size)


def _check_grid_size(n: int) -> None:
    """A grid pointer's sample count: an integer power of two in [1, MAX_GRID_N]."""
    if not _is_integer(n):
        raise ValueError(f"expected an integer, got {n!r}")
    if n <= 0:
        raise EmptyGrid("grid has no points")
    if n & (n - 1):
        raise ValueError(f"grid size must be a power of two, got {n}")
    if n > MAX_GRID_N:
        raise ValueError(f"grid size must be at most {MAX_GRID_N}, got {n}")


def grid_state(q_min: float, dq: float, n: int, branches) -> GridPointer:
    """Build a grid pointer from `(weight, samples)` branches.

    Validates: n is an integer power of two at most MAX_GRID_N; q_min, dq,
    weights and samples are finite; each branch has n samples (checked
    before anything of size n is allocated); weights are positive and sum
    to one within 1e-12; each branch is normalized within 1e-10; the grid
    extends at least eight standard deviations beyond each branch mean.
    """
    _check_grid_size(n)
    if not math.isfinite(q_min):
        raise ValueError(f"grid origin q_min must be finite, got {q_min!r}")
    if not (0.0 < dq < math.inf):
        raise ValueError(f"grid spacing must be positive and finite, got {dq!r}")
    grid = QGrid(q_min=float(q_min), dq=float(dq), n=int(n))
    seq = list(branches)
    if not seq:
        raise EmptyGrid("pointer needs at least one branch")
    parsed = []
    for idx, (w, samples) in enumerate(seq):
        w = float(w)
        if not (0.0 < w < math.inf):
            raise ValueError(f"branch {idx} weight must be positive and finite, got {w!r}")
        phi = np.asarray(samples, dtype=complex).reshape(-1)
        if phi.size != n:
            raise ValueError(f"branch {idx} has {phi.size} samples, expected {n}")
        parsed.append((w, phi))
    total = 0.0
    out = []
    q = grid.coords()
    for idx, (w, phi) in enumerate(parsed):
        total += w
        if not np.all(np.isfinite(phi)):
            raise ValueError(f"branch {idx} has non-finite samples")
        norm = float(np.sum(np.abs(phi) ** 2) * dq)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"branch {idx} norm is {norm!r}, expected 1 within 1e-10")
        prob = np.abs(phi) ** 2 * dq
        mean = float(np.sum(q * prob))
        sigma = math.sqrt(max(float(np.sum((q - mean) ** 2 * prob)), 0.0))
        if mean - 8.0 * sigma < grid.q_min or mean + 8.0 * sigma > grid.q_max:
            raise GridTooSmall(
                f"branch {idx}: grid [{grid.q_min:g}, {grid.q_max:g}] does not cover "
                f"eight standard deviations around the branch mean {mean:g}"
            )
        out.append((w, _frozen(phi)))
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"branch weights sum to {total!r}, expected 1 within 1e-12")
    return GridPointer(grid=grid, branches=tuple(out))


# --- moments ---------------------------------------------------------------

@dataclass(frozen=True)
class MomentSpec:
    """Tag for a pointer moment, checked here once: ``p_power`` or ``q_power``
    (<p^n>, <q^n> with ``order`` = n, a nonnegative integer). Every other
    moment is an entry of `_moment_table`."""

    kind: str
    order: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("p_power", "q_power"):
            raise ValueError(f"unknown moment kind {self.kind!r}")
        if not _is_integer(self.order) or self.order < 0:
            raise ValueError(f"moment order must be a nonnegative integer, got {self.order!r}")


def p_power(n: int) -> MomentSpec:
    return MomentSpec("p_power", n)


def q_power(n: int) -> MomentSpec:
    return MomentSpec("q_power", n)


def moment(state: PointerState, spec: MomentSpec) -> float:
    """Evaluate a pointer moment: closed form for the Gaussian; for grid
    states (orders above MAX_GRID_MOMENT_ORDER refused) a position-side sum
    for <q^n> and the memoized `_moment_table` for <p^n>."""
    n = spec.order
    if isinstance(state, GaussianPointer):
        var = state.var_p if spec.kind == "p_power" else state.var_q
        return 0.0 if n % 2 else math.prod(range(n - 1, 0, -2)) * var ** (n // 2)
    if n > MAX_GRID_MOMENT_ORDER:
        raise UnsupportedOrder(
            f"grid moments support order <= {MAX_GRID_MOMENT_ORDER}, got {n}"
        )
    if spec.kind == "p_power":
        return float(_moment_table(state)[n // 2, 0, n - n // 2].real)
    q = state.grid.coords()
    return sum(
        w * float(np.sum(q**n * np.abs(phi) ** 2) * state.dq) for w, phi in state.branches
    )


def _branch_p_table(
    grid: QGrid, branches: list[tuple[float, np.ndarray]], max_power: int
) -> tuple[list[list[np.ndarray]], np.ndarray, np.ndarray]:
    """Per-branch rows for a = 0..max_power, plus the mixed momentum
    density M0 (FFT ordering) and the grid momenta. A branch with real
    samples has a Hermitian spectrum, so `rfft` halves its transforms and
    its rows p^a phi / i^a are real, the Gaussian rows' convention (the
    phase i^a left to the caller); its M0 mirrors the half spectrum. Any
    other branch gets complex rows p^a phi."""
    pk = grid.momenta()
    tables = []
    m0 = np.zeros(grid.n)
    for w, phi in branches:
        real = not phi.imag.any()
        spectrum = np.fft.rfft(phi.real) if real else np.fft.fft(phi)
        # Raising to p^a amplifies the FFT noise floor of the spectral tail
        # by p_max^a, which would swamp the factorially decaying true terms
        # at high order. Modes this far below the peak carry no admissible
        # pointer content, so drop them; using the same masked spectrum for
        # the moments m0 keeps the Parseval normalization identities exact.
        spectrum[np.abs(spectrum) < SPECTRAL_FLOOR * np.max(np.abs(spectrum))] = 0.0
        power = w * np.abs((grid.dq / math.sqrt(2.0 * math.pi)) * spectrum) ** 2
        # A real branch's M0 is even: its half spectrum, mirrored.
        m0 += np.concatenate([power, power[-2:0:-1]]) if real else power
        # A step multiplies by p, or by p / i (odd a's Nyquist mode, then
        # imaginary, is dropped by `irfft`).
        step = -1j * pk[: spectrum.size] if real else pk
        powers = [phi.real if real else phi]
        for _ in range(max_power):
            spectrum *= step
            powers.append(np.fft.irfft(spectrum, grid.n) if real else np.fft.ifft(spectrum))
        tables.append(powers)
    return tables, m0, pk


def _power_table(
    pointer: PointerState, grid: QGrid, branches: list[tuple[float, np.ndarray]], max_power: int
) -> tuple[list[list[np.ndarray]], np.ndarray, np.ndarray, float]:
    """The series' power table on the `_frame` in a unit of length, and the
    unit: rows unit^a p^a phi, real rows unit^a p^a phi / i^a, M0 and
    momenta unit p (`_branch_p_table`'s, unit 1, for a grid pointer: real
    rows for real samples). A Gaussian's rows are real and closed form
    in units of its width, so no power of q, g or p in the series overflows:
    as p^a phi = (i/(sqrt(2) delta_q))^a He_a(q/(sqrt(2) delta_q)) phi
    (Duck, Stevenson & Sudarshan 1989), row a = delta_q^a p^a phi / i^a
    obeys row_(a+1) = (q/(2 delta_q)) row_a - (a/2) row_(a-1), the phase i^a
    left to the caller's coefficients, and M0 = sqrt(2/pi) delta_q
    exp(-2 delta_q^2 p^2)."""
    if not isinstance(pointer, GaussianPointer):
        return (*_branch_p_table(grid, branches, max_power), 1.0)
    delta_q, (q, pk) = pointer.delta_q, (grid.coords(), grid.momenta())
    half_q = q / (2.0 * delta_q)
    powers = [branches[0][1]]
    for a in range(max_power):
        row = half_q * powers[a]
        if a:
            row -= (0.5 * a) * powers[a - 1]
        powers.append(row)
    m0 = math.sqrt(2.0 / math.pi) * delta_q * np.exp(-2.0 * delta_q**2 * pk**2)
    return [powers], m0, delta_q * pk, delta_q


@functools.lru_cache(maxsize=None)
def _hermite_wick(size: int) -> np.ndarray:
    """Integers K[b, j, a] (a, b <= ``size``, j <= 2) with
    <p^b phi| q^j |p^a phi> = i^(a-b) K dq^(j-a-b) / 2^(a+b) for a Gaussian
    of width dq: `_power_table`'s Hermite recurrence on integer
    coefficients against Wick's moments (m-1)!! of z^m, rounded once."""
    he = [[1]]  # He_a(z) coefficients, lowest power first
    for a in range(size):
        shifted = itertools.zip_longest([0, *he[a]], he[a - 1] if a else [], fillvalue=0)
        he.append([x - a * y for x, y in shifted])
    table = np.zeros((size + 1, 3, size + 1))
    for (b, hb), (a, ha), j in itertools.product(enumerate(he), enumerate(he), range(3)):
        table[b, j, a] = sum(
            x * y * math.prod(range(c + d + j - 1, 0, -2)) * 2 ** ((b - c + a - d) // 2)
            for (c, x), (d, y) in itertools.product(enumerate(hb), enumerate(ha))
            if x and y and (c + d + j) % 2 == 0
        )
    return _frozen(table)


def _moment_table(state: PointerState, size: int = TABLE_POWER) -> np.ndarray:
    """M[b, j, a] = <p^b phi| q^j |p^a phi> for a, b <= ``size`` and
    j = 0, 1, 2 (mixed over the branches), read-only, once per pointer and
    size: closed form for a Gaussian (`_hermite_wick`), a quadrature over
    the masked FFT rows of `_branch_p_table` on a grid pointer's own grid.
    Real rows (row a = p^a phi / i^a) take the phase i^(a-b) here."""
    memo = state._tables
    if size in memo:
        return memo[size]
    b, j, a = np.indices((size + 1, 3, size + 1))
    phase = np.array(_I_POWERS)[(a - b) % 4]
    if isinstance(state, GaussianPointer):
        table = phase * _hermite_wick(size) * state.delta_q ** (j - a - b) / 2.0 ** (a + b)
    else:
        q, (tables, _, _) = state.grid.coords(), _branch_p_table(state.grid, state.branches, size)
        table = sum(
            w
            * (phase if np.isrealobj(rows) else 1.0)
            * np.stack([(rows.conj() * (q**j * state.dq)) @ rows.T for j in range(3)], axis=1)
            for (w, _), rows in zip(state.branches, map(np.array, tables))
        )
    memo[size] = _frozen(table)
    return memo[size]


def variance_q(state: PointerState) -> float:
    m1 = moment(state, q_power(1))
    return moment(state, q_power(2)) - m1**2


def variance_p(state: PointerState) -> float:
    m1 = moment(state, p_power(1))
    return moment(state, p_power(2)) - m1**2


# --- the pointer on a working grid ------------------------------------------

def _working_grid(
    pointer: PointerState, g: float, shifts: np.ndarray, grid_n: int | None
) -> QGrid:
    """The working grid for the translations ``shifts`` = g a, allocating
    nothing: a Gaussian's is `default_grid`'s; a grid pointer's is padded
    by max|shift| + 8 sigma on each side to a power of two, so no spectral
    translation wraps. ``grid_n`` is a floor and never shrinks user data.
    The one frame guard: at most MAX_GRID_N points with a finite dq * dq
    (the momentum density's scale)."""
    validate_grid_n(grid_n)
    if isinstance(pointer, GaussianPointer):
        grid = default_grid(pointer.delta_q, g, grid_n)
    else:
        base, memo = pointer.grid, pointer._tables
        if "sigma_q" not in memo:
            memo["sigma_q"] = math.sqrt(max(variance_q(pointer), 0.0))
        sigma = memo["sigma_q"]
        pad_cells = (float(np.max(np.abs(shifts))) + 8.0 * sigma) / base.dq
        # A padding beyond the cap stays a float (it may be inf) for the guard.
        n = base.n + 2.0 * pad_cells
        if n <= MAX_GRID_N:
            n = _next_pow2(base.n + 2 * math.ceil(pad_cells))
        if grid_n is not None:
            n = max(n, grid_n)
        grid = QGrid(q_min=base.q_min - (n - base.n) // 2 * base.dq, dq=base.dq, n=n)
    n, dq = grid.n, grid.dq
    if not (n <= MAX_GRID_N and math.isfinite(dq * dq)):
        raise GridTooSmall(
            f"g = {g:.3e} needs a working grid of n = {n:.6g} points spanning "
            f"{n * dq:.3e} (dq = {dq:.3e}); the grid holds at most {MAX_GRID_N} "
            "points with a finite dq^2"
        )
    return grid


def _frame(
    pointer: PointerState, g: float, shifts: np.ndarray, grid_n: int | None
) -> tuple[QGrid, list[tuple[float, np.ndarray]]]:
    """The pointer's branches laid on its `_working_grid`: a Gaussian
    sampled there, a grid pointer's branches zero-padded to it."""
    grid = _working_grid(pointer, g, shifts, grid_n)
    if isinstance(pointer, GaussianPointer):
        return grid, [(1.0, gaussian_profile(grid.coords(), pointer.delta_q))]
    pad = (grid.n - pointer.n) // 2
    return grid, [(w, np.pad(phi, (pad, grid.n - pointer.n - pad))) for w, phi in pointer.branches]


def _translated(
    pointer: PointerState, grid: QGrid, phi: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """The (d, n) complex table of the `_frame` branch ``phi`` translated by
    each shift: a grid branch's by one `translate` (one forward transform),
    a Gaussian's row by row (one (d, n) broadcast ran 3x slower)."""
    if isinstance(pointer, GaussianPointer):
        q = grid.coords()
        return np.array([gaussian_profile(q, pointer.delta_q, u) for u in shifts], dtype=complex)
    return translate(grid, phi, shifts[:, None])


def _lag_tables(pointer: PointerState, g: float, u: np.ndarray) -> tuple:
    """`_build_lag_tables` at the translations u, read-only. The last result
    is memoized in one slot of the pointer's ``_tables``, keyed by u's bytes
    (the tables depend on u alone; g names the coupling if the grid is
    refused): one build per search at one coupling, one table held through
    a coupling sweep."""
    memo, key = pointer._tables, u.tobytes()
    if memo.get("lags", (None,))[0] != key:
        zero, slope, lags = _build_lag_tables(pointer, g, u)
        memo["lags"] = key, (_frozen(zero), slope, _freeze(lags))
    return memo["lags"][1]


def _build_lag_tables(pointer: PointerState, g: float, u: np.ndarray) -> tuple:
    """(zero, slope, lags) of the pointer at the translations u. With
    chi(x) = <phi|U_x phi>, chi_q(x) = <q phi|U_x phi>, chi_p(x) =
    <phi|p U_x phi> (U_x translates by x), zero = (chi(0), chi_q(0),
    chi_p(0)) and lags stacks, at x_ij = u_i - u_j, dchi = chi(x) - chi(0),
    Q = chi_q(x) - chi_q(0) + u_j dchi and P = chi_p(x) - chi_p(0) + i slope x.
    A Gaussian's are closed form: dchi = expm1(-x^2 dp^2/2), Q = s dchi with
    s_ij = (u_i + u_j)/2 (the rest, x/2, has no real part against the pair
    table), slope = dp^2, P = -i dp^2 x dchi. A grid pointer's sum its
    weights W = |phi~|^2, conj((q phi)~) phi~, p |phi~|^2 (times dq/n) on
    the `_frame` without a ``grid_n`` floor, where no lag wraps: with
    D_i = e^(-i p u_i) - 1, dchi_ij = sum W (D_i + D_j^* + D_i D_j^*).
    """
    if isinstance(pointer, GaussianPointer):
        var_p = pointer.var_p
        x = u[:, None] - u[None, :]
        dchi = np.expm1(-0.5 * var_p * x**2)
        s_dchi = 0.5 * (u[:, None] + u[None, :]) * dchi
        return (1.0, 0.0, 0.0), var_p, np.stack([dchi, s_dchi, -1j * var_p * x * dchi])
    grid, branches = _frame(pointer, g, u, None)
    p, q = grid.momenta(), grid.coords()
    weights = np.zeros((3, grid.n), dtype=complex)
    for w, phi in branches:
        spectrum = np.fft.fft(phi)
        power = (w * grid.dq / grid.n) * (spectrum.real**2 + spectrum.imag**2)
        weights[0] += power
        weights[1] += (w * grid.dq / grid.n) * np.conj(np.fft.fft(q * phi)) * spectrum
        weights[2] += p * power
    # Modes where every weight is below SPECTRAL_FLOOR^2 of its peak (the
    # FFT's rounding floor) move no table by more than 2 n SPECTRAL_FLOOR^2
    # of that peak; a smooth pointer keeps about a hundred modes.
    mass = np.abs(weights)
    keep = (mass > SPECTRAL_FLOOR**2 * mass.max(axis=1, keepdims=True)).any(axis=0)
    p, weights = p[keep], weights[:, keep]
    # A row of ones, then D = -2 sin^2(p u/2) - i sin(p u), with no cancellation.
    half = 0.5 * np.multiply.outer(u, p)
    rows = np.vstack([np.ones_like(p), -2.0 * np.sin(half) ** 2 - 1j * np.sin(2.0 * half)])
    table = (weights[:, None, :] * rows) @ rows.conj().T
    lags = table[:, 1:, 1:] + table[:, 1:, :1] + table[:, :1, 1:]
    lags[1] += u * lags[0]
    return table[:, 0, 0].real, 0.0, lags


# --- densities --------------------------------------------------------------

@dataclass(frozen=True)
class Density:
    """Real density sampled on a uniform coordinate grid."""

    coords: np.ndarray
    values: np.ndarray

    @property
    def spacing(self) -> float:
        return float(self.coords[1] - self.coords[0])

    def total(self) -> float:
        return float(np.sum(self.values) * self.spacing)


def densities(state: PointerState) -> tuple[Density, Density]:
    """Position- and momentum-space probability densities of the pointer,
    a Gaussian's sampled at DEFAULT_GRID_N points."""
    if isinstance(state, GaussianPointer):
        n = DEFAULT_GRID_N
        q = default_grid(state.delta_q, n=n).coords()
        qd = gaussian_profile(q, state.delta_q) ** 2
        half_p = 10.0 * state.delta_p
        p = -half_p + (2.0 * half_p / n) * np.arange(n)
        pd = gaussian_profile(p, state.delta_p) ** 2
        return (
            Density(coords=_frozen(q), values=_frozen(qd)),
            Density(coords=_frozen(p), values=_frozen(pd)),
        )
    grid = state.grid
    qd = np.zeros(grid.n)
    pd = np.zeros(grid.n)
    for w, phi in state.branches:
        qd += w * np.abs(phi) ** 2
        pd += w * np.abs(to_momentum(grid, phi)) ** 2
    order = np.fft.fftshift(np.arange(grid.n))
    p_sorted = grid.momenta()[order]
    return (
        Density(coords=_frozen(grid.coords()), values=_frozen(qd)),
        Density(coords=_frozen(p_sorted), values=_frozen(pd[order])),
    )


# --- wire format -------------------------------------------------------------

def pointer_to_wire(state: PointerState) -> dict:
    if isinstance(state, GaussianPointer):
        return {"type": "gaussian", "delta_q": state.delta_q}
    return {
        "type": "grid",
        "q_min": state.q_min,
        "dq": state.dq,
        "n": state.n,
        "branches": [{"weight": w, "samples": matrix_to_wire(phi)} for w, phi in state.branches],
    }


def pointer_from_wire(data, path: str = "pointer") -> PointerState:
    """A pointer from its wire object; the ``type`` key names the kind, and
    each kind refuses keys of the other."""
    # Any key passes until the kind, which decides the keys, is known.
    kind = _wire_object(data, path, ("type",), data)["type"]
    if kind == "gaussian":
        _wire_object(data, path, ("type", "delta_q"))
        delta_q = _require_number(data["delta_q"], f"{path}.delta_q")
        return _parsed(f"{path}.delta_q", gaussian, delta_q)
    if kind != "grid":
        raise ParseError(f"{path}.type: expected 'gaussian' or 'grid', got {kind!r}")
    _wire_object(data, path, ("type", "q_min", "dq", "n", "branches"))
    q_min = _require_number(data["q_min"], f"{path}.q_min")
    dq = _require_number(data["dq"], f"{path}.dq")
    n = data["n"]
    _parsed(f"{path}.n", _check_grid_size, n)
    raw_branches = data["branches"]
    if not isinstance(raw_branches, list) or not raw_branches:
        raise ParseError(f"{path}.branches: expected a nonempty array")
    branches = []
    for i, entry in enumerate(raw_branches):
        at = f"{path}.branches[{i}]"
        _wire_object(
            entry, at, ("weight", "samples"), (), "expected an object with weight and samples"
        )
        weight = _require_number(entry["weight"], f"{at}.weight")
        branches.append((weight, vector_from_wire(entry["samples"], f"{at}.samples")))
    return _parsed(path, grid_state, q_min, dq, n, branches)
