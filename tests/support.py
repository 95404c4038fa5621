"""Shared builders for the test suite.

Seeded random operators, states and scenarios, plus the handful of pinned
arrangements that several test modules (and the acceptance gate) share.
Everything here is deterministic given the seed.
"""

from __future__ import annotations

import numpy as np

from weakmeas import (
    density_state,
    gaussian,
    grid_state,
    make_scenario,
    new_observable,
    projector_onto,
    pure_state,
)
from weakmeas.qops import SIGMA_X, overlap


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# --- random ingredients ------------------------------------------------------


def random_hermitian(gen: np.random.Generator, dim: int) -> np.ndarray:
    raw = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0


def random_observable(gen: np.random.Generator, dim: int):
    return new_observable(random_hermitian(gen, dim))


def random_pure(gen: np.random.Generator, dim: int):
    return pure_state(gen.standard_normal(dim) + 1j * gen.standard_normal(dim))


def random_density(gen: np.random.Generator, dim: int):
    raw = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    mat = raw @ raw.conj().T
    return density_state(mat / np.trace(mat).real)


def random_projector(gen: np.random.Generator, dim: int, rank: int = 1):
    raw = gen.standard_normal((dim, rank)) + 1j * gen.standard_normal((dim, rank))
    q, _ = np.linalg.qr(raw)
    return projector_onto(*q.T)


def random_selections(gen, dim, *, mixed=False, rank=None, min_overlap=1e-3):
    """(pre, post) pair with post-selection probability >= ``min_overlap``."""
    while True:
        pre = random_density(gen, dim) if mixed else random_pure(gen, dim)
        r = rank if rank is not None else int(gen.integers(1, dim))
        post = random_projector(gen, dim, r)
        if overlap(post, pre) >= min_overlap:
            return pre, post


def random_scenario(gen, dim=None, *, g_dp_max=0.05, mixed=None, min_overlap=1e-3):
    """Random non-orthogonal scenario with g * delta_p <= ``g_dp_max``."""
    d = int(dim) if dim is not None else int(gen.integers(2, 6))
    obs = random_observable(gen, d)
    is_mixed = bool(gen.integers(0, 2)) if mixed is None else mixed
    pre, post = random_selections(gen, d, mixed=is_mixed, min_overlap=min_overlap)
    delta_q = float(gen.uniform(0.5, 2.0))
    delta_p = 1.0 / (2.0 * delta_q)
    g = float(gen.uniform(0.2, 1.0)) * g_dp_max / delta_p
    return make_scenario(obs, pre, post, g, gaussian(delta_q))


# --- standard-basis references -------------------------------------------------


def standard_trace(obs, pre, post, m: int, l: int) -> complex:
    """tr(P A^m rho A^l) by matrix products in the standard basis: the
    reference the selection kernel is tested against."""
    a = obs.matrix
    return complex(
        np.trace(
            post.matrix
            @ np.linalg.matrix_power(a, m)
            @ pre.matrix
            @ np.linalg.matrix_power(a, l)
        )
    )


def standard_amplitudes(obs, pre, post, n: int) -> np.ndarray:
    """sqrt(w_k) <f_m|A^n|psi_k> by matrix products in the standard basis,
    rows (m, k) in the selection kernel's order."""
    an = np.linalg.matrix_power(obs.matrix, n)
    return np.array(
        [
            np.sqrt(w) * np.vdot(f, an @ psi)
            for f in post.basis.T
            for w, psi in pre.eigenmixture
        ]
    )


# --- pinned arrangements -----------------------------------------------------


def qubit_pps_half_overlap():
    """Generic non-degenerate qubit selections with post-selection
    probability exactly 1/2.

    The post-selection direction is (psi + e^{0.7i} psi_perp)/sqrt(2), so
    tr(P rho) = |<f|i>|^2 = 1/2 with a deliberately non-real relative phase:
    no moment combination in the second-order shift formulas vanishes by
    accident.
    """
    a = np.diag([1.0, 0.35]).astype(complex)
    psi = np.array([0.8, 0.36 + 0.48j])  # exactly unit norm
    perp = np.array([-np.conj(psi[1]), np.conj(psi[0])])
    phi = (psi + np.exp(0.7j) * perp) / np.sqrt(2.0)
    return new_observable(a), pure_state(psi), projector_onto(phi)


def half_overlap_scenario(g: float, pointer=None):
    obs, pre, post = qubit_pps_half_overlap()
    return make_scenario(obs, pre, post, g, pointer if pointer is not None else gaussian(1.0))


def orthogonal_sigma_x(g: float, delta_q: float = 1.0):
    """A = sigma_x with pre |0>, post |1>: orthogonal selections, A_ow = 0."""
    return make_scenario(SIGMA_X, [1.0, 0.0], [0.0, 1.0], g, gaussian(delta_q))


def orthogonal_idempotent(g: float, delta_q: float = 1.0):
    """A = (1 + sigma_x)/2, a projector, with pre |0>, post |1>: orthogonal
    selections with A_ow = 1/2. Because A^n = A the outgoing wavefunction is
    (phi(q-g) - phi(q))/2 up to normalization; the Gaussian profile is even,
    so its density is exactly symmetric about g/2 and delta_q = g/2 at every
    coupling."""
    a = (np.eye(2) + SIGMA_X) / 2.0
    return make_scenario(a, [1.0, 0.0], [0.0, 1.0], g, gaussian(delta_q))


def commuting_orthogonal(g: float, delta_q: float = 1.0):
    """A = diag(1, -1) with pre |0>, post |1>: the selections are orthogonal
    and everything commutes, so the post-selection never succeeds at any
    expansion order (tr(P A rho A) = 0 as well as tr(P rho) = 0)."""
    a = np.diag([1.0, -1.0]).astype(complex)
    return make_scenario(a, [1.0, 0.0], [0.0, 1.0], g, gaussian(delta_q))


def orthogonal_d3(seed: int, pointer):
    """A random d = 3 pure orthogonal selection on ``pointer``, as a function
    of g."""
    gen = rng(seed)
    obs = new_observable(random_hermitian(gen, 3))
    pre = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    post = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    post -= np.vdot(pre, post) / np.vdot(pre, pre) * pre
    return lambda g: make_scenario(obs, pure_state(pre), projector_onto(post), g, pointer)


def overlap_family(ov: float, g: float):
    """A d = 3 pure selection with tr(P rho) = ``ov`` on a Gaussian of
    width 1: post |f> and pre cos(theta) |perp> + sin(theta) |f>, with
    sin(theta)^2 = ov, |perp> orthogonal to |f>, and the observable, |f>
    and |perp> drawn from seed 7. At ov = 0 the selections are orthogonal."""
    gen = rng(7)
    obs = random_observable(gen, 3)
    f = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    f /= np.linalg.norm(f)
    perp = gen.standard_normal(3) + 1j * gen.standard_normal(3)
    perp -= np.vdot(f, perp) * f
    perp /= np.linalg.norm(perp)
    theta = np.arcsin(np.sqrt(ov))
    pre = np.cos(theta) * perp + np.sin(theta) * f
    return make_scenario(obs, pure_state(pre), projector_onto(f), g, gaussian(1.0))


def skewed_pointer(delta_q: float = 1.0, *, skew: float = 0.35, n: int = 4096,
                   half_span: float = 10.0):
    """Single-branch grid pointer with a real, asymmetric profile recentred
    to <q> = 0.

    A real profile keeps <p> = <p^3> = <{q,p}> = 0 while the asymmetry
    leaves <p q p> nonzero, so — unlike any even profile, Gaussians
    included — no parity accident cancels the quadratic error term of the
    first-order shift formula. This is the generic pointer used to measure
    convergence orders.
    """
    dq = 2.0 * half_span / n
    q_min = -half_span
    coords = q_min + dq * np.arange(n)

    def profile(center: float) -> np.ndarray:
        u = coords - center
        return (1.0 + skew * u) * np.exp(-(u * u) / (4.0 * delta_q**2))

    raw = profile(0.0)
    mean = float(np.sum(coords * raw * raw) / np.sum(raw * raw))
    samples = profile(-mean)
    samples = samples / np.sqrt(np.sum(samples * samples) * dq)
    return grid_state(q_min, dq, n, [(1.0, samples)])


def local_maxima(density, floor_ratio: float = 1e-12):
    """Coordinates of strict interior local maxima above a relative floor."""
    v = density.values
    floor = float(v.max()) * floor_ratio
    idx = [
        i
        for i in range(1, v.size - 1)
        if v[i] > v[i - 1] and v[i] > v[i + 1] and v[i] > floor
    ]
    return [float(density.coords[i]) for i in idx]
