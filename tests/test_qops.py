"""Operator-algebra construction, validation and wire-format checks."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from weakmeas import (
    density_state,
    new_observable,
    overlap,
    projector,
    projector_onto,
    pure_state,
)
from weakmeas.errors import DimensionMismatch, NonHermitian, ParseError, ZeroOperator
from weakmeas.qops import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _selection_binding,
    _selection_kernel,
    _selection_overlaps,
    _selection_stack,
    matrix_from_wire,
    matrix_to_wire,
    vector_from_wire,
)

from support import (
    random_density,
    random_hermitian,
    random_observable,
    random_projector,
    random_pure,
    rng,
)


# --- observables -------------------------------------------------------------


def test_observable_normalizes_spectral_norm():
    gen = rng(11)
    for dim in (2, 3, 5):
        raw = random_hermitian(gen, dim)
        obs = new_observable(raw)
        expected_scale = float(np.max(np.abs(np.linalg.eigvalsh(raw))))
        assert obs.scale == pytest.approx(expected_scale, rel=1e-14)
        # the top eigenvalue is scaled to exactly one
        assert float(np.max(np.abs(obs.eigenvalues))) == 1.0
        np.testing.assert_allclose(obs.matrix * obs.scale, (raw + raw.conj().T) / 2.0,
                                   atol=1e-13)


def test_observable_unit_norm_input_is_untouched():
    # Inputs already at unit spectral norm must come back bit-identical, or
    # serialization round-trips would drift by one normalization ulp.
    obs = new_observable(SIGMA_X)
    assert obs.scale == 1.0
    assert obs.matrix.tobytes() == SIGMA_X.tobytes()


def test_observable_eigendecomposition_consistent():
    gen = rng(12)
    obs = new_observable(random_hermitian(gen, 4))
    v, e = obs.eigenvectors, obs.eigenvalues
    np.testing.assert_allclose(v @ np.diag(e) @ v.conj().T, obs.matrix, atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)
    assert list(e) == sorted(e, reverse=True)


def test_observable_power_matches_repeated_multiplication():
    gen = rng(13)
    obs = new_observable(random_hermitian(gen, 3))
    np.testing.assert_allclose(obs.power(0), np.eye(3), atol=1e-13)
    np.testing.assert_allclose(obs.power(1), obs.matrix, atol=1e-13)
    np.testing.assert_allclose(obs.power(3), obs.matrix @ obs.matrix @ obs.matrix,
                               atol=1e-12)
    with pytest.raises(ValueError):
        obs.power(-1)


def test_observable_rejects_bad_input():
    with pytest.raises(NonHermitian):
        new_observable([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ZeroOperator):
        new_observable(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        new_observable(np.ones((2, 3)))


# --- states ------------------------------------------------------------------


def test_pure_state_normalizes_and_is_rank_one():
    st = pure_state([3.0, 4.0j])
    assert st.is_pure
    assert float(np.real(np.trace(st.matrix))) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(st.matrix @ st.matrix, st.matrix, atol=1e-14)
    np.testing.assert_allclose(np.abs(st.vector), [0.6, 0.8], atol=1e-14)
    with pytest.raises(ZeroOperator):
        pure_state([0.0, 0.0])


def test_pure_state_matrix_is_exactly_hermitian():
    # The stored matrix must equal its own conjugate transpose with zero
    # tolerance (conjugation may flip signed zeros, so compare values, not
    # bits) so that the wire format round-trips exactly.
    gen = rng(14)
    for _ in range(20):
        st = random_pure(gen, int(gen.integers(2, 6)))
        assert np.array_equal(st.matrix, st.matrix.conj().T)


def _eager_pure_state(raw):
    """The pure state as it was built before `matrix` became lazy: the
    normalized vector and the symmetrized outer product."""
    v = np.asarray(raw, dtype=complex).reshape(-1)
    v = v / float(np.linalg.norm(v))
    outer = np.outer(v, v.conj())
    return v, (outer + outer.conj().T) / 2.0


def test_pure_state_matches_the_eager_formula_bit_for_bit():
    gen = rng(30)
    for dim in range(1, 9):
        for _ in range(25):
            raw = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
            raw = raw * 10.0 ** gen.uniform(-3.0, 3.0)
            for vec in (raw, raw.real, raw[::-1]):  # complex, real, strided
                st = pure_state(vec)
                v, m = _eager_pure_state(vec)
                assert st.vector.tobytes() == v.tobytes()
                assert st.matrix.tobytes() == m.tobytes()


@pytest.mark.parametrize("make", [random_pure, random_density])
def test_state_arrays_are_read_only_and_exactly_hermitian(make):
    st = make(rng(31), 4)
    m = st.matrix
    assert not m.flags.writeable
    assert all(not v.flags.writeable for _, v in st.eigenmixture)
    with pytest.raises(ValueError):
        m[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.matrix = np.eye(4)
    # Compare values, not bits: conjugation may flip signed zeros.
    assert np.array_equal(m, m.conj().T)


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e200])
def test_pure_state_is_scale_invariant(scale):
    # Squared norms beyond the double range (1e200) or below its normal
    # range (1e-170, 1e-160) go through the rescaled path, with no warning.
    gen = rng(32)
    for dim in (1, 2, 5):
        v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = pure_state(scale * v)
        ref = pure_state(v)
        np.testing.assert_allclose(st.vector, ref.vector, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(st.matrix, ref.matrix, rtol=0.0, atol=1e-15)
    with pytest.raises(ZeroOperator):
        pure_state(np.zeros(3))
    with pytest.raises(ValueError, match="state vector has non-finite"):
        pure_state([scale, np.inf])


def test_density_state_eigenmixture_reconstructs():
    gen = rng(15)
    st = random_density(gen, 4)
    acc = np.zeros((4, 4), dtype=complex)
    for w, v in st.eigenmixture:
        acc += w * np.outer(v, v.conj())
    np.testing.assert_allclose(acc, st.matrix, atol=1e-12)
    weights = [w for w, _ in st.eigenmixture]
    assert weights == sorted(weights, reverse=True)
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_density_state_rejects_bad_input():
    with pytest.raises(ValueError):
        density_state(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        density_state(np.diag([1.5, -0.5]))  # negative weight
    with pytest.raises(NonHermitian):
        density_state([[0.5, 0.5], [0.0, 0.5]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_vectors_reject_non_finite_entries(bad):
    # Every comparison with NaN is false, so without an explicit check a NaN
    # entry slips past the zero-norm and span guards.
    with pytest.raises(ValueError, match="state vector has non-finite"):
        pure_state([bad, 1.0])
    with pytest.raises(ValueError, match="projector vector has non-finite"):
        projector_onto([bad, 1.0])
    with pytest.raises(ParseError, match=r"v\[0\]: non-finite"):
        vector_from_wire([[bad, 0.0], [1.0, 0.0]], "v")
    with pytest.raises(ParseError, match=r"v\[1\]: non-finite"):
        vector_from_wire([[1.0, 0.0], [0.0, 10**400]], "v")


@pytest.mark.parametrize("raw", [np.eye(2) / 2.0, [[1.0, 0.0]], 1.0])
def test_vector_constructors_refuse_anything_but_a_1d_vector(raw):
    # A matrix used to be flattened: pure_state(eye(2)/2) came out as a
    # 4-dimensional pure state and projector_onto(eye(2)) as a rank-1
    # projector of dimension 4.
    for build, instead in ((pure_state, "density_state"), (projector_onto, "projector")):
        with pytest.raises(ValueError, match="1-d vector") as err:
            build(raw)
        assert f"got shape {np.shape(raw)}; use {instead} for a" in str(err.value)
    with pytest.raises(ValueError, match="1-d vector"):
        projector_onto([1.0, 0.0], raw)


# --- projectors --------------------------------------------------------------


def test_projector_accepts_valid_and_reports_rank():
    p = projector(np.diag([1.0, 1.0, 0.0]))
    assert p.rank == 2
    assert p.dim == 3
    np.testing.assert_allclose(p.basis.conj().T @ p.basis, np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        projector(np.diag([0.5, 1.0]))  # not idempotent
    with pytest.raises(ZeroOperator):
        projector(np.zeros((2, 2)))


def test_projector_onto_spans_and_orthonormalizes():
    gen = rng(16)
    v1 = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    v2 = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    p = projector_onto(v1, v2)
    assert p.rank == 2
    np.testing.assert_allclose(p.matrix @ v1, v1, atol=1e-12)
    np.testing.assert_allclose(p.matrix @ v2, v2, atol=1e-12)
    # linearly dependent inputs collapse to the actual span
    assert projector_onto(v1, 2.0 * v1).rank == 1
    with pytest.raises(ZeroOperator):
        projector_onto(np.zeros(3))


@pytest.mark.parametrize("scale", [1e-13, 1e-170, 1e150])
def test_projector_onto_rank_is_scale_invariant(scale):
    gen = rng(33)
    v1 = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    v2 = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    for vectors in ([np.array([1.0, 0.0])], [v1], [v1, v2]):
        ref = projector_onto(*vectors)
        p = projector_onto(*(scale * v for v in vectors))
        assert p.rank == ref.rank == len(vectors)
        np.testing.assert_allclose(p.matrix, ref.matrix, rtol=0.0, atol=1e-15)
    # A dependent vector still adds nothing to the span, at any scale.
    assert projector_onto(scale * v1, scale * v2, scale * (v1 - 2.0 * v2)).rank == 2


def test_projector_onto_bases_match_the_qr_columns_bit_for_bit():
    # Well-conditioned sets keep every QR column, as under the absolute
    # threshold the rank test used before.
    gen = rng(34)
    for _ in range(20):
        dim = int(gen.integers(2, 7))
        rank = int(gen.integers(1, dim + 1))
        cols = gen.standard_normal((dim, rank)) + 1j * gen.standard_normal((dim, rank))
        p = projector_onto(*cols.T)
        q, r = np.linalg.qr(cols)
        basis = q[:, np.abs(np.diag(r)) > 1e-12]
        mat = basis @ basis.conj().T
        assert p.basis.tobytes() == basis.tobytes()
        assert p.matrix.tobytes() == ((mat + mat.conj().T) / 2.0).tobytes()


def test_projector_matrix_is_exactly_hermitian():
    gen = rng(17)
    for _ in range(20):
        dim = int(gen.integers(2, 6))
        p = random_projector(gen, dim, rank=int(gen.integers(1, dim)))
        assert np.array_equal(p.matrix, p.matrix.conj().T)


# --- overlap -------------------------------------------------


def test_overlap_values_and_clipping():
    pre = pure_state([1.0, 0.0])
    assert overlap(projector_onto([1.0, 0.0]), pre) == pytest.approx(1.0, abs=1e-14)
    assert overlap(projector_onto([0.0, 1.0]), pre) == pytest.approx(0.0, abs=1e-14)
    plus = projector_onto(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert overlap(plus, pre) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(DimensionMismatch):
        overlap(projector_onto([1.0, 0.0, 0.0]), pre)


def test_stacked_overlaps_equal_overlap_bit_for_bit():
    # Every regime check compares tr(P rho) with the threshold; a point must
    # read the same float alone (with no observable) as in a zero-padded
    # stack of mixed ranks and mixtures.
    gen = rng(29)
    for _ in range(30):
        dim = int(gen.integers(2, 9))
        posts, pres = [], []
        for _ in range(int(gen.integers(1, 6))):
            pres.append(random_density(gen, dim) if gen.integers(2) else random_pure(gen, dim))
            posts.append(random_projector(gen, dim, int(gen.integers(1, dim))))
        fs, psis = _selection_stack(posts, pres)
        _, b = _selection_kernel(_selection_binding(fs, random_observable(gen, dim), 2), psis)
        expected = [overlap(post, pre) for post, pre in zip(posts, pres)]
        assert _selection_overlaps(b).tolist() == expected


# --- wire format -------------------------------------------------------------


def test_matrix_wire_round_trip_is_bit_exact():
    gen = rng(18)
    for dim in (2, 3, 5):
        m = random_hermitian(gen, dim)
        back = matrix_from_wire(json.loads(json.dumps(matrix_to_wire(m))))
        assert back.tobytes() == m.tobytes()


def test_vector_wire_round_trip_is_bit_exact():
    gen = rng(19)
    v = gen.standard_normal(5) + 1j * gen.standard_normal(5)
    back = vector_from_wire(json.loads(json.dumps(matrix_to_wire(v))))
    assert back.tobytes() == v.tobytes()


def test_wire_parse_errors_name_the_entry():
    with pytest.raises(ParseError, match=r"m\[0\]\[1\]"):
        matrix_from_wire([[[0.0, 0.0], [1.0]], [[0.0, 0.0], [0.0, 0.0]]], "m")
    with pytest.raises(ParseError, match=r"m\[1\]"):
        matrix_from_wire([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], "m")
    with pytest.raises(ParseError, match="v"):
        vector_from_wire([], "v")
    with pytest.raises(ParseError, match=r"v\[0\]"):
        vector_from_wire([[True, 0.0]], "v")


def test_paulis_have_expected_algebra():
    np.testing.assert_allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        np.testing.assert_allclose(s @ s, np.eye(2))
