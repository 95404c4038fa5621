"""Pointer-state grids, transforms, moments and densities."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from weakmeas import (
    default_grid,
    densities,
    gaussian,
    gaussian_profile,
    grid_state,
    moment,
    p_power,
    q_power,
    variance_p,
    variance_q,
)
from weakmeas.errors import (
    EmptyGrid,
    GridTooSmall,
    NonPositiveWidth,
    UnsupportedOrder,
    WidthOutOfRange,
)
from weakmeas.pointer import (
    MAX_GRID_N,
    MAX_WEAK_ORDER,
    MAX_WIDTH,
    MIN_WIDTH,
    GaussianPointer,
    MomentSpec,
    QGrid,
    _moment_table,
    pointer_from_wire,
    pointer_to_wire,
    to_momentum,
    translate,
)

from support import skewed_pointer


def _grid_gaussian(delta_q: float, n: int = 4096, half_span: float | None = None):
    """Grid pointer sampling an exact Gaussian, for closed-form cross-checks."""
    if half_span is None:
        half_span = 12.0 * delta_q
    dq = 2.0 * half_span / n
    q = -half_span + dq * np.arange(n)
    phi = gaussian_profile(q, delta_q)
    phi = phi / math.sqrt(float(np.sum(np.abs(phi) ** 2) * dq))
    return grid_state(-half_span, dq, n, [(1.0, phi)])


# --- grids and transforms ------------------------------------------------------


def test_grid_momenta_match_fft_convention():
    grid = QGrid(q_min=-8.0, dq=0.125, n=128)
    np.testing.assert_allclose(
        grid.momenta(), 2.0 * np.pi * np.fft.fftfreq(128, 0.125), atol=0.0
    )
    assert grid.dp == pytest.approx(2.0 * np.pi / (128 * 0.125), rel=1e-15)


def test_to_momentum_is_unitary():
    grid = QGrid(q_min=-10.0, dq=20.0 / 1024, n=1024)
    phi = gaussian_profile(grid.coords(), 0.7) * np.exp(0.3j * grid.coords())
    tilde = to_momentum(grid, phi)
    q_norm = float(np.sum(np.abs(phi) ** 2) * grid.dq)
    p_norm = float(np.sum(np.abs(tilde) ** 2) * grid.dp)
    assert p_norm == pytest.approx(q_norm, rel=1e-12)


def test_p_acts_as_the_derivative():
    # p acts as -i d/dq: on exp(ikq) times a Gaussian envelope the expected
    # mean momentum is k, on either side of the power table.
    grid = QGrid(q_min=-12.0, dq=24.0 / 2048, n=2048)
    k = 1.3
    phi = gaussian_profile(grid.coords(), 1.0) * np.exp(1j * k * grid.coords())
    phi /= math.sqrt(float(np.sum(np.abs(phi) ** 2)) * grid.dq)
    pt = grid_state(grid.q_min, grid.dq, grid.n, [(1.0, phi)])
    table = _moment_table(pt)
    assert moment(pt, p_power(1)) == pytest.approx(k, rel=1e-10)
    assert table[0, 0, 1] == pytest.approx(k, rel=1e-10)
    assert table[1, 0, 0] == pytest.approx(k, rel=1e-10)


def test_translate_shifts_mean_and_preserves_norm():
    grid = QGrid(q_min=-12.0, dq=24.0 / 2048, n=2048)
    phi = gaussian_profile(grid.coords(), 0.8)
    shifted = translate(grid, phi, 1.7)
    q = grid.coords()
    mean = float(np.sum(q * np.abs(shifted) ** 2) * grid.dq)
    assert mean == pytest.approx(1.7, abs=1e-10)
    assert float(np.sum(np.abs(shifted) ** 2) * grid.dq) == pytest.approx(1.0, rel=1e-12)


def test_default_grid_covers_pointer_and_translations():
    grid = default_grid(1.0, g=3.0)
    assert grid.n == 4096
    # The grid is half-open: the last sample sits one cell shy of the upper
    # edge, so coverage is judged by q_min + n*dq.
    assert grid.q_min <= -30.0 and grid.q_min + grid.n * grid.dq >= 30.0
    grid_small = default_grid(0.5, g=0.0, n=256)
    assert grid_small.n == 256
    # At strong coupling the size grows past the floor to keep dq <= delta_q/8.
    strong = default_grid(1.0, g=200.0)
    assert strong.dq <= 1.0 / 8.0
    assert strong.q_min <= -2000.0 and strong.q_min + strong.n * strong.dq >= 2000.0


# --- construction validation ---------------------------------------------------


@pytest.mark.parametrize("kind", ["gaussian", "grid"])
def test_moment_spec_refuses_an_unknown_kind_or_order(kind):
    # MomentSpec is the one check of a moment. Unchecked, these specs give a
    # wrong value (0.0 for a half-integer order, 4.0 for order -2, a wrapped
    # table entry or inf for order -1 on a grid) or take True as order 1.
    pointer = gaussian(1.0) if kind == "gaussian" else _grid_gaussian(1.0, n=256)
    bad = [("p_power", 2.5), ("p_power", -2), ("p_power", -1), ("q_power", -1),
           ("p_power", True), ("q_power", 2.0), ("p_power", "2"), ("r_power", 2)]
    for spec_kind, order in bad:
        with pytest.raises(ValueError):
            moment(pointer, MomentSpec(spec_kind, order))
    for make, order in itertools.product((p_power, q_power), (2.5, -1, True)):
        with pytest.raises(ValueError, match="nonnegative integer"):
            make(order)
    # numpy integers are orders.
    assert moment(pointer, p_power(np.int64(2))) == moment(pointer, p_power(2))
    assert moment(pointer, q_power(np.int64(2))) == moment(pointer, q_power(2))


def test_grid_state_validates_input():
    n, dq = 256, 0.125
    q = -16.0 + dq * np.arange(n)
    phi = gaussian_profile(q, 1.0)
    phi = phi / math.sqrt(float(np.sum(np.abs(phi) ** 2) * dq))
    with pytest.raises(ValueError):
        grid_state(-16.0, dq, 255, [(1.0, phi[:-1])])  # not a power of two
    with pytest.raises(ValueError):
        grid_state(-16.0, dq, n, [(0.5, phi)])  # weights must sum to one
    with pytest.raises(ValueError):
        grid_state(-16.0, dq, n, [(1.0, 2.0 * phi)])  # branch not normalized
    with pytest.raises(EmptyGrid):
        grid_state(-16.0, dq, n, [])
    with pytest.raises(GridTooSmall):
        narrow_q = -4.0 + (8.0 / n) * np.arange(n)
        narrow = gaussian_profile(narrow_q, 1.0)
        narrow = narrow / math.sqrt(float(np.sum(np.abs(narrow) ** 2) * (8.0 / n)))
        grid_state(-4.0, 8.0 / n, n, [(1.0, narrow)])  # < 8 sigma of coverage
    # Every comparison with NaN is false, so each number needs its own check.
    bad = phi.copy()
    bad[n // 2] = math.nan
    with pytest.raises(ValueError, match="non-finite samples"):
        grid_state(-16.0, dq, n, [(1.0, bad)])
    with pytest.raises(ValueError, match="q_min must be finite"):
        grid_state(math.nan, dq, n, [(1.0, phi)])
    with pytest.raises(ValueError, match="spacing"):
        grid_state(-16.0, math.inf, n, [(1.0, phi)])
    with pytest.raises(ValueError, match="weight"):
        grid_state(-16.0, dq, n, [(math.nan, phi)])
    # The sample count is an integer: unchecked, 1024.0 fails inside a
    # bitwise test with a TypeError, and True builds a one-sample grid.
    for count in (1024.0, True):
        with pytest.raises(ValueError, match="expected an integer"):
            grid_state(-16.0, dq, count, [(1.0, phi)])


# --- moments --------------------------------------------------------------------


def test_gaussian_moment_closed_forms():
    for delta_q in (0.5, 1.0, 2.0):
        g = gaussian(delta_q)
        var_p = 1.0 / (4.0 * delta_q**2)
        assert variance_q(g) == pytest.approx(delta_q**2, rel=1e-14)
        assert variance_p(g) == pytest.approx(var_p, rel=1e-14)
        assert moment(g, p_power(4)) == pytest.approx(3.0 * var_p**2, rel=1e-14)
        assert moment(g, q_power(4)) == pytest.approx(3.0 * delta_q**4, rel=1e-14)
        for n in (1, 3, 5):
            assert moment(g, p_power(n)) == 0.0
            assert moment(g, q_power(n)) == 0.0


def test_gaussian_refuses_widths_whose_moments_overflow():
    # At the range's ends every moment up to MAX_WEAK_ORDER is finite, the
    # top ones <p^12> and <q^12> within 1e-13 of the largest float; a width
    # past either end is refused.
    specs = [p_power(n) for n in range(MAX_WEAK_ORDER + 1)] + [
        q_power(n) for n in range(MAX_WEAK_ORDER + 1)
    ]
    for width in (MIN_WIDTH, MAX_WIDTH):
        g = gaussian(width)
        assert all(math.isfinite(moment(g, spec)) for spec in specs)
        assert np.all(np.isfinite(_moment_table(g)))
        assert math.isfinite(variance_p(g)) and math.isfinite(variance_q(g))
    outside = (
        1e-200, 1e-150, 1e-30, math.nextafter(MIN_WIDTH, 0.0),
        math.nextafter(MAX_WIDTH, math.inf), 1e200, 1e300,
    )
    # The constructor is the one check: a GaussianPointer built directly is
    # refused like one from `gaussian`.
    builders = (gaussian, GaussianPointer)
    for build, width in itertools.product(builders, outside):
        with pytest.raises(WidthOutOfRange) as info:
            build(width)
        message = str(info.value)
        assert f"delta_q = {width!r} is outside [{MIN_WIDTH!r}, {MAX_WIDTH!r}]" in message
    for build, width in itertools.product(builders, (0.0, -1.0, math.inf, math.nan)):
        with pytest.raises(NonPositiveWidth):
            build(width)


def test_gaussian_pointer_keeps_its_width_as_a_float():
    width = GaussianPointer(np.float64(2.0)).delta_q
    assert type(width) is float and width == 2.0
    assert gaussian(2) == GaussianPointer(2.0)


def test_grid_moments_agree_with_gaussian_closed_forms():
    for delta_q in (0.7, 1.0, 1.6):
        closed = gaussian(delta_q)
        sampled = _grid_gaussian(delta_q)
        specs = [p_power(n) for n in range(1, 7)] + [q_power(n) for n in range(1, 7)]
        for spec in specs:
            assert moment(sampled, spec) == pytest.approx(
                moment(closed, spec), rel=1e-9, abs=1e-10
            ), spec


def test_grid_moment_order_cap():
    sampled = _grid_gaussian(1.0)
    with pytest.raises(UnsupportedOrder):
        moment(sampled, q_power(9))
    with pytest.raises(UnsupportedOrder):
        moment(sampled, p_power(9))


def test_skewed_pointer_is_centred_but_not_even():
    """The recentred asymmetric profile used in convergence-order tests:
    all the moments a real wavefunction forces to zero are zero, while the
    parity-sensitive <p q p> stays visibly nonzero."""
    pt = skewed_pointer(1.0)
    table = _moment_table(pt)
    assert abs(moment(pt, q_power(1))) < 1e-10
    assert abs(moment(pt, p_power(1))) < 1e-12
    assert abs(moment(pt, p_power(3))) < 1e-12
    assert abs(2.0 * table[0, 1, 1].real) < 1e-10  # <{q, p}>
    assert abs(table[1, 1, 1]) > 1e-2  # <p q p>


def _table_pointers():
    """A Gaussian, its sample, and grid pointers that are asymmetric,
    displaced and boosted, or a two-branch mixture."""
    n, half = 4096, 16.0
    q = -half + (2.0 * half / n) * np.arange(n)

    def normalized(phi):
        return phi / math.sqrt(float(np.sum(np.abs(phi) ** 2)) * 2.0 * half / n)

    moving = normalized(gaussian_profile(q, 1.0, 1.5) * np.exp(0.3j * q))
    mixture = [(0.4, normalized(gaussian_profile(q, 0.8))),
               (0.6, normalized(gaussian_profile(q, 1.2, -0.5) * np.exp(-0.2j * q)))]
    return [
        gaussian(1.3),
        _grid_gaussian(1.3),
        skewed_pointer(1.0, half_span=half),
        grid_state(-half, 2.0 * half / n, n, [(1.0, moving)]),
        grid_state(-half, 2.0 * half / n, n, mixture),
    ]


def test_moment_table_closed_form_matches_the_sampled_gaussian():
    # <p^b phi| q^j |p^a phi> for b, a <= 6 and j <= 2: the exact Gaussian
    # table against the FFT rows of the same Gaussian on a grid.
    for delta_q in (0.7, 1.0, 1.6):
        closed = _moment_table(gaussian(delta_q), 6)
        sampled = _moment_table(_grid_gaussian(delta_q), 6)
        assert closed.shape == sampled.shape == (7, 3, 7)
        scale = np.abs(closed).max(axis=1, keepdims=True)
        assert np.max(np.abs(sampled - closed) / scale) <= 1e-12
    # <p q^2 p> = 3/4 and <q p> = i/2 (so <{q, p}> = 0) for a Gaussian of
    # any width.
    table = _moment_table(gaussian(2.5))
    assert table[1, 2, 1] == pytest.approx(0.75, rel=1e-15)
    assert table[0, 1, 1] == pytest.approx(0.5j, rel=1e-15)


@pytest.mark.parametrize("index", range(5))
def test_moment_table_is_hermitian_and_obeys_the_commutator(index):
    # M[b, j, a] = M[a, j, b]^* (q^j is Hermitian) and [q, p] = i gives
    # M[b, 1, a+1] - M[b+1, 1, a] = i M[b, 0, a].
    table = _moment_table(_table_pointers()[index])
    scale = np.abs(table).max()
    assert np.max(np.abs(table - table.conj().transpose(2, 1, 0))) <= 1e-14 * scale
    commutator = table[:-1, 1, 1:] - table[1:, 1, :-1]
    assert np.max(np.abs(commutator - 1j * table[:-1, 0, :-1])) <= 1e-13 * scale
    assert table[0, 0, 0] == pytest.approx(1.0, abs=1e-12)


# --- densities -------------------------------------------------------------------


def test_densities_normalized_for_gaussian_and_grid():
    for state in (gaussian(0.8), skewed_pointer(1.0)):
        qd, pd = densities(state)
        assert qd.total() == pytest.approx(1.0, abs=1e-10)
        assert pd.total() == pytest.approx(1.0, abs=1e-10)
        assert qd.spacing == pytest.approx(qd.coords[1] - qd.coords[0], rel=1e-12)
        # p coordinates must be monotonically increasing after the shift
        assert np.all(np.diff(pd.coords) > 0)


def test_density_variances_match_moments():
    pt = skewed_pointer(1.0)
    qd, pd = densities(pt)
    var_q = float(np.sum((qd.coords - np.sum(qd.coords * qd.values) * qd.spacing) ** 2
                         * qd.values) * qd.spacing)
    assert var_q == pytest.approx(variance_q(pt), rel=1e-9)
    var_p = float(np.sum(pd.coords**2 * pd.values) * pd.spacing)
    assert var_p == pytest.approx(variance_p(pt), rel=1e-9)


# --- wire format -------------------------------------------------------------------


def test_pointer_wire_round_trip_gaussian():
    wire = pointer_to_wire(gaussian(1.25))
    back = pointer_from_wire(json.loads(json.dumps(wire)))
    assert back == gaussian(1.25)


def test_pointer_wire_round_trip_grid_is_bit_exact():
    pt = skewed_pointer(0.9)
    wire = pointer_to_wire(pt)
    back = pointer_from_wire(json.loads(json.dumps(wire)))
    assert back.grid == pt.grid
    assert len(back.branches) == len(pt.branches)
    for (w1, s1), (w2, s2) in zip(back.branches, pt.branches):
        assert w1 == w2
        assert s1.tobytes() == s2.tobytes()


def test_pointer_wire_parse_errors_name_the_key():
    from weakmeas.errors import ParseError

    with pytest.raises(ParseError, match="pointer.type"):
        pointer_from_wire({"type": "triangular"})
    with pytest.raises(ParseError, match="delta_q"):
        pointer_from_wire({"type": "gaussian", "delta_q": -1.0})
    with pytest.raises(ParseError, match=r"pointer\.delta_q: delta_q = 1e-200 is outside"):
        pointer_from_wire({"type": "gaussian", "delta_q": 1e-200})
    with pytest.raises(ParseError, match="pointer"):
        pointer_from_wire(["not", "an", "object"])
    # Grid samples go through the same entry parser as state vectors, and a
    # malformed weight is a parse error rather than a crash.
    grid = {"type": "grid", "q_min": -16.0, "dq": 0.5, "n": 64}
    bad_samples = [["a", "b"]] * 64, [[0.0, 0.0]] * 63 + [[math.nan, 0.0]]
    for samples, match in zip(bad_samples, (r"samples\[0\]", r"samples\[63\]: non-finite")):
        with pytest.raises(ParseError, match=match):
            pointer_from_wire({**grid, "branches": [{"weight": 1.0, "samples": samples}]})
    with pytest.raises(ParseError, match="pointer"):
        pointer_from_wire({**grid, "branches": [{"weight": [1.0], "samples": [[0.0, 0.0]] * 64}]})
    # Every pointer number goes through the strict wire validator: strings
    # and bools are not numbers, and n must be an integer (64.9 used to be
    # truncated to 64). Each input is valid except for the named key.
    valid = pointer_to_wire(_grid_gaussian(1.0, n=64, half_span=10.0))
    pointer_from_wire(valid)
    bad_fields = [
        ("q_min", "-10", r"pointer\.q_min: expected a number"),
        ("dq", "0.3125", r"pointer\.dq: expected a number"),
        ("dq", True, r"pointer\.dq: expected a number"),
        ("n", 64.9, r"pointer\.n: expected an integer"),
        ("n", 64.0, r"pointer\.n: expected an integer"),
        ("n", True, r"pointer\.n: expected an integer"),
        ("n", "64", r"pointer\.n: expected an integer"),
    ]
    for key, value, match in bad_fields:
        with pytest.raises(ParseError, match=match):
            pointer_from_wire({**valid, key: value})
    branch = valid["branches"][0]
    for weight in (True, "1", 10**400):
        with pytest.raises(ParseError, match=r"pointer\.branches\[0\]\.weight"):
            pointer_from_wire({**valid, "branches": [{**branch, "weight": weight}]})
    for delta_q in ("2", True, math.inf):
        with pytest.raises(ParseError, match=r"pointer\.delta_q: expected a"):
            pointer_from_wire({"type": "gaussian", "delta_q": delta_q})
    # Each kind refuses a key it does not read, the other kind's included.
    unknown = [
        ({"type": "gaussian", "delta_q": 1.0, "widht": 3}, r"pointer: unknown key 'widht'"),
        ({"type": "gaussian", "delta_q": 1.0, "n": 64}, r"pointer: unknown key 'n'"),
        ({**valid, "delta_q": 1.0}, r"pointer: unknown key 'delta_q'"),
        (
            {**valid, "branches": [{**branch, "phase": 0.0}]},
            r"pointer\.branches\[0\]: unknown key 'phase'",
        ),
    ]
    for wire, match in unknown:
        with pytest.raises(ParseError, match=match):
            pointer_from_wire(wire)


def test_grid_pointer_size_is_refused_before_allocating():
    # A sample count that disagrees with n, or an n above MAX_GRID_N, is
    # refused before any array of n points exists: a 64-sample wire pointer
    # claiming n = 2^22 used to allocate 67 MB of coordinates first.
    from weakmeas.errors import ParseError

    valid = pointer_to_wire(_grid_gaussian(1.0, n=64, half_span=10.0))
    cases = [
        (MAX_GRID_N, r"pointer: branch 0 has 64 samples, expected 4194304"),
        (2 * MAX_GRID_N, r"pointer\.n: grid size must be at most 4194304"),
        (1 << 40, r"pointer\.n: grid size must be at most 4194304"),
        (96, r"pointer\.n: grid size must be a power of two"),
        (0, r"pointer\.n: grid has no points"),
    ]
    for n, match in cases:
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=match):
                pointer_from_wire({**valid, "n": n})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (n, peak)
    with pytest.raises(ValueError, match="at most"):
        grid_state(-10.0, 20.0 / 64, 2 * MAX_GRID_N, [(1.0, np.ones(64))])
    # The smallest grid accepted before the cap still parses.
    one = {"type": "grid", "q_min": 0.0, "dq": 1.0, "n": 1,
           "branches": [{"weight": 1.0, "samples": [[1.0, 0.0]]}]}
    assert pointer_from_wire(one).n == 1
