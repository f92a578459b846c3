import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballann.geometry import (
    Ball,
    CanonicalCube,
    InputError,
    ball_distance,
    ball_distances,
    check_point,
    enumerate_grid_cells_ball,
    floor_log2,
    grid_approx,
    grid_cell,
    grid_index_box,
    grid_level_for_diameter,
    max_level_for_dim,
    normalize,
    packing_constant,
    product_norm,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


# -- balls and distances -------------------------------------------------------


def test_ball_rejects_negative_radius():
    with pytest.raises(InputError):
        Ball((0.0, 0.0), -1.0)


def test_ball_distance_hand_values():
    assert ball_distance((0.0,), (3.0,), 1.0) == 2.0
    assert ball_distance((3.5,), (3.0,), 1.0) == 0.0  # interior
    assert ball_distance((4.0,), (3.0,), 1.0) == 0.0  # surface
    assert ball_distance((0.0, 0.0), (3.0, 4.0), 2.0) == 3.0
    assert ball_distances((0.0, 0.0), np.array([[3.0, 4.0], [0.0, 1.0]]), np.array([2.0, 1.0])).tolist() == [3.0, 0.0]


def test_ball_distance_dimension_mismatch():
    with pytest.raises(InputError):
        ball_distance((0.0,), (0.0, 0.0), 1.0)


def test_check_point_accepts_every_form_of_one_point():
    want = [0.25, 0.5, 1.5]
    for q in (tuple(want), want, np.array(want), np.array(want, dtype=np.float32), (0.25, 0.5, np.float64(1.5))):
        got = check_point(q, 3)
        assert got == want and all(type(x) is float for x in got)
    assert check_point((0, 1), 2) == [0.0, 1.0]


def test_check_point_refuses_bad_points():
    for q in (
        (math.nan, 0.5),
        (0.5, math.inf),
        (-math.inf, 0.5),
        (0.5,),
        (0.5, 0.5, 0.5),
        np.zeros((1, 2)),
        ("a", 0.5),
        0.5,
        None,
    ):
        with pytest.raises(InputError, match="2 finite coordinates"):
            check_point(q, 2)


@given(st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_vectorized_distance_matches_scalar(d, data):
    m = data.draw(st.integers(1, 6))
    centers = np.array([data.draw(st.lists(finite, min_size=d, max_size=d)) for _ in range(m)])
    radii = np.array([data.draw(st.floats(0, 10)) for _ in range(m)])
    q = data.draw(st.lists(finite, min_size=d, max_size=d))
    vec = ball_distances(q, centers, radii)
    assert vec.tolist() == [ball_distance(q, c, r) for c, r in zip(centers.tolist(), radii.tolist())]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_one_ball_and_batched_distances_agree_bit_for_bit(d):
    """ball_distance equals ball_distances, and each row of the (m, n)
    block equals the one-point call, bit for bit, on points in the unit
    cube and outside it, near and far."""
    rng = np.random.default_rng(40 + d)
    centers = rng.random((300, d))
    radii = rng.uniform(0.0, 0.05, 300)
    points = np.concatenate([rng.random((200, d)), rng.uniform(-3.0, 4.0, (200, d)), rng.uniform(-1e3, 1e3, (50, d))])
    block = ball_distances(points, centers, radii)
    assert block.shape == (points.shape[0], 300)
    for i, q in enumerate(points.tolist()):
        row = ball_distances(q, centers, radii)
        assert np.array_equal(row, block[i])
        assert row.tolist() == [ball_distance(q, c, r) for c, r in zip(centers.tolist(), radii.tolist())]


# -- normalization -------------------------------------------------------------


@given(st.integers(1, 3), st.integers(1, 8), st.floats(0.05, 0.9), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_normalize_lands_in_target_cube(d, n, eps, seed):
    rng = np.random.default_rng(seed)
    balls = [
        Ball(tuple(rng.uniform(-50, 50, d)), float(rng.uniform(0, 5))) for _ in range(n)
    ]
    inst = normalize(balls, eps)
    delta = eps / 4.0
    for b in inst.balls:
        for c in b.center:
            assert 0.5 - delta - b.radius - 1e-9 <= c <= 0.5 + delta + b.radius + 1e-9


def test_normalize_preserves_distance_order():
    rng = np.random.default_rng(3)
    balls = [Ball(tuple(rng.uniform(-9, 9, 2)), float(rng.uniform(0, 1))) for _ in range(12)]
    inst = normalize(balls, 0.5)
    # A uniform affine map multiplies every center distance by the same scale.
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            orig = math.dist(balls[i].center, balls[j].center)
            now = math.dist(inst.balls[i].center, inst.balls[j].center)
            assert now == pytest.approx(orig * inst.scale, rel=1e-9, abs=1e-15)


def test_normalize_round_trip():
    rng = np.random.default_rng(4)
    balls = [Ball(tuple(rng.uniform(-9, 9, 3)), float(rng.uniform(0, 1))) for _ in range(8)]
    inst = normalize(balls, 0.25)
    for b in balls:
        back = inst.to_original(inst.to_unit(b.center))
        assert all(x == pytest.approx(y, rel=1e-9, abs=1e-12) for x, y in zip(back, b.center))


@pytest.mark.parametrize("d, n", [(1, 1), (2, 64), (3, 300), (5, 40)])
def test_normalize_matches_per_ball_formula(d, n):
    """The normalized balls are scale * c + o and scale * r, bit for bit."""
    rng = np.random.default_rng(500 + d)
    balls = [
        Ball(tuple(rng.uniform(-3e3, 7e3, d)), float(rng.uniform(0.0, 40.0))) for _ in range(n)
    ]
    inst = normalize(balls, 0.3)
    want = [
        Ball(tuple(inst.scale * c + o for c, o in zip(b.center, inst.offset)), inst.scale * b.radius)
        for b in balls
    ]

    def bits(bs):
        return [(tuple(c.hex() for c in b.center), b.radius.hex()) for b in bs]

    assert bits(inst.balls) == bits(want)
    assert all(type(b) is Ball and type(b.center) is tuple for b in inst.balls)
    assert inst.centers.shape == (n, d) and inst.radii.shape == (n,)
    assert not (inst.centers.flags.writeable or inst.radii.flags.writeable)


@pytest.mark.parametrize("d, n", [(1, 1), (1, 50), (2, 64), (3, 300), (4, 7), (5, 40)])
def test_normalize_arrays_match_the_array_conversion(d, n):
    """normalize reads the balls into the arrays np.array builds from the
    centers and radii, so the normalized arrays are those of the affine
    map on them, bit for bit: negative zeros, whole numbers and tiny
    values included."""
    rng = np.random.default_rng(520 + d)
    raw = rng.uniform(-3e3, 7e3, (n, d))
    raw[rng.random((n, d)) < 0.1] = -0.0
    raw[rng.random((n, d)) < 0.1] = 5e-310
    whole = rng.random((n, d)) < 0.1
    raw[whole] = np.round(raw[whole])
    balls = [Ball(tuple(c), float(r)) for c, r in zip(raw.tolist(), rng.uniform(0.0, 40.0, n))]
    inst = normalize(balls, 0.3)
    centers = np.array([b.center for b in balls], dtype=np.float64)
    radii = np.array([b.radius for b in balls], dtype=np.float64)
    want_c = centers * inst.scale + np.array(inst.offset)
    assert inst.centers.dtype == np.float64 and inst.centers.shape == (n, d)
    assert inst.centers.tobytes() == want_c.tobytes()
    assert inst.radii.tobytes() == (radii * inst.scale).tobytes()


def test_normalize_refuses_mixed_and_zero_dimensions():
    """A ball of another dimension, first or later, and a zero-dimensional
    set are refused, each with its own message."""
    for balls in (
        [Ball((0.0, 0.0), 1.0), Ball((1.0,), 1.0)],
        [Ball((0.0,), 1.0), Ball((1.0,), 1.0), Ball((1.0, 2.0, 3.0), 0.5)],
    ):
        with pytest.raises(InputError, match="^all balls must share one dimension$"):
            normalize(balls, 0.5)
    with pytest.raises(InputError, match="^dimension must be at least 1$"):
        normalize([Ball((), 1.0)], 0.5)


def test_normalize_rejects_bad_eps_and_empty():
    with pytest.raises(InputError):
        normalize([Ball((0.0,), 1.0)], 0.0)
    with pytest.raises(InputError):
        normalize([Ball((0.0,), 1.0)], 1.0)
    with pytest.raises(InputError):
        normalize([], 0.5)


# -- canonical cubes -----------------------------------------------------------


@given(st.integers(1, 4), st.integers(0, 12), st.data())
@settings(max_examples=100, deadline=None)
def test_grid_cell_half_open_membership(d, level, data):
    p = tuple(data.draw(unit) for _ in range(d))
    cube = grid_cell(level, p)
    assert cube.level == level
    assert cube.contains_point(p)
    # The corner itself belongs to the cube; the far face does not.
    assert cube.contains_point(cube.low)
    assert not cube.contains_point(cube.high)


def test_cube_children_partition_parent():
    parent = CanonicalCube(2, (1, 2))
    rng = np.random.default_rng(0)
    kids = [
        CanonicalCube(3, (2 * 1 + a, 2 * 2 + b)) for a in (0, 1) for b in (0, 1)
    ]
    for _ in range(500):
        p = tuple(rng.uniform(lo, hi) for lo, hi in zip(parent.low, parent.high))
        if not parent.contains_point(p):
            continue
        owners = [c for c in kids if c.contains_point(p)]
        assert len(owners) == 1


def test_cube_ancestor_and_containment():
    c = CanonicalCube(5, (17, 9))
    a = CanonicalCube(2, (17 >> 3, 9 >> 3))
    assert a.contains_cube(c)
    assert not c.contains_cube(a)
    assert not CanonicalCube(2, (3, 1)).contains_cube(c)


def test_cube_distance_bounds():
    c = CanonicalCube(1, (0,))  # [0, 0.5)
    assert c.min_dist_to_point((0.75,)) == pytest.approx(0.25)
    assert c.min_dist_to_point((0.25,)) == 0.0


# -- grid machinery ------------------------------------------------------------


@given(st.floats(1e-6, 1e6), st.floats(0.01, 1.0), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_grid_level_diameter_bound(diam, delta, d):
    level, clamped = grid_level_for_diameter(diam, delta, d)
    side = 2.0 ** (-level)
    if not clamped and level > 0:
        # Cell diameter stays within the target, and the level is not
        # needlessly deep: one level up would overshoot.
        assert side * math.sqrt(d) <= delta * diam * (1 + 1e-12)
        assert 2 * side * math.sqrt(d) > delta * diam * (1 - 1e-12)


@given(st.floats(0.001, 0.4))
@settings(max_examples=50, deadline=None)
def test_floor_log2_brackets(y):
    f = floor_log2(y)
    assert 2.0**f <= y < 2.0 ** (f + 1)


def test_grid_approx_cell_diameter_and_cover():
    X = Ball((0.5, 0.5), 0.12)
    for delta in (0.5, 0.25, 0.1):
        cells = grid_approx(X, delta)
        assert cells
        for c in cells:
            assert c.diameter <= delta * X.diameter + 1e-12
        # Random points of X are covered by some returned cell.
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.normal(size=2)
            p = np.array(X.center) + v / np.linalg.norm(v) * X.radius * rng.random()
            assert any(c.contains_point(p) for c in cells)


def test_grid_approx_zero_diameter_registers_deepest_cell():
    cells = grid_approx(Ball((0.3, 0.7), 0.0), 0.5)
    assert len(cells) == 1
    cell = next(iter(cells))
    assert cell.level == max_level_for_dim(2)
    assert cell.contains_point((0.3, 0.7))


def _brute_box_cells(lo, hi, delta):
    """grid_approx of the box [lo, hi] written out: its level, then on each
    axis every cell of the grid whose extent meets the box's, crossed."""
    d = len(lo)
    level, _ = grid_level_for_diameter(math.dist(lo, hi), delta, d)
    side = 2.0 ** (-level)
    axes = [[i for i in range(1 << level) if i * side <= h and (i + 1) * side >= l] for l, h in zip(lo, hi)]
    return {CanonicalCube(level, idx) for idx in itertools.product(*axes)}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_grid_approx_boxes_at_edges(d):
    """grid_approx on boxes with faces on grid lines (multiples of 1/8,
    lines of every level it picks here), with zero width on some axes, and
    partly outside the unit cube, against the brute filter over the whole
    grid; a box of zero width on every axis takes the deepest cell of its
    point clipped into the cube."""
    rng = np.random.default_rng(800 + d)
    delta = 0.5 if d >= 4 else 0.25
    for case in range(60):
        lo = rng.uniform(-0.3, 1.0, size=d)
        width = rng.uniform(0.05, 0.5, size=d)
        width[rng.random(d) < 0.3] = 0.0
        if case % 3 == 0:
            lo, width = np.round(lo * 8.0) / 8.0, np.round(width * 8.0) / 8.0
        if not width.any():
            width[0] = 0.125
        lo, hi = tuple(lo.tolist()), tuple((lo + width).tolist())
        assert grid_approx((lo, hi), delta) == _brute_box_cells(lo, hi, delta)
    point = tuple([1.2] + [0.5] * (d - 1))
    cells = grid_approx((point, point), delta)
    clipped = (math.nextafter(1.0, 0.0),) + point[1:]
    assert cells == {grid_cell(max_level_for_dim(d), clipped)}


def _cells_meeting_ball_reference(center, radius, level):
    """Per-ball meshgrid over grid_index_box plus the closed-body test,
    written out: the reference the enumeration must reproduce, row for
    row."""
    box = grid_index_box([x - radius for x in center], [x + radius for x in center], level)
    if box is None:
        return np.empty((0, len(center)), dtype=np.int64)
    grids = np.meshgrid(*[np.arange(a, b + 1, dtype=np.int64) for a, b in box], indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    lo = coords * 2.0 ** (-level)
    gap = np.maximum(lo - center, 0.0) + np.maximum(center - (lo + 2.0 ** (-level)), 0.0)
    return coords[np.einsum("ij,ij->i", gap, gap) <= radius * radius]


def _assert_same_cells(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_batched_ball_enumeration_matches_per_ball(d):
    """enumerate_grid_cells_ball, ball by ball, returns the reference's
    cells, from centers inside and outside the cube and from tuples."""
    rng = np.random.default_rng(90 + d)
    for level in range(0, 9):
        n = int(rng.integers(1, 40))
        centers = rng.uniform(-0.2, 1.2, size=(n, d))
        # Radii up to three cells, some zero, some exactly on cell multiples.
        radii = rng.uniform(0.0, 3.0, size=n) * 2.0 ** (-level)
        radii[rng.random(n) < 0.2] = 0.0
        radii[rng.random(n) < 0.2] = 2.0 ** (-level)
        for c, r in zip(centers, radii):
            want = _cells_meeting_ball_reference(c, r, level)
            _assert_same_cells(enumerate_grid_cells_ball(c, float(r), level), want)
            _assert_same_cells(enumerate_grid_cells_ball(tuple(c.tolist()), float(r), level), want)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_tangent_cells_follow_the_per_ball_sum(d):
    """Balls whose r^2 equals one cell's squared gap sum as the per-ball
    test adds it: the enumeration keeps that cell, and returns the
    reference's cells."""
    rng = np.random.default_rng(400 + d)
    level = 6
    side = 2.0 ** (-level)
    kept = 0
    while kept < 60:
        c = rng.uniform(0.3, 0.7, size=d)
        cell = np.floor(c / side).astype(np.int64) + rng.choice([-2, -1, 1, 2], size=d)
        lo = cell * side
        gap = np.maximum(lo - c, 0.0) + np.maximum(c - (lo + side), 0.0)
        s = np.einsum("ij,ij->i", gap[None, :], gap[None, :])[0]
        r = math.sqrt(s)
        for cand in (r, math.nextafter(r, 0.0), math.nextafter(r, 1.0)):
            if cand * cand == s:
                got = enumerate_grid_cells_ball(c, cand, level)
                _assert_same_cells(got, _cells_meeting_ball_reference(c, cand, level))
                assert (got == cell).all(axis=1).any()
                kept += 1
                break


# -- lifting and packing ---------------------------------------------------------


def test_packing_constant_values():
    assert packing_constant(1) == 3
    assert packing_constant(2) == 9
    assert packing_constant(3) == 27


def test_product_norm_hand_values():
    assert product_norm((3.0, 4.0, 2.0)) == pytest.approx(7.0)  # 5 + 2


@given(st.lists(finite, min_size=2, max_size=5))
@settings(max_examples=200, deadline=None)
def test_product_norm_euclidean_sandwich(u):
    two = float(np.linalg.norm(u))
    plus = product_norm(u)
    assert two - 1e-9 <= plus <= math.sqrt(2.0) * two + 1e-9
