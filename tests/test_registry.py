import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballann import build_registry, generate_instance, normalize
from ballann import registry as registry_module
from ballann.geometry import Ball, InputError, grid_approx, grid_level_for_diameter
from ballann.quadtree import cube_to_key
from ballann.registry import Registry
from ballann.oracle import exact_counts

from conftest import make_registry


def test_build_registry_needs_normalized_instance():
    reg = make_registry(0, 2, 30)
    assert reg.n == 30 and reg.dim == 2
    assert reg.ball_tree.size >= 1
    assert reg.centers_tree.has_points


def test_registered_cells_cover_every_ball():
    reg = make_registry(1, 2, 40)
    # Every ball must be registered somewhere: the per-ball registration level
    # is recorded, and the ball's center cell at that level is stored.
    assert reg.reg_level.shape == (reg.n,)
    assert np.all(reg.reg_level >= 0)


# -- exact routes agree with the oracle -----------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exact_intersection_count_matches_oracle(dim):
    reg = make_registry(2 + dim, dim, 50)
    balls = reg.instance.balls
    rng = np.random.default_rng(dim)
    for _ in range(200):
        q = tuple(rng.random(dim))
        x = float(rng.random() * 0.8)
        assert reg.exact_intersection_count(q, x) == exact_counts(balls, q, x)[0]


@pytest.mark.parametrize("dim", [1, 2])
def test_balls_containing_point_matches_brute(dim):
    reg = make_registry(9 + dim, dim, 60)
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(400):
        if rng.random() < 0.5:
            q = rng.random(dim)
        else:
            b = reg.instance.balls[int(rng.integers(reg.n))]
            q = np.array(b.center) + rng.normal(size=dim) * b.radius * 0.5
            q = np.clip(q, 0.0, math.nextafter(1.0, 0.0))
        got = set(reg.balls_containing_point(tuple(q)).tolist())
        brute = {
            i
            for i, b in enumerate(reg.instance.balls)
            if math.dist(q, b.center) <= b.radius
        }
        assert got == brute
        hits += bool(brute)
    assert hits > 0  # the sampler actually exercised interior points


# -- approximate counters ---------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2])
def test_ball_count_sandwich(dim):
    reg = make_registry(20 + dim, dim, 60)
    rng = np.random.default_rng(7)
    for _ in range(300):
        q = tuple(rng.random(dim))
        x = float(rng.random() * 1.2)
        delta = float(rng.choice([1.0, 0.5, 0.2, 0.1]))
        approx = reg.approx_ball_count(q, delta, x)
        assert reg.exact_intersection_count(q, x) <= approx
        assert approx <= reg.exact_intersection_count(q, (1.0 + delta) * x)


def test_ball_count_zero_radius_counts_containing_balls():
    reg = make_registry(3, 1, 30)
    b = reg.instance.balls[4]
    inside = tuple(b.center)
    assert reg.approx_ball_count(inside, 0.5, 0.0) >= 1


def test_ball_count_delta_monotone_sweep():
    reg = make_registry(31, 2, 50)
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = tuple(rng.random(2))
        delta = float(rng.choice([0.5, 0.2]))
        xs = np.linspace(0.01, 1.0, 50)
        for x in xs:
            f_small = reg.approx_ball_count(q, delta, float(x) / (1.0 + delta))
            f_big = reg.approx_ball_count(q, delta, float(x))
            assert f_small <= f_big


def test_counter_input_validation():
    reg = make_registry(0, 1, 10)
    with pytest.raises(InputError):
        reg.approx_ball_count((0.5,), 0.0, 0.5)
    with pytest.raises(InputError):
        reg.approx_ball_count((0.5,), 0.5, -1.0)


# -- center-distance estimates ----------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2])
def test_kth_center_distance_two_approx(dim):
    reg = make_registry(40 + dim, dim, 64)
    rng = np.random.default_rng(13)
    for _ in range(200):
        q = rng.random(dim)
        k = int(rng.integers(1, reg.n + 1))
        got = reg.approx_kth_center_distance(tuple(q), k)
        truth = float(np.sort(np.linalg.norm(reg.centers - q, axis=1))[k - 1])
        assert truth - 1e-12 <= got <= 2.0 * truth + 1e-12


def test_kth_center_distance_batched_matches_single():
    reg = make_registry(44, 2, 50)
    q = (0.51, 0.49)
    ks = [1, 5, 17, 50]
    batched = reg.approx_kth_center_distances(q, ks)
    for k in ks:
        assert batched[k] == reg.approx_kth_center_distance(q, k)


def test_kth_center_distance_rejects_bad_k():
    reg = make_registry(0, 1, 10)
    with pytest.raises(InputError):
        reg.approx_kth_center_distance((0.5,), 0)
    with pytest.raises(InputError):
        reg.approx_kth_center_distance((0.5,), 11)


# -- center cells ------------------------------------------------------------------


@given(st.integers(0, 1_000))
@settings(max_examples=60, deadline=None)
def test_center_range_sandwich(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    reg = make_registry(int(rng.integers(100)), dim, 40)
    q = rng.random(dim)
    x = float(rng.random() * 0.5 + 1e-3)
    delta = float(rng.choice([1.0, 0.5, 0.25]))
    # Cells of diameter <= delta * x: a center whose cell meets ball(q, x)
    # lies within (1 + delta) x of q.
    level, clamped = grid_level_for_diameter(x, delta, dim)
    assert not clamped
    count = reg.small_center_ids(q, x, level, np.empty(0, dtype=np.int64)).size
    dist = np.linalg.norm(reg.centers - q, axis=1)
    assert int((dist <= x).sum()) <= count
    assert count <= int((dist <= (1.0 + delta) * x).sum())


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_small_center_ids_scan_matches_enumeration(dim, monkeypatch):
    reg = make_registry(60 + dim, dim, 60, profile="clustered")
    rng = np.random.default_rng(dim)
    for _ in range(40):
        q = rng.uniform(-0.1, 1.1, size=dim)
        radius = float(rng.uniform(0.005, 0.4))
        level, _ = grid_level_for_diameter(2.0 * radius, float(rng.choice([1.0, 0.5])), dim)
        some = np.sort(rng.choice(reg.n, size=reg.n // 4, replace=False))
        for large in (np.empty(0, dtype=np.int64), some):
            got = {}
            for cap in (-1, 10**18):  # -1 forces the scan, 10**18 the enumeration
                monkeypatch.setattr(registry_module, "DENSE_CELL_CAP", cap)
                got[cap] = reg.small_center_ids(q, radius, level, large)
            assert np.array_equal(got[-1], got[10**18])
            ids = got[-1]
            assert np.all(np.diff(ids) > 0)
            assert not np.isin(ids, large).any()
            # Every center inside the ball is there unless it is large.
            dist = np.linalg.norm(reg.centers - q, axis=1)
            inside = np.setdiff1d(np.flatnonzero(dist <= radius), large)
            assert np.isin(inside, ids).all()


def test_stats_present():
    reg = make_registry(0, 2, 30)
    assert reg.stats["n"] == 30
    assert reg.stats["dim"] == 2
    phases = ("registration_s", "ball_tree_s", "associated_s", "centers_tree_s")
    for name in phases:
        assert reg.stats[name] >= 0.0
    assert sum(reg.stats[name] for name in phases) == pytest.approx(
        reg.stats["build_seconds"], abs=1e-6
    )


# -- built structure against its definitions -------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_registry_structure_matches_definitions(dim):
    inst = normalize(generate_instance(50 + dim, dim, 20, "clustered"), 0.5)
    rest = (0.5,) * (dim - 1)
    extra = (
        Ball((0.0625,) + rest, 0.0),  # radius 0: the deepest cell holding it
        Ball((0.25,) * dim, 0.0),  # radius 0 on a cell corner
        Ball((0.875,) + rest, 0.125),  # touches the wall x = 1
        Ball((0.125,) * dim, 0.125),  # touches the walls x_j = 0
    )
    reg = Registry(replace(inst, balls=inst.balls + extra))
    tree = reg.ball_tree
    node_of_key = {(int(z), int(l)): v for v, (z, l) in enumerate(zip(tree.z, tree.level))}

    # Registration cells are exactly grid_approx(b, 1), all on level reg_level[b].
    registered_at: dict[int, list[int]] = {}
    for b, ball in enumerate(reg.instance.balls):
        cells = grid_approx(ball, 1.0)
        assert {c.level for c in cells} == {int(reg.reg_level[b])}
        for c in cells:
            registered_at.setdefault(node_of_key[cube_to_key(c)], []).append(b)
    for v in range(tree.size):
        assert reg.registered_ids(v).tolist() == registered_at.get(v, [])

    # Associated lists: balls at least as coarse as the node that meet its cell.
    for v in range(tree.size):
        cube = tree.node_cube(v)
        want = [
            b
            for b, ball in enumerate(reg.instance.balls)
            if reg.reg_level[b] <= cube.level and cube.intersects_ball(ball)
        ]
        got = reg.associated_ids(v)
        assert got.size == len(want)
        assert np.sort(got).tolist() == want
