import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballann import build_registry, generate_instance, normalize
from ballann import registry as registry_module
from ballann.geometry import (
    Ball,
    InputError,
    dist_point_ball,
    grid_approx,
    grid_cell,
    grid_footprint,
    grid_level_for_diameter,
)
from ballann.quadtree import cube_to_key
from ballann.registry import EXACT_FINISH_COUNT, Registry
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


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_kth_center_distance_two_approx(dim):
    rng = np.random.default_rng(13 + dim)
    for profile in ("uniform", "clustered"):
        reg = make_registry(40 + dim, dim, 600, profile=profile)
        assert reg.n > EXACT_FINISH_COUNT  # the frontier must split nodes before it finishes
        queries = [rng.random(dim) for _ in range(40)]
        queries += [reg.centers[int(i)] for i in rng.integers(reg.n, size=10)]  # exactly on a center
        for _ in range(10):  # outside the unit cube on axis 0, perhaps on others
            q = rng.uniform(-0.5, 1.5, size=dim)
            q[0] = rng.choice([-0.3, 1.3])
            queries.append(q)
        for q in queries:
            ks = [1, reg.n] + rng.integers(1, reg.n + 1, size=4).tolist()
            got = reg.approx_kth_center_distances(q, ks)
            dist = np.sort(np.linalg.norm(reg.centers - q, axis=1))
            for k in ks:
                truth = float(dist[k - 1])
                assert truth - 1e-12 <= got[k] <= 2.0 * truth + 1e-12


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


def _count_enumerations(monkeypatch) -> list[int]:
    """Count the registry's calls of enumerate_grid_cells_ball from now on:
    the grid path of a query primitive makes one, its scan path none."""
    calls = [0]
    enumerate_cells = registry_module.enumerate_grid_cells_ball

    def counted(*args):
        calls[0] += 1
        return enumerate_cells(*args)

    monkeypatch.setattr(registry_module, "enumerate_grid_cells_ball", counted)
    return calls


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_small_center_ids_scan_matches_enumeration(dim, monkeypatch):
    reg = make_registry(60 + dim, dim, 60, profile="clustered")
    calls = _count_enumerations(monkeypatch)
    rng = np.random.default_rng(dim)
    paths = set()
    for _ in range(40):
        q = rng.uniform(-0.1, 1.1, size=dim)
        # A fixed level with radii over two decades puts the footprint on
        # both sides of n.
        level = int(rng.integers(1, 10))
        radius = float(10.0 ** rng.uniform(-2.3, -0.3))
        some = np.sort(rng.choice(reg.n, size=reg.n // 4, replace=False))
        for large in (np.empty(0, dtype=np.int64), some):
            before = calls[0]
            ids = reg.small_center_ids(q, radius, level, large)
            enumerated = calls[0] > before
            assert enumerated == (grid_footprint(q - radius, q + radius, level) <= reg.n)
            paths.add(enumerated)
            # Brute force: each center's closed cell against the closed ball.
            skip = set(large.tolist())
            want = [
                i
                for i in range(reg.n)
                if i not in skip and grid_cell(level, reg.centers[i]).min_dist_to_point(q) <= radius
            ]
            assert ids.tolist() == want
            # The same test on a given set of centers.
            rest = np.setdiff1d(np.arange(reg.n), large)
            assert reg.center_cells_meeting(rest, q, radius, level).tolist() == want
            assert np.all(np.diff(ids) > 0)
            assert not np.isin(ids, large).any()
            # Every center inside the ball is there unless it is large.
            dist = np.linalg.norm(reg.centers - q, axis=1)
            inside = np.setdiff1d(np.flatnonzero(dist <= radius), large)
            assert np.isin(inside, ids).all()
    assert paths == {True, False}


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_large_balls_intersecting_matches_brute_force(dim, monkeypatch):
    reg = make_registry(70 + dim, dim, 60, profile="clustered")
    calls = _count_enumerations(monkeypatch)
    balls = reg.instance.balls
    rng = np.random.default_rng(dim)
    paths = set()
    ties = 0
    for _ in range(60):
        # Around a random ball, often reaching outside the unit cube.
        b = int(rng.integers(reg.n))
        q = reg.centers[b] + rng.uniform(-0.6, 0.6, size=dim)
        radius = float(10.0 ** rng.uniform(-2.5, 0.0))
        for min_diameter in (0.0, balls[b].diameter):
            before = calls[0]
            got = reg.large_balls_intersecting(q, radius, min_diameter)
            if min_diameter > 0.0:
                level, clamped = grid_level_for_diameter(min_diameter, 1.0, dim)
                enumerated = calls[0] > before
                assert enumerated == (
                    not clamped and grid_footprint(q - radius, q + radius, level) <= reg.n
                )
                paths.add(enumerated)
            want = [
                i
                for i, ball in enumerate(balls)
                if ball.diameter >= min_diameter and dist_point_ball(q, ball) <= radius
            ]
            assert got.tolist() == want
            ties += int(min_diameter > 0.0 and b in want)
    assert paths == {True, False}
    assert ties > 0  # the ball at the floor itself was retrieved


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
