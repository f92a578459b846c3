import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballann import build_registry, generate_instance, normalize
from ballann import knn
from ballann import registry as registry_module
from ballann.geometry import (
    Ball,
    InputError,
    ball_distance,
    ball_distances,
    grid_approx,
    grid_cell,
    grid_coords,
    grid_level_for_diameter,
)
from ballann.quadtree import cube_to_key
from ballann.registry import EXACT_FINISH_COUNT, Registry
from ballann.oracle import exact_counts, exact_kth_distance

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


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_balls_containing_point_matches_brute(dim):
    """Against brute force, on a normalized instance and on the same balls
    scaled about the cube's center until the outermost center lies on a
    face, so that ball reaches outside the unit cube: at points in the
    cube, in or next to balls, and outside the cube near and far from the
    balls."""
    inst = normalize(generate_instance(30 + dim, dim, 80, "clustered"), 0.25)
    scale = 0.5 / np.abs(inst.centers - 0.5).max()
    scaled = replace(inst, centers=0.5 + (inst.centers - 0.5) * scale, radii=inst.radii * scale)
    rng = np.random.default_rng(dim)
    for reg in (Registry(inst), Registry(scaled)):
        lo = (reg.centers - reg.radii[:, None]).min(axis=0)
        hi = (reg.centers + reg.radii[:, None]).max(axis=0)
        # The balls reaching outside the cube, and the axis they reach out on.
        poking = np.flatnonzero(np.any(np.abs(reg.centers - 0.5) + reg.radii[:, None] > 0.5, axis=1))
        held = outside = 0
        for i in range(400):
            if i % 4 == 0:
                q = rng.uniform(lo - 0.05, hi + 0.05)
            elif i % 4 == 1:
                b = int(rng.integers(reg.n))
                q = reg.centers[b] + rng.normal(size=dim) * reg.radii[b] * 0.7
            elif i % 4 == 2 and poking.size:
                b = int(rng.choice(poking))
                j = int(np.argmax(np.abs(reg.centers[b] - 0.5)))
                q = reg.centers[b].copy()
                q[j] += np.sign(q[j] - 0.5) * reg.radii[b] * rng.uniform(0.5, 1.0)
            else:
                q = rng.uniform(-1.0, 2.0, size=dim)
            got = reg.balls_containing_point(q).tolist()
            assert got == np.flatnonzero(ball_distances(q, reg.centers, reg.radii) == 0.0).tolist()
            held += bool(got)
            outside += bool(got) and not np.all((q >= 0.0) & (q < 1.0))
        assert held > 0
    assert outside > 0  # some ball was found from a point outside the cube


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
        assert batched[k] == reg.approx_kth_center_distances(q, [k])[k]


def test_kth_center_distance_rejects_bad_k():
    reg = make_registry(0, 1, 10)
    with pytest.raises(InputError):
        reg.approx_kth_center_distances((0.5,), [0])
    with pytest.raises(InputError):
        reg.approx_kth_center_distances((0.5,), [11])


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
    count = reg.small_center_count(q, x, level, np.empty(0, dtype=np.int64))
    dist = np.linalg.norm(reg.centers - q, axis=1)
    assert int((dist <= x).sum()) <= count
    assert count <= int((dist <= (1.0 + delta) * x).sum())


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_small_center_count_matches_brute_force(dim):
    reg = make_registry(60 + dim, dim, 60, profile="clustered")
    rng = np.random.default_rng(dim)
    for _ in range(40):
        q = rng.uniform(-0.1, 1.1, size=dim)
        level = int(rng.integers(1, 10))
        radius = float(10.0 ** rng.uniform(-2.3, -0.3))
        some = np.sort(rng.choice(reg.n, size=reg.n // 4, replace=False))
        for large in (np.empty(0, dtype=np.int64), some):
            # Brute force: each center's closed cell against the closed ball.
            skip = set(large.tolist())
            want = [
                i
                for i in range(reg.n)
                if i not in skip and grid_cell(level, reg.centers[i]).min_dist_to_point(q) <= radius
            ]
            assert reg.small_center_count(q, radius, level, large) == len(want)
            # The same test on a given set of centers.
            rest = np.setdiff1d(np.arange(reg.n), large)
            meet = Registry._cells_meet(grid_coords(reg.centers[rest], level), q, radius, level)
            assert rest[meet].tolist() == want


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_large_balls_intersecting_matches_brute_force(dim, monkeypatch):
    reg = make_registry(70 + dim, dim, 60, profile="clustered")
    balls = reg.instance.balls
    rng = np.random.default_rng(dim)
    ties = 0
    for _ in range(60):
        # Around a random ball, often reaching outside the unit cube.
        b = int(rng.integers(reg.n))
        q = reg.centers[b] + rng.uniform(-0.6, 0.6, size=dim)
        radius = float(10.0 ** rng.uniform(-2.5, 0.0))
        for min_diameter in (0.0, balls[b].diameter):
            got = reg.large_balls_intersecting(q, radius, min_diameter)
            want = [
                i
                for i, ball in enumerate(balls)
                if ball.diameter >= min_diameter and ball_distance(q, ball.center, ball.radius) <= radius
            ]
            assert got.tolist() == want
            ties += int(min_diameter > 0.0 and b in want)
    assert ties > 0  # the ball at the floor itself was retrieved

    # Floors on 512 balls that leave 0, 1, EXACT_FINISH_COUNT and
    # EXACT_FINISH_COUNT + 1 of them (each floor but the first the exact
    # diameter 2r of a ball, a tie), and the floor 0.  The tree is walked,
    # and its candidates filtered, exactly when some ball reaches the floor.
    reg = make_registry(80 + dim, dim, 2 * EXACT_FINISH_COUNT, profile="clustered")
    filtered = []
    monkeypatch.setattr(
        registry_module, "ball_distances", lambda *args: filtered.append(1) or ball_distances(*args)
    )
    diam = np.sort(2.0 * reg.radii)
    assert np.unique(diam).size == reg.n  # so each floor leaves its count exactly
    floors = {0: math.nextafter(diam[-1], math.inf), reg.n: 0.0}
    for count in (1, EXACT_FINISH_COUNT, EXACT_FINISH_COUNT + 1):
        floors[count] = float(diam[reg.n - count])
    hits = 0
    for count, min_diameter in floors.items():
        assert int((2.0 * reg.radii >= min_diameter).sum()) == count
        for _ in range(15):
            b = int(rng.integers(reg.n))
            q = reg.centers[b] + rng.uniform(-0.2, 0.2, size=dim)
            radius = float(10.0 ** rng.uniform(-2.5, -0.5))
            del filtered[:]
            got = reg.large_balls_intersecting(q, radius, min_diameter)
            d_balls = ball_distances(q, reg.centers, reg.radii)
            want = np.flatnonzero((2.0 * reg.radii >= min_diameter) & (d_balls <= radius))
            assert got.tolist() == want.tolist()
            assert bool(filtered) == (count > 0)
            hits += want.size
    assert hits > 0


def test_tangent_ball_kept_at_its_own_distance():
    """A query ball whose radius is the distance to a ball meets that ball.
    At this q, math.dist gives 0.6861632868332991 and the package's one
    distance 0.6861632868332992, so a filter by one and a radius by the
    other would lose the tangent ball."""
    inst = normalize(generate_instance(0, 2, 2), 0.5)
    centers = [(0.5703125, 0.25), (0.25, 0.75), (0.75, 0.75)]
    reg = Registry(replace(inst, centers=centers, radii=[0.0, 0.125, 0.0625]))
    q = (-0.021635787331531153, -0.09701193253711517)
    d = ball_distance(q, centers[0], 0.0)
    assert math.dist(q, centers[0]) < d
    assert d == ball_distances(q, reg.centers, reg.radii)[0]
    assert 0 in reg.large_balls_intersecting(q, d, 0.0).tolist()
    assert reg.exact_intersection_count(q, d) == 1


def test_stats_present():
    reg = make_registry(0, 2, 30)
    assert reg.stats["n"] == 30
    assert reg.stats["dim"] == 2
    phases = ("registration_s", "ball_tree_s", "centers_tree_s")
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
    reg = Registry(
        replace(
            inst,
            centers=np.vstack([inst.centers, [b.center for b in extra]]),
            radii=np.append(inst.radii, [b.radius for b in extra]),
        )
    )
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

    # The node tables of the centers tree: per node, over the balls whose
    # centers lie in its cube, the tight box of the centers, the least and
    # greatest radius and the smallest id.
    ct = reg.centers_tree
    cubes = zip(ct.low_corners(), np.ldexp(1.0, -ct.level))
    for v, (low, side) in enumerate(cubes):
        ids = np.flatnonzero(np.all((reg.centers >= low) & (reg.centers < low + side), axis=1))
        assert np.array_equal(reg._node_lo[v], reg.centers[ids].min(axis=0))
        assert np.array_equal(reg._node_hi[v], reg.centers[ids].max(axis=0))
        assert reg._node_rmin[v] == reg.radii[ids].min() and reg._node_rmax[v] == reg.radii[ids].max()
        assert reg._node_first[v] == ids[0]



# -- the walks at their edges -------------------------------------------------------

_UNIT = 2.0**-7  # every coordinate and radius below is a multiple: float math stays exact


def _edge_registry(rng, dim: int) -> Registry:
    """Pairwise disjoint balls in the unit cube on a dyadic grid, with tangent
    pairs, radius-0 balls and balls touching the cube's walls."""
    inst = normalize(generate_instance(0, dim, 2), 0.5)
    top = int(1 / _UNIT)
    balls: list[Ball] = []

    def fits(c, r):
        inside = all(x - r >= 0.0 and x + r <= 1.0 and x < 1.0 for x in c)
        return inside and all(
            c != b.center and sum((x - y) ** 2 for x, y in zip(c, b.center)) >= (r + b.radius) ** 2
            for b in balls
        )

    for _ in range(60):
        kind = int(rng.integers(4))
        r = _UNIT * int(rng.integers(0, 9))
        c = [_UNIT * int(rng.integers(0, top)) for _ in range(dim)]
        j = int(rng.integers(dim))
        if kind == 1:  # touching a wall
            c[j] = r if rng.random() < 0.5 else 1.0 - r
        elif kind == 2 and balls:  # tangent to an earlier ball
            b = balls[int(rng.integers(len(balls)))]
            c = list(b.center)
            c[j] += (b.radius + r) * (1.0 if rng.random() < 0.5 else -1.0)
        elif kind == 3:  # a point
            r = 0.0
        if fits(tuple(c), r):
            balls.append(Ball(tuple(c), r))
    return Registry(replace(inst, centers=[b.center for b in balls], radii=[b.radius for b in balls]))


def _edge_queries(rng, reg: Registry) -> list[np.ndarray]:
    """Points on dyadic faces, on ball surfaces, outside [0,1)^d, and anywhere."""
    dim, out = reg.dim, []
    for b in rng.integers(reg.n, size=6).tolist():
        p = reg.centers[b].copy()  # on the surface, or the point itself
        p[int(rng.integers(dim))] += reg.radii[b] * (1.0 if rng.random() < 0.5 else -1.0)
        out.append(p)
    for _ in range(4):
        step = 2.0 ** -int(rng.integers(0, 8))  # on the faces of that level's cells
        out.append(step * rng.integers(0, int(1 / step) + 1, size=dim))
    for _ in range(3):
        p = rng.random(dim)
        p[int(rng.integers(dim))] = float(rng.choice([-_UNIT, 1.0, 1.0 + _UNIT, -0.5, 1.75]))
        out.append(p)
    out.extend(rng.uniform(-0.2, 1.2, size=(3, dim)))
    return out


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_walks_match_brute_force_at_edges(dim, seed):
    rng = np.random.default_rng(seed)
    reg = _edge_registry(rng, dim)
    balls = reg.instance.balls
    everyone = np.arange(reg.n)
    for q in _edge_queries(rng, reg):
        # Brute force over all balls with the package's one ball distance;
        # the radii below include exact tangencies.
        d_balls = ball_distances(q, reg.centers, reg.radii)
        assert reg.balls_containing_point(q).tolist() == np.flatnonzero(d_balls == 0.0).tolist()
        radii = [0.0, _UNIT * int(rng.integers(1, 64)), float(rng.choice(d_balls)), float(rng.random())]
        for radius in radii:
            for min_diameter in (0.0, balls[int(rng.integers(reg.n))].diameter, _UNIT * int(rng.integers(1, 8))):
                got = reg.large_balls_intersecting(q, radius, min_diameter)
                want = np.flatnonzero((2.0 * reg.radii >= min_diameter) & (d_balls <= radius))
                assert got.tolist() == want.tolist()
            level = int(rng.integers(0, 11))
            for large in (np.empty(0, dtype=np.int64), got):
                # The per-center cell test on every center but the large ones.
                rest = np.setdiff1d(everyone, large)
                cells = grid_coords(reg.centers[rest], level)
                want_count = int(Registry._cells_meet(cells, q, radius, level).sum())
                assert reg.small_center_count(q, radius, level, large) == want_count
            for delta in (1.0, 0.5, 0.25):
                approx = reg.approx_ball_count(q, delta, radius)
                assert reg.exact_intersection_count(q, radius) <= approx
                assert approx <= reg.exact_intersection_count(q, (1.0 + delta) * radius)


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_certified_exit_matches_oracle_at_edges(dim, seed):
    """knn.query on the edge inputs above: every answer lies in the oracle
    window with an interval around d_k and the distance of its ball, bit for
    bit; where the certified exit declines, the answer is the two stages'
    one, bit for bit."""
    rng = np.random.default_rng(seed)
    reg = _edge_registry(rng, dim)
    for q in _edge_queries(rng, reg):
        d_balls = ball_distances(q, reg.centers, reg.radii)
        for k in sorted({1, min(2, reg.n), (reg.n + 1) // 2, reg.n}):
            truth = exact_kth_distance(reg.instance, q, k).value
            for eps in (0.5, 0.1, 0.01):
                ans = knn.query(reg, q, k, eps)
                assert (1.0 - eps) * truth <= ans.distance <= (1.0 + eps) * truth
                lo, hi = ans.certified_interval
                assert lo <= truth <= hi
                assert ans.distance == d_balls[ans.ball_id]
                wid = reg.certified_kth_ball(q, k, eps)
                if wid >= 0:
                    assert ans.ball_id == wid
                    assert ans.certified_interval == (ans.distance / (1.0 + eps), ans.distance / (1.0 - eps))
                else:
                    two = knn.two_stage_query(reg, q, k, eps)
                    assert (ans.ball_id, ans.distance, ans.certified_interval) == (
                        two.ball_id, two.distance, two.certified_interval,
                    )


def _root_box_queries(rng, reg: Registry) -> list[np.ndarray]:
    """Points up to 10^3 outside the cube, and on the faces and at the
    corners of the root's box of centers and of the box of all balls."""
    dim, out = reg.dim, []
    for scale in (1.0, 10.0, 100.0, 1000.0):
        u = rng.normal(size=dim)
        out.append(0.5 + scale * u / np.linalg.norm(u))
    r = reg._node_rmax[0]
    for lo, hi in ((reg._node_lo[0], reg._node_hi[0]), (reg._node_lo[0] - r, reg._node_hi[0] + r)):
        corners = rng.integers(0, 2, size=(3, dim)).astype(bool)
        out.extend(np.where(corners, hi, lo))
        for _ in range(3):
            p = rng.uniform(lo, hi)
            j = int(rng.integers(dim))
            p[j] = (lo if rng.random() < 0.5 else hi)[j]
            out.append(p)
    return out


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_root_round_bounds_are_exact(dim, seed):
    """The exit's root round in plain floats (_root_bounds) gives the root's
    _ball_bounds bit for bit; where the far rule holds, the exit answers
    with the root's smallest ball id, and knn.query's answer lies in the
    oracle window."""
    rng = np.random.default_rng(seed)
    reg = _edge_registry(rng, dim)
    root = np.zeros(1, dtype=np.int64)
    far_rule = 0
    for q in _edge_queries(rng, reg) + _root_box_queries(rng, reg):
        lo, hi = reg._root_bounds(q.tolist())
        want = np.concatenate(reg._ball_bounds(root, q))
        assert np.array([lo, hi]).tobytes() == want.tobytes()
        for eps in (0.5, 0.1, 0.01):
            if not (hi > 0.0 and lo >= (1.0 - eps) * hi and hi <= (1.0 + eps) * lo):
                continue
            far_rule += 1
            for k in sorted({1, (reg.n + 1) // 2, reg.n}):
                assert reg.certified_kth_ball(q, k, eps) == reg._node_first[0]
                truth = exact_kth_distance(reg.instance, q, k).value
                ans = knn.query(reg, q, k, eps)
                assert (1.0 - eps) * truth <= ans.distance <= (1.0 + eps) * truth
    assert far_rule >= 1


def _cell_instance(rng, dim: int, n: int, clustered: bool):
    """n disjoint balls, one in each of n distinct cells of a grid with about
    4n cells, the cells uniform or drawn around n/12 anchors; normalized."""
    top = math.ceil((4 * n) ** (1.0 / dim))
    if clustered:
        anchors = rng.random((n // 12, dim))
        cells = np.empty((0, dim), dtype=np.int64)
        while cells.shape[0] < n:
            pts = anchors[rng.integers(len(anchors), size=2 * n)] + rng.normal(0.0, 0.04, size=(2 * n, dim))
            pool = np.concatenate([cells, np.clip(np.floor(pts * top), 0, top - 1).astype(np.int64)])
            _, first = np.unique(pool, axis=0, return_index=True)
            cells = pool[np.sort(first)]
        cells = cells[:n]
    else:
        cells = np.stack(np.unravel_index(rng.choice(top**dim, n, replace=False), (top,) * dim), axis=1)
    centers = (cells + 0.5) / top
    radii = rng.uniform(0.05, 0.4, size=n) / top
    return normalize([Ball(tuple(c), float(r)) for c, r in zip(centers.tolist(), radii.tolist())], 0.25)


@pytest.mark.parametrize("dim, clustered", [(2, False), (3, True)])
def test_walk_cost_grows_slowly_with_n(dim, clustered, monkeypatch):
    """Rows the two walks test per call, at n = 1,024 and 16,384: node boxes
    (_box_dists), center cells (_cells_meet) and candidate balls
    (ball_distances), in the count and the retrieval of approx_ball_count
    at probe radii holding a fixed number of centers, from points among the
    balls."""
    rows = {"small_center_count": 0, "large_balls_intersecting": 0}
    current = [None]

    def counted(test, rows_arg):
        def run(*args):
            if current[0] is not None:
                rows[current[0]] += len(args[rows_arg])
            return test(*args)

        return run

    def attributed(name):
        walk = getattr(Registry, name)

        def run(self, *args):
            current[0] = name
            try:
                return walk(self, *args)
            finally:
                current[0] = None

        return run

    monkeypatch.setattr(registry_module, "_box_dists", counted(registry_module._box_dists, 0))
    monkeypatch.setattr(Registry, "_cells_meet", staticmethod(counted(Registry._cells_meet, 0)))
    monkeypatch.setattr(registry_module, "ball_distances", counted(registry_module.ball_distances, 1))
    for name in rows:
        monkeypatch.setattr(Registry, name, attributed(name))
    per_call = {}
    probes = 200
    for n in (1024, 16384):
        rng = np.random.default_rng(dim)
        reg = build_registry(_cell_instance(rng, dim, n, clustered))
        lo, hi = reg.centers.min(axis=0), reg.centers.max(axis=0)
        for name in rows:
            rows[name] = 0
        for i in range(probes):
            q = rng.uniform(lo, hi)
            k = (1, 4, 16, 64)[i % 4]
            x = reg.approx_kth_center_distances(q, [k])[k]
            reg.approx_ball_count(q, (1.0, 0.5, 0.25)[i % 3], x)
        per_call[n] = {name: count / probes for name, count in rows.items()}
    for name in rows:
        assert per_call[1024][name] >= 1.0
        assert per_call[16384][name] <= 2.0 * per_call[1024][name], (name, per_call)


@pytest.mark.parametrize("dim, clustered", [(2, False), (3, True)])
def test_exit_frontier_grows_slowly_with_n(dim, clustered, monkeypatch):
    """Frontier nodes the certified exit bounds per query at n = 1,024 and
    16,384, from points among the balls: the root, bounded by _box_dist,
    and the rows of _box_dists.  They grow far slower than n, and the exit
    answers nearly every query."""
    rows = [0]

    def counted_one(low, high, q):
        rows[0] += 1
        return box_dist(low, high, q)

    def counted(low, high, q):
        rows[0] += len(low)
        return box_dists(low, high, q)

    box_dist, box_dists = registry_module._box_dist, registry_module._box_dists
    monkeypatch.setattr(registry_module, "_box_dist", counted_one)
    monkeypatch.setattr(registry_module, "_box_dists", counted)
    per_query, answered = {}, {}
    probes = 200
    for n in (1024, 16384):
        rng = np.random.default_rng(dim)
        reg = build_registry(_cell_instance(rng, dim, n, clustered))
        lo, hi = reg.centers.min(axis=0), reg.centers.max(axis=0)
        rows[0] = exits = 0
        for i in range(probes):
            q = rng.uniform(lo, hi)
            exits += reg.certified_kth_ball(q, (1, 4, 16, 64)[i % 4], (0.5, 0.25, 0.1)[i % 3]) >= 0
        per_query[n], answered[n] = rows[0] / probes, exits / probes
    assert min(answered.values()) >= 0.95, answered
    assert per_query[1024] >= 1.0, per_query
    assert per_query[16384] <= 3.0 * per_query[1024], per_query
