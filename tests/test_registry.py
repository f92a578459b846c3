import itertools
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
    max_level_for_dim,
)
from ballann.registry import EXACT_FINISH_COUNT, Registry
from ballann.oracle import exact_counts, exact_kth_distance

from conftest import make_registry


def test_build_registry_needs_normalized_instance():
    reg = make_registry(0, 2, 30)
    assert reg.n == 30 and reg.dim == 2
    assert reg.centers_tree.has_points


def test_build_registry_refuses_centers_outside_the_cube():
    # refine snaps centers to grid cells of [0, 1)^d and would clip these.
    inst = normalize(generate_instance(0, 2, 30), 0.5)
    for bad in (-0.25, 1.0, 1.5, math.nan):
        centers = np.array(inst.centers)
        centers[3, 1] = bad
        with pytest.raises(InputError, match=r"\[0, 1\)\^d"):
            build_registry(replace(inst, centers=centers))


# -- exact routes agree with the oracle -----------------------------------------


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
        # The extreme balls' surfaces on each axis, and the corners of the
        # box of all balls, on the bound and one ulp to either side: where
        # the empty answer of the root test meets the walk.
        edge = []
        for j in range(dim):
            low, high = reg.centers[:, j] - reg.radii, reg.centers[:, j] + reg.radii
            for b, sign in ((int(np.argmin(low)), -1.0), (int(np.argmax(high)), 1.0)):
                q = reg.centers[b].copy()
                q[j] += sign * reg.radii[b]
                edge.append(q)
        edge += [np.array(c) for c in itertools.product(*zip(lo, hi))]
        edge_held = 0
        for q in edge:
            for to in (-np.inf, None, np.inf):
                p = q if to is None else np.nextafter(q, to)
                want = np.flatnonzero(ball_distances(p, reg.centers, reg.radii) == 0.0).tolist()
                assert reg.balls_containing_point(p).tolist() == want
                edge_held += bool(want)
        assert edge_held > 0
    assert outside > 0  # some ball was found from a point outside the cube


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_walks_on_centers_outside_the_cube(dim):
    """A registry whose centers spread over [-0.5, 1.5]^d, which the centers
    tree clips into the cube as encode_points does, with more than
    EXACT_FINISH_COUNT balls so that the walk splits nodes: containment,
    retrieval and the count against brute force, from points inside and
    outside the cube."""
    rng = np.random.default_rng(90 + dim)
    n = 2 * EXACT_FINISH_COUNT
    inst = normalize(generate_instance(0, dim, 2), 0.5)
    reg = Registry(
        replace(inst, centers=rng.uniform(-0.5, 1.5, size=(n, dim)), radii=rng.uniform(0.0, 0.2, size=n))
    )
    outside = 0
    for i in range(200):
        if i % 2:
            b = int(rng.integers(n))
            q = reg.centers[b] + rng.normal(size=dim) * reg.radii[b] * 0.7
        else:
            q = rng.uniform(-0.7, 1.7, size=dim)
        d_balls = ball_distances(q, reg.centers, reg.radii)
        got = reg.balls_containing_point(q).tolist()
        assert got == np.flatnonzero(d_balls == 0.0).tolist()
        outside += bool(got) and not np.all((q >= 0.0) & (q < 1.0))
        radius = float(rng.uniform(0.0, 0.3))
        for min_diameter in (0.0, float(2.0 * reg.radii[int(rng.integers(n))])):
            want = np.flatnonzero((2.0 * reg.radii >= min_diameter) & (d_balls <= radius))
            assert reg.large_balls_intersecting(q, radius, min_diameter).tolist() == want.tolist()
        count = reg.approx_ball_count(q, 0.5, radius)
        assert exact_counts(reg.instance, q, radius)[0] <= count <= exact_counts(reg.instance, q, 1.5 * radius)[0]
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
        assert exact_counts(reg.instance, q, x)[0] <= approx
        assert approx <= exact_counts(reg.instance, q, (1.0 + delta) * x)[0]


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


# Each query primitive, called as the query path calls it; the early exits
# (containment at radius 0, retrieval above the largest diameter) too.
_PRIMITIVES = {
    "balls_containing_point": lambda reg, q: reg.balls_containing_point(q),
    "approx_ball_count": lambda reg, q: reg.approx_ball_count(q, 1.0, 0.1),
    "approx_ball_count_x0": lambda reg, q: reg.approx_ball_count(q, 1.0, 0.0),
    "approx_kth_center_distances": lambda reg, q: reg.approx_kth_center_distances(q, [3]),
    "large_balls_intersecting": lambda reg, q: reg.large_balls_intersecting(q, 0.1, 0.0),
    "large_balls_intersecting_above_floor": lambda reg, q: reg.large_balls_intersecting(q, 0.1, 10.0),
    "certified_kth_ball": lambda reg, q: reg.certified_kth_ball(q, 3, 0.5),
}


@pytest.mark.parametrize("name", sorted(_PRIMITIVES))
@pytest.mark.parametrize(
    "q",
    [(math.nan, 0.5), (math.inf, 0.5), (0.5, -math.inf), (0.5,), (0.5, 0.5, 0.5)],
    ids=["nan", "inf", "minus_inf", "dim1", "dim3"],
)
def test_query_primitives_refuse_bad_points(name, q):
    """A point with a coordinate that is not finite, or of another
    dimension, is the caller's error in every query primitive: no bare
    ValueError or IndexError, and no answer."""
    reg = make_registry(0, 2, 50)
    with pytest.raises(InputError, match="finite coordinates"):
        _PRIMITIVES[name](reg, q)


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

    # Two equal giant balls among many small ones, where no node on a
    # giant's path prunes by its greatest radius.  The giants reach outside
    # the cube on axis 0, and the floor 0.5, the largest diameter, keeps
    # both as ties.  Three balls share the center of a small one, so one
    # leaf holds them all.  Queries lie on the giants' surfaces outside the
    # cube, among the balls, and anywhere.
    monkeypatch.undo()
    small = _cell_instance(rng, dim, 3 * EXACT_FINISH_COUNT, clustered=False)
    giants = np.full((2, dim), 0.5)
    giants[:, 0] = (0.125, 0.875)
    apart = np.linalg.norm(small.centers[:, None, :] - giants[None], axis=2) - small.radii[:, None]
    keep = np.all(apart > 0.25, axis=1)
    shared = np.repeat(small.centers[np.flatnonzero(keep)[:1]], 3, axis=0)
    reg = Registry(
        replace(
            small,
            centers=np.vstack([small.centers[keep], giants, shared]),
            radii=np.concatenate([small.radii[keep], [0.25, 0.25], small.radii[keep][0] * np.array([2.0, 3.0, 4.0])]),
        )
    )
    assert reg.n > EXACT_FINISH_COUNT
    giant_ids = np.flatnonzero(reg.radii == 0.25)
    surface = giants.copy()
    surface[:, 0] += (-0.25, 0.25)  # (-0.125, ...) and (1.125, ...), exactly
    queries = list(surface) + [reg.centers[int(b)] + rng.uniform(-0.1, 0.1, size=dim) for b in rng.integers(reg.n, size=20)]
    queries += list(rng.uniform(-0.2, 1.2, size=(10, dim)))
    tied = 0
    for q in queries:
        d_balls = ball_distances(q, reg.centers, reg.radii)
        assert reg.balls_containing_point(q).tolist() == np.flatnonzero(d_balls == 0.0).tolist()
        for radius in (0.0, float(10.0 ** rng.uniform(-2.5, 0.0)), float(rng.choice(d_balls))):
            for min_diameter in (0.0, float(2.0 * reg.radii[int(rng.integers(reg.n))]), 0.5):
                got = reg.large_balls_intersecting(q, radius, min_diameter)
                want = np.flatnonzero((2.0 * reg.radii >= min_diameter) & (d_balls <= radius))
                assert got.tolist() == want.tolist()
                tied += min_diameter == 0.5 and set(got.tolist()) == set(giant_ids.tolist())
    for b, q in zip(giant_ids, surface):
        assert int(b) in reg.balls_containing_point(q).tolist()
    assert tied > 0  # both giants, tied at the floor, retrieved together


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
    assert exact_counts(reg.instance, q, d)[0] == 1


def test_stats_present():
    reg = make_registry(0, 2, 30)
    assert reg.stats["n"] == 30
    assert reg.stats["dim"] == 2
    phases = ("centers_tree_s", "node_tables_s")
    for name in phases:
        assert reg.stats[name] >= 0.0
    assert sum(reg.stats[name] for name in phases) == pytest.approx(
        reg.stats["build_seconds"], abs=1e-6
    )
    # No ball tree is built; its keys stay in the stats, reading 0.
    assert reg.stats["ball_tree_nodes"] == reg.stats["registration_entries"] == 0


# -- built structure against its definitions -------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_registry_structure_matches_definitions(dim):
    inst = normalize(generate_instance(50 + dim, dim, 20, "clustered"), 0.5)
    rest = (0.5,) * (dim - 1)
    extra = (
        Ball((0.0625,) + rest, 0.0),  # radius 0
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
    # The node tables of the centers tree: per node, over the balls whose
    # centers lie in its cube, the tight box of the centers, the least and
    # greatest radius and the smallest id.
    ct = reg.centers_tree
    for v in range(ct.size):
        cube = ct.node_cube(v)
        low, side = np.array(cube.low), cube.side
        ids = np.flatnonzero(np.all((reg.centers >= low) & (reg.centers < low + side), axis=1))
        lo, hi, rmin, rmax = _node_rows(reg, reg._table[:, v : v + 1])
        assert np.array_equal(lo[0], reg.centers[ids].min(axis=0))
        assert np.array_equal(hi[0], reg.centers[ids].max(axis=0))
        assert rmin[0] == reg.radii[ids].min() and rmax[0] == reg.radii[ids].max()
        assert reg._node_first[v] == ids[0]


def _node_rows(reg: Registry, cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """Columns of the node table as row-major low and high corners, (m, d)
    each, and least and greatest radii: the table holds the low corners,
    the negated high corners, rmax and rmin, one row each."""
    d = reg.dim
    return cols[:d].T, -cols[d : 2 * d].T, cols[2 * d + 1], cols[2 * d]


def _bounds(reg: Registry, nodes: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The padded ball-distance bounds [lo; hi] of the given nodes at q."""
    return registry_module._ball_bounds_of(reg._table[:, nodes], registry_module._column(q.tolist()))



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


def _crowded_registry(rng, dim: int) -> tuple[Registry, list[np.ndarray]]:
    """The walks' hard cases on the dyadic grid, and points on the surfaces
    of its balls outside the unit cube.  More than EXACT_FINISH_COUNT small
    balls make the walks split nodes; two equal giant balls among them keep
    every node on their paths from pruning by its greatest radius; leaves
    hold several balls, concentric ones and ones whose centers lie apart by
    less than the deepest cell; and some balls reach outside the cube.  The
    balls may overlap: the walks' answers are defined on any balls."""
    top = int(1 / _UNIT)
    deepest = max_level_for_dim(dim)
    n_small = EXACT_FINISH_COUNT + 64
    centers = list(_UNIT * rng.integers(0, top, size=(n_small, dim)))
    radii = list(_UNIT / 4 * rng.integers(0, 2, size=n_small))
    out = []

    def add(c, r, surface_axis=None):
        centers.append(np.asarray(c, dtype=np.float64))
        radii.append(r)
        if surface_axis is not None:  # the surface point outward on that axis
            p = centers[-1].copy()
            p[surface_axis] += r if p[surface_axis] + r >= 1.0 else -r
            out.append(p)

    for _ in range(2):
        c = _UNIT * rng.integers(0, top, size=dim)
        j = int(rng.integers(dim))
        c[j] = float(rng.choice([0.125, 0.875]))
        add(c, 0.375, j)
    for b in rng.integers(n_small, size=3).tolist():
        add(centers[b], _UNIT)  # concentric
        add(centers[b], 2 * _UNIT)
        nudged = centers[b].copy()
        nudged[0] += 2.0 ** -(deepest + 1)  # a different point in the same deepest cell
        add(nudged, 0.0)
    for _ in range(4):
        j = int(rng.integers(dim))
        c = _UNIT * rng.integers(0, top, size=dim)
        a = int(rng.integers(1, 4))
        c[j] = _UNIT * a if rng.random() < 0.5 else 1.0 - _UNIT * a
        add(c, _UNIT * 4, j)
    inst = normalize(generate_instance(0, dim, 2), 0.5)
    return Registry(replace(inst, centers=np.array(centers), radii=np.array(radii))), out


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_walks_match_brute_force_at_edges(dim, seed):
    """The walks against brute force on the edge inputs and on the crowded
    ones, at floors that include the largest diameter, so that ties count
    as large, and from points on ball surfaces outside the cube."""
    rng = np.random.default_rng(seed)
    crowded, outside = _crowded_registry(rng, dim)
    for reg, extra in ((_edge_registry(rng, dim), []), (crowded, outside)):
        assert all(not np.all((q >= 0.0) & (q < 1.0)) for q in extra)
        assert all(reg.balls_containing_point(q).size for q in extra)
        _check_walks(rng, reg, _edge_queries(rng, reg) + extra)


def _check_walks(rng, reg: Registry, queries) -> None:
    balls = reg.instance.balls
    largest = float(2.0 * reg.radii.max())
    for q in queries:
        # Brute force over all balls with the package's one ball distance;
        # the radii below include exact tangencies.
        d_balls = ball_distances(q, reg.centers, reg.radii)
        assert reg.balls_containing_point(q).tolist() == np.flatnonzero(d_balls == 0.0).tolist()
        radii = [0.0, _UNIT * int(rng.integers(1, 64)), float(rng.choice(d_balls)), float(rng.random())]
        for radius in radii:
            floors = (0.0, balls[int(rng.integers(reg.n))].diameter, _UNIT * int(rng.integers(1, 8)), largest)
            for min_diameter in floors:
                got = reg.large_balls_intersecting(q, radius, min_diameter)
                want = np.flatnonzero((2.0 * reg.radii >= min_diameter) & (d_balls <= radius))
                assert got.tolist() == want.tolist()
            for delta in (1.0, 0.5, 0.25):
                approx = reg.approx_ball_count(q, delta, radius)
                assert exact_counts(reg.instance, q, radius)[0] <= approx
                assert approx <= exact_counts(reg.instance, q, (1.0 + delta) * radius)[0]


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


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_certified_exit_answers_d_k_zero(dim, seed):
    """On the edge inputs, at points inside each ball (k = 1) and at the
    tangent point of each pair of balls tangent along one axis (k = 2), the
    oracle's d_k is 0, the certified exit answers with a ball that contains
    q, and knn.query answers it at distance 0 with the interval (0, 0)."""
    rng = np.random.default_rng(seed)
    reg = _edge_registry(rng, dim)
    c, r = reg.centers, reg.radii
    rows = []
    for b in range(reg.n):
        q = c[b].copy()
        q[int(rng.integers(dim))] += r[b] * float(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0]))
        rows.append((q, 1))
    gap = c[:, None, :] - c[None, :, :]
    tangent = ((gap != 0.0).sum(axis=2) == 1) & (np.abs(gap).sum(axis=2) == r[:, None] + r[None, :])
    for i, j in zip(*np.nonzero(np.triu(tangent))):
        q = c[i].copy()
        q[gap[j, i] != 0.0] += np.sign(gap[j, i][gap[j, i] != 0.0]) * r[i]
        rows.append((q, 2))
    assert len(rows) > reg.n  # the edge inputs hold tangent pairs
    for q, k in rows:
        assert exact_kth_distance(reg.instance, q, k).value == 0.0
        for eps in (0.5, 0.1, 0.01):
            wid = reg.certified_kth_ball(q, k, eps)
            assert wid >= 0 and ball_distance(q.tolist(), c[wid].tolist(), float(r[wid])) == 0.0
            ans = knn.query(reg, q, k, eps)
            assert (ans.ball_id, ans.distance, ans.certified_interval) == (wid, 0.0, (0.0, 0.0))


def _root_box_queries(rng, reg: Registry) -> list[np.ndarray]:
    """Points up to 10^3 outside the cube, and on the faces and at the
    corners of the root's box of centers and of the box of all balls."""
    dim, out = reg.dim, []
    for scale in (1.0, 10.0, 100.0, 1000.0):
        u = rng.normal(size=dim)
        out.append(0.5 + scale * u / np.linalg.norm(u))
    low, high, _, rmax = _node_rows(reg, reg._table[:, :1])
    low, high, r = low[0], high[0], rmax[0]
    for lo, hi in ((low, high), (low - r, high + r)):
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
    _ball_bounds_of bit for bit; where the far rule holds, the exit answers
    with the root's smallest ball id, and knn.query's answer lies in the
    oracle window."""
    rng = np.random.default_rng(seed)
    reg = _edge_registry(rng, dim)
    root = np.zeros(1, dtype=np.int64)
    far_rule = 0
    for q in _edge_queries(rng, reg) + _root_box_queries(rng, reg):
        lo, hi = reg._root_bounds(q.tolist())
        want = _bounds(reg, root, q).ravel()
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


@given(st.integers(1, 5), st.integers(1, 24), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_far_rule_helpers_equal_the_registry_root_round(dim, n, seed):
    """root_column, root_bounds and far_rule, which the cell index runs on
    its instance for points outside the cube, equal the registry's root
    round bit for bit: the column is the node table's root column, the
    bounds are the root's _ball_bounds_of and Registry._root_bounds, and
    the rule holds exactly when the array round's sure test holds on the
    root, and then the exit answers with ball 0.  The balls sit on a coarse
    dyadic grid, with coincident centers and tied radii (0 among them),
    and the points lie on the faces and corners of the root's box, on the
    grid and far outside the cube."""
    rng = np.random.default_rng(seed)
    centers = rng.integers(0, 8, size=(n, dim)) / 8.0
    centers[rng.integers(n, size=n // 2)] = centers[0]  # coincident centers
    radii = rng.choice([0.0, 1.0 / 64, 1.0 / 32], size=n)
    inst = normalize(generate_instance(0, dim, 2), 0.5)
    reg = Registry(replace(inst, centers=centers, radii=radii))
    low, high, rmax, rmin = registry_module.root_column(reg.instance.centers, reg.instance.radii)
    d = reg.dim
    column = np.array(low + [-x for x in high] + [rmax, rmin])
    assert column.tobytes() == reg._table[:, 0].tobytes()
    assert (low, high, rmax, rmin) == (reg._root_lo, reg._root_hi, reg._root_rmax, reg._root_rmin)
    root = np.zeros(1, dtype=np.int64)
    points = _root_box_queries(rng, reg)
    points += [rng.integers(-8, 16, size=d) / 8.0 for _ in range(6)]
    hits = 0
    for q in points:
        bounds = registry_module.root_bounds(low, high, rmax, rmin, q.tolist())
        want = _bounds(reg, root, q).ravel()
        assert np.array(bounds).tobytes() == want.tobytes()
        assert bounds == reg._root_bounds(q.tolist())
        lo, hi = want.tolist()
        for eps in (0.5, 0.1, 0.01):
            rule = registry_module.far_rule(*bounds, eps)
            assert rule == bool((lo >= (1.0 - eps) * hi) and (hi <= (1.0 + eps) * lo))
            if rule:
                hits += 1
                for k in sorted({1, reg.n}):
                    assert reg.certified_kth_ball(q, k, eps) == 0
                    assert knn.query(reg, q, k, eps).ball_id == 0
    assert hits >= 1


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
    """Rows the walk tests per call, at n = 1,024 and 16,384: node boxes
    (_box_dists) and candidate balls (ball_distances), in approx_ball_count
    and in large_balls_intersecting at the floor delta x / 2, at probe radii
    x holding a fixed number of centers, from points among the balls."""
    rows = {"approx_ball_count": 0, "large_balls_intersecting": 0}
    current = [None]

    def counted(test, rows_of):
        def run(*args):
            if current[0] is not None:
                rows[current[0]] += rows_of(args)
            return test(*args)

        return run

    def attributed(name):
        walk = getattr(Registry, name)

        def run(self, *args):
            outer, current[0] = current[0], name
            try:
                return walk(self, *args)
            finally:
                current[0] = outer

        return run

    # _box_dists takes one column per box, ball_distances one row per ball.
    monkeypatch.setattr(registry_module, "_box_dists", counted(registry_module._box_dists, lambda a: a[0].shape[1]))
    monkeypatch.setattr(registry_module, "ball_distances", counted(registry_module.ball_distances, lambda a: len(a[1])))
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
            delta = (1.0, 0.5, 0.25)[i % 3]
            reg.approx_ball_count(q, delta, x)
            reg.large_balls_intersecting(q, x, delta * x / 2.0)
        per_call[n] = {name: count / probes for name, count in rows.items()}
    for name in rows:
        assert per_call[1024][name] >= 1.0
        assert per_call[16384][name] <= 2.0 * per_call[1024][name], (name, per_call)


@pytest.mark.parametrize("dim", [2, 3])
def test_ball_count_sandwich_at_scale(dim):
    """approx_ball_count at n = 4,096, where its walk takes nodes whole,
    drops them and splits them, with three giant balls among the small
    ones: N(x) <= N <= N((1 + delta) x) and N(x / (1 + delta)) <= N(x),
    for delta in {1, 0.5, 0.25, 0.05}, at k-th center distances and at
    ball distances."""
    rng = np.random.default_rng(40 + dim)
    small = _cell_instance(rng, dim, 4096, clustered=dim == 3)
    giants = rng.uniform(0.25, 0.75, size=(3, dim))
    reg = Registry(
        replace(small, centers=np.vstack([small.centers, giants]), radii=np.append(small.radii, [0.05, 0.1, 0.2]))
    )
    lo, hi = reg.centers.min(axis=0), reg.centers.max(axis=0)
    whole = 0
    for _ in range(40):
        q = rng.uniform(lo - 0.05, hi + 0.05)
        got = reg.approx_kth_center_distances(q, [1, 16, 256, 2048])
        xs = list(got.values()) + [float(rng.choice(ball_distances(q, reg.centers, reg.radii)))]
        for x in xs:
            for delta in (1.0, 0.5, 0.25, 0.05):
                count = reg.approx_ball_count(q, delta, x)
                assert exact_counts(reg.instance, q, x)[0] <= count
                assert count <= exact_counts(reg.instance, q, (1.0 + delta) * x)[0]
                assert reg.approx_ball_count(q, delta, x / (1.0 + delta)) <= count
                whole += reg._walk(q, x, 0.0, (1.0 + delta) * x)[0].size > 0
    assert whole > 0  # some count took nodes whole


@pytest.mark.parametrize("dim, clustered", [(2, False), (3, True)])
def test_exit_frontier_grows_slowly_with_n(dim, clustered, monkeypatch):
    """Frontier nodes the certified exit bounds per query at n = 1,024 and
    16,384, from points among the balls: the root, bounded by _box_dist,
    and the columns of _box_dists.  They grow far slower than n, and the exit
    answers nearly every query."""
    rows = [0]

    def counted_one(low, high, q):
        rows[0] += 1
        return box_dist(low, high, q)

    def counted(boxes, qq):
        rows[0] += boxes.shape[1]
        return box_dists(boxes, qq)

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


# -- the exit's stored cut -------------------------------------------------------------


def _check_cut(reg: Registry) -> None:
    """The exit's stored cut against its definition: the non-root nodes
    that hold at most m centers or are leaves and whose parent is the root
    or holds more than m, at m = n // 32 (at least 1), doubled while that
    cut holds more than EXACT_FINISH_COUNT nodes and m < n.  No cut node is
    an ancestor of another, and their runs of point_perm hold every id
    once."""
    t = reg.centers_tree
    cnt = (t.span_hi - t.span_lo).tolist()
    parent = t.parent.tolist()
    leaf = (t.child_off[1:] == t.child_off[:-1]).tolist()
    cut = reg._cut.tolist()

    def cut_at(m):
        return [v for v in range(1, t.size) if (cnt[v] <= m or leaf[v]) and (parent[v] == 0 or cnt[parent[v]] > m)]

    m = max(1, reg.n // 32)
    want = cut_at(m)
    while len(want) > EXACT_FINISH_COUNT and m < reg.n:
        m *= 2
        want = cut_at(m)
    assert cut == want
    members = set(cut)
    for v in cut:
        u = parent[v]
        while u > 0:
            assert u not in members, (u, v)
            u = parent[u]
    ids = np.concatenate([t.point_perm[t.span_lo[v] : t.span_hi[v]] for v in cut])
    assert np.array_equal(np.sort(ids), np.arange(reg.n))
    assert reg._cut_cnt.tolist() == [cnt[v] for v in cut]


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_exit_cut_matches_its_definition_at_edges(dim, seed):
    _check_cut(_edge_registry(np.random.default_rng(seed), dim))


@pytest.mark.parametrize("dim, clustered", [(2, False), (3, True)])
def test_exit_cut_matches_its_definition_at_scale(dim, clustered):
    """At n = 4,096 the cut lies below the root's children: m = 128."""
    reg = build_registry(_cell_instance(np.random.default_rng(dim), dim, 4096, clustered))
    _check_cut(reg)
    assert reg._cut.size > 2**dim and reg._cut_cnt.max() > 1


def test_exit_cut_stays_under_the_frontier_cap_at_d5():
    """At d = 5, n = 4,096 the cut at m = n // 32 holds more nodes than a
    frontier may keep, so m doubles: the stored cut holds at most
    EXACT_FINISH_COUNT nodes.  On points among the balls, with k and eps
    cycled, the exit answers most queries and every answer lies in the
    oracle window."""
    rng = np.random.default_rng(5)
    reg = build_registry(_cell_instance(rng, 5, 4096, clustered=False))
    _check_cut(reg)
    assert registry_module._exit_cut(reg.centers_tree, reg.n // 32).size > EXACT_FINISH_COUNT
    assert reg._cut.size <= EXACT_FINISH_COUNT
    lo, hi = reg.centers.min(axis=0), reg.centers.max(axis=0)
    answered = 0
    for i in range(300):
        q = rng.uniform(lo, hi)
        k, eps = (1, 4, 64, 256, 1024)[i % 5], (0.1, 0.25, 0.5)[i % 3]
        wid = reg.certified_kth_ball(q, k, eps)
        if wid < 0:
            continue
        answered += 1
        truth = exact_kth_distance(reg.instance, q, k).value
        w = ball_distance(q.tolist(), reg.centers[wid].tolist(), float(reg.radii[wid]))
        assert (1.0 - eps) * truth <= w <= (1.0 + eps) * truth
    assert answered >= 240


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_one_ball_exit_cut_is_the_roots_children(dim):
    """With one ball (n <= m) the cut is the root's children, and the exit
    answers with the ball from outside it and inside it (d_1 = 0)."""
    inst = normalize([Ball((0.5,) * dim, 0.125)], 0.5)
    reg = build_registry(inst)
    _check_cut(reg)
    assert reg._cut.tolist() == reg.centers_tree.children(0).tolist()
    c, r = reg.centers[0], float(reg.radii[0])
    surface = c.copy()
    surface[0] += r
    for q, want in ((c, 0), (surface, 0), (c + 2.0 * r, 0), (np.full(dim, -3.0), 0), (np.full(dim, 1e3), 0)):
        for eps in (0.5, 0.1, 0.01):
            assert reg.certified_kth_ball(q, 1, eps) == want


def test_root_only_tree_answers_through_the_two_stages():
    """At d >= 64 no grid level fits a key (max_level_for_dim(d) == 0), so
    the centers tree is the root alone: the root does not split, the stored
    cut is empty, and every query the root round cannot certify goes to the
    two stages.  Every answer lies in the oracle window with an interval
    around d_k."""
    dim = 64
    assert max_level_for_dim(dim) == 0
    reg = build_registry(normalize(generate_instance(7, dim, 40), 0.5))
    assert reg.centers_tree.size == 1 and not reg._root_splits
    assert reg._cut.size == 0
    rng = np.random.default_rng(64)
    declined = 0
    for k in (1, 5, 40):
        for eps in (0.5, 0.1):
            for i in range(8):
                q = reg.centers[i] if i % 2 else rng.random(dim)
                ans = knn.query(reg, q, k, eps)
                truth = exact_kth_distance(reg.instance, q, k).value
                assert (1.0 - eps) * truth <= ans.distance <= (1.0 + eps) * truth
                assert ans.certified_interval[0] <= truth <= ans.certified_interval[1]
                if reg.certified_kth_ball(q, k, eps) < 0:
                    declined += 1
                    assert ans == knn.two_stage_query(reg, q, k, eps)
    assert declined > 0


def _check_cut_round(rng, reg: Registry) -> None:
    """The cut's stored columns are its columns of the node table, and the
    exit's first array round, on them, bounds the cut as _ball_bounds_of
    does on the table, bit for bit, with the cut's center counts, from the
    edge queries and the points on and far outside the box of all balls.
    The rank kernel (_kth_bounds) records the first round: it runs exactly
    when the root round passes a query on, and it runs for some query."""
    cut = reg._cut
    assert reg._cut_table.tobytes() == reg._table[:, cut].tobytes()
    counts = (reg.centers_tree.span_hi - reg.centers_tree.span_lo)[cut].tolist()
    first = []
    kth_bounds = registry_module._kth_bounds

    def recorded(b, cnt, ks):
        first.append((b.copy(), cnt.copy()))
        return kth_bounds(b, cnt, ks)

    passed_on = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(registry_module, "_kth_bounds", recorded)
        for q in _edge_queries(rng, reg) + _root_box_queries(rng, reg):
            want = _bounds(reg, cut, q).tobytes()
            low, high = reg._root_bounds(q.tolist())
            for k in sorted({1, (reg.n + 1) // 2, reg.n}):
                for eps in (0.5, 0.1, 0.01):
                    first.clear()
                    reg.certified_kth_ball(q, k, eps)
                    far_rule = low >= (1.0 - eps) * high and high <= (1.0 + eps) * low
                    on = high > 0.0 and not far_rule and low < high and reg._root_splits
                    assert bool(first) == on
                    if on:
                        passed_on += 1
                        b, cnt = first[0]
                        assert b.tobytes() == want
                        assert cnt.tolist() == counts
    assert passed_on > 0


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_cut_round_bounds_are_exact_at_edges(dim, seed):
    rng = np.random.default_rng(seed)
    _check_cut_round(rng, _edge_registry(rng, dim))


@pytest.mark.parametrize("dim, clustered", [(2, False), (3, True)])
def test_cut_round_bounds_are_exact_at_scale(dim, clustered):
    rng = np.random.default_rng(90 + dim)
    _check_cut_round(rng, build_registry(_cell_instance(rng, dim, 4096, clustered)))


def _ball_bounds_of_rows(low, high, rmin, rmax, q):
    """The row-major bounds the fused kernel replaced, as reference: per
    row, the near and far distance of the box with the squares summed over
    the axes in order, less rmax and rmin, clipped at 0 and padded."""
    below = low - q
    above = q - high
    near = np.maximum(below, above)
    np.maximum(near, 0.0, out=near)
    far = np.minimum(below, above)
    near *= near
    far *= far
    near_sum, far_sum = near[:, 0], far[:, 0]
    for j in range(1, low.shape[1]):
        near_sum = near_sum + near[:, j]
        far_sum = far_sum + far[:, j]
    margin = registry_module.WALK_MARGIN
    lo = np.maximum(np.sqrt(near_sum) - rmax, 0.0) * (1.0 - margin)
    hi = np.maximum(np.sqrt(far_sum) - rmin, 0.0) * (1.0 + margin)
    return lo, hi


def _tied_frontier(rng, dim: int, m: int):
    """m node columns of a node table on a coarse dyadic grid, so that
    boxes coincide, touch and share faces, bounds tie and many lower bounds
    are 0 (radii up to the grid's size), and the query points: on box
    faces and corners, inside boxes, on the grid and far outside the
    cube."""
    step = 0.125
    low = step * rng.integers(0, 8, size=(m, dim))
    high = low + step * rng.integers(0, 3, size=(m, dim))
    for i in range(1, m):
        j = int(rng.integers(i))
        kind = int(rng.integers(4))
        if kind == 0:  # coincident with an earlier box
            low[i], high[i] = low[j], high[j]
        elif kind == 1:  # tangent to an earlier box on one axis
            a = int(rng.integers(dim))
            low[i, a] = high[j, a]
            high[i, a] = max(high[i, a], low[i, a])
    rmin = step / 4 * rng.integers(0, 3, size=m)
    rmax = rmin + step * rng.integers(0, 9, size=m)
    queries = []
    for i in rng.integers(m, size=4).tolist():
        on_face = rng.uniform(low[i], high[i])
        a = int(rng.integers(dim))
        on_face[a] = (low[i] if rng.random() < 0.5 else high[i])[a]
        queries += [on_face, low[i].copy(), (low[i] + high[i]) / 2]
    queries.append(step * rng.integers(-2, 11, size=dim))
    for scale in (10.0, 1e3):
        u = rng.normal(size=dim)
        queries.append(0.5 + scale * u / np.linalg.norm(u))
    return low, high, rmin, rmax, queries


@given(st.integers(1, 5), st.integers(1, 40), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_fused_exit_kernel_matches_row_reference(dim, m, seed):
    """The exit's fused kernel against the row-major operations it
    replaced.  _ball_bounds_of on the node table's columns (low corners,
    negated high corners, rmax, rmin) equals the row reference bit for bit,
    and _kth_bounds, one unstable argsort of both rows, gives for every k
    from 1 to the total count the same L and H as two stable argsorts and a
    search of each cumsum, one k at a time and all ks at once, on frontiers
    heavy in ties and in lower bounds of 0."""
    rng = np.random.default_rng(seed)
    low, high, rmin, rmax, queries = _tied_frontier(rng, dim, m)
    cols = np.concatenate([low.T, -high.T, rmax[None], rmin[None]])
    cnt = rng.integers(1, 4, size=m)
    ks = np.arange(1, cnt.sum() + 1)
    zeros = 0
    for q in queries:
        b = registry_module._ball_bounds_of(cols, registry_module._column(q.tolist()))
        lo, hi = _ball_bounds_of_rows(low, high, rmin, rmax, q)
        assert b.shape == (2, m)
        assert b[0].tobytes() == lo.tobytes() and b[1].tobytes() == hi.tobytes()
        zeros += int(np.count_nonzero(lo == 0.0))
        o_lo, o_hi = lo.argsort(kind="stable"), hi.argsort(kind="stable")
        want_lo = lo[o_lo[cnt[o_lo].cumsum().searchsorted(ks)]]
        want_hi = hi[o_hi[cnt[o_hi].cumsum().searchsorted(ks)]]
        got_lo, got_hi = registry_module._kth_bounds(b, cnt, ks)
        assert got_lo.tobytes() == want_lo.tobytes() and got_hi.tobytes() == want_hi.tobytes()
        for k in ks.tolist():
            one_lo, one_hi = registry_module._kth_bounds(b, cnt, k)
            assert (one_lo, one_hi) == (want_lo[k - 1], want_hi[k - 1])
    assert zeros > 0


@pytest.mark.parametrize("dim, clustered", [(2, False), (3, True)])
def test_exit_through_a_deep_cut_matches_oracle(dim, clustered):
    """knn.query at n = 4,096, where the exit's array rounds start below the
    root's children, from points on ball surfaces, on dyadic faces, up to
    10^3 outside the cube and on the box of all balls: every answer lies in
    the oracle window with an interval around d_k, and where the exit
    declines the answer is the two stages' one, bit for bit.  Some answers
    come from the cut's rounds, not the root's far rule."""
    rng = np.random.default_rng(80 + dim)
    reg = build_registry(_cell_instance(rng, dim, 4096, clustered))
    assert reg._cut_cnt.max() > 1
    through_cut = 0
    for q in _edge_queries(rng, reg) + _root_box_queries(rng, reg):
        d_balls = ball_distances(q, reg.centers, reg.radii)
        low, high = reg._root_bounds(q.tolist())
        for k in (1, 4, 64, reg.n // 2, reg.n):
            truth = exact_kth_distance(reg.instance, q, k).value
            for eps in (0.5, 0.1, 0.01):
                ans = knn.query(reg, q, k, eps)
                assert (1.0 - eps) * truth <= ans.distance <= (1.0 + eps) * truth
                lo, hi = ans.certified_interval
                assert lo <= truth <= hi
                assert ans.distance == d_balls[ans.ball_id]
                wid = reg.certified_kth_ball(q, k, eps)
                if wid < 0:
                    two = knn.two_stage_query(reg, q, k, eps)
                    assert (ans.ball_id, ans.distance, ans.certified_interval) == (
                        two.ball_id, two.distance, two.certified_interval,
                    )
                else:
                    assert ans.ball_id == wid
                    through_cut += not (high > 0.0 and low >= (1.0 - eps) * high and high <= (1.0 + eps) * low)
    assert through_cut > 0


def test_d5_registry_answers_in_the_oracle_window():
    """A uniform d=5 registry of n = 4,096 balls, which the centers tree
    alone serves: knn.query, by the certified exit where it answers, and
    the two stages, whose retrieval and containment walk the same tree,
    both answer inside the oracle window."""
    rng = np.random.default_rng(5)
    reg = build_registry(_cell_instance(rng, 5, 4096, clustered=False))
    assert reg.stats["ball_tree_nodes"] == 0
    lo, hi = reg.centers.min(axis=0), reg.centers.max(axis=0)
    for i in range(60):
        q = rng.uniform(lo, hi) if i % 3 else rng.uniform(-0.5, 1.5, size=5)
        k, eps = (1, 4, 32, 256, 4096)[i % 5], (0.5, 0.1)[i % 2]
        truth = exact_kth_distance(reg.instance, q, k).value
        for ans in (knn.query(reg, q, k, eps), knn.two_stage_query(reg, q, k, eps)):
            assert (1.0 - eps) * truth <= ans.distance <= (1.0 + eps) * truth
            assert ans.certified_interval[0] <= truth <= ans.certified_interval[1]
