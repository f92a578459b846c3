"""Ball registration structure over compressed quadtrees.

Two trees share the work: `ball_tree` stores the grid cells every ball
registers to (plus ancestors closing the tree), `centers_tree` stores the
ball centers as points.  On top of them sit the four query primitives:

  * exact retrieval of balls intersecting a region with a diameter floor,
  * 2-approximate k-th nearest center distance,
  * the ids of the centers whose grid cell meets a query ball, which both
    the approximate ball count and the eps refinement of `knn` build on,
  * the delta-monotone approximate count of balls meeting a query ball.

Everything here works in normalized coordinates; the structure is immutable
once built and all queries are pure.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .geometry import (
    Ball,
    InputError,
    InternalInvariantError,
    NormalizedInstance,
    _extent_of,
    dist_points_balls,
    enumerate_grid_cells_ball,
    enumerate_grid_cells_box,
    grid_coords,
    grid_footprint,
    grid_level_for_diameter,
    max_level_for_dim,
)
from .quadtree import (
    CompressedQuadtree,
    build_from_cubes,
    build_from_points,
    concat_ranges,
    morton_encode,
)

# Not used by the build; bound here because perfbench/tracing.py wraps these names.
from .geometry import grid_approx  # noqa: F401
from .quadtree import cube_to_key  # noqa: F401

# Grid footprints (see geometry.grid_footprint) above which enumerating the
# cells would cost more than a linear scan over all balls, so the scan runs
# instead (results are identical either way).
DENSE_CELL_CAP = 4096
RETRIEVAL_CELL_CAP = 65536

# Exact-finish threshold for the k-th center distance frontier.
EXACT_FINISH_COUNT = 256
FRONTIER_MAX_ROUNDS = 400


class Registry:
    """Frozen registration structure; build via `build_registry`."""

    def __init__(self, instance: NormalizedInstance) -> None:
        self.instance = instance
        self.dim = instance.dimension
        self.n = len(instance.balls)
        self.centers = instance.centers_array()
        self.radii = instance.radii_array()
        self.c_d = instance.c_d
        t0 = time.perf_counter()

        # (1) Registration cells: the cells of grid_approx(b, 1) for every
        # ball b, as Morton keys, all on the ball's own level reg_level[b].
        self.reg_level, reg_z, reg_ball = self._registration_cells()
        reg_lv = self.reg_level[reg_ball]
        t1 = time.perf_counter()

        # (2) Ball tree over the registration cells, and the registered lists
        # in CSR form indexed by ball_tree node, ball ids ascending per node.
        self.ball_tree = build_from_cubes((reg_z, reg_lv, self.dim))
        node_of_cube = self.ball_tree.find_keys(reg_z, reg_lv)
        if node_of_cube.size and node_of_cube.min() < 0:
            raise InternalInvariantError("a registration cell is missing from the tree")
        self._reg_sorted_ids = reg_ball[np.lexsort((reg_ball, node_of_cube))]
        counts = np.bincount(node_of_cube, minlength=self.ball_tree.size)
        self._reg_off = np.zeros(self.ball_tree.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self._reg_off[1:])
        t2 = time.perf_counter()

        # (3) Associated lists, with the per-node cube geometry they are
        # filtered by (kept for the exact filters of the queries too).
        self._node_lo, self._node_side = self._node_boxes(self.ball_tree)
        self._assoc_off, self._assoc_ids = self._associated_lists()
        t3 = time.perf_counter()

        # (4) Centers tree with exact subtree counts and witnesses.
        self.centers_tree = build_from_points(self.centers, dim=self.dim)
        t4 = time.perf_counter()

        lens = np.diff(self._assoc_off)
        self.stats = {
            "n": self.n,
            "dim": self.dim,
            "ball_tree_nodes": self.ball_tree.size,
            "centers_tree_nodes": self.centers_tree.size,
            "registration_entries": int(self._reg_off[-1]),
            "max_associated_len": int(lens.max()) if lens.size else 0,
            "registration_s": t1 - t0,
            "ball_tree_s": t2 - t1,
            "associated_s": t3 - t2,
            "centers_tree_s": t4 - t3,
            "build_seconds": t4 - t0,
        }

    def _registration_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(level per ball, key z per cell, ball per cell) of the registration.

        Ball b registers to the cells of grid_approx(b, 1): the cells of one
        level that its closed body meets, or, when its radius is 0, the
        deepest cell holding its center.
        """
        d = self.dim
        deepest = max_level_for_dim(d)
        top = 1 << deepest
        levels = np.empty(self.n, dtype=np.int64)
        parts: list[np.ndarray] = []
        for i, b in enumerate(self.instance.balls):
            if b.radius == 0.0:
                p = np.clip(self.centers[i], 0.0, math.nextafter(1.0, 0.0))
                levels[i] = deepest
                parts.append(np.minimum(np.floor(p * top), top - 1).astype(np.int64)[None])
                continue
            levels[i], _ = grid_level_for_diameter(b.diameter, 1.0, d)
            coords = enumerate_grid_cells_ball(b.center, b.radius, int(levels[i]))
            if coords.shape[0] == 0:
                raise InternalInvariantError(f"ball {i} has no registration cell")
            parts.append(coords)
        sizes = np.array([c.shape[0] for c in parts], dtype=np.int64)
        coords = np.concatenate(parts) if parts else np.empty((0, d), dtype=np.int64)
        ball = np.repeat(np.arange(self.n, dtype=np.int64), sizes)
        cell_level = levels[ball]
        z = np.empty(ball.size, dtype=np.int64)
        for lev in np.unique(cell_level):
            mask = cell_level == lev
            z[mask] = morton_encode(coords[mask], int(lev), d)
        return levels, z, ball

    def _associated_lists(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (offsets, ids) of each node's associated list.

        A node's list holds the balls that meet its closed cell and are at
        least as coarse (registration level <= node level).  One top-down
        pass is exact: a qualifying ball either qualified at the parent or is
        registered right here (its registration cell would otherwise be a
        stored node strictly between parent and child, contradicting the
        compressed parent relation).  The pass runs one tree layer at a time:
        every node of a layer tests its parent's list followed by its own
        registered ids, and keeps the survivors in that order.
        """
        tree = self.ball_tree
        lens = np.zeros(tree.size, dtype=np.int64)
        pos = np.zeros(tree.size, dtype=np.int64)  # node -> index in its layer
        layers: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        nodes = np.zeros(1, dtype=np.int64)
        prev_off = np.zeros(1, dtype=np.int64)
        prev_ids = np.empty(0, dtype=np.int64)
        while nodes.size:
            width = np.arange(nodes.size, dtype=np.int64)
            if layers:
                up = pos[tree.parent[nodes]]
                par_len = prev_off[up + 1] - prev_off[up]
                par_ids = prev_ids[concat_ranges(prev_off[up], par_len)]
            else:
                par_len = np.zeros(1, dtype=np.int64)
                par_ids = prev_ids
            reg_len = self._reg_off[nodes + 1] - self._reg_off[nodes]
            reg_ids = self._reg_sorted_ids[concat_ranges(self._reg_off[nodes], reg_len)]
            tot = par_len + reg_len
            start = np.cumsum(tot) - tot
            cand = np.empty(int(tot.sum()), dtype=np.int64)
            cand[concat_ranges(start, par_len)] = par_ids
            cand[concat_ranges(start + par_len, reg_len)] = reg_ids
            row = np.repeat(width, tot)
            lo = self._node_lo[nodes[row]]
            hi = lo + self._node_side[nodes[row], None]
            c = self.centers[cand]
            gap = np.maximum(lo - c, 0.0) + np.maximum(c - hi, 0.0)
            keep = np.einsum("ij,ij->i", gap, gap) <= self.radii[cand] ** 2
            prev_ids = cand[keep]
            kept = np.bincount(row[keep], minlength=nodes.size)
            prev_off = np.zeros(nodes.size + 1, dtype=np.int64)
            np.cumsum(kept, out=prev_off[1:])
            lens[nodes] = kept
            pos[nodes] = width
            layers.append((nodes, kept, prev_ids))
            nodes = tree.child_idx[
                concat_ranges(tree.child_off[nodes], tree.child_off[nodes + 1] - tree.child_off[nodes])
            ]
        off = np.zeros(tree.size + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        ids = np.empty(int(off[-1]), dtype=np.int64)
        for nodes, kept, layer_ids in layers:
            ids[concat_ranges(off[nodes], kept)] = layer_ids
        return off, ids

    # -- side-table access ---------------------------------------------------

    def registered_ids(self, node: int) -> np.ndarray:
        return self._reg_sorted_ids[self._reg_off[node] : self._reg_off[node + 1]]

    def associated_ids(self, node: int) -> np.ndarray:
        return self._assoc_ids[self._assoc_off[node] : self._assoc_off[node + 1]]

    @staticmethod
    def _node_boxes(tree: CompressedQuadtree) -> tuple[np.ndarray, np.ndarray]:
        from .quadtree import morton_decode

        lo = np.empty((tree.size, tree.dim), dtype=np.float64)
        side = 2.0 ** (-tree.level.astype(np.float64))
        for lev in np.unique(tree.level):
            mask = tree.level == lev
            coords = morton_decode(tree.z[mask], int(lev), tree.dim)
            lo[mask] = coords * (2.0 ** (-int(lev)))
        return lo, side

    # -- exact large-ball retrieval -------------------------------------------

    def large_balls_intersecting(
        self, X, delta: float | None = None, *, min_diameter: float | None = None
    ) -> np.ndarray:
        """Ids of balls intersecting X whose diameter is >= the floor (exact).

        The floor is delta * diam(X), or `min_diameter` directly.  Ties count
        as large.  X may be a Ball, a CanonicalCube, or a (lo, hi) box.
        """
        if (delta is None) == (min_diameter is None):
            raise InputError("pass exactly one of delta or min_diameter")
        ref, diam_x, kind = _extent_of(X)
        if min_diameter is None:
            if not (0.0 < delta <= 1.0):
                raise InputError(f"delta must lie in (0, 1], got {delta}")
            min_diameter = delta * diam_x
        cand = self._large_candidates(X, ref, kind, float(min_diameter))
        if cand.size == 0:
            return cand
        keep = 2.0 * self.radii[cand] >= min_diameter
        cand = cand[keep]
        return np.sort(cand[self._intersects_mask(X, kind, cand)])

    def _intersects_mask(self, X, kind: str, ids: np.ndarray) -> np.ndarray:
        c = self.centers[ids]
        r = self.radii[ids]
        if kind == "ball":
            return dist_points_balls(X.center, c, r) <= X.radius
        if kind == "cube":
            lo = np.asarray(X.low)
            hi = np.asarray(X.high)
        else:
            lo = np.asarray(X[0], dtype=np.float64)
            hi = np.asarray(X[1], dtype=np.float64)
        gap = np.maximum(lo - c, 0.0) + np.maximum(c - hi, 0.0)
        return np.einsum("ij,ij->i", gap, gap) <= r * r

    def _large_candidates(
        self, X, ref, kind: str, min_diameter: float
    ) -> np.ndarray:
        """Superset of qualifying balls; grid path when cheap, else all ids."""
        everything = np.arange(self.n, dtype=np.int64)
        if min_diameter <= 0.0:
            return everything
        level, clamped = grid_level_for_diameter(min_diameter, 1.0, self.dim)
        if clamped:
            return everything
        if kind == "ball":
            lo_box = np.asarray(X.center, dtype=np.float64) - X.radius
            hi_box = np.asarray(X.center, dtype=np.float64) + X.radius
        elif kind == "cube":
            lo_box = np.asarray(X.low, dtype=np.float64)
            hi_box = np.asarray(X.high, dtype=np.float64)
        else:
            lo_box = np.asarray(X[0], dtype=np.float64)
            hi_box = np.asarray(X[1], dtype=np.float64)
        if grid_footprint(lo_box, hi_box, level) > RETRIEVAL_CELL_CAP:
            return everything
        if kind == "ball":
            coords = enumerate_grid_cells_ball(X.center, X.radius, level)
        else:
            coords = enumerate_grid_cells_box(lo_box, hi_box, level)
        if coords.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        codes = morton_encode(coords, level, self.dim)
        nodes = self.ball_tree.locate_cells(codes, level)
        nodes = np.unique(np.concatenate([nodes, self.ball_tree.parent[nodes]]))
        nodes = nodes[nodes >= 0]
        parts = [self.associated_ids(int(v)) for v in nodes]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    # -- 2-approximate k-th center distance ------------------------------------

    def approx_kth_center_distance(self, q, k: int) -> float:
        return self.approx_kth_center_distances(q, [k])[int(k)]

    def approx_kth_center_distances(self, q, ks) -> dict[int, float]:
        """Certified values x(k) with d_C(q,k) <= x(k) <= 2 d_C(q,k).

        Frontier refinement over the centers tree: keep an antichain of nodes
        with distance bounds [lo, hi] and exact counts, certify a k once the
        k-th cumulative hi is within twice the k-th cumulative lo, and fall
        back to exact selection over a small candidate set when the frontier
        stops helping (ties, coincident centers, q on a center).
        """
        ks = sorted({int(k) for k in ks})
        if ks[0] < 1:
            raise InputError(f"k must be positive, got {ks[0]}")
        if ks[-1] > self.n:
            raise InputError(f"k={ks[-1]} exceeds the number of balls {self.n}")
        t = self.centers_tree
        qt = tuple(float(v) for v in q)
        root = t.node_cube(0)
        # entry: [node, lo, hi, count, level]
        entries: list[tuple[int, float, float, int, int]] = [
            (0, root.min_dist_to_point(qt), root.max_dist_to_point(qt), self.n, 0)
        ]
        results: dict[int, float] = {}
        pending = set(ks)
        for _ in range(FRONTIER_MAX_ROUNDS):
            lo = np.array([e[1] for e in entries])
            hi = np.array([e[2] for e in entries])
            cnt = np.array([e[3] for e in entries])
            o_lo = np.argsort(lo, kind="stable")
            o_hi = np.argsort(hi, kind="stable")
            cum_lo = np.cumsum(cnt[o_lo])
            cum_hi = np.cumsum(cnt[o_hi])
            t_hi_max = 0.0
            t_lo_min = math.inf
            for k in sorted(pending):
                t_lo = float(lo[o_lo[np.searchsorted(cum_lo, k)]])
                t_hi = float(hi[o_hi[np.searchsorted(cum_hi, k)]])
                if t_hi <= 2.0 * t_lo:
                    results[k] = t_hi
                else:
                    t_hi_max = max(t_hi_max, t_hi)
                    t_lo_min = min(t_lo_min, t_lo)
            pending -= results.keys()
            if not pending:
                return results
            entries = [e for e in entries if e[1] <= t_hi_max]
            active_total = sum(e[3] for e in entries)
            splittable = [
                e for e in entries if e[4] < t.max_level and e[2] > t_lo_min
            ]
            if active_total <= EXACT_FINISH_COUNT or not splittable:
                break
            chosen = {id(e) for e in splittable}
            nxt = [e for e in entries if id(e) not in chosen]
            for e in splittable:
                kids = t.children(e[0])
                csum = 0
                for ci in kids:
                    c = int(ci)
                    m = t.count_in_node(c)
                    csum += m
                    cube = t.node_cube(c)
                    nxt.append(
                        (
                            c,
                            cube.min_dist_to_point(qt),
                            cube.max_dist_to_point(qt),
                            m,
                            cube.level,
                        )
                    )
                if csum != e[3]:
                    raise InternalInvariantError("child counts must add up to the parent")
            entries = nxt
        # Exact finish over the remaining candidates.
        ids = np.concatenate(
            [t.point_ids_in_cube(int(t.z[e[0]]), int(t.level[e[0]])) for e in entries]
        )
        diff = self.centers[ids] - np.asarray(qt, dtype=np.float64)
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        for k in sorted(pending):
            if dist.size < k:
                raise InternalInvariantError("frontier lost candidates it still needed")
            results[k] = float(np.partition(dist, k - 1)[k - 1])
        return results

    # -- approximate ball-intersection count ------------------------------------

    def approx_ball_count(self, q, delta: float, x: float) -> int:
        """N with N(x) <= N <= N((1+delta)x); N(y) counts balls meeting ball(q,y).

        Large balls (radius >= delta*x/4, ties large) are retrieved exactly;
        the rest are counted through their center cells on a grid fine enough
        that the overshoot stays within the (1+delta) slack.
        """
        if not (0.0 < delta <= 1.0):
            raise InputError(f"delta must lie in (0, 1], got {delta}")
        if x < 0.0:
            raise InputError(f"radius must be nonnegative, got {x}")
        qt = tuple(float(v) for v in q)
        if x == 0.0:
            return int(self.balls_containing_point(qt).size)
        bq = Ball(qt, float(x))
        large = self.large_balls_intersecting(bq, min_diameter=delta * x / 2.0)
        inflated = x * (1.0 + delta / 4.0)
        level, clamped = grid_level_for_diameter(
            2.0 * inflated, delta / 4.0, self.dim
        )
        if clamped:
            return self.exact_intersection_count(qt, x)
        return int(large.size) + int(self.small_center_ids(qt, inflated, level, large).size)

    def small_center_ids(self, q, radius: float, level: int, large: np.ndarray) -> np.ndarray:
        """Ids, ascending and minus `large`, of the centers whose own
        level-`level` cell meets the closed ball(q, radius).

        Enumerates the cells around q when they are few, else tests the cell
        of every center with the closed-body test of enumerate_grid_cells_ball;
        both paths return the same ids.
        """
        qa = np.asarray(q, dtype=np.float64)
        if grid_footprint(qa - radius, qa + radius, level) > DENSE_CELL_CAP:
            side = 2.0 ** (-level)
            lo = grid_coords(self.centers, level) * side
            hi = lo + side
            gap = np.maximum(lo - qa, 0.0) + np.maximum(qa - hi, 0.0)
            meets = np.einsum("ij,ij->i", gap, gap) <= radius * radius
            meets[large] = False
            return np.flatnonzero(meets)
        coords = enumerate_grid_cells_ball(qa, radius, level)
        ids = self.centers_tree.point_ids_in_cubes(morton_encode(coords, level, self.dim), level)
        if large.size:
            ids = ids[~np.isin(ids, large)]
        return np.sort(ids)

    # -- exact helpers -----------------------------------------------------------

    def balls_containing_point(self, q) -> np.ndarray:
        """Ids of balls whose closed body contains q, via the stored path of q."""
        qa = np.asarray(q, dtype=np.float64)
        if np.any(qa < 0.0) or np.any(qa >= 1.0):
            # Outside the root cell; balls live inside it, so nothing contains q
            # unless the caller built an unnormalized instance: scan directly.
            diff = self.centers - qa
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            return np.flatnonzero(dist <= self.radii)
        node = self.ball_tree.point_location(tuple(qa))
        parts = []
        while node >= 0:
            parts.append(self.associated_ids(node))
            node = int(self.ball_tree.parent[node])
        cand = np.unique(np.concatenate(parts))
        if cand.size == 0:
            return cand
        diff = self.centers[cand] - qa
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        return cand[dist <= self.radii[cand]]

    def exact_intersection_count(self, q, x: float) -> int:
        """Exact N(x): balls whose closed body meets closed ball(q, x)."""
        return int((dist_points_balls(q, self.centers, self.radii) <= x).sum())


def build_registry(
    instance: NormalizedInstance, *, verify_disjoint: bool = False
) -> Registry:
    """Build the registration structure; optionally check pairwise disjointness."""
    if verify_disjoint:
        from .oracle import check_disjoint

        ok, pair = check_disjoint(instance.balls)
        if not ok:
            raise InputError(f"balls {pair[0]} and {pair[1]} overlap")
    return Registry(instance)
