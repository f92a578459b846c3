"""Ball registration structure over compressed quadtrees.

Two trees share the work: `ball_tree` stores the grid cells every ball
registers to (plus ancestors closing the tree), `centers_tree` stores the
ball centers as points.  On top of them sit the four query primitives:

  * exact retrieval of the balls, with a diameter floor, that meet a query
    ball,
  * 2-approximate k-th nearest center distance,
  * the ids of the centers whose grid cell meets a query ball, which both
    the approximate ball count and the eps refinement of `knn` build on
    (the refinement runs the same cell test on the centers its prefilter
    keeps, through `center_cells_meeting`),
  * the delta-monotone approximate count of balls meeting a query ball.

The two grid primitives share one cost rule: they enumerate the grid cells
around the query only while those cells (`grid_footprint`) are at most n,
and otherwise test all n balls or centers directly; both paths return the
same ids.

Everything here works in normalized coordinates; the structure is immutable
once built and all queries are pure.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .geometry import (
    InputError,
    InternalInvariantError,
    NormalizedInstance,
    concat_ranges,
    dist_points_balls,
    enumerate_grid_cells_ball,
    enumerate_grid_cells_balls,
    grid_coords,
    grid_footprint,
    grid_level_for_diameter,
    max_level_for_dim,
)
from .quadtree import (
    build_from_cubes,
    build_from_points,
    morton_encode,
)

# Not used by the build; bound here because perfbench/tracing.py wraps these names.
from .geometry import grid_approx  # noqa: F401
from .quadtree import cube_to_key  # noqa: F401

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

        # (3) Associated lists.
        self._assoc_off, self._assoc_ids = self._associated_lists()
        t3 = time.perf_counter()

        # (4) Centers tree with exact subtree counts and witnesses, and its
        # node boxes for the k-th center distance frontier.
        self.centers_tree = build_from_points(self.centers, dim=self.dim)
        self._center_low = self.centers_tree.low_corners()
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
        deepest cell holding its center.  The level is that of
        grid_level_for_diameter(2 r, 1, d), in array form, and the cells of
        all balls on one level come from one enumerate_grid_cells_balls.
        """
        d = self.dim
        deepest = max_level_for_dim(d)
        top = 1 << deepest
        point = self.radii == 0.0
        _, exp = np.frexp(2.0 * self.radii / math.sqrt(d))
        levels = np.where(point, deepest, np.clip(1 - exp, 0, deepest)).astype(np.int64)
        pts = np.flatnonzero(point)
        p = np.clip(self.centers[pts], 0.0, math.nextafter(1.0, 0.0))
        z_parts = [morton_encode(np.minimum(np.floor(p * top), top - 1).astype(np.int64), deepest, d)]
        ball_parts = [pts]
        for lev in np.unique(levels[~point]).tolist():
            ids = np.flatnonzero(~point & (levels == lev))
            coords, owner = enumerate_grid_cells_balls(self.centers[ids], self.radii[ids], lev)
            if np.bincount(owner, minlength=ids.size).min() == 0:
                raise InternalInvariantError("a ball has no registration cell")
            z_parts.append(morton_encode(coords, lev, d))
            ball_parts.append(ids[owner])
        return levels, np.concatenate(z_parts), np.concatenate(ball_parts)

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
        node_lo = tree.low_corners()
        node_side = 2.0 ** (-tree.level.astype(np.float64))
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
            lo = node_lo[nodes[row]]
            hi = lo + node_side[nodes[row], None]
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

    # -- exact large-ball retrieval -------------------------------------------

    def large_balls_intersecting(self, q, radius: float, min_diameter: float) -> np.ndarray:
        """Ids, ascending, of the balls that meet the closed ball(q, radius)
        and whose diameter is at least `min_diameter` (ties count as large)."""
        qa = np.asarray(q, dtype=np.float64)
        cand = self._large_candidates(qa, radius, min_diameter)
        cand = cand[2.0 * self.radii[cand] >= min_diameter]
        return np.sort(cand[dist_points_balls(qa, self.centers[cand], self.radii[cand]) <= radius])

    def _large_candidates(self, q: np.ndarray, radius: float, min_diameter: float) -> np.ndarray:
        """Superset of the qualifying balls: the associated lists of the
        grid cells around the ball when they are at most n, else all ids."""
        everything = np.arange(self.n, dtype=np.int64)
        if min_diameter <= 0.0:
            return everything
        level, clamped = grid_level_for_diameter(min_diameter, 1.0, self.dim)
        if clamped or grid_footprint(q - radius, q + radius, level) > self.n:
            return everything
        coords = enumerate_grid_cells_ball(q, radius, level)
        if coords.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        tree = self.ball_tree
        nodes = tree.locate_cells(morton_encode(coords, level, self.dim), level)
        nodes = np.unique(np.concatenate([nodes, tree.parent[nodes]]))
        nodes = nodes[nodes >= 0]
        start = self._assoc_off[nodes]
        return np.unique(self._assoc_ids[concat_ranges(start, self._assoc_off[nodes + 1] - start)])

    # -- 2-approximate k-th center distance ------------------------------------

    def approx_kth_center_distance(self, q, k: int) -> float:
        return self.approx_kth_center_distances(q, [k])[int(k)]

    def approx_kth_center_distances(self, q, ks) -> dict[int, float]:
        """Certified values x(k) with d_C(q,k) <= x(k) <= 2 d_C(q,k).

        Frontier refinement over the centers tree: keep an antichain of nodes
        with distance bounds [lo, hi] and exact counts, certify a k once the
        k-th cumulative hi is within twice the k-th cumulative lo, and fall
        back to exact selection over a small candidate set when the frontier
        stops helping (ties, coincident centers, q on a center).  The
        frontier is parallel arrays, and each round splits all its chosen
        nodes at once.
        """
        ks = sorted({int(k) for k in ks})
        if ks[0] < 1:
            raise InputError(f"k must be positive, got {ks[0]}")
        if ks[-1] > self.n:
            raise InputError(f"k={ks[-1]} exceeds the number of balls {self.n}")
        t = self.centers_tree
        qa = np.asarray(q, dtype=np.float64)
        nodes = np.zeros(1, dtype=np.int64)
        lo, hi = self._center_box_dists(nodes, qa)
        cnt = t.span_hi[nodes] - t.span_lo[nodes]
        results: dict[int, float] = {}
        pending = np.array(ks, dtype=np.int64)
        for _ in range(FRONTIER_MAX_ROUNDS):
            o_lo = np.argsort(lo, kind="stable")
            o_hi = np.argsort(hi, kind="stable")
            t_lo = lo[o_lo[np.searchsorted(np.cumsum(cnt[o_lo]), pending)]]
            t_hi = hi[o_hi[np.searchsorted(np.cumsum(cnt[o_hi]), pending)]]
            done = t_hi <= 2.0 * t_lo
            results.update(zip(pending[done].tolist(), t_hi[done].tolist()))
            pending, t_lo, t_hi = pending[~done], t_lo[~done], t_hi[~done]
            if not pending.size:
                return results
            keep = lo <= t_hi.max()
            nodes, lo, hi, cnt = nodes[keep], lo[keep], hi[keep], cnt[keep]
            split = (t.level[nodes] < t.max_level) & (hi > t_lo.min())
            if cnt.sum() <= EXACT_FINISH_COUNT or not split.any():
                break
            par = nodes[split]
            n_kids = t.child_off[par + 1] - t.child_off[par]
            kids = t.child_idx[concat_ranges(t.child_off[par], n_kids)]
            kid_cnt = t.span_hi[kids] - t.span_lo[kids]
            run = np.concatenate([[0], np.cumsum(kid_cnt)])
            ends = np.cumsum(n_kids)
            if not np.array_equal(run[ends] - run[ends - n_kids], cnt[split]):
                raise InternalInvariantError("child counts must add up to the parent")
            kid_lo, kid_hi = self._center_box_dists(kids, qa)
            nodes = np.concatenate([nodes[~split], kids])
            lo = np.concatenate([lo[~split], kid_lo])
            hi = np.concatenate([hi[~split], kid_hi])
            cnt = np.concatenate([cnt[~split], kid_cnt])
        # Exact finish over the centers of the remaining nodes.
        ids = t.point_perm[concat_ranges(t.span_lo[nodes], cnt)]
        if ids.size < pending[-1]:
            raise InternalInvariantError("frontier lost candidates it still needed")
        diff = self.centers[ids] - qa
        dist = np.partition(np.sqrt(np.einsum("ij,ij->i", diff, diff)), pending - 1)
        results.update(zip(pending.tolist(), dist[pending - 1].tolist()))
        return results

    def _center_box_dists(self, nodes: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Min and max distance from q to each node's closed cube in the
        centers tree, summed over the axes in order."""
        lo = self._center_low[nodes]
        side = 2.0 ** (-self.centers_tree.level[nodes].astype(np.float64))
        near = np.zeros(nodes.size)
        far = np.zeros(nodes.size)
        for j in range(self.dim):
            below = lo[:, j] - q[j]
            above = q[j] - (lo[:, j] + side)
            near += np.maximum(np.maximum(below, above), 0.0) ** 2
            far += np.maximum(np.abs(below), np.abs(above)) ** 2
        return np.sqrt(near), np.sqrt(far)

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
        large = self.large_balls_intersecting(qt, x, delta * x / 2.0)
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

        Enumerates the cells around q when they are at most n, else tests
        the cell of every center with the closed-body test of
        enumerate_grid_cells_ball; both paths return the same ids.
        """
        qa = np.asarray(q, dtype=np.float64)
        if grid_footprint(qa - radius, qa + radius, level) > self.n:
            meets = self._cells_meet(self.centers, qa, radius, level)
            meets[large] = False
            return np.flatnonzero(meets)
        coords = enumerate_grid_cells_ball(qa, radius, level)
        ids = self.centers_tree.point_ids_in_cubes(morton_encode(coords, level, self.dim), level)
        if large.size:
            ids = ids[~np.isin(ids, large)]
        return np.sort(ids)

    def center_cells_meeting(self, ids: np.ndarray, q: np.ndarray, radius: float, level: int) -> np.ndarray:
        """The ids, in their given order, whose center's own level-`level`
        cell meets the closed ball(q, radius): the test of small_center_ids
        on those centers only."""
        return ids[self._cells_meet(self.centers[ids], q, radius, level)]

    @staticmethod
    def _cells_meet(centers: np.ndarray, q: np.ndarray, radius: float, level: int) -> np.ndarray:
        """Whether each center's level-`level` cell meets the closed
        ball(q, radius), by the closed-body test of enumerate_grid_cells_ball."""
        side = 2.0 ** (-level)
        lo = grid_coords(centers, level) * side
        gap = np.maximum(lo - q, 0.0) + np.maximum(q - (lo + side), 0.0)
        return np.einsum("ij,ij->i", gap, gap) <= radius * radius

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


def build_registry(instance: NormalizedInstance) -> Registry:
    """Build the registration structure over balls the caller has checked
    to be pairwise disjoint (`geometry.find_overlap`)."""
    return Registry(instance)
