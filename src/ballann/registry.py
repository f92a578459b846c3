"""Ball registration structure over compressed quadtrees.

Two trees share the work: `ball_tree` stores the grid cells every ball
registers to (plus ancestors closing the tree), `centers_tree` stores the
ball centers as points.  Each centers-tree node also carries the tight box
of its centers, its least and greatest radius and its smallest ball id
(`_node_tables`); the root's row, kept as plain floats too, gives the
largest radius and the box of all balls.  On top of them sit the five query
primitives:

  * exact retrieval of the balls, with a diameter floor, that meet a query
    ball: a walk down the ball tree, skipped when no ball reaches the floor,
  * 2-approximate k-th nearest center distance: a frontier over the centers
    tree,
  * the number of centers whose grid cell meets a query ball: a walk down
    the centers tree, counting whole subtrees where it can (the eps
    refinement of `knn` runs the same cell test, `_cells_meet`, on the
    cells of the centers its prefilter keeps),
  * the delta-monotone approximate count of balls meeting a query ball,
    built from the first and the third,
  * a ball certified to lie within (1 +- eps) of the k-th ball distance:
    a frontier over the centers tree whose nodes bound their balls'
    distances through the node tables, used by `knn.query` as its exit;
    its root round, the far rule, is an O(d) test in plain floats.

Every walk tests node cubes against the query ball with `_cube_dists`, and
pads the radius by the relative WALK_MARGIN, so float rounding can neither
drop a node that holds an answer nor decide a node the exact test would
split; the certified frontier pads its distance bounds the same way.  Like
the k-th center frontier, a walk finishes with the exact test on all that
is left once its frontier holds few items.

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
    ball_distances,
    center_distances,
    concat_ranges,
    enumerate_grid_cells_balls,
    grid_coords,
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

# Exact-finish threshold of the frontier and the walks over the trees.
EXACT_FINISH_COUNT = 256
FRONTIER_MAX_ROUNDS = 400

# Relative pad on the radius in the walks' box tests, far above the few
# ulps by which a float box distance can be off.
WALK_MARGIN = 1e-9


def _box_dists(low: np.ndarray, high: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min and max distance from q to each closed box, given by its low and
    high corners, the squares summed over the axes in order.  On each axis
    the far gap max(q - low, high - q) is -min(below, above), exactly."""
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
    return np.sqrt(near_sum), np.sqrt(far_sum)


def _box_dist(low, high, q) -> tuple[float, float]:
    """_box_dists of one box, in plain floats, equal to it bit for bit: the
    same operations on each axis, summed over the axes in the same order."""
    near_sum = far_sum = 0.0
    for lo, hi, x in zip(low, high, q):
        below = lo - x
        above = x - hi
        near = below if below > above else above
        if near < 0.0:
            near = 0.0
        far = below if below < above else above
        near_sum += near * near
        far_sum += far * far
    return math.sqrt(near_sum), math.sqrt(far_sum)


def _cube_dists(low: np.ndarray, level: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_box_dists of the cubes given by their low corners and levels."""
    return _box_dists(low, low + np.ldexp(1.0, -level)[:, None], q)


def _kth_bounds(lo: np.ndarray, hi: np.ndarray, cnt: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k-th count-weighted lower and upper bound, for each k of ks
    (ascending): a frontier node stands for cnt items, each with a value
    in [lo, hi], so the k-th smallest value lies between the two."""
    o_lo = lo.argsort(kind="stable")
    o_hi = hi.argsort(kind="stable")
    k_lo = lo[o_lo[cnt[o_lo].cumsum().searchsorted(ks)]]
    return k_lo, hi[o_hi[cnt[o_hi].cumsum().searchsorted(ks)]]


def _children(tree, nodes: np.ndarray) -> np.ndarray:
    """The children of the given nodes, node after node."""
    start = tree.child_off[nodes]
    return tree.child_idx[concat_ranges(start, tree.child_off[nodes + 1] - start)]


class Registry:
    """Frozen registration structure; build via `build_registry`."""

    def __init__(self, instance: NormalizedInstance) -> None:
        self.instance = instance
        self.dim = instance.dimension
        self.n = instance.radii.size
        self.centers = instance.centers
        self.radii = instance.radii
        self.c_d = instance.c_d
        t0 = time.perf_counter()

        # (1) Registration cells: the cells of grid_approx(b, 1) for every
        # ball b, as Morton keys, all on the ball's own level reg_level[b].
        self.reg_level, reg_z, reg_ball = self._registration_cells()
        reg_lv = self.reg_level[reg_ball]
        t1 = time.perf_counter()

        # (2) Ball tree over the registration cells, its node boxes, and the
        # registered lists in CSR form indexed by ball_tree node, ball ids
        # ascending per node.
        self.ball_tree = build_from_cubes((reg_z, reg_lv, self.dim))
        self._ball_low = self.ball_tree.low_corners()
        node_of_cube = self.ball_tree.find_keys(reg_z, reg_lv)
        if node_of_cube.size and node_of_cube.min() < 0:
            raise InternalInvariantError("a registration cell is missing from the tree")
        # node * n + ball sorts the entries by node, then by ball.
        self._reg_sorted_ids = np.sort(node_of_cube * self.n + reg_ball) % self.n
        counts = np.bincount(node_of_cube, minlength=self.ball_tree.size)
        self._reg_off = np.zeros(self.ball_tree.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self._reg_off[1:])
        t2 = time.perf_counter()

        # (3) Centers tree with exact subtree counts and witnesses, its node
        # cubes, and per node the tight box of its centers, its least and
        # greatest radius and its smallest ball id (_node_tables).
        self.centers_tree = build_from_points(self.centers, dim=self.dim)
        self._center_low = self.centers_tree.low_corners()
        tables = self._node_tables()
        self._node_lo, self._node_hi, self._node_rmin, self._node_rmax, self._node_first = tables
        # The root's row as plain floats, for the exit's root round and the
        # box of all balls, and the frontier that a root split leaves.
        ct = self.centers_tree
        self._root_lo, self._root_hi = self._node_lo[0].tolist(), self._node_hi[0].tolist()
        self._root_rmin, self._root_rmax = float(self._node_rmin[0]), float(self._node_rmax[0])
        self._root_first = int(self._node_first[0])
        self._root_splits = bool(ct.level[0] < ct.max_level)
        self._root_kids = _children(ct, np.zeros(1, dtype=np.int64))
        self._root_kid_cnt = ct.span_hi[self._root_kids] - ct.span_lo[self._root_kids]
        t3 = time.perf_counter()

        self.stats = {
            "n": self.n,
            "dim": self.dim,
            "ball_tree_nodes": self.ball_tree.size,
            "centers_tree_nodes": self.centers_tree.size,
            "registration_entries": int(self._reg_off[-1]),
            "registration_s": t1 - t0,
            "ball_tree_s": t2 - t1,
            "centers_tree_s": t3 - t2,
            "build_seconds": t3 - t0,
        }

    def _node_tables(self) -> tuple[np.ndarray, ...]:
        """Per centers-tree node: the low and high corners of the tight box
        of its centers, its least and greatest radius and its smallest ball
        id.

        A node's centers are the run span_lo..span_hi of point_perm, so
        every table is one minimum.reduceat over the interleaved run bounds
        (even slots; a sentinel row keeps span_hi = n in range), the maxima
        as minima of negated columns.  Ids stay exact in float64.
        """
        t = self.centers_tree
        perm = t.point_perm
        c, r = self.centers[perm], self.radii[perm]
        cols = np.column_stack([c, -c, r, -r, perm])
        cols = np.concatenate([cols, cols[:1]])
        bounds = np.column_stack([t.span_lo, t.span_hi]).ravel()
        m = np.minimum.reduceat(cols, bounds, axis=0)[::2]
        d = self.dim
        return m[:, :d], -m[:, d : 2 * d], m[:, 2 * d], -m[:, 2 * d + 1], m[:, 2 * d + 2].astype(np.int64)

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

    # -- side-table access ---------------------------------------------------

    def registered_ids(self, node: int) -> np.ndarray:
        return self._reg_sorted_ids[self._reg_off[node] : self._reg_off[node + 1]]

    # -- exact large-ball retrieval -------------------------------------------

    def large_balls_intersecting(self, q, radius: float, min_diameter: float) -> np.ndarray:
        """Ids, ascending, of the balls that meet the closed ball(q, radius)
        and whose diameter is at least `min_diameter` (ties count as large).

        When the largest diameter is under the floor, the answer is empty at
        once.  Otherwise a walk down the ball tree keeps the nodes no deeper
        than L, the registration level of a ball of diameter `min_diameter`
        (the deepest level when the floor is 0), whose closed cube meets
        ball(q, radius * (1 + WALK_MARGIN)); the balls registered at the
        kept nodes are then filtered exactly.  No qualifying ball is missed:
        its registration level is at most L, since the level falls as the
        diameter grows, and it registers at every cell of that level its
        closed body meets, so at the cell holding a point p it shares with
        the query ball.  That cell and all its ancestors contain p, so each
        meets the query ball, and the walk reaches the cell.  Once the
        subtrees of the frontier hold at most EXACT_FINISH_COUNT * 2^d
        registrations (a ball usually registers at 2^d cells or more), the
        walk takes them all instead of splitting further, which only adds
        candidates for the exact filter.
        """
        if 2.0 * self._node_rmax[0] < min_diameter:
            return np.empty(0, dtype=np.int64)
        qa = np.asarray(q, dtype=np.float64)
        t = self.ball_tree
        if min_diameter > 0.0:
            deepest = grid_level_for_diameter(min_diameter, 1.0, self.dim)[0]
        else:
            deepest = t.max_level
        reach = radius * (1.0 + WALK_MARGIN)
        finish = EXACT_FINISH_COUNT << self.dim
        # CSR ranges of _reg_sorted_ids to gather: the registered lists of the
        # kept nodes, then the whole subtrees of the frontier that ends the walk.
        starts, stops = [], []
        nodes = np.zeros(1, dtype=np.int64)
        while nodes.size:
            # A subtree is the run of nodes up to the last key inside its cube.
            end = np.searchsorted(t.z, t.z_hi[nodes], side="right")
            if (self._reg_off[end] - self._reg_off[nodes]).sum() <= finish:
                starts.append(self._reg_off[nodes])
                stops.append(self._reg_off[end])
                break
            near, _ = _cube_dists(self._ball_low[nodes], t.level[nodes], qa)
            nodes = nodes[near <= reach]
            starts.append(self._reg_off[nodes])
            stops.append(self._reg_off[nodes + 1])
            kids = _children(t, nodes)
            nodes = kids[t.level[kids] <= deepest]
        start = np.concatenate(starts)
        cand = np.unique(self._reg_sorted_ids[concat_ranges(start, np.concatenate(stops) - start)])
        cand = cand[2.0 * self.radii[cand] >= min_diameter]
        return cand[ball_distances(qa, self.centers[cand], self.radii[cand]) <= radius]

    # -- 2-approximate k-th center distance ------------------------------------

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
        lo, hi = _cube_dists(self._center_low[nodes], t.level[nodes], qa)
        cnt = t.span_hi[nodes] - t.span_lo[nodes]
        results: dict[int, float] = {}
        pending = np.array(ks, dtype=np.int64)
        for _ in range(FRONTIER_MAX_ROUNDS):
            t_lo, t_hi = _kth_bounds(lo, hi, cnt, pending)
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
            kids = _children(t, par)
            kid_cnt = t.span_hi[kids] - t.span_lo[kids]
            run = np.concatenate([[0], np.cumsum(kid_cnt)])
            ends = np.cumsum(n_kids)
            if not np.array_equal(run[ends] - run[ends - n_kids], cnt[split]):
                raise InternalInvariantError("child counts must add up to the parent")
            kid_lo, kid_hi = _cube_dists(self._center_low[kids], t.level[kids], qa)
            nodes = np.concatenate([nodes[~split], kids])
            lo = np.concatenate([lo[~split], kid_lo])
            hi = np.concatenate([hi[~split], kid_hi])
            cnt = np.concatenate([cnt[~split], kid_cnt])
        # Exact finish over the centers of the remaining nodes.
        ids = t.point_perm[concat_ranges(t.span_lo[nodes], cnt)]
        if ids.size < pending[-1]:
            raise InternalInvariantError("frontier lost candidates it still needed")
        dist = np.partition(center_distances(qa, self.centers[ids]), pending - 1)
        results.update(zip(pending.tolist(), dist[pending - 1].tolist()))
        return results

    # -- certified k-th ball ------------------------------------------------------

    def _ball_bounds(self, nodes: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds on d(q, b) over the balls b of each node,
        padded outward by WALK_MARGIN: every center lies in the node's box
        and every radius between its least and greatest one."""
        near, far = _box_dists(self._node_lo[nodes], self._node_hi[nodes], q)
        lo = np.maximum(near - self._node_rmax[nodes], 0.0) * (1.0 - WALK_MARGIN)
        hi = np.maximum(far - self._node_rmin[nodes], 0.0) * (1.0 + WALK_MARGIN)
        return lo, hi

    def _root_bounds(self, q) -> tuple[float, float]:
        """_ball_bounds of the root, from its row as plain floats, equal to
        it bit for bit: the bounds near and far on every ball distance."""
        near, far = _box_dist(self._root_lo, self._root_hi, q)
        lo = near - self._root_rmax
        hi = far - self._root_rmin
        return (lo if lo > 0.0 else 0.0) * (1.0 - WALK_MARGIN), (hi if hi > 0.0 else 0.0) * (1.0 + WALK_MARGIN)

    def certified_kth_ball(self, q, k: int, eps: float) -> int:
        """Id of a ball whose distance provably lies in [(1 - eps) d_k,
        (1 + eps) d_k], d_k the k-th smallest ball distance from q, or -1
        when the frontier below cannot show one.

        A frontier over the centers tree, from the root.  Each node carries
        bounds [lo, hi] on its balls' distances (_ball_bounds) and its exact
        count.  L and H, the k-th count-weighted lo and hi (_kth_bounds),
        satisfy L <= d_k <= H.  A node whose every ball lies in [(1 - eps)
        H, (1 + eps) L] certifies: the first such node answers with its
        smallest ball id.  Otherwise the nodes with lo > H are dropped (their
        balls lie beyond d_k, and the k-th bounds of the rest are the same)
        and the nodes that straddle [L, H], lo < H and hi > L, are split.
        The frontier gives up when H = 0 (q lies in k balls: d_k = 0, which
        no window around it can certify), when after the drop it holds more
        than EXACT_FINISH_COUNT nodes, or when no straddling node can be
        split.

        The root round, the far rule, is one node holding all n >= k balls,
        so L and H are its own bounds: it runs as an O(d) test in plain
        floats (_root_bounds), with the same comparisons in the same order,
        and a root that splits leaves its children, the stored _root_kids,
        as the frontier of the next round, on arrays.
        """
        if not 1 <= k <= self.n:
            raise InputError(f"k must lie in [1, {self.n}], got {k}")
        qt = [float(v) for v in q]
        if len(qt) != self.dim:
            raise InputError(f"query dimension {len(qt)} != registry dimension {self.dim}")
        low, high = self._root_bounds(qt)
        if high == 0.0:
            return -1
        if low >= (1.0 - eps) * high and high <= (1.0 + eps) * low:
            return self._root_first
        if not (low < high and self._root_splits):
            return -1
        t = self.centers_tree
        qa = np.array(qt)
        ks = np.array([k], dtype=np.int64)
        nodes, cnt = self._root_kids, self._root_kid_cnt
        lo, hi = self._ball_bounds(nodes, qa)
        while True:
            low, high = (float(v[0]) for v in _kth_bounds(lo, hi, cnt, ks))
            if high == 0.0:
                return -1
            sure = (lo >= (1.0 - eps) * high) & (hi <= (1.0 + eps) * low)
            if sure.any():
                return int(self._node_first[nodes[sure.argmax()]])
            keep = lo <= high
            split = (lo < high) & (hi > low) & (t.level[nodes] < t.max_level)
            if np.count_nonzero(keep) > EXACT_FINISH_COUNT or not split.any():
                return -1
            stay = keep & ~split
            kids = _children(t, nodes[split])
            kid_lo, kid_hi = self._ball_bounds(kids, qa)
            nodes = np.concatenate([nodes[stay], kids])
            lo = np.concatenate([lo[stay], kid_lo])
            hi = np.concatenate([hi[stay], kid_hi])
            cnt = np.concatenate([cnt[stay], t.span_hi[kids] - t.span_lo[kids]])

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
        return int(large.size) + self.small_center_count(qt, inflated, level, large)

    def small_center_count(self, q, radius: float, level: int, large: np.ndarray) -> int:
        """Number of centers, ids in `large` left out, whose own
        level-`level` cell meets the closed ball(q, radius).

        A walk down the centers tree.  A node shallower than `level` is
        counted whole when its cube lies inside ball(q, radius *
        (1 - WALK_MARGIN)), dropped when its cube misses ball(q, radius *
        (1 + WALK_MARGIN)), and split otherwise: the level cells of its
        centers lie in its cube, so the per-center test (_cells_meet) would
        keep, or drop, every one of them.  A node at least `level` deep lies
        in one level cell, which holds its low corner and all its centers,
        so _cells_meet on that corner decides its centers exactly as on each
        center.  Once the frontier holds at most EXACT_FINISH_COUNT centers,
        the per-center test runs on them directly.  The large ids whose
        cells meet the ball are subtracted at the end (`large` holds
        distinct ids).
        """
        qa = np.asarray(q, dtype=np.float64)
        t = self.centers_tree
        count = 0
        nodes = np.zeros(1, dtype=np.int64)
        while nodes.size:
            cnt = t.span_hi[nodes] - t.span_lo[nodes]
            if cnt.sum() <= EXACT_FINISH_COUNT:
                ids = t.point_perm[concat_ranges(t.span_lo[nodes], cnt)]
                cells = grid_coords(self.centers[ids], level)
                count += int(np.count_nonzero(self._cells_meet(cells, qa, radius, level)))
                break
            deep = t.level[nodes] >= level
            corners = grid_coords(self._center_low[nodes[deep]], level)
            whole = nodes[deep][self._cells_meet(corners, qa, radius, level)]
            nodes = nodes[~deep]
            near, far = _cube_dists(self._center_low[nodes], t.level[nodes], qa)
            inside = far <= radius * (1.0 - WALK_MARGIN)
            whole = np.concatenate([whole, nodes[inside]])
            count += int((t.span_hi[whole] - t.span_lo[whole]).sum())
            nodes = _children(t, nodes[~inside & (near <= radius * (1.0 + WALK_MARGIN))])
        large_cells = grid_coords(self.centers[large], level)
        return count - int(np.count_nonzero(self._cells_meet(large_cells, qa, radius, level)))

    @staticmethod
    def _cells_meet(coords: np.ndarray, q: np.ndarray, radius: float, level: int) -> np.ndarray:
        """Whether each level-`level` cell, given by its integer coords
        (grid_coords of a point in it), meets the closed ball(q, radius), by
        the closed-body test of enumerate_grid_cells_ball."""
        side = 2.0 ** (-level)
        lo = coords * side
        gap = np.maximum(lo - q, 0.0) + np.maximum(q - (lo + side), 0.0)
        return np.einsum("ij,ij->i", gap, gap) <= radius * radius

    # -- exact helpers -----------------------------------------------------------

    def balls_containing_point(self, q) -> np.ndarray:
        """Ids, ascending, of the balls whose closed body contains q.

        No ball holds a point outside the box that holds every ball, padded
        far beyond rounding, so such a point gets the empty answer at once.
        A ball holding q registers at the cell of its registration level
        that holds q, since its closed body meets that cell; the cell is
        stored, so it is on the chain from q's deepest stored cube up to the
        root, and the registered lists along that chain hold every answer.
        """
        qa = np.asarray(q, dtype=np.float64)
        # The box of all balls: the root's box of centers grown by the
        # largest radius, axis by axis in plain floats.
        r = self._root_rmax
        for x, lo, hi in zip(qa.tolist(), self._root_lo, self._root_hi):
            lo, hi = lo - r, hi + r
            pad = WALK_MARGIN * (1.0 + max(abs(lo), abs(hi)))
            if x < lo - pad or x > hi + pad:
                return np.empty(0, dtype=np.int64)
        if np.any(qa < 0.0) or np.any(qa >= 1.0):
            # In the ball box but outside the root cell, which only an
            # unnormalized instance allows: scan directly.
            return np.flatnonzero(ball_distances(qa, self.centers, self.radii) == 0.0)
        node = self.ball_tree.point_location(tuple(qa))
        parts = []
        while node >= 0:
            parts.append(self.registered_ids(node))
            node = int(self.ball_tree.parent[node])
        cand = np.unique(np.concatenate(parts))
        if cand.size == 0:
            return cand
        return cand[ball_distances(qa, self.centers[cand], self.radii[cand]) == 0.0]

    def exact_intersection_count(self, q, x: float) -> int:
        """Exact N(x): balls whose closed body meets closed ball(q, x)."""
        return int((ball_distances(q, self.centers, self.radii) <= x).sum())


def build_registry(instance: NormalizedInstance) -> Registry:
    """Build the registration structure over balls the caller has checked
    to be pairwise disjoint (`geometry.find_overlap`)."""
    return Registry(instance)
