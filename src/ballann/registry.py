"""Ball registry over one compressed quadtree.

`centers_tree` stores the ball centers as points.  Each node also carries
the tight box of its centers, its greatest and least radius and its
smallest ball id (`_node_tables`).  The boxes and radii are one node
table, stored transposed: one column per node, one contiguous row per
axis for the low corners and for the negated high corners, and the rows
rmax and rmin, so that a frontier's bounds are a few numpy calls on whole
rows.  The root's column, kept as plain floats too, gives the largest
radius and the box of all balls.  On top of it sit the query primitives:

  * exact retrieval of the balls, with a diameter floor, that meet a query
    ball (skipped when no ball reaches the floor), and of the balls whose
    body holds a point, the same retrieval at radius 0,
  * the delta-monotone approximate count of balls meeting a query ball,
  * 2-approximate k-th nearest center distance: a frontier over the centers
    tree, on the node boxes,
  * a ball certified to lie within (1 +- eps) of the k-th ball distance:
    a frontier over the centers tree whose nodes bound their balls'
    distances through the node tables, used by `knn.query` as its exit;
    its root round, the far rule, is an O(d) test in plain floats, and its
    array rounds start from a cut of the tree stored at build: the nodes
    that hold at most m centers (or are leaves) below a parent that holds
    more (or is the root), with their table columns copied alongside.  m
    is n // 32, doubled while the cut holds more than EXACT_FINISH_COUNT
    nodes and m < n.  An array round is one fused kernel: the bounds of
    every frontier node at once as one (2, m) array (`_ball_bounds_of`),
    and L and H from one sort of both its rows (`_kth_bounds`).

Retrieval, containment and the count are one walk down the centers tree
(`_walk`), after Arya and Mount's approximate range counting: a node whose
balls all lie within a "sure" radius is taken whole, a node none of whose
balls can meet the query ball is dropped, and any other node is split.
Retrieval takes whole the nodes inside its own radius, containment only
the nodes whose balls all hold the point, and the count the nodes inside
(1 + delta) x.  The walk keeps exact answer sets: the balls it neither
takes whole nor drops go through the exact filter.  What it loses is the
paper's registration bound.  There each ball is stored at the O(1) grid
cells of grid_approx(b, 1), on the level of its own diameter, which bounds
the cells a retrieval visits.  A centers-tree node that holds one giant
ball among small ones has the giant's radius as its greatest radius and
cannot prune by it, so the walk follows every giant down to its leaf, and
a point's walk starts at the root, since a giant's center may lie far from
the point.  With 3 giant balls among 12,692 uniform small ones at d = 2
(best of 3 calls per query, 300 queries, on a 2-core host), the median
retrieval took 162 us, against 88 us without the giants and 186 us on the
ball tree that held the registration; the median containment took 149 us,
against 36 us without the giants and 24 us on the ball tree.

The walk and both frontiers bound distances through the node boxes
(`_box_dists`), whose far corner is taken with the same operations as
`geometry.center_distances`, so a bound is never beaten by the distance it
bounds; the ball bounds (`_ball_bounds_of`) are padded outward by the
relative WALK_MARGIN besides.  All three read the same node table.  A walk
finishes with the exact test on all that is left once its frontier holds
few items, as the k-th center frontier finishes with an exact selection.

Everything here works in normalized coordinates; the structure is immutable
once built and all queries are pure.  Each query primitive takes q through
`geometry.check_point`, so a point of another dimension or with a
coordinate that is not finite raises InputError; `knn.query` checks q, k
and eps once and calls the exit unchecked (`_certified_kth_ball`).
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

from .geometry import (
    InputError,
    InternalInvariantError,
    NormalizedInstance,
    ball_distances,
    center_distances,
    check_k,
    check_point,
    concat_ranges,
)
from .quadtree import build_from_points, encode_point

# Not used by the build; bound here because perfbench/tracing.py wraps these names.
from .geometry import grid_approx  # noqa: F401
from .quadtree import build_from_cubes, cube_to_key  # noqa: F401

# Exact-finish threshold of the frontiers and the walks over the tree.
EXACT_FINISH_COUNT = 256
FRONTIER_MAX_ROUNDS = 400

# Relative pad on the radius in the walks' box tests, far above the few
# ulps by which a float box distance can be off.
WALK_MARGIN = 1e-9


# A 0-d zero for the clips: numpy takes it faster than the float 0.0.
_ZERO = np.zeros(())
# The outward pads of the lower and upper bounds.
_PADS = np.array([[1.0 - WALK_MARGIN], [1.0 + WALK_MARGIN]])


def _column(q: list[float]) -> np.ndarray:
    """The column [q; -q], (2d, 1), that _box_dists subtracts from the box
    rows of the node table."""
    return np.array(q + [-x for x in q])[:, None]


def _box_dists(boxes: np.ndarray, qq: np.ndarray) -> np.ndarray:
    """Min and max distance from q to each closed box, one column of boxes
    (2d, m) per box, its low corner over its negated high corner, with qq =
    _column(q): one (2, m) array [near; far].

    One subtraction gives the gaps below and above q on every axis, lo - q
    and -hi + q = q - hi exactly.  Their max clipped at 0 and their min go
    into one (2, d, m) buffer, squared in place and summed over the axes in
    order.  On each axis the far gap max(q - lo, hi - q) is -min(below,
    above), exactly."""
    d = qq.shape[0] // 2
    gaps = boxes - qq
    below, above = gaps[:d], gaps[d:]
    sq = np.empty((2,) + below.shape)
    np.maximum(below, above, out=sq[0])
    np.maximum(sq[0], _ZERO, out=sq[0])
    np.minimum(below, above, out=sq[1])
    sq *= sq
    sums = sq[:, 0]
    for j in range(1, d):
        sums = sums + sq[:, j]
    return np.sqrt(sums, out=sums)


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


def root_column(centers: np.ndarray, radii: np.ndarray) -> tuple[list[float], list[float], float, float]:
    """The root's column of the node table as plain floats, from the balls
    alone: the low and high corners of the box of all centers, and the
    greatest and least radius.  Min and max are exact, so these equal the
    column that _node_tables reduces bit for bit, in whatever order the
    tree lists the balls.  One reduction per axis: on an (n, d) array a
    reduction over axis 0 runs a d-long inner loop per row, about 5x as
    long at d = 2."""
    cols = centers.T
    return [float(c.min()) for c in cols], [float(c.max()) for c in cols], float(radii.max()), float(radii.min())


def root_bounds(low, high, rmax: float, rmin: float, q) -> tuple[float, float]:
    """_ball_bounds_of one column of the node table in plain floats, equal
    to it bit for bit: bounds near and far on the distance from q of every
    ball of a node whose centers' box has corners low and high and whose
    radii lie in [rmin, rmax].  The exit's root round
    (Registry._root_bounds) and the cell index's points outside the cube
    (`avd.avd_query`) take it on the root's column."""
    near, far = _box_dist(low, high, q)
    lo = near - rmax
    hi = far - rmin
    return (lo if lo > 0.0 else 0.0) * (1.0 - WALK_MARGIN), (hi if hi > 0.0 else 0.0) * (1.0 + WALK_MARGIN)


def far_rule(low: float, high: float, eps: float) -> bool:
    """The far rule, the exit's root round on the root's bounds (low, high)
    = root_bounds: one node holds all n >= k balls, so they are its L and
    H, and it certifies when every ball lies in [(1 - eps) H, (1 + eps) L];
    then the root's smallest ball id, 0, answers for every k
    (Registry.certified_kth_ball)."""
    return low >= (1.0 - eps) * high and high <= (1.0 + eps) * low


def _ball_bounds_of(cols: np.ndarray, qq: np.ndarray) -> np.ndarray:
    """Lower and upper bounds on d(q, b) over the balls b of each column of
    the node table, qq = _column(q): one (2, m) array [lo; hi], padded
    outward by WALK_MARGIN.  Every center lies in the column's box and every
    radius between its least and greatest one, so lo is the box's near
    distance less rmax and hi its far distance less rmin, each clipped at
    0."""
    b = _box_dists(cols[:-2], qq)
    b -= cols[-2:]
    np.maximum(b, _ZERO, out=b)
    b *= _PADS
    return b


def _kth_bounds(b: np.ndarray, cnt: np.ndarray, ks):
    """The ks-th count-weighted smallest value of each row of b (2, m), ks
    an int or an ascending array of ints: column i stands for cnt[i] items,
    each with a value in [b[0, i], b[1, i]], so the k-th smallest item value
    lies between the two rows' k-th values.

    One unstable argsort of both rows and one cumsum of the permuted counts
    (add.accumulate, which numpy calls faster than cumsum): the k-th value
    sits at the first position whose cumsum reaches k, found by a search of
    each row, and the order of ties cannot move it (proof in
    Registry.certified_kth_ball)."""
    o = b.argsort(axis=1)
    run = np.add.accumulate(cnt[o], axis=1)
    return b[0, o[0, run[0].searchsorted(ks)]], b[1, o[1, run[1].searchsorted(ks)]]


def _exit_cut(tree, m: int) -> np.ndarray:
    """The non-root nodes that hold at most m centers or are leaves and
    whose parent is the root or holds more than m, in node order.

    Counts only shrink down the tree, so on the path from the root to any
    leaf exactly one node qualifies: the first below the root that holds at
    most m centers or is a leaf.  The cut is an antichain whose runs of
    point_perm hold every center once."""
    cnt = tree.span_hi - tree.span_lo
    leaf = tree.child_off[1:] == tree.child_off[:-1]
    par = tree.parent[1:]
    return 1 + np.flatnonzero(((cnt[1:] <= m) | leaf[1:]) & ((par == 0) | (cnt[par] > m)))


def _children(tree, nodes: np.ndarray) -> np.ndarray:
    """The children of the given nodes, node after node."""
    start = tree.child_off[nodes]
    return tree.child_idx[concat_ranges(start, tree.child_off[nodes + 1] - start)]


class Registry:
    """Frozen registry; build via `build_registry`."""

    def __init__(self, instance: NormalizedInstance) -> None:
        self.instance = instance
        self.dim = instance.dimension
        self.n = instance.radii.size
        self.centers = instance.centers
        self.radii = instance.radii
        self.c_d = instance.c_d
        t0 = time.perf_counter()

        # The centers tree with exact subtree counts and witnesses.
        self.centers_tree = build_from_points(self.centers, dim=self.dim)
        t1 = time.perf_counter()

        # Per node the tight box of its centers, its greatest and least
        # radius (_node_tables), as the columns of one table, and its
        # smallest ball id.
        self._table, self._node_first = self._node_tables()
        # The root's column as plain floats, for the exit's root round and
        # the box of all balls.
        ct = self.centers_tree
        d = self.dim
        self._root_lo, self._root_hi = self._table[:d, 0].tolist(), (-self._table[d : 2 * d, 0]).tolist()
        self._root_rmax, self._root_rmin = self._table[2 * d :, 0].tolist()
        self._root_first = int(self._node_first[0])
        self._root_splits = bool(ct.level[0] < ct.max_level)
        # The exit's first array frontier: the cut at m centers (_exit_cut),
        # with its own contiguous copy of its table columns.  m starts at n
        # // 32 and doubles while the cut holds more nodes than a frontier
        # may keep; at m >= n the cut is the root's children.
        m = max(1, self.n // 32)
        self._cut = _exit_cut(ct, m)
        while self._cut.size > EXACT_FINISH_COUNT and m < self.n:
            m *= 2
            self._cut = _exit_cut(ct, m)
        self._cut_cnt = ct.span_hi[self._cut] - ct.span_lo[self._cut]
        self._cut_table = self._table[:, self._cut]
        t2 = time.perf_counter()

        self.stats = {
            "n": self.n,
            "dim": self.dim,
            "centers_tree_nodes": self.centers_tree.size,
            # perfbench/tracing.py reads these two; no ball tree and no
            # registration cells are built, so they read 0.
            "ball_tree_nodes": 0,
            "registration_entries": 0,
            "centers_tree_s": t1 - t0,
            "node_tables_s": t2 - t1,
            "build_seconds": t2 - t0,
        }

    def _node_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The node table, one column per centers-tree node and 2d + 2
        rows: the low corners of the tight boxes of the nodes' centers, one
        row per axis, then the high corners negated, as _box_dists takes
        them, then the greatest and the least radius; and each node's
        smallest ball id.

        A node's centers are the run span_lo..span_hi of point_perm, so
        every row is one minimum.reduceat over the interleaved run bounds
        (even slots; a sentinel row keeps span_hi = n in range), the maxima
        as minima of negated columns.  Ids stay exact in float64.
        """
        t = self.centers_tree
        perm = t.point_perm
        c, r = self.centers[perm], self.radii[perm]
        cols = np.column_stack([c, -c, -r, r, perm])
        cols = np.concatenate([cols, cols[:1]])
        bounds = np.column_stack([t.span_lo, t.span_hi]).ravel()
        m = np.minimum.reduceat(cols, bounds, axis=0)[::2]
        d = self.dim
        table = m[:, : 2 * d + 2].T.copy()
        np.negative(table[2 * d], out=table[2 * d])
        return table, m[:, 2 * d + 2].astype(np.int64)

    # -- exact retrieval -------------------------------------------------------

    def _start_node(self, q: list[float], reach: float) -> int:
        """The deepest centers-tree node whose cube holds the box q +- reach,
        padded for rounding and clipped to the cube as encode_point clips:
        its run of point_perm holds every center within reach of q on each
        axis.  The node is the deepest stored cube holding both corners of
        the box, found as point_location finds the cube of one point: a
        search of the tree's key view, then a walk up its z_hi and parent
        views."""
        t = self.centers_tree
        pads = [reach + WALK_MARGIN * (1.0 + abs(x)) for x in q]
        lo = encode_point([x - p for x, p in zip(q, pads)], self.dim)
        hi = encode_point([x + p for x, p in zip(q, pads)], self.dim)
        j = bisect.bisect_right(t._z_view, lo) - 1
        z_hi, parent = t._z_hi_view, t._parent_view
        while z_hi[j] < hi:
            j = parent[j]
        return j

    def _walk(self, q: np.ndarray, radius: float, floor: float, sure: float) -> tuple[np.ndarray, np.ndarray]:
        """Two disjoint id sets: balls within `sure` of q whose diameter is
        at least `floor`, and candidates, which with them hold every ball
        that meets the closed ball(q, radius) and reaches the floor.

        A walk down the centers tree from _start_node(q, (radius + rmax)
        * (1 + WALK_MARGIN)), rmax the greatest radius: such a ball, of
        radius r, has its center within radius + r of q.  A node is dropped
        when its _ball_bounds_of lower bound, at most the distance of each
        of its balls, exceeds radius * (1 + WALK_MARGIN), or when its
        greatest diameter is under the floor.  A node is taken whole as sure when
        its upper bound, at least the float ball distance of each of its
        balls, is at most `sure` and its least diameter reaches the floor;
        a leaf is taken whole as candidates.  Once the frontier holds at
        most EXACT_FINISH_COUNT balls, the walk takes them all as
        candidates.
        """
        t = self.centers_tree
        reach = radius * (1.0 + WALK_MARGIN)
        qt = q.tolist()
        qq = _column(qt)
        start = self._start_node(qt, (radius + self._root_rmax) * (1.0 + WALK_MARGIN))
        nodes = np.array([start], dtype=np.int64)
        whole, taken = [np.empty(0, dtype=np.int64)], []
        while (t.span_hi[nodes] - t.span_lo[nodes]).sum() > EXACT_FINISH_COUNT:
            cols = self._table[:, nodes]
            lo, hi = _ball_bounds_of(cols, qq)
            rmax, rmin = cols[-2:]
            keep = (lo <= reach) & (2.0 * rmax >= floor)
            inside = keep & (hi <= sure) & (2.0 * rmin >= floor)
            whole.append(nodes[inside])
            nodes = nodes[keep & ~inside]
            if (t.span_hi[nodes] - t.span_lo[nodes]).sum() <= EXACT_FINISH_COUNT:
                break
            leaf = t.child_off[nodes + 1] == t.child_off[nodes]
            taken.append(nodes[leaf])
            nodes = _children(t, nodes[~leaf])

        def ids(parts):
            v = np.concatenate(parts)
            return t.point_perm[concat_ranges(t.span_lo[v], t.span_hi[v] - t.span_lo[v])]

        return ids(whole), ids([nodes, *taken])

    def large_balls_intersecting(self, q, radius: float, min_diameter: float) -> np.ndarray:
        """Ids, ascending, of the balls that meet the closed ball(q, radius)
        and whose diameter is at least `min_diameter` (ties count as large).

        When the largest diameter is under the floor, the answer is empty at
        once.  Otherwise _walk takes whole the nodes inside the query ball,
        and its candidates are filtered exactly.
        """
        qa = np.array(check_point(q, self.dim))
        if 2.0 * self._root_rmax < min_diameter:
            return np.empty(0, dtype=np.int64)
        sure, cand = self._walk(qa, radius, min_diameter, radius)
        cand = cand[2.0 * self.radii[cand] >= min_diameter]
        cand = cand[ball_distances(qa, self.centers[cand], self.radii[cand]) <= radius]
        return np.sort(np.concatenate([sure, cand]))

    # -- 2-approximate k-th center distance ------------------------------------

    def approx_kth_center_distances(self, q, ks) -> dict[int, float]:
        """Certified values x(k) with d_C(q,k) <= x(k) <= 2 d_C(q,k).

        Frontier refinement over the centers tree: keep an antichain of nodes
        with distance bounds [lo, hi], the near and far distances of their
        boxes of centers (_box_dists, which no center distance beats), and
        exact counts, certify a k once the k-th count-weighted hi is within
        twice the k-th count-weighted lo (_kth_bounds), and fall back to
        exact selection over a small candidate set when the frontier stops
        helping (ties, coincident centers, q on a center).  The frontier is
        a (2, m) array of bounds beside the node ids and counts, and each
        round splits all its chosen nodes at once.
        """
        qt = check_point(q, self.dim)
        ks = sorted({check_k(k, self.n) for k in ks})
        t = self.centers_tree
        qq = _column(qt)
        boxes = self._table[:-2]
        nodes = np.zeros(1, dtype=np.int64)
        b = _box_dists(boxes[:, :1], qq)
        cnt = t.span_hi[nodes] - t.span_lo[nodes]
        results: dict[int, float] = {}
        pending = np.array(ks, dtype=np.int64)
        for _ in range(FRONTIER_MAX_ROUNDS):
            t_lo, t_hi = _kth_bounds(b, cnt, pending)
            done = t_hi <= 2.0 * t_lo
            results.update(zip(pending[done].tolist(), t_hi[done].tolist()))
            pending, t_lo, t_hi = pending[~done], t_lo[~done], t_hi[~done]
            if not pending.size:
                return results
            keep = b[0] <= t_hi.max()
            nodes, b, cnt = nodes[keep], b[:, keep], cnt[keep]
            split = (t.level[nodes] < t.max_level) & (b[1] > t_lo.min())
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
            nodes = np.concatenate([nodes[~split], kids])
            b = np.concatenate([b[:, ~split], _box_dists(boxes[:, kids], qq)], axis=1)
            cnt = np.concatenate([cnt[~split], kid_cnt])
        # Exact finish over the centers of the remaining nodes.
        ids = t.point_perm[concat_ranges(t.span_lo[nodes], cnt)]
        if ids.size < pending[-1]:
            raise InternalInvariantError("frontier lost candidates it still needed")
        dist = np.partition(center_distances(qt, self.centers[ids]), pending - 1)
        results.update(zip(pending.tolist(), dist[pending - 1].tolist()))
        return results

    # -- certified k-th ball ------------------------------------------------------

    def _root_bounds(self, q) -> tuple[float, float]:
        """_ball_bounds_of the root, from its column as plain floats
        (root_bounds), equal to it bit for bit: the bounds near and far on
        every ball distance."""
        return root_bounds(self._root_lo, self._root_hi, self._root_rmax, self._root_rmin, q)

    def certified_kth_ball(self, q, k: int, eps: float) -> int:
        """Id of a ball whose distance provably lies in [(1 - eps) d_k,
        (1 + eps) d_k], d_k the k-th smallest ball distance from q, or -1
        when the frontier below cannot show one.

        A frontier over the centers tree, from the root: an antichain whose
        nodes hold every ball once.  Each node carries bounds [lo, hi] on
        its balls' distances (_ball_bounds_of) and its exact count.  L and
        H, the k-th count-weighted lo and hi (_kth_bounds), satisfy L <=
        d_k <= H.  A node whose every ball lies in [(1 - eps) H, (1 + eps)
        L] certifies: the first such node answers with its smallest ball
        id.  Otherwise the nodes with lo > H are dropped (their balls lie
        beyond d_k, and the k-th bounds of the rest are the same) and the
        nodes that straddle [L, H], lo < H and hi > L, are split.  The
        frontier gives up when after the drop it holds more than
        EXACT_FINISH_COUNT nodes, or when no straddling node can be split.

        The same test answers d_k = 0.  At H = 0, L = 0 too, since 0 <= L
        <= H, so the window is [0, 0] and the sure test keeps exactly the
        nodes with hi = 0.  A node's hi is its far box distance less its
        least radius, clipped at 0, so hi = 0 only when that far distance
        is at most the least radius: every center lies within it of q, so
        every ball of the node contains q, and its smallest id answers at
        distance 0 = d_k.  With no such node, no node straddles (lo < H =
        0 holds for none), and the frontier gives up.

        The root round, the far rule, is one node holding all n >= k balls,
        so L and H are its own bounds: it runs as an O(d) test in plain
        floats (_root_bounds and far_rule), with the same comparisons in
        the same order.
        A root that splits hands on the stored cut (_exit_cut, at m = n //
        32 centers, doubled while the cut holds more than
        EXACT_FINISH_COUNT nodes and m < n), not its own children: the
        argument holds on any antichain that holds every ball once, and a
        cut that deep answers most queries in one array round.

        An array round is one fused kernel over the frontier's columns of
        the node table (the cut keeps its own contiguous copy of its
        columns, so its round indexes no table).  _ball_bounds_of gives lo
        and hi together as one (2, m) array: one subtraction of the column
        [q; -q] gives the gaps below and above q on every axis, and their
        max and min share one (2, d, m) buffer.  _kth_bounds gives L and H
        together, from one unstable argsort of both rows, one cumsum of the
        permuted counts and a search of each row.  The sure test is one
        argmax on the sure mask, and a read of that element.  The first
        array round makes 22 numpy computations (ufuncs, functions and
        methods; views and element reads aside) where the row-major round
        it replaced made 38, and the ones left run on contiguous rows.

        Tie order cannot move L or H.  In a row sorted by value, the first
        position whose cumsum reaches k holds the k-th value.  Take any
        value v of the row: the nodes below v hold C_< items and those up
        to v hold C_<= items, two sums that no order of the ties changes.
        The positions that hold v are one run, and since every count is at
        least 1 the cumsum along it rises from above C_< to C_<=, so the
        first position to reach k lies in that run exactly when C_< < k <=
        C_<=, and then reads v, whichever node of the run sits there.  So
        L and H, every later comparison, the certifying node and the answer
        are the same for every order of the ties, and the same bit for bit
        as a stable sort's.

        q and k are checked (geometry.check_point, check_k); knn.query,
        which checks them itself, calls the unchecked _certified_kth_ball.
        """
        k = check_k(k, self.n)
        return self._certified_kth_ball(check_point(q, self.dim), k, eps)

    def _certified_kth_ball(self, qt: list[float], k: int, eps: float) -> int:
        """certified_kth_ball on a checked point, a list of dim finite
        floats, and a checked rank k."""
        low, high = self._root_bounds(qt)
        if far_rule(low, high, eps):
            return self._root_first
        if not (low < high and self._root_splits):
            return -1
        t = self.centers_tree
        qq = _column(qt)
        nodes, cnt = self._cut, self._cut_cnt
        b = _ball_bounds_of(self._cut_table, qq)
        while True:
            low, high = _kth_bounds(b, cnt, k)
            lo, hi = b[0], b[1]
            sure = (lo >= (1.0 - eps) * high) & (hi <= (1.0 + eps) * low)
            j = sure.argmax()
            if sure[j]:
                return int(self._node_first[nodes[j]])
            keep = lo <= high
            split = (lo < high) & (hi > low) & (t.level[nodes] < t.max_level)
            if np.count_nonzero(keep) > EXACT_FINISH_COUNT or not split.any():
                return -1
            stay = keep & ~split
            kids = _children(t, nodes[split])
            nodes = np.concatenate([nodes[stay], kids])
            b = np.concatenate([b[:, stay], _ball_bounds_of(self._table[:, kids], qq)], axis=1)
            cnt = np.concatenate([cnt[stay], t.span_hi[kids] - t.span_lo[kids]])

    # -- approximate ball-intersection count ------------------------------------

    def approx_ball_count(self, q, delta: float, x: float) -> int:
        """N with N(x) <= N <= N((1+delta)x); N(y) counts balls meeting ball(q,y).

        One _walk that takes whole the nodes within (1 + delta) x: N is
        their balls plus the candidates within x.  No ball within x is
        dropped, so N(x) <= N; a ball taken whole lies within (1 + delta)
        x and a counted candidate within x, so N <= N((1 + delta) x).
        """
        qt = check_point(q, self.dim)
        if not (0.0 < delta <= 1.0):
            raise InputError(f"delta must lie in (0, 1], got {delta}")
        if x < 0.0:
            raise InputError(f"radius must be nonnegative, got {x}")
        if x == 0.0:
            return int(self.balls_containing_point(qt).size)
        qa = np.array(qt)
        sure, cand = self._walk(qa, x, 0.0, (1.0 + delta) * x)
        return sure.size + int(np.count_nonzero(ball_distances(qa, self.centers[cand], self.radii[cand]) <= x))

    # -- exact helpers -----------------------------------------------------------

    def balls_containing_point(self, q) -> np.ndarray:
        """Ids, ascending, of the balls whose closed body contains q.

        When the root's lower bound on every ball distance (_root_bounds,
        the exit's root round) is positive, no ball holds q, since that
        bound never exceeds a ball distance: the answer is empty at once.
        Otherwise _walk at radius 0 and floor 0 takes whole the nodes whose
        balls all hold q, and its candidates are filtered exactly.
        """
        qt = check_point(q, self.dim)
        if self._root_bounds(qt)[0] > 0.0:
            return np.empty(0, dtype=np.int64)
        qa = np.array(qt)
        sure, cand = self._walk(qa, 0.0, 0.0, 0.0)
        cand = cand[ball_distances(qa, self.centers[cand], self.radii[cand]) == 0.0]
        return np.sort(np.concatenate([sure, cand]))


def build_registry(instance: NormalizedInstance) -> Registry:
    """Build the registry over balls the caller has checked
    to be pairwise disjoint (`geometry.find_overlap`).

    The centers must lie in [0, 1)^d, as `normalize` puts them: refine
    snaps centers to grid cells of the unit cube and would clip any
    outside it, and answer wrongly.
    """
    c = instance.centers
    if not ((c >= 0.0).all() and (c < 1.0).all()):
        raise InputError("instance centers must lie in [0, 1)^d; normalize the balls first")
    return Registry(instance)
