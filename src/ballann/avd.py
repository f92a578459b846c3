"""Sublinear-space cell decomposition answering k-th nearest ball queries.

The structure fixes (k, eps) at build time.  It stores a compressed
quadtree W of cells, each with the exact k-th ball distance d_k at its
representative point, the cube's center, and the ball realizing it.  A
strict index also wraps the input in quorum clusters (Carmi et al.,
Algorithmica 2005) and records the cluster that owns each cell; a
practical index holds no clusters and site -1 on every cell.

A certification sweep splits every cell whose stored data cannot yet
guarantee a (1 +- eps) answer for every query inside it, until the
guarantee holds, the tree bottoms out, or the cell budget runs dry; this is
adaptive quadtree subdivision (Har-Peled, FOCS 2001; Arya, Malamatos &
Mount, JACM 2009).  Practical mode starts it from the root cube.  Strict
mode starts it from the paper's construction: the overlay of exponential
grids around the clusters (the near field I, at fineness zeta1) and a
nearest-cluster decomposition under the lifted product norm (the far field
S).  The sweep runs breadth first, one layer at a time, and decides a
layer by array operations in queue order.  Every live cell of a layer gets
the exact k-th ball distance d_k at its representative and, as its
witness, the k-th ball in (distance, id) order, from one block of ball
distances and one partition per cache-sized chunk of cells, in blocks
allocated once per layer (`knn.kth_balls`); the sweep makes no registry
search.  The cell stores kdist = d_k itself, which
meets the paper's sandwich [d_k, (1 + eps/4) d_k] trivially.  In strict
mode the root and each cell a split makes own the cluster of least lifted
distance |rep - center| + radius; an overlay cell keeps its far-field
cluster.

Certification.  A query q in a cell lies at offset = |q - rep| <= h from
the representative, h half the cell's diameter.  Write D = d_k(rep) and t
= d(q, w) for the stored witness w, which lies at exactly D from rep.  Both
d_k and a ball distance are 1-Lipschitz, so

    D - offset <= d_k(q) <= D + offset,    D - offset <= t <= D + offset.

The near branch answers with w when t <= (1 + eps)(D - offset) and t >=
(1 - eps)(D + offset); then (1 - eps) d_k(q) <= t <= (1 + eps) d_k(q), and
(t/(1 + eps), t/(1 - eps)) brackets d_k(q).  The test reads only t, which
is also the answer's distance, so it costs no extra ball distance.  At the
worst point of a cell, t = D + h (upper side) or t = D - h (lower side) at
offset h, the test holds exactly when h <= eps/(2 + eps) D and h <= eps/(2
- eps) D; the first implies the second.  A practical cell is certified
when the near test holds at those worst points, which puts every q in it
on the near branch.  Both float tests are padded by the relative
NEAR_MARGIN: the query shrinks its window by it, and the sweep certifies
only with twice that room, so rounding in t or the offset can neither
accept a witness outside the window nor send a certified cell's query to
the fallback.

Strict mode adds the cluster test.  Its cluster ball B(c, x) contains the
cluster's witness ball w' and has x >= 2 gamma, gamma = d_k(c), so k balls
lie within x/2 of c and d_k(q) <= |q - c| + x/2.  Let lower = D - offset
<= d_k(q).  When 2x <= eps * lower and lam1 = |q - c| + x <= (1 + eps)
lower, then d(q, w') <= lam1 <= (1 + eps) d_k(q), and d(q, w') >= |q - c|
- x >= d_k(q) - 3x/2 >= (1 - 3 eps/4) d_k(q).  A strict cell is also
certified when every q in it passes: with lm = D - h <= lower, when 2x <=
eps * lm and |rep - c| + x + h <= (1 + eps) lm.

No small-cell branch.  The paper also answers with the stored witness when
diam <= (eps/8) lam*, lam* <= kdist + offset.  With offset <= h = diam/2
that gives 2h <= (eps/8)(D + h), so offset <= h <= eps/(16 - eps) D, far
below eps/(2 + eps) D: the near test holds at such a q, since t <= D +
offset.  (D = 0 would need diam <= (eps/8) offset <= (eps/8) diam, which
no cube meets.)  Both return the stored witness, so the near branch
answers every such query alike.

Size.  A cell is split only when the near test fails at its worst points,
h > eps/(2 + eps) D up to the margin.  A leaf's parent, of half-diameter 2h,
was split, and every point x of the leaf lies within 2h of the parent's
representative, so d_k(x) <= 2h (2 + eps)/eps + 2h and a leaf's diameter
is at least eps/(2 + 2 eps) d_k at each of its points.  Counting leaves by
volume gives W of order (sqrt(d)/eps)^d times the integral of d_k(q)^-d
over the unit cube.  For point sites the set where d_k <= r has volume at
most n V_d r^d / k, so the integral is O((n/k)(1 + log(1/delta))), delta
the least d_k in the cube; for balls of every size a bound in n/k alone
needs the clusters, as in the paper.

Queries answer from per-cell data alone; each answer branch re-checks
its own sufficient condition at query time, so answers are correct even in
cells the sweep left uncertified, where the structure falls back to the
registry search (`knn.query`, certified exit first).  Points outside the
unit cube have no cell and go to the registry search as well.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    InputError,
    InternalInvariantError,
    ball_distance,
    ball_distances,
    check_eps,
    check_k,
    check_point,
    enumerate_grid_cells_ball,
    grid_level_for_diameter,
    max_level_for_dim,
    offset_and_ball_distance,
)
from .knn import KnnAnswer, kth_balls, query

# Not used by the build; bound here because perfbench/tracing.py wraps this name.
from .knn import refine  # noqa: F401
from .quadtree import (
    CompressedQuadtree,
    _nearest_marked_ancestor,
    build_from_cubes,
    morton_decode,
    morton_encode,
    overlay,
)
from .quorum import XI, QuorumCluster, ball_quorum
from .registry import Registry

__all__ = [
    "ZETA1_PRACTICAL",
    "ZETA1_STRICT",
    "AVDIndex",
    "audit_cells",
    "avd_query",
    "build_avd",
]

# Grid fineness constant for the near field, which only strict mode builds.
# The strict value makes the smallest-cell argument go through on paper; a
# practical index records the practical value.
ZETA1_STRICT = 256.0 * XI
ZETA1_PRACTICAL = 16.0 * XI

# Relative pad of the near test (module docstring): the query shrinks its
# window by it and the sweep certifies with twice that room, far above the
# few ulps by which a float ball distance or offset can be off.
NEAR_MARGIN = 1e-9

_EMPTY = np.uint8(1)  # flags bit: children tile the cube, no query lands here


@dataclass(eq=False)
class AVDIndex:
    """Frozen query structure; query_counts is the only mutable part."""

    tree: CompressedQuadtree
    rep: np.ndarray = field(init=False)  # (size, d) cube centers, from the tree's keys
    kdist: np.ndarray  # (size,) exact d_k at rep; 0 on empty cells
    kdist_witness: np.ndarray  # (size,) k-th ball at rep in (distance, id) order; -1 on empty cells
    site: np.ndarray  # (size,) owning cluster per cell; -1 when there are no clusters
    flags: np.ndarray  # (size,) bit 1: empty region
    clusters: list[QuorumCluster]  # empty in a practical index
    registry: Registry
    k: int
    eps: float
    mode: str
    zeta1: float
    stats: dict

    def __post_init__(self) -> None:
        self.rep = _cube_centers(self.tree.z, self.tree.level, self.tree.dim)
        self.query_counts = dict.fromkeys(("near", "cluster", "fallback", "out_of_domain"), 0)
        # avd_query's reads: views whose items are Python numbers.  rep and
        # the instance's centers are C-contiguous, so the flat reshapes copy
        # nothing.
        self._rep_view = memoryview(self.rep.reshape(-1))
        self._kdist_view = memoryview(self.kdist)
        self._witness_view = memoryview(self.kdist_witness)
        self._flags_view = memoryview(self.flags)
        self._centers_view = memoryview(self.registry.centers.reshape(-1))
        self._radii_view = memoryview(self.registry.radii)


def _cube_centers(z: np.ndarray, level: np.ndarray, dim: int) -> np.ndarray:
    """The centers of the cubes (z, level), from one full-depth decode."""
    top = max_level_for_dim(dim)
    coords = morton_decode(z, top, dim) >> (top - level)[:, None]
    return (coords.astype(np.float64) + 0.5) * np.ldexp(1.0, -level)[:, None]


def _near_field(
    centers: np.ndarray, radii: np.ndarray, eps: float, zeta1: float, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exponential grids around each cluster: balls 2^j x out to 32*XI/eps."""
    top_j = math.ceil(math.log2(32.0 * XI / eps))
    zs: list[np.ndarray] = []
    ls: list[np.ndarray] = []
    for i in range(centers.shape[0]):
        for j in range(top_j + 1):
            radius = (2.0**j) * float(radii[i])
            level, _ = grid_level_for_diameter(2.0 * radius, eps / zeta1, dim)
            coords = enumerate_grid_cells_ball(centers[i], radius, level)
            if coords.shape[0]:
                zs.append(morton_encode(coords, level, dim))
                ls.append(np.full(coords.shape[0], level, dtype=np.int64))
    if not zs:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(zs), np.concatenate(ls)


def _far_field(
    centers: np.ndarray, radii: np.ndarray, eps: float, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rings of cells around each site, fine enough that the smallest cube
    containing any point q has diameter at most (eps/8) times the lifted
    distance from q to its nearest site.

    Ring j spans distance (2^{j-1} x, 2^j x] from the site (ring 0 is the
    inner disk); the lifted distance from inside ring j to the nearest site
    is at least the ring floor, so cells of diameter (eps/8) * floor
    suffice.  Cells wholly buried inside the previous ring are dropped; the
    finer inner ring already covers them.
    """
    sqd = math.sqrt(dim)
    zs: list[np.ndarray] = []
    ls: list[np.ndarray] = []
    for i in range(centers.shape[0]):
        w = centers[i]
        ring_r = float(radii[i])
        floor = ring_r
        while True:
            target = (eps / 8.0) * floor
            level, _ = grid_level_for_diameter(2.0 * ring_r, target / (2.0 * ring_r), dim)
            coords = enumerate_grid_cells_ball(w, ring_r, level)
            if coords.shape[0]:
                if floor < ring_r:
                    side = 2.0 ** (-level)
                    lo = coords.astype(np.float64) * side
                    far = np.maximum(np.abs(lo - w), np.abs(lo + side - w))
                    coords = coords[np.linalg.norm(far, axis=1) >= floor]
                if coords.shape[0]:
                    zs.append(morton_encode(coords, level, dim))
                    ls.append(np.full(coords.shape[0], level, dtype=np.int64))
            if ring_r >= sqd:
                break
            floor = ring_r
            ring_r *= 2.0
    zs.append(np.zeros(1, dtype=np.int64))  # the root cube anchors assignment
    ls.append(np.zeros(1, dtype=np.int64))
    return np.concatenate(zs), np.concatenate(ls)


def _assign_sites(
    tree: CompressedQuadtree, z: np.ndarray, lev: np.ndarray, centers: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Owning cluster per node of the far-field tree built from the cubes (z, lev).

    Each original cube takes the exact nearest lifted site of its center
    under the product norm; closure nodes inherit from their nearest
    original ancestor, by the overlay's pointer jumping (the root cube is
    always original).
    """
    nodes = tree.find_keys(z, lev)
    site = np.full(tree.size, -1, dtype=np.int64)
    for lo in range(0, z.size, 65536):
        pts = _cube_centers(z[lo : lo + 65536], lev[lo : lo + 65536], tree.dim)
        site[nodes[lo : lo + 65536]] = _nearest_sites(pts, centers, radii)
    return site[_nearest_marked_ancestor(tree.parent, site >= 0)]


def _nearest_sites(pts: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """The cluster of least lifted distance |p - center| + radius, per row of pts."""
    dmat = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2)
    return np.argmin(dmat + radii[None, :], axis=1)


def _paper_cells(
    centers: np.ndarray, radii: np.ndarray, eps: float, zeta1: float, dim: int
) -> tuple[CompressedQuadtree, np.ndarray, np.ndarray, int, int, float]:
    """Strict mode's first layer: the overlay W of the near field I and the
    far field S, with each W node's far-field cluster and whether its
    children tile it, plus |I|, |S| and the time the fields were done."""
    near_z, near_l = _near_field(centers, radii, eps, zeta1, dim)
    far_z, far_l = _far_field(centers, radii, eps, dim)
    far_keys = np.unique(np.stack([far_z, far_l], axis=1), axis=0)
    far_z, far_l = far_keys[:, 0], far_keys[:, 1]

    far_tree = build_from_cubes((far_z, far_l, dim))
    far_node_site = _assign_sites(far_tree, far_z, far_l, centers, radii)
    near_tree = build_from_cubes((near_z, near_l, dim))
    t_fields = time.perf_counter()
    w_tree, back_far = overlay(near_tree, far_tree)
    far_node = far_tree.find_keys(w_tree.z[back_far], w_tree.level[back_far])
    if (far_node < 0).any():
        raise InternalInvariantError("overlay back pointer lost its source cube")
    # In an LCA-closed tree no quadrant of a cell holds two of its children,
    # so the children tile the cell exactly when all 2^d quadrants are
    # children one level down.
    kids = w_tree.parent[1:]
    deeper = w_tree.level[1:] == w_tree.level[kids] + 1
    tiled = np.bincount(kids[deeper], minlength=w_tree.size) == 1 << dim
    return w_tree, far_node_site[far_node], tiled, int(near_z.size), int(far_z.size), t_fields


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean length of each row, by one BLAS dot per row.

    That is how np.linalg.norm measures a single vector; a summed einsum
    can differ from it in the last bit, and a last bit can move a split.
    """
    return np.sqrt((v[:, None, :] @ v[:, :, None]).reshape(-1))


def build_avd(
    reg: Registry,
    k: int,
    eps: float,
    mode: str = "practical",
    *,
    cell_budget: int = 400_000,
) -> AVDIndex:
    """Build the fixed-(k, eps) cell decomposition over a registry.

    Requires k > 2 * c_d; smaller k is served by querying the registry
    directly.  Strict mode needs the floor for its quorum, whose clusters
    take batches of k - c_d balls.  Practical mode makes no clusters, and
    keeps the floor because of size: below it, oracle-checked practical
    answers were right (0 misses in 26 configurations), but the near test
    needs cells that shrink with d_k, which tends to 0 near a ball's surface
    when k is small, and at the smallest k the sweep ran out of the default
    cell budget.

    Practical mode runs the certification sweep from the root cube and
    certifies by the near test alone, with no quorum: the index holds no
    clusters and site -1 on every cell.  Strict mode builds the quorum and
    runs the sweep over the paper's near field, far field and overlay; its
    cells certify by the near test or the cluster test.  Either sweep
    stores at each live cell the exact k-th ball distance d_k at its
    representative and the k-th ball in (distance, id) order, and
    certifies a cell when its half-diameter is at most eps/(2 + eps) d_k,
    padded by NEAR_MARGIN (module docstring); it costs one row of n ball
    distances per live cell and no registry search.

    Strict mode's near field has fineness ZETA1_STRICT; a practical build
    records ZETA1_PRACTICAL in `AVDIndex.zeta1` and reads it nowhere.
    """
    t0 = time.perf_counter()
    n, dim = reg.n, reg.dim
    c_d = reg.instance.c_d
    check_k(k, n)
    if k <= 2 * c_d:
        raise InputError(
            f"k={k} is not above 2*c_d = {2 * c_d} in dimension {dim}: below that "
            "the cell index's cells outgrow its budget; for smaller k build a "
            "registry index (omit --k/--eps) and query it directly"
        )
    check_eps(eps)
    if mode not in ("practical", "strict"):
        raise InputError(f"mode must be 'practical' or 'strict', got {mode!r}")
    strict = mode == "strict"
    z1 = ZETA1_STRICT if strict else ZETA1_PRACTICAL

    if strict:
        clusters = ball_quorum(reg, k)
        centers = np.stack([np.asarray(c.center, dtype=np.float64) for c in clusters])
        radii = np.array([c.radius for c in clusters], dtype=np.float64)
        t_quorum = time.perf_counter()
        w_tree, site, tiled, n_near, n_far, t_fields = _paper_cells(centers, radii, eps, z1, dim)
    else:  # the root cube alone; no clusters, so every site stays -1
        clusters = []
        t_quorum = time.perf_counter()
        w_tree = build_from_cubes((np.zeros(1, np.int64), np.zeros(1, np.int64), dim))
        site, tiled = np.full(1, -1, dtype=np.int64), np.zeros(1, dtype=bool)
        n_near = n_far = 0
        t_fields = time.perf_counter()
    t_overlay = time.perf_counter()

    # Certification sweep (see the module docstring).  A layer is parallel
    # arrays (keys, levels, owning clusters, tile flags), decided in one pass
    # in queue order.
    max_level = w_tree.max_level
    offsets = np.arange(1 << dim, dtype=np.int64)
    z, lev, live = w_tree.z, w_tree.level, ~tiled
    cols: list[tuple[np.ndarray, ...]] = []  # per layer: z, level, kdist, witness, site, flags
    cells = w_tree.size
    splits = uncertified = layers = 0
    while z.size:
        layers += 1
        rep = _cube_centers(z, lev, dim)
        if strict:
            fresh = site < 0
            site[fresh] = _nearest_sites(rep[fresh], centers, radii)
        kd = np.zeros(z.size, dtype=np.float64)
        wid = np.full(z.size, -1, dtype=np.int64)
        kd[live], wid[live] = kth_balls(reg, rep[live], k)

        half = np.ldexp(0.5 * math.sqrt(dim), -lev)
        certified = near_certifies(kd, half, eps)
        if strict:
            lm = np.maximum(0.0, kd - half)
            lam1 = _norms(rep - centers[site]) + radii[site]
            certified |= (2.0 * radii[site] <= eps * lm) & (lam1 + half <= (1.0 + eps) * lm)
        cand = np.flatnonzero(live & ~certified & (lev < max_level))
        s = dim * (max_level - lev[cand] - 1)
        qz = z[cand, None] + (offsets[None, :] << s[:, None])
        # A quadrant is already stored exactly when it is a first-layer node.
        new = (w_tree.find_keys(qz.ravel(), np.repeat(lev[cand] + 1, offsets.size)) < 0).reshape(qz.shape)
        # The cell count only grows, so the splits the budget allows are
        # a prefix of the candidates, in queue order.
        grow = new.sum(axis=1)
        split = cells + np.cumsum(grow) - grow + (1 << dim) <= cell_budget
        cells += int(grow[split].sum())
        splits += int(split.sum())
        uncertified += int(np.count_nonzero(live & ~certified)) - int(split.sum())
        # No query lands in an empty cell, so it stores kdist 0 and witness -1.
        empty = ~live
        empty[cand[split]] = True
        kd[empty], wid[empty] = 0.0, -1
        cols.append((z, lev, kd, wid, site, np.where(empty, _EMPTY, np.uint8(0))))
        parent = np.repeat(cand[split], new[split].sum(axis=1))
        z, lev = qz[split][new[split]], lev[parent] + 1
        site = np.full(z.size, -1, dtype=np.int64)
        live = np.ones(z.size, dtype=bool)  # a split's quadrant holds one stored cube at most
    t_sweep = time.perf_counter()

    # One sort puts the cells in tree order; the tree built from their keys
    # must list exactly those keys, or the keys were not closed under LCAs.
    all_z, all_l, kdist, kwit, site, flag_arr = (np.concatenate(c) for c in zip(*cols))
    tree = build_from_cubes((all_z, all_l, dim))
    order = np.lexsort((all_l, all_z))
    if not (np.array_equal(tree.z, all_z[order]) and np.array_equal(tree.level, all_l[order])):
        raise InternalInvariantError("cell keys were not closed under ancestors")
    kdist, kwit, site, flag_arr = (c[order] for c in (kdist, kwit, site, flag_arr))
    t_end = time.perf_counter()

    stats = {
        "n": n,
        "dim": dim,
        "k": k,
        "eps": eps,
        "mode": mode,
        "zeta1": z1,
        "clusters": len(clusters),
        "I": n_near,
        "S": n_far,
        "W": int(tree.size),
        "overlay_pre_split": int(w_tree.size),
        "splits": splits,
        "uncertified": uncertified,
        "empty_cells": int(np.count_nonzero(flag_arr & _EMPTY)),
        "sweep_layers": layers,
        "quorum_s": t_quorum - t0,
        "fields_s": t_fields - t_quorum,
        "overlay_s": t_overlay - t_fields,
        "sweep_s": t_sweep - t_overlay,
        "assemble_s": t_end - t_sweep,
        "build_seconds": t_end - t0,
    }
    return AVDIndex(
        tree=tree,
        kdist=kdist,
        kdist_witness=kwit,
        site=site,
        flags=flag_arr,
        clusters=clusters,
        registry=reg,
        k=k,
        eps=eps,
        mode=mode,
        zeta1=z1,
        stats=stats,
    )


def avd_query(a: AVDIndex, q) -> KnnAnswer:
    """Answer a fixed-(k, eps) query from per-cell data.

    q needs dim finite coordinates (`geometry.check_point`), else
    InputError.  Points outside the unit cube have no cell: `knn.query`
    answers them as it answers the registry's own queries, with its
    certified interval and the out_of_domain flag.  In-domain queries walk
    to their cell and try, in order: the stored witness when the query
    sees it inside the window that the representative's exact d_k and the
    offset give (the near branch, which also covers the paper's small-cell
    branch; see the module docstring), then,
    in a cell with an owning cluster (site >= 0, strict indexes only), the
    cluster's contained ball.  Each branch re-checks its own sufficient
    condition on the live query point, so a hit is correct regardless of
    what held at build time; if nothing fires the query falls back to
    `knn.query`.

    An in-domain query makes no numpy call outside the strict cluster
    branch.  Point location searches memoryviews of the tree's arrays
    (`CompressedQuadtree.point_location`), and the query reads its cell
    and its witness from zero-copy memoryviews that `AVDIndex` keeps of
    rep, kdist, kdist_witness, flags and the registry's centers and radii:
    one item per number, and one slice and `.tolist()` per row.  The
    offset |q - rep| and the witness's distance come from one loop over
    the coordinates (`geometry.offset_and_ball_distance`), each sum in
    `ball_distance`'s order, so both equal `ball_distance` bit for bit;
    that loop can differ from np.linalg.norm in the last bit.
    """
    qt = check_point(q, a.registry.dim)
    eps, k = a.eps, a.k
    if not (min(qt) >= 0.0 and max(qt) < 1.0):  # qt holds no NaN
        ans = query(a.registry, qt, k, eps)
        a.query_counts["out_of_domain"] += 1
        return ans
    v = a.tree.point_location(qt)
    if a._flags_view[v] & _EMPTY:
        raise InternalInvariantError("point location landed in a tiled cell")
    reg = a.registry
    d = len(qt)
    kd = a._kdist_view[v]
    w = a._witness_view[v]
    offset, dist = offset_and_ball_distance(
        qt, a._rep_view[v * d : v * d + d].tolist(), a._centers_view[w * d : w * d + d].tolist(), a._radii_view[w]
    )
    if near_test(dist, kd, offset, eps):
        a.query_counts["near"] += 1
        return KnnAnswer(w, dist, (dist / (1.0 + eps), dist / (1.0 - eps)))
    lower = kd - offset
    if lower > 0.0 and a.site.item(v) >= 0:
        cl = a.clusters[a.site.item(v)]
        lam1 = float(np.linalg.norm(np.array(qt) - np.asarray(cl.center))) + cl.radius
        if 2.0 * cl.radius <= eps * lower and lam1 <= (1.0 + eps) * lower:
            w = int(cl.witness)
            dist = ball_distance(qt, reg.centers[w].tolist(), reg.radii.item(w))
            a.query_counts["cluster"] += 1
            return KnnAnswer(w, dist, (dist / (1.0 + eps), dist / (1.0 - eps)))
    a.query_counts["fallback"] += 1
    return query(reg, qt, k, eps)


def near_certifies(kdist: np.ndarray, half: np.ndarray, eps: float) -> np.ndarray:
    """Whether every query in a cell of half-diameter `half`, around a
    representative whose d_k is kdist, passes the near test: the test at
    the cell's worst points, distance kdist + half or kdist - half at
    offset half, with twice the query's margin (module docstring)."""
    lm = np.maximum(0.0, kdist - half)
    pad = 1.0 - 2.0 * NEAR_MARGIN
    return (kdist + half <= (1.0 + eps) * lm * pad) & (lm * pad >= (1.0 - eps) * (kdist + half))


def near_test(dist: float, kdist: float, offset: float, eps: float) -> bool:
    """The near branch's test: the stored witness, at distance dist from q,
    answers a query at offset from a representative whose d_k is kdist
    (module docstring), inside the window shrunk by NEAR_MARGIN."""
    return (
        dist <= (1.0 + eps) * (kdist - offset) * (1.0 - NEAR_MARGIN)
        and dist * (1.0 - NEAR_MARGIN) >= (1.0 - eps) * (kdist + offset)
    )


def _region_sample(a: AVDIndex, node: int, rng: np.random.Generator, tries: int = 64) -> np.ndarray:
    """A point of the node's region: inside its cube, outside child cubes."""
    kids = a.tree.children(node)
    half = np.ldexp(0.5, -a.tree.level[kids])[:, None]
    klo, khi = a.rep[kids] - half, a.rep[kids] + half
    side = np.ldexp(1.0, -int(a.tree.level[node]))
    lo = a.rep[node] - side / 2.0
    for _ in range(tries):
        p = lo + rng.random(a.registry.dim) * side
        if not np.any(np.all((klo <= p) & (p < khi), axis=1)):
            return p
    return a.rep[node].copy()


def audit_cells(a: AVDIndex, samples: int = 200, seed: int = 0) -> dict:
    """Per-cell checks against brute force, the k-th of all ball distances.

    On up to `samples` cells and about 2 * samples random in-region points
    (two a cell at least), verifies: the stored kdist equals the exact d_k
    at the representative, the per-query threshold kdist + offset
    upper-bounds the true k-th distance, the stored witness lies in the
    (1 +- eps) window wherever the query-time near test holds, and
    end-to-end agreement of avd_query.  An index with clusters (strict
    builds make them) also gets the cluster checks: the cluster branch
    whenever its condition holds, existence of an anchor cluster (radius
    at most 3*XI and center distance at most 4*XI times the true k-th
    distance), and witness containment in the owning cluster.  Also
    counts, as a diagnostic rather than a violation, how often the bare
    two-branch rule (stored witness on the paper's small cells, the cluster
    ball otherwise, or the stored witness again without clusters; no
    runtime re-checks) would miss the (1 +- eps) window; an index whose
    sweep ran out of budget shows up here.
    """
    rng = np.random.default_rng(seed)
    reg = a.registry
    eps, k = a.eps, a.k
    live = np.flatnonzero((a.flags & _EMPTY) == 0)
    if live.size > samples:
        live = live[rng.choice(live.size, size=samples, replace=False)]
    violations: list[str] = []
    counts = {
        "cells": int(live.size),
        "points": 0,
        "near_branch": 0,
        "cluster_branch": 0,
        "anchor": 0,
        "kdist_spot": 0,
        "else_branch_misses": 0,
    }
    # With fewer live cells than samples, the rest of the budget goes to
    # more points per cell (two at least).
    per_cell = max(2, 2 * samples // max(int(live.size), 1))
    clustered = bool(a.clusters)
    if clustered:
        wc = np.stack([np.asarray(c.center) for c in a.clusters])
        wx = np.array([c.radius for c in a.clusters])
    for v in live:
        v = int(v)
        rep = a.rep[v]
        kd = float(a.kdist[v])
        dk_rep = np.partition(ball_distances(rep, reg.centers, reg.radii), k - 1)[k - 1]
        counts["kdist_spot"] += 1
        if kd != dk_rep:
            violations.append(f"node {v}: stored kdist {kd!r} is not the exact d_k {dk_rep!r}")
        if clustered:
            j = int(a.site[v])
            w = int(a.clusters[j].witness)
            span = float(np.linalg.norm(reg.centers[w] - wc[j])) + float(reg.radii[w])
            if span > wx[j] * (1 + 1e-9):
                violations.append(f"node {v}: cluster witness ball sticks out of cluster {j}")
        diam = (2.0 ** (-int(a.tree.level[v]))) * math.sqrt(a.registry.dim)
        for _ in range(per_cell):
            q = _region_sample(a, v, rng)
            counts["points"] += 1
            dq = ball_distances(q, reg.centers, reg.radii)
            dk = np.partition(dq, k - 1)[k - 1]
            offset = ball_distance(q.tolist(), rep.tolist(), 0.0)
            lam_star = kd + offset
            if clustered:
                lam1 = float(np.linalg.norm(q - wc[j])) + wx[j]
                lam_star = min(lam1, lam_star)
            if lam_star < dk * (1 - 1e-9):
                violations.append(f"node {v}: threshold {lam_star:.6g} below exact {dk:.6g}")

            def in_window(dist: float) -> bool:
                return (1 - eps) * dk * (1 - 1e-9) <= dist <= (1 + eps) * dk * (1 + 1e-9)

            d_near = dq[a.kdist_witness[v]]
            d_else = dq[a.clusters[j].witness] if clustered else d_near
            if near_test(float(d_near), kd, offset, eps):
                counts["near_branch"] += 1
                if not in_window(d_near):
                    violations.append(f"node {v}: near-branch witness off ({d_near:.6g} vs {dk:.6g})")
            if diam > (eps / 8.0) * lam_star and not in_window(d_else):
                counts["else_branch_misses"] += 1
            if clustered:
                lower = kd - offset
                if lower > 0.0 and 2.0 * wx[j] <= eps * lower and lam1 <= (1.0 + eps) * lower:
                    counts["cluster_branch"] += 1
                    if not in_window(d_else):
                        violations.append(f"node {v}: cluster witness off ({d_else:.6g} vs {dk:.6g})")
                near = np.linalg.norm(wc - q, axis=1)
                if np.any((wx <= 3.0 * XI * dk + 1e-12) & (near <= 4.0 * XI * dk + 1e-12)):
                    counts["anchor"] += 1
                else:
                    violations.append(f"node {v}: no anchor cluster at scale {dk:.6g}")
            ans = avd_query(a, q)
            d_ans = dq[ans.ball_id]
            if not in_window(d_ans):
                violations.append(f"node {v}: end-to-end answer off ({d_ans:.6g} vs {dk:.6g})")
    return {"ok": not violations, "violations": violations, **counts}
