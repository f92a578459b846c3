"""Sublinear-space cell decomposition answering k-th nearest ball queries.

The structure fixes (k, eps) at build time.  It wraps the input in quorum
clusters, surrounds every cluster with exponential grids of canonical cubes
(the near field I), covers the unit cube with a nearest-cluster
decomposition under the lifted product norm (the far field S), and overlays
both cube families into one compressed quadtree W.  Every cell stores a
representative point, an estimate of the k-th ball distance there with the
ball realizing it, and the cluster owning the cell's far-field region.

A certification sweep follows construction: cells whose stored data cannot
yet guarantee a (1 +- eps) answer for every query inside them are split
until the guarantee holds, the tree bottoms out, or the cell budget runs
dry.  Queries answer from per-cell data alone; each answer branch re-checks
its own sufficient condition at query time, so answers are correct even in
cells the sweep left uncertified, where the structure falls back to the
full registry search.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    CanonicalCube,
    InputError,
    InternalInvariantError,
    LiftedPoint,
    dist_point_ball,
    grid_level_for_diameter,
    enumerate_grid_cells_ball,
)
from .knn import KnnAnswer, query, refine
from .quadtree import (
    CompressedQuadtree,
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
    "AVDCell",
    "AVDIndex",
    "audit_cells",
    "avd_query",
    "build_avd",
    "cell_view",
]

# Grid fineness constant for the near-field environs of the clusters.  The
# strict value makes the smallest-cell argument go through on paper; the
# practical value keeps desk-scale builds affordable and leans on the
# certification sweep plus the end-to-end audit instead.
ZETA1_STRICT = 256.0 * XI
ZETA1_PRACTICAL = 16.0 * XI

# Stored estimates must satisfy d_B(rep,k) <= kdist <= (1+eps/4)*d_B(rep,k).
# A query at internal accuracy e returns dist in (1 +- e)*d_B, so the upper
# side needs (1+e)/(1-e) <= 1+eps/4, i.e. e <= eps/9 for every eps < 1.
_KDIST_SHRINK = 9.0

# Per-annulus / per-ring cell caps for practical mode; grids whose
# enumeration would overflow the cap are coarsened (level lowered) until
# they fit, and the sweep re-refines wherever certification needs it.
# Strict mode never coarsens.
_NEAR_CAP = {1: 512}
_NEAR_CAP_DEFAULT = 192
_FAR_CAP = {1: 1024}
_FAR_CAP_DEFAULT = 768

_EMPTY = np.uint8(1)  # flags bit: children tile the cube, no query lands here

_CERT_NONE = 0  # no per-cell guarantee; query may fall back to the registry
_CERT_SMALL = 1  # cell diameter small against the k-th distance lower bound
_CERT_NEAR = 2  # every point of the cell sits near the representative
_CERT_CLUSTER = 3  # owning cluster is provably right-sized for every query


@dataclass(frozen=True)
class AVDCell:
    """Read-only view of one cell's stored data."""

    cell: CanonicalCube
    rep_point: tuple[float, ...]
    rep_cluster: LiftedPoint
    cluster_witness: int
    kdist_at_rep: float
    kdist_witness: int


@dataclass(eq=False)
class AVDIndex:
    """Frozen query structure; query_counts is the only mutable part."""

    tree: CompressedQuadtree
    rep: np.ndarray  # (size, d) representative points
    kdist: np.ndarray  # (size,) estimate of d_B(rep, k), two-sided sandwich
    kdist_witness: np.ndarray  # (size,) ball realizing the estimate
    site: np.ndarray  # (size,) owning cluster per cell
    cert: np.ndarray  # (size,) certification tag, _CERT_*
    flags: np.ndarray  # (size,) bit 1: empty region
    clusters: list[QuorumCluster]
    registry: Registry
    k: int
    eps: float
    mode: str
    zeta1: float
    stats: dict

    def __post_init__(self) -> None:
        self.query_counts = {
            "small": 0,
            "near": 0,
            "cluster": 0,
            "fallback": 0,
            "out_of_domain": 0,
        }

    @property
    def cluster_centers(self) -> np.ndarray:
        return np.stack([np.asarray(c.center, dtype=np.float64) for c in self.clusters])

    @property
    def cluster_radii(self) -> np.ndarray:
        return np.array([c.radius for c in self.clusters], dtype=np.float64)


def _capped_level(center: np.ndarray, radius: float, level: int, dim: int, cap: int | None) -> tuple[int, bool]:
    """Lower the level until the enumeration footprint fits under cap."""
    coarsened = False
    while level > 0 and cap is not None:
        top = 1 << level
        est = 1
        for j in range(dim):
            lo = max(int(math.floor((float(center[j]) - radius) * top)) - 1, 0)
            hi = min(int(math.floor((float(center[j]) + radius) * top)) + 1, top - 1)
            if lo > hi:
                est = 0
                break
            est *= hi - lo + 1
        if est <= cap:
            break
        level -= 1
        coarsened = True
    return level, coarsened


def _near_field(
    centers: np.ndarray, radii: np.ndarray, eps: float, zeta1: float, dim: int, cap: int | None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Exponential grids around each cluster: balls 2^j x out to 32*XI/eps."""
    top_j = math.ceil(math.log2(32.0 * XI / eps))
    zs: list[np.ndarray] = []
    ls: list[np.ndarray] = []
    coarsened = 0
    for i in range(centers.shape[0]):
        for j in range(top_j + 1):
            radius = (2.0**j) * float(radii[i])
            level, _ = grid_level_for_diameter(2.0 * radius, eps / zeta1, dim)
            level, co = _capped_level(centers[i], radius, level, dim, cap)
            coarsened += int(co)
            coords = enumerate_grid_cells_ball(centers[i], radius, level)
            if coords.shape[0]:
                zs.append(morton_encode(coords, level, dim))
                ls.append(np.full(coords.shape[0], level, dtype=np.int64))
    if not zs:
        return np.empty(0, np.int64), np.empty(0, np.int64), coarsened
    return np.concatenate(zs), np.concatenate(ls), coarsened


def _far_field(
    centers: np.ndarray, radii: np.ndarray, eps: float, dim: int, cap: int | None
) -> tuple[np.ndarray, np.ndarray, int]:
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
    coarsened = 0
    for i in range(centers.shape[0]):
        w = centers[i]
        ring_r = float(radii[i])
        floor = ring_r
        while True:
            target = (eps / 8.0) * floor
            level, _ = grid_level_for_diameter(2.0 * ring_r, target / (2.0 * ring_r), dim)
            level, co = _capped_level(w, ring_r, level, dim, cap)
            coarsened += int(co)
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
    return np.concatenate(zs), np.concatenate(ls), coarsened


def _assign_sites(
    z: np.ndarray, lev: np.ndarray, centers: np.ndarray, radii: np.ndarray, dim: int
) -> np.ndarray:
    """Exact nearest lifted site of each cube center under the product norm."""
    pts = np.empty((z.size, dim), dtype=np.float64)
    for L in np.unique(lev):
        mask = lev == L
        coords = morton_decode(z[mask], int(L), dim)
        pts[mask] = (coords.astype(np.float64) + 0.5) * (2.0 ** (-int(L)))
    out = np.empty(z.size, dtype=np.int64)
    for lo in range(0, z.size, 65536):
        hi = min(lo + 65536, z.size)
        dmat = np.linalg.norm(pts[lo:hi, None, :] - centers[None, :, :], axis=2)
        out[lo:hi] = np.argmin(dmat + radii[None, :], axis=1)
    return out


def _region_rep(dim: int, max_level: int, key: tuple[int, int], kids: list[tuple[int, int]]) -> np.ndarray | None:
    """Center of the largest child-free dyadic sub-cube, or None when the
    children tile the cube exactly.  Breadth-first by level, scanning
    quadrants in key order, so the choice is deterministic."""
    z, lev = key
    if not kids:
        coords = morton_decode(np.array([z], dtype=np.int64), lev, dim)[0]
        return (coords.astype(np.float64) + 0.5) * (2.0 ** (-lev))
    cover = sum(1 << (dim * (max_level - kl)) for _, kl in kids)
    if cover >= 1 << (dim * (max_level - lev)):
        return None
    frontier: list[tuple[int, int, list[tuple[int, int]]]] = [(z, lev, kids)]
    while frontier:
        nxt: list[tuple[int, int, list[tuple[int, int]]]] = []
        for fz, fl, fkids in frontier:
            s = dim * (max_level - fl - 1)
            buckets: dict[int, list[tuple[int, int]]] = {}
            for kz, kl in fkids:
                buckets.setdefault((kz >> s) << s, []).append((kz, kl))
            for off in range(1 << dim):
                qz = fz + (off << s)
                got = buckets.get(qz)
                if got is None:
                    coords = morton_decode(np.array([qz], dtype=np.int64), fl + 1, dim)[0]
                    return (coords.astype(np.float64) + 0.5) * (2.0 ** (-(fl + 1)))
                if any(kl == fl + 1 for _, kl in got):
                    continue
                if sum(1 << (dim * (max_level - kl)) for _, kl in got) < 1 << s:
                    nxt.append((qz, fl + 1, got))
        frontier = nxt
    raise InternalInvariantError("no free sub-cube despite partial coverage")


def _kdist_at(
    reg: Registry,
    p: np.ndarray,
    k: int,
    eps_in: float,
    sandwich: float,
    hint: tuple[np.ndarray, float] | None,
) -> tuple[KnnAnswer, bool]:
    """Estimate at p, warm-started from a nearby already-estimated point.

    A valid hint (point h, value v) with d_B(h,k) <= v <= sandwich*d_B(h,k)
    brackets d_B(p,k) inside [v/sandwich - delta, v + delta] by the
    Lipschitz property; when that bracket certifies the 4-factor promise,
    the refinement stage runs directly and the estimation descent is
    skipped.  Results carry the same accuracy either way.
    """
    if hint is not None:
        hp, hv = hint
        delta = float(np.linalg.norm(p - hp))
        lo = hv / sandwich - delta
        x = (hv + delta) / 4.0
        if x > 0.0 and lo >= x / 4.0:
            return refine(reg, p, k, x, eps_in), True
    return query(reg, p, k, eps_in), False


def build_avd(
    reg: Registry,
    k: int,
    eps: float,
    mode: str = "practical",
    *,
    zeta1: float | None = None,
    cell_budget: int = 400_000,
    near_cap: int | None = None,
    far_cap: int | None = None,
) -> AVDIndex:
    """Build the fixed-(k, eps) cell decomposition over a registry.

    Requires k > 2 * c_d: smaller k is already served well by querying the
    registry directly, and the cluster machinery needs batches of k - c_d.
    Strict mode uses the full near-field fineness and no coarsening caps;
    practical mode caps per-grid enumeration and relies on the
    certification sweep, which both modes run.
    """
    t0 = time.perf_counter()
    n, dim = reg.n, reg.dim
    c_d = reg.instance.c_d
    if not 1 <= k <= n:
        raise InputError(f"k must lie in [1, {n}], got {k}")
    if k <= 2 * c_d:
        raise InputError(
            f"this structure needs k > 2*c_d = {2 * c_d} in dimension {dim}; "
            "query the registry directly for smaller k"
        )
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    if mode not in ("practical", "strict"):
        raise InputError(f"mode must be 'practical' or 'strict', got {mode!r}")
    strict = mode == "strict"
    z1 = float(zeta1) if zeta1 is not None else (ZETA1_STRICT if strict else ZETA1_PRACTICAL)
    if strict:
        near_cap = far_cap = None
    else:
        if near_cap is None:
            near_cap = _NEAR_CAP.get(dim, _NEAR_CAP_DEFAULT)
        if far_cap is None:
            far_cap = _FAR_CAP.get(dim, _FAR_CAP_DEFAULT)

    clusters = ball_quorum(reg, k)
    centers = np.stack([np.asarray(c.center, dtype=np.float64) for c in clusters])
    radii = np.array([c.radius for c in clusters], dtype=np.float64)

    near_z, near_l, co_near = _near_field(centers, radii, eps, z1, dim, near_cap)
    far_z, far_l, co_far = _far_field(centers, radii, eps, dim, far_cap)
    far_keys = np.unique(np.stack([far_z, far_l], axis=1), axis=0)
    far_z, far_l = far_keys[:, 0], far_keys[:, 1]
    far_site = _assign_sites(far_z, far_l, centers, radii, dim)

    far_tree = build_from_cubes((far_z, far_l, dim))
    near_tree = build_from_cubes((near_z, near_l, dim))
    w_tree, _, back_far = overlay(near_tree, far_tree)

    # Owning cluster per overlay node = the assignment of the smallest
    # far-field cube containing it: original far cubes keep their brute
    # assignment, closure nodes inherit from the nearest original ancestor.
    original = {(int(zz), int(ll)): int(s) for zz, ll, s in zip(far_z, far_l, far_site)}
    far_node_site = np.full(far_tree.size, -1, dtype=np.int64)
    for v in range(far_tree.size):
        got = original.get((int(far_tree.z[v]), int(far_tree.level[v])))
        far_node_site[v] = got if got is not None else far_node_site[far_tree.parent[v]]

    max_level = w_tree.max_level
    childmap: dict[tuple[int, int], list[tuple[int, int]]] = {}
    sitemap: dict[tuple[int, int], int] = {}
    w_keys: list[tuple[int, int]] = []
    for v in range(w_tree.size):
        key = (int(w_tree.z[v]), int(w_tree.level[v]))
        w_keys.append(key)
        childmap[key] = [(int(w_tree.z[c]), int(w_tree.level[c])) for c in w_tree.children(v)]
        fv = far_tree.find_key(int(w_tree.z[back_far[v]]), int(w_tree.level[back_far[v]]))
        if fv < 0:
            raise InternalInvariantError("overlay back pointer lost its source cube")
        sitemap[key] = int(far_node_site[fv])
    overlay_pre_split = w_tree.size

    # Certification sweep.  lm lower-bounds d_B(q, k) for every q in the
    # cube: kdist/sandwich <= d_B(rep, k), and d_B is 1-Lipschitz in q.
    # Each tag marks that one query branch answers every point of the cell
    # within (1 +- eps); tag order matches the query-time branch order.
    sandwich = 1.0 + eps / 4.0
    eps_in = eps / _KDIST_SHRINK
    rows: dict[tuple[int, int], tuple[np.ndarray | None, float, int, int, int]] = {}
    queue: deque[tuple[tuple[int, int], tuple[np.ndarray, float] | None]] = deque(
        (key, None) for key in w_keys
    )
    rolling: tuple[np.ndarray, float] | None = None
    splits = uncertified = warm_calls = cold_calls = 0
    while queue:
        key, hint = queue.popleft()
        kids = childmap[key]
        rep = _region_rep(dim, max_level, key, kids)
        if rep is None:
            rows[key] = (None, 0.0, -1, _CERT_NONE, int(_EMPTY))
            continue
        ans, warm = _kdist_at(reg, rep, k, eps_in, sandwich, hint if hint is not None else rolling)
        warm_calls += int(warm)
        cold_calls += int(not warm)
        kd = ans.distance / (1.0 - eps_in)
        rolling = (rep, kd)
        j = sitemap[key]
        lev = key[1]
        diam = (2.0 ** (-lev)) * math.sqrt(dim)
        lm = max(0.0, kd / sandwich - diam)
        lam1 = float(np.linalg.norm(rep - centers[j])) + float(radii[j])
        if diam <= (eps / 8.0) * lm:
            cert = _CERT_SMALL
        elif diam <= (eps / 4.0) * lm:
            cert = _CERT_NEAR
        elif 2.0 * float(radii[j]) <= eps * lm and lam1 + diam <= (1.0 + eps) * lm:
            cert = _CERT_CLUSTER
        else:
            cert = _CERT_NONE
        if cert != _CERT_NONE:
            rows[key] = (rep, kd, ans.ball_id, cert, 0)
            continue
        if lev >= max_level or len(childmap) + (1 << dim) > cell_budget:
            rows[key] = (rep, kd, ans.ball_id, _CERT_NONE, 0)
            uncertified += 1
            continue
        splits += 1
        s = dim * (max_level - lev - 1)
        buckets: dict[int, list[tuple[int, int]]] = {}
        for kz, kl in kids:
            buckets.setdefault((kz >> s) << s, []).append((kz, kl))
        quadrants: list[tuple[int, int]] = []
        for off in range(1 << dim):
            qkey = (key[0] + (off << s), lev + 1)
            quadrants.append(qkey)
            got = buckets.get(qkey[0], [])
            if any(kl == lev + 1 and kz == qkey[0] for kz, kl in got):
                continue  # the quadrant is already a stored node
            childmap[qkey] = got
            sitemap[qkey] = j
            queue.append((qkey, (rep, kd)))
        childmap[key] = quadrants
        rows[key] = (rep, kd, ans.ball_id, _CERT_NONE, int(_EMPTY))

    all_z = np.array([key[0] for key in rows], dtype=np.int64)
    all_l = np.array([key[1] for key in rows], dtype=np.int64)
    tree = build_from_cubes((all_z, all_l, dim))
    if tree.size != len(rows):
        raise InternalInvariantError("cell keys were not closed under ancestors")

    size = tree.size
    rep_arr = np.zeros((size, dim), dtype=np.float64)
    kdist = np.zeros(size, dtype=np.float64)
    kwit = np.full(size, -1, dtype=np.int64)
    site = np.zeros(size, dtype=np.int64)
    cert_arr = np.zeros(size, dtype=np.uint8)
    flag_arr = np.zeros(size, dtype=np.uint8)
    for v in range(size):
        key = (int(tree.z[v]), int(tree.level[v]))
        rep_v, kd, wit, cert, fl = rows[key]
        if rep_v is not None:
            rep_arr[v] = rep_v
        kdist[v] = kd
        kwit[v] = wit
        site[v] = sitemap[key]
        cert_arr[v] = cert
        flag_arr[v] = fl

    stats = {
        "n": n,
        "dim": dim,
        "k": k,
        "eps": eps,
        "mode": mode,
        "zeta1": z1,
        "clusters": len(clusters),
        "I": int(near_z.size),
        "S": int(far_z.size),
        "W": int(size),
        "overlay_pre_split": int(overlay_pre_split),
        "splits": splits,
        "uncertified": uncertified,
        "coarsened_near": co_near,
        "coarsened_far": co_far,
        "empty_cells": int(np.count_nonzero(flag_arr & _EMPTY)),
        "knn_calls_warm": warm_calls,
        "knn_calls_cold": cold_calls,
        "build_seconds": time.perf_counter() - t0,
    }
    return AVDIndex(
        tree=tree,
        rep=rep_arr,
        kdist=kdist,
        kdist_witness=kwit,
        site=site,
        cert=cert_arr,
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

    Points outside the unit cube have no cell: the registry search answers
    them, with its certified interval, and the answer is flagged out of
    domain.  In-domain queries walk to their cell and try, in order: the
    small-cell stored witness, the stored witness again when the query sits
    close enough to the representative, and the owning cluster's contained
    ball.  Each branch re-checks its own sufficient condition on the live
    query point, so a hit is correct regardless of what held at build time;
    if nothing fires the query falls back to the registry search.
    """
    qt = np.asarray(q, dtype=np.float64).reshape(-1)
    if qt.size != a.registry.dim:
        raise InputError(f"query dimension {qt.size} != index dimension {a.registry.dim}")
    eps, k = a.eps, a.k
    if not all(0.0 <= x < 1.0 for x in qt):
        a.query_counts["out_of_domain"] += 1
        return replace(query(a.registry, qt, k, eps), out_of_domain=True)
    v = a.tree.point_location(qt)
    if a.flags[v] & _EMPTY:
        raise InternalInvariantError("point location landed in a tiled cell")
    rep = a.rep[v]
    j = int(a.site[v])
    cl = a.clusters[j]
    xj = cl.radius
    offset = float(np.linalg.norm(qt - rep))
    lam1 = float(np.linalg.norm(qt - np.asarray(cl.center))) + xj
    lam_star = min(lam1, float(a.kdist[v]) + offset)
    diam = (2.0 ** (-int(a.tree.level[v]))) * math.sqrt(a.registry.dim)
    lower = float(a.kdist[v]) / (1.0 + eps / 4.0) - offset
    chosen = -1
    if diam <= (eps / 8.0) * lam_star:
        chosen = int(a.kdist_witness[v])
        a.query_counts["small"] += 1
    elif lower > 0.0 and offset <= (eps / 4.0) * lower:
        chosen = int(a.kdist_witness[v])
        a.query_counts["near"] += 1
    elif lower > 0.0 and 2.0 * xj <= eps * lower and lam1 <= (1.0 + eps) * lower:
        chosen = int(cl.witness)
        a.query_counts["cluster"] += 1
    if chosen < 0:
        a.query_counts["fallback"] += 1
        return query(a.registry, qt, k, eps)
    dist = dist_point_ball(qt, a.registry.instance.balls[chosen])
    return KnnAnswer(chosen, dist, (dist / (1.0 + eps), dist / (1.0 - eps)))


def cell_view(a: AVDIndex, node: int) -> AVDCell:
    """Assembled per-cell record; rejects tiled (empty-region) nodes."""
    if a.flags[node] & _EMPTY:
        raise InputError(f"node {node} has no region; its children tile it")
    j = int(a.site[node])
    cl = a.clusters[j]
    return AVDCell(
        cell=a.tree.node_cube(node),
        rep_point=tuple(float(x) for x in a.rep[node]),
        rep_cluster=LiftedPoint(tuple(float(x) for x in np.asarray(cl.center)), cl.radius),
        cluster_witness=int(cl.witness),
        kdist_at_rep=float(a.kdist[node]),
        kdist_witness=int(a.kdist_witness[node]),
    )


def _region_sample(a: AVDIndex, node: int, rng: np.random.Generator, tries: int = 64) -> np.ndarray:
    """A point of the node's region: inside its cube, outside child cubes."""
    cube = a.tree.node_cube(node)
    side = 2.0 ** (-cube.level)
    lo = np.array(cube.coords, dtype=np.float64) * side
    kids = a.tree.children(node)
    for _ in range(tries):
        p = lo + rng.random(a.registry.dim) * side
        hit = False
        for c in kids:
            ck = a.tree.node_cube(int(c))
            cs = 2.0 ** (-ck.level)
            clo = np.array(ck.coords, dtype=np.float64) * cs
            if np.all(p >= clo) and np.all(p < clo + cs):
                hit = True
                break
        if not hit:
            return p
    return a.rep[node].copy()


def audit_cells(a: AVDIndex, samples: int = 200, seed: int = 0) -> dict:
    """Per-cell checks against the brute-force reference.

    On sampled cells and random in-region points, verifies: the per-query
    threshold really upper-bounds the true k-th distance, the small-cell
    branch whenever its condition holds, the cluster branch whenever its
    condition holds, existence of an anchor cluster (radius at most 3*XI
    and center distance at most 4*XI times the true k-th distance), the
    stored estimate's two-sided sandwich at the representative, witness
    containment in the owning cluster, and end-to-end agreement of
    avd_query.  Also counts, as a diagnostic rather than a violation, how
    often the bare two-branch rule (stored witness on small cells, cluster
    ball otherwise, no runtime re-checks) would miss the (1 +- eps)
    window; building with a too-small zeta1 shows up here.
    """
    from .oracle import exact_kth_distance

    rng = np.random.default_rng(seed)
    balls = a.registry.instance.balls
    eps, k = a.eps, a.k
    live = np.flatnonzero((a.flags & _EMPTY) == 0)
    if live.size > samples:
        live = live[rng.choice(live.size, size=samples, replace=False)]
    violations: list[str] = []
    counts = {
        "cells": int(live.size),
        "points": 0,
        "small_branch": 0,
        "cluster_branch": 0,
        "anchor": 0,
        "kdist_spot": 0,
        "else_branch_misses": 0,
    }
    wc = np.stack([np.asarray(c.center) for c in a.clusters])
    wx = np.array([c.radius for c in a.clusters])
    for v in live:
        v = int(v)
        rep = a.rep[v]
        j = int(a.site[v])
        dk_rep = exact_kth_distance(balls, rep, k).value
        counts["kdist_spot"] += 1
        if not (dk_rep * (1 - 1e-9) <= a.kdist[v] <= (1 + eps / 4.0) * dk_rep * (1 + 1e-9)):
            violations.append(
                f"node {v}: stored estimate {a.kdist[v]:.6g} outside the sandwich of {dk_rep:.6g}"
            )
        wit_ball = balls[int(a.clusters[j].witness)]
        span = float(np.linalg.norm(np.asarray(wit_ball.center) - wc[j])) + wit_ball.radius
        if span > wx[j] * (1 + 1e-9):
            violations.append(f"node {v}: cluster witness ball sticks out of cluster {j}")
        diam = (2.0 ** (-int(a.tree.level[v]))) * math.sqrt(a.registry.dim)
        for _ in range(2):
            q = _region_sample(a, v, rng)
            counts["points"] += 1
            dk = exact_kth_distance(balls, q, k).value
            lam1 = float(np.linalg.norm(q - wc[j])) + wx[j]
            lam2 = float(a.kdist[v]) + float(np.linalg.norm(q - rep))
            lam_star = min(lam1, lam2)
            if lam_star < dk * (1 - 1e-9):
                violations.append(f"node {v}: threshold {lam_star:.6g} below exact {dk:.6g}")

            def in_window(dist: float) -> bool:
                return (1 - eps) * dk * (1 - 1e-9) <= dist <= (1 + eps) * dk * (1 + 1e-9)

            d_small = dist_point_ball(q, balls[int(a.kdist_witness[v])])
            d_clus = dist_point_ball(q, balls[int(a.clusters[j].witness)])
            if diam <= (eps / 8.0) * lam_star:
                counts["small_branch"] += 1
                if not in_window(d_small):
                    violations.append(f"node {v}: small-cell witness off ({d_small:.6g} vs {dk:.6g})")
            elif not in_window(d_clus):
                counts["else_branch_misses"] += 1
            lower = float(a.kdist[v]) / (1.0 + eps / 4.0) - float(np.linalg.norm(q - rep))
            if lower > 0.0 and 2.0 * wx[j] <= eps * lower and lam1 <= (1.0 + eps) * lower:
                counts["cluster_branch"] += 1
                if not in_window(d_clus):
                    violations.append(f"node {v}: cluster witness off ({d_clus:.6g} vs {dk:.6g})")
            near = np.linalg.norm(wc - q, axis=1)
            anchored = np.any((wx <= 3.0 * XI * dk + 1e-12) & (near <= 4.0 * XI * dk + 1e-12))
            if anchored:
                counts["anchor"] += 1
            else:
                violations.append(f"node {v}: no anchor cluster at scale {dk:.6g}")
            ans = avd_query(a, q)
            d_ans = dist_point_ball(q, balls[ans.ball_id])
            if not in_window(d_ans):
                violations.append(f"node {v}: end-to-end answer off ({d_ans:.6g} vs {dk:.6g})")
    return {"ok": not violations, "violations": violations, **counts}
