"""Approximate k-th nearest ball queries against a Registry.

Two stages: a constant-factor estimate of the k-th ball distance (probe the
k-th center distances, count intersecting balls, then walk a dyadic chain
downward in the hard case), and a refinement stage that snaps small balls to
a fine grid and runs a weighted selection to land within (1 +- eps).

The returned distance is always the exact distance to a real input ball; the
approximation lives in which ball gets picked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Ball,
    InputError,
    InternalInvariantError,
    dist_point_ball,
    dist_points_balls,
    grid_level_for_diameter,
    enumerate_grid_cells_ball,
)
from .quadtree import morton_decode, morton_encode, range_hi_inclusive
from .registry import DENSE_CELL_CAP, Registry

# The refinement runs internally at eps/EPS_HAT_SHRINK.  The snapping error
# chain (dropped radius + cell snap, each at most ~1.3 * ehat * x, doubled on
# the witness) totals about 10.4 * ehat * d_k in the worst case, so /8 would
# overshoot the stated bound while /16 leaves margin.
EPS_HAT_SHRINK = 16.0


@dataclass(frozen=True)
class KnnAnswer:
    """A witness ball with its exact distance and a certified enclosure.

    certified_interval = (lo, hi) brackets the true k-th ball distance;
    lo <= distance <= hi and hi/lo <= (1+eps)/(1-eps).  out_of_domain marks
    a query outside the unit cube; its answer is certified all the same.
    """

    ball_id: int
    distance: float
    certified_interval: tuple[float, float]
    out_of_domain: bool = False


def _check_qk(reg: Registry, k: int) -> None:
    if not 1 <= int(k) <= reg.n:
        raise InputError(f"k must lie in [1, {reg.n}], got {k}")


def constant_factor_detail(reg: Registry, q, k: int) -> tuple[float, str, int]:
    """(x, step, witness) with x/4 <= d_B(q,k) <= 4x; witness >= 0 only at x=0.

    step records which case produced the value: "zero" (q inside >= k
    balls), "A" (all center probes already capture k balls), "B" (probe
    feasible, quarter probe not), "C" (dyadic descent below the quarter
    probe).
    """
    _check_qk(reg, k)
    k = int(k)
    qt = tuple(float(v) for v in q)
    inside = reg.balls_containing_point(qt)
    if inside.size >= k:
        return 0.0, "zero", int(inside.min())
    gamma = min(k, reg.c_d)
    # r_0 would be a 0-th center distance; the zero short-circuit above covers
    # the only case where that probe could matter, so stop at k-1.
    i_max = min(gamma, k - 1)
    ks = [k - i for i in range(i_max + 1)]
    radii = reg.approx_kth_center_distances(qt, ks)
    alpha = -1
    for i in range(i_max, -1, -1):
        if reg.approx_ball_count(qt, 1.0, radii[k - i]) >= k:
            alpha = i
            break
    if alpha < 0:
        raise InternalInvariantError("the k-th center probe must capture k balls")
    r_a = radii[k - alpha]
    if alpha == gamma == i_max:
        # k > c_d here; a packing argument pins d_k >= r_a/4, and the probe
        # count pins d_k <= 2 r_a, so r_a itself satisfies the sandwich.
        return r_a, "A", -1
    if reg.approx_ball_count(qt, 1.0, r_a / 4.0) < k:
        return r_a, "B", -1
    # Hard case: at least k balls already meet ball(q, r_a/4), so the k-th
    # distance is governed by big balls.  Halve until infeasible; the exact
    # x=0 count being < k guarantees termination.
    zeta = r_a / 4.0
    while reg.approx_ball_count(qt, 1.0, zeta / 2.0) >= k:
        zeta /= 2.0
    return zeta, "C", -1


def constant_factor_kth(reg: Registry, q, k: int) -> float:
    """x with x/4 <= d_B(q,k) <= 4x, in O(log n)-style time."""
    return constant_factor_detail(reg, q, k)[0]


def _exact_answer(reg: Registry, q, k: int, eps: float) -> KnnAnswer:
    dists = dist_points_balls(q, reg.centers, reg.radii)
    order = np.lexsort((np.arange(reg.n), dists))
    wid = int(order[k - 1])
    w = float(dists[wid])
    return KnnAnswer(wid, w, (w / (1.0 + eps), w / (1.0 - eps) if w else 0.0))


def refine(reg: Registry, q, k: int, x: float, eps: float) -> KnnAnswer:
    """Sharpen a 4-factor estimate x into a (1 +- eps) witness ball.

    Large balls (radius >= ehat*x) near the query are handled exactly; the
    rest enter as their centers snapped to a grid cell, weighted by how many
    centers share the cell.  A weighted selection picks the k-th candidate;
    ties order by the candidate's stored id key so reruns reproduce.
    """
    _check_qk(reg, k)
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    if x < 0.0:
        raise InputError(f"estimate must be nonnegative, got {x}")
    k = int(k)
    qt = tuple(float(v) for v in q)
    if x == 0.0:
        inside = reg.balls_containing_point(qt)
        if inside.size < k:
            raise InternalInvariantError(
                "x=0 requires q to lie inside at least k balls"
            )
        return KnnAnswer(int(inside.min()), 0.0, (0.0, 0.0))
    ehat = eps / EPS_HAT_SHRINK
    r_q = 4.0 * x * (1.0 + ehat)
    level, clamped = grid_level_for_diameter(2.0 * r_q, ehat / 16.0, reg.dim)
    if clamped:
        return _exact_answer(reg, qt, k, eps)
    large = reg.large_balls_intersecting(
        Ball(qt, r_q), min_diameter=2.0 * ehat * x
    )
    d_large = dist_points_balls(qt, reg.centers[large], reg.radii[large])
    # Small candidates: every center whose own cell meets the padded ball.
    # The pad keeps every ball that could still be the k-th inside the net,
    # while anything farther sits strictly above the selection threshold.
    r_snap = r_q + ehat * x
    qa = np.asarray(qt, dtype=np.float64)
    cell_codes, weights, cell_witness = _small_cells(reg, qa, r_snap, level, large)
    side = 2.0 ** (-level)
    if cell_codes.size:
        cc = (morton_decode(cell_codes, level, reg.dim) + 0.5) * side
        d_cells = np.sqrt(np.einsum("ij,ij->i", cc - qa, cc - qa))
    else:
        d_cells = np.empty(0, dtype=np.float64)

    est = np.concatenate([d_large, d_cells])
    w = np.concatenate([np.ones(large.size, dtype=np.int64), weights])
    keys = np.concatenate([large, cell_witness])
    order = np.lexsort((keys, est))
    cum = np.cumsum(w[order])
    j = int(np.searchsorted(cum, k))
    if j >= order.size:
        raise InternalInvariantError(
            "selection ran out of candidates; the 4-factor estimate must be wrong"
        )
    win = int(order[j])
    if win < large.size:
        wid = int(large[win])
    else:
        wid = _cell_small_witness(reg, int(cell_codes[win - large.size]), level, large)
    wdist = dist_point_ball(qt, reg.instance.balls[wid])
    return KnnAnswer(wid, wdist, (wdist / (1.0 + eps), wdist / (1.0 - eps)))


def _small_cells(
    reg: Registry, q: np.ndarray, radius: float, level: int, large: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes, weights, witness_key) of grid cells holding small-ball centers.

    Dense path enumerates the cells around q when that is cheap; otherwise
    centers are grouped by their cell code.  Both count exactly the centers
    whose own cell meets ball(q, radius), minus centers of `large` balls.
    """
    t = reg.centers_tree
    top = 1 << level
    est_cells = 1.0
    for j in range(reg.dim):
        a = max(int(np.floor((q[j] - radius) * top)) - 1, 0)
        b = min(int(np.floor((q[j] + radius) * top)) + 1, top - 1)
        est_cells *= max(b - a + 1, 0)
    if est_cells > DENSE_CELL_CAP:
        mask = reg._cell_meets_ball(reg.centers, q, radius, level)
        if large.size:
            mask[large] = False
        ids = np.flatnonzero(mask)
        if ids.size == 0:
            return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
        coords = np.clip((reg.centers[ids] * top).astype(np.int64), 0, top - 1)
        codes = morton_encode(coords, level, reg.dim)
        order = np.lexsort((ids, codes))
        codes, ids = codes[order], ids[order]
        first = np.ones(codes.size, dtype=bool)
        first[1:] = codes[1:] != codes[:-1]
        starts = np.flatnonzero(first)
        weights = np.diff(np.append(starts, codes.size))
        return codes[starts], weights.astype(np.int64), ids[starts]
    coords = enumerate_grid_cells_ball(tuple(q), radius, level)
    if coords.shape[0] == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
    codes = morton_encode(coords, level, reg.dim)
    hi = range_hi_inclusive(codes, reg.dim * (t.max_level - level))
    lo_i = np.searchsorted(t.point_codes, codes, side="left")
    hi_i = np.searchsorted(t.point_codes, hi, side="right")
    counts = (hi_i - lo_i).astype(np.int64)
    if large.size:
        lcoords = np.clip((reg.centers[large] * top).astype(np.int64), 0, top - 1)
        lcodes = morton_encode(lcoords, level, reg.dim)
        sorter = np.argsort(codes, kind="stable")
        pos = np.searchsorted(codes[sorter], lcodes)
        ok = pos < codes.size
        ok[ok] &= codes[sorter][pos[ok]] == lcodes[ok]
        np.subtract.at(counts, sorter[pos[ok]], 1)
    keep = counts > 0
    codes, counts, lo_i = codes[keep], counts[keep], lo_i[keep]
    witness = t.point_perm[lo_i] if codes.size else np.empty(0, np.int64)
    return codes, counts, witness.astype(np.int64)


def _cell_small_witness(
    reg: Registry, code: int, level: int, large: np.ndarray
) -> int:
    """Smallest ball id in the cell that is not one of the large balls."""
    ids = reg.centers_tree.point_ids_in_cube(code, level)
    if large.size:
        ids = ids[~np.isin(ids, large)]
    if ids.size == 0:
        raise InternalInvariantError("a weighted cell lost its small witness")
    return int(ids.min())


def query(reg: Registry, q, k: int, eps: float) -> KnnAnswer:
    """(1 +- eps)-approximate k-th nearest ball: estimate, then refine.

    The guarantee is position-free: the distance bounds never assume q lies
    inside the unit cube, so arbitrary query points are certified too.
    """
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    x, step, wid = constant_factor_detail(reg, q, k)
    if step == "zero":
        return KnnAnswer(wid, 0.0, (0.0, 0.0))
    return refine(reg, q, k, x, eps)
