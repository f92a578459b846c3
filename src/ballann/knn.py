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
    InputError,
    InternalInvariantError,
    dist_point_ball,
    dist_points_balls,
    grid_coords,
    grid_level_for_diameter,
)
from .quadtree import morton_encode
from .registry import Registry

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
    large = reg.large_balls_intersecting(qt, r_q, 2.0 * ehat * x)
    d_large = dist_points_balls(qt, reg.centers[large], reg.radii[large])
    # Small candidates: every center whose own cell meets the padded ball.
    # The pad keeps every ball that could still be the k-th inside the net,
    # while anything farther sits strictly above the selection threshold.
    r_snap = r_q + ehat * x
    small = reg.small_center_ids(qt, r_snap, level, large)
    est, w, keys = d_large, np.ones(large.size, dtype=np.int64), large
    if small.size:
        # One candidate per grid cell at the cell center, weighted by its
        # small centers and keyed by the smallest of their ids.
        coords = grid_coords(reg.centers[small], level)
        codes = morton_encode(coords, level, reg.dim)
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        first = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        cc = (coords[order[first]] + 0.5) * 2.0 ** (-level)
        d_cells = np.sqrt(np.einsum("ij,ij->i", cc - qt, cc - qt))
        est = np.concatenate([est, d_cells])
        w = np.concatenate([w, np.diff(np.append(first, codes.size))])
        keys = np.concatenate([keys, small[order[first]]])
    order = np.lexsort((keys, est))
    cum = np.cumsum(w[order])
    j = int(np.searchsorted(cum, k))
    if j >= order.size:
        raise InternalInvariantError(
            "selection ran out of candidates; the 4-factor estimate must be wrong"
        )
    wid = int(keys[order[j]])
    wdist = dist_point_ball(qt, reg.instance.balls[wid])
    return KnnAnswer(wid, wdist, (wdist / (1.0 + eps), wdist / (1.0 - eps)))


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
