"""Brute-force ground truth at desk scale.

Every approximation guarantee in this package is certified against the
functions here: exact k-th ball distance, exact range counts, smallest
l-point enclosing ball, a certified lower bound on the optimal quorum
radius, and pairwise disjointness.  Instance-size caps are hard refusals,
never silent approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Ball, InputError, ball_distances

__all__ = [
    "OracleReport",
    "exact_kth_distance",
    "kth_distance_by_selection",
    "exact_counts",
    "smallest_enclosing_ball_of_l_points",
    "covering_radius_of_l_balls",
    "optimal_quorum_radius_bound",
    "check_disjoint",
]

SEB_POINT_CAP = 64
QUORUM_BOUND_BALL_CAP = 64


@dataclass(frozen=True)
class OracleReport:
    """An exact (or resolution-certified) quantity with provenance.

    For grid-search methods, `value` is a certified lower bound and
    `resolution` the grid step that bounds its one-sided error.
    """

    value: float
    witness: int | tuple | None
    method: str
    resolution: float | None = None


def _as_arrays(balls: Sequence[Ball]) -> tuple[np.ndarray, np.ndarray]:
    centers = np.array([b.center for b in balls], dtype=np.float64)
    radii = np.array([b.radius for b in balls], dtype=np.float64)
    return centers, radii


def exact_kth_distance(balls: Sequence[Ball], q: Sequence[float], k: int) -> OracleReport:
    """The k-th smallest of dist(q, b) over all balls, by full sort."""
    n = len(balls)
    if not (1 <= k <= n):
        raise InputError(f"k must lie in [1, {n}], got {k}")
    centers, radii = _as_arrays(balls)
    dists = ball_distances(q, centers, radii)
    order = np.argsort(dists, kind="stable")
    idx = int(order[k - 1])
    return OracleReport(value=float(dists[idx]), witness=idx, method="sort")


def kth_distance_by_selection(balls: Sequence[Ball], q: Sequence[float], k: int) -> float:
    """Independent quickselect implementation used to cross-check the sort route."""
    n = len(balls)
    if not (1 <= k <= n):
        raise InputError(f"k must lie in [1, {n}], got {k}")
    vals = [max(math.dist(tuple(q), b.center) - b.radius, 0.0) for b in balls]

    def select(items: list[float], j: int) -> float:
        pivot = items[len(items) // 2]
        lo = [v for v in items if v < pivot]
        eq = [v for v in items if v == pivot]
        hi = [v for v in items if v > pivot]
        if j < len(lo):
            return select(lo, j)
        if j < len(lo) + len(eq):
            return pivot
        return select(hi, j - len(lo) - len(eq))

    return select(vals, k - 1)


def exact_counts(
    balls: Sequence[Ball], q: Sequence[float], x: float
) -> tuple[int, int]:
    """(N(x), C(x)): balls meeting ball(q, x), and centers inside it, closed semantics."""
    if x < 0:
        raise InputError(f"range radius must be nonnegative, got {x}")
    centers, radii = _as_arrays(balls)
    bd = ball_distances(q, centers, radii)
    cd = np.linalg.norm(centers - np.asarray(q, dtype=np.float64), axis=1)
    return int(np.count_nonzero(bd <= x)), int(np.count_nonzero(cd <= x))


def smallest_enclosing_ball_of_l_points(
    points: Sequence[Sequence[float]], l: int
) -> OracleReport:
    """Radius of the smallest ball containing at least l of the points.

    d=1 is exact (sliding window over the sorted points).  d >= 2 runs a grid
    search over candidate centers; the reported value is feasible at a grid
    point and the optimum is no smaller than value - resolution.
    """
    pts = np.asarray(points, dtype=np.float64)
    n, d = pts.shape
    if n > SEB_POINT_CAP:
        raise InputError(f"oracle cap: at most {SEB_POINT_CAP} points, got {n}")
    if not (1 <= l <= n):
        raise InputError(f"l must lie in [1, {n}], got {l}")
    if l == 1:
        return OracleReport(value=0.0, witness=None, method="sort")
    if d == 1:
        xs = np.sort(pts[:, 0])
        widths = xs[l - 1 :] - xs[: n - l + 1]
        i = int(np.argmin(widths))
        return OracleReport(value=float(widths[i]) / 2.0, witness=i, method="sort")

    # Candidate centers: a grid over the bounding box, refined once around the
    # incumbent.  f(c) = l-th smallest distance to c is 1-Lipschitz, so the
    # optimum is at least best - resolution * sqrt(d) / 2.
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float((hi - lo).max())
    if span == 0.0:
        return OracleReport(value=0.0, witness=None, method="grid-search", resolution=0.0)

    def objective(cand: np.ndarray) -> np.ndarray:
        dist = np.linalg.norm(cand[:, None, :] - pts[None, :, :], axis=2)
        return np.partition(dist, l - 1, axis=1)[:, l - 1]

    steps = 33 if d == 2 else 17
    val, res = _grid_descend(objective, lo, hi, d, steps)
    return OracleReport(value=val, witness=None, method="grid-search", resolution=res)


def covering_radius_of_l_balls(
    balls: Sequence[Ball], ids: Sequence[int], l: int, grid_steps: int = 41
) -> OracleReport:
    """Certified bounds for the smallest ball fully covering l of the listed balls.

    Feasibility at center g costs the l-th smallest ||g - c_j|| + r_j, which is
    1-Lipschitz in g; value is the best grid feasible radius (an upper bound on
    nothing -- it IS feasible), and value - resolution lower-bounds the optimum.
    """
    if len(balls) > QUORUM_BOUND_BALL_CAP:
        raise InputError(f"oracle cap: at most {QUORUM_BOUND_BALL_CAP} balls")
    sub = [balls[i] for i in ids]
    if not (1 <= l <= len(sub)):
        raise InputError(f"l must lie in [1, {len(sub)}], got {l}")
    centers, radii = _as_arrays(sub)
    d = centers.shape[1]
    if l == 1 and len(sub) >= 1:
        i = int(np.argmin(radii))
        return OracleReport(value=float(radii[i]), witness=int(ids[i]), method="grid-search", resolution=0.0)

    def feasible(cand: np.ndarray) -> np.ndarray:
        dist = np.linalg.norm(cand[:, None, :] - centers[None, :, :], axis=2) + radii[None, :]
        return np.partition(dist, l - 1, axis=1)[:, l - 1]

    lo = (centers - radii[:, None]).min(axis=0)
    hi = (centers + radii[:, None]).max(axis=0)
    val, res = _grid_descend(feasible, lo, hi, d, grid_steps)
    return OracleReport(value=val, witness=None, method="grid-search", resolution=res)


def _grid_descend(objective, lo, hi, d, steps, rounds: int = 3) -> tuple[float, float]:
    """Minimize a 1-Lipschitz objective by grid search plus local refinement.

    The first pass covers the whole box, so best - res certifies a lower bound;
    refinement rounds only improve the feasible (upper) value, which keeps that
    certificate valid.  Returns (best feasible value, res of the full pass).
    """
    span = np.maximum(hi - lo, 1e-12)
    glo = np.asarray(lo, dtype=np.float64)
    ghi = glo + span
    best_val, best_ctr = math.inf, None
    res_full = 0.0
    step = 0.0
    for r in range(rounds + 1):
        axes = [np.linspace(glo[j], ghi[j], steps) for j in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        cand = np.stack([m.ravel() for m in mesh], axis=1)
        vals = objective(cand)
        i = int(np.argmin(vals))
        step = float(max((ghi - glo) / max(steps - 1, 1)))
        if r == 0:
            res_full = step * math.sqrt(d) / 2.0
        if float(vals[i]) < best_val:
            best_val, best_ctr = float(vals[i]), cand[i]
        glo, ghi = best_ctr - step, best_ctr + step
    return best_val, res_full


def optimal_quorum_radius_bound(
    balls: Sequence[Ball],
    remaining_ids: Sequence[int],
    l: int,
    k: int,
    grid_steps: int = 41,
) -> OracleReport:
    """Lower bound on the smallest radius of a ball that fully covers l of the
    remaining balls and meets at least k balls overall.

    Grid search over centers; both cost terms are 1-Lipschitz in the center, so
    (best grid value) - resolution is a certified lower bound on the optimum.
    """
    n = len(balls)
    if n > QUORUM_BOUND_BALL_CAP:
        raise InputError(f"oracle cap: at most {QUORUM_BOUND_BALL_CAP} balls, got {n}")
    if not (1 <= k <= n):
        raise InputError(f"k must lie in [1, {n}], got {k}")
    rem = [balls[i] for i in remaining_ids]
    if not (1 <= l <= len(rem)):
        raise InputError(f"l must lie in [1, {len(rem)}], got {l}")
    rc, rr = _as_arrays(rem)
    ac, ar = _as_arrays(balls)
    d = rc.shape[1]

    def feasible(cand: np.ndarray) -> np.ndarray:
        cover = np.linalg.norm(cand[:, None, :] - rc[None, :, :], axis=2) + rr[None, :]
        cover_l = np.partition(cover, l - 1, axis=1)[:, l - 1]
        meet = np.maximum(
            np.linalg.norm(cand[:, None, :] - ac[None, :, :], axis=2) - ar[None, :], 0.0
        )
        meet_k = np.partition(meet, k - 1, axis=1)[:, k - 1]
        return np.maximum(cover_l, meet_k)

    # The optimal center lies within the covering radius of some remaining
    # center; pad the search box by a feasible radius witnessed at rc[0].
    probe = feasible(rc[:1])
    pad = float(probe[0])
    lo = rc.min(axis=0) - pad
    hi = rc.max(axis=0) + pad
    val, res = _grid_descend(feasible, lo, hi, d, grid_steps)
    return OracleReport(
        value=max(val - res, 0.0), witness=None, method="grid-search", resolution=res
    )


def check_disjoint(balls: Sequence[Ball], tol: float = 1e-12) -> tuple[bool, tuple[int, int] | None]:
    """Pairwise interior-disjointness: ||c_i - c_j|| >= r_i + r_j, tangency allowed.

    Coincident radius-0 points are rejected; two distinct point sites must not
    share a location.
    """
    n = len(balls)
    if n <= 1:
        return True, None
    centers, radii = _as_arrays(balls)
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    need = radii[:, None] + radii[None, :]
    bad = (dist < need - tol) | (dist == 0.0)
    np.fill_diagonal(bad, False)
    idx = np.argwhere(bad)
    if idx.size:
        i, j = int(idx[0][0]), int(idx[0][1])
        return False, (min(i, j), max(i, j))
    return True, None
