"""Greedy batched clustering of disjoint balls.

The point stage repeatedly grabs the cheapest batch of ``ell`` remaining
centers: a 2-approximate smallest ell-enclosing ball constrained to be
centered at one of the points.  The ball stage then inflates each batch ball
until it provably meets at least k input balls and contains its whole batch,
and finally orders the clusters by radius.  Its k-reach gamma, the k-th ball
distance at each batch center, is exact: one block selection
(`knn.kth_balls`) for all rounds, and no registry search.  A short last
batch, when n is not divisible by ell, stays pinned at the end of the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import InputError, ball_distances, check_k
from .knn import kth_balls
from .oracle import QUORUM_BOUND_BALL_CAP, optimal_quorum_radius_bound
from .registry import Registry

__all__ = [
    "XI",
    "PointQuorumBall",
    "QuorumCluster",
    "ball_quorum",
    "point_quorum",
    "verify_quorum",
]

# Approximation factor of the cluster radius against the smallest feasible
# ball at its turn.  The chain behind it: the point stage is a 2-approximation,
# wrapping centers costs 3x, and the k-reach estimate may be a
# 3/2-approximation; ball_quorum takes the exact k-th ball distance, a
# 1-approximation.
XI = 12.0

# Rows per distance block in _cheapest_center, which holds (256, n, d) floats.
_CENTER_BLOCK = 256


@dataclass(frozen=True, eq=False)
class PointQuorumBall:
    """One point-stage round: a ball centered at an input point."""

    center: np.ndarray
    radius: float
    assigned: np.ndarray  # original point ids, ascending


@dataclass(frozen=True, eq=False)
class QuorumCluster:
    """A batch of input balls plus the inflated ball that swallowed it.

    radius is the final value: at least twice the k-th ball distance at
    the center (so the cluster meets k input balls), at least three times
    the point-stage radius, and large enough to contain every assigned ball
    outright.
    """

    center: np.ndarray
    radius: float
    rho: float  # point-stage radius over the assigned centers
    gamma: float  # exact k-th ball distance at the center
    assigned: np.ndarray  # ball ids, ascending
    witness: int  # assigned ball whose center is nearest the cluster center
    round_index: int  # point-stage round that produced this cluster
    is_remainder: bool


def _cheapest_center(pts: np.ndarray, take: int) -> tuple[int, float]:
    """Row whose take-th smallest squared distance (self included) is minimal.

    Strict < keeps the earliest row on ties, so the sweep is deterministic.
    """
    best_row, best_val = 0, math.inf
    for lo in range(0, pts.shape[0], _CENTER_BLOCK):
        sub = pts[lo : lo + _CENTER_BLOCK]
        d2 = np.square(sub[:, None, :] - pts[None, :, :]).sum(axis=2)
        kth = np.partition(d2, take - 1, axis=1)[:, take - 1]
        i = int(np.argmin(kth))
        if kth[i] < best_val:
            best_val = float(kth[i])
            best_row = lo + i
    return best_row, best_val


def point_quorum(points, ell: int) -> list[PointQuorumBall]:
    """Partition points into batches of ell, cheapest batch first each round.

    Every round picks the input point whose ell-th nearest remaining point
    (counting itself) is closest, covers those ell points, and removes them.
    The produced radius is a 2-approximation of the smallest ball covering
    ell remaining points: the optimum covers some remaining point p, and the
    ell-th distance from p is at most twice the optimal radius.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InputError("point quorum needs a nonempty (n, d) point array")
    if ell < 1:
        raise InputError(f"batch size must be positive, got {ell}")
    alive = np.arange(pts.shape[0], dtype=np.int64)
    rounds: list[PointQuorumBall] = []
    while alive.size:
        take = int(min(ell, alive.size))
        sub = pts[alive]
        row, r2 = _cheapest_center(sub, take)
        d2 = np.square(sub - sub[row]).sum(axis=1)
        grab = np.lexsort((alive, d2))[:take]
        rounds.append(
            PointQuorumBall(
                center=sub[row].copy(),
                radius=math.sqrt(max(r2, 0.0)),
                assigned=np.sort(alive[grab]),
            )
        )
        keep = np.ones(alive.size, dtype=bool)
        keep[grab] = False
        alive = alive[keep]
    return rounds


def ball_quorum(reg: Registry, k: int) -> list[QuorumCluster]:
    """Cluster the registry's balls into batches of k - c_d, each wrapped in
    a ball that contains its batch and meets at least k input balls.

    Clusters come back sorted by radius, except that a short remainder batch
    is pinned last.  Each cluster records the assigned ball nearest its
    center as a witness; the containment term of the radius guarantees the
    witness (and every other assigned ball) lies fully inside the cluster.
    """
    n, c_d = reg.n, reg.instance.c_d
    check_k(k, n)
    if k <= 2 * c_d:
        raise InputError(
            f"quorum clustering needs k > 2*c_d = {2 * c_d} in dimension "
            f"{reg.dim}; answer smaller k straight from the registry"
        )
    ell = k - c_d
    clusters: list[QuorumCluster] = []
    rounds = point_quorum(reg.centers, ell)
    gammas, _ = kth_balls(reg, np.stack([rnd.center for rnd in rounds]), k)
    for idx, (rnd, gamma) in enumerate(zip(rounds, gammas.tolist())):
        u = rnd.center
        span = np.linalg.norm(reg.centers[rnd.assigned] - u, axis=1)
        containment = float(np.max(span + reg.radii[rnd.assigned]))
        wpos = int(np.lexsort((rnd.assigned, span))[0])
        clusters.append(
            QuorumCluster(
                center=u,
                radius=max(2.0 * gamma, 3.0 * rnd.radius, containment),
                rho=rnd.radius,
                gamma=gamma,
                assigned=rnd.assigned,
                witness=int(rnd.assigned[wpos]),
                round_index=idx,
                is_remainder=rnd.assigned.size < ell,
            )
        )
    ordered = sorted(
        (c for c in clusters if not c.is_remainder),
        key=lambda c: (c.radius, c.round_index),
    )
    ordered.extend(c for c in clusters if c.is_remainder)
    return ordered


def verify_quorum(reg: Registry, clusters: list[QuorumCluster], k: int) -> dict:
    """Audit a cluster list against the three defining guarantees.

    Containment of every assigned ball and the k-intersection count are
    checked exactly.  On instances within the grid oracle's cap
    (QUORUM_BOUND_BALL_CAP balls), each cluster radius is also compared
    with a certified lower bound on the smallest feasible radius at its
    turn (replaying the cluster order); the
    ratio must stay within XI, with the grid resolution as slack.  The
    remainder cluster's ratio is reported but excluded from the verdict: its
    radius is driven by the containment of an arbitrary leftover ball, which
    the optimum for full batches does not constrain.
    """
    n = reg.n
    tol = 1e-9
    violations: list[str] = []
    seen = np.zeros(n, dtype=bool)
    for i, c in enumerate(clusters):
        a = np.asarray(c.assigned, dtype=np.int64)
        if a.size == 0:
            violations.append(f"cluster {i}: empty assignment")
            continue
        if np.any(seen[a]):
            violations.append(f"cluster {i}: ball assigned more than once")
        seen[a] = True
        reach = np.linalg.norm(reg.centers[a] - c.center, axis=1) + reg.radii[a]
        worst = float(np.max(reach))
        if worst > c.radius * (1.0 + tol):
            violations.append(
                f"cluster {i}: assigned ball at reach {worst:.6g} escapes radius {c.radius:.6g}"
            )
        hits = int(
            np.count_nonzero(
                ball_distances(c.center, reg.centers, reg.radii)
                <= c.radius * (1.0 + tol)
            )
        )
        if hits < k:
            violations.append(f"cluster {i}: intersects only {hits} of the needed {k} balls")
    if not bool(seen.all()):
        violations.append("some balls were never assigned to a cluster")

    ratios: list[dict] = []
    worst_ratio = math.nan
    if n <= QUORUM_BOUND_BALL_CAP:
        rem = np.ones(n, dtype=bool)
        for i, c in enumerate(clusters):
            ids = np.flatnonzero(rem).tolist()
            rep = optimal_quorum_radius_bound(reg.instance.balls, ids, int(np.asarray(c.assigned).size), k)
            res = rep.resolution or 0.0
            # rep.value is a certified lower bound; value + resolution is a
            # radius the grid search saw to be feasible, so exceeding XI
            # times it is a genuine violation, not grid noise.
            feasible = rep.value + res
            ratio = c.radius / feasible if feasible > 0 else math.inf
            ratios.append(
                {
                    "cluster": i,
                    "radius": c.radius,
                    "optimal_lower_bound": rep.value,
                    "resolution": res,
                    "ratio": ratio,
                    "is_remainder": c.is_remainder,
                }
            )
            if not c.is_remainder and ratio > XI * (1.0 + tol):
                violations.append(
                    f"cluster {i}: radius ratio {ratio:.3f} exceeds {XI:g}"
                )
            rem[np.asarray(c.assigned, dtype=np.int64)] = False
        full = [r["ratio"] for r in ratios if not r["is_remainder"]]
        if full:
            worst_ratio = max(full)
    return {
        "clusters": len(clusters),
        "k": k,
        "xi": XI,
        "ok": not violations,
        "violations": violations,
        "optimal_checked": bool(ratios),
        "worst_ratio": worst_ratio,
        "ratios": ratios,
        "remainder_present": any(c.is_remainder for c in clusters),
    }
