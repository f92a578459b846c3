"""Approximate k-th nearest ball queries against a Registry.

`query` first tries a certified exit, and runs two stages when the exit
declines (`two_stage_query`): a constant-factor estimate of the k-th ball
distance (probe the k-th center distances, count intersecting balls, then
walk a dyadic chain downward in the hard case), and a refinement stage that
snaps small balls to a fine grid and runs a weighted selection to land
within (1 +- eps).  The two stages alone also answer the cell index's
registry fallback and out-of-domain queries (`avd.avd_query`) and set the
quorum's gamma (`quorum.ball_quorum`).

The returned distance is always the exact distance to a real input ball; the
approximation lives in which ball gets picked.

The certified exit (`Registry.certified_kth_ball`) is a frontier over the
centers tree.  Each node bounds its balls' distances from q by [lo, hi]
and knows how many balls it holds.  Let L and H be the k-th smallest lo
and hi, each node counted as often as it has balls.  The k nearest balls
all have lo <= d_k, so L <= d_k; at least k balls have hi <= H, so
d_k <= H.  A ball at distance w in [(1 - eps) H, (1 + eps) L] then has

    (1 - eps) d_k <= (1 - eps) H <= w <= (1 + eps) L <= (1 + eps) d_k,

so w lies in the (1 +- eps) window, and w/(1 + eps) <= L <= d_k <= H <=
w/(1 - eps), so (w/(1 + eps), w/(1 - eps)) is a certified interval.
[L, H] itself is not one: w may lie outside it.  The root round is the far
rule: one node holds all n >= k balls, so L and H are its own bounds near
and far on every ball distance, and the root certifies exactly when far
<= (1 + eps) near (which gives near >= far/(1 + eps) >= (1 - eps) far).
Later rounds drop nodes beyond H and split the nodes that straddle [L, H],
which raises L and lowers H.  The bounds are padded outward by the
registry's WALK_MARGIN, far above the rounding of a box distance, so the
float comparisons keep the argument.  When d_k = 0, L = 0 and no window
certifies: the exit declines, as it does when its frontier grows past
EXACT_FINISH_COUNT nodes, and the two stages answer unchanged.

Refinement runs on rows (`refine_many`; `refine` is its one-row case), in
chunks of at most about REFINE_CHUNK_PAIRS (row, ball) pairs.  One block of
center distances per chunk yields every row's large balls and a prefilter
for its small candidates.  A small candidate is a center whose own grid
cell meets the closed ball(q, r_snap); the center lies in that cell, so it
is within r_snap plus the cell diameter side*sqrt(d) of q.  A row with no
other center that close has no small candidate: its candidates are its
large balls, each of weight 1, and its answer is their k-th (distance, id)
pair, found by partition.  On the other rows the centers that pass the
prefilter are snapped to the row's grid once, and those cell coords feed
both the exact closed cell test, the one `Registry.small_center_count`
counts by (`Registry._cells_meet`), and the selection.  The selection takes
the k-th smallest estimate with each small center counted once at its
cell's, by partition; only the candidates at exactly that estimate are
grouped by cell and ordered by key.  The prefilter's reach
is padded by the relative PREFILTER_SLACK, so float rounding cannot drop a
center the exact test would keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    InputError,
    InternalInvariantError,
    ball_distance,
    ball_distances,
    center_distances,
    grid_coords,
    grid_level_for_diameter,
)
from .registry import Registry

# The refinement runs internally at eps/EPS_HAT_SHRINK.  The snapping error
# chain (dropped radius + cell snap, each at most ~1.3 * ehat * x, doubled on
# the witness) totals about 10.4 * ehat * d_k in the worst case, so /8 would
# overshoot the stated bound while /16 leaves margin.
EPS_HAT_SHRINK = 16.0

# refine_many works on chunks of rows holding at most about this many
# (row, ball) pairs, which bounds the memory of its distance blocks.
REFINE_CHUNK_PAIRS = 1 << 16

# Relative pad on the small-candidate prefilter's reach, far above the few
# ulps by which a float center distance or cell test can be off.
PREFILTER_SLACK = 1e-9


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


def kth_by_value_id(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of values (m, n), the k-th smallest value and its column,
    the k-th in (value, column) order: one partition finds the value, and
    the ties at it are ranked by column."""
    kth = np.partition(values, k - 1, axis=1)[:, k - 1]
    rank = k - np.count_nonzero(values < kth[:, None], axis=1)
    ties = np.cumsum(values == kth[:, None], axis=1, dtype=np.int32)
    return kth, np.argmax(ties >= rank[:, None], axis=1)


def _exact_answer(reg: Registry, q, k: int, eps: float) -> KnnAnswer:
    kth, wids = kth_by_value_id(ball_distances(q, reg.centers, reg.radii)[None, :], k)
    wid, w = int(wids[0]), float(kth[0])
    return KnnAnswer(wid, w, (w / (1.0 + eps), w / (1.0 - eps) if w else 0.0))


def refine(reg: Registry, q, k: int, x: float, eps: float) -> KnnAnswer:
    """Sharpen a 4-factor estimate x into a (1 +- eps) witness ball: the
    one-row case of `refine_many`."""
    return refine_many(reg, [q], k, [x], eps)[0]


def refine_many(reg: Registry, points, k: int, xs, eps: float) -> list[KnnAnswer]:
    """Sharpen the 4-factor estimate xs[i] at points[i] into a (1 +- eps)
    witness ball, for every row i.

    Large balls (diameter >= 2*ehat*x) that meet ball(q, r_q) enter exactly;
    the rest enter as their centers snapped to a grid cell, weighted by how
    many centers share the cell.  A weighted selection picks the k-th
    candidate; ties order by the candidate's id key so reruns reproduce.
    A row with x = 0 must lie inside at least k balls, and a row whose grid
    would be deeper than the exact levels gets an exact scan.
    """
    _check_qk(reg, k)
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    k = int(k)
    pts = np.asarray(points, dtype=np.float64)
    xa = np.asarray(xs, dtype=np.float64).reshape(-1)
    if pts.ndim != 2 or pts.shape != (xa.size, reg.dim):
        raise InputError(
            f"expected {xa.size} points of dimension {reg.dim}, got shape {pts.shape}"
        )
    if not np.all(xa >= 0.0):
        raise InputError(f"estimate must be nonnegative, got {xa[~(xa >= 0.0)][0]}")
    ehat = eps / EPS_HAT_SHRINK
    out: list[KnnAnswer | None] = [None] * xa.size
    rows: list[int] = []
    levels: list[int] = []
    for i, x in enumerate(xa.tolist()):
        if x == 0.0:
            inside = reg.balls_containing_point(pts[i])
            if inside.size < k:
                raise InternalInvariantError(
                    "x=0 requires q to lie inside at least k balls"
                )
            out[i] = KnnAnswer(int(inside.min()), 0.0, (0.0, 0.0))
            continue
        r_q = 4.0 * x * (1.0 + ehat)
        level, clamped = grid_level_for_diameter(2.0 * r_q, ehat / 16.0, reg.dim)
        if clamped:
            out[i] = _exact_answer(reg, pts[i], k, eps)
            continue
        rows.append(i)
        levels.append(level)
    qs, xs_rows = pts[rows], xa[rows]
    step = max(1, REFINE_CHUNK_PAIRS // reg.n)
    for lo in range(0, len(rows), step):
        hi = lo + step
        for i, ans in zip(rows[lo:hi], _refine_chunk(reg, qs[lo:hi], xs_rows[lo:hi], levels[lo:hi], k, eps)):
            out[i] = ans
    return out


def _refine_chunk(
    reg: Registry, qs: np.ndarray, xs: np.ndarray, levels: list[int], k: int, eps: float
) -> list[KnnAnswer]:
    """refine_many on rows with x > 0 and an exact grid level."""
    m = xs.size
    ehat = eps / EPS_HAT_SHRINK
    r_q = 4.0 * xs * (1.0 + ehat)
    # Small candidates: every center whose own cell meets the padded ball
    # (q, r_snap).  The pad keeps every ball that could still be the k-th
    # inside the net, while anything farther sits strictly above the
    # selection threshold.
    r_snap = r_q + ehat * xs
    dist = center_distances(qs, reg.centers)
    # A small candidate's center lies in its own cell, which meets
    # ball(q, r_snap); so it lies within r_snap plus the cell diameter.
    side = np.ldexp(1.0, -np.array(levels, dtype=np.int64))
    reach = (r_snap + side * math.sqrt(reg.dim)) * (1.0 + PREFILTER_SLACK)
    near = dist <= reach[:, None]
    # From here on dist holds ball distances, by ball_distances' own last
    # two steps in place, so dist[r] is ball_distances(qs[r], ...).
    np.maximum(np.subtract(dist, reg.radii, out=dist), 0.0, out=dist)
    # The large set of large_balls_intersecting(q, r_q, 2*ehat*x), ties in.
    large = (2.0 * reg.radii >= (2.0 * ehat * xs)[:, None]) & (dist <= r_q[:, None])
    near &= ~large
    maybe_small = near.any(axis=1)

    wids = np.empty(m, dtype=np.int64)
    plain = np.flatnonzero(~maybe_small)
    if plain.size:
        # Only large candidates, each of weight 1: the k-th (distance, id).
        sub = slice(None) if plain.size == m else plain
        kth, wids[plain] = kth_by_value_id(np.where(large[sub], dist[sub], np.inf), k)
        if not np.all(np.isfinite(kth)):
            raise InternalInvariantError(
                "selection ran out of candidates; the 4-factor estimate must be wrong"
            )
    for r in np.flatnonzero(maybe_small).tolist():
        ids = np.flatnonzero(large[r])
        # One grid snap of the near centers feeds the cell test and the selection.
        near_ids = np.flatnonzero(near[r])
        cells = grid_coords(reg.centers[near_ids], levels[r])
        meet = reg._cells_meet(cells, qs[r], float(r_snap[r]), levels[r])
        wids[r] = _select_with_cells(qs[r], k, levels[r], ids, dist[r, ids], near_ids[meet], cells[meet])
    wdists = dist[np.arange(m), wids].tolist()
    return [
        KnnAnswer(wid, w, (w / (1.0 + eps), w / (1.0 - eps)))
        for wid, w in zip(wids.tolist(), wdists)
    ]


def _select_with_cells(
    q: np.ndarray,
    k: int,
    level: int,
    large: np.ndarray,
    d_large: np.ndarray,
    small: np.ndarray,
    cells: np.ndarray,
) -> int:
    """The k-th candidate's id, given the large balls with their distances
    and the small centers, ascending, with their level-`level` cells, which
    meet ball(q, r_snap).

    The candidates are the large balls, each of weight 1, and one per grid
    cell at the cell center, weighted by its small centers and keyed by the
    smallest of their ids; the answer is the k-th in (estimate, key) order.
    Count each small center once, at its cell's estimate: the k-th smallest
    of these unit estimates, t, is then the answer's estimate, since the
    candidates below t weigh less than k and those up to t at least k.  So
    no cell is sorted: only the candidates at exactly t are grouped, and
    they follow the weight below t in key order.
    """
    d_small = center_distances(q, (cells + 0.5) * 2.0 ** (-level))
    units = np.concatenate([d_large, d_small])
    if units.size < k:
        raise InternalInvariantError(
            "selection ran out of candidates; the 4-factor estimate must be wrong"
        )
    t = np.partition(units, k - 1)[k - 1]
    below = int(np.count_nonzero(units < t))
    tied = d_large == t
    keys, w = large[tied], np.ones(np.count_nonzero(tied), dtype=np.int64)
    at = np.flatnonzero(d_small == t)
    if at.size:
        # Row-major cell codes: dim * level <= 63 bits, so they fit.
        codes = cells[at, 0]
        for j in range(1, cells.shape[1]):
            codes = codes * (1 << level) + cells[at, j]
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        first = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
        keys = np.concatenate([keys, small[at[order[first]]]])
        w = np.concatenate([w, np.diff(np.append(first, codes.size))])
    order = np.argsort(keys)
    j = int(np.searchsorted(below + np.cumsum(w[order]), k))
    return int(keys[order[j]])


def two_stage_query(reg: Registry, q, k: int, eps: float) -> KnnAnswer:
    """(1 +- eps)-approximate k-th nearest ball by the two stages alone:
    estimate, then refine.  The answer is not flagged out_of_domain."""
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    x, step, wid = constant_factor_detail(reg, q, k)
    if step == "zero":
        return KnnAnswer(wid, 0.0, (0.0, 0.0))
    return refine(reg, q, k, x, eps)


def query(reg: Registry, q, k: int, eps: float) -> KnnAnswer:
    """(1 +- eps)-approximate k-th nearest ball: the certified exit, else
    the two stages (`two_stage_query`).  An exit answer at distance w
    carries the interval (w/(1 + eps), w/(1 - eps)) (module docstring).

    The guarantee is position-free: the distance bounds never assume q lies
    inside the unit cube, so arbitrary query points are certified too; the
    answer to a point outside [0,1)^d is flagged out_of_domain.
    """
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    _check_qk(reg, k)
    qt = [float(v) for v in q]
    if len(qt) != reg.dim:
        raise InputError(f"query dimension {len(qt)} != registry dimension {reg.dim}")
    wid = reg.certified_kth_ball(qt, int(k), eps)
    if wid < 0:
        ans = two_stage_query(reg, q, k, eps)
    else:
        w = ball_distance(qt, reg.centers[wid].tolist(), float(reg.radii[wid]))
        ans = KnnAnswer(wid, w, (w / (1.0 + eps), w / (1.0 - eps)))
    if all(0.0 <= v < 1.0 for v in qt):
        return ans
    return replace(ans, out_of_domain=True)
