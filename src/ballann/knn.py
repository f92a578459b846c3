"""Approximate k-th nearest ball queries against a Registry.

`query` is the package's one registry search.  It first tries a certified
exit, and runs two stages when the exit declines (`two_stage_query`): a
constant-factor estimate of the k-th ball distance (probe the k-th center
distances, count intersecting balls, then walk a dyadic chain downward in
the hard case), and a refinement stage (`refine`) that snaps small balls
to a fine grid and runs a weighted selection to land within (1 +- eps).
The cell index's registry fallback and out-of-domain points
(`avd.avd_query`) call `query` too.  `kth_balls` is the one exact k-th
selection: the cell index's sweep, the quorum's gamma
(`quorum.ball_quorum`) and refine's exact scan take their k-th ball
distances from it.  It works through cache-sized chunks of rows (at most
_KTH_CHUNK_PAIRS (row, ball) pairs, or up to _KTH_MIN_ROWS rows when n is
large; `_kth_chunk_rows`), in two float64 blocks it allocates once per
call: the chunk's ball distances, and the axis terms that then hold the
copy `kth_by_value_id` partitions.  That selection finds the k-th value
by partition and its column by one equality pass; only a row where more
than one column holds that value ranks the ties by column.  Every value
and column is the same bit for bit as one dense row of `ball_distances`
ordered by (distance, id).

The returned distance is always the exact distance to a real input ball; the
approximation lives in which ball gets picked.

The certified exit (`Registry.certified_kth_ball`) is a frontier over the
centers tree: an antichain of nodes whose balls together are every ball,
each once.  Each node bounds its balls' distances from q by [lo, hi]
and knows how many balls it holds.  Let L and H be the k-th smallest lo
and hi, each node counted as often as it has balls.  The k nearest balls
all have lo <= d_k, so L <= d_k; at least k balls have hi <= H, so
d_k <= H.  Neither step asks which antichain it is.  A ball at distance
w in [(1 - eps) H, (1 + eps) L] then has

    (1 - eps) d_k <= (1 - eps) H <= w <= (1 + eps) L <= (1 + eps) d_k,

so w lies in the (1 +- eps) window, and w/(1 + eps) <= L <= d_k <= H <=
w/(1 - eps), so (w/(1 + eps), w/(1 - eps)) is a certified interval.
[L, H] itself is not one: w may lie outside it.  The root round is the far
rule: one node holds all n >= k balls, so L and H are its own bounds near
and far on every ball distance, and the root certifies exactly when far
<= (1 + eps) near (which gives near >= far/(1 + eps) >= (1 - eps) far).
That round runs as an O(d) test in plain floats on the root's box and
radii, kept on the registry at build.  When it declines, the first array
round starts from a cut of the tree stored at build, not from the root's
children: the nodes that hold at most m centers (or are leaves) and whose
parent holds more (or is the root), m = n // 32 doubled while the cut
holds more than EXACT_FINISH_COUNT nodes and m < n.  On every path from
the root to a leaf exactly one node is in the cut, so the cut is an
antichain that holds every ball once, and the argument above holds on it;
being deeper, it certifies most queries in that one round.  Later rounds
drop nodes beyond H and split the nodes that straddle [L, H], which raises
L and lowers H.  The bounds are padded outward by the registry's
WALK_MARGIN, far above the rounding of a box distance, so the float
comparisons keep the argument.  When d_k = 0, L = H = 0 and the window
is [0, 0]: a node certifies exactly when its hi is 0, so that every one
of its balls contains q (proof in `Registry.certified_kth_ball`).  When no
node does, or its frontier grows past EXACT_FINISH_COUNT nodes, the exit
declines and the two stages answer unchanged.

Refinement takes one row of center distances at q, which yields the large
balls and a prefilter for the small candidates.  A small candidate is a
center whose own grid cell meets the closed ball(q, r_snap); the center
lies in that cell, so it is within r_snap plus the cell diameter
side*sqrt(d) of q.  The centers that pass the prefilter are snapped to
the grid once, and those cell coords feed both the exact closed cell test
(`geometry.cells_meet_ball`, the one `enumerate_grid_cells_ball` applies)
and the selection.  The selection takes the k-th smallest estimate with
each large ball counted once at its distance and each small center once
at its cell's, by partition; only the candidates at exactly that estimate
are grouped by cell and ordered by key.  The prefilter's reach is padded
by the relative PREFILTER_SLACK, so float rounding cannot drop a center
the exact test would keep.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geometry import (
    InputError,
    InternalInvariantError,
    ball_distance,
    ball_distances,
    cells_meet_ball,
    center_distances,
    check_eps,
    check_k,
    check_point,
    grid_coords,
    grid_level_for_diameter,
)
from .registry import Registry

# The refinement runs internally at eps/EPS_HAT_SHRINK.  The snapping error
# chain (dropped radius + cell snap, each at most ~1.3 * ehat * x, doubled on
# the witness) totals about 10.4 * ehat * d_k in the worst case, so /8 would
# overshoot the stated bound while /16 leaves margin.
EPS_HAT_SHRINK = 16.0

# kth_balls works on chunks of rows holding at most about this many
# (row, ball) pairs.  That bounds its cache footprint: two float64 blocks
# of 128 KB and a 16 KB mask fit in a core's L2.  On `cell-d2` (n =
# 1,024), 2^13 and 2^15 pairs built about 10% slower, and 2^16 25% slower.
_KTH_CHUNK_PAIRS = 1 << 14
# Where that budget holds fewer rows than this, a chunk still takes this
# many while they fit in this many budgets, and otherwise as many rows as
# fit (at least one), so that the kernel's dozen numpy calls are not paid
# once per row when n is large.  On a 2-core x86-64 host with 4 MiB of L2
# a core, at d=2, k = n/64, the sweep built 5-6% faster at n = 8,192 and
# 16,384 than with 2 and 1 rows, and as fast at 32,768 with 2 rows; 4
# rows there, or 2 or 4 at 65,536, built 7-18% slower.
_KTH_MIN_ROWS = 4

# Relative pad on the small-candidate prefilter's reach, far above the few
# ulps by which a float center distance or cell test can be off.
PREFILTER_SLACK = 1e-9


class KnnAnswer(NamedTuple):
    """A witness ball with its exact distance and a certified enclosure.

    certified_interval = (lo, hi) brackets the true k-th ball distance;
    lo <= distance <= hi and hi/lo <= (1+eps)/(1-eps).  out_of_domain marks
    a query outside the unit cube; its answer is certified all the same.
    A named tuple, so it is immutable and cheap to build.
    """

    ball_id: int
    distance: float
    certified_interval: tuple[float, float]
    out_of_domain: bool = False


def constant_factor_detail(reg: Registry, q, k: int) -> tuple[float, str, int]:
    """(x, step, witness) with x/4 <= d_B(q,k) <= 4x; witness >= 0 only at x=0.

    step records which case produced the value: "zero" (q inside >= k
    balls), "A" (all center probes already capture k balls), "B" (probe
    feasible, quarter probe not), "C" (dyadic descent below the quarter
    probe).
    """
    k = check_k(k, reg.n)
    qt = check_point(q, reg.dim)
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


def kth_by_value_id(values: np.ndarray, k: int, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of values (m, n), the k-th smallest value and its column,
    the k-th in (value, column) order.  A copy partitioned in place (in
    work, an array of values' shape) finds the value, and one equality
    pass its column: the first column at that value, unless another
    column holds it too.  Only on such rows are the ties at the value
    ranked by column."""
    np.copyto(work, values)
    work.partition(k - 1, axis=1)
    kth = work[:, k - 1].copy()
    at = values == kth[:, None]
    col = np.argmax(at, axis=1)
    # Every row holds its k-th value at least once; more than m in all
    # means some row holds it twice.
    if np.count_nonzero(at) > at.shape[0]:
        tied = np.flatnonzero(np.count_nonzero(at, axis=1) > 1)
        rank = k - np.count_nonzero(values[tied] < kth[tied, None], axis=1)
        ties = np.cumsum(at[tied], axis=1, dtype=np.int32)
        col[tied] = np.argmax(ties >= rank[:, None], axis=1)
    return kth, col


def _kth_chunk_rows(n: int) -> int:
    """Rows a kth_balls chunk holds at n balls: as many as fit in
    _KTH_CHUNK_PAIRS pairs, at least _KTH_MIN_ROWS while those fit in
    _KTH_MIN_ROWS times that, and at least one."""
    return max(_KTH_CHUNK_PAIRS // n, min(_KTH_MIN_ROWS, _KTH_MIN_ROWS * _KTH_CHUNK_PAIRS // n), 1)


def kth_balls(reg: Registry, pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact k-th ball distance d_k at each row of pts (m, d) and the
    k-th ball in (distance, id) order, from one block of ball distances per
    chunk of rows.  The call allocates its two float64 blocks once, for the
    distances and for the axis terms and partitioned copy, and every chunk
    reuses them; it reads the centers from a column-major copy, so that
    each axis is contiguous."""
    m = pts.shape[0]
    dist = np.empty(m, dtype=np.float64)
    wid = np.empty(m, dtype=np.int64)
    step = _kth_chunk_rows(reg.n)
    block = np.empty((min(step, m), reg.n), dtype=np.float64)
    work = np.empty_like(block)
    centers = np.asfortranarray(reg.centers)
    for lo in range(0, m, step):
        rows = min(step, m - lo)
        b = ball_distances(pts[lo : lo + rows], centers, reg.radii, block[:rows], work[:rows])
        dist[lo : lo + rows], wid[lo : lo + rows] = kth_by_value_id(b, k, work[:rows])
    return dist, wid


def _exact_answer(reg: Registry, q: np.ndarray, k: int, eps: float) -> KnnAnswer:
    kth, wids = kth_balls(reg, q[None, :], k)
    wid, w = int(wids[0]), float(kth[0])
    return KnnAnswer(wid, w, (w / (1.0 + eps), w / (1.0 - eps) if w else 0.0))


def refine(reg: Registry, q, k: int, x: float, eps: float) -> KnnAnswer:
    """Sharpen the 4-factor estimate x at q into a (1 +- eps) witness ball.

    Large balls (diameter >= 2*ehat*x) that meet ball(q, r_q) enter exactly;
    the rest enter as their centers snapped to a grid cell, weighted by how
    many centers share the cell.  A weighted selection picks the k-th
    candidate; ties order by the candidate's id key so reruns reproduce.
    x = 0 needs q inside at least k balls, and a grid that would be deeper
    than the exact levels gets an exact scan.
    """
    k = check_k(k, reg.n)
    check_eps(eps)
    q = np.array(check_point(q, reg.dim))
    x = float(x)
    if not x >= 0.0:
        raise InputError(f"estimate must be nonnegative, got {x}")
    if x == 0.0:
        inside = reg.balls_containing_point(q)
        if inside.size < k:
            raise InternalInvariantError("x=0 requires q to lie inside at least k balls")
        return KnnAnswer(int(inside.min()), 0.0, (0.0, 0.0))
    ehat = eps / EPS_HAT_SHRINK
    r_q = 4.0 * x * (1.0 + ehat)
    level, clamped = grid_level_for_diameter(2.0 * r_q, ehat / 16.0, reg.dim)
    if clamped:
        return _exact_answer(reg, q, k, eps)
    # Small candidates: every center whose own cell meets the padded ball
    # (q, r_snap).  The pad keeps every ball that could still be the k-th
    # inside the net, while anything farther sits strictly above the
    # selection threshold.
    r_snap = r_q + ehat * x
    dist = center_distances(q, reg.centers)
    # A small candidate's center lies in its own cell, which meets
    # ball(q, r_snap); so it lies within r_snap plus the cell diameter.
    reach = (r_snap + math.ldexp(1.0, -level) * math.sqrt(reg.dim)) * (1.0 + PREFILTER_SLACK)
    near = dist <= reach
    # From here on dist holds ball distances, by ball_distances' own last
    # two steps in place.
    np.maximum(np.subtract(dist, reg.radii, out=dist), 0.0, out=dist)
    # The large set of large_balls_intersecting(q, r_q, 2*ehat*x), ties in.
    large = (2.0 * reg.radii >= 2.0 * ehat * x) & (dist <= r_q)
    near &= ~large
    ids = np.flatnonzero(large)
    # One grid snap of the near centers feeds the cell test and the selection.
    near_ids = np.flatnonzero(near)
    cells = grid_coords(reg.centers[near_ids], level)
    meet = cells_meet_ball(cells, q, r_snap, level)
    wid = _select_with_cells(q, k, level, ids, dist[ids], near_ids[meet], cells[meet])
    w = float(dist[wid])
    return KnnAnswer(wid, w, (w / (1.0 + eps), w / (1.0 - eps)))


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
    check_eps(eps)
    q = check_point(q, reg.dim)
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
    answer to a point outside [0,1)^d is flagged out_of_domain.  A point
    needs dim finite coordinates, here as in two_stage_query and refine,
    else InputError.  q, k and eps are checked once, here; the exit runs
    unchecked (`Registry._certified_kth_ball`).
    """
    check_eps(eps)
    k = check_k(k, reg.n)
    qt = check_point(q, reg.dim)
    wid = reg._certified_kth_ball(qt, k, eps)
    if wid < 0:
        ans = two_stage_query(reg, qt, k, eps)
        wid, w, interval = ans.ball_id, ans.distance, ans.certified_interval
    else:
        w = ball_distance(qt, reg.centers[wid].tolist(), float(reg.radii[wid]))
        interval = (w / (1.0 + eps), w / (1.0 - eps))
    return KnnAnswer(wid, w, interval, out_of_domain=not (min(qt) >= 0.0 and max(qt) < 1.0))
