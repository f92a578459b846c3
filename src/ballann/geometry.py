"""Core geometry: balls, dyadic cubes, grid approximations, normalization,
and the pairwise-disjointness check the command line runs on its input.

All index structures in this package operate on instances normalized into
the unit cube.  Cube identities are exact integers (level plus integer grid
coordinates) so tree topology never depends on floating-point rounding;
only distances are computed in floats.

Grid covers (`grid_approx`) list the cells of one shape at a time: the
cells of its padded bounding box (`grid_index_box`), in C order, that meet
the shape's closed body.  For a ball that test is `cells_meet_ball`, the
package's one closed-body cell test, which `knn.refine` applies as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

__all__ = [
    "InputError",
    "InternalInvariantError",
    "Ball",
    "NormalizedInstance",
    "CanonicalCube",
    "max_level_for_dim",
    "concat_ranges",
    "check_point",
    "check_k",
    "check_eps",
    "ball_distance",
    "ball_distances",
    "center_distances",
    "find_overlap",
    "normalize",
    "grid_cell",
    "grid_coords",
    "grid_level_for_diameter",
    "grid_approx",
    "grid_index_box",
    "cells_meet_ball",
    "enumerate_grid_cells_ball",
    "enumerate_grid_cells_box",
    "product_norm",
    "packing_constant",
]


class InputError(ValueError):
    """Caller-supplied data violates a documented precondition."""


class InternalInvariantError(RuntimeError):
    """A structural guarantee the library maintains internally was broken."""


def max_level_for_dim(d: int) -> int:
    # Deepest grid level whose interleaved integer keys fit in 63 bits and
    # whose coordinates stay exactly representable as doubles.
    return min(52, 63 // d)


@dataclass(frozen=True)
class Ball:
    """A closed ball: center in R^d and a nonnegative radius.

    Points are radius-0 balls.
    """

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(map(float, self.center)))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius < 0:
            raise InputError(f"ball radius must be nonnegative, got {self.radius}")
        if not all(map(math.isfinite, self.center)) or not math.isfinite(self.radius):
            raise InputError("ball coordinates must be finite")

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True)
class CanonicalCube:
    """A dyadic cell of the unit-cube hierarchy: side 2^-level, integer corner.

    The cube as a point set for point location is half-open per coordinate,
    [c*s, (c+1)*s); intersection tests against other sets use the closed body.
    """

    level: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if self.level < 0:
            raise InputError("cube level must be nonnegative")
        top = 1 << self.level
        if any(c < 0 or c >= top for c in self.coords):
            raise InputError(f"cube coords {self.coords} out of range at level {self.level}")

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def diameter(self) -> float:
        return self.side * math.sqrt(len(self.coords))

    @property
    def low(self) -> tuple[float, ...]:
        s = self.side
        return tuple(c * s for c in self.coords)

    @property
    def high(self) -> tuple[float, ...]:
        s = self.side
        return tuple((c + 1) * s for c in self.coords)

    @property
    def center(self) -> tuple[float, ...]:
        s = self.side
        return tuple((c + 0.5) * s for c in self.coords)

    def contains_point(self, p: Sequence[float]) -> bool:
        # Half-open membership keeps point location unambiguous on grid lines.
        s = self.side
        return all(c * s <= x < (c + 1) * s for c, x in zip(self.coords, p))

    def contains_cube(self, other: "CanonicalCube") -> bool:
        if other.level < self.level:
            return False
        shift = other.level - self.level
        return all((oc >> shift) == c for oc, c in zip(other.coords, self.coords))

    def min_dist_to_point(self, p: Sequence[float]) -> float:
        # Distance from p to the closed cube body.
        s = self.side
        acc = 0.0
        for c, x in zip(self.coords, p):
            lo = c * s
            hi = lo + s
            if x < lo:
                acc += (lo - x) ** 2
            elif x > hi:
                acc += (x - hi) ** 2
        return math.sqrt(acc)


@dataclass(frozen=True, eq=False)
class NormalizedInstance:
    """A ball set scaled into [1/2 - delta, 1/2 + delta]^d with delta = eps/4.

    centers (n, d) and radii (n,) are read-only float64 arrays in the unit
    frame.  transform maps original coordinates x to scale * x + offset;
    radii map to scale * r.  The same scale in every axis keeps distance
    order intact.
    """

    centers: np.ndarray
    radii: np.ndarray
    scale: float
    offset: tuple[float, ...]
    epsilon_floor: float
    dimension: int
    c_d: int

    def __post_init__(self) -> None:
        for name in ("centers", "radii"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def balls(self) -> tuple[Ball, ...]:
        """The balls as `Ball` objects, for the oracle."""
        return tuple(Ball(tuple(c), r) for c, r in zip(self.centers.tolist(), self.radii.tolist()))

    def to_unit(self, p: Sequence[float]) -> tuple[float, ...]:
        return tuple(self.scale * float(x) + o for x, o in zip(p, self.offset))

    def to_original(self, p: Sequence[float]) -> tuple[float, ...]:
        return tuple((float(x) - o) / self.scale for x, o in zip(p, self.offset))


def center_distances(q, centers: np.ndarray, out=None, work=None) -> np.ndarray:
    """|q - c| for every row c of centers (n, d): shape (n,) for one point
    q, (m, n) for points q (m, d).  The squares, taken as products, are
    summed over the axes in order 0..d-1, the one order of every ball
    distance d(q, b) = max(|q - c| - r, 0) in the package.

    out, when given, receives the result, and work, an array of the same
    shape, each axis's term after the first; both are fresh arrays when
    None.  The values are the same bit for bit either way."""
    q = np.asarray(q, dtype=np.float64)
    acc = np.subtract(centers[:, 0], q[..., 0, None], out=out)
    np.multiply(acc, acc, out=acc)
    for j in range(1, centers.shape[1]):
        work = np.subtract(centers[:, j], q[..., j, None], out=work)
        acc += np.multiply(work, work, out=work)
    return np.sqrt(acc, out=acc)


def ball_distances(q, centers: np.ndarray, radii: np.ndarray, out=None, work=None) -> np.ndarray:
    """d(q, b) for every ball b of (centers, radii), shaped as
    center_distances, with its out and work."""
    dist = center_distances(q, centers, out, work)
    return np.maximum(np.subtract(dist, radii, out=dist), 0.0, out=dist)


def check_point(q, dim: int) -> list[float]:
    """q as a list of dim floats, or InputError when it has another length
    or a coordinate that is not a finite number: the package's one check
    of a query point."""
    try:
        qt = [float(v) for v in q]
    except (TypeError, ValueError):
        qt = []
    if len(qt) != dim or not all(map(math.isfinite, qt)):
        raise InputError(f"expected a point of {dim} finite coordinates, got {q!r}")
    return qt


def check_k(k, n: int) -> int:
    """k as an int, or InputError unless 1 <= k <= n: the package's one
    check of a rank k among n balls."""
    kk = int(k)
    if not 1 <= kk <= n:
        raise InputError(f"k must lie in [1, {n}], got {k}")
    return kk


def check_eps(eps) -> None:
    """InputError unless 0 < eps < 1 (a NaN fails too): the package's one
    check of an approximation eps."""
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must lie in (0, 1), got {eps}")


def ball_distance(q: Sequence[float], center: Sequence[float], radius: float) -> float:
    """d(q, b) for one ball, equal bit for bit to ball_distances: a plain
    loop in the same order (math.dist and sum() round differently)."""
    if len(q) != len(center):
        raise InputError(f"dimension mismatch: point has {len(q)}, ball has {len(center)}")
    acc = 0.0
    for x, c in zip(q, center):
        t = c - x
        acc += t * t
    gap = math.sqrt(acc) - radius
    return gap if gap > 0.0 else 0.0


def concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + l) over the pairs (s, l), as int64."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(
        int(ends[-1]) if ends.size else 0, dtype=np.int64
    )


# Candidate pairs find_overlap tests at once; bounds its memory.
_OVERLAP_CHUNK = 1 << 18
# Absolute slack of find_overlap's test, oracle.check_disjoint's default tol.
_OVERLAP_TOL = 1e-12


def find_overlap(balls: Sequence[Ball]) -> tuple[int, int] | None:
    """The first pair (i, j), i < j in lexicographic order, of balls that are
    not interior-disjoint, or None when every pair is.

    The test is `oracle.check_disjoint`'s, ||c_i - c_j|| < r_i + r_j - tol or
    coincident centers, so tangency is allowed.  Such a pair has overlapping
    extents [c_a - r, c_a + r] on every axis a.  The sweep takes the axis
    with the fewest overlapping extents (axis 0 on ties); with the extents
    sorted by their low end, ball i is tested only against the balls whose
    extent starts inside its own (one searchsorted, pairs gathered by
    concat_ranges, at most _OVERLAP_CHUNK of them at a time).  Each extent
    is padded by tol and a few ulps, so rounding can add candidate pairs
    but never drop one.
    """
    n, tol = len(balls), _OVERLAP_TOL
    if n < 2:
        return None
    centers = np.array([b.center for b in balls], dtype=np.float64)
    radii = np.array([b.radius for b in balls], dtype=np.float64)
    sweep = None
    for c in centers.T:
        pad = radii + tol + 4.0 * np.spacing(np.abs(c) + radii)
        order = np.argsort(c - pad, kind="stable")
        lo, hi = (c - pad)[order], (c + pad)[order]
        lens = np.maximum(np.searchsorted(lo, hi, side="right") - np.arange(n) - 1, 0)
        if sweep is None or lens.sum() < sweep[1].sum():
            sweep = (order, lens)
    order, lens = sweep
    cum = np.cumsum(lens)
    best: tuple[int, int] | None = None
    start = 0
    while start < n:
        done = int(cum[start - 1]) if start else 0
        stop = max(int(np.searchsorted(cum, done + _OVERLAP_CHUNK, side="right")), start + 1)
        src = np.arange(start, stop)
        a = order[np.repeat(src, lens[src])]
        b = order[concat_ranges(src + 1, lens[src])]
        dist = np.linalg.norm(centers[a] - centers[b], axis=1)
        bad = (dist < radii[a] + radii[b] - tol) | (dist == 0.0)
        if bad.any():
            i, j = np.minimum(a, b)[bad], np.maximum(a, b)[bad]
            first = np.lexsort((j, i))[0]
            pair = (int(i[first]), int(j[first]))
            best = pair if best is None else min(best, pair)
        start = stop
    return best


def normalize(balls: Sequence[Ball], eps: float) -> NormalizedInstance:
    """Scale and translate a ball set into [1/2 - delta, 1/2 + delta]^d, delta = eps/4.

    The affine map is uniform across axes, so it preserves the order of all
    pairwise distances; the inverse recovers original units.
    """
    if len(balls) == 0:
        raise InputError("normalize requires at least one ball")
    check_eps(eps)
    d = balls[0].dimension
    if d < 1:
        raise InputError("dimension must be at least 1")
    coords = [b.center for b in balls]
    if set(map(len, coords)) != {d}:
        raise InputError("all balls must share one dimension")

    n = len(coords)
    centers = np.fromiter(chain.from_iterable(coords), dtype=np.float64, count=n * d).reshape(n, d)
    radii = np.fromiter((b.radius for b in balls), dtype=np.float64, count=n)
    if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(radii))):
        raise InputError("normalize requires finite coordinates")

    # The extremes per axis, reduced along contiguous rows of a (d, n) copy:
    # down the columns of (n, d), numpy runs one d-long loop per ball.
    axes = np.ascontiguousarray(centers.T)
    lo = (axes - radii).min(axis=1)
    hi = (axes + radii).max(axis=1)
    extent = float((hi - lo).max())
    delta = eps / 4.0
    if extent > 0.0:
        scale = 2.0 * delta / extent
    else:
        # Degenerate spread (single ball or coincident extents): any scale is
        # order-preserving, so keep scale 1 and just center the set.
        scale = 1.0
    mid = (lo + hi) / 2.0
    offset = tuple(0.5 - scale * m for m in mid)

    # scale * c + o and scale * r, rounded once per operation as in scalar
    # code.
    unit = centers * scale + np.array(offset)
    rad = radii * scale
    pad = 1e-9
    low = (0.5 - delta - rad - pad)[:, None]
    high = (0.5 + delta + rad + pad)[:, None]
    if not np.all((low <= unit) & (unit <= high)):
        raise InternalInvariantError("normalized ball escaped the target cube")
    return NormalizedInstance(
        centers=unit,
        radii=rad,
        scale=scale,
        offset=offset,
        epsilon_floor=eps,
        dimension=d,
        c_d=packing_constant(d),
    )


def grid_cell(width_level: int, p: Sequence[float]) -> CanonicalCube:
    """The canonical cube of the given level containing p, floor semantics."""
    if width_level < 0:
        raise InputError("grid level must be nonnegative")
    if any(not (0.0 <= x < 1.0) for x in p):
        raise InputError(f"point {tuple(p)} outside [0,1)^d")
    top = 1 << width_level
    return CanonicalCube(width_level, tuple(min(int(x * top), top - 1) for x in p))


def grid_coords(points: np.ndarray, level: int) -> np.ndarray:
    """Integer coords (m, d) of the level-`level` cell holding each point.

    The array form of grid_cell, except that points outside [0,1)^d are
    clipped to the nearest cell instead of rejected.
    """
    top = 1 << level
    return np.minimum(np.maximum(np.floor(points * top).astype(np.int64), 0), top - 1)


def floor_log2(y: float) -> int:
    if y <= 0.0 or not math.isfinite(y):
        raise InputError(f"floor_log2 requires a positive finite value, got {y}")
    m, e = math.frexp(y)  # y = m * 2**e with m in [0.5, 1)
    return e - 1


def grid_level_for_diameter(diam: float, delta: float, dim: int) -> tuple[int, bool]:
    """Level of the grid with side 2^floor(log2(delta * diam / sqrt(dim))).

    Returns (level, clamped).  clamped is True when the natural level exceeds
    the maximum exact level for this dimension; callers that rely on the
    cell-diameter bound must fall back to exact work in that case.
    """
    side_target = delta * diam / math.sqrt(dim)
    raw = -floor_log2(side_target)
    max_level = max_level_for_dim(dim)
    level = min(max(raw, 0), max_level)
    return level, raw > max_level


def grid_index_box(
    lo: Sequence[float], hi: Sequence[float], level: int
) -> list[tuple[int, int]] | None:
    """Per-axis inclusive index ranges [a, b] of the level-`level` cells that
    may meet the closed box [lo, hi].

    Each range is padded by one cell against rounding at the box faces and
    clipped to the grid; None when the box misses the grid on some axis.
    """
    top = 1 << level
    box = []
    for l, h in zip(lo, hi):
        a = max(math.floor(l * top) - 1, 0)
        b = min(math.floor(h * top) + 1, top - 1)
        if a > b:
            return None
        box.append((a, b))
    return box


def cells_meet_ball(coords: np.ndarray, q: np.ndarray, radius: float, level: int) -> np.ndarray:
    """Whether each level-`level` cell, given by its integer coords (m, d),
    meets the closed ball(q, radius): the package's one closed-body cell
    test.  A cell meets the ball when the squared gaps between q and the
    cell's extent, summed over the axes by one einsum, are at most r^2."""
    side = 2.0 ** (-level)
    lo = coords * side
    gap = np.maximum(lo - q, 0.0) + np.maximum(q - (lo + side), 0.0)
    return np.einsum("ij,ij->i", gap, gap) <= radius * radius


def _box_cells(lo, hi, level: int) -> np.ndarray:
    """Integer coords (m, d) of the cells of grid_index_box(lo, hi, level),
    in C order; none when the box misses the grid."""
    box = grid_index_box(lo, hi, level)
    if box is None:
        return np.empty((0, len(lo)), dtype=np.int64)
    grids = np.meshgrid(*[np.arange(a, b + 1, dtype=np.int64) for a, b in box], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def enumerate_grid_cells_ball(
    center: Sequence[float], radius: float, level: int
) -> np.ndarray:
    """Integer coords (m, d), in C order, of the level-`level` cells whose
    closed body meets the ball: the cells of its bounding box that
    cells_meet_ball accepts.

    The ball is clipped to [0,1]^d; cells outside the unit cube do not exist.
    """
    c = np.asarray(center, dtype=np.float64)
    coords = _box_cells(c - radius, c + radius, level)
    return coords[cells_meet_ball(coords, c, radius, level)]


def enumerate_grid_cells_box(
    lo: Sequence[float], hi: Sequence[float], level: int
) -> np.ndarray:
    """Integer coords (m, d), in C order, of the level-`level` cells meeting
    the closed box [lo, hi]: on every axis, the cell's extent meets the
    box's."""
    coords = _box_cells(lo, hi, level)
    side = 2.0 ** (-level)
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    return coords[((coords * side <= hi) & ((coords + 1) * side >= lo)).all(axis=1)]


def _extent_of(X) -> tuple[Sequence[float], float, str]:
    """(reference point, diameter, kind) for a ball, cube, or (lo, hi) box."""
    if isinstance(X, Ball):
        return X.center, X.diameter, "ball"
    if isinstance(X, CanonicalCube):
        return X.center, X.diameter, "cube"
    if isinstance(X, tuple) and len(X) == 2:
        lo = np.asarray(X[0], dtype=np.float64)
        hi = np.asarray(X[1], dtype=np.float64)
        return tuple((lo + hi) / 2.0), float(np.linalg.norm(hi - lo)), "box"
    raise InputError(f"grid_approx accepts Ball, CanonicalCube, or (lo, hi) box, got {type(X)!r}")


def grid_approx(X, delta: float) -> set[CanonicalCube]:
    """Canonical cells of side 2^floor(log2(delta*diam(X)/sqrt(d))) meeting X.

    Each returned cell has diameter at most delta * diam(X) unless the level
    clamp triggered (tiny X); diam(X) = 0 returns the single deepest cell
    containing the point so that radius-0 balls remain registrable.
    """
    if not (0.0 < delta <= 1.0):
        raise InputError(f"delta must lie in (0, 1], got {delta}")
    ref, diam, kind = _extent_of(X)
    d = len(ref)
    if diam == 0.0:
        p = tuple(min(max(x, 0.0), math.nextafter(1.0, 0.0)) for x in ref)
        return {grid_cell(max_level_for_dim(d), p)}
    level, _ = grid_level_for_diameter(diam, delta, d)
    if kind == "ball":
        coords = enumerate_grid_cells_ball(ref, X.radius, level)
    elif kind == "cube":
        coords = enumerate_grid_cells_box(X.low, X.high, level)
    else:
        coords = enumerate_grid_cells_box(X[0], X[1], level)
    return {CanonicalCube(level, tuple(int(c) for c in row)) for row in coords}


def product_norm(u: Sequence[float]) -> float:
    """||u||_+ = ||u_{1..d}||_2 + |u_{d+1}| on a lifted difference vector."""
    arr = np.asarray(u, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise InputError("product_norm expects a flat vector with at least 2 entries")
    return float(np.linalg.norm(arr[:-1]) + abs(arr[-1]))


def packing_constant(d: int) -> int:
    """Upper bound on disjoint balls of radius >= r meeting a radius-r ball: 3^d."""
    if d < 1:
        raise InputError("dimension must be at least 1")
    return 3**d
