"""Compressed quadtree over [0,1]^d on interleaved integer (Morton) keys.

A canonical cube at `level` maps to the key of its low corner at the maximum
level M = max_level_for_dim(d); the cube owns the contiguous key range
[z, z + 2^(d*(M-level))).  A tree is a sorted array of such (z, level) pairs,
closed under pairwise least common ancestors.  Every lookup is a search on
those sorted arrays: a node's parent is the stored LCA of it and the node
before it, which is the last node before it at the LCA's level (every node
between the two is deeper), found by one `searchsorted` on the nodes
ranked by level and then index; and the deepest stored cube holding a
point is found by one binary search and a short walk up the parent links
(`CompressedQuadtree.point_location`).  The pairs stay two arrays in
every tree: one two-key lexsort sorts and dedupes them (_dedupe_keys),
and an exact cube is found by one `searchsorted` on z and a walk along
the run of nodes with that z (`CompressedQuadtree.find_keys`).  All keys
fit in a signed 64-bit integer because d * M <= 63.

A tree over points (`build_from_points`) takes one encode and one stable
argsort of the points' keys: the sorted keys' distinct values are the
leaves, their adjacent LCAs and the root are the other nodes, and each
node's points are a run of the sorted keys.

One rule builds the keys in every dimension: a coordinate's bits spread
to every d-th bit in one shift-or-mask round per power of two below their
count, each moving blocks of that many bits, and compact back by the same
rounds in reverse; _morton_rounds derives them from d and the bit count.
The array encoders run those rounds.  One point's key (`encode_point`)
instead spreads a coordinate a byte at a time, by a 256-entry table per
dimension (_byte_table), so it costs a lookup per byte of the level's
bits at any level.  A tree locates a point by its key at the tree's
deepest stored level, which orders it among the stored cubes as its
full-depth key does, searching and walking zero-copy memoryviews of its
key and parent arrays, whose items read as Python ints
(`CompressedQuadtree.point_location`).  A dense lookup over one level's
grid (`grid_lookup`) answers point location for every grid cell that no
deeper stored cube lies in, from O(grid) array passes and no search: each
node repeated over the grid cells from its low corner's to the next
node's.  Trees take their cubes as key arrays; cube_to_key and
key_to_cube convert single CanonicalCubes.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import Sequence

import numpy as np

from .geometry import (
    CanonicalCube,
    InputError,
    InternalInvariantError,
    max_level_for_dim,
)

__all__ = [
    "morton_encode",
    "morton_decode",
    "cube_to_key",
    "key_to_cube",
    "CompressedQuadtree",
    "build_from_cubes",
    "build_from_points",
    "grid_lookup",
    "overlay",
]

_I64_MAX = np.iinfo(np.int64).max


@functools.cache
def _morton_rounds(dim: int, bits: int) -> tuple[tuple, int, tuple]:
    """(spread, low, compact): the (shift, mask) rounds that move bit j of a
    coordinate to bit j*dim, and back, for the bits j < `bits`.

    Bits move in blocks: after the round of block size b, bit j sits at
    (j // b)*b*dim + j % b, so the round moves the odd blocks of size b up
    by b*(dim - 1), and its mask keeps those positions for j < bits.  The
    spread runs b over the powers of two below `bits`, largest first; before
    its first round every bit already sits where a block as wide as all the
    bits puts it, so fewer bits need fewer rounds.  The compact keeps the
    bits at j*dim (`low`) and runs the same rounds in reverse, shifting down
    into the masks of block size 2b.  At d = 1, or with one bit, no round
    moves a bit, and there are none.  Cached per (dim, bits): morton_encode
    spreads all M bits, and morton_decode compacts the bits of its level.
    """

    def mask(b: int) -> int:
        return sum(1 << (j // b) * b * dim + j % b for j in range(bits))

    blocks = [1 << i for i in range(bits.bit_length()) if 1 << i < bits and dim > 1]
    spread = tuple((b * (dim - 1), mask(b)) for b in reversed(blocks))
    compact = tuple((b * (dim - 1), mask(2 * b)) for b in blocks)
    return spread, mask(1), compact


def _spread_bits(x, spread: tuple):
    """Bit j of x moves to bit j*dim, by the `spread` rounds of
    _morton_rounds(dim, bits), for the j < bits; x is an int64 array or a
    Python int.  No mask reaches bit 63, so int64 is safe."""
    for shift, mask in spread:
        x = (x | (x << shift)) & mask
    return x


def _compact_bits(x, dim: int, bits: int):
    """Inverse of _spread_bits for the bits j < `bits`: bit j*dim of x
    moves back to bit j; the other bits drop."""
    _, low, compact = _morton_rounds(dim, bits)
    x = x & low
    for shift, mask in compact:
        x = (x | (x >> shift)) & mask
    return x


@functools.cache
def _byte_table(dim: int) -> tuple[int, ...]:
    """The spread of every byte: entry b holds bit j of b at bit j*dim, so a
    coordinate spreads one byte per lookup, byte i shifted up by 8*i*dim.
    Entry b is the entry of b >> 1 moved up by dim, plus b's low bit."""
    table = [0]
    for b in range(1, 256):
        table.append(table[b >> 1] << dim | b & 1)
    return tuple(table)


def encode_point(p: Sequence[float], dim: int, level: int | None = None) -> int:
    """Full-depth key of the level-`level` cube holding p (level M when not
    given), as a Python int: encode_points' floor and clip at that level,
    with no numpy call.

    It equals p's level-M key with its low dim*(M - level) bits cleared:
    for x in [0, 1), x * 2^M is exact, so floor(x * 2^level) is the top
    `level` bits of floor(x * 2^M), and a point outside the cube clips to
    the same boundary cell at either level.  Each coordinate spreads by
    _byte_table, 8 of its bits a lookup, so the level's bits cost a lookup
    per byte they fill, at any level up to M.
    """
    M = max_level_for_dim(dim)
    if level is None:
        level = M
    top = 1 << level
    table, step = _byte_table(dim), 8 * dim
    code = 0
    for x in p:
        c = math.floor(x * top)
        if c < 0:
            c = 0
        elif c >= top:
            c = top - 1
        s = sh = 0
        while c:
            s |= table[c & 255] << sh
            c >>= 8
            sh += step
        code = code << 1 | s
    return code << dim * (M - level)


def morton_encode(coords: np.ndarray, level: int, dim: int) -> np.ndarray:
    """Keys of cubes given integer coords (m, d) at `level`; full-depth low corner."""
    M = max_level_for_dim(dim)
    if level > M:
        raise InputError(f"level {level} exceeds maximum {M} for dimension {dim}")
    c = _spread_bits(np.asarray(coords, dtype=np.int64).reshape(-1, dim), _morton_rounds(dim, M)[0])
    z = np.zeros(c.shape[0], dtype=np.int64)
    for j in range(dim):
        z |= c[:, j] << np.int64(dim - 1 - j)
    return z << np.int64(dim * (M - level))


def morton_decode(z: np.ndarray, level: int, dim: int) -> np.ndarray:
    """Integer coords (m, d) at `level` of the cubes with the given keys."""
    M = max_level_for_dim(dim)
    zz = np.asarray(z, dtype=np.int64).reshape(-1) >> np.int64(dim * (M - level))
    out = np.empty((zz.shape[0], dim), dtype=np.int64)
    for j in range(dim):
        out[:, j] = _compact_bits(zz >> np.int64(dim - 1 - j), dim, level)
    return out


def cube_to_key(cube: CanonicalCube) -> tuple[int, int]:
    d = cube.dimension
    z = morton_encode(np.array([cube.coords], dtype=np.int64), cube.level, d)
    return int(z[0]), cube.level


def key_to_cube(z: int, level: int, dim: int) -> CanonicalCube:
    coords = morton_decode(np.array([z], dtype=np.int64), level, dim)[0]
    return CanonicalCube(level, tuple(int(c) for c in coords))


def range_hi_inclusive(z, shift):
    """Largest key inside the cube starting at z with d*(M-level) = shift low bits."""
    safe = np.minimum(shift, 62).astype(np.int64)
    size = np.where(shift >= 63, np.int64(_I64_MAX) - z, (np.int64(1) << safe) - np.int64(1))
    return z + size


def _bit_length_i64(x: np.ndarray) -> np.ndarray:
    """int.bit_length of each nonnegative int64, from the float exponents of
    its high and low 32-bit halves; each half converts to float64 exactly."""
    x = np.asarray(x, dtype=np.int64)
    hi = np.frexp((x >> np.int64(32)).astype(np.float64))[1]
    lo = np.frexp((x & np.int64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(hi > 0, hi + 32, lo).astype(np.int64)


def _dedupe_keys(z: np.ndarray, level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (z, level) pairs, sorted by z and then level, by one
    two-key lexsort."""
    z = np.asarray(z, dtype=np.int64)
    level = np.asarray(level, dtype=np.int64)
    order = np.lexsort((level, z))
    z, level = z[order], level[order]
    keep = np.ones(z.size, dtype=bool)
    keep[1:] = (z[1:] != z[:-1]) | (level[1:] != level[:-1])
    return z[keep], level[keep]


class CompressedQuadtree:
    """Frozen compressed quadtree; build through the module-level constructors.

    Node order is (z asc, level asc), which lists parents before children.
    """

    def __init__(self, dim: int, z: np.ndarray, level: np.ndarray):
        self.dim = int(dim)
        self.max_level = max_level_for_dim(dim)
        # No copy of int64 keys: a loaded tree's keys and levels stay views
        # of the file's bytes.  Nothing writes to either.
        self.z = z.astype(np.int64, copy=False)
        self.level = level.astype(np.int64, copy=False)
        self.size = int(z.size)
        self.shift = (self.max_level - self.level) * dim  # low bits owned per node
        self.z_hi = range_hi_inclusive(self.z, self.shift)
        self.parent = np.full(self.size, -1, dtype=np.int64)
        self.deepest_level = int(self.level.max(initial=0))  # L, where point_location encodes
        # Point attachment (present when built over points).
        self.has_points = False
        self.point_codes = np.empty(0, dtype=np.int64)
        self.point_perm = np.empty(0, dtype=np.int64)
        self.span_lo = np.empty(0, dtype=np.int64)
        self.span_hi = np.empty(0, dtype=np.int64)
        self._finalize()

    # -- construction ------------------------------------------------------

    def _finalize(self) -> None:
        """Parent links and the child CSR, both from the sorted keys.

        Node i - 1 either contains node i, and is then its parent, or lies
        before it in z order outside it; then the smallest cube holding both
        is i's parent, and it is stored because the tree is LCA-closed.  In
        both cases the parent is the stored LCA of i - 1 and i.  It is the
        last node before i at the LCA's level: every node between the two
        lies inside the parent, so it is deeper.  One stable argsort by
        level lists the nodes by level * size + index, and one searchsorted
        on that finds it; a found node that is not the LCA itself means the
        LCA is not stored.
        """
        if self.size == 0 or self.z[0] != 0 or self.level[0] != 0:
            raise InternalInvariantError("tree must start at the root cube")
        lca_z, lca_l = _pair_lcas(self.z[:-1], self.level[:-1], self.z[1:], self.level[1:], self.dim)
        by_level = np.argsort(self.level, kind="stable")
        rank = self.level[by_level] * self.size + by_level
        at = np.searchsorted(rank, lca_l * self.size + np.arange(1, self.size)) - 1
        parent = by_level[at]
        if not (np.array_equal(self.z[parent], lca_z) and np.array_equal(self.level[parent], lca_l)):
            raise InternalInvariantError("tree must be closed under least common ancestors")
        self.parent[1:] = parent
        # Children in CSR form, ordered by node index (z order within a parent).
        counts = np.bincount(self.parent[1:], minlength=self.size)
        self.child_off = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self.child_off[1:])
        self.child_idx = np.argsort(self.parent[1:], kind="stable") + 1
        # Whether each node's children tile its cube.  No quadrant of a node
        # holds two of its children, since the tree is LCA-closed, so they
        # tile it exactly when all 2^d quadrants are children one level
        # down.  A plain attribute set here, not a cached property: a key
        # added to the instance dict later slowed every later
        # point_location by 11-13% (CPython 3.11).
        kids = self.parent[1:]
        deeper = self.level[1:] == self.level[kids] + 1
        self.tiled = np.bincount(kids[deeper], minlength=self.size) == 1 << self.dim
        # point_location's reads: zero-copy views, whose items are Python
        # ints, and the constants of its encode at the deepest level L.
        self._z_view = memoryview(self.z)
        self._z_hi_view = memoryview(self.z_hi)
        self._parent_view = memoryview(self.parent)
        self._top = 1 << self.deepest_level
        self._low_shift = self.dim * (self.max_level - self.deepest_level)
        self._table = _byte_table(self.dim)
        self._step = 8 * self.dim

    # -- queries -----------------------------------------------------------

    def node_cube(self, i: int) -> CanonicalCube:
        return key_to_cube(int(self.z[i]), int(self.level[i]), self.dim)

    def children(self, i: int) -> np.ndarray:
        return self.child_idx[self.child_off[i] : self.child_off[i + 1]]

    def find_key(self, z: int, level: int) -> int:
        """Node index of an exactly stored cube, or -1."""
        return int(self.find_keys(np.array([z], dtype=np.int64), np.array([level], dtype=np.int64))[0])

    def find_keys(self, z: np.ndarray, level: np.ndarray) -> np.ndarray:
        """find_key over arrays of cubes: node index per exactly stored cube, or -1.

        The nodes that share a key form one run, levels ascending: one
        search finds where each cube's run starts, and a few steps along
        the runs find the level.
        """
        zz = np.asarray(z, dtype=np.int64)
        lv = np.asarray(level, dtype=np.int64)
        out = np.full(zz.size, -1, dtype=np.int64)
        pos = np.searchsorted(self.z, zz)
        todo = np.flatnonzero(pos < self.size)
        while todo.size:
            at = pos[todo]
            same = self.z[at] == zz[todo]
            hit = same & (self.level[at] == lv[todo])
            out[todo[hit]] = at[hit]
            todo = todo[same & (self.level[at] < lv[todo])]
            pos[todo] += 1
            todo = todo[pos[todo] < self.size]
        return out

    def point_location(self, p: Sequence[float]) -> int:
        """Node index of the smallest stored cube containing p; p in [0,1)^d.

        The last node whose key is at most p's key lies inside that cube
        (or is it), so the walk up its parent links from there stops at the
        answer; the root always matches.  p's key is taken at the tree's
        deepest stored level L, p's full-depth key with its low d*(M - L)
        bits cleared, and both tests decide as they would on the full-depth
        key: every stored key z is a multiple of 2^(d*(M - L)), and every
        z_hi one less than such a multiple, so z <= code and z_hi < code
        hold for the cleared key exactly when they hold for the full one.

        The key is encode_point's at level L, by the same byte table, with
        the tree's constants for L kept by _finalize; for x in [0, 1), int
        truncates x * 2^L as floor does, and no clip is needed.  The search
        is `bisect.bisect_right` on a memoryview of z, and the walk reads
        memoryviews of z_hi and parent: no numpy call, and no copy of the
        arrays.
        """
        if len(p) != self.dim:
            raise InputError(f"point dimension {len(p)} != tree dimension {self.dim}")
        top, table, step = self._top, self._table, self._step
        code = 0
        for x in p:  # encode_point inlined: the call would add a quarter to the location
            if not 0.0 <= x < 1.0:
                raise InputError(f"point {tuple(p)} outside [0,1)^d")
            c = int(x * top)
            s = sh = 0
            while c:
                s |= table[c & 255] << sh
                c >>= 8
                sh += step
            code = code << 1 | s
        code <<= self._low_shift
        j = bisect.bisect_right(self._z_view, code) - 1
        z_hi, parent = self._z_hi_view, self._parent_view
        while z_hi[j] < code:
            j = parent[j]
        return j

    def count_points_in_cubes(self, z: np.ndarray, level: int) -> np.ndarray:
        """Exact stored-point count per queried cube (any canonical cube)."""
        if not self.has_points:
            raise InputError("tree holds no points")
        zz = np.asarray(z, dtype=np.int64)
        hi = range_hi_inclusive(zz, self.dim * (self.max_level - level))
        return np.searchsorted(self.point_codes, hi, side="right") - np.searchsorted(
            self.point_codes, zz, side="left"
        )


def encode_points(points: np.ndarray, dim: int) -> np.ndarray:
    """Full-depth keys of the level-M cells containing each point."""
    M = max_level_for_dim(dim)
    top = np.int64(1) << np.int64(M)
    ints = np.floor(points * float(top)).astype(np.int64)
    ints = np.clip(ints, 0, int(top) - 1)
    return morton_encode(ints, M, dim)


def _pair_lcas(za, la, zb, lb, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(z, level) of the smallest cube holding both cubes (za, la) and (zb, lb)."""
    M = max_level_for_dim(dim)
    common = np.int64(dim * M) - _bit_length_i64(za ^ zb)
    lca_level = np.minimum(np.minimum(la, lb), common // np.int64(dim))
    s = (np.int64(M) - lca_level) * np.int64(dim)
    return (za >> s) << s, lca_level


def _lca_closure(z: np.ndarray, level: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Close a deduped (z asc, level asc) key list under pairwise LCAs.

    For keys in z order, the LCA set of consecutive pairs already generates
    all pairwise LCAs, so one pass suffices.
    """
    if z.size <= 1:
        return z, level
    lca_z, lca_level = _pair_lcas(z[:-1], level[:-1], z[1:], level[1:], dim)
    all_z = np.concatenate([z, lca_z])
    all_l = np.concatenate([level, lca_level])
    return _dedupe_keys(all_z, all_l)


def build_from_cubes(cubes: tuple[np.ndarray, np.ndarray, int]) -> CompressedQuadtree:
    """Tree over the cubes with keys (z (m,), level (m,), dim).

    The root is always included; the node set is the input closed under LCAs.
    """
    z, level, dim = cubes
    z = np.concatenate([np.asarray(z, dtype=np.int64), [np.int64(0)]])
    level = np.concatenate([np.asarray(level, dtype=np.int64), [np.int64(0)]])
    z, level = _dedupe_keys(z, level)
    z, level = _lca_closure(z, level, dim)
    return CompressedQuadtree(dim, z, level)


def build_from_points(points: np.ndarray, dim: int | None = None) -> CompressedQuadtree:
    """Tree storing points: leaves are the occupied maximum-level cells.

    Subtree counts are exact; coincident points share one leaf with
    multiplicity.  One encode and one stable argsort of the points' keys
    give point_perm and the sorted point_codes.  Their distinct values are
    the leaves, and the LCAs of adjacent leaves, with the root, are every
    other node, so one _dedupe_keys orders the nodes.  Each node's points
    are the run of point_codes inside its key range, found by two
    searchsorted calls.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if dim is None:
        dim = pts.shape[1]
    M = max_level_for_dim(dim)
    codes = encode_points(pts, dim)
    perm = np.argsort(codes, kind="stable")
    codes = codes[perm]
    first = np.ones(codes.size, dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    leaves = codes[first]
    leaf_level = np.full(leaves.size, M, dtype=np.int64)
    lca_z, lca_l = _pair_lcas(leaves[:-1], leaf_level[:-1], leaves[1:], leaf_level[1:], dim)
    z = np.concatenate([[np.int64(0)], leaves, lca_z])
    level = np.concatenate([[np.int64(0)], leaf_level, lca_l])
    tree = CompressedQuadtree(dim, *_dedupe_keys(z, level))
    tree.point_codes = codes
    tree.point_perm = perm
    tree.span_lo = np.searchsorted(codes, tree.z, side="left")
    tree.span_hi = np.searchsorted(codes, tree.z_hi, side="right")
    tree.has_points = True
    return tree


@functools.cache
def _row_major_cells(dim: int, level: int) -> np.ndarray:
    """The Morton index, at `level`, of each cell of the level's grid in
    row-major order, the first coordinate most significant; cached per
    (dim, level) and read-only, since every caller shares it."""
    top = 1 << level
    coords = np.indices((top,) * dim).reshape(dim, -1).T
    out = morton_encode(coords, level, dim) >> np.int64(dim * (max_level_for_dim(dim) - level))
    out.setflags(write=False)
    return out


def grid_lookup(tree: CompressedQuadtree, level: int) -> np.ndarray:
    """Per cell of the level-`level` grid, in row-major order: the node of
    the smallest stored cube that contains the whole cell, or -1 when a
    stored cube deeper than `level` lies inside the cell.  Where it is not
    -1, it is `point_location` of every point of the cell: no stored cube
    deeper than the cell holds one of its points, and a stored cube at
    `level` or above holds all of them or none.

    O(2^(level*d)) array passes and no search.  The nodes, in tree order,
    start at nondecreasing grid indices: repeating each node from its low
    corner's grid cell up to the next node's gives each grid cell the
    last node in tree order whose corner is at or before the cell's, and
    of nodes sharing a corner the deepest, which comes last.  That node
    lies inside the answer or is it, and is the answer unless its cube
    ends before the cell: a gap between stored children, or a node deeper
    than `level` whose run passes its own grid cell.  When any run passes
    its node's cube, the grid cells whose node ends before them walk up
    the parent links, together, until it reaches them.  Then every grid
    cell that holds a deeper node's corner gets -1.
    """
    shift = np.int64(tree.dim * (tree.max_level - level))
    start = tree.z >> shift
    stop = np.empty_like(start)  # where each node's run stops: the next one's start
    stop[:-1] = start[1:]
    stop[-1] = 1 << tree.dim * level
    cells = np.repeat(np.arange(tree.size, dtype=np.int32), stop - start)
    if (tree.z_hi >> shift < stop - 1).any():
        low = np.arange(cells.size, dtype=np.int64) << shift
        todo = np.flatnonzero(tree.z_hi[cells] < low)
        while todo.size:
            cells[todo] = tree.parent[cells[todo]]
            todo = todo[tree.z_hi[cells[todo]] < low[todo]]
    cells[start[tree.level > level]] = -1
    return cells[_row_major_cells(tree.dim, level)]


def overlay(t1: CompressedQuadtree, t2: CompressedQuadtree) -> tuple[CompressedQuadtree, np.ndarray]:
    """Union tree plus, per node, the smallest containing cube from t2.

    Returns (tree, back); back[j] is the deepest ancestor-or-self of overlay
    node j whose key belongs to t2.
    """
    if t1.dim != t2.dim:
        raise InputError("overlay requires trees of one dimension")
    z = np.concatenate([t1.z, t2.z])
    level = np.concatenate([t1.level, t2.level])
    tree = build_from_cubes((z, level, t1.dim))
    return tree, _nearest_marked_ancestor(tree.parent, t2.find_keys(tree.z, tree.level) >= 0)


def _nearest_marked_ancestor(parent: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Per node, its deepest marked ancestor-or-self, by pointer jumping up
    the parent links; the root must be marked."""
    if not marked[0]:
        raise InternalInvariantError("the source tree must contain the root")
    up = np.where(marked, np.arange(parent.size, dtype=np.int64), parent)
    while True:
        nxt = up[up]
        if np.array_equal(nxt, up):
            return up
        up = nxt
