"""Compressed quadtree over [0,1]^d on interleaved integer (Morton) keys.

A canonical cube at `level` maps to the key of its low corner at the maximum
level M = max_level_for_dim(d); the cube owns the contiguous key range
[z, z + 2^(d*(M-level))).  A tree is a sorted array of such (z, level) pairs,
closed under pairwise least common ancestors.  Every lookup is a search on
those sorted arrays: a node's parent is the stored LCA of it and the node
before it, and the deepest stored cube holding a key is found by one
`searchsorted` and a short walk up the parent links.  All keys fit in a
signed 64-bit integer because d * M <= 63.
"""

from __future__ import annotations

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
    "overlay",
]

_I64_MAX = np.iinfo(np.int64).max


# Parallel bit spread/compact: move one coordinate's bits to every 2nd or
# 3rd position and back.  All masks stay below 2^63, so int64 is safe.
_SPREAD2 = (
    (16, np.int64(0x0000FFFF0000FFFF)),
    (8, np.int64(0x00FF00FF00FF00FF)),
    (4, np.int64(0x0F0F0F0F0F0F0F0F)),
    (2, np.int64(0x3333333333333333)),
    (1, np.int64(0x5555555555555555)),
)
_COMPACT2 = (
    (1, np.int64(0x3333333333333333)),
    (2, np.int64(0x0F0F0F0F0F0F0F0F)),
    (4, np.int64(0x00FF00FF00FF00FF)),
    (8, np.int64(0x0000FFFF0000FFFF)),
    (16, np.int64(0x00000000FFFFFFFF)),
)
_SPREAD3 = (
    (32, np.int64(0x001F00000000FFFF)),
    (16, np.int64(0x001F0000FF0000FF)),
    (8, np.int64(0x100F00F00F00F00F)),
    (4, np.int64(0x10C30C30C30C30C3)),
    (2, np.int64(0x1249249249249249)),
)
_COMPACT3 = (
    (2, np.int64(0x10C30C30C30C30C3)),
    (4, np.int64(0x100F00F00F00F00F)),
    (8, np.int64(0x001F0000FF0000FF)),
    (16, np.int64(0x001F00000000FFFF)),
    (32, np.int64(0x00000000001FFFFF)),
)


def _spread_bits(x: np.ndarray, dim: int) -> np.ndarray:
    for shift, mask in _SPREAD2 if dim == 2 else _SPREAD3:
        x = (x | (x << np.int64(shift))) & mask
    return x


def _compact_bits(x: np.ndarray, dim: int) -> np.ndarray:
    x = x & (_SPREAD2 if dim == 2 else _SPREAD3)[-1][1]
    for shift, mask in _COMPACT2 if dim == 2 else _COMPACT3:
        x = (x | (x >> np.int64(shift))) & mask
    return x


_SPREAD_INT = {2: [(s, int(m)) for s, m in _SPREAD2], 3: [(s, int(m)) for s, m in _SPREAD3]}


def _spread_int(x: int, dim: int) -> int:
    """_spread_bits on one Python int: bit b of x moves to bit b * dim."""
    if dim == 1:
        return x
    if dim <= 3:
        for shift, mask in _SPREAD_INT[dim]:
            x = (x | (x << shift)) & mask
        return x
    out = 0
    for bit in range(x.bit_length()):
        out |= ((x >> bit) & 1) << (bit * dim)
    return out


def encode_point(p: Sequence[float], dim: int) -> int:
    """encode_points for one point, as a Python int: the same floor and clip,
    with no numpy call."""
    top = 1 << max_level_for_dim(dim)
    code = 0
    for j, x in enumerate(p):
        c = min(max(math.floor(x * top), 0), top - 1)
        code |= _spread_int(c, dim) << (dim - 1 - j)
    return code


def morton_encode(coords: np.ndarray, level: int, dim: int) -> np.ndarray:
    """Keys of cubes given integer coords (m, d) at `level`; full-depth low corner."""
    M = max_level_for_dim(dim)
    if level > M:
        raise InputError(f"level {level} exceeds maximum {M} for dimension {dim}")
    c = np.asarray(coords, dtype=np.int64).reshape(-1, dim)
    if dim == 1:
        return c[:, 0] << np.int64(M - level)
    if dim <= 3:
        z = np.zeros(c.shape[0], dtype=np.int64)
        for j in range(dim):
            z |= _spread_bits(c[:, j], dim) << np.int64(dim - 1 - j)
        return z << np.int64(dim * (M - level))
    z = np.zeros(c.shape[0], dtype=np.int64)
    for bit in range(level):
        for j in range(dim):
            z |= ((c[:, j] >> np.int64(bit)) & np.int64(1)) << np.int64(bit * dim + (dim - 1 - j))
    return z << np.int64(dim * (M - level))


def morton_decode(z: np.ndarray, level: int, dim: int) -> np.ndarray:
    """Integer coords (m, d) at `level` of the cubes with the given keys."""
    M = max_level_for_dim(dim)
    zz = np.asarray(z, dtype=np.int64).reshape(-1)
    if dim == 1:
        return (zz >> np.int64(M - level)).reshape(-1, 1)
    zz = zz >> np.int64(dim * (M - level))
    out = np.zeros((zz.shape[0], dim), dtype=np.int64)
    if dim <= 3:
        for j in range(dim):
            out[:, j] = _compact_bits(zz >> np.int64(dim - 1 - j), dim)
        return out
    for bit in range(level):
        for j in range(dim):
            out[:, j] |= ((zz >> np.int64(bit * dim + (dim - 1 - j))) & np.int64(1)) << np.int64(bit)
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
    if np.isscalar(shift) or isinstance(shift, int):
        if shift >= 63:
            return np.int64(_I64_MAX)
        return z + ((np.int64(1) << np.int64(shift)) - np.int64(1))
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


def _pack_shift(z: np.ndarray, bits: int) -> int | None:
    """t, the trailing zero bits that every key of z shares, when each cube
    (z, level) with a level of at most `bits` bits packs into one int64 as
    _pack(z, level, t, bits); None when the keys leave no room for the
    level (cubes at the deepest level do not).  z must not be empty."""
    zbits = int(np.bitwise_or.reduce(z))
    t = (zbits & -zbits).bit_length() - 1 if zbits else 0
    return t if int(z.max()).bit_length() - t + bits <= 63 else None


def _pack(z: np.ndarray, level: np.ndarray, t: int, bits: int) -> np.ndarray:
    """(z >> t) << bits | level: one int64 per cube, ordered as the (z,
    level) pairs are."""
    return ((z >> np.int64(t)) << np.int64(bits)) | level


def _dedupe_keys(z: np.ndarray, level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (z, level) pairs, sorted by z and then level.

    When the keys leave room for the level (_pack_shift), one sort of the
    packed values orders and dedupes the pairs; otherwise a two-key
    lexsort does.
    """
    z = np.asarray(z, dtype=np.int64)
    level = np.asarray(level, dtype=np.int64)
    if z.size == 0:
        return z, level
    bits = int(level.max()).bit_length()
    t = _pack_shift(z, bits)
    if t is not None:
        key = np.sort(_pack(z, level, t, bits))
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        return (key >> np.int64(bits)) << np.int64(t), key & np.int64((1 << bits) - 1)
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
        self.z = z.astype(np.int64)
        self.level = level.astype(np.int64)
        self.size = int(z.size)
        self.shift = (self.max_level - self.level) * dim  # low bits owned per node
        self.z_hi = range_hi_inclusive(self.z, self.shift)
        self.parent = np.full(self.size, -1, dtype=np.int64)
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
        both cases the parent is the stored LCA of i - 1 and i.
        """
        if self.size == 0 or self.z[0] != 0 or self.level[0] != 0:
            raise InternalInvariantError("tree must start at the root cube")
        lca_z, lca_l = _pair_lcas(self.z[:-1], self.level[:-1], self.z[1:], self.level[1:], self.dim)
        self.parent[1:] = self.find_keys(lca_z, lca_l)
        if (self.parent[1:] < 0).any():
            raise InternalInvariantError("tree must be closed under least common ancestors")
        # Children in CSR form, ordered by node index (z order within a parent).
        counts = np.bincount(self.parent[1:], minlength=self.size)
        self.child_off = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self.child_off[1:])
        self.child_idx = np.argsort(self.parent[1:], kind="stable") + 1

    def attach_points(self, points: np.ndarray) -> None:
        """Attach point codes so every cube can report exact counts and a witness."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, self.dim)
        codes = encode_points(pts, self.dim)
        order = np.lexsort((np.arange(codes.size), codes))
        self.point_codes = codes[order]
        self.point_perm = order.astype(np.int64)
        self.span_lo = np.searchsorted(self.point_codes, self.z, side="left")
        self.span_hi = np.searchsorted(self.point_codes, self.z_hi, side="right")
        self.has_points = True

    # -- queries -----------------------------------------------------------

    def node_cube(self, i: int) -> CanonicalCube:
        return key_to_cube(int(self.z[i]), int(self.level[i]), self.dim)

    def low_corners(self) -> np.ndarray:
        """Low corner (size, d) of every node's cube; the side is 2^-level.

        A key is its cube's low corner at full depth, so one decode at the
        maximum level serves every node, exactly (coordinates stay below 2^52).
        """
        return morton_decode(self.z, self.max_level, self.dim) * 2.0 ** (-self.max_level)

    def children(self, i: int) -> np.ndarray:
        return self.child_idx[self.child_off[i] : self.child_off[i + 1]]

    def find_key(self, z: int, level: int) -> int:
        """Node index of an exactly stored cube, or -1."""
        return int(self.find_keys(np.array([z], dtype=np.int64), np.array([level], dtype=np.int64))[0])

    def find_keys(self, z: np.ndarray, level: np.ndarray) -> np.ndarray:
        """find_key over arrays of cubes: node index per exactly stored cube, or -1.

        When the stored keys leave room for the level (_pack_shift), every
        (z, level) packs into one int64 in node order, and one search finds
        each cube; a cube with a bit set below the stored keys' shared
        trailing zeros, t of them, is not stored.  Otherwise (a tree with
        cubes at the deepest level) the nodes that share a key form one run,
        levels ascending: one search finds where each cube's run starts, and
        a few steps along the runs find the level.
        """
        zz = np.asarray(z, dtype=np.int64)
        lv = np.asarray(level, dtype=np.int64)
        bits = self.max_level.bit_length()
        t = _pack_shift(self.z, bits)
        if t is not None:
            keys = _pack(self.z, self.level, t, bits)
            packed = _pack(zz, lv, t, bits)
            pos = np.minimum(keys.searchsorted(packed), self.size - 1)
            hit = (keys[pos] == packed) & ((zz & np.int64((1 << t) - 1)) == 0) & (lv <= self.max_level)
            return np.where(hit, pos, -1)
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

        The last node whose key is at most p's full-depth key lies inside
        that cube (or is it), so the walk up its parent links from there
        stops at the answer; the root always matches.
        """
        if len(p) != self.dim:
            raise InputError(f"point dimension {len(p)} != tree dimension {self.dim}")
        if any(not (0.0 <= x < 1.0) for x in p):
            raise InputError(f"point {tuple(p)} outside [0,1)^d")
        code = encode_point(p, self.dim)
        j = int(self.z.searchsorted(code, side="right")) - 1
        z_hi, parent = self.z_hi, self.parent
        while z_hi[j] < code:
            j = int(parent[j])
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


def build_from_cubes(cubes, dim: int | None = None) -> CompressedQuadtree:
    """Tree over a cube collection: CanonicalCube iterable or (z (m,), level (m,)) arrays.

    The root is always included; the node set is the input closed under LCAs.
    """
    if isinstance(cubes, tuple) and len(cubes) == 3 and not isinstance(cubes[0], CanonicalCube):
        z, level, dim = cubes
        z = np.asarray(z, dtype=np.int64)
        level = np.asarray(level, dtype=np.int64)
    else:
        cubes = list(cubes)
        if dim is None:
            if not cubes:
                raise InputError("cannot infer dimension from an empty cube set")
            dim = cubes[0].dimension
        if cubes:
            lv = np.array([c.level for c in cubes], dtype=np.int64)
            coords = [c.coords for c in cubes]
            z = np.empty(len(cubes), dtype=np.int64)
            for lev in np.unique(lv):
                mask = lv == lev
                sel = np.array([coords[i] for i in np.flatnonzero(mask)], dtype=np.int64)
                z[mask] = morton_encode(sel, int(lev), dim)
            level = lv
        else:
            z = np.empty(0, dtype=np.int64)
            level = np.empty(0, dtype=np.int64)
    z = np.concatenate([z, [np.int64(0)]])
    level = np.concatenate([level, [np.int64(0)]])
    z, level = _dedupe_keys(z, level)
    z, level = _lca_closure(z, level, dim)
    return CompressedQuadtree(dim, z, level)


def build_from_points(points: np.ndarray, dim: int | None = None) -> CompressedQuadtree:
    """Tree storing points: leaves are the occupied maximum-level cells.

    Subtree counts are exact; coincident points share one leaf with
    multiplicity.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if dim is None:
        dim = pts.shape[1]
    M = max_level_for_dim(dim)
    codes = np.unique(encode_points(pts, dim))
    levels = np.full(codes.size, M, dtype=np.int64)
    tree = build_from_cubes((codes, levels, dim))
    tree.attach_points(pts)
    return tree


def overlay(t1: CompressedQuadtree, t2: CompressedQuadtree) -> tuple[CompressedQuadtree, np.ndarray]:
    """Union tree plus, per node, the smallest containing cube from t2.

    Returns (tree, back); back[j] is the deepest ancestor-or-self of overlay
    node j whose key belongs to t2.
    """
    if t1.dim != t2.dim:
        raise InputError("overlay requires trees of one dimension")
    z = np.concatenate([t1.z, t2.z])
    level = np.concatenate([t1.level, t2.level])
    z, level = _dedupe_keys(z, level)
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
