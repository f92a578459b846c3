"""Compressed quadtree over [0,1]^d on interleaved integer (Morton) keys.

A canonical cube at `level` maps to the key of its low corner at the maximum
level M = max_level_for_dim(d); the cube owns the contiguous key range
[z, z + 2^(d*(M-level))).  A tree is a sorted array of such (z, level) pairs,
closed under pairwise least common ancestors, with parent links recovered by
one stack sweep over (z asc, level asc) order.  All keys fit in a signed
64-bit integer because d * M <= 63.
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
    x = x.astype(np.int64).copy()
    out = np.zeros_like(x)
    for s in (32, 16, 8, 4, 2, 1):
        m = x >= (np.int64(1) << np.int64(s))
        out[m] += s
        x[m] >>= np.int64(s)
    out += (x > 0).astype(np.int64)
    return out


def _dedupe_keys(z: np.ndarray, level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((level, z))
    z, level = z[order], level[order]
    if z.size == 0:
        return z, level
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
        self._key_index: dict[int, int] = {}
        self._levels_present: list[int] = []
        self._level_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Point attachment (present when built over points).
        self.has_points = False
        self.point_codes = np.empty(0, dtype=np.int64)
        self.point_perm = np.empty(0, dtype=np.int64)
        self.span_lo = np.empty(0, dtype=np.int64)
        self.span_hi = np.empty(0, dtype=np.int64)
        self._finalize()

    # -- construction ------------------------------------------------------

    def _finalize(self) -> None:
        if self.size == 0 or self.z[0] != 0 or self.level[0] != 0:
            raise InternalInvariantError("tree must start at the root cube")
        z_l = self.z.tolist()
        lv_l = self.level.tolist()
        sh_l = self.shift.tolist()
        parent_l = [-1] * self.size
        stack = [0]
        for i in range(1, self.size):
            zi = z_l[i]
            li = lv_l[i]
            while True:
                t = stack[-1]
                s = sh_l[t]
                if (zi >> s) == (z_l[t] >> s) and lv_l[t] < li:
                    break
                stack.pop()
            parent_l[i] = stack[-1]
            stack.append(i)
        self.parent = np.array(parent_l, dtype=np.int64)
        # Children in CSR form, ordered by node index (z order within a parent).
        counts = np.bincount(self.parent[1:], minlength=self.size)
        self.child_off = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self.child_off[1:])
        self.child_idx = np.empty(max(self.size - 1, 0), dtype=np.int64)
        fill = self.child_off[:-1].copy()
        for i in range(1, self.size):
            p = parent_l[i]
            self.child_idx[fill[p]] = i
            fill[p] += 1
        self._key_index = {(zz << 6) | ll: i for i, (zz, ll) in enumerate(zip(z_l, lv_l))}
        self._levels_present = sorted({int(l) for l in self.level}, reverse=True)
        for lev in self._levels_present:
            mask = self.level == lev
            self._level_tables[lev] = (self.z[mask], np.flatnonzero(mask).astype(np.int64))

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

    def children(self, i: int) -> np.ndarray:
        return self.child_idx[self.child_off[i] : self.child_off[i + 1]]

    def count_in_node(self, i: int) -> int:
        return int(self.span_hi[i] - self.span_lo[i])

    def witness_in_node(self, i: int) -> int:
        if self.span_hi[i] <= self.span_lo[i]:
            raise InputError(f"node {i} holds no points")
        return int(self.point_perm[self.span_lo[i]])

    def find_key(self, z: int, level: int) -> int:
        """Node index of an exactly stored cube, or -1."""
        return self._key_index.get((int(z) << 6) | int(level), -1)

    def find_keys(self, z: np.ndarray, level: np.ndarray) -> np.ndarray:
        """find_key over arrays of cubes: node index per exactly stored cube, or -1."""
        zz = np.asarray(z, dtype=np.int64)
        lv = np.asarray(level, dtype=np.int64)
        out = np.full(zz.size, -1, dtype=np.int64)
        for lev in np.unique(lv):
            if int(lev) not in self._level_tables:
                continue
            table_z, table_idx = self._level_tables[int(lev)]
            sel = np.flatnonzero(lv == lev)
            pos = np.minimum(np.searchsorted(table_z, zz[sel]), table_z.size - 1)
            hit = table_z[pos] == zz[sel]
            out[sel[hit]] = table_idx[pos[hit]]
        return out

    def deepest_stored_ancestor(self, z: int, level: int, proper: bool = False) -> int:
        """Deepest stored cube containing (z, level); the root always matches."""
        M, d = self.max_level, self.dim
        for lev in self._levels_present:
            if lev > level or (proper and lev == level):
                continue
            s = d * (M - lev)
            key = ((z >> s) << s << 6) | lev
            hit = self._key_index.get(key, -1)
            if hit >= 0:
                return hit
        raise InternalInvariantError("root missing from level tables")

    def cell_query(self, cube: CanonicalCube) -> tuple[str, int, int | None]:
        """('node', i, None) exact hit; ('edge', u, v) bracketed by a compressed
        edge; ('outside', u, None) inside u's region, beyond any refinement."""
        z, level = cube_to_key(cube)
        exact = self.find_key(z, level)
        if exact >= 0:
            return "node", exact, None
        u = self.deepest_stored_ancestor(z, level, proper=True)
        hi = range_hi_inclusive(np.int64(z), self.dim * (self.max_level - level))
        kids = self.children(u)
        if kids.size:
            zk = self.z[kids]
            j = int(np.searchsorted(zk, z, side="left"))
            if j < kids.size and zk[j] <= hi:
                return "edge", u, int(kids[j])
        return "outside", u, None

    def point_location(self, p: Sequence[float]) -> int:
        """Node index of the smallest stored cube containing p; p in [0,1)^d."""
        if any(not (0.0 <= x < 1.0) for x in p):
            raise InputError(f"point {tuple(p)} outside [0,1)^d")
        code = encode_points(np.asarray(p, dtype=np.float64).reshape(1, -1), self.dim)
        return self.deepest_stored_ancestor(int(code[0]), self.max_level)

    def locate_cells(self, z: np.ndarray, level: int) -> np.ndarray:
        """Deepest stored ancestor-or-self, vectorized over cubes of one level."""
        zz = np.asarray(z, dtype=np.int64)
        out = np.full(zz.size, -1, dtype=np.int64)
        M, d = self.max_level, self.dim
        for lev in self._levels_present:
            if lev > level:
                continue
            todo = out < 0
            if not todo.any():
                break
            s = np.int64(d * (M - lev))
            prefix = (zz[todo] >> s) << s
            table_z, table_idx = self._level_tables[lev]
            pos = np.searchsorted(table_z, prefix)
            pos_ok = pos < table_z.size
            hit = np.zeros(prefix.size, dtype=bool)
            hit[pos_ok] = table_z[pos[pos_ok]] == prefix[pos_ok]
            idx = np.flatnonzero(todo)[hit]
            out[idx] = table_idx[pos[hit]]
        if (out < 0).any():
            raise InternalInvariantError("cell located outside the root")
        return out

    def count_points_in_cubes(self, z: np.ndarray, level: int) -> np.ndarray:
        """Exact stored-point count per queried cube (any canonical cube)."""
        if not self.has_points:
            raise InputError("tree holds no points")
        zz = np.asarray(z, dtype=np.int64)
        shift = self.dim * (self.max_level - level)
        hi = range_hi_inclusive(zz, shift)
        lo_i = np.searchsorted(self.point_codes, zz, side="left")
        hi_i = np.searchsorted(self.point_codes, hi, side="right")
        return hi_i - lo_i

    def point_ids_in_cube(self, z: int, level: int) -> np.ndarray:
        if not self.has_points:
            raise InputError("tree holds no points")
        shift = self.dim * (self.max_level - level)
        hi = range_hi_inclusive(np.int64(z), shift)
        lo_i = int(np.searchsorted(self.point_codes, np.int64(z), side="left"))
        hi_i = int(np.searchsorted(self.point_codes, hi, side="right"))
        return self.point_perm[lo_i:hi_i]

    def keys(self) -> set[tuple[int, int]]:
        return {(int(z), int(l)) for z, l in zip(self.z, self.level)}


def encode_points(points: np.ndarray, dim: int) -> np.ndarray:
    """Full-depth keys of the level-M cells containing each point."""
    M = max_level_for_dim(dim)
    top = np.int64(1) << np.int64(M)
    ints = np.floor(points * float(top)).astype(np.int64)
    ints = np.clip(ints, 0, int(top) - 1)
    return morton_encode(ints, M, dim)


def _lca_closure(z: np.ndarray, level: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Close a deduped (z asc, level asc) key list under pairwise LCAs.

    For keys in z order, the LCA set of consecutive pairs already generates
    all pairwise LCAs, so one pass suffices.
    """
    M = max_level_for_dim(dim)
    if z.size <= 1:
        return z, level
    za, zb = z[:-1], z[1:]
    la, lb = level[:-1], level[1:]
    xor = za ^ zb
    common = np.int64(dim * M) - _bit_length_i64(xor)
    lca_level = np.minimum(np.minimum(la, lb), common // np.int64(dim))
    s = (np.int64(M) - lca_level) * np.int64(dim)
    lca_z = (za >> s) << s
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


def overlay(t1: CompressedQuadtree, t2: CompressedQuadtree) -> tuple[
    CompressedQuadtree, np.ndarray, np.ndarray
]:
    """Union tree plus, per node, the smallest containing cube from each source.

    Returns (tree, back1, back2); back_i[j] is a node index in the overlay
    whose key belongs to t_i, found by one top-down sweep.
    """
    if t1.dim != t2.dim:
        raise InputError("overlay requires trees of one dimension")
    z = np.concatenate([t1.z, t2.z])
    level = np.concatenate([t1.level, t2.level])
    z, level = _dedupe_keys(z, level)
    tree = build_from_cubes((z, level, t1.dim))
    back1 = [-1] * tree.size
    back2 = [-1] * tree.size
    z_l = tree.z.tolist()
    lv_l = tree.level.tolist()
    par_l = tree.parent.tolist()
    k1 = t1._key_index
    k2 = t2._key_index
    for j in range(tree.size):
        key = (z_l[j] << 6) | lv_l[j]
        p = par_l[j]
        back1[j] = j if key in k1 else back1[p]
        back2[j] = j if key in k2 else back2[p]
    if back1[0] < 0 or back2[0] < 0:
        raise InternalInvariantError("source trees must both contain the root")
    return tree, np.array(back1, dtype=np.int64), np.array(back2, dtype=np.int64)
