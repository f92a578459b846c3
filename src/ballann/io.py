"""File formats: ball sets and query lists as text, indexes as binary.

Text formats carry original (pre-normalization) units.  Binary index files
are little-endian, open with a four-byte magic, and close with a CRC32 of
the payload so a truncated or corrupted file is rejected at load time,
before any structure is touched.

A registry file (magic BREG) stores only the inputs; the structure is
rebuilt on load, which is deterministic and cheap.  An approximate-Voronoi
file (magic BAVD) stores the cell decomposition: the cube table and each
live cell's exact k-th ball distance and witness, plus the cluster list
with each live cell's owning cluster when it holds clusters, and the
inputs, from which the index builds its fallback registry when a query
first needs it; a load builds none.  The cell columns are
`AVDIndex`'s own, one row per live cell in node order: a tiled cell (one
whose children tile it) has no row in the file or in memory, and a load
hands the columns to the index as views of the file's bytes.  The file
stores nothing the loader can derive (README, "File formats"): the tree
fixes which cells are tiled, each cell's representative and the cell
lookup that queries read; the mode fixes zeta1.  Each magic has its own format version.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Sequence, TextIO

import numpy as np

from .avd import AVDIndex, XI
from .geometry import (
    Ball,
    InputError,
    InternalInvariantError,
    NormalizedInstance,
    check_eps,
    check_k,
    max_level_for_dim,
    packing_constant,
)
from .quadtree import CompressedQuadtree
from .quorum import QuorumCluster
from .registry import Registry, build_registry

# Format version per magic; older versions are refused (README, "File formats").
_VERSION = {b"BREG": 1, b"BAVD": 5}
_MODE_CODE = {"practical": 0, "strict": 1}
_MODE_NAME = {v: k for k, v in _MODE_CODE.items()}

# The build facts a BAVD file keeps, in order; AVDIndex derives the rest of
# its stats.  Timing fields are deliberately absent: identical inputs must
# produce byte-identical files.
_STAT_FIELDS = ("I", "S", "overlay_pre_split", "splits", "uncertified")


# -- ball files --------------------------------------------------------------


def dump_balls(fh: TextIO, balls: Sequence[Ball]) -> None:
    if not balls:
        raise InputError("refusing to write an empty ball file")
    d = balls[0].dimension
    fh.write(f"{d} {len(balls)}\n")
    for b in balls:
        row = tuple(b.center) + (b.radius,)
        fh.write(" ".join("%.17g" % v for v in row) + "\n")


def write_balls(path: str, balls: Sequence[Ball]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        dump_balls(fh, balls)


def read_balls(path: str) -> list[Ball]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise InputError(f"cannot read ball file {path!r}: {exc}") from exc
    lines = [ln for ln in lines if ln]
    if not lines:
        raise InputError(f"ball file {path!r} is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError(f"ball file header must be 'd n', got {lines[0]!r}")
    try:
        d, n = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InputError(f"ball file header must be 'd n', got {lines[0]!r}") from exc
    if d < 1 or n < 1:
        raise InputError(f"ball file needs d >= 1 and n >= 1, got d={d} n={n}")
    if len(lines) - 1 != n:
        raise InputError(f"ball file promises {n} rows, found {len(lines) - 1}")
    balls = []
    for i, ln in enumerate(lines[1:]):
        toks = ln.split()
        if len(toks) != d + 1:
            raise InputError(f"ball row {i}: expected {d + 1} numbers, got {len(toks)}")
        try:
            vals = [float(t) for t in toks]
        except ValueError as exc:
            raise InputError(f"ball row {i}: {exc}") from exc
        if not all(np.isfinite(vals)):
            raise InputError(f"ball row {i}: coordinates must be finite")
        if vals[-1] < 0.0:
            raise InputError(f"ball row {i}: radius must be nonnegative")
        balls.append(Ball(tuple(vals[:-1]), vals[-1]))
    return balls


# -- query files -------------------------------------------------------------


def parse_query_line(
    line: str, dim: int, n: int, k: int | None, eps: float | None
) -> tuple[tuple[float, ...], int, float]:
    """One query row: d coordinates, then k and eps unless fixed by the caller.

    When k or eps is fixed, the column may still appear; it must then agree
    with the fixed value, since an index built for one (k, eps) cannot answer
    another.  k must lie in [1, n] for an instance of n balls.
    """
    toks = line.split()
    want_min = dim
    want_max = dim + 2
    if not (want_min <= len(toks) <= want_max):
        raise InputError(f"expected {dim} coordinates plus optional k/eps, got {len(toks)} fields")
    try:
        q = tuple(float(t) for t in toks[:dim])
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if not all(np.isfinite(q)):
        raise InputError("query coordinates must be finite")
    rest = toks[dim:]
    line_k: int | None = None
    line_eps: float | None = None
    if len(rest) >= 1:
        try:
            line_k = int(rest[0])
        except ValueError as exc:
            raise InputError(f"k must be an integer, got {rest[0]!r}") from exc
    if len(rest) == 2:
        try:
            line_eps = float(rest[1])
        except ValueError as exc:
            raise InputError(f"eps must be a float, got {rest[1]!r}") from exc
    if line_k is not None and k is not None and line_k != k:
        raise InputError(f"k={line_k} conflicts with the fixed k={k}")
    if line_eps is not None and eps is not None and line_eps != eps:
        raise InputError(f"eps={line_eps} conflicts with the fixed eps={eps}")
    out_k = line_k if line_k is not None else k
    out_eps = line_eps if line_eps is not None else eps
    if out_k is None:
        raise InputError("no k on the line and none fixed by the index or flags")
    if out_eps is None:
        raise InputError("no eps on the line and none fixed by the index or flags")
    check_k(out_k, n)
    check_eps(out_eps)
    return q, out_k, out_eps


# -- binary container --------------------------------------------------------


def _container(magic: bytes, payload: bytes) -> bytes:
    head = magic + struct.pack("<HH", _VERSION[magic], 0)
    return head + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def _open_container(path: str, blob: bytes) -> tuple[bytes, bytes]:
    if len(blob) < 12:
        raise InputError(f"index file {path!r} is too short to be valid")
    magic = blob[:4]
    version, _ = struct.unpack_from("<HH", blob, 4)
    if magic not in _VERSION:
        raise InputError(f"index file {path!r} has unknown magic {magic!r}")
    if 1 <= version < _VERSION[magic]:
        raise InputError(
            f"index file {path!r} predates format {_VERSION[magic]} and must be "
            "rebuilt from its ball file"
        )
    if version != _VERSION[magic]:
        raise InputError(f"index file {path!r} has unsupported version {version}")
    payload = blob[8:-4]
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise InputError(f"index file {path!r} failed its integrity check (truncated or corrupted)")
    return magic, payload


class _Reader:
    """Sequential little-endian decoder over one payload; arrays are
    read-only views of it where the host is little-endian."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def unpack(self, fmt: str):
        vals = struct.unpack_from("<" + fmt, self.buf, self.pos)
        self.pos += struct.calcsize("<" + fmt)
        return vals

    def array(self, dtype: str, count: int) -> np.ndarray:
        dt = np.dtype(dtype).newbyteorder("<")
        nbytes = dt.itemsize * count
        if self.pos + nbytes > len(self.buf):
            raise InputError("index payload ended early")
        out = np.frombuffer(self.buf, dtype=dt, count=count, offset=self.pos)
        self.pos += nbytes
        # A '<' dtype exports its buffer as format '<d' (or '<q'), whose
        # memoryview refuses item reads; the native spelling exports 'd'.
        native = dt.newbyteorder("=")
        return out.view(native) if dt.isnative else out.astype(native)


def _instance_block(inst: NormalizedInstance) -> bytes:
    """Normalized balls plus the exact affine transform back to original units.

    Persisting the normalized form (instead of re-deriving originals) keeps a
    save/load/save cycle byte-stable and reproduces the structure bit for bit.
    """
    out = struct.pack("<IQdd", inst.dimension, inst.radii.size, inst.epsilon_floor, inst.scale)
    out += np.asarray(inst.offset, dtype="<f8").tobytes()
    return out + np.column_stack((inst.centers, inst.radii)).astype("<f8").tobytes()


def _read_instance_block(r: _Reader) -> NormalizedInstance:
    d, n, eps, scale = r.unpack("IQdd")
    if d < 1 or n < 1:
        raise InputError("index instance block is malformed")
    offset = tuple(float(x) for x in r.array("f8", d))
    flat = r.array("f8", n * (d + 1)).reshape(n, d + 1)
    if not (np.isfinite(flat).all() and (flat[:, -1] >= 0.0).all()):
        raise InputError("index instance block is malformed: non-finite value or negative radius")
    # The registry's grids and tree cover [0, 1)^d, and query answers are
    # divided by the scale to give original units.
    if not ((flat[:, :-1] >= 0.0).all() and (flat[:, :-1] < 1.0).all()):
        raise InputError("index instance block is malformed: a center outside the unit cube")
    if not (math.isfinite(scale) and scale > 0.0 and 0.0 < eps < 1.0):
        raise InputError("index instance block is malformed: scale not positive or floor outside (0, 1)")
    return NormalizedInstance(
        centers=flat[:, :-1],
        radii=flat[:, -1],
        scale=float(scale),
        offset=offset,
        epsilon_floor=float(eps),
        dimension=int(d),
        c_d=packing_constant(int(d)),
    )


# -- registry index ----------------------------------------------------------


def save_registry(path: str, reg: Registry) -> None:
    with open(path, "wb") as fh:
        fh.write(_container(b"BREG", _instance_block(reg.instance)))


def _load_registry(payload: bytes) -> Registry:
    r = _Reader(payload)
    inst = _read_instance_block(r)
    if r.pos != len(r.buf):
        raise InputError("index payload has trailing bytes")
    return build_registry(inst)


# -- approximate-Voronoi index ------------------------------------------------


def save_avd(path: str, a: AVDIndex) -> None:
    inst = a.instance
    payload = bytearray()
    payload += struct.pack("<BxxxQdd", _MODE_CODE[a.mode], a.k, a.eps, XI)
    payload += _instance_block(inst)
    payload += struct.pack("<Q", len(a.clusters))
    for c in a.clusters:
        payload += np.asarray(c.center, dtype="<f8").tobytes()
        payload += struct.pack("<dddqqBxxxxxxxQ", c.radius, c.rho, c.gamma,
                               c.witness, c.round_index, int(c.is_remainder),
                               len(c.assigned))
        payload += np.asarray(c.assigned, dtype="<i8").tobytes()
    tree = a.tree
    payload += struct.pack("<Q", tree.size)
    payload += tree.z.astype("<i8").tobytes()
    payload += tree.level.astype("<i8").tobytes()
    payload += a.kdist.astype("<f8").tobytes()
    payload += a.kdist_witness.astype("<i8").tobytes()
    if a.clusters:
        payload += a.site.astype("<i8").tobytes()
    payload += struct.pack("<5Q", *(int(a.stats[f]) for f in _STAT_FIELDS))
    with open(path, "wb") as fh:
        fh.write(_container(b"BAVD", bytes(payload)))


def _load_avd(payload: bytes) -> AVDIndex:
    r = _Reader(payload)
    mode_code, k, eps, xi = r.unpack("BxxxQdd")
    if mode_code not in _MODE_NAME:
        raise InputError(f"unknown mode code {mode_code}")
    if xi != XI:
        raise InputError(f"index was built with xi={xi}, this build uses {XI}")
    inst = _read_instance_block(r)
    d = inst.dimension
    n = inst.radii.size
    m = r.unpack("Q")[0]
    clusters = []
    for _ in range(m):
        center = r.array("f8", d)
        radius, rho, gamma, witness, round_index, is_rem, a_len = r.unpack("dddqqBxxxxxxxQ")
        assigned = r.array("i8", a_len)
        clusters.append(QuorumCluster(center, radius, rho, gamma, assigned, witness, round_index, bool(is_rem)))
    size = r.unpack("Q")[0]
    z = r.array("i8", size)
    level = r.array("i8", size)
    _check_keys(d, z, level)
    try:
        tree = CompressedQuadtree(d, z, level)
    except InternalInvariantError as exc:
        raise InputError(f"index cell table is malformed: {exc}") from exc
    rows = size - int(np.count_nonzero(tree.tiled))
    kdist = r.array("f8", rows)
    kdist_witness = r.array("i8", rows)
    site = r.array("i8", rows) if m else np.full(rows, -1, dtype=np.int64)
    stat_vals = r.unpack("5Q")
    if r.pos != len(r.buf):
        raise InputError("index payload has trailing bytes")
    _check_ids(n, clusters, kdist_witness, site)
    mode = _MODE_NAME[mode_code]
    stats = {"n": n, "dim": d, "k": k, "eps": eps, "mode": mode, "loaded": True}
    stats.update(dict(zip(_STAT_FIELDS, (int(v) for v in stat_vals))))
    return AVDIndex(
        tree=tree,
        kdist=kdist,
        kdist_witness=kdist_witness,
        site=site,
        clusters=clusters,
        instance=inst,
        k=int(k),
        eps=float(eps),
        mode=mode,
        stats=stats,
    )


def _check_keys(d: int, z: np.ndarray, level: np.ndarray) -> None:
    """Reject cubes that are not canonical (level at most max_level_for_dim(d),
    key inside the unit cube and aligned to the level) or not in strictly
    increasing (key, level) order, before a tree is built from them: a file
    can pass its CRC and still be wrong.  The tree build checks closure
    under least common ancestors."""
    top = max_level_for_dim(d)
    if level.size and not (0 <= level.min() and level.max() <= top):
        raise InputError(f"index cell table is malformed: levels must lie in [0, {top}]")
    shift = (top - level) * d
    if z.size and (z.min() < 0 or int(z.max()) >> (d * top) or np.any((z >> shift) << shift != z)):
        raise InputError("index cell table is malformed: keys are not canonical cubes")
    if np.any((z[1:] < z[:-1]) | ((z[1:] == z[:-1]) & (level[1:] <= level[:-1]))):
        raise InputError("index cell table is malformed: not in strictly increasing (key, level) order")


def _check_ids(n: int, clusters: list[QuorumCluster], witness: np.ndarray, site: np.ndarray) -> None:
    """Reject ball ids outside [0, n), in the clusters and in the live
    cells' witnesses, and a live cell's site that names no cluster (all
    -1 when there are no clusters)."""
    for c in clusters:
        if not 0 <= c.witness < n or (c.assigned.size and not (0 <= c.assigned.min() and c.assigned.max() < n)):
            raise InputError(f"index cluster holds a ball id outside [0, {n})")
    if witness.size and not (0 <= witness.min() and witness.max() < n):
        raise InputError(f"index cell witness outside [0, {n})")
    if clusters and site.size and not (0 <= site.min() and site.max() < len(clusters)):
        raise InputError(f"index cell site outside [0, {len(clusters)})")


def save_index(path: str, obj) -> None:
    if isinstance(obj, AVDIndex):
        save_avd(path, obj)
    elif isinstance(obj, Registry):
        save_registry(path, obj)
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")


def load_index(path: str):
    """Read either index kind; the magic decides.  Raises InputError on damage."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read index file {path!r}: {exc}") from exc
    magic, payload = _open_container(path, blob)
    try:
        if magic == b"BREG":
            return _load_registry(payload)
        return _load_avd(payload)
    except struct.error as exc:
        raise InputError(f"index file {path!r} is malformed: {exc}") from exc
