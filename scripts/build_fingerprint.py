"""Print a SHA-256 digest of everything the benchmark's builds produce.

For each benchmark workload and seed, digests the normalized balls, every
registry array (the centers tree's keys, levels, parent links, child CSR,
point order, node boxes and node tables, the tables in their row-major
byte order whatever layout the registry keeps; table_rows), on a line of
its own the certified exit's stored cut (its node ids and counts, and its
copied table rows; cut_line), on another the same digests of the registry that
load_index rebuilds after save_index, with the saved byte count and, on
the registry workload, its answers to the first 2,000 queries
(loaded_line), the answers of the registry's two retrieval walks,
`large_balls_intersecting` and `balls_containing_point`, on seeded points
(walk_digest), the answers to its first 2,000 queries, and the answers of
`knn.two_stage_query`, the stages behind the certified exit, to the first
1,000 of them (two_stage_line);
for the cell index, also its tree (keys, levels and parent links), its
stored estimates and its witnesses, each apart, and the rest of its
arrays, once as built and once after a save_index/load_index round trip,
with the saved file's byte count, and whether the loaded index had built
its registry after those queries and after the out-of-domain points below
(registry_built).  A line does the same for a cell index
whose sweep selects at most knn._KTH_MIN_ROWS rows per chunk (uniform
d=2, n=16,384, k=4,096, eps 0.5, from `perfbench/inputs.py` with seed 1,
on 2,000 of its cell queries), a line for a practical cell index at d=3
(uniform n=1,024, k=256, eps 0.5, seed 1, on 2,000 of its cell queries),
a line for the strict cell index of
acceptance criterion 6 (d=1, n=8, k=7, eps=0.5), its clusters included,
on 2,000 uniform queries, and a registry line at d = 5 (uniform n =
4,096, floor 0.5): its arrays, its stored cut, and the exit's answers and
declines on 300 seeded points (d5_line), and that registry's loaded_line.
After each cell-index line, an out-of-domain line digests the cell
index's answers to 500 seeded points in [-1, 2]^d outside the unit cube.
A grid-cover line per seed digests the grid cells that
`geometry.enumerate_grid_cells_ball` and `geometry.grid_approx` list for
seeded balls and boxes at d = 1..5 (grid_cover_line).
Answer ids and answer distances are digested apart, so that a distance
that moves in its last bit does not hide ids that stay.  A tiled cell (one
whose children tile its cube) has no row, so representatives, sites,
estimates and witnesses are digested on live cells only, in node order,
whether the index keeps a row per node or per live cell, and the tiling
comes from the tree.  Run it
on two checkouts and diff the output: a change that keeps the structures
bit for bit prints the same lines, up to the byte counts when the file
format changes.

    python3 scripts/build_fingerprint.py [REPO_ROOT] [--seeds 1 2 3] [--dump DIR]
    python3 scripts/build_fingerprint.py --compare DIR_A DIR_B

REPO_ROOT defaults to the checkout holding this script; its `src/` and
`perfbench/` are imported.  --dump also writes each line's answers and
cells to DIR, one .npz per digest, and with every answer list each
query's eps and exact k-th distance d_k (`oracle.exact_kth_distance`).
--compare reads two such dumps.  On a cell index whose tree stayed, it
lists every live cell (by node) whose estimate or witness moved, and
otherwise reports the cell counts W of both.  It counts the answers that moved and lists
those that fail the checks of the second dump: the distance in
[(1 - eps) d_k, (1 + eps) d_k] and the interval around d_k, each up to a
relative 1e-9; every moved out-of-domain answer is listed.  Walk answers
and grid covers are exact sets, so every call whose answer differs is
listed.  A dump without d_k gets every answer id and every distance that
differs listed, with the distance's shift in ulps.  The exit status is 1
when an in-domain cell-index answer, tree, estimate or witness moved, a
walk answer or grid cover differs, or a moved registry, two-stage or
out-of-domain answer fails.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path


def digest(arrays) -> str:
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def table_rows(reg, cut: bool = False) -> list:
    """The node tables, or the stored cut's rows of them, as the row-major
    arrays they were first kept as: low corners and high corners (N, d),
    least radius and greatest radius (N,).  A registry that keeps one
    transposed table (low corners, negated high corners, rmax and rmin, one
    row each, one column per node) has them read back from it, exactly, so
    that the digests compare across both layouts."""
    table = getattr(reg, "_cut_table" if cut else "_table", None)
    if table is None:
        prefix = "_cut_" if cut else "_node_"
        return [getattr(reg, prefix + name) for name in ("lo", "hi", "rmin", "rmax")]
    d = reg.dim
    return [table[:d].T, -table[d : 2 * d].T, table[2 * d + 1], table[2 * d]]


def registry_arrays(reg) -> list:
    c = reg.centers_tree
    out = [c.z, c.level, c.parent, c.child_off, c.child_idx, c.point_perm, c.span_lo, c.span_hi]
    out += table_rows(reg) + [reg._node_first]
    return out + [reg.centers, reg.radii]


def cut_line(reg) -> str:
    """Digests of the exit's stored cut: its node ids and counts, and its
    copied rows of the node tables (table_rows).  A checkout that predates
    the cut prints "none stored", so that its other lines still compare."""
    if not hasattr(reg, "_cut"):
        return " cut: none stored"
    rows = table_rows(reg, cut=True)
    return f" cut: {reg._cut.size} nodes, ids {digest([reg._cut, reg._cut_cnt])} rows {digest(rows)}"


# Grid step of the walks' radii and floors, as in tests/test_registry.py.
UNIT = 2.0**-7


def set_arrays(**answers) -> dict:
    """Each list of integer answer arrays as one flat concatenation and the
    offsets of its answers."""
    import numpy as np

    arrays = {}
    for name, got in answers.items():
        arrays[name] = np.concatenate([np.ravel(a) for a in got]).astype(np.int64)
        arrays[name + "_off"] = np.cumsum([0] + [np.size(a) for a in got]).astype(np.int64)
    return arrays


def walk_digest(reg, seed: int, dump: str | None, label: str) -> str:
    """Digest of the answers of large_balls_intersecting and
    balls_containing_point on 200 seeded points, half in [-0.2, 1.2]^d and
    half on ball surfaces.  Each point has one containment call and
    retrievals at four radii (0, a multiple of UNIT, one of its ball
    distances, a uniform one) by four floors (0, a random ball's diameter,
    a multiple of UNIT, the largest diameter), drawn as in the registry's
    edge test.  With dump, writes the answers to dump/label-walks.npz."""
    import numpy as np

    from ballann.geometry import ball_distances

    rng = np.random.default_rng(seed)
    large, inside = [], []
    largest = float(2.0 * reg.radii.max())
    for i in range(200):
        if i % 2:
            b = int(rng.integers(reg.n))
            q = reg.centers[b].copy()
            q[int(rng.integers(reg.dim))] += reg.radii[b] * (1.0 if rng.random() < 0.5 else -1.0)
        else:
            q = rng.uniform(-0.2, 1.2, size=reg.dim)
        inside.append(reg.balls_containing_point(q))
        d_balls = ball_distances(q, reg.centers, reg.radii)
        radii = [0.0, UNIT * int(rng.integers(1, 64)), float(rng.choice(d_balls)), float(rng.random())]
        for radius in radii:
            floors = (0.0, float(2.0 * reg.radii[int(rng.integers(reg.n))]), UNIT * int(rng.integers(1, 8)), largest)
            for min_diameter in floors:
                large.append(reg.large_balls_intersecting(q, radius, min_diameter))
    arrays = set_arrays(large=large, inside=inside)
    if dump:
        np.savez(os.path.join(dump, label + "-walks.npz"), **arrays)
    return digest(arrays.values())


def grid_cover_line(seed: int, dump: str | None) -> str:
    """Digests of geometry.enumerate_grid_cells_ball and of
    geometry.grid_approx on seeded shapes at d = 1..5: per dimension, 60
    balls at levels 0-7 (0-4 at d >= 4), a quarter each of zero radius, of
    a whole number of cells, tangent to a nearby cell (r^2 equal to the
    cell's squared gap sum where a float allows it) and uniform up to 2.5
    cells; grid_approx of the ball (radius capped at 0.3) and of a box
    with its low corner at the center, some of its widths zero and some
    one cell.  Each
    cover is digested as its sorted (level, coords) rows.  With dump,
    writes the answers to dump/grid-cover-seedS.npz."""
    import math

    import numpy as np

    from ballann import geometry

    def rows(cells) -> np.ndarray:
        return np.array(sorted((c.level, *c.coords) for c in cells), dtype=np.int64)

    rng = np.random.default_rng(seed)
    enum, approx = [], []
    for d in range(1, 6):
        for i in range(60):
            level = int(rng.integers(0, 8 if d < 4 else 5))
            side = 2.0**-level
            c = rng.uniform(-0.1, 1.1, size=d)
            if i % 4 == 0:
                r = 0.0
            elif i % 4 == 1:
                r = side * int(rng.integers(1, 3))
            elif i % 4 == 2:
                lo = (np.floor(c / side) + rng.integers(-2, 3, size=d)) * side
                gap = np.maximum(lo - c, 0.0) + np.maximum(c - (lo + side), 0.0)
                s = float(np.einsum("ij,ij->i", gap[None], gap[None])[0])
                r = math.sqrt(s)
                r = next((t for t in (r, math.nextafter(r, 0.0), math.nextafter(r, 1.0)) if t * t == s), r)
            else:
                r = float(rng.uniform(0.0, 2.5)) * side
            enum.append(geometry.enumerate_grid_cells_ball(c, r, level))
            delta = float(rng.choice([1.0, 0.5] if d >= 4 else [1.0, 0.5, 0.25]))
            center = tuple(c.tolist())
            approx.append(rows(geometry.grid_approx(geometry.Ball(center, min(r, 0.3)), delta)))
            width = rng.uniform(0.0, 0.3, size=d)
            width[rng.random(d) < 0.3] = 0.0
            width[rng.random(d) < 0.3] = side
            approx.append(rows(geometry.grid_approx((center, tuple((c + width).tolist())), delta)))
    arrays = set_arrays(enum=enum, approx=approx)
    if dump:
        np.savez(os.path.join(dump, f"grid-cover-seed{seed}.npz"), **arrays)
    return (
        f"grid-cover seed {seed}: enumerate {digest([arrays['enum'], arrays['enum_off']])}"
        f" grid_approx {digest([arrays['approx'], arrays['approx_off']])}"
    )


# Relative slack of the --compare checks, as in perfbench/check.py.
REL = 1e-9


def answer_digest(answers, dump: str | None, label: str, **extra) -> str:
    """Digests of the answers' ids and of their distances and intervals,
    written to dump/label.npz as well when dump is set, with the arrays
    of extra."""
    import numpy as np

    ids = np.array([(a.ball_id, a.out_of_domain) for a in answers], dtype=np.int64)
    dists = np.array([(a.distance, *a.certified_interval) for a in answers], dtype=np.float64)
    if dump:
        np.savez(
            os.path.join(dump, label + ".npz"),
            ids=ids[:, 0], dists=dists[:, 0], lo=dists[:, 1], hi=dists[:, 2], **extra,
        )
    return f"ids {digest([ids])} dists {digest([dists])}"


def oracle_arrays(inst, rows) -> dict:
    """Each row's exact d_k (`oracle.exact_kth_distance`) and eps, for
    --compare; rows are (point, k, eps)."""
    import numpy as np

    from ballann import oracle

    return {
        "truth": np.array([oracle.exact_kth_distance(inst, q, k).value for q, k, _ in rows]),
        "eps": np.array([e for _, _, e in rows], dtype=np.float64),
    }


def cell_digest(index, points, dump: str | None, label: str) -> str:
    import numpy as np

    from ballann import avd

    t = index.tree
    live = ~t.tiled

    def rows(col):
        """The column's rows of the live cells, from either layout."""
        return col[live] if col.shape[0] == t.size else col

    kdist, witness = rows(index.kdist), rows(index.kdist_witness)
    arrays = [index.rep[live], rows(index.site), t.tiled.view(np.uint8)]
    for c in index.clusters:
        scalars = [c.radius, c.rho, c.gamma, c.witness, c.round_index, c.is_remainder]
        arrays += [np.asarray(c.center), np.asarray(c.assigned), np.array(scalars, dtype=np.float64)]
    if dump:
        np.savez(
            os.path.join(dump, label + "-cells.npz"),
            z=t.z, level=t.level, node=np.flatnonzero(live), kdist=kdist, witness=witness,
        )
    pts = points[:2000].tolist()
    answers = [avd.avd_query(index, tuple(q)) for q in pts]
    extra = oracle_arrays(index.instance, [(q, index.k, index.eps) for q in pts]) if dump else {}
    return (
        f"tree {digest([t.z, t.level, t.parent])} cells {digest(arrays)} "
        f"kdist {digest([kdist])} witness {digest([witness])} "
        f"answers {answer_digest(answers, dump, label, **extra)}"
    )


def ood_points(dim: int, seed: int) -> list:
    """500 points outside the unit cube, drawn from [-1, 2]^d with the
    given seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 2.0, (2000, dim))
    return pts[((pts < 0.0) | (pts >= 1.0)).any(axis=1)][:500].tolist()


def ood_line(index, seed: int, dump: str | None, label: str) -> str:
    """Digests of the cell index's answers to the ood_points of the seed,
    and, when dumping, each point's exact d_k for --compare."""
    from ballann import avd

    pts = ood_points(index.dim, seed)
    answers = [avd.avd_query(index, tuple(q)) for q in pts]
    extra = oracle_arrays(index.instance, [(q, index.k, index.eps) for q in pts]) if dump else {}
    return f" out-of-domain: answers {answer_digest(answers, dump, label + '-ood', **extra)}"


def two_stage_line(reg, rows, dump: str | None, label: str) -> str:
    """Digests of knn.two_stage_query's answers to the first 1,000 rows
    (point, k, eps), and, when dumping, each row's exact d_k for
    --compare."""
    from ballann import knn

    rows = rows[:1000]
    answers = [knn.two_stage_query(reg, tuple(q), k, e) for q, k, e in rows]
    extra = oracle_arrays(reg.instance, rows) if dump else {}
    return f" two-stage: answers {answer_digest(answers, dump, label + '-two-stage', **extra)}"


def d5_line(dump: str | None) -> str:
    """The registry over uniform d=5, n=4,096 balls (`inputs.uniform_balls`,
    seed 1, floor 0.5): digests of its arrays and its stored cut, and of
    `certified_kth_ball`'s answers to 300 points uniform in [0, 1)^5, k
    and eps cycled as `inputs.registry_queries` cycles them (which draws
    points for d <= 3 only), with the count of declines, and of
    `knn.query`'s answers to the same rows; and on a second line
    loaded_line of the registry."""
    import math

    import inputs
    import numpy as np

    from ballann import geometry, knn, registry

    d, n = 5, 4096
    centers, radii = inputs.uniform_balls(1, d, n)
    balls = [geometry.Ball(tuple(c), float(r)) for c, r in zip(centers.tolist(), radii)]
    reg = registry.build_registry(geometry.normalize(balls, 0.5))
    points = np.random.default_rng([1, d, n, 3]).random((300, d)).tolist()
    k_cycle, eps_cycle = [1, 4, math.isqrt(n), n // 16, n // 4], [0.1, 0.25, 0.5]
    rows = [(q, k_cycle[i % 5], eps_cycle[i % 3]) for i, q in enumerate(points)]
    exits = np.array([reg.certified_kth_ball(q, k, e) for q, k, e in rows], dtype=np.int64)
    answers = [knn.query(reg, tuple(q), k, e) for q, k, e in rows]
    extra = oracle_arrays(reg.instance, rows) if dump else {}
    return (
        f"uniform d5 n4096: registry {digest(registry_arrays(reg))}{cut_line(reg)}"
        f" exit {digest([exits])} declines {np.count_nonzero(exits < 0)} of {exits.size}"
        f" answers {answer_digest(answers, dump, 'uniform-d5-n4096', **extra)}\n"
        f"uniform d5 n4096{loaded_line(reg, [], dump, 'uniform-d5-n4096')}"
    )


def round_trip(index) -> tuple:
    """The index (a registry or a cell index) after save_index/load_index,
    and the saved byte count."""
    from ballann import io

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.bin")
        io.save_index(path, index)
        return io.load_index(path), os.path.getsize(path)


def loaded_line(reg, rows, dump: str | None, label: str) -> str:
    """Digests of the registry that load_index rebuilds after save_index:
    its arrays and its stored cut, as registry_arrays and cut_line take
    them, and the saved byte count; with rows (point, k, eps), also of its
    answers to them, dumped as label-loaded so that --compare checks them."""
    from ballann import knn

    loaded, size = round_trip(reg)
    line = f" loaded: registry {digest(registry_arrays(loaded))}{cut_line(loaded)}"
    if rows:
        answers = [knn.query(loaded, tuple(q), k, e) for q, k, e in rows]
        extra = oracle_arrays(loaded.instance, rows) if dump else {}
        line += f" answers {answer_digest(answers, dump, label + '-loaded', **extra)}"
    return line + f" bytes {size}"


def registry_built(index) -> str:
    """Whether a cell index holds a registry, which `AVDIndex.registry`
    builds on first access and keeps."""
    return "no" if index._registry is None else "yes"


def cell_line(index, points, ood_seed: int, dump: str | None, label: str) -> str:
    """cell_digest of the index as built and after a round trip, the saved
    byte count, and whether the loaded index had built its registry after
    its cell queries and after answering the ood_points of ood_seed."""
    from ballann import avd

    loaded, size = round_trip(index)
    line = (
        f" {cell_digest(index, points, dump, label)}"
        f" loaded {cell_digest(loaded, points, dump, label + '-loaded')} bytes {size}"
    )
    after_cells = registry_built(loaded)
    for q in ood_points(loaded.dim, ood_seed):
        avd.avd_query(loaded, tuple(q))
    return line + f" registry built: after cells {after_cells}, after out-of-domain {registry_built(loaded)}"


def compare(dir_a: str, dir_b: str) -> int:
    """Print every answer id and distance that differs between two dumps;
    the exit status is 1 when any does."""
    import numpy as np

    moved = 0
    for name in sorted(os.listdir(dir_a)):
        a, b = np.load(os.path.join(dir_a, name)), np.load(os.path.join(dir_b, name))
        label = name[: -len(".npz")]
        if any(f.endswith("_off") for f in a.files):
            moved += walk_moves(label, a, b)
            continue
        if "truth" in b.files:
            n_moved, n_failed = check_moved(label, a, b, list_moved=label.endswith("-ood"))
            # A cell index keeps its in-domain answers bit for bit, so any move counts.
            cell = os.path.exists(os.path.join(dir_a, label + "-cells.npz"))
            moved += n_moved if cell else n_failed
            continue
        if "witness" in a.files:
            moved += cell_moves(label, a, b)
            continue
        if "ids" in a.files:
            for i in np.flatnonzero(a["ids"] != b["ids"]).tolist():
                print(f"{label} answer {i}: id {a['ids'][i]} -> {b['ids'][i]}")
                moved += 1
        da, db = a["dists"], b["dists"]
        if da.shape != db.shape:
            print(f"{label}: {da.size} distances -> {db.size}")
            moved += 1
            continue
        # Nonnegative doubles order as their bit patterns, so the difference
        # of the patterns counts the ulps between them.
        ulps = db.view(np.int64) - da.view(np.int64)
        for i in np.flatnonzero(ulps).tolist():
            print(f"{label} {i}: {da[i]!r} -> {db[i]!r} ({int(ulps[i]):+d} ulp)")
            moved += 1
        print(f"{label}: {da.size} distances, {np.count_nonzero(ulps)} moved, at most {int(np.abs(ulps).max(initial=0))} ulp")
    return 1 if moved else 0


def walk_moves(label: str, a, b) -> int:
    """Print every walk or grid-cover call whose answer differs between
    dumps a and b, and a summary line; return the number of such calls."""
    import numpy as np

    moved = 0
    for name in [f[: -len("_off")] for f in a.files if f.endswith("_off")]:
        off_a, off_b = a[name + "_off"], b[name + "_off"]
        calls = off_a.size - 1
        for i in range(calls):
            got_a = a[name][off_a[i] : off_a[i + 1]]
            got_b = b[name][off_b[i] : off_b[i + 1]]
            if not np.array_equal(got_a, got_b):
                print(f"{label} {name} call {i}: {got_a.tolist()} -> {got_b.tolist()}")
                moved += 1
        print(f"{label} {name}: {calls} calls, {off_a[-1]} values")
    print(f"{label}: {moved} answers differ")
    return moved


def cell_moves(label: str, a, b) -> int:
    """Print every live cell whose estimate or witness differs between
    dumps a and b of one cell index, or the cell counts when the tree
    itself moved, and a summary line; return the number of moved cells (1
    for a moved tree)."""
    import numpy as np

    z, level = a["z"], a["level"]
    if not (np.array_equal(z, b["z"]) and np.array_equal(level, b["level"])):
        print(f"{label}: the tree moved, W {z.size} -> {b['z'].size}")
        return 1
    node, ka, kb, wa, wb = a["node"], a["kdist"], b["kdist"], a["witness"], b["witness"]
    ulps = kb.view(np.int64) - ka.view(np.int64)
    moved = np.flatnonzero((ulps != 0) | (wa != wb))
    for i in moved.tolist():
        v = node[i]
        print(
            f"{label} cell {v} (z {z[v]}, level {level[v]}): kdist {ka[i]!r} -> {kb[i]!r} "
            f"({int(ulps[i]):+d} ulp), witness {wa[i]} -> {wb[i]}"
        )
    print(
        f"{label}: {z.size} cells, {node.size} live, same tree, {np.count_nonzero(ulps)} estimates "
        f"and {np.count_nonzero(wa != wb)} witnesses moved"
    )
    return moved.size


def check_moved(label: str, a, b, list_moved: bool = False) -> tuple[int, int]:
    """Count the answers that differ between dumps a and b, check each moved
    one of b against its exact d_k, print the failures (every moved answer
    with list_moved) and a summary line, and return the numbers of moved
    answers and of failures."""
    import numpy as np

    dist, truth, eps = b["dists"], b["truth"], b["eps"]
    moved = np.flatnonzero((a["ids"] != b["ids"]) | (a["dists"].view(np.int64) != dist.view(np.int64)))
    outside = (dist < (1.0 - eps) * truth * (1.0 - REL)) | (dist > (1.0 + eps) * truth * (1.0 + REL))
    unbracketed = (b["lo"] > truth * (1.0 + REL)) | (b["hi"] < truth * (1.0 - REL))
    failed = [i for i in moved.tolist() if outside[i] or unbracketed[i]]
    for i in moved.tolist() if list_moved else failed:
        print(
            f"{label} answer {i}: id {a['ids'][i]} -> {b['ids'][i]}, distance {dist[i]!r}, "
            f"interval ({b['lo'][i]!r}, {b['hi'][i]!r}), d_k {truth[i]!r}, eps {eps[i]}"
            + (" FAILS" if outside[i] or unbracketed[i] else "")
        )
    print(
        f"{label}: {dist.size} answers, {moved.size} moved, {len(failed)} of them "
        "outside the oracle window or with an interval that misses d_k"
    )
    return int(moved.size), len(failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--dump", default=None, help="directory for the answers of every line, as .npz")
    ap.add_argument("--compare", nargs=2, default=None, metavar=("DIR_A", "DIR_B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    sys.path[:0] = [str(Path(args.root) / "src"), str(Path(args.root) / "perfbench")]
    import inputs
    import numpy as np
    import workloads
    from ballann import avd, datasets, geometry, knn, registry

    for name, w in workloads.WORKLOADS.items():
        for seed in args.seeds:
            centers, radii, points, ks, epss = workloads.make_inputs(w, seed)
            balls = [geometry.Ball(tuple(c), float(r)) for c, r in zip(centers.tolist(), radii)]
            inst = geometry.normalize(balls, w.floor)
            reg = registry.build_registry(inst)
            label = f"{name}-seed{seed}"
            line = f"{name} seed {seed}: scale {inst.scale.hex()} registry {digest(registry_arrays(reg))}"
            line += f" walks {walk_digest(reg, seed, args.dump, label)}"
            rows = list(zip(points.tolist(), ks.tolist(), epss.tolist()))
            if w.cell:
                index = avd.build_avd(reg, w.cell_k, w.cell_eps)
                line += cell_line(index, points, seed, args.dump, label)
                line += f"\n{name} seed {seed}{ood_line(index, seed, args.dump, label)}"
            else:
                answers = [knn.query(reg, tuple(q), k, e) for q, k, e in rows[:2000]]
                extra = oracle_arrays(inst, rows[:2000]) if args.dump else {}
                line += f" answers {answer_digest(answers, args.dump, label, **extra)}"
            print(line, flush=True)
            print(f"{name} seed {seed}{cut_line(reg)}", flush=True)
            asked = [] if w.cell else rows[:2000]
            print(f"{name} seed {seed}{loaded_line(reg, asked, args.dump, label)}", flush=True)
            print(f"{name} seed {seed}{two_stage_line(reg, rows, args.dump, label)}", flush=True)
    # A cell index whose sweep takes a selection chunk of at most
    # knn._KTH_MIN_ROWS rows: n is at least knn._KTH_CHUNK_PAIRS.
    centers, radii = inputs.uniform_balls(1, 2, 16384)
    balls = [geometry.Ball(tuple(c), float(r)) for c, r in zip(centers.tolist(), radii)]
    index = avd.build_avd(registry.build_registry(geometry.normalize(balls, 0.5)), 4096, 0.5)
    points = inputs.cell_queries(1, 2, 16384, 2000)
    print("uniform n16384 k4096:" + cell_line(index, points, 1, args.dump, "uniform-n16384"), flush=True)
    print("uniform n16384 k4096" + ood_line(index, 1, args.dump, "uniform-n16384"), flush=True)
    # A cell index at d = 3, which no benchmark workload builds.
    centers, radii = inputs.uniform_balls(1, 3, 1024)
    balls = [geometry.Ball(tuple(c), float(r)) for c, r in zip(centers.tolist(), radii)]
    index = avd.build_avd(registry.build_registry(geometry.normalize(balls, 0.5)), 256, 0.5)
    points = inputs.cell_queries(1, 3, 1024, 2000)
    print("uniform d3 n1024 k256:" + cell_line(index, points, 1, args.dump, "uniform-d3-n1024"), flush=True)
    print("uniform d3 n1024 k256" + ood_line(index, 1, args.dump, "uniform-d3-n1024"), flush=True)
    reg = registry.build_registry(geometry.normalize(datasets.generate_instance(6025, 1, 8), 0.5))
    points = np.random.default_rng(0).random((2000, 1))
    index = avd.build_avd(reg, 7, 0.5, "strict")
    print("strict c6:" + cell_line(index, points, 0, args.dump, "strict-c6"), flush=True)
    print("strict c6" + ood_line(index, 0, args.dump, "strict-c6"), flush=True)
    print(d5_line(args.dump), flush=True)
    for seed in args.seeds:
        print(grid_cover_line(seed, args.dump), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
