"""Print a SHA-256 digest of everything the benchmark's builds produce.

For each benchmark workload and seed, digests the normalized balls, every
registry array (the centers tree's keys, levels, parent links, child CSR,
point order, node boxes and node tables), the answers of the registry's
two retrieval walks, `large_balls_intersecting` and
`balls_containing_point`, on seeded points (walk_digest), and the answers
to its first 2,000 queries;
for the cell index, also its tree (keys, levels and parent links), its
stored estimates and its witnesses, each apart, and the rest of its
arrays, once as built and once after a save_index/load_index round trip,
with the saved file's byte count.  A last
line does the same for the strict cell index of acceptance criterion 6
(d=1, n=8, k=7, eps=0.5), its clusters included, on 2,000 uniform queries.
After each cell-index line, an out-of-domain line digests the cell
index's answers to 500 seeded points in [-1, 2]^d outside the unit cube.
Answer ids and answer distances are digested apart, so that a distance
that moves in its last bit does not hide ids that stay.  A representative
is digested on live cells only: an empty cell's row is never read.  Run it
on two checkouts and diff the output: a change that keeps the structures
bit for bit prints the same lines, up to the byte counts when the file
format changes.

    python3 scripts/build_fingerprint.py [REPO_ROOT] [--seeds 1 2 3] [--dump DIR]
    python3 scripts/build_fingerprint.py --compare DIR_A DIR_B

REPO_ROOT defaults to the checkout holding this script; its `src/` and
`perfbench/` are imported.  --dump also writes each line's answers and
cells to DIR, one .npz per digest, and for a registry workload each
query's eps and exact k-th distance d_k (`oracle.exact_kth_distance`).
--compare reads two such dumps and lists every answer id and every
distance that differs, with the distance's shift in ulps; on a cell
index whose tree stayed, it lists every cell whose estimate or witness
moved, and otherwise reports the cell counts W of both; on a registry
workload, whose answers may move to any ball inside the window, it counts
the moved answers instead and lists only those that fail the checks of
the second dump: the distance in [(1 - eps) d_k, (1 + eps) d_k] and the
interval around d_k, each up to a relative 1e-9.  Out-of-domain answers
are checked the same way, and every moved one is listed.  Walk answers
are exact sets, so every call whose answer differs is listed.  The exit
status is 1 when an in-domain cell-index answer, tree, estimate or
witness moved, a walk answer differs, or a moved registry or
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


def registry_arrays(reg) -> list:
    c = reg.centers_tree
    out = [c.z, c.level, c.parent, c.child_off, c.child_idx, c.point_perm, c.span_lo, c.span_hi]
    out += [reg._center_low, reg._node_lo, reg._node_hi, reg._node_rmin, reg._node_rmax, reg._node_first]
    return out + [reg.centers, reg.radii]


# Grid step of the walks' radii and floors, as in tests/test_registry.py.
UNIT = 2.0**-7


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
    arrays = {}
    for name, answers in (("large", large), ("inside", inside)):
        arrays[name] = np.concatenate(answers).astype(np.int64)
        arrays[name + "_off"] = np.cumsum([0] + [a.size for a in answers]).astype(np.int64)
    if dump:
        np.savez(os.path.join(dump, label + "-walks.npz"), **arrays)
    return digest(arrays.values())


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


def cell_digest(index, points, dump: str | None, label: str) -> str:
    import numpy as np

    from ballann import avd

    t = index.tree
    live = (index.flags & 1) == 0
    arrays = [index.rep[live], index.site, index.flags]
    for c in index.clusters:
        scalars = [c.radius, c.rho, c.gamma, c.witness, c.round_index, c.is_remainder]
        arrays += [np.asarray(c.center), np.asarray(c.assigned), np.array(scalars, dtype=np.float64)]
    if dump:
        np.savez(
            os.path.join(dump, label + "-cells.npz"),
            z=t.z, level=t.level, kdist=index.kdist, witness=index.kdist_witness,
        )
    answers = [avd.avd_query(index, tuple(q)) for q in points[:2000].tolist()]
    return (
        f"tree {digest([t.z, t.level, t.parent])} cells {digest(arrays)} "
        f"kdist {digest([index.kdist])} witness {digest([index.kdist_witness])} "
        f"answers {answer_digest(answers, dump, label)}"
    )


def ood_line(index, seed: int, dump: str | None, label: str) -> str:
    """Digests of the cell index's answers to 500 points outside the unit
    cube, drawn from [-1, 2]^d with the given seed, and, when dumping, each
    point's exact d_k for --compare."""
    import numpy as np

    from ballann import avd, oracle

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 2.0, (2000, index.registry.dim))
    pts = pts[((pts < 0.0) | (pts >= 1.0)).any(axis=1)][:500].tolist()
    answers = [avd.avd_query(index, tuple(q)) for q in pts]
    extra = {}
    if dump:
        truth = [oracle.exact_kth_distance(index.registry.instance, q, index.k).value for q in pts]
        extra = {"truth": np.array(truth), "eps": np.full(len(pts), index.eps)}
    return f" out-of-domain: answers {answer_digest(answers, dump, label + '-ood', **extra)}"


def round_trip(index) -> tuple:
    """The index after save_index/load_index, and the saved byte count."""
    from ballann import io

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cell.idx")
        io.save_index(path, index)
        return io.load_index(path), os.path.getsize(path)


def cell_line(index, points, dump: str | None, label: str) -> str:
    loaded, size = round_trip(index)
    return (
        f" {cell_digest(index, points, dump, label)}"
        f" loaded {cell_digest(loaded, points, dump, label + '-loaded')} bytes {size}"
    )


def compare(dir_a: str, dir_b: str) -> int:
    """Print every answer id and distance that differs between two dumps;
    the exit status is 1 when any does."""
    import numpy as np

    moved = 0
    for name in sorted(os.listdir(dir_a)):
        a, b = np.load(os.path.join(dir_a, name)), np.load(os.path.join(dir_b, name))
        label = name[: -len(".npz")]
        if "large" in a.files:
            moved += walk_moves(label, a, b)
            continue
        if "truth" in b.files:
            moved += check_moved(label, a, b, list_moved=label.endswith("-ood"))
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
    """Print every walk call whose answer differs between dumps a and b,
    and a summary line; return the number of such calls."""
    import numpy as np

    moved = 0
    for name in ("large", "inside"):
        off_a, off_b = a[name + "_off"], b[name + "_off"]
        calls = off_a.size - 1
        for i in range(calls):
            got_a = a[name][off_a[i] : off_a[i + 1]]
            got_b = b[name][off_b[i] : off_b[i + 1]]
            if not np.array_equal(got_a, got_b):
                print(f"{label} {name} call {i}: {got_a.tolist()} -> {got_b.tolist()}")
                moved += 1
        print(f"{label} {name}: {calls} calls, {off_a[-1]} ids")
    print(f"{label}: {moved} walk answers differ")
    return moved


def cell_moves(label: str, a, b) -> int:
    """Print every cell whose estimate or witness differs between dumps a
    and b of one cell index, or the cell counts when the tree itself moved,
    and a summary line; return the number of moved cells (1 for a moved
    tree)."""
    import numpy as np

    z, level = a["z"], a["level"]
    if not (np.array_equal(z, b["z"]) and np.array_equal(level, b["level"])):
        print(f"{label}: the tree moved, W {z.size} -> {b['z'].size}")
        return 1
    ka, kb, wa, wb = a["kdist"], b["kdist"], a["witness"], b["witness"]
    ulps = kb.view(np.int64) - ka.view(np.int64)
    moved = np.flatnonzero((ulps != 0) | (wa != wb))
    for i in moved.tolist():
        print(
            f"{label} cell {i} (z {z[i]}, level {level[i]}): kdist {ka[i]!r} -> {kb[i]!r} "
            f"({int(ulps[i]):+d} ulp), witness {wa[i]} -> {wb[i]}"
        )
    print(
        f"{label}: {z.size} cells, same tree, {np.count_nonzero(ulps)} estimates "
        f"and {np.count_nonzero(wa != wb)} witnesses moved"
    )
    return moved.size


def check_moved(label: str, a, b, list_moved: bool = False) -> int:
    """Count the answers that differ between dumps a and b, check each moved
    one of b against its exact d_k, print the failures (every moved answer
    with list_moved) and a summary line, and return the number of
    failures."""
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
    return len(failed)


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
    import numpy as np
    import workloads
    from ballann import avd, datasets, geometry, knn, oracle, registry

    for name, w in workloads.WORKLOADS.items():
        for seed in args.seeds:
            centers, radii, points, ks, epss = workloads.make_inputs(w, seed)
            balls = [geometry.Ball(tuple(c), float(r)) for c, r in zip(centers.tolist(), radii)]
            inst = geometry.normalize(balls, w.floor)
            reg = registry.build_registry(inst)
            label = f"{name}-seed{seed}"
            line = f"{name} seed {seed}: scale {inst.scale.hex()} registry {digest(registry_arrays(reg))}"
            line += f" walks {walk_digest(reg, seed, args.dump, label)}"
            if w.cell:
                index = avd.build_avd(reg, w.cell_k, w.cell_eps)
                line += cell_line(index, points, args.dump, label)
                line += f"\n{name} seed {seed}{ood_line(index, seed, args.dump, label)}"
            else:
                rows = list(zip(points[:2000].tolist(), ks.tolist(), epss.tolist()))
                answers = [knn.query(reg, tuple(q), k, e) for q, k, e in rows]
                extra = {}
                if args.dump:
                    truth = [oracle.exact_kth_distance(inst, q, k).value for q, k, _ in rows]
                    extra = {"truth": np.array(truth), "eps": np.array([e for _, _, e in rows])}
                line += f" answers {answer_digest(answers, args.dump, label, **extra)}"
            print(line, flush=True)
    reg = registry.build_registry(geometry.normalize(datasets.generate_instance(6025, 1, 8), 0.5))
    points = np.random.default_rng(0).random((2000, 1))
    index = avd.build_avd(reg, 7, 0.5, "strict")
    print("strict c6:" + cell_line(index, points, args.dump, "strict-c6"), flush=True)
    print("strict c6" + ood_line(index, 0, args.dump, "strict-c6"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
