"""Print a SHA-256 digest of everything the benchmark's builds produce.

For each benchmark workload and seed, digests the normalized balls, every
registry array (both trees' keys, levels, parent links and child CSR, the
centers tree's point order, the registered lists, the node boxes and the
centers tree's node tables) and the answers to its first 2,000 queries;
for the cell index, also its tree (keys, levels and parent links), its
stored estimates and its witnesses, each apart, and the rest of its
arrays, once as built and once after a save_index/load_index round trip,
with the saved file's byte count.  A last
line does the same for the strict cell index of acceptance criterion 6
(d=1, n=8, k=7, eps=0.5), its clusters included, on 2,000 uniform queries.
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
interval around d_k, each up to a relative 1e-9.  The exit status is 1
when a cell-index answer, tree, estimate or witness moved or a moved
registry answer fails.
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
    out = []
    for t in (reg.ball_tree, reg.centers_tree):
        out += [t.z, t.level, t.parent, t.child_off, t.child_idx]
    c = reg.centers_tree
    out += [c.point_perm, c.span_lo, c.span_hi]
    out += [reg.reg_level, reg._reg_sorted_ids, reg._reg_off, reg._ball_low, reg._center_low]
    out += [reg._node_lo, reg._node_hi, reg._node_rmin, reg._node_rmax, reg._node_first]
    return out + [reg.centers, reg.radii]


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
        if "truth" in b.files:
            moved += check_moved(label, a, b)
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


def check_moved(label: str, a, b) -> int:
    """Count the registry answers that differ between dumps a and b, check
    each moved one of b against its exact d_k, print the failures and a
    summary line, and return the number of failures."""
    import numpy as np

    dist, truth, eps = b["dists"], b["truth"], b["eps"]
    moved = np.flatnonzero((a["ids"] != b["ids"]) | (a["dists"].view(np.int64) != dist.view(np.int64)))
    outside = (dist < (1.0 - eps) * truth * (1.0 - REL)) | (dist > (1.0 + eps) * truth * (1.0 + REL))
    unbracketed = (b["lo"] > truth * (1.0 + REL)) | (b["hi"] < truth * (1.0 - REL))
    failed = [i for i in moved.tolist() if outside[i] or unbracketed[i]]
    for i in failed:
        print(
            f"{label} answer {i}: id {a['ids'][i]} -> {b['ids'][i]}, distance {dist[i]!r}, "
            f"interval ({b['lo'][i]!r}, {b['hi'][i]!r}), d_k {truth[i]!r}, eps {eps[i]}"
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
            if w.cell:
                line += cell_line(avd.build_avd(reg, w.cell_k, w.cell_eps), points, args.dump, label)
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
    print("strict c6:" + cell_line(avd.build_avd(reg, 7, 0.5, "strict"), points, args.dump, "strict-c6"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
