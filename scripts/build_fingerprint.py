"""Print a SHA-256 digest of everything the benchmark's builds produce.

For each benchmark workload and seed, digests the normalized balls, every
registry array (both trees' keys, levels, parent links and child CSR, the
centers tree's point order, the registered lists and the node boxes) and
the answers to its first 2,000 queries; for the cell index, also its arrays
(the stored estimates apart from the rest), once as built and once after a
save_index/load_index round trip, with the saved file's byte count.  A last
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
estimates to DIR, one .npz per digest; --compare reads two such dumps and
lists every answer id and every distance that differs, with the
distance's shift in ulps.
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
    return out + [reg.centers, reg.radii]


def answer_digest(answers, dump: str | None, label: str) -> str:
    """Digests of the answers' ids and of their distances and intervals,
    written to dump/label.npz as well when dump is set."""
    import numpy as np

    ids = np.array([(a.ball_id, a.out_of_domain) for a in answers], dtype=np.int64)
    dists = np.array([(a.distance, *a.certified_interval) for a in answers], dtype=np.float64)
    if dump:
        np.savez(os.path.join(dump, label + ".npz"), ids=ids[:, 0], dists=dists[:, 0])
    return f"ids {digest([ids])} dists {digest([dists])}"


def cell_digest(index, points, dump: str | None, label: str) -> str:
    import numpy as np

    from ballann import avd

    t = index.tree
    live = (index.flags & 1) == 0
    arrays = [t.z, t.level, t.parent, index.rep[live], index.kdist_witness]
    arrays += [index.site, index.flags]
    for c in index.clusters:
        scalars = [c.radius, c.rho, c.gamma, c.witness, c.round_index, c.is_remainder]
        arrays += [np.asarray(c.center), np.asarray(c.assigned), np.array(scalars, dtype=np.float64)]
    if dump:
        np.savez(os.path.join(dump, label + "-kdist.npz"), dists=index.kdist)
    answers = [avd.avd_query(index, tuple(q)) for q in points[:2000].tolist()]
    return (
        f"cells {digest(arrays)} kdist {digest([index.kdist])} "
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
    from ballann import avd, datasets, geometry, knn, registry

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
                rows = zip(points[:2000].tolist(), ks.tolist(), epss.tolist())
                answers = [knn.query(reg, tuple(q), k, e) for q, k, e in rows]
                line += f" answers {answer_digest(answers, args.dump, label)}"
            print(line, flush=True)
    reg = registry.build_registry(geometry.normalize(datasets.generate_instance(6025, 1, 8), 0.5))
    points = np.random.default_rng(0).random((2000, 1))
    print("strict c6:" + cell_line(avd.build_avd(reg, 7, 0.5, "strict"), points, args.dump, "strict-c6"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
