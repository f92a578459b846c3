"""Print a SHA-256 digest of everything the benchmark's builds produce.

For each benchmark workload and seed, digests the normalized balls, every
registry array (both trees' keys, levels, parent links and child CSR, the
centers tree's point order, the registered lists and the node boxes) and,
for the cell index, its arrays and the reprs of its first 2,000 answers,
once as built and once after a save_index/load_index round trip, with the
saved file's byte count.  A last line does the same for the strict cell
index of acceptance criterion 6 (d=1, n=8, k=7, eps=0.5), its clusters
included, on 2,000 uniform queries.  A representative is digested on live
cells only: an empty cell's row is never read.  Run it on two checkouts
and diff the output: a change that keeps the structures bit for bit prints
the same lines, up to the byte counts when the file format changes.

    python3 scripts/build_fingerprint.py [REPO_ROOT] [--seeds 1 2 3]

REPO_ROOT defaults to the checkout holding this script; its `src/` and
`perfbench/` are imported.
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


def cell_digest(index, points) -> str:
    import numpy as np

    from ballann import avd

    t = index.tree
    live = (index.flags & 1) == 0
    arrays = [t.z, t.level, t.parent, index.rep[live], index.kdist, index.kdist_witness]
    arrays += [index.site, index.flags]
    for c in index.clusters:
        scalars = [c.radius, c.rho, c.gamma, c.witness, c.round_index, c.is_remainder]
        arrays += [np.asarray(c.center), np.asarray(c.assigned), np.array(scalars, dtype=np.float64)]
    answers = "\n".join(repr(avd.avd_query(index, tuple(q))) for q in points[:2000].tolist())
    return f"cells {digest(arrays)} answers {hashlib.sha256(answers.encode()).hexdigest()[:16]}"


def round_trip(index) -> tuple:
    """The index after save_index/load_index, and the saved byte count."""
    from ballann import io

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cell.idx")
        io.save_index(path, index)
        return io.load_index(path), os.path.getsize(path)


def cell_line(index, points) -> str:
    loaded, size = round_trip(index)
    return f" {cell_digest(index, points)} loaded {cell_digest(loaded, points)} bytes {size}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    sys.path[:0] = [str(Path(args.root) / "src"), str(Path(args.root) / "perfbench")]
    import numpy as np
    import workloads
    from ballann import avd, datasets, geometry, registry

    for name, w in workloads.WORKLOADS.items():
        for seed in args.seeds:
            centers, radii, points, _, _ = workloads.make_inputs(w, seed)
            balls = [geometry.Ball(tuple(c), float(r)) for c, r in zip(centers.tolist(), radii)]
            inst = geometry.normalize(balls, w.floor)
            reg = registry.build_registry(inst)
            line = f"{name} seed {seed}: scale {inst.scale.hex()} registry {digest(registry_arrays(reg))}"
            if w.cell:
                line += cell_line(avd.build_avd(reg, w.cell_k, w.cell_eps), points)
            print(line, flush=True)
    reg = registry.build_registry(geometry.normalize(datasets.generate_instance(6025, 1, 8), 0.5))
    points = np.random.default_rng(0).random((2000, 1))
    print("strict c6:" + cell_line(avd.build_avd(reg, 7, 0.5, "strict"), points), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
