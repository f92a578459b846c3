"""Print a SHA-256 digest of everything the benchmark's builds produce.

For each benchmark workload and seed, digests the normalized balls, every
registry array (both trees' keys, levels, parent links and child CSR, the
centers tree's point order, the registered lists and the node boxes) and,
for the cell index, its arrays and the reprs of its first 2,000 answers.
Run it on two checkouts and diff the output: a change that keeps the
structures bit for bit prints the same lines.

    python3 scripts/build_fingerprint.py [REPO_ROOT] [--seeds 1 2 3]

REPO_ROOT defaults to the checkout holding this script; its `src/` and
`perfbench/` are imported.
"""

import argparse
import hashlib
import sys
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    sys.path[:0] = [str(Path(args.root) / "src"), str(Path(args.root) / "perfbench")]
    import workloads
    from ballann import avd, geometry, registry

    for name, w in workloads.WORKLOADS.items():
        for seed in args.seeds:
            centers, radii, points, _, _ = workloads.make_inputs(w, seed)
            balls = [geometry.Ball(tuple(c), float(r)) for c, r in zip(centers.tolist(), radii)]
            inst = geometry.normalize(balls, w.floor)
            reg = registry.build_registry(inst)
            line = f"{name} seed {seed}: scale {inst.scale.hex()} registry {digest(registry_arrays(reg))}"
            if w.cell:
                index = avd.build_avd(reg, w.cell_k, w.cell_eps)
                t = index.tree
                cells = [t.z, t.level, t.parent, index.rep, index.kdist, index.kdist_witness]
                line += f" cells {digest(cells + [index.site, index.flags])}"
                answers = "\n".join(repr(avd.avd_query(index, tuple(q))) for q in points[:2000].tolist())
                line += f" answers {hashlib.sha256(answers.encode()).hexdigest()[:16]}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
