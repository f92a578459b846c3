"""Cell-index size against the n/k budget, on the cell-d2 input profile.

    python3 perfbench/storage.py [--seed 1]

builds the cell index (d=2, eps=0.5, uniform profile) at n=1024, k=256 and
at n=4096, k=1024, where n/k is 4 in both, and prints the cells and the
saved bytes of each.  Storage that follows n/k reads about the same twice.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ballann.avd as avd  # noqa: E402
import ballann.geometry as geometry  # noqa: E402
import ballann.io as bio  # noqa: E402
import ballann.registry as registry  # noqa: E402

import inputs  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    for n, k in ((1024, 256), (4096, 1024)):
        centers, radii = inputs.uniform_balls(args.seed, 2, n)
        balls = [geometry.Ball(tuple(c), float(r)) for c, r in zip(centers.tolist(), radii)]
        t0 = time.perf_counter()
        index = avd.build_avd(registry.build_registry(geometry.normalize(balls, 0.5)), k, 0.5)
        took = time.perf_counter() - t0
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            path = os.path.join(tmp, "index.bin")
            bio.save_index(path, index)
            size = os.path.getsize(path)
        print(f"n={n} k={k} n/k={n // k} cells={index.tree.size} bytes={size} build_s={took:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
