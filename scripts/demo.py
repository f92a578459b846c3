"""Walk one instance end to end: build, query both paths, check, audit.

Generates disjoint balls, builds the registry and a (k, eps) cell index,
answers a few queries through both, and prints each answer next to the
brute-force k-th distance so the certified bounds are visible.  Finishes
with an audit of the quorum clustering (which only strict cell indexes
store) and the index's branch counters.

    python3 scripts/demo.py --dim 2 --n 100 --k 25 --eps 0.5
"""

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from ballann import build_registry, generate_instance, normalize
from ballann.avd import avd_query, build_avd
from ballann.knn import query
from ballann.oracle import exact_kth_distance
from ballann.quorum import ball_quorum, verify_quorum


@dataclass(frozen=True)
class DemoConfig:
    dim: int = 2
    n: int = 100
    k: int = 25
    eps: float = 0.5
    seed: int = 1
    profile: str = "uniform"
    queries: int = 8


def run(cfg: DemoConfig) -> None:
    balls = generate_instance(cfg.seed, cfg.dim, cfg.n, cfg.profile)
    inst = normalize(balls, cfg.eps)
    reg = build_registry(inst)
    a = build_avd(reg, cfg.k, cfg.eps, mode="practical")
    st = a.stats
    print(
        f"instance: d={cfg.dim} n={cfg.n} profile={cfg.profile}; "
        f"index: k={cfg.k} eps={cfg.eps} cells={st['W']} "
        f"uncertified={st['uncertified']} build={st['build_seconds']:.2f}s"
    )

    rng = np.random.default_rng(cfg.seed + 1)
    print(f"\n{'query':<28} {'truth':>12} {'registry':>12} {'cells':>12} {'ratio':>7}")
    for _ in range(cfg.queries):
        q = tuple(float(v) for v in rng.random(cfg.dim))
        truth = exact_kth_distance(inst.balls, q, cfg.k).value
        r_ans = query(reg, q, cfg.k, cfg.eps)
        a_ans = avd_query(a, q)
        ratio = a_ans.distance / truth if truth else 1.0
        label = "(" + ", ".join(f"{v:.3f}" for v in q) + ")"
        print(f"{label:<28} {truth:>12.6f} {r_ans.distance:>12.6f} {a_ans.distance:>12.6f} {ratio:>7.3f}")

    rep = verify_quorum(reg, ball_quorum(reg, cfg.k), cfg.k)
    full = [r["ratio"] for r in rep["ratios"] if not r["is_remainder"]]
    print(
        f"\ncluster audit: ok={rep['ok']} clusters={rep['clusters']} "
        f"worst_radius_ratio={max(full):.2f} (bound {rep['xi']})"
        if full
        else f"\ncluster audit: ok={rep['ok']} clusters={rep['clusters']}"
    )
    counts = dict(a.query_counts)
    print(f"query branches: {counts}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--profile", default="uniform")
    p.add_argument("--queries", type=int, default=8)
    args = p.parse_args(argv)
    run(
        DemoConfig(
            dim=args.dim,
            n=args.n,
            k=args.k,
            eps=args.eps,
            seed=args.seed,
            profile=args.profile,
            queries=args.queries,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
