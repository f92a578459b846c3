"""Command-line front end: gen, build, query, audit, bench.

Exit codes: 0 success, 1 input error (including a build input whose balls
are not pairwise disjoint), 2 audit failure, 3 internal invariant breach.
Query timing uses the monotonic nanosecond clock around the structure call
alone, so file I/O and parsing never pollute latencies.
All distances cross the boundary in original units; the stored affine
transform converts to and from the normalized cube.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import io as bio
from . import knn
from .avd import AVDIndex, avd_query, audit_cells, build_avd
from .datasets import PROFILES, generate_instance
from .geometry import (
    InputError,
    InternalInvariantError,
    find_overlap,
    normalize,
)
from .oracle import exact_kth_distance
from .quorum import ball_quorum, verify_quorum
from .registry import Registry, build_registry

_DEFAULT_FLOOR = 0.25  # normalization floor for registry-only builds


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage through the input-error exit path."""

    def error(self, message: str):
        raise InputError(message)


@contextmanager
def _out_stream(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii") as fh:
            yield fh


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise InputError(f"expected comma-separated integers, got {text!r}") from exc


def _float_list(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise InputError(f"expected comma-separated floats, got {text!r}") from exc


# -- gen ----------------------------------------------------------------------


def _cmd_gen(args) -> int:
    balls = generate_instance(args.seed, args.dim, args.n, args.profile)
    with _out_stream(args.out) as fh:
        bio.dump_balls(fh, balls)
    return 0


# -- build --------------------------------------------------------------------


def _cmd_build(args) -> int:
    balls = bio.read_balls(args.ballfile)
    if args.out is None:
        raise InputError("build requires --out for the index file")
    pair = find_overlap(balls)
    if pair is not None:
        raise InputError(f"balls {pair[0]} and {pair[1]} overlap; the input must be pairwise disjoint")
    if (args.k is None) != (args.eps is None) and args.k is not None:
        raise InputError("--k without --eps: an approximate-Voronoi build needs both")
    if args.k is not None:
        reg = build_registry(normalize(balls, args.eps))
        t0 = time.perf_counter()
        a = build_avd(reg, args.k, args.eps, args.mode)
        elapsed = time.perf_counter() - t0
        bio.save_avd(args.out, a)
        print(f"index: approximate-voronoi cells={a.tree.size} clusters={len(a.clusters)}")
        print(f"built in {elapsed:.3f}s, uncertified={a.stats['uncertified']}")
        print(json.dumps(a.stats))
    else:
        floor = args.eps if args.eps is not None else _DEFAULT_FLOOR
        reg = build_registry(normalize(balls, floor))
        bio.save_registry(args.out, reg)
        print(f"index: registry n={reg.n} dim={reg.dim} nodes={reg.centers_tree.size}")
        print(json.dumps(reg.stats))
    return 0


# -- query --------------------------------------------------------------------


def _cmd_query(args) -> int:
    idx = bio.load_index(args.indexfile)
    inst = idx.registry.instance if isinstance(idx, AVDIndex) else idx.instance
    if isinstance(idx, AVDIndex):
        if args.k is not None and args.k != idx.k:
            raise InputError(f"--k {args.k} conflicts with the index (k={idx.k})")
        if args.eps is not None and args.eps != idx.eps:
            raise InputError(f"--eps {args.eps} conflicts with the index (eps={idx.eps})")
        fixed_k, fixed_eps = idx.k, idx.eps
    else:
        fixed_k, fixed_eps = args.k, args.eps
    try:
        with open(args.queryfile, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise InputError(f"cannot read query file {args.queryfile!r}: {exc}") from exc
    lines = [ln for ln in lines if ln]

    with _out_stream(args.out) as out:
        for i, ln in enumerate(lines):
            try:
                q, k, eps = bio.parse_query_line(ln, inst.dimension, inst.radii.size, fixed_k, fixed_eps)
            except InputError as exc:
                out.write(f"{i} error {exc}\n")
                continue
            q_norm = inst.to_unit(q)
            if isinstance(idx, AVDIndex):
                t0 = time.perf_counter_ns()
                ans = avd_query(idx, q_norm)
                t1 = time.perf_counter_ns()
            else:
                t0 = time.perf_counter_ns()
                ans = knn.query(idx, q_norm, k, eps)
                t1 = time.perf_counter_ns()
            dist = ans.distance / inst.scale
            tail = " out_of_domain" if ans.out_of_domain else ""
            out.write(f"{i} {ans.ball_id} {dist:.17g} {t1 - t0}{tail}\n")
    return 0


# -- audit --------------------------------------------------------------------


def _suite_counter(reg: Registry, trials: int, rng) -> tuple[bool, str]:
    d = reg.dim
    bad = 0
    for _ in range(trials):
        q = rng.random(d)
        x = float(rng.random() * 1.5 * math.sqrt(d))
        delta = float(rng.choice([0.5, 0.2, 0.1]))
        approx = reg.approx_ball_count(q, delta, x)
        lo = reg.exact_intersection_count(q, x)
        hi = reg.exact_intersection_count(q, (1.0 + delta) * x)
        if not (lo <= approx <= hi):
            bad += 1
    return bad == 0, f"{trials} trials, {bad} outside the sandwich"


def _suite_constant_factor(reg: Registry, trials: int, rng) -> tuple[bool, str]:
    bad = 0
    inst = reg.instance
    for _ in range(trials):
        q = tuple(rng.random(reg.dim))
        k = int(rng.integers(1, reg.n + 1))
        x = knn.constant_factor_kth(reg, q, k)
        truth = exact_kth_distance(inst, q, k).value
        if not (x / 4.0 - 1e-9 <= truth <= 4.0 * x + 1e-9):
            bad += 1
    return bad == 0, f"{trials} trials, {bad} outside [x/4, 4x]"


def _suite_knn(reg: Registry, trials: int, rng) -> tuple[bool, str]:
    bad = 0
    inst = reg.instance
    for _ in range(trials):
        q = tuple(rng.random(reg.dim))
        k = int(rng.integers(1, reg.n + 1))
        eps = float(rng.choice([0.5, 0.2, 0.1]))
        ans = knn.query(reg, q, k, eps)
        truth = exact_kth_distance(inst, q, k).value
        lo, hi = ans.certified_interval
        tol = 1e-9 * max(1.0, truth)
        if not ((1.0 - eps) * truth - tol <= ans.distance <= (1.0 + eps) * truth + tol):
            bad += 1
        elif not (lo - tol <= truth <= hi + tol):
            bad += 1
    return bad == 0, f"{trials} trials, {bad} outside (1±eps)"


def _suite_quorum(reg: Registry, rng) -> tuple[bool, str]:
    cd = reg.instance.c_d
    k = 2 * cd + 1
    if k > reg.n:
        return True, f"skipped: n={reg.n} admits no k > 2*c_d={2 * cd}"
    clusters = ball_quorum(reg, k)
    report = verify_quorum(reg, clusters, k)
    return bool(report["ok"]), f"k={k}, {len(clusters)} clusters, ok={report['ok']}"


def _suite_avd(a: AVDIndex, trials: int, rng) -> tuple[bool, str]:
    inst = a.registry.instance
    bad = 0
    for _ in range(trials):
        q = tuple(rng.random(a.registry.dim))
        ans = avd_query(a, q)
        truth = exact_kth_distance(inst, q, a.k).value
        tol = 1e-9 * max(1.0, truth)
        if not ((1.0 - a.eps) * truth - tol <= ans.distance <= (1.0 + a.eps) * truth + tol):
            bad += 1
    return bad == 0, f"{trials} queries, {bad} outside (1±eps) at eps={a.eps}"


def _cmd_audit(args) -> int:
    balls = bio.read_balls(args.ballfile)
    rng = np.random.default_rng(args.seed)
    suites: list[tuple[str, bool, str]] = []

    idx = None
    if args.indexfile is not None:
        try:
            idx = bio.load_index(args.indexfile)
        except InputError as exc:
            print(f"integrity: FAIL ({exc})")
            print("audit: FAIL")
            return 2
        suites.append(("integrity", True, "magic, version, and checksum verified"))
        inst = idx.registry.instance if isinstance(idx, AVDIndex) else idx.instance
        expect = normalize(balls, inst.epsilon_floor)
        same = np.array_equal(expect.centers, inst.centers) and np.array_equal(expect.radii, inst.radii)
        suites.append(("index-matches-input", same, f"n={inst.radii.size} dim={inst.dimension}"))

    if idx is not None and isinstance(idx, AVDIndex):
        reg = idx.registry
    else:
        floor = args.eps if args.eps is not None else _DEFAULT_FLOOR
        reg = idx if isinstance(idx, Registry) else build_registry(normalize(balls, floor))

    trials = args.trials
    suites.append(("counter-sandwich", *_suite_counter(reg, trials, rng)))
    suites.append(("constant-factor", *_suite_constant_factor(reg, trials, rng)))
    suites.append(("knn-two-sided", *_suite_knn(reg, trials, rng)))
    suites.append(("quorum", *_suite_quorum(reg, rng)))
    if isinstance(idx, AVDIndex):
        suites.append(("avd-queries", *_suite_avd(idx, trials, rng)))
        cells = audit_cells(idx, samples=min(200, idx.tree.size), seed=args.seed)
        suites.append(
            ("avd-cells", cells["ok"], f"{cells['cells']} cells, {len(cells['violations'])} violations")
        )

    ok = all(s[1] for s in suites)
    for name, good, detail in suites:
        print(f"{name}: {'pass' if good else 'FAIL'} ({detail})")
    print(f"audit: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


# -- bench --------------------------------------------------------------------


def _resolve_k(spec: str, n: int) -> int:
    if spec == "sqrt":
        return max(1, math.isqrt(n - 1) + 1)
    if spec == "quarter":
        return max(1, n // 4)
    try:
        return int(spec)
    except ValueError as exc:
        raise InputError(f"--k entries must be integers, 'sqrt', or 'quarter': {spec!r}") from exc


def _cmd_bench(args) -> int:
    dims = args.dim_list
    ns = args.n_list
    eps_list = args.eps_list
    k_specs = args.k_list
    rows = []
    rng = np.random.default_rng(args.seed)
    for d in dims:
        for n in ns:
            for k_spec in k_specs:
                k = _resolve_k(k_spec, n)
                for eps in eps_list:
                    balls = generate_instance(args.seed, d, n, args.profile)
                    reg = build_registry(normalize(balls, eps))
                    t0 = time.perf_counter()
                    try:
                        a = build_avd(reg, k, eps, args.mode)
                    except InputError:  # a k the cell index refuses: registry columns only
                        a = None
                    t_avd = time.perf_counter() - t0
                    qs = rng.random((args.trials, d))
                    reg_ns = []
                    for q in qs:
                        t0 = time.perf_counter_ns()
                        knn.query(reg, tuple(q), k, eps)
                        reg_ns.append(time.perf_counter_ns() - t0)
                    avd_ns = []
                    if a is not None:
                        for q in qs:
                            t0 = time.perf_counter_ns()
                            avd_query(a, tuple(q))
                            avd_ns.append(time.perf_counter_ns() - t0)
                    rows.append(
                        {
                            "dim": d,
                            "n": n,
                            "k": k,
                            "eps": eps,
                            "mode": args.mode,
                            "cells": a.tree.size if a is not None else 0,
                            "uncertified": a.stats["uncertified"] if a is not None else "",
                            "build_avd_s": f"{t_avd:.4f}" if a is not None else "",
                            "registry_median_ns": int(statistics.median(reg_ns)),
                            "registry_p90_ns": int(np.percentile(reg_ns, 90)),
                            "avd_median_ns": int(statistics.median(avd_ns)) if avd_ns else "",
                            "avd_p90_ns": int(np.percentile(avd_ns, 90)) if avd_ns else "",
                        }
                    )
    cols = list(rows[0].keys()) if rows else []
    with _out_stream(args.out) as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")
    return 0


# -- entry point ---------------------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="ballann", description="Approximate k-th nearest ball queries.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a disjoint ball instance")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--profile", choices=PROFILES, default="uniform")
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_gen)

    b = sub.add_parser("build", help="build an index file from a ball file; prints its build stats as one JSON line")
    b.add_argument("ballfile")
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--eps", type=float, default=None)
    b.add_argument("--mode", choices=("practical", "strict"), default="practical")
    b.add_argument("--out", default=None)
    b.set_defaults(func=_cmd_build)

    q = sub.add_parser("query", help="answer a query file against an index")
    q.add_argument("indexfile")
    q.add_argument("queryfile")
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--eps", type=float, default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_query)

    a = sub.add_parser("audit", help="run invariant suites on an instance and index")
    a.add_argument("ballfile")
    a.add_argument("indexfile", nargs="?", default=None)
    a.add_argument("--trials", type=int, default=200)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--eps", type=float, default=None)
    a.set_defaults(func=_cmd_audit)

    be = sub.add_parser("bench", help="latency and size sweep, one CSV row per cell")
    be.add_argument("--dim", dest="dim_list", type=_int_list, default=[1])
    be.add_argument("--n", dest="n_list", type=_int_list, default=[256])
    be.add_argument("--k", dest="k_list", type=lambda s: s.split(","), default=["sqrt"])
    be.add_argument("--eps", dest="eps_list", type=_float_list, default=[0.5])
    be.add_argument("--mode", choices=("practical", "strict"), default="practical")
    be.add_argument("--profile", choices=PROFILES, default="uniform")
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--trials", type=int, default=200)
    be.add_argument("--out", default=None)
    be.set_defaults(func=_cmd_bench)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
