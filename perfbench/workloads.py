"""The workloads and the steps each run takes through the public API.

One run makes its inputs from the seed and then goes through ROUNDS rounds.
Each round builds the index from in-memory balls, `save_index`es it,
`load_index`es it back (repeating a cheap load) and answers the query set
against the loaded index for its share of the run's seconds, timing every
call.  Rounds spread each metric's samples over the whole run.  Every
timing is turned into reference seconds by gauge readings taken with it
(see gauge.py): readings every 20 ms while a build or a load runs, and one
reading after every few queries.  Every answer is checked after each block
of queries.  Only the build, the load and the query calls sit inside timed
regions; input generation, gauge readings and checking do not.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import tempfile
import time
from array import array
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import ballann.avd as avd
import ballann.geometry as geometry
import ballann.io as bio
import ballann.knn as knn
import ballann.registry as registry

import check
import inputs
import tracing
from gauge import Gauge

# Rounds per run; setup_s and load_s are medians over the rounds' builds
# and loads.
ROUNDS = 4
# Seconds of loading per round, at least one load.
LOAD_SECONDS = 1.5
# Queries run in whole chunks of the query set, so that every round asks the
# same mix of query positions and (k, eps) pairs.
BLOCK = inputs.CHUNK
# Untimed queries after each load.
WARMUP = 15
# Queries the control scan times, per run.
CONTROL_QUERIES = 600


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    dim: int
    n: int
    floor: float  # eps handed to normalize
    cell_k: int | None  # cell index (k, eps); None for a registry workload
    cell_eps: float | None
    query_count: int  # distinct queries, cycled in order; a multiple of BLOCK
    gauge_every: int  # queries between gauge readings; divides BLOCK

    @property
    def cell(self) -> bool:
        return self.cell_k is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("registry-d3", "clustered", 3, 1024, 0.25, None, None, 30 * BLOCK, 5),
        Workload("cell-d2", "uniform", 2, 1024, 0.5, 256, 0.5, 120 * BLOCK, 75),
    )
}

_GENERATORS = {"uniform": inputs.uniform_balls, "clustered": inputs.clustered_balls}


def make_inputs(w: Workload, seed: int):
    """(centers, radii) in original units, (points, ks, epss) in the unit cube."""
    centers, radii = _GENERATORS[w.profile](seed, w.dim, w.n)
    if w.cell:
        points = inputs.cell_queries(seed, w.dim, w.n, w.query_count)
        ks = np.full(w.query_count, w.cell_k, dtype=np.int64)
        epss = np.full(w.query_count, w.cell_eps, dtype=np.float64)
    else:
        points, ks, epss = inputs.registry_queries(seed, w.dim, w.n, w.query_count)
    return centers, radii, points, ks, epss


def _build(w: Workload, balls):
    reg = registry.build_registry(geometry.normalize(balls, w.floor))
    if not w.cell:
        return reg
    return avd.build_avd(reg, w.cell_k, w.cell_eps)


class Times:
    """Per-query times in flat float32 arrays: 8 bytes a query, so that peak
    memory barely moves with how many queries a run gets through."""

    def __init__(self) -> None:
        self.wall_us, self.ref_us = array("f"), array("f")

    def add(self, took_ns: list[int], factor: float) -> None:
        self.wall_us.extend([t / 1e3 for t in took_ns])
        self.ref_us.extend([t * factor / 1e3 for t in took_ns])

    def col(self, name: str, first: int = 0) -> np.ndarray:
        return np.frombuffer(getattr(self, name), dtype=np.float32)[first:].astype(np.float64)


def control_us(points, ks, centers, radii) -> float:
    """Median time of the benchmark's own numpy k-th distance, one query a call."""
    times = []
    for q, k in zip(points, ks):
        t0 = time.perf_counter_ns()
        diff = centers - q
        d = np.maximum(np.sqrt(np.einsum("ij,ij->i", diff, diff)) - radii, 0.0)
        np.partition(d, k - 1)[k - 1]
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e3


def run(w: Workload, seed: int, seconds: float, workdir: str, tracer=None) -> dict:
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    centers, radii, points, ks, epss = make_inputs(w, seed)
    balls = [geometry.Ball(tuple(c), float(r)) for c, r in zip(centers.tolist(), radii)]
    qlist = [tuple(q) for q in points.tolist()]
    klist, elist = ks.tolist(), epss.tolist()

    def ask(index, j):
        if w.cell:
            return avd.avd_query(index, qlist[j])
        return knn.query(index, qlist[j], klist[j], elist[j])

    gauge = Gauge()
    # A traced run takes no readings inside builds and loads, so that the
    # layers' spans hold the package's work alone.
    sample = tracer is None
    checker = check.Checker(points, ks, epss, centers, radii, intervals=not w.cell)
    # Each build and load, in wall seconds and in reference seconds.
    setup_wall, setup_ref, load_wall, load_ref = [], [], [], []
    ref_walls = []  # query loops, in reference seconds
    times = Times()
    branches = Counter()
    index = None
    asked = 0
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = os.path.join(tmp, "index.bin")
        for rnd in range(1, ROUNDS + 1):
            index = None  # free the previous structure before the next build
            with span("setup"):
                built, wall, ref = gauge.timed(lambda: _build(w, balls), sample)
            setup_wall.append(wall)
            setup_ref.append(ref)
            with span("save"):
                bio.save_index(path, built)
            built = None
            # A load shorter than LOAD_SECONDS repeats within the round, so
            # that a cheap load's median rests on more samples.
            loads = len(load_wall)
            while sum(load_wall[loads:]) < LOAD_SECONDS:
                index = None
                with span("load"):
                    index, wall, ref = gauge.timed(lambda: bio.load_index(path), sample)
                load_wall.append(wall)
                load_ref.append(ref)
                checker.index(index.registry.instance if w.cell else index.instance)

            with span("warmup"):
                for j in range(WARMUP):
                    ask(index, j)
            before_counts = Counter(index.query_counts) if w.cell else Counter()
            first = len(times.ref_us)
            g = gauge.read()
            with span("query"):
                deadline = time.perf_counter() + seconds / ROUNDS
                while True:
                    block_first = asked % len(qlist)
                    answers = []
                    for _ in range(BLOCK // w.gauge_every):
                        took = []
                        start = time.perf_counter()
                        for j in range(asked % len(qlist), asked % len(qlist) + w.gauge_every):
                            t0 = time.perf_counter_ns()
                            ans = ask(index, j)
                            took.append(time.perf_counter_ns() - t0)
                            answers.append(ans)
                        wall = time.perf_counter() - start
                        asked += w.gauge_every
                        g, before = gauge.read(), g
                        factor = gauge.factor(before, g)
                        ref_walls.append(wall * factor)
                        times.add(took, factor)
                    checker.block(block_first, answers)
                    if time.perf_counter() >= deadline:
                        break
            if w.cell:
                branches.update(Counter(index.query_counts) - before_counts)
            print(
                f"round {rnd}: setup {setup_wall[-1]:.3f} s wall, "
                f"{setup_ref[-1]:.3f} s ref; "
                f"{len(load_wall) - loads} loads, median "
                f"{statistics.median(load_wall[loads:]):.3f} s wall, "
                f"{statistics.median(load_ref[loads:]):.3f} s ref; "
                f"{len(times.ref_us) - first} queries, p50 "
                f"{np.median(times.col('wall_us', first)):.1f} us wall, "
                f"{np.median(times.col('ref_us', first)):.1f} us ref",
                file=sys.stderr,
            )
        index_bytes = os.path.getsize(path)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    took_us = times.col("ref_us")
    result = {
        "correct": checker.balls_ok and checker.failed == 0,
        "attempted": checker.checked,
        "failed": checker.failed,
        "metrics": {
            "setup_s": (statistics.median(setup_ref), "s"),
            "load_s": (statistics.median(load_ref), "s"),
            "index_bytes": (index_bytes, "bytes"),
            "query_p50_us": (float(np.percentile(took_us, 50)), "us"),
            "query_p95_us": (float(np.percentile(took_us, 95)), "us"),
            "queries_per_s": (took_us.size / sum(ref_walls), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }
    if tracer is not None:
        m = min(CONTROL_QUERIES, len(qlist))
        layers = tracing.layer_metrics(tracer, index, w.cell, ROUNDS, took_us.size, branches)
        c_unit, r_unit = checker.unit()
        layers["control.brute_kth_us"] = (control_us(points[:m], ks[:m], c_unit, r_unit), "us")
        # Layer timings in reference seconds too, by the run's median speed.
        speed = gauge.speed()
        layers = {
            name: (value * speed if unit in ("s", "us") else value, unit)
            for name, (value, unit) in layers.items()
        }
        layers["trace.query_p50_us"] = result["metrics"]["query_p50_us"]
        layers["machine.speed"] = (speed, "x")
        layers["wall.setup_s"] = (statistics.median(setup_wall), "s")
        layers["wall.load_s"] = (statistics.median(load_wall), "s")
        layers["wall.query_p50_us"] = (float(np.percentile(times.col("wall_us"), 50)), "us")
        result["layers"] = layers
    return result
