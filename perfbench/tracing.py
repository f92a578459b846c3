"""Timing spans and counters around the package's public functions.

`install()` replaces module attributes with wrappers that record a span per
call; it runs only in a traced benchmark process, so untraced runs execute
the package unmodified.  A span knows its name, its parent span's name and
the benchmark phase it ran in (the outermost span, opened by the benchmark
itself).  Spans are folded into totals as they close,

    (phase, parent, name) -> [calls, seconds],

which is all the per-layer metrics need.  Self time of a layer is its time
minus the time of the wrapped calls it makes.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import ballann.avd as avd
import ballann.io as bio
import ballann.knn as knn
import ballann.quadtree as quadtree
import ballann.registry as registry


class Tracer:
    def __init__(self) -> None:
        self._stack: list[tuple[str, float]] = []  # open spans: (name, start)
        self.totals: dict[tuple[str, str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        self._stack.append((name, time.perf_counter()))
        try:
            yield
        finally:
            self._close()

    def _close(self) -> None:
        name, start = self._stack.pop()
        took = time.perf_counter() - start
        parent = self._stack[-1][0] if self._stack else ""
        row = self.totals[(self.phase() or name, parent, name)]
        row[0] += 1
        row[1] += took

    def phase(self) -> str:
        return self._stack[0][0] if self._stack else ""

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append((name, time.perf_counter()))
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def _rows(self, phase: str, name: str, parent: str | None):
        for (ph, par, nm), row in self.totals.items():
            if ph == phase and nm == name and parent in (None, par):
                yield row

    def total(self, phase: str, name: str, parent: str | None = None) -> float:
        """Seconds in spans of `name` within `phase`, under `parent` if given."""
        return sum(row[1] for row in self._rows(phase, name, parent))

    def calls(self, phase: str, name: str, parent: str | None = None) -> int:
        return sum(row[0] for row in self._rows(phase, name, parent))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points, where its callers look them up.

    Names imported with `from .x import f` are bound in the importing module,
    so the wrapper goes on that module's attribute: `avd.refine` is the
    certification sweep's warm-started call, `knn.refine` the user query's.
    """
    w = tracer.wrap
    R = registry.Registry
    # Registry build.
    R.__init__ = w(R.__init__, "registry.build")
    registry.grid_approx = w(registry.grid_approx, "registry.grid_approx")
    registry.cube_to_key = w(registry.cube_to_key, "quadtree.cube_to_key")
    quadtree.CompressedQuadtree.find_key = w(
        quadtree.CompressedQuadtree.find_key, "quadtree.find_key"
    )
    registry.build_from_cubes = w(registry.build_from_cubes, "quadtree.build_from_cubes")
    registry.build_from_points = w(registry.build_from_points, "quadtree.build_from_points")
    # Registry query.
    knn.constant_factor_detail = w(
        knn.constant_factor_detail,
        "knn.constant_factor",
        on_result=lambda out: tracer.counts.update([(tracer.phase(), "knn.step_" + out[1])]),
    )
    knn.refine = w(knn.refine, "knn.refine")
    R.approx_kth_center_distances = w(R.approx_kth_center_distances, "registry.kth_center")
    R.approx_ball_count = w(R.approx_ball_count, "registry.ball_count")
    R.large_balls_intersecting = w(R.large_balls_intersecting, "registry.large_retrieval")
    R.balls_containing_point = w(R.balls_containing_point, "registry.contains_point")
    # Cell-index build and query.
    avd.build_avd = w(avd.build_avd, "avd.build")
    avd.ball_quorum = w(avd.ball_quorum, "quorum.ball_quorum")
    avd.refine = w(avd.refine, "avd.refine")
    avd.query = w(avd.query, "avd.query")
    avd.overlay = w(avd.overlay, "quadtree.overlay")
    quadtree.CompressedQuadtree.point_location = w(
        quadtree.CompressedQuadtree.point_location, "quadtree.point_location"
    )
    # io.
    bio.save_index = w(bio.save_index, "io.save")
    bio.load_index = w(bio.load_index, "io.load")
    bio.build_registry = w(bio.build_registry, "io.load_rebuild")


def layer_metrics(tr: Tracer, index, cell: bool, builds: int, queries: int, branches) -> dict:
    """Per-layer figures, as (value, unit): seconds per build or load,
    microseconds and calls per timed query, structure sizes of one build."""
    S, L, Q = "setup", "load", "query"

    def per_build(name: str, parent: str) -> float:
        return tr.total(S, name, parent) / builds

    def per_query_us(name: str, parent: str | None = None) -> float:
        return tr.total(Q, name, parent) * 1e6 / queries

    reg_children = (
        "registry.grid_approx",
        "quadtree.cube_to_key",
        "quadtree.find_key",
        "quadtree.build_from_cubes",
        "quadtree.build_from_points",
    )
    avd_children = ("quorum.ball_quorum", "avd.refine", "avd.query", "quadtree.overlay")
    reg_build = tr.total(S, "registry.build") / builds
    avd_build = tr.total(S, "avd.build") / builds
    reg = index.registry if cell else index
    stats = index.stats if cell else {}
    loads = tr.calls(L, "io.load")
    load_rebuild = tr.total(L, "io.load_rebuild", "io.load") / loads
    return {
        # Registry build.
        "registry.build_s": (reg_build, "s"),
        "registry.grid_approx_s": (per_build("registry.grid_approx", "registry.build"), "s"),
        "registry.cube_key_s": (
            per_build("quadtree.cube_to_key", "registry.build")
            + per_build("quadtree.find_key", "registry.build"),
            "s",
        ),
        "quadtree.build_from_cubes_s": (per_build("quadtree.build_from_cubes", "registry.build"), "s"),
        "quadtree.build_from_points_s": (per_build("quadtree.build_from_points", "registry.build"), "s"),
        "registry.build_self_s": (
            reg_build - sum(per_build(c, "registry.build") for c in reg_children),
            "s",
        ),
        "registry.ball_tree_nodes": (reg.stats["ball_tree_nodes"], "count"),
        "registry.registration_entries": (reg.stats["registration_entries"], "count"),
        # Registry query, per timed query.
        "knn.constant_factor_us": (per_query_us("knn.constant_factor"), "us"),
        "knn.refine_us": (per_query_us("knn.refine"), "us"),
        "registry.kth_center_us": (per_query_us("registry.kth_center"), "us"),
        "registry.ball_count_us": (per_query_us("registry.ball_count"), "us"),
        "registry.ball_count_calls": (tr.calls(Q, "registry.ball_count") / queries, "1/query"),
        "registry.large_retrieval_us": (per_query_us("registry.large_retrieval"), "us"),
        "registry.large_retrieval_calls": (tr.calls(Q, "registry.large_retrieval") / queries, "1/query"),
        "registry.contains_point_us": (per_query_us("registry.contains_point"), "us"),
        **{
            f"knn.step_{s}": (tr.counts[(Q, f"knn.step_{s}")] / queries, "1/query")
            for s in ("zero", "A", "B", "C")
        },
        # Cell-index build, per build.
        "quorum.ball_quorum_s": (per_build("quorum.ball_quorum", "avd.build"), "s"),
        "quorum.clusters": (stats.get("clusters", 0), "count"),
        "avd.build_s": (avd_build, "s"),
        "avd.sweep_refine_s": (per_build("avd.refine", "avd.build"), "s"),
        "avd.sweep_query_s": (per_build("avd.query", "avd.build"), "s"),
        "avd.kdist_calls_warm": (tr.calls(S, "avd.refine", "avd.build") / builds, "count"),
        "avd.kdist_calls_cold": (tr.calls(S, "avd.query", "avd.build") / builds, "count"),
        "quadtree.overlay_s": (per_build("quadtree.overlay", "avd.build"), "s"),
        "avd.build_self_s": (avd_build - sum(per_build(c, "avd.build") for c in avd_children), "s"),
        "avd.cells": (index.tree.size if cell else 0, "count"),
        "avd.splits": (stats.get("splits", 0), "count"),
        "avd.uncertified": (stats.get("uncertified", 0), "count"),
        # Cell-index query, per timed query.  avd_query itself is not wrapped,
        # so its own point location is the one directly under the phase.
        "quadtree.point_location_us": (per_query_us("quadtree.point_location", Q), "us"),
        "avd.fallback_us": (per_query_us("avd.query"), "us"),
        **{
            f"avd.branch_{b}": (branches[b] / queries, "1/query")
            for b in ("small", "near", "cluster", "fallback")
        },
        # io, per save or load.
        "io.save_s": (tr.total("save", "io.save") / tr.calls("save", "io.save"), "s"),
        "io.load_rebuild_s": (load_rebuild, "s"),
        "io.load_self_s": (tr.total(L, "io.load") / loads - load_rebuild, "s"),
    }
