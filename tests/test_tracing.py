"""The benchmark's tracer wraps package attributes by name; a rename or a
deletion in the package must fail here, not only in a traced benchmark run
(`perfbench/run.py --trace 1`)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_HEAD = """
import sys
sys.path[:0] = [{src!r}, {perf!r}]
import tracing
from ballann import generate_instance, normalize
from ballann.registry import build_registry

tracer = tracing.Tracer()
tracing.install(tracer)
"""

_REGISTRY = """
with tracer.span("setup"):
    build_registry(normalize(generate_instance(1, 2, 20), 0.5))
assert tracer.calls("setup", "registry.build") == 1, dict(tracer.totals)
print("installed")
"""

# A cell index built, saved, loaded and queried under the tracer, in the
# phases the benchmark opens, and its per-layer metrics.
_CELL = """
import json
from collections import Counter
import ballann.avd as avd
import ballann.io as bio

with tracer.span("setup"):
    index = avd.build_avd(build_registry(normalize(generate_instance(3, 1, 40), 0.5)), 10, 0.5)
# The sweep selects exact k-th distances itself: no registry search.
for name in ("avd.query", "avd.refine"):
    assert tracer.calls("setup", name, "avd.build") == 0, (name, dict(tracer.totals))
# A practical build runs no quorum; only a strict build clusters the balls
# and lays down the fields and their overlay.
assert tracer.calls("setup", "quorum.ball_quorum") == 0, dict(tracer.totals)
with tracer.span("strict"):
    avd.build_avd(build_registry(normalize(generate_instance(6025, 1, 8), 0.5)), 7, 0.5, "strict")
for name in ("quorum.ball_quorum", "quadtree.overlay"):
    assert tracer.calls("strict", name, "avd.build") == 1, (name, dict(tracer.totals))
with tracer.span("save"):
    bio.save_index({path!r}, index)
with tracer.span("load"):
    index = bio.load_index({path!r})
before = Counter(index.query_counts)
with tracer.span("query"):
    for q in (0.1, 0.5, 0.9):
        avd.avd_query(index, (q,))
branches = Counter(index.query_counts) - before
# One point location per in-domain query, directly under the phase: that
# call is what quadtree.point_location_us times.
assert tracer.calls("query", "quadtree.point_location") == 3, dict(tracer.totals)
assert tracer.calls("query", "quadtree.point_location", "query") == 3, dict(tracer.totals)
print(json.dumps(sorted(tracing.layer_metrics(tracer, index, True, 1, 3, branches))))
"""

# Per-layer names that the benchmark's run adds itself, beside layer_metrics.
_ADDED_BY_RUN = {
    "control.brute_kth_us",
    "trace.query_p50_us",
    "machine.speed",
    "wall.setup_s",
    "wall.load_s",
    "wall.query_p50_us",
}


def _run(body: str, **fields) -> str:
    script = (_HEAD + body).format(src=str(ROOT / "src"), perf=str(ROOT / "perfbench"), **fields)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_perfbench_tracer_installs():
    assert _run(_REGISTRY) == "installed"


def test_traced_cell_index_reports_every_layer(tmp_path):
    names = set(json.loads(_run(_CELL, path=str(tmp_path / "cell.idx"))))
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - names == _ADDED_BY_RUN
    assert names <= declared
