"""The benchmark's tracer wraps package attributes by name; a rename or a
deletion in the package must fail here, not only in a traced benchmark run
(`perfbench/run.py --trace 1`)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {perf!r}]
import tracing
from ballann import generate_instance, normalize
from ballann.registry import build_registry

tracer = tracing.Tracer()
tracing.install(tracer)
with tracer.span("setup"):
    build_registry(normalize(generate_instance(1, 2, 20), 0.5))
assert tracer.calls("setup", "registry.build") == 1, dict(tracer.totals)
print("installed")
"""


def test_perfbench_tracer_installs():
    script = _SCRIPT.format(src=str(ROOT / "src"), perf=str(ROOT / "perfbench"))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "installed"
