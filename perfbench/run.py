"""Benchmark of build, load and query for the registry and the cell index.

    python3 perfbench/run.py --workload registry-d3 --seed 1 --seconds 20 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
`--workload all` runs every workload, each in its own process, and prints
each result line and then a combined one.  Run it from the repository root;
the package is imported from `src/`.
"""

from __future__ import annotations

import os

# Single-threaded numpy: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("registry-d3", "cell-d2")


def _metrics_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "ballann" / "__init__.py").is_file():
        raise SystemExit(f"package source not found under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workdir = HERE / "_work"
    workdir.mkdir(exist_ok=True)
    result = workloads.run(workloads.WORKLOADS[name], seed, seconds, str(workdir), tracer)
    shown = result.pop("layers") if trace else result["metrics"]
    result["metrics"] = _metrics_json(shown)
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh interpreter, so peak memory and state stay its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        print(f"{name}: {line}", flush=True)
        one = json.loads(line)
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for metric, body in one["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = body
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
