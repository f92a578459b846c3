"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload cell-d2 --seeds 1-10 [--seconds N]

runs the benchmark once per seed, one run after another, for the run length
in BENCHMARK.json unless --seconds is given, and prints for
each metric the median of the runs and the distance between the first and
third quartiles as a share of that median (`statistics.quantiles(n=4)`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
CONFIG = RUN.parent.parent / "BENCHMARK.json"


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default=str(json.loads(CONFIG.read_text())["run_seconds"]))
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    failed_shares = set()
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        took = time.perf_counter() - t0
        result = json.loads(out.strip().splitlines()[-1])
        failed_shares.add(result["failed"] / result["attempted"])
        shown = " ".join(f"{name}={body['value']:.6g}" for name, body in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} run_s={took:.1f} {shown}", flush=True)
        for name, body in result["metrics"].items():
            values.setdefault(name, []).append(body["value"])
    print(f"{'metric':32s} {'median':>12s} {'iqr/median':>10s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32s} {med:12.6g} {spread:10.4f}")
    print(f"failed shares seen: {sorted(failed_shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
