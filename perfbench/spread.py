"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

Runs ``run.py`` with seeds 1 to ``--runs`` on each named workload, one
run at a time, and prints for every end-to-end metric its median over the
runs and the distance between its first and third quartiles as a share of
that median (``statistics.quantiles(values, n=4)``), next to the bound in
``BENCHMARK.json``.  Usage, from the root of a checkout::

    python3 perfbench/spread.py --runs 10 rays grid-calculus
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed operations",
                      file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={values[name][-1]:.4g}" for name in bounds), flush=True)
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            print(f"{workload} {name}: median {median:.6g}, spread {(q3 - q1) / median:.4f}"
                  f" (bound {bounds[name]})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
