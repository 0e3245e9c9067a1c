#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise every metric.

    python3 bench/collect.py --workload solve-mixed --seeds 1 2 3 4 5 --out runs.json

Runs are sequential.  For each workload and metric the summary gives the
values in seed order, their median and quartiles (``statistics.quantiles``
with ``n=4``) and the spread, the distance between the quartiles as a share
of the median.  A run that fails or exits non-zero stops the collection.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    summary = {}
    for workload in args.workload:
        values, walls = {}, []
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - t0)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s", file=sys.stderr)
        summary[workload] = {
            "seeds": args.seeds,
            "run_wall_s": walls,
            "metrics": {name: summarise(v) for name, v in values.items()},
        }
        for name, s in summary[workload]["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:12} {name:32} median {s['median']:.6g}  spread {spread}")
    args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
