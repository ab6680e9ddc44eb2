#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 e2ebench/spread.py --workload search_sync --seeds 1-10 [--seconds 10]

Runs the benchmark once per seed with tracing off and prints, for each
end-to-end metric, its median, quartiles and quartile spread as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's bound
from BENCHMARK.json. A spread at or above a third of its bound is flagged;
setup_s is exempt (its bound applies to medians only). Exits non-zero when
any run fails or any flagged spread remains.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    seconds = args.seconds or declared["run_seconds"]

    values = {}
    for seed in seeds_of(args.seeds):
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: run failed with {done.returncode}")
            return 1
        metrics = json.loads(done.stdout.strip().split("\n")[-1])["metrics"]
        for name, entry in metrics.items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={metrics[n]['value']:.5g}" for n in ("setup_s", "queries_per_s", "rounds_per_s")),
            flush=True)

    flagged = 0
    print(f"\n{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in declared["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = m["name"] != "setup_s" and spread >= m["bound"] / 3
        flagged += flag
        print(f"{m['name']:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{m['bound']:6.3f}{'  <-- above bound/3' if flag else ''}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
