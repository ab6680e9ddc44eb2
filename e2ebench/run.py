#!/usr/bin/env python3
"""End-to-end benchmark of the GES simulator.

    python3 e2ebench/run.py --workload search_sync --seed 1 --seconds 10 --trace 0

Builds the library and the benchmark driver from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs the arithmetic self-test, then one
run of the workload. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json with every
tracing switch off. --trace 1 runs the workload twice, untraced and then
traced, checks that both runs leave the same behaviour checksum, and
reports the per-layer metrics of BENCHMARK.json, including the tracing
overhead. Any failed check exits non-zero without printing metrics.
See e2ebench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search_sync", "search_async_zipf", "churn_maintenance")
# One driver process may take this long; a run makes at most two.
PROCESS_TIMEOUT_S = 85


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def call(argv, timeout=None):
    """Runs argv with its output on stderr; raises on failure."""
    try:
        done = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise BenchError(f"{argv[0]}: {err}") from err
    if done.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited with {done.returncode}")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to e2ebench/")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    call(["cmake", "--build", bdir, "-j", jobs])
    call([os.path.join(bdir, "e2e_selftest")], timeout=60)


def drive(bdir, args, traced, spans_out=None):
    """One driver process; returns (report lines, result object)."""
    argv = [os.path.join(bdir, "ges_e2e"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "1" if traced else "0"]
    if spans_out:
        argv += ["--spans-out", spans_out]
    try:
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"driver exceeded {PROCESS_TIMEOUT_S} s") from err
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise BenchError(f"driver exited with {done.returncode} (traced={int(traced)})")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError) as err:
        raise BenchError(f"driver printed no result line: {err}") from err
    return lines[:-1], result


def check_metrics(metrics, declared):
    """The reported metrics must be exactly the declared ones, finite."""
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        raise BenchError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, entry in metrics.items():
        if entry["unit"] != want[name]:
            raise BenchError(f"{name}: unit {entry['unit']} != declared {want[name]}")
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            raise BenchError(f"{name}: value {entry['value']!r} is not a finite number")


def traced_overhead_pct(traced_wall_s, untraced_wall_s):
    return (traced_wall_s - untraced_wall_s) / untraced_wall_s * 100.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            declared = json.load(f)
        bdir = build_dir()
        build(bdir)
        lines, untraced = drive(bdir, args, traced=False)
        if args.trace == 0:
            out = untraced
            check_metrics(out["metrics"], declared["end_to_end"])
        else:
            spans_dir = os.path.join(bdir, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans_out = os.path.join(spans_dir, f"{args.workload}-{args.seed}.json")
            lines, out = drive(bdir, args, traced=True, spans_out=spans_out)
            if out["checksum"] != untraced["checksum"]:
                raise BenchError(f"behaviour checksum differs: traced {out['checksum']}, "
                                 f"untraced {untraced['checksum']}")
            overhead = traced_overhead_pct(out["measured_wall_s"], untraced["measured_wall_s"])
            out["metrics"]["obs.traced_overhead_pct"] = {"value": overhead, "unit": "%"}
            lines.append(f"traced checksum equals untraced; spans written to {spans_out}")
            check_metrics(out["metrics"], declared["per_layer"])
    except (BenchError, OSError, KeyError, ValueError) as err:
        log(f"e2ebench: error: {err}")
        return 1

    for line in lines:
        print(line)
    print(json.dumps({"correct": bool(out["correct"]), "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
