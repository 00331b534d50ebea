#!/usr/bin/env python3
"""Build and run one benchmark workload, and print its result.

    python3 bench/suite/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/suite/run.py --smoke

Builds fhebench into .bench_build/ at the repository root (the first
run compiles the library), runs one workload in one process, and prints
as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, from a run whose last quarter is
traced and folded by report.py. Every run's full result is also kept in
.bench_build/results/ for `report.py compare`. --smoke builds and runs
`fhebench --smoke`.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"

sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing beside the sources
import report  # noqa: E402


def run(cmd, timeout, log=None):
    """Run cmd in its own process group; kill the whole group on
    timeout so no compiler or benchmark process outlives this script."""
    out = open(log, "w") if log else None
    try:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT
                                if out else None, start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    finally:
        if out:
            out.close()


def build():
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release",
         # Never fetch anything: the library's test dependency must
         # come from the system, as it does for the repository build.
         "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"],
        ["cmake", "--build", str(BUILD), "--target", "fhebench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        if run(cmd, timeout=800, log=log) != 0:
            sys.exit(f"build failed, see {log}")


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")

    build()
    exe = str(BUILD / "fhebench")
    if args.smoke:
        return run([exe, "--smoke"], timeout=170)

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = results / f"{stem}.json"
    trace_path = results / f"{stem}.trace.json"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", str(result_path)]
    if args.trace:
        cmd += ["--trace", str(trace_path)]
    result_path.unlink(missing_ok=True)
    code = run(cmd, timeout=args.seconds + 120)
    if code != 0 or not result_path.exists():
        sys.exit(f"fhebench exited with {code}")
    with open(result_path) as f:
        result = json.load(f)

    if args.trace:
        layers, _ = report.fold(trace_path)
        result["layers"].update(layers)
        with open(result_path, "w") as f:
            json.dump(result, f, indent=1)
        source, wanted = result["layers"], bench["per_layer"]
    else:
        source, wanted = result["metrics"], bench["end_to_end"]

    # A span kind the workload never enters spent no time; every other
    # metric must be reported.
    spans = [m["name"] for m in wanted if m["name"].startswith("trace.")
             and m["name"].endswith("_ms")]
    missing = [m["name"] for m in wanted
               if m["name"] not in source and m["name"] not in spans]
    if missing:
        sys.exit(f"fhebench did not report: {', '.join(missing)}")
    metrics = {}
    for m in wanted:
        value = source.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:40} {value:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
