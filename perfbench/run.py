#!/usr/bin/env python3
"""Wall-clock layer benchmark of the CoFHEE model (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the directory that holds
BENCHMARK.json and src/).  Builds perfbench/ (and with it the
cofhee library) into .bench_build/, runs one workload, checks that every
metric BENCHMARK.json names was measured, and prints the result as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (the
traced run writes .bench_build/traces/<workload>.json and reduces it with
reduce_trace.py).  The line before it carries the seed and the machine and
build stamp; the full record also goes to .bench_build/results/.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"

sys.path.insert(0, str(HERE))
import reduce_trace  # noqa: E402

# Per-layer metrics read from the trace: metric -> (span, statistic, scale
# from microseconds).  "median" is the median self time of one span, "mean"
# the mean, "per_request" the total self time divided by the "driver.request" spans
# around it, "per_op" the median self time per "ops" argument.  A span the
# workload never emits reads as 0: that layer is not on its path.
SPAN_METRICS = {
    "nt.barrett64_mul_ns": ("nt.barrett64_chain", "per_op", 1e3),
    "nt.barrett128_mul_ns": ("nt.barrett128_chain", "per_op", 1e3),
    "chip.ns_per_sim_cycle": ("chip.poly_mul", "per_op", 1e3),
    "chip.poly_mul_ms": ("chip.poly_mul", "median", 1e-3),
    "driver.prepare_ms": ("driver.prepare", "per_request", 1e-3),
    "driver.configure_ms": ("driver.configure", "per_request", 1e-3),
    "driver.load_ms": ("driver.load", "per_request", 1e-3),
    "driver.execute_ms": ("driver.execute", "per_request", 1e-3),
    "driver.read_ms": ("driver.read", "per_request", 1e-3),
    "driver.assemble_ms": ("driver.assemble", "per_request", 1e-3),
    "driver.relin_ms": ("driver.relin", "per_request", 1e-3),
    "bfv.sw_multiply_relin_ms": ("bfv.multiply_relin", "median", 1e-3),
    "service.prepare_ms": ("round.prepare", "median", 1e-3),
    "service.chip_stage_ms": ("round.chip_stage", "median", 1e-3),
    "service.stage_ms": ("stage", "median", 1e-3),
    "service.finish_ms": ("round.finish", "median", 1e-3),
    "service.placement_us": ("placement", "median", 1.0),
    "graph.compile_ms": ("graph.compile", "median", 1e-3),
    "graph.round_ms": ("graph.round", "mean", 1e-3),
    "net.encode_submit_us": ("net.encode_submit", "median", 1.0),
    "net.decode_submit_us": ("net.decode_submit", "median", 1.0),
    "net.encode_result_us": ("net.encode_result", "median", 1.0),
    "net.connect_ms": ("net.connect", "median", 1e-3),
    "net.scrape_ms": ("net.scrape", "median", 1e-3),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then (re)build; the build tree lives in the checkout."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no cofhee source tree to build")
    tree = BINARY.parent
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "w") as log:
        steps = []
        if not (tree / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(tree), "--target", "perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed, see {BUILD / 'build.log'}")


def span_metrics(trace_path):
    table = reduce_trace.summarize(reduce_trace.load(trace_path))
    requests = table.get("driver.request", {}).get("count", 0)
    out = {}
    for metric, (span, stat, scale) in SPAN_METRICS.items():
        s = table.get(span)
        if s is None:
            value = 0.0
        elif stat == "median":
            value = s["median_self_us"]
        elif stat == "mean":
            value = s["total_self_us"] / s["count"]
        elif stat == "per_op":
            value = s["median_self_us_per_op"]
        else:
            value = s["total_self_us"] / requests if requests else 0.0
        out[metric] = value * scale
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    t0 = time.monotonic()
    # A run may take 180 s, and the first run in a checkout 900 s, because it
    # builds; the workload gets what is left of that, minus a margin.
    limit = 175.0 if BINARY.exists() else 880.0
    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_path = BUILD / "traces" / f"{args.workload}.json"
    if args.trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_path)]
    budget = limit - (time.monotonic() - t0)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {budget:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {proc.returncode}")
    run = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in run["metrics"].items()}
    if args.trace:
        metrics.update(span_metrics(trace_path))

    result = {"correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"], "metrics": {}}
    for m in wanted:
        value = metrics.get(m["name"])
        if value is None or not math.isfinite(value):
            fail(f"{args.workload} did not measure {m['name']}")
        result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}

    record = dict(result, seed=args.seed, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, notes=run["notes"])
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"seed": args.seed, "notes": run["notes"]}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
