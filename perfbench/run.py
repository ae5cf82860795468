#!/usr/bin/env python3
"""SplitFT benchmark: builds the benchmark binary (and the repository's src/
libraries) with CMake, runs one workload, checks its outputs, and prints one
JSON object as the last line of standard output.

    python3 perfbench/run.py --workload ycsb_a_kv --seed 1 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics named in BENCHMARK.json; --trace 1
reports the per-layer metrics. A traced run makes two passes of half the
work each, one untraced and one traced, and requires their virtual metrics
to be identical (the tracer must not perturb simulation state); the ratio
of their measured host times gives obs.tracing_overhead.

Every pass also records its virtual metrics under .bench_out/virt/; a later
run of the same binary with the same workload, seed and size must reproduce
them exactly.

Exit status: 0 when every check passed, 1 when an output check failed (the
JSON line is still printed), 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "splitft_perfbench")
# Every pass of one run must end well inside the 180 s a run may take.
RUN_BUDGET_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no SplitFT sources next to perfbench/ (expected src/CMakeLists.txt)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed: " + " ".join(step))


def run_pass(args, seconds, trace, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--out-dir", OUT_DIR]
    if args.small:
        cmd.append("--small")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        die("no time left for the %s pass" % ("traced" if trace else "untraced"))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        die("workload %s did not finish within the run budget" % args.workload)
    if proc.returncode != 0:
        die("workload %s exited with status %d" % (args.workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("workload %s printed no report" % args.workload)
    report = json.loads(lines[-1])
    with open(os.path.join(OUT_DIR, "last-%s-trace%d.json" %
                           (args.workload, int(trace))), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return report


def binary_digest():
    with open(BINARY, "rb") as f:
        return hashlib.sha1(f.read()).hexdigest()[:16]


def check_repeatable(args, seconds, virt, errors):
    """Virtual metrics must repeat exactly for the same binary, workload, seed
    and size."""
    key = "%s-%s-seed%d-s%s%s%s" % (binary_digest(), args.workload, args.seed,
                                    repr(seconds),
                                    "-small" if args.small else "",
                                    "-inject" if args.inject_mismatch else "")
    path = os.path.join(OUT_DIR, "virt", key + ".json")
    if os.path.isfile(path):
        with open(path) as f:
            earlier = json.load(f)
        differ = sorted(k for k in set(earlier) | set(virt)
                        if earlier.get(k) != virt.get(k))
        if differ:
            errors.append("virtual metrics differ from an earlier run with the "
                          "same seed: " + ", ".join(differ[:8]))
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(virt, f, indent=1, sort_keys=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="small data set and work (the benchmark's own tests)")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one oracle entry; the run must then fail")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        die("--seed must be >= 0 and --seconds in (0, 600]")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S

    errors = []
    if args.trace:
        seconds = args.seconds / 2
        plain = run_pass(args, seconds, False, deadline)
        traced = run_pass(args, seconds, True, deadline)
        if plain["virt"] != traced["virt"]:
            differ = sorted(k for k in set(plain["virt"]) | set(traced["virt"])
                            if plain["virt"].get(k) != traced["virt"].get(k))
            errors.append("tracing changed virtual metrics: " +
                          ", ".join(differ[:8]))
        passes = [plain, traced]
        values = {**traced["virt"], **traced["host"], **traced["traced"]}
        values["obs.tracing_overhead"] = (traced["host"]["measured_s"] /
                                          plain["host"]["measured_s"] - 1)
        metrics_spec = spec["per_layer"]
    else:
        seconds = args.seconds
        passes = [run_pass(args, seconds, False, deadline)]
        values = {**passes[0]["virt"], **passes[0]["host"]}
        metrics_spec = spec["end_to_end"]
    for p in passes:
        check_repeatable(args, seconds, p["virt"], errors)
        errors.extend(p["errors"])

    metrics = {}
    for m in metrics_spec:
        if m["name"] in values:
            value = values[m["name"]]
        elif args.trace:
            value = 0.0  # the layer is idle on this workload
        else:
            errors.append("workload did not report " + m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and not errors and attempted > 0
    for e in errors:
        print("perfbench: check failed: " + e, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
