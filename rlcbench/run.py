#!/usr/bin/env python3
"""Repository benchmark entry point (see README.md in this directory).

    python3 rlcbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds this directory's CMake package (the rlcsim library from ../src, the
rlcbench binary, perfkit_report) into $CARGO_TARGET_DIR (default
.bench_build) under the repository root, then runs the binary with a clean
environment: no RLCSIM_* knobs, so one library thread is set through the
API and everything else is the library default.

--trace 0 relays the binary's end-to-end report. --trace 1 runs the traced
per-layer suite, digests its Chrome trace with perfkit_report, measures the
telemetry overhead with four extra processes of the binary (RLCSIM_METRICS=0 and
default, alternating) and prints the merged per-layer metrics. The last stdout line is
always the JSON result; the exit status is nonzero when a correctness check
failed, a call threw, or the build failed.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CALL_TIMEOUT_S = 170


def build(build_dir):
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            sys.exit(3)


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RLCSIM_")}
    env.update(extra)
    return env


def run(cmd, env):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: timed out: %s\n" % " ".join(cmd))
        sys.exit(4)
    return proc.returncode, proc.stdout.splitlines()


def probe_rate(binary, seed, metrics_off):
    env = clean_env(RLCSIM_METRICS="0") if metrics_off else clean_env()
    code, lines = run([binary, "--probe-metrics", "--seed", str(seed),
                       "--seconds", "1.5"], env)
    if code != 0 or not lines:
        sys.stderr.write("run.py: metrics probe failed\n")
        sys.exit(1)
    return json.loads(lines[-1])["work_per_s"]


def trace_coverage(build_dir, trace_file):
    report = os.path.join(build_dir, "perfkit_report")
    code, lines = run([report, trace_file, "--top", "40"], clean_env())
    for line in lines:
        print(line)
    match = next((re.search(r"coverage ([0-9.]+)% of wall", line)
                  for line in lines if "coverage" in line), None)
    if code != 0 or match is None:
        sys.stderr.write("run.py: perfkit_report failed on %s\n" % trace_file)
        sys.exit(1)
    return float(match.group(1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=20260101)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "rlcbench")
    build(build_dir)
    binary = os.path.join(build_dir, "rlcbench")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]

    if args.trace == 0:
        code, lines = run([binary] + common + ["--trace", "0"], clean_env())
        for line in lines:
            print(line)
        sys.exit(code)

    trace_file = os.path.join(build_dir, "trace_seed%d.json" % args.seed)
    code, lines = run([binary] + common + ["--trace", "1", "--trace-file",
                                           trace_file], clean_env())
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        if lines:
            print(lines[-1])
        sys.exit(code or 1)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    coverage = trace_coverage(build_dir, trace_file)
    # Telemetry overhead: same table1_transient calls with the OBS_*
    # instrumentation gated off (RLCSIM_METRICS=0) and at the default, in
    # off/on/on/off order so a linear drift of the host cancels.
    rates = {True: 0.0, False: 0.0}
    for metrics_off in (True, False, False, True):
        rates[metrics_off] += probe_rate(binary, args.seed, metrics_off) / 2
    rate_off, rate_on = rates[True], rates[False]
    metrics["obs.metrics_overhead_pct"] = {
        "value": 100.0 * (rate_off / rate_on - 1.0), "unit": "%"}
    metrics["obs.trace_coverage_pct"] = {"value": coverage, "unit": "%"}
    if coverage < 90.0:
        print("  check trace_coverage_ge_90 FAILED  %.1f%%" % coverage)
        result["correct"] = False
    print("  obs.metrics_overhead_pct %.3f %%  (work_per_s %.2f off / %.2f on)"
          % (metrics["obs.metrics_overhead_pct"]["value"], rate_off, rate_on))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
