#!/usr/bin/env python3
"""Build and run the agreement benchmark from the root of a source checkout.

    python3 agreebench/run.py --workload r2-burst-sim --seed 1 --seconds 30 --trace 0

Builds agreebench/ (an optimized build of the library sources plus the benchmark)
into .bench_build/, runs one workload and forwards the benchmark's output; the
last line is the JSON result. Extra options (--rate) pass through.
Exits nonzero, without a result line, if the build fails or the metrics
printed do not match BENCHMARK.json.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("agreebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(os.cpu_count() or 2)
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "agreebench"]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "agreebench")


def git_stamp():
    """(sha, dirty) of the checkout, or 'unknown' outside a git repository."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, cwd=HERE)
        status = subprocess.run(["git", "status", "--porcelain"],
                                capture_output=True, text=True, cwd=HERE)
    except OSError:
        return "unknown", "unknown"
    if sha.returncode or status.returncode:
        return "unknown", "unknown"
    return sha.stdout.strip(), "1" if status.stdout.strip() else "0"


def expected_metrics(trace):
    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    if not os.path.isdir(os.path.join(os.path.dirname(HERE), "src")):
        fail("run from a source checkout: ../src is missing")
    binary = build()
    sha, dirty = git_stamp()
    cmd = [binary] + args + ["--sock-dir", BUILD_DIR, "--git", sha, "--dirty", dirty]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result (exit %d)" % proc.returncode)
    if list(result["metrics"]) != expected_metrics(trace):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json")
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
