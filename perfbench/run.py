#!/usr/bin/env python3
"""Decision-cycle benchmark entry point.

Builds the benchmark driver (and with it the library) from the sources
of the checkout it runs in, then runs one workload:

    python3 perfbench/run.py --workload cycle_steady --seed 1 \
        --seconds 20 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
the build context, every metric with its unit and sample count, and the
decision digest. `--workload all` runs every workload of
BENCHMARK.json in turn, one process each, and exits non-zero if any
failed. `--self-test` builds and runs the benchmark's own tests
instead. Run it from anywhere; everything it writes stays under
the checkout (.bench_build/, .bench_work/, .bench_results/).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
BUILD_TYPE = "RelWithDebInfo"

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(targets):
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die(f"no library sources: {needed} is missing from {ROOT}")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_logged(configure, BUILD_TIMEOUT_S):
            shutil.rmtree(BUILD, ignore_errors=True)
            die("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    for target in targets:
        cmd += ["--target", target]
    if not run_logged(cmd, BUILD_TIMEOUT_S):
        die("build failed")


def source_digest():
    """CRC32 over the library and benchmark sources (the checkout need
    not be a git repository)."""
    crc = 0
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                crc = zlib.crc32(os.path.relpath(path, ROOT).encode(), crc)
                with open(path, "rb") as f:
                    crc = zlib.crc32(f.read(), crc)
    return f"{crc:08x}"


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--scale", default="1")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build([])
        # The build tree also registers the repository's own tests
        # (never built here); run only the benchmark's.
        sys.exit(0 if run_logged(["ctest", "--test-dir", BUILD, "-R",
                                  "^perfbench_tests$",
                                  "--output-on-failure"], 1800) else 1)
    if not args.workload:
        die("--workload is required")
    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]

    build(["perfbench_driver"])
    os.makedirs(WORK, exist_ok=True)
    status = 0
    for workload in workloads:
        status = max(status, run_workload(workload, args))
    sys.exit(status)


def run_workload(workload, args):
    """One driver process for one workload; @return its exit code."""
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--scale", args.scale, "--work-dir", WORK]
    if args.trace == "1":
        os.makedirs(RESULTS, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            RESULTS, f"spans-{workload}-seed{args.seed}.json")]
    print(f"build commit={commit()} sources={source_digest()} "
          f"type={BUILD_TYPE}", flush=True)
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    main()
