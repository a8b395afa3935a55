#!/usr/bin/env python3
"""System benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload paper_steady --seed 1 --seconds 20 --trace 0

Builds the simulator and the perfbench binary in Release (CMake, from
perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR/perfbench or
.bench_build/perfbench), runs its self-test, then one
benchmark run. Build output goes to stderr; the binary's standard
output is passed through, its last line being the JSON result. Exits
non-zero, without a result, when the build, the self-test or the run
fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
JOBS = "4"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", JOBS],
    ]
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if rc != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(os.path.join(target, "perfbench")))

    selftest = subprocess.run([binary, "selftest"], stdout=sys.stderr,
                              stderr=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        fail("self-test failed")

    cmd = [binary, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace]
    try:
        run = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
