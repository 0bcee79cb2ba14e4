#!/usr/bin/env python3
"""Builds and runs the DBS3 engine benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds the engine libraries and the benchmark
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild incrementally. Build output goes
to build.log there, so the benchmark's own output is all that reaches
stdout: its last line is the JSON result. With --trace 1 the Chrome trace
lands in traces/<workload>.json under the build directory. Any further
flags (--perturb 1) are passed to the benchmark binary unchanged.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A benchmark run must finish within this many seconds of starting the
# binary; a hung run is killed and reported as a failure.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures (once) and builds every benchmark target into out_dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no engine sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", "4"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(step)} (log: {log_path})")


def run(argv, timeout_s):
    try:
        return subprocess.run(argv, cwd=ROOT, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout_s} s and was stopped")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness tests instead")
    args, passthrough = parser.parse_known_args()

    out_dir = build_dir()
    build(out_dir)
    if args.self_test:
        sys.exit(run([os.path.join(out_dir, "perfbench_harness_test")],
                     RUN_TIMEOUT_S))
    if not args.workload:
        fail("--workload is required")

    argv = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
            "--seed", args.seed, "--seconds", args.seconds,
            "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        # One file per workload: the latest traced run replaces the last.
        argv += ["--trace-out", os.path.join(traces, f"{args.workload}.json")]
    sys.exit(run(argv + passthrough, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
