#!/usr/bin/env python3
"""Build and run one workload of the HEPEX benchmark.

Run from the root of a HEPEX checkout:

    python3 perfbench/run.py --workload advise_cold --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/ (the library from src/,
hepexd from tools/, and the benchmark program) in Release under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed. The last line of standard output is the run's JSON result. The
remaining flags pin the settings BENCHMARK.json records; see README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("advise_cold", "simulate_1k", "service_mix")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configure (once) and build the benchmark; returns the build dir."""
    for needed in ("src/CMakeLists.txt", "tools/hepexd_main.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"missing {needed}: run from a HEPEX checkout", 2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "hepex_perfbench", "hepexd"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=4,
                    help="par pool width, in-process and in hepexd")
    ap.add_argument("--connections", type=int, default=4,
                    help="service_mix callers")
    ap.add_argument("--service-cpus", type=int, default=1,
                    help="CPUs hepexd and the service callers share")
    ap.add_argument("--executors", type=int, default=4)
    ap.add_argument("--queue", type=int, default=64)
    ap.add_argument("--rate-rps", type=float, default=500.0,
                    help="open-loop rate of the traced service run")
    ap.add_argument("--default-seed", type=int, default=1,
                    help="the seed whose outputs the committed data pins")
    ap.add_argument("--heldout-seed", type=int, default=2,
                    help="reserved for re-checking claims; never tuned on")
    ap.add_argument("--expected", default="",
                    help="data file replacing the committed one (self-test)")
    args = ap.parse_args()

    out = build()
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    if args.seed == args.heldout_seed:
        print("perfbench: running the held-out seed", file=sys.stderr)
    # Relative paths keep the daemon's Unix socket path short.
    cmd = [os.path.join(out, "hepex_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--jobs", str(args.jobs), "--connections", str(args.connections),
           "--service-cpus", str(args.service_cpus),
           "--executors", str(args.executors),
           "--queue", str(args.queue), "--rate-rps", repr(args.rate_rps),
           "--default-seed", str(args.default_seed),
           "--hepexd", os.path.join(out, "hepexd"),
           "--data", os.path.relpath(os.path.join(HERE, "data"), ROOT),
           "--work", os.path.relpath(work, ROOT)]
    if args.expected:
        cmd += ["--expected", args.expected]
    # Own process group, so a timeout also takes down the hepexd child.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited {proc.returncode}")
    json.loads(lines[-1])  # the result must be one JSON object
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
