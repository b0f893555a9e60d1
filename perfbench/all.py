#!/usr/bin/env python3
"""Run every workload of the HEPEX benchmark and print a metric table.

Run from the root of a HEPEX checkout:

    python3 perfbench/all.py [--seed N] [--seconds S] [--no-trace]

For each workload it makes an untraced run (end-to-end metrics) and a
traced run (per-layer metrics) through perfbench/run.py with the settings
BENCHMARK.json records, then prints every metric with its unit, the ops
attempted and failed, and exits 1 if any run failed a check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the recorded default seed)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: run_seconds)")
    ap.add_argument("--no-trace", action="store_true",
                    help="skip the traced (per-layer) runs")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    seed = args.seed
    if seed is None:
        seed = int(command[command.index("--default-seed") + 1])

    ok = True
    for w in bench["workloads"]:
        for trace in ((0,) if args.no_trace else (0, 1)):
            cmd = command + ["--workload", w["name"], "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w['name']} trace={trace}: run failed "
                      f"(exit {out.returncode})")
                ok = False
                continue
            r = json.loads(lines[-1])
            ok = ok and r["correct"] and r["failed"] == 0
            print(f"{w['name']} trace={trace}: correct={r['correct']} "
                  f"ops={r['attempted']} ops_failed={r['failed']}")
            for name, m in r["metrics"].items():
                print(f"  {name:30s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
