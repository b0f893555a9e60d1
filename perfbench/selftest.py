#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

Run from the root of a HEPEX checkout:

    python3 perfbench/selftest.py

For advise_cold and simulate_1k it runs the default seed briefly twice:
once against the committed data, which must give failed == 0, and once
against a copy with the first entry doctored, which must surface as
failed > 0 and correct == false. Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build helpers)

CASES = {
    # workload: (committed file, index of the first pinned line)
    "advise_cold": ("advise_cold.digests", 0),
    "simulate_1k": ("simulate_1k.values", 1),
}


def doctor(src, dst, index):
    """Copy `src` to `dst` with the data line at `index` altered."""
    with open(src) as f:
        lines = f.read().splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    k = data[index]
    lines[k] = lines[k][:-1] + ("0" if lines[k][-1] != "0" else "1")
    with open(dst, "w") as f:
        f.write("\n".join(lines) + "\n")


def run_once(workload, expected=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    if expected:
        cmd += ["--expected", expected]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"selftest: {workload} run exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    build = run.build()
    ok = True
    for workload, (name, index) in CASES.items():
        clean = run_once(workload)
        doctored_path = os.path.join(build, "work", "doctored." + name)
        doctor(os.path.join(HERE, "data", name), doctored_path, index)
        bad = run_once(workload, os.path.relpath(doctored_path, ROOT))
        checks = [
            ("committed data passes", clean["failed"] == 0 and clean["correct"]),
            ("doctored entry is counted", bad["failed"] > 0),
            ("doctored run is not correct", not bad["correct"]),
        ]
        for what, held in checks:
            print(f"selftest: {workload}: {what}: {'ok' if held else 'FAILED'}")
            ok = ok and held
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
