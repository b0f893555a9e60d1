#!/usr/bin/env sh
# Pins the scenario/flag equivalence contract (docs/scenarios.md): a run
# described by a scenario file and the same run spelled out in flags must
# produce byte-identical output, also when a flag is layered onto a
# synthetic-grid scenario. Usage:
#
#   scenario_equivalence.sh <hepex-binary> <examples/scenarios-dir>
set -eu

hepex=$1
scenarios=$2
tmp=${TMPDIR:-/tmp}/hepex_equiv_$$
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

# 1. Every shipped scenario must validate.
for f in "$scenarios"/*.json; do
  "$hepex" scenario validate --scenario "$f"
done

# 2. The acceptance flow: advise from the paper's Xeon scenario vs the
#    all-flags spelling of the same run.
"$hepex" advise --scenario "$scenarios/xeon.json" > "$tmp/from_scenario.txt"
"$hepex" advise --machine xeon --program SP --class A > "$tmp/from_flags.txt"
if ! cmp "$tmp/from_scenario.txt" "$tmp/from_flags.txt"; then
  echo "FAIL: advise --scenario differs from the flag-built equivalent" >&2
  diff -u "$tmp/from_scenario.txt" "$tmp/from_flags.txt" >&2 || true
  exit 1
fi

# 3. CLI flags override scenario fields (precedence contract): the ARM
#    scenario re-pointed at the Xeon machine equals the pure-flag run.
"$hepex" advise --scenario "$scenarios/arm.json" --machine xeon \
  --program SP > "$tmp/override.txt"
cmp "$tmp/override.txt" "$tmp/from_flags.txt" || {
  echo "FAIL: flag overrides on a scenario change the result" >&2
  exit 1
}

# 4. scenario print is a fixed point: printing a loaded scenario and
#    re-printing the printed one must agree byte-for-byte.
"$hepex" scenario print --scenario "$scenarios/faults.json" \
  --out "$tmp/once.json"
"$hepex" scenario print --scenario "$tmp/once.json" --out "$tmp/twice.json"
cmp "$tmp/once.json" "$tmp/twice.json" || {
  echo "FAIL: scenario print is not a save/load fixed point" >&2
  exit 1
}

# 5. --class layers onto a synthetic-grid scenario the way "class" in
#    the file does; --program cannot replace the grid and exits 2
#    naming workload.grid.
sed 's/"class": "A"/"class": "W"/' "$scenarios/synthetic_grid.json" \
  > "$tmp/grid_w.json"
grep -q '"class": "W"' "$tmp/grid_w.json" || {
  echo "FAIL: could not rewrite the grid scenario's class" >&2
  exit 1
}
"$hepex" advise --scenario "$scenarios/synthetic_grid.json" --class W \
  > "$tmp/grid_flag.txt"
"$hepex" advise --scenario "$tmp/grid_w.json" > "$tmp/grid_file.txt"
cmp "$tmp/grid_flag.txt" "$tmp/grid_file.txt" || {
  echo "FAIL: --class W on a grid scenario differs from \"class\": \"W\"" >&2
  diff -u "$tmp/grid_file.txt" "$tmp/grid_flag.txt" >&2 || true
  exit 1
}
rc=0
"$hepex" advise --scenario "$scenarios/synthetic_grid.json" --program LU \
  > "$tmp/grid_prog.txt" 2> "$tmp/grid_prog.err" || rc=$?
[ "$rc" -eq 2 ] && grep -q 'workload\.grid' "$tmp/grid_prog.err" || {
  echo "FAIL: --program on a grid scenario exited $rc without naming" \
    "workload.grid" >&2
  cat "$tmp/grid_prog.err" >&2
  exit 1
}

echo "scenario equivalence OK"
