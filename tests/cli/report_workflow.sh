#!/usr/bin/env sh
# End-to-end pin of the RunReport workflow: `--report` emits a
# schema-valid artifact whose virtual-time bytes are reproducible,
# `report show` renders it, `report diff` exits 0/1 with diff(1)
# semantics, and `report check` gates both file-vs-file and in rerun
# mode (re-simulating the embedded scenario). Usage:
#
#   report_workflow.sh <hepex-binary> <examples/scenarios-dir>
set -eu

hepex=$1
scenarios=$2
tmp=${TMPDIR:-/tmp}/hepex_report_$$
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

# 1. --report writes an artifact; twice over, everything but the `host`
#    section must be byte-identical (seeded simulator + canonical JSON).
"$hepex" simulate --scenario "$scenarios/perf_smoke.json" \
  --report "$tmp/a.json" > /dev/null
"$hepex" simulate --scenario "$scenarios/perf_smoke.json" \
  --report "$tmp/b.json" > /dev/null
grep -q '"schema": "hepex-run-report/1"' "$tmp/a.json" || {
  echo "FAIL: report is missing the schema marker" >&2
  exit 1
}
for f in a.json b.json; do
  grep -v '"wall_s"\|"events_per_host_s"' "$tmp/$f" > "$tmp/$f.nohost"
done
cmp "$tmp/a.json.nohost" "$tmp/b.json.nohost" || {
  echo "FAIL: virtual-time report bytes differ between identical runs" >&2
  exit 1
}

# 2. report show renders the artifact.
"$hepex" report show "$tmp/a.json" > "$tmp/show.txt"
grep -q "perf-smoke" "$tmp/show.txt" || {
  echo "FAIL: report show does not mention the scenario name" >&2
  exit 1
}

# 3. report diff: a report differs from itself in nothing (exit 0) and
#    from its sibling only in the host section (exit 1).
"$hepex" report diff "$tmp/a.json" "$tmp/a.json" > /dev/null || {
  echo "FAIL: diff of a report against itself exited nonzero" >&2
  exit 1
}
if "$hepex" report diff "$tmp/a.json" "$tmp/b.json" > "$tmp/diff.txt"; then
  # Exit 0 means even host timings matched — possible, nothing to check.
  :
else
  grep -q "host" "$tmp/diff.txt" || {
    echo "FAIL: diff reported non-host differences:" >&2
    cat "$tmp/diff.txt" >&2
    exit 1
  }
fi

# 4. report check, file-vs-file and rerun mode, must both pass.
"$hepex" report check "$tmp/a.json" --against "$tmp/b.json" \
  --skip-host > /dev/null || {
  echo "FAIL: report check --against a sibling run failed" >&2
  exit 1
}
"$hepex" report check "$tmp/a.json" --skip-host > /dev/null || {
  echo "FAIL: report check in rerun mode failed" >&2
  exit 1
}
# Rerun mode honors --jobs: the pinned width must still pass the gate
# (virtual-time results are identical at any pool width) and must not be
# rejected as an unknown flag.
"$hepex" report check "$tmp/a.json" --skip-host --jobs 2 > /dev/null || {
  echo "FAIL: report check rerun mode rejected or failed under --jobs 2" >&2
  exit 1
}

# 5. A faults report whose plan comes from flags embeds that plan, so
#    rerun mode replays the same degraded run from the artifact alone.
"$hepex" faults --machine xeon --program SP --class S --n 4 --c 4 \
  --f 1.8GHz --crash-node 1 --crash-at 0.05s --mode restart \
  --ckpt-interval 0.02s --ckpt-write 0.001s --restart-cost 0.01s \
  --report "$tmp/f.json" > /dev/null 2>&1
"$hepex" report check "$tmp/f.json" --skip-host > "$tmp/fcheck.txt" 2>&1 || {
  echo "FAIL: report check in rerun mode failed on a flag-layered faults report:" >&2
  cat "$tmp/fcheck.txt" >&2
  exit 1
}

# 6. A doctored baseline (results poked) must make check exit nonzero.
sed 's/"energy_j": \([0-9]\)/"energy_j": 9\1/' "$tmp/a.json" \
  > "$tmp/bad.json"
if "$hepex" report check "$tmp/bad.json" --against "$tmp/b.json" \
  --skip-host > /dev/null 2>&1; then
  echo "FAIL: report check passed a doctored baseline" >&2
  exit 1
fi

echo "report workflow OK"
