#!/usr/bin/env sh
# Pins that `hepex advise --budget J --deadline S` answers from the
# frontier table the same run prints: the budget picks the fastest row
# whose energy fits it, the deadline the least-energy row that meets it,
# an infeasible budget or deadline gets a plain "no configuration" line,
# and an invalid one is rejected (exit 2) before anything is printed or
# written. Usage:
#
#   advise_budget.sh <hepex-binary>
set -eu

hepex=$1
tmp=${TMPDIR:-/tmp}/hepex_budget_$$
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

run="--machine xeon --program SP --class A"

# pick FILTER KEY LIMIT: the configuration of the printed frontier row
# ("| (n,c,f) | time [s] | energy [kJ] | UCR |") with the lowest KEY
# (time or energy) among the rows whose FILTER (energy in J, or time in
# s) is within LIMIT.
pick() {
  awk -F'|' -v filter="$1" -v key="$2" -v limit="$3" '
    $2 ~ /^ \([0-9]/ {
      t = $3 + 0; e = $4 + 0
      ok = (filter == "energy") ? (e * 1000 <= limit) : (t <= limit)
      v = (key == "time") ? t : e
      if (ok && (best == "" || v < bestv)) { best = $2; bestv = v }
    }
    END { gsub(/ /, "", best); print best }
  ' "$tmp/advise.txt"
}

check() {
  budget_j=$1
  deadline_s=$2
  # shellcheck disable=SC2086
  "$hepex" advise $run --budget "${budget_j}J" --deadline "$deadline_s" \
    > "$tmp/advise.txt"
  want_b=$(pick energy time "$budget_j")
  got_b=$(sed -n "s/^budget $budget_j J: \(([^)]*)\) .*/\1/p" \
    "$tmp/advise.txt")
  want_d=$(pick time energy "$deadline_s")
  got_d=$(sed -n "s/^deadline $deadline_s\.0 s: \(([^)]*)\) .*/\1/p" \
    "$tmp/advise.txt")
  if [ -z "$want_b" ] || [ "$got_b" != "$want_b" ] ||
     [ -z "$want_d" ] || [ "$got_d" != "$want_d" ]; then
    echo "FAIL: budget $budget_j J answered '$got_b', table says" \
         "'$want_b'; deadline $deadline_s s answered '$got_d'," \
         "table says '$want_d'" >&2
    cat "$tmp/advise.txt" >&2
    exit 1
  fi
}

# 1. Feasible budgets and deadlines agree with the printed frontier.
check 50000 60
check 10000 15
check 7500 25

# 2. An infeasible budget and deadline are answered, not ignored; advise
#    still exits 0.
# shellcheck disable=SC2086
"$hepex" advise $run --budget 1J --deadline 1 > "$tmp/none.txt"
grep -q '^budget 1 J: no configuration fits it$' "$tmp/none.txt" &&
  grep -q '^deadline 1\.0 s: no configuration meets it$' "$tmp/none.txt" || {
  echo "FAIL: advise did not report an infeasible budget and deadline" >&2
  cat "$tmp/none.txt" >&2
  exit 1
}

# 3. A non-positive or NaN deadline or budget exits 2 with nothing on
#    stdout and no --report file.
for flag in --deadline=0 --deadline=-5 --deadline=nan --budget=0 \
            --budget=-1J; do
  rm -f "$tmp/bad.json"
  rc=0
  # shellcheck disable=SC2086
  "$hepex" advise $run "$flag" --report "$tmp/bad.json" \
    > "$tmp/bad.txt" 2> "$tmp/bad.err" || rc=$?
  if [ "$rc" -ne 2 ] || [ -s "$tmp/bad.txt" ] || [ -e "$tmp/bad.json" ]; then
    echo "FAIL: advise $flag exited $rc (want 2), printed" \
         "$(wc -l < "$tmp/bad.txt") stdout lines (want 0), report" \
         "file $([ -e "$tmp/bad.json" ] && echo written || echo absent)" >&2
    cat "$tmp/bad.err" >&2
    exit 1
  fi
done

echo "advise budget OK"
