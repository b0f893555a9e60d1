#!/usr/bin/env sh
# Pins that `hepex advise --budget J` answers, and answers what
# `hepex recommend --budget J` answers: the fastest configuration whose
# energy fits the budget, or a plain "no configuration" line. Usage:
#
#   advise_budget.sh <hepex-binary>
set -eu

hepex=$1
tmp=${TMPDIR:-/tmp}/hepex_budget_$$
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

run="--machine xeon --program SP --class A"

# 1. A feasible budget: advise prints the recommend answer's configuration.
# shellcheck disable=SC2086
"$hepex" advise $run --budget 50kJ > "$tmp/advise.txt"
# shellcheck disable=SC2086
"$hepex" recommend $run --budget 50kJ > "$tmp/recommend.txt"
want=$(sed -n 's/^budget 50000 J -> \([^:]*\):.*/\1/p' "$tmp/recommend.txt")
got=$(sed -n 's/^budget 50000 J: \(([^)]*)\) .*/\1/p' "$tmp/advise.txt")
if [ -z "$want" ] || [ "$got" != "$want" ]; then
  echo "FAIL: advise --budget answered '$got', recommend answered '$want'" >&2
  cat "$tmp/advise.txt" "$tmp/recommend.txt" >&2
  exit 1
fi

# 2. An infeasible budget is answered, not ignored.
# shellcheck disable=SC2086
"$hepex" advise $run --budget 1J > "$tmp/none.txt"
grep -q '^budget 1 J: no configuration fits it$' "$tmp/none.txt" || {
  echo "FAIL: advise --budget 1J did not report an infeasible budget" >&2
  cat "$tmp/none.txt" >&2
  exit 1
}

echo "advise budget OK"
