#!/usr/bin/env sh
# Pins which input classes advise and validate answer. Class W is
# characterized on class S and answers on both clusters; class S has no
# smaller class, so it exits 2 before printing anything and the error
# names workload.class. Usage:
#
#   input_classes.sh <hepex-binary>
set -eu

hepex=$1
tmp=${TMPDIR:-/tmp}/hepex_input_classes_$$
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "FAIL: $*" >&2
  cat "$tmp/out.txt" "$tmp/err.txt" >&2
  exit 1
}

for target in "xeon SP" "arm CP"; do
  set -- $target
  run="--machine $1 --program $2"

  # shellcheck disable=SC2086
  "$hepex" advise $run --class W > "$tmp/out.txt" 2> "$tmp/err.txt" ||
    fail "advise $run --class W exited $?"
  grep -q "^advice for $2 (class W) on " "$tmp/out.txt" &&
    grep -q '^minimum energy: ' "$tmp/out.txt" ||
    fail "advise $run --class W printed no advice"

  # shellcheck disable=SC2086
  "$hepex" validate $run --class W > "$tmp/out.txt" 2> "$tmp/err.txt" ||
    fail "validate $run --class W exited $?"
  grep -q '^  time error  : mean ' "$tmp/out.txt" ||
    fail "validate $run --class W printed no errors"

  for cmd in advise validate; do
    rc=0
    # shellcheck disable=SC2086
    "$hepex" $cmd $run --class S > "$tmp/out.txt" 2> "$tmp/err.txt" ||
      rc=$?
    [ "$rc" -eq 2 ] || fail "$cmd $run --class S exited $rc, not 2"
    [ ! -s "$tmp/out.txt" ] || fail "$cmd $run --class S printed output"
    grep -q 'workload\.class' "$tmp/err.txt" ||
      fail "$cmd $run --class S did not name workload.class"
  done
done

echo "input classes OK"
