#!/usr/bin/env sh
# Pins the CLI's command table from the outside: the usage text lists
# each command with its flags, every listed flag is accepted, an unknown
# flag or command exits 2 with an error line, `faults` advice mode
# refuses the flags only a configured run reads, and `faults` refuses an
# MTBF that is not positive. Usage:
#
#   command_table.sh <hepex-binary>
set -eu

hepex=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
tmp=${TMPDIR:-/tmp}/hepex_command_table_$$
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# 1. With no command, hepex prints the usage and exits 2.
rc=0
"$hepex" > "$tmp/usage.txt" 2> /dev/null || rc=$?
[ "$rc" -eq 2 ] || fail "bare hepex exited $rc, not 2"
for common in --scenario --jobs --log-level --profile; do
  grep -q -- "$common" "$tmp/usage.txt" ||
    fail "usage does not name the common flag $common"
done

# 2. Every usage row: "  NAME [OPERAND...]  help", then flag lines
#    indented by six spaces. One row per output line: "NAME OPERANDS|FLAGS".
awk '
  /^  [a-z]/ {
    if (row != "") print row
    head = substr($0, 3)
    sub(/  .*/, "", head)
    row = head "|"
    next
  }
  /^      --/ { row = row $0; next }
  END { if (row != "") print row }
' "$tmp/usage.txt" > "$tmp/rows.txt"
for kept in "advise" "simulate" "machines" "report" "report show FILE" \
            "workload show REF" "trace validate FILE..."; do
  grep -q "^$kept|" "$tmp/rows.txt" || fail "usage has no '$kept' row"
done
for gone in frontier recommend programs; do
  if grep -q "^$gone|" "$tmp/rows.txt"; then
    fail "usage still lists '$gone'"
  fi
done

# A listed flag sorts before --zz-unknown, so a rejected listed flag
# would be the one the error names; the run stops at the flag check.
walked=0
while IFS='|' read -r head flags; do
  words=""
  for w in $head; do
    case $w in
      [A-Z]*) words="$words x" ;;
      *) words="$words $w" ;;
    esac
  done
  for flag in "" $flags --scenario --jobs --log-level --profile; do
    rc=0
    # shellcheck disable=SC2086
    "$hepex" $words $flag --zz-unknown > /dev/null 2> "$tmp/err.txt" ||
      rc=$?
    if [ "$rc" -ne 2 ] ||
       [ "$(cat "$tmp/err.txt")" != "error: hepex: unknown flag --zz-unknown" ]; then
      echo "FAIL: hepex$words $flag --zz-unknown exited $rc with:" >&2
      cat "$tmp/err.txt" >&2
      exit 1
    fi
  done
  walked=$((walked + 1))
done < "$tmp/rows.txt"
[ "$walked" -gt 0 ] || fail "no usage rows were walked"

# 3. An unknown command says so, prints the usage and exits 2; the
#    deleted duplicates of advise and workload end this way.
for cmd in bogus frontier recommend programs; do
  rc=0
  "$hepex" "$cmd" > "$tmp/out.txt" 2> "$tmp/err.txt" || rc=$?
  [ "$rc" -eq 2 ] || fail "hepex $cmd exited $rc, not 2"
  [ "$(cat "$tmp/err.txt")" = "error: unknown command '$cmd'" ] ||
    fail "hepex $cmd printed '$(cat "$tmp/err.txt")' on stderr"
  cmp -s "$tmp/out.txt" "$tmp/usage.txt" ||
    fail "hepex $cmd did not print the usage"
done

# 4. faults advice mode (no configuration) refuses, naming the flag, what
#    it would otherwise ignore; no report file appears.
advice="--machine xeon --program SP --mtbf 86400"
for pair in "report f.json" "replicas 4" "crash-node 1" "crash-at 5" \
            "mode abort" "barrier-timeout 10" "spares 1" "fault-seed 3"; do
  set -- $pair
  rc=0
  # shellcheck disable=SC2086
  (cd "$tmp" && "$hepex" faults $advice "--$1" "$2") > /dev/null \
    2> "$tmp/err.txt" || rc=$?
  [ "$rc" -eq 2 ] || fail "faults advice with --$1 exited $rc, not 2"
  grep -q -- "--$1 needs a configuration" "$tmp/err.txt" ||
    fail "faults advice with --$1 said '$(cat "$tmp/err.txt")'"
done
[ ! -e "$tmp/f.json" ] || fail "faults advice wrote a report"

# 5. A given --mtbf must be > 0, in advice and in simulate mode; the
#    refusal names the flag and comes before any output.
for mode in "" "--class S --n 2 --c 2 --f 1.8GHz"; do
  for mtbf in "--mtbf 0" "--mtbf=-5"; do
    rc=0
    # shellcheck disable=SC2086
    "$hepex" faults --machine xeon --program SP $mode $mtbf \
      > "$tmp/out.txt" 2> "$tmp/err.txt" || rc=$?
    [ "$rc" -eq 2 ] || fail "faults $mode $mtbf exited $rc, not 2"
    [ "$(cat "$tmp/err.txt")" = "error: hepex: --mtbf must be > 0" ] ||
      fail "faults $mode $mtbf said '$(cat "$tmp/err.txt")'"
    [ ! -s "$tmp/out.txt" ] || fail "faults $mode $mtbf printed to stdout"
  done
done

# 6. trace gen reads no machine, so it accepts no --machine.
rc=0
"$hepex" trace gen --machine xeon > /dev/null 2> "$tmp/err.txt" || rc=$?
[ "$rc" -eq 2 ] && grep -q "unknown flag --machine" "$tmp/err.txt" ||
  fail "trace gen --machine was not rejected as an unknown flag"

echo "command table OK ($walked rows)"
