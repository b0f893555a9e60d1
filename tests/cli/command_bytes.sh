#!/usr/bin/env sh
# Byte pin of the CLI commands no other test pins: each command's stdout
# (and, for advise and validate, the --report file without its host
# timing lines; for characterize, the whole --out file) on the Xeon
# cluster with SP and the ARM cluster with CP, both at class A, must
# match the committed transcript exactly. The run
# happens in a temporary directory so that printed paths are relative.
# Usage:
#
#   command_bytes.sh <hepex-binary> <golden-transcript> [--write]
#
# With --write the transcript is regenerated instead of compared.
set -eu

hepex=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
golden=$2
mode=${3:-}
tmp=${TMPDIR:-/tmp}/hepex_command_bytes_$$
mkdir -p "$tmp/run"
trap 'rm -rf "$tmp"' EXIT
out=$tmp/transcript.txt
: > "$out"

# Append `$ hepex ARGS`, the command's stdout and its exit status.
pin() {
  echo "\$ hepex $*" >> "$out"
  rc=0
  (cd "$tmp/run" && "$hepex" "$@") >> "$out" || rc=$?
  echo "[exit $rc]" >> "$out"
}

# Append a file the previous command wrote, byte for byte.
pin_file() {
  echo "--- $1" >> "$out"
  cat "$tmp/run/$1" >> "$out"
}

# Append a report file with the host timing lines stripped.
pin_report() {
  echo "--- $1 (host lines stripped)" >> "$out"
  grep -v '"wall_s"\|"events_per_host_s"' "$tmp/run/$1" >> "$out"
}

for target in "xeon SP" "arm CP"; do
  set -- $target
  run="--machine $1 --program $2 --class A"
  # shellcheck disable=SC2086
  pin advise $run --deadline 60 --budget 50kJ --report advise.json
  pin_report advise.json
  # shellcheck disable=SC2086
  pin netchar --machine "$1"
  # shellcheck disable=SC2086
  pin whatif $run --membw 2 --netbw 2
  # shellcheck disable=SC2086
  pin sensitivity $run
  # shellcheck disable=SC2086
  pin characterize $run --out ch.json
  pin_file ch.json
  pin predict --from ch.json --n 4 --c 4
  # shellcheck disable=SC2086
  pin report $run
  # shellcheck disable=SC2086
  pin scenario print $run
  # shellcheck disable=SC2086
  pin validate $run --report validate.json
  pin_report validate.json
  # shellcheck disable=SC2086
  pin faults $run --mtbf 86400
  pin workload show "$2"
done
pin netchar
pin machines

if [ "$mode" = "--write" ]; then
  cp "$out" "$golden"
  echo "transcript written: $golden"
  exit 0
fi
if ! cmp -s "$golden" "$out"; then
  echo "FAIL: CLI output differs from $golden:" >&2
  diff "$golden" "$out" >&2 || true
  exit 1
fi
echo "command bytes OK"
