#!/usr/bin/env sh
# Linker dead-code audit: list the hepex:: library functions that no
# shipped binary links, and fail on any that tools/dead_code_allow.txt
# does not keep with a reason.
#
# Builds the CLI (hepex), hepexd, hepex_loadgen, every bench and every
# example in a separate Release tree compiled with -ffunction-sections
# and linked with --gc-sections, so each binary keeps only the functions
# it can reach. A function the hepex libraries define that ends up in
# none of those binaries is printed, demangled and sorted. Tests do not
# count as users. A function inlined into every caller has no symbol of
# its own either, so check each name before deleting it.
#
# Each listed function is matched by its qualified name without the
# parameter list against tools/dead_code_allow.txt. The audit exits 1
# when a listed name is not there, and notes allowlist entries the
# audit no longer lists (a compiler may inline differently).
#
# Usage: tools/dead_code_audit.sh [BUILD_DIR]
#   BUILD_DIR defaults to ${TMPDIR:-/tmp}/hepex_dead_code_audit. The
#   build log there (build.log) holds the linker's --print-gc-sections
#   output. JOBS sets the build parallelism (default 4).
set -eu

src=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-${TMPDIR:-/tmp}/hepex_dead_code_audit}
jobs=${JOBS:-4}
mkdir -p "$build"

cmake -S "$src" -B "$build" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections -Wl,--print-gc-sections" \
  > "$build/configure.log"

benches=$(sed -n 's/^hepex_add_bench(\(.*\))$/\1/p' "$src/bench/CMakeLists.txt")
examples=$(sed -n 's/^hepex_add_example(\(.*\))$/\1/p' \
  "$src/examples/CMakeLists.txt")
targets="hepex hepexd hepex_loadgen bench_perf_micro $benches $examples"
# shellcheck disable=SC2086  # one word per target
cmake --build "$build" -j "$jobs" --target $targets > "$build/build.log" 2>&1

# Function symbols (text, local text, weak) named in namespace hepex, with
# compiler clone suffixes dropped so a clone counts as its function.
functions() {
  nm -C --defined-only "$@" 2>/dev/null |
    awk '$2 == "T" || $2 == "t" || $2 == "W" {
           sub(/^[^ ]+ [^ ]+ /, ""); sub(/ \[clone [^]]*\]$/, ""); print }' |
    grep '^hepex::' | sort -u
}

binaries=""
for t in $targets; do
  bin=$(find "$build/tools" "$build/bench" "$build/examples" -type f \
    -name "$t" | head -n 1)
  [ -n "$bin" ] || { echo "dead_code_audit: $t was not built" >&2; exit 1; }
  binaries="$binaries $bin"
done
# shellcheck disable=SC2086
functions $binaries > "$build/linked.txt"
functions $(find "$build/src" -name 'libhepex_*.a') > "$build/defined.txt"

comm -23 "$build/defined.txt" "$build/linked.txt" > "$build/unlinked.txt"
echo "$(wc -l < "$build/unlinked.txt") of $(wc -l < "$build/defined.txt")" \
  "hepex:: library functions are in none of the" \
  "$(echo $targets | wc -w) shipped binaries:"
cat "$build/unlinked.txt"

# Qualified name of a demangled signature: drop a trailing " const" and
# ref-qualifier (" &", " &&"), an [abi:...] tag and the last balanced
# parameter list, so a name such as
# hepex::workload::(anonymous namespace)::Registry::add keeps its
# namespace parentheses.
names() {
  awk '{
    s = $0
    sub(/( const)?( &&| &)?$/, "", s)
    if (substr(s, length(s), 1) == ")") {
      d = 0
      for (i = length(s); i > 0; i--) {
        c = substr(s, i, 1)
        if (c == ")") d++
        else if (c == "(" && --d == 0) { s = substr(s, 1, i - 1); break }
      }
    }
    gsub(/\[abi:[^]]*\]/, "", s)
    print s
  }' "$1" | sort -u
}
names "$build/unlinked.txt" > "$build/unlinked_names.txt"
sed -n 's/^\(hepex::[^#]*[^ #]\) *#.*$/\1/p' "$src/tools/dead_code_allow.txt" |
  sort -u > "$build/allowed_names.txt"

stale=$(comm -13 "$build/unlinked_names.txt" "$build/allowed_names.txt")
if [ -n "$stale" ]; then
  echo "note: tools/dead_code_allow.txt keeps names this build links:"
  echo "$stale"
fi
unlisted=$(comm -23 "$build/unlinked_names.txt" "$build/allowed_names.txt")
if [ -n "$unlisted" ]; then
  echo "dead_code_audit: not in tools/dead_code_allow.txt (delete the" \
    "function, or keep it there with a reason):" >&2
  echo "$unlisted" >&2
  exit 1
fi
echo "dead_code_audit: every listed function is kept in" \
  "tools/dead_code_allow.txt"
