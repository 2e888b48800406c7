#!/usr/bin/env bash
# Reach census: list the functions defined in the src/ libraries that no
# shipped binary links in.
#
#   tools/reach_census.sh <scratch-build-dir>
#
# Builds every executable under bench/, tools/ and examples/, plus the
# perfbench runner, at -O0 with one section per function and
# --gc-sections, so a binary keeps exactly the functions its entry points
# reach. A global text symbol (nm type T) of a src/ static library that
# none of those binaries defines is unreached: only tests call it. The
# list goes to stdout, grouped by library, then a total line.
#
# Not a ctest: it rebuilds everything unoptimized (about two minutes on
# four cores). Point it at a directory outside the source tree.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <scratch-build-dir>" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mkdir -p "$1" && cd "$1" && pwd)
jobs=$(nproc 2>/dev/null || echo 2)
(( jobs > 4 )) && jobs=4

configure=(
  -DCMAKE_BUILD_TYPE=None
  "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

# Executable targets: the es_bench()/es_example() calls and the plain
# add_executable() ones of each directory.
targets_of() {
  sed -n 's/^\(es_bench\|es_example\|add_executable\)(\([A-Za-z0-9_]\+\).*/\2/p' \
    "$root/$1/CMakeLists.txt"
}

binaries=()
targets=()
for dir in bench tools examples; do
  for t in $(targets_of "$dir"); do
    targets+=("$t")
    binaries+=("$out/main/$dir/$t")
  done
done

{
  cmake -S "$root" -B "$out/main" "${configure[@]}"
  cmake --build "$out/main" -j "$jobs" --target "${targets[@]}"
  cmake -S "$root/perfbench" -B "$out/perfbench" "${configure[@]}"
  cmake --build "$out/perfbench" -j "$jobs" --target perfbench
} >&2
binaries+=("$out/perfbench/perfbench")

# "<address> <type> <demangled name>" -> name, for the given nm types.
symbols() {
  local types=$1
  shift
  nm -C --defined-only "$@" 2>/dev/null |
    awk -v types="$types" 'index(types, $2) > 0 && NF >= 3' | cut -d' ' -f3- | sort -u
}

symbols TtWw "${binaries[@]}" >"$out/reached.txt"

total=0
for lib in "$out"/main/src/*/libes_*.a; do
  unreached=$(symbols T "$lib" | comm -23 - "$out/reached.txt")
  [[ -z $unreached ]] && continue
  count=$(wc -l <<<"$unreached")
  total=$((total + count))
  echo "$(basename "$lib") ($count)"
  sed 's/^/  /' <<<"$unreached"
done
echo "unreached: $total of $(symbols T "$out"/main/src/*/libes_*.a | wc -l) src/ functions (${#binaries[@]} binaries)"
