#!/usr/bin/env bash
# Header self-containment gate: every public header under src/ must compile
# standalone (a translation unit consisting of just that #include), so the
# layered includes stay honest — a header silently leaning on something its
# includer happened to pull in first breaks the next consumer. Registered as
# the `check_headers` ctest (see the top-level CMakeLists.txt).
#
#   ci/check_headers.sh [--cxx COMPILER]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

cxx="${CXX:-c++}"
if [[ "${1:-}" == "--cxx" && -n "${2:-}" ]]; then
  cxx="$2"
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# Coverage guard: every module expected to export headers must contribute at
# least one, so a glob or layout change can't silently shrink what the gate
# checks. New modules should be added here when they gain public headers.
expected_modules="sim trace rtos arch refine iss vocoder analysis explore obs fault parallel sys soak"
fail=0
for mod in $expected_modules; do
  if ! find "src/$mod" -name '*.hpp' -print -quit 2>/dev/null | grep -q .; then
    echo "check_headers: expected module src/$mod contributes no headers" >&2
    fail=1
  fi
done

# One compiler per header, $(nproc) at a time. Each header writes its own
# translation unit and error log (named after the header's path), so
# parallel runs never share a file and every failure keeps its own output.
check_one() {
  local header="$1" name
  name="${header//\//_}"
  printf '#include "%s"\n' "${header#src/}" > "$tmpdir/$name.cpp"
  if ! "$cxx" -std=c++20 -fsyntax-only -Wall -Wextra -Werror -I src \
       "$tmpdir/$name.cpp" 2> "$tmpdir/$name.err"; then
    touch "$tmpdir/$name.failed"
  fi
}
export -f check_one
export cxx tmpdir

find src -name '*.hpp' | sort > "$tmpdir/headers.txt"
xargs -P "$(nproc)" -I{} bash -c 'check_one "$1"' _ {} < "$tmpdir/headers.txt"

checked=0
while IFS= read -r header; do
  name="${header//\//_}"
  if [ -e "$tmpdir/$name.failed" ]; then
    echo "check_headers: $header is not self-contained:" >&2
    sed 's/^/  /' "$tmpdir/$name.err" >&2
    fail=1
  fi
  checked=$((checked + 1))
done < "$tmpdir/headers.txt"

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "check_headers: OK ($checked headers compile standalone)"
