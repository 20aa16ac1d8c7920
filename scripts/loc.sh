#!/usr/bin/env bash
# Non-test lines of Rust per crate, by the rule CHANGES.md uses for net LoC:
# a line counts when it is not blank, not a `//` comment (doc comments
# included), and comes before its file's first `#[cfg(test)]`. Every `.rs`
# file under `crates/<name>/src/` counts towards `<name>`; the benchmark
# package under `crates/bench/src/bin/benchmark/` is counted on its own row.
#
# Usage: scripts/loc.sh [file...]
#   With no argument, prints one row per crate plus the workspace total.
#   With files, prints one row per file plus their sum.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  awk '
    FNR == 1 { in_test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    in_test { next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }
  ' "$@"
}

if [ "$#" -gt 0 ]; then
  total=0
  for f in "$@"; do
    n=$(count "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
  done
  printf '%6d  total\n' "$total"
  exit 0
fi

bench=crates/bench/src/bin/benchmark
total=0
for dir in crates/*; do
  name=$(basename "$dir")
  [ -d "$dir/src" ] || continue
  files=$(find "$dir/src" -name '*.rs' -not -path "$bench/*" | sort)
  [ -n "$files" ] || continue
  # shellcheck disable=SC2086
  n=$(count $files)
  printf '%6d  crates/%s\n' "$n" "$name"
  total=$((total + n))
done
printf '%6d  total (workspace crates)\n' "$total"
# shellcheck disable=SC2046
printf '%6d  %s (own package, counted apart)\n' \
  "$(count $(find "$bench" -name '*.rs' -not -path '*/target/*' | sort))" "$bench/"
