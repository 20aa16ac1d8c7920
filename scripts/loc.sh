#!/usr/bin/env bash
# Non-test lines of Rust per crate, by the rule CHANGES.md uses for net LoC:
# a line counts when it is not blank, not a `//` comment (doc comments
# included), and comes before its file's first `#[cfg(test)]`. Every `.rs`
# file under `crates/<name>/src/` counts towards `<name>`, and every one under
# `vendor/<name>/src/` towards that vendored stand-in; the benchmark package
# under `crates/bench/src/bin/benchmark/` is counted on its own row.
#
# Usage: scripts/loc.sh [file...]
#   With no argument, prints one row per crate plus their total, one row per
#   vendored stand-in plus theirs, then the benchmark package.
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

# One row per package directory under $1 with a `src/`, then their total
# labelled $2.
packages() {
  local total=0 dir files n
  for dir in "$1"/*; do
    [ -d "$dir/src" ] || continue
    files=$(find "$dir/src" -name '*.rs' -not -path "$bench/*" | sort)
    [ -n "$files" ] || continue
    # shellcheck disable=SC2086
    n=$(count $files)
    printf '%6d  %s\n' "$n" "$dir"
    total=$((total + n))
  done
  printf '%6d  total (%s)\n' "$total" "$2"
}

packages crates "workspace crates"
packages vendor "vendored stand-ins"
# shellcheck disable=SC2046
printf '%6d  %s (own package, counted apart)\n' \
  "$(count $(find "$bench" -name '*.rs' -not -path '*/target/*' | sort))" "$bench/"
