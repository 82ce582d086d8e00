#!/usr/bin/env bash
# Count Rust lines the way ROADMAP item 6 asks: tests apart from code.
#
#   tools/loc.sh [file.rs ...]
#
# Prints one row per crate (every directory under the repository root
# that holds a Cargo.toml, `target/` excluded), one row per file named
# on the command line, and a total of the crate rows:
#
#   test      lines of files under a `tests/` or `benches/` directory,
#             and, in any other file, from the first `#[cfg(test)]` at
#             column 0 that a `mod` line follows (the test module) to
#             the end of the file; a `#[cfg(test)]` on a single item is
#             library code
#   non-test  every other line
#   code      non-test lines that are neither blank nor `//`-only
#             (`///` and `//!` doc comments are `//`-only)
#   pub fn    non-test lines that declare a `pub fn`
#
# Run from anywhere; paths on the command line are relative to the
# current directory.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)

# count <label> <file>... : one row of the table.
count() {
    local label=$1
    shift
    awk -v label="$label" '
        FNR == 1 { in_test = (FILENAME ~ /(^|\/)(tests|benches)\//); attr = 0 }
        # The attribute was counted as code; it opens the test module.
        attr && /^(pub(\([a-z]+\))? )?mod / { in_test = 1; plain--; code--; test++ }
        { attr = !in_test && /^#\[cfg\(test\)\]/ }
        in_test { test++; next }
        { plain++ }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { code++ }
        /^[[:space:]]*pub fn / { fns++ }
        END { printf "%-44s %8d %9d %7d %7d\n", label, test, plain, code, fns }
    ' "$@" /dev/null
}

printf "%-44s %8s %9s %7s %7s\n" "" test non-test code "pub fn"

all=()
while IFS= read -r manifest; do
    dir=$(dirname "$manifest")
    # A crate's files are the .rs files below it that no nested crate claims.
    mapfile -t files < <(
        find "$dir" -name target -prune -o -name '*.rs' -print | sort | while IFS= read -r f; do
            owner=$(dirname "$f")
            until [ -f "$owner/Cargo.toml" ]; do owner=$(dirname "$owner"); done
            [ "$owner" = "$dir" ] && printf '%s\n' "$f"
        done
    )
    [ ${#files[@]} -eq 0 ] && continue
    label=${dir#"$root"}
    count "${label:-/}" "${files[@]}"
    all+=("${files[@]}")
done < <(find "$root" -name target -prune -o -name Cargo.toml -print | sort)
count "total" "${all[@]}"

for f in "$@"; do
    count "$f" "$f"
done
