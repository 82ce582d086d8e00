#!/usr/bin/env bash
# Print every library `pub fn` that nothing calls.
#
#   tools/dead_pub_fns.sh
#
# A library `pub fn` is one declared on a non-test line of a `.rs` file
# under `crates/*/src`, `shims/*/src` or `src/` (from a file's test
# module on it is test code, as in tools/loc.sh). Its name
# is printed when, as a whole word, it occurs exactly once in all the
# `.rs` files of the workspace and of `benchmark/src` together — at its
# own declaration. Output is one name per line, sorted, and empty when
# every `pub fn` is used; CI fails on any output.
set -euo pipefail

cd "$(dirname "$0")/.."

corpus() {
    find crates shims src tests examples benchmark/src -name target -prune -o -name '*.rs' -print
}

declared=$(
    corpus | grep -E '^((crates|shims)/[^/]+/)?src/' | xargs awk '
        FNR == 1 { in_test = 0; attr = 0 }
        attr && /^(pub(\([a-z]+\))? )?mod / { in_test = 1 }
        { attr = /^#\[cfg\(test\)\]/ }
        !in_test && /^[[:space:]]*pub fn / {
            sub(/^[[:space:]]*pub fn /, "")
            sub(/[^A-Za-z0-9_].*/, "")
            print
        }
    ' | sort -u
)

once=$(corpus | xargs grep -ohwE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c | awk '$1 == 1 { print $2 }' | sort)

comm -12 <(printf '%s\n' "$declared") <(printf '%s\n' "$once")
