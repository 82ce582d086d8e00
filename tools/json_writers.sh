#!/usr/bin/env bash
# Print every library line that writes JSON by hand.
#
#   tools/json_writers.sh
#
# A library line is a non-test line of a `.rs` file under `crates/*/src`
# (from a file's first `#[cfg(test)]` line on it is test code, as in
# tools/loc.sh). It is printed as `file:line: text` when a string
# literal on it spells a JSON key: an escaped quote, a name, an escaped
# quote, a colon and a space (`\"name\": `). `crates/types/src/json.rs`,
# the one JSON writer, is exempt; `benchmark/` is not searched, since its
# reader, escaper and span writer are part of the benchmark. Output is
# empty when every report is built as an `idivm_types::Json` value; CI
# fails on any output.
set -euo pipefail

cd "$(dirname "$0")/.."

find crates -name target -prune -o -path 'crates/*/src/*' -name '*.rs' -print |
    grep -vxF crates/types/src/json.rs | sort | xargs awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && /\\"[A-Za-z_][A-Za-z0-9_]*\\": / { print FILENAME ":" FNR ": " $0 }
    '
