#!/usr/bin/env bash
# Hold code to rustfmt without reformatting the files that predate this
# gate.
#
#   tools/fmt_check.sh
#
# Runs `cargo fmt --all -- --check` and fails when it reports a diff in
# a file that tools/fmt_exempt.txt does not list (one path per line,
# relative to the repository root), printing each such file. A listed
# file that has become clean fails the check too, so the list only
# shrinks: format an exempt file whole, then delete its line. Run from
# anywhere; exits 0 when both lists are empty.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

status=0
out=$(cargo fmt --all -- --check 2>&1) || status=$?
dirty=$(printf '%s\n' "$out" | sed -n "s|^Diff in $root/\(.*\):[0-9]*:\$|\1|p" | sort -u)
if [ "$status" -ne 0 ] && [ -z "$dirty" ]; then
    # Not a formatting diff (a parse error, a missing rustfmt): pass it on.
    printf '%s\n' "$out" >&2
    exit "$status"
fi

exempt=$(sort -u tools/fmt_exempt.txt)
unformatted=$(comm -23 <(printf '%s\n' "$dirty" | sed '/^$/d') <(printf '%s\n' "$exempt"))
clean=$(comm -13 <(printf '%s\n' "$dirty" | sed '/^$/d') <(printf '%s\n' "$exempt"))

if [ -n "$unformatted" ]; then
    echo "not formatted (\`rustfmt --edition 2021 --check <file>\` shows how):"
    printf '  %s\n' $unformatted
fi
if [ -n "$clean" ]; then
    echo "formatted, so delete from tools/fmt_exempt.txt:"
    printf '  %s\n' $clean
fi
[ -z "$unformatted" ] && [ -z "$clean" ]
