#!/usr/bin/env bash
# Profile one benchmark workload with the frame-pointer sampler.
#
#   tools/profile.sh [--children] [--traced] <workload> [seconds=10] [seed=7] [frame]
#
# Builds benchmark/ with `-C force-frame-pointers=yes` and line tables
# into its own target directory ($CARGO_TARGET_DIR, default
# target/profile; the normal builds are left alone), runs
#
#   idivm-benchmark --workload <workload> --seed <seed> --seconds <seconds> --trace 0
#
# in a temporary directory under tools/profile.py at about 1 kHz, and
# prints the self, inclusive and owner tables. With [frame] only the samples
# whose stack holds a function whose name contains it count, e.g.
#
#   tools/profile.sh firehose-multiview 10 7 IngestPipeline::poll
#
# and the script exits 1 when no sample landed under it. With
# --children (a frame is then required) the one table printed splits
# those samples by the function the outermost frame called, e.g.
#
#   tools/profile.sh --children firehose-multiview 1 7 ViewCatalog::register
#
# --traced runs the benchmark with --trace 1 instead, which adds the
# passes only the per-layer metrics run (tuple-IVM, SDBT, P = 2), e.g.
#
#   tools/profile.sh --traced engine-fig12 1 7 idivm_tuple::propagate
#
# It exits with the program's own status when the program fails.
# PROFILE_TOP sets the table length. The program's own output goes to stderr. x86-64 Linux,
# python3 and nm; the host must allow ptrace of a child process.
set -euo pipefail

under=--under
trace=0
while [ "${1:-}" = --children ] || [ "${1:-}" = --traced ]; do
    case $1 in
        --children) under=--children ;;
        --traced) trace=1 ;;
    esac
    shift
done
if [ $# -lt 1 ] || { [ $under = --children ] && [ $# -lt 4 ]; }; then
    sed -n '2,31p' "$0" >&2  # --children needs the frame
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
workload=$1
seconds=${2:-10}
seed=${3:-7}
frame=${4:-}
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/target/profile}
RUSTFLAGS="-C force-frame-pointers=yes -C debuginfo=line-tables-only" \
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
python3 "$root/tools/profile.py" --top "${PROFILE_TOP:-25}" \
    ${frame:+$under "$frame"} -- \
    "$CARGO_TARGET_DIR/release/idivm-benchmark" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace "$trace"
