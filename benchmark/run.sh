#!/usr/bin/env bash
# Build the benchmark, run every workload both ways (untraced, traced)
# for one seed, and keep the output: the full text and, one per line,
# the eight result objects BENCHMARK.json's contract describes.
#
#   benchmark/run.sh [seed] [--smoke] [--seconds <s>]
#   benchmark/run.sh agree [seed] [--smoke]     # the full set twice, compared
set -euo pipefail
cd "$(dirname "$0")/.."

command=run
if [ "${1:-}" = agree ]; then
    command=agree
    shift
fi
seed="${1:-1}"
[ $# -gt 0 ] && shift

manifest=benchmark/Cargo.toml
export DHS_BENCH_COMMIT="${DHS_BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
cargo build --release --offline --manifest-path "$manifest"

out="${CARGO_TARGET_DIR:-benchmark/target}/bench-out"
mkdir -p "$out"
status=0
cargo run --release --offline --manifest-path "$manifest" -- "$command" --seed "$seed" "$@" \
    | tee "$out/$command-$seed.txt" || status=$?
grep '^{' "$out/$command-$seed.txt" > "$out/$command-$seed.jsonl" || true
echo "results: $out/$command-$seed.txt and .jsonl" >&2
exit "$status"
