#!/usr/bin/env bash
# Refreshes BENCH_faultsim.json (written to the repo root) via the
# perf_faultsim harness: one row per (engine, circuit) over the synthetic
# corpus with items/s, plus levelized_vs_naive — the items/s ratio of the
# levelized engine over the naive oracle on c432.  The acceptance bar is
# levelized_vs_naive >= MIN_RATIO; this script enforces it so CI catches
# a regression.  MIN_RATIO is half the lowest of three measured runs
# (CHANGES.md records the measurements).
#
# Usage: scripts/bench_faultsim.sh [path/to/perf_faultsim]
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
MIN_RATIO=499.95

BIN=${1:-$root/build/bench/perf_faultsim}
[ -x "$BIN" ] || { echo "bench_faultsim: $BIN not built" >&2; exit 1; }

# The registered google-benchmarks are the interactive view; the JSON
# emitter runs after them regardless of the filter, so skip them here.
cd "$root"
"$BIN" --benchmark_filter='^$' >/dev/null

[ -f BENCH_faultsim.json ] || {
    echo "bench_faultsim: BENCH_faultsim.json not written" >&2; exit 1; }

ratio=$(sed -n 's/.*"levelized_vs_naive": \([0-9.]*\).*/\1/p' \
    BENCH_faultsim.json)
[ -n "$ratio" ] || {
    echo "bench_faultsim: no levelized_vs_naive in BENCH_faultsim.json" >&2
    exit 1
}

# The emitter writes one engine row per line, so line-oriented tools
# suffice.
grep -E '"(engine|circuit)"' BENCH_faultsim.json || true
awk -v r="$ratio" -v m="$MIN_RATIO" 'BEGIN { exit !(r >= m) }' || {
    echo "bench_faultsim: levelized ${ratio}x naive on c432 < ${MIN_RATIO}x" >&2
    exit 1
}
echo "bench_faultsim OK (levelized ${ratio}x naive on c432)"
