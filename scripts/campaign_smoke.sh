#!/usr/bin/env bash
# Campaign smoke test, run by the `campaign_cli*` CTest entries and the CI
# campaign job.  Exercises the dlproj_campaign CLI end to end against a
# spec (default data/demo.campaign, a 12-cell grid; also
# data/clustered.campaign and data/axes.campaign) and asserts the cache
# and sharding guarantees that the campaign subsystem makes:
#   1. a cold run completes every cell (all misses);
#   2. a warm re-run is served 100% from the artifact cache and its
#      JSON/CSV reports are byte-identical to the cold run's;
#   3. merging the CSVs of a --shard=0/2 + --shard=1/2 fan-out (numeric
#      sort on the leading index column) reproduces the unsharded CSV
#      byte for byte;
#   4. the report bytes and every cache key match the pins in
#      data/golden/<spec file name>.{sha256,keys}: the SHA-256 of an
#      uncached `--json=- --csv=-` run, and the sorted object file names
#      (fnv1a64(key text)-kind) of the cold cached run.
#
# Usage: scripts/campaign_smoke.sh [path/to/dlproj_campaign [spec]]
set -eu
cd "$(dirname "$0")/.."

BIN=${1:-build/tools/dlproj_campaign}
SPEC=${2:-data/demo.campaign}
[ -x "$BIN" ] || { echo "campaign smoke: $BIN not built" >&2; exit 1; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cache="$work/cache"

stat_of() { # stat_of <key> <file>
    sed -n "s/^  \"$1\": \([0-9]*\),*\$/\1/p" "$2"
}

# --- 1. cold run -------------------------------------------------------
"$BIN" --quiet --cache-dir="$cache" --json="$work/cold.json" \
    --csv="$work/cold.csv" --stats="$work/cold.stats" "$SPEC"
cells=$(stat_of cells_selected "$work/cold.stats")
hits=$(stat_of cell_hits "$work/cold.stats")
[ "$cells" -gt 0 ] || { echo "campaign smoke: no cells ran" >&2; exit 1; }
[ "$hits" -eq 0 ] || {
    echo "campaign smoke: cold run hit the cache ($hits)" >&2; exit 1; }

# --- 2. warm run: all hits, byte-identical reports ---------------------
"$BIN" --quiet --cache-dir="$cache" --json="$work/warm.json" \
    --csv="$work/warm.csv" --stats="$work/warm.stats" "$SPEC"
hits=$(stat_of cell_hits "$work/warm.stats")
misses=$(stat_of cell_misses "$work/warm.stats")
[ "$hits" -eq "$cells" ] && [ "$misses" -eq 0 ] || {
    echo "campaign smoke: warm run not fully cached ($hits/$cells hits," \
         "$misses misses)" >&2; exit 1; }
cmp -s "$work/cold.json" "$work/warm.json" || {
    echo "campaign smoke: warm JSON differs from cold JSON" >&2; exit 1; }
cmp -s "$work/cold.csv" "$work/warm.csv" || {
    echo "campaign smoke: warm CSV differs from cold CSV" >&2; exit 1; }

# --- 3. sharded fan-out merges to the unsharded report -----------------
cache2="$work/cache2"
"$BIN" --quiet --cache-dir="$cache2" --shard=0/2 --json=/dev/null \
    --csv="$work/s0.csv" "$SPEC"
"$BIN" --quiet --cache-dir="$cache2" --shard=1/2 --json=/dev/null \
    --csv="$work/s1.csv" "$SPEC"
head -n 1 "$work/s0.csv" > "$work/merged.csv"
tail -n +2 -q "$work/s0.csv" "$work/s1.csv" | sort -t, -k1 -n \
    >> "$work/merged.csv"
cmp -s "$work/cold.csv" "$work/merged.csv" || {
    echo "campaign smoke: merged shard CSV differs from unsharded CSV" >&2
    diff "$work/cold.csv" "$work/merged.csv" >&2 || true
    exit 1; }

# --- 4. pinned report digest and cache keys ----------------------------
golden=data/golden/$(basename "$SPEC")
digest=$("$BIN" --quiet --no-cache --json=- --csv=- "$SPEC" | sha256sum |
         cut -d' ' -f1)
[ "$digest" = "$(cat "$golden.sha256")" ] || {
    echo "campaign smoke: report digest $digest differs from" \
         "$golden.sha256" >&2; exit 1; }
find "$cache/objects" -type f -printf '%f\n' | LC_ALL=C sort \
    > "$work/keys"
cmp -s "$golden.keys" "$work/keys" || {
    echo "campaign smoke: cache keys differ from $golden.keys" >&2
    diff "$golden.keys" "$work/keys" >&2 || true
    exit 1; }

echo "campaign smoke OK ($cells cells; warm run 100% cached;" \
     "2-way shard merge byte-identical; report and keys match the pins)"
