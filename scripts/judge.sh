#!/usr/bin/env bash
# Golden-corpus judge: runs both fault-sim engines (the naive oracle and
# levelized) over the corpus circuits and compares the SHA-256 of each
# canonical detection table (tools/dlproj_judge) against the digests
# pinned under data/golden/.  The engines are bit-identical by contract,
# so both <circuit>.<engine>.sha256 pins for one circuit hold the *same*
# digest — an engine drifting from the other, or any semantic change to
# parsing/collapsing/simulation, fails the judge.
#
# The c432 switch-level table (dlproj_judge --switch: the full physical
# flow's realistic-fault verdicts) is judged as pseudo-engine "switch" —
# one digest, independent of the gate-level engine.
#
# Each run also writes BENCH_judge.json next to the cwd: per-(circuit,
# engine) wall seconds, so the judge doubles as the committed per-circuit
# perf trajectory.  Timing never enters any digest.
#
# Usage: scripts/judge.sh [--update] [--engine=NAME] [--rows=SET]
#                         [path/to/dlproj_judge]
#
#   --update        re-pin the digests from the current build instead of
#                   comparing (commit the diff under data/golden/)
#   --engine=NAME   judge only one engine (default: both; the
#                   switch-level table is judged regardless)
#   --rows=SET      judge `all` rows (the default) or the `push` rows:
#                   every row but the naive oracle's synth_* rows, which
#                   cost nearly all of the judge's time.  CI judges the
#                   push rows on every push and all rows on a schedule.
#
# Exit status: 0 all digests match, 1 any mismatch, 2 usage/build error.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)

update=0
only_engine=""
rows=all
BIN=""
for arg in "$@"; do
    case "$arg" in
        --update) update=1 ;;
        --engine=*) only_engine=${arg#--engine=} ;;
        --rows=all|--rows=push) rows=${arg#--rows=} ;;
        --*) echo "judge: unknown option $arg" >&2; exit 2 ;;
        *) BIN=$arg ;;
    esac
done
BIN=${BIN:-$root/build/tools/dlproj_judge}
case "$BIN" in /*) ;; *) BIN=$PWD/$BIN ;; esac
[ -x "$BIN" ] || { echo "judge: $BIN not built" >&2; exit 2; }
# The circuit argument is part of the digested table header, so fixture
# paths must be repo-relative for the pins to be machine-independent.
cd "$root"

# The corpus: builder circuits plus the synthetic .bench fixtures.
# Names must stay shell- and filename-safe.
corpus="c17 c432 adder3 parity4 synth_2k synth_5k synth_10k"
bench_for() {
    case "$1" in
        synth_*) echo "data/$1.bench" ;;
        *) echo "$1" ;;
    esac
}
# The synthetic fixtures get fewer vectors so the vector-serial naive
# oracle stays CI-friendly; the count is part of the digested bytes, so it
# is pinned along with the detection table.
vectors_for() {
    case "$1" in
        synth_2k) echo 256 ;;
        synth_5k) echo 16 ;;
        synth_10k) echo 4 ;;
        *) echo 1024 ;;
    esac
}

if [ -n "$only_engine" ]; then
    engines=$only_engine
else
    engines=$("$BIN" --list-engines)
fi

golden="$root/data/golden"
mkdir -p "$golden"

# Per-(circuit, engine) wall-millisecond rows for BENCH_judge.json.
bench_rows=""
now_ms() { date +%s%3N; }

fail=0
total=0
start=$(date +%s)

# one_digest <circuit> <pin-label> <cmd...>: digests stdout of <cmd...>,
# compares or re-pins $golden/<circuit>.<pin-label>.sha256, and records
# the timing row.
one_digest() {
    circuit=$1; label=$2; shift 2
    total=$((total + 1))
    t0=$(now_ms)
    digest=$("$@" | sha256sum | cut -d' ' -f1)
    t1=$(now_ms)
    [ -n "$bench_rows" ] && bench_rows="$bench_rows,
"
    bench_rows="$bench_rows    {\"circuit\": \"$circuit\", \"engine\": \"$label\", \"wall_ms\": $((t1 - t0))}"
    pin="$golden/$circuit.$label.sha256"
    if [ "$update" -eq 1 ]; then
        echo "$digest" > "$pin"
        echo "judge: pinned $circuit/$label $digest"
        return 0
    fi
    if [ ! -f "$pin" ]; then
        echo "judge: MISSING $pin (run scripts/judge.sh --update)" >&2
        fail=1
        return 0
    fi
    want=$(cat "$pin")
    if [ "$digest" = "$want" ]; then
        echo "judge: ok $circuit/$label"
    else
        echo "judge: MISMATCH $circuit/$label" >&2
        echo "  pinned  $want" >&2
        echo "  current $digest" >&2
        fail=1
    fi
}

# in_rows <circuit> <engine>: whether the row belongs to the --rows set.
in_rows() {
    case "$rows:$2:$1" in
        push:naive:synth_*) return 1 ;;
        *) return 0 ;;
    esac
}

for circuit in $corpus; do
    for engine in $engines; do
        in_rows "$circuit" "$engine" || continue
        one_digest "$circuit" "$engine" \
            "$BIN" --engine="$engine" \
            --vectors="$(vectors_for "$circuit")" \
            "$(bench_for "$circuit")"
    done
done

# Switch-level table: the full physical flow on c432 (engine-independent).
one_digest c432 switch "$BIN" --switch --vectors=256 c432

elapsed=$(($(date +%s) - start))

{
    echo "{"
    echo "  \"bench\": \"judge\","
    echo "  \"total_digests\": $total,"
    echo "  \"wall_s\": $elapsed,"
    echo "  \"circuits\": ["
    printf '%s\n' "$bench_rows"
    echo "  ]"
    echo "}"
} > BENCH_judge.json
echo "judge: wrote BENCH_judge.json"

[ "$update" -eq 1 ] && { echo "judge: pinned $total digests in ${elapsed}s"; exit 0; }
[ "$fail" -eq 0 ] || { echo "judge FAILED (${elapsed}s)" >&2; exit 1; }
echo "judge OK: $total digests matched in ${elapsed}s"
