#!/usr/bin/env bash
# Tier-1 pin of the switch level: runs the full physical flow on c432
# (dlproj_judge --switch --vectors=256, the judge's "switch" row) and
# compares the SHA-256 of its detection table with
# data/golden/c432.switch.sha256.  Takes well under a second, so every
# push checks the switch-level verdicts, not only the full judge.
#
# Usage: scripts/check_switch_digest.sh path/to/dlproj_judge
# Exit status: 0 the digest matches, 1 it does not, 2 usage error.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -ne 1 ]; then
    echo "usage: $0 path/to/dlproj_judge" >&2
    exit 2
fi
want=$(cat "$root/data/golden/c432.switch.sha256")
got=$("$1" --switch --vectors=256 c432 | sha256sum | cut -d' ' -f1)
if [ "$got" != "$want" ]; then
    echo "c432 switch digest MISMATCH: pinned $want, current $got" >&2
    exit 1
fi
echo "c432 switch digest ok"
