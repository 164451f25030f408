#!/usr/bin/env bash
# Documentation lint, run by the `docs_check` CTest entry and the CI docs
# job.  Four checks:
#   1. every relative markdown link in the repo's *.md files points at a
#      file or directory that exists (external URLs and pure #anchors are
#      skipped, as are targets that don't look like paths);
#   2. docs/CONFIGURATION.md mentions every DLPROJ_* identifier that
#      appears in src/ or tools/ (the env.cpp helpers are called with the
#      variable name at the consuming site) — new knobs must be
#      documented to land;
#   3. every CLI flag a tool accepts (the "--flag" literals in its source,
#      which is also what its usage()/--help prints, plus the axis flags
#      dlproj_campaign takes from src/campaign/axes.cpp) appears in
#      docs/CONFIGURATION.md or the tool's own doc page;
#   4. the reverse of 2: every DLPROJ_* name docs/CONFIGURATION.md lists
#      still occurs in src/, tools/, scripts/ or a CMakeLists.txt (a
#      trailing _* is a prefix), so deleted knobs leave the docs too.
set -u
cd "$(dirname "$0")/.."

fail=0

# --- 1. relative link targets exist -----------------------------------
while IFS= read -r md; do
    dir=$(dirname "$md")
    # Extract the (target) of every [text](target) link in this file.
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        target=${target%%#*}          # drop an anchor fragment
        [ -n "$target" ] || continue
        # Heuristic: only validate plain path-looking targets.
        case "$target" in
            *[!A-Za-z0-9_./-]*) continue ;;
        esac
        case "$target" in
            */*|*.*) ;;               # has a slash or extension: a path
            *) continue ;;
        esac
        if [ ! -e "$dir/$target" ]; then
            echo "BROKEN LINK: $md -> $target"
            fail=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$md" | sed -e 's/^](//' -e 's/)$//')
done < <(find . -name '*.md' -not -path './build*' -not -path './.git/*')

# --- 2. every DLPROJ_* knob in src/ or tools/ is documented ------------
conf=docs/CONFIGURATION.md
if [ ! -f "$conf" ]; then
    echo "MISSING: $conf"
    fail=1
else
    while IFS= read -r knob; do
        if ! grep -q "$knob" "$conf"; then
            echo "UNDOCUMENTED KNOB: $knob (found in src/ or tools/," \
                 "absent from $conf)"
            fail=1
        fi
    done < <(grep -rhoE 'DLPROJ_[A-Z_]*[A-Z]' src tools | sort -u)
fi

# --- 3. every tool CLI flag is documented ------------------------------
# A tool's usage()/--help text and its argument parser both spell flags as
# "--name" string literals, so the literals are the full flag inventory.
# Each must appear in CONFIGURATION.md or the tool's own doc page.
doc_pages_for() {
    case "$1" in
        dlproj_lint)     echo "docs/LINT.md" ;;
        dlproj_client|dlproj_served) echo "docs/SERVICE.md" ;;
        dlproj_campaign) echo "docs/NDETECT.md" ;;
        *)               echo "" ;;
    esac
}
# dlproj_campaign's grid-axis flags are declared in the axis table.
flag_sources_for() {
    case "$1" in
        dlproj_campaign) echo "tools/$1.cpp src/campaign/axes.cpp" ;;
        *)               echo "tools/$1.cpp" ;;
    esac
}
if [ -f "$conf" ]; then
    for tool_src in tools/dlproj_*.cpp; do
        tool=$(basename "$tool_src" .cpp)
        pages="$conf $(doc_pages_for "$tool")"
        while IFS= read -r flag; do
            # shellcheck disable=SC2086
            if ! grep -qF -- "$flag" $pages; then
                echo "UNDOCUMENTED FLAG: $tool $flag (absent from $pages)"
                fail=1
            fi
        # shellcheck disable=SC2046
        done < <(grep -ohE '"--[a-z][a-z-]*' $(flag_sources_for "$tool") |
                 tr -d '"' | sort -u)
    done
fi

# --- 4. every documented DLPROJ_* name still exists ---------------------
if [ -f "$conf" ]; then
    mapfile -t cmake_lists < <(find . -name CMakeLists.txt \
        -not -path './build*' -not -path './.bench_build/*')
    while IFS= read -r name; do
        prefix=${name%_\*}
        if [ "$prefix" != "$name" ]; then
            grep -rqF -- "${prefix}_" src tools scripts "${cmake_lists[@]}"
        else
            grep -rqw -- "$name" src tools scripts "${cmake_lists[@]}"
        fi || {
            echo "STALE KNOB: $name (in $conf, absent from src/, tools/," \
                 "scripts/ and every CMakeLists.txt)"
            fail=1
        }
    done < <(grep -ohE 'DLPROJ_[A-Z0-9_]*[A-Z0-9*]' "$conf" | sort -u)
fi

if [ "$fail" -ne 0 ]; then
    echo "docs check FAILED"
    exit 1
fi
echo "docs check OK"
