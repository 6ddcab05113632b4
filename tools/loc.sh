#!/usr/bin/env bash
# Code-line count for refactor line deltas: non-blank lines left after
# the compiler's preprocessor strips comments (includes and macros are
# kept, not expanded). Prints one "COUNT PATH" line per file and a
# total. A directory stands for every .cc/.hh/.inc file under it, in
# sorted order.
#
# Usage: tools/loc.sh PATH...     e.g. tools/loc.sh src
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 PATH..." >&2
    exit 2
fi

files=()
for p in "$@"; do
    if [ -d "$p" ]; then
        while IFS= read -r f; do
            files+=("$f")
        done < <(find "$p" -type f \( -name '*.cc' -o -name '*.hh' \
                      -o -name '*.inc' \) | LC_ALL=C sort)
    else
        files+=("$p")
    fi
done

total=0
for f in "${files[@]}"; do
    if [ ! -r "$f" ]; then
        echo "$0: cannot read $f" >&2
        exit 1
    fi
    # -fpreprocessed reads a stringizing '#' that starts a macro
    # continuation line as a bad directive and exits 1; it still prints
    # the rest of the file, so its status and diagnostics are ignored.
    code=$(g++ -x c++ -fpreprocessed -dD -E -P "$f" 2>/dev/null || true)
    # grep -c prints 0 but exits 1 on a file with no code lines.
    n=$(grep -cv '^\s*$' <<< "$code" || true)
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d total\n' "$total"
