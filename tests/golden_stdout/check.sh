#!/usr/bin/env bash
# Golden-stdout check: run one case from cases.txt and compare its
# filtered stdout and exit code with the recorded NAME.out.
#
#   tests/golden_stdout/check.sh BUILD_DIR NAME
#
# The host-dependent kernel-table report is filtered out: the
# "  kernels   :" line and the "; kernels <isa> (<source>)" suffix of a
# run report. Everything else must match byte for byte. The actual
# output is left in BUILD_DIR/golden_stdout/NAME.out; to re-record a
# case after an intended change, copy that file over the golden one.
set -euo pipefail

build=$1
name=$2
here=$(cd "$(dirname "$0")" && pwd)

line=$(grep -E "^${name} " "$here/cases.txt") || {
    echo "no case named $name in $here/cases.txt" >&2
    exit 2
}
read -r -a argv <<< "${line#"$name "}"

mkdir -p "$build/golden_stdout"
actual=$build/golden_stdout/$name.out
rc=0
"$build/${argv[0]}" "${argv[@]:1}" > "$actual.raw" || rc=$?
sed -e '/^  kernels   : /d' -e 's/; kernels [a-z0-9]* ([^)]*)//' \
    "$actual.raw" > "$actual"
rm -f "$actual.raw"
echo "exit: $rc" >> "$actual"

if ! diff -u "$here/$name.out" "$actual"; then
    echo "golden stdout mismatch for $name; re-record with:" >&2
    echo "  cp $actual $here/$name.out" >&2
    exit 1
fi
