#!/bin/sh
# Run a driver on a configuration it must reject and check that it exits
# 3 and names the reason on exactly one "fatal:" line of stderr.
# Usage: fatal_once.sh BINARY ARGS...
err=$("$@" 2>&1 >/dev/null)
code=$?
lines=$(printf '%s\n' "$err" | grep -c '^fatal:')
if [ "$code" -ne 3 ] || [ "$lines" -ne 1 ]; then
    printf 'exit %s, %s fatal line(s); stderr:\n%s\n' "$code" "$lines" "$err"
    exit 1
fi
