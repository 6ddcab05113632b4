#!/usr/bin/env bash
# One-command tier-1 gate: configure, build, run the full test suite, and
# smoke-run the sim microbenchmarks. Exits nonzero on any failure.
#
# Usage: tools/smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
JOBS="$(nproc)"

cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

# Benchmarks must at least run (one fast rep; timing is bench_json.sh's job).
"$BUILD/bench_micro_sim" --benchmark_min_time=0 \
    --benchmark_filter='BM_EngineEventDispatch/1000$|BM_ChannelPingPong/1000$|BM_CoroResumeDispatch/1000$|BM_SameTickBurst/10000$|BM_ZeroDelayNowQueue/10000$' \
    >/dev/null 2>&1

# Chaos smoke (docs/robustness.md): two seeded fault schedules on the
# tiny functional model. Each run must terminate with a structured
# outcome — clean completion (0) or diagnosed fault (4), never a hang or
# a crash — and repeating the seed must reproduce the output verbatim.
for seed in 1 2; do
    for rep in a b; do
        rc=0
        "$BUILD/rsn-sim" --model tiny --functional --fault-seed "$seed" \
            >"$BUILD/chaos_${seed}_${rep}.out" 2>&1 || rc=$?
        if [ "$rc" -ne 0 ] && [ "$rc" -ne 4 ]; then
            echo "smoke: chaos seed $seed exited $rc (want 0 or 4)" >&2
            cat "$BUILD/chaos_${seed}_${rep}.out" >&2
            exit 1
        fi
    done
    if ! cmp -s "$BUILD/chaos_${seed}_a.out" "$BUILD/chaos_${seed}_b.out"; then
        echo "smoke: chaos seed $seed is not reproducible" >&2
        diff "$BUILD/chaos_${seed}_a.out" "$BUILD/chaos_${seed}_b.out" >&2
        exit 1
    fi
done

# Chaos-serving smoke (docs/robustness.md, "Serving under faults"): the
# fault-tolerant serving scheduler over two chaos seeds and three
# offered-load points. The printed reports are the determinism artifact:
# stdout must be byte-identical between --jobs 1 and --jobs 4 (load
# points merely move between worker lanes), and the run must drain —
# every request ok/retried/shed/timeout/faulted, never a hang (exit 0).
for seed in 1 2; do
    for jobs in 1 4; do
        if ! "$BUILD/rsn-serve" --load 10000,20000,40000 --requests 48 \
            --fault-seed "$seed" --seed "$seed" --deadline 2000000 \
            --jobs "$jobs" >"$BUILD/serve_${seed}_j${jobs}.out" 2>/dev/null
        then
            echo "smoke: chaos serving seed $seed jobs=$jobs failed" >&2
            cat "$BUILD/serve_${seed}_j${jobs}.out" >&2
            exit 1
        fi
    done
    if ! cmp -s "$BUILD/serve_${seed}_j1.out" "$BUILD/serve_${seed}_j4.out"; then
        echo "smoke: chaos serving seed $seed differs across --jobs" >&2
        diff "$BUILD/serve_${seed}_j1.out" "$BUILD/serve_${seed}_j4.out" >&2
        exit 1
    fi
done

echo "smoke: OK"
