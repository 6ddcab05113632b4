#!/usr/bin/env bash
# Run the sim-kernel microbenchmarks plus the end-to-end functional
# benchmarks and emit a merged BENCH_sim.json summary for the
# performance trajectory across PRs.
#
# Every google-benchmark series runs five repetitions; the record keeps
# the median of each value, plus the min and max of items_per_second,
# so a comparison can tell a change from the series' own noise
# (tools/bench_check.sh). "context"."build_type" is the build type of
# the google-benchmark library itself, as the library reports it; on a
# host whose only copy is a debug build it reads "debug", which slows
# the harness, not the code under test.
#
# The record also holds the end-to-end metrics of every perfbench
# workload (checked, checked_bf16, sweep, serve): three runs each of
# `python3 perfbench/run.py --workload W --seed 1 --seconds 10
# --trace 0`, summarized as median/min/max of latency_p90_ms,
# peak_rss_mb and setup_s under "perfbench"."W", with the host and
# perfbench's build type. Given a parent checkout, its runs alternate
# with this tree's, each tree leading every other round (so host drift
# hits both alike), and land beside them as the "before".
#
# Usage: tools/bench_json.sh [build-dir] [out-json] [parent-checkout]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
OUT="${2:-BENCH_sim.json}"
PARENT="${3:-}"
if [[ -n "$PARENT" && ! -f "$PARENT/perfbench/run.py" ]]; then
    echo "error: $PARENT has no perfbench/run.py" >&2
    exit 1
fi

for bin in bench_micro_sim bench_functional bench_serving; do
    if [[ ! -x "$BUILD/$bin" ]]; then
        echo "error: $BUILD/$bin not built (run tools/smoke.sh first)" >&2
        exit 1
    fi
done

RAW_MICRO="$(mktemp)"
RAW_FUNC="$(mktemp)"
RAW_SERVE="$(mktemp)"
RAW_PERF="$(mktemp)"
trap 'rm -f "$RAW_MICRO" "$RAW_FUNC" "$RAW_SERVE" "$RAW_PERF"' EXIT
REPS=5
for pair in "bench_micro_sim $RAW_MICRO" "bench_functional $RAW_FUNC" \
            "bench_serving $RAW_SERVE"; do
    read -r bin raw <<<"$pair"
    "$BUILD/$bin" --benchmark_format=json --benchmark_min_time=0.5 \
        --benchmark_repetitions="$REPS" >"$raw" 2>/dev/null
done

# One "<workload> <tree> <run.py JSON line>" per run; run.py builds
# each tree's perfbench binary into that tree's .bench_build/ on first
# use. With a parent, the order within a pair flips every round: with
# this tree always first, sweep read 9% worse on latency_p90_ms and
# 34% on setup_s, where 10 alternating pairs read no difference.
for workload in checked checked_bf16 sweep serve; do
    for round in 1 2 3; do
        order="change ${PARENT:+parent}"
        if [[ -n "$PARENT" ]] && (( round % 2 == 0 )); then
            order="parent change"
        fi
        for tree in $order; do
            dir=.
            [[ "$tree" == parent ]] && dir="$PARENT"
            line="$(cd "$dir" && python3 perfbench/run.py \
                --workload "$workload" --seed 1 --seconds 10 --trace 0 \
                2>/dev/null | tail -n 1)"
            echo "$workload $tree $line" >>"$RAW_PERF"
        done
    done
done

python3 - "$RAW_MICRO" "$RAW_FUNC" "$RAW_SERVE" "$RAW_PERF" "$OUT" <<'EOF'
import json
import os
import statistics
import sys

raws = [json.load(open(p)) for p in sys.argv[1:4]]
ctx = raws[0].get("context", {})
out = {
    "context": {
        "date": ctx.get("date"),
        "num_cpus": ctx.get("num_cpus"),
        "mhz_per_cpu": ctx.get("mhz_per_cpu"),
        "build_type": ctx.get("library_build_type"),
        "repetitions": max((b.get("repetitions", 1)
                            for raw in raws for b in raw["benchmarks"]),
                           default=1),
    },
    "events_per_second": {},
}


def median(vals):
    vals = [v for v in vals if v is not None]
    return statistics.median(vals) if vals else None


# The repetitions of one series, in order: google-benchmark's own
# aggregate rows (mean, median, stddev) are recomputed here instead.
series = {}
for raw in raws:
    for b in raw["benchmarks"]:
        if b.get("run_type", "iteration") == "iteration":
            series.setdefault(b.get("run_name", b["name"]), []).append(b)
for name, reps in series.items():
    b = reps[0]
    ips = [r.get("items_per_second") for r in reps]
    scale = 1e6 if b.get("time_unit") == "ms" else 1.0
    entry = {"items_per_second": median(ips),
             "cpu_time_ns": median(r.get("cpu_time", 0) * scale
                                   for r in reps)}
    if None not in ips:
        entry["items_per_second_min"] = min(ips)
        entry["items_per_second_max"] = max(ips)
    entry["repetitions"] = len(reps)
    # The benchmark's SetLabel is a space-separated token list. A
    # bare token is the runtime-selected ISA table ("avx512",
    # "scalar", ...) so the snapshot records which kernels produced
    # each series; the sweep-executor series (BM_SweepThroughput)
    # label their lane count as "jobs=N", the serving series their
    # offered load as "load=N" (both recorded as integers so the
    # scaling and goodput/latency curves are machine-readable), and
    # the typed-datapath series (ISSUE 10) carry their precision
    # policy as "dtype=bf16" alongside the ISA token.
    label = b.get("label")
    if label:
        for tok in label.split():
            if tok.startswith("jobs="):
                entry["jobs"] = int(tok[len("jobs="):])
            elif tok.startswith("load="):
                entry["offered_load"] = int(tok[len("load="):])
            elif tok.startswith("dtype="):
                entry["dtype"] = tok[len("dtype="):]
            else:
                entry["isa"] = tok
    # The *_ms counters are BM_CheckedTinyEncoder's per-phase host
    # times, ms per checked run; events_per_s and allocs_per_uop are
    # BM_TimingOnlyBertLarge's paper-scale engine rate and run-phase
    # heap allocations per issued uOP.
    for counter in ("allocs_per_event", "allocs_per_chunk",
                    "allocs_per_tile", "p99_ticks", "p50_ticks",
                    "goodput_rps", "ticks", "build_ms", "compile_ms",
                    "init_ms", "reference_ms", "run_ms", "verify_ms",
                    "events_per_s", "allocs_per_uop"):
        if counter in b:
            entry[counter] = median(r.get(counter) for r in reps)
    out["events_per_second"][name] = entry


def field(path, prefix, sep):
    """The value after @sep on @path's first line starting @prefix."""
    try:
        for line in open(path):
            if line.startswith(prefix):
                return line.split(sep, 1)[1].strip()
    except OSError:
        pass
    return None


runs = {}
for line in open(sys.argv[4]):
    workload, tree, result = line.strip().split(" ", 2)
    res = json.loads(result)
    if not res["correct"] or res["failed"]:
        sys.exit(f"perfbench {workload} failed in the {tree} tree: "
                 f"{result}")
    runs.setdefault(workload, {}).setdefault(tree, []).append(
        res["metrics"])
perf = {
    "command": "python3 perfbench/run.py --workload W --seed 1 "
               "--seconds 10 --trace 0",
    "host": {"cpu": field("/proc/cpuinfo", "model name", ":"),
             "num_cpus": os.cpu_count()},
    "build_type": field(".bench_build/CMakeCache.txt",
                        "CMAKE_BUILD_TYPE:", "="),
}
for workload, trees in runs.items():
    perf[workload] = {}
    for tree, samples in trees.items():
        perf[workload][tree] = {}
        for metric in ("latency_p90_ms", "peak_rss_mb", "setup_s"):
            vals = [s[metric]["value"] for s in samples]
            perf[workload][tree][metric] = {
                "median": statistics.median(vals), "min": min(vals),
                "max": max(vals), "runs": len(vals)}
out["perfbench"] = perf
json.dump(out, open(sys.argv[-1], "w"), indent=2)
print(f"wrote {sys.argv[-1]}")
EOF
