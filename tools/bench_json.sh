#!/usr/bin/env bash
# Run the sim-kernel microbenchmarks plus the end-to-end functional
# benchmarks and emit a merged BENCH_sim.json summary for the
# performance trajectory across PRs.
#
# The record also holds the end-to-end metrics of every perfbench
# workload (checked, checked_bf16, sweep, serve): three runs each of
# `python3 perfbench/run.py --workload W --seed 1 --seconds 10
# --trace 0`, summarized as median/min/max of latency_p90_ms,
# peak_rss_mb and setup_s under "perfbench"."W", with the host and
# perfbench's build type. Given a parent checkout, its runs alternate
# with this tree's (so host drift hits both alike) and land beside
# them as the "before".
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
"$BUILD/bench_micro_sim" --benchmark_format=json --benchmark_min_time=0.5 \
    >"$RAW_MICRO" 2>/dev/null
"$BUILD/bench_functional" --benchmark_format=json --benchmark_min_time=0.5 \
    >"$RAW_FUNC" 2>/dev/null
"$BUILD/bench_serving" --benchmark_format=json --benchmark_min_time=0.5 \
    >"$RAW_SERVE" 2>/dev/null

# One "<workload> <tree> <run.py JSON line>" per run; run.py builds
# each tree's perfbench binary into that tree's .bench_build/ on first
# use.
for workload in checked checked_bf16 sweep serve; do
    for _ in 1 2 3; do
        for tree in change ${PARENT:+parent}; do
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
    },
    "events_per_second": {},
}
for raw in raws:
    for b in raw["benchmarks"]:
        entry = {"items_per_second": b.get("items_per_second"),
                 "cpu_time_ns": b.get("cpu_time")}
        if b.get("time_unit") == "ms":
            entry["cpu_time_ns"] = b.get("cpu_time", 0) * 1e6
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
        for counter in ("allocs_per_event", "allocs_per_chunk",
                        "allocs_per_tile", "p99_ticks", "p50_ticks",
                        "goodput_rps", "ticks"):
            if counter in b:
                entry[counter] = b[counter]
        out["events_per_second"][b["name"]] = entry


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
