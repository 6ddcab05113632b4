#!/usr/bin/env bash
# Benchmark regression check: run the sim-kernel microbenchmarks and
# compare items/sec against the committed BENCH_sim.json snapshot.
#
# Reports a per-benchmark delta table over the UNION of baseline and
# current benchmark names — added benchmarks are listed explicitly with
# their fresh numbers (and remind you to refresh the snapshot), removed
# benchmarks are treated as failures unless ALLOW_REMOVED=1 (silently
# losing perf coverage is itself a regression). Alloc-per-item counters
# are compared exactly: a path that was allocation-free in the snapshot
# must stay allocation-free.
#
# Both records hold the median of five repetitions per series, with the
# min and max of items/sec (tools/bench_json.sh). A benchmark regresses
# when its current median falls below the committed median by more than
# the noise band: the wider relative spread, (max - min) / median, of
# the two records, and never less than 1 - TOLERANCE (default 0.70,
# i.e. a 30% band — wide enough for noisy CI runners, tight enough to
# catch real hot-path regressions). A baseline without min/max counts
# as spread 0. Exits nonzero on any regression; the CI job wiring is
# non-blocking (continue-on-error), so this shows up as a visible red
# mark without gating the merge.
#
# Usage: tools/bench_check.sh [build-dir] [baseline-json]
#   TOLERANCE=0.9 tools/bench_check.sh    # a 10% band floor
#   ALLOW_REMOVED=1 tools/bench_check.sh  # renamed/removed is expected
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
BASELINE="${2:-BENCH_sim.json}"
TOLERANCE="${TOLERANCE:-0.70}"
ALLOW_REMOVED="${ALLOW_REMOVED:-0}"

if [[ ! -f "$BASELINE" ]]; then
    echo "error: baseline $BASELINE not found" >&2
    exit 2
fi

if [[ ! -x "$BUILD/bench_micro_sim" || ! -x "$BUILD/bench_functional" ||
      ! -x "$BUILD/bench_serving" ]]; then
    cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build "$BUILD" -j "$(nproc)" \
        --target bench_micro_sim bench_functional bench_serving
fi

CURRENT="$(mktemp --suffix=.json)"
trap 'rm -f "$CURRENT"' EXIT
tools/bench_json.sh "$BUILD" "$CURRENT"

python3 - "$BASELINE" "$CURRENT" "$TOLERANCE" "$ALLOW_REMOVED" <<'EOF'
import json
import sys

baseline = json.load(open(sys.argv[1]))["events_per_second"]
current = json.load(open(sys.argv[2]))["events_per_second"]
tolerance = float(sys.argv[3])
allow_removed = sys.argv[4] == "1"

ALLOC_KEYS = ("allocs_per_event", "allocs_per_chunk", "allocs_per_tile")


def spread(entry):
    """(max - min) / median of a series' items/sec, 0 without a range."""
    lo = entry.get("items_per_second_min")
    hi = entry.get("items_per_second_max")
    med = entry.get("items_per_second")
    if lo is None or hi is None or not med:
        return 0.0
    return (hi - lo) / med


rows = []
problems = []
added = []
removed = []
for name in sorted(set(baseline) | set(current)):
    base = baseline.get(name)
    cur = current.get(name)
    if base is None:
        added.append(name)
        ips = (cur or {}).get("items_per_second")
        rows.append((name, None, ips, None, "NEW"))
        continue
    if cur is None:
        removed.append(name)
        rows.append((name, base.get("items_per_second"), None, None,
                     "REMOVED"))
        continue
    base_ips = base.get("items_per_second")
    cur_ips = cur.get("items_per_second") or 0.0
    if base_ips is None:
        continue
    ratio = cur_ips / base_ips if base_ips else float("inf")
    band = max(1.0 - tolerance, spread(base), spread(cur))
    notes = [f"band {band:.0%}"]
    # A snapshot taken on different hardware runs different kernel
    # tables: note the ISA flip instead of calling it a regression
    # (the ratio still prints, but apples-to-oranges is visible). Same
    # for a dtype flip — a series that changed precision policy is not
    # comparable to its baseline either.
    if base.get("isa") and cur.get("isa") and base["isa"] != cur["isa"]:
        notes.append(f"isa {base['isa']}->{cur['isa']}")
    if base.get("dtype", "f32") != (cur.get("dtype") or "f32"):
        notes.append(f"dtype {base.get('dtype', 'f32')}"
                     f"->{cur.get('dtype', 'f32')}")
    if ratio < 1.0 - band:
        notes.append("<< REGRESSED")
        problems.append(f"{name} median at {ratio:.2f}x baseline "
                        f"(band {band:.0%})")
    for key in ALLOC_KEYS:
        if base.get(key) == 0.0 and (cur.get(key) or 0.0) > 0.0:
            notes.append(f"<< {key}={cur[key]:.3g} (was 0)")
            problems.append(f"{name} now allocates ({key})")
    rows.append((name, base_ips, cur_ips, ratio, " ".join(notes)))

def num(v):
    return f"{v:12.3e}" if v is not None else f"{'—':>12}"

w = max(len(r[0]) for r in rows) if rows else 10
print(f"{'benchmark (medians)':<{w}}  {'baseline':>12}  {'current':>12}  "
      f"{'ratio':>6}")
for name, base_ips, cur_ips, ratio, note in rows:
    r = f"{ratio:6.2f}" if ratio is not None else f"{'—':>6}"
    print(f"{name:<{w}}  {num(base_ips)}  {num(cur_ips)}  {r}  {note}")

if added:
    print(f"\n{len(added)} new benchmark(s) without a baseline: "
          + ", ".join(added))
    print("  -> refresh the snapshot: tools/bench_json.sh && "
          "commit BENCH_sim.json")
if removed:
    print(f"\n{len(removed)} benchmark(s) missing from this build: "
          + ", ".join(removed))
    if not allow_removed:
        problems.extend(f"{n} disappeared" for n in removed)
        print("  -> renamed/removed deliberately? re-run with "
              "ALLOW_REMOVED=1 and refresh BENCH_sim.json")

compared = sum(1 for r in rows if r[3] is not None)
if problems:
    print(f"\nFAIL: {len(problems)} problem(s):")
    for p in problems:
        print(f"  - {p}")
    sys.exit(1)
print(f"\nOK: {compared} benchmark median(s) within their noise band "
      f"of baseline, alloc-free paths still alloc-free")
EOF
