/**
 * @file
 * End-to-end functional-mode and payload-math benchmarks
 * (google-benchmark).
 *
 * Separate binary from bench_micro_sim on purpose: linking the whole
 * machine/model/codegen stack into the micro-benchmark binary measurably
 * perturbs the tight sim-kernel loops (code layout / inlining), so the
 * kernel microbenches stay lean and the full-datapath numbers live here.
 * The nonlinear-operator and host-memory benches live here for the same
 * reason — measured on this machine, pulling fu/nonlinear and
 * mem/hostmem into bench_micro_sim cost BM_StreamChunkTransfer ~15%.
 * tools/bench_json.sh runs both binaries and merges their results into
 * one BENCH_sim.json.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "fu/kernel_registry.hh"
#include "fu/nonlinear.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"
#include "lib/sweep.hh"
#include "mem/hostmem.hh"

namespace {

/** The probed-best vectorized kernel table — what a production run on
 *  this machine would select (never the scalar reference). Benchmarks
 *  pin it explicitly so the recorded label names the ISA even when the
 *  bench process is launched with RSN_ISA set. */
const rsn::kernel::KernelTable &
bestTable()
{
    auto &reg = rsn::kernel::Registry::instance();
    std::vector<rsn::kernel::Isa> compiled_in;
    for (const auto *t : reg.tables())
        compiled_in.push_back(t->isa);
    const rsn::kernel::Isa best =
        rsn::kernel::chooseBest(reg.probe(), compiled_in);
    for (const auto *t : reg.tables())
        if (t->isa == best)
            return *t;
    return reg.active();
}

/**
 * Functional tiny-encoder end-to-end (B=2, S=64, H=128, FF=256): the
 * ROADMAP headline number for the functional data plane — every lever
 * (GEMM microkernel, vectorized nonlinear layer, hostmem block copies,
 * gather-view assembly, zero-copy staging, stream fast path, decoder
 * uOP cache) lands here. One item == one full simulated run carrying
 * FP32 payloads; compile/init are excluded from the timed region. The
 * machine comes from a SweepLane — the same reset()-on-equal-config
 * cache the sweep and serving tiers use — so every timed iteration
 * runs the one warm machine instead of paying an untimed-but-variance-
 * inducing rebuild, and the bench measures the production reuse path.
 * @p table picks the payload kernels: the runtime-selected best (the
 * headline) or the exact scalar reference (the A/B); @p dtype is the
 * precision policy for weights and activations (ISSUE 10). The series
 * label in BENCH_sim.json carries both the table's ISA name and the
 * dtype, and the simulated end-to-end tick count lands in the counters
 * — the bf16 series must sit strictly below the f32 series there
 * (byte-true wire traffic: 16-bit tiles halve link and DRAM time).
 */
void
functionalTinyEncoder(benchmark::State &state,
                      const rsn::kernel::KernelTable &table,
                      rsn::Dtype dtype)
{
    rsn::kernel::ScopedIsaOverride pin(table);
    auto model = rsn::lib::tinyEncoder(/*batch=*/2, /*seq=*/64,
                                       /*hidden=*/128, /*heads=*/4,
                                       /*ff=*/256, /*fuse_qkv=*/true);
    auto cfg = rsn::core::MachineConfig::vck190(/*functional=*/true);
    cfg.precision.linear_weights = dtype;
    cfg.precision.linear_activations = dtype;
    cfg.precision.attention_activations = dtype;
    rsn::lib::SweepLane lane(0);
    rsn::Tick ticks = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto &mach = lane.machine(cfg);
        auto compiled = rsn::lib::compileModel(
            mach, model, rsn::lib::ScheduleOptions::optimized());
        rsn::lib::initTensors(mach, compiled, 2025);
        state.ResumeTiming();
        const auto rep = mach.runChecked(compiled.program);
        if (!rep.ok())
            state.SkipWithError("functional run did not complete");
        ticks = rep.result.ticks;
        benchmark::DoNotOptimize(ticks);
    }
    if (lane.machinesBuilt() > 1)
        state.SkipWithError("lane rebuilt a reusable machine");
    state.SetItemsProcessed(state.iterations());
    state.counters["ticks"] = double(ticks);
    state.SetLabel(std::string(table.name) + " dtype=" +
                   rsn::dtypeName(dtype));
}

void
BM_FunctionalTinyEncoder(benchmark::State &state)
{
    functionalTinyEncoder(state, bestTable(), rsn::Dtype::F32);
}
BENCHMARK(BM_FunctionalTinyEncoder)->Unit(benchmark::kMillisecond);

/** The same program under the all-bf16 precision policy: typed tiles
 *  on every wire, FP32 accumulation in the FUs. Wall-clock cost is the
 *  interesting delta vs the f32 series (conversion kernels on every
 *  load/store); the recorded simulated ticks must be strictly lower. */
void
BM_FunctionalTinyEncoderBf16(benchmark::State &state)
{
    functionalTinyEncoder(state, bestTable(), rsn::Dtype::Bf16);
}
BENCHMARK(BM_FunctionalTinyEncoderBf16)->Unit(benchmark::kMillisecond);

/** Same workload on the exact scalar kernel table (scalar GEMM loop,
 *  libm erf/exp): the accuracy-reference configuration the golden tier
 *  validates. */
void
BM_FunctionalTinyEncoderExact(benchmark::State &state)
{
    functionalTinyEncoder(state,
                          *rsn::kernel::Registry::instance().find("scalar"),
                          rsn::Dtype::F32);
}
BENCHMARK(BM_FunctionalTinyEncoderExact)->Unit(benchmark::kMillisecond);

/** Same workload timing-only: the sim-overhead floor under the number
 *  above (the gap between the two is pure functional-payload cost). */
void
BM_TimingOnlyTinyEncoder(benchmark::State &state)
{
    auto model = rsn::lib::tinyEncoder(2, 64, 128, 4, 256, true);
    const auto cfg =
        rsn::core::MachineConfig::vck190(/*functional=*/false);
    rsn::lib::SweepLane lane(0);
    for (auto _ : state) {
        state.PauseTiming();
        auto &mach = lane.machine(cfg);
        auto compiled = rsn::lib::compileModel(
            mach, model, rsn::lib::ScheduleOptions::optimized());
        state.ResumeTiming();
        const auto rep = mach.runChecked(compiled.program);
        if (!rep.ok())
            state.SkipWithError("timing run did not complete");
        benchmark::DoNotOptimize(rep.result.ticks);
    }
    if (lane.machinesBuilt() > 1)
        state.SkipWithError("lane rebuilt a reusable machine");
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimingOnlyTinyEncoder)->Unit(benchmark::kMillisecond);

/**
 * Sweep-executor throughput at Arg(0) lanes: one item == one complete
 * timing-only tiny-encoder sweep point (compile + run) pushed through
 * lib::SweepExecutor. The {1,4,8} series is the scaling headline for
 * the parallel sweep layer — jobs=1 is the sequential baseline the
 * parallel results are bit-identical to, and items_per_second at 4/8
 * over 1 is the measured speedup. The per-lane machine cache works at
 * full strength: every point shares one config, so each lane builds
 * one machine and reset()s it for the rest of the sweep. The batch is
 * sized at 4x jobs so each lane amortizes its build across ~4 points,
 * mirroring the fig/table sweep shape.
 */
void
BM_SweepThroughput(benchmark::State &state)
{
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    const std::size_t points = std::size_t(jobs) * 4;
    const rsn::lib::SweepExecutor executor(jobs);
    auto model = rsn::lib::tinyEncoder(2, 64, 128, 4, 256, true);
    const auto cfg =
        rsn::core::MachineConfig::vck190(/*functional=*/false);
    for (auto _ : state) {
        auto ticks = executor.map<rsn::Tick>(
            points, [&](rsn::lib::SweepLane &lane, std::size_t) {
                auto &mach = lane.machine(cfg);
                auto compiled = rsn::lib::compileModel(
                    mach, model, rsn::lib::ScheduleOptions::optimized());
                const auto rep = mach.runChecked(compiled.program);
                return rep.ok() ? rep.result.ticks : rsn::Tick(0);
            });
        for (rsn::Tick t : ticks)
            if (t == 0)
                state.SkipWithError("sweep point did not complete");
        benchmark::DoNotOptimize(ticks.data());
    }
    state.SetItemsProcessed(state.iterations() * points);
    state.SetLabel("jobs=" + std::to_string(jobs));
}
BENCHMARK(BM_SweepThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** Deterministic logit-scale inputs for the nonlinear benches. The
 *  tile is re-seeded from the source every iteration (memcpy, dwarfed
 *  by the operator) — repeated in-place application would drive values
 *  into denormal territory and measure microcode assists, not the
 *  kernel. */
std::vector<float>
nonlinearInput(std::size_t n)
{
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = float(i % 37) * 0.25f - 4.0f;
    return v;
}

/** Row-wise softmax through the runtime-selected best kernel table
 *  (what MemC dispatches to in production). One item == one element;
 *  rows are 64 wide tiles of Arg(0) columns, the datapath's
 *  attention-score shapes. */
void
BM_NonlinearSoftmax(benchmark::State &state)
{
    const auto &table = bestTable();
    const std::uint32_t rows = 64;
    const auto cols = static_cast<std::uint32_t>(state.range(0));
    const auto src = nonlinearInput(std::size_t(rows) * cols);
    auto tile = src;
    for (auto _ : state) {
        std::copy(src.begin(), src.end(), tile.begin());
        table.softmax_rows(tile.data(), rows, cols);
        benchmark::DoNotOptimize(tile.data());
    }
    state.SetItemsProcessed(state.iterations() * rows * cols);
    state.SetLabel(table.name);
}
BENCHMARK(BM_NonlinearSoftmax)->Arg(64)->Arg(512);

/** Same shape through the exact scalar softmax (libm exp) — the A/B
 *  for the vectorized layer's headline win. */
void
BM_NonlinearSoftmaxExact(benchmark::State &state)
{
    const std::uint32_t rows = 64;
    const auto cols = static_cast<std::uint32_t>(state.range(0));
    const auto src = nonlinearInput(std::size_t(rows) * cols);
    auto tile = src;
    for (auto _ : state) {
        std::copy(src.begin(), src.end(), tile.begin());
        rsn::fu::softmaxRows(tile.data(), rows, cols);
        benchmark::DoNotOptimize(tile.data());
    }
    state.SetItemsProcessed(state.iterations() * rows * cols);
    state.SetLabel("scalar");
}
BENCHMARK(BM_NonlinearSoftmaxExact)->Arg(512);

/** Element-wise GELU through the best table (tanh formula, polynomial
 *  exp). */
void
BM_NonlinearGelu(benchmark::State &state)
{
    const auto &table = bestTable();
    const auto src = nonlinearInput(state.range(0));
    auto tile = src;
    for (auto _ : state) {
        std::copy(src.begin(), src.end(), tile.begin());
        table.gelu_inplace(tile.data(), tile.size());
        benchmark::DoNotOptimize(tile.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.SetLabel(table.name);
}
BENCHMARK(BM_NonlinearGelu)->Arg(32768);

/** Exact scalar GELU (libm erf) on the same shape. */
void
BM_NonlinearGeluExact(benchmark::State &state)
{
    const auto src = nonlinearInput(state.range(0));
    auto tile = src;
    for (auto _ : state) {
        std::copy(src.begin(), src.end(), tile.begin());
        rsn::fu::geluInplace(tile.data(), tile.size());
        benchmark::DoNotOptimize(tile.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.SetLabel("scalar");
}
BENCHMARK(BM_NonlinearGeluExact)->Arg(32768);

/** HostMemory block moves, dense (pitch == cols: one block memcpy) vs
 *  strided (per-row memcpy) — the DDR/LPDDR load/store fast path. One
 *  item == one element moved (read + write counted once each). */
void
BM_HostMemBlockRoundTrip(benchmark::State &state)
{
    const std::uint32_t rows = 64, cols = 128;
    const bool strided = state.range(0) != 0;
    const std::uint64_t pitch = strided ? cols + 64 : cols;
    rsn::mem::HostMemory host(true);
    const rsn::Addr base = host.alloc(std::uint64_t(rows) * pitch, "b");
    std::vector<float> tile(std::size_t(rows) * cols, 1.5f);
    for (auto _ : state) {
        host.writeBlock(base, pitch, rows, cols, tile.data(),
                        tile.size());
        host.readBlockInto(base, pitch, rows, cols, tile.data());
        benchmark::DoNotOptimize(tile.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 *
                            std::uint64_t(rows) * cols);
    state.SetLabel(strided ? "strided" : "dense");
}
BENCHMARK(BM_HostMemBlockRoundTrip)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
