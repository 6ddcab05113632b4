/**
 * @file
 * Golden-trace end-to-end regression tier: datapath refactors must not
 * change what the simulator computes or when. It pins
 *
 *  - the *trace*: BERT-Large 1st encoder (S=512, B=6, fused QKV,
 *    optimized schedule) completes in exactly kBertLargeGoldenTicks; a
 *    deliberate scheduling or timing-model change updates the constant
 *    with the why;
 *  - the *numerics*: every tensor of a functional reduced encoder meets
 *    the accuracy contract (lib/runner.hh) against the independent
 *    reference (src/ref/ref_math), and under the exact scalar table the
 *    output checksum agrees with the reference checksum;
 *  - the *separation*: payload carriage never perturbs timing;
 *  - the *dispatch*: all of the above under every kernel table this
 *    binary carries (fu/kernel_registry.hh). ctest also re-runs the
 *    binary under RSN_ISA=<each value> to cover the env startup path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <variant>

#include "core/machine.hh"
#include "fu/kernel_registry.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"
#include "ref/ref_math.hh"

namespace {

using namespace rsn;

/** BERT-Large 1st encoder, S=512, B=6, fused QKV, optimized schedule. */
constexpr Tick kBertLargeGoldenTicks = 5947426;

/** Reduced encoder (B=2, S=32, H=64, 4 heads, FF=128), same golden
 *  discipline at functional-run scale. */
constexpr Tick kTinyEncoderGoldenTicks = 11084;

/** Deterministic double-precision checksum of a matrix. */
double
checksum(const ref::Matrix &m)
{
    double sum = 0;
    for (float v : m.data)
        sum += double(v);
    return sum;
}

lib::Model
tinyModel()
{
    return lib::tinyEncoder(/*batch=*/2, /*seq=*/32, /*hidden=*/64,
                            /*heads=*/4, /*ff=*/128, /*fuse_qkv=*/true);
}

/** Output tensor name of the model's last segment. */
std::string
finalOutput(const lib::Model &model)
{
    return std::visit([](const auto &seg) { return seg.out_name; },
                      model.segments.back());
}

/**
 * Guards a passing contract verdict against going vacuous: at least five
 * produced tensors had a reference to meet (runModelChecked skips names
 * the compiled model does not expose), and, for nonzero @p rel, the final
 * output's checksum agrees with the reference checksum to @p rel. Call
 * after a completed run, whose seeded data the reference replays.
 */
void
expectContractCoversTheRun(core::RsnMachine &mach, const lib::Model &model,
                           const lib::CompiledModel &compiled, double rel)
{
    const auto refs = lib::referenceForward(mach, model, compiled);
    std::size_t compared = 0;
    for (const auto &entry : refs)
        compared += entry.first != "input" && compiled.hasTensor(entry.first);
    EXPECT_GE(compared, 5u) << "golden comparison went vacuous";
    if (rel == 0)
        return;
    const std::string out_name = finalOutput(model);
    ASSERT_TRUE(compiled.hasTensor(out_name));
    const double got_sum = checksum(lib::readTensor(mach, compiled, out_name));
    const double ref_sum = checksum(refs.at(out_name));
    EXPECT_TRUE(std::isfinite(got_sum));
    EXPECT_NEAR(got_sum, ref_sum, rel * std::max(1.0, std::abs(ref_sum)));
}

TEST(GoldenTrace, BertLargeEncoderTickCountIsPinned)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto model = lib::bertLargeEncoder(/*batch=*/6, /*seq=*/512,
                                       /*fuse_qkv=*/true);
    auto compiled = lib::compileModel(mach, model,
                                      lib::ScheduleOptions::optimized());
    auto r = mach.runChecked(compiled.program);
    ASSERT_TRUE(r.ok()) << r.toString();
    EXPECT_EQ(r.result.ticks, kBertLargeGoldenTicks)
        << "BERT-Large end-to-end latency changed. If this PR "
           "deliberately changes scheduling or the timing model, update "
           "kBertLargeGoldenTicks (and ROADMAP.md) with the why; "
           "otherwise this is a regression.";
}

TEST(GoldenTrace, FunctionalRunMeetsTheContractUnderEveryKernelTable)
{
    // The golden run under every table this CPU runs, the exact scalar
    // table included — the one-binary-all-ISAs contract. Simulated time
    // must be bit-identical under each (a kernel table may never move a
    // tick), and every tensor must meet the accuracy contract
    // (lib/runner.hh, docs/datapath.md).
    std::size_t tables_run = 0;
    for (const auto *t : kernel::runnableTables()) {
        SCOPED_TRACE(t->name);
        kernel::ScopedIsaOverride pin(*t);
        core::RsnMachine mach(
            core::MachineConfig::vck190(/*functional=*/true));
        auto model = tinyModel();
        auto compiled = lib::compileModel(
            mach, model, lib::ScheduleOptions::optimized());
        auto cr = lib::runModelChecked(mach, model, compiled, /*seed=*/123);
        ASSERT_TRUE(cr.ok()) << cr.report.toString();
        EXPECT_EQ(cr.report.result.ticks, kTinyEncoderGoldenTicks)
            << "kernel table " << t->name << " changed simulated time";
        expectContractCoversTheRun(mach, model, compiled,
                                   t->exact ? 1e-3 : 0.0);
        ++tables_run;
    }
    EXPECT_GE(tables_run, 2u) << "scalar plus a vectorized table";
}

/** Reduced encoder again, all-bf16 precision policy (ISSUE 10). Wire
 *  and DRAM traffic halve, so the pinned latency must sit strictly
 *  below the FP32 pin. Measured once and pinned like the FP32 ticks. */
constexpr Tick kTinyEncoderBf16GoldenTicks = 8489;

TEST(GoldenTrace, MixedPrecisionBf16TickCountAndNumerics)
{
    // The typed-tile datapath under the per-op precision policy
    // (core/config.hh): bf16 weights and activations end to end, FP32
    // accumulation and FP32 bias/LayerNorm parameters per the
    // accumulate-in-FP32 contract (docs/datapath.md). Two pins:
    //
    //  - *time*: 16-bit chunks genuinely halve link and DRAM byte
    //    counts, so the end-to-end latency must be strictly below the
    //    FP32 golden run of the identical program — and exactly
    //    kTinyEncoderBf16GoldenTicks, same discipline as FP32;
    //  - *values*: every tensor meets the accuracy contract of the
    //    bf16 policy against the FP32 reference (docs/datapath.md
    //    "Accuracy contract": 8-bit mantissa, ~0.4% per rounding,
    //    O(sqrt(k)) growth through the FP32-accumulated GEMMs).
    //
    // No ScopedIsaOverride: the ctest sweep re-runs this test under
    // RSN_ISA x {f32,bf16} (CMakeLists.txt), so it must hold under
    // every table. Ticks may not depend on the table at all.
    core::MachineConfig cfg = core::MachineConfig::vck190(true);
    cfg.precision = {Dtype::Bf16, Dtype::Bf16, Dtype::Bf16};
    core::RsnMachine mach(cfg);
    auto model = tinyModel();
    auto compiled = lib::compileModel(mach, model,
                                      lib::ScheduleOptions::optimized());
    auto cr = lib::runModelChecked(mach, model, compiled, /*seed=*/123);
    ASSERT_TRUE(cr.ok()) << cr.report.toString();
    EXPECT_LT(cr.report.result.ticks, kTinyEncoderGoldenTicks)
        << "bf16 tiles must beat FP32 end to end (half the wire bytes)";
    EXPECT_EQ(cr.report.result.ticks, kTinyEncoderBf16GoldenTicks)
        << "bf16 end-to-end latency changed. If this PR deliberately "
           "changes scheduling, the timing model, or the precision "
           "policy's conversion sites, update kTinyEncoderBf16GoldenTicks "
           "with the why; otherwise this is a regression.";
    expectContractCoversTheRun(mach, model, compiled,
                               lib::accuracyBound(cfg.precision));
}

TEST(GoldenTrace, PayloadsDoNotPerturbTiming)
{
    // The functional/timing separation, for FP32 and typed tiles alike:
    // a run ticks identically with and without payload carriage (chunk
    // dtype — and therefore wire bytes — is stamped on the chunk
    // itself, never derived from the presence of data).
    for (Dtype d : {Dtype::F32, Dtype::Bf16}) {
        SCOPED_TRACE(dtypeName(d));
        Tick ticks[2] = {0, 0};
        for (bool functional : {false, true}) {
            auto cfg = core::MachineConfig::vck190(functional);
            cfg.precision = {d, d, d};
            core::RsnMachine mach(cfg);
            auto compiled = lib::compileModel(
                mach, tinyModel(), lib::ScheduleOptions::optimized());
            if (functional)
                lib::initTensors(mach, compiled, 123);
            auto r = mach.runChecked(compiled.program);
            ASSERT_TRUE(r.ok()) << r.toString();
            ticks[functional] = r.result.ticks;
        }
        EXPECT_EQ(ticks[0], ticks[1])
            << "carrying payloads changed simulated time";
        EXPECT_EQ(ticks[0], d == Dtype::F32 ? kTinyEncoderGoldenTicks
                                            : kTinyEncoderBf16GoldenTicks);
    }
}

TEST(GoldenTrace, ResetMachineReproducesTheGoldenTrace)
{
    // The bench context reuses one machine across data points
    // (bench/bench_util.hh); a reset machine must retrace exactly.
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto model = lib::bertLargeEncoder(6, 512, true);
    Tick first = 0;
    for (int i = 0; i < 2; ++i) {
        if (i)
            mach.reset();
        auto compiled = lib::compileModel(
            mach, model, lib::ScheduleOptions::optimized());
        auto r = mach.runChecked(compiled.program);
        ASSERT_TRUE(r.ok()) << r.toString();
        if (i)
            EXPECT_EQ(r.result.ticks, first) << "reset machine diverged";
        else
            first = r.result.ticks;
    }
    EXPECT_EQ(first, kBertLargeGoldenTicks);
}

} // namespace
