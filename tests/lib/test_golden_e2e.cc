/**
 * @file
 * Golden-trace end-to-end regression tier (ISSUE 3).
 *
 * Datapath refactors — like the zero-copy TileRef staging this PR
 * introduced — must not change what the simulator computes or when. This
 * tier pins both:
 *
 *  - the *trace*: the BERT-Large 1st-encoder configuration (S=512, B=6,
 *    fused QKV, optimized schedule — the paper's headline workload) must
 *    complete in exactly kBertLargeGoldenTicks. Any scheduling,
 *    datapath, or timing-model change shows up here first and must be
 *    accounted for deliberately (update the constant in the same PR
 *    that justifies it);
 *  - the *numerics*: a functional reduced-encoder run must match the
 *    independent naive reference (src/ref/ref_math) tensor by tensor,
 *    and the output checksum must agree with the reference checksum —
 *    so a refactor cannot silently compute something else;
 *  - the *separation*: functional payload carriage must not perturb
 *    timing — the same program ticks identically with and without data;
 *  - the *dispatch* (ISSUE 7): one binary carries every kernel table
 *    (fu/kernel_registry.hh), and the golden run must hold under each
 *    of them — tick counts bit-exact (kernel choice may never move
 *    simulated time), payload outputs within the documented tolerance.
 *    On top of the in-binary loop below, ctest re-runs this whole
 *    binary under RSN_ISA=<each value> (CMakeLists.txt) to cover the
 *    env startup path.
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

TEST(GoldenTrace, FunctionalOutputsMatchReferenceAndChecksum)
{
    // The golden numeric tier always runs the exact scalar kernel table
    // — the vectorized tables are approximate and have their own golden
    // loop below at the documented tolerance.
    kernel::ScopedIsaOverride exact(kernel::Isa::Scalar);
    core::RsnMachine mach(core::MachineConfig::vck190(/*functional=*/true));
    auto model = tinyModel();
    auto compiled = lib::compileModel(mach, model,
                                      lib::ScheduleOptions::optimized());
    lib::initTensors(mach, compiled, /*seed=*/123);
    auto expected = lib::referenceForward(mach, model, compiled);
    auto r = mach.runChecked(compiled.program);
    ASSERT_TRUE(r.ok()) << r.toString();
    EXPECT_EQ(r.result.ticks, kTinyEncoderGoldenTicks);

    // Every intermediate the datapath produced must match the naive
    // reference implementation.
    std::size_t compared = 0;
    for (const auto &[name, expect] : expected) {
        if (name == "input" || !compiled.hasTensor(name))
            continue;
        auto got = lib::readTensor(mach, compiled, name);
        std::string why;
        EXPECT_TRUE(ref::allclose(got, expect, 2e-3f, 2e-3f, &why))
            << name << ": " << why;
        ++compared;
    }
    EXPECT_GE(compared, 5u) << "golden comparison went vacuous";

    // And the headline numeric: the output checksum agrees with the
    // reference checksum (guards against a comparison bug masking a
    // wholesale numeric change).
    const std::string out_name = finalOutput(model);
    ASSERT_TRUE(compiled.hasTensor(out_name));
    double got_sum = checksum(lib::readTensor(mach, compiled, out_name));
    double ref_sum = checksum(expected.at(out_name));
    EXPECT_NEAR(got_sum, ref_sum,
                1e-3 * std::max(1.0, std::abs(ref_sum)));
    EXPECT_TRUE(std::isfinite(got_sum));
}

TEST(GoldenTrace, FunctionalOutputsUnderEveryKernelTable)
{
    // The golden run under every vectorized table this binary compiled
    // in and this CPU can execute — the one-binary-all-ISAs contract
    // (ISSUE 7). Simulated time must be bit-identical under each (a
    // kernel table may never move a tick), and the functional outputs
    // must stay within the end-to-end tolerance the approximation
    // policy documents (fu/kernel_registry.hh, docs/datapath.md).
    auto &reg = kernel::Registry::instance();
    std::size_t tables_run = 0;
    for (const auto *t : reg.tables()) {
        if (t->exact || !reg.selectable(t->isa))
            continue;  // scalar is the previous test's baseline
        SCOPED_TRACE(t->name);
        kernel::ScopedIsaOverride pin(*t);
        core::RsnMachine mach(
            core::MachineConfig::vck190(/*functional=*/true));
        auto model = tinyModel();
        auto compiled = lib::compileModel(
            mach, model, lib::ScheduleOptions::optimized());
        lib::initTensors(mach, compiled, /*seed=*/123);
        auto expected = lib::referenceForward(mach, model, compiled);
        auto r = mach.runChecked(compiled.program);
        ASSERT_TRUE(r.ok()) << r.toString();
        EXPECT_EQ(r.result.ticks, kTinyEncoderGoldenTicks)
            << "kernel table " << t->name << " changed simulated time";

        std::size_t compared = 0;
        for (const auto &[name, expect] : expected) {
            if (name == "input" || !compiled.hasTensor(name))
                continue;
            auto got = lib::readTensor(mach, compiled, name);
            std::string why;
            EXPECT_TRUE(ref::allclose(got, expect, 4e-3f, 4e-3f, &why))
                << name << " (" << t->name << " kernels): " << why;
            ++compared;
        }
        EXPECT_GE(compared, 5u) << "golden comparison went vacuous";
        ++tables_run;
    }
    EXPECT_GE(tables_run, 1u) << "no vectorized table was selectable";
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
    //  - *values*: outputs stay allclose to the FP32 reference under
    //    the documented bf16 tolerance (docs/datapath.md: 8-bit
    //    mantissa, ~0.4% per rounding, O(sqrt(k)) growth through the
    //    FP32-accumulated GEMMs — 5e-2 covers every tensor the tiny
    //    encoder produces with margin).
    //
    // No ScopedIsaOverride: the ctest sweep re-runs this test under
    // RSN_ISA x {f32,bf16} (CMakeLists.txt), so it must hold under
    // every table. Ticks may not depend on the table at all.
    core::MachineConfig cfg = core::MachineConfig::vck190(true);
    cfg.precision.linear_weights = Dtype::Bf16;
    cfg.precision.linear_activations = Dtype::Bf16;
    cfg.precision.attention_activations = Dtype::Bf16;
    core::RsnMachine mach(cfg);
    auto model = tinyModel();
    auto compiled = lib::compileModel(mach, model,
                                      lib::ScheduleOptions::optimized());
    lib::initTensors(mach, compiled, /*seed=*/123);
    auto expected = lib::referenceForward(mach, model, compiled);
    auto r = mach.runChecked(compiled.program);
    ASSERT_TRUE(r.ok()) << r.toString();
    EXPECT_LT(r.result.ticks, kTinyEncoderGoldenTicks)
        << "bf16 tiles must beat FP32 end to end (half the wire bytes)";
    EXPECT_EQ(r.result.ticks, kTinyEncoderBf16GoldenTicks)
        << "bf16 end-to-end latency changed. If this PR deliberately "
           "changes scheduling, the timing model, or the precision "
           "policy's conversion sites, update kTinyEncoderBf16GoldenTicks "
           "with the why; otherwise this is a regression.";

    std::size_t compared = 0;
    for (const auto &[name, expect] : expected) {
        if (name == "input" || !compiled.hasTensor(name))
            continue;
        auto got = lib::readTensor(mach, compiled, name);
        std::string why;
        EXPECT_TRUE(ref::allclose(got, expect, 5e-2f, 5e-2f, &why))
            << name << " (bf16 datapath): " << why;
        ++compared;
    }
    EXPECT_GE(compared, 5u) << "golden comparison went vacuous";

    const std::string out_name = finalOutput(model);
    ASSERT_TRUE(compiled.hasTensor(out_name));
    double got_sum = checksum(lib::readTensor(mach, compiled, out_name));
    double ref_sum = checksum(expected.at(out_name));
    EXPECT_TRUE(std::isfinite(got_sum));
    EXPECT_NEAR(got_sum, ref_sum,
                5e-2 * std::max(1.0, std::abs(ref_sum)));
}

TEST(GoldenTrace, MixedPrecisionPayloadsDoNotPerturbTiming)
{
    // The functional/timing separation holds for typed tiles too: a
    // bf16 run ticks identically with and without payload carriage
    // (chunk dtype — and therefore wire bytes — is stamped on the
    // chunk itself, never derived from the presence of data).
    Tick ticks[2] = {0, 0};
    for (bool functional : {false, true}) {
        core::MachineConfig cfg = core::MachineConfig::vck190(functional);
        cfg.precision.linear_weights = Dtype::Bf16;
        cfg.precision.linear_activations = Dtype::Bf16;
        cfg.precision.attention_activations = Dtype::Bf16;
        core::RsnMachine mach(cfg);
        auto model = tinyModel();
        auto compiled = lib::compileModel(
            mach, model, lib::ScheduleOptions::optimized());
        if (functional)
            lib::initTensors(mach, compiled, 123);
        auto r = mach.runChecked(compiled.program);
        ASSERT_TRUE(r.ok()) << r.toString();
        ticks[functional] = r.result.ticks;
    }
    EXPECT_EQ(ticks[0], ticks[1])
        << "carrying bf16 payloads changed simulated time";
    EXPECT_EQ(ticks[0], kTinyEncoderBf16GoldenTicks);
}

TEST(GoldenTrace, FunctionalPayloadsDoNotPerturbTiming)
{
    Tick ticks[2] = {0, 0};
    for (bool functional : {false, true}) {
        core::RsnMachine mach(core::MachineConfig::vck190(functional));
        auto model = tinyModel();
        auto compiled = lib::compileModel(
            mach, model, lib::ScheduleOptions::optimized());
        if (functional)
            lib::initTensors(mach, compiled, 123);
        auto r = mach.runChecked(compiled.program);
        ASSERT_TRUE(r.ok()) << r.toString();
        ticks[functional] = r.result.ticks;
    }
    EXPECT_EQ(ticks[0], ticks[1])
        << "carrying FP32 payloads changed simulated time";
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
