#include <gtest/gtest.h>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"
#include "ref/ref_math.hh"

namespace {

using namespace rsn;
using rsn::core::MachineConfig;
using rsn::core::RsnMachine;
using rsn::lib::compileModel;
using rsn::lib::ScheduleOptions;
namespace refm = rsn::ref;

lib::Model
linModel(std::uint32_t m, std::uint32_t k, std::uint32_t n)
{
    lib::Model mod;
    mod.name = "lin";
    mod.input_rows = m;
    mod.input_cols = k;
    lib::LinearLayer l;
    l.name = "fc";
    l.m = m;
    l.k = k;
    l.n = n;
    l.bias = true;
    l.in_src = "input";
    l.out_name = "out";
    mod.segments.emplace_back(l);
    return mod;
}

/** Property: functional GEMM through the datapath == reference. */
class GemmShapeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(GemmShapeProperty, DatapathMatchesReference)
{
    auto [m, k, n] = GetParam();
    RsnMachine mach(MachineConfig::vck190(true));
    auto model = linModel(m, k, n);
    auto compiled = compileModel(mach, model,
                                 ScheduleOptions::optimized());
    lib::initTensors(mach, compiled, 1000 + m + k + n);
    auto refs = lib::referenceForward(mach, model, compiled);
    auto r = mach.runChecked(compiled.program);
    ASSERT_TRUE(r.ok()) << r.toString();
    auto got = lib::readTensor(mach, compiled, "out");
    std::string why;
    EXPECT_TRUE(refm::allclose(got, refs.at("out"), 1e-3f, 1e-3f, &why))
        << why;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeProperty,
    ::testing::Values(std::tuple{6, 1, 1}, std::tuple{7, 3, 5},
                      std::tuple{13, 17, 19}, std::tuple{48, 48, 48},
                      std::tuple{96, 32, 64}, std::tuple{100, 20, 60},
                      std::tuple{64, 256, 32}, std::tuple{32, 8, 200}));

/** Property: attention through the datapath == reference, over shapes. */
class AttentionShapeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>>
{};

TEST_P(AttentionShapeProperty, DatapathMatchesReference)
{
    auto [batch, seq, heads, pipelined] = GetParam();
    RsnMachine mach(MachineConfig::vck190(true));
    auto model = lib::tinyEncoder(batch, seq, heads * 8, heads, 32,
                                  true);
    auto opts = pipelined ? ScheduleOptions::optimized()
                          : ScheduleOptions::noOptimize();
    auto compiled = compileModel(mach, model, opts);
    lib::initTensors(mach, compiled, 77 + batch + seq);
    auto refs = lib::referenceForward(mach, model, compiled);
    auto r = mach.runChecked(compiled.program);
    ASSERT_TRUE(r.ok()) << r.toString();
    auto got = lib::readTensor(mach, compiled, "L0.attn_out");
    std::string why;
    EXPECT_TRUE(refm::allclose(got, refs.at("L0.attn_out"), 2e-3f, 2e-3f,
                               &why))
        << why;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AttentionShapeProperty,
    ::testing::Values(std::tuple{1, 16, 1, true},
                      std::tuple{1, 16, 2, true},
                      std::tuple{1, 24, 3, true},
                      std::tuple{2, 16, 4, true},
                      std::tuple{1, 16, 5, true},  // heads % lanes != 0
                      std::tuple{1, 16, 4, false},
                      std::tuple{2, 12, 3, false},
                      std::tuple{1, 16, 7, false}));

TEST(TimingProperties, LatencyMonotonicInBandwidth)
{
    double prev = 1e18;
    for (double f : {0.5, 1.0, 2.0, 4.0}) {
        auto cfg = MachineConfig::vck190();
        cfg.ddr.read_gbps *= f;
        cfg.ddr.write_gbps *= f;
        cfg.lpddr.read_gbps *= f;
        RsnMachine mach(cfg);
        auto c = compileModel(mach, lib::bertLargeEncoder(2, 256, true,
                                                          1),
                              ScheduleOptions::optimized());
        auto r = mach.runChecked(c.program);
        ASSERT_TRUE(r.ok()) << r.toString();
        EXPECT_LE(r.result.ticks, prev);
        prev = r.result.ticks;
    }
}

TEST(TimingProperties, LatencyMonotonicInBatch)
{
    Tick prev = 0;
    for (std::uint32_t b : {1u, 2u, 4u}) {
        RsnMachine mach(MachineConfig::vck190());
        auto c = compileModel(mach, lib::bertLargeEncoder(b, 256, true,
                                                          1),
                              ScheduleOptions::optimized());
        auto r = mach.runChecked(c.program);
        ASSERT_TRUE(r.ok()) << r.toString();
        EXPECT_GT(r.result.ticks, prev);
        prev = r.result.ticks;
    }
}

TEST(TimingProperties, PipelinedAttentionNotSlowerThanSequential)
{
    for (std::uint32_t seq : {128u, 256u}) {
        RsnMachine m1(MachineConfig::vck190());
        auto c1 = compileModel(m1, lib::bertLargeEncoder(2, seq, true,
                                                         1),
                               ScheduleOptions::optimized());
        auto r1 = m1.runChecked(c1.program);
        RsnMachine m2(MachineConfig::vck190());
        auto c2 = compileModel(m2, lib::bertLargeEncoder(2, seq, true,
                                                         1),
                               ScheduleOptions::bwOptimized());
        auto r2 = m2.runChecked(c2.program);
        ASSERT_TRUE(r1.ok() && r2.ok());
        // 10% slack: at small sequence lengths the pipelined mapping's
        // per-head mesh traffic can offset part of its traffic savings.
        EXPECT_LE(double(r1.result.ticks), double(r2.result.ticks) * 1.10);
    }
}

TEST(TimingProperties, DeterministicAcrossRuns)
{
    Tick first = 0;
    for (int trial = 0; trial < 3; ++trial) {
        RsnMachine mach(MachineConfig::vck190());
        auto c = compileModel(mach, lib::bertLargeEncoder(2, 256, true,
                                                          1),
                              ScheduleOptions::optimized());
        auto r = mach.runChecked(c.program);
        ASSERT_TRUE(r.ok());
        if (trial == 0)
            first = r.result.ticks;
        else
            EXPECT_EQ(r.result.ticks, first);
    }
}

TEST(TimingProperties, ComputeAndTrafficInvariantAcrossSchedules)
{
    // Optimizations change *when* data moves, not *what* computes:
    // FLOPs are identical; pipelining reduces DDR traffic.
    RsnMachine m1(MachineConfig::vck190());
    auto c1 = compileModel(m1, lib::bertLargeEncoder(1, 256, true, 1),
                           ScheduleOptions::optimized());
    auto r1 = m1.runChecked(c1.program);
    RsnMachine m2(MachineConfig::vck190());
    auto c2 = compileModel(m2, lib::bertLargeEncoder(1, 256, true, 1),
                           ScheduleOptions::noOptimize());
    auto r2 = m2.runChecked(c2.program);
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_EQ(m1.totalFlops(), m2.totalFlops());
    EXPECT_LT(m1.ddrChannel().bytesWritten(),
              m2.ddrChannel().bytesWritten());
}

TEST(TimingProperties, InfiniteBandwidthApproachesComputeBound)
{
    auto cfg = MachineConfig::vck190();
    cfg.ddr.read_gbps *= 1000;
    cfg.ddr.write_gbps *= 1000;
    cfg.lpddr.read_gbps *= 1000;
    RsnMachine mach(cfg);
    auto model = lib::bertLargeEncoder(4, 512, true, 1);
    auto c = compileModel(mach, model, ScheduleOptions::optimized());
    auto r = mach.runChecked(c.program);
    ASSERT_TRUE(r.ok()) << r.toString();
    // Achieved TFLOPS should close in on the 6.8 TFLOPS GEMM ceiling.
    EXPECT_GT(mach.achievedTflops(r.result), 4.5);
}

TEST(TimingProperties, BusyTicksNeverExceedRunLength)
{
    RsnMachine mach(MachineConfig::vck190());
    auto c = compileModel(mach, lib::bertLargeEncoder(1, 128, true, 1),
                          ScheduleOptions::optimized());
    auto r = mach.runChecked(c.program);
    ASSERT_TRUE(r.ok());
    for (const auto &f : mach.fus())
        EXPECT_LE(f->stats().busy_ticks, r.result.ticks) << f->name();
    EXPECT_LE(mach.ddrChannel().busyTicks(), r.result.ticks);
}

} // namespace
