#include <gtest/gtest.h>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"

namespace {

using rsn::core::MachineConfig;
using rsn::core::RsnMachine;
using rsn::lib::compileModel;
using rsn::lib::LinearLayer;
using rsn::lib::Model;
using rsn::lib::ScheduleOptions;

Model
singleLinear(std::uint32_t m, std::uint32_t k, std::uint32_t n, bool bias,
             bool gelu = false, bool layernorm = false,
             bool residual = false)
{
    Model mod;
    mod.name = "single-linear";
    mod.input_rows = m;
    mod.input_cols = k;
    LinearLayer l;
    l.name = "fc";
    l.m = m;
    l.k = k;
    l.n = n;
    l.bias = bias;
    l.gelu = gelu;
    l.layernorm = layernorm;
    l.residual = residual;
    l.in_src = "input";
    if (residual)
        l.residual_src = "input";  // requires n == k
    l.out_name = "out";
    mod.segments.emplace_back(l);
    return mod;
}

/** Compile + run one model, every tensor held to the accuracy contract. */
void
runFunctional(const Model &model, ScheduleOptions opts)
{
    RsnMachine mach(MachineConfig::vck190(/*functional=*/true));
    auto compiled = compileModel(mach, model, opts);
    auto cr = rsn::lib::runModelChecked(mach, model, compiled, 42);
    EXPECT_TRUE(cr.ok()) << cr.report.toString();
}

TEST(MachineFunctional, PlainGemmMatchesReference)
{
    runFunctional(singleLinear(48, 32, 40, false),
                  ScheduleOptions::optimized());
}

TEST(MachineFunctional, GemmWithBias)
{
    runFunctional(singleLinear(48, 32, 40, true),
                  ScheduleOptions::optimized());
}

TEST(MachineFunctional, GemmWithGelu)
{
    runFunctional(singleLinear(24, 16, 16, true, true),
                  ScheduleOptions::optimized());
}

TEST(MachineFunctional, GemmWithResidualAndLayerNorm)
{
    runFunctional(singleLinear(24, 16, 16, true, false, true, true),
                  ScheduleOptions::optimized());
}

TEST(MachineFunctional, GemmNoOptimizeSchedule)
{
    runFunctional(singleLinear(48, 32, 40, true),
                  ScheduleOptions::noOptimize());
}

TEST(MachineFunctional, GemmMultiTileK)
{
    // Forces several K accumulation steps (k > k_step).
    auto opts = ScheduleOptions::optimized();
    opts.k_step = 16;
    runFunctional(singleLinear(24, 64, 24, true), opts);
}

TEST(MachineFunctional, GemmMultiTileMN)
{
    // Forces multiple output tiles in both M and N.
    auto opts = ScheduleOptions::optimized();
    opts.out_tile_m = 16;
    opts.out_tile_n = 16;
    opts.k_step = 16;
    runFunctional(singleLinear(40, 32, 40, true), opts);
}

TEST(MachineFunctional, TinyEncoderOptimized)
{
    auto model = rsn::lib::tinyEncoder(1, 24, 32, 4, 64, true);
    runFunctional(model, ScheduleOptions::optimized());
}

TEST(MachineFunctional, TinyEncoderNoOptimize)
{
    auto model = rsn::lib::tinyEncoder(1, 24, 32, 4, 64, false);
    runFunctional(model, ScheduleOptions::noOptimize());
}

TEST(MachineFunctional, TinyEncoderBatch2)
{
    auto model = rsn::lib::tinyEncoder(2, 16, 32, 4, 48, true);
    runFunctional(model, ScheduleOptions::optimized());
}

TEST(MachineConfigWiring, UopFifoDepthReachesEveryFu)
{
    for (std::size_t depth : {2u, 6u, 16u}) {
        auto cfg = MachineConfig::vck190();
        cfg.uop_fifo_depth = depth;
        RsnMachine mach(cfg);
        ASSERT_FALSE(mach.fus().empty());
        for (const auto &f : mach.fus())
            EXPECT_EQ(f->uopQueue().capacity(), depth) << f->name();
    }
}

TEST(MachineTiming, OptimizedFasterThanNoOptimize)
{
    auto model = rsn::lib::bertLargeEncoder(1, 128, false, 1);
    RsnMachine m1(MachineConfig::vck190());
    auto c1 = compileModel(m1, model, ScheduleOptions::noOptimize());
    auto r1 = m1.runChecked(c1.program);
    ASSERT_TRUE(r1.ok()) << r1.toString();

    RsnMachine m2(MachineConfig::vck190());
    auto model2 = rsn::lib::bertLargeEncoder(1, 128, true, 1);
    auto c2 = compileModel(m2, model2, ScheduleOptions::optimized());
    auto r2 = m2.runChecked(c2.program);
    ASSERT_TRUE(r2.ok()) << r2.toString();

    EXPECT_LT(r2.result.ticks, r1.result.ticks);
}

} // namespace
