#include <gtest/gtest.h>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"
#include "ref/ref_math.hh"

namespace {

using rsn::core::MachineConfig;
using rsn::core::RsnMachine;
using rsn::core::RunResult;
using rsn::lib::compileModel;
using rsn::lib::LinearLayer;
using rsn::lib::Model;
using rsn::lib::ScheduleOptions;
namespace ref = rsn::ref;

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

/** Compile + init + run + functional-check one model. */
RunResult
runFunctional(const Model &model, ScheduleOptions opts,
              float rtol = 1e-3f, float atol = 1e-3f)
{
    RsnMachine mach(MachineConfig::vck190(/*functional=*/true));
    auto compiled = compileModel(mach, model, opts);
    rsn::lib::initTensors(mach, compiled, 42);
    auto refs = rsn::lib::referenceForward(mach, model, compiled);
    auto r = mach.runChecked(compiled.program);
    EXPECT_TRUE(r.ok()) << r.toString();
    for (const auto &[name, expect] : refs) {
        if (name == "input" || !compiled.hasTensor(name))
            continue;
        auto got = rsn::lib::readTensor(mach, compiled, name);
        std::string why;
        EXPECT_TRUE(ref::allclose(got, expect, rtol, atol, &why))
            << "tensor " << name << ": " << why;
    }
    return r.result;
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
    runFunctional(model, ScheduleOptions::optimized(), 2e-3f, 2e-3f);
}

TEST(MachineFunctional, TinyEncoderNoOptimize)
{
    auto model = rsn::lib::tinyEncoder(1, 24, 32, 4, 64, false);
    runFunctional(model, ScheduleOptions::noOptimize(), 2e-3f, 2e-3f);
}

TEST(MachineFunctional, TinyEncoderBatch2)
{
    auto model = rsn::lib::tinyEncoder(2, 16, 32, 4, 48, true);
    runFunctional(model, ScheduleOptions::optimized(), 2e-3f, 2e-3f);
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
