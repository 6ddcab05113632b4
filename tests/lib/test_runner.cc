#include <gtest/gtest.h>

#include <algorithm>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"

namespace {

using namespace rsn;
using core::MachineConfig;
using core::RsnMachine;

lib::Model
smallLinear()
{
    lib::Model mod;
    mod.name = "s";
    mod.input_rows = 24;
    mod.input_cols = 16;
    lib::LinearLayer l;
    l.name = "fc";
    l.m = 24;
    l.k = 16;
    l.n = 12;
    l.bias = true;
    l.in_src = "input";
    l.out_name = "out";
    mod.segments.emplace_back(l);
    return mod;
}

TEST(Runner, InitTensorsFillsInputsAndWeightsOnly)
{
    RsnMachine mach(MachineConfig::vck190(true));
    auto c = lib::compileModel(mach, smallLinear(),
                               lib::ScheduleOptions::optimized());
    lib::initTensors(mach, c, 5);
    auto in = lib::readTensor(mach, c, "input");
    auto w = lib::readTensor(mach, c, "W.fc");
    auto out = lib::readTensor(mach, c, "out");
    // Inputs/weights randomized, activations zero until the run.
    EXPECT_NE(in.at(0, 0), 0.f);
    EXPECT_NE(w.at(0, 0), 0.f);
    for (float v : out.data)
        EXPECT_EQ(v, 0.f);
}

TEST(Runner, InitIsDeterministicPerSeed)
{
    RsnMachine m1(MachineConfig::vck190(true));
    auto c1 = lib::compileModel(m1, smallLinear(),
                                lib::ScheduleOptions::optimized());
    lib::initTensors(m1, c1, 9);
    RsnMachine m2(MachineConfig::vck190(true));
    auto c2 = lib::compileModel(m2, smallLinear(),
                                lib::ScheduleOptions::optimized());
    lib::initTensors(m2, c2, 9);
    EXPECT_EQ(lib::readTensor(m1, c1, "W.fc").data,
              lib::readTensor(m2, c2, "W.fc").data);
    RsnMachine m3(MachineConfig::vck190(true));
    auto c3 = lib::compileModel(m3, smallLinear(),
                                lib::ScheduleOptions::optimized());
    lib::initTensors(m3, c3, 10);
    EXPECT_NE(lib::readTensor(m1, c1, "W.fc").data,
              lib::readTensor(m3, c3, "W.fc").data);
}

TEST(Runner, InitIsNoOpOnTimingOnlyMachines)
{
    RsnMachine mach(MachineConfig::vck190(false));
    auto c = lib::compileModel(mach, smallLinear(),
                               lib::ScheduleOptions::optimized());
    lib::initTensors(mach, c, 5);  // must not throw or allocate data
    EXPECT_FALSE(mach.host().functional());
}

TEST(Runner, ReferenceForwardProducesEverySegmentOutput)
{
    RsnMachine mach(MachineConfig::vck190(true));
    auto model = lib::tinyEncoder(1, 16, 32, 4, 48, true);
    auto c = lib::compileModel(mach, model,
                               lib::ScheduleOptions::optimized());
    lib::initTensors(mach, c, 3);
    auto refs = lib::referenceForward(mach, model, c);
    for (const char *name :
         {"L0.qkv_out", "L0.attn_out", "L0.dense_out", "L0.ff1_out",
          "L0.encoder_out"})
        EXPECT_TRUE(refs.count(name)) << name;
    // Shapes follow the model.
    EXPECT_EQ(refs.at("L0.qkv_out").cols, 96u);
    EXPECT_EQ(refs.at("L0.encoder_out").rows, 16u);
}

TEST(Runner, DivergedOutputsAreAnOutputMismatchNamingTheTensors)
{
    // The bf16 tiny encoder checked against the FP32 reference at zero
    // tolerance: the run completes at its pinned tick count, but its
    // rounded outputs diverge, so the one outcome is OutputMismatch.
    auto cfg = MachineConfig::vck190(true);
    cfg.precision.linear_weights = Dtype::Bf16;
    cfg.precision.linear_activations = Dtype::Bf16;
    cfg.precision.attention_activations = Dtype::Bf16;
    RsnMachine mach(cfg);
    auto model = lib::tinyEncoder(2, 32, 64, 4, 128, true);
    auto c = lib::compileModel(mach, model,
                               lib::ScheduleOptions::optimized());
    auto cr = lib::runModelChecked(mach, model, c, 2025, 0.f, 0.f);
    EXPECT_FALSE(cr.ok());
    EXPECT_EQ(cr.report.status.code, StatusCode::OutputMismatch);
    EXPECT_EQ(cr.report.result.ticks, 8489u);
    EXPECT_NE(std::find(cr.mismatched.begin(), cr.mismatched.end(),
                        "L0.encoder_out"),
              cr.mismatched.end());
    for (const auto &name : cr.mismatched)
        EXPECT_NE(cr.report.status.message.find(name), std::string::npos)
            << name << " missing from: " << cr.report.status.message;
    // A mismatch is a completed run: the machine stays reusable.
    EXPECT_TRUE(mach.resettable());
}

TEST(Runner, ReadTensorRejectsUnknownName)
{
    RsnMachine mach(MachineConfig::vck190(true));
    auto c = lib::compileModel(mach, smallLinear(),
                               lib::ScheduleOptions::optimized());
    EXPECT_THROW((void)lib::readTensor(mach, c, "nope"),
                 std::runtime_error);
}

} // namespace
