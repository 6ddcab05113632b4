#include <gtest/gtest.h>

#include <cmath>
#include <variant>

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
    // The datapath runs model A; the reference replays model B, which is
    // A with ff1's GELU turned off. The run completes at A's pinned tick
    // count, but ff1's output and everything downstream of it diverge,
    // so the one outcome is OutputMismatch with each diverged tensor's
    // first bad element in the message.
    RsnMachine mach(MachineConfig::vck190(true));
    const auto a = lib::tinyEncoder(2, 32, 64, 4, 128, true);
    auto b = a;
    for (auto &seg : b.segments)
        if (auto *l = std::get_if<lib::LinearLayer>(&seg))
            l->gelu = l->gelu && l->name != "L0.ff1";
    auto c = lib::compileModel(mach, a, lib::ScheduleOptions::optimized());
    auto cr = lib::runModelChecked(mach, b, c);
    EXPECT_FALSE(cr.ok());
    EXPECT_EQ(cr.report.status.code, StatusCode::OutputMismatch);
    EXPECT_EQ(cr.report.result.ticks, 11084u);
    EXPECT_EQ(cr.mismatched,
              (std::vector<std::string>{"L0.encoder_out", "L0.ff1_out"}));
    for (const auto &name : cr.mismatched)
        EXPECT_NE(cr.report.status.message.find(name + " elem "),
                  std::string::npos)
            << name << " missing from: " << cr.report.status.message;
    EXPECT_NE(cr.report.status.message.find("(tol "), std::string::npos)
        << cr.report.status.message;
    // A mismatch is a completed run: the machine stays reusable.
    EXPECT_TRUE(mach.resettable());
}

TEST(Runner, AccuracyBoundFollowsThePrecisionPolicy)
{
    // docs/datapath.md "Accuracy contract": all-F32 is held to 2e-3,
    // and any single 16-bit field loosens the bound to 5e-2.
    EXPECT_FLOAT_EQ(lib::accuracyBound(core::PrecisionPolicy{}), 2e-3);
    for (Dtype d : {Dtype::Bf16, Dtype::F16})
        for (Dtype core::PrecisionPolicy::*field :
             {&core::PrecisionPolicy::linear_weights,
              &core::PrecisionPolicy::linear_activations,
              &core::PrecisionPolicy::attention_activations}) {
            core::PrecisionPolicy p;
            p.*field = d;
            EXPECT_FLOAT_EQ(lib::accuracyBound(p), 5e-2) << dtypeName(d);
        }
}

TEST(Runner, AccuracyBoundScalesAbsoluteSlackWithTensorRms)
{
    // RMS <= 1 is held to exactly |d| <= t * (1 + |y|); above RMS 1 the
    // absolute slack grows to t * rms, so the perturbation that fails a
    // small tensor passes the same tensor scaled by 100.
    const float t = lib::accuracyBound(core::PrecisionPolicy{});
    auto meets = [&](float scale, float k, std::string *why = nullptr) {
        const ref::Matrix want = ref::randomMatrix(8, 16, 7, 0.5f * scale);
        ref::Matrix got = want;
        got.data[5] += k * t * (1 + std::abs(want.data[5]));
        return lib::meetsAccuracyBound(got, want, core::PrecisionPolicy{},
                                       why);
    };
    std::string why;
    EXPECT_TRUE(meets(1, 0.9f));
    EXPECT_FALSE(meets(1, 1.1f, &why));
    EXPECT_NE(why.find("elem 5:"), std::string::npos) << why;
    EXPECT_TRUE(meets(100, 1.1f));
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
