#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <variant>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"
#include "lib/sweep.hh"
#include "serve/arrivals.hh"

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

TEST(Runner, RestoredImageEqualsFreshInit)
{
    // The serving memo's restore path: compile + init once, capture the
    // seeded image, then re-place it on a lane machine that a run has
    // dirtied and reset has rewound. The host must equal compileModel +
    // initTensors on a fresh machine: same regions at the same
    // addresses, same sizes, same bits.
    std::vector<lib::Model> models = {
        lib::tinyEncoder(2, 32, 64, 4, 128, true)};
    for (const auto &cls : serve::defaultClasses())
        for (std::uint32_t batch : {1u, 4u})
            models.push_back(cls.build(batch));
    for (const bool bf16 : {false, true}) {
        MachineConfig cfg = MachineConfig::vck190(true);
        if (bf16)
            cfg.precision = {Dtype::Bf16, Dtype::Bf16, Dtype::Bf16};
        for (const auto &model : models) {
            SCOPED_TRACE(model.name + (bf16 ? " bf16" : " f32"));
            RsnMachine fresh(cfg);
            const auto c = lib::compileModel(
                fresh, model, lib::ScheduleOptions::optimized());
            lib::initTensors(fresh, c, 2025);
            const lib::SeededImage image = lib::captureSeeded(fresh, c);

            lib::SweepLane lane(0);
            RsnMachine &dirty = lane.machine(cfg);
            const auto c0 = lib::compileModel(
                dirty, model, lib::ScheduleOptions::optimized());
            ASSERT_TRUE(lib::runModelChecked(dirty, model, c0, 7).report
                            .result.ticks > 0);
            RsnMachine &mach = lane.machine(cfg);
            ASSERT_EQ(lane.machinesReused(), 1u);
            lib::restoreTensors(mach, c, image);

            EXPECT_EQ(mach.host().allocatedBytes(),
                      fresh.host().allocatedBytes());
            for (const auto &t : c.tensors) {
                EXPECT_EQ(mach.host().regionName(t.addr), t.name);
                EXPECT_EQ(fresh.host().regionName(t.addr), t.name);
                const auto got = mach.host().region(t.addr);
                const auto want = fresh.host().region(t.addr);
                ASSERT_EQ(got.size(), std::size_t(t.rows) * t.cols)
                    << t.name;
                ASSERT_EQ(want.size(), got.size()) << t.name;
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      got.size_bytes()),
                          0)
                    << t.name;
            }
        }
    }
}

TEST(Runner, InPlaceVerifyMakesAllcloseDecisions)
{
    // runVerified decides with ref::allcloseFast over the host region
    // and only reruns ref::allclose to name the diverged element, so the
    // two must agree on every input: NaN and inf on either side, |d|
    // exactly at the tolerance and one ulp above it, empty tensors, and
    // the contract's absolute slack above RMS 1.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const std::pair<float, float> edges[] = {
        {nan, 0.5f}, {0.5f, nan}, {nan, nan},  {inf, inf},
        {-inf, -inf}, {inf, -inf}, {inf, 0.5f}, {0.5f, inf},
        {-inf, 0.5f}, {0.5f, -inf}, {nan, inf}, {inf, nan},
        {-0.f, 0.f},  {0.f, -0.f}};
    std::size_t cases = 0, passed = 0;
    auto decide = [&](const ref::Matrix &got, const ref::Matrix &want,
                      float rtol, float atol) {
        const bool fast =
            ref::allcloseFast(got.data, want.data, rtol, atol);
        EXPECT_EQ(fast, ref::allclose(got, want, rtol, atol))
            << "case " << cases << " rtol " << rtol << " atol " << atol;
        ++cases;
        passed += fast;
        return fast;
    };
    for (Dtype d : {Dtype::F32, Dtype::Bf16}) {
        const float t =
            lib::accuracyBound(core::PrecisionPolicy{d, d, d});
        for (float scale : {0.5f, 400.f}) {
            const ref::Matrix want = ref::randomMatrix(8, 16, 11, scale);
            double sq = 0;
            for (float v : want.data)
                sq += double(v) * v;
            const float rtol = t;
            const float atol = t * float(std::max(
                1.0, std::sqrt(sq / want.data.size())));
            if (scale > 1)
                EXPECT_GT(atol, rtol);  // RMS above 1.
            EXPECT_TRUE(decide(want, want, rtol, atol));

            for (std::size_t i = 0; i < want.data.size(); ++i) {
                // The largest got whose |d| passes, then one ulp past it.
                const float y = want.data[i];
                const float tol = atol + rtol * std::abs(y);
                float x = y + tol;
                while (std::abs(x - y) > tol)
                    x = std::nextafter(x, y);
                while (std::abs(std::nextafter(x, inf) - y) <= tol)
                    x = std::nextafter(x, inf);
                ref::Matrix got = want;
                got.data[i] = x;
                EXPECT_TRUE(decide(got, want, rtol, atol)) << i;
                got.data[i] = std::nextafter(x, inf);
                EXPECT_FALSE(decide(got, want, rtol, atol)) << i;
            }
            // |d| == tol exactly, where y = 0 makes it representable.
            ref::Matrix zero(1, 2), at(1, 2);
            at.data = {atol, -atol};
            EXPECT_TRUE(decide(at, zero, rtol, atol));
            at.data[1] = -std::nextafter(atol, inf);
            EXPECT_FALSE(decide(at, zero, rtol, atol));

            for (const auto &[x, y] : edges) {
                ref::Matrix got = want, w = want;
                got.data[3] = x;
                w.data[3] = y;
                decide(got, w, rtol, atol);
            }
            decide(ref::Matrix(0, 0), ref::Matrix(0, 0), rtol, atol);
        }
    }
    // Both decisions occurred, so no branch of the predicate went
    // untested.
    EXPECT_GT(passed, 0u);
    EXPECT_LT(passed, cases);
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
