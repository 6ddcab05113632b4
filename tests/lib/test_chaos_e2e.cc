/**
 * @file
 * Chaos end-to-end tier (ISSUE 6): seeded fault schedules on the full
 * machine either complete with ref_math-correct outputs or terminate
 * with a structured RunReport naming the fault site — never hang, never
 * corrupt, never abort the process. And the same seed reproduces the
 * outcome bit-for-bit: status, final tick, and fault log.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"

namespace {

using namespace rsn;

/** Keep in sync with tests/lib/test_golden_e2e.cc. */
constexpr Tick kTinyEncoderGoldenTicks = 11084;

/** Chaos runs must terminate well before this (tiny model is ~11k ticks
 *  fault-free; injected stalls/retries add a few percent). */
constexpr Tick kChaosTickBudget = Tick(10) * 1000 * 1000;

lib::Model
tinyModel()
{
    return lib::tinyEncoder(/*batch=*/2, /*seq=*/32, /*hidden=*/64,
                            /*heads=*/4, /*ff=*/128, /*fuse_qkv=*/true);
}

lib::CheckedRun
chaosRun(const sim::FaultSpec &fault)
{
    auto cfg = core::MachineConfig::vck190(/*functional=*/true);
    cfg.fault = fault;
    core::RsnMachine mach(cfg);
    auto model = tinyModel();
    auto compiled = lib::compileModel(mach, model,
                                      lib::ScheduleOptions::optimized());
    return lib::runModelChecked(mach, model, compiled, /*seed=*/2025,
                                kChaosTickBudget);
}

TEST(ChaosE2e, FaultsDisabledMatchesTheGoldenTrace)
{
    // The structured-run path with no injector must be bit-identical to
    // the plain golden run: same tick count, verified outputs, Ok status.
    auto cr = chaosRun(sim::FaultSpec{});
    ASSERT_TRUE(cr.report.ok()) << cr.report.toString();
    EXPECT_TRUE(cr.mismatched.empty());
    EXPECT_EQ(cr.report.result.ticks, kTinyEncoderGoldenTicks);
    EXPECT_EQ(cr.report.faults_injected, 0u);
}

TEST(ChaosE2e, ChecksumsAloneDoNotMoveATick)
{
    // Payload protection is pure bookkeeping: stamping and verifying
    // checksums must not perturb the schedule.
    sim::FaultSpec f;
    f.checksums = true;
    auto cr = chaosRun(f);
    ASSERT_TRUE(cr.report.ok()) << cr.report.toString();
    EXPECT_EQ(cr.report.result.ticks, kTinyEncoderGoldenTicks);
}

TEST(ChaosE2e, RecoveredStallsCompleteCorrectlyButLater)
{
    sim::FaultSpec f;
    f.seed = 5;
    f.link_stall_rate = 0.05;
    f.link_stall_max = 32;
    auto cr = chaosRun(f);
    ASSERT_TRUE(cr.report.ok())
        << "recovered faults corrupted outputs: " << cr.report.toString();
    EXPECT_GT(cr.report.faults_injected, 0u);
    EXPECT_GT(cr.report.result.ticks, kTinyEncoderGoldenTicks)
        << "injected stalls cost no time";
}

TEST(ChaosE2e, CertainBitFlipIsDiagnosedNotComputedWith)
{
    sim::FaultSpec f;
    f.flip_rate = 1.0;
    auto cr = chaosRun(f);
    EXPECT_FALSE(cr.report.ok());
    EXPECT_EQ(cr.report.status.code, StatusCode::FaultDiagnosed);
    // The diagnosis names the detecting site.
    EXPECT_NE(cr.report.status.message.find("checksum-mismatch"),
              std::string::npos)
        << cr.report.status.message;
    EXPECT_NE(cr.report.status.message.find("fu "), std::string::npos)
        << cr.report.status.message;
}

TEST(ChaosE2e, SeededSchedulesAreReproducibleAndNeverHang)
{
    // The headline chaos contract, over several seeds of the full
    // preset: every run terminates within the tick budget, and the
    // outcome is bitwise identical run-to-run — same status, same final
    // tick, same fault log. Each run either completes with correct
    // outputs or ends with a structured report; there is no third
    // outcome.
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        auto a = chaosRun(sim::FaultSpec::chaosPreset(seed));
        auto b = chaosRun(sim::FaultSpec::chaosPreset(seed));

        EXPECT_EQ(a.report.status.code, b.report.status.code) << seed;
        EXPECT_EQ(a.report.status.message, b.report.status.message)
            << seed;
        EXPECT_EQ(a.report.result.ticks, b.report.result.ticks) << seed;
        EXPECT_EQ(a.report.faults_injected, b.report.faults_injected)
            << seed;
        ASSERT_EQ(a.report.faults.size(), b.report.faults.size()) << seed;
        for (std::size_t i = 0; i < a.report.faults.size(); ++i)
            EXPECT_EQ(a.report.faults[i], b.report.faults[i])
                << seed << " record " << i;

        // Terminated (did not burn the whole budget), with a binary
        // outcome: verified-correct completion or a structured report.
        EXPECT_NE(a.report.status.code, StatusCode::Timeout)
            << a.report.toString();
        EXPECT_NE(a.report.status.code, StatusCode::OutputMismatch)
            << "seed " << seed
            << " completed with corrupt outputs: the recovery path "
               "let bad data through";
        if (!a.report.ok()) {
            EXPECT_FALSE(a.report.status.message.empty());
        }
    }
}

TEST(ChaosE2e, ResetMachineReplaysTheChaosScheduleExactly)
{
    // chaosPreset(1) completes on the tiny model (pinned by the smoke
    // tier); a reset of that machine must replay the identical fault
    // schedule and land on the identical tick.
    auto cfg = core::MachineConfig::vck190(/*functional=*/true);
    cfg.fault = sim::FaultSpec::chaosPreset(1);
    core::RsnMachine mach(cfg);
    auto model = tinyModel();
    Tick first_ticks = 0;
    std::uint64_t first_faults = 0;
    for (int i = 0; i < 2; ++i) {
        if (i) {
            ASSERT_TRUE(mach.resettable());
            mach.reset();
        }
        auto compiled = lib::compileModel(
            mach, model, lib::ScheduleOptions::optimized());
        auto cr = lib::runModelChecked(mach, model, compiled, 2025,
                                       kChaosTickBudget);
        ASSERT_TRUE(cr.report.ok()) << cr.report.toString();
        if (i) {
            EXPECT_EQ(cr.report.result.ticks, first_ticks);
            EXPECT_EQ(cr.report.faults_injected, first_faults);
        } else {
            first_ticks = cr.report.result.ticks;
            first_faults = cr.report.faults_injected;
        }
    }
}

TEST(ChaosE2e, DeadLinkEndsTheRunWithADiagnosisNamingTheStream)
{
    sim::FaultSpec f;
    f.link_drop_rate = 1.0;  // first transfer already exhausts retries
    f.max_retries = 2;
    auto cr = chaosRun(f);
    EXPECT_FALSE(cr.report.ok());
    EXPECT_EQ(cr.report.status.code, StatusCode::FaultDiagnosed);
    EXPECT_NE(cr.report.status.message.find("link-dead"),
              std::string::npos)
        << cr.report.status.message;
    EXPECT_NE(cr.report.status.message.find("stream "), std::string::npos)
        << cr.report.status.message;
    // The waiter scan after the headline names the parked endpoints.
    EXPECT_NE(cr.report.status.message.find("lost to a dead link"),
              std::string::npos)
        << cr.report.status.message;
}

} // namespace
