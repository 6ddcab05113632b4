#include <gtest/gtest.h>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"

namespace {

using namespace rsn;
using core::MachineConfig;
using core::RsnMachine;

/**
 * Deadlock detection and diagnosis (paper Sec. 3.3): a quiesced machine
 * with blocked FUs must be reported as deadlocked — with an actionable
 * stall report — never as completed, and never hang.
 */

TEST(Deadlock, ShallowPacketFifoDeadlocksAndIsDiagnosed)
{
    auto cfg = MachineConfig::vck190();
    cfg.fetch_fifo_depth = 4;  // below the threshold for this shape
    RsnMachine mach(cfg);
    auto c = lib::compileModel(mach, lib::bertLargeEncoder(2, 128, true,
                                                           1),
                               lib::ScheduleOptions::bwOptimized());
    auto r = mach.runChecked(c.program);
    ASSERT_EQ(r.status.code, StatusCode::Deadlock) << r.toString();
    // The diagnosis names the stalled fetch unit and blocked FUs.
    EXPECT_NE(r.status.message.find("fetch"), std::string::npos);
    EXPECT_NE(r.status.message.find("blocked"), std::string::npos);
}

TEST(Deadlock, DefaultDepthsCompleteTheSameProgram)
{
    RsnMachine mach(MachineConfig::vck190());
    auto c = lib::compileModel(mach, lib::bertLargeEncoder(2, 128, true,
                                                           1),
                               lib::ScheduleOptions::bwOptimized());
    auto r = mach.runChecked(c.program);
    EXPECT_EQ(r.status.code, StatusCode::Ok) << r.toString();
    EXPECT_TRUE(r.status.message.empty());
}

TEST(Deadlock, TruncatedProgramReportsUnhaltedFus)
{
    // A program that never halts the FUs quiesces with every FU parked
    // on its uOP queue: detected as a deadlock, not completion.
    RsnMachine mach(MachineConfig::vck190());
    isa::RsnProgram prog;
    isa::RsnPacket p;
    p.opcode = FuType::MeshA;
    p.mask = 1;
    isa::MeshUop mu;
    mu.repeats = 1;
    mu.mode = isa::MeshMode::Distribute;
    mu.routes.push_back({{FuType::MemA, 0}, {FuType::Mme, 0}});
    p.mops.emplace_back(mu);
    prog.append(p);
    auto r = mach.runChecked(prog);
    EXPECT_EQ(r.status.code, StatusCode::Deadlock);
    EXPECT_NE(r.status.message.find("MeshA"), std::string::npos);
}

TEST(Deadlock, TickLimitReportsTimeoutNotDeadlock)
{
    RsnMachine mach(MachineConfig::vck190());
    auto c = lib::compileModel(mach, lib::bertLargeEncoder(1, 128, true,
                                                           1),
                               lib::ScheduleOptions::optimized());
    auto r = mach.runChecked(c.program, /*max_ticks=*/1000);
    EXPECT_EQ(r.status.code, StatusCode::Timeout) << r.toString();
}

TEST(Deadlock, EmptyProgramWithHaltsCompletesImmediately)
{
    RsnMachine mach(MachineConfig::vck190());
    isa::RsnProgram prog;
    std::array<int, kNumFuTypes> counts{};
    counts[int(FuType::Mme)] = 6;
    counts[int(FuType::MemA)] = 3;
    counts[int(FuType::MemB)] = 3;
    counts[int(FuType::MemC)] = 6;
    counts[int(FuType::MeshA)] = 1;
    counts[int(FuType::MeshB)] = 1;
    counts[int(FuType::Ddr)] = 1;
    counts[int(FuType::Lpddr)] = 1;
    prog.appendHalts(counts);
    auto r = mach.runChecked(prog);
    EXPECT_EQ(r.status.code, StatusCode::Ok) << r.toString();
}

TEST(Deadlock, MachineRunIsSingleUse)
{
    RsnMachine mach(MachineConfig::vck190());
    isa::RsnProgram prog;
    std::array<int, kNumFuTypes> counts{};
    counts[int(FuType::Ddr)] = 1;
    prog.appendHalts(counts);
    // First run only halts DDR: other FUs never halt -> deadlock state.
    auto r = mach.runChecked(prog);
    EXPECT_EQ(r.status.code, StatusCode::Deadlock);
    EXPECT_THROW((void)mach.runChecked(prog), std::logic_error);
}

} // namespace
