#include <gtest/gtest.h>

#include "core/area.hh"
#include "core/machine.hh"
#include "core/power.hh"
#include "core/report.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"

namespace {

using namespace rsn;
using core::MachineConfig;
using core::RsnMachine;

struct PowerFixture : public ::testing::Test {
    void
    SetUp() override
    {
        mach = std::make_unique<RsnMachine>(MachineConfig::vck190());
        auto c = lib::compileModel(*mach,
                                   lib::bertLargeEncoder(2, 512, true, 1),
                                   lib::ScheduleOptions::optimized());
        const auto rep = mach->runChecked(c.program);
        ASSERT_TRUE(rep.ok()) << rep.toString();
        run = rep.result;
    }

    std::unique_ptr<RsnMachine> mach;
    core::RunResult run;
};

TEST_F(PowerFixture, AieDominatesLikeTable4)
{
    core::PowerModel power;
    auto rows = power.breakdown(*mach, run);
    ASSERT_FALSE(rows.empty());
    // Sorted descending: AIE first with ~60%+ share, MemC second.
    EXPECT_EQ(rows[0].component, "AIE");
    EXPECT_GT(rows[0].percent, 50.0);
    EXPECT_EQ(rows[1].component, "MemC");
    EXPECT_GT(rows[1].percent, 10.0);
}

TEST_F(PowerFixture, DecoderPowerIsNegligible)
{
    core::PowerModel power;
    for (const auto &r : power.breakdown(*mach, run)) {
        if (r.component == "Decoder")
            EXPECT_LT(r.percent, 1.0);  // paper: 0.08%
    }
}

TEST_F(PowerFixture, OperatingExceedsDynamic)
{
    core::PowerModel power;
    double dyn = power.dynamicWatts(*mach, run);
    double op = power.operatingWatts(*mach, run);
    EXPECT_GT(dyn, 0.0);
    EXPECT_GT(op, dyn);
    // Board-level band of Table 10 (45.5 W operating / 18.2 dynamic).
    EXPECT_LT(op, 80.0);
    EXPECT_GT(op, 25.0);
}

TEST_F(PowerFixture, EnergyConsistentWithPowerAndTime)
{
    core::PowerModel power;
    double e = power.energyJ(*mach, run, /*dynamic=*/true);
    EXPECT_NEAR(e, power.dynamicWatts(*mach, run) * run.ms / 1e3,
                1e-9);
}

TEST(PowerModel, IdleMachineDrawsNoDynamicPower)
{
    RsnMachine mach(MachineConfig::vck190());
    core::RunResult r;
    r.ticks = 1000000;
    r.ms = ticksToMs(r.ticks);
    core::PowerModel power;
    EXPECT_NEAR(power.dynamicWatts(mach, r), 0.0, 1e-6);
}

TEST(AreaModel, DecoderFootprintMatchesPaperBand)
{
    auto a = core::AreaModel::decoderArea(MachineConfig::vck190());
    // Paper: 11.7k LUT, 8.6k FF, 5 DSP, 4 BRAM (~3% of LUTs).
    EXPECT_NEAR(double(a.lut), 11700.0, 2500.0);
    EXPECT_NEAR(double(a.ff), 8600.0, 2500.0);
    EXPECT_LE(a.dsp, 8u);
    EXPECT_LE(a.bram, 8u);
    double pct = core::AreaModel::decoderLutPercent(
        MachineConfig::vck190());
    EXPECT_GT(pct, 1.0);
    EXPECT_LT(pct, 5.0);
}

TEST(AreaModel, BramGrowsWithFetchFifoDepth)
{
    // The datapath shape is fixed (core/config.hh); the packet FIFOs are
    // what a caller sizes, and they land in BRAM.
    auto small = MachineConfig::vck190();
    auto big = MachineConfig::vck190();
    big.fetch_fifo_depth = 4 * small.fetch_fifo_depth;
    EXPECT_GT(core::AreaModel::decoderArea(big).bram,
              core::AreaModel::decoderArea(small).bram);
    EXPECT_EQ(core::AreaModel::decoderArea(big).lut,
              core::AreaModel::decoderArea(small).lut);
}

TEST(Report, TablePrintsAllCells)
{
    core::Table t("test table");
    t.header({"a", "b"});
    t.row({"1", "2"});
    t.row({"333", "4"});
    // Smoke: printing must not crash, and helpers format correctly.
    t.print();
    EXPECT_EQ(core::Table::num(1.2345, 2), "1.23");
    EXPECT_EQ(core::Table::pct(12.345, 1), "12.3%");
}

} // namespace
